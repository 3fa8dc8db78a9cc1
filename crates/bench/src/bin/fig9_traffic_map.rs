//! Figure 9 reproduction: traffic-map snapshots at 8:30 AM and 5:00 PM on
//! an intensive-participation day, plus the coverage comparison.
//!
//! Run with `cargo run --release -p busprobe-bench --bin fig9_traffic_map`.

use busprobe_bench::World;
use busprobe_core::TrafficMap;
use busprobe_sim::SimTime;

fn main() {
    let world = World::paper(7);

    // Simulate the whole service day with everyone participating (the
    // paper "encouraged most participants to intensively take buses").
    let output = world.simulate(SimTime::from_hms(6, 30, 0), SimTime::from_hms(19, 0, 0));
    let trips = world.uploads(&output, 1.0, 9);
    println!("# Figure 9: traffic map snapshots");
    println!(
        "# day simulation: {} bus stop visits, {} beeps, {} uploads",
        output.stop_visits.len(),
        output.beeps.len(),
        trips.len()
    );

    for (label, t) in [
        ("8:30 AM", SimTime::from_hms(8, 30, 0)),
        ("5:00 PM", SimTime::from_hms(17, 0, 0)),
    ] {
        // The server only has the uploads received so far.
        let monitor = world.monitor();
        let past: Vec<busprobe_mobile::Trip> = trips
            .iter()
            .filter(|trip| trip.end_s() <= t.seconds())
            .cloned()
            .collect();
        let reports = monitor.ingest_batch_parallel(&past, 0);
        let obs: usize = reports.iter().map(|r| r.observations).sum();
        let map = monitor.snapshot_with_max_age(t.seconds(), 2400.0);
        println!();
        println!(
            "== snapshot at {label} ({} uploads, {obs} observations) ==",
            past.len()
        );
        print_snapshot(&world, &map);
    }

    println!();
    println!("# paper shape: 8:30 AM has slow central roads; 5 PM is faster overall;");
    println!("# covered road fraction exceeds 50% with only 8 routes");
}

fn print_snapshot(world: &World, map: &TrafficMap) {
    let network = &world.network;
    println!(
        "covered segments: {}/{} ({:.0}%)",
        map.len(),
        network.segment_count(),
        100.0 * map.coverage(network)
    );
    // The paper's Fig. 9(c) coverage claim is against the whole road
    // network (Google Maps shows far less); our route set covers this
    // fraction of all grid road pieces.
    let road_cov = network.coverage();
    println!(
        "road-network coverage by monitored routes: {:.0}% of all road pieces",
        100.0 * road_cov.ratio_1() * map.coverage(network)
    );
    let mut speeds: Vec<f64> = map.segments.values().map(|e| e.speed_kmh()).collect();
    speeds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if let (Some(lo), Some(hi)) = (speeds.first(), speeds.last()) {
        println!("speed range: {lo:.0}-{hi:.0} km/h");
    }
    println!("level histogram:");
    for (level, count) in map.level_histogram() {
        println!("  {level:>12}: {count}");
    }

    // ASCII raster of the region: one glyph per covered segment midpoint.
    let spec = network.grid().spec();
    let cols = 70usize;
    let rows = 22usize;
    let mut canvas = vec![vec![' '; cols]; rows];
    // Mark the road grid lightly.
    for site in network.sites() {
        let (cx, cy) = cell(site.position, spec, cols, rows);
        canvas[cy][cx] = '·';
    }
    for (key, e) in &map.segments {
        let a = network.site(key.from).position;
        let b = network.site(key.to).position;
        let mid = a.lerp(b, 0.5);
        let (cx, cy) = cell(mid, spec, cols, rows);
        canvas[cy][cx] = e.level.glyph_solid();
    }
    println!("region raster ('#'<20, '='<30, '-'<40, '.'<50, 'o'>=50 km/h, '·' uncovered stop):");
    for row in canvas.iter().rev() {
        println!("  {}", row.iter().collect::<String>());
    }
}

fn cell(
    p: busprobe_geo::Point,
    spec: &busprobe_network::GridSpec,
    cols: usize,
    rows: usize,
) -> (usize, usize) {
    let fx = (p.x / spec.width_m()).clamp(0.0, 0.999);
    let fy = (p.y / spec.height_m()).clamp(0.0, 0.999);
    ((fx * cols as f64) as usize, (fy * rows as f64) as usize)
}

/// Solid glyphs for the raster (the `SpeedLevel::glyph` of the library uses
/// a space for free flow, which is invisible here).
trait SolidGlyph {
    fn glyph_solid(&self) -> char;
}

impl SolidGlyph for busprobe_core::SpeedLevel {
    fn glyph_solid(&self) -> char {
        match self {
            busprobe_core::SpeedLevel::VerySlow => '#',
            busprobe_core::SpeedLevel::Slow => '=',
            busprobe_core::SpeedLevel::Normal => '-',
            busprobe_core::SpeedLevel::Fast => '.',
            busprobe_core::SpeedLevel::VeryFast => 'o',
        }
    }
}
