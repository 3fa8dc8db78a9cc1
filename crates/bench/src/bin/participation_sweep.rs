//! Participation sweep: how much crowd does the crowd-sensing need?
//!
//! The paper's deployment went through a *sparse* first month ("we receive
//! limited data from the participatory bus riders due to their small
//! number") and an *intensive* stage with encouraged riding (§IV-A). This
//! experiment quantifies that axis: map coverage and estimation error as a
//! function of the fraction of riders running the app.
//!
//! Run with `cargo run --release -p busprobe-bench --bin participation_sweep`.

use busprobe_bench::stats::quantile;
use busprobe_bench::World;
use busprobe_sim::{OfficialTraffic, SimTime, Simulation};

fn main() {
    let world = World::paper(7);
    let start = SimTime::from_hms(7, 0, 0);
    let end = SimTime::from_hms(10, 0, 0);
    let scenario = world.scenario(start, end);
    let profile = scenario.profile.clone();
    let output = Simulation::new(scenario).run();
    let official = OfficialTraffic::tabulate(&world.network, &profile, start, end, 300.0, 0.0, 4);
    let snapshot_t = SimTime::from_hms(9, 30, 0);

    println!("# Participation sweep: morning rush, snapshot at {snapshot_t}");
    println!(
        "# region: {} segments; {} rider journeys available",
        world.network.segment_count(),
        output.rider_trips.len()
    );
    println!();
    println!(
        "{:>14} {:>9} {:>10} {:>12} {:>14}",
        "participation", "uploads", "coverage", "median_dv", "p90_dv"
    );

    for &participation in &[0.02, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let monitor = world.monitor();
        let trips: Vec<busprobe_mobile::Trip> = world
            .uploads(&output, participation, 17)
            .into_iter()
            .filter(|t| t.end_s() <= snapshot_t.seconds())
            .collect();
        let _ = monitor.ingest_batch_parallel(&trips, 0);
        let map = monitor.snapshot_with_max_age(snapshot_t.seconds(), 3600.0);

        let mut dv: Vec<f64> = Vec::new();
        for (key, e) in &map.segments {
            if let Some(v_t) = official.speed_kmh(*key, SimTime::from_seconds(e.updated_s)) {
                dv.push((e.speed_kmh() - v_t).abs());
            }
        }
        println!(
            "{:>13.0}% {:>9} {:>9.0}% {:>12} {:>14}",
            100.0 * participation,
            trips.len(),
            100.0 * map.coverage(&world.network),
            quantile(&dv, 0.5).map_or("-".into(), |v| format!("{v:.1} km/h")),
            quantile(&dv, 0.9).map_or("-".into(), |v| format!("{v:.1} km/h")),
        );
    }
    println!();
    println!("# expect: coverage saturates quickly — a few percent of riders already");
    println!("# cover the monitored routes, matching the paper's experience that 22");
    println!("# participants sufficed once they rode intensively");
}
