//! Figure 10 reproduction: estimated automobile speed v_A vs the official
//! traffic feed v_T on two road segments across a day (9:30–19:30,
//! 5-minute windows), with a Google-Maps-style 4-level indicator.
//!
//! Run with `cargo run --release -p busprobe-bench --bin fig10_timeseries`.

use busprobe_bench::World;
use busprobe_core::GoogleMapsIndicator;
use busprobe_network::SegmentKey;
use busprobe_sim::{OfficialTraffic, SimTime};
use std::collections::HashMap;

const WINDOW_S: f64 = 300.0;

fn main() {
    let world = World::paper(7);
    let monitor = world.monitor();
    let start = SimTime::from_hms(9, 0, 0);
    let end = SimTime::from_hms(19, 45, 0);

    let scenario = world.scenario(start, end);
    let profile = scenario.profile.clone();
    let output = busprobe_sim::Simulation::new(scenario).run();
    let trips = world.uploads(&output, 1.0, 10);

    // Ordinary ingest; the monitor retains the per-window speed series.
    let reports = monitor.ingest_batch_parallel(&trips, 0);
    let total_obs: usize = reports.iter().map(|r| r.observations).sum();
    let mut buckets: HashMap<(SegmentKey, u32), f64> = HashMap::new();
    for seg in world.network.segments() {
        for (t, v) in monitor.speed_series_kmh(seg.key) {
            buckets.insert(
                (seg.key, SimTime::from_seconds(t).window_index(WINDOW_S)),
                v,
            );
        }
    }
    let _ = total_obs;

    // The official reference feed (the paper's LTA taxi AVL data).
    let official =
        OfficialTraffic::tabulate(&world.network, &profile, start, end, WINDOW_S, 0.03, 77);

    // Pick the two report segments: A = a morning hotspot with the most
    // observations, B = the busiest non-hotspot segment.
    let count_for = |key: SegmentKey| buckets.keys().filter(|(k, _)| *k == key).count();
    let mut seg_a = None;
    let mut seg_b = None;
    let mut best_a = 0;
    let mut best_b = 0;
    for seg in world.network.segments() {
        let c = count_for(seg.key);
        if profile.is_hotspot(seg.key) {
            if c > best_a {
                best_a = c;
                seg_a = Some(seg.key);
            }
        } else if c > best_b {
            best_b = c;
            seg_b = Some(seg.key);
        }
    }
    let seg_a = seg_a.expect("a hotspot segment with data");
    let seg_b = seg_b.expect("a normal segment with data");

    println!("# Figure 10: v_A (our estimate) vs v_T (official) vs Google-style indicator");
    println!("# segment A = {seg_a} (morning hotspot), segment B = {seg_b}");
    println!(
        "# {} uploads, {} (segment,window) buckets",
        trips.len(),
        buckets.len()
    );

    for (label, key) in [("A", seg_a), ("B", seg_b)] {
        println!();
        println!("== segment {label} ({key}) ==");
        println!(
            "{:>8} {:>10} {:>10} {:>18}",
            "time", "v_A_kmh", "v_T_kmh", "google_level_1to4"
        );
        let first = SimTime::from_hms(9, 30, 0).window_index(WINDOW_S);
        let last = SimTime::from_hms(19, 30, 0).window_index(WINDOW_S);
        for w in first..=last {
            let t = SimTime::from_seconds(f64::from(w) * WINDOW_S);
            let v_a = buckets.get(&(key, w)).copied();
            let v_t = official.speed_kmh(key, t);
            let google = v_t.map(|v| GoogleMapsIndicator::from_kmh(v).level());
            println!(
                "{:>8} {:>10} {:>10} {:>18}",
                t.to_string(),
                v_a.map_or("-".into(), |v| format!("{v:.1}")),
                v_t.map_or("-".into(), |v| format!("{v:.1}")),
                google.map_or("-".into(), |g| g.to_string()),
            );
        }
    }
    println!();
    println!("# paper shape: v_A tracks v_T closely at low speeds; at high speeds v_A");
    println!("# sits below v_T (buses cap out) but follows its variation pattern");
}
