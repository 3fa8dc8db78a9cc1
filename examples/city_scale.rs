//! City-scale operation: the paper's full 7 km × 4 km region, a whole
//! service day, thousands of uploads, hourly traffic maps.
//!
//! Demonstrates the scalability story of the crowdsourcing framework: the
//! backend keeps up with a city's worth of uploads using parallel ingest,
//! and the map's coverage/level mix follows the diurnal congestion pattern.
//!
//! Run with `cargo run --release --example city_scale`.

use busprobe::cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::NetworkGenerator;
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let network = NetworkGenerator::paper_region(7).generate();
    let region = network.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 7);
    let scanner = Scanner::new(deployment, PropagationModel::default(), 7);
    let coverage = network.coverage();
    println!(
        "region: {} routes, {} sites, {} segments, {:.0}% of roads covered",
        network.routes().len(),
        network.sites().len(),
        network.segment_count(),
        100.0 * coverage.ratio_1()
    );

    // Fingerprint database.
    let mut rng = StdRng::seed_from_u64(1);
    let mut samples = BTreeMap::new();
    for site in network.sites() {
        let fps = (0..5)
            .map(|_| scanner.scan(site.position, &mut rng).fingerprint())
            .collect();
        samples.insert(site.id, fps);
    }
    let db = StopFingerprintDb::build_from_samples(&samples, &MatchConfig::default());

    // A whole service day.
    let start = SimTime::from_hms(6, 30, 0);
    let end = SimTime::from_hms(20, 0, 0);
    let t0 = Instant::now();
    let output = Simulation::new(Scenario::new(network.clone(), 7).with_span(start, end)).run();
    println!(
        "simulated {:.1} h of service in {:.1} s: {} visits, {} taps",
        (end - start) / 3600.0,
        t0.elapsed().as_secs_f64(),
        output.stop_visits.len(),
        output.beeps.len()
    );

    // Uploads from a 60% participation rate.
    let mut trips: Vec<Trip> = Vec::new();
    let mut urng = StdRng::seed_from_u64(2);
    for rider in &output.rider_trips {
        use rand::Rng as _;
        if urng.gen_range(0.0..1.0) >= 0.6 {
            continue;
        }
        let obs = trip_observations(rider, &output, &scanner, &mut urng);
        if obs.len() >= 2 {
            trips.push(Trip {
                samples: obs
                    .into_iter()
                    .map(|o| CellularSample {
                        time_s: o.time.seconds(),
                        scan: o.scan,
                    })
                    .collect(),
            });
        }
    }

    // Stream uploads into the backend in arrival order (phones upload when
    // the trip concludes), snapshotting the map on the hour.
    let monitor = TrafficMonitor::new(network.clone(), db, MonitorConfig::default());
    trips.sort_by(|a, b| a.end_s().partial_cmp(&b.end_s()).expect("finite times"));
    let t1 = Instant::now();
    let mut observations = 0usize;
    let mut cursor = 0usize;
    let mut hourly_maps = Vec::new();
    for hour in 8..20 {
        let t = SimTime::from_hms(hour, 0, 0);
        let arrived = trips[cursor..].partition_point(|trip| trip.end_s() <= t.seconds());
        let batch = &trips[cursor..cursor + arrived];
        cursor += arrived;
        observations += monitor
            .ingest_batch_parallel(batch, 0)
            .iter()
            .map(|r| r.observations)
            .sum::<usize>();
        hourly_maps.push((hour, monitor.snapshot_with_max_age(t.seconds(), 1800.0)));
    }
    let elapsed = t1.elapsed().as_secs_f64();
    println!(
        "ingested {cursor} uploads in {elapsed:.2} s ({:.0} uploads/s), {observations} observations",
        cursor as f64 / elapsed
    );

    // Hourly map summary across the day.
    println!();
    println!(
        "{:>7} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "hour", "coverage", "mean_kmh", "<20", "20-30", "30-40", "40-50", ">50"
    );
    for (hour, map) in hourly_maps {
        let mean = if map.is_empty() {
            0.0
        } else {
            map.segments
                .values()
                .map(busprobe::core::SegmentEstimate::speed_kmh)
                .sum::<f64>()
                / map.len() as f64
        };
        let hist = map.level_histogram();
        let count = |l| hist.get(&l).copied().unwrap_or(0);
        use busprobe::core::SpeedLevel::{Fast, Normal, Slow, VeryFast, VerySlow};
        println!(
            "{hour:>6}h {:>8.0}% {mean:>10.1} {:>8} {:>8} {:>8} {:>8} {:>8}",
            100.0 * map.coverage(&network),
            count(VerySlow),
            count(Slow),
            count(Normal),
            count(Fast),
            count(VeryFast),
        );
    }
    println!();
    println!("(expect: slow levels dominating ~8-9h, faster mix mid-day and evening)");
}
