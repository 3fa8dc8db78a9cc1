//! Fault-rate sweep: how accuracy degrades as upload quality collapses.
//!
//! Simulates one morning, then replays the same rider uploads through the
//! backend at increasing multiples of the *calibrated* fault plan
//! (`busprobe-faults`): missed and spurious beeps, clock skew and drift,
//! truncated scans, reordering, duplicate retries, interleaved trips,
//! field corruption. For every level it prints upload survival, drop
//! attribution, coverage and the mean segment travel-time error against
//! the simulator's ground truth. Everything is seeded, so the table
//! reproduces bit-for-bit (see EXPERIMENTS.md).
//!
//! Run with `cargo run --release --example fault_sweep`.

use busprobe::cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{DropReason, MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::faults::{FaultInjector, FaultPlan};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::NetworkGenerator;
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const WORLD_SEED: u64 = 21;
const UPLOAD_SEED: u64 = 1;
const FAULT_SEED: u64 = 7;
const SCALES: [f64; 7] = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0];

fn main() {
    // One world, simulated once; a fresh monitor per fault level.
    let network = NetworkGenerator::small(WORLD_SEED).generate();
    let region = network.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), WORLD_SEED);
    let scanner = Scanner::new(deployment, PropagationModel::default(), WORLD_SEED);
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    let mut fp_samples = BTreeMap::new();
    for site in network.sites() {
        let fps = (0..5)
            .map(|_| scanner.scan(site.position, &mut rng).fingerprint())
            .collect();
        fp_samples.insert(site.id, fps);
    }
    let db = StopFingerprintDb::build_from_samples(&fp_samples, &MatchConfig::default());
    let scenario = Scenario::new(network.clone(), WORLD_SEED)
        .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 30, 0));
    let output = Simulation::new(scenario.clone()).run();

    let mut upload_rng = StdRng::seed_from_u64(UPLOAD_SEED);
    let trips: Vec<Trip> = output
        .rider_trips
        .iter()
        .filter_map(|rider| {
            let obs = trip_observations(rider, &output, &scanner, &mut upload_rng);
            (obs.len() >= 2).then(|| Trip {
                samples: obs
                    .into_iter()
                    .map(|o| CellularSample {
                        time_s: o.time.seconds(),
                        scan: o.scan,
                    })
                    .collect(),
            })
        })
        .collect();

    println!(
        "fault sweep: {} clean uploads, world seed {WORLD_SEED}, upload seed \
         {UPLOAD_SEED}, fault seed {FAULT_SEED}, calibrated plan × scale\n",
        trips.len()
    );
    println!(
        "{:>5} | {:>7} {:>8} | {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} | {:>5} {:>9} {:>8}",
        "scale",
        "uploads",
        "accepted",
        "dup",
        "near",
        "malf",
        "unmt",
        "unmp",
        "few",
        "cover",
        "tt err s",
        "vs clean"
    );

    let mut clean_err = f64::NAN;
    for scale in SCALES {
        let plan = FaultPlan::calibrated_scaled(scale);
        let injection = FaultInjector::new(plan, FAULT_SEED).apply(&trips);
        let (faulted, received): (Vec<Trip>, Vec<f64>) = injection
            .uploads
            .into_iter()
            .map(|u| (u.trip, u.received_s))
            .unzip();

        let monitor = TrafficMonitor::new(network.clone(), db.clone(), MonitorConfig::default());
        let reports = monitor.ingest_batch_received_parallel(&faulted, &received, 0);

        let mut drops: BTreeMap<&str, usize> = BTreeMap::new();
        let mut accepted = 0usize;
        for r in &reports {
            match r.drop_reason() {
                None => accepted += 1,
                Some(DropReason::RejectedDuplicate) => *drops.entry("dup").or_default() += 1,
                Some(DropReason::RejectedNearDuplicate) => *drops.entry("near").or_default() += 1,
                Some(DropReason::Malformed) => *drops.entry("malf").or_default() += 1,
                Some(DropReason::UnmatchedScans) => *drops.entry("unmt").or_default() += 1,
                Some(DropReason::Unmapped) => *drops.entry("unmp").or_default() += 1,
                Some(DropReason::TooFewVisits) => *drops.entry("few").or_default() += 1,
                Some(DropReason::InternalError) => *drops.entry("int!").or_default() += 1,
                // Admission-layer reasons (streaming frontend only) never
                // appear on batch ingest reports.
                Some(other) => *drops.entry(other.trace_label()).or_default() += 1,
            }
        }

        let map = monitor.snapshot_with_max_age(SimTime::from_hms(9, 30, 0).seconds(), 5400.0);
        let mut total_err = 0.0;
        let mut compared = 0usize;
        for (key, est) in &map.segments {
            let Some(seg) = network.segment(*key) else {
                continue;
            };
            let truth_v = scenario
                .profile
                .car_speed_mps(seg, SimTime::from_seconds(est.updated_s));
            if truth_v > 0.0 && est.speed_mps > 0.0 {
                total_err += (seg.length_m / est.speed_mps - seg.length_m / truth_v).abs();
                compared += 1;
            }
        }
        let err = if compared > 0 {
            total_err / compared as f64
        } else {
            f64::NAN
        };
        if scale == 0.0 {
            clean_err = err;
        }

        let d = |k: &str| drops.get(k).copied().unwrap_or(0);
        println!(
            "{:>5.2} | {:>7} {:>8} | {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} | {:>5} {:>8.1}s {:>7.2}x",
            scale,
            reports.len(),
            accepted,
            d("dup"),
            d("near"),
            d("malf"),
            d("unmt"),
            d("unmp"),
            d("few"),
            map.len(),
            err,
            err / clean_err,
        );
        if d("int!") > 0 {
            println!("      ! {} uploads hit the panic-isolation path", d("int!"));
        }
    }
}
