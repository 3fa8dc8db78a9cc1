//! Quickstart: the whole system in one file.
//!
//! Builds a small synthetic city, war-collects the bus-stop fingerprint
//! database, simulates an hour of bus service with riders, converts the
//! riders' phones' recordings into anonymous uploads, ingests them on the
//! backend, and prints the resulting traffic map.
//!
//! Run with `cargo run --release --example quickstart`.

use busprobe::cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::NetworkGenerator;
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn main() {
    // 1. The study region: a street grid with bus stops and routes.
    let network = NetworkGenerator::small(42).generate();
    println!(
        "region: {} routes, {} stop sites, {} road segments",
        network.routes().len(),
        network.sites().len(),
        network.segment_count()
    );

    // 2. The radio environment and the fingerprint database ("war
    //    collection": scan each stop a few times, keep the most mutually
    //    consistent sample).
    let region = network.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 42);
    let scanner = Scanner::new(deployment, PropagationModel::default(), 42);
    let mut rng = StdRng::seed_from_u64(1);
    let mut samples = BTreeMap::new();
    for site in network.sites() {
        let fps = (0..5)
            .map(|_| scanner.scan(site.position, &mut rng).fingerprint())
            .collect();
        samples.insert(site.id, fps);
    }
    let db = StopFingerprintDb::build_from_samples(&samples, &MatchConfig::default());
    println!("fingerprint database: {} stops", db.len());

    // 3. Simulate the morning rush: buses drive, riders board and tap.
    let scenario = Scenario::new(network.clone(), 42)
        .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 30, 0));
    let output = Simulation::new(scenario).run();
    println!(
        "simulated: {} stop visits, {} card taps, {} rider journeys",
        output.stop_visits.len(),
        output.beeps.len(),
        output.rider_trips.len()
    );

    // 4. Each participating rider's phone records one cellular scan per
    //    beep heard on the bus and uploads the trip anonymously.
    let mut trips: Vec<Trip> = Vec::new();
    for rider in &output.rider_trips {
        let obs = trip_observations(rider, &output, &scanner, &mut rng);
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
    println!("uploads: {} trips", trips.len());

    // 5. The backend matches, clusters, maps and estimates.
    let monitor = TrafficMonitor::new(network.clone(), db, MonitorConfig::default());
    let reports = monitor.ingest_batch_parallel(&trips, 0);
    let matched: usize = reports.iter().map(|r| r.matched).sum();
    let observations: usize = reports.iter().map(|r| r.observations).sum();
    println!("backend: {matched} samples matched, {observations} speed observations");

    // 6. The live traffic map.
    let map = monitor.snapshot(SimTime::from_hms(9, 30, 0).seconds());
    println!();
    print!("{}", map.render_text(&network));
    println!(
        "coverage: {:.0}% of monitored segments",
        100.0 * map.coverage(&network)
    );
}
