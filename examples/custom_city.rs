//! Running the monitor on an *imported* network: real-world route data
//! (ordered stop coordinates, as published by any transit operator)
//! instead of the synthetic grid.
//!
//! This is the paper's portability claim in practice: "our system can be
//! easily adopted to other urban areas with slight modifications" — all it
//! needs is the public stop/route listing.
//!
//! Run with `cargo run --release --example custom_city`.

use busprobe::cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::geo::LocalProjection;
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::{NetworkImport, RouteImport};
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn main() {
    // Operator-published data: stop coordinates in WGS-84 (here: a
    // fictional district anchored near central London for flavour).
    let projection = LocalProjection::new(51.5074, -0.1278);
    let latlon = |lat: f64, lon: f64| projection.to_local(lat, lon);

    let spec = NetworkImport {
        merge_radius_m: 30.0,
        routes: vec![
            RouteImport {
                name: "N11".into(),
                stops: vec![
                    latlon(51.5074, -0.1278),
                    latlon(51.5074, -0.1215),
                    latlon(51.5080, -0.1150),
                    latlon(51.5092, -0.1085),
                    latlon(51.5110, -0.1030),
                    latlon(51.5133, -0.0985),
                ],
                free_speed_mps: 50.0 / 3.6,
            },
            RouteImport {
                name: "N24".into(),
                // Shares the middle corridor with N11 (stops within the
                // merge radius), then branches north.
                stops: vec![
                    latlon(51.5035, -0.1160),
                    latlon(51.5081, -0.1151),
                    latlon(51.5093, -0.1086),
                    latlon(51.5140, -0.1060),
                    latlon(51.5185, -0.1035),
                ],
                free_speed_mps: 45.0 / 3.6,
            },
            RouteImport {
                name: "N24R".into(),
                // The return direction of N24: same kerb sites, reverse
                // order.
                stops: vec![
                    latlon(51.5186, -0.1036),
                    latlon(51.5141, -0.1061),
                    latlon(51.5094, -0.1087),
                    latlon(51.5082, -0.1152),
                    latlon(51.5036, -0.1161),
                ],
                free_speed_mps: 45.0 / 3.6,
            },
        ],
    };
    let network = spec.build().expect("valid import");
    println!(
        "imported network: {} routes, {} sites ({} shared between routes), {} segments",
        network.routes().len(),
        network.sites().len(),
        network
            .sites()
            .iter()
            .filter(|s| network.routes_serving(s.id).count() >= 2)
            .count(),
        network.segment_count()
    );

    // The rest of the system is oblivious to where the network came from.
    let region = network.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 24);
    let scanner = Scanner::new(deployment, PropagationModel::default(), 24);
    let mut rng = StdRng::seed_from_u64(1);
    let mut samples = BTreeMap::new();
    for site in network.sites() {
        let fps = (0..5)
            .map(|_| scanner.scan(site.position, &mut rng).fingerprint())
            .collect();
        samples.insert(site.id, fps);
    }
    let db = StopFingerprintDb::build_from_samples(&samples, &MatchConfig::default());
    let monitor = TrafficMonitor::new(network.clone(), db, MonitorConfig::default());

    let output = Simulation::new(
        Scenario::new(network.clone(), 24)
            .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 30, 0)),
    )
    .run();
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
    let reports = monitor.ingest_batch_parallel(&trips, 0);
    let observations: usize = reports.iter().map(|r| r.observations).sum();
    println!("{} uploads, {observations} speed observations", trips.len());

    let map = monitor.snapshot(SimTime::from_hms(9, 30, 0).seconds());
    println!();
    print!("{}", map.render_text(&network));
    println!();
    println!(
        "(an Oyster-tone beep config — BeepDetectorConfig::oyster() — completes the London port)"
    );
}
