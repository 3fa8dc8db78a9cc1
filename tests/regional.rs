//! Regional inference + GeoJSON export through the public facade: partial
//! coverage in, city-wide picture out.

use busprobe::cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::geojson::{map_to_geojson, regional_to_geojson};
use busprobe::core::{
    infer_regional, EstimateSource, InferenceConfig, MatchConfig, MonitorConfig, StopFingerprintDb,
    TrafficMonitor,
};
use busprobe::geo::LocalProjection;
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::NetworkGenerator;
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

#[test]
fn sparse_participation_plus_inference_extends_coverage() {
    let seed = 61u64;
    let network = NetworkGenerator::small(seed).generate();
    let region = network.grid().spec().region();
    let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), seed);
    let scanner = Scanner::new(deployment, PropagationModel::default(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
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
        Scenario::new(network.clone(), seed)
            .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(8, 40, 0)),
    )
    .run();

    // Take only a handful of uploads so coverage stays partial.
    let mut trips: Vec<Trip> = Vec::new();
    for rider in output.rider_trips.iter().take(6) {
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
    let _ = monitor.ingest_batch_parallel(&trips, 0);
    let map = monitor.snapshot_with_max_age(SimTime::from_hms(8, 40, 0).seconds(), 3600.0);
    let measured_cov = map.coverage(&network);
    assert!(
        measured_cov > 0.0 && measured_cov < 0.9,
        "need partial coverage for this test: {measured_cov:.2}"
    );

    let regional = infer_regional(&map, &network, InferenceConfig::default());
    assert!(
        regional.coverage(&network) > measured_cov,
        "inference extends coverage"
    );
    assert_eq!(regional.measured_count(), map.len());
    assert!(regional.inferred_count() > 0);

    // Inferred estimates are less certain than their sources.
    for (key, (estimate, source)) in &regional.segments {
        if *source == EstimateSource::Inferred {
            assert!(estimate.variance > 0.0);
            assert!(map.get(*key).is_none(), "inferred only where unmeasured");
        }
    }

    // GeoJSON export of both variants parses back and counts match.
    let projection = LocalProjection::new(1.34, 103.70);
    let gj_measured = map_to_geojson(&map, &network, &projection);
    let gj_regional = regional_to_geojson(&regional, &network, &projection);
    assert_eq!(gj_measured["features"].as_array().unwrap().len(), map.len());
    assert_eq!(
        gj_regional["features"].as_array().unwrap().len(),
        regional.segments.len()
    );
    // Round-trip through a string (what the CLI writes to disk).
    let text = serde_json::to_string(&gj_regional).unwrap();
    let back: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(back["type"], "FeatureCollection");
}
