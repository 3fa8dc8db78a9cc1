//! Failure injection: the backend must stay sane under the garbage a real
//! crowdsourced deployment produces — lossy uploads, duplicates, clock
//! jitter, out-of-region scans, train rides.

use busprobe::cellular::{CellScan, DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::{NetworkGenerator, TransitNetwork};
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimOutput, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn world(seed: u64) -> (TransitNetwork, Scanner, TrafficMonitor, SimOutput) {
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
    let scenario = Scenario::new(network.clone(), seed)
        .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0));
    let output = Simulation::new(scenario).run();
    (network, scanner, monitor, output)
}

fn clean_trips(output: &SimOutput, scanner: &Scanner, seed: u64) -> Vec<Trip> {
    let mut rng = StdRng::seed_from_u64(seed);
    output
        .rider_trips
        .iter()
        .filter_map(|rider| {
            let obs = trip_observations(rider, output, scanner, &mut rng);
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
        .collect()
}

#[test]
fn dropped_samples_degrade_gracefully() {
    let (_, scanner, monitor, output) = world(31);
    let trips = clean_trips(&output, &scanner, 1);
    let mut rng = StdRng::seed_from_u64(2);

    // Drop half the samples of every trip (phones miss beeps).
    let lossy: Vec<Trip> = trips
        .iter()
        .map(|t| Trip {
            samples: t
                .samples
                .iter()
                .filter(|_| rng.gen_range(0.0..1.0) > 0.5)
                .cloned()
                .collect(),
        })
        .filter(|t| t.len() >= 2)
        .collect();
    let reports = monitor.ingest_batch_parallel(&lossy, 0);
    let obs: usize = reports.iter().map(|r| r.observations).sum();
    assert!(obs > 0, "lossy uploads still produce observations");
    let map = monitor.snapshot_with_max_age(SimTime::from_hms(9, 0, 0).seconds(), 3600.0);
    assert!(!map.is_empty());
    for e in map.segments.values() {
        assert!(
            e.speed_mps > 0.0 && e.speed_mps < 40.0,
            "physical speeds only"
        );
    }
}

#[test]
fn duplicate_uploads_do_not_distort_speeds() {
    let (_, scanner, monitor_a, output) = world(32);
    let (_, _, monitor_b, _) = world(32);
    let trips = clean_trips(&output, &scanner, 3);

    let _ = monitor_a.ingest_batch_parallel(&trips, 0);
    // Upload everything twice (retry storms): the second pass must be
    // recognised as duplicates and change nothing.
    let _ = monitor_b.ingest_batch_parallel(&trips, 0);
    let second_pass = monitor_b.ingest_batch_parallel(&trips, 0);
    assert!(
        second_pass.iter().all(|r| r.duplicate),
        "all retries flagged"
    );
    assert!(second_pass.iter().all(|r| r.observations == 0));

    let t = SimTime::from_hms(9, 0, 0).seconds();
    let map_a = monitor_a.snapshot_with_max_age(t, 3600.0);
    let map_b = monitor_b.snapshot_with_max_age(t, 3600.0);
    assert_eq!(map_a.len(), map_b.len());
    for (key, e_a) in &map_a.segments {
        let e_b = map_b.get(*key).expect("same coverage");
        assert!(
            (e_a.speed_kmh() - e_b.speed_kmh()).abs() < 1e-9,
            "duplicates shift {key} from {:.1} to {:.1}",
            e_a.speed_kmh(),
            e_b.speed_kmh()
        );
    }
}

#[test]
fn clock_jitter_is_tolerated() {
    let (_, scanner, monitor, output) = world(33);
    let mut rng = StdRng::seed_from_u64(4);
    let jittered: Vec<Trip> = clean_trips(&output, &scanner, 5)
        .into_iter()
        .map(|mut t| {
            for s in &mut t.samples {
                s.time_s += rng.gen_range(-2.0..2.0);
            }
            t.samples
                .sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap());
            t
        })
        .collect();
    let reports = monitor.ingest_batch_parallel(&jittered, 0);
    let visits: usize = reports.iter().map(|r| r.visits).sum();
    let obs: usize = reports.iter().map(|r| r.observations).sum();
    assert!(
        visits > 0 && obs > 0,
        "jittered trips still map: {visits} visits, {obs} obs"
    );
}

#[test]
fn out_of_region_and_empty_scans_are_rejected() {
    let (_, scanner, monitor, _) = world(34);
    let mut rng = StdRng::seed_from_u64(6);
    // A "trip" recorded far outside the study region plus empty scans.
    let far = busprobe::geo::Point::new(90_000.0, 90_000.0);
    let trip = Trip {
        samples: (0..6)
            .map(|k| CellularSample {
                time_s: k as f64 * 30.0,
                scan: if k % 2 == 0 {
                    scanner.scan(far, &mut rng)
                } else {
                    CellScan::new(vec![])
                },
            })
            .collect(),
    };
    let report = monitor.ingest_upload(&trip, None);
    assert_eq!(report.matched, 0, "nothing should match");
    assert_eq!(report.observations, 0);
    assert!(monitor.snapshot(0.0).is_empty());
}

#[test]
fn train_rides_are_filtered_by_the_motion_classifier() {
    use busprobe::mobile::{MotionClassifier, VehicleClass};
    use busprobe::sensors::{AccelSynthesizer, MotionMode};
    // The paper's §III-B filter: a phone that detected beeps at a rapid
    // train station must not record a trip because the motion looks wrong.
    let synth = AccelSynthesizer::default();
    let classifier = MotionClassifier::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut rejected = 0;
    for _ in 0..20 {
        let trace = synth.render(MotionMode::Train, 45.0, &mut rng);
        if classifier.classify(&trace) == VehicleClass::Train {
            rejected += 1;
        }
    }
    assert_eq!(rejected, 20, "all train rides rejected");
}

#[test]
fn shuffled_batch_order_converges_to_same_coverage() {
    let (_, scanner, monitor_a, output) = world(35);
    let (_, _, monitor_b, _) = world(35);
    let trips = clean_trips(&output, &scanner, 8);
    let mut reversed = trips.clone();
    reversed.reverse();

    let _ = monitor_a.ingest_batch_parallel(&trips, 0);
    let _ = monitor_b.ingest_batch_parallel(&reversed, 0);
    let t = SimTime::from_hms(9, 0, 0).seconds();
    let map_a = monitor_a.snapshot_with_max_age(t, 3600.0);
    let map_b = monitor_b.snapshot_with_max_age(t, 3600.0);
    assert_eq!(
        map_a.len(),
        map_b.len(),
        "coverage independent of arrival order"
    );
}
