//! End-to-end integration: simulate a morning, upload, ingest, and check
//! the backend's traffic estimates against the simulator's ground truth.

use busprobe::cellular::{CellScan, DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
use busprobe::core::{DropReason, MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::{NetworkGenerator, TransitNetwork};
use busprobe::sensors::trip_observations;
use busprobe::sim::{OfficialTraffic, Scenario, SimOutput, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

struct TestWorld {
    network: TransitNetwork,
    scanner: Scanner,
    monitor: TrafficMonitor,
    scenario: Scenario,
}

fn build_world(seed: u64) -> TestWorld {
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
        .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 30, 0));
    TestWorld {
        network,
        scanner,
        monitor,
        scenario,
    }
}

fn uploads(world: &TestWorld, output: &SimOutput, seed: u64) -> Vec<Trip> {
    let mut rng = StdRng::seed_from_u64(seed);
    output
        .rider_trips
        .iter()
        .filter_map(|rider| {
            let obs = trip_observations(rider, output, &world.scanner, &mut rng);
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
fn morning_rush_estimates_track_ground_truth() {
    let world = build_world(21);
    let output = Simulation::new(world.scenario.clone()).run();
    let trips = uploads(&world, &output, 1);
    assert!(
        trips.len() > 50,
        "enough uploads to be meaningful: {}",
        trips.len()
    );

    let _ = world.monitor.ingest_batch_parallel(&trips, 0);
    let snapshot_t = SimTime::from_hms(9, 0, 0);
    let map = world
        .monitor
        .snapshot_with_max_age(snapshot_t.seconds(), 3600.0);
    assert!(
        map.coverage(&world.network) > 0.7,
        "most segments covered: {:.2}",
        map.coverage(&world.network)
    );

    // Compare against the official feed at rush hour. In congestion the
    // BTT→ATT model is near-exact; allow generous slack for windows where
    // the bus cap binds.
    let official = OfficialTraffic::tabulate(
        &world.network,
        &world.scenario.profile,
        SimTime::from_hms(8, 0, 0),
        SimTime::from_hms(9, 30, 0),
        300.0,
        0.0,
        1,
    );
    let mut checked = 0;
    let mut close = 0;
    for (key, estimate) in &map.segments {
        let Some(v_t) = official.speed_kmh(*key, SimTime::from_seconds(estimate.updated_s)) else {
            continue;
        };
        checked += 1;
        if (estimate.speed_kmh() - v_t).abs() < 12.0 {
            close += 1;
        }
    }
    assert!(checked > 10, "need comparable segments, got {checked}");
    assert!(
        close as f64 / checked as f64 > 0.6,
        "at least 60% of rush-hour estimates within 12 km/h: {close}/{checked}"
    );
}

#[test]
fn congested_segments_are_identified_as_slow() {
    let world = build_world(22);
    let output = Simulation::new(world.scenario.clone()).run();
    let snapshot_t = SimTime::from_hms(8, 45, 0);
    // The server only has the uploads that have arrived by snapshot time.
    let trips: Vec<Trip> = uploads(&world, &output, 2)
        .into_iter()
        .filter(|t| t.end_s() <= snapshot_t.seconds())
        .collect();
    let _ = world.monitor.ingest_batch_parallel(&trips, 0);
    let map = world
        .monitor
        .snapshot_with_max_age(snapshot_t.seconds(), 1800.0);

    // Population invariant: segments that are truly jammed at 8:30 must be
    // published clearly slower than segments that are truly fast. (A hard
    // per-segment bound is too strict: a bus that skips the stop between
    // two segments smears one merged-chain speed across both — the paper's
    // own "treats the combined two adjacent segments as one".)
    let t = SimTime::from_hms(8, 30, 0);
    let mut jammed = Vec::new();
    let mut fast = Vec::new();
    for seg in world.network.segments() {
        let truth = world.scenario.profile.car_speed_mps(seg, t) * 3.6;
        let Some(estimate) = map.get(seg.key) else {
            continue;
        };
        if truth < 18.0 {
            jammed.push(estimate.speed_kmh());
        } else if truth > 35.0 {
            fast.push(estimate.speed_kmh());
        }
    }
    assert!(
        !jammed.is_empty() && !fast.is_empty(),
        "need both populations"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&jammed) + 8.0 < mean(&fast),
        "jammed mean {:.1} must sit well below fast mean {:.1}",
        mean(&jammed),
        mean(&fast)
    );
    // And no truly jammed segment may be published as free-flowing.
    let worst = jammed.iter().copied().fold(0.0f64, f64::max);
    assert!(
        worst < 40.0,
        "a jammed segment was published at {worst:.0} km/h"
    );
}

#[test]
fn stop_identification_accuracy_is_high() {
    // The Table II property as an invariant: ≥ 85% of scans identify the
    // correct stop against a single-round database.
    let world = build_world(23);
    let mut rng = StdRng::seed_from_u64(9);
    let db: StopFingerprintDb = world
        .network
        .sites()
        .iter()
        .map(|s| (s.id, world.scanner.scan(s.position, &mut rng).fingerprint()))
        .collect();
    let matcher = busprobe::core::Matcher::new(db, MatchConfig::default());
    let mut total = 0;
    let mut correct = 0;
    for _round in 0..5 {
        for site in world.network.sites() {
            let fp = world.scanner.scan(site.position, &mut rng).fingerprint();
            total += 1;
            if matcher
                .best_match(&fp)
                .is_some_and(|hit| hit.site == site.id)
            {
                correct += 1;
            }
        }
    }
    let accuracy = f64::from(correct) / f64::from(total);
    assert!(accuracy > 0.85, "identification accuracy {accuracy:.3}");
}

#[test]
fn ingest_reports_attribute_every_dropped_trip_to_a_stage() {
    let world = build_world(25);
    let output = Simulation::new(world.scenario.clone()).run();
    let trips = uploads(&world, &output, 4);
    assert!(trips.len() > 50, "enough uploads: {}", trips.len());

    let reports = world.monitor.ingest_batch_parallel(&trips, 0);

    // Every zero-observation trip carries exactly one drop reason; every
    // productive trip carries none, so the reasons sum to
    // (trips ingested − trips producing observations).
    let productive = reports.iter().filter(|r| r.observations > 0).count();
    let dropped = reports.iter().filter(|r| r.drop_reason().is_some()).count();
    assert_eq!(dropped, reports.len() - productive);
    for report in &reports {
        match report.drop_reason() {
            None => assert!(report.observations > 0 && !report.duplicate),
            Some(DropReason::RejectedDuplicate) => assert!(report.duplicate),
            Some(DropReason::RejectedNearDuplicate) => assert!(report.near_duplicate),
            Some(DropReason::Malformed) => assert_eq!(report.kept, 0),
            Some(DropReason::UnmatchedScans) => assert_eq!(report.matched, 0),
            Some(DropReason::Unmapped) => {
                assert!(report.matched > 0);
                assert_eq!(report.visits, 0);
            }
            Some(DropReason::TooFewVisits) => {
                assert!(report.visits > 0);
                assert_eq!(report.observations, 0);
            }
            Some(DropReason::InternalError) => {
                panic!("clean uploads must not trip the panic isolation: {report:?}")
            }
            Some(
                reason @ (DropReason::ShedQueueFull
                | DropReason::ShedDeadline
                | DropReason::Oversized
                | DropReason::Unparseable),
            ) => {
                panic!("admission-layer reasons never appear on batch ingest reports: {reason:?}")
            }
        }
    }

    // Re-uploading a seen trip is rejected as a duplicate digest.
    let replay = world.monitor.ingest_upload(&trips[0], None);
    assert!(replay.duplicate);
    assert_eq!(replay.drop_reason(), Some(DropReason::RejectedDuplicate));
    assert_eq!(replay.observations, 0);

    // A trip whose scans hear nothing can match no stop.
    let silent = Trip {
        samples: (0..3)
            .map(|i| CellularSample {
                time_s: 1000.0 + 60.0 * f64::from(i),
                scan: CellScan::new(vec![]),
            })
            .collect(),
    };
    let report = world.monitor.ingest_upload(&silent, None);
    assert_eq!(report.matched, 0);
    assert_eq!(report.unmatched_scans(), 3);
    assert_eq!(report.drop_reason(), Some(DropReason::UnmatchedScans));

    // A single-stop trip maps at most one visit: no segment to estimate.
    let site = &world.network.sites()[0];
    let mut rng = StdRng::seed_from_u64(77);
    let one_stop = Trip {
        samples: (0..2)
            .map(|i| CellularSample {
                time_s: 2000.0 + 3.0 * f64::from(i),
                scan: world.scanner.scan(site.position, &mut rng),
            })
            .collect(),
    };
    let report = world.monitor.ingest_upload(&one_stop, None);
    if report.observations == 0 {
        assert!(matches!(
            report.drop_reason(),
            Some(DropReason::TooFewVisits | DropReason::Unmapped | DropReason::UnmatchedScans)
        ));
    }
}

#[test]
fn telemetry_snapshot_covers_every_pipeline_stage() {
    let world = build_world(26);
    let output = Simulation::new(world.scenario.clone()).run();
    let trips = uploads(&world, &output, 5);
    let reports = world.monitor.ingest_batch_parallel(&trips, 0);
    world.monitor.refresh_database();
    assert!(reports.iter().any(|r| r.observations > 0));

    // The registry is process-global (other tests contribute too), so
    // assert non-zero coverage rather than exact values.
    let snapshot = busprobe::telemetry::snapshot();
    for counter in [
        "busprobe_core_trips_ingested_total",
        "busprobe_core_samples_total",
        "busprobe_core_scans_matched_total",
        "busprobe_core_clusters_total",
        "busprobe_core_visits_mapped_total",
        "busprobe_core_observations_total",
        "busprobe_core_fusion_updates_total",
    ] {
        assert!(
            snapshot.counter(counter).unwrap_or(0) > 0,
            "counter {counter} must be non-zero after a simulated day"
        );
    }
    for stage in busprobe::telemetry::Stage::ALL {
        let stage = format!("busprobe_core_stage_{}", stage.name());
        let s = snapshot.stage(&stage).unwrap_or_else(|| {
            panic!("stage {stage} must be registered");
        });
        assert!(s.calls > 0, "stage {stage} must have recorded spans");
        assert!(s.total_ns > 0, "stage {stage} must have wall time");
        assert!(s.max_ns <= s.total_ns);
    }
    let histogram = snapshot
        .histogram("busprobe_core_observations_per_trip")
        .expect("per-trip histogram registered");
    assert!(histogram.count >= trips.len() as u64);

    // Both exporters publish the same counter values.
    let json = snapshot.to_json();
    let prom = snapshot.to_prometheus();
    for (name, value) in &snapshot.counters {
        assert!(
            json.contains(&format!("\"{name}\":{value}")),
            "JSON must carry {name}={value}"
        );
        assert!(
            prom.contains(&format!("{name} {value}")),
            "Prometheus must carry {name}={value}"
        );
    }
}

#[test]
fn map_reflects_rush_hour_then_recovery() {
    let world = build_world(24);
    let scenario = world
        .scenario
        .clone()
        .with_span(SimTime::from_hms(7, 30, 0), SimTime::from_hms(11, 30, 0));
    let output = Simulation::new(scenario).run();
    let mut trips = uploads(&world, &output, 3);
    trips.sort_by(|a, b| a.end_s().partial_cmp(&b.end_s()).unwrap());

    // Stream in arrival order, snapshot at rush and after recovery.
    let rush_t = SimTime::from_hms(8, 45, 0).seconds();
    let late_t = SimTime::from_hms(11, 15, 0).seconds();
    let split = trips.partition_point(|t| t.end_s() <= rush_t);
    for trip in &trips[..split] {
        world.monitor.ingest_upload(trip, None);
    }
    let rush = world.monitor.snapshot_with_max_age(rush_t, 1800.0);
    for trip in &trips[split..] {
        world.monitor.ingest_upload(trip, None);
    }
    let late = world.monitor.snapshot_with_max_age(late_t, 1800.0);

    let mean = |m: &busprobe::core::TrafficMap| {
        m.segments.values().map(|e| e.speed_kmh()).sum::<f64>() / m.len().max(1) as f64
    };
    assert!(!rush.is_empty() && !late.is_empty());
    assert!(
        mean(&late) > mean(&rush) + 5.0,
        "recovery must show faster traffic: rush {:.1} vs late {:.1}",
        mean(&rush),
        mean(&late)
    );
}
