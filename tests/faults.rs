//! Chaos suite: drive the full ingest pipeline with seeded fault
//! injection (`busprobe-faults`) across fault-rate sweeps and assert
//! graceful degradation — no panics at any rate, every rejected trip
//! attributed to a [`DropReason`], and bounded error growth against the
//! simulator's ground truth.

mod common;

use busprobe::cellular::{CellObservation, CellScan, CellTowerId};
use busprobe::core::{DropReason, IngestReport, TrafficMap, TrafficMonitor};
use busprobe::faults::{FaultInjector, FaultPlan};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::sensors::trip_observations;
use busprobe::sim::{Scenario, SimOutput, SimTime, Simulation};
use common::{assert_coherent, faulted, TestWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A simulated morning plus everything needed to build fresh monitors
/// against the same world (fault sweeps need one monitor per level).
struct Setup {
    world: TestWorld,
    scenario: Scenario,
    output: SimOutput,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let world = TestWorld::new(seed, 5);
        let scenario = Scenario::new(world.network.clone(), seed)
            .with_span(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0));
        let output = Simulation::new(scenario.clone()).run();
        Setup {
            world,
            scenario,
            output,
        }
    }

    fn monitor(&self) -> TrafficMonitor {
        self.world.monitor()
    }

    fn clean_trips(&self, seed: u64) -> Vec<Trip> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.output
            .rider_trips
            .iter()
            .filter_map(|rider| {
                let obs = trip_observations(rider, &self.output, &self.world.scanner, &mut rng);
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

    /// Mean absolute segment travel-time error (seconds) of `map`
    /// against the scenario's ground-truth car speeds, and the number of
    /// segments compared.
    fn mean_tt_error(&self, map: &TrafficMap) -> (f64, usize) {
        let mut total = 0.0;
        let mut n = 0usize;
        for (key, est) in &map.segments {
            let Some(seg) = self.world.network.segment(*key) else {
                continue;
            };
            let truth_v = self
                .scenario
                .profile
                .car_speed_mps(seg, SimTime::from_seconds(est.updated_s));
            let comparable = |v: f64| v.is_finite() && v > 0.0;
            if !comparable(truth_v) || !comparable(est.speed_mps) {
                continue;
            }
            total += (seg.length_m / est.speed_mps - seg.length_m / truth_v).abs();
            n += 1;
        }
        (if n > 0 { total / n as f64 } else { f64::NAN }, n)
    }
}

fn snapshot(monitor: &TrafficMonitor) -> TrafficMap {
    monitor.snapshot_with_max_age(SimTime::from_hms(9, 0, 0).seconds(), 3600.0)
}

fn assert_physical(map: &TrafficMap, context: &str) {
    for (key, e) in &map.segments {
        assert!(
            e.speed_mps > 0.0 && e.speed_mps < 40.0,
            "{context}: unphysical speed {:.1} m/s on {key}",
            e.speed_mps
        );
    }
}

#[test]
fn chaos_clean_baseline_has_low_error() {
    let setup = Setup::new(41);
    let monitor = setup.monitor();
    let trips = setup.clean_trips(1);
    assert!(trips.len() > 30, "enough uploads: {}", trips.len());

    let reports = monitor.ingest_batch_parallel(&trips, 0);
    assert_coherent(&reports, "clean");
    let map = snapshot(&monitor);
    assert_physical(&map, "clean");
    let (err, n) = setup.mean_tt_error(&map);
    assert!(n > 10, "clean run covers segments: {n}");
    assert!(
        err.is_finite() && err < 120.0,
        "clean-run travel-time error stays moderate: {err:.1} s over {n} segments"
    );
}

#[test]
fn chaos_calibrated_error_within_two_x_clean() {
    let setup = Setup::new(42);
    let trips = setup.clean_trips(1);

    let clean_monitor = setup.monitor();
    let clean_reports = clean_monitor.ingest_batch_parallel(&trips, 0);
    assert_coherent(&clean_reports, "clean");
    let (clean_err, clean_n) = setup.mean_tt_error(&snapshot(&clean_monitor));
    assert!(clean_n > 10, "clean coverage: {clean_n}");

    let (faulted_trips, received) = faulted(&trips, FaultPlan::calibrated(), 7);
    let faulted_monitor = setup.monitor();
    let reports = faulted_monitor.ingest_batch_received_parallel(&faulted_trips, &received, 0);
    assert_coherent(&reports, "calibrated");
    let map = snapshot(&faulted_monitor);
    assert_physical(&map, "calibrated");
    let (fault_err, fault_n) = setup.mean_tt_error(&map);
    assert!(
        fault_n > 5,
        "calibrated run still covers segments: {fault_n}"
    );
    assert!(
        fault_err <= 2.0 * clean_err,
        "calibrated faults at most double the error: {fault_err:.1} s vs clean {clean_err:.1} s"
    );
}

#[test]
fn chaos_extreme_never_panics_and_attributes_every_drop() {
    let setup = Setup::new(43);
    let trips = setup.clean_trips(2);

    let mut injector = FaultInjector::new(FaultPlan::extreme(), 9);
    let injection = injector.apply(&trips);
    assert!(
        injection.report.fields_corrupted > 0 && injection.report.exact_duplicates_injected > 0,
        "extreme plan actually injects faults: {:?}",
        injection.report
    );
    let (faulted_trips, received): (Vec<Trip>, Vec<f64>) = injection
        .uploads
        .into_iter()
        .map(|u| (u.trip, u.received_s))
        .unzip();

    let monitor = setup.monitor();
    let reports = monitor.ingest_batch_received_parallel(&faulted_trips, &received, 0);
    assert_eq!(reports.len(), faulted_trips.len());
    assert_coherent(&reports, "extreme");
    assert_physical(&snapshot(&monitor), "extreme");

    // Retry storms injected → the dedup layer must have caught some.
    let dup_drops = reports
        .iter()
        .filter(|r| r.duplicate || r.near_duplicate)
        .count();
    assert!(dup_drops > 0, "injected duplicates were recognised");
    // Corruption injected → the sanitizer must have quarantined samples.
    let quarantined: usize = reports.iter().map(|r| r.quarantined).sum();
    assert!(quarantined > 0, "corrupted samples were quarantined");

    // The monitor survives and still serves requests afterwards.
    let _ = monitor.snapshot(0.0);
}

#[test]
fn chaos_fault_rate_sweep_degrades_gracefully() {
    let setup = Setup::new(44);
    let trips = setup.clean_trips(3);

    let mut clean_err = f64::NAN;
    for &scale in &[0.0, 0.5, 1.0, 2.0, 3.0] {
        let context = format!("scale {scale}");
        let (faulted_trips, received) = faulted(&trips, FaultPlan::calibrated_scaled(scale), 11);
        let monitor = setup.monitor();
        let reports = monitor.ingest_batch_received_parallel(&faulted_trips, &received, 0);
        assert_eq!(reports.len(), faulted_trips.len());
        assert_coherent(&reports, &context);
        let map = snapshot(&monitor);
        assert_physical(&map, &context);

        let (err, n) = setup.mean_tt_error(&map);
        if scale == 0.0 {
            clean_err = err;
            assert!(n > 10, "clean sweep point covers segments: {n}");
        } else if scale <= 2.0 {
            // Bounded error growth while the fault rates stay plausible;
            // at higher rates only the no-panic/attribution guarantees hold.
            assert!(n > 0, "{context}: some coverage survives");
            assert!(
                err <= 4.0 * clean_err + 30.0,
                "{context}: error grows without bound: {err:.1} s vs clean {clean_err:.1} s"
            );
        }
    }
}

/// Chaos matrix with tracing on: under a drops-only sampling policy,
/// **every** dropped upload at every fault scale leaves an attributing
/// trace whose reason label agrees with the ingest report's
/// [`DropReason`] — and committed uploads export nothing (sampling off
/// for successes), keeping the policy honest under load.
#[test]
fn chaos_every_drop_leaves_an_attributing_trace() {
    use busprobe::trace::{TraceOutcome, TracePolicy, Tracer};
    use std::sync::Arc;

    let setup = Setup::new(48);
    let trips = setup.clean_trips(7);

    for &scale in &[0.5, 1.0, 2.0, 3.0] {
        let context = format!("scale {scale}");
        let (faulted_trips, received) = faulted(&trips, FaultPlan::calibrated_scaled(scale), 19);
        let monitor = setup.monitor();
        let tracer = Arc::new(Tracer::new(TracePolicy::drops_only()));
        monitor.set_trace_sink(Some(Arc::clone(&tracer)));
        let reports = monitor.ingest_batch_received_parallel(&faulted_trips, &received, 0);
        assert_coherent(&reports, &context);

        let records = tracer.exported();
        let dropped: Vec<(usize, DropReason)> = reports
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.drop_reason().map(|d| (i, d)))
            .collect();
        assert_eq!(
            records.len(),
            dropped.len(),
            "{context}: one trace per dropped upload, none for commits"
        );
        for ((seq, reason), record) in dropped.iter().zip(&records) {
            let trace = &record.trace;
            assert_eq!(trace.seq, *seq as u64, "{context}: trace out of order");
            match &trace.outcome {
                TraceOutcome::Dropped { reason: label } => assert_eq!(
                    label,
                    reason.trace_label(),
                    "{context}: upload #{seq} trace disagrees with its report"
                ),
                other => panic!("{context}: upload #{seq} traced as {other:?}"),
            }
            // The trace carries evidence, not just the verdict: every
            // drop past the dedup fast path records its sanitize pass.
            if !matches!(
                reason,
                DropReason::RejectedDuplicate | DropReason::InternalError
            ) {
                assert!(
                    trace
                        .events
                        .iter()
                        .any(|e| e.kind() == "Sanitize" || e.kind() == "NearDuplicate"),
                    "{context}: upload #{seq} trace has no evidence: {:?}",
                    trace.events
                );
            }
            assert!(
                trace.narrative().contains(reason.trace_label()),
                "{context}: narrative omits the drop reason"
            );
        }
        if scale >= 1.0 {
            assert!(
                !records.is_empty(),
                "{context}: calibrated faults actually drop uploads"
            );
        }
    }
}

#[test]
fn poisoned_trip_in_batch_of_fifty_is_isolated() {
    let setup = Setup::new(45);
    let clean: Vec<Trip> = setup.clean_trips(4).into_iter().take(49).collect();
    assert_eq!(clean.len(), 49, "need a full batch of clean trips");

    // A thoroughly poisoned upload: non-finite and absurd timestamps,
    // NaN signal strengths, duplicated towers, empty scans.
    let obs = |t: u32, rss: f64| CellObservation {
        tower: CellTowerId(t),
        rss_dbm: rss,
    };
    let poisoned = Trip {
        samples: vec![
            CellularSample {
                time_s: f64::NAN,
                scan: CellScan::new(vec![obs(1, f64::NAN)]),
            },
            CellularSample {
                time_s: f64::INFINITY,
                scan: CellScan::new(vec![]),
            },
            CellularSample {
                time_s: -1.0e12,
                scan: CellScan::new(vec![obs(2, -60.0), obs(2, -60.0), obs(2, f64::NAN)]),
            },
            CellularSample {
                time_s: 1.0e18,
                scan: CellScan::new(vec![obs(3, f64::NEG_INFINITY)]),
            },
        ],
    };
    let mut batch = clean.clone();
    batch.insert(25, poisoned);

    let monitor = setup.monitor();
    let reports = monitor.ingest_batch_parallel(&batch, 0);
    assert_eq!(reports.len(), 50);

    let poison_report = &reports[25];
    assert_eq!(poison_report.observations, 0);
    assert!(
        matches!(
            poison_report.drop_reason(),
            Some(DropReason::Malformed | DropReason::UnmatchedScans)
        ),
        "poisoned trip attributed: {:?}",
        poison_report.drop_reason()
    );

    // The other 49 trips must come out exactly as they do in a batch
    // without the poison.
    let control = setup.monitor();
    let control_reports = control.ingest_batch_parallel(&clean, 0);
    let others: Vec<&IngestReport> = reports[..25].iter().chain(&reports[26..]).collect();
    for (got, want) in others.iter().zip(&control_reports) {
        assert_eq!(
            got.observations, want.observations,
            "a poisoned neighbour changed a clean trip's outcome"
        );
    }
    let map = snapshot(&monitor);
    let control_map = snapshot(&control);
    assert_eq!(map.len(), control_map.len(), "identical coverage");
}

#[test]
fn jittered_retries_are_rejected_as_near_duplicates() {
    let setup = Setup::new(46);
    let monitor = setup.monitor();
    let trips = setup.clean_trips(5);
    let first = monitor.ingest_batch_parallel(&trips, 0);
    let accepted: usize = first.iter().map(|r| r.observations).sum();
    assert!(accepted > 0);

    // Retry storm: the client re-serialises every trip with a slightly
    // different clock base. Byte digests change; content does not.
    let retries: Vec<Trip> = trips
        .iter()
        .map(|t| Trip {
            samples: t
                .samples
                .iter()
                .map(|s| CellularSample {
                    time_s: s.time_s + 1.7,
                    scan: s.scan.clone(),
                })
                .collect(),
        })
        .collect();
    let second = monitor.ingest_batch_parallel(&retries, 0);
    for (i, r) in second.iter().enumerate() {
        assert!(
            r.duplicate || r.near_duplicate,
            "retry {i} slipped past dedup: {r:?}"
        );
        assert_eq!(r.observations, 0);
    }
    assert!(
        second.iter().any(|r| r.near_duplicate),
        "shifted retries are caught by the fuzzy digest, not the byte digest"
    );
}

#[test]
fn skewed_clocks_are_normalized_against_arrival_time() {
    let setup = Setup::new(47);
    let trips = setup.clean_trips(6);

    let clean_monitor = setup.monitor();
    let _ = clean_monitor.ingest_batch_parallel(&trips, 0);
    let clean_map = snapshot(&clean_monitor);
    assert!(!clean_map.is_empty());

    // Every phone is 10 minutes fast, but the server-side arrival time is
    // trustworthy: end of the true trip plus a small upload delay.
    const SKEW_S: f64 = 600.0;
    let received: Vec<f64> = trips.iter().map(|t| t.end_s() + 5.0).collect();
    let skewed: Vec<Trip> = trips
        .iter()
        .map(|t| Trip {
            samples: t
                .samples
                .iter()
                .map(|s| CellularSample {
                    time_s: s.time_s + SKEW_S,
                    scan: s.scan.clone(),
                })
                .collect(),
        })
        .collect();

    let monitor = setup.monitor();
    let reports = monitor.ingest_batch_received_parallel(&skewed, &received, 0);
    assert_coherent(&reports, "skewed");
    let corrected = reports
        .iter()
        .filter(|r| (r.clock_skew_s - SKEW_S).abs() < 60.0)
        .count();
    assert!(
        corrected * 2 > reports.len(),
        "most uploads have the skew detected: {corrected}/{}",
        reports.len()
    );

    // Normalised timestamps land the estimates back in the true window.
    let map = snapshot(&monitor);
    assert!(
        map.len() * 2 >= clean_map.len(),
        "skew-corrected coverage comparable to clean: {} vs {}",
        map.len(),
        clean_map.len()
    );
}
