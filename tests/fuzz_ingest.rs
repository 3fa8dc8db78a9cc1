//! Property fuzzing of the ingest path: arbitrary and degenerate
//! [`Trip`] payloads must never panic the monitor, and every rejection
//! must carry a coherent [`DropReason`].

mod common;

use busprobe::cellular::{CellObservation, CellScan, CellTowerId};
use busprobe::core::{IngestReport, TrafficMonitor};
use busprobe::mobile::{CellularSample, Trip};
use common::TestWorld;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One monitor shared across all fuzz cases: building the fingerprint
/// database is the expensive part, and a shared instance additionally
/// exercises the dedup layer against adversarial repeats.
fn monitor() -> &'static TrafficMonitor {
    static MONITOR: OnceLock<TrafficMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| TestWorld::new(51, 3).monitor())
}

/// A possibly-degenerate sample decoded from plain generated integers
/// (the vendored proptest has no `prop_oneof`; a selector integer plays
/// that role).
fn decode_sample(selector: u8, t: f64, tower: u32, rss: f64, n_obs: usize) -> CellularSample {
    let time_s = match selector % 8 {
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 1.0e18,
        5 => -1.0e12,
        _ => t,
    };
    let scan = match selector % 8 {
        6 => CellScan::new(vec![]),
        7 => {
            // Duplicated towers with non-finite signal strengths.
            let o = CellObservation {
                tower: CellTowerId(tower),
                rss_dbm: f64::NAN,
            };
            CellScan::new(vec![o, o, o])
        }
        _ => CellScan::new(
            (0..n_obs)
                .map(|k| CellObservation {
                    tower: CellTowerId(tower.wrapping_add(k as u32)),
                    rss_dbm: rss - k as f64,
                })
                .collect(),
        ),
    };
    CellularSample { time_s, scan }
}

/// The coherence contract every report must satisfy, whatever the input.
fn check(report: &IngestReport) -> Result<(), TestCaseError> {
    prop_assert!(
        !report.internal_error,
        "panic isolation tripped: {report:?}"
    );
    prop_assert!(
        report.kept + report.quarantined <= report.samples,
        "sample accounting broken: {report:?}"
    );
    prop_assert!(report.matched <= report.kept, "matched > kept: {report:?}");
    if report.observations == 0 {
        prop_assert!(report.drop_reason().is_some(), "silent drop: {report:?}");
    } else {
        prop_assert!(
            report.drop_reason().is_none(),
            "productive trip attributed a drop: {report:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary garbage trips: random selectors hit every degenerate
    /// branch (NaN/±inf/absurd timestamps, empty scans, duplicated
    /// towers, non-finite RSS) mixed with plausible samples.
    #[test]
    fn arbitrary_trips_never_panic_and_attribute_drops(
        raw in collection::vec(
            (0u8..16, -10_000.0f64..40_000.0, 0u32..64, -120.0f64..-40.0, 0usize..6),
            0..40,
        )
    ) {
        let trip = Trip {
            samples: raw
                .into_iter()
                .map(|(sel, t, tower, rss, n)| decode_sample(sel, t, tower, rss, n))
                .collect(),
        };
        let report = monitor().ingest_upload(&trip, None);
        check(&report)?;
    }

    /// Monotone-garbage trips: ordered timestamps with degenerate scans,
    /// so the reorder buffer and scan repair paths run on every case.
    #[test]
    fn ordered_degenerate_trips_never_panic(
        base in 0.0f64..30_000.0,
        step in 0.1f64..120.0,
        scans in collection::vec((0u8..16, 0u32..64, 0usize..6), 1..25),
    ) {
        let trip = Trip {
            samples: scans
                .into_iter()
                .enumerate()
                .map(|(k, (sel, tower, n))| {
                    let mut s = decode_sample(sel, base + k as f64 * step, tower, -70.0, n);
                    // Keep the generated time: only the scan is degenerate.
                    s.time_s = base + k as f64 * step;
                    s
                })
                .collect(),
        };
        let report = monitor().ingest_upload(&trip, None);
        check(&report)?;
    }
}

#[test]
fn explicit_degenerate_payloads_are_coherent() {
    let m = monitor();
    let obs = |t: u32, rss: f64| CellObservation {
        tower: CellTowerId(t),
        rss_dbm: rss,
    };
    let sample = |time_s: f64, scan: CellScan| CellularSample { time_s, scan };

    let cases: Vec<(&str, Trip)> = vec![
        ("empty trip", Trip { samples: vec![] }),
        (
            "single sample",
            Trip {
                samples: vec![sample(100.0, CellScan::new(vec![obs(1, -60.0)]))],
            },
        ),
        (
            "all NaN times",
            Trip {
                samples: (0..5)
                    .map(|k| sample(f64::NAN, CellScan::new(vec![obs(k, -60.0)])))
                    .collect(),
            },
        ),
        (
            "reversed times",
            Trip {
                samples: (0..10)
                    .map(|k| sample(1000.0 - k as f64 * 30.0, CellScan::new(vec![obs(k, -60.0)])))
                    .collect(),
            },
        ),
        (
            "identical repeated sample",
            Trip {
                samples: (0..20)
                    .map(|_| sample(500.0, CellScan::new(vec![obs(3, -55.0)])))
                    .collect(),
            },
        ),
        (
            "oversized upload",
            Trip {
                samples: (0..5000)
                    .map(|k| sample(k as f64, CellScan::new(vec![obs(k % 40, -65.0)])))
                    .collect(),
            },
        ),
        (
            "all empty scans",
            Trip {
                samples: (0..8)
                    .map(|k| sample(k as f64 * 30.0, CellScan::new(vec![])))
                    .collect(),
            },
        ),
    ];
    for (name, trip) in cases {
        let report = m.ingest_upload(&trip, None);
        assert!(!report.internal_error, "{name}: panic isolation tripped");
        assert!(
            report.kept + report.quarantined <= report.samples,
            "{name}: accounting broken: {report:?}"
        );
        if report.observations == 0 {
            assert!(report.drop_reason().is_some(), "{name}: silent drop");
        }
    }

    // The oversized upload specifically must have hit the overflow guard.
    let oversized = Trip {
        samples: (0..5000)
            .map(|k| sample(50_000.0 + k as f64, CellScan::new(vec![obs(k % 40, -65.0)])))
            .collect(),
    };
    let report = m.ingest_upload(&oversized, None);
    assert!(report.quarantined > 0, "overflow guard engaged: {report:?}");
    assert!(report.kept <= m.config().sanitize.max_samples);
}
