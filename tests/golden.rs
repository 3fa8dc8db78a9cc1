//! Golden-corpus snapshots: a committed upload corpus and the exact
//! JSON the pipeline must produce for it — per-trip reports, traffic
//! map and GeoJSON. Any change to matching, clustering, mapping,
//! estimation, fusion or serialization shows up as a reviewable diff.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! BUSPROBE_BLESS=1 cargo test --test golden
//! ```
//!
//! then commit the updated files under `tests/golden/`.

mod common;

use busprobe::core::geojson::map_to_geojson;
use busprobe::core::TrafficMonitor;
use busprobe::geo::LocalProjection;
use busprobe::mobile::{CellularSample, Trip};
use busprobe_bench::World;
use common::{faulted, TestWorld};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("BUSPROBE_BLESS").is_some()
}

/// Compares `got` against the committed snapshot, or rewrites the
/// snapshot when blessing.
fn assert_golden(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if blessing() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             BUSPROBE_BLESS=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        got,
        want.as_str(),
        "pipeline output diverged from {}; if the change is intentional, \
         regenerate with BUSPROBE_BLESS=1 cargo test --test golden and \
         review the diff",
        path.display()
    );
}

/// The committed corpus: clean ride uploads over the seed-17 small
/// world, plus an exact duplicate, a jittered retry and a calibrated
/// fault pass — so the snapshots pin the duplicate, near-duplicate and
/// quarantine report shapes, not just the happy path.
fn corpus() -> (Vec<Trip>, Vec<f64>) {
    let world = World::small(17);
    let mut trips = world.ride_corpus(24, 17);
    trips.push(trips[0].clone());
    let retry = Trip {
        samples: trips[1]
            .samples
            .iter()
            .map(|s| CellularSample {
                time_s: s.time_s + 1.7,
                scan: s.scan.clone(),
            })
            .collect(),
    };
    trips.push(retry);
    faulted(&trips, busprobe::faults::FaultPlan::calibrated(), 17)
}

fn monitor() -> TrafficMonitor {
    TestWorld::new(17, 5).monitor()
}

/// A minute past the last upload: every belief is still fresh.
fn end_s(trips: &[Trip]) -> f64 {
    trips
        .iter()
        .map(Trip::end_s)
        .filter(|e| e.is_finite())
        .fold(0.0f64, f64::max)
        + 60.0
}

/// What `map.geojson` pins: the monitor's map after `trips`, as GeoJSON.
fn map_geojson(monitor: &TrafficMonitor, trips: &[Trip]) -> String {
    let map = monitor.snapshot_with_max_age(end_s(trips), f64::INFINITY);
    let projection = LocalProjection::new(1.34, 103.70);
    let geojson = map_to_geojson(&map, &monitor.network().clone(), &projection);
    serde_json::to_string_pretty(&geojson).unwrap()
}

#[test]
fn golden_corpus_snapshot_is_stable() {
    let corpus_path = golden_dir().join("corpus.json");
    let (trips, received) = corpus();
    let corpus_json = serde_json::to_string_pretty(&(&trips, &received)).unwrap();
    if blessing() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&corpus_path, &corpus_json).unwrap();
    } else {
        // The corpus itself is a snapshot: generator drift would silently
        // invalidate the output snapshots, so it is pinned too.
        let committed = std::fs::read_to_string(&corpus_path)
            .unwrap_or_else(|e| panic!("missing golden corpus {} ({e})", corpus_path.display()));
        assert_eq!(
            corpus_json,
            committed.as_str(),
            "corpus generator drifted from the committed corpus; \
             BUSPROBE_BLESS=1 regenerates everything"
        );
    }

    // Replay the *committed* corpus, so the output snapshots stay
    // meaningful even if the generator changes without a bless.
    let committed = std::fs::read_to_string(&corpus_path).unwrap();
    let (trips, received): (Vec<Trip>, Vec<f64>) = serde_json::from_str(&committed).unwrap();

    let monitor = monitor();
    let reports = monitor.ingest_batch_received_parallel(&trips, &received, 0);
    assert_golden(
        "reports.json",
        &serde_json::to_string_pretty(&reports).unwrap(),
    );

    let map = monitor.snapshot_with_max_age(end_s(&trips), f64::INFINITY);
    assert_golden("map.json", &serde_json::to_string_pretty(&map).unwrap());
    assert_golden("map.geojson", &map_geojson(&monitor, &trips));

    // The snapshots cover real behaviour: some accepted observations,
    // some attributed drops, the dedup pair flagged.
    let accepted: usize = reports.iter().map(|r| r.observations).sum();
    assert!(accepted > 0, "golden corpus produces observations");
    assert!(
        reports.iter().any(|r| r.duplicate || r.near_duplicate),
        "golden corpus pins the dedup report shape"
    );
    assert!(
        reports.iter().any(|r| r.drop_reason().is_some()),
        "golden corpus pins at least one drop attribution"
    );
}

/// The trace JSONL schema is a golden snapshot too: replaying the
/// committed corpus with tracing on must reproduce `traces.jsonl` byte
/// for byte — any change to the event fields, their order, the outcome
/// labels or the sampling policy shows up as a reviewable diff.
#[test]
fn golden_trace_jsonl_schema_is_stable() {
    use busprobe::trace::{TracePolicy, Tracer};
    use std::sync::Arc;

    let corpus_path = golden_dir().join("corpus.json");
    let Ok(committed) = std::fs::read_to_string(&corpus_path) else {
        assert!(
            blessing(),
            "missing golden corpus {}",
            corpus_path.display()
        );
        return; // first bless run: the serial test writes the corpus
    };
    let (trips, received): (Vec<Trip>, Vec<f64>) = serde_json::from_str(&committed).unwrap();

    let monitor = monitor();
    let tracer = Arc::new(Tracer::new(TracePolicy::export_all()));
    monitor.set_trace_sink(Some(Arc::clone(&tracer)));
    let reports = monitor.ingest_batch_received_parallel(&trips, &received, 2);
    assert_eq!(reports.len(), trips.len());
    let jsonl = tracer.jsonl();
    assert_eq!(
        jsonl.lines().count(),
        trips.len(),
        "export-all traces every upload"
    );
    assert_golden("traces.jsonl", &jsonl);
}

/// The golden replay is itself parallel-safe: the committed corpus run
/// through the parallel engine matches the committed snapshots too.
#[test]
fn golden_corpus_matches_under_parallel_ingest() {
    let corpus_path = golden_dir().join("corpus.json");
    let Ok(committed) = std::fs::read_to_string(&corpus_path) else {
        assert!(
            blessing(),
            "missing golden corpus {}",
            corpus_path.display()
        );
        return; // first bless run: the serial test writes the corpus
    };
    let (trips, received): (Vec<Trip>, Vec<f64>) = serde_json::from_str(&committed).unwrap();

    let monitor = monitor();
    let reports = monitor.ingest_batch_received_parallel(&trips, &received, 4);
    if !blessing() {
        assert_golden(
            "reports.json",
            &serde_json::to_string_pretty(&reports).unwrap(),
        );
    }
}

/// Old state directories still recover. `legacy_snapshot.json` is the
/// JSON snapshot payload written by commit 5dc2ea2, the last whose
/// checkpoints wrote JSON. It was made in a checkout of that commit by
/// appending this test to `tests/golden.rs` and running `cargo test
/// --test golden write_legacy_snapshot`:
///
/// ```text
/// #[test]
/// fn write_legacy_snapshot() {
///     use busprobe::store::Store;
///     let committed = std::fs::read_to_string(golden_dir().join("corpus.json")).unwrap();
///     let (trips, received): (Vec<Trip>, Vec<f64>) = serde_json::from_str(&committed).unwrap();
///     let dir = std::env::temp_dir().join("busprobe-legacy-snapshot");
///     let _ = std::fs::remove_dir_all(&dir);
///     let monitor = monitor();
///     monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
///     monitor.ingest_batch_received_parallel(&trips, &received, 0);
///     monitor.checkpoint().unwrap();
///     let (_, payload) = Store::recover(&dir).unwrap().snapshot.unwrap();
///     std::fs::write(golden_dir().join("legacy_snapshot.json"), payload).unwrap();
/// }
/// ```
///
/// Framed as the only snapshot of a state directory, it must recover
/// with nothing to replay to the golden map byte for byte, and to the
/// state a fresh ingest of the corpus exports.
#[test]
fn legacy_json_snapshot_recovers_to_the_golden_map() {
    use busprobe::core::MonitorConfig;
    use busprobe::store::snapshot;

    let payload = std::fs::read(golden_dir().join("legacy_snapshot.json")).unwrap();
    assert_eq!(payload.first(), Some(&b'{'), "a JSON payload");
    let committed = std::fs::read_to_string(golden_dir().join("corpus.json")).unwrap();
    let (trips, received): (Vec<Trip>, Vec<f64>) = serde_json::from_str(&committed).unwrap();
    let dir = std::env::temp_dir().join(format!("busprobe-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    snapshot::write(&dir, trips.len() as u64, &payload).unwrap();

    let world = TestWorld::new(17, 5);
    let (recovered, summary) = TrafficMonitor::recover(
        world.network.clone(),
        world.db.clone(),
        MonitorConfig::default(),
        &dir,
    )
    .unwrap();
    assert_eq!(
        summary.snapshot_seq,
        Some(trips.len() as u64),
        "{summary:?}"
    );
    assert_eq!(summary.snapshots_skipped, 0, "{summary:?}");
    assert_eq!(summary.replayed_commits, 0, "{summary:?}");
    let want = std::fs::read_to_string(golden_dir().join("map.geojson")).unwrap();
    assert_eq!(map_geojson(&recovered, &trips), want);

    let fresh = world.monitor();
    let _ = fresh.ingest_batch_received_parallel(&trips, &received, 0);
    assert_eq!(recovered.export_state(), fresh.export_state());
    std::fs::remove_dir_all(&dir).unwrap();
}
