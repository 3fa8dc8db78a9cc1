//! The equivalence proof for parallel ingest: sharding a batch across
//! stage workers and merging through the sequence-numbered reducer must
//! be **bit-identical** to the serial path — per-trip reports, drop
//! attribution, fused travel times, the exported map, the GeoJSON and
//! the persisted state — at every worker count, on clean and
//! fault-injected corpora.

mod common;

use busprobe::core::geojson::map_to_geojson;
use busprobe::core::{DropReason, IngestReport, MonitorConfig, TrafficMap, TrafficMonitor};
use busprobe::faults::FaultPlan;
use busprobe::geo::LocalProjection;
use busprobe::mobile::{CellularSample, Trip};
use busprobe_bench::World;
use common::{faulted, TestWorld};

/// The worker counts the acceptance contract names, including 1 (the
/// threadless fast path) and 8 (more workers than this corpus warrants
/// on most CI boxes — oversubscription must not reorder commits).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Snapshot time safely past the last finite sample in the corpus.
fn end_of(trips: &[Trip]) -> f64 {
    trips
        .iter()
        .map(Trip::end_s)
        .filter(|e| e.is_finite())
        .fold(0.0f64, f64::max)
        + 60.0
}

/// Everything a replay produces, captured for bit-comparison. The map,
/// fusion state and database serialize through `BTreeMap`s, so equal
/// JSON strings mean equal bits; the seen set is an unordered `HashSet`
/// by design and is compared sorted.
struct Outcome {
    reports: Vec<IngestReport>,
    map: TrafficMap,
    map_json: String,
    fusion_json: String,
    db_json: String,
    seen: Vec<u64>,
}

fn capture(monitor: &TrafficMonitor, reports: Vec<IngestReport>, end_s: f64) -> Outcome {
    let map = monitor.snapshot_with_max_age(end_s, f64::INFINITY);
    let state = monitor.export_state();
    let mut seen = state.seen.clone();
    seen.sort_unstable();
    Outcome {
        reports,
        map_json: serde_json::to_string(&map).unwrap(),
        map,
        fusion_json: serde_json::to_string(&state.fusion).unwrap(),
        db_json: serde_json::to_string(&state.database).unwrap(),
        seen,
    }
}

fn run_serial(monitor: &TrafficMonitor, trips: &[Trip], received: Option<&[f64]>) -> Outcome {
    // The reference is the primitive per-upload path, not the batch API,
    // so the comparison cannot be satisfied by both sides sharing a bug
    // in the batch plumbing.
    let reports = trips
        .iter()
        .enumerate()
        .map(|(i, t)| monitor.ingest_upload(t, received.and_then(|r| r.get(i).copied())))
        .collect();
    capture(monitor, reports, end_of(trips))
}

fn run_parallel(
    monitor: &TrafficMonitor,
    trips: &[Trip],
    received: Option<&[f64]>,
    workers: usize,
) -> Outcome {
    let reports = match received {
        Some(r) => monitor.ingest_batch_received_parallel(trips, r, workers),
        None => monitor.ingest_batch_parallel(trips, workers),
    };
    capture(monitor, reports, end_of(trips))
}

/// The core assertion: a fresh monitor from `make` replayed in parallel
/// at every worker count produces bit-identical results to a fresh
/// monitor replayed serially.
fn assert_equivalent(
    make: &dyn Fn() -> TrafficMonitor,
    trips: &[Trip],
    received: Option<&[f64]>,
    context: &str,
) {
    let reference = run_serial(&make(), trips, received);
    for workers in WORKER_COUNTS {
        let got = run_parallel(&make(), trips, received, workers);
        assert_eq!(
            got.reports.len(),
            reference.reports.len(),
            "{context}/workers={workers}: report count"
        );
        for (i, (got_r, want_r)) in got.reports.iter().zip(&reference.reports).enumerate() {
            assert_eq!(
                got_r, want_r,
                "{context}/workers={workers}: trip {i} report diverged"
            );
        }
        let drops = |o: &Outcome| -> Vec<Option<DropReason>> {
            o.reports.iter().map(IngestReport::drop_reason).collect()
        };
        assert_eq!(
            drops(&got),
            drops(&reference),
            "{context}/workers={workers}: drop attribution diverged"
        );
        assert_eq!(
            got.map, reference.map,
            "{context}/workers={workers}: traffic map diverged"
        );
        assert_eq!(
            got.map_json, reference.map_json,
            "{context}/workers={workers}: serialized map diverged"
        );
        assert_eq!(
            got.fusion_json, reference.fusion_json,
            "{context}/workers={workers}: fusion state diverged"
        );
        assert_eq!(
            got.db_json, reference.db_json,
            "{context}/workers={workers}: database diverged"
        );
        assert_eq!(
            got.seen, reference.seen,
            "{context}/workers={workers}: dedup seen set diverged"
        );
    }
}

/// The calibrated perf corpus — the paper-region grid with 16 routes
/// (≥110 stop sites) and 1000 ride uploads — replays bit-identically at
/// every worker count, down to the exported GeoJSON.
#[test]
fn calibrated_corpus_is_bit_identical_at_all_worker_counts() {
    let world = World::calibrated(7);
    let db = world.build_db(5);
    let trips = world.ride_corpus(1000, 7);
    let make = || TrafficMonitor::new(world.network.clone(), db.clone(), MonitorConfig::default());

    let reference = run_serial(&make(), &trips, None);
    let projection = LocalProjection::new(1.34, 103.70);
    let ref_geojson = map_to_geojson(&reference.map, &world.network, &projection).to_string();
    for workers in WORKER_COUNTS {
        let got = run_parallel(&make(), &trips, None, workers);
        assert_eq!(
            got.reports, reference.reports,
            "calibrated/workers={workers}: reports diverged"
        );
        assert_eq!(
            got.map_json, reference.map_json,
            "calibrated/workers={workers}: map diverged"
        );
        let geojson = map_to_geojson(&got.map, &world.network, &projection).to_string();
        assert_eq!(
            geojson, ref_geojson,
            "calibrated/workers={workers}: GeoJSON diverged"
        );
        assert_eq!(got.fusion_json, reference.fusion_json);
        assert_eq!(got.seen, reference.seen);
    }
    // The corpus actually exercised the pipeline.
    let accepted: usize = reference.reports.iter().map(|r| r.observations).sum();
    assert!(accepted > 100, "calibrated corpus productive: {accepted}");
    assert!(
        !reference.map.is_empty(),
        "calibrated corpus covers the map"
    );
}

/// Fault-injected corpora — clean, calibrated and extreme presets, with
/// server-side received times — replay bit-identically, including every
/// drop attribution.
#[test]
fn fault_injected_corpora_are_bit_identical() {
    let world = TestWorld::new(61, 4);
    let base = World::small(61).ride_corpus(160, 61);
    let plans: [(&str, FaultPlan); 3] = [
        ("clean", FaultPlan::clean()),
        ("calibrated", FaultPlan::calibrated()),
        ("extreme", FaultPlan::extreme()),
    ];
    for (name, plan) in plans {
        let (trips, received) = faulted(&base, plan, 13);
        assert_equivalent(
            &|| world.monitor(),
            &trips,
            Some(&received),
            &format!("faults/{name}"),
        );
    }
}

/// Duplicate storms stress the reducer's discard path: exact duplicates
/// staged speculatively on one worker while the original commits on
/// another must still come out flagged exactly as in serial ingest.
#[test]
fn duplicate_storms_resolve_identically() {
    let world = TestWorld::new(62, 4);
    let base = World::small(62).ride_corpus(40, 62);
    // Adjacent exact duplicates (worst case for stage-phase races) plus
    // jittered retries of the same trips appended at the tail.
    let mut trips = Vec::with_capacity(base.len() * 3);
    for t in &base {
        trips.push(t.clone());
        trips.push(t.clone());
    }
    for t in &base {
        trips.push(Trip {
            samples: t
                .samples
                .iter()
                .map(|s| CellularSample {
                    time_s: s.time_s + 1.7,
                    scan: s.scan.clone(),
                })
                .collect(),
        });
    }
    assert_equivalent(&|| world.monitor(), &trips, None, "duplicate-storm");

    // Sanity: the serial reference itself must flag the injected repeats.
    let reference = run_serial(&world.monitor(), &trips, None);
    let dups = reference
        .reports
        .iter()
        .filter(|r| r.duplicate || r.near_duplicate)
        .count();
    assert!(
        dups >= base.len(),
        "duplicate storm recognised: {dups}/{} repeats",
        base.len() * 2
    );
}

/// With online database update enabled, the updater harvest feeds on
/// committed trips in order — so the harvested candidates, the refresh
/// outcome and the refreshed database must all be bit-identical too.
#[test]
fn online_update_harvest_is_deterministic() {
    let world = TestWorld::new(63, 4);
    let trips = World::small(63).ride_corpus(120, 63);
    let config = MonitorConfig {
        online_db_update: true,
        ..MonitorConfig::default()
    };
    let make = || world.monitor_with(config);
    assert_equivalent(&make, &trips, None, "online-update");

    // Refresh after the batch: same harvest → same election → same db.
    let serial = make();
    for t in &trips {
        serial.ingest_upload(t, None);
    }
    let serial_changed = serial.refresh_database();
    let serial_db = serde_json::to_string(&serial.database()).unwrap();
    for workers in WORKER_COUNTS {
        let parallel = make();
        let _ = parallel.ingest_batch_parallel(&trips, workers);
        let changed = parallel.refresh_database();
        assert_eq!(
            changed, serial_changed,
            "workers={workers}: refresh changed a different number of stops"
        );
        assert_eq!(
            serde_json::to_string(&parallel.database()).unwrap(),
            serial_db,
            "workers={workers}: refreshed database diverged"
        );
    }
}

/// The tracing extension of the equivalence proof: the exported JSONL
/// decision traces — ids, sequence numbers, every event, every outcome
/// — are **byte-identical** at every worker count, under both the
/// export-all and 1-in-N sampling policies, on a fault-injected corpus
/// where duplicates and damaged uploads race the stage pool.
#[test]
fn trace_jsonl_is_byte_identical_at_all_worker_counts() {
    use busprobe::trace::{TracePolicy, Tracer};
    use std::sync::Arc;

    let world = TestWorld::new(65, 4);
    let base = World::small(65).ride_corpus(160, 65);
    let (trips, received) = faulted(&base, FaultPlan::calibrated(), 17);

    let policies = [
        ("export-all", TracePolicy::export_all()),
        (
            "sampled",
            TracePolicy {
                sample_every: 5,
                ..TracePolicy::default()
            },
        ),
    ];
    for (name, policy) in policies {
        let traced_run = |workers: Option<usize>| -> String {
            let monitor = world.monitor();
            let tracer = Arc::new(Tracer::new(policy));
            monitor.set_trace_sink(Some(Arc::clone(&tracer)));
            match workers {
                // The serial reference is the primitive per-upload path.
                None => {
                    for (i, t) in trips.iter().enumerate() {
                        monitor.ingest_upload(t, received.get(i).copied());
                    }
                }
                Some(w) => {
                    let _ = monitor.ingest_batch_received_parallel(&trips, &received, w);
                }
            }
            tracer.jsonl()
        };
        let reference = traced_run(None);
        assert!(!reference.is_empty(), "{name}: traces were exported");
        for workers in WORKER_COUNTS {
            let got = traced_run(Some(workers));
            assert_eq!(
                got, reference,
                "{name}/workers={workers}: trace JSONL diverged from serial"
            );
        }
        // The export is one valid JSON object per line, in commit order.
        let mut last_seq = None;
        for (i, line) in reference.lines().enumerate() {
            let v: serde_json::Value =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("{name}: line {i}: {e}"));
            let seq = v
                .get("seq")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or_else(|| panic!("{name}: line {i} lacks a seq"));
            if policy.sample_every == 1 {
                assert_eq!(seq, i as u64, "{name}: line {i} out of order");
            } else {
                assert!(last_seq < Some(seq), "{name}: line {i} out of order");
            }
            last_seq = Some(seq);
        }
    }
}

/// The durable-serve extension of the equivalence proof: the corpus
/// streamed through the resident engine under the block policy with a
/// WAL attached — per-commit frames and grouped windows alike — must
/// leave the live monitor, and a fresh recovery of its state
/// directory, bit-identical to the serial reference.
#[test]
fn durable_serve_block_policy_matches_serial_and_recovers_identically() {
    use busprobe::serve::{protocol, FullPolicy, LineHandler, ServeConfig, ServeEngine};
    use busprobe::store::Store;
    use std::sync::Arc;

    let world = TestWorld::new(66, 4);
    let base = World::small(66).ride_corpus(60, 66);
    let (trips, received) = faulted(&base, FaultPlan::calibrated(), 66);
    let end_s = end_of(&trips);
    let reference = run_serial(&world.monitor(), &trips, Some(&received));
    let frames: Vec<String> = trips
        .iter()
        .enumerate()
        .map(|(i, t)| protocol::upload_line(t, i as u64, Some(received[i])))
        .collect();

    for (workers, group_every) in [(1usize, 1u64), (1, 8), (4, 8)] {
        let context = format!("serve-durable/workers={workers}/group={group_every}");
        let state = std::env::temp_dir().join(format!(
            "busprobe-diffserve-{workers}-{group_every}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&state);

        let monitor = Arc::new(world.monitor());
        monitor.attach_store_grouped(Store::open(&state).unwrap(), 0, group_every);
        let engine = ServeEngine::start(
            Arc::clone(&monitor),
            ServeConfig {
                queue_capacity: 4, // tiny: the block policy must actually stall
                full_policy: FullPolicy::Block,
                workers,
                sync_every: group_every,
                ..ServeConfig::default()
            },
        );
        let handle = engine.handle();
        for frame in &frames {
            handle.handle_line(frame, None);
        }
        let summary = engine.join();
        assert!(summary.fatal.is_none(), "{context}: {summary:?}");
        assert_eq!(
            summary.received,
            trips.len() as u64,
            "{context}: {summary:?}"
        );
        assert_eq!(
            summary.shed_queue_full + summary.shed_deadline,
            0,
            "{context}: block policy shed: {summary:?}"
        );

        // The live monitor is the serial reference, bit for bit.
        let got = capture(&monitor, Vec::new(), end_s);
        assert_eq!(got.map_json, reference.map_json, "{context}: map diverged");
        assert_eq!(
            got.fusion_json, reference.fusion_json,
            "{context}: fusion diverged"
        );
        assert_eq!(got.db_json, reference.db_json, "{context}: db diverged");
        assert_eq!(got.seen, reference.seen, "{context}: seen set diverged");

        // Durability held: flush the tail group, recover the directory
        // from scratch, and the rebuilt state matches too.
        monitor.sync_store().unwrap();
        drop(monitor);
        let (recovered, recovery) = TrafficMonitor::recover(
            world.network.clone(),
            world.db.clone(),
            MonitorConfig::default(),
            &state,
        )
        .unwrap();
        assert_eq!(
            recovery.skipped_records, 0,
            "{context}: clean log skipped records: {recovery:?}"
        );
        let rec = capture(&recovered, Vec::new(), end_s);
        assert_eq!(
            rec.map_json, reference.map_json,
            "{context}: recovered map diverged"
        );
        assert_eq!(
            rec.fusion_json, reference.fusion_json,
            "{context}: recovered fusion diverged"
        );
        assert_eq!(rec.seen, reference.seen, "{context}: recovered seen set");
        let _ = std::fs::remove_dir_all(&state);
    }
}

/// The WAL byte format is a golden snapshot: serially ingesting the
/// committed golden corpus (`tests/golden/corpus.json`) with a store
/// attached must produce a WAL whose leading bytes are exactly the
/// committed prefix — any change to the frame header, the record
/// encoding or the commit payload shows up as a reviewable hex diff.
/// Regenerate after an intentional format change with
/// `BUSPROBE_BLESS=1 cargo test --test differential`.
#[test]
fn golden_wal_byte_prefix_is_stable() {
    use busprobe::store::Store;
    use std::path::Path;

    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let blessing = std::env::var_os("BUSPROBE_BLESS").is_some();
    let corpus_path = golden_dir.join("corpus.json");
    let Ok(committed) = std::fs::read_to_string(&corpus_path) else {
        assert!(
            blessing,
            "missing golden corpus {}; regenerate with \
             BUSPROBE_BLESS=1 cargo test --test golden",
            corpus_path.display()
        );
        return; // first bless run: `golden.rs` writes the corpus
    };
    let (trips, received): (Vec<Trip>, Vec<f64>) = serde_json::from_str(&committed).unwrap();

    // The same world as `golden.rs`, ingested serially and durably with
    // per-commit frames (group window 1 = the canonical byte format).
    let state = std::env::temp_dir().join(format!("busprobe-goldwal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let monitor = TestWorld::new(17, 5).monitor();
    monitor.attach_store_grouped(Store::open(&state).unwrap(), 0, 1);
    for (i, t) in trips.iter().enumerate() {
        monitor.ingest_upload(t, received.get(i).copied());
    }
    monitor.sync_store().unwrap();
    drop(monitor);

    // The first segment holds the oldest records; its leading bytes pin
    // frame magic, sequence numbering, CRC placement and the commit
    // record encoding all at once.
    let mut segments: Vec<_> = std::fs::read_dir(&state)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segments.sort();
    let first = segments.first().expect("durable ingest wrote a WAL");
    let bytes = std::fs::read(first).unwrap();
    assert!(!bytes.is_empty(), "WAL segment is empty");
    let prefix = &bytes[..bytes.len().min(2048)];
    let hex: String = prefix
        .chunks(32)
        .map(|row| row.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
        .collect();
    let _ = std::fs::remove_dir_all(&state);

    let golden_path = golden_dir.join("wal_prefix.hex");
    if blessing {
        std::fs::write(&golden_path, &hex).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden WAL prefix {} ({e}); regenerate with \
             BUSPROBE_BLESS=1 cargo test --test differential",
            golden_path.display()
        )
    });
    assert_eq!(
        hex,
        want.as_str(),
        "WAL bytes diverged from {}; if the format change is intentional, \
         regenerate with BUSPROBE_BLESS=1 cargo test --test differential \
         and review the hex diff",
        golden_path.display()
    );
}

/// All WAL segments in `dir`, name-sorted, with their full contents —
/// the unit of the byte-for-byte durability comparisons below.
fn wal_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect()
}

/// The sharding extension of the equivalence proof: a single-shard
/// [`ShardedMonitor`] is the unsharded monitor, **bit for bit** — same
/// per-trip reports and drop attribution, same federated map and
/// GeoJSON, and the same WAL bytes on disk, in the same place (a city of
/// one keeps its store at the root of the state directory), on a
/// fault-injected corpus. A directory in the older `city.json` +
/// `shard-0000/` layout still recovers to the same state.
#[test]
fn single_shard_is_bit_identical_to_unsharded() {
    use busprobe::shard::{shard_dir, CityManifest, OverflowPolicy, ShardedMonitor};
    use busprobe::shard::{CITY_FORMAT, CITY_MANIFEST};
    use busprobe::store::Store;

    let world = TestWorld::new(67, 4);
    let base = World::small(67).ride_corpus(120, 67);
    let (trips, received) = faulted(&base, FaultPlan::calibrated(), 19);
    let end_s = end_of(&trips);
    let projection = LocalProjection::new(1.34, 103.70);

    let flat_state = std::env::temp_dir().join(format!("busprobe-diffflat-{}", std::process::id()));
    let city_state = std::env::temp_dir().join(format!("busprobe-diffcity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flat_state);
    let _ = std::fs::remove_dir_all(&city_state);

    // The reference: the flat monitor with a per-commit WAL.
    let flat = world.monitor();
    flat.attach_store_grouped(Store::open(&flat_state).unwrap(), 0, 1);
    let flat_reports = flat.ingest_batch_received_parallel(&trips, &received, 1);
    flat.sync_store().unwrap();
    let flat_map = flat.snapshot_with_max_age(end_s, f64::INFINITY);
    let flat_geojson = map_to_geojson(&flat_map, &world.network, &projection).to_string();

    // The same corpus through a 1-shard city.
    let city = ShardedMonitor::new(
        world.network.clone(),
        &world.db,
        MonitorConfig::default(),
        1,
        OverflowPolicy::Score,
    );
    city.attach_stores(&city_state, 0, 1).unwrap();
    let city_reports = city.ingest_batch_received_parallel(&trips, &received, 1);
    city.sync_all().unwrap();
    let city_map = city.city_map_with_max_age(end_s, f64::INFINITY);
    let city_geojson = map_to_geojson(&city_map, &world.network, &projection).to_string();

    assert_eq!(city_reports, flat_reports, "shards=1: reports diverged");
    let drops = |rs: &[IngestReport]| -> Vec<Option<DropReason>> {
        rs.iter().map(IngestReport::drop_reason).collect()
    };
    assert_eq!(
        drops(&city_reports),
        drops(&flat_reports),
        "shards=1: drop attribution diverged"
    );
    assert_eq!(
        serde_json::to_string(&city_map).unwrap(),
        serde_json::to_string(&flat_map).unwrap(),
        "shards=1: federated map diverged from the flat map"
    );
    assert_eq!(
        city_geojson, flat_geojson,
        "shards=1: GeoJSON diverged from the flat export"
    );

    // The WAL bytes are the same files with the same contents, at the
    // root of the state directory, with no manifest beside them.
    let flat_wal = wal_files(&flat_state);
    assert!(!flat_wal.is_empty(), "flat ingest wrote a WAL");
    assert_eq!(
        wal_files(&city_state),
        flat_wal,
        "shards=1: the city's root-level WAL bytes diverged from the flat WAL"
    );
    assert!(!city_state.join(CITY_MANIFEST).exists());

    // The layout `--shards 1` used to write — a manifest declaring one
    // shard over `shard-0000/` — recovers to the same state as the root
    // layout, and is appended to where it is.
    drop(city);
    let legacy_state =
        std::env::temp_dir().join(format!("busprobe-difflegacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&legacy_state);
    std::fs::create_dir_all(&legacy_state).unwrap();
    std::fs::rename(&city_state, shard_dir(&legacy_state, 0)).unwrap();
    let manifest = CityManifest {
        format: CITY_FORMAT.to_string(),
        shards: 1,
        policy: OverflowPolicy::Score.label().to_string(),
    };
    std::fs::write(
        legacy_state.join(CITY_MANIFEST),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();
    let (legacy, summaries) = ShardedMonitor::recover(
        world.network.clone(),
        &world.db,
        MonitorConfig::default(),
        &legacy_state,
    )
    .unwrap();
    assert_eq!(summaries.len(), 1);
    assert_eq!(legacy.commit_counts(), vec![flat.commit_count()]);
    assert_eq!(
        serde_json::to_string(&legacy.city_map_with_max_age(end_s, f64::INFINITY)).unwrap(),
        serde_json::to_string(&flat_map).unwrap(),
        "a city.json{{shards:1}} directory recovered to a different map"
    );
    legacy.attach_stores(&legacy_state, 0, 1).unwrap();
    assert!(
        wal_files(&legacy_state).is_empty(),
        "a manifest directory must keep appending under shard-0000/"
    );

    let _ = std::fs::remove_dir_all(&flat_state);
    let _ = std::fs::remove_dir_all(&legacy_state);
}

/// The sharded crash matrix: a 4-shard metropolis ingests durably, the
/// process "dies" (drop without checkpoint), and one shard's WAL takes
/// storage damage. Recovery must (a) attribute the damaged shard's loss
/// — skipped records / torn tails in its summary, a commit count at or
/// below the live run's — and (b) bring every *other* shard back
/// bit-identical to its live state. Blast radius is one region, never
/// the city.
#[test]
fn sharded_crash_damage_is_contained_to_one_shard() {
    use busprobe::faults::{damage_store_dir, WalFaultPlan};
    use busprobe::shard::{shard_dir, OverflowPolicy, ShardedMonitor};

    const SHARDS: usize = 4;
    let m = World::metropolis(200, 120, 68);
    let trips = m.trips_chunk(0, 120);
    let end_s = end_of(&trips) + 60.0;

    let state = std::env::temp_dir().join(format!("busprobe-diffcrash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);

    let live = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        MonitorConfig::default(),
        SHARDS,
        OverflowPolicy::Score,
    );
    live.attach_stores(&state, 0, 1).unwrap();
    let _ = live.ingest_batch_received_parallel(&trips, &[], 1);
    live.sync_all().unwrap();
    assert!(live.accounting().conserved());

    // Per-shard live state, captured before the "crash".
    let live_commits = live.commit_counts();
    let live_fusion: Vec<String> = live
        .shards()
        .iter()
        .map(|s| serde_json::to_string(&s.export_state().fusion).unwrap())
        .collect();
    let live_maps: Vec<String> = live
        .shards()
        .iter()
        .map(|s| serde_json::to_string(&s.snapshot_with_max_age(end_s, f64::INFINITY)).unwrap())
        .collect();
    drop(live); // kill -9: no checkpoint, no orderly shutdown

    // The corpus must actually spread, or containment proves nothing.
    let busy: Vec<usize> = (0..SHARDS).filter(|&s| live_commits[s] > 0).collect();
    assert!(
        busy.len() > 1,
        "metropolis corpus must span shards: {live_commits:?}"
    );
    let victim = *busy.iter().max_by_key(|&&s| live_commits[s]).unwrap();

    // Storage damage inside exactly one shard's directory: a torn tail
    // plus bit flips mid-log.
    let report = damage_store_dir(
        shard_dir(&state, victim),
        &WalFaultPlan {
            truncate_tail_bytes: 48,
            torn_append_bytes: 0,
            bit_flips: 2,
            snapshot_bit_flips: 0,
        },
        68,
    )
    .unwrap();
    assert!(report.tail_bytes_truncated > 0 || report.wal_bits_flipped > 0);

    let (recovered, summaries) =
        ShardedMonitor::recover(m.network.clone(), &m.db, MonitorConfig::default(), &state)
            .unwrap();
    assert_eq!(summaries.len(), SHARDS);
    let recovered_commits = recovered.commit_counts();

    for s in 0..SHARDS {
        let sum = &summaries[s];
        let fusion = serde_json::to_string(&recovered.shards()[s].export_state().fusion).unwrap();
        let map = serde_json::to_string(
            &recovered.shards()[s].snapshot_with_max_age(end_s, f64::INFINITY),
        )
        .unwrap();
        if s == victim {
            // The damaged region lost *at most* the damaged records —
            // and recovery says so out loud.
            assert!(
                sum.skipped_records + sum.corrupt_tails > 0,
                "victim shard {s}: damage went unattributed: {sum:?}"
            );
            assert!(
                recovered_commits[s] <= live_commits[s],
                "victim shard {s}: recovered more than was committed"
            );
        } else {
            // Every other region is bit-identical to its live state.
            assert_eq!(
                sum.skipped_records + sum.corrupt_tails,
                0,
                "shard {s}: clean log reported damage: {sum:?}"
            );
            assert_eq!(
                recovered_commits[s], live_commits[s],
                "shard {s}: commit count diverged"
            );
            assert_eq!(fusion, live_fusion[s], "shard {s}: fusion state diverged");
            assert_eq!(map, live_maps[s], "shard {s}: traffic map diverged");
        }
    }

    let _ = std::fs::remove_dir_all(&state);
}

/// A worker count far beyond the batch size degenerates gracefully: the
/// engine clamps to one worker per trip and stays bit-identical.
#[test]
fn more_workers_than_trips_is_still_identical() {
    let world = TestWorld::new(64, 3);
    let trips = World::small(64).ride_corpus(3, 64);
    let reference = run_serial(&world.monitor(), &trips, None);
    let got = run_parallel(&world.monitor(), &trips, None, 32);
    assert_eq!(got.reports, reference.reports);
    assert_eq!(got.map_json, reference.map_json);
    assert_eq!(got.fusion_json, reference.fusion_json);
}
