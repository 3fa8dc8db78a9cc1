//! The durability proof for `busprobe-store`: crash anywhere, recover,
//! resume — and end bit-identical to a run that never crashed.
//!
//! The matrix crosses worker counts × snapshot cadences × crash points
//! (including a torn final record, the canonical power-loss shape) over
//! a fault-injected corpus; a second matrix crosses worker counts ×
//! group-commit window sizes × crash-vs-window alignments (inside a
//! window, at a boundary, torn group frame). Separately it proves
//! graceful degradation: bit-flipped WAL segments and corrupted
//! snapshots are skipped with attribution — never a panic, never
//! silent data invention.

mod common;

use busprobe::core::{MonitorConfig, RecoveryTrace, TrafficMonitor};
use busprobe::faults::{damage_store_dir, FaultPlan, WalFaultPlan};
use busprobe::mobile::Trip;
use busprobe::store::Store;
use busprobe_bench::World;
use common::{faulted, TestWorld};
use std::path::PathBuf;

const SEED: u64 = 91;

/// Snapshot cadences: every commit, every 7th, and never (0 = only the
/// explicit end-of-run checkpoint, which a crash skips).
const SNAPSHOT_EVERY: [u64; 3] = [1, 7, 0];

/// Worker counts for the resumed ingest (1 = the threadless fast path).
const WORKER_COUNTS: [usize; 2] = [1, 4];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    /// Crash after a handful of commits.
    Early,
    /// Crash halfway through the corpus.
    Mid,
    /// Crash halfway, with the final WAL record torn mid-frame.
    TornLastRecord,
}

impl CrashPoint {
    fn prefix(self, total: usize) -> usize {
        match self {
            CrashPoint::Early => 5.min(total),
            CrashPoint::Mid | CrashPoint::TornLastRecord => total / 2,
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("busprobe-crashrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full observable state of a monitor, serialized for bit-compare.
/// Map, fusion and database all serialize through `BTreeMap`s, so equal
/// strings mean equal bits; `seen` is an unordered set compared sorted.
#[derive(Debug, PartialEq)]
struct Captured {
    map_json: String,
    fusion_json: String,
    db_json: String,
    seen: Vec<u64>,
}

fn capture(monitor: &TrafficMonitor, end_s: f64) -> Captured {
    let map = monitor.snapshot_with_max_age(end_s, f64::INFINITY);
    let state = monitor.export_state();
    let mut seen = state.seen.clone();
    seen.sort_unstable();
    Captured {
        map_json: serde_json::to_string(&map).unwrap(),
        fusion_json: serde_json::to_string(&state.fusion).unwrap(),
        db_json: serde_json::to_string(&state.database).unwrap(),
        seen,
    }
}

fn end_of(trips: &[Trip]) -> f64 {
    trips
        .iter()
        .map(Trip::end_s)
        .filter(|e| e.is_finite())
        .fold(0.0f64, f64::max)
        + 60.0
}

struct Fixture {
    world: TestWorld,
    trips: Vec<Trip>,
    received: Vec<f64>,
    end_s: f64,
    reference: Captured,
}

impl Fixture {
    /// A fault-injected corpus plus the uninterrupted-run reference
    /// state every crashed-and-recovered run must reproduce exactly.
    fn build() -> Self {
        let world = TestWorld::new(SEED, 4);
        let base = World::small(SEED).ride_corpus(60, SEED);
        let (trips, received) = faulted(&base, FaultPlan::calibrated(), SEED);
        let end_s = end_of(&trips);
        let monitor = world.monitor();
        for (i, t) in trips.iter().enumerate() {
            monitor.ingest_upload(t, Some(received[i]));
        }
        let reference = capture(&monitor, end_s);
        assert!(!reference.seen.is_empty(), "corpus is productive");
        Fixture {
            world,
            trips,
            received,
            end_s,
            reference,
        }
    }

    fn recover(&self, dir: &PathBuf) -> (TrafficMonitor, RecoveryTrace) {
        TrafficMonitor::recover(
            self.world.network.clone(),
            self.world.db.clone(),
            MonitorConfig::default(),
            dir,
        )
        .expect("recovery never fails on corrupt content")
    }
}

/// Whether the newest WAL segment in `dir` is empty: a checkpoint
/// rolled the log after the last record.
fn newest_segment_is_empty(dir: &std::path::Path) -> bool {
    let (_, newest) = busprobe::store::wal::list_segments(dir)
        .unwrap()
        .pop()
        .expect("a WAL segment exists");
    std::fs::metadata(newest).unwrap().len() == 0
}

/// One cell of the matrix: durably ingest a prefix, crash (drop the
/// monitor with no final checkpoint, optionally tearing the WAL tail),
/// recover, resume with the full corpus, and compare everything the
/// backend can externalize against the uninterrupted reference.
fn run_cell(fx: &Fixture, workers: usize, snapshot_every: u64, crash: CrashPoint) {
    let context = format!("workers={workers}/snapshot_every={snapshot_every}/{crash:?}");
    let dir = scratch_dir(&format!("{workers}-{snapshot_every}-{crash:?}"));
    let prefix = crash.prefix(fx.trips.len());

    // Phase 1: the run that will crash.
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), snapshot_every, 1);
        let _ = monitor.ingest_batch_received_parallel(
            &fx.trips[..prefix],
            &fx.received[..prefix],
            workers,
        );
        // Crash: drop without the end-of-run checkpoint.
    }
    // The tear lands on the last record written. When a checkpoint
    // followed that record — at a cadence of one always, at seven when
    // the prefix's commits are a multiple of it — the WAL has rolled past
    // it, so the torn record is one the newest snapshot covers and
    // recovery must leave its segment unread. Otherwise (with no
    // snapshot, always) no snapshot covers it and recovery must read and
    // attribute the torn tail.
    let mut torn_is_covered = false;
    if crash == CrashPoint::TornLastRecord {
        torn_is_covered = newest_segment_is_empty(&dir);
        match snapshot_every {
            0 => assert!(!torn_is_covered, "{context}: no snapshot covers it"),
            1 => assert!(torn_is_covered, "{context}: every record is covered"),
            _ => {}
        }
        let report = damage_store_dir(&dir, &WalFaultPlan::torn_tail(9), SEED).unwrap();
        assert_eq!(report.tail_bytes_truncated, 9, "{context}: tail torn");
    }

    // Phase 2: recover and check attribution.
    let (monitor, summary) = fx.recover(&dir);
    assert_eq!(summary.skipped_records, 0, "{context}: {summary:?}");
    if crash == CrashPoint::TornLastRecord && !torn_is_covered {
        assert_eq!(summary.corrupt_tails, 1, "{context}: {summary:?}");
    } else {
        assert_eq!(summary.corrupt_tails, 0, "{context}: {summary:?}");
    }
    if torn_is_covered {
        assert!(
            summary.wal_segments_unread >= 1,
            "{context}: the torn, covered segment is skipped unread: {summary:?}"
        );
    }

    // Phase 3: resume with the full corpus. Reopening the store repairs
    // the torn tail; already-committed trips dedup, lost ones re-ingest.
    monitor.attach_store_grouped(Store::open(&dir).unwrap(), snapshot_every, 1);
    let _ = monitor.ingest_batch_received_parallel(&fx.trips, &fx.received, workers);
    monitor.checkpoint().unwrap().expect("store attached");
    assert_eq!(
        capture(&monitor, fx.end_s),
        fx.reference,
        "{context}: resumed state diverged from the uninterrupted run"
    );

    // Phase 4: a fresh recovery of the final directory reproduces the
    // same state again — what was checkpointed is what is reloaded.
    let (reloaded, summary) = fx.recover(&dir);
    assert_eq!(summary.skipped_records, 0, "{context}: {summary:?}");
    assert_eq!(summary.corrupt_tails, 0, "{context}: final log is clean");
    assert_eq!(
        capture(&reloaded, fx.end_s),
        fx.reference,
        "{context}: re-recovered state diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recover_resume_is_bit_identical_across_the_matrix() {
    let fx = Fixture::build();
    for workers in WORKER_COUNTS {
        for snapshot_every in SNAPSHOT_EVERY {
            for crash in [
                CrashPoint::Early,
                CrashPoint::Mid,
                CrashPoint::TornLastRecord,
            ] {
                run_cell(&fx, workers, snapshot_every, crash);
            }
        }
    }
}

/// Group-commit window sizes the group matrix crosses (1 = plain
/// per-commit frames, the pre-group byte format).
const GROUP_SIZES: [u64; 3] = [1, 8, 64];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupCrash {
    /// Crash after a batch that ended with its last group window
    /// partially filled. The window closed when the batch returned, as
    /// a smaller group frame, so recovery must replay every commit.
    InsideWindow,
    /// Crash exactly at a window boundary: every group frame complete.
    AtBoundary,
    /// Power loss mid-append: the final group frame is torn. Recovery
    /// attributes one corrupt tail and loses at most that one window.
    TornGroupFrame,
}

/// One cell of the group matrix: durably ingest a prefix under a group
/// window, crash, recover, resume grouped, and demand the resumed state
/// is byte-identical to the uninterrupted ungrouped reference.
fn run_group_cell(fx: &Fixture, workers: usize, group_every: u64, crash: GroupCrash) {
    let context = format!("workers={workers}/group_every={group_every}/{crash:?}");
    let dir = scratch_dir(&format!("grp-{workers}-{group_every}-{crash:?}"));
    // Align (or deliberately misalign) the crash point with the window:
    // group boundaries are counted in *commits*, which the fault-laden
    // corpus thins unpredictably, so alignment is best-effort — the
    // contract under test must hold at any cut regardless.
    let half = fx.trips.len() / 2;
    let prefix = match crash {
        GroupCrash::InsideWindow => (half + 1).min(fx.trips.len()),
        GroupCrash::AtBoundary | GroupCrash::TornGroupFrame => half,
    };

    // Phase 1: the run that will crash.
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, group_every);
        let _ = monitor.ingest_batch_received_parallel(
            &fx.trips[..prefix],
            &fx.received[..prefix],
            workers,
        );
        // Crash: drop without the end-of-run checkpoint. The batch
        // appended its last window before returning — a SIGKILL that
        // loses it is the TornGroupFrame cell below.
    }
    if crash == GroupCrash::TornGroupFrame {
        let report = damage_store_dir(&dir, &WalFaultPlan::torn_tail(9), SEED).unwrap();
        assert_eq!(report.tail_bytes_truncated, 9, "{context}: tail torn");
    }

    // Phase 2: recover and check attribution. A torn group frame is one
    // corrupt tail no matter how many commits rode in it.
    let (monitor, summary) = fx.recover(&dir);
    assert_eq!(summary.skipped_records, 0, "{context}: {summary:?}");
    if crash == GroupCrash::TornGroupFrame {
        assert_eq!(summary.corrupt_tails, 1, "{context}: {summary:?}");
    } else {
        assert_eq!(summary.corrupt_tails, 0, "{context}: {summary:?}");
    }

    // Phase 3: resume grouped with the full corpus; committed trips
    // dedup, commits lost with a torn window re-ingest.
    monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, group_every);
    let _ = monitor.ingest_batch_received_parallel(&fx.trips, &fx.received, workers);
    monitor.checkpoint().unwrap().expect("store attached");
    assert_eq!(
        capture(&monitor, fx.end_s),
        fx.reference,
        "{context}: resumed state diverged from the uninterrupted run"
    );

    // Phase 4: a fresh recovery of the final directory reproduces the
    // same state — group frames replay to exactly what they committed.
    let (reloaded, summary) = fx.recover(&dir);
    assert_eq!(summary.skipped_records, 0, "{context}: {summary:?}");
    assert_eq!(summary.corrupt_tails, 0, "{context}: final log is clean");
    assert_eq!(
        capture(&reloaded, fx.end_s),
        fx.reference,
        "{context}: re-recovered state diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_crash_matrix_is_bit_identical() {
    let fx = Fixture::build();
    for workers in WORKER_COUNTS {
        for group_every in GROUP_SIZES {
            for crash in [
                GroupCrash::InsideWindow,
                GroupCrash::AtBoundary,
                GroupCrash::TornGroupFrame,
            ] {
                run_group_cell(&fx, workers, group_every, crash);
            }
        }
    }
}

/// Grouped and ungrouped logs replay to the same state: one corpus
/// committed at every window size recovers bit-identically, even though
/// the WAL bytes differ (BPG1 group frames vs per-commit BPW1 frames).
#[test]
fn every_group_size_recovers_to_the_same_state() {
    let fx = Fixture::build();
    for group_every in GROUP_SIZES {
        let dir = scratch_dir(&format!("grpsame-{group_every}"));
        {
            let monitor = fx.world.monitor();
            monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, group_every);
            // One serial batch is one run of windows: full group frames
            // and a partial one at the end.
            let _ = monitor.ingest_batch_received_parallel(&fx.trips, &fx.received, 1);
            // Crash before any checkpoint: the WAL is the only copy.
        }
        let (monitor, summary) = fx.recover(&dir);
        assert_eq!(summary.skipped_records, 0, "group_every={group_every}");
        assert_eq!(summary.corrupt_tails, 0, "group_every={group_every}");
        assert_eq!(
            capture(&monitor, fx.end_s),
            fx.reference,
            "group_every={group_every}: WAL replay diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Bit-flipped WAL segments degrade gracefully: recovery skips the
/// damaged records with attribution, never panics, and the monitor
/// keeps serving. Deeper damage can only lose *more* commits — never
/// invent state the log does not contain.
#[test]
fn bit_flipped_wal_is_skipped_with_attribution() {
    let fx = Fixture::build();
    let dir = scratch_dir("bitflip");
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
        for (i, t) in fx.trips.iter().enumerate() {
            monitor.ingest_upload(t, Some(fx.received[i]));
        }
        // Crash before any checkpoint: the WAL is the only copy.
    }
    let plan = WalFaultPlan {
        bit_flips: 5,
        ..WalFaultPlan::clean()
    };
    let report = damage_store_dir(&dir, &plan, SEED).unwrap();
    assert_eq!(report.wal_bits_flipped, 5);

    let (monitor, summary) = fx.recover(&dir);
    let lost = summary.skipped_records + summary.corrupt_tails;
    assert!(lost >= 1, "five bit flips damaged something: {summary:?}");
    assert!(
        summary.replayed_commits < fx.trips.len() as u64,
        "damaged records were not replayed: {summary:?}"
    );
    // Still serving: the surviving state is a subset of the reference,
    // not an invention.
    let got = capture(&monitor, fx.end_s);
    assert!(
        got.seen.iter().all(|d| fx.reference.seen.contains(d)),
        "recovery invented digests the reference never saw"
    );
    assert!(got.seen.len() < fx.reference.seen.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted snapshot is detected (CRC), attributed and passed over;
/// with the covering WAL segment still present, replay alone rebuilds
/// the exact pre-crash state.
#[test]
fn corrupt_snapshot_falls_back_to_wal_replay() {
    let fx = Fixture::build();
    let dir = scratch_dir("snapflip");
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
        for (i, t) in fx.trips.iter().enumerate() {
            monitor.ingest_upload(t, Some(fx.received[i]));
        }
        monitor.checkpoint().unwrap();
        // The first checkpoint has no older generation to compact down
        // to, so every record the snapshot covers is still in the WAL.
    }
    let plan = WalFaultPlan {
        snapshot_bit_flips: 3,
        ..WalFaultPlan::clean()
    };
    let report = damage_store_dir(&dir, &plan, SEED).unwrap();
    assert_eq!(report.snapshot_bits_flipped, 3);

    let (monitor, summary) = fx.recover(&dir);
    assert!(
        summary.snapshots_skipped >= 1,
        "corrupt snapshot attributed: {summary:?}"
    );
    assert_eq!(summary.snapshot_seq, None, "fell back past the snapshot");
    assert_eq!(summary.skipped_records, 0, "the WAL itself is undamaged");
    assert_eq!(
        capture(&monitor, fx.end_s),
        fx.reference,
        "WAL replay alone rebuilds the exact state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A newest snapshot that fails its CRC after the WAL rotated past an
/// older checkpoint: recovery falls back to the older snapshot plus
/// every segment after it, and rebuilds exactly the uninterrupted state
/// — not the state of the records past the newest snapshot alone.
#[test]
fn a_corrupt_newest_snapshot_falls_back_to_the_older_generation() {
    use busprobe::store::{snapshot, wal, StoreConfig};

    let fx = Fixture::build();
    let dir = scratch_dir("two-generations");
    let n = fx.trips.len();
    let config = StoreConfig {
        max_segment_bytes: 4096,
    };
    let (older, newest, live_commits) = {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open_with(&dir, config).unwrap(), 0, 1);
        let ingest = |range: std::ops::Range<usize>| {
            for i in range {
                monitor.ingest_upload(&fx.trips[i], Some(fx.received[i]));
            }
        };
        ingest(0..n / 3);
        let older = monitor.checkpoint().unwrap().unwrap();
        ingest(n / 3..2 * n / 3);
        let newest = monitor.checkpoint().unwrap().unwrap();
        ingest(2 * n / 3..n);
        (older, newest, monitor.commit_count())
        // Crash: drop without a final checkpoint.
    };
    let segments: Vec<u64> = wal::list_segments(&dir)
        .unwrap()
        .into_iter()
        .map(|(seq, _)| seq)
        .collect();
    assert!(
        segments
            .iter()
            .filter(|&&seq| seq > older && seq < newest)
            .count()
            >= 1,
        "the WAL rotated between the checkpoints: {segments:?}"
    );
    let path = dir.join(snapshot::snapshot_file_name(newest));
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let (monitor, summary) = fx.recover(&dir);
    assert_eq!(summary.snapshots_skipped, 1, "{summary:?}");
    assert_eq!(summary.snapshot_seq, Some(older), "{summary:?}");
    assert_eq!(summary.skipped_records, 0, "{summary:?}");
    assert_eq!(summary.corrupt_tails, 0, "{summary:?}");
    assert_eq!(monitor.commit_count(), live_commits);
    assert_eq!(
        capture(&monitor, fx.end_s),
        fx.reference,
        "the older snapshot and the WAL after it rebuild the exact state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ingests the fixture into a checkpointed state dir, re-frames its
/// snapshot with the payload `rewrite` returns (given the live monitor
/// and the payload it wrote), and checks that recovery refuses it like
/// a corrupt one: one snapshot skipped, and a full WAL replay to the
/// exact live state.
fn rewritten_snapshot_falls_back_to_wal_replay(
    tag: &str,
    rewrite: impl FnOnce(&TrafficMonitor, &[u8]) -> Vec<u8>,
) {
    use busprobe::store::frame::{self, SNAPSHOT_MAGIC};
    use busprobe::store::snapshot;

    let fx = Fixture::build();
    let dir = scratch_dir(tag);
    let (seq, payload) = {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
        for (i, t) in fx.trips.iter().enumerate() {
            monitor.ingest_upload(t, Some(fx.received[i]));
        }
        let seq = monitor.checkpoint().unwrap().unwrap();
        let file = std::fs::read(dir.join(snapshot::snapshot_file_name(seq))).unwrap();
        let written = frame::decode(SNAPSHOT_MAGIC, &file).unwrap().payload;
        (seq, rewrite(&monitor, written))
    };
    snapshot::write(&dir, seq, &payload).unwrap();

    let (monitor, summary) = fx.recover(&dir);
    assert_eq!(summary.snapshots_skipped, 1, "{summary:?}");
    assert_eq!(summary.snapshot_seq, None, "fell back past the snapshot");
    assert_eq!(summary.skipped_records, 0, "the WAL itself is undamaged");
    assert_eq!(
        capture(&monitor, fx.end_s),
        fx.reference,
        "WAL replay alone rebuilds the exact state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot can be damaged *above* the frame: intact CRC, valid JSON,
/// but its fusion state names a segment in its window series that its
/// belief list does not. That has no right reading, so the legacy JSON
/// reader refuses it and recovery treats it as one more corrupt
/// snapshot.
#[test]
fn self_contradicting_snapshot_falls_back_to_wal_replay() {
    use serde_json::Value;

    fn field<'a>(object: &'a mut Value, name: &str) -> &'a mut Value {
        let Value::Object(fields) = object else {
            panic!("{name}: not an object");
        };
        &mut fields.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    // The legacy JSON payload of the live state, with the first window
    // series renamed to the second's segment.
    rewritten_snapshot_falls_back_to_wal_replay("snapkeys", |monitor, _| {
        let mut state = serde_json::to_value(&monitor.export_state());
        let Value::Array(series) = field(field(&mut state, "fusion"), "windows") else {
            panic!("window series are a pair list");
        };
        let (Value::Array(second), Value::Array(first)) = (series[1].clone(), &mut series[0])
        else {
            panic!("pairs are arrays");
        };
        assert_ne!(first[0], second[0]);
        first[0] = second[0].clone();
        serde_json::to_vec(&state).unwrap()
    });
}

/// The binary twin: the payload `checkpoint` wrote, with one segment's
/// window series spliced so that its second window repeats its first.
/// Every count and length still adds up, so only the fusion validator
/// can refuse it.
#[test]
fn self_contradicting_binary_snapshot_falls_back_to_wal_replay() {
    use busprobe::core::{PersistedState, SNAPSHOT_FORMAT};

    fn u32_at(bytes: &[u8], at: usize) -> usize {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
    }

    rewritten_snapshot_falls_back_to_wal_replay("snapbinary", |_, written| {
        assert_eq!(written[0], SNAPSHOT_FORMAT);
        assert!(PersistedState::decode(written).is_ok());
        let mut payload = written.to_vec();
        // Format byte and commits, then the length-prefixed config, then
        // period and inflation: the segment count.
        let config_len = u32_at(&payload, 1 + 8);
        let mut at = 1 + 8 + 4 + config_len + 8 + 8;
        let segments = u32_at(&payload, at);
        at += 4;
        for _ in 0..segments {
            // Key, belief and last update, then the window count.
            let windows = u32_at(&payload, at + 8 + 16 + 8);
            at += 8 + 16 + 8 + 4;
            if windows >= 2 {
                let (first, second) = (at, at + 20);
                assert!(u32_at(&payload, first) < u32_at(&payload, second));
                payload.copy_within(first..first + 4, second);
                assert!(PersistedState::decode(&payload).is_err());
                return payload;
            }
            at += 20 * windows;
        }
        panic!("no segment holds two windows");
    });
}

/// A database refresh is one WAL record and one sequence number, live as
/// on replay: after a refresh between two halves of a durable ingest,
/// the recovered monitor's commit count is the live one's, and the next
/// upload is traced under the same sequence number on both.
#[test]
fn a_refresh_is_counted_alike_live_and_recovered() {
    use busprobe::trace::{TracePolicy, Tracer};
    use std::sync::Arc;

    let seed = 29;
    let world = TestWorld::new(seed, 4);
    let trips = World::small(seed).ride_corpus(17, seed);
    let (corpus, next) = trips.split_at(16);
    let config = MonitorConfig {
        online_db_update: true,
        ..MonitorConfig::default()
    };
    let dir = scratch_dir("refresh-count");
    let live = world.monitor_with(config);
    live.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
    let (first, second) = corpus.split_at(corpus.len() / 2);
    let _ = live.ingest_batch_parallel(first, 1);
    live.refresh_database();
    let _ = live.ingest_batch_parallel(second, 1);
    live.sync_store().unwrap();

    let (recovered, trace) =
        TrafficMonitor::recover(world.network.clone(), world.db.clone(), config, &dir).unwrap();
    assert_eq!(trace.replayed_refreshes, 1);
    assert_eq!(recovered.commit_count(), live.commit_count());

    let next_seq = |monitor: &TrafficMonitor| {
        let tracer = Arc::new(Tracer::new(TracePolicy::export_all()));
        monitor.set_trace_sink(Some(Arc::clone(&tracer)));
        let _ = monitor.ingest_upload(&next[0], None);
        tracer.exported()[0].trace.seq
    };
    assert_eq!(next_seq(&recovered), next_seq(&live));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flips the last byte of every snapshot in `dir`, so recovery refuses
/// them all.
fn corrupt_every_snapshot(dir: &std::path::Path) -> usize {
    let snapshots = busprobe::store::snapshot::list_snapshots(dir).unwrap();
    for (_, path) in &snapshots {
        let mut bytes = std::fs::read(path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }
    snapshots.len()
}

/// When every retained snapshot is refused, recovery replays what
/// compaction left of the WAL and says that the history before it is
/// gone, instead of claiming a cold start and a full replay: a
/// 24-upload ingest checkpointed at 16 and 24 keeps segments from 16
/// on, so with both snapshots damaged the 8 records after 16 replay and
/// the 16 before them are named lost. The commit count still resumes
/// where the log does.
#[test]
fn refused_snapshots_name_the_history_compaction_removed() {
    let fx = Fixture::build();
    let dir = scratch_dir("history-lost");
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 16, 1);
        let _ = monitor.ingest_batch_received_parallel(&fx.trips[..24], &fx.received[..24], 1);
        assert_eq!(monitor.checkpoint().unwrap(), Some(24));
    }
    assert_eq!(corrupt_every_snapshot(&dir), 2, "two generations kept");

    let (monitor, summary) = fx.recover(&dir);
    assert_eq!(summary.snapshot_seq, None, "{summary:?}");
    assert_eq!(summary.snapshots_skipped, 2, "{summary:?}");
    assert_eq!(summary.history_lost, 16, "{summary:?}");
    assert_eq!(summary.replayed_commits, 8, "{summary:?}");
    assert_eq!(monitor.commit_count(), 24);
    let story = summary.narrative();
    assert!(
        story.contains("records before seq 16 were compacted away"),
        "{story}"
    );
    assert!(!story.contains("cold start + full WAL replay"), "{story}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One sequence: a last WAL record that passes its CRC but does not
/// decode still takes its sequence number, so the recovered commit count
/// is where the store's log continues, and the next durable commit is
/// traced under the sequence number its WAL record has.
#[test]
fn an_undecodable_last_record_keeps_its_sequence_number() {
    use busprobe::trace::{TracePolicy, Tracer};
    use std::sync::Arc;

    let fx = Fixture::build();
    let dir = scratch_dir("undecodable-tail");
    let n = 12;
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
        let _ = monitor.ingest_batch_received_parallel(&fx.trips[..n], &fx.received[..n], 1);
    }
    {
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.append_group(&[vec![0xFF]]).unwrap(), n as u64);
        store.sync().unwrap();
    }

    let (monitor, summary) = fx.recover(&dir);
    assert_eq!(summary.skipped_records, 1, "{summary:?}");
    assert_eq!(summary.replayed_commits, n as u64, "{summary:?}");
    assert_eq!(
        monitor.commit_count(),
        Store::open(&dir).unwrap().next_seq()
    );
    assert_eq!(monitor.commit_count(), n as u64 + 1);

    monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
    let tracer = Arc::new(Tracer::new(TracePolicy::export_all()));
    monitor.set_trace_sink(Some(Arc::clone(&tracer)));
    let _ = monitor.ingest_upload(&fx.trips[n], Some(fx.received[n]));
    let trace = &tracer.exported()[0].trace;
    assert_eq!(trace.seq, n as u64 + 1);
    assert_eq!(
        trace.wal_seq,
        Some(trace.seq),
        "the trace names its WAL record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable ingest of `n` fixture uploads into `dir` by a fresh
/// monitor, dropped afterwards.
fn ingest_durably(fx: &Fixture, dir: &std::path::Path, n: usize) {
    let monitor = fx.world.monitor();
    monitor.attach_store_grouped(Store::open(dir).unwrap(), 0, 1);
    let _ = monitor.ingest_batch_received_parallel(&fx.trips[..n], &fx.received[..n], 1);
}

/// A store that already holds records cannot be attached to a monitor
/// that has not replayed them: its commit sequence numbers would name
/// other records than the WAL's.
#[test]
#[should_panic(expected = "recover the monitor from that directory first")]
fn attaching_a_stored_log_to_a_fresh_monitor_panics() {
    let fx = Fixture::build();
    let dir = scratch_dir("attach-fresh");
    ingest_durably(&fx, &dir, 6);
    let store = Store::open(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    fx.world.monitor().attach_store_grouped(store, 0, 1);
}

/// The city refuses the same mismatch with an error, before it writes
/// its manifest or attaches any shard.
#[test]
fn attaching_a_stored_city_to_a_fresh_city_is_refused() {
    use busprobe::shard::{CityManifest, OverflowPolicy, ShardedMonitor, CITY_MANIFEST};

    let fx = Fixture::build();
    let state = scratch_dir("attach-city");
    let city = || {
        ShardedMonitor::new(
            fx.world.network.clone(),
            &fx.world.db,
            MonitorConfig::default(),
            2,
            OverflowPolicy::Score,
        )
    };
    {
        let stored = city();
        stored.attach_stores(&state, 0, 1).unwrap();
        let _ = stored.ingest_batch_received_parallel(&fx.trips[..12], &fx.received[..12], 1);
        stored.sync_all().unwrap();
    }
    // The same manifest, written compactly: an attach that rewrote it
    // would pretty-print it again.
    let path = state.join(CITY_MANIFEST);
    let manifest: CityManifest =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let compact = serde_json::to_string(&manifest).unwrap();
    std::fs::write(&path, &compact).unwrap();

    let fresh = city();
    let err = fresh.attach_stores(&state, 0, 1).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(
        err.to_string()
            .contains("recover the monitor from that directory first"),
        "{err}"
    );
    assert!(
        fresh.shards().iter().all(|s| s.synced_seq().is_none()),
        "no shard got a store"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        compact,
        "the manifest was rewritten"
    );
    let _ = std::fs::remove_dir_all(&state);
}

/// `Store::recover` and `Store::open` resume the log at the same
/// sequence number whatever damage the directory took: each of
/// `damage_store_dir`'s kinds, and a newest snapshot that is refused.
#[test]
fn recovery_and_reopening_resume_at_the_same_sequence_number() {
    let fx = Fixture::build();
    let template = scratch_dir("resume-template");
    {
        let monitor = fx.world.monitor();
        monitor.attach_store_grouped(Store::open(&template).unwrap(), 0, 1);
        let _ = monitor.ingest_batch_received_parallel(&fx.trips[..20], &fx.received[..20], 1);
        monitor.checkpoint().unwrap();
        let _ = monitor.ingest_batch_received_parallel(&fx.trips[20..40], &fx.received[20..40], 1);
        monitor.checkpoint().unwrap();
        let _ = monitor.ingest_batch_received_parallel(&fx.trips[40..], &fx.received[40..], 1);
    }
    let plans = [
        WalFaultPlan::clean(),
        WalFaultPlan::torn_tail(9),
        WalFaultPlan::torn_tail(100_000),
        WalFaultPlan {
            torn_append_bytes: 11,
            ..WalFaultPlan::clean()
        },
        WalFaultPlan {
            bit_flips: 6,
            ..WalFaultPlan::clean()
        },
        WalFaultPlan {
            snapshot_bit_flips: 2,
            ..WalFaultPlan::clean()
        },
    ];
    for (k, plan) in plans.iter().enumerate() {
        for seed in 0..4 {
            let dir = scratch_dir(&format!("resume-{k}-{seed}"));
            std::fs::create_dir_all(&dir).unwrap();
            for (_, path) in busprobe::store::wal::list_segments(&template).unwrap() {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
            for (_, path) in busprobe::store::snapshot::list_snapshots(&template).unwrap() {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
            damage_store_dir(&dir, plan, seed).unwrap();
            let recovered = Store::recover(&dir).unwrap().report.next_seq;
            let refusing = Store::recover_with(&dir, |_, _| false)
                .unwrap()
                .report
                .next_seq;
            let reopened = Store::open(&dir).unwrap().next_seq();
            assert_eq!(recovered, reopened, "{plan:?}, seed {seed}");
            assert_eq!(refusing, reopened, "{plan:?}, seed {seed}, all refused");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&template);
}
