//! In-process tests of the resident streaming frontend: sustained
//! overload with full drop attribution, backpressure under the block
//! policy, deadline shedding, graceful drain with a final checkpoint,
//! the stall watchdog, frame-level refusals, and the adaptive group
//! commit — a lone upload acked after one fsync, a backlog still
//! grouped, every ack exactly once, in order and never before its fsync.
//!
//! The kill -9 crash matrix (real processes, real sockets) lives in
//! `serve_crash.rs`; these tests drive [`busprobe::serve::ServeEngine`]
//! directly so each property is isolated from process plumbing.

mod common;

use busprobe::core::geojson::map_to_geojson;
use busprobe::core::{latest_upload_s, TrafficMonitor, HORIZON_GRACE_S};
use busprobe::faults::FaultPlan;
use busprobe::geo::LocalProjection;
use busprobe::serve::{
    protocol, EngineHandle, FullPolicy, LineHandler, ReplySink, ServeConfig, ServeEngine,
    ServeSummary, MAX_SAMPLES,
};
use busprobe::shard::{shard_dir, OverflowPolicy, ShardFront, ShardedMonitor};
use busprobe::store::Store;
use busprobe_bench::World;
use common::{faulted, TestWorld};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 77;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("busprobe-servest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every received frame must end as exactly one of committed, shed,
/// oversized, unparseable or refused-while-draining — the zero
/// unattributed drops invariant.
fn assert_conserved(summary: &ServeSummary, context: &str) {
    assert_eq!(
        summary.received,
        summary.committed
            + summary.shed_queue_full
            + summary.shed_deadline
            + summary.oversized
            + summary.unparseable
            + summary.refused_draining,
        "{context}: uploads vanished unattributed: {summary:?}"
    );
}

/// Polls `done` until it holds; panics after `within`.
fn wait_until(what: &str, within: Duration, done: impl Fn() -> bool) {
    let deadline = Instant::now() + within;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends upload 0, waits until the commit loop has taken it — and, in
/// the callers' configurations, sits in its commit throttle — then
/// sends uploads `1..count`, which therefore queue up behind it.
fn send_one_then_a_backlog(handle: &EngineHandle, count: usize, send: impl Fn(usize)) {
    send(0);
    wait_until(
        "the first upload to be taken",
        Duration::from_secs(10),
        || handle.queue_depth() == 0,
    );
    (1..count).for_each(send);
}

/// Every `write` call a [`ReplySink`] makes, with the store's synced
/// position as of that call.
type WriteLog = Arc<Mutex<Vec<(Option<u64>, String)>>>;

/// A reply writer that records instead of sending.
struct Recorder {
    monitor: Arc<TrafficMonitor>,
    log: WriteLog,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let synced = self.monitor.synced_seq();
        let text = String::from_utf8(buf.to_vec()).expect("responses are UTF-8");
        self.log.lock().unwrap().push((synced, text));
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn recording_sink(monitor: &Arc<TrafficMonitor>) -> (ReplySink, WriteLog) {
    let log = WriteLog::default();
    let recorder = Recorder {
        monitor: Arc::clone(monitor),
        log: Arc::clone(&log),
    };
    (ReplySink::new(recorder), log)
}

/// `(id, seq)` of an `{"ack":ID,"seq":N}` line.
fn parse_ack(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("{\"ack\":")?;
    let (id, rest) = rest.split_once(",\"seq\":")?;
    Some((id.parse().ok()?, rest.strip_suffix('}')?.parse().ok()?))
}

/// The calibrated 1000-trip corpus under `extreme` faults, streamed at
/// 2x the pipeline's measured capacity with the shed-oldest policy and
/// a latency budget: the queue memory stays bounded at its capacity,
/// overload sheds, and nothing is dropped without attribution.
#[test]
fn soak_at_2x_capacity_with_extreme_faults_sheds_with_full_attribution() {
    let world = World::calibrated(SEED);
    let db = world.build_db(5);
    let base = world.ride_corpus(1000, SEED);
    let (trips, received) = faulted(&base, FaultPlan::extreme(), SEED);

    // Pre-encode every frame: serializing inside the paced loop would
    // throttle the producer below the offered rate it is simulating.
    let frames: Vec<String> = trips
        .iter()
        .enumerate()
        .map(|(i, t)| protocol::upload_line(t, i as u64, Some(received[i])))
        .collect();

    // Pin capacity with the commit throttle instead of measuring it:
    // on a small box a capacity probe races the scheduler (a contended
    // probe undersells an uncontended paced run and vice versa), so a
    // measured "2x" is flaky. With an 8-commit group cap (so at most 8
    // uploads per batch) and a 20 ms sleep per committed batch, capacity
    // is at most 400 uploads/s no matter the machine; offering 800/s is
    // then a true, sustained 2x overload everywhere.
    const QUEUE: usize = 32;
    const GROUP: u64 = 8;
    const THROTTLE: Duration = Duration::from_millis(20);
    let capacity_tps = GROUP as f64 / THROTTLE.as_secs_f64();
    let interval_s = 1.0 / (2.0 * capacity_tps);

    let monitor = Arc::new(TrafficMonitor::new(
        world.network.clone(),
        db,
        Default::default(),
    ));
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            queue_capacity: QUEUE,
            full_policy: FullPolicy::ShedOldest,
            latency_budget: Some(Duration::from_millis(250)),
            sync_every: GROUP,
            commit_throttle: Some(THROTTLE),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let start = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        // Sleep most of the inter-arrival gap (a spinning producer
        // would starve the commit thread on a small box), spin the
        // tail for pacing accuracy.
        let due = Duration::from_secs_f64(i as f64 * interval_s);
        loop {
            let now = start.elapsed();
            if now >= due {
                break;
            }
            let gap = due - now;
            if gap > Duration::from_micros(200) {
                std::thread::sleep(gap - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        handle.handle_line(frame, None);
    }
    let summary = engine.join();

    assert_eq!(summary.received, trips.len() as u64);
    assert_conserved(&summary, "soak");
    assert!(
        summary.queue_high_water <= QUEUE,
        "queue memory unbounded: high water {} > capacity {QUEUE}",
        summary.queue_high_water
    );
    assert!(summary.committed > 0, "nothing committed: {summary:?}");
    assert!(summary.fatal.is_none(), "{summary:?}");
    // At a sustained 2x offered load over a bounded queue, overload has
    // to surface somewhere attributable.
    assert!(
        summary.shed_queue_full + summary.shed_deadline > 0,
        "2x overload never shed: {summary:?}"
    );
}

/// Block policy: a full queue stalls the producer instead of shedding —
/// every upload is eventually committed and acked, none dropped, and
/// the stream ends byte-identical to a batch ingest of the same corpus.
#[test]
fn block_policy_backpressures_without_dropping_and_matches_batch() {
    let world = TestWorld::new(SEED, 4);
    let base = World::small(SEED).ride_corpus(40, SEED);
    let (trips, received) = faulted(&base, FaultPlan::calibrated(), SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            queue_capacity: 2, // tiny: forces the blocking path constantly
            full_policy: FullPolicy::Block,
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let (reply, buffer) = ReplySink::buffered();
    for (i, trip) in trips.iter().enumerate() {
        handle.handle_line(
            &protocol::upload_line(trip, i as u64, Some(received[i])),
            Some(&reply),
        );
    }
    let summary = engine.join();
    assert_conserved(&summary, "block");
    assert_eq!(summary.committed, trips.len() as u64, "{summary:?}");
    assert_eq!(summary.acked, trips.len() as u64, "{summary:?}");
    assert_eq!(
        summary.dropped(),
        0,
        "block policy never sheds: {summary:?}"
    );

    // Every upload got its ack line.
    let responses = String::from_utf8(buffer.lock().clone()).unwrap();
    for i in 0..trips.len() {
        assert!(
            responses.contains(&format!("{{\"ack\":{i},")),
            "upload {i} never acked"
        );
    }

    // The streamed monitor is the batch monitor, bit for bit.
    let batch = world.monitor();
    for (t, r) in trips.iter().zip(&received) {
        batch.ingest_upload(t, Some(*r));
    }
    let end_s = 24.0 * 3600.0;
    assert_eq!(
        serde_json::to_string(&monitor.snapshot_with_max_age(end_s, f64::INFINITY)).unwrap(),
        serde_json::to_string(&batch.snapshot_with_max_age(end_s, f64::INFINITY)).unwrap(),
        "streamed and batch maps diverged"
    );
}

/// A zero latency budget deadline-sheds every admitted upload — the
/// budget is enforced at commit time and each shed is attributed.
#[test]
fn zero_latency_budget_sheds_everything_at_the_deadline() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(10, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            latency_budget: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let (reply, buffer) = ReplySink::buffered();
    for (i, trip) in trips.iter().enumerate() {
        handle.handle_line(&protocol::upload_line(trip, i as u64, None), Some(&reply));
    }
    let summary = engine.join();
    assert_conserved(&summary, "deadline");
    assert_eq!(summary.committed, 0, "{summary:?}");
    assert_eq!(summary.shed_deadline, trips.len() as u64, "{summary:?}");
    let responses = String::from_utf8(buffer.lock().clone()).unwrap();
    assert!(
        responses.contains("\"reason\":\"shed-deadline\""),
        "sheds not reported to the producer: {responses}"
    );
}

/// Graceful drain with a durable store: everything queued still
/// commits, acks are released post-fsync, and the final checkpoint
/// covers every commit — the exit-0 path of the resident server.
#[test]
fn drain_flushes_acks_and_writes_a_final_checkpoint() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(25, SEED);
    let dir = scratch_dir("drain");

    let monitor = Arc::new(world.monitor());
    monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1);
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: 1000, // would never sync mid-run: drain must flush
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    for (i, trip) in trips.iter().enumerate() {
        handle.handle_line(&protocol::upload_line(trip, i as u64, None), None);
    }
    handle.begin_drain();
    let summary = engine.join();
    assert_conserved(&summary, "drain");
    assert_eq!(summary.committed, trips.len() as u64, "{summary:?}");
    assert_eq!(summary.acked, summary.committed, "drain must flush acks");
    assert!(summary.checkpoints >= 1, "{summary:?}");
    assert_eq!(
        summary.final_checkpoint_seq,
        Some(summary.committed),
        "final checkpoint must cover every commit: {summary:?}"
    );

    // An upload arriving after drain began is refused synchronously,
    // not silently discarded.
    let (reply, buffer) = ReplySink::buffered();
    handle.handle_line(&protocol::upload_line(&trips[0], 99, None), Some(&reply));
    let responses = String::from_utf8(buffer.lock().clone()).unwrap();
    assert!(
        responses.contains("\"reason\":\"draining\""),
        "late upload not refused with attribution: {responses}"
    );

    // The checkpointed state recovers to the same commit coverage.
    let (_, recovery) = TrafficMonitor::recover(
        world.network.clone(),
        world.db.clone(),
        Default::default(),
        &dir,
    )
    .unwrap();
    assert_eq!(recovery.snapshot_seq, summary.final_checkpoint_seq);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose appends fail past the retry budget fail-stops on the
/// first commit. The latch reaches the commit loop through the fsync
/// that gates the acks: not one ack is written, the summary names the
/// store failure, and `join` still returns.
#[test]
fn a_failed_store_withholds_every_ack_and_ends_the_run() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(6, SEED);
    let dir = scratch_dir("failstop");

    let monitor = Arc::new(world.monitor());
    let mut store = Store::open(&dir).unwrap();
    store.inject_io_faults(100, 0);
    monitor.attach_store_grouped(store, 0, 1);
    let engine = ServeEngine::start(Arc::clone(&monitor), ServeConfig::default());
    let handle = engine.handle();
    let (reply, buffer) = ReplySink::buffered();
    for (i, trip) in trips.iter().enumerate() {
        handle.handle_line(&protocol::upload_line(trip, i as u64, None), Some(&reply));
    }
    handle.begin_drain();
    let summary = engine.join();
    let responses = String::from_utf8(buffer.lock().clone()).unwrap();
    assert!(
        !responses.contains("\"ack\""),
        "no ack may follow a fail-stop: {responses}"
    );
    assert_eq!(summary.acked, 0, "{summary:?}");
    assert!(summary.committed >= 1, "{summary:?}");
    let fatal = summary.fatal.expect("the fail-stop ends the run");
    assert!(
        fatal.contains("durable store fail-stopped"),
        "diagnostic names the store failure: {fatal}"
    );
    assert!(monitor.store_failed());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wedged commit loop (modeled by a large commit throttle) freezes
/// the heartbeat; the watchdog must declare a fatal diagnostic, fire
/// the hook, and the summary must say the run did not end cleanly.
#[test]
fn watchdog_fails_fast_when_the_commit_loop_stalls() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(5, SEED);

    static HOOK_FIRED: AtomicBool = AtomicBool::new(false);
    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start_with(
        Arc::clone(&monitor),
        ServeConfig {
            commit_throttle: Some(Duration::from_millis(1500)),
            watchdog_stall: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
        Some(Box::new(|_diag| HOOK_FIRED.store(true, Ordering::SeqCst))),
    );
    let handle = engine.handle();
    for (i, trip) in trips.iter().enumerate() {
        handle.handle_line(&protocol::upload_line(trip, i as u64, None), None);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.summary().fatal.is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let summary = engine.join();
    let fatal = summary.fatal.expect("watchdog declared the stall");
    assert!(
        fatal.contains("stalled"),
        "diagnostic names the stall: {fatal}"
    );
    assert!(HOOK_FIRED.load(Ordering::SeqCst), "fatal hook must fire");
}

/// A healthy engine's `join` returns when the commit loop has drained,
/// not when the watchdog next wakes from its poll (a quarter of the
/// stall limit: 7.5 s at the CLI's default of 30 s).
#[test]
fn join_does_not_wait_out_the_watchdog_poll() {
    let world = TestWorld::new(SEED, 4);
    let engine = ServeEngine::start(
        Arc::new(world.monitor()),
        ServeConfig {
            watchdog_stall: Some(Duration::from_secs(30)),
            ..ServeConfig::default()
        },
    );
    let t = Instant::now();
    let summary = engine.join();
    assert!(summary.fatal.is_none(), "{summary:?}");
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "join took {:?}",
        t.elapsed()
    );
}

/// Frame-level refusals: unparseable JSON, an oversized line, and an
/// upload with too many samples are each counted, attributed, and
/// answered with a reasoned error — the connection survives all three.
#[test]
fn bad_frames_are_refused_with_attribution() {
    let world = TestWorld::new(SEED, 4);
    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(Arc::clone(&monitor), ServeConfig::default());
    let handle = engine.handle();
    let (reply, buffer) = ReplySink::buffered();

    handle.handle_line("this is not json", Some(&reply));
    handle.handle_line("{\"cmd\":\"explode\"}", Some(&reply));
    let oversized_line = format!("{{\"pad\":\"{}\"}}", "x".repeat(protocol::MAX_LINE_BYTES));
    handle.handle_line(&oversized_line, Some(&reply));
    // A parseable upload, well inside the line limit, whose sample
    // count exceeds the bound.
    let sample = "{\"time_s\":1,\"scan\":{\"observations\":[]}}";
    let fat = format!(
        "{{\"upload\":{{\"samples\":[{}]}},\"id\":3}}",
        vec![sample; MAX_SAMPLES + 1].join(",")
    );
    assert!(fat.len() < protocol::MAX_LINE_BYTES);
    handle.handle_line(&fat, Some(&reply));
    // A healthy command still works on the same connection.
    handle.handle_line("{\"cmd\":\"ping\"}", Some(&reply));

    let summary = engine.join();
    // `received` counts command frames too (the ping), so the upload
    // conservation law does not apply to this mixed stream — assert
    // the attribution counters directly instead.
    assert_eq!(summary.received, 5, "{summary:?}");
    assert_eq!(summary.unparseable, 2, "{summary:?}");
    assert_eq!(summary.oversized, 2, "{summary:?}");
    assert_eq!(summary.committed, 0, "{summary:?}");

    let responses = String::from_utf8(buffer.lock().clone()).unwrap();
    assert!(
        responses.contains("\"reason\":\"unparseable\""),
        "{responses}"
    );
    assert!(
        responses.contains("\"reason\":\"oversized\""),
        "{responses}"
    );
    assert!(responses.contains("\"ok\":\"pong\""), "{responses}");
}

/// The stats command reports live ledgers over the wire.
#[test]
fn stats_command_reports_the_ledgers() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(4, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(Arc::clone(&monitor), ServeConfig::default());
    let handle = engine.handle();
    for (i, trip) in trips.iter().enumerate() {
        handle.handle_line(&protocol::upload_line(trip, i as u64, None), None);
    }
    // Wait until the commit loop has drained the queue so the stats
    // line reflects all four commits.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (reply, buffer) = ReplySink::buffered();
    loop {
        buffer.lock().clear();
        handle.handle_line("{\"cmd\":\"stats\"}", Some(&reply));
        let line = String::from_utf8(buffer.lock().clone()).unwrap();
        if line.contains("\"committed\":4") || Instant::now() >= deadline {
            assert!(line.contains("\"received\":"), "{line}");
            assert!(
                line.contains("\"committed\":4"),
                "stats never caught up: {line}"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = engine.join();
}

/// `stats` on a city answers for the city: a 4-shard front whose
/// uploads landed on several shards reports every shard's commits, and
/// counts the `stats` line itself as one received command.
#[test]
fn stats_on_a_city_reports_every_shard() {
    const SHARDS: usize = 4;
    let m = World::metropolis(200, 60, 68);
    let trips = m.trips_chunk(0, 60);
    let city = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        Default::default(),
        SHARDS,
        OverflowPolicy::Score,
    );
    let engines: Vec<ServeEngine> = city
        .shards()
        .iter()
        .map(|s| ServeEngine::start(Arc::clone(s), ServeConfig::default()))
        .collect();
    let front = ShardFront::new(
        engines.iter().map(ServeEngine::handle).collect(),
        city.shards().to_vec(),
        city.policy(),
    );
    for (i, trip) in trips.iter().enumerate() {
        front.handle_line(&protocol::upload_line(trip, i as u64, None), None);
    }
    wait_until("the commits", Duration::from_secs(30), || {
        city.commit_counts().iter().sum::<u64>() == trips.len() as u64
    });
    let (reply, buffer) = ReplySink::buffered();
    front.handle_line("{\"cmd\":\"stats\"}", Some(&reply));
    let summaries: Vec<ServeSummary> = engines.into_iter().map(ServeEngine::join).collect();

    let busy = summaries.iter().filter(|s| s.committed > 0).count();
    assert!(busy >= 2, "uploads must span shards: {summaries:?}");
    let total = |f: fn(&ServeSummary) -> u64| -> u64 { summaries.iter().map(f).sum() };
    let line = String::from_utf8(buffer.lock().clone()).unwrap();
    let stats: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    let field = |name: &str| stats.get(name).and_then(serde_json::Value::as_u64);
    assert_eq!(field("committed"), Some(total(|s| s.committed)), "{line}");
    assert_eq!(
        total(|s| s.received),
        trips.len() as u64 + 1,
        "{summaries:?}"
    );
    assert_eq!(field("received"), Some(total(|s| s.received)), "{line}");
}

/// A city's commands reach every shard: on a 4-shard front with stores
/// attached, `checkpoint` writes a snapshot in every shard directory and
/// `shutdown` drains every engine, and each command counts as one
/// received line in the city's total, however many engines it reached.
#[test]
fn city_commands_reach_every_shard_and_count_once() {
    const SHARDS: usize = 4;
    let m = World::metropolis(200, 60, 68);
    let trips = m.trips_chunk(0, 60);
    let state = scratch_dir("city-commands");
    let city = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        Default::default(),
        SHARDS,
        OverflowPolicy::Score,
    );
    city.attach_stores(&state, 0, 1).unwrap();
    let engines: Vec<ServeEngine> = city
        .shards()
        .iter()
        .map(|s| ServeEngine::start(Arc::clone(s), ServeConfig::default()))
        .collect();
    let handles: Vec<EngineHandle> = engines.iter().map(ServeEngine::handle).collect();
    let front = ShardFront::new(handles.clone(), city.shards().to_vec(), city.policy());
    let (reply, buffer) = ReplySink::buffered();
    for (i, trip) in trips.iter().enumerate() {
        front.handle_line(&protocol::upload_line(trip, i as u64, None), Some(&reply));
    }
    wait_until("the commits", Duration::from_secs(30), || {
        city.commit_counts().iter().sum::<u64>() == trips.len() as u64
    });

    let snapshots = |s: usize| {
        std::fs::read_dir(shard_dir(&state, s))
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "snap")
            })
            .count()
    };
    assert!((0..SHARDS).all(|s| snapshots(s) == 0), "no snapshot yet");
    front.handle_line("{\"cmd\":\"checkpoint\"}", Some(&reply));
    wait_until("a snapshot in every shard", Duration::from_secs(30), || {
        (0..SHARDS).all(|s| snapshots(s) > 0)
    });
    front.handle_line("{\"cmd\":\"shutdown\"}", Some(&reply));
    wait_until("every engine to drain", Duration::from_secs(30), || {
        handles.iter().all(EngineHandle::finished)
    });
    let summaries: Vec<ServeSummary> = engines.into_iter().map(ServeEngine::join).collect();

    let total = |f: fn(&ServeSummary) -> u64| -> u64 { summaries.iter().map(f).sum() };
    assert_eq!(total(|s| s.committed), trips.len() as u64, "{summaries:?}");
    assert_eq!(
        total(|s| s.received),
        trips.len() as u64 + 2,
        "{summaries:?}"
    );
    // The requested checkpoint and the drain's, on every shard.
    assert!(
        summaries.iter().all(|s| s.checkpoints == 2),
        "{summaries:?}"
    );
    let replies = String::from_utf8(buffer.lock().clone()).unwrap();
    for answer in ["{\"ok\":\"checkpoint-scheduled\"}", "{\"ok\":\"draining\"}"] {
        assert_eq!(replies.matches(answer).count(), 1, "{replies}");
    }
    let _ = std::fs::remove_dir_all(&state);
}

/// A front over one engine *is* that engine: the same script — good
/// uploads, an oversized line, a garbage line, `ping`, `checkpoint`,
/// `shutdown` — through a bare [`busprobe::serve::EngineHandle`] and
/// through a one-engine [`ShardFront`] yields the same reply lines, the
/// same [`ServeSummary`] and, published at the front's horizon and at
/// the batch horizon of the script's uploads, the same `map.geojson`
/// bytes.
#[test]
fn one_engine_front_is_the_bare_engine() {
    let world = TestWorld::new(SEED, 4);
    let base = World::small(SEED).ride_corpus(30, SEED);
    let (trips, received) = faulted(&base, FaultPlan::calibrated(), SEED);

    let run = |tag: &str, through_front: bool| -> (Vec<String>, ServeSummary, Vec<u8>) {
        let state = scratch_dir(&format!("front-{tag}-state"));
        let publish = scratch_dir(&format!("front-{tag}-publish"));
        let monitor = Arc::new(world.monitor());
        monitor.attach_store_grouped(Store::open(&state).unwrap(), 0, 1);
        let engine = ServeEngine::start(Arc::clone(&monitor), ServeConfig::default());
        let (reply, buffer) = ReplySink::buffered();
        let handle = engine.handle();
        let front = ShardFront::new(
            vec![engine.handle()],
            vec![Arc::clone(&monitor)],
            OverflowPolicy::Score,
        );
        let send = |line: &str| {
            if through_front {
                front.handle_line(line, Some(&reply));
            } else {
                handle.handle_line(line, Some(&reply));
            }
        };
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            wait_until(&format!("{tag}: {what}"), Duration::from_secs(30), done);
        };

        send(&format!(
            "{{\"pad\":\"{}\"}}",
            "x".repeat(protocol::MAX_LINE_BYTES)
        ));
        send("this is not json");
        send("{\"cmd\":\"ping\"}");
        for (i, trip) in trips.iter().enumerate() {
            let line = protocol::upload_line(trip, i as u64, Some(received[i]));
            send(&line);
        }
        // Settle before each control line, so how many checkpoints run
        // (one requested, one at drain) does not depend on thread timing.
        wait_for("the commits", &|| {
            monitor.commit_count() >= trips.len() as u64
        });
        send("{\"cmd\":\"checkpoint\"}");
        wait_for("the requested checkpoint", &|| {
            std::fs::read_dir(&state)
                .unwrap()
                .any(|e| e.unwrap().path().extension().is_some_and(|x| x == "snap"))
        });
        send("{\"cmd\":\"shutdown\"}");
        let summary = engine.join();

        // Acks come from the commit thread, the other replies from this
        // one: compare the lines as a set.
        let mut replies: Vec<String> = String::from_utf8(buffer.lock().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        replies.sort();
        let horizon = if through_front {
            front.horizon()
        } else {
            latest_upload_s(&trips, 0.0)
        };
        let map = monitor.snapshot_with_max_age(horizon + HORIZON_GRACE_S, f64::INFINITY);
        let projection = LocalProjection::new(1.34, 103.70);
        busprobe::serve::publish(&publish, &map_to_geojson(&map, &world.network, &projection))
            .unwrap();
        let map = std::fs::read(publish.join("map.geojson")).expect("a map was published");
        assert!(publish.join("metrics.prom").is_file(), "{tag}: no metrics");
        let _ = std::fs::remove_dir_all(&state);
        let _ = std::fs::remove_dir_all(&publish);
        (replies, summary, map)
    };

    let (bare_replies, bare, bare_map) = run("bare", false);
    let (front_replies, front, front_map) = run("front", true);
    assert_eq!(bare.committed, trips.len() as u64, "{bare:?}");
    assert_eq!((bare.oversized, bare.unparseable), (1, 1), "{bare:?}");
    assert_eq!(bare.checkpoints, 2, "{bare:?}");
    assert_eq!(front_replies, bare_replies);
    // The deepest the queue got, and so how many groups the commits
    // were fsynced in, is a race between producer and commit thread in
    // either run; everything else must agree.
    let settled = |s: ServeSummary| ServeSummary {
        queue_high_water: 0,
        flushes: 0,
        ..s
    };
    assert_eq!(settled(front), settled(bare));
    assert_eq!(front_map, bare_map, "published maps differ");
}

/// A lone phone on a quiet night: one upload, a window that will never
/// fill and an idle poll far away. The queue ran dry behind it, so it
/// is fsynced and acked at once, by neither the window nor the poll.
#[test]
fn a_lone_upload_is_acked_without_the_window_or_the_poll() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(1, SEED);
    let dir = scratch_dir("lone");

    let monitor = Arc::new(world.monitor());
    monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 1000);
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: 1000,
            idle_poll: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let (reply, buffer) = ReplySink::buffered();
    engine
        .handle()
        .handle_line(&protocol::upload_line(&trips[0], 0, None), Some(&reply));
    wait_until("the lone upload's ack", Duration::from_secs(2), || {
        buffer.lock().starts_with(b"{\"ack\":0,")
    });
    assert_eq!(monitor.synced_seq(), Some(1), "acked, so fsynced");
    let summary = engine.join();
    assert_eq!((summary.committed, summary.acked), (1, 1), "{summary:?}");
    assert_eq!(
        (summary.flushes, summary.idle_flushes),
        (1, 0),
        "{summary:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under a backlog the queue never runs dry, so groups fill to
/// `sync_every` as they always did: the commit throttle holds the first
/// batch while 96 uploads queue up behind it.
#[test]
fn a_backlog_still_groups() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(97, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            commit_throttle: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let send =
        |i: usize| handle.handle_line(&protocol::upload_line(&trips[i], i as u64, None), None);
    send_one_then_a_backlog(&handle, trips.len(), send);
    let summary = engine.join();
    assert_eq!(summary.committed, trips.len() as u64, "{summary:?}");
    assert_eq!(summary.acked, summary.committed, "{summary:?}");
    assert!(
        summary.flushes <= summary.committed / 8,
        "a backlog must share its fsyncs: {summary:?}"
    );
    assert_eq!(summary.idle_flushes, 0, "{summary:?}");
}

/// `sync_every` caps every group, backlog or not: the commit loop takes
/// no more uploads than the group has room for, so with a cap of 4 and a
/// dozen uploads queued behind a throttled first one, no flush acks more
/// than 4 commits.
#[test]
fn a_backlog_never_overfills_a_group() {
    const CAP: u64 = 4;
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(13, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: CAP,
            commit_throttle: Some(Duration::from_millis(100)),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let (sink, log) = recording_sink(&monitor);
    let send = |i: usize| {
        let line = protocol::upload_line(&trips[i], i as u64, None);
        handle.handle_line(&line, Some(&sink));
    };
    send_one_then_a_backlog(&handle, trips.len(), send);
    let summary = engine.join();
    assert_eq!(summary.acked, trips.len() as u64, "{summary:?}");

    // One connection: each write is one flush's acks.
    let groups: Vec<usize> = log
        .lock()
        .unwrap()
        .iter()
        .map(|(_, text)| text.lines().count())
        .collect();
    assert_eq!(groups.iter().sum::<usize>(), trips.len(), "{groups:?}");
    assert!(
        groups.iter().all(|&acks| acks as u64 <= CAP),
        "a flush covered more than {CAP} commits: {groups:?}"
    );
}

/// The acks one flush releases reach each connection as one write, in
/// commit order: nine commits from two interleaved connections fill the
/// window together (the throttle holds the first while the rest queue).
#[test]
fn one_flush_is_one_write_per_connection() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(9, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: trips.len() as u64,
            commit_throttle: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let sinks = [recording_sink(&monitor), recording_sink(&monitor)];
    let send = |i: usize| {
        let line = protocol::upload_line(&trips[i], i as u64, None);
        handle.handle_line(&line, Some(&sinks[i % 2].0));
    };
    send_one_then_a_backlog(&handle, trips.len(), send);
    let summary = engine.join();
    assert_eq!((summary.acked, summary.flushes), (9, 1), "{summary:?}");

    for (parity, (_, log)) in sinks.iter().enumerate() {
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1, "connection {parity}: one write, got {log:?}");
        let acks: Vec<(u64, u64)> = log[0].1.lines().map(|l| parse_ack(l).unwrap()).collect();
        let ids: Vec<u64> = acks.iter().map(|&(id, _)| id).collect();
        let own: Vec<u64> = (0..9).filter(|id| id % 2 == parity as u64).collect();
        assert_eq!(ids, own, "connection {parity}: its own acks, in order");
        assert!(acks.windows(2).all(|w| w[0].1 < w[1].1), "{acks:?}");
    }
}

/// A batch the latency budget sheds whole still ends in the flush
/// decision: the good upload committed before it is acked when the
/// queue runs dry, not when the idle poll comes round.
#[test]
fn an_all_shed_batch_does_not_strand_earlier_acks() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(6, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: 1000,
            idle_poll: Duration::from_secs(10),
            // The good upload is taken fresh and held 400 ms; the burst
            // behind it is that stale when its turn comes.
            latency_budget: Some(Duration::from_millis(100)),
            commit_throttle: Some(Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let (reply, buffer) = ReplySink::buffered();
    let send = |i: usize| {
        handle.handle_line(
            &protocol::upload_line(&trips[i], i as u64, None),
            Some(&reply),
        );
    };
    send_one_then_a_backlog(&handle, trips.len(), send);
    wait_until("the good upload's ack", Duration::from_secs(2), || {
        String::from_utf8_lossy(&buffer.lock()).contains("{\"ack\":0,")
    });
    let summary = engine.join();
    assert_conserved(&summary, "all-shed batch");
    assert_eq!((summary.committed, summary.acked), (1, 1), "{summary:?}");
    assert_eq!(summary.shed_deadline, 5, "{summary:?}");
    assert_eq!(summary.idle_flushes, 0, "{summary:?}");
}

/// Exactly once, in order, never early: two connections send on seeded
/// random schedules — bursts, singles, pauses longer than the idle poll
/// — into a durable engine. Every id is acked once, `seq` ascends per
/// connection, and no ack line was written before the store had fsynced
/// past its `seq`.
#[test]
fn acks_are_exactly_once_in_order_and_never_before_their_fsync() {
    const PER_CONNECTION: usize = 60;
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(2 * PER_CONNECTION, SEED);
    let dir = scratch_dir("never-early");

    let monitor = Arc::new(world.monitor());
    monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 8);
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: 8,
            idle_poll: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );
    let sinks = [recording_sink(&monitor), recording_sink(&monitor)];
    std::thread::scope(|scope| {
        for (conn, (sink, _)) in sinks.iter().enumerate() {
            let handle = engine.handle();
            let trips = &trips;
            scope.spawn(move || {
                let mut state = SEED + conn as u64; // xorshift64
                for k in 0..PER_CONNECTION {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    match state % 10 {
                        0..=5 => {} // burst: back to back
                        6..=8 => std::thread::sleep(Duration::from_millis(1 + state % 3)),
                        _ => std::thread::sleep(Duration::from_millis(12)), // > idle_poll
                    }
                    let id = conn * PER_CONNECTION + k;
                    let line = protocol::upload_line(&trips[id], id as u64, None);
                    handle.handle_line(&line, Some(sink));
                }
            });
        }
    });
    let summary = engine.join();
    assert_conserved(&summary, "never early");
    assert_eq!(summary.committed, trips.len() as u64, "{summary:?}");
    assert_eq!(summary.acked, summary.committed, "{summary:?}");
    assert_eq!(summary.idle_flushes, 0, "{summary:?}");

    let mut acked = vec![0u32; trips.len()];
    for (conn, (_, log)) in sinks.iter().enumerate() {
        let mut last_seq = None;
        for (synced, text) in log.lock().unwrap().iter() {
            for line in text.lines() {
                let (id, seq) = parse_ack(line).unwrap_or_else(|| panic!("not an ack: {line}"));
                assert_eq!(
                    id as usize / PER_CONNECTION,
                    conn,
                    "{line} on connection {conn}"
                );
                acked[id as usize] += 1;
                assert!(
                    last_seq < Some(seq),
                    "connection {conn}: {line} after seq {last_seq:?}"
                );
                last_seq = Some(seq);
                assert!(
                    synced.is_some_and(|synced| seq < synced),
                    "{line} written with the store synced to {synced:?}"
                );
            }
        }
    }
    assert!(acked.iter().all(|&n| n == 1), "acks per id: {acked:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The queue is not dry while a connection thread is still working
/// through the lines of its last read: an ack waits for that burst —
/// its uploads share the fsync — and is released the moment the burst
/// ends, even when the burst queued nothing more.
#[test]
fn an_ack_waits_for_a_burst_in_progress_and_no_longer() {
    let world = TestWorld::new(SEED, 4);
    let trips = World::small(SEED).ride_corpus(1, SEED);

    let monitor = Arc::new(world.monitor());
    let engine = ServeEngine::start(
        Arc::clone(&monitor),
        ServeConfig {
            sync_every: 1000,
            idle_poll: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let handle = engine.handle();
    let (slow_reply, slow_buffer) = ReplySink::buffered();
    let (reply, buffer) = ReplySink::buffered();
    let upload = protocol::upload_line(&trips[0], 0, None);
    let acked = || String::from_utf8_lossy(&buffer.lock()).contains("{\"ack\":0,");

    // One connection's burst is fed a line at a time through a channel.
    let (feed, fed) = std::sync::mpsc::channel::<&str>();
    std::thread::scope(|scope| {
        let (handle, slow_reply) = (&handle, &slow_reply);
        scope.spawn(move || handle.handle_burst(fed.into_iter(), Some(slow_reply)));
        feed.send("{\"cmd\":\"ping\"}").unwrap();
        wait_until("the slow burst to begin", Duration::from_secs(10), || {
            !slow_buffer.lock().is_empty()
        });

        // Another connection's whole burst: one upload.
        handle.handle_burst(std::iter::once(upload.as_str()), Some(&reply));
        wait_until("the commit", Duration::from_secs(10), || {
            monitor.commit_count() == 1
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !acked(),
            "acked while another burst might still join the group"
        );

        drop(feed); // the slow burst ends, having queued nothing
        wait_until("the ack", Duration::from_secs(2), acked);
    });
    let summary = engine.join();
    assert_eq!((summary.committed, summary.acked), (1, 1), "{summary:?}");
    assert_eq!(
        (summary.flushes, summary.idle_flushes),
        (1, 0),
        "{summary:?}"
    );
}
