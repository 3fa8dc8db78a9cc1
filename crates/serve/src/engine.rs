//! The serve engine: admission control, the single commit loop,
//! durability-gated acknowledgements, checkpointing, and the stall
//! watchdog.
//!
//! Every decoded frame goes through one door, [`dispatch`], for the
//! engines behind a front (a bare engine's
//! [`handle_line`](LineHandler::handle_line) is decode plus that door over itself;
//! a shard front decodes each line once and passes every shard's engine
//! and its router). Uploads within [`MAX_SAMPLES`] enter the bounded
//! admission queue under the configured [`FullPolicy`]; commands are
//! answered once for all the engines. One commit thread per engine
//! drains its queue in batches, sheds entries that overstayed the
//! latency budget, hands the rest to the monitor's batch ingest in one
//! call, and acknowledges each upload only after its WAL record is
//! fsynced — so a producer that re-sends whatever was never acked loses
//! nothing across a crash, and the duplicate guard absorbs the overlap.
//!
//! The group commit is adaptive: the loop fsyncs and releases acks
//! when the window (`sync_every`) is full **or the queue has run dry**
//! — nothing queued and no connection thread still working through the
//! lines it last read — i.e. when nothing is left to share the fsync
//! with. A lone upload is acked after one fsync; under backlog the
//! queue never runs dry and groups fill to the cap; a slow disk fills
//! the queue during the fsync, so the next group is bigger. No timer,
//! no knob — see `CommitLoop::run`.
//!
//! Every upload that does not commit is attributed: shed, deadline,
//! oversized and unparseable frames each increment their
//! [`DropReason`] counter, emit an admission-drop trace, and (when the
//! producer is still connected) get a `drop` response naming the
//! reason.

use crate::net::LineHandler;
use crate::protocol::{self, Frame, Refusal, Request};
use crate::queue::{BoundedQueue, Popped};
use busprobe_core::{DropReason, TrafficMonitor};
use busprobe_mobile::Trip;
use busprobe_telemetry::{Counter, Gauge, Histogram, Level};
use busprobe_trace::{TraceRecord, TripTrace};
use parking_lot::Mutex;
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-latency buckets, seconds.
const LATENCY_BUCKETS: [f64; 10] = [0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0];

/// Admission → ack released, seconds: one fsync is ~0.15 ms, so the
/// buckets start well below the admission histogram's 1 ms.
const ACK_LATENCY_BUCKETS: [f64; 14] = [
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
];

/// Commits covered by one flush (one fsync).
const GROUP_SIZE_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// The most samples an upload may carry; one with more is refused at
/// admission as `oversized`.
pub const MAX_SAMPLES: usize = 4096;

/// What to do with a new upload when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FullPolicy {
    /// Stall the producer's connection until space frees up — true
    /// backpressure, nothing is lost.
    #[default]
    Block,
    /// Bounce the *new* upload with an attributed `shed-queue-full`
    /// drop; queued work is never disturbed.
    Reject,
    /// Admit the new upload and shed the *oldest* queued one — freshest
    /// data wins under overload.
    ShedOldest,
}

impl FullPolicy {
    /// The CLI / config spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FullPolicy::Block => "block",
            FullPolicy::Reject => "reject",
            FullPolicy::ShedOldest => "shed-oldest",
        }
    }
}

impl FromStr for FullPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "block" => Ok(FullPolicy::Block),
            "reject" => Ok(FullPolicy::Reject),
            "shed-oldest" => Ok(FullPolicy::ShedOldest),
            other => Err(format!(
                "unknown full-queue policy {other:?} (expected block, reject or shed-oldest)"
            )),
        }
    }
}

/// Tuning for one [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue capacity — the memory bound under overload.
    pub queue_capacity: usize,
    /// Full-queue policy.
    pub full_policy: FullPolicy,
    /// Shed uploads that waited in the queue longer than this.
    pub latency_budget: Option<Duration>,
    /// Stage-pool workers for the commit loop's batches (≤ 1 = serial).
    pub workers: usize,
    /// Fsync + release acknowledgements after at most this many
    /// commits — the cap of the group: the loop flushes sooner whenever
    /// the queue runs dry, and never takes more uploads than the group
    /// has room for. 1 = one fsync per commit.
    pub sync_every: u64,
    /// Checkpoint at least this often while commits are flowing.
    pub checkpoint_interval: Option<Duration>,
    /// Fail fast when the commit loop makes no progress for this long.
    pub watchdog_stall: Option<Duration>,
    /// Commit-loop poll interval when the queue is empty.
    pub idle_poll: Duration,
    /// Fault injection: sleep this long before ingesting each batch
    /// (models a wedged pipeline so the watchdog can be tested).
    pub commit_throttle: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            full_policy: FullPolicy::Block,
            latency_budget: None,
            workers: 1,
            sync_every: 32,
            checkpoint_interval: None,
            watchdog_stall: None,
            idle_poll: Duration::from_millis(25),
            commit_throttle: None,
        }
    }
}

/// Where responses for one producer connection go. Cheap to clone;
/// clones share the writer. Write failures (producer hung up) are
/// counted, never fatal — the upload's fate is already recorded in
/// telemetry and traces.
#[derive(Clone)]
pub struct ReplySink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl ReplySink {
    /// Wraps a writer (socket half, stdout, buffer).
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        ReplySink {
            writer: Arc::new(Mutex::new(Box::new(writer))),
        }
    }

    /// An in-memory sink plus its shared buffer — test helper.
    #[must_use]
    pub fn buffered() -> (Self, Arc<Mutex<Vec<u8>>>) {
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Arc::new(Mutex::new(Vec::new()));
        (ReplySink::new(Buf(Arc::clone(&shared))), shared)
    }

    /// Sends a line, swallowing write errors (for front-end loops that
    /// have no engine counter in hand).
    pub fn send_raw(&self, line: &str) {
        let _ = self.write(&[line, "\n"].concat());
    }

    fn send_line(&self, line: &str, errors: &Counter) {
        self.send_lines(&[line, "\n"].concat(), errors);
    }

    /// Sends newline-terminated lines as they are, counting a failure.
    fn send_lines(&self, lines: &str, errors: &Counter) {
        if self.write(lines).is_err() {
            errors.inc();
        }
    }

    /// One `write_all` per call: the writer is an unbuffered socket, so
    /// every call here is a syscall.
    fn write(&self, lines: &str) -> std::io::Result<()> {
        let mut writer = self.writer.lock();
        writer.write_all(lines.as_bytes())?;
        writer.flush()
    }

    fn same_connection(&self, other: &ReplySink) -> bool {
        Arc::ptr_eq(&self.writer, &other.writer)
    }
}

/// One upload waiting in the admission queue.
struct Admission {
    id: Option<u64>,
    trip: Trip,
    received_s: Option<f64>,
    digest: u64,
    samples: usize,
    enqueued: Instant,
    reply: Option<ReplySink>,
}

/// Per-engine counters backing [`ServeSummary`] (the global telemetry
/// registry is process-wide; these stay attributable per engine).
#[derive(Default)]
struct Stats {
    received: AtomicU64,
    admitted: AtomicU64,
    committed: AtomicU64,
    acked: AtomicU64,
    /// Admission drops, indexed by `DropReason as usize`.
    dropped: [AtomicU64; DropReason::ALL.len()],
    refused_draining: AtomicU64,
    checkpoints: AtomicU64,
    flushes: AtomicU64,
    idle_flushes: AtomicU64,
}

/// Why the commit loop fsynced and released acks.
#[derive(Debug, Clone, Copy)]
enum FlushCause {
    /// The group reached `sync_every`.
    Full,
    /// The queue ran dry: nothing left to share the fsync with.
    Dry,
    /// The idle poll found pending acks — the safety net; never in
    /// normal operation.
    Idle,
    /// A checkpoint came due mid-group (it syncs first).
    Checkpoint,
    /// The drain epilogue.
    Drain,
}

impl FlushCause {
    /// Each cause's `busprobe_serve_flushes_<name>_total` name, in
    /// declaration order, so `cause as usize` indexes it.
    const NAMES: [&'static str; 5] = ["full", "dry", "idle", "checkpoint", "drain"];
}

/// Pre-resolved global telemetry instruments.
struct ServeMetrics {
    admitted: Counter,
    acked: Counter,
    reply_errors: Counter,
    checkpoints: Counter,
    queue_depth: Gauge,
    queue_high_water: Gauge,
    admission_latency: Arc<Histogram>,
    ack_latency: Arc<Histogram>,
    flush_group_size: Arc<Histogram>,
    /// Indexed by `FlushCause as usize`.
    flushes: [Counter; FlushCause::NAMES.len()],
    /// Indexed by `DropReason as usize`.
    drops: [Counter; DropReason::ALL.len()],
}

impl ServeMetrics {
    fn new() -> Self {
        ServeMetrics {
            admitted: busprobe_telemetry::counter("busprobe_serve_admitted_total"),
            acked: busprobe_telemetry::counter("busprobe_serve_acks_total"),
            reply_errors: busprobe_telemetry::counter("busprobe_serve_reply_errors_total"),
            checkpoints: busprobe_telemetry::counter("busprobe_serve_checkpoints_total"),
            queue_depth: busprobe_telemetry::gauge("busprobe_serve_queue_depth"),
            queue_high_water: busprobe_telemetry::gauge("busprobe_serve_queue_high_water"),
            admission_latency: busprobe_telemetry::histogram(
                "busprobe_serve_admission_latency_seconds",
                &LATENCY_BUCKETS,
            ),
            ack_latency: busprobe_telemetry::histogram(
                "busprobe_serve_ack_latency_seconds",
                &ACK_LATENCY_BUCKETS,
            ),
            flush_group_size: busprobe_telemetry::histogram(
                "busprobe_serve_flush_group_size",
                &GROUP_SIZE_BUCKETS,
            ),
            flushes: FlushCause::NAMES.map(|name| {
                busprobe_telemetry::counter(&format!("busprobe_serve_flushes_{name}_total"))
            }),
            drops: DropReason::counters(),
        }
    }
}

/// State shared by producers, the commit loop and the watchdog.
struct Shared {
    monitor: Arc<TrafficMonitor>,
    config: ServeConfig,
    queue: BoundedQueue<Admission>,
    stats: Stats,
    tele: ServeMetrics,
    /// Commit-loop heartbeat: one tick per loop iteration (batches and
    /// idle polls alike). Frozen beats = a stuck commit thread.
    commit_beats: AtomicU64,
    /// Set once the commit loop has exited ([`LineHandler::finished`]).
    commit_done: AtomicBool,
    checkpoint_requested: AtomicBool,
    /// First fatal diagnostic (watchdog stall or store fail-stop).
    fatal: Mutex<Option<String>>,
    last_checkpoint_seq: Mutex<Option<u64>>,
}

impl Shared {
    fn set_fatal(&self, diag: String) {
        let mut fatal = self.fatal.lock();
        if fatal.is_none() {
            busprobe_telemetry::event(Level::Error, "serve::engine", diag.clone());
            *fatal = Some(diag);
        }
    }

    /// Attributes one upload dropped before staging: counter, trace,
    /// and (when the producer is still listening) a `drop` response.
    fn attribute_drop(&self, adm: &Admission, reason: DropReason) {
        self.stats.dropped[reason as usize].fetch_add(1, Ordering::Relaxed);
        self.tele.drops[reason as usize].inc();
        if let Some(tracer) = self.monitor.trace_sink() {
            tracer.submit(TraceRecord {
                trace: TripTrace::admission_drop(
                    adm.digest,
                    self.monitor.commit_count(),
                    adm.samples,
                    reason.trace_label(),
                ),
                worker: None,
                spans: Vec::new(),
            });
        }
        if let Some(reply) = &adm.reply {
            reply.send_line(
                &protocol::drop_line(adm.id, reason.trace_label()),
                &self.tele.reply_errors,
            );
        }
    }

    fn summary(&self) -> ServeSummary {
        // Acked first: commits only ever run ahead of their acks, so
        // the difference — commits staged but not yet fsynced and
        // acked — cannot read negative.
        let acked = self.stats.acked.load(Ordering::Relaxed);
        let dropped =
            |reason: DropReason| self.stats.dropped[reason as usize].load(Ordering::Relaxed);
        ServeSummary {
            received: self.stats.received.load(Ordering::Relaxed),
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            committed: self.stats.committed.load(Ordering::Relaxed),
            acked,
            shed_queue_full: dropped(DropReason::ShedQueueFull),
            shed_deadline: dropped(DropReason::ShedDeadline),
            oversized: dropped(DropReason::Oversized),
            unparseable: dropped(DropReason::Unparseable),
            refused_draining: self.stats.refused_draining.load(Ordering::Relaxed),
            checkpoints: self.stats.checkpoints.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            idle_flushes: self.stats.idle_flushes.load(Ordering::Relaxed),
            queue_high_water: self.queue.high_water(),
            final_checkpoint_seq: *self.last_checkpoint_seq.lock(),
            fatal: self.fatal.lock().clone(),
        }
    }
}

/// What one engine run did, returned by [`ServeEngine::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Wire lines received.
    pub received: u64,
    /// Uploads admitted into the queue.
    pub admitted: u64,
    /// Uploads run through the stage/commit pipeline.
    pub committed: u64,
    /// Acknowledgements released (post-fsync).
    pub acked: u64,
    /// Uploads shed because the queue was full.
    pub shed_queue_full: u64,
    /// Uploads shed after overstaying the latency budget.
    pub shed_deadline: u64,
    /// Frames refused for size.
    pub oversized: u64,
    /// Frames refused as unparseable.
    pub unparseable: u64,
    /// Uploads refused with a synchronous error because the server was
    /// already draining.
    pub refused_draining: u64,
    /// Checkpoints written (including the final drain checkpoint).
    pub checkpoints: u64,
    /// Group flushes: one `sync_store` and the acks it covers, each.
    /// `committed / flushes` is the mean group size.
    pub flushes: u64,
    /// Flushes left to the idle poll — acks that waited out a timer.
    /// The flush rule leaves it none to find; non-zero is a bug.
    pub idle_flushes: u64,
    /// Deepest the admission queue ever got — the memory bound held.
    pub queue_high_water: usize,
    /// Coverage point of the last checkpoint, if a store was attached.
    pub final_checkpoint_seq: Option<u64>,
    /// Fatal diagnostic, if the run ended by watchdog or store
    /// fail-stop instead of a clean drain.
    pub fatal: Option<String>,
}

impl ServeSummary {
    /// Uploads attributed to an admission-layer drop.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.oversized + self.unparseable
    }
}

/// The `{"ok":"stats",...}` answer for the engines behind one front,
/// from their live [`EngineHandle::summary`]s and the uploads `queued`
/// across them now: counters are summed, `queue_high_water` is the
/// deepest any one queue got.
fn stats_line(engines: &[ServeSummary], queued: usize) -> String {
    let sum = |field: fn(&ServeSummary) -> u64| -> u64 { engines.iter().map(field).sum() };
    let (committed, acked) = (sum(|s| s.committed), sum(|s| s.acked));
    let high_water = engines.iter().map(|s| s.queue_high_water).max();
    format!(
        "{{\"ok\":\"stats\",\"received\":{},\"admitted\":{},\"committed\":{committed},\
         \"acked\":{acked},\"shed_queue_full\":{},\"shed_deadline\":{},\"oversized\":{},\
         \"unparseable\":{},\"queue\":{queued},\"queue_high_water\":{},\"flushes\":{},\
         \"acks_pending\":{}}}",
        sum(|s| s.received),
        sum(|s| s.admitted),
        sum(|s| s.shed_queue_full),
        sum(|s| s.shed_deadline),
        sum(|s| s.oversized),
        sum(|s| s.unparseable),
        high_water.unwrap_or(0),
        sum(|s| s.flushes),
        committed - acked,
    )
}

/// Called (once) from the watchdog thread when the engine declares a
/// fatal condition — the resident CLI uses it to exit non-zero.
pub type FatalHook = Box<dyn Fn(&str) + Send + 'static>;

/// A clonable front door for connection threads.
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

/// The one door every decoded frame goes through, for the engines
/// behind one front: `[engine]` for a bare engine, every shard's for a
/// city. An upload is admitted by the engine `route` names and counts
/// as one received there. Every other frame is answered here once for
/// all of them and counts as one received on engine 0: `ping` gets
/// `pong`, `stats` one stats line over every engine, `checkpoint` and
/// `shutdown` reach every engine, and a refused line is attributed on
/// engine 0.
///
/// Under the `Block` policy an upload stalls the caller while its
/// queue is full — that is the backpressure, propagated to the producer
/// through the unread socket.
///
/// # Panics
///
/// Panics if `engines` is empty or `route` names no engine in it.
pub fn dispatch(
    engines: &[EngineHandle],
    frame: Frame,
    reply: Option<&ReplySink>,
    route: impl FnOnce(&Trip) -> usize,
) {
    let engine = match &frame {
        Ok(Request::Upload { trip, .. }) => &engines[route(trip)],
        _ => &engines[0],
    };
    engine.shared.stats.received.fetch_add(1, Ordering::Relaxed);
    match frame {
        Ok(Request::Upload {
            id,
            trip,
            received_s,
        }) => engine.admit(id, trip, received_s, reply),
        Err(refusal) => engine.refuse_frame(refusal, reply),
        Ok(Request::Ping) => engine.respond(reply, &protocol::ok_line("pong")),
        Ok(Request::Stats) => {
            let summaries: Vec<ServeSummary> = engines.iter().map(EngineHandle::summary).collect();
            let queued = engines.iter().map(EngineHandle::queue_depth).sum();
            engine.respond(reply, &stats_line(&summaries, queued));
        }
        Ok(Request::Checkpoint) => {
            engines.iter().for_each(EngineHandle::request_checkpoint);
            engine.respond(reply, &protocol::ok_line("checkpoint-scheduled"));
        }
        Ok(Request::Shutdown) => {
            engine.respond(reply, &protocol::ok_line("draining"));
            engines.iter().for_each(EngineHandle::begin_drain);
        }
    }
}

/// A bare engine is the front of one: a line is decoded and
/// [`dispatch`]ed to it alone, and the lines of one read are one
/// [`burst`](EngineHandle::burst).
impl LineHandler for EngineHandle {
    fn handle_line(&self, line: &str, reply: Option<&ReplySink>) {
        dispatch(
            std::slice::from_ref(self),
            protocol::decode(line),
            reply,
            |_| 0,
        );
    }

    fn handle_burst<'a>(&self, lines: impl Iterator<Item = &'a str>, reply: Option<&ReplySink>) {
        let _burst = self.burst();
        for line in lines {
            self.handle_line(line, reply);
        }
    }

    fn is_draining(&self) -> bool {
        self.shared.queue.is_closed()
    }

    fn finished(&self) -> bool {
        self.shared.commit_done.load(Ordering::Acquire)
    }
}

impl EngineHandle {
    /// Opens a burst on the admission queue, for a caller about to
    /// [`handle_line`](LineHandler::handle_line) several lines in a row — the
    /// lines one socket `read` returned. Until the guard drops, the
    /// commit loop is not woken per upload but once, when it drops, and
    /// does not consider the queue dry. A connection thread that sends
    /// the commit loop to sleep and wakes it again for every line
    /// spends more on the hand-offs than the commit loop spends on the
    /// lines.
    #[must_use = "the burst ends when the guard drops"]
    pub fn burst(&self) -> Burst<'_> {
        self.shared.queue.begin_burst();
        Burst(&self.shared.queue)
    }

    /// Stops admission: queued uploads still commit, then the commit
    /// loop flushes acks, writes a final checkpoint and exits.
    pub fn begin_drain(&self) {
        self.shared.queue.close();
    }

    /// Schedules a checkpoint at the next commit boundary.
    fn request_checkpoint(&self) {
        self.shared
            .checkpoint_requested
            .store(true, Ordering::Relaxed);
    }

    /// What this engine has done so far — what [`ServeEngine::join`]
    /// reports at the end.
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        self.shared.summary()
    }

    /// Uploads currently sitting in the admission queue — a sharded
    /// front end exports this per shard.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    fn respond(&self, reply: Option<&ReplySink>, line: &str) {
        if let Some(reply) = reply {
            reply.send_line(line, &self.shared.tele.reply_errors);
        }
    }

    /// Attributes a frame that never yielded an upload (oversized line
    /// or unparseable JSON), traced under the hash of its raw bytes.
    fn refuse_frame(&self, refusal: Refusal, reply: Option<&ReplySink>) {
        let adm = Admission {
            id: None,
            trip: Trip {
                samples: Vec::new(),
            },
            received_s: None,
            digest: refusal.digest,
            samples: 0,
            enqueued: Instant::now(),
            reply: None, // respond with the detailed error instead
        };
        self.shared.attribute_drop(&adm, refusal.reason);
        self.respond(
            reply,
            &protocol::err_line(&refusal.detail, refusal.reason.trace_label()),
        );
    }

    fn admit(
        &self,
        id: Option<u64>,
        trip: Trip,
        received_s: Option<f64>,
        reply: Option<&ReplySink>,
    ) {
        let shared = &self.shared;
        let adm = Admission {
            digest: TrafficMonitor::upload_digest(&trip),
            samples: trip.samples.len(),
            id,
            trip,
            received_s,
            enqueued: Instant::now(),
            reply: reply.cloned(),
        };
        if adm.samples > MAX_SAMPLES {
            shared.attribute_drop(&adm, DropReason::Oversized);
            return;
        }
        let outcome = match shared.config.full_policy {
            FullPolicy::Block => shared.queue.push_blocking(adm).map(|depth| (depth, None)),
            FullPolicy::Reject => shared.queue.try_push(adm).map(|depth| (depth, None)),
            FullPolicy::ShedOldest => shared.queue.push_evicting(adm),
        };
        match outcome {
            Ok((depth, evicted)) => {
                shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
                shared.tele.admitted.inc();
                shared.tele.queue_depth.set(depth.len as f64);
                shared
                    .tele
                    .queue_high_water
                    .set_max(depth.high_water as f64);
                if let Some(victim) = evicted {
                    shared.attribute_drop(&victim, DropReason::ShedQueueFull);
                }
            }
            Err(adm) if shared.queue.is_closed() => {
                // Refused synchronously because the server is draining —
                // not a shed; the producer sees the error immediately.
                shared
                    .stats
                    .refused_draining
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(reply) = &adm.reply {
                    reply.send_line(
                        &protocol::err_line("server is draining; upload refused", "draining"),
                        &shared.tele.reply_errors,
                    );
                }
            }
            Err(adm) => {
                // Reject policy, queue full: bounce the newcomer.
                shared.attribute_drop(&adm, DropReason::ShedQueueFull);
            }
        }
    }
}

/// An open burst on one engine's admission queue; see
/// [`EngineHandle::burst`]. Dropping it ends the burst.
pub struct Burst<'a>(&'a BoundedQueue<Admission>);

impl Drop for Burst<'_> {
    fn drop(&mut self) {
        self.0.end_burst();
    }
}

/// The resident streaming engine. [`start`](Self::start) spawns the
/// commit loop (and watchdog, when configured); producers feed it via
/// [`handle`](Self::handle); [`join`](Self::join) drains and returns
/// the run's [`ServeSummary`].
pub struct ServeEngine {
    shared: Arc<Shared>,
    commit: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts the engine over `monitor` (which should already have its
    /// store attached when durability is wanted).
    #[must_use]
    pub fn start(monitor: Arc<TrafficMonitor>, config: ServeConfig) -> Self {
        Self::start_with(monitor, config, None)
    }

    /// [`start`](Self::start) with a hook the watchdog calls on a
    /// fatal condition (the CLI passes `exit(2)`).
    #[must_use]
    pub fn start_with(
        monitor: Arc<TrafficMonitor>,
        config: ServeConfig,
        on_fatal: Option<FatalHook>,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            monitor,
            config,
            stats: Stats::default(),
            tele: ServeMetrics::new(),
            commit_beats: AtomicU64::new(0),
            commit_done: AtomicBool::new(false),
            checkpoint_requested: AtomicBool::new(false),
            fatal: Mutex::new(None),
            last_checkpoint_seq: Mutex::new(None),
        });
        // The commit loop's last word wakes the watchdog, which every
        // `join` would otherwise wait out of its sleep (a quarter of
        // the stall limit).
        let (commit_exit, commit_exited) = mpsc::channel();
        let commit = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-commit".into())
                .spawn(move || {
                    CommitLoop::new(shared).run();
                    let _ = commit_exit.send(());
                })
                .expect("spawn commit thread")
        };
        let watchdog = shared.config.watchdog_stall.map(|stall| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared, stall, &commit_exited, on_fatal.as_ref()))
                .expect("spawn watchdog thread")
        });
        ServeEngine {
            shared,
            commit: Some(commit),
            watchdog,
        }
    }

    /// A clonable front door for connection threads.
    #[must_use]
    pub fn handle(&self) -> EngineHandle {
        EngineHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drains (closing the queue if still open), waits for the commit
    /// loop and watchdog, and reports what happened.
    #[must_use]
    pub fn join(mut self) -> ServeSummary {
        self.shared.queue.close();
        if let Some(h) = self.commit.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        self.shared.summary()
    }
}

/// One commit whose ack waits for the fsync that covers it.
struct PendingAck {
    id: Option<u64>,
    seq: u64,
    reply: Option<ReplySink>,
    enqueued: Instant,
}

/// The single consumer of the admission queue.
struct CommitLoop {
    shared: Arc<Shared>,
    /// Every commit since the last fsync, in commit order — the group.
    pending_acks: Vec<PendingAck>,
    committed_since_checkpoint: bool,
    last_checkpoint: Instant,
}

impl CommitLoop {
    fn new(shared: Arc<Shared>) -> Self {
        CommitLoop {
            shared,
            pending_acks: Vec::new(),
            committed_since_checkpoint: false,
            last_checkpoint: Instant::now(),
        }
    }

    fn run(mut self) {
        loop {
            self.shared.commit_beats.fetch_add(1, Ordering::Relaxed);
            if self.shared.fatal.lock().is_some() {
                break;
            }
            // Take no more than the group has room for, so no flush
            // covers more than `sync_every` commits.
            let config = &self.shared.config;
            let room = config
                .sync_every
                .saturating_sub(self.pending_acks.len() as u64);
            let room = usize::try_from(room).unwrap_or(usize::MAX);
            let popped = self.shared.queue.pop_batch(room, config.idle_poll);
            match popped {
                Popped::Drained => break,
                Popped::Idle => {
                    if !self.flush_acks(FlushCause::Idle) {
                        break;
                    }
                    if !self.maybe_checkpoint(false) {
                        break;
                    }
                }
                Popped::Batch(batch, left) => {
                    self.shared.tele.queue_depth.set(left as f64);
                    self.commit_batch(batch);
                    // The flush rule, after every batch (one shed whole
                    // or an empty one at the end of a burst included):
                    // fsync when the group is full, or when the queue
                    // ran dry while the batch was staged — nothing
                    // queued, no connection thread mid-burst. Then
                    // nothing is left to share the fsync with, and
                    // waiting would only add latency. What arrives
                    // during the fsync is the next group, so groups
                    // grow with load and with a slow disk by
                    // themselves, up to `sync_every`.
                    let cause = if self.pending_acks.len() as u64 >= self.shared.config.sync_every {
                        Some(FlushCause::Full)
                    } else if left == 0 && self.shared.queue.is_dry() {
                        Some(FlushCause::Dry)
                    } else {
                        None
                    };
                    if cause.is_some_and(|cause| !self.flush_acks(cause)) {
                        break;
                    }
                    if !self.maybe_checkpoint(false) {
                        break;
                    }
                }
            }
        }
        // Drain epilogue: only on a clean exit — after a fatal, nothing
        // more gets acknowledged (producers re-send the unacked tail).
        if self.shared.fatal.lock().is_none() && self.flush_acks(FlushCause::Drain) {
            let _ = self.maybe_checkpoint(true);
        }
        self.shared.tele.queue_depth.set(0.0);
        self.shared.commit_done.store(true, Ordering::Release);
    }

    /// Sheds stale entries, ingests the rest, queues their acks (when
    /// to release them is [`run`](Self::run)'s decision). A store that
    /// fail-stops here fails the next [`flush_acks`](Self::flush_acks),
    /// so none of these acks is released.
    fn commit_batch(&mut self, batch: Vec<Admission>) {
        let shared = &self.shared;
        let config = &shared.config;
        let mut keep: Vec<Admission> = Vec::with_capacity(batch.len());
        for adm in batch {
            if let Some(budget) = config.latency_budget {
                if adm.enqueued.elapsed() > budget {
                    shared.attribute_drop(&adm, DropReason::ShedDeadline);
                    continue;
                }
            }
            keep.push(adm);
        }
        if keep.is_empty() {
            return;
        }
        if let Some(throttle) = config.commit_throttle {
            std::thread::sleep(throttle);
        }
        for adm in &keep {
            shared
                .tele
                .admission_latency
                .record(adm.enqueued.elapsed().as_secs_f64());
        }
        let base_seq = shared.monitor.commit_count();
        let n = keep.len() as u64;
        let mut trips: Vec<Trip> = Vec::with_capacity(keep.len());
        let mut recvs: Vec<Option<f64>> = Vec::with_capacity(keep.len());
        for (i, adm) in keep.into_iter().enumerate() {
            self.pending_acks.push(PendingAck {
                id: adm.id,
                seq: base_seq + i as u64,
                reply: adm.reply,
                enqueued: adm.enqueued,
            });
            trips.push(adm.trip);
            recvs.push(adm.received_s);
        }
        // `max(1)`: a worker count of 0 would mean every core there.
        let _ =
            shared
                .monitor
                .ingest_batch_received_parallel(&trips, &recvs, config.workers.max(1));
        shared.stats.committed.fetch_add(n, Ordering::Relaxed);
        self.committed_since_checkpoint = true;
    }

    /// Makes every pending commit durable, then releases its ack — the
    /// only place an ack line is written. Returns false when durability
    /// fail-stopped (nothing is acked).
    fn flush_acks(&mut self, cause: FlushCause) -> bool {
        if self.pending_acks.is_empty() {
            return true;
        }
        let shared = &self.shared;
        match shared.monitor.sync_store() {
            Ok(()) => {
                let group = self.pending_acks.len() as u64;
                // One write per connection, not per ack: the lines of
                // one sink are joined in commit order.
                let mut writes: Vec<(&ReplySink, String)> = Vec::new();
                let released = Instant::now();
                for ack in &self.pending_acks {
                    shared
                        .tele
                        .ack_latency
                        .record(released.duration_since(ack.enqueued).as_secs_f64());
                    let Some(reply) = &ack.reply else { continue };
                    let at = writes
                        .iter()
                        .position(|(sink, _)| sink.same_connection(reply))
                        .unwrap_or_else(|| {
                            writes.push((reply, String::new()));
                            writes.len() - 1
                        });
                    let lines = &mut writes[at].1;
                    lines.push_str(&protocol::ack_line(ack.id, ack.seq));
                    lines.push('\n');
                }
                for (sink, lines) in &writes {
                    sink.send_lines(lines, &shared.tele.reply_errors);
                }
                self.pending_acks.clear();
                shared.stats.acked.fetch_add(group, Ordering::Relaxed);
                shared.stats.flushes.fetch_add(1, Ordering::Relaxed);
                if matches!(cause, FlushCause::Idle) {
                    shared.stats.idle_flushes.fetch_add(1, Ordering::Relaxed);
                }
                shared.tele.acked.add(group);
                shared.tele.flushes[cause as usize].inc();
                shared.tele.flush_group_size.record(group as f64);
                true
            }
            Err(e) => {
                shared.set_fatal(format!(
                    "durable store failed; withholding {} acknowledgements: {e}",
                    self.pending_acks.len()
                ));
                self.pending_acks.clear();
                false
            }
        }
    }

    /// Runs a checkpoint when one is due (interval, request, or `force`
    /// at drain). Acks flush first so the snapshot never covers
    /// unacknowledged commits. Returns false on a fatal flush.
    fn maybe_checkpoint(&mut self, force: bool) -> bool {
        let shared = &self.shared;
        let requested = shared.checkpoint_requested.swap(false, Ordering::Relaxed);
        let time_due = shared
            .config
            .checkpoint_interval
            .is_some_and(|iv| self.last_checkpoint.elapsed() >= iv)
            && self.committed_since_checkpoint;
        if !(force || requested || time_due) {
            return true;
        }
        if !self.flush_acks(FlushCause::Checkpoint) {
            return false;
        }
        let shared = &self.shared;
        match shared.monitor.checkpoint() {
            Ok(Some(seq)) => {
                *shared.last_checkpoint_seq.lock() = Some(seq);
                shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                shared.tele.checkpoints.inc();
                busprobe_telemetry::event(
                    Level::Info,
                    "serve::engine",
                    format!("checkpoint covers {seq} commits"),
                );
            }
            // No store attached: nothing to write.
            Ok(None) => {}
            Err(e) => {
                busprobe_telemetry::event(
                    Level::Warn,
                    "serve::engine",
                    format!("checkpoint failed (WAL continues to cover the stream): {e}"),
                );
            }
        }
        self.committed_since_checkpoint = false;
        self.last_checkpoint = Instant::now();
        true
    }
}

/// Fails fast when the commit loop stops making progress: the beat
/// counter ticks every loop iteration, so frozen beats mean a thread
/// stuck inside an ingest or a wedged store — diagnose loudly instead
/// of silently queueing forever.
fn watchdog_loop(
    shared: &Arc<Shared>,
    stall: Duration,
    commit_exited: &mpsc::Receiver<()>,
    on_fatal: Option<&FatalHook>,
) {
    let poll = (stall / 4).max(Duration::from_millis(5));
    let mut last_beat = shared.commit_beats.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    loop {
        match commit_exited.recv_timeout(poll) {
            Ok(()) => return,
            Err(RecvTimeoutError::Timeout) => {}
            // The commit thread died without finishing (a panic): its
            // beats are frozen, which is what the check below is for.
            Err(RecvTimeoutError::Disconnected) => std::thread::sleep(poll),
        }
        let beat = shared.commit_beats.load(Ordering::Relaxed);
        if beat != last_beat {
            last_beat = beat;
            last_change = Instant::now();
            continue;
        }
        if last_change.elapsed() >= stall {
            let diag = format!(
                "commit loop stalled for {:.0?} (beats frozen at {beat}, queue {}/{} deep, \
                 {} commits so far); failing fast",
                last_change.elapsed(),
                shared.queue.len(),
                shared.queue.capacity(),
                shared.monitor.commit_count(),
            );
            shared.set_fatal(diag.clone());
            shared.queue.close();
            if let Some(hook) = on_fatal {
                hook(&diag);
            }
            return;
        }
    }
}
