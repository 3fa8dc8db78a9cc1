//! The line-protocol front end of a city: one [`LineHandler`] over N ≥ 1
//! per-shard [`ServeEngine`](busprobe_serve::ServeEngine)s.
//!
//! Each shard keeps its own admission queue, commit thread, WAL and
//! checkpoint cadence; the front is the one place a wire line is
//! decoded. It hands every decoded frame to
//! [`busprobe_serve::dispatch`] over all the engines, with its router:
//! an upload is routed on its parsed trip and admitted by the winning
//! engine, so acknowledgement semantics (withheld until that shard's
//! WAL fsync) are exactly the single-shard engine's and no engine parses
//! a line again; every other frame is answered by `dispatch` once for
//! the city, as for a bare engine. The lines of one socket read are one
//! burst on every engine ([`EngineHandle::burst`]). Because every upload
//! passes through it, the front also keeps the publish horizon
//! ([`ShardFront::horizon`]) at every shard count.

use crate::router::{OverflowPolicy, ShardRouter};
use busprobe_core::{latest_upload_s, TrafficMonitor};
use busprobe_mobile::Trip;
use busprobe_serve::{dispatch, protocol, EngineHandle, LineHandler, ReplySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct FrontInner {
    engines: Vec<EngineHandle>,
    monitors: Vec<Arc<TrafficMonitor>>,
    router: ShardRouter,
    /// [`latest_upload_s`] over every decoded upload, as f64 bits
    /// (never negative, so bit order is numeric order).
    horizon_bits: AtomicU64,
    queue_depth: Vec<busprobe_telemetry::Gauge>,
    forwarded: Vec<busprobe_telemetry::Counter>,
    routed: busprobe_telemetry::Counter,
    overflow: busprobe_telemetry::Counter,
}

/// The city's front door; cheap to clone into connection threads.
#[derive(Clone)]
pub struct ShardFront {
    inner: Arc<FrontInner>,
}

impl ShardFront {
    /// Builds a front over per-shard engines and their monitors
    /// (parallel vectors, shard-id order).
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or of different lengths.
    #[must_use]
    pub fn new(
        engines: Vec<EngineHandle>,
        monitors: Vec<Arc<TrafficMonitor>>,
        policy: OverflowPolicy,
    ) -> Self {
        assert!(!engines.is_empty(), "need at least one shard engine");
        assert_eq!(engines.len(), monitors.len(), "engines/monitors mismatch");
        let queue_depth = (0..engines.len())
            .map(|s| busprobe_telemetry::gauge(&format!("busprobe_shard_{s}_queue_depth")))
            .collect();
        let forwarded = (0..engines.len())
            .map(|s| busprobe_telemetry::counter(&format!("busprobe_shard_{s}_forwarded_total")))
            .collect();
        ShardFront {
            inner: Arc::new(FrontInner {
                engines,
                monitors,
                router: ShardRouter::new(policy),
                horizon_bits: AtomicU64::new(0.0f64.to_bits()),
                queue_depth,
                forwarded,
                routed: busprobe_telemetry::counter("busprobe_shard_routed_total"),
                overflow: busprobe_telemetry::counter("busprobe_shard_overflow_total"),
            }),
        }
    }

    /// Stops admission on every shard.
    pub fn begin_drain(&self) {
        for engine in &self.inner.engines {
            engine.begin_drain();
        }
    }

    /// The latest finite last-sample time across every upload decoded
    /// so far (0 before the first) — the publish horizon, less the
    /// usual grace, as `busprobe ingest` folds it over its corpus.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        f64::from_bits(self.inner.horizon_bits.load(Ordering::Relaxed))
    }

    /// The shard an upload goes to, counted as routed (and as
    /// overflow, when no shard could claim it) and folded into the
    /// horizon.
    fn route(&self, trip: &Trip) -> usize {
        let inner = &self.inner;
        let routed = inner.router.route(&inner.monitors, trip);
        inner.routed.inc();
        if routed.overflow {
            inner.overflow.inc();
        }
        inner
            .horizon_bits
            .fetch_max(latest_upload_s([trip], 0.0).to_bits(), Ordering::Relaxed);
        inner.forwarded[routed.shard].inc();
        routed.shard
    }

    fn export_queue_depths(&self) {
        for (gauge, engine) in self.inner.queue_depth.iter().zip(&self.inner.engines) {
            gauge.set(engine.queue_depth() as f64);
        }
    }
}

impl LineHandler for ShardFront {
    fn handle_line(&self, line: &str, reply: Option<&ReplySink>) {
        let frame = protocol::decode(line);
        dispatch(&self.inner.engines, frame, reply, |trip| self.route(trip));
        self.export_queue_depths();
    }

    /// One burst on every engine: any of them may be routed a line of
    /// it, so none should fsync for what it holds before the rest of
    /// the read is through, and each is woken once, at the end.
    fn handle_burst<'a>(&self, lines: impl Iterator<Item = &'a str>, reply: Option<&ReplySink>) {
        let _bursts: Vec<_> = self.inner.engines.iter().map(EngineHandle::burst).collect();
        for line in lines {
            self.handle_line(line, reply);
        }
    }

    fn is_draining(&self) -> bool {
        self.inner.engines.iter().any(EngineHandle::is_draining)
    }

    fn finished(&self) -> bool {
        self.inner.engines.iter().all(EngineHandle::finished)
    }
}
