//! A sharded line-protocol front end: one [`LineHandler`] fanning
//! uploads out to N per-shard [`ServeEngine`](busprobe_serve::ServeEngine)s.
//!
//! Each shard keeps its own admission queue, commit thread, WAL and
//! checkpoint cadence — the front end only *routes*. An upload line is
//! parsed once to probe the shard indexes, then the raw line is handed
//! to the winning engine untouched, so acknowledgement semantics
//! (withheld until that shard's WAL fsync) are exactly the single-shard
//! engine's. The lines of one socket read are one burst on every
//! engine ([`EngineHandle::burst`]). Control lines fan out:
//! `checkpoint` and `shutdown` reach every engine (the client reply
//! comes from the front), `ping` and `stats` are answered by shard 0's
//! engine. With one engine there is nothing to route: every line goes
//! to it unparsed, and the front is that engine.

use crate::router::{OverflowPolicy, ShardRouter};
use busprobe_core::{latest_upload_s, TrafficMonitor};
use busprobe_serve::{protocol, EngineHandle, LineHandler, ReplySink, Request};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct FrontInner {
    engines: Vec<EngineHandle>,
    monitors: Vec<Arc<TrafficMonitor>>,
    router: ShardRouter,
    /// [`latest_upload_s`] over every routed upload, as f64 bits (never
    /// negative, so bit order is numeric order), for the aggregated
    /// publish horizon at drain.
    horizon_bits: AtomicU64,
    queue_depth: Vec<busprobe_telemetry::Gauge>,
    forwarded: Vec<busprobe_telemetry::Counter>,
    routed: busprobe_telemetry::Counter,
    overflow: busprobe_telemetry::Counter,
}

/// The sharded front door; cheap to clone into connection threads.
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

    /// The per-shard engine handles, shard-id order.
    #[must_use]
    pub fn engines(&self) -> &[EngineHandle] {
        &self.inner.engines
    }

    /// Stops admission on every shard.
    pub fn begin_drain(&self) {
        for engine in &self.inner.engines {
            engine.begin_drain();
        }
    }

    /// The first fatal diagnostic latched by any shard engine.
    #[must_use]
    pub fn fatal(&self) -> Option<String> {
        self.inner.engines.iter().find_map(EngineHandle::fatal)
    }

    /// The latest finite last-sample time across every routed upload
    /// (0 before the first) — the drain-time publish horizon, less the
    /// usual grace. Not tracked by a one-engine front, whose engine
    /// publishes its own map.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        f64::from_bits(self.inner.horizon_bits.load(Ordering::Relaxed))
    }

    fn export_queue_depths(&self) {
        for (gauge, engine) in self.inner.queue_depth.iter().zip(&self.inner.engines) {
            gauge.set(engine.queue_depth() as f64);
        }
    }
}

impl LineHandler for ShardFront {
    fn handle_line(&self, line: &str, reply: Option<&ReplySink>) {
        let inner = &self.inner;
        // Oversized and unparseable frames go to shard 0, whose engine
        // attributes and answers them exactly as a single shard would —
        // as does everything when shard 0 is the only one.
        if inner.engines.len() == 1 || line.len() > self.max_line_bytes() {
            inner.engines[0].handle_line(line, reply);
            return;
        }
        match protocol::parse_line(line) {
            Err(_) | Ok(Request::Ping) | Ok(Request::Stats) => {
                inner.engines[0].handle_line(line, reply);
            }
            Ok(Request::Checkpoint) | Ok(Request::Shutdown) => {
                // Fan out; the client hears shard 0's answer.
                for (s, engine) in inner.engines.iter().enumerate() {
                    engine.handle_line(line, if s == 0 { reply } else { None });
                }
            }
            Ok(Request::Upload { trip, .. }) => {
                let routed = inner.router.route(&inner.monitors, &trip);
                inner.routed.inc();
                if routed.overflow {
                    inner.overflow.inc();
                }
                inner
                    .horizon_bits
                    .fetch_max(latest_upload_s([&trip], 0.0).to_bits(), Ordering::Relaxed);
                inner.forwarded[routed.shard].inc();
                inner.engines[routed.shard].handle_line(line, reply);
                self.export_queue_depths();
            }
        }
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

    fn max_line_bytes(&self) -> usize {
        self.inner.engines[0].max_line_bytes()
    }
}
