//! The line-protocol front end of a city: one [`LineHandler`] over N ≥ 1
//! per-shard [`ServeEngine`](busprobe_serve::ServeEngine)s.
//!
//! Each shard keeps its own admission queue, commit thread, WAL and
//! checkpoint cadence; the front is the one place a wire line is
//! decoded. An upload is routed on its parsed trip and the decoded frame
//! admitted by the winning engine ([`EngineHandle::handle_frame`]), so
//! acknowledgement semantics (withheld until that shard's WAL fsync)
//! are exactly the single-shard engine's and no engine parses a line
//! again. The lines of one socket read are one burst on every engine
//! ([`EngineHandle::burst`]). Control frames: `ping` and refused lines
//! go to shard 0's engine; `stats` counts as one command on shard 0 and
//! is answered with the city's totals; `checkpoint` and `shutdown` are
//! answered by shard 0 and reach every engine. Because every upload
//! passes through it, the front also keeps the publish horizon
//! ([`ShardFront::horizon`]) at every shard count.

use crate::router::{OverflowPolicy, ShardRouter};
use busprobe_core::{latest_upload_s, TrafficMonitor};
use busprobe_serve::{protocol, stats_line, EngineHandle, LineHandler, ReplySink, Request};
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

    /// The city's `stats` line: every engine's counters summed.
    fn city_stats(&self) -> String {
        let engines = &self.inner.engines;
        let summaries: Vec<_> = engines.iter().map(EngineHandle::summary).collect();
        stats_line(
            &summaries,
            engines.iter().map(EngineHandle::queue_depth).sum(),
        )
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
        let (shard0, others) = inner.engines.split_first().expect("at least one engine");
        let frame = protocol::decode(line, self.max_line_bytes());
        match &frame {
            Ok(Request::Upload { trip, .. }) => {
                let routed = inner.router.route(&inner.monitors, trip);
                inner.routed.inc();
                if routed.overflow {
                    inner.overflow.inc();
                }
                inner
                    .horizon_bits
                    .fetch_max(latest_upload_s([trip], 0.0).to_bits(), Ordering::Relaxed);
                inner.forwarded[routed.shard].inc();
                inner.engines[routed.shard].handle_frame(frame, reply);
                self.export_queue_depths();
            }
            Ok(Request::Stats) => {
                shard0.handle_frame(frame, None);
                if let Some(reply) = reply {
                    reply.send_raw(&self.city_stats());
                }
            }
            Ok(Request::Checkpoint) => {
                shard0.handle_frame(frame, reply);
                others.iter().for_each(EngineHandle::request_checkpoint);
            }
            Ok(Request::Shutdown) => {
                shard0.handle_frame(frame, reply);
                others.iter().for_each(EngineHandle::begin_drain);
            }
            Ok(Request::Ping) | Err(_) => shard0.handle_frame(frame, reply),
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
