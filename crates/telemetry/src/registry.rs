//! The metric registry: named instruments plus point-in-time snapshots.

use crate::events::{Event, EventRing, Level};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::StageTimer;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default capacity of the event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// A collection of named counters, gauges, histograms, stage timers and
/// an event ring.
///
/// Instrument lookup takes a short read lock (write lock only on first
/// registration); recording through a returned handle is lock-free.
/// Names follow the `busprobe_<crate>_<name>` scheme described in
/// DESIGN.md.
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    stages: RwLock<BTreeMap<String, Arc<StageTimer>>>,
    events: Mutex<EventRing>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with the default event capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry keeping at most `capacity` recent events.
    #[must_use]
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            stages: RwLock::new(BTreeMap::new()),
            events: Mutex::new(EventRing::new(capacity)),
        }
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(counter) = self.counters.read().get(name) {
            return counter.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(gauge) = self.gauges.read().get(name) {
            return gauge.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, creating it with `bounds`
    /// on first use. Later calls ignore `bounds` and return the
    /// existing instrument.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        if let Some(histogram) = self.histograms.read().get(name) {
            return Arc::clone(histogram);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// The stage timer registered under `name`, creating it on first
    /// use.
    pub fn stage(&self, name: &str) -> Arc<StageTimer> {
        if let Some(timer) = self.stages.read().get(name) {
            return Arc::clone(timer);
        }
        Arc::clone(
            self.stages
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(StageTimer::new())),
        )
    }

    /// Record a structured event.
    pub fn event(&self, level: Level, target: &str, message: impl Into<String>) {
        self.events.lock().push(level, target, message.into());
    }

    /// A consistent point-in-time copy of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
            })
            .collect();
        let stages = self
            .stages
            .read()
            .iter()
            .map(|(name, t)| {
                let log2_ns = t.log2_bucket_counts();
                StageSnapshot {
                    name: name.clone(),
                    calls: log2_ns.iter().sum(),
                    total_ns: t.total_ns(),
                    max_ns: t.max_ns(),
                    log2_ns,
                }
            })
            .collect();
        let (events, events_dropped) = {
            let ring = self.events.lock();
            (ring.snapshot(), ring.dropped())
        };
        Snapshot {
            counters,
            gauges,
            histograms,
            stages,
            events,
            events_dropped,
        }
    }

    /// Zero every instrument and clear the event ring. Instrument
    /// handles held by callers stay valid (they share the zeroed
    /// atomics).
    pub fn reset(&self) {
        for counter in self.counters.read().values() {
            counter.reset();
        }
        for gauge in self.gauges.read().values() {
            gauge.reset();
        }
        for histogram in self.histograms.read().values() {
            histogram.reset();
        }
        for stage in self.stages.read().values() {
            stage.reset();
        }
        self.events.lock().clear();
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

/// Point-in-time copy of a [`StageTimer`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// Registered stage name.
    pub name: String,
    /// Completed spans (the sum of `log2_ns`).
    pub calls: u64,
    /// Aggregate wall time in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
    /// Power-of-two latency distribution: entry `k` counts spans with
    /// `floor(log2(ns)) == k`. Empty when the producer predates buckets.
    pub log2_ns: Vec<u64>,
}

impl StageSnapshot {
    /// Aggregate wall time in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean span duration in seconds (zero when never called).
    #[must_use]
    pub fn mean_seconds(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_seconds() / self.calls as f64
        }
    }

    /// Estimated `q`-quantile span duration in nanoseconds (e.g. `0.5`
    /// for p50, `0.99` for p99), from the log2 buckets: the answer is the
    /// geometric midpoint of the bucket holding the `q`-th ranked span,
    /// clamped to the observed maximum — exact to within a factor of √2.
    /// Zero when no spans (or no buckets) were recorded.
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.log2_ns.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &count) in self.log2_ns.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Geometric midpoint of [2^idx, 2^(idx+1)): 1.5 · 2^idx.
                let mid = (1u64 << idx) + (1u64 << idx) / 2;
                return mid.min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Median span duration in nanoseconds (see
    /// [`percentile_ns`](Self::percentile_ns)).
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.5)
    }

    /// 99th-percentile span duration in nanoseconds (see
    /// [`percentile_ns`](Self::percentile_ns)).
    #[must_use]
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }
}

/// Point-in-time copy of a whole [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Stage timer states, sorted by name.
    pub stages: Vec<StageSnapshot>,
    /// Recent events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring since the last reset.
    pub events_dropped: u64,
}

impl Snapshot {
    /// The value of counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The state of stage timer `name`, if registered.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The state of histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Stage, StageTimers};

    #[test]
    fn instruments_are_get_or_create() {
        let registry = Registry::new();
        registry.counter("a").add(2);
        registry.counter("a").add(3);
        assert_eq!(registry.snapshot().counter("a"), Some(5));
        assert_eq!(registry.snapshot().counter("missing"), None);
    }

    #[test]
    fn histogram_bounds_fixed_at_first_registration() {
        let registry = Registry::new();
        let h = registry.histogram("h", &[1.0, 2.0]);
        let again = registry.histogram("h", &[99.0]);
        h.record(1.5);
        assert_eq!(again.count(), 1, "same instrument");
        assert_eq!(again.bounds(), &[1.0, 2.0]);
    }

    #[test]
    fn spans_feed_stage_snapshots() {
        let registry = Registry::new();
        let timers = StageTimers::new(&registry);
        timers.start(Stage::Matching).finish();
        let snap = registry.snapshot();
        let stage = snap.stage("busprobe_core_stage_matching").unwrap();
        assert_eq!(stage.calls, 1);
        assert!(stage.mean_seconds() >= 0.0);
        assert_eq!(snap.stage("busprobe_core_stage_mapping").unwrap().calls, 0);
    }

    #[test]
    fn stage_percentiles_come_from_log2_buckets() {
        let registry = Registry::new();
        let timer = registry.stage("stage_p");
        // 98 fast spans (~1µs), 2 slow (~1ms): p50 sits in the fast
        // bucket, p99 in the slow one.
        for _ in 0..98 {
            timer.record_ns(1_000);
        }
        timer.record_ns(1_000_000);
        timer.record_ns(1_100_000);
        let snap = registry.snapshot();
        let stage = snap.stage("stage_p").unwrap();
        assert_eq!(stage.log2_ns.iter().sum::<u64>(), 100);
        let p50 = stage.p50_ns();
        let p99 = stage.p99_ns();
        assert!((512..2048).contains(&p50), "p50 {p50} in the ~1µs bucket");
        assert!(
            (524_288..2_097_152).contains(&p99),
            "p99 {p99} in the ~1ms bucket"
        );
        assert!(stage.percentile_ns(1.0) <= stage.max_ns);
        // Zero-call stages report zero.
        assert_eq!(StageSnapshot::default().p50_ns(), 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let registry = Registry::new();
        let c = registry.counter("kept");
        c.add(9);
        registry.event(Level::Info, "t", "old");
        registry.reset();
        assert_eq!(registry.snapshot().counter("kept"), Some(0));
        assert!(registry.snapshot().events.is_empty());
        c.inc();
        assert_eq!(registry.snapshot().counter("kept"), Some(1));
    }
}
