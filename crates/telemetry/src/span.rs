//! Stage timing: the ingest pipeline's one stage vocabulary, its timer
//! table, and spans that take one clock reading per stage boundary.

use crate::clock::clock_ns;
use crate::registry::Registry;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two latency buckets (covers the whole `u64` ns
/// range: bucket `k` counts spans with `floor(log2(ns)) == k`).
pub const LOG2_BUCKETS: usize = 64;

/// The ingest pipeline's stages: the one spelling of each name that
/// timers, traces and exporters share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// One `ingest_batch` call, end to end.
    IngestBatch,
    /// Matching through estimation for one upload.
    Pipeline,
    /// Validation, clock normalization, reordering, deduplication and
    /// the near-duplicate digest probe.
    Sanitize,
    /// Scan-to-stop matching (§III-C).
    Matching,
    /// Per-stop clustering (Eq. 1).
    Clustering,
    /// Route mapping with partial-trip salvage.
    Mapping,
    /// BTT→ATT estimation (Eq. 3).
    Estimation,
    /// The Bayesian fusion update at commit.
    Fusion,
    /// One online database refresh.
    Refresh,
    /// Inverted-index construction.
    IndexBuild,
}

impl Stage {
    /// Every stage, in declaration order (so `stage as usize` indexes
    /// this array).
    pub const ALL: [Stage; 10] = [
        Stage::IngestBatch,
        Stage::Pipeline,
        Stage::Sanitize,
        Stage::Matching,
        Stage::Clustering,
        Stage::Mapping,
        Stage::Estimation,
        Stage::Fusion,
        Stage::Refresh,
        Stage::IndexBuild,
    ];

    /// The stage's name: the trace export's span name and the suffix of
    /// its `busprobe_core_stage_<name>` timer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::IngestBatch => "ingest_batch",
            Stage::Pipeline => "pipeline",
            Stage::Sanitize => "sanitize",
            Stage::Matching => "matching",
            Stage::Clustering => "clustering",
            Stage::Mapping => "mapping",
            Stage::Estimation => "estimation",
            Stage::Fusion => "fusion",
            Stage::Refresh => "refresh",
            Stage::IndexBuild => "index_build",
        }
    }
}

/// Aggregated wall time for one named pipeline stage.
#[derive(Debug)]
pub struct StageTimer {
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Log2 latency distribution, for percentile estimates and the call
    /// count (their sum): every record lands in exactly one bucket.
    log2_ns: [AtomicU64; LOG2_BUCKETS],
}

impl Default for StageTimer {
    fn default() -> Self {
        Self {
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            log2_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StageTimer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fold one measured duration into the aggregate.
    pub fn record_ns(&self, elapsed_ns: u64) {
        self.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        // A read first: most records are not a new maximum, and a plain
        // load is far cheaper than the read-modify-write.
        if elapsed_ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
        }
        // `| 1` folds a zero-ns span into bucket 0.
        let idx = 63 - (elapsed_ns | 1).leading_zeros();
        self.log2_ns[idx as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket span counts: entry `k` counts spans whose duration `d`
    /// satisfies `2^k <= d < 2^(k+1)` nanoseconds (entry 0 also counts
    /// sub-nanosecond spans). They sum to the number of spans recorded.
    #[must_use]
    pub fn log2_bucket_counts(&self) -> Vec<u64> {
        self.log2_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total measured wall time in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest single span in nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for bucket in &self.log2_ns {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// One timer per [`Stage`], registered as `busprobe_core_stage_<name>`
/// and indexed by the stage.
#[derive(Clone, Debug)]
pub struct StageTimers([Arc<StageTimer>; Stage::ALL.len()]);

impl StageTimers {
    /// Resolves (registering on first use) every stage's timer in
    /// `registry`.
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        Self(
            Stage::ALL
                .map(|stage| registry.stage(&format!("busprobe_core_stage_{}", stage.name()))),
        )
    }

    /// Start timing `stage` now.
    pub fn start(&self, stage: Stage) -> Span<'_> {
        Span {
            timers: self,
            stage,
            start_ns: clock_ns(),
        }
    }
}

impl Index<Stage> for StageTimers {
    type Output = StageTimer;

    fn index(&self, stage: Stage) -> &StageTimer {
        &self.0[stage as usize]
    }
}

/// One finished stage on the shared process clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// The stage that ran.
    pub stage: Stage,
    /// Start, ns on the shared process clock ([`clock_ns`]).
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

impl StageSpan {
    /// End, ns on the shared process clock.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// A running stage. It records into its timer when it is finished or
/// handed over, each of which is one clock reading; dropping it records
/// nothing.
#[must_use = "a span records only when it is finished or handed over"]
#[derive(Debug)]
pub struct Span<'a> {
    timers: &'a StageTimers,
    stage: Stage,
    start_ns: u64,
}

impl Span<'_> {
    /// When the running stage started, ns on the shared process clock.
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Ends the running stage and starts `next` from the same clock
    /// reading; returns the stage that finished.
    pub fn hand_over(&mut self, next: Stage) -> StageSpan {
        let done = self.end();
        self.stage = next;
        self.start_ns = done.end_ns();
        done
    }

    /// Ends the running stage now; returns it.
    pub fn finish(self) -> StageSpan {
        self.end()
    }

    fn end(&self) -> StageSpan {
        let dur_ns = clock_ns().saturating_sub(self.start_ns);
        self.timers[self.stage].record_ns(dur_ns);
        StageSpan {
            stage: self.stage,
            start_ns: self.start_ns,
            dur_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calls(timer: &StageTimer) -> u64 {
        timer.log2_bucket_counts().iter().sum()
    }

    #[test]
    fn hand_over_ends_one_stage_where_the_next_begins() {
        let timers = StageTimers::new(&Registry::new());
        let mut span = timers.start(Stage::Matching);
        let matching = span.hand_over(Stage::Clustering);
        assert_eq!(matching.stage, Stage::Matching);
        assert_eq!(span.start_ns(), matching.end_ns());
        let clustering = span.finish();
        assert_eq!(clustering.stage, Stage::Clustering);
        assert_eq!(clustering.start_ns, matching.end_ns());
        assert_eq!(calls(&timers[Stage::Matching]), 1);
        assert_eq!(calls(&timers[Stage::Clustering]), 1);
        assert_eq!(calls(&timers[Stage::Mapping]), 0);
        assert_eq!(timers[Stage::Matching].total_ns(), matching.dur_ns);
    }

    #[test]
    fn stage_names_are_distinct_and_all_is_in_declaration_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i);
        }
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn record_tracks_max() {
        let timer = StageTimer::new();
        timer.record_ns(10);
        timer.record_ns(50);
        timer.record_ns(20);
        assert_eq!(calls(&timer), 3);
        assert_eq!(timer.total_ns(), 80);
        assert_eq!(timer.max_ns(), 50);
    }

    #[test]
    fn log2_buckets_cover_the_whole_range() {
        let timer = StageTimer::new();
        timer.record_ns(0); // bucket 0
        timer.record_ns(1); // bucket 0
        timer.record_ns(2); // bucket 1
        timer.record_ns(3); // bucket 1
        timer.record_ns(1 << 20); // bucket 20
        timer.record_ns(u64::MAX); // bucket 63
        let buckets = timer.log2_bucket_counts();
        assert_eq!(buckets.len(), LOG2_BUCKETS);
        assert_eq!(buckets[0], 2);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[20], 1);
        assert_eq!(buckets[63], 1);
        assert_eq!(calls(&timer), 6);
    }
}
