//! Cached telemetry handles for the ingest pipeline.
//!
//! All instruments live in the global [`busprobe_telemetry`] registry
//! under the `busprobe_core_*` naming scheme; this module resolves them
//! once per [`TrafficMonitor`](crate::TrafficMonitor) so the per-trip
//! hot path records through plain atomics without any name lookups.

use crate::server::DropReason;
use busprobe_telemetry::{Counter, Histogram, StageTimers};
use std::sync::Arc;

/// Upper bounds for the observations-per-trip histogram.
const OBS_BUCKETS: [f64; 6] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Pre-resolved instruments for one monitor.
#[derive(Debug)]
pub(crate) struct PipelineMetrics {
    // Volume counters.
    pub trips: Counter,
    pub samples: Counter,
    pub scans_matched: Counter,
    pub scans_unmatched: Counter,
    pub clusters: Counter,
    pub visits_mapped: Counter,
    pub observations: Counter,
    pub fusion_updates: Counter,
    pub db_promotions: Counter,
    // Sanitization accounting: repaired, reordered and quarantined input.
    pub samples_quarantined: Counter,
    pub observations_scrubbed: Counter,
    pub samples_deduplicated: Counter,
    pub samples_reordered: Counter,
    pub clock_normalized_trips: Counter,
    // Partial-trip salvage.
    pub salvaged_trips: Counter,
    pub salvage_dropped_visits: Counter,
    // Drop attribution, indexed by `DropReason as usize`: every ingested
    // trip that yields zero observations increments exactly one of
    // these, at commit.
    pub drops: [Counter; DropReason::ALL.len()],
    // Store failures that latched the durability fail-stop: one per
    // store, at its first failed WAL write or fsync (ingestion
    // continues; nothing since is durable).
    pub store_failstop: Counter,
    // Distribution of observations per accepted trip.
    pub obs_per_trip: Arc<Histogram>,
    // Wall time per pipeline stage.
    pub stages: &'static StageTimers,
}

impl PipelineMetrics {
    pub(crate) fn new() -> Self {
        let registry = busprobe_telemetry::global();
        Self {
            trips: registry.counter("busprobe_core_trips_ingested_total"),
            samples: registry.counter("busprobe_core_samples_total"),
            scans_matched: registry.counter("busprobe_core_scans_matched_total"),
            scans_unmatched: registry.counter("busprobe_core_scans_unmatched_total"),
            clusters: registry.counter("busprobe_core_clusters_total"),
            visits_mapped: registry.counter("busprobe_core_visits_mapped_total"),
            observations: registry.counter("busprobe_core_observations_total"),
            fusion_updates: registry.counter("busprobe_core_fusion_updates_total"),
            db_promotions: registry.counter("busprobe_core_db_promotions_total"),
            samples_quarantined: registry.counter("busprobe_core_samples_quarantined_total"),
            observations_scrubbed: registry.counter("busprobe_core_observations_scrubbed_total"),
            samples_deduplicated: registry.counter("busprobe_core_samples_deduplicated_total"),
            samples_reordered: registry.counter("busprobe_core_samples_reordered_total"),
            clock_normalized_trips: registry.counter("busprobe_core_clock_normalized_trips_total"),
            salvaged_trips: registry.counter("busprobe_core_salvaged_trips_total"),
            salvage_dropped_visits: registry.counter("busprobe_core_salvage_dropped_visits_total"),
            drops: DropReason::counters(),
            store_failstop: registry.counter("busprobe_core_store_failstop_total"),
            obs_per_trip: registry.histogram("busprobe_core_observations_per_trip", &OBS_BUCKETS),
            stages: busprobe_telemetry::stage_timers(),
        }
    }
}

/// Pre-resolved instruments for one [`Matcher`](crate::Matcher).
///
/// Cloned together with the matcher (clones share the underlying global
/// atomics), so indexed-query accounting survives the server's
/// copy-on-refresh matcher swaps.
#[derive(Debug, Clone)]
pub(crate) struct MatcherMetrics {
    /// Stops skipped per indexed query because their score bound provably
    /// cannot reach the acceptance threshold (or the early exit fired).
    pub candidates_pruned: Counter,
    /// Stops actually aligned per indexed query.
    pub candidates_scored: Counter,
    /// Wall time per stage (the matcher times `IndexBuild`).
    pub stages: &'static StageTimers,
}

impl MatcherMetrics {
    pub(crate) fn new() -> Self {
        let registry = busprobe_telemetry::global();
        Self {
            candidates_pruned: registry.counter("busprobe_core_match_candidates_pruned_total"),
            candidates_scored: registry.counter("busprobe_core_match_candidates_scored_total"),
            stages: busprobe_telemetry::stage_timers(),
        }
    }
}
