//! Cached telemetry handles for the store, following the
//! `busprobe_<crate>_<name>` naming scheme. Appends sit inside the
//! serialized commit phase, so every instrument here records through a
//! single atomic with no name lookups.

use busprobe_telemetry::{Counter, Histogram};
use std::sync::Arc;

/// Snapshot payload sizes in bytes.
const SNAPSHOT_BYTES_BUCKETS: [f64; 5] = [1e3, 1e4, 1e5, 1e6, 1e7];
/// Wall-clock replay durations in seconds.
const REPLAY_SECONDS_BUCKETS: [f64; 6] = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Pre-resolved instruments shared by the writer and recovery paths.
#[derive(Debug, Clone)]
pub(crate) struct StoreMetrics {
    pub wal_appends: Counter,
    pub wal_bytes: Counter,
    pub wal_fsyncs: Counter,
    pub dir_fsyncs: Counter,
    pub segments_rotated: Counter,
    pub segments_compacted: Counter,
    pub snapshots_written: Counter,
    pub snapshots_corrupt: Counter,
    pub replay_records: Counter,
    pub replay_skipped: Counter,
    pub replay_corrupt_tails: Counter,
    pub snapshot_bytes: Arc<Histogram>,
    pub replay_seconds: Arc<Histogram>,
    /// End-to-end `Store::recover` wall time (scan + snapshot load +
    /// WAL tail collection) — the number `busprobe recover` reports.
    pub recovery_duration: Arc<Histogram>,
    /// The store's fail-stop latch, counted once per store.
    pub failstops: Counter,
}

impl StoreMetrics {
    pub(crate) fn new() -> Self {
        let registry = busprobe_telemetry::global();
        Self {
            wal_appends: registry.counter("busprobe_store_wal_appends_total"),
            wal_bytes: registry.counter("busprobe_store_wal_bytes_total"),
            wal_fsyncs: registry.counter("busprobe_store_wal_fsyncs_total"),
            dir_fsyncs: registry.counter("busprobe_store_dir_fsyncs_total"),
            segments_rotated: registry.counter("busprobe_store_segments_rotated_total"),
            segments_compacted: registry.counter("busprobe_store_segments_compacted_total"),
            snapshots_written: registry.counter("busprobe_store_snapshots_written_total"),
            snapshots_corrupt: registry.counter("busprobe_store_snapshots_corrupt_total"),
            replay_records: registry.counter("busprobe_store_replay_records_total"),
            replay_skipped: registry.counter("busprobe_store_replay_skipped_total"),
            replay_corrupt_tails: registry.counter("busprobe_store_replay_corrupt_tails_total"),
            snapshot_bytes: registry
                .histogram("busprobe_store_snapshot_bytes", &SNAPSHOT_BYTES_BUCKETS),
            replay_seconds: registry
                .histogram("busprobe_store_replay_seconds", &REPLAY_SECONDS_BUCKETS),
            recovery_duration: registry.histogram(
                "busprobe_store_recovery_duration_seconds",
                &REPLAY_SECONDS_BUCKETS,
            ),
            failstops: registry.counter("busprobe_store_failstops_total"),
        }
    }
}
