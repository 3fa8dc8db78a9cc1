//! Corpus builders shared by the integration suites (chaos, fuzzing,
//! differential, determinism, golden snapshots). Each test binary pulls
//! in the pieces it needs via `mod common;` — the `allow(dead_code)`
//! covers helpers a given binary doesn't use.

#![allow(dead_code)]

use busprobe::cellular::Scanner;
use busprobe::core::{IngestReport, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe::faults::{FaultInjector, FaultPlan};
use busprobe::mobile::Trip;
use busprobe::network::TransitNetwork;
use busprobe_bench::World;

/// A small deterministic world: region, radio environment and a
/// war-collected fingerprint database, all derived from one seed.
/// Thin wrapper over [`World::small`] — the committed golden corpora
/// are pinned to the un-xored collection seed, hence `build_db_seeded`.
pub struct TestWorld {
    pub network: TransitNetwork,
    pub scanner: Scanner,
    pub db: StopFingerprintDb,
}

impl TestWorld {
    /// Builds the world for `seed`, war-collecting `rounds` noisy scans
    /// per stop for the fingerprint election (§IV-A).
    pub fn new(seed: u64, rounds: usize) -> Self {
        let world = World::small(seed);
        let db = world.build_db_seeded(rounds, seed);
        TestWorld {
            network: world.network,
            scanner: world.scanner,
            db,
        }
    }

    /// A fresh backend over this world with the default configuration.
    pub fn monitor(&self) -> TrafficMonitor {
        self.monitor_with(MonitorConfig::default())
    }

    /// A fresh backend over this world with an explicit configuration.
    pub fn monitor_with(&self, config: MonitorConfig) -> TrafficMonitor {
        TrafficMonitor::new(self.network.clone(), self.db.clone(), config)
    }
}

/// Applies `plan` to `trips` and splits the uploads into the forms
/// [`TrafficMonitor::ingest_batch_received_parallel`] expects.
pub fn faulted(trips: &[Trip], plan: FaultPlan, seed: u64) -> (Vec<Trip>, Vec<f64>) {
    FaultInjector::new(plan, seed)
        .apply(trips)
        .uploads
        .into_iter()
        .map(|u| (u.trip, u.received_s))
        .unzip()
}

/// The invariants every ingest report must satisfy, whatever the input:
/// the pipeline never panics (panic isolation never trips), the sample
/// accounting adds up, and every zero-observation trip names the stage
/// that dropped it.
pub fn assert_coherent(reports: &[IngestReport], context: &str) {
    for (i, r) in reports.iter().enumerate() {
        assert!(
            !r.internal_error,
            "{context}: trip {i} tripped the panic isolation: {r:?}"
        );
        assert!(
            r.kept + r.quarantined <= r.samples,
            "{context}: trip {i} accounting: kept {} + quarantined {} > samples {}",
            r.kept,
            r.quarantined,
            r.samples
        );
        if r.observations == 0 {
            assert!(
                r.drop_reason().is_some(),
                "{context}: trip {i} dropped silently: {r:?}"
            );
        }
    }
}
