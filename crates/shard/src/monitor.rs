//! The sharded counterpart of [`TrafficMonitor`]: N regional monitors
//! behind one routing façade, each with its own matcher index, fusion
//! state and (optionally) WAL directory, sharing one network.
//!
//! # State layout
//!
//! A state directory *is* a city of N ≥ 1 shards. One shard lives at
//! the root — the plain busprobe-store layout, no manifest:
//!
//! ```text
//! <state>/
//!   0000000000000000.wal
//!   00000000000002b4.snap
//! ```
//!
//! Two or more get a manifest and one store directory each:
//!
//! ```text
//! <state>/
//!   city.json        manifest: {format, shards, policy}
//!   shard-0000/      one busprobe-store dir per shard
//!   shard-0001/
//!   ...
//! ```
//!
//! (A manifest declaring one shard — what `--shards 1` wrote before the
//! root layout — is still read and appended to where it is.)
//! [`city_layout`] is the one reader of this rule; it refuses a
//! directory holding both layouts and a shard count that contradicts
//! what is stored. The manifest records only the shard *count* and
//! overflow policy — the site→shard assignment is recomputed from the
//! (network, DB) pair on recovery, which [`CityPlan::build`] guarantees
//! reproduces the exact plan that wrote the WALs.

use crate::aggregate::CityAggregator;
use crate::partition::CityPlan;
use crate::router::{OverflowPolicy, Routed, ShardRouter};
use busprobe_core::parallel::assert_arrivals_match;
use busprobe_core::{
    IngestReport, MonitorConfig, RecoveryTrace, StopFingerprintDb, TrafficMap, TrafficMonitor,
};
use busprobe_mobile::Trip;
use busprobe_network::TransitNetwork;
use busprobe_store::Store;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Manifest format tag for sharded state directories.
pub const CITY_FORMAT: &str = "busprobe-city/1";
/// Manifest file name inside a sharded state directory.
pub const CITY_MANIFEST: &str = "city.json";

/// The on-disk manifest of a sharded state directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CityManifest {
    /// Always [`CITY_FORMAT`].
    pub format: String,
    /// Number of shard directories.
    pub shards: usize,
    /// Overflow policy label ([`OverflowPolicy::label`]).
    pub policy: String,
}

/// The WAL directory of one shard under a sharded state root.
#[must_use]
pub fn shard_dir(state: &Path, shard: usize) -> PathBuf {
    state.join(format!("shard-{shard:04}"))
}

fn has_manifest(state: &Path) -> bool {
    state.join(CITY_MANIFEST).is_file()
}

fn read_manifest(state: &Path) -> io::Result<CityManifest> {
    let raw = std::fs::read_to_string(state.join(CITY_MANIFEST))?;
    let manifest: CityManifest = serde_json::from_str(&raw)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad city.json: {e}")))?;
    if manifest.format != CITY_FORMAT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported city manifest format {:?}", manifest.format),
        ));
    }
    if manifest.shards == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "city manifest declares zero shards",
        ));
    }
    Ok(manifest)
}

/// What city `state` holds: `None` for an absent or empty directory,
/// else its manifest — for a store at the root, the one-shard manifest
/// it stands for. Refuses a directory holding both a manifest and a
/// root-level store, and — when the caller names the shard count it
/// `requested` — a stored city of a different size.
pub fn city_layout(state: &Path, requested: Option<usize>) -> io::Result<Option<CityManifest>> {
    let refuse = |why: String| Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    let at_root = Store::exists(state)?;
    let stored = if has_manifest(state) {
        if at_root {
            return refuse(format!(
                "{state:?} holds both a city manifest and WAL/snapshot files at its root \
                 (an unsharded run wrote into a sharded directory); move the root-level \
                 .wal/.snap files away or pick a fresh state dir"
            ));
        }
        Some(read_manifest(state)?)
    } else {
        at_root.then(|| CityManifest {
            format: CITY_FORMAT.to_string(),
            shards: 1,
            policy: OverflowPolicy::default().label().to_string(),
        })
    };
    match (&stored, requested) {
        (Some(m), Some(n)) if m.shards != n => refuse(format!(
            "{state:?} was written with --shards {0}; re-run with --shards {0} \
             (the WAL layout is per-shard) or pick a fresh state dir",
            m.shards
        )),
        _ => Ok(stored),
    }
}

/// Where shard `s` of the city under `state` keeps its store: the root
/// for a manifest-less directory, `shard-NNNN/` otherwise.
fn store_dir(state: &Path, s: usize) -> PathBuf {
    if has_manifest(state) {
        shard_dir(state, s)
    } else {
        state.to_path_buf()
    }
}

/// Per-shard ingest accounting, mirrored into the global telemetry
/// registry as `busprobe_shard_<n>_*` counters.
struct ShardStats {
    ingested: AtomicU64,
    dropped: AtomicU64,
    tele_ingested: busprobe_telemetry::Counter,
    tele_dropped: busprobe_telemetry::Counter,
}

/// N regional monitors behind one deterministic routing façade.
pub struct ShardedMonitor {
    network: Arc<TransitNetwork>,
    plan: CityPlan,
    router: ShardRouter,
    shards: Vec<Arc<TrafficMonitor>>,
    stats: Vec<ShardStats>,
    routed: AtomicU64,
    overflow: AtomicU64,
    tele_routed: busprobe_telemetry::Counter,
    tele_overflow: busprobe_telemetry::Counter,
}

impl ShardedMonitor {
    /// Builds `shards` regional monitors over one shared network. Each
    /// shard's matcher holds only its region's fingerprints; fusion
    /// and duplicate state start empty.
    #[must_use]
    pub fn new(
        network: TransitNetwork,
        db: &StopFingerprintDb,
        config: MonitorConfig,
        shards: usize,
        policy: OverflowPolicy,
    ) -> Self {
        let network = Arc::new(network);
        let plan = CityPlan::build(&network, db, shards);
        let monitors = (0..shards)
            .map(|s| {
                Arc::new(TrafficMonitor::new(
                    Arc::clone(&network),
                    plan.sub_db(db, s),
                    config,
                ))
            })
            .collect();
        Self::assemble(network, plan, policy, monitors)
    }

    fn assemble(
        network: Arc<TransitNetwork>,
        plan: CityPlan,
        policy: OverflowPolicy,
        shards: Vec<Arc<TrafficMonitor>>,
    ) -> Self {
        let stats = (0..shards.len())
            .map(|s| ShardStats {
                ingested: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                tele_ingested: busprobe_telemetry::counter(&format!(
                    "busprobe_shard_{s}_ingested_total"
                )),
                tele_dropped: busprobe_telemetry::counter(&format!(
                    "busprobe_shard_{s}_dropped_total"
                )),
            })
            .collect();
        ShardedMonitor {
            network,
            plan,
            router: ShardRouter::new(policy),
            shards,
            stats,
            routed: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            tele_routed: busprobe_telemetry::counter("busprobe_shard_routed_total"),
            tele_overflow: busprobe_telemetry::counter("busprobe_shard_overflow_total"),
        }
    }

    /// The shared city network.
    #[must_use]
    pub fn network(&self) -> &TransitNetwork {
        &self.network
    }

    /// The shard plan in force.
    #[must_use]
    pub fn plan(&self) -> &CityPlan {
        &self.plan
    }

    /// The configured overflow policy.
    #[must_use]
    pub fn policy(&self) -> OverflowPolicy {
        self.router.policy()
    }

    /// The regional monitors, in shard-id order.
    #[must_use]
    pub fn shards(&self) -> &[Arc<TrafficMonitor>] {
        &self.shards
    }

    /// Routes one trip (counting it) without ingesting it.
    pub fn route(&self, trip: &Trip) -> Routed {
        let routed = self.router.route(&self.shards, trip);
        self.routed.fetch_add(1, Ordering::Relaxed);
        self.tele_routed.inc();
        if routed.overflow {
            self.overflow.fetch_add(1, Ordering::Relaxed);
            self.tele_overflow.inc();
        }
        routed
    }

    /// Ingests a batch, routing each trip to its region and running
    /// each shard's parallel pipeline over its bucket. Reports come
    /// back in input order. Deterministic at any worker count; for a
    /// single-shard plan this is exactly
    /// [`TrafficMonitor::ingest_batch_received_parallel`].
    ///
    /// # Panics
    ///
    /// `received_s` must be empty (no arrival times) or one entry per
    /// trip ([`assert_arrivals_match`]).
    #[must_use]
    pub fn ingest_batch_received_parallel(
        &self,
        trips: &[Trip],
        received_s: &[f64],
        workers: usize,
    ) -> Vec<IngestReport> {
        // Checked on the whole batch: a bucket's arrivals are picked by
        // trip index, so a short list must be refused before bucketing.
        assert_arrivals_match(received_s.len(), trips.len());
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, trip) in trips.iter().enumerate() {
            buckets[self.route(trip).shard].push(i);
        }
        let mut reports = vec![IngestReport::default(); trips.len()];
        for (s, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // A bucket holding the whole batch (always, for one shard)
            // is the caller's slices in the caller's order; any other
            // borrows its trips from the caller's.
            let shard_reports = if bucket.len() == trips.len() {
                self.shards[s].ingest_batch_received_parallel(trips, received_s, workers)
            } else {
                let shard_trips: Vec<&Trip> = bucket.iter().map(|&i| &trips[i]).collect();
                let shard_received: Vec<f64> = if received_s.is_empty() {
                    Vec::new()
                } else {
                    bucket.iter().map(|&i| received_s[i]).collect()
                };
                self.shards[s].ingest_batch_received_parallel(
                    &shard_trips,
                    &shard_received,
                    workers,
                )
            };
            let mut ingested = 0u64;
            let mut dropped = 0u64;
            for (&orig, report) in bucket.iter().zip(shard_reports) {
                if report.drop_reason().is_some() {
                    dropped += 1;
                } else {
                    ingested += 1;
                }
                reports[orig] = report;
            }
            self.stats[s]
                .ingested
                .fetch_add(ingested, Ordering::Relaxed);
            self.stats[s].dropped.fetch_add(dropped, Ordering::Relaxed);
            self.stats[s].tele_ingested.add(ingested);
            self.stats[s].tele_dropped.add(dropped);
        }
        reports
    }

    /// Attaches a grouped WAL store to every shard under `state`,
    /// writing the city manifest when there are two or more. Directory
    /// layout is in the module docs; a directory already holding a city
    /// of another size is refused before anything is written.
    pub fn attach_stores(
        &self,
        state: &Path,
        snapshot_every: u64,
        group_every: u64,
    ) -> io::Result<()> {
        city_layout(state, Some(self.shards.len()))?;
        std::fs::create_dir_all(state)?;
        if self.shards.len() > 1 {
            let manifest = CityManifest {
                format: CITY_FORMAT.to_string(),
                shards: self.shards.len(),
                policy: self.policy().label().to_string(),
            };
            let json = serde_json::to_string_pretty(&manifest).map_err(io::Error::other)?;
            std::fs::write(state.join(CITY_MANIFEST), json + "\n")?;
        }
        for (s, shard) in self.shards.iter().enumerate() {
            let store = Store::open(store_dir(state, s))?;
            shard.attach_store_grouped(store, snapshot_every, group_every);
        }
        Ok(())
    }

    /// Recovers the city stored under `state`, rebuilding the plan from
    /// the stored shard count and replaying every shard's store.
    /// Returns per-shard recovery summaries in shard-id order.
    pub fn recover(
        network: TransitNetwork,
        db: &StopFingerprintDb,
        config: MonitorConfig,
        state: &Path,
    ) -> io::Result<(Self, Vec<RecoveryTrace>)> {
        let manifest = city_layout(state, None)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{state:?} holds no WAL segments or snapshots"),
            )
        })?;
        let policy = OverflowPolicy::from_label(&manifest.policy).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown overflow policy {:?}", manifest.policy),
            )
        })?;
        let network = Arc::new(network);
        let plan = CityPlan::build(&network, db, manifest.shards);
        let mut monitors = Vec::with_capacity(manifest.shards);
        let mut summaries = Vec::with_capacity(manifest.shards);
        for s in 0..manifest.shards {
            let (monitor, summary) = TrafficMonitor::recover(
                Arc::clone(&network),
                plan.sub_db(db, s),
                config,
                store_dir(state, s),
            )?;
            monitors.push(Arc::new(monitor));
            summaries.push(summary);
        }
        Ok((Self::assemble(network, plan, policy, monitors), summaries))
    }

    /// Forces a checkpoint on every shard; returns the per-shard
    /// coverage points.
    pub fn checkpoint_all(&self) -> io::Result<Vec<Option<u64>>> {
        self.shards.iter().map(|s| s.checkpoint()).collect()
    }

    /// Fsyncs every shard's WAL.
    pub fn sync_all(&self) -> io::Result<()> {
        for shard in &self.shards {
            shard.sync_store()?;
        }
        Ok(())
    }

    /// Committed-upload count per shard.
    #[must_use]
    pub fn commit_counts(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.commit_count()).collect()
    }

    /// The federated city map as of `time_s` (default staleness
    /// horizon).
    #[must_use]
    pub fn city_map(&self, time_s: f64) -> TrafficMap {
        let maps: Vec<TrafficMap> = self.shards.iter().map(|s| s.snapshot(time_s)).collect();
        CityAggregator::merge(&maps)
    }

    /// The federated city map with an explicit staleness horizon.
    #[must_use]
    pub fn city_map_with_max_age(&self, time_s: f64, max_age_s: f64) -> TrafficMap {
        let maps: Vec<TrafficMap> = self
            .shards
            .iter()
            .map(|s| s.snapshot_with_max_age(time_s, max_age_s))
            .collect();
        CityAggregator::merge(&maps)
    }

    /// Conservation accounting: `(routed, overflow, per-shard
    /// (ingested, dropped))`. Every routed trip is either ingested or
    /// dropped by exactly one shard, so `routed == Σ(ingested +
    /// dropped)` whenever every routed trip was actually handed to
    /// [`ingest_batch_received_parallel`](Self::ingest_batch_received_parallel).
    #[must_use]
    pub fn accounting(&self) -> ShardAccounting {
        ShardAccounting {
            routed: self.routed.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            per_shard: self
                .stats
                .iter()
                .map(|s| {
                    (
                        s.ingested.load(Ordering::Relaxed),
                        s.dropped.load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }
}

/// Snapshot of the routing/ingest conservation counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAccounting {
    /// Trips routed (every trip, exactly once).
    pub routed: u64,
    /// Routed trips that needed the overflow policy.
    pub overflow: u64,
    /// Per shard: `(ingested_with_observations, dropped)`.
    pub per_shard: Vec<(u64, u64)>,
}

impl ShardAccounting {
    /// Whether every routed trip is accounted for by exactly one
    /// shard.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.routed == self.per_shard.iter().map(|(i, d)| i + d).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_bench::World;
    use busprobe_network::NetworkGenerator;

    /// One shard's fail-stop is the city's: once one append of shard
    /// 1's store fails, the city-wide sync and checkpoint report it
    /// instead of `Ok`, while shard 0 stays durable.
    #[test]
    fn a_failed_shard_store_fails_the_city_sync_and_checkpoint() {
        let network = NetworkGenerator::small(3).generate();
        let db = World::synthetic_db(network.sites().len(), 3);
        let city = ShardedMonitor::new(
            network,
            &db,
            MonitorConfig::default(),
            2,
            OverflowPolicy::Score,
        );
        let state =
            std::env::temp_dir().join(format!("busprobe-shard-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        city.attach_stores(&state, 0, 1).unwrap();
        let mut failing = Store::open(shard_dir(&state, 1)).unwrap();
        failing.inject_io_faults(true, false);
        city.shards()[1].attach_store_grouped(failing, 0, 1);

        let empty = Trip {
            samples: Vec::new(),
        };
        for shard in city.shards() {
            assert!(shard.ingest_upload(&empty, None).drop_reason().is_some());
        }
        assert!(city.shards()[1].store_failed());
        assert!(city.sync_all().is_err(), "the failed shard's sync surfaces");
        assert!(city.checkpoint_all().is_err(), "and so does its checkpoint");
        assert!(city.sync_all().is_err(), "the latch holds");
        city.shards()[0].sync_store().unwrap();
        assert_eq!(city.shards()[0].checkpoint().unwrap(), Some(1));
        let _ = std::fs::remove_dir_all(&state);
    }
}
