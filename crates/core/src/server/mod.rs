//! The backend server: ingest trips, publish traffic maps (Fig. 4).
//!
//! [`TrafficMonitor`] owns the whole §III-C/§III-D pipeline behind a
//! thread-safe facade. Uploads arrive concurrently from many phones, so
//! ingestion is split into two phases:
//!
//! - **stage** (`stage.rs`, `stage_upload`): sanitize → match → cluster
//!   → map → estimate. Pure reads of shared state (the matcher behind
//!   its `RwLock` read guard), safe to run on any worker thread, and
//!   speculative — it never mutates the monitor.
//! - **commit** (`commit.rs`, `commit_staged`): duplicate suppression,
//!   drop attribution, updater harvest and Bayesian fusion, applied as
//!   one [`CommitRecord`](crate::CommitRecord) in upload sequence order.
//!
//! What commits write is one `CommitState` behind one lock, held by a
//! commit from its sequence number to its WAL push, so sequence, apply
//! and WAL order agree by construction.
//!
//! Serial ingest is stage+commit back to back; [`crate::parallel`] runs
//! stages on a work-stealing shard pool and feeds commits through a
//! sequence-numbered reducer, which is why the parallel path is
//! bit-identical to the serial one at any worker count. `durable.rs`
//! logs the records and replays them through the same function on
//! recovery; `report.rs` holds [`MonitorConfig`], [`IngestReport`] and
//! [`DropReason`].

mod commit;
mod durable;
mod report;
mod seen;
mod stage;

pub use report::{DropReason, IngestReport, MonitorConfig};
pub(crate) use stage::StagedUpload;

use crate::clustering::Clusterer;
use crate::database::StopFingerprintDb;
use crate::digest::Digest;
use crate::durability::PersistedState;
use crate::map::TrafficMap;
use crate::matching::{MatchResult, Matcher};
use crate::telemetry::PipelineMetrics;
use busprobe_cellular::Fingerprint;
use busprobe_mobile::Trip;
use busprobe_network::TransitNetwork;
use busprobe_telemetry::Stage;
use busprobe_trace::Tracer;
use commit::CommitState;
use parking_lot::{Mutex, RwLock};
use seen::SeenSet;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many scans get a full per-scan [`MatchDecision`](busprobe_trace::TraceEvent::MatchDecision)
/// (and observations a [`FusionDelta`](busprobe_trace::TraceEvent::FusionDelta)) in a trace; the
/// rest are summarized. Bounds trace size on hostile uploads.
const TRACE_DETAIL: usize = 4;

/// The backend server.
///
/// # Examples
///
/// ```
/// use busprobe_core::{MonitorConfig, StopFingerprintDb, TrafficMonitor};
/// use busprobe_network::NetworkGenerator;
///
/// let network = NetworkGenerator::small(1).generate();
/// let monitor = TrafficMonitor::new(network, StopFingerprintDb::new(), MonitorConfig::default());
/// let map = monitor.snapshot(0.0);
/// assert!(map.is_empty(), "no uploads yet");
/// ```
#[derive(Debug)]
pub struct TrafficMonitor {
    network: Arc<TransitNetwork>,
    matcher: RwLock<Matcher>,
    clusterer: Clusterer,
    config: MonitorConfig,
    /// Everything commits write, behind the one commit lock.
    commit: Mutex<CommitState>,
    /// Digests of ingested uploads, for duplicate suppression. Written
    /// only under the commit lock, and always the last lock taken.
    seen: Mutex<SeenSet>,
    /// Cached handles into the global telemetry registry.
    metrics: PipelineMetrics,
    /// Optional per-upload decision-provenance sink. `None` (the
    /// default) costs one uncontended read-lock acquisition per upload
    /// — the <1% overhead budget gated by `crates/bench/tests/overhead.rs`.
    tracer: RwLock<Option<Arc<Tracer>>>,
    /// Lock-free mirror of the commit sequence, so
    /// [`commit_count`](Self::commit_count) never waits on an fsync.
    committed: AtomicU64,
}

impl TrafficMonitor {
    /// Creates a monitor for `network` with the stop-fingerprint database
    /// `db`. Regional shards pass one shared `Arc`, so a 16-shard city
    /// does not clone a 100k-stop network 16 times.
    #[must_use]
    pub fn new(
        network: impl Into<Arc<TransitNetwork>>,
        db: StopFingerprintDb,
        config: MonitorConfig,
    ) -> Self {
        Self::from_state(network.into(), config, PersistedState::fresh(db, config))
    }

    /// A monitor holding `state` — a fresh one, or a snapshot on its way
    /// through recovery — with no store or tracer attached. Runs under
    /// `config`, whatever configuration the state was written under.
    /// `state.seen` must strictly ascend, as a decoded snapshot's does:
    /// the seen set adopts it as it is, unhashed.
    fn from_state(
        network: Arc<TransitNetwork>,
        config: MonitorConfig,
        state: PersistedState,
    ) -> Self {
        TrafficMonitor {
            network,
            matcher: RwLock::new(Matcher::new(state.database, config.matching)),
            clusterer: Clusterer::new(config.clustering),
            config,
            commit: Mutex::new(CommitState {
                fusion: state.fusion,
                updater: state.updater,
                store: None,
                commits: state.commits,
            }),
            seen: Mutex::new(SeenSet::from_sorted(state.seen)),
            metrics: PipelineMetrics::new(),
            tracer: RwLock::new(None),
            committed: AtomicU64::new(state.commits),
        }
    }

    /// Content digest of an upload, as used for trace identities and
    /// duplicate detection: phones retry on flaky links, so the server
    /// must treat byte-identical resubmissions as one trip. Exposed so
    /// admission layers (the streaming frontend) can attribute uploads
    /// they drop *before* staging under the same id a committed copy
    /// would have carried.
    #[must_use]
    pub fn upload_digest(trip: &Trip) -> u64 {
        let mut h = Digest::new();
        for s in &trip.samples {
            h.put_u64(s.time_s.to_bits());
            for o in s.scan.observations() {
                h.put_u32(o.tower.0);
                h.put_u64(o.rss_dbm.to_bits());
            }
        }
        h.finish()
    }

    /// Committed uploads plus database refreshes, one per WAL record —
    /// the sequence number the next commit will receive. Monotone and
    /// lock-free: a liveness heartbeat for the commit path.
    #[must_use]
    pub fn commit_count(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// The study region.
    #[must_use]
    pub fn network(&self) -> &TransitNetwork {
        &self.network
    }

    /// Read-only matcher probe: whether any of `samples` could have a
    /// [`probe_route_bound`](Self::probe_route_bound) here (see
    /// [`Matcher::may_match`]). One read guard and a hash lookup per
    /// cell — what lets the shard router rule a region out without
    /// probing it.
    #[must_use]
    pub fn probe_may_match(&self, samples: &[Fingerprint]) -> bool {
        let matcher = self.matcher.read();
        samples.iter().any(|sample| matcher.may_match(sample))
    }

    /// Read-only matcher probe: the best score any stop in *this*
    /// monitor's database could reach against `sample` (`None` when no
    /// stop shares a cell). The shard router's fast path — no
    /// alignment runs, only the index's bound walk.
    #[must_use]
    pub fn probe_route_bound(&self, sample: &Fingerprint) -> Option<f64> {
        self.matcher.read().best_candidate_bound(sample)
    }

    /// Read-only matcher probe: the full best match of `sample`
    /// against this monitor's database — the shard router's overflow
    /// path, scored per shard in shard-id order so the global winner
    /// under [`MatchResult::rank_order`] is bit-exact regardless of
    /// shard count.
    #[must_use]
    pub fn probe_best_match(&self, sample: &Fingerprint) -> Option<MatchResult> {
        self.matcher.read().best_match(sample)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The hardened ingest front door: sanitizes the upload (using
    /// `received_s`, the trustworthy server-side arrival time, to bound the
    /// phone's clock error; `None` skips clock normalization), suppresses
    /// exact and near duplicates, runs the pipeline and folds the result
    /// into the shared traffic state.
    ///
    /// Never panics on hostile input: any pipeline panic is caught, the
    /// trip is isolated, and the report carries
    /// [`DropReason::InternalError`].
    ///
    /// The upload's WAL record is appended before this returns: one
    /// upload is one group window.
    pub fn ingest_upload(&self, trip: &Trip, received_s: Option<f64>) -> IngestReport {
        let staged = self.stage_upload(trip, received_s, None);
        let report = self.commit_staged(staged);
        self.flush_wal_group();
        report
    }

    /// Ingests many trips with `workers` stage threads (`0` = all
    /// available cores); returns per-trip reports in input order.
    /// Deterministic: any worker count — including 1 — produces reports,
    /// state and maps bit-identical to ingesting the trips serially.
    /// Stages run on a work-stealing shard pool, commits are applied in
    /// upload order by a sequence-numbered reducer (see
    /// [`crate::parallel`]).
    #[must_use]
    pub fn ingest_batch_parallel(&self, trips: &[Trip], workers: usize) -> Vec<IngestReport> {
        self.ingest_batch_received_parallel(trips, &[] as &[f64], workers)
    }

    /// [`ingest_batch_parallel`](Self::ingest_batch_parallel) with
    /// per-trip server-side arrival times (parallel uploads from a
    /// faulted batch), matched to `trips` by index: `f64`s, or
    /// `Option<f64>`s where a `None` trip has no arrival time.
    ///
    /// # Panics
    ///
    /// `received_s` must be empty (no arrival times) or hold one entry
    /// per trip.
    #[must_use]
    pub fn ingest_batch_received_parallel<T, R>(
        &self,
        trips: &[T],
        received_s: &[R],
        workers: usize,
    ) -> Vec<IngestReport>
    where
        T: Borrow<Trip> + Sync,
        R: Copy + Into<Option<f64>> + Sync,
    {
        let span = self.metrics.stages.start(Stage::IngestBatch);
        crate::parallel::assert_arrivals_match(received_s.len(), trips.len());
        let received = |seq: usize| received_s.get(seq).copied().and_then(Into::into);
        let reports = crate::parallel::ingest_batch(self, trips, &received, workers);
        span.finish();
        reports
    }

    /// Attaches (or, with `None`, detaches) a per-upload decision-
    /// provenance sink: every subsequent commit finalizes a
    /// [`TripTrace`](busprobe_trace::TripTrace) and submits it under the tracer's sampling policy.
    ///
    /// Tracing never changes what the pipeline decides — traced and
    /// untraced runs produce bit-identical reports, state and maps —
    /// and a detached tracer costs one lock check per upload (<1% of
    /// ingest, gated in CI by `crates/bench/tests/overhead.rs`).
    pub fn set_trace_sink(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    /// The attached decision-provenance sink, if any.
    #[must_use]
    pub fn trace_sink(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().clone()
    }

    /// A copy of the current fingerprint database (for persistence).
    #[must_use]
    pub fn database(&self) -> StopFingerprintDb {
        self.matcher.read().db().clone()
    }

    /// Publishes the instant traffic map as of `time_s`, keeping segments
    /// updated within the last 30 minutes (six refresh periods).
    #[must_use]
    pub fn snapshot(&self, time_s: f64) -> TrafficMap {
        self.snapshot_with_max_age(time_s, 1800.0)
    }

    /// Publishes a map with an explicit staleness horizon.
    #[must_use]
    pub fn snapshot_with_max_age(&self, time_s: f64, max_age_s: f64) -> TrafficMap {
        TrafficMap::from_fusion(&self.commit.lock().fusion, time_s, max_age_s)
    }

    /// The retained speed time series of one segment: `(window start
    /// seconds, mean speed km/h)` per 5-minute reporting period — the
    /// Fig. 10 curve for that segment.
    #[must_use]
    pub fn speed_series_kmh(&self, key: busprobe_network::SegmentKey) -> Vec<(f64, f64)> {
        self.commit
            .lock()
            .fusion
            .window_series(key)
            .into_iter()
            .map(|(t, b)| (t, b.mean_mps * 3.6))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchConfig;
    use busprobe_cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
    use busprobe_mobile::CellularSample;
    use busprobe_network::NetworkGenerator;
    use busprobe_trace::{TraceEvent, TraceOutcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// Builds a monitor whose DB holds noise-free fingerprints of every
    /// site, plus the scanner to fabricate uploads.
    pub(super) fn setup(seed: u64) -> (TrafficMonitor, Scanner) {
        let network = NetworkGenerator::small(seed).generate();
        let region = network.grid().spec().region();
        let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), seed);
        let scanner = Scanner::new(deployment, PropagationModel::default(), seed);
        let mut samples = BTreeMap::new();
        for site in network.sites() {
            samples.insert(
                site.id,
                vec![scanner.expected_scan(site.position).fingerprint()],
            );
        }
        let db = StopFingerprintDb::build_from_samples(&samples, &MatchConfig::default());
        let monitor = TrafficMonitor::new(network, db, MonitorConfig::default());
        (monitor, scanner)
    }

    /// Fabricates a trip riding route 0 from stop 0 to `stops - 1`, with
    /// `taps` beeps per stop and `hop_s` seconds between stops.
    pub(super) fn ride(
        monitor: &TrafficMonitor,
        scanner: &Scanner,
        stops: usize,
        taps: usize,
        hop_s: f64,
        seed: u64,
    ) -> Trip {
        let mut rng = StdRng::seed_from_u64(seed);
        let route = &monitor.network().routes()[0];
        let mut samples = Vec::new();
        for (k, rs) in route.stops().iter().take(stops).enumerate() {
            let pos = monitor.network().site(rs.site).position;
            for tap in 0..taps {
                samples.push(CellularSample {
                    time_s: k as f64 * hop_s + tap as f64 * 2.0,
                    scan: scanner.scan(pos, &mut rng),
                });
            }
        }
        Trip { samples }
    }

    #[test]
    fn clean_trip_flows_through_the_pipeline() {
        let (monitor, scanner) = setup(7);
        let trip = ride(&monitor, &scanner, 4, 3, 90.0, 1);
        let report = monitor.ingest_upload(&trip, None);
        assert_eq!(report.samples, 12);
        assert!(report.matched >= 10, "most scans match: {report:?}");
        assert!(report.clusters >= 3, "{report:?}");
        assert!(report.visits >= 3, "{report:?}");
        assert!(report.observations >= 2, "{report:?}");
        let map = monitor.snapshot(400.0);
        assert!(!map.is_empty());
    }

    #[test]
    fn empty_trip_is_harmless() {
        let (monitor, _) = setup(8);
        let report = monitor.ingest_upload(&Trip { samples: vec![] }, None);
        assert_eq!(report, IngestReport::default());
        assert!(monitor.snapshot(0.0).is_empty());
    }

    #[test]
    fn garbage_scans_are_rejected() {
        let (monitor, _) = setup(9);
        // Samples with empty scans: nothing can match.
        let trip = Trip {
            samples: (0..5)
                .map(|k| CellularSample {
                    time_s: k as f64 * 10.0,
                    scan: busprobe_cellular::CellScan::new(vec![]),
                })
                .collect(),
        };
        let report = monitor.ingest_upload(&trip, None);
        assert_eq!(report.matched, 0);
        assert_eq!(report.observations, 0);
    }

    #[test]
    fn batch_ingest_equals_sequential() {
        let (monitor_a, scanner) = setup(10);
        let (monitor_b, _) = setup(10);
        let trips: Vec<Trip> = (0..8)
            .map(|k| ride(&monitor_a, &scanner, 5, 2, 80.0, 100 + k))
            .collect();
        let seq: Vec<IngestReport> = trips
            .iter()
            .map(|t| monitor_a.ingest_upload(t, None))
            .collect();
        let par = monitor_b.ingest_batch_parallel(&trips, 0);
        assert_eq!(seq, par, "parallel ingest must match sequential reports");
        // Final maps agree too (fusion is order-insensitive for equal
        // variances... up to aging; compare coverage).
        assert_eq!(monitor_a.snapshot(1e4).len(), monitor_b.snapshot(1e4).len());
    }

    /// One rule for arrival times, enforced in `parallel::ingest_batch`:
    /// none, or one per trip. A short list used to clock-normalize a
    /// prefix of the batch and silently not the rest.
    #[test]
    #[should_panic(expected = "received_s must be empty or match trips (2 vs 3)")]
    fn short_arrival_list_is_refused() {
        let (monitor, scanner) = setup(14);
        let trips: Vec<Trip> = (0..3)
            .map(|k| ride(&monitor, &scanner, 5, 2, 80.0, 200 + k))
            .collect();
        let _ = monitor.ingest_batch_received_parallel(&trips, &[400.0, 400.0], 1);
    }

    #[test]
    fn snapshot_age_filter_applies() {
        let (monitor, scanner) = setup(11);
        let trip = ride(&monitor, &scanner, 4, 2, 90.0, 3);
        monitor.ingest_upload(&trip, None);
        assert!(!monitor.snapshot_with_max_age(400.0, 1800.0).is_empty());
        assert!(monitor.snapshot_with_max_age(1e6, 60.0).is_empty());
    }

    #[test]
    fn state_survives_a_restart() {
        let (monitor, scanner) = setup(13);
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 6);
        monitor.ingest_upload(&trip, None);
        let before = monitor.snapshot(600.0);
        assert!(!before.is_empty());

        // Persist as a snapshot payload, restart, restore.
        let state = PersistedState::decode(&monitor.export_state().encode()).unwrap();
        let restored =
            TrafficMonitor::from_state(Arc::clone(&monitor.network), *monitor.config(), state);
        assert_eq!(restored.commit_count(), 1, "the commit count survives too");

        // The map is identical and a duplicate replay is still rejected.
        assert_eq!(restored.snapshot(600.0), before);
        let report = restored.ingest_upload(&trip, None);
        assert!(report.duplicate, "seen-set survives the restart");
        // Fresh traffic keeps flowing into the restored state.
        let trip2 = ride(&restored, &scanner, 5, 3, 85.0, 7);
        let report2 = restored.ingest_upload(&trip2, None);
        assert!(!report2.duplicate);
        assert!(report2.observations > 0);
    }

    #[test]
    fn estimated_speeds_are_physical() {
        let (monitor, scanner) = setup(12);
        let trip = ride(&monitor, &scanner, 6, 3, 75.0, 4);
        monitor.ingest_upload(&trip, None);
        for e in monitor.snapshot(600.0).segments.values() {
            assert!(
                e.speed_mps > 0.5 && e.speed_mps < 30.0,
                "speed {}",
                e.speed_mps
            );
        }
    }

    /// Exhaustiveness guard: every [`DropReason`] owns a distinct
    /// telemetry counter (registered by monitor construction) and a
    /// distinct trace label. `counter_name`/`trace_label` are
    /// wildcard-free matches, so a new variant fails to compile until it
    /// gets both; this test keeps the mappings injective and live.
    #[test]
    fn drop_reasons_map_to_distinct_counters_and_trace_labels() {
        let (_monitor, _) = setup(40);
        let snapshot = busprobe_telemetry::snapshot();
        let mut counters = std::collections::BTreeSet::new();
        let mut labels = std::collections::BTreeSet::new();
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i, "ALL is in declaration order");
            assert!(
                snapshot.counter(reason.counter_name()).is_some(),
                "{} is not a registered telemetry counter",
                reason.counter_name()
            );
            assert!(
                counters.insert(reason.counter_name()),
                "duplicate counter for {reason:?}"
            );
            assert!(
                labels.insert(reason.trace_label()),
                "duplicate trace label for {reason:?}"
            );
        }
        assert_eq!(counters.len(), DropReason::ALL.len());
        assert_eq!(labels.len(), DropReason::ALL.len());
    }

    #[test]
    fn traces_attribute_commits_and_drops() {
        use busprobe_trace::TracePolicy;
        let (monitor, scanner) = setup(41);
        let tracer = Arc::new(Tracer::new(TracePolicy::export_all()));
        monitor.set_trace_sink(Some(Arc::clone(&tracer)));

        let good = ride(&monitor, &scanner, 5, 3, 80.0, 9);
        let report = monitor.ingest_upload(&good, None);
        assert!(report.observations > 0, "{report:?}");
        monitor.ingest_upload(&good, None); // byte-identical retry
        let garbage = Trip {
            samples: (0..5)
                .map(|k| CellularSample {
                    time_s: k as f64 * 10.0,
                    scan: busprobe_cellular::CellScan::new(vec![]),
                })
                .collect(),
        };
        monitor.ingest_upload(&garbage, None);

        let traces = tracer.exported();
        assert_eq!(traces.len(), 3, "export-all policy keeps every trip");
        let committed = &traces[0].trace;
        assert_eq!(committed.seq, 0);
        assert!(
            matches!(committed.outcome, TraceOutcome::Committed { observations, .. }
                if observations == report.observations),
            "{:?}",
            committed.outcome
        );
        assert!(committed.wal_seq.is_none(), "no store attached");
        let kinds: Vec<&str> = committed.events.iter().map(TraceEvent::kind).collect();
        assert!(kinds.contains(&"Sanitize"), "{kinds:?}");
        assert!(kinds.contains(&"MatchSummary"), "{kinds:?}");
        assert!(kinds.contains(&"Mapping"), "{kinds:?}");
        assert!(kinds.contains(&"FusionSummary"), "{kinds:?}");

        let duplicate = &traces[1].trace;
        assert!(
            matches!(&duplicate.outcome, TraceOutcome::Dropped { reason }
                if reason == DropReason::RejectedDuplicate.trace_label()),
            "{:?}",
            duplicate.outcome
        );
        assert_eq!(duplicate.trace_id, committed.trace_id, "same upload bytes");

        let unmatched = &traces[2].trace;
        assert!(
            matches!(&unmatched.outcome, TraceOutcome::Dropped { reason }
                if reason == DropReason::Malformed.trace_label()
                    || reason == DropReason::UnmatchedScans.trace_label()),
            "{:?}",
            unmatched.outcome
        );

        // The decision chain reconstructs from either id, and reads as a
        // story.
        let found = tracer.find(committed.trace_id).expect("find by digest");
        assert_eq!(found.trace.seq, 0);
        assert!(tracer.find(2).is_some(), "find by seq");
        assert!(found.trace.narrative().contains("committed"));
    }
}
