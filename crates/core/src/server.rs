//! The backend server: ingest trips, publish traffic maps (Fig. 4).
//!
//! [`TrafficMonitor`] owns the whole §III-C/§III-D pipeline behind a
//! thread-safe facade. Uploads arrive concurrently from many phones, so
//! ingestion is split into two phases:
//!
//! - **stage** ([`TrafficMonitor::stage_upload`]): sanitize → match →
//!   cluster → map → estimate. Pure reads of shared state (the matcher
//!   behind its `RwLock` read guard), safe to run on any worker thread,
//!   and speculative — it never mutates the monitor.
//! - **commit** ([`TrafficMonitor::commit_staged`]): duplicate
//!   suppression, drop attribution, updater harvest and Bayesian fusion.
//!   Mutates shared state, and is therefore applied in upload sequence
//!   order by exactly one thread at a time.
//!
//! Serial ingest is stage+commit back to back; [`crate::parallel`] runs
//! stages on a work-stealing shard pool and feeds commits through a
//! sequence-numbered reducer, which is why the parallel path is
//! bit-identical to the serial one at any worker count.

use crate::clustering::{Clusterer, MatchedSample};
use crate::database::StopFingerprintDb;
use crate::durability::{CommitRecord, HarvestEntry, PersistedState, RecoverySummary, WalRecord};
use crate::estimation::{SpeedObservation, TripEstimator};
use crate::fusion::SegmentFusion;
use crate::map::TrafficMap;
use crate::mapping::{MappedVisit, TripMapper};
use crate::matching::{MatchResult, Matcher};
use crate::sanitize::{self, SanitizeConfig, SanitizeReport};
use crate::telemetry::PipelineMetrics;
use crate::updater::{DbUpdater, UpdaterConfig};
use crate::{ClusterConfig, EstimatorConfig, MatchConfig};
use busprobe_cellular::Fingerprint;
use busprobe_mobile::{CellularSample, Trip};
use busprobe_network::TransitNetwork;
use busprobe_store::Store;
use busprobe_telemetry::Level;
use busprobe_trace::{
    CandidateScore, StageSpan, TraceEvent, TraceOutcome, TraceRecord, Tracer, TripTrace,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

/// How many scans get a full per-scan [`TraceEvent::MatchDecision`]
/// (and observations a [`TraceEvent::FusionDelta`]) in a trace; the
/// rest are summarized. Bounds trace size on hostile uploads.
const TRACE_DETAIL: usize = 4;

/// Transient store I/O on the commit path (WAL append / fsync) is
/// retried this many times after the first failure before the monitor
/// degrades to an attributed durability fail-stop.
const STORE_IO_RETRIES: u32 = 4;

/// First retry delay; doubles per attempt up to
/// [`STORE_IO_BACKOFF_CAP_MS`].
const STORE_IO_BACKOFF_BASE_MS: u64 = 2;

/// Ceiling on the per-retry backoff delay.
const STORE_IO_BACKOFF_CAP_MS: u64 = 50;

/// Complete backend configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Per-sample matching parameters.
    pub matching: MatchConfig,
    /// Eq. (1) clustering parameters.
    pub clustering: ClusterConfig,
    /// Eq. (3) estimation parameters.
    pub estimation: EstimatorConfig,
    /// Upload sanitization limits and tolerances (validation, clock
    /// normalization, reordering, duplicate suppression).
    pub sanitize: SanitizeConfig,
    /// Harvest high-confidence samples into the online database updater
    /// during ingest (Fig. 4's online update path). Off by default.
    pub online_db_update: bool,
    /// Online updater parameters (used when `online_db_update` is set).
    pub updater: UpdaterConfig,
}

/// A serializable snapshot of the server's mutable state, for restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorState {
    /// Accumulated traffic beliefs and time series.
    pub fusion: SegmentFusion,
    /// The (possibly online-updated) fingerprint database.
    pub database: StopFingerprintDb,
    /// Digests of already-ingested uploads.
    pub seen: Vec<u64>,
}

/// Why a trip produced no speed observations — the pipeline stage that
/// dropped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The upload was a byte-identical duplicate and was skipped whole.
    RejectedDuplicate,
    /// The upload's fuzzy content digest matched an already-ingested trip
    /// (a jittered retry) and was skipped whole.
    RejectedNearDuplicate,
    /// No sample survived sanitization (or the upload was empty).
    Malformed,
    /// No sample passed the γ matching threshold.
    UnmatchedScans,
    /// Matches existed but no route-consistent stop sequence did.
    Unmapped,
    /// Stops were identified, but too few (or too far apart in time)
    /// to estimate any segment speed.
    TooFewVisits,
    /// The pipeline panicked on this upload; the trip was isolated and
    /// dropped (a bug, but never a silent one and never an outage).
    InternalError,
    /// The streaming frontend's admission queue was full and the
    /// configured policy rejected (or evicted) this upload instead of
    /// blocking the producer.
    ShedQueueFull,
    /// The upload waited in the admission queue past the configured
    /// latency budget and was shed before staging.
    ShedDeadline,
    /// The upload's wire frame exceeded the configured byte or sample
    /// limits and was refused at admission.
    Oversized,
    /// The wire frame was not a valid protocol line (bad JSON, missing
    /// or undecodable `upload` field).
    Unparseable,
}

impl DropReason {
    /// Every variant, in pipeline order (admission-layer reasons last —
    /// they fire before the upload ever reaches staging). The
    /// exhaustiveness tests walk this list so a new variant can't
    /// silently lose its telemetry counter or trace attribution.
    pub const ALL: [DropReason; 11] = [
        DropReason::RejectedDuplicate,
        DropReason::RejectedNearDuplicate,
        DropReason::Malformed,
        DropReason::UnmatchedScans,
        DropReason::Unmapped,
        DropReason::TooFewVisits,
        DropReason::InternalError,
        DropReason::ShedQueueFull,
        DropReason::ShedDeadline,
        DropReason::Oversized,
        DropReason::Unparseable,
    ];

    /// The global telemetry counter attributing this drop.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            DropReason::RejectedDuplicate => "busprobe_core_drop_rejected_duplicate_total",
            DropReason::RejectedNearDuplicate => "busprobe_core_drop_near_duplicate_total",
            DropReason::Malformed => "busprobe_core_drop_malformed_total",
            DropReason::UnmatchedScans => "busprobe_core_drop_unmatched_scans_total",
            DropReason::Unmapped => "busprobe_core_drop_unmapped_total",
            DropReason::TooFewVisits => "busprobe_core_drop_too_few_visits_total",
            DropReason::InternalError => "busprobe_core_drop_internal_error_total",
            DropReason::ShedQueueFull => "busprobe_core_drop_shed_queue_full_total",
            DropReason::ShedDeadline => "busprobe_core_drop_shed_deadline_total",
            DropReason::Oversized => "busprobe_core_drop_oversized_total",
            DropReason::Unparseable => "busprobe_core_drop_unparseable_total",
        }
    }

    /// The stable label carried by a trace's `Dropped` outcome.
    #[must_use]
    pub fn trace_label(self) -> &'static str {
        match self {
            DropReason::RejectedDuplicate => "duplicate",
            DropReason::RejectedNearDuplicate => "near-duplicate",
            DropReason::Malformed => "malformed",
            DropReason::UnmatchedScans => "unmatched-scans",
            DropReason::Unmapped => "unmapped",
            DropReason::TooFewVisits => "too-few-visits",
            DropReason::InternalError => "internal-error",
            DropReason::ShedQueueFull => "shed-queue-full",
            DropReason::ShedDeadline => "shed-deadline",
            DropReason::Oversized => "oversized",
            DropReason::Unparseable => "unparseable",
        }
    }
}

/// Diagnostics for one ingested trip.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IngestReport {
    /// The upload was a byte-identical duplicate of one already ingested
    /// (retry storms) and was skipped entirely.
    pub duplicate: bool,
    /// The upload's fuzzy near-duplicate digest matched an ingested trip
    /// (a jittered retry) and was skipped entirely.
    pub near_duplicate: bool,
    /// The pipeline panicked on this upload; the trip was isolated.
    pub internal_error: bool,
    /// Samples in the raw upload.
    pub samples: usize,
    /// Samples surviving sanitization.
    pub kept: usize,
    /// Samples quarantined by sanitization (invalid timestamp, too late
    /// to reorder, or overflow).
    pub quarantined: usize,
    /// Tower observations removed while repairing scans.
    pub scrubbed: usize,
    /// Clock correction applied to the upload's timestamps, seconds.
    pub clock_skew_s: f64,
    /// Samples that passed the γ acceptance threshold.
    pub matched: usize,
    /// Clusters formed.
    pub clusters: usize,
    /// Stop visits after per-trip mapping and salvage.
    pub visits: usize,
    /// Mapped visits cut by partial-trip salvage (route-inconsistent
    /// head/tail of the visit sequence).
    pub salvage_dropped: usize,
    /// Speed observations folded into the map.
    pub observations: usize,
}

impl IngestReport {
    /// Samples that survived sanitization but failed the γ matching
    /// threshold.
    #[must_use]
    pub fn unmatched_scans(&self) -> usize {
        self.kept.saturating_sub(self.matched)
    }

    /// The stage that dropped this trip, or `None` if it produced
    /// observations. Every zero-observation trip is attributable to
    /// exactly one stage.
    #[must_use]
    pub fn drop_reason(&self) -> Option<DropReason> {
        if self.duplicate {
            Some(DropReason::RejectedDuplicate)
        } else if self.near_duplicate {
            Some(DropReason::RejectedNearDuplicate)
        } else if self.internal_error {
            Some(DropReason::InternalError)
        } else if self.observations > 0 {
            None
        } else if self.kept == 0 {
            Some(DropReason::Malformed)
        } else if self.matched == 0 {
            Some(DropReason::UnmatchedScans)
        } else if self.visits == 0 {
            Some(DropReason::Unmapped)
        } else {
            Some(DropReason::TooFewVisits)
        }
    }
}

/// The speculative result of the read-only ingest stages for one upload —
/// everything [`TrafficMonitor::commit_staged`] needs to fold the trip
/// into shared state without recomputing anything.
///
/// Produced by [`TrafficMonitor::stage_upload`] on any worker thread;
/// consumed exactly once, in upload sequence order, by the committer.
#[derive(Debug)]
pub(crate) struct StagedUpload {
    /// Byte digest of the raw upload (exact-duplicate suppression).
    digest: u64,
    /// Speculative per-trip report: sanitizer accounting plus pipeline
    /// stage counts. Discarded (except the raw sample count) if commit
    /// rejects the upload as a duplicate.
    report: IngestReport,
    /// Sanitizer accounting, for the global counters.
    san: SanitizeReport,
    /// Fuzzy content digests for near-duplicate suppression (two
    /// half-offset start windows); checked and recorded authoritatively
    /// at commit.
    near_digests: Option<[u64; 2]>,
    /// Speed observations to fold into fusion.
    observations: Vec<SpeedObservation>,
    /// Sanitized samples and mapped visits retained for the online
    /// database updater (only when `online_db_update` is configured).
    harvest: Option<(Vec<CellularSample>, Vec<MappedVisit>)>,
    /// The pipeline panicked while staging; commit isolates the trip.
    panicked: bool,
    /// Decision events and stage spans captured while staging, when a
    /// tracer is attached. Normalized at commit (where the authoritative
    /// duplicate verdicts land) so the finished trace is deterministic.
    trace: Option<TraceDraft>,
}

/// Trace state accumulated during the speculative stage phase.
///
/// The events recorded here are pure functions of the upload and the
/// matcher state, so they are identical at any worker count; the spans
/// and worker id are wall-clock context for the Chrome export only.
#[derive(Debug, Default)]
pub(crate) struct TraceDraft {
    /// Stage-phase decision events (matching, clustering, mapping).
    events: Vec<TraceEvent>,
    /// Wall-clock stage spans on the shared process clock.
    spans: Vec<StageSpan>,
    /// Stage-pool worker that staged the upload.
    worker: Option<usize>,
}

impl TraceDraft {
    /// Records a completed stage span starting at `start_ns`.
    fn record_span(&mut self, stage: &'static str, start_ns: u64) {
        let dur_ns = busprobe_telemetry::clock_ns().saturating_sub(start_ns);
        self.spans.push(StageSpan {
            stage,
            start_ns,
            dur_ns,
        });
    }
}

/// A durable store attached to the monitor, plus its checkpoint cadence.
#[derive(Debug)]
struct AttachedStore {
    store: Store,
    /// Write a full-state snapshot every this many WAL records
    /// (0 = only on explicit [`TrafficMonitor::checkpoint`] calls).
    snapshot_every: u64,
    /// Group-commit window: buffer this many commit payloads and append
    /// them as one WAL group frame (1 = append each commit immediately,
    /// producing a log byte-identical to ungrouped operation).
    group_every: u64,
    /// Commit payloads buffered for the current group window, in commit
    /// order. Flushed as one frame when the window fills, before any
    /// fsync/checkpoint/refresh, at batch boundaries, and on detach.
    pending: Vec<Vec<u8>>,
}

impl Drop for AttachedStore {
    /// Best-effort flush of a partial group on detach, mirroring the
    /// buffered-writer contract: a clean exit or unwinding panic loses
    /// nothing, while a SIGKILL mid-window may lose the buffered group,
    /// which recovery reports as a missing suffix and a resumed ingest
    /// re-commits.
    fn drop(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        let _ = self.store.append_group(&pending);
    }
}

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
    fusion: Mutex<SegmentFusion>,
    updater: Mutex<DbUpdater>,
    /// Digests of ingested uploads, for duplicate suppression.
    seen: Mutex<std::collections::HashSet<u64>>,
    /// Cached handles into the global telemetry registry.
    metrics: PipelineMetrics,
    /// Optional durable store: every commit appends a WAL record here.
    ///
    /// Lock-order safety: the commit path drops every state lock (`seen`,
    /// `fusion`, `updater`) before taking this one, and `checkpoint` takes
    /// this one before any state lock — no thread ever waits on `store`
    /// while holding a state lock *and* vice versa in the same direction.
    store: Mutex<Option<AttachedStore>>,
    /// Optional per-upload decision-provenance sink. `None` (the
    /// default) costs one uncontended read-lock acquisition per upload
    /// — the <1% overhead budget gated by `benches/trace.rs`.
    tracer: RwLock<Option<Arc<Tracer>>>,
    /// Uploads committed so far — the trace sequence number, which is
    /// the commit order and therefore identical at any worker count.
    committed: AtomicU64,
    /// Latched when store I/O exhausted its retries and the store was
    /// detached: durability has fail-stopped while ingest continues.
    /// Resident frontends poll this to drain and exit with diagnostics.
    store_failed: AtomicBool,
}

impl TrafficMonitor {
    /// Creates a monitor for `network` with the stop-fingerprint database
    /// `db`.
    #[must_use]
    pub fn new(network: TransitNetwork, db: StopFingerprintDb, config: MonitorConfig) -> Self {
        Self::new_shared(Arc::new(network), db, config)
    }

    /// [`new`](Self::new) over an already-shared network. Regional
    /// shards each run their own monitor over a sub-database but one
    /// city network; sharing the `Arc` keeps a 16-shard city from
    /// cloning a 100k-stop network 16 times.
    #[must_use]
    pub fn new_shared(
        network: Arc<TransitNetwork>,
        db: StopFingerprintDb,
        config: MonitorConfig,
    ) -> Self {
        TrafficMonitor {
            network,
            matcher: RwLock::new(Matcher::new(db, config.matching)),
            clusterer: Clusterer::new(config.clustering),
            updater: Mutex::new(DbUpdater::new(config.updater)),
            config,
            fusion: Mutex::new(SegmentFusion::paper_default()),
            seen: Mutex::new(std::collections::HashSet::new()),
            metrics: PipelineMetrics::new(),
            store: Mutex::new(None),
            tracer: RwLock::new(None),
            committed: AtomicU64::new(0),
            store_failed: AtomicBool::new(false),
        }
    }

    /// Content digest of an upload: phones retry on flaky links, so the
    /// server must treat byte-identical resubmissions as one trip.
    fn digest(trip: &Trip) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for s in &trip.samples {
            s.time_s.to_bits().hash(&mut h);
            for o in s.scan.observations() {
                o.tower.hash(&mut h);
                o.rss_dbm.to_bits().hash(&mut h);
            }
        }
        h.finish()
    }

    /// Content digest of an upload, as used for trace identities and
    /// duplicate detection. Exposed so admission layers (the streaming
    /// frontend) can attribute uploads they drop *before* staging under
    /// the same id a committed copy would have carried.
    #[must_use]
    pub fn upload_digest(trip: &Trip) -> u64 {
        Self::digest(trip)
    }

    /// Uploads committed so far — equivalently, the sequence number the
    /// next commit will receive. Monotone, so watchdogs can use it as a
    /// liveness heartbeat for the commit path.
    #[must_use]
    pub fn commit_count(&self) -> u64 {
        self.committed.load(AtomicOrdering::Relaxed)
    }

    /// The study region.
    #[must_use]
    pub fn network(&self) -> &TransitNetwork {
        &self.network
    }

    /// A shared handle to the study region, for layers that fan one
    /// network out across many monitors (regional shards).
    #[must_use]
    pub fn network_shared(&self) -> Arc<TransitNetwork> {
        Arc::clone(&self.network)
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

    /// Runs one trip upload through sanitization → matching → clustering →
    /// mapping → estimation and folds the result into the shared traffic
    /// state. Equivalent to [`ingest_upload`](Self::ingest_upload) without
    /// a server-side arrival time (clock normalization is skipped).
    pub fn ingest_trip(&self, trip: &Trip) -> IngestReport {
        self.ingest_upload(trip, None)
    }

    /// The hardened ingest front door: sanitizes the upload (using
    /// `received_s`, the trustworthy server-side arrival time, to bound the
    /// phone's clock error), suppresses exact and near duplicates, runs the
    /// pipeline and folds the result into the shared traffic state.
    ///
    /// Never panics on hostile input: any pipeline panic is caught, the
    /// trip is isolated, and the report carries
    /// [`DropReason::InternalError`].
    pub fn ingest_upload(&self, trip: &Trip, received_s: Option<f64>) -> IngestReport {
        let staged = self.stage_upload(trip, received_s, None);
        self.commit_staged(staged)
    }

    /// Phase 1 of ingest: the read-only, speculative stages — sanitize →
    /// match → cluster → map → estimate. Touches no mutable monitor state,
    /// so any worker thread may run it concurrently with others; the
    /// result is folded in later by [`commit_staged`](Self::commit_staged).
    ///
    /// Never panics: a pipeline panic is captured in the staged result and
    /// surfaces as [`DropReason::InternalError`] at commit.
    ///
    /// `worker` is the stage-pool worker index (None on the serial
    /// path), carried into the trace for the Chrome export's swimlanes.
    pub(crate) fn stage_upload(
        &self,
        trip: &Trip,
        received_s: Option<f64>,
        worker: Option<usize>,
    ) -> StagedUpload {
        let digest = Self::digest(trip);
        match catch_unwind(AssertUnwindSafe(|| {
            self.stage_inner(trip, digest, received_s, worker)
        })) {
            Ok(staged) => staged,
            Err(_) => StagedUpload {
                digest,
                report: IngestReport {
                    samples: trip.samples.len(),
                    ..IngestReport::default()
                },
                san: SanitizeReport::default(),
                near_digests: None,
                observations: Vec::new(),
                harvest: None,
                panicked: true,
                trace: None,
            },
        }
    }

    fn stage_inner(
        &self,
        trip: &Trip,
        digest: u64,
        received_s: Option<f64>,
        worker: Option<usize>,
    ) -> StagedUpload {
        // The whole per-upload cost of a detached tracer is this one
        // uncontended read-lock check (gated <1% by benches/trace.rs).
        let mut draft = self.tracer.read().is_some().then(|| TraceDraft {
            worker,
            ..TraceDraft::default()
        });
        let skipped = |report| StagedUpload {
            digest,
            report,
            san: SanitizeReport::default(),
            near_digests: None,
            observations: Vec::new(),
            harvest: None,
            panicked: false,
            trace: None,
        };
        // Fast path: a digest present in the seen set stays there forever,
        // so commit is guaranteed to reject this upload as a duplicate —
        // skip the expensive stages. (A miss here is only a hint: commit
        // re-checks authoritatively.)
        if self.seen.lock().contains(&digest) {
            return skipped(IngestReport {
                samples: trip.samples.len(),
                ..IngestReport::default()
            });
        }

        // Sanitize: validate, normalize the clock, reorder, deduplicate.
        let trace_start = draft.as_ref().map(|_| busprobe_telemetry::clock_ns());
        let span = self.metrics.span_sanitize();
        let (samples, san) = sanitize::sanitize(&trip.samples, received_s, &self.config.sanitize);
        span.finish();
        if let (Some(d), Some(t0)) = (draft.as_mut(), trace_start) {
            d.record_span("sanitize", t0);
        }
        let mut report = Self::base_report(trip.samples.len(), &san);

        // Near-duplicate digests of the sanitized content: a jittered or
        // re-skewed retry reduces to the same fuzzy digest even though its
        // bytes differ. Same fast path as above: a hit now is a hit at
        // commit, so the pipeline run would be wasted.
        let near_digests = sanitize::near_duplicate_digests(&samples, &self.config.sanitize);
        if let Some(digests) = &near_digests {
            let seen = self.seen.lock();
            if digests.iter().any(|d| seen.contains(d)) {
                drop(seen);
                return StagedUpload {
                    digest,
                    report,
                    san,
                    near_digests,
                    observations: Vec::new(),
                    harvest: None,
                    panicked: false,
                    trace: draft,
                };
            }
        }

        let (visits, observations) = self.run_stages(&samples, &mut report, draft.as_mut());
        let harvest = self.config.online_db_update.then_some((samples, visits));
        StagedUpload {
            digest,
            report,
            san,
            near_digests,
            observations,
            harvest,
            panicked: false,
            trace: draft,
        }
    }

    /// Phase 2 of ingest: folds one staged upload into the shared traffic
    /// state — authoritative duplicate suppression, counter accounting,
    /// drop attribution, updater harvest and Bayesian fusion.
    ///
    /// All mutation happens here, so the order in which commits run fully
    /// determines the monitor's final state: committing staged uploads in
    /// sequence order reproduces serial ingest bit for bit, regardless of
    /// how many threads ran the stage phase.
    pub(crate) fn commit_staged(&self, staged: StagedUpload) -> IngestReport {
        let samples = staged.report.samples;
        let digest = staged.digest;
        match catch_unwind(AssertUnwindSafe(|| self.commit_inner(staged))) {
            Ok(report) => report,
            Err(_) => {
                self.metrics.drop_internal_error.inc();
                busprobe_telemetry::event(
                    Level::Warn,
                    "core::ingest",
                    format!("commit panicked; trip isolated ({samples} samples)"),
                );
                // Even a commit-phase panic leaves an attributing trace
                // (no WAL record was written, so no seq advance either).
                if let Some(tracer) = self.tracer.read().clone() {
                    tracer.submit(TraceRecord {
                        trace: TripTrace {
                            trace_id: digest,
                            seq: self.committed.load(AtomicOrdering::Relaxed),
                            samples,
                            events: Vec::new(),
                            outcome: TraceOutcome::Dropped {
                                reason: DropReason::InternalError.trace_label().to_string(),
                            },
                            wal_seq: None,
                        },
                        worker: None,
                        spans: Vec::new(),
                    });
                }
                IngestReport {
                    internal_error: true,
                    samples,
                    ..IngestReport::default()
                }
            }
        }
    }

    fn commit_inner(&self, staged: StagedUpload) -> IngestReport {
        let raw_samples = staged.report.samples;
        // The trace sequence number is the commit order — identical at
        // any worker count, so sampling and the JSONL export are too.
        let seq = self.committed.fetch_add(1, AtomicOrdering::Relaxed);
        let tracer = self.tracer.read().clone();
        self.metrics.trips.inc();
        self.metrics.samples.add(raw_samples as u64);
        // The durable ledger of what this commit did. Every return path
        // logs it — rejections included, so the WAL sequence number always
        // equals the count of committed uploads and a recovered monitor
        // resolves replays exactly as the original did.
        let mut record = CommitRecord {
            digest: staged.digest,
            near_digests: None,
            observations: Vec::new(),
            harvest: Vec::new(),
            report: IngestReport::default(),
        };
        if !self.seen.lock().insert(staged.digest) {
            self.metrics.drop_rejected_duplicate.inc();
            busprobe_telemetry::event(
                Level::Debug,
                "core::ingest",
                format!("duplicate upload rejected ({raw_samples} samples)"),
            );
            record.report = IngestReport {
                duplicate: true,
                samples: raw_samples,
                ..IngestReport::default()
            };
            // Whether staging took the skip hint or raced past it is
            // timing-dependent, so the trace is normalized to the one
            // authoritative fact: the digest collision.
            let events = tracer.is_some().then(|| {
                vec![TraceEvent::ExactDuplicate {
                    digest: staged.digest,
                }]
            });
            return self.seal_commit(record, seq, staged.trace, events, tracer.as_deref());
        }
        if staged.panicked {
            self.metrics.drop_internal_error.inc();
            busprobe_telemetry::event(
                Level::Warn,
                "core::ingest",
                format!("pipeline panicked; trip isolated ({raw_samples} samples)"),
            );
            record.report = IngestReport {
                internal_error: true,
                samples: raw_samples,
                ..IngestReport::default()
            };
            return self.seal_commit(
                record,
                seq,
                staged.trace,
                Some(Vec::new()),
                tracer.as_deref(),
            );
        }

        self.record_sanitize(&staged.san);

        // Near-duplicate suppression, authoritative: the check and the
        // seen-set extension happen here, in commit order, so a retry and
        // its original racing through the stage pool resolve exactly as
        // they would serially.
        if let Some(digests) = &staged.near_digests {
            record.near_digests = Some(*digests);
            let mut seen = self.seen.lock();
            let dup = digests.iter().any(|d| seen.contains(d));
            seen.extend(digests.iter().copied());
            drop(seen);
            if dup {
                let mut report = Self::base_report(raw_samples, &staged.san);
                report.near_duplicate = true;
                self.count_drop(&report);
                record.report = report;
                // Staging may or may not have run the full pipeline
                // before the fuzzy-digest hint landed; rebuild the
                // deterministic story from the sanitizer report alone.
                let events = tracer.is_some().then(|| {
                    vec![
                        Self::sanitize_event(raw_samples, &staged.san),
                        TraceEvent::NearDuplicate { digests: *digests },
                    ]
                });
                return self.seal_commit(record, seq, staged.trace, events, tracer.as_deref());
            }
        }

        let report = staged.report;
        self.note_pipeline_counters(&report);
        self.count_drop(&report);
        if let Some((samples, visits)) = &staged.harvest {
            let entries = self.harvest_entries(samples, visits);
            self.apply_harvest(&entries);
            record.harvest = entries;
        }
        let mut events = tracer.is_some().then(|| {
            let mut events = vec![Self::sanitize_event(raw_samples, &staged.san)];
            if let Some(draft) = &staged.trace {
                events.extend(draft.events.iter().cloned());
            }
            events
        });
        let span = self.metrics.span_fusion();
        let mut fusion = self.fusion.lock();
        for (i, obs) in staged.observations.iter().enumerate() {
            if let Some(events) = events.as_mut().filter(|_| i < TRACE_DETAIL) {
                let prior_mps = fusion.belief(obs.key).map(|b| b.mean_mps);
                fusion.observe(obs.key, obs.time_s, obs.speed_mps, obs.variance);
                let posterior = fusion.belief(obs.key).expect("belief exists after observe");
                events.push(TraceEvent::FusionDelta {
                    from: obs.key.from.0,
                    to: obs.key.to.0,
                    obs_mps: obs.speed_mps,
                    obs_variance: obs.variance,
                    prior_mps,
                    posterior_mps: posterior.mean_mps,
                    posterior_variance: posterior.variance,
                });
            } else {
                fusion.observe(obs.key, obs.time_s, obs.speed_mps, obs.variance);
            }
        }
        drop(fusion);
        span.finish();
        if let Some(events) = events.as_mut() {
            if !staged.observations.is_empty() {
                events.push(TraceEvent::FusionSummary {
                    observations: staged.observations.len(),
                    detailed: staged.observations.len().min(TRACE_DETAIL),
                });
            }
        }
        self.metrics
            .fusion_updates
            .add(staged.observations.len() as u64);
        self.metrics
            .obs_per_trip
            .record(staged.observations.len() as f64);
        record.observations = staged.observations;
        record.report = report;
        self.seal_commit(record, seq, staged.trace, events, tracer.as_deref())
    }

    /// The Sanitize trace event for one upload's accounting. Rebuilt at
    /// commit from the [`SanitizeReport`] (a pure function of the
    /// upload), never from racy stage-phase state.
    fn sanitize_event(raw_samples: usize, san: &SanitizeReport) -> TraceEvent {
        TraceEvent::Sanitize {
            samples_in: raw_samples,
            kept: san.samples_kept,
            quarantined: san.quarantined(),
            duplicates_suppressed: san.duplicates_suppressed,
            scrubbed: san.observations_scrubbed,
            reordered: san.reordered,
            clock_skew_s: san.clock_skew_s,
        }
    }

    /// The single exit of every commit path: writes the WAL record,
    /// then finalizes and submits the upload's trace (when a tracer is
    /// attached) with the authoritative outcome and WAL seq.
    fn seal_commit(
        &self,
        record: CommitRecord,
        seq: u64,
        draft: Option<TraceDraft>,
        events: Option<Vec<TraceEvent>>,
        tracer: Option<&Tracer>,
    ) -> IngestReport {
        let report = record.report;
        let digest = record.digest;
        let wal_seq = self.log_commit(record);
        if let Some(tracer) = tracer {
            let outcome = match report.drop_reason() {
                None => TraceOutcome::Committed {
                    visits: report.visits,
                    observations: report.observations,
                },
                Some(reason) => TraceOutcome::Dropped {
                    reason: reason.trace_label().to_string(),
                },
            };
            let (worker, spans) = draft.map_or((None, Vec::new()), |d| (d.worker, d.spans));
            tracer.submit(TraceRecord {
                trace: TripTrace {
                    trace_id: digest,
                    seq,
                    samples: report.samples,
                    events: events.unwrap_or_default(),
                    outcome,
                    wal_seq,
                },
                worker,
                spans,
            });
        }
        report
    }

    /// Runs one store I/O operation with bounded retries and capped
    /// exponential backoff, counting every retry. Transient failures
    /// (EINTR, a hiccuping filesystem) heal invisibly; a persistent one
    /// surfaces as the final error for the caller to fail-stop on.
    fn retry_store_io<T>(
        &self,
        what: &str,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        let mut delay = Duration::from_millis(STORE_IO_BACKOFF_BASE_MS);
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if attempt < STORE_IO_RETRIES => {
                    attempt += 1;
                    self.metrics.store_io_retries.inc();
                    busprobe_telemetry::event(
                        Level::Warn,
                        "core::store",
                        format!(
                            "{what} failed (attempt {attempt}/{STORE_IO_RETRIES}), \
                             retrying in {delay:?}: {e}"
                        ),
                    );
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(STORE_IO_BACKOFF_CAP_MS));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Degrades durability to an attributed fail-stop after store I/O
    /// exhausted its retries: the store is detached (no further appends
    /// are attempted), the failure is counted, logged at error level and
    /// latched in [`store_failed`](Self::store_failed). Ingestion itself
    /// continues — availability over durability, and never a panic.
    fn fail_stop_store(&self, guard: &mut Option<AttachedStore>, what: &str, e: &io::Error) {
        self.metrics.store_failstop.inc();
        self.store_failed.store(true, AtomicOrdering::Release);
        *guard = None;
        busprobe_telemetry::event(
            Level::Error,
            "core::store",
            format!(
                "{what} still failing after {STORE_IO_RETRIES} retries; \
                 durability fail-stop, store detached: {e}"
            ),
        );
    }

    /// Whether store I/O fail-stopped: commits since the latch are not
    /// durable, and resident frontends should drain and exit with
    /// diagnostics instead of silently serving non-durable acks.
    #[must_use]
    pub fn store_failed(&self) -> bool {
        self.store_failed.load(AtomicOrdering::Acquire)
    }

    /// Queues one commit record for the attached store (a no-op without
    /// one), appending the buffered group as one WAL frame when the
    /// group window fills, and auto-checkpoints on the configured
    /// cadence. Returns the record's WAL sequence number — deterministic
    /// even while buffered, because appends happen in commit order — or
    /// `None` when no store is attached or the append failed.
    ///
    /// An append failure is retried with backoff; exhausting the retries
    /// degrades durability, never availability: the failure is counted,
    /// logged, latched via [`store_failed`](Self::store_failed), and
    /// ingestion continues.
    fn log_commit(&self, record: CommitRecord) -> Option<u64> {
        let mut guard = self.store.lock();
        let attached = guard.as_mut()?;
        let payload = WalRecord::Commit(record).encode();
        let snapshot_every = attached.snapshot_every;
        let group_every = attached.group_every.max(1);
        // The sequence number this record will carry once its group
        // flushes: the store's next sequence plus the records queued
        // ahead of it in the window.
        let wal_seq = attached.store.next_seq() + attached.pending.len() as u64;
        attached.pending.push(payload);
        let mut flushed = None;
        if attached.pending.len() as u64 >= group_every {
            match self.flush_group(&mut guard) {
                Ok(range) => flushed = range,
                Err(_) => {
                    drop(guard);
                    return None;
                }
            }
        }
        drop(guard);
        self.snapshot_if_due(snapshot_every, flushed);
        Some(wal_seq)
    }

    /// Appends the buffered commit group (if any) to the WAL as one
    /// frame. On success returns the flushed sequence range
    /// `[first, end)`; on exhausted retries the store is fail-stopped
    /// and the error returned.
    fn flush_group(&self, guard: &mut Option<AttachedStore>) -> io::Result<Option<(u64, u64)>> {
        let Some(attached) = guard.as_mut() else {
            return Ok(None);
        };
        if attached.pending.is_empty() {
            return Ok(None);
        }
        let pending = std::mem::take(&mut attached.pending);
        match self.retry_store_io("WAL group append", || attached.store.append_group(&pending)) {
            Ok(first) => Ok(Some((first, first + pending.len() as u64))),
            Err(e) => {
                self.metrics.store_append_errors.inc();
                self.fail_stop_store(guard, "WAL group append", &e);
                Err(e)
            }
        }
    }

    /// Runs a periodic checkpoint when the flushed sequence range
    /// `[first, end)` crossed the snapshot cadence — the grouped
    /// generalization of "every `snapshot_every`-th record snapshots",
    /// to which it degenerates exactly at a group window of one.
    fn snapshot_if_due(&self, snapshot_every: u64, flushed: Option<(u64, u64)>) {
        let Some((first, end)) = flushed else {
            return;
        };
        if snapshot_every == 0 || end / snapshot_every == first / snapshot_every {
            return;
        }
        if let Err(e) = self.checkpoint() {
            busprobe_telemetry::event(
                Level::Warn,
                "core::store",
                format!("periodic checkpoint failed: {e}"),
            );
        }
    }

    /// Flushes any buffered commit group to the WAL — the batch-ingest
    /// reorder-buffer boundary — honoring the snapshot cadence for the
    /// flushed range. Flush failures have already fail-stopped the store
    /// and are not propagated: batch ingest, like per-upload ingest,
    /// degrades durability rather than availability.
    pub(crate) fn flush_wal_group(&self) {
        let mut guard = self.store.lock();
        let snapshot_every = guard.as_ref().map_or(0, |a| a.snapshot_every);
        let flushed = self.flush_group(&mut guard).unwrap_or(None);
        drop(guard);
        self.snapshot_if_due(snapshot_every, flushed);
    }

    /// Appends a refresh marker to the attached store (a no-op without
    /// one), sequencing the database refresh among the commits. Any
    /// buffered commit group flushes first so the log preserves the
    /// mutation order.
    fn log_refresh(&self) {
        let mut guard = self.store.lock();
        let snapshot_every = guard.as_ref().map_or(0, |a| a.snapshot_every);
        let Ok(flushed) = self.flush_group(&mut guard) else {
            return;
        };
        let Some(attached) = guard.as_mut() else {
            return;
        };
        let payload = WalRecord::Refresh.encode();
        if let Err(e) =
            self.retry_store_io("WAL refresh append", || attached.store.append(&payload))
        {
            self.metrics.store_append_errors.inc();
            self.fail_stop_store(&mut guard, "WAL refresh append", &e);
        }
        drop(guard);
        self.snapshot_if_due(snapshot_every, flushed);
    }

    /// Seeds a report with the raw sample count and sanitizer accounting.
    fn base_report(raw_samples: usize, san: &SanitizeReport) -> IngestReport {
        IngestReport {
            samples: raw_samples,
            kept: san.samples_kept,
            quarantined: san.quarantined(),
            scrubbed: san.observations_scrubbed,
            clock_skew_s: san.clock_skew_s,
            ..IngestReport::default()
        }
    }

    /// Folds one upload's sanitizer accounting into the global counters.
    fn record_sanitize(&self, san: &SanitizeReport) {
        self.metrics
            .samples_quarantined
            .add(san.quarantined() as u64);
        self.metrics
            .observations_scrubbed
            .add(san.observations_scrubbed as u64);
        self.metrics
            .samples_deduplicated
            .add(san.duplicates_suppressed as u64);
        self.metrics.samples_reordered.add(san.reordered as u64);
        if san.clock_skew_s != 0.0 {
            self.metrics.clock_normalized_trips.inc();
        }
    }

    /// Folds one committed upload's pipeline stage counts into the global
    /// volume counters (the mutation half of the old inline accounting;
    /// the stage phase only fills the report).
    fn note_pipeline_counters(&self, report: &IngestReport) {
        self.metrics.scans_matched.add(report.matched as u64);
        self.metrics
            .scans_unmatched
            .add(report.unmatched_scans() as u64);
        self.metrics.clusters.add(report.clusters as u64);
        self.metrics.visits_mapped.add(report.visits as u64);
        if report.salvage_dropped > 0 {
            self.metrics.salvaged_trips.inc();
            self.metrics
                .salvage_dropped_visits
                .add(report.salvage_dropped as u64);
        }
        self.metrics.observations.add(report.observations as u64);
    }

    /// Attribute a zero-observation (non-duplicate) trip to the stage
    /// that dropped it.
    fn count_drop(&self, report: &IngestReport) {
        match report.drop_reason() {
            Some(DropReason::RejectedNearDuplicate) => self.metrics.drop_near_duplicate.inc(),
            Some(DropReason::Malformed) => self.metrics.drop_malformed.inc(),
            Some(DropReason::UnmatchedScans) => self.metrics.drop_unmatched_scans.inc(),
            Some(DropReason::Unmapped) => self.metrics.drop_unmapped.inc(),
            Some(DropReason::TooFewVisits) => self.metrics.drop_too_few_visits.inc(),
            // Duplicates and internal errors are counted at their own
            // sites; admission-layer reasons never come out of an
            // IngestReport (they fire before staging, in the serve
            // frontend) but the match stays wildcard-free on purpose.
            Some(
                DropReason::RejectedDuplicate
                | DropReason::InternalError
                | DropReason::ShedQueueFull
                | DropReason::ShedDeadline
                | DropReason::Oversized
                | DropReason::Unparseable,
            )
            | None => {}
        }
        if let Some(reason) = report.drop_reason() {
            busprobe_telemetry::event(
                Level::Debug,
                "core::ingest",
                format!("trip dropped: {reason:?} ({} samples)", report.samples),
            );
        }
    }

    /// The pure half of the updater harvest: which (site, fingerprint,
    /// confidence) triples this trip contributes — for every
    /// confidently-identified visit, the samples taken during that visit
    /// are fresh fingerprints of that stop. Mirrors
    /// [`DbUpdater::record`]'s filters exactly, so the returned entries
    /// are precisely the ones the updater will retain: the list can be
    /// logged and replayed verbatim.
    fn harvest_entries(
        &self,
        samples: &[CellularSample],
        visits: &[MappedVisit],
    ) -> Vec<HarvestEntry> {
        let mut entries = Vec::new();
        for visit in visits {
            if visit.confidence < self.config.updater.min_confidence {
                continue;
            }
            for sample in samples {
                if sample.time_s >= visit.arrival_s - 1.0
                    && sample.time_s <= visit.departure_s + 1.0
                {
                    let fingerprint = sample.scan.fingerprint();
                    if fingerprint.is_empty() {
                        continue;
                    }
                    entries.push(HarvestEntry {
                        site: visit.site,
                        fingerprint,
                        confidence: visit.confidence,
                    });
                }
            }
        }
        entries
    }

    /// Feeds one trip's harvest into the online updater, in entry order.
    fn apply_harvest(&self, entries: &[HarvestEntry]) {
        if entries.is_empty() {
            return;
        }
        let mut updater = self.updater.lock();
        for entry in entries {
            updater.record(entry.site, entry.fingerprint.clone(), entry.confidence);
        }
    }

    /// Applies the online updater: stops with enough fresh harvested
    /// samples get their fingerprints re-elected and applied to the live
    /// matcher *incrementally* — each promoted entry goes through
    /// [`Matcher::insert`], which keeps the inverted index exact without
    /// rebuilding it. Returns how many entries changed.
    pub fn refresh_database(&self) -> usize {
        let _span = self.metrics.span_refresh();
        let changes = {
            let matcher = self.matcher.read();
            self.updater
                .lock()
                .refresh_changes(matcher.db(), &self.config.matching)
        };
        let changed = changes.len();
        if changed > 0 {
            let mut matcher = self.matcher.write();
            for (site, fp) in changes {
                matcher.insert(site, fp);
            }
            drop(matcher);
            self.metrics.db_promotions.add(changed as u64);
            busprobe_telemetry::event(
                Level::Info,
                "core::updater",
                format!("database refresh promoted {changed} fingerprints"),
            );
        }
        // The refresh consumed pending harvest and possibly rewrote the
        // database; sequence it in the log so replay re-runs the same
        // (deterministic) election at the same point.
        self.log_refresh();
        changed
    }

    /// Attaches a durable store: every subsequent commit appends one WAL
    /// record, and (when `snapshot_every > 0`) every `snapshot_every`-th
    /// record also triggers a full-state snapshot plus log compaction.
    ///
    /// Appends happen inside the ordered commit phase, so the log is a
    /// faithful serialization of the monitor's one mutation stream —
    /// parallel ingest produces the same log as serial ingest.
    pub fn attach_store(&self, store: Store, snapshot_every: u64) {
        self.attach_store_grouped(store, snapshot_every, 1);
    }

    /// [`attach_store`](Self::attach_store) with a group-commit window:
    /// commits buffer in-process and append as one WAL group frame per
    /// `group_every` commits (and at every fsync, checkpoint, refresh,
    /// batch boundary and detach), so the ordered commit phase pays one
    /// frame — and, for callers gating acknowledgements on
    /// [`sync_store`](Self::sync_store), one fsync — per window instead
    /// of per trip. Recovery replays group members to the exact
    /// per-record state; a window of 1 produces a byte-identical log to
    /// ungrouped operation. A SIGKILL can lose at most the buffered
    /// window — never an upload acknowledged after a sync.
    pub fn attach_store_grouped(&self, store: Store, snapshot_every: u64, group_every: u64) {
        *self.store.lock() = Some(AttachedStore {
            store,
            snapshot_every,
            group_every: group_every.max(1),
            pending: Vec::new(),
        });
    }

    /// Whether a durable store is attached.
    #[must_use]
    pub fn has_store(&self) -> bool {
        self.store.lock().is_some()
    }

    /// The WAL sequence number the next commit will receive, if a store
    /// is attached — counting commits still buffered in the current
    /// group window.
    #[must_use]
    pub fn store_seq(&self) -> Option<u64> {
        self.store
            .lock()
            .as_ref()
            .map(|a| a.store.next_seq() + a.pending.len() as u64)
    }

    /// Flushes and fsyncs the attached store's WAL, making every commit
    /// appended so far durable against a crash. No-op when no store is
    /// attached. Appends are otherwise buffered and reach the OS at
    /// rotation, checkpoints and drop.
    ///
    /// A failing fsync is retried with backoff; exhaustion fail-stops
    /// durability (store detached, [`store_failed`](Self::store_failed)
    /// latched) *and* returns the error, so callers gating
    /// acknowledgements on durability never release them.
    pub fn sync_store(&self) -> io::Result<()> {
        let mut guard = self.store.lock();
        if guard.is_none() {
            return Ok(());
        }
        // A partial group window flushes (as a smaller group frame)
        // before the fsync, so "synced" always means "every commit so
        // far is on disk" — the acknowledgement contract is unchanged
        // by group commit.
        let snapshot_every = guard.as_ref().map_or(0, |a| a.snapshot_every);
        let flushed = self.flush_group(&mut guard)?;
        let Some(attached) = guard.as_mut() else {
            return Ok(());
        };
        if let Err(e) = self.retry_store_io("WAL fsync", || attached.store.sync()) {
            self.fail_stop_store(&mut guard, "WAL fsync", &e);
            return Err(e);
        }
        drop(guard);
        self.snapshot_if_due(snapshot_every, flushed);
        Ok(())
    }

    /// Writes a full-state snapshot covering every record appended so
    /// far, then compacts covered WAL segments. Returns the snapshot's
    /// coverage sequence number, or `None` when no store is attached.
    ///
    /// Call between batches (not concurrently with an in-flight ingest),
    /// so the snapshot observes a commit boundary.
    pub fn checkpoint(&self) -> io::Result<Option<u64>> {
        let mut guard = self.store.lock();
        if guard.is_none() {
            return Ok(None);
        }
        // The snapshot must cover every commit, including a buffered
        // partial group; flush it first so coverage equals commit count.
        self.flush_group(&mut guard)?;
        let Some(attached) = guard.as_mut() else {
            return Ok(None);
        };
        let state = self.persisted_state(attached.store.next_seq());
        let payload = serde_json::to_vec(&state)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        attached.store.checkpoint(&payload).map(Some)
    }

    /// The complete durable state, as of `commits` WAL records.
    fn persisted_state(&self, commits: u64) -> PersistedState {
        let mut seen: Vec<u64> = self.seen.lock().iter().copied().collect();
        seen.sort_unstable();
        PersistedState {
            commits,
            config: self.config,
            fusion: self.fusion.lock().clone(),
            database: self.database(),
            seen,
            updater: self.updater.lock().clone(),
        }
    }

    /// Rebuilds a monitor from the store directory `dir`: loads the
    /// newest valid snapshot (falling back to a cold start from
    /// `initial_db` when none survives) and replays the WAL tail in
    /// sequence order through the same mutation code the commits ran.
    /// Because every record was written at its commit — the monitor's one
    /// mutation point — the recovered state is bit-identical to a monitor
    /// that never crashed.
    ///
    /// Disk damage is survived, counted and attributed, never fatal: torn
    /// tails and corrupt records are skipped, costing at most those
    /// uploads (which simply become re-ingestable). The only hard error
    /// besides I/O is a snapshot whose framing validates but whose
    /// content doesn't parse — a version mismatch that silent replay
    /// would turn into silently wrong state.
    ///
    /// The returned monitor has *no* store attached; to resume appending,
    /// open a [`Store`] on the same directory and call
    /// [`attach_store`](Self::attach_store).
    pub fn recover(
        network: TransitNetwork,
        initial_db: StopFingerprintDb,
        config: MonitorConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<(Self, RecoverySummary)> {
        Self::recover_shared(Arc::new(network), initial_db, config, dir)
    }

    /// [`recover`](Self::recover) over an already-shared network — the
    /// multi-directory recovery entry point: a sharded city recovers
    /// one monitor per `shard-NNNN` store directory, all borrowing the
    /// same network.
    pub fn recover_shared(
        network: Arc<TransitNetwork>,
        initial_db: StopFingerprintDb,
        config: MonitorConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<(Self, RecoverySummary)> {
        let recovered = Store::recover(dir.as_ref())?;
        let (monitor, snapshot_seq, mut commits) = match &recovered.snapshot {
            Some((seq, payload)) => {
                let state: PersistedState = serde_json::from_slice(payload).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("snapshot {seq} is framed correctly but not decodable: {e:?}"),
                    )
                })?;
                if state.config != config {
                    busprobe_telemetry::event(
                        Level::Warn,
                        "core::store",
                        "recovered snapshot was written under a different configuration; \
                         replay is well-defined but no longer matches the original run",
                    );
                }
                let commits = state.commits.max(*seq);
                let monitor = TrafficMonitor {
                    network,
                    matcher: RwLock::new(Matcher::new(state.database, config.matching)),
                    clusterer: Clusterer::new(config.clustering),
                    updater: Mutex::new(state.updater),
                    config,
                    fusion: Mutex::new(state.fusion),
                    seen: Mutex::new(state.seen.into_iter().collect()),
                    metrics: PipelineMetrics::new(),
                    store: Mutex::new(None),
                    tracer: RwLock::new(None),
                    committed: AtomicU64::new(0),
                    store_failed: AtomicBool::new(false),
                };
                (monitor, Some(*seq), commits)
            }
            None => (
                TrafficMonitor::new_shared(network, initial_db, config),
                None,
                0,
            ),
        };

        let mut replayed_commits = 0u64;
        let mut replayed_refreshes = 0u64;
        let mut undecodable = 0u64;
        for (seq, payload) in &recovered.records {
            match WalRecord::decode(payload) {
                Ok(WalRecord::Commit(record)) => {
                    monitor.apply_commit(&record);
                    replayed_commits += 1;
                    commits = commits.max(seq + 1);
                }
                Ok(WalRecord::Refresh) => {
                    monitor.refresh_database();
                    replayed_refreshes += 1;
                    commits = commits.max(seq + 1);
                }
                Err(e) => {
                    // The frame CRC passed but the payload didn't parse:
                    // count it with the store's skip attribution.
                    undecodable += 1;
                    busprobe_telemetry::global()
                        .counter("busprobe_store_replay_skipped_total")
                        .inc();
                    busprobe_telemetry::event(
                        Level::Warn,
                        "core::store",
                        format!("WAL record {seq} undecodable ({e:?}); skipped"),
                    );
                }
            }
        }
        let summary = RecoverySummary {
            wal_segments: recovered.report.segments,
            snapshot_seq,
            commits,
            replayed_commits,
            replayed_refreshes,
            skipped_records: recovered.report.skipped_records() + undecodable,
            corrupt_tails: recovered.report.corrupt_tails(),
            snapshots_skipped: recovered.snapshots_skipped,
            duration_s: recovered.duration_s,
        };
        busprobe_telemetry::event(
            Level::Info,
            "core::store",
            format!(
                "recovered {} commits ({} replayed, {} skipped) in {:.3}s",
                summary.commits,
                summary.replayed_commits + summary.replayed_refreshes,
                summary.skipped_records,
                summary.duration_s
            ),
        );
        // Trace sequence numbers continue from the recovered commit
        // count, as they would on a monitor that never crashed.
        monitor
            .committed
            .store(summary.commits, AtomicOrdering::Relaxed);
        Ok((monitor, summary))
    }

    /// Replays one logged commit, mirroring `commit_inner`'s mutation
    /// order exactly: seen-set insert → near-digest registration →
    /// updater harvest → fusion. Reports, telemetry and drop attribution
    /// are *not* replayed — they were already delivered when the record
    /// was written.
    fn apply_commit(&self, record: &CommitRecord) {
        if !self.seen.lock().insert(record.digest) {
            return;
        }
        if let Some(digests) = &record.near_digests {
            let mut seen = self.seen.lock();
            let dup = digests.iter().any(|d| seen.contains(d));
            seen.extend(digests.iter().copied());
            drop(seen);
            if dup {
                return;
            }
        }
        self.apply_harvest(&record.harvest);
        let mut fusion = self.fusion.lock();
        for obs in &record.observations {
            fusion.observe(obs.key, obs.time_s, obs.speed_mps, obs.variance);
        }
    }

    /// Attaches (or, with `None`, detaches) a per-upload decision-
    /// provenance sink: every subsequent commit finalizes a
    /// [`TripTrace`] and submits it under the tracer's sampling policy.
    ///
    /// Tracing never changes what the pipeline decides — traced and
    /// untraced runs produce bit-identical reports, state and maps —
    /// and a detached tracer costs one lock check per upload (<1% of
    /// ingest, gated in CI).
    pub fn set_trace_sink(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    /// The attached decision-provenance sink, if any.
    #[must_use]
    pub fn trace_sink(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().clone()
    }

    /// A point-in-time snapshot of the pipeline's telemetry: stage
    /// wall-times, volume counters, drop reasons and recent events.
    ///
    /// Instruments live in the process-wide registry (named
    /// `busprobe_core_*`), so monitors in one process share counters.
    #[must_use]
    pub fn telemetry(&self) -> busprobe_telemetry::Snapshot {
        busprobe_telemetry::snapshot()
    }

    /// A copy of the current fingerprint database (for persistence).
    #[must_use]
    pub fn database(&self) -> StopFingerprintDb {
        self.matcher.read().db().clone()
    }

    /// Snapshots the server's mutable state for persistence.
    #[must_use]
    pub fn export_state(&self) -> MonitorState {
        MonitorState {
            fusion: self.fusion.lock().clone(),
            database: self.database(),
            seen: self.seen.lock().iter().copied().collect(),
        }
    }

    /// Reconstructs a monitor from a persisted state (server restart).
    #[must_use]
    pub fn restore(network: TransitNetwork, config: MonitorConfig, state: MonitorState) -> Self {
        TrafficMonitor {
            network: Arc::new(network),
            matcher: RwLock::new(Matcher::new(state.database, config.matching)),
            clusterer: Clusterer::new(config.clustering),
            updater: Mutex::new(DbUpdater::new(config.updater)),
            config,
            fusion: Mutex::new(state.fusion),
            seen: Mutex::new(state.seen.into_iter().collect()),
            metrics: PipelineMetrics::new(),
            store: Mutex::new(None),
            tracer: RwLock::new(None),
            committed: AtomicU64::new(0),
            store_failed: AtomicBool::new(false),
        }
    }

    /// Runs the pipeline on one trip *without* touching the shared traffic
    /// state, returning the diagnostics and the raw per-segment speed
    /// observations. Useful for evaluation harnesses that bucket
    /// observations themselves. The trip is sanitized first (without a
    /// server-side arrival time, so clock normalization is skipped).
    #[must_use]
    pub fn observations_for(&self, trip: &Trip) -> (IngestReport, Vec<SpeedObservation>) {
        let (samples, san) = sanitize::sanitize(&trip.samples, None, &self.config.sanitize);
        let mut report = Self::base_report(trip.samples.len(), &san);
        let (_, observations) = self.run_stages(&samples, &mut report, None);
        self.note_pipeline_counters(&report);
        (report, observations)
    }

    /// The full §III-C/§III-D pipeline for one sanitized upload: matching
    /// → clustering → mapping → estimation. Fills the stage fields of
    /// `report` in place. Read-only with respect to the monitor (the
    /// matcher is taken through its read guard), so stage workers may run
    /// it concurrently; the volume counters it used to bump inline are
    /// applied at commit by
    /// [`note_pipeline_counters`](Self::note_pipeline_counters).
    fn run_stages(
        &self,
        samples: &[CellularSample],
        report: &mut IngestReport,
        mut trace: Option<&mut TraceDraft>,
    ) -> (Vec<MappedVisit>, Vec<SpeedObservation>) {
        let _pipeline_span = self.metrics.span_pipeline();
        let now = |on: bool| on.then(busprobe_telemetry::clock_ns);

        // Trip-level batch matching (γ filter included). Samples within a
        // trip hear the same few stops, so the batch scorer deduplicates
        // repeated cell sequences and shares one index probe across the
        // whole upload — bit-identical to a per-sample `best_match` loop.
        let trace_start = now(trace.is_some());
        let span = self.metrics.span_matching();
        let matcher = self.matcher.read();
        let fps: Vec<_> = samples.iter().map(|s| s.scan.fingerprint()).collect();
        let matched: Vec<MatchedSample> = matcher
            .match_trip(&fps)
            .into_iter()
            .zip(samples)
            .filter_map(|(hit, s)| {
                hit.map(|hit| MatchedSample {
                    time_s: s.time_s,
                    site: hit.site,
                    score: hit.score,
                })
            })
            .collect();
        if let Some(draft) = trace.as_mut() {
            // Full deliberation (candidates, margin, pruning) for the
            // first scans; pure reads of the same matcher state the
            // decision used, so traced and untraced results agree.
            let as_candidate = |r: crate::matching::MatchResult| CandidateScore {
                site: r.site.0,
                score: r.score,
                common_cells: r.common_cells,
            };
            for (i, fp) in fps.iter().take(TRACE_DETAIL).enumerate() {
                let explanation = matcher.explain(fp);
                draft.events.push(TraceEvent::MatchDecision {
                    scan: i,
                    winner: explanation.winner.map(as_candidate),
                    runner_up: explanation.runner_up.map(as_candidate),
                    best_rejected: explanation.best_rejected.map(as_candidate),
                    considered: explanation.considered,
                    pruned: explanation.pruned,
                });
            }
            draft.events.push(TraceEvent::MatchSummary {
                scans: samples.len(),
                matched: matched.len(),
                detailed: samples.len().min(TRACE_DETAIL),
            });
        }
        drop(matcher);
        span.finish();
        if let (Some(draft), Some(t0)) = (trace.as_mut(), trace_start) {
            draft.record_span("matching", t0);
        }
        report.matched = matched.len();
        if matched.is_empty() {
            return (Vec::new(), Vec::new());
        }

        // Per-stop clustering.
        let trace_start = now(trace.is_some());
        let span = self.metrics.span_clustering();
        let clusters = self.clusterer.cluster(matched);
        span.finish();
        if let (Some(draft), Some(t0)) = (trace.as_mut(), trace_start) {
            draft.record_span("clustering", t0);
            draft.events.push(TraceEvent::Clustering {
                clusters: clusters.len(),
            });
        }
        report.clusters = clusters.len();

        // Per-trip mapping with partial-trip salvage: keep the longest
        // route-consistent run instead of dropping a noisy trip whole.
        let trace_start = now(trace.is_some());
        let span = self.metrics.span_mapping();
        let mapper = TripMapper::new(&self.network);
        let mapped = mapper.map_trip_salvaged(&clusters);
        span.finish();
        if let (Some(draft), Some(t0)) = (trace.as_mut(), trace_start) {
            draft.record_span("mapping", t0);
        }
        let Some((visits, salvage_dropped)) = mapped else {
            return (Vec::new(), Vec::new());
        };
        if let Some(draft) = trace.as_mut() {
            let confidences = visits.iter().map(|v| v.confidence);
            draft.events.push(TraceEvent::Mapping {
                visits: visits.len(),
                salvage_dropped,
                min_confidence: confidences.clone().fold(f64::INFINITY, f64::min),
                max_confidence: confidences.fold(f64::NEG_INFINITY, f64::max),
            });
        }
        report.visits = visits.len();
        report.salvage_dropped = salvage_dropped;

        // Traffic estimation.
        let trace_start = now(trace.is_some());
        let span = self.metrics.span_estimation();
        let estimator = TripEstimator::new(&self.network, self.config.estimation);
        let observations = estimator.estimate(&visits);
        span.finish();
        if let (Some(draft), Some(t0)) = (trace.as_mut(), trace_start) {
            draft.record_span("estimation", t0);
        }
        report.observations = observations.len();
        (visits, observations)
    }

    /// Ingests many trips using all available cores; returns per-trip
    /// reports in input order. Deterministic: the final monitor state,
    /// reports and exported map are bit-identical to ingesting the trips
    /// serially, whatever the core count (see [`crate::parallel`]).
    #[must_use]
    pub fn ingest_batch(&self, trips: &[Trip]) -> Vec<IngestReport> {
        self.ingest_batch_parallel(trips, 0)
    }

    /// [`ingest_batch`](Self::ingest_batch) with per-trip server-side
    /// arrival times (parallel uploads from a faulted batch). `received_s`
    /// is matched to `trips` by index; trips beyond its length ingest
    /// without an arrival time.
    #[must_use]
    pub fn ingest_batch_received(&self, trips: &[Trip], received_s: &[f64]) -> Vec<IngestReport> {
        self.ingest_batch_received_parallel(trips, received_s, 0)
    }

    /// [`ingest_batch`](Self::ingest_batch) with an explicit worker count
    /// (`0` = all available cores). Any worker count — including 1 —
    /// produces bit-identical reports, state and maps: stages run on a
    /// work-stealing shard pool, commits are applied in upload order by a
    /// sequence-numbered reducer.
    #[must_use]
    pub fn ingest_batch_parallel(&self, trips: &[Trip], workers: usize) -> Vec<IngestReport> {
        let _batch_span = self.metrics.span_ingest_batch();
        crate::parallel::ingest_batch(self, trips, None, workers)
    }

    /// [`ingest_batch_parallel`](Self::ingest_batch_parallel) with
    /// per-trip server-side arrival times.
    #[must_use]
    pub fn ingest_batch_received_parallel(
        &self,
        trips: &[Trip],
        received_s: &[f64],
        workers: usize,
    ) -> Vec<IngestReport> {
        let _batch_span = self.metrics.span_ingest_batch();
        crate::parallel::ingest_batch(self, trips, Some(received_s), workers)
    }

    /// Publishes the instant traffic map as of `time_s`, keeping segments
    /// updated within the last 30 minutes (six refresh periods).
    #[must_use]
    pub fn snapshot(&self, time_s: f64) -> TrafficMap {
        TrafficMap::from_fusion(&self.fusion.lock(), time_s, 1800.0)
    }

    /// Publishes a map with an explicit staleness horizon.
    #[must_use]
    pub fn snapshot_with_max_age(&self, time_s: f64, max_age_s: f64) -> TrafficMap {
        TrafficMap::from_fusion(&self.fusion.lock(), time_s, max_age_s)
    }

    /// The retained speed time series of one segment: `(window start
    /// seconds, mean speed km/h)` per 5-minute reporting period — the
    /// Fig. 10 curve for that segment.
    #[must_use]
    pub fn speed_series_kmh(&self, key: busprobe_network::SegmentKey) -> Vec<(f64, f64)> {
        self.fusion
            .lock()
            .window_series(key)
            .into_iter()
            .map(|(t, b)| (t, b.mean_mps * 3.6))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_cellular::{DeploymentSpec, PropagationModel, Scanner, TowerDeployment};
    use busprobe_mobile::CellularSample;
    use busprobe_network::NetworkGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// Builds a monitor whose DB holds noise-free fingerprints of every
    /// site, plus the scanner to fabricate uploads.
    fn setup(seed: u64) -> (TrafficMonitor, Scanner) {
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
    fn ride(
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
        let report = monitor.ingest_trip(&trip);
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
        let report = monitor.ingest_trip(&Trip { samples: vec![] });
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
        let report = monitor.ingest_trip(&trip);
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
        let seq: Vec<IngestReport> = trips.iter().map(|t| monitor_a.ingest_trip(t)).collect();
        let par = monitor_b.ingest_batch(&trips);
        assert_eq!(seq, par, "parallel ingest must match sequential reports");
        // Final maps agree too (fusion is order-insensitive for equal
        // variances... up to aging; compare coverage).
        assert_eq!(monitor_a.snapshot(1e4).len(), monitor_b.snapshot(1e4).len());
    }

    #[test]
    fn snapshot_age_filter_applies() {
        let (monitor, scanner) = setup(11);
        let trip = ride(&monitor, &scanner, 4, 2, 90.0, 3);
        monitor.ingest_trip(&trip);
        assert!(!monitor.snapshot_with_max_age(400.0, 1800.0).is_empty());
        assert!(monitor.snapshot_with_max_age(1e6, 60.0).is_empty());
    }

    #[test]
    fn state_survives_a_restart() {
        let (monitor, scanner) = setup(13);
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 6);
        monitor.ingest_trip(&trip);
        let before = monitor.snapshot(600.0);
        assert!(!before.is_empty());

        // Persist to JSON, restart, restore.
        let state_json = serde_json::to_string(&monitor.export_state()).unwrap();
        let state: MonitorState = serde_json::from_str(&state_json).unwrap();
        let restored = TrafficMonitor::restore(monitor.network().clone(), *monitor.config(), state);

        // The map is identical and a duplicate replay is still rejected.
        assert_eq!(restored.snapshot(600.0), before);
        let report = restored.ingest_trip(&trip);
        assert!(report.duplicate, "seen-set survives the restart");
        // Fresh traffic keeps flowing into the restored state.
        let trip2 = ride(&restored, &scanner, 5, 3, 85.0, 7);
        let report2 = restored.ingest_trip(&trip2);
        assert!(!report2.duplicate);
        assert!(report2.observations > 0);
    }

    #[test]
    fn estimated_speeds_are_physical() {
        let (monitor, scanner) = setup(12);
        let trip = ride(&monitor, &scanner, 6, 3, 75.0, 4);
        monitor.ingest_trip(&trip);
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
        for reason in DropReason::ALL {
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
        let report = monitor.ingest_trip(&good);
        assert!(report.observations > 0, "{report:?}");
        monitor.ingest_trip(&good); // byte-identical retry
        let garbage = Trip {
            samples: (0..5)
                .map(|k| CellularSample {
                    time_s: k as f64 * 10.0,
                    scan: busprobe_cellular::CellScan::new(vec![]),
                })
                .collect(),
        };
        monitor.ingest_trip(&garbage);

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

    fn store_scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("busprobe-core-retry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn transient_store_faults_heal_with_retries() {
        let (monitor, scanner) = setup(50);
        let dir = store_scratch("heal");
        let mut store = Store::open(&dir).unwrap();
        // Two hiccups: well inside the retry budget, so the append must
        // eventually land and durability must survive untouched.
        store.inject_io_faults(2, 0);
        monitor.attach_store(store, 0);
        let before = monitor.metrics.store_io_retries.get();
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 1);
        let report = monitor.ingest_trip(&trip);
        assert!(report.observations > 0, "{report:?}");
        assert_eq!(
            monitor.metrics.store_io_retries.get() - before,
            2,
            "each injected fault costs exactly one retry"
        );
        assert!(!monitor.store_failed(), "store healed, no fail-stop");
        assert!(monitor.has_store(), "store stays attached");
        assert_eq!(monitor.store_seq(), Some(1), "the commit reached the WAL");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_store_retries_fail_stop_without_panicking() {
        let (monitor, scanner) = setup(51);
        let dir = store_scratch("failstop");
        let mut store = Store::open(&dir).unwrap();
        // More consecutive faults than the retry budget: the append can
        // never land, so durability must degrade to an attributed
        // fail-stop while ingestion keeps going.
        store.inject_io_faults(STORE_IO_RETRIES + 2, 0);
        monitor.attach_store(store, 0);
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 1);
        let report = monitor.ingest_trip(&trip);
        assert!(report.observations > 0, "the commit itself still lands");
        assert!(monitor.store_failed(), "fail-stop latched");
        assert!(!monitor.has_store(), "store detached on fail-stop");
        assert!(
            monitor.metrics.store_failstop.get() >= 1,
            "fail-stop attributed in telemetry"
        );
        // Availability over durability: later uploads still ingest.
        let trip2 = ride(&monitor, &scanner, 5, 3, 85.0, 2);
        let report2 = monitor.ingest_trip(&trip2);
        assert!(report2.observations > 0, "{report2:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_sync_returns_err_after_fail_stop() {
        let (monitor, scanner) = setup(52);
        let dir = store_scratch("syncfail");
        let mut store = Store::open(&dir).unwrap();
        store.inject_io_faults(0, STORE_IO_RETRIES + 2);
        monitor.attach_store(store, 0);
        let trip = ride(&monitor, &scanner, 5, 3, 80.0, 1);
        monitor.ingest_trip(&trip);
        // An ack-gating caller must see the failure, not a silent Ok.
        assert!(monitor.sync_store().is_err(), "exhausted sync surfaces");
        assert!(monitor.store_failed());
        assert!(!monitor.has_store());
        // Once detached, sync is a no-op again.
        assert!(monitor.sync_store().is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
