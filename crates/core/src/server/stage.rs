//! Phase 1 of ingest: the read-only, speculative stages — sanitize →
//! match → cluster → map → estimate — and the [`StagedUpload`] they
//! hand to the commit phase.

use super::{IngestReport, TrafficMonitor, TRACE_DETAIL};
use crate::clustering::MatchedSample;
use crate::estimation::{SpeedObservation, TripEstimator};
use crate::mapping::{MappedVisit, TripMapper};
use crate::matching::MatchResult;
use crate::sanitize::{self, SanitizeReport};
use busprobe_mobile::{CellularSample, Trip};
use busprobe_telemetry::{Span, Stage, StageSpan};
use busprobe_trace::{CandidateScore, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The speculative result of the read-only ingest stages for one upload —
/// everything `commit_staged` needs to fold the trip into shared state
/// without recomputing anything.
///
/// Produced by `stage_upload` on any worker thread; consumed exactly
/// once, in upload sequence order, by the committer.
#[derive(Debug, Default)]
pub(crate) struct StagedUpload {
    /// Byte digest of the raw upload (exact-duplicate suppression).
    pub(super) digest: u64,
    /// Speculative per-trip report: sanitizer accounting plus pipeline
    /// stage counts. Discarded (except the raw sample count) if commit
    /// rejects the upload as a duplicate.
    pub(super) report: IngestReport,
    /// Sanitizer accounting, for the global counters.
    pub(super) san: SanitizeReport,
    /// Fuzzy content digests for near-duplicate suppression (two
    /// half-offset start windows); checked and recorded authoritatively
    /// at commit.
    pub(super) near_digests: Option<[u64; 2]>,
    /// Speed observations to fold into fusion.
    pub(super) observations: Vec<SpeedObservation>,
    /// Sanitized samples and mapped visits retained for the online
    /// database updater (only when `online_db_update` is configured).
    pub(super) harvest: Option<(Vec<CellularSample>, Vec<MappedVisit>)>,
    /// The pipeline panicked while staging; commit isolates the trip.
    pub(super) panicked: bool,
    /// Decision events and stage spans captured while staging, when a
    /// tracer is attached. Normalized at commit (where the authoritative
    /// duplicate verdicts land) so the finished trace is deterministic.
    pub(super) trace: Option<TraceDraft>,
}

impl StagedUpload {
    /// An upload staged no further than its digest: nothing sanitized,
    /// matched or traced. Every staging exit fills in what it got to.
    fn bare(digest: u64, samples: usize) -> Self {
        StagedUpload {
            digest,
            report: IngestReport {
                samples,
                ..IngestReport::default()
            },
            ..StagedUpload::default()
        }
    }
}

/// Trace state accumulated during the speculative stage phase.
///
/// The events recorded here are pure functions of the upload and the
/// matcher state, so they are identical at any worker count; the spans
/// and worker id are wall-clock context for the Chrome export only.
#[derive(Debug, Default)]
pub(crate) struct TraceDraft {
    /// Stage-phase decision events (matching, clustering, mapping).
    pub(super) events: Vec<TraceEvent>,
    /// Wall-clock stage spans on the shared process clock.
    pub(super) spans: Vec<StageSpan>,
    /// Stage-pool worker that staged the upload.
    pub(super) worker: Option<usize>,
}

impl TraceDraft {
    /// Keeps a finished stage's readings when tracing: the same readings
    /// the stage timers record, so tracing reads no clock of its own.
    fn note_span(draft: Option<&mut TraceDraft>, done: StageSpan) {
        if let Some(draft) = draft {
            draft.spans.push(done);
        }
    }
}

impl TrafficMonitor {
    /// Phase 1 of ingest: the read-only, speculative stages — sanitize →
    /// match → cluster → map → estimate. Touches no mutable monitor state,
    /// so any worker thread may run it concurrently with others; the
    /// result is folded in later by `commit_staged`.
    ///
    /// Never panics: a pipeline panic is captured in the staged result and
    /// surfaces as [`DropReason::InternalError`](super::DropReason) at
    /// commit.
    ///
    /// `worker` is the stage-pool worker index (None on the serial
    /// path), carried into the trace for the Chrome export's swimlanes.
    pub(crate) fn stage_upload(
        &self,
        trip: &Trip,
        received_s: Option<f64>,
        worker: Option<usize>,
    ) -> StagedUpload {
        let digest = Self::upload_digest(trip);
        catch_unwind(AssertUnwindSafe(|| {
            self.stage_inner(trip, digest, received_s, worker)
        }))
        .unwrap_or_else(|_| StagedUpload {
            panicked: true,
            ..StagedUpload::bare(digest, trip.samples.len())
        })
    }

    fn stage_inner(
        &self,
        trip: &Trip,
        digest: u64,
        received_s: Option<f64>,
        worker: Option<usize>,
    ) -> StagedUpload {
        let bare = StagedUpload::bare(digest, trip.samples.len());
        // Fast path: a digest present in the seen set stays there forever,
        // so commit is guaranteed to reject this upload as a duplicate —
        // skip the expensive stages. (A miss here is only a hint: commit
        // re-checks authoritatively.)
        if self.seen.lock().contains(&digest) {
            return bare;
        }
        // The whole per-upload cost of a detached tracer is this one
        // uncontended read-lock check (gated <1% by crates/bench/tests/overhead.rs).
        let mut draft = self.tracer.read().is_some().then(|| TraceDraft {
            worker,
            ..TraceDraft::default()
        });

        // Sanitize: validate, normalize the clock, reorder, deduplicate.
        let mut span = self.metrics.stages.start(Stage::Sanitize);
        let (samples, san) = sanitize::sanitize(&trip.samples, received_s, &self.config.sanitize);
        let mut report = IngestReport::sanitized(trip.samples.len(), &san);

        // Near-duplicate digests of the sanitized content: a jittered or
        // re-skewed retry reduces to the same fuzzy digest even though its
        // bytes differ. Same fast path as above: a hit now is a hit at
        // commit, so the pipeline run would be wasted.
        let near_digests = sanitize::near_duplicate_digests(&samples, &self.config.sanitize);
        let near_hit = near_digests.is_some_and(|digests| {
            let seen = self.seen.lock();
            digests.iter().any(|d| seen.contains(d))
        });
        if near_hit {
            TraceDraft::note_span(draft.as_mut(), span.finish());
            return StagedUpload {
                report,
                san,
                near_digests,
                trace: draft,
                ..bare
            };
        }

        TraceDraft::note_span(draft.as_mut(), span.hand_over(Stage::Matching));
        let (visits, observations) = self.run_stages(&samples, &mut report, draft.as_mut(), span);
        StagedUpload {
            report,
            san,
            near_digests,
            observations,
            harvest: self.config.online_db_update.then_some((samples, visits)),
            trace: draft,
            ..bare
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
        let mut report = IngestReport::sanitized(trip.samples.len(), &san);
        let span = self.metrics.stages.start(Stage::Matching);
        let (_, observations) = self.run_stages(&samples, &mut report, None, span);
        self.note_pipeline_counters(&report);
        (report, observations)
    }

    /// The full §III-C/§III-D pipeline for one sanitized upload: matching
    /// → clustering → mapping → estimation. `span` is the running
    /// `Matching` stage; each later stage starts where the one before it
    /// ends (one clock reading per boundary, which a traced upload's
    /// draft also keeps), and `Pipeline` records the first reading to the
    /// last. Fills
    /// the stage fields of `report` in place. Read-only with respect to
    /// the monitor (the matcher is taken through its read guard), so
    /// stage workers may run it concurrently; the volume counters are
    /// applied at commit by `note_pipeline_counters`.
    fn run_stages(
        &self,
        samples: &[CellularSample],
        report: &mut IngestReport,
        mut trace: Option<&mut TraceDraft>,
        mut span: Span<'_>,
    ) -> (Vec<MappedVisit>, Vec<SpeedObservation>) {
        let pipeline_start_ns = span.start_ns();
        let out = 'stages: {
            // Trip-level batch matching (γ filter included). Samples within
            // a trip hear the same few stops, so the batch scorer
            // deduplicates repeated cell sequences and shares one index
            // probe across the whole upload — bit-identical to a per-sample
            // `best_match` loop.
            let matched = self.match_samples(samples, trace.as_deref_mut());
            report.matched = matched.len();
            if matched.is_empty() {
                break 'stages (Vec::new(), Vec::new());
            }

            // Per-stop clustering.
            TraceDraft::note_span(trace.as_deref_mut(), span.hand_over(Stage::Clustering));
            let clusters = self.clusterer.cluster(matched);
            if let Some(draft) = trace.as_mut() {
                draft.events.push(TraceEvent::Clustering {
                    clusters: clusters.len(),
                });
            }
            report.clusters = clusters.len();

            // Per-trip mapping with partial-trip salvage: keep the longest
            // route-consistent run instead of dropping a noisy trip whole.
            TraceDraft::note_span(trace.as_deref_mut(), span.hand_over(Stage::Mapping));
            let mapped = TripMapper::new(&self.network).map_trip_salvaged(&clusters);
            let Some((visits, salvage_dropped)) = mapped else {
                break 'stages (Vec::new(), Vec::new());
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
            TraceDraft::note_span(trace.as_deref_mut(), span.hand_over(Stage::Estimation));
            let observations =
                TripEstimator::new(&self.network, self.config.estimation).estimate(&visits);
            report.observations = observations.len();
            (visits, observations)
        };
        let last = span.finish();
        self.metrics.stages[Stage::Pipeline].record_ns(last.end_ns() - pipeline_start_ns);
        TraceDraft::note_span(trace, last);
        out
    }

    /// Matches every sample of one upload under one matcher read guard,
    /// keeping the γ-accepted ones; when tracing, also records the full
    /// deliberation for the first [`TRACE_DETAIL`] scans.
    fn match_samples(
        &self,
        samples: &[CellularSample],
        trace: Option<&mut TraceDraft>,
    ) -> Vec<MatchedSample> {
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
        if let Some(draft) = trace {
            // Full deliberation (candidates, margin, pruning) for the
            // first scans; pure reads of the same matcher state the
            // decision used, so traced and untraced results agree.
            let as_candidate = |r: MatchResult| CandidateScore {
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
        matched
    }
}
