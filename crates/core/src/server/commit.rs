//! Phase 2 of ingest: the ordered commit, and the monitor's one
//! mutation path.
//!
//! Under one hold of the commit lock, a commit takes its sequence
//! number, decides what the upload does (`verdict`, reads only), writes
//! that down as a [`CommitRecord`], applies it with
//! [`CommitState::apply`] — the only writer of the seen set, the
//! harvest and fusion — and logs it. Replay applies the same records
//! with the same function, and a refresh's [`CommitState::refresh`]
//! alike, so a recovered monitor equals an uninterrupted one.

use super::durable::AttachedStore;
use super::seen::SeenSet;
use super::stage::StagedUpload;
use super::{DropReason, IngestReport, TrafficMonitor, TRACE_DETAIL};
use crate::durability::{CommitRecord, HarvestEntry, WalRecord};
use crate::fusion::SegmentFusion;
use crate::mapping::MappedVisit;
use crate::matching::{MatchConfig, Matcher};
use crate::sanitize::SanitizeReport;
use crate::updater::DbUpdater;
use busprobe_mobile::CellularSample;
use busprobe_telemetry::{Level, Stage};
use busprobe_trace::{TraceEvent, TraceOutcome, TraceRecord, TripTrace};
use std::ops::DerefMut;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything only commits write, behind the monitor's one commit lock:
/// holding it is being the single writer `durability` relies on.
#[derive(Debug)]
pub(super) struct CommitState {
    pub(super) fusion: SegmentFusion,
    pub(super) updater: DbUpdater,
    /// Optional durable store with its group window.
    pub(super) store: Option<AttachedStore>,
    /// Committed uploads plus database refreshes: the sequence number
    /// the next record takes.
    pub(super) commits: u64,
}

impl CommitState {
    /// Applies one commit record, live and in replay alike: seen-set
    /// insert → near-digest registration → updater harvest → fusion,
    /// stopping where a duplicate stops. State only, so replay is silent.
    /// `seen` (the live guard, or replay's set) is released before the
    /// fold, so stage workers' duplicate hints never wait on it. `deltas`
    /// collects a [`TraceEvent::FusionDelta`] for each of the first
    /// [`TRACE_DETAIL`] observations (prior and posterior must be read
    /// between updates: two observations of one trip can hit the same
    /// segment).
    pub(super) fn apply(
        &mut self,
        mut seen: impl DerefMut<Target = SeenSet>,
        record: &CommitRecord,
        mut deltas: Option<&mut Vec<TraceEvent>>,
    ) {
        if !seen.insert(record.digest) {
            return;
        }
        if let Some(digests) = &record.near_digests {
            let dup = digests.iter().any(|d| seen.contains(d));
            for &digest in digests {
                seen.insert(digest);
            }
            if dup {
                return;
            }
        }
        drop(seen);
        for entry in &record.harvest {
            self.updater
                .record(entry.site, entry.fingerprint.clone(), entry.confidence);
        }
        let fusion = &mut self.fusion;
        for (i, obs) in record.observations.iter().enumerate() {
            let Some(deltas) = deltas.as_deref_mut().filter(|_| i < TRACE_DETAIL) else {
                fusion.observe(obs.key, obs.time_s, obs.speed_mps, obs.variance);
                continue;
            };
            let prior_mps = fusion.belief(obs.key).map(|b| b.mean_mps);
            fusion.observe(obs.key, obs.time_s, obs.speed_mps, obs.variance);
            let posterior = fusion.belief(obs.key).expect("belief exists after observe");
            deltas.push(TraceEvent::FusionDelta {
                from: obs.key.from.0,
                to: obs.key.to.0,
                obs_mps: obs.speed_mps,
                obs_variance: obs.variance,
                prior_mps,
                posterior_mps: posterior.mean_mps,
                posterior_variance: posterior.variance,
            });
        }
    }

    /// The state half of a database refresh, live and in replay alike:
    /// stops with enough fresh harvest get their fingerprints re-elected
    /// and [`Matcher::insert`]ed incrementally. Returns how many changed.
    pub(super) fn refresh(&mut self, matcher: &mut Matcher, config: &MatchConfig) -> usize {
        let changes = self.updater.refresh_changes(matcher.db(), config);
        let changed = changes.len();
        for (site, fp) in changes {
            matcher.insert(site, fp);
        }
        changed
    }
}

/// What a commit will do with a staged upload, decided from reads alone
/// before anything is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The byte digest was already ingested.
    Duplicate,
    /// Staging panicked; only the digest is recorded.
    Panicked,
    /// A fuzzy content digest was already ingested (a jittered retry).
    NearDuplicate,
    /// A new trip: harvest and observations fold into shared state.
    Fold,
}

impl TrafficMonitor {
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
                self.metrics.drops[DropReason::InternalError as usize].inc();
                busprobe_telemetry::event(
                    Level::Warn,
                    "core::ingest",
                    format!("commit panicked; trip isolated ({samples} samples)"),
                );
                // Even a commit-phase panic leaves an attributing trace —
                // like an admission drop's, without events or a WAL seq
                // (no record was logged, so no sequence number taken).
                if let Some(tracer) = self.tracer.read().clone() {
                    tracer.submit(TraceRecord {
                        trace: TripTrace::admission_drop(
                            digest,
                            self.commit_count(),
                            samples,
                            DropReason::InternalError.trace_label(),
                        ),
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

    /// The authoritative fate of `staged`, from reads of the seen set
    /// alone. Reading now and applying afterwards is race-free: the
    /// caller holds the commit lock and stage workers only read.
    fn verdict(&self, staged: &StagedUpload) -> Verdict {
        let seen = self.seen.lock();
        if seen.contains(&staged.digest) {
            return Verdict::Duplicate;
        }
        if staged.panicked {
            return Verdict::Panicked;
        }
        // `CommitState::apply` inserts the byte digest before it tests the
        // fuzzy ones, so a fuzzy digest equal to it counts as seen.
        let near = |d: &u64| *d == staged.digest || seen.contains(d);
        match &staged.near_digests {
            Some(digests) if digests.iter().any(near) => Verdict::NearDuplicate,
            _ => Verdict::Fold,
        }
    }

    fn commit_inner(&self, staged: StagedUpload) -> IngestReport {
        let raw_samples = staged.report.samples;
        let mut state = self.commit.lock();
        // The trace sequence number is the commit order, identical at any
        // worker count; the record takes it when it is logged, below.
        let seq = state.commits;
        let tracer = self.tracer.read().clone();
        self.metrics.trips.inc();
        self.metrics.samples.add(raw_samples as u64);
        let verdict = self.verdict(&staged);
        // The durable ledger of what this commit does. Every verdict
        // logs one (so the WAL sequence number counts committed uploads),
        // holding only what it lets through: no fuzzy digests for an exact
        // duplicate, no harvest or observations for any rejection.
        let mut record = CommitRecord {
            digest: staged.digest,
            near_digests: None,
            observations: Vec::new(),
            harvest: Vec::new(),
            report: IngestReport {
                samples: raw_samples,
                ..IngestReport::default()
            },
        };
        // How far staging got before a duplicate hint landed is timing;
        // the trace is rebuilt from the verdict, so it never shows it.
        let mut events = tracer.is_some().then(Vec::new);
        let mut note = |event: TraceEvent| {
            if let Some(events) = events.as_mut() {
                events.push(event);
            }
        };
        match verdict {
            Verdict::Duplicate => {
                record.report.duplicate = true;
                note(TraceEvent::ExactDuplicate {
                    digest: staged.digest,
                });
            }
            Verdict::Panicked => {
                busprobe_telemetry::event(
                    Level::Warn,
                    "core::ingest",
                    format!("pipeline panicked; trip isolated ({raw_samples} samples)"),
                );
                record.report.internal_error = true;
            }
            Verdict::NearDuplicate => {
                self.record_sanitize(&staged.san);
                record.near_digests = staged.near_digests;
                record.report = IngestReport {
                    near_duplicate: true,
                    ..IngestReport::sanitized(raw_samples, &staged.san)
                };
                note(Self::sanitize_event(raw_samples, &staged.san));
                if let Some(digests) = staged.near_digests {
                    note(TraceEvent::NearDuplicate { digests });
                }
            }
            Verdict::Fold => {
                self.record_sanitize(&staged.san);
                self.note_pipeline_counters(&staged.report);
                record.near_digests = staged.near_digests;
                if let Some((samples, visits)) = &staged.harvest {
                    record.harvest = self.harvest_entries(samples, visits);
                }
                record.observations = staged.observations;
                record.report = staged.report;
                note(Self::sanitize_event(raw_samples, &staged.san));
                if let Some(draft) = &staged.trace {
                    draft.events.iter().cloned().for_each(&mut note);
                }
            }
        }

        let fusion_span =
            (verdict == Verdict::Fold).then(|| self.metrics.stages.start(Stage::Fusion));
        state.apply(self.seen.lock(), &record, events.as_mut());
        if let Some(span) = fusion_span {
            span.finish();
        }
        if verdict == Verdict::Fold {
            let observations = record.observations.len();
            if let Some(events) = events.as_mut().filter(|_| observations > 0) {
                events.push(TraceEvent::FusionSummary {
                    observations,
                    detailed: observations.min(TRACE_DETAIL),
                });
            }
            self.metrics.fusion_updates.add(observations as u64);
            self.metrics.obs_per_trip.record(observations as f64);
        }
        // The single exit: log the record, count a drop against its
        // reason, then submit the trace with the authoritative outcome.
        let report = record.report;
        let wal_seq = self.log(&mut state, &WalRecord::Commit(record));
        let drop_reason = report.drop_reason();
        if let Some(reason) = drop_reason {
            self.metrics.drops[reason as usize].inc();
        }
        if let Some(tracer) = tracer {
            let outcome = match drop_reason {
                None => TraceOutcome::Committed {
                    visits: report.visits,
                    observations: report.observations,
                },
                Some(reason) => TraceOutcome::Dropped {
                    reason: reason.trace_label().to_string(),
                },
            };
            let draft = staged.trace.unwrap_or_default();
            tracer.submit(TraceRecord {
                trace: TripTrace {
                    trace_id: staged.digest,
                    seq,
                    samples: report.samples,
                    events: events.unwrap_or_default(),
                    outcome,
                    wal_seq,
                },
                worker: draft.worker,
                spans: draft.spans,
            });
        }
        report
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
    /// volume counters (the stage phase only fills the report).
    pub(super) fn note_pipeline_counters(&self, report: &IngestReport) {
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

    /// The updater harvest this trip contributes — for every
    /// confidently-identified visit, the samples taken during that visit
    /// are fresh fingerprints of that stop. Mirrors
    /// [`DbUpdater::record`](crate::DbUpdater::record)'s filters exactly,
    /// so the returned entries are precisely the ones the updater will
    /// retain: the list can be logged and replayed verbatim.
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

    /// Applies the online updater: stops with enough fresh harvest get
    /// their fingerprints re-elected into the live matcher; returns how
    /// many changed. The refresh is logged in the same critical section,
    /// so replay re-runs the same election at the same point. It joins
    /// the group window of a batch it races, if any, and closes it.
    pub fn refresh_database(&self) -> usize {
        let span = self.metrics.stages.start(Stage::Refresh);
        let mut state = self.commit.lock();
        let changed = state.refresh(&mut self.matcher.write(), &self.config.matching);
        if changed > 0 {
            self.metrics.db_promotions.add(changed as u64);
            busprobe_telemetry::event(
                Level::Info,
                "core::updater",
                format!("database refresh promoted {changed} fingerprints"),
            );
        }
        self.log(&mut state, &WalRecord::Refresh);
        self.flush_group(&mut state);
        span.finish();
        changed
    }
}
