//! The per-upload trace data model: ordered decision events, the final
//! outcome, and the deterministic/runtime split.
//!
//! A [`TripTrace`] is the *deterministic* record of what the pipeline
//! decided for one upload — it depends only on the upload bytes, the
//! monitor state at its commit sequence number, and the configuration,
//! so the JSONL export is byte-identical at any worker count. Runtime
//! facts that legitimately differ between runs (which worker staged the
//! upload, wall-clock stage spans) live next to it in a
//! [`TraceRecord`] and surface only through the Chrome trace export.

use busprobe_telemetry::StageSpan;
use serde::Serialize;

/// One scored fingerprint-match candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CandidateScore {
    /// Stop-site id of the candidate.
    pub site: u32,
    /// Euclidean fingerprint distance (lower is better).
    pub score: f64,
    /// Cells the scan shares with the stored fingerprint.
    pub common_cells: usize,
}

/// One causally-ordered decision the pipeline made for an upload.
///
/// Field order is the serialization order; changing it changes the
/// golden JSONL schema snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// Sanitizer verdict: repairs, skew normalization and per-sample
    /// quarantine accounting (always the first event).
    Sanitize {
        /// Samples in the raw upload.
        samples_in: usize,
        /// Samples surviving sanitization.
        kept: usize,
        /// Samples quarantined (invalid, stale, future, overflow).
        quarantined: usize,
        /// Identical back-to-back samples suppressed.
        duplicates_suppressed: usize,
        /// Tower observations scrubbed while repairing scans.
        scrubbed: usize,
        /// Samples moved while restoring time order.
        reordered: usize,
        /// Clock correction applied against the server arrival time, s.
        clock_skew_s: f64,
    },
    /// The upload's byte digest matched an already-committed upload.
    ExactDuplicate {
        /// The colliding content digest.
        digest: u64,
    },
    /// A fuzzy content digest matched an already-committed upload (a
    /// jittered retry).
    NearDuplicate {
        /// The two half-offset-window fuzzy digests that were checked.
        digests: [u64; 2],
    },
    /// Full match deliberation for one scan: the winner, the runner-up
    /// it beat, and how much the inverted index pruned. Recorded for
    /// the first few scans only (see `MatchSummary::detailed`).
    MatchDecision {
        /// Index of the scan among the sanitized samples.
        scan: usize,
        /// Best candidate above the γ acceptance threshold, if any.
        winner: Option<CandidateScore>,
        /// Second-best candidate above γ — the margin of the decision.
        runner_up: Option<CandidateScore>,
        /// Best candidate *rejected* by γ (why an unmatched scan lost).
        best_rejected: Option<CandidateScore>,
        /// Sites actually scored after index pruning.
        considered: usize,
        /// Sites the inverted index eliminated without scoring.
        pruned: usize,
    },
    /// Matching-stage totals over every scan.
    MatchSummary {
        /// Sanitized scans fed to the matcher.
        scans: usize,
        /// Scans whose best candidate passed γ.
        matched: usize,
        /// Scans with `MatchDecision` detail above.
        detailed: usize,
    },
    /// Eq. (1) clustering of the matched scans.
    Clustering {
        /// Stop-visit clusters formed.
        clusters: usize,
    },
    /// Route-consistent trip mapping with partial-trip salvage.
    Mapping {
        /// Stop visits in the chosen sequence.
        visits: usize,
        /// Visits cut from the head/tail by salvage.
        salvage_dropped: usize,
        /// Lowest per-visit confidence in the sequence.
        min_confidence: f64,
        /// Highest per-visit confidence in the sequence.
        max_confidence: f64,
    },
    /// One speed observation folded into the Bayesian fusion belief,
    /// with the belief before and after. Recorded for the first few
    /// observations only (see `FusionSummary::detailed`).
    FusionDelta {
        /// Upstream stop-site id of the segment.
        from: u32,
        /// Downstream stop-site id of the segment.
        to: u32,
        /// The observation's speed, m/s.
        obs_mps: f64,
        /// The observation's variance, (m/s)².
        obs_variance: f64,
        /// Belief mean before this observation (None = first ever).
        prior_mps: Option<f64>,
        /// Belief mean after this observation.
        posterior_mps: f64,
        /// Belief variance after this observation.
        posterior_variance: f64,
    },
    /// Fusion-stage totals for this upload.
    FusionSummary {
        /// Speed observations folded in.
        observations: usize,
        /// Observations with `FusionDelta` detail above.
        detailed: usize,
    },
}

impl TraceEvent {
    /// The variant name — the externally-tagged key this event
    /// serializes under, handy for filtering without destructuring.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Sanitize { .. } => "Sanitize",
            TraceEvent::ExactDuplicate { .. } => "ExactDuplicate",
            TraceEvent::NearDuplicate { .. } => "NearDuplicate",
            TraceEvent::MatchDecision { .. } => "MatchDecision",
            TraceEvent::MatchSummary { .. } => "MatchSummary",
            TraceEvent::Clustering { .. } => "Clustering",
            TraceEvent::Mapping { .. } => "Mapping",
            TraceEvent::FusionDelta { .. } => "FusionDelta",
            TraceEvent::FusionSummary { .. } => "FusionSummary",
        }
    }
}

/// How an upload left the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceOutcome {
    /// The upload contributed to the traffic map.
    Committed {
        /// Stop visits identified.
        visits: usize,
        /// Speed observations folded into fusion.
        observations: usize,
    },
    /// The upload was dropped; `reason` is the stable label of the
    /// `DropReason` variant that attributes it.
    Dropped {
        /// e.g. `"unmatched-scans"`, `"near-duplicate"`.
        reason: String,
    },
}

impl TraceOutcome {
    /// Whether this outcome is a drop (always exported regardless of
    /// the success sampling rate).
    #[must_use]
    pub fn is_drop(&self) -> bool {
        matches!(self, TraceOutcome::Dropped { .. })
    }
}

/// The deterministic provenance record for one upload: what went in,
/// every decision along the way, and how it came out.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TripTrace {
    /// Content digest of the raw upload — the stable trip identity.
    pub trace_id: u64,
    /// Commit sequence number (upload order, 0-based).
    pub seq: u64,
    /// Samples in the raw upload.
    pub samples: usize,
    /// Causally-ordered decision events.
    pub events: Vec<TraceEvent>,
    /// Commit or drop verdict.
    pub outcome: TraceOutcome,
    /// WAL sequence number of the commit record, when a store is
    /// attached (equals `seq` on an unbroken log).
    pub wal_seq: Option<u64>,
}

impl TripTrace {
    /// A trace for an upload dropped *before* the pipeline — shed at
    /// the admission queue, timed out waiting, or refused at the wire
    /// (oversized / unparseable frame). It carries no decision events
    /// and no WAL sequence because the upload never reached staging;
    /// `reason` is the stable `DropReason` trace label.
    #[must_use]
    pub fn admission_drop(trace_id: u64, seq: u64, samples: usize, reason: &str) -> Self {
        TripTrace {
            trace_id,
            seq,
            samples,
            events: Vec::new(),
            outcome: TraceOutcome::Dropped {
                reason: reason.to_string(),
            },
            wal_seq: None,
        }
    }
}

/// A finished trace plus its runtime (non-deterministic) context.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The deterministic decision record.
    pub trace: TripTrace,
    /// Stage-pool worker that staged the upload (None = serial path
    /// or a commit-side synthesized trace).
    pub worker: Option<usize>,
    /// Wall-clock stage spans captured while staging, for the Chrome
    /// export only: the same readings the stage timers record, so never
    /// part of the JSONL schema.
    pub spans: Vec<StageSpan>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classifies_drops() {
        assert!(TraceOutcome::Dropped {
            reason: "malformed".into()
        }
        .is_drop());
        assert!(!TraceOutcome::Committed {
            visits: 3,
            observations: 2
        }
        .is_drop());
    }

    #[test]
    fn trace_serializes_with_stable_field_order() {
        let trace = TripTrace {
            trace_id: u64::MAX,
            seq: 7,
            samples: 3,
            events: vec![TraceEvent::ExactDuplicate { digest: u64::MAX }],
            outcome: TraceOutcome::Dropped {
                reason: "duplicate".into(),
            },
            wal_seq: None,
        };
        let json = serde_json::to_string(&trace).unwrap();
        // u64 ids must round-trip undamaged (not as f64).
        assert!(json.contains(&u64::MAX.to_string()), "{json}");
        assert!(json.starts_with("{\"trace_id\":"), "{json}");
    }
}
