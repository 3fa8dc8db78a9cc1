//! What the monitor is configured with and what it tells an uploader:
//! [`MonitorConfig`], the per-trip [`IngestReport`] and the
//! [`DropReason`] it attributes a lost trip to.

use crate::sanitize::{SanitizeConfig, SanitizeReport};
use crate::updater::UpdaterConfig;
use crate::{ClusterConfig, EstimatorConfig, MatchConfig};
use busprobe_telemetry::Counter;
use serde::{Deserialize, Serialize};

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
    /// `shed-oldest` policy evicted this upload, the oldest queued one,
    /// instead of blocking the producer.
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
    /// they fire before the upload ever reaches staging), which is also
    /// declaration order, so `reason as usize` indexes this array. The
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

    /// Every reason's global telemetry counter, resolved once from
    /// [`counter_name`](Self::counter_name) and indexed by `reason as
    /// usize`.
    #[must_use]
    pub fn counters() -> [Counter; DropReason::ALL.len()] {
        DropReason::ALL.map(|reason| busprobe_telemetry::counter(reason.counter_name()))
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
    /// Seeds a report with the raw sample count and sanitizer accounting.
    pub(super) fn sanitized(raw_samples: usize, san: &SanitizeReport) -> Self {
        IngestReport {
            samples: raw_samples,
            kept: san.samples_kept,
            quarantined: san.quarantined(),
            scrubbed: san.observations_scrubbed,
            clock_skew_s: san.clock_skew_s,
            ..IngestReport::default()
        }
    }

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
