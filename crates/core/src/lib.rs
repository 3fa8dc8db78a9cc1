//! The backend of the participatory urban traffic monitor — the paper's
//! primary contribution (§III-C, §III-D).
//!
//! The server receives anonymous [`Trip`](busprobe_mobile::Trip) uploads
//! (timestamped cellular samples, one per IC-card beep) and turns them into
//! a live traffic map in four stages:
//!
//! 1. **Per-sample matching** ([`matching`]) — each cellular sample is
//!    matched against the bus-stop fingerprint database with a modified
//!    Smith–Waterman alignment over RSS-ordered cell IDs (match +1.0,
//!    gap/mismatch −0.3, acceptance threshold γ = 2),
//! 2. **Per-stop clustering** ([`clustering`]) — samples close in time with
//!    consistent matches are co-clustered (Eq. 1, s̄ = 7, t̄ = 30 s,
//!    ε = 0.6), giving per-stop arrival/departure times and candidate
//!    pools,
//! 3. **Per-trip mapping** ([`mapping`]) — the route-order constraint
//!    `R(x, y)` prunes impossible stop sequences and a maximum-likelihood
//!    dynamic program picks the best sequence (Eq. 2),
//! 4. **Traffic estimation** ([`estimation`], [`fusion`], [`map`]) — bus
//!    travel times between consecutive identified stops become automobile
//!    travel times through the linear model `ATT = a + b·BTT` (b = 0.5,
//!    a = length/free-speed), and repeated estimates are combined with the
//!    Bayesian update of Eq. 4 on a 5-minute refresh period.
//!
//! [`TrafficMonitor`] wires the stages together behind one thread-safe
//! ingest-and-snapshot API; [`StopFingerprintDb`] holds the bus-stop
//! signatures.
//!
//! # Examples
//!
//! Matching one uploaded sample against a two-stop database:
//!
//! ```
//! use busprobe_cellular::{CellTowerId, Fingerprint};
//! use busprobe_core::{MatchConfig, Matcher, StopFingerprintDb};
//! use busprobe_network::StopSiteId;
//!
//! let fp = |ids: &[u32]| {
//!     Fingerprint::new(ids.iter().map(|&i| CellTowerId(i)).collect()).unwrap()
//! };
//! let mut db = StopFingerprintDb::new();
//! db.insert(StopSiteId(0), fp(&[1, 7, 3, 5]));
//! db.insert(StopSiteId(1), fp(&[20, 21, 22, 23]));
//!
//! let matcher = Matcher::new(db, MatchConfig::default());
//! let hit = matcher.best_match(&fp(&[1, 2, 3, 4, 5])).unwrap();
//! assert_eq!(hit.site, StopSiteId(0));
//! assert!((hit.score - 2.4).abs() < 1e-9); // the paper's Table I example
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod clustering;
pub mod database;
pub mod digest;
pub mod durability;
pub mod estimation;
pub mod fusion;
mod fxhash;
pub mod geojson;
pub mod index;
pub mod inference;
pub mod map;
pub mod mapping;
pub mod matching;
pub mod parallel;
pub mod sanitize;
pub mod server;
mod telemetry;
pub mod updater;

pub use alignment::{align, AlignOp, Alignment};
pub use clustering::{Cluster, ClusterCandidate, ClusterConfig, Clusterer, MatchedSample};
pub use database::StopFingerprintDb;
pub use durability::{
    CodecError, CommitRecord, HarvestEntry, PersistedState, WalRecord, SNAPSHOT_FORMAT,
};
pub use estimation::{EstimatorConfig, SpeedObservation, TripEstimator};
pub use fusion::{BayesianSpeed, SegmentFusion};
pub use index::MatchIndex;
pub use inference::{infer_regional, EstimateSource, InferenceConfig, RegionalMap};
pub use map::{
    latest_upload_s, GoogleMapsIndicator, SegmentEstimate, SpeedLevel, TrafficMap, HORIZON_GRACE_S,
};
pub use mapping::{MappedVisit, TripMapper};
pub use matching::{MatchConfig, MatchExplanation, MatchResult, Matcher};
pub use sanitize::{sanitize, SanitizeConfig, SanitizeReport};
pub use server::{DropReason, IngestReport, MonitorConfig, TrafficMonitor};
pub use updater::{DbUpdater, UpdaterConfig};

/// What [`TrafficMonitor::recover`] found and replayed.
pub use busprobe_trace::RecoveryTrace;
