//! Durable state for the busprobe backend.
//!
//! The server's observable state — fused travel times, the fingerprint
//! database, the dedup seen-set and the updater's pending harvest — is
//! made crash-safe by two cooperating artifacts in one state directory:
//!
//! * a **write-ahead log** of opaque commit payloads, one per committed
//!   upload, appended in commit order ([`wal`]). Records are
//!   length-prefixed and CRC32-framed; the log is split into segments
//!   that rotate at a size threshold.
//! * periodic **full-state snapshots** ([`snapshot`]): a single framed
//!   payload written atomically (temp file + rename), named by the WAL
//!   sequence number it covers.
//!
//! [`Store`] ties the two together: `append_group` extends the log by
//! one frame (a plain record frame for one payload, a group frame for
//! more), `checkpoint` writes a snapshot at the current sequence number,
//! rolls the log to a fresh segment there and compacts down to two
//! snapshot generations and the segments the older one does not cover,
//! and [`Store::recover`] reads the newest valid snapshot plus the WAL
//! segments past it back out. Recovery never panics on damaged input:
//! torn tails and corrupt records are skipped, counted and reported per
//! segment ([`ReplayOutcome`]).
//! A failed WAL write or fsync is final: the store latches the first
//! one and refuses every later append, sync and checkpoint with it
//! ([`Store::failed`]).
//!
//! The crate stores opaque byte payloads; the record codec (and the
//! argument for why replaying commits in sequence order reproduces the
//! exact server state) lives in `busprobe-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod metrics;
pub mod snapshot;
mod store;
pub mod wal;

pub(crate) use metrics::StoreMetrics;
pub use store::{Recovered, Store, StoreConfig};
pub use wal::{ReplayOutcome, ReplayReport, WalWriter};
