//! Shared experiment harness for the table/figure reproductions.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index); this library holds the world-building
//! code they share: region + radio environment + fingerprint database +
//! simulated day + conversion of simulated rider trips into the phone
//! upload format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gps_baseline;
pub mod stats;
pub mod world;

pub use world::World;
