//! The phone-side pipeline of the participatory traffic monitor.
//!
//! Everything the paper's Android app does on-device (§III-B, §IV-D):
//!
//! * [`goertzel`] — single-frequency power extraction; chosen over FFT
//!   because only the beep bands are needed ("which significantly saves
//!   energy"),
//! * [`fft`] — the radix-2 FFT baseline the paper compares against,
//! * [`beep`] — IC-card beep detection: 30 ms sliding windows, normalized
//!   band strengths, a three-standard-deviation jump test and a refractory
//!   period,
//! * [`motion`] — the accelerometer-variance filter separating buses from
//!   rapid trains (which use the same IC-card readers),
//! * [`trip`] — the trip recorder state machine: starts on the first beep,
//!   attaches a cell scan to every beep, concludes after 10 minutes of
//!   silence, and emits the [`Trip`] upload the backend consumes,
//! * [`energy`] — the power model reproducing Table III.
//!
//! # Examples
//!
//! ```
//! use busprobe_mobile::{Trip, TripRecorder};
//! use busprobe_cellular::CellScan;
//!
//! let mut recorder = TripRecorder::new();
//! recorder.record_beep(100.0, CellScan::new(vec![]));
//! recorder.record_beep(160.0, CellScan::new(vec![]));
//! // Ten minutes of silence concludes the trip.
//! let trip: Trip = recorder.tick(160.0 + 601.0).expect("trip concluded");
//! assert_eq!(trip.samples.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beep;
pub mod energy;
pub mod fft;
pub mod goertzel;
pub mod motion;
pub mod phone;
mod telemetry;
pub mod trip;

pub use beep::{BeepDetector, BeepDetectorConfig};
/// The cell types a [`Trip`] is made of, so code that builds uploads
/// (such as a wire decoder) needs only this crate.
pub use busprobe_cellular::{CellObservation, CellScan, CellTowerId};
pub use energy::{PhoneModel, PowerModel, SensorConfig};
pub use goertzel::Goertzel;
pub use motion::{MotionClassifier, VehicleClass};
pub use phone::{Phone, PhoneConfig};
pub use trip::{CellularSample, Trip, TripRecorder};
