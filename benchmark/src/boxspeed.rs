//! How fast the box is right now, from a fixed piece of work.
//!
//! The box this benchmark was sized on shares its host: for minutes at a
//! time everything on it — a tight integer loop as much as the ingest
//! path — runs 10–40 % slower, and ten runs of one build spread by as
//! much. The slowdown is common to all code on the core, so a fixed
//! reference kernel run every few tens of milliseconds between the timed
//! pieces tracks it: over a 15-minute recording (of a variant that
//! allocated its table afresh each run) in which ingest time
//! moved between 0.92× and 1.36× its median, ingest time over kernel time
//! stayed within ±3 %. A run's wall-time metrics are therefore reported
//! at reference speed — rates divided by, durations multiplied by, the
//! run's [`speed`](Speedometer::speed). This is the textbook control
//! variate: the kernel knows nothing about busprobe, so it cannot favour
//! one commit over another; it only takes out what the box put in.

use crate::stats;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Keys one kernel run inserts and probes.
const KEYS: u64 = 40_000;
/// Seconds one kernel run typically takes on the sizing box (2-core
/// Firecracker VM, Xeon @ 2.1 GHz): the speed this calls 1.0.
const REFERENCE_S: f64 = 0.00128;
/// The control variate's coefficient: busprobe's wall-time metrics slow
/// by about 0.8 % for every 1 % the kernel slows (its probes miss the
/// cache more than the pipeline does). The median of the slopes fitted,
/// in log space, to each of the 30 timed metric × workload pairs over 20
/// runs; the pairs' own slopes lie between 0.55 and 1.1.
const SENSITIVITY: f64 = 0.8;

/// Runs the kernel on demand and keeps the timings.
pub struct Speedometer {
    /// SipHash with fixed keys: the same probe sequence on every run.
    table: HashSet<u64, BuildHasherDefault<DefaultHasher>>,
    seconds: Vec<f64>,
}

impl Speedometer {
    pub fn new() -> Self {
        Speedometer {
            table: HashSet::with_capacity_and_hasher(KEYS as usize, BuildHasherDefault::default()),
            seconds: Vec::new(),
        }
    }

    /// One kernel run, ~1 ms: hashing and cache-missing probes into a
    /// ~600 KB table, the mix the ingest path's own time is made of.
    /// Allocates nothing after the first run.
    pub fn tick(&mut self) {
        let t = Instant::now();
        self.table.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut hits = 0u64;
        for _ in 0..KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.table.insert(x);
            hits += u64::from(self.table.contains(&(x >> 1)));
        }
        std::hint::black_box(hits);
        self.seconds.push(t.elapsed().as_secs_f64());
    }

    /// The speed busprobe ran at over the ticks so far, 1.0 = on the
    /// reference box: reference kernel time over the median kernel time,
    /// damped by `SENSITIVITY`.
    pub fn speed(&self) -> f64 {
        (REFERENCE_S / stats::median(&self.seconds)).powf(SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_reference_time_over_median_time_damped() {
        let mut meter = Speedometer::new();
        meter.seconds = vec![REFERENCE_S, REFERENCE_S * 50.0, REFERENCE_S];
        assert!((meter.speed() - 1.0).abs() < 1e-12);
        meter.seconds = vec![REFERENCE_S * 2.0, REFERENCE_S * 2.0, REFERENCE_S * 50.0];
        assert!((meter.speed() - 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
    }

    #[test]
    fn a_tick_does_the_same_work_every_time() {
        let mut meter = Speedometer::new();
        meter.tick();
        let (len, capacity) = (meter.table.len(), meter.table.capacity());
        meter.tick();
        assert_eq!((meter.table.len(), meter.table.capacity()), (len, capacity));
        assert_eq!(meter.seconds.len(), 2);
    }
}
