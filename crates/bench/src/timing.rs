//! Shared wall-clock micro-benchmark helpers: the criterion benches
//! time hot paths the same way, so their numbers compare.

use std::time::Instant;

/// How many measurement windows [`best_ns_per_call`] takes. The minimum
/// of three windows is what the machine can actually do, and it is far
/// more stable run-to-run than any single window.
const REPS: usize = 3;

/// Wall-clock of `f()` repeated until at least ~50 ms elapse, in
/// nanoseconds per call (warmed up first).
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..16 {
        f();
    }
    let mut iters = 16u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 50 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 2;
    }
}

/// The minimum of three [`ns_per_call`] measurements.
pub fn best_ns_per_call(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| ns_per_call(&mut f))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive_and_bounded_by_single_windows() {
        let mut n = 0u64;
        let single = ns_per_call(|| n = n.wrapping_add(1));
        let mut m = 0u64;
        let best = best_ns_per_call(|| m = m.wrapping_add(1));
        assert!(single > 0.0);
        assert!(best > 0.0);
        // The best of three windows of the same closure can't be slower
        // than ~any one window by a large factor; sanity bound only.
        assert!(best <= single * 100.0);
    }
}
