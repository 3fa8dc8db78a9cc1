//! Work-stealing parallel batch ingest with a deterministic merge.
//!
//! City-scale fan-in: every rider's phone uploads to one backend, so the
//! batch ingest path must scale across cores without changing a single
//! bit of the result. This module shards a batch of uploads across `N`
//! workers that run the **stage** phase (sanitize → match → cluster →
//! map → estimate — pure reads of shared state, see
//! `stage_upload` in [`TrafficMonitor`]), then funnels
//! the staged results through a **sequence-numbered reducer** that
//! applies the **commit** phase (duplicate suppression, telemetry,
//! updater harvest, Bayesian fusion) strictly in upload order.
//!
//! # Determinism argument
//!
//! Every mutation of monitor state happens in `commit_staged`, under the
//! monitor's one commit lock, and the reducer calls it in upload
//! sequence order from a single thread — exactly the order serial ingest
//! would. The stage phase is a pure
//! function of (upload, shared database), except for two *hints* that
//! peek at the seen set to skip provably-wasted work; both are
//! monotone (the seen set only grows during a batch), so a hint can only
//! ever skip work whose result commit would discard anyway, never change
//! an outcome. Floating-point fusion therefore accumulates in the same
//! order with the same inputs, making the final state, the per-trip
//! reports and the exported map bit-identical to the serial path at any
//! worker count, including 1.
//!
//! What is *not* bit-reproduced: wall-clock stage timings, and the
//! matcher's internal candidate counters when a duplicate races its
//! original through the stage pool (the speculative query still counts
//! its candidates even though commit discards the result). No state,
//! report or map depends on either.
//!
//! Stage workers never take the commit lock. A
//! [`refresh_database`](crate::TrafficMonitor::refresh_database) racing a
//! batch holds it and the matcher write guard, so it lands between two
//! commits and between two trips' matcher reads: every trip matches
//! against exactly the old or exactly the new database, never a torn
//! one.

use crate::server::{IngestReport, StagedUpload, TrafficMonitor};
use busprobe_mobile::Trip;
use busprobe_telemetry::Level;
use crossbeam::channel;
use crossbeam::deque::{Injector, Steal};
use std::borrow::Borrow;

/// Resolves a requested worker count: `0` means all available cores.
#[must_use]
pub fn effective_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
    }
}

/// The one rule for arrival times, for bare monitors and cities alike:
/// none at all, or one per trip (matched to trips by index).
///
/// # Panics
///
/// Panics when `received` is neither zero nor `trips`.
pub fn assert_arrivals_match(received: usize, trips: usize) {
    assert!(
        received == 0 || received == trips,
        "received_s must be empty or match trips ({received} vs {trips})"
    );
}

/// Ingests `trips` with `workers` stage threads (`0` = all cores) and a
/// deterministic sequential reducer; returns per-trip reports in input
/// order. `received(seq)` is trip `seq`'s server-side arrival time, if
/// it has one. Trips may be owned or borrowed, so a caller holding a
/// subset of someone else's batch passes `&[&Trip]` instead of copies.
pub(crate) fn ingest_batch<T: Borrow<Trip> + Sync>(
    monitor: &TrafficMonitor,
    trips: &[T],
    received: &(dyn Fn(usize) -> Option<f64> + Sync),
    workers: usize,
) -> Vec<IngestReport> {
    let workers = effective_workers(workers).min(trips.len().max(1));
    if workers <= 1 {
        // One worker: stage+commit back to back is already the serial
        // path — no threads, no channel, nothing to merge — and the
        // batch is one group window, as on the pool.
        let reports = trips
            .iter()
            .enumerate()
            .map(|(seq, trip)| {
                monitor.commit_staged(monitor.stage_upload(trip.borrow(), received(seq), None))
            })
            .collect();
        monitor.flush_wal_group();
        return reports;
    }

    busprobe_telemetry::event(
        Level::Debug,
        "core::parallel",
        format!("sharding {} uploads across {workers} workers", trips.len()),
    );

    // Global injector queue: workers self-schedule by stealing the next
    // sequence number, so a slow trip never stalls a whole pre-assigned
    // chunk (work stealing, not static sharding).
    let injector = Injector::new();
    for seq in 0..trips.len() {
        injector.push(seq);
    }
    let (tx, rx) = channel::unbounded::<(usize, StagedUpload)>();
    let mut reports = vec![IngestReport::default(); trips.len()];

    crossbeam::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            let injector = &injector;
            scope.spawn(move |_| loop {
                match injector.steal() {
                    Steal::Success(seq) => {
                        let staged =
                            monitor.stage_upload(trips[seq].borrow(), received(seq), Some(worker));
                        if tx.send((seq, staged)).is_err() {
                            break;
                        }
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => break,
                }
            });
        }
        // The reducer owns the only receiver; dropping the original
        // sender means the loop below ends exactly when every worker has
        // drained the queue and hung up.
        drop(tx);

        // Deterministic merge: buffer out-of-order arrivals, commit in
        // strict sequence order. `next` is the lowest uncommitted
        // sequence number; everything below it is already folded in.
        let mut pending: Vec<Option<StagedUpload>> = Vec::with_capacity(trips.len());
        pending.resize_with(trips.len(), || None);
        let mut next = 0usize;
        for (seq, staged) in rx.iter() {
            pending[seq] = Some(staged);
            while next < pending.len() {
                let Some(staged) = pending[next].take() else {
                    break;
                };
                reports[next] = monitor.commit_staged(staged);
                next += 1;
            }
        }
        assert_eq!(
            next,
            trips.len(),
            "reducer committed every staged upload exactly once"
        );
    })
    // invariant: stage_upload and commit_staged catch panics per trip,
    // so workers cannot unwind.
    .expect("ingest workers do not panic");
    // The reorder buffer just drained: a batch boundary is a group
    // boundary, so a partial group window never straddles batches.
    monitor.flush_wal_group();
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_resolves_zero_to_cores() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
        assert_eq!(effective_workers(1), 1);
    }
}
