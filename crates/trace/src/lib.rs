//! Per-upload decision provenance for the busprobe pipeline.
//!
//! Aggregate counters (`busprobe-telemetry`) say *how many* trips were
//! dropped at each stage; this crate records *why this one* was — a
//! [`TripTrace`] per upload with the sanitize verdict, the match
//! candidates and the pruning that eliminated them, the mapped stop
//! sequence, the fusion deltas, and the commit-or-drop outcome with its
//! `DropReason` and WAL sequence number.
//!
//! Traces are finalized at commit, in upload sequence order, and contain
//! only inputs that are identical at any worker count — so the JSONL
//! export is byte-for-byte deterministic across `--jobs` settings, the
//! same property the pipeline itself guarantees. Wall-clock spans and
//! worker ids are kept beside each trace in a [`TraceRecord`] and
//! surface only through the Chrome trace-event export.
//!
//! A [`Tracer`] applies the sampling policy (drops always, successes
//! 1-in-N) and doubles as a bounded flight recorder: the most recent
//! traces are retained in a ring regardless of sampling, for post-mortem
//! dumps after an incident.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod narrative;
mod policy;
mod recovery;

pub use busprobe_telemetry::StageSpan;
pub use event::{CandidateScore, TraceEvent, TraceOutcome, TraceRecord, TripTrace};
pub use export::{to_chrome_trace, to_jsonl};
pub use narrative::outcome_label;
pub use policy::TracePolicy;
pub use recovery::RecoveryTrace;

use busprobe_telemetry::Ring;
use parking_lot::Mutex;

#[derive(Debug)]
struct TracerState {
    /// Traces selected by the sampling policy, in commit order.
    exported: Vec<TraceRecord>,
    /// The most recent traces regardless of sampling.
    flight: Ring<TraceRecord>,
}

/// Collects finished traces: applies the [`TracePolicy`], retains the
/// exported set in commit order, and keeps a bounded flight-recorder
/// ring of the most recent traces for post-mortem dumps.
///
/// Shared as an `Arc` between the monitor (producer, one `submit` per
/// commit) and whoever drains it (CLI exporters, tests).
#[derive(Debug)]
pub struct Tracer {
    policy: TracePolicy,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A tracer applying `policy`.
    #[must_use]
    pub fn new(policy: TracePolicy) -> Self {
        Tracer {
            state: Mutex::new(TracerState {
                exported: Vec::new(),
                flight: Ring::new(policy.ring_capacity),
            }),
            policy,
        }
    }

    /// The active sampling policy.
    #[must_use]
    pub fn policy(&self) -> TracePolicy {
        self.policy
    }

    /// Accepts one finished trace. Called at commit, so records arrive
    /// in sequence order.
    pub fn submit(&self, record: TraceRecord) {
        let export = self.policy.exports(record.trace.seq, &record.trace.outcome);
        let mut state = self.state.lock();
        if export {
            state.exported.push(record.clone());
        }
        state.flight.push(record);
    }

    /// The traces the sampling policy exported, in commit order.
    #[must_use]
    pub fn exported(&self) -> Vec<TraceRecord> {
        self.state.lock().exported.clone()
    }

    /// The flight recorder: the most recent traces regardless of
    /// sampling, oldest first.
    #[must_use]
    pub fn flight(&self) -> Vec<TraceRecord> {
        self.state.lock().flight.snapshot()
    }

    /// Finds a trace by upload digest or commit sequence number,
    /// searching the exported set first, then the flight recorder.
    #[must_use]
    pub fn find(&self, trace_id_or_seq: u64) -> Option<TraceRecord> {
        let state = self.state.lock();
        let hit = |r: &&TraceRecord| {
            r.trace.trace_id == trace_id_or_seq || r.trace.seq == trace_id_or_seq
        };
        state
            .exported
            .iter()
            .find(hit)
            .or_else(|| state.flight.iter().find(hit))
            .cloned()
    }

    /// The deterministic JSONL export of the sampled traces.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let state = self.state.lock();
        let traces: Vec<&TripTrace> = state.exported.iter().map(|r| &r.trace).collect();
        to_jsonl(&traces)
    }

    /// The Chrome trace-event export of the sampled traces (wall-clock
    /// spans, worker swimlanes).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        to_chrome_trace(&self.state.lock().exported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, drop: bool) -> TraceRecord {
        TraceRecord {
            trace: TripTrace {
                trace_id: 1000 + seq,
                seq,
                samples: 1,
                events: Vec::new(),
                outcome: if drop {
                    TraceOutcome::Dropped {
                        reason: "malformed".into(),
                    }
                } else {
                    TraceOutcome::Committed {
                        visits: 1,
                        observations: 1,
                    }
                },
                wal_seq: None,
            },
            worker: None,
            spans: Vec::new(),
        }
    }

    #[test]
    fn sampling_keeps_drops_and_every_nth_success() {
        let tracer = Tracer::new(TracePolicy {
            sample_every: 3,
            ring_capacity: 2,
        });
        for seq in 0..6 {
            tracer.submit(record(seq, seq == 4));
        }
        let seqs: Vec<u64> = tracer.exported().iter().map(|r| r.trace.seq).collect();
        assert_eq!(seqs, vec![0, 3, 4], "every 3rd success plus the drop");
        // The flight recorder keeps the newest regardless of sampling.
        let flight: Vec<u64> = tracer.flight().iter().map(|r| r.trace.seq).collect();
        assert_eq!(flight, vec![4, 5]);
    }

    #[test]
    fn find_resolves_digest_and_seq() {
        let tracer = Tracer::new(TracePolicy::export_all());
        tracer.submit(record(2, false));
        assert_eq!(tracer.find(1002).unwrap().trace.seq, 2);
        assert_eq!(tracer.find(2).unwrap().trace.trace_id, 1002);
        assert!(tracer.find(99).is_none());
    }
}
