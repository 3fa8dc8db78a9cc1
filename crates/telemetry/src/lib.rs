//! Pipeline-wide observability for busprobe: named counters, gauges,
//! fixed-bucket histograms, per-stage wall-time timers and a structured
//! event ring, with JSON and Prometheus text exporters.
//!
//! Instruments live in a [`Registry`]. Most code uses the process-wide
//! global registry through the free functions:
//!
//! ```
//! use busprobe_telemetry::Stage;
//!
//! busprobe_telemetry::counter("busprobe_doc_example_total").inc();
//! let mut span = busprobe_telemetry::stage_timers().start(Stage::Matching);
//! // ... matching ...
//! span.hand_over(Stage::Clustering); // one clock reading ends one, starts the other
//! // ... clustering ...
//! span.finish();
//! let snapshot = busprobe_telemetry::snapshot();
//! assert_eq!(snapshot.counter("busprobe_doc_example_total"), Some(1));
//! assert!(snapshot.stage("busprobe_core_stage_clustering").unwrap().calls >= 1);
//! ```
//!
//! Metric names follow `busprobe_<crate>_<name>` (see DESIGN.md,
//! "Observability"). Hot paths should hold instrument handles rather
//! than re-looking them up by name; handles record with a single atomic
//! operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod events;
mod export;
mod metrics;
mod registry;
mod ring;
mod span;

pub use clock::clock_ns;
pub use events::{Event, Level};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{HistogramSnapshot, Registry, Snapshot, StageSnapshot, DEFAULT_EVENT_CAPACITY};
pub use ring::Ring;
pub use span::{Span, Stage, StageSpan, StageTimer, StageTimers};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static STAGE_TIMERS: OnceLock<StageTimers> = OnceLock::new();

/// The process-wide registry.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The global registry's [`Stage`] timers, resolved once per process.
#[must_use]
pub fn stage_timers() -> &'static StageTimers {
    STAGE_TIMERS.get_or_init(|| StageTimers::new(global()))
}

/// The global counter named `name` (created on first use).
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The global gauge named `name` (created on first use).
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// The global histogram named `name` (bounds fixed on first use).
#[must_use]
pub fn histogram(name: &str, bounds: &[f64]) -> std::sync::Arc<Histogram> {
    global().histogram(name, bounds)
}

/// Record a structured event in the global registry.
pub fn event(level: Level, target: &str, message: impl Into<String>) {
    global().event(level, target, message);
}

/// A point-in-time snapshot of the global registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Zero every global instrument and clear the event ring.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is process-wide, so this test uses names no
    // other test touches.
    #[test]
    fn global_free_functions_share_one_registry() {
        counter("libtest_hits_total").add(3);
        gauge("libtest_level").set(1.25);
        global().stage("libtest_stage").record_ns(7);
        event(Level::Info, "libtest", "hello");
        let snap = snapshot();
        assert_eq!(snap.counter("libtest_hits_total"), Some(3));
        assert_eq!(snap.gauge("libtest_level"), Some(1.25));
        assert_eq!(snap.stage("libtest_stage").unwrap().calls, 1);
        assert!(snap.events.iter().any(|e| e.target == "libtest"));
    }
}
