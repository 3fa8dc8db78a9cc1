//! Drop attribution against the live registry, counted exactly.
//!
//! This binary holds a single test, so nothing else shares the
//! process-global telemetry registry and every counter delta is exact.

mod common;

use busprobe::core::{DropReason, MonitorConfig, TrafficMonitor};
use busprobe::faults::FaultPlan;
use busprobe::sim::SimTime;
use busprobe::telemetry::{self, Level, DEFAULT_EVENT_CAPACITY};
use busprobe_bench::World;
use common::faulted;

#[test]
fn drop_counters_sum_to_dropped_trips_and_drops_leave_the_event_ring_alone() {
    let world = World::small(47);
    let db = world.build_db(5);
    let output = world.simulate(SimTime::from_hms(7, 0, 0), SimTime::from_hms(10, 0, 0));
    let (trips, received) = faulted(&world.uploads(&output, 1.0, 3), FaultPlan::extreme(), 11);

    // An operator-facing event recorded before a storm of drops.
    let warning = "store fail-stop stand-in";
    telemetry::event(Level::Warn, "drop_attribution", warning);

    for workers in [1, 4] {
        let monitor =
            TrafficMonitor::new(world.network.clone(), db.clone(), MonitorConfig::default());
        let before = telemetry::snapshot();
        let reports = monitor.ingest_batch_received_parallel(&trips, &received, workers);
        let after = telemetry::snapshot();

        let dropped = reports.iter().filter(|r| r.drop_reason().is_some()).count();
        assert!(
            dropped > DEFAULT_EVENT_CAPACITY,
            "workers {workers}: {dropped} drops would not fill the event ring"
        );
        let mut counted = 0;
        for reason in DropReason::ALL {
            let name = reason.counter_name();
            let delta = after.counter(name).unwrap() - before.counter(name).unwrap();
            let reported = reports
                .iter()
                .filter(|r| r.drop_reason() == Some(reason))
                .count() as u64;
            assert_eq!(delta, reported, "workers {workers}: {reason:?}");
            counted += delta;
        }
        assert_eq!(counted, dropped as u64, "workers {workers}");
    }

    let events = telemetry::snapshot().events;
    assert!(
        events
            .iter()
            .any(|e| e.level == Level::Warn && e.message == warning),
        "per-trip drops evicted the warning from the event ring"
    );
}
