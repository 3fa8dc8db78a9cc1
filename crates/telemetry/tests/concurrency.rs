//! Telemetry under contention: many threads hammering shared
//! instruments must lose no updates, and snapshots/exporters must agree.

use busprobe_telemetry::{Level, Registry, Stage, StageTimers};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn concurrent_counter_increments_are_lossless() {
    let registry = Registry::new();
    let counter = registry.counter("busprobe_test_concurrent_total");
    crossbeam::scope(|scope| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            scope.spawn(move |_| {
                for _ in 0..PER_THREAD {
                    counter.inc();
                }
            });
        }
    })
    .expect("counter workers do not panic");
    assert_eq!(counter.get(), THREADS * PER_THREAD);
    assert_eq!(
        registry
            .snapshot()
            .counter("busprobe_test_concurrent_total"),
        Some(THREADS * PER_THREAD)
    );
}

#[test]
fn concurrent_histogram_and_span_recording() {
    let registry = Registry::new();
    let histogram = registry.histogram("busprobe_test_latency", &[0.5, 1.5, 2.5]);
    let timers = StageTimers::new(&registry);
    crossbeam::scope(|scope| {
        for t in 0..4u64 {
            let histogram = histogram.clone();
            let timers = &timers;
            scope.spawn(move |_| {
                for i in 0..1_000u64 {
                    // Cycle deterministically through all buckets.
                    histogram.record(((t + i) % 4) as f64);
                    timers.start(Stage::Matching).finish();
                }
            });
        }
    })
    .expect("histogram workers do not panic");
    assert_eq!(histogram.count(), 4_000);
    assert_eq!(histogram.bucket_counts().iter().sum::<u64>(), 4_000);
    // 0,1,2,3 cycled evenly: one observation per bucket per round.
    assert_eq!(histogram.bucket_counts(), vec![1_000, 1_000, 1_000, 1_000]);
    let snap = registry.snapshot();
    let stage = snap.stage("busprobe_core_stage_matching").unwrap();
    assert_eq!(stage.calls, 4_000);
}

#[test]
fn concurrent_events_interleave_without_loss_up_to_capacity() {
    let registry = Registry::with_event_capacity(64);
    crossbeam::scope(|scope| {
        for t in 0..4 {
            let registry = &registry;
            scope.spawn(move |_| {
                for i in 0..100 {
                    registry.event(Level::Info, "stress", format!("t{t} e{i}"));
                }
            });
        }
    })
    .expect("event workers do not panic");
    let snap = registry.snapshot();
    assert_eq!(snap.events.len(), 64, "ring is full");
    assert_eq!(snap.events_dropped, 400 - 64);
    // Sequence numbers are unique and increasing.
    for pair in snap.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

#[test]
fn exporters_report_identical_numbers_after_contention() {
    let registry = Registry::new();
    let counter = registry.counter("busprobe_test_export_total");
    crossbeam::scope(|scope| {
        for _ in 0..4 {
            let counter = counter.clone();
            scope.spawn(move |_| {
                for _ in 0..500 {
                    counter.inc();
                }
            });
        }
    })
    .expect("export workers do not panic");
    let snap = registry.snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    assert!(json.contains("\"busprobe_test_export_total\":2000"));
    assert!(prom.contains("busprobe_test_export_total 2000"));
}
