//! Telemetry hot-path cost: individual instrument operations, snapshot
//! and export cost, and — the acceptance criterion — the share of
//! end-to-end ingest time spent on instrumentation.
//!
//! A productive trip through `TrafficMonitor::ingest_upload` touches the
//! registry via ~7 counter adds, 6 stage spans and 1 histogram record.
//! This bench times that exact sequence against the real per-trip ingest
//! cost and asserts it stays below 5%.

use busprobe_bench::{ns_per_call, World};
use busprobe_core::{MonitorConfig, TrafficMonitor};
use busprobe_mobile::Trip;
use busprobe_sim::SimTime;
use busprobe_telemetry::Span;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_instruments(c: &mut Criterion) {
    let registry = busprobe_telemetry::global();
    let counter = registry.counter("busprobe_bench_counter");
    let histogram = registry.histogram("busprobe_bench_histogram", &[1.0, 2.0, 4.0, 8.0, 16.0]);
    let stage = registry.stage("busprobe_bench_stage");

    let mut group = c.benchmark_group("telemetry");
    group.throughput(Throughput::Elements(1));
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_record", |b| {
        b.iter(|| histogram.record(black_box(3.0)));
    });
    group.bench_function("span_start_finish", |b| {
        b.iter(|| Span::start(std::sync::Arc::clone(&stage)).finish());
    });
    group.bench_function("registry_lookup", |b| {
        b.iter(|| black_box(registry.counter("busprobe_bench_counter")));
    });
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(registry.snapshot()));
    });
    group.bench_function("prometheus_export", |b| {
        let snapshot = registry.snapshot();
        b.iter(|| black_box(snapshot.to_prometheus()));
    });
    group.finish();
}

fn bench_end_to_end_overhead(c: &mut Criterion) {
    let world = World::small(5);
    let db = world.build_db(5);
    let output = world.simulate(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0));
    let trips: Vec<Trip> = world
        .uploads(&output, 1.0, 1)
        .into_iter()
        .take(64)
        .collect();
    assert!(!trips.is_empty(), "need uploads to benchmark");
    let fresh_monitor =
        || TrafficMonitor::new(world.network.clone(), db.clone(), MonitorConfig::default());

    // Real per-trip ingest cost, telemetry included (fresh monitor per
    // round so the duplicate filter never short-circuits the pipeline).
    let per_trip_ns = {
        let mut monitor = fresh_monitor();
        let mut i = 0usize;
        ns_per_call(|| {
            if i == 0 {
                monitor = fresh_monitor();
            }
            black_box(monitor.ingest_upload(black_box(&trips[i]), None));
            i = (i + 1) % trips.len();
        })
    };

    // The instrument sequence one productive trip triggers.
    let registry = busprobe_telemetry::global();
    let counters: Vec<_> = (0..7)
        .map(|i| registry.counter(&format!("busprobe_bench_overhead_{i}")))
        .collect();
    let stages: Vec<_> = (0..6)
        .map(|i| registry.stage(&format!("busprobe_bench_overhead_stage_{i}")))
        .collect();
    let histogram = registry.histogram("busprobe_bench_overhead_hist", &[1.0, 2.0, 4.0, 8.0, 16.0]);
    let telemetry_ns = ns_per_call(|| {
        for counter in &counters {
            counter.add(black_box(3));
        }
        for stage in &stages {
            Span::start(std::sync::Arc::clone(stage)).finish();
        }
        histogram.record(black_box(3.0));
    });

    let overhead = telemetry_ns / per_trip_ns;
    println!(
        "end_to_end_overhead: ingest {per_trip_ns:.0} ns/trip, telemetry {telemetry_ns:.0} ns/trip ({:.2}%)",
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "telemetry must cost <5% of the ingest hot path, measured {:.2}%",
        overhead * 100.0
    );

    // Also publish the instrumented ingest throughput in criterion form.
    let mut group = c.benchmark_group("end_to_end_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trips.len() as u64));
    group.bench_function("ingest_instrumented", |b| {
        b.iter(|| {
            let monitor = fresh_monitor();
            for trip in &trips {
                black_box(monitor.ingest_upload(black_box(trip), None));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_instruments, bench_end_to_end_overhead);
criterion_main!(benches);
