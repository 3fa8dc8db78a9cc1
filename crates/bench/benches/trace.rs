//! Tracing cost on the ingest hot path.
//!
//! The acceptance criterion: with no trace sink attached, the per-trip
//! cost of the tracing hooks must stay under 1% of the per-trip ingest
//! cost. The disabled path is two uncontended `RwLock<Option<_>>` reads
//! (one at stage, one at commit) plus one relaxed `AtomicU64` increment
//! for the commit sequence — this bench times exactly that sequence
//! against the real ingest cost and asserts the ratio, the same way the
//! telemetry bench gates the instrument sequence at 5%.
//!
//! Also measured, unasserted: the enabled-tracing ingest tax under the
//! export-all policy (worst case — every trip builds and keeps a full
//! trace) and the per-record tracer/export operations.

use busprobe_bench::{best_ns_per_call, ns_per_call, World};
use busprobe_core::{MonitorConfig, TrafficMonitor};
use busprobe_mobile::Trip;
use busprobe_sim::SimTime;
use busprobe_trace::{TracePolicy, Tracer};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use parking_lot::RwLock;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The gate: disabled-path hooks as a fraction of per-trip ingest.
const DISABLED_OVERHEAD_CEILING: f64 = 0.01;

fn corpus() -> (World, Vec<Trip>) {
    let world = World::small(5);
    let output = world.simulate(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0));
    let trips: Vec<Trip> = world
        .uploads(&output, 1.0, 1)
        .into_iter()
        .take(64)
        .collect();
    assert!(!trips.is_empty(), "need uploads to benchmark");
    (world, trips)
}

fn bench_disabled_overhead(_c: &mut Criterion) {
    let (world, trips) = corpus();
    let db = world.build_db(5);
    let fresh_monitor =
        || TrafficMonitor::new(world.network.clone(), db.clone(), MonitorConfig::default());

    // Real per-trip ingest cost with tracing disabled (the default: no
    // sink attached). Fresh monitor per round so the duplicate filter
    // never short-circuits the pipeline.
    let per_trip_ns = {
        let mut monitor = fresh_monitor();
        let mut i = 0usize;
        best_ns_per_call(|| {
            if i == 0 {
                monitor = fresh_monitor();
            }
            black_box(monitor.ingest_upload(black_box(&trips[i]), None));
            i = (i + 1) % trips.len();
        })
    };

    // The exact hook sequence a disabled-tracing trip executes: one
    // sink check at stage, one sink clone at commit, one sequence
    // increment. Timed in isolation because the hooks cannot be
    // compiled out — a with/without ingest diff would drown a cost this
    // small in scheduler noise (same approach as the WAL append gate).
    let sink: RwLock<Option<Arc<Tracer>>> = RwLock::new(None);
    let seq = AtomicU64::new(0);
    let hooks_ns = best_ns_per_call(|| {
        black_box(sink.read().is_some()); // stage_inner: should I draft?
        black_box(sink.read().clone()); // commit_inner: who gets the trace?
        black_box(seq.fetch_add(1, Ordering::Relaxed)); // commit sequence
    });

    let overhead = hooks_ns / per_trip_ns;
    println!(
        "trace_disabled_overhead: ingest {per_trip_ns:.0} ns/trip, hooks {hooks_ns:.1} ns/trip \
         ({:.3}%)",
        overhead * 100.0
    );
    assert!(
        overhead < DISABLED_OVERHEAD_CEILING,
        "disabled tracing must cost <{:.0}% of the ingest hot path, measured {:.3}%",
        DISABLED_OVERHEAD_CEILING * 100.0,
        overhead * 100.0
    );
}

fn bench_enabled_tax(c: &mut Criterion) {
    let (world, trips) = corpus();
    let db = world.build_db(5);
    let fresh = |tracer: Option<Arc<Tracer>>| {
        let monitor =
            TrafficMonitor::new(world.network.clone(), db.clone(), MonitorConfig::default());
        monitor.set_trace_sink(tracer);
        monitor
    };

    // Worst-case enabled cost: export-all keeps a full trace per trip.
    let batch_ns = |tracer: fn() -> Option<Arc<Tracer>>| {
        ns_per_call(|| {
            let monitor = fresh(tracer());
            for trip in &trips {
                black_box(monitor.ingest_upload(black_box(trip), None));
            }
        })
    };
    let disabled_ns = batch_ns(|| None);
    let enabled_ns = batch_ns(|| Some(Arc::new(Tracer::new(TracePolicy::export_all()))));
    println!(
        "trace_enabled_tax: disabled {:.0} ns/trip, export-all {:.0} ns/trip ({:+.1}%)",
        disabled_ns / trips.len() as f64,
        enabled_ns / trips.len() as f64,
        (enabled_ns / disabled_ns - 1.0) * 100.0
    );

    // Per-record tracer operations, criterion-published.
    let traced = Arc::new(Tracer::new(TracePolicy::export_all()));
    let monitor = fresh(Some(Arc::clone(&traced)));
    for trip in &trips {
        monitor.ingest_upload(trip, None);
    }
    let records = traced.exported();
    assert_eq!(records.len(), trips.len());

    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(1));
    group.bench_function("submit_sampled_out", |b| {
        // Policy keeps drops only: every submit pays ring bookkeeping
        // but no export clone.
        let sink = Tracer::new(TracePolicy::drops_only());
        let mut i = 0usize;
        b.iter(|| {
            sink.submit(black_box(records[i].clone()));
            i = (i + 1) % records.len();
        });
    });
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("jsonl_export", |b| b.iter(|| black_box(traced.jsonl())));
    group.bench_function("chrome_export", |b| {
        b.iter(|| black_box(traced.chrome_trace()));
    });
    group.finish();
}

criterion_group!(benches, bench_disabled_overhead, bench_enabled_tax);
criterion_main!(benches);
