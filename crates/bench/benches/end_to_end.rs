//! End-to-end ingest throughput: complete uploads through matching →
//! clustering → mapping → estimation → fusion, sequential vs parallel.
//! This is the backend's capacity figure: uploads per second per core.

use busprobe_bench::World;
use busprobe_core::{MonitorConfig, TrafficMonitor};
use busprobe_mobile::Trip;
use busprobe_sim::SimTime;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let world = World::small(5);
    let db = world.build_db(5);
    let output = world.simulate(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0));
    let trips: Vec<Trip> = world
        .uploads(&output, 1.0, 1)
        .into_iter()
        .take(64)
        .collect();
    assert!(!trips.is_empty(), "need uploads to benchmark");
    // Fresh fusion state per iteration, but the expensive war-collected
    // database is shared.
    let fresh_monitor =
        || TrafficMonitor::new(world.network.clone(), db.clone(), MonitorConfig::default());

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trips.len() as u64));
    group.bench_function("ingest_sequential", |b| {
        b.iter(|| {
            let monitor = fresh_monitor();
            for trip in &trips {
                black_box(monitor.ingest_upload(black_box(trip), None));
            }
        })
    });
    group.bench_function("ingest_parallel", |b| {
        b.iter(|| {
            let monitor = fresh_monitor();
            black_box(monitor.ingest_batch_parallel(black_box(&trips), 0))
        })
    });
    group.bench_function("pipeline_only_no_fusion", |b| {
        let monitor = fresh_monitor();
        b.iter(|| {
            for trip in &trips {
                black_box(monitor.observations_for(black_box(trip)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
