//! Per-sample matching throughput: one uploaded scan against the full
//! bus-stop fingerprint database (the backend's innermost hot path; it runs
//! once per beep per rider in the city).

use busprobe_bench::World;
use busprobe_core::{MatchConfig, Matcher};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matching(c: &mut Criterion) {
    let world = World::paper(7);
    let db = world.build_db(5);
    let matcher = Matcher::new(db, MatchConfig::default());
    let mut rng = StdRng::seed_from_u64(1);

    // Samples scanned at actual stops (should match) and at random interior
    // positions (mostly rejected).
    let site = &world.network.sites()[world.network.sites().len() / 2];
    let at_stop = world.scanner.scan(site.position, &mut rng).fingerprint();
    let off_stop = world
        .scanner
        .scan(busprobe_geo::Point::new(3210.0, 1987.0), &mut rng)
        .fingerprint();

    let mut group = c.benchmark_group("matching");
    group.bench_with_input(
        BenchmarkId::new("best_match", format!("db_{}", matcher.db().len())),
        &at_stop,
        |b, fp| b.iter(|| black_box(matcher.best_match(black_box(fp)))),
    );
    group.bench_with_input(
        BenchmarkId::new("best_match_off_stop", format!("db_{}", matcher.db().len())),
        &off_stop,
        |b, fp| b.iter(|| black_box(matcher.best_match(black_box(fp)))),
    );
    group.finish();
}

/// Indexed vs brute-force scaling: the same queries against synthetic
/// databases of 110 / 500 / 2000 stops (the EXPERIMENTS.md table).
fn bench_indexed_vs_brute(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_index_scaling");
    for &stops in &[110usize, 500, 2000] {
        let db = World::synthetic_db(stops, 7);
        let matcher = Matcher::new(db.clone(), MatchConfig::default());
        // Query with stored fingerprints of evenly-spaced sites: every
        // query has a real answer, and locality varies across the db.
        let samples: Vec<_> = db
            .iter()
            .step_by((stops / 16).max(1))
            .map(|(_, fp)| fp.clone())
            .collect();
        let mut k = 0usize;
        group.bench_function(BenchmarkId::new("indexed", stops), |b| {
            b.iter(|| {
                k = (k + 1) % samples.len();
                black_box(matcher.best_match(black_box(&samples[k])))
            })
        });
        let mut k = 0usize;
        group.bench_function(BenchmarkId::new("brute", stops), |b| {
            b.iter(|| {
                k = (k + 1) % samples.len();
                black_box(matcher.best_match_brute(black_box(&samples[k])))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching, bench_indexed_vs_brute);
criterion_main!(benches);
