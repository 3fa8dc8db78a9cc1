//! Concurrency stress: live fingerprint-database mutation racing
//! parallel queries, and `refresh_database` landing in the middle of a
//! parallel batch. Neither may tear state — every reader sees exactly
//! the old or exactly the new database, never a mix.

mod common;

use busprobe::cellular::Fingerprint;
use busprobe::core::{Matcher, MonitorConfig};
use busprobe::network::StopSiteId;
use busprobe_bench::World;
use common::TestWorld;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// `Matcher::insert`/`remove` (and index toggling) racing a pool of
/// query threads behind the same `RwLock` the monitor uses. Every query
/// runs under one read guard and must observe a fully consistent
/// matcher: candidates sorted best-first with finite above-threshold
/// scores, no duplicated sites, every site from the known universe, and
/// `best_match` agreeing with the head of the candidate pool.
#[test]
fn matcher_updates_race_parallel_queries_without_tearing() {
    let world = TestWorld::new(81, 3);
    let config = *Matcher::new(world.db.clone(), Default::default()).config();
    let matcher = RwLock::new(Matcher::new(world.db.clone(), Default::default()));

    // Probes: one noisy scan per stop site, so most queries have real
    // candidate pools.
    let mut rng = StdRng::seed_from_u64(81);
    let probes: Vec<Fingerprint> = world
        .network
        .sites()
        .iter()
        .map(|s| world.scanner.scan(s.position, &mut rng).fingerprint())
        .collect();

    // The updater churns "extra" stops: existing fingerprints re-homed
    // under fresh high site ids, inserted and removed in a loop.
    let extras: Vec<(StopSiteId, Fingerprint)> = world
        .db
        .iter()
        .take(8)
        .enumerate()
        .map(|(k, (_, fp))| (StopSiteId(10_000 + k as u32), fp.clone()))
        .collect();
    let universe: BTreeSet<StopSiteId> = world
        .db
        .iter()
        .map(|(site, _)| site)
        .chain(extras.iter().map(|(site, _)| *site))
        .collect();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    for probe in &probes {
                        let guard = matcher.read().unwrap();
                        let batched = guard.match_trip(std::slice::from_ref(probe));
                        let best = guard.best_match(probe);
                        let brute = guard.best_match_brute(probe);
                        drop(guard);
                        assert_eq!(best, brute, "indexed answer left the oracle's under churn");
                        assert_eq!(
                            batched,
                            [best],
                            "match_trip/best_match torn under one read guard"
                        );
                        if let Some(hit) = best {
                            assert!(
                                hit.score.is_finite() && hit.score >= config.accept_threshold,
                                "match below threshold under churn: {hit:?}"
                            );
                            assert!(
                                universe.contains(&hit.site),
                                "match names an unknown site: {hit:?}"
                            );
                        }
                    }
                }
            });
        }

        // The churn thread: insert/remove the extra stops — every
        // mutation behind the write guard.
        for _ in 0..60 {
            for (site, fp) in &extras {
                matcher.write().unwrap().insert(*site, fp.clone());
            }
            for (site, _) in &extras {
                matcher.write().unwrap().remove(*site);
            }
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });

    // The matcher survives with the base database intact.
    let guard = matcher.read().unwrap();
    assert_eq!(guard.db().len(), world.db.len());
}

/// Regression: `refresh_database` takes the matcher write guard, so a
/// refresh landing mid-parallel-batch must linearize between per-trip
/// read guards — no deadlock, no torn matches, the batch stays coherent
/// and the monitor still serves afterwards.
#[test]
fn refresh_database_mid_parallel_batch_is_linearized() {
    let test_world = TestWorld::new(82, 4);
    let world = World::small(82);
    let monitor = test_world.monitor_with(MonitorConfig {
        online_db_update: true,
        ..MonitorConfig::default()
    });

    // Seed the updater's harvest so refreshes have material to elect.
    let seed_trips = world.ride_corpus(60, 1);
    let seed_reports = monitor.ingest_batch_parallel(&seed_trips, 0);
    common::assert_coherent(&seed_reports, "seed batch");

    let batch = world.ride_corpus(240, 2);
    let refreshes = std::thread::scope(|scope| {
        let batch_handle = scope.spawn(|| monitor.ingest_batch_parallel(&batch, 4));
        let mut refreshes = 0usize;
        while !batch_handle.is_finished() {
            // Each call takes the matcher write guard; landing mid-batch
            // is exactly the race under test.
            let _changed = monitor.refresh_database();
            refreshes += 1;
            std::thread::yield_now();
        }
        let reports = batch_handle.join().expect("batch thread must not panic");
        common::assert_coherent(&reports, "batch under refresh");
        assert_eq!(reports.len(), batch.len());
        refreshes
    });
    assert!(refreshes > 0, "at least one refresh raced the batch");

    // The monitor is still fully serviceable: another refresh, another
    // batch, a snapshot.
    let _ = monitor.refresh_database();
    let after = monitor.ingest_batch_parallel(&world.ride_corpus(20, 3), 2);
    common::assert_coherent(&after, "post-race batch");
    let _ = monitor.snapshot(0.0);
}
