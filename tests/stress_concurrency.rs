//! Concurrency stress: live fingerprint-database mutation racing
//! parallel queries, and `refresh_database` landing in the middle of a
//! parallel batch. Neither may tear state — every reader sees exactly
//! the old or exactly the new database, never a mix. With a store
//! attached, a refresh or a checkpoint racing a parallel batch must
//! leave a state dir that recovers to the live state byte for byte.

mod common;

use busprobe::cellular::Fingerprint;
use busprobe::core::{Matcher, MonitorConfig, TrafficMonitor};
use busprobe::network::StopSiteId;
use busprobe::store::Store;
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

/// Rounds each durable race below runs. Each round is a fresh monitor
/// and state dir; a race that loses only sometimes shows in some of
/// them, so every round is checked and the failing ones are named.
const RACE_ROUNDS: u64 = 20;

/// A fresh state dir for one round of one race.
fn race_dir(tag: &str, round: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "busprobe-race-{tag}-{round}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `race` on this thread, once after each commit it sees land,
/// while a fresh monitor (online updater on, store window 8) ingests
/// `batch` with four stage workers on another — [`RACE_ROUNDS`] times.
/// Racing at most once per commit keeps the racer from holding the
/// commit lock back to back, which on a loaded machine starves the
/// batch and stretches a round from milliseconds to minutes. Every
/// round fsyncs the WAL and recovers the state dir, which must rebuild
/// the live state byte for byte; the failing rounds are named.
fn assert_race_recovers(
    tag: &str,
    seed: u64,
    batch: &[busprobe::mobile::Trip],
    race: impl Fn(&TrafficMonitor),
) {
    let world = TestWorld::new(seed, 4);
    let config = MonitorConfig {
        online_db_update: true,
        ..MonitorConfig::default()
    };
    let mut failed = Vec::new();
    for round in 0..RACE_ROUNDS {
        let dir = race_dir(tag, round);
        let monitor = world.monitor_with(config);
        monitor.attach_store_grouped(Store::open(&dir).unwrap(), 0, 8);
        std::thread::scope(|scope| {
            let batch_handle = scope.spawn(|| monitor.ingest_batch_parallel(batch, 4));
            let mut raced_at = None;
            while !batch_handle.is_finished() {
                let at = monitor.commit_count();
                if raced_at != Some(at) {
                    race(&monitor);
                    raced_at = Some(at);
                }
                std::thread::yield_now();
            }
            let reports = batch_handle.join().expect("batch thread must not panic");
            common::assert_coherent(&reports, "batch under race");
        });
        monitor.sync_store().expect("the store stays sound");
        let (recovered, _) =
            TrafficMonitor::recover(world.network.clone(), world.db.clone(), config, &dir)
                .expect("the state dir recovers");
        if recovered.export_state().encode() != monitor.export_state().encode() {
            failed.push(round);
        }
        drop(monitor);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        failed.is_empty(),
        "rounds {failed:?} of {RACE_ROUNDS} recovered to a state the live monitor never had"
    );
}

/// A refresh drains the updater's harvest and logs a `Refresh` record.
/// Racing a durable parallel batch, it must land between two commits in
/// the WAL exactly where it landed in the live state.
#[test]
fn a_refresh_racing_a_durable_batch_recovers_to_the_live_state() {
    let batch = World::small(83).ride_corpus(60, 4);
    assert_race_recovers("refresh", 83, &batch, |monitor| {
        let _changed = monitor.refresh_database();
    });
}

/// A checkpoint racing a parallel batch must snapshot a commit
/// boundary: the snapshot's seen set, fusion and pending harvest all
/// stop at the same commit, so the snapshot plus the WAL tail after it
/// folds no commit twice and loses none.
#[test]
fn a_checkpoint_racing_a_parallel_batch_recovers_to_the_live_state() {
    let batch = World::small(84).ride_corpus(240, 5);
    assert_race_recovers("checkpoint", 84, &batch, |monitor| {
        monitor.checkpoint().expect("the store stays sound");
    });
}
