//! Property tests for the partitioner and router — the four contracts
//! the sharding layer's correctness argument rests on:
//!
//! 1. every stop site lands in exactly one shard, at any shard count,
//! 2. route affinity is absolute: a route's sites share a shard,
//! 3. the plan and routing decisions are independent of database
//!    insertion order,
//! 4. a boundary trip's overflow resolution (Score policy) is stable
//!    across shard counts: whatever plan is in force, the trip follows
//!    the same globally best-matching site.

use busprobe_bench::World;
use busprobe_cellular::{CellObservation, CellScan, CellTowerId, Fingerprint};
use busprobe_core::{MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe_mobile::{CellularSample, Trip};
use busprobe_network::{NetworkGenerator, StopSiteId, TransitNetwork};
use busprobe_shard::{CityPlan, OverflowPolicy, ShardedMonitor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A calibrated district with window-overlapping synthetic
/// fingerprints (neighbour sites share cells, like a real corridor).
fn district(seed: u64) -> (TransitNetwork, StopFingerprintDb) {
    let network = NetworkGenerator::paper_region(seed).generate();
    let db = World::synthetic_db(network.sites().len(), seed);
    (network, db)
}

/// A trip whose every scan is exactly `fp` (descending synthetic RSS).
fn trip_of(fp: &Fingerprint, samples: usize) -> Trip {
    let scan = CellScan::new(
        fp.cells()
            .iter()
            .enumerate()
            .map(|(rank, &tower)| CellObservation {
                tower,
                rss_dbm: -60.0 - 3.0 * rank as f64,
            })
            .collect(),
    );
    Trip {
        samples: (0..samples)
            .map(|k| CellularSample {
                time_s: k as f64 * 60.0,
                scan: scan.clone(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: a total, single-valued assignment at any shard count.
    #[test]
    fn prop_every_site_in_exactly_one_shard(seed in 0u64..40, shards in 1usize..12) {
        let (network, db) = district(seed);
        let plan = CityPlan::build(&network, &db, shards);
        let sizes = plan.shard_sizes();
        prop_assert_eq!(sizes.len(), shards);
        prop_assert_eq!(sizes.iter().sum::<usize>(), network.sites().len());
        // The sub-databases tile the full database exactly.
        let total: usize = (0..shards).map(|s| plan.sub_db(&db, s).len()).sum();
        prop_assert_eq!(total, db.len());
        for site in network.sites() {
            prop_assert!(plan.shard_of(site.id) < shards);
        }
    }

    /// Contract 2: route affinity is absolute, not best-effort.
    #[test]
    fn prop_route_affinity_absolute(seed in 0u64..40, shards in 1usize..12) {
        let (network, db) = district(seed);
        let plan = CityPlan::build(&network, &db, shards);
        for route in network.routes() {
            let home = plan.shard_of(route.stops()[0].site);
            for rs in route.stops() {
                prop_assert_eq!(plan.shard_of(rs.site), home);
            }
        }
    }

    /// Contract 3: shuffling database insertion order changes nothing —
    /// not the plan, not a routing decision.
    #[test]
    fn prop_insertion_order_irrelevant(seed in 0u64..40, shuffle_seed in 0u64..1000) {
        let (network, db) = district(seed);
        let mut entries: Vec<_> = db.iter().map(|(s, f)| (s, f.clone())).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: StopFingerprintDb = entries.into_iter().collect();
        let plan_a = CityPlan::build(&network, &db, 4);
        let plan_b = CityPlan::build(&network, &shuffled, 4);
        prop_assert_eq!(&plan_a, &plan_b);

        let a = ShardedMonitor::new(network.clone(), &db, MonitorConfig::default(), 4,
                                    OverflowPolicy::Score);
        let b = ShardedMonitor::new(network, &shuffled, MonitorConfig::default(), 4,
                                    OverflowPolicy::Score);
        for site in [0u32, 7, 31] {
            let fp = db.get(StopSiteId(site)).unwrap();
            let trip = trip_of(fp, 5);
            prop_assert_eq!(a.route(&trip), b.route(&trip));
        }
    }
}

/// Contract 4: overflow resolution under the Score policy lands a
/// boundary trip with the shard owning the globally best-matching site,
/// whatever the shard count — so changing the plan never changes which
/// region's matcher finally scores the trip.
#[test]
fn overflow_policy_stable_across_shard_counts() {
    let (network, db) = district(3);
    // A deliberately ambiguous scan: cells drawn from two sites far
    // apart in id space (different components under the synthetic DB),
    // biased toward the first.
    let a = db.get(StopSiteId(5)).unwrap();
    let b = db.get(StopSiteId(60)).unwrap();
    let mixed: Vec<CellTowerId> = a
        .cells()
        .iter()
        .take(5)
        .chain(b.cells().iter().take(3))
        .copied()
        .collect();
    let fp = Fingerprint::new(mixed).unwrap();
    let trip = trip_of(&fp, 4);

    // The reference: the unsharded matcher's best site.
    let reference = TrafficMonitor::new(network.clone(), db.clone(), MonitorConfig::default())
        .probe_best_match(&fp)
        .expect("ambiguous scan still matches somewhere")
        .site;

    for shards in [2usize, 4, 8] {
        let sharded = ShardedMonitor::new(
            network.clone(),
            &db,
            MonitorConfig::default(),
            shards,
            OverflowPolicy::Score,
        );
        let routed = sharded.route(&trip);
        assert_eq!(
            routed.shard,
            sharded.plan().shard_of(reference),
            "shards={shards}: trip must follow the globally best site {reference:?}"
        );
    }
}

/// The whole stack at district scale: shards=1 and shards=4 produce the
/// same federated city map for a clean (component-respecting) corpus.
#[test]
fn sharded_city_map_matches_unsharded_on_clean_corpus() {
    let m = World::metropolis(200, 60, 11);
    let trips = m.trips_chunk(0, 60);

    let single = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        MonitorConfig::default(),
        1,
        OverflowPolicy::Score,
    );
    let quad = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        MonitorConfig::default(),
        4,
        OverflowPolicy::Score,
    );
    let r1 = single.ingest_batch_received_parallel(&trips, &[], 1);
    let r4 = quad.ingest_batch_received_parallel(&trips, &[], 1);
    assert_eq!(r1, r4, "per-trip reports must not depend on the plan");

    let horizon = 3600.0;
    let a = serde_json::to_string(&single.city_map(horizon)).unwrap();
    let b = serde_json::to_string(&quad.city_map(horizon)).unwrap();
    assert_eq!(a, b, "federated maps must be identical across shard counts");

    assert!(single.accounting().conserved());
    assert!(quad.accounting().conserved());
    let acc = quad.accounting();
    assert_eq!(acc.routed, 60);
    assert!(
        acc.per_shard.iter().filter(|(i, d)| i + d > 0).count() > 1,
        "a 4-shard metropolis corpus must actually spread across shards"
    );
}

/// `TrafficMonitor::new`/`recover` take `impl Into<Arc<TransitNetwork>>`;
/// a city hands every shard its one `Arc`, so no shard — built fresh or
/// recovered from disk — may end up holding a network of its own.
#[test]
fn shards_share_one_network_fresh_and_recovered() {
    let m = World::metropolis(200, 20, 13);
    let config = MonitorConfig::default();
    let fresh = ShardedMonitor::new(m.network.clone(), &m.db, config, 4, OverflowPolicy::Score);
    let state = std::env::temp_dir().join(format!("busprobe-shard-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    fresh.attach_stores(&state, 0, 8).unwrap();
    let _ = fresh.ingest_batch_received_parallel(&m.trips_chunk(0, 20), &[], 1);
    fresh.sync_all().unwrap();
    let (recovered, summaries) =
        ShardedMonitor::recover(m.network.clone(), &m.db, config, &state).unwrap();
    assert_eq!(summaries.len(), 4);
    assert_eq!(recovered.commit_counts(), fresh.commit_counts());

    for city in [&fresh, &recovered] {
        assert_eq!(city.shards().len(), 4);
        for shard in city.shards() {
            assert!(
                std::ptr::eq(shard.network(), city.network()),
                "a shard cloned the city network"
            );
        }
    }
    std::fs::remove_dir_all(&state).unwrap();
}

/// The arrival-time rule (none, or one per trip) is `core`'s to
/// enforce; a city forwards the caller's slices and so refuses a short
/// list with the same message a bare monitor does.
#[test]
#[should_panic(expected = "received_s must be empty or match trips (2 vs 3)")]
fn short_arrival_list_is_refused_by_a_city() {
    let m = World::metropolis(200, 3, 17);
    let city = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        MonitorConfig::default(),
        2,
        OverflowPolicy::Score,
    );
    // One region's riders, so the batch reaches its shard whole.
    let trip = m.trips_chunk(0, 1).remove(0);
    let trips = vec![trip.clone(), trip.clone(), trip];
    let _ = city.ingest_batch_received_parallel(&trips, &[60.0, 60.0], 1);
}
