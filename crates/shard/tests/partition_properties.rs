//! Property tests for the partitioner and router — the five contracts
//! the sharding layer's correctness argument rests on:
//!
//! 1. every stop site lands in exactly one shard, at any shard count,
//! 2. route affinity is absolute: a route's sites share a shard,
//! 3. the plan and routing decisions are independent of database
//!    insertion order,
//! 4. a boundary trip's overflow resolution (Score policy) is stable
//!    across shard counts: whatever plan is in force, the trip follows
//!    the same globally best-matching site,
//! 5. the plan equals the ordered-map reference build site for site, at
//!    every shard count from 1 to 16.

use busprobe_bench::world::Metropolis;
use busprobe_bench::World;
use busprobe_cellular::{CellObservation, CellScan, CellTowerId, Fingerprint};
use busprobe_core::{MatchConfig, MatchResult, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe_faults::{FaultInjector, FaultPlan};
use busprobe_geo::Point;
use busprobe_mobile::{CellularSample, Trip};
use busprobe_network::{NetworkGenerator, NetworkImport, RouteImport, StopSiteId, TransitNetwork};
use busprobe_shard::{CityPlan, OverflowPolicy, Routed, ShardRouter, ShardedMonitor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A calibrated district with window-overlapping synthetic
/// fingerprints (neighbour sites share cells, like a real corridor).
fn district(seed: u64) -> (TransitNetwork, StopFingerprintDb) {
    let network = NetworkGenerator::paper_region(seed).generate();
    let db = World::synthetic_db(network.sites().len(), seed);
    (network, db)
}

/// A scan hearing exactly `cells`, strongest first (descending
/// synthetic RSS).
fn scan_of(cells: &[CellTowerId]) -> CellScan {
    CellScan::new(
        cells
            .iter()
            .enumerate()
            .map(|(rank, &tower)| CellObservation {
                tower,
                rss_dbm: -60.0 - 3.0 * rank as f64,
            })
            .collect(),
    )
}

/// A trip of `scans`, one a minute.
fn trip_of_scans(scans: Vec<CellScan>) -> Trip {
    Trip {
        samples: scans
            .into_iter()
            .enumerate()
            .map(|(k, scan)| CellularSample {
                time_s: k as f64 * 60.0,
                scan,
            })
            .collect(),
    }
}

/// A trip whose every scan is exactly `fp`.
fn trip_of(fp: &Fingerprint, samples: usize) -> Trip {
    trip_of_scans(vec![scan_of(fp.cells()); samples])
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

/// The same rule when the batch spans shards: the list is checked
/// against the whole batch before any trip is bucketed, not discovered
/// as an index past the end while a bucket's arrivals are picked out.
#[test]
#[should_panic(expected = "received_s must be empty or match trips (2 vs 3)")]
fn short_arrival_list_is_refused_by_a_city_that_splits_the_batch() {
    let m = World::metropolis(400, 40, 17);
    let city = ShardedMonitor::new(
        m.network.clone(),
        &m.db,
        MonitorConfig::default(),
        2,
        OverflowPolicy::Score,
    );
    // The first trip, one bound for the other shard, and the first again.
    let corpus = m.trips_chunk(0, 40);
    let home = city.route(&corpus[0]).shard;
    let away = corpus
        .iter()
        .find(|t| city.route(t).shard != home)
        .expect("a 40-trip corpus over two shards reaches both");
    let trips = vec![corpus[0].clone(), away.clone(), corpus[0].clone()];
    let _ = city.ingest_batch_received_parallel(&trips, &[60.0, 60.0], 1);
}

/// The router as it was before the pre-filter — every probe against
/// every shard, then the bound race — kept as the oracle `route` must
/// agree with on every trip.
fn route_probing_every_shard(
    policy: OverflowPolicy,
    shards: &[Arc<TrafficMonitor>],
    trip: &Trip,
) -> Routed {
    let routed = |shard, overflow| Routed { shard, overflow };
    if shards.len() <= 1 {
        return routed(0, false);
    }
    // Up to four evenly spaced, distinct, non-empty sample fingerprints.
    let n = trip.samples.len();
    let take = 4.min(n);
    let mut probes: Vec<Fingerprint> = Vec::new();
    for k in 0..take {
        let i = if take == 1 {
            0
        } else {
            k * (n - 1) / (take - 1)
        };
        let fp = trip.samples[i].scan.fingerprint();
        if !fp.is_empty() && !probes.contains(&fp) {
            probes.push(fp);
        }
    }
    if probes.is_empty() {
        return routed(0, true);
    }
    let mut best = f64::NEG_INFINITY;
    let mut winners: Vec<usize> = Vec::new();
    for (idx, shard) in shards.iter().enumerate() {
        let bound = probes
            .iter()
            .filter_map(|fp| shard.probe_route_bound(fp))
            .fold(f64::NEG_INFINITY, f64::max);
        if bound == f64::NEG_INFINITY {
            continue;
        }
        if bound > best {
            best = bound;
            winners.clear();
        }
        if bound == best {
            winners.push(idx);
        }
    }
    match (winners.len(), policy) {
        (0, _) => routed(0, true),
        (1, _) => routed(winners[0], false),
        (_, OverflowPolicy::Lowest) => routed(winners[0], true),
        (_, OverflowPolicy::Score) => {
            let mut chosen = winners[0];
            let mut top: Option<MatchResult> = None;
            for &idx in &winners {
                for m in probes
                    .iter()
                    .filter_map(|fp| shards[idx].probe_best_match(fp))
                {
                    let better = top.as_ref().is_none_or(|cur| {
                        MatchResult::rank_order(&m, cur) == std::cmp::Ordering::Less
                    });
                    if better {
                        top = Some(m);
                        chosen = idx;
                    }
                }
            }
            routed(chosen, true)
        }
    }
}

/// Trips built to sit on the router's edges: phantom towers from a far
/// district mixed into a real scan (both strengths, so bounds tie and
/// differ), scans cut to one or two towers, towers no database has ever
/// held, empty scans and an empty trip.
fn hostile_trips(m: &Metropolis) -> Vec<Trip> {
    let sites = m.network.sites().len() as u32;
    let cells = |site: u32| m.db.get(StopSiteId(site)).expect("fingerprinted").cells();
    let noise: Vec<CellTowerId> = (0..6).map(|k| CellTowerId(4_000_000_000 + k)).collect();
    let mut trips = vec![trip_of_scans(vec![]), trip_of_scans(vec![scan_of(&[]); 3])];
    for k in 0..24u32 {
        let (near, far) = (k * 37 % sites, (k * 37 + sites / 2) % sites);
        for (take_near, take_far) in [(3, 3), (5, 2), (2, 1), (1, 1), (4, 0)] {
            let mixed: Vec<CellTowerId> = cells(near)
                .iter()
                .take(take_near)
                .chain(cells(far).iter().take(take_far))
                .chain(&noise[..2])
                .copied()
                .collect();
            let only_far: Vec<CellTowerId> = cells(far).iter().take(3).copied().collect();
            trips.push(trip_of_scans(vec![
                scan_of(&mixed),
                scan_of(&noise),
                scan_of(&mixed[..take_near.min(2)]),
                scan_of(&only_far),
                scan_of(&mixed),
            ]));
        }
    }
    trips
}

/// Asserts `route` ≡ the unfiltered race — shard *and* overflow flag —
/// for every trip, under both policies.
fn assert_routes_agree(shards: &[Arc<TrafficMonitor>], trips: &[Trip], context: &str) {
    for policy in [OverflowPolicy::Score, OverflowPolicy::Lowest] {
        let router = ShardRouter::new(policy);
        for (i, trip) in trips.iter().enumerate() {
            assert_eq!(
                router.route(shards, trip),
                route_probing_every_shard(policy, shards, trip),
                "{context}, {policy:?}, trip {i}"
            );
        }
    }
}

/// The pre-filter narrows the race's input and never its outcome: on
/// clean rides, an extreme-fault corpus and hand-built hostile trips,
/// at 2, 4 and 16 shards (16 leaves shards with empty databases).
#[test]
fn routing_equals_the_unfiltered_race() {
    let m = World::metropolis(800, 120, 23);
    let clean = m.trips_chunk(0, 120);
    let faulted: Vec<Trip> = FaultInjector::new(FaultPlan::extreme(), 23)
        .apply(&clean)
        .uploads
        .into_iter()
        .map(|u| u.trip)
        .collect();
    let hostile = hostile_trips(&m);
    for shards in [2usize, 4, 16] {
        let city = ShardedMonitor::new(
            m.network.clone(),
            &m.db,
            MonitorConfig::default(),
            shards,
            OverflowPolicy::Score,
        );
        let mut overflowed = 0;
        for (name, trips) in [
            ("clean", &clean),
            ("extreme", &faulted),
            ("hostile", &hostile),
        ] {
            assert_routes_agree(city.shards(), trips, &format!("{shards} shards, {name}"));
            overflowed += trips.iter().filter(|t| city.route(t).overflow).count();
        }
        assert!(
            overflowed > 0,
            "{shards} shards: no trip reached the overflow path"
        );
        assert!(
            clean.iter().all(|t| !city.route(t).overflow),
            "{shards} shards: a clean ride has one home"
        );
    }
}

/// The router reads each shard's live index, not the plan: after a
/// refresh re-elects one stop's fingerprint — dropping a cell only that
/// stop held (its posting list empties, its interned id stays) and
/// adding a tower the plan never saw — trips carrying either cell still
/// route exactly as the unfiltered race does. Run at the default γ and
/// at γ = 1, where a single shared cell is already a candidate and so
/// the two cells decide a trip's route on their own.
#[test]
fn routing_equals_the_unfiltered_race_after_index_churn() {
    let m = World::metropolis(400, 60, 29);
    let corpus = m.trips_chunk(0, 60);

    // A ride whose first stop holds a cell no other stop does.
    let holders = |cell: CellTowerId| {
        m.db.iter()
            .filter(|(_, fp)| fp.cells().contains(&cell))
            .count()
    };
    let (ride, site, retired) = corpus
        .iter()
        .find_map(|ride| {
            let first = ride.samples[0].scan.fingerprint();
            let (site, _) = m.db.iter().find(|(_, fp)| **fp == first)?;
            let retired = first.cells().iter().copied().find(|&c| holders(c) == 1)?;
            Some((ride, site, retired))
        })
        .expect("some ride starts at a stop with a cell of its own");
    // The same ride, its first stop now hearing `learned` where it heard
    // `retired`.
    let learned = CellTowerId(3_999_999_999);
    let drifted: Vec<CellTowerId> =
        m.db.get(site)
            .unwrap()
            .cells()
            .iter()
            .map(|&c| if c == retired { learned } else { c })
            .collect();
    let mut drifted_ride = ride.clone();
    for sample in &mut drifted_ride.samples {
        if sample.scan.fingerprint().cells().contains(&retired) {
            sample.scan = scan_of(&drifted);
        }
    }
    let lone =
        |cell: CellTowerId| trip_of_scans(vec![scan_of(&[cell, CellTowerId(4_000_000_001)]); 3]);
    let mut trips = corpus.clone();
    trips.extend(hostile_trips(&m));
    trips.extend([lone(retired), lone(learned), drifted_ride.clone()]);

    for gamma in [MatchConfig::default().accept_threshold, 1.0] {
        let config = MonitorConfig {
            online_db_update: true,
            matching: MatchConfig {
                accept_threshold: gamma,
                ..MatchConfig::default()
            },
            ..MonitorConfig::default()
        };
        let city = ShardedMonitor::new(m.network.clone(), &m.db, config, 4, OverflowPolicy::Score);
        let home = city.route(ride).shard;
        let shard = &city.shards()[home];
        // Four days of the drifted ride: enough harvest to re-elect.
        for day in 0..4 {
            let mut upload = drifted_ride.clone();
            for sample in &mut upload.samples {
                sample.time_s += 86_400.0 * f64::from(day);
            }
            let report = shard.ingest_upload(&upload, None);
            assert!(
                report.observations > 0,
                "γ = {gamma}, day {day}: {report:?}"
            );
        }
        assert!(
            shard.refresh_database() >= 1,
            "the drifted stop is re-elected"
        );
        let db = shard.database();
        assert_eq!(db.get(site).unwrap().cells(), &drifted[..]);
        assert!(db.iter().all(|(_, fp)| !fp.cells().contains(&retired)));

        assert_routes_agree(city.shards(), &trips, &format!("after churn, γ = {gamma}"));
        if gamma == 1.0 {
            let router = ShardRouter::new(OverflowPolicy::Score);
            assert_eq!(
                router.route(city.shards(), &lone(retired)),
                Routed {
                    shard: 0,
                    overflow: true
                },
                "an emptied posting list is an unknown cell"
            );
            assert_eq!(
                router.route(city.shards(), &lone(learned)),
                Routed {
                    shard: home,
                    overflow: false
                },
                "a cell learned after the plan was drawn routes by the live index"
            );
        }
    }
}

/// With the index disabled (γ ≤ 0) the probe can rule nothing out and
/// the race runs as it always did, on brute-force bounds.
#[test]
fn routing_equals_the_unfiltered_race_without_an_index() {
    let m = World::metropolis(200, 12, 31);
    let config = MonitorConfig {
        matching: MatchConfig {
            accept_threshold: 0.0,
            ..MatchConfig::default()
        },
        ..MonitorConfig::default()
    };
    let city = ShardedMonitor::new(m.network.clone(), &m.db, config, 4, OverflowPolicy::Score);
    let mut trips = m.trips_chunk(0, 12);
    trips.extend(hostile_trips(&m).into_iter().take(12));
    assert_routes_agree(city.shards(), &trips, "γ = 0");
}

/// Union-find over dense site indexes, as the reference plan used it.
struct ReferenceSets {
    parent: Vec<u32>,
}

impl ReferenceSets {
    fn new(n: usize) -> Self {
        ReferenceSets {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// `CityPlan::build` as it was over ordered maps — a first owner per
/// cell, component summaries and shards keyed by root — kept as the
/// oracle the dense-array build must agree with site for site.
/// `recover` rebuilds the plan instead of reading it, so this equality
/// is what lets a state dir written under the map-based build resume
/// with every site in the shard that logged it.
fn reference_assignment(
    network: &TransitNetwork,
    db: &StopFingerprintDb,
    shards: usize,
) -> Vec<usize> {
    let sites = network.sites();
    let n = sites.len();

    let mut sets = ReferenceSets::new(n);
    for route in network.routes() {
        let stops = route.stops();
        for pair in stops.windows(2) {
            sets.union(pair[0].site.0, pair[1].site.0);
        }
    }
    let mut cell_owner: BTreeMap<CellTowerId, u32> = BTreeMap::new();
    for (site, fp) in db.iter() {
        if site.index() >= n {
            continue;
        }
        for &cell in fp.cells() {
            match cell_owner.get(&cell) {
                Some(&first) => sets.union(first, site.0),
                None => {
                    cell_owner.insert(cell, site.0);
                }
            }
        }
    }

    struct Component {
        min_site: u32,
        count: usize,
        sum_x: f64,
        sum_y: f64,
    }
    let mut components: BTreeMap<u32, Component> = BTreeMap::new();
    for site in sites {
        let root = sets.find(site.id.0);
        let c = components.entry(root).or_insert(Component {
            min_site: site.id.0,
            count: 0,
            sum_x: 0.0,
            sum_y: 0.0,
        });
        c.min_site = c.min_site.min(site.id.0);
        c.count += 1;
        c.sum_x += site.position.x;
        c.sum_y += site.position.y;
    }

    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for site in sites {
        min_x = min_x.min(site.position.x);
        max_x = max_x.max(site.position.x);
        min_y = min_y.min(site.position.y);
        max_y = max_y.max(site.position.y);
    }
    let gx = (shards as f64).sqrt().ceil() as usize;
    let gy = shards.div_ceil(gx);
    let span_x = (max_x - min_x).max(1e-9);
    let span_y = (max_y - min_y).max(1e-9);
    let cell_of = |x: f64, y: f64| -> usize {
        let cx = (((x - min_x) / span_x * gx as f64) as usize).min(gx - 1);
        let cy = (((y - min_y) / span_y * gy as f64) as usize).min(gy - 1);
        cy * gx + cx
    };
    let mut ordered: Vec<(usize, u32, u32, usize)> = components
        .iter()
        .map(|(&root, c)| {
            let cell = cell_of(c.sum_x / c.count as f64, c.sum_y / c.count as f64);
            (cell, c.min_site, root, c.count)
        })
        .collect();
    ordered.sort_unstable();

    let mut shard_of_root: BTreeMap<u32, u32> = BTreeMap::new();
    let mut before = 0usize;
    for (_, _, root, count) in ordered {
        let shard = (before * shards / n).min(shards - 1);
        shard_of_root.insert(root, shard as u32);
        before += count;
    }
    (0..n as u32)
        .map(|i| shard_of_root[&sets.find(i)] as usize)
        .collect()
}

/// Asserts the plan equals the reference at every shard count 1–16.
fn assert_plans_match_reference(network: &TransitNetwork, db: &StopFingerprintDb, context: &str) {
    for shards in 1..=16 {
        let plan = CityPlan::build(network, db, shards);
        assert_eq!(plan.shards(), shards, "{context}");
        let assignment: Vec<usize> = network
            .sites()
            .iter()
            .map(|site| plan.shard_of(site.id))
            .collect();
        assert_eq!(
            assignment,
            reference_assignment(network, db, shards),
            "{context}, {shards} shards"
        );
    }
}

/// Three cells of a site's own.
fn own_cells(site: StopSiteId) -> Vec<CellTowerId> {
    (0..3).map(|k| CellTowerId(site.0 * 3 + k)).collect()
}

/// Short straight routes dropped on a 300 m lattice: a stop landing on
/// another route's stop merges into its site, so route groups come in
/// every size, from lone routes to long chains.
fn lattice_network(rng: &mut StdRng) -> TransitNetwork {
    let routes = (0..rng.gen_range(4..16))
        .map(|r| {
            let (x0, y0) = (rng.gen_range(0..12u32), rng.gen_range(0..12u32));
            let (dx, dy) = if rng.gen_bool(0.5) { (1, 0) } else { (0, 1) };
            RouteImport {
                name: format!("r{r}"),
                stops: (0..rng.gen_range(2..6u32))
                    .map(|k| {
                        Point::new(
                            f64::from((x0 + dx * k) * 300),
                            f64::from((y0 + dy * k) * 300),
                        )
                    })
                    .collect(),
                free_speed_mps: 12.0,
            }
        })
        .collect();
    NetworkImport {
        merge_radius_m: 20.0,
        routes,
    }
    .build()
    .expect("lattice routes import")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The plan equals the reference on generated networks, under
    /// corridor fingerprints (neighbours share cells) and disjoint ones
    /// (components are the route groups alone).
    #[test]
    fn prop_plan_matches_reference(seed in 0u64..1000) {
        let network = NetworkGenerator::small(seed).generate();
        let corridor = World::synthetic_db(network.sites().len(), seed);
        assert_plans_match_reference(&network, &corridor, &format!("small {seed}, corridor"));
        let disjoint: StopFingerprintDb = network
            .sites()
            .iter()
            .map(|s| (s.id, Fingerprint::new(own_cells(s.id)).unwrap()))
            .collect();
        assert_plans_match_reference(&network, &disjoint, &format!("small {seed}, disjoint"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same on lattice networks of many route groups, where some
    /// sites also hear one cell of a small shared pool, joining groups
    /// at random.
    #[test]
    fn prop_lattice_plan_matches_reference(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = lattice_network(&mut rng);
        let pool = (network.sites().len() as u32 / 4).max(1);
        let db: StopFingerprintDb = network
            .sites()
            .iter()
            .map(|s| {
                let mut cells = own_cells(s.id);
                if rng.gen_bool(0.3) {
                    cells.push(CellTowerId(1_000_000 + rng.gen_range(0..pool)));
                }
                (s.id, Fingerprint::new(cells).unwrap())
            })
            .collect();
        assert_plans_match_reference(&network, &db, &format!("lattice {seed}"));
    }
}

#[test]
fn calibrated_district_plan_matches_reference() {
    for seed in [3, 7, 11] {
        let network = World::calibrated(seed).network;
        let db = World::synthetic_db(network.sites().len(), seed);
        assert_plans_match_reference(&network, &db, &format!("calibrated {seed}"));
    }
}

#[test]
fn metropolis_plan_matches_reference() {
    let m = World::metropolis(2000, 1, 23);
    assert_plans_match_reference(&m.network, &m.db, "metropolis");
}

/// Two routes far apart joined only by one cell that a site on each
/// hears, beside a third route that nothing joins, and a fingerprint
/// for a site the network lacks (ignored by both builds).
#[test]
fn shared_cell_across_separate_routes_matches_reference() {
    let route = |name: &str, x0: f64, y: f64| RouteImport {
        name: name.into(),
        stops: (0..4)
            .map(|k| Point::new(x0 + 400.0 * f64::from(k), y))
            .collect(),
        free_speed_mps: 12.0,
    };
    let network = NetworkImport {
        merge_radius_m: 20.0,
        routes: vec![
            route("west", 0.0, 0.0),
            route("middle", 3000.0, 2500.0),
            route("east", 6000.0, 5000.0),
        ],
    }
    .build()
    .expect("three disjoint routes import");
    let n = network.sites().len() as u32;
    assert_eq!(n, 12);
    let shared = CellTowerId(1_000_000);
    let (west, east) = (StopSiteId(2), StopSiteId(9));
    let mut db: StopFingerprintDb = network
        .sites()
        .iter()
        .map(|s| {
            let mut cells: Vec<CellTowerId> = (0..3).map(|k| CellTowerId(s.id.0 * 3 + k)).collect();
            if s.id == west || s.id == east {
                cells.push(shared);
            }
            (s.id, Fingerprint::new(cells).unwrap())
        })
        .collect();
    db.insert(
        StopSiteId(n + 5),
        Fingerprint::new(vec![shared, CellTowerId(0)]).unwrap(),
    );
    assert_plans_match_reference(&network, &db, "shared cell");
    for shards in 1..=16 {
        let plan = CityPlan::build(&network, &db, shards);
        assert_eq!(plan.shard_of(west), plan.shard_of(east), "{shards} shards");
        assert_eq!(plan.shard_of(StopSiteId(0)), plan.shard_of(StopSiteId(11)));
    }
    // Without the shared cell the west and east routes part at two shards.
    db.remove(StopSiteId(n + 5));
    let apart: StopFingerprintDb = db
        .iter()
        .map(|(site, fp)| {
            let cells = fp
                .cells()
                .iter()
                .copied()
                .filter(|&c| c != shared)
                .collect();
            (site, Fingerprint::new(cells).unwrap())
        })
        .collect();
    assert_plans_match_reference(&network, &apart, "no shared cell");
    let plan = CityPlan::build(&network, &apart, 2);
    assert_ne!(plan.shard_of(west), plan.shard_of(east));
}
