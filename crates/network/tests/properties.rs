//! Property tests of the network generator and the derived relations, over
//! many seeds: these are the invariants the backend silently relies on.

use busprobe_geo::Point;
use busprobe_network::{
    compose_tiles, NetworkGenerator, NetworkImport, RouteImport, SegmentKey, StopSiteId,
    TransitNetwork,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn generated(seed: u64) -> TransitNetwork {
    NetworkGenerator::small(seed).generate()
}

/// `segment_chain` by scanning: routes in id order, a site counted at
/// its first occurrence on a route, a chain replaced only by a strictly
/// shorter one.
fn scanned_chain(n: &TransitNetwork, a: StopSiteId, b: StopSiteId) -> Option<Vec<SegmentKey>> {
    let mut best: Option<Vec<SegmentKey>> = None;
    for route in n.routes() {
        let (Some(ia), Some(ib)) = (route.position_of(a), route.position_of(b)) else {
            continue;
        };
        if ia < ib && best.as_ref().is_none_or(|chain| ib - ia < chain.len()) {
            let stops = &route.stops()[ia..=ib];
            best = Some(
                stops
                    .windows(2)
                    .map(|w| SegmentKey::new(w[0].site, w[1].site))
                    .collect(),
            );
        }
    }
    best
}

/// `follows` by scanning: every stop pair `i < j` of every route,
/// revisited sites included.
fn scanned_follows(n: &TransitNetwork) -> BTreeSet<(StopSiteId, StopSiteId)> {
    let mut pairs = BTreeSet::new();
    for route in n.routes() {
        let stops = route.stops();
        for (i, a) in stops.iter().enumerate() {
            for b in &stops[i + 1..] {
                pairs.insert((a.site, b.site));
            }
        }
    }
    pairs
}

/// Checks the derived tables against scanning oracles for *every*
/// ordered site pair (and a few ids past the end): the chain, its
/// totals bit for bit, and the `follows` relation.
fn assert_tables_match_scans(n: &TransitNetwork, context: &str) {
    let sites = n.sites().len() as u32;
    let follows = scanned_follows(n);
    for a in (0..sites + 2).map(StopSiteId) {
        for b in (0..sites + 2).map(StopSiteId) {
            let expected = (a.0 < sites && b.0 < sites)
                .then(|| scanned_chain(n, a, b))
                .flatten();
            assert_eq!(
                n.segment_chain(a, b),
                expected,
                "{context}: chain {a} -> {b}"
            );

            // Totals are `.sum()` over the chain's segments in order.
            let segments = expected.as_ref().map(|chain| {
                chain
                    .iter()
                    .map(|&k| n.segment(k).expect("the registry holds every route hop"))
                    .collect::<Vec<_>>()
            });
            let totals = segments.map(|segs| {
                (
                    segs.iter().map(|s| s.length_m).sum::<f64>().to_bits(),
                    segs.iter()
                        .map(|s| s.free_travel_time_s())
                        .sum::<f64>()
                        .to_bits(),
                )
            });
            let stats = n.segment_chain_stats(a, b);
            assert_eq!(
                stats.map(|(_, m, s)| (m.to_bits(), s.to_bits())),
                totals,
                "{context}: totals {a} -> {b}"
            );
            if let Some((keys, _, _)) = stats {
                assert_eq!(Some(keys), expected.as_deref(), "{context}: stats chain");
            }
            assert_eq!(
                n.site_distance(a, b).map(f64::to_bits),
                totals.map(|t| t.0),
                "{context}: distance {a} -> {b}"
            );

            assert_eq!(
                n.follows(a, b),
                follows.contains(&(a, b)),
                "{context}: follows {a} -> {b}"
            );
        }
    }
}

/// The same again on a copy that went through JSON: the tables are not
/// serialised, so the copy is assembled afresh from the inputs.
fn assert_tables_survive_serde(n: &TransitNetwork, context: &str) {
    let back: TransitNetwork = serde_json::from_str(&serde_json::to_string(n).unwrap()).unwrap();
    assert_tables_match_scans(&back, &format!("{context}, round-tripped"));
}

/// Six sites on irregular coordinates (so float sums depend on their
/// order) and five routes built to hit every selection rule:
///
/// * route 0 loops — `A B C D A E` — so `A` counts at index 0 only:
///   `A → E` is the five-hop chain, and `B → A` is not served by it;
/// * routes 1 (`B C F`) and 2 (`B E F`) tie on hops for `B → F`; the
///   lower id wins, with different segments;
/// * route 3 (`D E`) strictly shortens route 0's two-hop `D → E`;
/// * route 4 (`C B A`) serves `B → A` the loop could not.
fn hand_assembled() -> TransitNetwork {
    let [a, b, c, d, e, f] = [
        Point::new(3.7, -11.2),
        Point::new(517.3, 29.9),
        Point::new(489.1, 611.4),
        Point::new(-41.6, 498.3),
        Point::new(1093.8, -77.7),
        Point::new(1012.5, 644.4),
    ];
    let route = |name: &str, stops: &[Point], kmh: f64| RouteImport {
        name: name.into(),
        stops: stops.to_vec(),
        free_speed_mps: kmh / 3.6,
    };
    NetworkImport {
        merge_radius_m: 20.0,
        routes: vec![
            route("loop", &[a, b, c, d, Point::new(5.1, -9.0), e], 50.0),
            route("tie-low", &[b, c, f], 47.0),
            route("tie-high", &[b, e, f], 61.0),
            route("short", &[d, e], 53.0),
            route("back", &[c, b, a], 43.0),
        ],
    }
    .build()
    .expect("hand-assembled network is consistent")
}

#[test]
fn hand_assembled_network_tables_match_scans() {
    let n = hand_assembled();
    assert_eq!(n.sites().len(), 6, "the loop's second visit merges into A");
    let site = |k: u32| StopSiteId(k);
    let hops = |from: u32, to: u32| n.segment_chain(site(from), site(to)).map(|c| c.len());
    // A=0 B=1 C=2 D=3 E=4 F=5, in order of first appearance.
    assert_eq!(
        hops(0, 4),
        Some(5),
        "first occurrence, not the shorter second"
    );
    assert_eq!(hops(3, 4), Some(1), "a strictly shorter later route wins");
    assert_eq!(hops(1, 0), Some(1), "served by the back route only");
    assert_eq!(
        n.segment_chain(site(1), site(5)).unwrap()[0],
        SegmentKey::new(site(1), site(2)),
        "a tie on hops goes to the lower route id"
    );
    assert!(n.follows(site(3), site(0)) && n.follows(site(0), site(3)));
    assert_tables_match_scans(&n, "hand-assembled");
    assert_tables_survive_serde(&n, "hand-assembled");
}

/// A `network.json` written before the wire form held only the inputs
/// also carries a segment registry and per-site successor sets. Reading
/// ignores both and assembles, so a stale copy of them — here a registry
/// that lacks C -> D and measures every other segment wrong, and
/// successor sets that name every site — changes no answer.
#[test]
fn stale_derived_fields_on_the_wire_are_ignored() {
    let n = hand_assembled();
    let sites = n.sites().len() as u32;
    let lost = SegmentKey::new(StopSiteId(2), StopSiteId(3)); // C -> D
    assert!(n.segment(lost).is_some());
    let segments: Vec<String> = n
        .segments()
        .filter(|seg| seg.key != lost)
        .map(|seg| {
            let key = serde_json::to_string(&seg.key).unwrap();
            format!(r#"[{key},{{"key":{key},"length_m":1.0,"free_speed_mps":1.0,"routes":[]}}]"#)
        })
        .collect();
    let every_site: Vec<u32> = (0..sites).collect();
    let successors = vec![every_site; sites as usize];
    let mut value = serde_json::to_value(&n);
    let serde_json::Value::Object(fields) = &mut value else {
        panic!("a network serialises as an object");
    };
    // Whatever the writer put there is replaced by the stale copies.
    fields.retain(|(k, _)| k != "segments" && k != "successors");
    let stale_segments = format!("[{}]", segments.join(","));
    fields.push((
        "segments".into(),
        serde_json::from_str(&stale_segments).unwrap(),
    ));
    fields.push(("successors".into(), serde_json::to_value(&successors)));
    let read: TransitNetwork = serde_json::from_value(&value).unwrap();

    assert_eq!(read.segment_count(), n.segment_count());
    for seg in n.segments() {
        assert_eq!(read.segment(seg.key), Some(seg));
    }
    for a in (0..sites).map(StopSiteId) {
        for b in (0..sites).map(StopSiteId) {
            let bits = |n: &TransitNetwork| {
                n.segment_chain_stats(a, b)
                    .map(|(keys, m, s)| (keys.to_vec(), m.to_bits(), s.to_bits()))
            };
            assert_eq!(bits(&read), bits(&n), "chain and totals {a} -> {b}");
            assert_eq!(read.follows(a, b), n.follows(a, b), "follows {a} -> {b}");
        }
    }
    let (a, e) = (StopSiteId(0), StopSiteId(4));
    assert_eq!(read.segment_chain(a, e).map(|c| c.len()), Some(5));
    assert!(read.site_distance(a, e).is_some());
    assert_tables_match_scans(&read, "stale wire fields");
}

#[test]
fn composed_city_tables_match_scans() {
    let tiles: Vec<TransitNetwork> = (0..4).map(|t| generated(40 + t)).collect();
    let city = compose_tiles(2, 2, &tiles).expect("tiles compose");
    assert_tables_match_scans(&city, "2x2 city");
    assert_tables_survive_serde(&city, "2x2 city");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Route stop offsets strictly increase and stay within the path.
    #[test]
    fn prop_route_offsets_are_monotone(seed in 0u64..500) {
        let n = generated(seed);
        for route in n.routes() {
            let len = route.length();
            for w in route.stops().windows(2) {
                prop_assert!(w[0].offset < w[1].offset);
            }
            for rs in route.stops() {
                prop_assert!(rs.offset >= 0.0 && rs.offset <= len + 1e-6);
            }
        }
    }

    /// `follows` is transitive along each single route.
    #[test]
    fn prop_follows_is_transitive_on_routes(seed in 0u64..500) {
        let n = generated(seed);
        for route in n.routes() {
            let stops = route.stops();
            for i in 0..stops.len() {
                for j in i + 1..stops.len() {
                    prop_assert!(
                        n.follows(stops[i].site, stops[j].site),
                        "stop {i} must precede stop {j} on route {}",
                        route.name
                    );
                }
            }
        }
    }

    /// Every consecutive stop pair of every route is in the segment
    /// registry, and the registry holds nothing else.
    #[test]
    fn prop_segments_cover_exactly_route_pairs(seed in 0u64..500) {
        let n = generated(seed);
        let mut expected = std::collections::BTreeSet::new();
        for route in n.routes() {
            for key in route.segment_keys() {
                expected.insert(key);
                prop_assert!(n.segment(key).is_some());
            }
        }
        prop_assert_eq!(n.segment_count(), expected.len());
    }

    /// Segment lengths are positive and physically plausible for a grid of
    /// 500 m blocks (one block, or a corner at most a few blocks).
    #[test]
    fn prop_segment_lengths_plausible(seed in 0u64..500) {
        let n = generated(seed);
        for seg in n.segments() {
            prop_assert!(seg.length_m > 0.0);
            prop_assert!(seg.length_m <= 3000.0, "{} is {} m", seg.key, seg.length_m);
            prop_assert!(seg.free_speed_mps > 0.0);
        }
    }

    /// segment_chain endpoints match the query and chain links are
    /// contiguous.
    #[test]
    fn prop_segment_chain_is_contiguous(seed in 0u64..200) {
        let n = generated(seed);
        let route = &n.routes()[0];
        let stops = route.stops();
        for i in 0..stops.len().min(6) {
            for j in i + 1..stops.len().min(6) {
                let chain = n
                    .segment_chain(stops[i].site, stops[j].site)
                    .expect("same route must be chainable");
                prop_assert_eq!(chain.first().unwrap().from, stops[i].site);
                prop_assert_eq!(chain.last().unwrap().to, stops[j].site);
                for w in chain.windows(2) {
                    prop_assert_eq!(w[0].to, w[1].from);
                }
                // The chain is never longer than the direct index distance.
                prop_assert!(chain.len() <= j - i);
            }
        }
    }

    /// site_distance is additive along a route prefix (chains through the
    /// same route compose).
    #[test]
    fn prop_site_distance_upper_bounds(seed in 0u64..200) {
        let n = generated(seed);
        let route = &n.routes()[0];
        let stops = route.stops();
        if stops.len() >= 3 {
            let d02 = n.site_distance(stops[0].site, stops[2].site).unwrap();
            // Direct distance never exceeds the route's own stop spacing sum.
            let route_d = route.distance_between(0, 2);
            prop_assert!(d02 <= route_d + 1e-6);
        }
    }

    /// The chain table and the `follows` bitmap answer every ordered
    /// site pair exactly as a scan of the routes does, before and after
    /// a serde round-trip.
    #[test]
    fn prop_tables_match_scans(seed in 0u64..200) {
        let n = generated(seed);
        assert_tables_match_scans(&n, &format!("seed {seed}"));
        assert_tables_survive_serde(&n, &format!("seed {seed}"));
    }

    /// Every physical stop's site back-reference is consistent.
    #[test]
    fn prop_stop_site_back_references(seed in 0u64..500) {
        let n = generated(seed);
        for stop in n.stops() {
            let site = n.site(stop.site);
            prop_assert_eq!(site.stop_for(stop.direction), Some(stop.id));
        }
        for site in n.sites() {
            for stop_id in site.stops() {
                prop_assert_eq!(n.stop(stop_id).site, site.id);
            }
        }
    }

    /// The network JSON round-trips with the derived `follows` relation
    /// intact, for arbitrary seeds.
    #[test]
    fn prop_serde_preserves_follows(seed in 0u64..50) {
        let n = generated(seed);
        let back: TransitNetwork =
            serde_json::from_str(&serde_json::to_string(&n).unwrap()).unwrap();
        for route in n.routes() {
            let stops = route.stops();
            for w in stops.windows(2) {
                prop_assert!(back.follows(w[0].site, w[1].site));
            }
        }
    }
}

#[test]
fn paper_region_reaches_paper_statistics_across_seeds() {
    // Not one lucky seed: the region statistics hold for a whole seed range.
    for seed in 0..10 {
        let n = NetworkGenerator::paper_region(seed).generate();
        assert_eq!(n.routes().len(), 8);
        assert!(
            n.sites().len() >= 60,
            "seed {seed}: {} sites",
            n.sites().len()
        );
        let cov = n.coverage();
        assert!(
            cov.ratio_1() > 0.3,
            "seed {seed}: coverage {:.2}",
            cov.ratio_1()
        );
        assert!(
            cov.ratio_2() > 0.05,
            "seed {seed}: 2-route coverage {:.2}",
            cov.ratio_2()
        );
    }
}

#[test]
fn reversed_segment_exists_only_with_reverse_service() {
    let n = generated(77);
    for seg in n.segments() {
        if let Some(rev) = n.segment(seg.key.reversed()) {
            // If both directions exist they describe the same road piece.
            assert!((rev.length_m - seg.length_m).abs() < 1e-6);
        }
    }
}
