use crate::grid::Grid;
use crate::ids::{RouteId, SegmentKey, StopId, StopSiteId};
use crate::route::{BusRoute, RouteStop};
use crate::stop::{BusStop, StopSite};
use crate::tables::{ChainIndex, FollowsBits};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

/// A directed road segment between two consecutive logical stops on at
/// least one route. This is the unit at which traffic is estimated and
/// published (§III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Directed endpoints.
    pub key: SegmentKey,
    /// Driving distance in metres along the route geometry.
    pub length_m: f64,
    /// Free-flow automobile speed in m/s (used for the intercept `a` of the
    /// BTT→ATT model: `a = length / free_speed`).
    pub free_speed_mps: f64,
}

impl Segment {
    /// Free-flow automobile travel time in seconds.
    #[must_use]
    pub fn free_travel_time_s(&self) -> f64 {
        self.length_m / self.free_speed_mps
    }
}

/// Bus-route coverage of the street grid, mirroring the paper's motivation
/// statistics ("80 % roads are covered by more than 2 bus routes",
/// §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageStats {
    /// Total block edges in the grid.
    pub total_edges: usize,
    /// Edges traversed by at least one route.
    pub covered_1: usize,
    /// Edges traversed by at least two distinct routes.
    pub covered_2: usize,
}

impl CoverageStats {
    /// Fraction of edges covered by at least one route.
    #[must_use]
    pub fn ratio_1(&self) -> f64 {
        self.covered_1 as f64 / self.total_edges as f64
    }

    /// Fraction of edges covered by at least two routes.
    #[must_use]
    pub fn ratio_2(&self) -> f64 {
        self.covered_2 as f64 / self.total_edges as f64
    }
}

/// Error produced when assembling an inconsistent [`TransitNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A route references a stop id that does not exist.
    UnknownStop(StopId),
    /// A route references a site id that does not exist.
    UnknownSite(StopSiteId),
    /// A stop's `site` back-reference disagrees with a route's stop entry.
    SiteMismatch(StopId),
    /// Ids are not dense 0..n in declaration order.
    NonDenseIds(&'static str),
    /// A site lies on a road the grid does not have.
    UnknownRoad(StopSiteId),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownStop(id) => write!(f, "route references unknown stop {id}"),
            NetworkError::UnknownSite(id) => write!(f, "route references unknown site {id}"),
            NetworkError::SiteMismatch(id) => write!(f, "stop {id} disagrees about its site"),
            NetworkError::NonDenseIds(kind) => write!(f, "{kind} ids are not dense"),
            NetworkError::UnknownRoad(id) => write!(f, "site {id} lies on a road not in the grid"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Identifies one block edge of the street grid (road piece between two
/// adjacent intersections). Used only for coverage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockEdge {
    /// `true` for a horizontal edge from intersection `(i, j)` to `(i+1, j)`,
    /// `false` for a vertical edge from `(i, j)` to `(i, j+1)`.
    pub horizontal: bool,
    /// West/south intersection column.
    pub i: usize,
    /// West/south intersection row.
    pub j: usize,
}

/// The assembled study region: street grid, stop sites, physical stops,
/// routes, and what is derived from them — the segment registry, the
/// route-order relation and the segment chains.
///
/// This is the "bus routes and traffic model" input of the system workflow
/// (Fig. 4): "readily available" public information the backend exploits.
#[derive(Debug, Clone)]
pub struct TransitNetwork {
    grid: Grid,
    sites: Vec<StopSite>,
    stops: Vec<BusStop>,
    routes: Vec<BusRoute>,
    /// Which routes traverse each block edge (for coverage stats).
    edge_routes: BTreeMap<BlockEdge, BTreeSet<RouteId>>,
    /// The directed segments between consecutive stops of every route,
    /// built by [`Self::assemble`].
    segments: BTreeMap<SegmentKey, Segment>,
    /// Per-site route visits, answering [`Self::segment_chain`]. Built
    /// from the routes on first use (DESIGN.md, "Network tables", says
    /// why not in `assemble`).
    chains: OnceLock<ChainIndex>,
    /// The route-order relation `R` of Eq. (2) as a bitmap, the mapper's
    /// Viterbi inner loop being too hot for per-query tree walks. Built
    /// from the routes' stop pairs on first use.
    follows_bits: OnceLock<FollowsBits>,
}

/// The wire form of a [`TransitNetwork`]: what it is assembled from, and
/// nothing derived. Reading goes through [`TransitNetwork::assemble`], so
/// a file is validated like any other input, and the derived tables an
/// older file also carries (`segments`, `successors`) are ignored.
#[derive(Serialize, Deserialize)]
struct NetworkWire {
    grid: Grid,
    sites: Vec<StopSite>,
    stops: Vec<BusStop>,
    routes: Vec<BusRoute>,
    #[serde(with = "map_as_pairs")]
    edge_routes: BTreeMap<BlockEdge, BTreeSet<RouteId>>,
}

impl Serialize for TransitNetwork {
    fn to_value(&self) -> serde::Value {
        NetworkWire {
            grid: self.grid.clone(),
            sites: self.sites.clone(),
            stops: self.stops.clone(),
            routes: self.routes.clone(),
            edge_routes: self.edge_routes.clone(),
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for TransitNetwork {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let w = NetworkWire::from_value(value)?;
        Self::assemble(w.grid, w.sites, w.stops, w.routes, w.edge_routes)
            .map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// Serializes `BTreeMap`s with non-string keys as sequences of pairs so
/// they survive JSON round-trips (JSON object keys must be strings): use
/// as `#[serde(with = "busprobe_network::map_as_pairs")]`.
pub mod map_as_pairs {
    use serde::{Deserialize, Error, Serialize, Value};
    use std::collections::BTreeMap;

    /// The map as an array of `[key, value]` pairs, in key order.
    pub fn to_value<K, V>(map: &BTreeMap<K, V>) -> Value
    where
        K: Serialize,
        V: Serialize,
    {
        Value::Array(
            map.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }

    /// The map back from its `[key, value]` pairs.
    pub fn from_value<K, V>(value: &Value) -> Result<BTreeMap<K, V>, Error>
    where
        K: for<'de> Deserialize<'de> + Ord,
        V: for<'de> Deserialize<'de>,
    {
        let pairs = Vec::<(K, V)>::from_value(value)?;
        Ok(pairs.into_iter().collect())
    }
}

impl TransitNetwork {
    /// Assembles and validates a network: the only way a network comes to
    /// exist, in process or off the wire.
    ///
    /// `edge_routes` maps grid block edges to the routes traversing them and
    /// is used only for coverage statistics; pass an empty map when coverage
    /// is irrelevant (e.g. hand-built test fixtures).
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] if ids are not dense (`sites[k].id == k`,
    /// likewise stops/routes), a site lies on a road the grid lacks, or a
    /// route references a missing or inconsistent stop/site.
    pub fn assemble(
        grid: Grid,
        sites: Vec<StopSite>,
        stops: Vec<BusStop>,
        routes: Vec<BusRoute>,
        edge_routes: BTreeMap<BlockEdge, BTreeSet<RouteId>>,
    ) -> Result<Self, NetworkError> {
        if sites.iter().enumerate().any(|(k, s)| s.id.index() != k) {
            return Err(NetworkError::NonDenseIds("site"));
        }
        if stops.iter().enumerate().any(|(k, s)| s.id.index() != k) {
            return Err(NetworkError::NonDenseIds("stop"));
        }
        if routes.iter().enumerate().any(|(k, r)| r.id.index() != k) {
            return Err(NetworkError::NonDenseIds("route"));
        }
        if let Some(site) = sites.iter().find(|s| s.road.index() >= grid.roads().len()) {
            return Err(NetworkError::UnknownRoad(site.id));
        }
        for route in &routes {
            for rs in route.stops() {
                let stop = stops
                    .get(rs.stop.index())
                    .ok_or(NetworkError::UnknownStop(rs.stop))?;
                if rs.site.index() >= sites.len() {
                    return Err(NetworkError::UnknownSite(rs.site));
                }
                if stop.site != rs.site {
                    return Err(NetworkError::SiteMismatch(rs.stop));
                }
            }
        }

        Ok(TransitNetwork {
            segments: segment_registry(&grid, &sites, &routes),
            grid,
            sites,
            stops,
            routes,
            edge_routes,
            chains: OnceLock::new(),
            follows_bits: OnceLock::new(),
        })
    }

    /// The underlying street grid.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// All logical stop sites, indexed by [`StopSiteId`].
    #[must_use]
    pub fn sites(&self) -> &[StopSite] {
        &self.sites
    }

    /// All physical stops, indexed by [`StopId`].
    #[must_use]
    pub fn stops(&self) -> &[BusStop] {
        &self.stops
    }

    /// All routes, indexed by [`RouteId`].
    #[must_use]
    pub fn routes(&self) -> &[BusRoute] {
        &self.routes
    }

    /// Which routes traverse each grid block edge.
    #[must_use]
    pub fn edge_routes(&self) -> &BTreeMap<BlockEdge, BTreeSet<RouteId>> {
        &self.edge_routes
    }

    /// The site with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are dense by construction).
    #[must_use]
    pub fn site(&self, id: StopSiteId) -> &StopSite {
        &self.sites[id.index()]
    }

    /// The physical stop with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn stop(&self, id: StopId) -> &BusStop {
        &self.stops[id.index()]
    }

    /// The route with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn route(&self, id: RouteId) -> &BusRoute {
        &self.routes[id.index()]
    }

    /// The route order relation `R` of Eq. (2): `true` iff `b` comes
    /// *strictly after* `a` on at least one route, i.e. a bus serving both
    /// might arrive at `b` after passing `a`.
    #[must_use]
    pub fn follows(&self, a: StopSiteId, b: StopSiteId) -> bool {
        self.follows_bits
            .get_or_init(|| FollowsBits::build(self.sites.len(), &self.routes))
            .contains(a, b)
    }

    /// The segment registry entry for `key`, if any route drives it.
    #[must_use]
    pub fn segment(&self, key: SegmentKey) -> Option<&Segment> {
        self.segments.get(&key)
    }

    /// Iterator over all directed segments.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.values()
    }

    /// Number of directed segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Routes whose stop list includes `site`.
    pub fn routes_serving(&self, site: StopSiteId) -> impl Iterator<Item = &BusRoute> {
        self.routes.iter().filter(move |r| r.serves(site))
    }

    /// The chain of elementary segments a bus traverses from site `a` to
    /// site `b`, following the route that serves both with the fewest
    /// intermediate stops. `None` if no single route visits `a` then `b`.
    ///
    /// Used when a bus skipped stops: the paper "automatically treats the
    /// combined two adjacent segments as one" (§III-D); the estimator then
    /// spreads the measured travel time over this chain.
    #[must_use]
    pub fn segment_chain(&self, a: StopSiteId, b: StopSiteId) -> Option<Vec<SegmentKey>> {
        self.chains().get(a, b).map(|chain| chain.keys.to_vec())
    }

    /// The segment chain from `a` to `b` plus its totals `(length_m,
    /// free travel time_s)`, summed over the chain in travel order. `None`
    /// when no single route visits `a` then `b`.
    #[must_use]
    pub fn segment_chain_stats(
        &self,
        a: StopSiteId,
        b: StopSiteId,
    ) -> Option<(&[SegmentKey], f64, f64)> {
        let chain = self.chains().get(a, b)?;
        let (length_m, free_time_s) = chain.totals();
        Some((chain.keys, length_m, free_time_s))
    }

    /// The chain index, built once on first use.
    fn chains(&self) -> &ChainIndex {
        self.chains
            .get_or_init(|| ChainIndex::build(self.sites.len(), &self.routes, &self.segments))
    }

    /// Driving distance of the shortest segment chain from `a` to `b`.
    #[must_use]
    pub fn site_distance(&self, a: StopSiteId, b: StopSiteId) -> Option<f64> {
        self.segment_chain_stats(a, b)
            .map(|(_, length_m, _)| length_m)
    }

    /// Coverage of the street grid by the route set.
    #[must_use]
    pub fn coverage(&self) -> CoverageStats {
        let total = self.grid.edge_count();
        let covered_1 = self.edge_routes.values().filter(|r| !r.is_empty()).count();
        let covered_2 = self.edge_routes.values().filter(|r| r.len() >= 2).count();
        CoverageStats {
            total_edges: total,
            covered_1,
            covered_2,
        }
    }
}

/// The segment registry: one entry per directed consecutive-stop pair of
/// any route, measured on the first route that drives it.
fn segment_registry(
    grid: &Grid,
    sites: &[StopSite],
    routes: &[BusRoute],
) -> BTreeMap<SegmentKey, Segment> {
    let mut segments = BTreeMap::new();
    for route in routes {
        for w in route.stops().windows(2) {
            let key = SegmentKey::new(w[0].site, w[1].site);
            segments.entry(key).or_insert_with(|| {
                // Free-flow speed: the slower of the two endpoint roads
                // (conservative when a segment spans a corner).
                let road = |rs: &RouteStop| &grid.roads()[sites[rs.site.index()].road.index()];
                Segment {
                    key,
                    length_m: w[1].offset - w[0].offset,
                    free_speed_mps: road(&w[0]).speed_limit_mps.min(road(&w[1]).speed_limit_mps),
                }
            });
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use crate::ids::RoadId;
    use crate::route::RouteStop;
    use crate::stop::TravelDirection;
    use busprobe_geo::{Point, Polyline};

    /// Two routes on a 4×1 grid sharing the middle sites:
    /// route 0 serves sites 0,1,2,3; route 1 serves sites 1,2.
    fn fixture() -> TransitNetwork {
        let grid = Grid::new(GridSpec {
            cols: 4,
            rows: 1,
            ..GridSpec::default()
        });
        let road = RoadId(0); // horizontal road j=0
        let mk_site = |k: u32, x: f64| StopSite {
            id: StopSiteId(k),
            name: format!("S{k:03}"),
            position: Point::new(x, 0.0),
            road,
            stop_increasing: Some(StopId(k)),
            stop_decreasing: None,
        };
        let sites = vec![
            mk_site(0, 250.0),
            mk_site(1, 750.0),
            mk_site(2, 1250.0),
            mk_site(3, 1750.0),
        ];
        let stops = (0u32..4)
            .map(|k| BusStop {
                id: StopId(k),
                site: StopSiteId(k),
                position: Point::new(250.0 + 500.0 * k as f64, -6.0),
                direction: TravelDirection::Increasing,
            })
            .collect();
        let path = Polyline::segment(Point::new(0.0, 0.0), Point::new(2000.0, 0.0)).unwrap();
        let rs = |k: u32, off: f64| RouteStop {
            stop: StopId(k),
            site: StopSiteId(k),
            offset: off,
        };
        let routes = vec![
            BusRoute::new(
                RouteId(0),
                "79".into(),
                path.clone(),
                vec![rs(0, 250.0), rs(1, 750.0), rs(2, 1250.0), rs(3, 1750.0)],
            ),
            BusRoute::new(
                RouteId(1),
                "99".into(),
                path.slice(750.0, 1250.0),
                vec![
                    RouteStop {
                        stop: StopId(1),
                        site: StopSiteId(1),
                        offset: 0.0,
                    },
                    RouteStop {
                        stop: StopId(2),
                        site: StopSiteId(2),
                        offset: 500.0,
                    },
                ],
            ),
        ];
        let mut edges = BTreeMap::new();
        edges.insert(
            BlockEdge {
                horizontal: true,
                i: 0,
                j: 0,
            },
            BTreeSet::from([RouteId(0)]),
        );
        edges.insert(
            BlockEdge {
                horizontal: true,
                i: 1,
                j: 0,
            },
            BTreeSet::from([RouteId(0), RouteId(1)]),
        );
        TransitNetwork::assemble(grid, sites, stops, routes, edges).unwrap()
    }

    #[test]
    fn follows_is_strict_order_along_route() {
        let n = fixture();
        assert!(n.follows(StopSiteId(0), StopSiteId(1)));
        assert!(n.follows(StopSiteId(0), StopSiteId(3)));
        assert!(!n.follows(StopSiteId(3), StopSiteId(0)));
        assert!(!n.follows(StopSiteId(1), StopSiteId(1)));
    }

    #[test]
    fn segments_are_shared_between_routes() {
        let n = fixture();
        let key = SegmentKey::new(StopSiteId(1), StopSiteId(2));
        assert_eq!(n.segment(key).unwrap().length_m, 500.0);
        let drives = |r: &&BusRoute| r.segment_keys().any(|k| k == key);
        assert_eq!(n.routes().iter().filter(drives).count(), 2);
        assert_eq!(n.segment_count(), 3);
    }

    #[test]
    fn segment_free_travel_time() {
        let n = fixture();
        let seg = n
            .segment(SegmentKey::new(StopSiteId(0), StopSiteId(1)))
            .unwrap();
        let expect = 500.0 / seg.free_speed_mps;
        assert!((seg.free_travel_time_s() - expect).abs() < 1e-9);
    }

    #[test]
    fn segment_chain_prefers_fewest_hops() {
        let n = fixture();
        let chain = n.segment_chain(StopSiteId(0), StopSiteId(2)).unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0], SegmentKey::new(StopSiteId(0), StopSiteId(1)));
        assert!(n.segment_chain(StopSiteId(2), StopSiteId(0)).is_none());
        // Direct pair served by route 1.
        let direct = n.segment_chain(StopSiteId(1), StopSiteId(2)).unwrap();
        assert_eq!(direct.len(), 1);
    }

    #[test]
    fn site_distance_sums_chain() {
        let n = fixture();
        assert_eq!(n.site_distance(StopSiteId(0), StopSiteId(3)), Some(1500.0));
        assert_eq!(n.site_distance(StopSiteId(3), StopSiteId(1)), None);
    }

    #[test]
    fn routes_serving_site() {
        let n = fixture();
        assert_eq!(n.routes_serving(StopSiteId(1)).count(), 2);
        assert_eq!(n.routes_serving(StopSiteId(0)).count(), 1);
    }

    #[test]
    fn coverage_counts_edges() {
        let n = fixture();
        let cov = n.coverage();
        assert_eq!(cov.covered_1, 2);
        assert_eq!(cov.covered_2, 1);
        assert!(cov.ratio_1() > 0.0 && cov.ratio_1() < 1.0);
        assert!(cov.ratio_2() <= cov.ratio_1());
    }

    #[test]
    fn assemble_rejects_site_mismatch() {
        let n = fixture();
        let mut stops: Vec<BusStop> = n.stops().to_vec();
        stops[1].site = StopSiteId(3); // disagrees with route entry
        let err = TransitNetwork::assemble(
            n.grid().clone(),
            n.sites().to_vec(),
            stops,
            n.routes().to_vec(),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert_eq!(err, NetworkError::SiteMismatch(StopId(1)));
    }

    #[test]
    fn assemble_rejects_non_dense_ids() {
        let n = fixture();
        let mut sites = n.sites().to_vec();
        sites[0].id = StopSiteId(9);
        let err = TransitNetwork::assemble(
            n.grid().clone(),
            sites,
            n.stops().to_vec(),
            n.routes().to_vec(),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert_eq!(err, NetworkError::NonDenseIds("site"));
    }

    /// The derived tables are O(route stops) and O(sites), not
    /// O(served pairs) or O(sites²), and hold no heap allocation per
    /// pair — as a number, on a tiled city where a dense `sites × sites`
    /// bitmap row alone would already be `sites / 8` bytes.
    #[test]
    fn derived_tables_stay_small_per_site_and_per_stop() {
        let tiles: Vec<TransitNetwork> = (0..4)
            .map(|t| crate::NetworkGenerator::small(40 + t).generate())
            .collect();
        let city = crate::compose_tiles(2, 2, &tiles).unwrap();
        let sites = city.sites().len();
        let stops: usize = city.routes().iter().map(BusRoute::stop_count).sum();
        // Force both tables.
        let last = StopSiteId(sites as u32 - 1);
        assert!(!city.follows(last, last));
        assert!(city.segment_chain(last, last).is_none());

        let chains = city.chains.get().unwrap();
        assert!(
            chains.heap_bytes() < 64 * stops + 8 * sites,
            "{} B of chain index for {stops} route stops over {sites} sites",
            chains.heap_bytes()
        );
        let bits = city.follows_bits.get().unwrap();
        assert!(
            bits.heap_bytes() < 64 * sites,
            "{} B of follows bitmap for {sites} sites",
            bits.heap_bytes()
        );
    }

    #[test]
    fn serde_round_trip_preserves_queries() {
        let n = fixture();
        let back: TransitNetwork =
            serde_json::from_str(&serde_json::to_string(&n).unwrap()).unwrap();
        assert!(back.follows(StopSiteId(0), StopSiteId(2)));
        assert_eq!(back.segment_count(), n.segment_count());
    }
}
