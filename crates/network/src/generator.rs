use crate::grid::{Grid, GridSpec};
use crate::ids::{RouteId, StopId, StopSiteId};
use crate::network::{BlockEdge, TransitNetwork};
use crate::route::{BusRoute, RouteStop};
use crate::stop::{BusStop, StopSite, TravelDirection};
use busprobe_geo::{Point, Polyline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Bus-service names borrowed from the paper's 8 experimental routes
/// ("bus route 79, 99, 240, 243, 252, 257, 182 and partial part of route
/// 30", §IV-A). Purely cosmetic.
const PAPER_ROUTE_NAMES: [&str; 8] = ["79", "99", "240", "243", "252", "257", "182", "30"];

/// Kerb offset of a physical stop from the road centre line, metres.
const KERB_OFFSET_M: f64 = 6.0;

/// Seeded generator producing a [`TransitNetwork`] with the statistics of
/// the paper's study region.
///
/// Routes are self-avoiding lattice walks across the street grid, biased to
/// continue straight and to prefer major roads — which makes distinct routes
/// share road stretches and bus stops, as real services do. One logical
/// [`StopSite`] is placed at the midpoint of every block edge a route
/// traverses; routes traversing the same edge share the site (and, when
/// travelling the same way, the physical stop).
///
/// # Examples
///
/// ```
/// use busprobe_network::NetworkGenerator;
///
/// let network = NetworkGenerator::paper_region(42).generate();
/// let coverage = network.coverage();
/// // The paper's 8 routes cover over half the roads of its region; the
/// // generator lands in the same ballpark for any seed.
/// assert!(coverage.ratio_1() > 0.3, "routes should cover much of the grid");
/// ```
#[derive(Debug, Clone)]
pub struct NetworkGenerator {
    spec: GridSpec,
    num_routes: usize,
    seed: u64,
    straight_bias: f64,
    major_road_bias: f64,
    min_stops: usize,
    max_stops: usize,
}

impl NetworkGenerator {
    /// A generator with the paper's region defaults: 7 km × 4 km grid and
    /// 8 bus routes of roughly 15–35 stops.
    #[must_use]
    pub fn paper_region(seed: u64) -> Self {
        NetworkGenerator {
            spec: GridSpec::default(),
            num_routes: 8,
            seed,
            straight_bias: 3.0,
            major_road_bias: 2.0,
            min_stops: 15,
            max_stops: 35,
        }
    }

    /// A small 3-route network for fast tests.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        NetworkGenerator {
            spec: GridSpec {
                cols: 6,
                rows: 4,
                ..GridSpec::default()
            },
            num_routes: 3,
            seed,
            straight_bias: 3.0,
            major_road_bias: 2.0,
            min_stops: 6,
            max_stops: 16,
        }
    }

    /// Overrides the number of routes.
    #[must_use]
    pub fn with_routes(mut self, n: usize) -> Self {
        self.num_routes = n;
        self
    }

    /// Overrides the per-route stop count range.
    ///
    /// # Panics
    ///
    /// Panics if `min < 2` or `min > max`.
    #[must_use]
    pub fn with_stop_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 2 && min <= max, "invalid stop range");
        self.min_stops = min;
        self.max_stops = max;
        self
    }

    /// Generates the network. Deterministic for a given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the grid is too small to host walks of `min_stops` edges
    /// (each route retries a number of seeds before giving up).
    #[must_use]
    pub fn generate(&self) -> TransitNetwork {
        let grid = Grid::new(self.spec);
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut sites: Vec<StopSite> = Vec::new();
        let mut stops: Vec<BusStop> = Vec::new();
        let mut routes: Vec<BusRoute> = Vec::new();
        let mut edge_to_site: HashMap<BlockEdge, StopSiteId> = HashMap::new();
        let mut stop_by_site_dir: HashMap<(StopSiteId, TravelDirection), StopId> = HashMap::new();
        let mut edge_routes: BTreeMap<BlockEdge, BTreeSet<RouteId>> = BTreeMap::new();

        for r in 0..self.num_routes {
            let walk = self.walk_for_route(r, &mut rng);
            let route_id = RouteId(r as u32);
            let name = PAPER_ROUTE_NAMES
                .get(r)
                .map(|s| (*s).to_string())
                .unwrap_or_else(|| format!("R{r}"));

            // Path polyline through the walked intersections.
            let vertices: Vec<Point> = walk
                .iter()
                .map(|&(i, j)| self.spec.intersection(i, j))
                .collect();
            let path = Polyline::new(vertices).expect("walk has at least two intersections");

            // One stop per traversed edge, at the block midpoint.
            let mut route_stops = Vec::with_capacity(walk.len() - 1);
            let mut cumulative = 0.0;
            for w in walk.windows(2) {
                let (a, b) = (w[0], w[1]);
                let edge = edge_of(a, b);
                let horizontal = edge.horizontal;
                let edge_len = if horizontal {
                    self.spec.block_w
                } else {
                    self.spec.block_h
                };
                let offset = cumulative + edge_len / 2.0;
                cumulative += edge_len;

                let travel_positive = if horizontal { b.0 > a.0 } else { b.1 > a.1 };
                let dir = if travel_positive {
                    TravelDirection::Increasing
                } else {
                    TravelDirection::Decreasing
                };

                let site_id = *edge_to_site.entry(edge).or_insert_with(|| {
                    let id = StopSiteId(sites.len() as u32);
                    let road = if horizontal {
                        grid.horizontal(edge.j).id
                    } else {
                        grid.vertical(edge.i).id
                    };
                    sites.push(StopSite {
                        id,
                        name: format!("S{:03}", id.0),
                        position: edge_midpoint(&self.spec, edge),
                        road,
                        stop_increasing: None,
                        stop_decreasing: None,
                    });
                    id
                });

                let stop_id = *stop_by_site_dir.entry((site_id, dir)).or_insert_with(|| {
                    let id = StopId(stops.len() as u32);
                    let site = &mut sites[site_id.index()];
                    // Kerbside is to the right of travel.
                    let kerb = kerb_position(site.position, horizontal, dir);
                    stops.push(BusStop {
                        id,
                        site: site_id,
                        position: kerb,
                        direction: dir,
                    });
                    match dir {
                        TravelDirection::Increasing => site.stop_increasing = Some(id),
                        TravelDirection::Decreasing => site.stop_decreasing = Some(id),
                    }
                    id
                });

                edge_routes.entry(edge).or_default().insert(route_id);
                route_stops.push(RouteStop {
                    stop: stop_id,
                    site: site_id,
                    offset,
                });
            }

            routes.push(BusRoute::new(route_id, name, path, route_stops));
        }

        TransitNetwork::assemble(grid, sites, stops, routes, edge_routes)
            .expect("generator produces a consistent network")
    }

    /// Self-avoiding (edge-wise) lattice walk for route index `r`.
    /// Returns the visited intersections. Retries seeds until a walk of at
    /// least `min_stops` edges is found.
    fn walk_for_route(&self, r: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        for _attempt in 0..64 {
            let walk = self.try_walk(r, rng);
            if walk.len() > self.min_stops {
                return walk;
            }
        }
        panic!(
            "could not generate a route of {} stops on a {}x{} grid",
            self.min_stops, self.spec.cols, self.spec.rows
        );
    }

    fn try_walk(&self, r: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        let (cols, rows) = (self.spec.cols, self.spec.rows);
        // Alternate west→east and south→north service corridors, with the
        // entry point spread across the boundary.
        let horizontal_major = r.is_multiple_of(2);
        let lane = r / 2;
        let (mut pos, mut heading): ((isize, isize), (isize, isize)) = if horizontal_major {
            let j = ((lane * rows) / (self.num_routes / 2 + 1).max(1) + 1).min(rows);
            ((0, j as isize), (1, 0))
        } else {
            let i = ((lane * cols) / (self.num_routes / 2 + 1).max(1) + 1).min(cols);
            ((i as isize, 0), (0, 1))
        };

        let mut walk = vec![(pos.0 as usize, pos.1 as usize)];
        let mut used_edges: HashSet<BlockEdge> = HashSet::new();
        let max_edges = self.max_stops;

        while walk.len() <= max_edges {
            let candidates = [heading, (heading.1, heading.0), (-heading.1, -heading.0)];
            let mut weighted: Vec<((isize, isize), f64)> = Vec::new();
            for (k, &dir) in candidates.iter().enumerate() {
                let next = (pos.0 + dir.0, pos.1 + dir.1);
                if next.0 < 0 || next.1 < 0 || next.0 > cols as isize || next.1 > rows as isize {
                    continue;
                }
                let edge = edge_of(
                    (pos.0 as usize, pos.1 as usize),
                    (next.0 as usize, next.1 as usize),
                );
                if used_edges.contains(&edge) {
                    continue;
                }
                let mut weight = if k == 0 { self.straight_bias } else { 1.0 };
                // Prefer edges that run along major grid lines.
                let line = if edge.horizontal { edge.j } else { edge.i };
                if line % self.spec.major_every == 0 {
                    weight *= self.major_road_bias;
                }
                weighted.push((dir, weight));
            }
            if weighted.is_empty() {
                break; // boxed in
            }
            let total: f64 = weighted.iter().map(|(_, w)| w).sum();
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = weighted[0].0;
            for (dir, w) in &weighted {
                if pick < *w {
                    chosen = *dir;
                    break;
                }
                pick -= w;
            }

            let next = (pos.0 + chosen.0, pos.1 + chosen.1);
            used_edges.insert(edge_of(
                (pos.0 as usize, pos.1 as usize),
                (next.0 as usize, next.1 as usize),
            ));
            pos = next;
            heading = chosen;
            walk.push((pos.0 as usize, pos.1 as usize));

            // Terminate when the far boundary is reached with enough stops.
            let reached_far = if horizontal_major {
                pos.0 == cols as isize || pos.0 == 0
            } else {
                pos.1 == rows as isize || pos.1 == 0
            };
            if reached_far && walk.len() > self.min_stops + 1 {
                break;
            }
        }
        walk
    }
}

/// The block edge between two *adjacent* intersections.
fn edge_of(a: (usize, usize), b: (usize, usize)) -> BlockEdge {
    if a.1 == b.1 {
        BlockEdge {
            horizontal: true,
            i: a.0.min(b.0),
            j: a.1,
        }
    } else {
        BlockEdge {
            horizontal: false,
            i: a.0,
            j: a.1.min(b.1),
        }
    }
}

/// Midpoint of a block edge in metres.
fn edge_midpoint(spec: &GridSpec, edge: BlockEdge) -> Point {
    if edge.horizontal {
        Point::new(
            (edge.i as f64 + 0.5) * spec.block_w,
            edge.j as f64 * spec.block_h,
        )
    } else {
        Point::new(
            edge.i as f64 * spec.block_w,
            (edge.j as f64 + 0.5) * spec.block_h,
        )
    }
}

/// Kerbside position: offset to the right-hand side of travel.
fn kerb_position(center: Point, horizontal: bool, dir: TravelDirection) -> Point {
    let sign = match dir {
        TravelDirection::Increasing => -1.0, // travelling +x: kerb to the south; +y: kerb to the east
        TravelDirection::Decreasing => 1.0,
    };
    if horizontal {
        Point::new(center.x, center.y + sign * KERB_OFFSET_M)
    } else {
        Point::new(center.x - sign * KERB_OFFSET_M, center.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = NetworkGenerator::paper_region(7).generate();
        let b = NetworkGenerator::paper_region(7).generate();
        assert_eq!(a.sites().len(), b.sites().len());
        assert_eq!(a.routes().len(), b.routes().len());
        for (ra, rb) in a.routes().iter().zip(b.routes()) {
            assert_eq!(ra.stops(), rb.stops());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = NetworkGenerator::paper_region(1).generate();
        let b = NetworkGenerator::paper_region(2).generate();
        let same = a
            .routes()
            .iter()
            .zip(b.routes())
            .all(|(ra, rb)| ra.stops() == rb.stops());
        assert!(!same, "distinct seeds should give distinct route sets");
    }

    #[test]
    fn paper_region_statistics() {
        let n = NetworkGenerator::paper_region(7).generate();
        assert_eq!(n.routes().len(), 8);
        for r in n.routes() {
            assert!(
                r.stop_count() >= 15,
                "route {} has {} stops",
                r.name,
                r.stop_count()
            );
            assert!(r.stop_count() <= 35);
        }
        // Dense stop placement: tens of distinct logical sites.
        assert!(n.sites().len() >= 60, "got {} sites", n.sites().len());
        // Routes must overlap so fingerprint sites are shared.
        let shared = n
            .sites()
            .iter()
            .filter(|s| n.routes_serving(s.id).count() >= 2)
            .count();
        assert!(shared >= 5, "only {shared} sites shared between routes");
    }

    #[test]
    fn stop_offsets_strictly_increase() {
        let n = NetworkGenerator::paper_region(3).generate();
        for r in n.routes() {
            for w in r.stops().windows(2) {
                assert!(w[0].offset < w[1].offset);
            }
        }
    }

    #[test]
    fn stops_sit_near_route_path() {
        let n = NetworkGenerator::paper_region(5).generate();
        for r in n.routes() {
            for rs in r.stops() {
                let on_path = r.path.point_at(rs.offset);
                let site = n.site(rs.site);
                assert!(
                    site.position.distance(on_path) < 1.0,
                    "site should lie at the path offset"
                );
                let stop = n.stop(rs.stop);
                assert!(
                    stop.position.distance(site.position) <= KERB_OFFSET_M + 1e-9,
                    "kerb stop should hug its site"
                );
            }
        }
    }

    #[test]
    fn sites_deduplicated_across_routes() {
        let n = NetworkGenerator::paper_region(7).generate();
        // Total stop placements across routes exceeds distinct sites when
        // routes overlap.
        let placements: usize = n.routes().iter().map(|r| r.stop_count()).sum();
        assert!(placements > n.sites().len());
    }

    #[test]
    fn small_network_is_fast_and_valid() {
        let n = NetworkGenerator::small(11).generate();
        assert_eq!(n.routes().len(), 3);
        assert!(n.segment_count() > 0);
    }

    #[test]
    fn builder_overrides_apply() {
        let n = NetworkGenerator::small(1)
            .with_routes(2)
            .with_stop_range(4, 10)
            .generate();
        assert_eq!(n.routes().len(), 2);
        for r in n.routes() {
            assert!(r.stop_count() >= 4 && r.stop_count() <= 10);
        }
    }

    #[test]
    #[should_panic(expected = "invalid stop range")]
    fn bad_stop_range_panics() {
        let _ = NetworkGenerator::small(1).with_stop_range(5, 2);
    }

    #[test]
    fn edge_of_normalizes_direction() {
        assert_eq!(edge_of((1, 2), (2, 2)), edge_of((2, 2), (1, 2)));
        assert_eq!(edge_of((3, 3), (3, 4)), edge_of((3, 4), (3, 3)));
        assert!(edge_of((0, 0), (1, 0)).horizontal);
        assert!(!edge_of((0, 0), (0, 1)).horizontal);
    }
}
