//! Importing real transit networks.
//!
//! The paper stresses that "the precise locations of the bus stops and
//! detailed bus route operations are public information which is readily
//! available on the web" — the system is meant to run on a real city's
//! published data, not on a synthetic grid. [`NetworkImport`] builds a
//! [`TransitNetwork`] from exactly that kind of data: per-route ordered
//! stop coordinates.
//!
//! Stops of different routes that sit within `merge_radius_m` of each
//! other collapse into one logical [`StopSite`], reproducing the paper's
//! aggregation of opposite-kerb and shared-bay stops.

use crate::grid::{Grid, Road, RoadAxis};
use crate::ids::{RoadId, RouteId, StopId, StopSiteId};
use crate::network::{NetworkError, TransitNetwork};
use crate::route::{BusRoute, RouteStop};
use crate::stop::{BusStop, StopSite, TravelDirection};
use busprobe_geo::{Point, Polyline};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One bus route as published by an operator: a name and the ordered stop
/// locations (in the local metric frame; use
/// [`LocalProjection`](busprobe_geo::LocalProjection) to convert lat/lon).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteImport {
    /// Service name, e.g. `"179"`.
    pub name: String,
    /// Ordered kerbside stop positions, metres.
    pub stops: Vec<Point>,
    /// Free-flow automobile speed along this route's roads, m/s.
    pub free_speed_mps: f64,
}

/// A complete import specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkImport {
    /// The routes to import.
    pub routes: Vec<RouteImport>,
    /// Stops within this distance merge into one logical site, metres
    /// (covers opposite kerbs of one road; 25 m is a sane default).
    pub merge_radius_m: f64,
}

/// Error produced by [`NetworkImport::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// No routes supplied.
    NoRoutes,
    /// A route has fewer than two stops.
    TooFewStops(String),
    /// Two consecutive stops of one route merged into the same site —
    /// either duplicate data or a merge radius larger than the stop
    /// spacing.
    ConsecutiveStopsMerged(String),
    /// The assembled network failed validation.
    Inconsistent(NetworkError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::NoRoutes => write!(f, "import contains no routes"),
            ImportError::TooFewStops(r) => write!(f, "route {r} has fewer than two stops"),
            ImportError::ConsecutiveStopsMerged(r) => {
                write!(
                    f,
                    "route {r}: consecutive stops merged; shrink merge_radius_m"
                )
            }
            ImportError::Inconsistent(e) => write!(f, "inconsistent network: {e}"),
        }
    }
}

impl std::error::Error for ImportError {}

impl NetworkImport {
    /// Builds the transit network.
    ///
    /// # Errors
    ///
    /// See [`ImportError`]. Note that grid-coverage statistics
    /// ([`TransitNetwork::coverage`]) are meaningless for imported
    /// networks (there is no block lattice) and report zero coverage.
    pub fn build(&self) -> Result<TransitNetwork, ImportError> {
        if self.routes.is_empty() {
            return Err(ImportError::NoRoutes);
        }
        for r in &self.routes {
            if r.stops.len() < 2 {
                return Err(ImportError::TooFewStops(r.name.clone()));
            }
        }

        // 1. Merge stop coordinates into logical sites (greedy union by
        //    distance to an existing site centroid).
        let mut sites: Vec<StopSite> = Vec::new();
        let mut members: Vec<Vec<Point>> = Vec::new();
        let mut site_of: Vec<Vec<StopSiteId>> = Vec::new(); // per route, per stop
        for (r_idx, route) in self.routes.iter().enumerate() {
            let mut route_sites = Vec::with_capacity(route.stops.len());
            for &p in &route.stops {
                let found = sites
                    .iter()
                    .position(|s| s.position.distance(p) <= self.merge_radius_m);
                let id = match found {
                    Some(k) => {
                        // Refine the centroid.
                        members[k].push(p);
                        let n = members[k].len() as f64;
                        let sum = members[k].iter().fold(Point::ORIGIN, |acc, &q| acc + q);
                        sites[k].position = sum / n;
                        sites[k].id
                    }
                    None => {
                        let id = StopSiteId(sites.len() as u32);
                        sites.push(StopSite {
                            id,
                            name: format!("I{:03}", id.0),
                            position: p,
                            road: RoadId(r_idx as u32),
                            stop_increasing: None,
                            stop_decreasing: None,
                        });
                        members.push(vec![p]);
                        id
                    }
                };
                route_sites.push(id);
            }
            site_of.push(route_sites);
        }

        // 2. Roads: one per route, carrying its free speed.
        let roads: Vec<Road> = self
            .routes
            .iter()
            .enumerate()
            .map(|(k, r)| Road {
                id: RoadId(k as u32),
                axis: RoadAxis::Horizontal,
                grid_index: k,
                centerline: Polyline::new(r.stops.clone()).expect("validated ≥2 stops"),
                speed_limit_mps: r.free_speed_mps,
            })
            .collect();
        let grid = Grid::from_roads(roads);

        // 3. Physical stops and route stop lists.
        let mut stops: Vec<BusStop> = Vec::new();
        let mut stop_by_slot: BTreeMap<(StopSiteId, TravelDirection), StopId> = BTreeMap::new();
        let mut routes: Vec<BusRoute> = Vec::new();
        for (r_idx, route) in self.routes.iter().enumerate() {
            let path = Polyline::new(route.stops.clone()).expect("validated");
            let mut route_stops = Vec::with_capacity(route.stops.len());
            let mut offset = 0.0;
            for (k, &p) in route.stops.iter().enumerate() {
                if k > 0 {
                    offset += route.stops[k - 1].distance(p);
                }
                let site_id = site_of[r_idx][k];
                if k > 0 && site_of[r_idx][k - 1] == site_id {
                    return Err(ImportError::ConsecutiveStopsMerged(route.name.clone()));
                }
                // Travel heading at this stop picks the kerb slot: routes
                // running the other way share the site but not the stop.
                let heading = if k + 1 < route.stops.len() {
                    route.stops[k + 1] - p
                } else {
                    p - route.stops[k - 1]
                };
                let dir = if heading.x + heading.y >= 0.0 {
                    TravelDirection::Increasing
                } else {
                    TravelDirection::Decreasing
                };
                let stop_id = *stop_by_slot.entry((site_id, dir)).or_insert_with(|| {
                    let id = StopId(stops.len() as u32);
                    stops.push(BusStop {
                        id,
                        site: site_id,
                        position: p,
                        direction: dir,
                    });
                    match dir {
                        TravelDirection::Increasing => {
                            sites[site_id.index()].stop_increasing = Some(id);
                        }
                        TravelDirection::Decreasing => {
                            sites[site_id.index()].stop_decreasing = Some(id);
                        }
                    }
                    id
                });
                route_stops.push(RouteStop {
                    stop: stop_id,
                    site: site_id,
                    offset,
                });
            }
            routes.push(BusRoute::new(
                RouteId(r_idx as u32),
                route.name.clone(),
                path,
                route_stops,
            ));
        }

        TransitNetwork::assemble(grid, sites, stops, routes, BTreeMap::new())
            .map_err(ImportError::Inconsistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Two overlapping real-world-ish routes sharing a corridor.
    fn spec() -> NetworkImport {
        NetworkImport {
            merge_radius_m: 25.0,
            routes: vec![
                RouteImport {
                    name: "179".into(),
                    stops: vec![
                        p(0.0, 0.0),
                        p(400.0, 30.0),
                        p(820.0, 60.0),
                        p(1200.0, 400.0),
                    ],
                    free_speed_mps: 60.0 / 3.6,
                },
                RouteImport {
                    name: "199".into(),
                    // Shares the middle corridor (within merge radius).
                    stops: vec![p(390.0, 40.0), p(815.0, 70.0), p(1300.0, -200.0)],
                    free_speed_mps: 50.0 / 3.6,
                },
            ],
        }
    }

    #[test]
    fn shared_corridor_stops_merge_into_sites() {
        let n = spec().build().unwrap();
        assert_eq!(n.routes().len(), 2);
        // 4 + 3 stops with 2 shared pairs → 5 sites.
        assert_eq!(n.sites().len(), 5);
        // The shared sites are served by both routes.
        let shared = n
            .sites()
            .iter()
            .filter(|s| n.routes_serving(s.id).count() == 2)
            .count();
        assert_eq!(shared, 2);
    }

    #[test]
    fn segments_and_order_relation_work() {
        let n = spec().build().unwrap();
        let r0 = &n.routes()[0];
        assert!(n.follows(r0.stops()[0].site, r0.stops()[3].site));
        let key = crate::SegmentKey::new(r0.stops()[1].site, r0.stops()[2].site);
        let seg = n.segment(key).expect("shared corridor segment exists");
        let drives = |r: &BusRoute| r.segment_keys().any(|k| k == key);
        assert!(
            n.routes().iter().all(drives),
            "both routes drive the corridor"
        );
        assert!(seg.length_m > 300.0 && seg.length_m < 600.0);
    }

    #[test]
    fn offsets_match_geometry() {
        let n = spec().build().unwrap();
        let r0 = &n.routes()[0];
        assert_eq!(r0.stops()[0].offset, 0.0);
        let expect = p(0.0, 0.0).distance(p(400.0, 30.0));
        assert!((r0.stops()[1].offset - expect).abs() < 1e-9);
        assert!((r0.length() - r0.stops()[3].offset).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_imports_fail() {
        let empty = NetworkImport {
            routes: vec![],
            merge_radius_m: 25.0,
        };
        assert!(matches!(empty.build(), Err(ImportError::NoRoutes)));

        let short = NetworkImport {
            merge_radius_m: 25.0,
            routes: vec![RouteImport {
                name: "x".into(),
                stops: vec![p(0.0, 0.0)],
                free_speed_mps: 10.0,
            }],
        };
        assert!(matches!(short.build(), Err(ImportError::TooFewStops(name)) if name == "x"));
    }

    #[test]
    fn oversized_merge_radius_is_detected() {
        let bad = NetworkImport {
            merge_radius_m: 1000.0, // larger than the stop spacing
            routes: vec![RouteImport {
                name: "y".into(),
                stops: vec![p(0.0, 0.0), p(400.0, 0.0), p(800.0, 0.0)],
                free_speed_mps: 10.0,
            }],
        };
        assert!(matches!(
            bad.build(),
            Err(ImportError::ConsecutiveStopsMerged(name)) if name == "y"
        ));
    }

    #[test]
    fn opposite_direction_routes_share_sites_not_stops() {
        let two_way = NetworkImport {
            merge_radius_m: 25.0,
            routes: vec![
                RouteImport {
                    name: "east".into(),
                    stops: vec![p(0.0, 0.0), p(500.0, 0.0), p(1000.0, 0.0)],
                    free_speed_mps: 15.0,
                },
                RouteImport {
                    name: "west".into(),
                    stops: vec![p(1000.0, 10.0), p(500.0, 10.0), p(0.0, 10.0)],
                    free_speed_mps: 15.0,
                },
            ],
        };
        let n = two_way.build().unwrap();
        assert_eq!(n.sites().len(), 3, "kerb pairs merge");
        assert_eq!(n.stops().len(), 6, "but each direction keeps its stop");
        // Both directions of the middle segment exist independently.
        let mid = n.sites()[1].id;
        let first = n.sites()[0].id;
        assert!(n.follows(first, mid));
        assert!(n.follows(mid, first), "reverse service exists");
    }

    #[test]
    fn import_round_trips_through_serde() {
        let s = spec();
        let back: NetworkImport =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.build().unwrap().sites().len(), 5);
    }
}
