//! Road network, bus stops and bus routes for the `busprobe` reproduction.
//!
//! The paper's study area is a 7 km × 4 km region of Jurong West, Singapore,
//! where 8 public bus routes cover a major portion of the road system and
//! more than 110 bus stops "densely distribute in the region and separate
//! the road systems into small road segments" (§III-A). This crate rebuilds
//! that substrate synthetically:
//!
//! * [`GridSpec`]/[`Road`] — a Manhattan street grid standing in for the
//!   real road system,
//! * [`StopSite`] — a *logical* bus-stop location. The paper aggregates the
//!   two physical stops on opposite sides of a two-way road into one
//!   location reference (§III-A, "effective" similarity), which this model
//!   makes explicit: one `StopSite`, up to two side-specific [`BusStop`]s,
//! * [`BusRoute`] — an ordered stop sequence with route geometry; the
//!   operational constraint the backend exploits ("buses strictly follow
//!   determined routes and stop at known bus stops"),
//! * [`TransitNetwork`] — the assembled region with the queries the backend
//!   needs: the route order relation `R(x, y)` of Eq. (2), the directed road
//!   [`Segment`]s between consecutive stops, and coverage statistics,
//! * [`NetworkGenerator`] — a seeded generator reproducing the published
//!   region statistics (8 routes, >110 sites, ≥2-route coverage ≈ 80 %).
//!
//! # Examples
//!
//! ```
//! use busprobe_network::NetworkGenerator;
//!
//! let network = NetworkGenerator::paper_region(7).generate();
//! assert_eq!(network.routes().len(), 8);
//! assert!(network.sites().len() > 60);
//! // Route constraint used by per-trip mapping (Eq. 2): a bus serving this
//! // route may reach the later stop after the earlier one.
//! let route = &network.routes()[0];
//! let first = route.stops()[0].site;
//! let later = route.stops()[3].site;
//! assert!(network.follows(first, later));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod generator;
mod grid;
mod ids;
mod import;
mod network;
mod route;
mod stop;
mod tables;

pub use compose::{compose_tiles, metropolis_spec, TILE_GUTTER_BLOCKS};
pub use generator::NetworkGenerator;
pub use grid::{Grid, GridSpec, Road, RoadAxis};
pub use ids::{RoadId, RouteId, SegmentKey, StopId, StopSiteId};
pub use import::{ImportError, NetworkImport, RouteImport};
pub use network::{map_as_pairs, BlockEdge, CoverageStats, NetworkError, Segment, TransitNetwork};
pub use route::{BusRoute, RouteStop};
pub use stop::{BusStop, StopSite, TravelDirection};
