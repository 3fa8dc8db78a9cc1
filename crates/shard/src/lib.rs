//! City-scale regional sharding for the traffic monitor.
//!
//! The single-shard pipeline tops out at one matcher index, one fusion
//! state and one WAL — fine for the paper's 7 km × 4 km district,
//! untenable for a metropolis. This crate slices the city into
//! regional shards and federates them back into one map:
//!
//! * [`CityPlan`] — a deterministic partition of stop sites into
//!   shards: connected components of "shares a route ∪ shares a
//!   fingerprint cell" are kept atomic (so no upload can have match
//!   candidates in two shards), ordered geographically and cut into
//!   balanced shards. Pure function of (network, DB, shard count).
//! * [`ShardRouter`] — routes an upload by probing each shard's
//!   inverted matcher index for its best candidate score bound; ties
//!   fall to a configurable [`OverflowPolicy`] that stays bit-exact by
//!   scoring candidates in shard-id order.
//! * [`ShardedMonitor`] — N `TrafficMonitor`s (own matcher, fusion,
//!   duplicate state, WAL dir — the state root for one shard,
//!   `<state>/shard-NNNN/` for more) behind one batch-ingest façade
//!   with per-shard telemetry and conservation accounting; recovery
//!   walks every shard's store.
//! * [`CityAggregator`] — merges per-shard traffic maps into one city
//!   map, byte-identical to the unsharded map for a single-shard plan.
//! * [`ShardFront`] — the [`busprobe_serve::LineHandler`] of a city:
//!   decodes each line of the resident serve protocol once and hands the
//!   frame to a per-shard engine, each with its own admission queue and
//!   commit thread; keeps the publish horizon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod monitor;
mod partition;
mod router;
mod serve;

pub use aggregate::CityAggregator;
pub use monitor::{
    city_layout, shard_dir, CityManifest, ShardAccounting, ShardedMonitor, CITY_FORMAT,
    CITY_MANIFEST,
};
pub use partition::CityPlan;
pub use router::{OverflowPolicy, Routed, ShardRouter};
pub use serve::ShardFront;
