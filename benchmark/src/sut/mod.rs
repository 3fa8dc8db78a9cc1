//! The system under test. This module (and its children) is the only
//! place in the benchmark that names busprobe items; everything else
//! sees uploads, reports, digests and timings. `README.md` lists the
//! busprobe functions pinned here, so a rename knows what to carry.

mod layers;
mod traced;
mod world;

pub use layers::{durability_layers, serve_layers, snapshot_layers};
pub use traced::TracedPipeline;
pub use world::{generate, Corpus, Fnv, Inputs, Mix, Site, Uploads};

use busprobe::core::geojson::map_to_geojson;
use busprobe::core::{
    DropReason, IngestReport, MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMap,
    TrafficMonitor,
};
use busprobe::geo::LocalProjection;
use busprobe::mobile::Trip;
use busprobe::serve::LineHandler;
use busprobe::serve::{serve_unix, EngineHandle, ServeConfig, ServeEngine, ServeSummary};
use busprobe::shard::{
    shard_dir, CityAggregator, OverflowPolicy, ShardFront, ShardRouter, ShardedMonitor,
};
use busprobe::store::Store;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use world::Survey;

/// One upload's fate, as the benchmark accounts it.
pub type Report = IngestReport;

/// Whether a report is a failure of the system (as opposed to an
/// expected algorithmic drop such as a duplicate or an unmatched scan).
pub fn is_failure(report: &Report) -> bool {
    report.drop_reason() == Some(DropReason::InternalError)
}

/// Per-reason outcome counts (`committed` for uploads that produced
/// observations), in a stable order.
pub fn outcome_counts(reports: &[Report]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for r in reports {
        let label = r.drop_reason().map_or("committed", DropReason::trace_label);
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

impl Site {
    /// The fingerprint database a starting server ends up with: elected
    /// from the raw survey scans, or taken as built.
    fn database(&self) -> StopFingerprintDb {
        match &self.survey {
            Survey::Scans(scans) => {
                StopFingerprintDb::build_from_samples(scans, &MatchConfig::default())
            }
            Survey::Built(db) => db.clone(),
        }
    }
}

/// A running backend: one monitor, or regional shards behind a router.
pub enum Backend {
    Single(Arc<TrafficMonitor>),
    City(ShardedMonitor),
}

/// What a recovery replayed.
pub struct Recovery {
    pub records: u64,
    /// Skipped or corrupt records, torn tails, passed-over snapshots.
    pub damage: u64,
    pub from_snapshot: bool,
}

impl Backend {
    /// Cold start to ready: fingerprint election, index (and shard plan)
    /// build, monitor construction, and one read-only pass of the site's
    /// probe ride through the pipeline. The pass commits nothing; it is there
    /// because the network builds its segment-chain and route-order
    /// tables on first use (0.3 s for the metropolis), and a server that
    /// has not built them is not ready — the first real upload would pay.
    pub fn start(site: &Site) -> Backend {
        Self::start_sharded(site, site.shards)
    }

    /// The same site served by one plain monitor — the reference the
    /// batch, parallel and sharded paths are checked against.
    pub fn start_unsharded(site: &Site) -> Backend {
        Self::start_sharded(site, 1)
    }

    fn start_sharded(site: &Site, shards: usize) -> Backend {
        let db = site.database();
        let config = MonitorConfig::default();
        let backend = if shards <= 1 {
            Backend::Single(Arc::new(TrafficMonitor::new(
                site.network.clone(),
                db,
                config,
            )))
        } else {
            Backend::City(ShardedMonitor::new(
                site.network.clone(),
                &db,
                config,
                shards,
                OverflowPolicy::Score,
            ))
        };
        backend.ready(&site.probe);
        backend
    }

    /// Runs `probe` through the pipeline of the region it belongs to,
    /// without touching traffic state — what finishes the lazy set-up
    /// (see [`start`](Self::start)). Shards share one network, so one
    /// shard's pass readies them all.
    pub fn ready(&self, probe: &Trip) {
        let observations = match self {
            Backend::Single(m) => m.observations_for(probe),
            Backend::City(c) => {
                // The bare router: `ShardedMonitor::route` would count
                // the probe as a routed upload.
                let shard = ShardRouter::new(c.policy()).route(c.shards(), probe).shard;
                c.shards()[shard].observations_for(probe)
            }
        };
        std::hint::black_box(observations);
    }

    /// Opens a store under `dir` and attaches it with a group-commit
    /// window of `group` commits.
    pub fn attach_store(&self, dir: &Path, group: u64) -> io::Result<()> {
        match self {
            Backend::Single(m) => {
                m.attach_store_grouped(Store::open(dir)?, 0, group);
                Ok(())
            }
            Backend::City(c) => c.attach_stores(dir, 0, group),
        }
    }

    /// Batch ingest with `workers` stage workers; reports in input order.
    pub fn ingest(&self, uploads: Uploads<'_>, workers: usize) -> Vec<Report> {
        match self {
            Backend::Single(m) if uploads.received.is_empty() => {
                m.ingest_batch_parallel(uploads.trips, workers)
            }
            Backend::Single(m) => {
                m.ingest_batch_received_parallel(uploads.trips, uploads.received, workers)
            }
            Backend::City(c) => {
                c.ingest_batch_received_parallel(uploads.trips, uploads.received, workers)
            }
        }
    }

    /// Ingests the uploads one at a time through the single-upload front
    /// door of a plain monitor.
    pub fn ingest_one_by_one(&self, uploads: Uploads<'_>) -> Vec<Report> {
        let Backend::Single(monitor) = self else {
            panic!("the one-by-one reference runs on an unsharded backend");
        };
        (0..uploads.len())
            .map(|i| monitor.ingest_upload(&uploads.trips[i], uploads.received_of(i)))
            .collect()
    }

    /// Flushes and fsyncs every attached WAL.
    pub fn sync(&self) -> io::Result<()> {
        match self {
            Backend::Single(m) => m.sync_store(),
            Backend::City(c) => c.sync_all(),
        }
    }

    /// Writes a full-state snapshot (per shard) and compacts the WAL.
    pub fn checkpoint(&self) -> io::Result<()> {
        match self {
            Backend::Single(m) => m.checkpoint().map(drop),
            Backend::City(c) => c.checkpoint_all().map(drop),
        }
    }

    /// Rebuilds a backend from the state under `dir`. Not primed: WAL
    /// replay never consults the network, so callers that time "back to
    /// ready" follow up with [`ready`](Self::ready) on the site's probe.
    pub fn recover(site: &Site, dir: &Path) -> io::Result<(Backend, Recovery)> {
        let db = site.database();
        let config = MonitorConfig::default();
        let (backend, summaries) = if site.shards <= 1 {
            let (m, s) = TrafficMonitor::recover(site.network.clone(), db, config, dir)?;
            (Backend::Single(Arc::new(m)), vec![s])
        } else {
            let (c, s) = ShardedMonitor::recover(site.network.clone(), &db, config, dir)?;
            (Backend::City(c), s)
        };
        let recovery = Recovery {
            records: summaries
                .iter()
                .map(|s| s.replayed_commits + s.replayed_refreshes)
                .sum(),
            damage: summaries
                .iter()
                .map(|s| s.skipped_records + s.corrupt_tails + s.snapshots_skipped)
                .sum(),
            from_snapshot: summaries.iter().all(|s| s.snapshot_seq.is_some()),
        };
        Ok((backend, recovery))
    }

    /// Uploads committed so far, over all shards.
    pub fn commit_count(&self) -> u64 {
        match self {
            Backend::Single(m) => m.commit_count(),
            Backend::City(c) => c.commit_counts().iter().sum(),
        }
    }

    fn map(&self, horizon: f64) -> TrafficMap {
        match self {
            Backend::Single(m) => m.snapshot_with_max_age(horizon, f64::INFINITY),
            Backend::City(c) => c.city_map_with_max_age(horizon, f64::INFINITY),
        }
    }

    pub(super) fn network(&self) -> &busprobe::network::TransitNetwork {
        match self {
            Backend::Single(m) => m.network(),
            Backend::City(c) => c.network(),
        }
    }

    /// Hash of the published traffic map as of `horizon` (every segment,
    /// no staleness cut) — equal maps, equal digests.
    pub fn map_digest(&self, horizon: f64) -> u64 {
        map_hash(&self.map(horizon))
    }

    /// One map refresh as `serve` publishes it: snapshot (federated over
    /// shards), GeoJSON render, serialization. Returns the bytes and the
    /// seconds spent in (snapshot, shard merge, render).
    pub fn publish(&self, horizon: f64) -> (Vec<u8>, [f64; 3]) {
        let t0 = std::time::Instant::now();
        let (map, snapshot_s, merge_s) = match self {
            Backend::Single(m) => {
                let map = m.snapshot_with_max_age(horizon, f64::INFINITY);
                (map, t0.elapsed().as_secs_f64(), 0.0)
            }
            Backend::City(c) => {
                let maps: Vec<TrafficMap> = c
                    .shards()
                    .iter()
                    .map(|s| s.snapshot_with_max_age(horizon, f64::INFINITY))
                    .collect();
                let snapshot_s = t0.elapsed().as_secs_f64();
                let t1 = std::time::Instant::now();
                let map = CityAggregator::merge(&maps);
                (map, snapshot_s, t1.elapsed().as_secs_f64())
            }
        };
        let t2 = std::time::Instant::now();
        let geojson = map_to_geojson(&map, self.network(), &LocalProjection::new(1.34, 103.70));
        let bytes = serde_json::to_vec(&geojson).expect("GeoJSON serializes");
        (bytes, [snapshot_s, merge_s, t2.elapsed().as_secs_f64()])
    }

    /// Segments the fusion layer holds beliefs for.
    pub fn segments(&self, horizon: f64) -> usize {
        self.map(horizon).len()
    }

    /// Routing and conservation accounting of a sharded backend:
    /// `(conserved, overflow share of routed, busiest shard / mean)`.
    pub fn shard_accounting(&self) -> (bool, f64, f64) {
        match self {
            Backend::Single(_) => (true, 0.0, 0.0),
            Backend::City(c) => {
                let acc = c.accounting();
                let per: Vec<f64> = acc.per_shard.iter().map(|(i, d)| (i + d) as f64).collect();
                let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
                let skew = per.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
                let overflow = acc.overflow as f64 / acc.routed.max(1) as f64;
                (acc.conserved(), overflow, skew)
            }
        }
    }

    /// For a sharded backend, ingests the corpus the way `ingest` does
    /// but in separate steps: route every upload, then hand each shard
    /// its bucket. Returns the seconds spent `(routing, in the shards)`;
    /// what a sharded `ingest` takes beyond their sum is fan-out cost
    /// (bucketing, cloning, report scatter).
    pub fn fanout_breakdown(&self, corpus: Uploads<'_>) -> Option<(f64, f64)> {
        let Backend::City(city) = self else {
            return None;
        };
        let t = std::time::Instant::now();
        let routes: Vec<usize> = corpus.trips.iter().map(|t| city.route(t).shard).collect();
        let route_s = t.elapsed().as_secs_f64();
        let mut buckets: Vec<Corpus> = city.shards().iter().map(|_| Corpus::default()).collect();
        for (i, &shard) in routes.iter().enumerate() {
            buckets[shard].trips.push(corpus.trips[i].clone());
            buckets[shard].received.extend(corpus.received_of(i));
        }
        let t = std::time::Instant::now();
        for (shard, bucket) in city.shards().iter().zip(&buckets) {
            let reports = shard.ingest_batch_received_parallel(&bucket.trips, &bucket.received, 1);
            std::hint::black_box(reports);
        }
        Some((route_s, t.elapsed().as_secs_f64()))
    }

    /// Starts the resident streaming engine(s) over this backend with
    /// the default `ServeConfig` (queue 256, `block`, one stage worker,
    /// fsync + ack every 32 commits). One monitor is fed by its engine
    /// directly; shards sit behind the routing front, exactly as
    /// `busprobe serve` wires them.
    pub fn frontend(self) -> Frontend {
        let monitors = self.monitors();
        let engines: Vec<ServeEngine> = monitors
            .iter()
            .map(|m| ServeEngine::start(Arc::clone(m), ServeConfig::default()))
            .collect();
        let mut handles: Vec<EngineHandle> = engines.iter().map(ServeEngine::handle).collect();
        let front = match &self {
            Backend::Single(_) => Front::Engine(handles.remove(0)),
            Backend::City(c) => Front::Shards(ShardFront::new(handles, monitors, c.policy())),
        };
        Frontend {
            backend: self,
            engines,
            front,
        }
    }

    /// The one store directory the layer probes read: the state
    /// directory itself, or shard 0's under it.
    pub fn probe_dir(&self, state: &Path) -> PathBuf {
        match self {
            Backend::Single(_) => state.to_path_buf(),
            Backend::City(_) => shard_dir(state, 0),
        }
    }

    fn monitors(&self) -> Vec<Arc<TrafficMonitor>> {
        match self {
            Backend::Single(m) => vec![Arc::clone(m)],
            Backend::City(c) => c.shards().to_vec(),
        }
    }
}

/// Hash of a map's snapshot time and every segment's key, speed,
/// variance and last update, bit for bit (the display level is a
/// function of the speed).
fn map_hash(map: &TrafficMap) -> u64 {
    let mut h = Fnv::default();
    h.write(map.time_s.to_bits());
    for (key, estimate) in &map.segments {
        h.write(u64::from(key.from.0) << 32 | u64::from(key.to.0));
        h.write(estimate.speed_mps.to_bits());
        h.write(estimate.variance.to_bits());
        h.write(estimate.updated_s.to_bits());
    }
    h.0
}

#[derive(Clone)]
enum Front {
    Engine(EngineHandle),
    Shards(ShardFront),
}

/// Resident engines over a backend, not yet (or never) on a socket.
pub struct Frontend {
    backend: Backend,
    engines: Vec<ServeEngine>,
    front: Front,
}

/// Totals over every engine of a drained frontend.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeTotals {
    /// Wire lines received, commands included.
    pub received: u64,
    pub committed: u64,
    pub acked: u64,
    /// Shed (queue full or deadline) — a failure under the `block` policy.
    pub shed: u64,
    /// Refused for size, syntax, or because the server was draining.
    pub refused: u64,
    pub queue_high_water: usize,
    pub fatal: Option<String>,
}

impl ServeTotals {
    /// Every received line ended as exactly one of: a command, committed,
    /// shed, or refused.
    pub fn conserved(&self, commands: u64) -> bool {
        self.received == commands + self.committed + self.shed + self.refused
    }
}

impl Frontend {
    /// Hands one wire line to the engine(s) in-process, as a connection
    /// thread would, with nowhere to send the answer.
    pub fn handle_line(&self, line: &str) {
        match &self.front {
            Front::Engine(h) => h.handle_line(line, None),
            Front::Shards(f) => f.handle_line(line, None),
        }
    }

    /// Binds `socket` and serves connections on a thread of its own.
    pub fn listen(self, socket: &Path) -> Server {
        let socket = socket.to_path_buf();
        let acceptor = match self.front.clone() {
            Front::Engine(h) => std::thread::spawn(move || serve_unix(&h, &socket, || {})),
            Front::Shards(f) => std::thread::spawn(move || serve_unix(&f, &socket, || {})),
        };
        Server {
            frontend: self,
            acceptor,
        }
    }

    /// Drains the queue(s) and joins the engines.
    pub fn stop(self) -> (Backend, ServeTotals) {
        match &self.front {
            Front::Engine(h) => h.begin_drain(),
            Front::Shards(f) => f.begin_drain(),
        }
        let mut totals = ServeTotals::default();
        for summary in self.engines.into_iter().map(ServeEngine::join) {
            let ServeSummary {
                received,
                committed,
                acked,
                shed_queue_full,
                shed_deadline,
                oversized,
                unparseable,
                refused_draining,
                queue_high_water,
                fatal,
                ..
            } = summary;
            totals.received += received;
            totals.committed += committed;
            totals.acked += acked;
            totals.shed += shed_queue_full + shed_deadline;
            totals.refused += oversized + unparseable + refused_draining;
            totals.queue_high_water = totals.queue_high_water.max(queue_high_water);
            totals.fatal = totals.fatal.or(fatal);
        }
        (self.backend, totals)
    }
}

/// A frontend listening on a Unix socket.
pub struct Server {
    frontend: Frontend,
    acceptor: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Drains, stops the acceptor and joins every thread it started.
    pub fn stop(self) -> io::Result<(Backend, ServeTotals)> {
        let stopped = self.frontend.stop();
        self.acceptor
            .join()
            .map_err(|_| io::Error::other("acceptor thread panicked"))??;
        Ok(stopped)
    }
}

/// Total size of the files with extension `ext` under `dir`, recursively.
pub fn bytes_on_disk(dir: &Path, ext: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                bytes_on_disk(&path, ext)
            } else if path.extension().is_some_and(|x| x == ext) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Resets the process-global telemetry registry the SUT reports into.
pub fn reset_telemetry() {
    busprobe::telemetry::reset();
}

/// Reads one counter from the SUT's telemetry registry.
pub fn telemetry_counter(name: &str) -> u64 {
    busprobe::telemetry::snapshot().counter(name).unwrap_or(0)
}
