//! The assembled experiment world: one seed → region, radio environment,
//! fingerprint database and simulation scenario.

use busprobe_cellular::{
    CellObservation, CellScan, CellTowerId, DeploymentSpec, Fingerprint, PropagationModel, Scanner,
    TowerDeployment,
};
use busprobe_core::{MatchConfig, MonitorConfig, StopFingerprintDb, TrafficMonitor};
use busprobe_mobile::{CellularSample, Trip};
use busprobe_network::StopSiteId;
use busprobe_network::{compose_tiles, NetworkGenerator, TransitNetwork};
use busprobe_sensors::trip_observations;
use busprobe_sim::{RiderTrip, Scenario, SimOutput, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Everything an experiment needs, built deterministically from one seed.
#[derive(Debug)]
pub struct World {
    /// The study region.
    pub network: TransitNetwork,
    /// The radio environment.
    pub scanner: Scanner,
    /// Master seed.
    pub seed: u64,
}

impl World {
    /// The paper's region: 7 km × 4 km, 8 routes, >60 stop sites.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        let network = NetworkGenerator::paper_region(seed).generate();
        World::with_network(network, seed)
    }

    /// A small fast world for tests and smoke runs.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        let network = NetworkGenerator::small(seed).generate();
        World::with_network(network, seed)
    }

    /// The perf-calibration region: the paper's grid with twice the
    /// routes, so the fingerprint database holds ≥ 110 stop sites — the
    /// scale the perf-regression corpus is calibrated to.
    #[must_use]
    pub fn calibrated(seed: u64) -> Self {
        let network = NetworkGenerator::paper_region(seed)
            .with_routes(16)
            .generate();
        assert!(
            network.sites().len() >= 110,
            "calibrated world needs >=110 sites, got {}",
            network.sites().len()
        );
        World::with_network(network, seed)
    }

    /// A purely synthetic fingerprint database of `stops` entries with
    /// corridor-style tower locality: each stop draws 6–11 towers from a
    /// window that slides with the stop index, so neighbours share
    /// towers and distant stops don't — the overlap structure the
    /// inverted index faces in a real city. Sized freely (110 / 500 /
    /// 2000 stops) for matcher micro-benchmarks, independent of any
    /// network (the site ids exist only in the database).
    #[must_use]
    pub fn synthetic_db(stops: usize, seed: u64) -> StopFingerprintDb {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBADC_0FFE_E0DD_F00D);
        (0..stops)
            .map(|k| {
                let len = rng.gen_range(6usize..12);
                let base = k as u32 * 3;
                let mut cells: Vec<CellTowerId> = Vec::with_capacity(len);
                while cells.len() < len {
                    let cell = CellTowerId(base + rng.gen_range(0u32..40));
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
                let fp: Fingerprint = cells.into_iter().collect();
                (StopSiteId(k as u32), fp)
            })
            .collect()
    }

    /// Fabricates `count` ride uploads over this world's routes — the
    /// perf-regression corpus. Each trip boards a random route, rides a
    /// 4–8-stop segment, and taps 2–3 times per stop with noisy scans
    /// taken at the true stop positions, so a 1000-trip corpus exercises
    /// the full pipeline (dedup, matching, clustering, mapping, fusion)
    /// without the cost of a rider simulation. Deterministic in `seed`.
    #[must_use]
    pub fn ride_corpus(&self, count: usize, seed: u64) -> Vec<Trip> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51DE_C0DE_0B05_1DE5);
        let routes = self.network.routes();
        (0..count)
            .map(|_| {
                let route = &routes[rng.gen_range(0..routes.len())];
                let n = route.stop_count();
                let len = rng.gen_range(4..=n.min(8));
                let start = rng.gen_range(0..=n - len);
                let taps = rng.gen_range(2usize..=3);
                let hop_s = rng.gen_range(60.0..120.0);
                let mut samples = Vec::with_capacity(len * taps);
                for (k, stop) in route.stops()[start..start + len].iter().enumerate() {
                    let position = self.network.site(stop.site).position;
                    for tap in 0..taps {
                        samples.push(CellularSample {
                            time_s: k as f64 * hop_s + tap as f64 * 2.0,
                            scan: self.scanner.scan(position, &mut rng),
                        });
                    }
                }
                Trip { samples }
            })
            .collect()
    }

    /// A synthetic metropolis of at least `stops` stop sites with a
    /// `trips`-upload corpus, built by tiling independently generated
    /// calibrated districts onto one street grid (see
    /// [`compose_tiles`]) and giving each tile a disjoint slice of
    /// synthetic-cell space. Nothing here runs the radio simulation —
    /// a 100k-stop city is far past what per-tower scan synthesis can
    /// afford — so fingerprints use the corridor-style sliding-window
    /// scheme of [`World::synthetic_db`] and trips fabricate their
    /// scans straight from those fingerprints. Deterministic in
    /// `seed`; trips are materialized lazily in chunks
    /// ([`Metropolis::trips_chunk`]) because a million-trip corpus
    /// does not fit in memory.
    #[must_use]
    pub fn metropolis(stops: usize, trips: usize, seed: u64) -> Metropolis {
        assert!(stops >= 1, "need at least one stop");
        // Generate calibrated tiles until their sites cover `stops`,
        // then fill out the tiling rectangle.
        let tile_of = |t: usize| {
            NetworkGenerator::paper_region(seed.wrapping_add(t as u64))
                .with_routes(16)
                .generate()
        };
        let mut tiles = Vec::new();
        let mut sites = 0usize;
        while sites < stops {
            let tile = tile_of(tiles.len());
            sites += tile.sites().len();
            tiles.push(tile);
        }
        let tiles_x = (tiles.len() as f64).sqrt().ceil() as usize;
        let tiles_y = tiles.len().div_ceil(tiles_x);
        while tiles.len() < tiles_x * tiles_y {
            tiles.push(tile_of(tiles.len()));
        }
        let tile_sites: Vec<usize> = tiles.iter().map(|t| t.sites().len()).collect();
        let network = compose_tiles(tiles_x, tiles_y, &tiles).expect("metropolis tiles compose");
        drop(tiles);

        // Synthetic fingerprints: the sliding-window scheme per tile,
        // with a guard gap between tiles so no cell is ever shared
        // across tiles — the partitioner's components stay within one
        // district and sharded routing is exact.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0C17_1DB5_0C17_1DB5);
        let mut entries = Vec::with_capacity(network.sites().len());
        let mut cell_base = 0u32;
        let mut site_base = 0u32;
        for &n in &tile_sites {
            for k in 0..n as u32 {
                let len = rng.gen_range(6usize..12);
                let base = cell_base + k * 3;
                let mut cells: Vec<CellTowerId> = Vec::with_capacity(len);
                while cells.len() < len {
                    let cell = CellTowerId(base + rng.gen_range(0u32..40));
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
                let fp: Fingerprint = cells.into_iter().collect();
                entries.push((StopSiteId(site_base + k), fp));
            }
            site_base += n as u32;
            // Last window starts at 3(n-1); +64 clears its 40-cell
            // span with room to spare.
            cell_base += n as u32 * 3 + 64;
        }
        Metropolis {
            network,
            db: entries.into_iter().collect(),
            trips,
            seed,
            tiles_x,
            tiles_y,
        }
    }

    fn with_network(network: TransitNetwork, seed: u64) -> Self {
        let region = network.grid().spec().region();
        let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), seed);
        let scanner = Scanner::new(deployment, PropagationModel::default(), seed);
        World {
            network,
            scanner,
            seed,
        }
    }

    /// War-collects `rounds` noisy scans at every stop site and builds the
    /// fingerprint database the way §IV-A describes (the most mutually
    /// similar sample is elected per stop).
    #[must_use]
    pub fn build_db(&self, rounds: usize) -> StopFingerprintDb {
        self.build_db_seeded(rounds, self.seed ^ 0xD1B5_4A32_D192_ED03)
    }

    /// [`World::build_db`] with an explicit war-collection RNG seed, for
    /// harnesses (the integration suites' `TestWorld`) whose committed
    /// golden corpora are pinned to a specific collection stream.
    #[must_use]
    pub fn build_db_seeded(&self, rounds: usize, rng_seed: u64) -> StopFingerprintDb {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut samples = BTreeMap::new();
        for site in self.network.sites() {
            let fps = (0..rounds.max(1))
                .map(|_| self.scanner.scan(site.position, &mut rng).fingerprint())
                .collect();
            samples.insert(site.id, fps);
        }
        StopFingerprintDb::build_from_samples(&samples, &MatchConfig::default())
    }

    /// A ready backend: network + war-collected database.
    #[must_use]
    pub fn monitor(&self) -> TrafficMonitor {
        TrafficMonitor::new(
            self.network.clone(),
            self.build_db(5),
            MonitorConfig::default(),
        )
    }

    /// A simulation scenario over this world's network.
    #[must_use]
    pub fn scenario(&self, start: SimTime, end: SimTime) -> Scenario {
        Scenario::new(self.network.clone(), self.seed).with_span(start, end)
    }

    /// Runs a scenario.
    #[must_use]
    pub fn simulate(&self, start: SimTime, end: SimTime) -> SimOutput {
        Simulation::new(self.scenario(start, end)).run()
    }

    /// Converts simulated rider journeys into phone uploads: each rider
    /// participates with probability `participation`; a participant's
    /// phone records a cellular scan at every beep heard on their bus.
    #[must_use]
    pub fn uploads(&self, output: &SimOutput, participation: f64, seed: u64) -> Vec<Trip> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trips = Vec::new();
        for rider in &output.rider_trips {
            if rng.gen_range(0.0..1.0) >= participation {
                continue;
            }
            if let Some(trip) = self.upload_for(rider, output, &mut rng) {
                trips.push(trip);
            }
        }
        trips
    }

    /// The upload a single participant would produce, if any samples exist.
    #[must_use]
    pub fn upload_for(
        &self,
        rider: &RiderTrip,
        output: &SimOutput,
        rng: &mut StdRng,
    ) -> Option<Trip> {
        let obs = trip_observations(rider, output, &self.scanner, rng);
        if obs.len() < 2 {
            return None;
        }
        Some(Trip {
            samples: obs
                .into_iter()
                .map(|o| CellularSample {
                    time_s: o.time.seconds(),
                    scan: o.scan,
                })
                .collect(),
        })
    }
}

/// A tiled synthetic city: the composed network, its fingerprint
/// database, and a lazily materialized upload corpus.
#[derive(Debug)]
pub struct Metropolis {
    /// The composed city network.
    pub network: TransitNetwork,
    /// Synthetic fingerprints, one per site, tile-disjoint in cell
    /// space.
    pub db: StopFingerprintDb,
    /// Total corpus size ([`Metropolis::trips_chunk`] clamps to it).
    pub trips: usize,
    /// Master seed.
    pub seed: u64,
    tiles_x: usize,
    tiles_y: usize,
}

impl Metropolis {
    /// The tiling shape `(tiles_x, tiles_y)`.
    #[must_use]
    pub fn tiles(&self) -> (usize, usize) {
        (self.tiles_x, self.tiles_y)
    }

    /// Materializes corpus trips `[start, start + count)` (clamped to
    /// the corpus size). Each trip's RNG is seeded from its absolute
    /// index, so any chunking — 1 × 1M or 100 × 10k — produces
    /// byte-identical trips; a trip rides a 4–8-stop segment of a
    /// random route with 2–3 taps per stop, and every tap's scan is
    /// fabricated from the stop's database fingerprint (descending
    /// synthetic RSS with sub-step jitter, so the scan's cell order is
    /// exactly the fingerprint's).
    #[must_use]
    pub fn trips_chunk(&self, start: usize, count: usize) -> Vec<Trip> {
        let routes = self.network.routes();
        let end = self.trips.min(start.saturating_add(count));
        (start..end.max(start))
            .map(|index| {
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        ^ 0x7819_C17F_7819_C17F
                        ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let route = &routes[rng.gen_range(0..routes.len())];
                let n = route.stop_count();
                let len = rng.gen_range(4..=n.min(8));
                let seg_start = rng.gen_range(0..=n - len);
                let taps = rng.gen_range(2usize..=3);
                let hop_s = rng.gen_range(60.0..120.0);
                let mut samples = Vec::with_capacity(len * taps);
                for (k, stop) in route.stops()[seg_start..seg_start + len].iter().enumerate() {
                    let fp = self.db.get(stop.site).expect("every site is fingerprinted");
                    for tap in 0..taps {
                        let observations = fp
                            .cells()
                            .iter()
                            .enumerate()
                            .map(|(rank, &tower)| CellObservation {
                                tower,
                                rss_dbm: -60.0 - 3.0 * rank as f64 + rng.gen_range(-1.0..1.0),
                            })
                            .collect();
                        samples.push(CellularSample {
                            time_s: k as f64 * hop_s + tap as f64 * 2.0,
                            scan: CellScan::new(observations),
                        });
                    }
                }
                Trip { samples }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_is_deterministic() {
        let a = World::small(3);
        let b = World::small(3);
        assert_eq!(a.network.sites().len(), b.network.sites().len());
        let db_a = a.build_db(3);
        let db_b = b.build_db(3);
        assert_eq!(db_a, db_b);
    }

    #[test]
    fn db_covers_every_site() {
        let w = World::small(4);
        let db = w.build_db(3);
        assert_eq!(db.len(), w.network.sites().len());
    }

    #[test]
    fn calibrated_world_reaches_city_scale() {
        let w = World::calibrated(7);
        assert!(w.network.sites().len() >= 110);
        let db = w.build_db(3);
        assert!(db.len() >= 110);
    }

    #[test]
    fn synthetic_db_is_deterministic_and_sized() {
        let a = World::synthetic_db(120, 9);
        let b = World::synthetic_db(120, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
        // Locality: consecutive stops share towers, distant ones don't.
        let first = a.get(StopSiteId(0)).unwrap();
        let second = a.get(StopSiteId(1)).unwrap();
        let far = a.get(StopSiteId(100)).unwrap();
        assert!(first.common_cells(second) > 0, "neighbours overlap");
        assert_eq!(first.common_cells(far), 0, "distant stops are disjoint");
    }

    #[test]
    fn ride_corpus_is_deterministic_and_ingestible() {
        let w = World::small(8);
        let a = w.ride_corpus(50, 3);
        let b = w.ride_corpus(50, 3);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        // Every trip rides ≥4 stops with ≥2 taps each.
        assert!(a.iter().all(|t| t.samples.len() >= 8));
        let monitor = w.monitor();
        let reports = monitor.ingest_batch_parallel(&a, 0);
        let observations: usize = reports.iter().map(|r| r.observations).sum();
        assert!(observations > 0, "corpus must produce speed observations");
    }

    #[test]
    fn metropolis_reaches_target_scale_and_is_chunk_invariant() {
        let m = World::metropolis(300, 40, 5);
        assert!(m.network.sites().len() >= 300);
        assert_eq!(m.db.len(), m.network.sites().len());
        let (tx, ty) = m.tiles();
        assert!(tx * ty >= 2, "300 sites need more than one tile");
        // Chunking is invisible.
        let whole = m.trips_chunk(0, 40);
        assert_eq!(whole.len(), 40);
        let mut pieces = m.trips_chunk(0, 13);
        pieces.extend(m.trips_chunk(13, 13));
        pieces.extend(m.trips_chunk(26, 100));
        assert_eq!(whole, pieces);
        // Past-the-end chunks clamp.
        assert!(m.trips_chunk(40, 10).is_empty());
    }

    #[test]
    fn metropolis_trips_match_their_stops() {
        let m = World::metropolis(150, 10, 9);
        let monitor =
            TrafficMonitor::new(m.network.clone(), m.db.clone(), MonitorConfig::default());
        let reports = monitor.ingest_batch_parallel(&m.trips_chunk(0, 10), 0);
        let observations: usize = reports.iter().map(|r| r.observations).sum();
        assert!(observations > 0, "fabricated scans must map to stops");
    }

    #[test]
    fn uploads_respect_participation() {
        let w = World::small(5);
        let out = w.simulate(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 0, 0));
        let all = w.uploads(&out, 1.0, 1);
        let none = w.uploads(&out, 0.0, 1);
        assert!(!all.is_empty());
        assert!(none.is_empty());
        let half = w.uploads(&out, 0.5, 1);
        assert!(half.len() < all.len());
    }

    #[test]
    fn end_to_end_pipeline_produces_traffic() {
        let w = World::small(6);
        let monitor = w.monitor();
        let out = w.simulate(SimTime::from_hms(8, 0, 0), SimTime::from_hms(9, 30, 0));
        let trips = w.uploads(&out, 1.0, 2);
        let reports = monitor.ingest_batch_parallel(&trips, 0);
        let total_obs: usize = reports.iter().map(|r| r.observations).sum();
        assert!(total_obs > 0, "uploads must produce speed observations");
        let map = monitor.snapshot(SimTime::from_hms(9, 30, 0).seconds());
        assert!(!map.is_empty());
    }
}
