//! The ingest pipeline rebuilt from each layer's public functions, with
//! one span around every call.
//!
//! `TrafficMonitor` keeps its stage results private, so the per-layer
//! ledger cannot be read off the real ingest path from outside. This
//! module replays the same calls in the same order — digest, sanitize,
//! near-duplicate digests, fingerprints, batch matching, clustering,
//! mapping with salvage, estimation, fusion — against its own duplicate
//! set and fusion state. The run checks that its reports and final map
//! equal the real monitor's, so the spans time the real algorithm.

use super::world::upload_digest;
use super::{Backend, Report, Site, Uploads};
use crate::span::{Recorder, ROOT};
use busprobe::core::sanitize::{near_duplicate_digests, sanitize};
use busprobe::core::{
    Clusterer, MatchedSample, Matcher, MonitorConfig, SegmentFusion, SpeedObservation, TrafficMap,
    TripEstimator, TripMapper,
};
use busprobe::mobile::{CellularSample, Trip};
use busprobe::network::TransitNetwork;
use busprobe::shard::{CityAggregator, CityPlan, ShardRouter};
use std::collections::HashSet;
use std::time::Instant;

/// The mutable state of one region: what a monitor holds.
struct Region {
    matcher: Matcher,
    seen: HashSet<u64>,
    fusion: SegmentFusion,
    trips: u64,
}

pub struct TracedPipeline<'a> {
    /// The real backend's network, already readied by `Backend::start`.
    network: &'a TransitNetwork,
    config: MonitorConfig,
    clusterer: Clusterer,
    regions: Vec<Region>,
    /// The real backend: its network is read here too, and when it is
    /// sharded its router (which probes the shard monitors' matchers)
    /// decides the region.
    backend: &'a Backend,
    pub recorder: Recorder,
    /// Seconds spent building the matcher indexes (and the shard plan).
    pub index_build_s: f64,
    pub plan_build_s: f64,
}

/// Counts that only the rebuilt pipeline can see.
#[derive(Default, Debug, Clone, Copy)]
pub struct TracedTotals {
    pub interned_cells: usize,
    /// Stop sites in the biggest region over the mean region.
    pub partition_skew: f64,
    /// Uploads routed to the busiest region over the mean.
    pub trip_skew: f64,
    pub candidates_probed: u64,
    pub scans_probed: u64,
}

impl<'a> TracedPipeline<'a> {
    /// Builds the per-region matchers for `site`, beside `backend`, the
    /// real backend started from the same site.
    pub fn new(site: &Site, backend: &'a Backend, spans: bool) -> Self {
        let config = MonitorConfig::default();
        let db = site.database();
        let t0 = Instant::now();
        let plan = (site.shards > 1).then(|| CityPlan::build(&site.network, &db, site.shards));
        let plan_build_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let matchers: Vec<Matcher> = match &plan {
            None => vec![Matcher::new(db, config.matching)],
            Some(plan) => (0..site.shards)
                .map(|s| Matcher::new(plan.sub_db(&db, s), config.matching))
                .collect(),
        };
        let index_build_s = t1.elapsed().as_secs_f64();
        TracedPipeline {
            network: backend.network(),
            config,
            clusterer: Clusterer::new(config.clustering),
            regions: matchers
                .into_iter()
                .map(|matcher| Region {
                    matcher,
                    seen: HashSet::new(),
                    fusion: SegmentFusion::paper_default(),
                    trips: 0,
                })
                .collect(),
            backend,
            recorder: Recorder::new(spans),
            index_build_s,
            plan_build_s,
        }
    }

    fn route(&self, trip: &Trip) -> usize {
        match self.backend {
            Backend::Single(_) => 0,
            // The bare router: `ShardedMonitor::route` would count the
            // trip as routed without any shard ingesting it.
            Backend::City(city) => {
                ShardRouter::new(city.policy())
                    .route(city.shards(), trip)
                    .shard
            }
        }
    }

    /// Ingests the uploads serially, each under its corpus position as
    /// span id.
    pub fn ingest(&mut self, uploads: Uploads<'_>) -> Vec<Report> {
        (0..uploads.len())
            .map(|i| {
                let id = (uploads.first_id + i) as u32;
                self.ingest_one(id, &uploads.trips[i], uploads.received_of(i))
            })
            .collect()
    }

    fn ingest_one(&mut self, id: u32, trip: &Trip, received: Option<f64>) -> Report {
        let (root, mut cursor) = self.recorder.begin("upload", id, ROOT);
        let raw = trip.samples.len();

        let region = if self.regions.len() > 1 {
            let r = self.route(trip);
            self.recorder.lap("shard.router", id, root, &mut cursor);
            r
        } else {
            0
        };
        self.regions[region].trips += 1;

        let digest = upload_digest(trip);
        self.recorder.lap("digest", id, root, &mut cursor);
        if !self.regions[region].seen.insert(digest) {
            self.recorder.end(root);
            return Report {
                duplicate: true,
                samples: raw,
                ..Report::default()
            };
        }

        let (samples, san) = sanitize(&trip.samples, received, &self.config.sanitize);
        self.recorder.lap("sanitize", id, root, &mut cursor);
        let mut report = Report {
            samples: raw,
            kept: san.samples_kept,
            quarantined: san.quarantined(),
            scrubbed: san.observations_scrubbed,
            clock_skew_s: san.clock_skew_s,
            ..Report::default()
        };

        let near = near_duplicate_digests(&samples, &self.config.sanitize);
        if let Some(near) = near {
            let seen = &mut self.regions[region].seen;
            let repeat = near.iter().any(|d| seen.contains(d));
            seen.extend(near);
            self.recorder
                .lap("sanitize.near_digest", id, root, &mut cursor);
            if repeat {
                report.near_duplicate = true;
                self.recorder.end(root);
                return report;
            }
        }

        let recorder = &mut self.recorder;
        let observations = run_stages(
            &self.regions[region].matcher,
            &self.clusterer,
            self.network,
            &self.config,
            &samples,
            &mut report,
            &mut |name| recorder.lap(name, id, root, &mut cursor),
        );

        let fusion = &mut self.regions[region].fusion;
        for obs in &observations {
            fusion.observe(obs.key, obs.time_s, obs.speed_mps, obs.variance);
        }
        self.recorder.lap("fusion", id, root, &mut cursor);
        self.recorder.end(root);
        report
    }

    /// Hash of the map this pipeline's fusion state publishes.
    pub fn map_digest(&self, horizon: f64) -> u64 {
        let maps: Vec<TrafficMap> = self
            .regions
            .iter()
            .map(|r| TrafficMap::from_fusion(&r.fusion, horizon, f64::INFINITY))
            .collect();
        let map = match maps.as_slice() {
            [one] => one.clone(),
            many => CityAggregator::merge(many),
        };
        super::map_hash(&map)
    }

    /// Compares this pipeline's observations with
    /// `TrafficMonitor::observations_for` on every `every`-th upload
    /// (without an arrival time, which that entry point cannot take).
    /// Returns `(uploads compared, mismatches)`.
    pub fn spot_check(&self, corpus: Uploads<'_>, every: usize) -> (usize, usize) {
        let mut compared = 0;
        let mut mismatches = 0;
        for trip in corpus.trips.iter().step_by(every) {
            let region = self.route(trip);
            let (samples, _) = sanitize(&trip.samples, None, &self.config.sanitize);
            let mut report = Report::default();
            let ours = run_stages(
                &self.regions[region].matcher,
                &self.clusterer,
                self.network,
                &self.config,
                &samples,
                &mut report,
                &mut |_| {},
            );
            let (_, theirs) = match self.backend {
                Backend::Single(m) => m.observations_for(trip),
                Backend::City(c) => c.shards()[region].observations_for(trip),
            };
            compared += 1;
            mismatches += usize::from(ours != theirs);
        }
        (compared, mismatches)
    }

    /// Index sizes, region balance, and index-probe candidates per scan
    /// (every 16th upload; a read-only walk, not on the timed path).
    pub fn totals(&self, corpus: Uploads<'_>) -> TracedTotals {
        let sites: Vec<f64> = self
            .regions
            .iter()
            .map(|r| r.matcher.db().len() as f64)
            .collect();
        let trips: Vec<f64> = self.regions.iter().map(|r| r.trips as f64).collect();
        let skew = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
        };
        let mut totals = TracedTotals {
            interned_cells: self
                .regions
                .iter()
                .map(|r| r.matcher.index().interned_cells())
                .sum(),
            partition_skew: skew(&sites),
            trip_skew: skew(&trips),
            ..TracedTotals::default()
        };
        for trip in corpus.trips.iter().step_by(16) {
            let matcher = &self.regions[self.route(trip)].matcher;
            for sample in &trip.samples {
                totals.candidates_probed +=
                    matcher.probe_candidates(&sample.scan.fingerprint()) as u64;
                totals.scans_probed += 1;
            }
        }
        totals
    }
}

/// §III-C/§III-D for one sanitized upload: fingerprints → batch matching
/// → clustering → mapping with salvage → estimation, filling the stage
/// fields of `report` and calling `lap` with the layer's name after each
/// call returns.
fn run_stages(
    matcher: &Matcher,
    clusterer: &Clusterer,
    network: &TransitNetwork,
    config: &MonitorConfig,
    samples: &[CellularSample],
    report: &mut Report,
    lap: &mut dyn FnMut(&'static str),
) -> Vec<SpeedObservation> {
    let fingerprints: Vec<_> = samples.iter().map(|s| s.scan.fingerprint()).collect();
    lap("fingerprint");
    let matched: Vec<MatchedSample> = matcher
        .match_trip(&fingerprints)
        .into_iter()
        .zip(samples)
        .filter_map(|(hit, s)| {
            hit.map(|hit| MatchedSample {
                time_s: s.time_s,
                site: hit.site,
                score: hit.score,
            })
        })
        .collect();
    lap("matching");
    report.matched = matched.len();
    if matched.is_empty() {
        return Vec::new();
    }
    let clusters = clusterer.cluster(matched);
    lap("clustering");
    report.clusters = clusters.len();
    let mapped = TripMapper::new(network).map_trip_salvaged(&clusters);
    lap("mapping");
    let Some((visits, salvage_dropped)) = mapped else {
        return Vec::new();
    };
    report.visits = visits.len();
    report.salvage_dropped = salvage_dropped;
    let observations = TripEstimator::new(network, config.estimation).estimate(&visits);
    lap("estimation");
    report.observations = observations.len();
    observations
}
