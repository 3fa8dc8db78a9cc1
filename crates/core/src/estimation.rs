//! Travel-time extraction and the BTT→ATT traffic model (§III-D).
//!
//! For a mapped trip, the travel time between consecutive identified stops
//! is `t_ij = t_a(j) − t_d(i)` (arrival at `j` minus departure from `i`).
//! When a bus skipped stops, the elapsed time covers the whole chain of
//! elementary segments between the identified stops — "our method
//! automatically treats the combined two adjacent segments as one".
//!
//! Bus travel time (BTT) does not directly give general traffic: "We use a
//! linear traffic model ... ATT = a + b·BTT, where a = road length / free
//! travel speed ... and b represents the effect of traffic congestion ...
//! we select b = 0.5 for all road segments."

use crate::mapping::MappedVisit;
use busprobe_network::{SegmentKey, TransitNetwork};
use serde::{Deserialize, Serialize};

/// Parameters of the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// The congestion coupling `b` of Eq. (3); the paper's regression puts
    /// it in `[0.3, 0.8]` and fixes 0.5.
    pub b: f64,
    /// Standard deviation attributed to one speed observation, m/s (feeds
    /// the Bayesian fusion of Eq. 4).
    pub obs_sigma_mps: f64,
    /// Minimum plausible bus travel time for one hop, seconds; shorter
    /// intervals are discarded as timing noise.
    pub min_btt_s: f64,
    /// Fixed per-hop overhead subtracted from the measured travel time,
    /// seconds. The raw `t_a(j) − t_d(i)` includes pull-out acceleration,
    /// braking into the stop, and the offset between the tap timestamps and
    /// the true door events — costs that do not scale with congestion and
    /// would otherwise bias the linear model. In the paper this constant is
    /// implicitly absorbed by the same regression that fits `b`.
    pub hop_overhead_s: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            b: 0.5,
            obs_sigma_mps: 1.0,
            min_btt_s: 5.0,
            hop_overhead_s: 14.0,
        }
    }
}

/// One automobile-speed observation attributed to a road segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedObservation {
    /// The segment the observation belongs to.
    pub key: SegmentKey,
    /// Estimated automobile speed, m/s.
    pub speed_mps: f64,
    /// Observation variance for fusion, (m/s)².
    pub variance: f64,
    /// Representative timestamp (midpoint of the traversal), seconds.
    pub time_s: f64,
}

impl SpeedObservation {
    /// Speed in km/h, the unit the paper reports.
    #[must_use]
    pub fn speed_kmh(&self) -> f64 {
        self.speed_mps * 3.6
    }
}

/// Converts mapped trips into per-segment speed observations.
#[derive(Debug, Clone)]
pub struct TripEstimator<'a> {
    network: &'a TransitNetwork,
    config: EstimatorConfig,
}

impl<'a> TripEstimator<'a> {
    /// Creates an estimator over `network`.
    #[must_use]
    pub fn new(network: &'a TransitNetwork, config: EstimatorConfig) -> Self {
        TripEstimator { network, config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Eq. (3): automobile travel time from bus travel time over a stretch
    /// of `length_m` with free-flow speed `free_speed_mps`.
    #[must_use]
    pub fn att_from_btt(&self, btt_s: f64, length_m: f64, free_speed_mps: f64) -> f64 {
        let a = length_m / free_speed_mps;
        a + self.config.b * btt_s
    }

    /// Produces speed observations for every consecutive pair of visits in
    /// a mapped trip. Hops with no connecting route, negative/absurd
    /// timing, or sub-threshold travel times are skipped.
    #[must_use]
    pub fn estimate(&self, visits: &[MappedVisit]) -> Vec<SpeedObservation> {
        let mut out = Vec::new();
        for w in visits.windows(2) {
            let (from, to) = (&w[0], &w[1]);
            let raw = to.arrival_s - from.departure_s;
            // NaN compares false against the threshold, so reject
            // non-finite timing explicitly.
            if !raw.is_finite() || raw < self.config.min_btt_s {
                continue;
            }
            let btt = (raw - self.config.hop_overhead_s).max(self.config.min_btt_s);
            // `None` when no route connects the hop. The free time, summed
            // in chain order, composes the hops' free speeds harmonically.
            let Some((chain, length, free_time)) =
                self.network.segment_chain_stats(from.site, to.site)
            else {
                continue;
            };
            let att = self.config.b * btt + free_time;
            let speed = length / att;
            let mid_time = (from.departure_s + to.arrival_s) / 2.0;
            // The whole chain experienced one traversal: attribute the same
            // speed to each elementary segment. Hops whose endpoint visits
            // were identified with low Eq. (2) confidence get a wider
            // variance, so occasional mis-mapped stops cannot drag the
            // fused belief far.
            let confidence = from.confidence.min(to.confidence).max(0.1);
            let discount = (7.0 / confidence).clamp(0.5, 10.0);
            let var = self.config.obs_sigma_mps * self.config.obs_sigma_mps * discount;
            for &key in chain {
                out.push(SpeedObservation {
                    key,
                    speed_mps: speed,
                    variance: var,
                    time_s: mid_time,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_network::{NetworkGenerator, StopSiteId};

    fn network() -> busprobe_network::TransitNetwork {
        NetworkGenerator::small(9).generate()
    }

    fn visit(site: StopSiteId, arrival: f64, departure: f64) -> MappedVisit {
        MappedVisit {
            site,
            arrival_s: arrival,
            departure_s: departure,
            confidence: 1.0,
        }
    }

    #[test]
    fn att_formula_matches_paper() {
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        // 500 m at 60 km/h free speed: a = 30 s. BTT = 100 s → ATT = 80 s.
        let att = est.att_from_btt(100.0, 500.0, 60.0 / 3.6);
        assert!((att - 80.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_stop_hop_yields_one_observation() {
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        let route = &n.routes()[0];
        let (a, b) = (route.stops()[0], route.stops()[1]);
        let visits = vec![visit(a.site, 0.0, 10.0), visit(b.site, 80.0, 95.0)];
        let obs = est.estimate(&visits);
        assert_eq!(obs.len(), 1);
        assert_eq!(
            obs[0].key,
            busprobe_network::SegmentKey::new(a.site, b.site)
        );
        let seg = n.segment(obs[0].key).unwrap();
        // Raw hop 70 s − 14 s overhead = 56 s BTT; ATT = free_time + 28.
        let expect = seg.length_m / (seg.free_travel_time_s() + 28.0);
        assert!((obs[0].speed_mps - expect).abs() < 1e-9);
        assert_eq!(obs[0].time_s, (10.0 + 80.0) / 2.0);
    }

    #[test]
    fn skipped_stop_spreads_over_chain() {
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        let route = &n.routes()[0];
        let (a, c) = (route.stops()[0], route.stops()[2]);
        let visits = vec![visit(a.site, 0.0, 10.0), visit(c.site, 150.0, 160.0)];
        let obs = est.estimate(&visits);
        assert_eq!(obs.len(), 2, "two elementary segments get the estimate");
        assert!((obs[0].speed_mps - obs[1].speed_mps).abs() < 1e-12);
    }

    #[test]
    fn estimated_speed_never_exceeds_free_flow() {
        // ATT = a + 0.5·BTT ≥ a, so speed ≤ free speed by construction.
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        let route = &n.routes()[0];
        let (a, b) = (route.stops()[0], route.stops()[1]);
        // Absurdly fast bus: 6-second hop.
        let visits = vec![visit(a.site, 0.0, 10.0), visit(b.site, 16.0, 20.0)];
        let obs = est.estimate(&visits);
        let seg = n.segment(obs[0].key).unwrap();
        assert!(obs[0].speed_mps <= seg.free_speed_mps + 1e-9);
    }

    #[test]
    fn too_short_hops_are_dropped() {
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        let route = &n.routes()[0];
        let (a, b) = (route.stops()[0], route.stops()[1]);
        let visits = vec![visit(a.site, 0.0, 10.0), visit(b.site, 12.0, 20.0)];
        assert!(
            est.estimate(&visits).is_empty(),
            "2-second hop is timing noise"
        );
    }

    #[test]
    fn unconnected_sites_are_skipped() {
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        let route = &n.routes()[0];
        let (a, b) = (route.stops()[1], route.stops()[0]);
        // Backwards against the route with no reverse service recorded at
        // these exact sites — unless another route provides it, the hop is
        // dropped rather than misattributed.
        let visits = vec![visit(a.site, 0.0, 10.0), visit(b.site, 100.0, 110.0)];
        let obs = est.estimate(&visits);
        if n.segment_chain(a.site, b.site).is_none() {
            assert!(obs.is_empty());
        }
    }

    #[test]
    fn single_visit_yields_nothing() {
        let n = network();
        let est = TripEstimator::new(&n, EstimatorConfig::default());
        let route = &n.routes()[0];
        assert!(est
            .estimate(&[visit(route.stops()[0].site, 0.0, 5.0)])
            .is_empty());
    }

    #[test]
    fn kmh_conversion() {
        let obs = SpeedObservation {
            key: busprobe_network::SegmentKey::new(StopSiteId(0), StopSiteId(1)),
            speed_mps: 10.0,
            variance: 1.0,
            time_s: 0.0,
        };
        assert!((obs.speed_kmh() - 36.0).abs() < 1e-12);
    }
}
