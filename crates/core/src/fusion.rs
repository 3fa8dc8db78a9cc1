//! Bayesian fusion of repeated speed estimates (§III-D, Eq. 4).
//!
//! "When we consider the trip reports from massive mobile phones, for each
//! road segment, there are typically more than one speed estimation." The
//! update combines the historic mean `v` (variance σ²) with a new estimate
//! `v'` (variance σ'²):
//!
//! ```text
//! v_new = (v/σ² + v'/σ'²) / (1/σ² + 1/σ'²)
//! σ²_new = 1 / (1/σ² + 1/σ'²)
//! ```
//!
//! i.e. inverse-variance weighting; every report tightens the estimate.
//! Between the paper's 5-minute refresh periods the variance is inflated so
//! stale history gradually yields to fresh traffic.

use busprobe_network::SegmentKey;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};

/// A Gaussian speed belief for one road segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BayesianSpeed {
    /// Mean speed, m/s.
    pub mean_mps: f64,
    /// Belief variance, (m/s)².
    pub variance: f64,
}

impl BayesianSpeed {
    /// Creates a belief from a first observation.
    #[must_use]
    pub fn from_observation(mean_mps: f64, variance: f64) -> Self {
        BayesianSpeed { mean_mps, variance }
    }

    /// Applies the Eq. (4) update with a new observation.
    ///
    /// # Panics
    ///
    /// Panics if either variance is not strictly positive.
    pub fn update(&mut self, obs_mean_mps: f64, obs_variance: f64) {
        assert!(
            self.variance > 0.0 && obs_variance > 0.0,
            "variances must be positive"
        );
        let w_old = 1.0 / self.variance;
        let w_new = 1.0 / obs_variance;
        self.mean_mps = (self.mean_mps * w_old + obs_mean_mps * w_new) / (w_old + w_new);
        self.variance = 1.0 / (w_old + w_new);
    }

    /// Inflates the variance (forgetting factor ≥ 1) so newer traffic can
    /// move the belief — applied at each refresh-period rollover.
    pub fn age(&mut self, inflation: f64) {
        self.variance *= inflation.max(1.0);
    }
}

/// Everything fusion keeps for one segment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SegmentState {
    /// The running belief, aged between refresh periods.
    pub(crate) belief: BayesianSpeed,
    /// When the segment last received an observation, seconds.
    pub(crate) last_s: f64,
    /// Per-period beliefs, fused independently per window — the retained
    /// speed time series (what Fig. 10 plots). Window-ascending.
    pub(crate) windows: Vec<(u32, BayesianSpeed)>,
}

/// Per-segment fusion state with the paper's periodic refresh.
///
/// Persisted so a server restart can resume with its accumulated
/// traffic state (see `TrafficMonitor::export_state`).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFusion {
    /// Refresh period `T`, seconds (the paper uses 5 minutes).
    period_s: f64,
    /// Variance inflation applied per elapsed period.
    inflation_per_period: f64,
    /// One entry per observed segment, so an observation is one tree walk.
    segments: BTreeMap<SegmentKey, SegmentState>,
}

/// The legacy JSON form of [`SegmentFusion`]: `(belief, last update)`
/// per segment and the window series per segment as two key-ascending
/// pair lists — the shape of every JSON snapshot on disk.
#[derive(Serialize, Deserialize)]
struct FusionWire {
    period_s: f64,
    inflation_per_period: f64,
    states: Vec<(SegmentKey, (BayesianSpeed, f64))>,
    windows: Vec<(SegmentKey, Vec<(u32, BayesianSpeed)>)>,
}

impl Serialize for SegmentFusion {
    fn to_value(&self) -> serde::Value {
        FusionWire {
            period_s: self.period_s,
            inflation_per_period: self.inflation_per_period,
            states: self.iter().map(|(k, b, t)| (k, (b, t))).collect(),
            windows: self
                .segments
                .iter()
                .map(|(&k, s)| (k, s.windows.clone()))
                .collect(),
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for SegmentFusion {
    /// The two lists must name the same segments, pair for pair; the
    /// rest is `SegmentFusion::from_segments`'s to judge.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let wire = FusionWire::from_value(value)?;
        if wire.states.len() != wire.windows.len() {
            return Err(serde::Error::msg(format!(
                "fusion state lists {} segments but window series for {}",
                wire.states.len(),
                wire.windows.len()
            )));
        }
        let mut segments = Vec::with_capacity(wire.states.len());
        for ((key, (belief, last_s)), (series_key, windows)) in
            wire.states.into_iter().zip(wire.windows)
        {
            if key != series_key {
                return Err(serde::Error::msg(format!(
                    "fusion state names segment {key} where its window series name {series_key}"
                )));
            }
            segments.push((
                key,
                SegmentState {
                    belief,
                    last_s,
                    windows,
                },
            ));
        }
        SegmentFusion::from_segments(wire.period_s, wire.inflation_per_period, segments)
            .map_err(serde::Error::msg)
    }
}

impl SegmentFusion {
    /// Creates a fusion store with refresh period `period_s` and per-period
    /// variance inflation `inflation_per_period` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not strictly positive.
    #[must_use]
    pub fn new(period_s: f64, inflation_per_period: f64) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        SegmentFusion {
            period_s,
            inflation_per_period,
            segments: BTreeMap::new(),
        }
    }

    /// The paper's configuration: T = 5 min, gentle forgetting.
    #[must_use]
    pub fn paper_default() -> Self {
        SegmentFusion::new(300.0, 4.0)
    }

    /// Rebuilds a persisted store — the one validator every snapshot
    /// decoder goes through. Segments must come in strictly ascending
    /// key order and every window series must be strictly
    /// window-ascending, which is what [`segments`](Self::segments)
    /// yields; anything else, or a period that [`new`](Self::new) would
    /// refuse, is refused rather than patched up: a state that
    /// contradicts itself has no right reading.
    pub(crate) fn from_segments(
        period_s: f64,
        inflation_per_period: f64,
        segments: Vec<(SegmentKey, SegmentState)>,
    ) -> Result<Self, String> {
        if period_s.is_nan() || period_s <= 0.0 {
            return Err(format!("fusion period {period_s} is not positive"));
        }
        if let Some(pair) = segments.windows(2).find(|p| p[0].0 >= p[1].0) {
            return Err(format!(
                "fusion segment {} follows {}: keys do not ascend",
                pair[1].0, pair[0].0
            ));
        }
        if let Some((key, _)) = segments
            .iter()
            .find(|(_, s)| s.windows.windows(2).any(|w| w[0].0 >= w[1].0))
        {
            return Err(format!("window series of segment {key} is not ascending"));
        }
        Ok(SegmentFusion {
            period_s,
            inflation_per_period,
            segments: segments.into_iter().collect(),
        })
    }

    /// Refresh period `T`, seconds.
    pub(crate) fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Variance inflation applied per elapsed period.
    pub(crate) fn inflation_per_period(&self) -> f64 {
        self.inflation_per_period
    }

    /// Every segment's state, in key order.
    pub(crate) fn segments(&self) -> &BTreeMap<SegmentKey, SegmentState> {
        &self.segments
    }

    /// Folds one observation into the segment's belief.
    pub fn observe(&mut self, key: SegmentKey, time_s: f64, mean_mps: f64, variance: f64) {
        let window = (time_s / self.period_s).max(0.0) as u32;
        let fresh = BayesianSpeed::from_observation(mean_mps, variance);
        let state = match self.segments.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(SegmentState {
                    belief: fresh,
                    last_s: time_s,
                    windows: vec![(window, fresh)],
                });
                return;
            }
            Entry::Occupied(slot) => slot.into_mut(),
        };
        // Per-window series: each period fuses its own observations.
        // Uploads arrive roughly in time order, so the window is almost
        // always the last one or a new last one.
        let windows = &mut state.windows;
        match windows.last_mut() {
            Some((last, b)) if *last == window => b.update(mean_mps, variance),
            Some((last, _)) if *last < window => windows.push((window, fresh)),
            _ => match windows.binary_search_by_key(&window, |&(w, _)| w) {
                Ok(at) => windows[at].1.update(mean_mps, variance),
                Err(at) => windows.insert(at, (window, fresh)),
            },
        }
        let elapsed_periods = ((time_s - state.last_s) / self.period_s).max(0.0);
        if elapsed_periods > 0.0 {
            state
                .belief
                .age(self.inflation_per_period.powf(elapsed_periods));
        }
        state.belief.update(mean_mps, variance);
        state.last_s = state.last_s.max(time_s);
    }

    /// Current belief for a segment.
    #[must_use]
    pub fn belief(&self, key: SegmentKey) -> Option<BayesianSpeed> {
        self.segments.get(&key).map(|s| s.belief)
    }

    /// When the segment last received an observation.
    #[must_use]
    pub fn last_update_s(&self, key: SegmentKey) -> Option<f64> {
        self.segments.get(&key).map(|s| s.last_s)
    }

    /// Iterates over `(segment, belief, last update)`.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentKey, BayesianSpeed, f64)> + '_ {
        self.segments.iter().map(|(&k, s)| (k, s.belief, s.last_s))
    }

    /// The retained per-period speed series of one segment: `(window start
    /// seconds, belief)` pairs in time order. Empty if never observed.
    #[must_use]
    pub fn window_series(&self, key: SegmentKey) -> Vec<(f64, BayesianSpeed)> {
        self.segments
            .get(&key)
            .map(|s| {
                s.windows
                    .iter()
                    .map(|&(w, b)| (f64::from(w) * self.period_s, b))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of segments with a belief.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether no segment has been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_network::StopSiteId;
    use proptest::prelude::*;

    fn key() -> SegmentKey {
        SegmentKey::new(StopSiteId(0), StopSiteId(1))
    }

    #[test]
    fn update_matches_equation_four() {
        let mut b = BayesianSpeed::from_observation(10.0, 4.0);
        b.update(14.0, 4.0);
        // Equal variances: simple average; variance halves.
        assert!((b.mean_mps - 12.0).abs() < 1e-12);
        assert!((b.variance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn precise_observation_dominates() {
        let mut b = BayesianSpeed::from_observation(10.0, 100.0);
        b.update(20.0, 0.01);
        assert!((b.mean_mps - 20.0).abs() < 0.01);
    }

    #[test]
    fn variance_contracts_monotonically() {
        let mut b = BayesianSpeed::from_observation(10.0, 4.0);
        for _ in 0..10 {
            let before = b.variance;
            b.update(11.0, 4.0);
            assert!(b.variance < before);
        }
    }

    #[test]
    fn aging_inflates_variance() {
        let mut b = BayesianSpeed::from_observation(10.0, 2.0);
        b.age(4.0);
        assert_eq!(b.variance, 8.0);
        b.age(0.5); // clamped to 1: aging never sharpens a belief
        assert_eq!(b.variance, 8.0);
    }

    #[test]
    fn fusion_tracks_changing_traffic() {
        let mut f = SegmentFusion::paper_default();
        // Morning: 5 m/s reports.
        for k in 0..5 {
            f.observe(key(), 100.0 * k as f64, 5.0, 1.0);
        }
        assert!((f.belief(key()).unwrap().mean_mps - 5.0).abs() < 0.1);
        // Hours later, traffic clears: 14 m/s reports. With aging, the
        // belief must move most of the way within a few reports.
        for k in 0..5 {
            f.observe(key(), 20_000.0 + 100.0 * k as f64, 14.0, 1.0);
        }
        let after = f.belief(key()).unwrap().mean_mps;
        assert!(after > 12.0, "belief stuck at {after}");
    }

    #[test]
    fn without_aging_history_dominates() {
        let mut f = SegmentFusion::new(300.0, 1.0);
        for k in 0..50 {
            f.observe(key(), k as f64, 5.0, 1.0);
        }
        f.observe(key(), 20_000.0, 14.0, 1.0);
        let after = f.belief(key()).unwrap().mean_mps;
        assert!(
            after < 6.0,
            "one fresh report cannot beat 50 stale ones without aging"
        );
    }

    #[test]
    fn unknown_segment_has_no_belief() {
        let f = SegmentFusion::paper_default();
        assert!(f.belief(key()).is_none());
        assert!(f.is_empty());
    }

    #[test]
    fn observe_tracks_bookkeeping() {
        let mut f = SegmentFusion::paper_default();
        f.observe(key(), 10.0, 8.0, 1.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f.last_update_s(key()), Some(10.0));
        let items: Vec<_> = f.iter().collect();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn window_series_retains_per_period_estimates() {
        let mut f = SegmentFusion::paper_default();
        // Two observations in window 0, one in window 2.
        f.observe(key(), 10.0, 6.0, 1.0);
        f.observe(key(), 200.0, 8.0, 1.0);
        f.observe(key(), 650.0, 12.0, 1.0);
        let series = f.window_series(key());
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 0.0);
        assert!(
            (series[0].1.mean_mps - 7.0).abs() < 1e-9,
            "window 0 fuses 6 and 8"
        );
        assert_eq!(series[1].0, 600.0);
        assert!((series[1].1.mean_mps - 12.0).abs() < 1e-9);
        // Untouched segment: empty series.
        assert!(f
            .window_series(SegmentKey::new(StopSiteId(8), StopSiteId(9)))
            .is_empty());
    }

    /// The two-map layout this module had before the per-segment merge,
    /// kept as the oracle of `prop_one_map_equals_the_two_map_form`.
    #[derive(Serialize)]
    struct TwoMapFusion {
        period_s: f64,
        inflation_per_period: f64,
        #[serde(with = "busprobe_network::map_as_pairs")]
        states: BTreeMap<SegmentKey, (BayesianSpeed, f64)>,
        #[serde(with = "busprobe_network::map_as_pairs")]
        windows: BTreeMap<SegmentKey, BTreeMap<u32, BayesianSpeed>>,
    }

    impl TwoMapFusion {
        fn observe(&mut self, key: SegmentKey, time_s: f64, mean_mps: f64, variance: f64) {
            let window = (time_s / self.period_s).max(0.0) as u32;
            self.windows
                .entry(key)
                .or_default()
                .entry(window)
                .and_modify(|b| b.update(mean_mps, variance))
                .or_insert_with(|| BayesianSpeed::from_observation(mean_mps, variance));
            match self.states.get_mut(&key) {
                Some((belief, last)) => {
                    let elapsed_periods = ((time_s - *last) / self.period_s).max(0.0);
                    if elapsed_periods > 0.0 {
                        belief.age(self.inflation_per_period.powf(elapsed_periods));
                    }
                    belief.update(mean_mps, variance);
                    *last = (*last).max(time_s);
                }
                None => {
                    self.states.insert(
                        key,
                        (BayesianSpeed::from_observation(mean_mps, variance), time_s),
                    );
                }
            }
        }
    }

    /// A snapshot whose two lists disagree about which segments exist, or
    /// whose keys or series are out of order, is refused, not patched up.
    #[test]
    fn disagreeing_wire_lists_are_refused() {
        let mut f = SegmentFusion::paper_default();
        let other = SegmentKey::new(StopSiteId(2), StopSiteId(3));
        f.observe(key(), 10.0, 6.0, 1.0);
        f.observe(key(), 650.0, 7.0, 1.0);
        f.observe(other, 20.0, 9.0, 1.0);
        let good = f.to_value();
        assert_eq!(SegmentFusion::from_value(&good).unwrap(), f);

        let edit = |list: &str, path: &[usize], to: serde::Value| {
            let mut v = good.clone();
            let serde::Value::Object(fields) = &mut v else {
                panic!("fusion serialises as an object");
            };
            let mut at = &mut fields.iter_mut().find(|(k, _)| k == list).unwrap().1;
            for &i in path {
                let serde::Value::Array(items) = at else {
                    panic!("pair lists are arrays");
                };
                at = &mut items[i];
            }
            *at = to;
            SegmentFusion::from_value(&v).unwrap_err().to_string()
        };
        let stranger = SegmentKey::new(StopSiteId(8), StopSiteId(9)).to_value();
        let err = edit("windows", &[1, 0], stranger.clone());
        assert!(err.contains("where its window series name"), "{err}");
        let err = edit("states", &[0, 0], stranger);
        assert!(err.contains("where its window series name"), "{err}");
        let err = edit("windows", &[1], serde::Value::Null);
        assert!(!err.is_empty(), "a malformed pair is a type error: {err}");
        // Window 2 rewritten to 0: the series [0, 0] no longer ascends.
        let err = edit("windows", &[0, 1, 1, 0], 0u32.to_value());
        assert!(err.contains("not ascending"), "{err}");

        // One list shorter than the other.
        let mut wire = FusionWire::from_value(&good).unwrap();
        wire.windows.pop();
        let err = SegmentFusion::from_value(&wire.to_value()).unwrap_err();
        assert!(err.to_string().contains("window series for 1"), "{err}");

        // Both lists agree, but in descending key order.
        let mut wire = FusionWire::from_value(&good).unwrap();
        wire.states.reverse();
        wire.windows.reverse();
        let err = SegmentFusion::from_value(&wire.to_value()).unwrap_err();
        assert!(err.to_string().contains("keys do not ascend"), "{err}");

        // A period `new` would refuse.
        let mut wire = FusionWire::from_value(&good).unwrap();
        wire.period_s = 0.0;
        let err = SegmentFusion::from_value(&wire.to_value()).unwrap_err();
        assert!(err.to_string().contains("not positive"), "{err}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_variance_update_panics() {
        let mut b = BayesianSpeed::from_observation(10.0, 1.0);
        b.update(10.0, 0.0);
    }

    proptest! {
        /// Any observation sequence — repeated segments, windows arriving
        /// out of order or twice, times before the epoch — leaves the
        /// one-map store answering every query, iterating and
        /// serialising exactly as the two-map form did.
        #[test]
        fn prop_one_map_equals_the_two_map_form(obs in proptest::collection::vec(
            (0u32..4, 0u32..3, -700.0f64..4000.0, 1.0f64..30.0, 0.5f64..5.0), 0..60)) {
            let mut new = SegmentFusion::paper_default();
            let mut old = TwoMapFusion {
                period_s: 300.0,
                inflation_per_period: 4.0,
                states: BTreeMap::new(),
                windows: BTreeMap::new(),
            };
            let mut keys = Vec::new();
            for &(from, to, time_s, mean, var) in &obs {
                let key = SegmentKey::new(StopSiteId(from), StopSiteId(to));
                new.observe(key, time_s, mean, var);
                old.observe(key, time_s, mean, var);
                keys.push(key);
            }
            keys.push(SegmentKey::new(StopSiteId(9), StopSiteId(9)));
            for &key in &keys {
                prop_assert_eq!(new.belief(key), old.states.get(&key).map(|s| s.0));
                prop_assert_eq!(new.last_update_s(key), old.states.get(&key).map(|s| s.1));
                let series: Vec<(f64, BayesianSpeed)> = old.windows.get(&key)
                    .map(|m| m.iter().map(|(&w, &b)| (f64::from(w) * 300.0, b)).collect())
                    .unwrap_or_default();
                prop_assert_eq!(new.window_series(key), series);
            }
            let iterated: Vec<_> = new.iter().collect();
            let expected: Vec<_> = old.states.iter().map(|(&k, &(b, t))| (k, b, t)).collect();
            prop_assert_eq!(iterated, expected);
            prop_assert_eq!(new.len(), old.states.len());
            prop_assert_eq!(new.to_value(), old.to_value());
            prop_assert_eq!(SegmentFusion::from_value(&new.to_value()).unwrap(), new);
        }

        #[test]
        fn prop_fused_mean_is_between_inputs(v0 in 1.0f64..30.0, v1 in 1.0f64..30.0,
                                             s0 in 0.1f64..10.0, s1 in 0.1f64..10.0) {
            let mut b = BayesianSpeed::from_observation(v0, s0);
            b.update(v1, s1);
            let lo = v0.min(v1);
            let hi = v0.max(v1);
            prop_assert!(b.mean_mps >= lo - 1e-9 && b.mean_mps <= hi + 1e-9);
            prop_assert!(b.variance < s0.min(s1));
        }

        #[test]
        fn prop_update_order_is_irrelevant(obs in proptest::collection::vec(
            (1.0f64..30.0, 0.5f64..5.0), 2..6)) {
            let mut a = BayesianSpeed::from_observation(obs[0].0, obs[0].1);
            for &(m, v) in &obs[1..] {
                a.update(m, v);
            }
            let mut rev = obs.clone();
            rev.reverse();
            let mut b = BayesianSpeed::from_observation(rev[0].0, rev[0].1);
            for &(m, v) in &rev[1..] {
                b.update(m, v);
            }
            prop_assert!((a.mean_mps - b.mean_mps).abs() < 1e-9);
            prop_assert!((a.variance - b.variance).abs() < 1e-9);
        }
    }
}
