//! The published traffic map (Fig. 9) and comparison indicators.

use crate::fusion::SegmentFusion;
use busprobe_mobile::Trip;
use busprobe_network::{SegmentKey, TransitNetwork};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The five speed levels of the paper's Fig. 9 traffic map legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpeedLevel {
    /// Below 20 km/h — congestion.
    VerySlow,
    /// 20–30 km/h.
    Slow,
    /// 30–40 km/h.
    Normal,
    /// 40–50 km/h.
    Fast,
    /// Above 50 km/h — free flow.
    VeryFast,
}

impl SpeedLevel {
    /// Classifies an automobile speed in km/h.
    #[must_use]
    pub fn from_kmh(kmh: f64) -> Self {
        match kmh {
            v if v < 20.0 => SpeedLevel::VerySlow,
            v if v < 30.0 => SpeedLevel::Slow,
            v if v < 40.0 => SpeedLevel::Normal,
            v if v < 50.0 => SpeedLevel::Fast,
            _ => SpeedLevel::VeryFast,
        }
    }

    /// One-character glyph for ASCII map rendering.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            SpeedLevel::VerySlow => '#',
            SpeedLevel::Slow => '=',
            SpeedLevel::Normal => '-',
            SpeedLevel::Fast => '.',
            SpeedLevel::VeryFast => ' ',
        }
    }
}

impl fmt::Display for SpeedLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpeedLevel::VerySlow => "<20 km/h",
            SpeedLevel::Slow => "20-30 km/h",
            SpeedLevel::Normal => "30-40 km/h",
            SpeedLevel::Fast => "40-50 km/h",
            SpeedLevel::VeryFast => ">50 km/h",
        };
        write!(f, "{s}")
    }
}

/// The four coarse levels a Google-Maps-style overlay shows (Fig. 10
/// compares against "very slow, slow, normal, and fast").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GoogleMapsIndicator {
    /// Dark red.
    VerySlow,
    /// Red.
    Slow,
    /// Yellow.
    Normal,
    /// Green.
    Fast,
}

impl GoogleMapsIndicator {
    /// Quantizes a speed in km/h to the four-level overlay.
    #[must_use]
    pub fn from_kmh(kmh: f64) -> Self {
        match kmh {
            v if v < 20.0 => GoogleMapsIndicator::VerySlow,
            v if v < 35.0 => GoogleMapsIndicator::Slow,
            v if v < 50.0 => GoogleMapsIndicator::Normal,
            _ => GoogleMapsIndicator::Fast,
        }
    }

    /// Numeric plotting level 1–4 (as in Fig. 10's right axis).
    #[must_use]
    pub fn level(self) -> u8 {
        match self {
            GoogleMapsIndicator::VerySlow => 1,
            GoogleMapsIndicator::Slow => 2,
            GoogleMapsIndicator::Normal => 3,
            GoogleMapsIndicator::Fast => 4,
        }
    }
}

/// One segment's entry in a published traffic map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentEstimate {
    /// Mean automobile speed, m/s.
    pub speed_mps: f64,
    /// Estimate variance, (m/s)².
    pub variance: f64,
    /// Display level.
    pub level: SpeedLevel,
    /// When the segment last received data, seconds.
    pub updated_s: f64,
}

impl SegmentEstimate {
    /// Speed in km/h.
    #[must_use]
    pub fn speed_kmh(&self) -> f64 {
        self.speed_mps * 3.6
    }
}

/// How long after the last upload a map is rendered when the caller
/// names no snapshot time. Batch `ingest`, `recover` and every serve
/// publisher add this to [`latest_upload_s`], so their maps compare
/// byte for byte.
pub const HORIZON_GRACE_S: f64 = 60.0;

/// The latest finite last-sample time over `trips`, or `so_far` when
/// that is later — a running fold. Faulted uploads may be empty or carry
/// non-finite timestamps, which `Trip::end_s` does not survive.
#[must_use]
pub fn latest_upload_s<'a>(trips: impl IntoIterator<Item = &'a Trip>, so_far: f64) -> f64 {
    trips
        .into_iter()
        .filter_map(|t| t.samples.last())
        .map(|s| s.time_s)
        .filter(|t| t.is_finite())
        .fold(so_far, f64::max)
}

/// A snapshot of the instant traffic map.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrafficMap {
    /// Snapshot time, seconds.
    pub time_s: f64,
    /// Per-segment estimates (only segments with data appear).
    #[serde(with = "busprobe_network::map_as_pairs")]
    pub segments: BTreeMap<SegmentKey, SegmentEstimate>,
}

impl TrafficMap {
    /// Builds a snapshot from the fusion state, dropping segments whose
    /// last report is older than `max_age_s`.
    #[must_use]
    pub fn from_fusion(fusion: &SegmentFusion, time_s: f64, max_age_s: f64) -> Self {
        let mut segments = BTreeMap::new();
        for (key, belief, last) in fusion.iter() {
            if time_s - last > max_age_s {
                continue;
            }
            segments.insert(
                key,
                SegmentEstimate {
                    speed_mps: belief.mean_mps,
                    variance: belief.variance,
                    level: SpeedLevel::from_kmh(belief.mean_mps * 3.6),
                    updated_s: last,
                },
            );
        }
        TrafficMap { time_s, segments }
    }

    /// The estimate for one segment, if covered.
    #[must_use]
    pub fn get(&self, key: SegmentKey) -> Option<&SegmentEstimate> {
        self.segments.get(&key)
    }

    /// Number of covered segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Fraction of the network's segments with an estimate — the coverage
    /// ratio the paper contrasts with Google Maps (Fig. 9c).
    #[must_use]
    pub fn coverage(&self, network: &TransitNetwork) -> f64 {
        if network.segment_count() == 0 {
            return 0.0;
        }
        self.segments.len() as f64 / network.segment_count() as f64
    }

    /// Histogram of display levels.
    #[must_use]
    pub fn level_histogram(&self) -> BTreeMap<SpeedLevel, usize> {
        let mut h = BTreeMap::new();
        for e in self.segments.values() {
            *h.entry(e.level).or_insert(0) += 1;
        }
        h
    }

    /// Renders an ASCII picture of the map: rows are segments grouped by
    /// level, listing site pairs. Intended for terminal inspection of
    /// Fig. 9-style snapshots.
    #[must_use]
    pub fn render_text(&self, network: &TransitNetwork) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "traffic map @ {:.0}s — {}/{} segments",
            self.time_s,
            self.len(),
            network.segment_count()
        );
        for (level, glyph) in [
            (SpeedLevel::VerySlow, '#'),
            (SpeedLevel::Slow, '='),
            (SpeedLevel::Normal, '-'),
            (SpeedLevel::Fast, '.'),
            (SpeedLevel::VeryFast, ' '),
        ] {
            let members: Vec<String> = self
                .segments
                .iter()
                .filter(|(_, e)| e.level == level)
                .map(|(k, e)| format!("{k}({:.0}km/h)", e.speed_kmh()))
                .collect();
            if !members.is_empty() {
                let _ = writeln!(out, "[{glyph}] {level}: {}", members.join(" "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_network::{NetworkGenerator, StopSiteId};

    fn key(a: u32, b: u32) -> SegmentKey {
        SegmentKey::new(StopSiteId(a), StopSiteId(b))
    }

    #[test]
    fn speed_level_boundaries() {
        assert_eq!(SpeedLevel::from_kmh(5.0), SpeedLevel::VerySlow);
        assert_eq!(SpeedLevel::from_kmh(20.0), SpeedLevel::Slow);
        assert_eq!(SpeedLevel::from_kmh(29.9), SpeedLevel::Slow);
        assert_eq!(SpeedLevel::from_kmh(35.0), SpeedLevel::Normal);
        assert_eq!(SpeedLevel::from_kmh(45.0), SpeedLevel::Fast);
        assert_eq!(SpeedLevel::from_kmh(51.0), SpeedLevel::VeryFast);
    }

    #[test]
    fn google_indicator_levels() {
        assert_eq!(GoogleMapsIndicator::from_kmh(10.0).level(), 1);
        assert_eq!(GoogleMapsIndicator::from_kmh(25.0).level(), 2);
        assert_eq!(GoogleMapsIndicator::from_kmh(40.0).level(), 3);
        assert_eq!(GoogleMapsIndicator::from_kmh(60.0).level(), 4);
    }

    #[test]
    fn snapshot_from_fusion_with_age_filter() {
        let mut fusion = SegmentFusion::paper_default();
        fusion.observe(key(0, 1), 1000.0, 10.0, 1.0);
        fusion.observe(key(1, 2), 100.0, 5.0, 1.0); // stale
        let map = TrafficMap::from_fusion(&fusion, 1200.0, 600.0);
        assert_eq!(map.len(), 1);
        assert!(map.get(key(0, 1)).is_some());
        assert!(
            map.get(key(1, 2)).is_none(),
            "20-minute-old estimate dropped"
        );
    }

    #[test]
    fn estimates_carry_levels() {
        let mut fusion = SegmentFusion::paper_default();
        fusion.observe(key(0, 1), 0.0, 4.0, 1.0); // 14.4 km/h
        let map = TrafficMap::from_fusion(&fusion, 0.0, 600.0);
        let e = map.get(key(0, 1)).unwrap();
        assert_eq!(e.level, SpeedLevel::VerySlow);
        assert!((e.speed_kmh() - 14.4).abs() < 1e-9);
    }

    #[test]
    fn coverage_fraction() {
        let network = NetworkGenerator::small(3).generate();
        let mut fusion = SegmentFusion::paper_default();
        let some_key = network.segments().next().unwrap().key;
        fusion.observe(some_key, 0.0, 10.0, 1.0);
        let map = TrafficMap::from_fusion(&fusion, 0.0, 600.0);
        let cov = map.coverage(&network);
        assert!((cov - 1.0 / network.segment_count() as f64).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_levels() {
        let mut fusion = SegmentFusion::paper_default();
        fusion.observe(key(0, 1), 0.0, 4.0, 1.0); // very slow
        fusion.observe(key(1, 2), 0.0, 15.0, 1.0); // very fast (54 km/h)
        let map = TrafficMap::from_fusion(&fusion, 0.0, 600.0);
        let h = map.level_histogram();
        assert_eq!(h.get(&SpeedLevel::VerySlow), Some(&1));
        assert_eq!(h.get(&SpeedLevel::VeryFast), Some(&1));
    }

    #[test]
    fn render_text_mentions_segments() {
        let network = NetworkGenerator::small(3).generate();
        let mut fusion = SegmentFusion::paper_default();
        let some_key = network.segments().next().unwrap().key;
        fusion.observe(some_key, 0.0, 10.0, 1.0);
        let map = TrafficMap::from_fusion(&fusion, 0.0, 600.0);
        let text = map.render_text(&network);
        assert!(text.contains("traffic map"));
        assert!(text.contains("km/h"));
    }

    #[test]
    fn glyphs_are_distinct() {
        let glyphs: std::collections::HashSet<char> = [
            SpeedLevel::VerySlow,
            SpeedLevel::Slow,
            SpeedLevel::Normal,
            SpeedLevel::Fast,
            SpeedLevel::VeryFast,
        ]
        .iter()
        .map(|l| l.glyph())
        .collect();
        assert_eq!(glyphs.len(), 5);
    }

    #[test]
    fn serde_round_trip() {
        let map = TrafficMap::default();
        let back: TrafficMap = serde_json::from_str(&serde_json::to_string(&map).unwrap()).unwrap();
        assert_eq!(map, back);
    }
}
