use crate::deployment::{CellTowerId, TowerDeployment};
use crate::fingerprint::Fingerprint;
use crate::noise::ValueField;
use crate::propagation::PropagationModel;
use busprobe_geo::Point;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Box–Muller standard normal scaled by `sigma`. Draws nothing from `rng`
/// when `sigma == 0`.
fn sample_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 0.0;
    }
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One tower heard during a scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellObservation {
    /// Which tower.
    pub tower: CellTowerId,
    /// Received signal strength, dBm.
    pub rss_dbm: f64,
}

/// The result of one modem scan: visible towers in descending RSS order,
/// truncated to the modem's neighbour-set capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellScan {
    observations: Vec<CellObservation>,
}

impl CellScan {
    /// Builds a scan from raw observations; sorts by descending RSS.
    ///
    /// Never panics: NaN RSS values sort last (`total_cmp`), so malformed
    /// uploads survive construction and can be quarantined downstream
    /// instead of crashing ingestion.
    #[must_use]
    pub fn new(mut observations: Vec<CellObservation>) -> Self {
        observations.sort_by(|a, b| b.rss_dbm.total_cmp(&a.rss_dbm));
        CellScan { observations }
    }

    /// Builds a scan that keeps `observations` in the order given — the
    /// order an upload carried them on the wire, which is what
    /// deserializing a scan has always produced. Unlike [`CellScan::new`]
    /// it does not sort: whatever order a phone sent is what sanitizing
    /// and matching see.
    #[must_use]
    pub fn unsorted(observations: Vec<CellObservation>) -> Self {
        CellScan { observations }
    }

    /// The observations, strongest first.
    #[must_use]
    pub fn observations(&self) -> &[CellObservation] {
        &self.observations
    }

    /// Number of towers heard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether nothing was heard.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The serving cell (strongest tower), if any.
    #[must_use]
    pub fn serving(&self) -> Option<CellObservation> {
        self.observations.first().copied()
    }

    /// The RSS-ordered cell-ID set — the paper's bus-stop signature.
    ///
    /// Duplicate tower entries (a corrupted upload or modem double-report)
    /// are dropped, keeping the first — i.e. strongest — occurrence, so
    /// this never panics on hostile input.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        // FromIterator dedups while preserving RSS order.
        self.observations.iter().map(|o| o.tower).collect()
    }
}

/// Simulates modem scans against a deployment and propagation model.
///
/// The shadowing field is seeded once per `Scanner`, making RSS a
/// *repeatable function of position* (up to per-scan noise): scanning the
/// same bus stop on different days yields near-identical rankings, which is
/// the property the paper's feasibility study (Fig. 2b) measures.
#[derive(Debug, Clone)]
pub struct Scanner {
    deployment: TowerDeployment,
    model: PropagationModel,
    shadow: ValueField,
}

impl Scanner {
    /// Creates a scanner over `deployment` using `model`; `world_seed`
    /// fixes the shadowing field.
    #[must_use]
    pub fn new(deployment: TowerDeployment, model: PropagationModel, world_seed: u64) -> Self {
        let shadow = ValueField::new(world_seed, model.shadowing_corr_m, model.shadowing_sigma_db);
        Scanner {
            deployment,
            model,
            shadow,
        }
    }

    /// The deployment being scanned.
    #[must_use]
    pub fn deployment(&self) -> &TowerDeployment {
        &self.deployment
    }

    /// The propagation model in use.
    #[must_use]
    pub fn model(&self) -> &PropagationModel {
        &self.model
    }

    /// RSS of one tower at `pos` without measurement noise (median RSS plus
    /// static shadowing). This is what repeated scans converge to. `None`
    /// for a tower not in the deployment.
    #[must_use]
    pub fn stable_rss_dbm(&self, tower: CellTowerId, pos: Point) -> Option<f64> {
        let t = self.deployment.get(tower)?;
        let d = t.position.distance(pos);
        Some(
            self.model.median_rss_dbm(t.tx_power_dbm, d)
                + self.shadow.sample(u64::from(t.id.0), pos),
        )
    }

    /// A noise-free scan at `pos`: the expected visible set and ranking.
    /// Useful as a reference fingerprint in tests and database builders.
    #[must_use]
    pub fn expected_scan(&self, pos: Point) -> CellScan {
        // Sigma 0 ⇒ no RNG draws, so any RNG works.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        self.scan_impl(pos, 0.0, &mut rng)
    }

    /// A realistic scan at `pos`: static field plus fresh measurement noise
    /// drawn from `rng`.
    #[must_use]
    pub fn scan<R: Rng + ?Sized>(&self, pos: Point, rng: &mut R) -> CellScan {
        self.scan_impl(pos, self.model.noise_sigma_db, rng)
    }

    fn scan_impl<R: Rng + ?Sized>(&self, pos: Point, sigma: f64, rng: &mut R) -> CellScan {
        let mut observations = Vec::new();
        for t in self.deployment.towers() {
            let d = t.position.distance(pos);
            let median = self.model.median_rss_dbm(t.tx_power_dbm, d);
            // Cheap pre-cull: towers whose RSS cannot plausibly reach the
            // sensitivity floor even with maximal shadow/noise swings.
            if median + 4.0 * (self.model.shadowing_sigma_db + sigma) < self.model.sensitivity_dbm {
                continue;
            }
            let rss =
                median + self.shadow.sample(u64::from(t.id.0), pos) + sample_normal(rng, sigma);
            // Noise can pull borderline towers above/below the floor, so
            // membership — not just order — varies between scans, as in
            // real traces.
            if rss >= self.model.sensitivity_dbm {
                observations.push(CellObservation {
                    tower: t.id,
                    rss_dbm: rss,
                });
            }
        }
        let mut scan = CellScan::new(observations);
        scan.observations.truncate(self.model.max_visible);
        scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentSpec;
    use busprobe_geo::BBox;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scanner() -> Scanner {
        let region = BBox::new(Point::ORIGIN, Point::new(7000.0, 4000.0));
        let deployment = TowerDeployment::generate(region, DeploymentSpec::default(), 11);
        Scanner::new(deployment, PropagationModel::default(), 11)
    }

    #[test]
    fn scan_is_sorted_descending() {
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(1);
        let scan = s.scan(Point::new(2000.0, 2000.0), &mut rng);
        for w in scan.observations().windows(2) {
            assert!(w[0].rss_dbm >= w[1].rss_dbm);
        }
    }

    #[test]
    fn visible_count_matches_paper_band() {
        // §III-A: "Typically there are 4–7 visible cell towers at each bus
        // stop". Check interior locations across the region.
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = Vec::new();
        for ix in 1..13 {
            for iy in 1..7 {
                let p = Point::new(ix as f64 * 500.0, iy as f64 * 500.0);
                counts.push(s.scan(p, &mut rng).len());
            }
        }
        let in_band = counts.iter().filter(|&&c| (4..=7).contains(&c)).count();
        assert!(
            in_band as f64 / counts.len() as f64 > 0.8,
            "only {in_band}/{} locations hear 4-7 towers: {counts:?}",
            counts.len()
        );
    }

    #[test]
    fn expected_scan_is_deterministic() {
        let s = scanner();
        let p = Point::new(1234.0, 2345.0);
        assert_eq!(s.expected_scan(p), s.expected_scan(p));
    }

    #[test]
    fn repeated_scans_share_most_towers() {
        let s = scanner();
        let p = Point::new(3000.0, 1500.0);
        let mut rng = StdRng::seed_from_u64(3);
        let a = s.scan(p, &mut rng).fingerprint();
        let b = s.scan(p, &mut rng).fingerprint();
        let common = a.cells().iter().filter(|c| b.cells().contains(c)).count();
        assert!(
            common * 2 >= a.len().min(b.len()),
            "scans at one spot should mostly agree: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn distant_positions_hear_disjoint_sets() {
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(4);
        let a = s.scan(Point::new(500.0, 500.0), &mut rng).fingerprint();
        let b = s.scan(Point::new(6500.0, 3500.0), &mut rng).fingerprint();
        let common = a.cells().iter().filter(|c| b.cells().contains(c)).count();
        assert_eq!(common, 0, "7 km apart cannot share towers");
    }

    #[test]
    fn serving_cell_is_strongest() {
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(5);
        let scan = s.scan(Point::new(2500.0, 2500.0), &mut rng);
        let serving = scan.serving().unwrap();
        assert!(scan
            .observations()
            .iter()
            .all(|o| o.rss_dbm <= serving.rss_dbm));
    }

    #[test]
    fn max_visible_is_enforced() {
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(6);
        for ix in 0..10 {
            let scan = s.scan(Point::new(700.0 * ix as f64, 2000.0), &mut rng);
            assert!(scan.len() <= s.model().max_visible);
        }
    }

    #[test]
    fn stable_rss_matches_expected_scan_ordering() {
        let s = scanner();
        let p = Point::new(3210.0, 1111.0);
        let scan = s.expected_scan(p);
        for o in scan.observations() {
            let direct = s.stable_rss_dbm(o.tower, p).unwrap();
            assert!((direct - o.rss_dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn stable_rss_unknown_tower_is_none() {
        let s = scanner();
        assert!(s.stable_rss_dbm(CellTowerId(1), Point::ORIGIN).is_none());
    }

    #[test]
    fn empty_scan_far_outside_region() {
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(8);
        let scan = s.scan(Point::new(50_000.0, 50_000.0), &mut rng);
        assert!(scan.is_empty());
        assert!(scan.serving().is_none());
    }

    #[test]
    fn scan_serde_round_trip() {
        let s = scanner();
        let mut rng = StdRng::seed_from_u64(7);
        let scan = s.scan(Point::new(2000.0, 2000.0), &mut rng);
        let back: CellScan = serde_json::from_str(&serde_json::to_string(&scan).unwrap()).unwrap();
        assert_eq!(scan, back);
    }
}
