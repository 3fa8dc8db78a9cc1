//! Online maintenance of the bus-stop fingerprint database.
//!
//! The paper's Fig. 4 shows the bus-stop database with an online/offline
//! *update* path: the radio environment drifts (operators re-farm cells,
//! towers appear and disappear), so fingerprints collected once go stale.
//! The updater harvests cellular samples from trips whose per-trip mapping
//! identified the stop with high confidence, and periodically re-elects
//! each stop's stored fingerprint from the harvest — the same
//! most-mutually-similar election used for the initial war-collection
//! (§IV-A), with the current entry competing against the fresh samples.

use crate::database::StopFingerprintDb;
use crate::matching::{similarity, MatchConfig};
use busprobe_cellular::Fingerprint;
use busprobe_network::StopSiteId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Updater parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdaterConfig {
    /// Minimum Eq. (2) visit confidence (`p·s̄`) for a visit's samples to
    /// be harvested.
    pub min_confidence: f64,
    /// Fresh samples required per stop before its entry is re-elected.
    pub min_samples: usize,
    /// Cap on retained samples per stop (oldest dropped first).
    pub max_samples: usize,
}

impl Default for UpdaterConfig {
    fn default() -> Self {
        UpdaterConfig {
            min_confidence: 4.0,
            min_samples: 4,
            max_samples: 32,
        }
    }
}

/// Accumulates high-confidence samples and refreshes the database.
///
/// The pending harvest is an ordered map (and the struct serializes) so
/// the updater can ride along in durability snapshots byte-for-byte
/// deterministically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DbUpdater {
    config: UpdaterConfig,
    #[serde(with = "busprobe_network::map_as_pairs")]
    pending: BTreeMap<StopSiteId, Vec<Fingerprint>>,
}

impl DbUpdater {
    /// Creates an updater.
    #[must_use]
    pub fn new(config: UpdaterConfig) -> Self {
        DbUpdater {
            config,
            pending: BTreeMap::new(),
        }
    }

    /// The active parameters.
    #[must_use]
    pub fn config(&self) -> &UpdaterConfig {
        &self.config
    }

    /// An updater holding `pending`, harvested under `config` — a
    /// persisted one on its way back through recovery.
    pub(crate) fn with_pending(
        config: UpdaterConfig,
        pending: BTreeMap<StopSiteId, Vec<Fingerprint>>,
    ) -> Self {
        DbUpdater { config, pending }
    }

    /// The pending harvest, in site order.
    pub(crate) fn pending(&self) -> &BTreeMap<StopSiteId, Vec<Fingerprint>> {
        &self.pending
    }

    /// Harvests one sample for `site`, recorded from a visit identified
    /// with `confidence`. Low-confidence samples are ignored.
    pub fn record(&mut self, site: StopSiteId, fingerprint: Fingerprint, confidence: f64) {
        if confidence < self.config.min_confidence || fingerprint.is_empty() {
            return;
        }
        let slot = self.pending.entry(site).or_default();
        if slot.len() >= self.config.max_samples {
            slot.remove(0);
        }
        slot.push(fingerprint);
    }

    /// Samples currently pending for `site`.
    #[must_use]
    pub fn pending_for(&self, site: StopSiteId) -> usize {
        self.pending.get(&site).map_or(0, Vec::len)
    }

    /// Re-elects the fingerprint of every stop that accumulated enough
    /// fresh samples: the stored entry competes with the harvest, and the
    /// candidate with the highest summed similarity to the fresh samples
    /// wins. Consumed stops are cleared. Returns how many entries changed.
    pub fn refresh(&mut self, db: &mut StopFingerprintDb, match_config: &MatchConfig) -> usize {
        let changes = self.refresh_changes(db, match_config);
        let changed = changes.len();
        for (site, fp) in changes {
            db.insert(site, fp);
        }
        changed
    }

    /// Like [`refresh`](Self::refresh), but returns the promoted entries
    /// (sorted by site) instead of applying them, so callers holding an
    /// index-backed matcher can apply the delta through incremental
    /// `insert`s rather than rebuilding the whole index. Consumed stops
    /// are cleared either way.
    pub fn refresh_changes(
        &mut self,
        db: &StopFingerprintDb,
        match_config: &MatchConfig,
    ) -> Vec<(StopSiteId, Fingerprint)> {
        let mut changes = Vec::new();
        let ready: Vec<StopSiteId> = self
            .pending
            .iter()
            .filter(|(_, v)| v.len() >= self.config.min_samples)
            .map(|(&k, _)| k)
            .collect();
        for site in ready {
            // invariant: `site` came from iterating `pending` above.
            let samples = self.pending.remove(&site).expect("just listed");
            // Candidates: every fresh sample plus the current entry.
            let mut candidates: Vec<&Fingerprint> = samples.iter().collect();
            let current = db.get(site).cloned();
            if let Some(cur) = &current {
                candidates.push(cur);
            }
            let best = candidates
                .iter()
                .map(|cand| {
                    let total: f64 = samples
                        .iter()
                        .map(|s| similarity(cand, s, match_config))
                        .sum();
                    (total, *cand)
                })
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .map(|(_, cand)| cand.clone())
                // invariant: `ready` requires ≥ min_samples ≥ 1 pending
                // samples, each of which is a candidate.
                .expect("at least one candidate");
            if current.as_ref() != Some(&best) {
                changes.push((site, best));
            }
        }
        // `pending` is a HashMap; sort so the delta (and its application
        // order) is deterministic.
        changes.sort_by_key(|(site, _)| *site);
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_cellular::CellTowerId;

    fn fp(ids: &[u32]) -> Fingerprint {
        Fingerprint::new(ids.iter().map(|&i| CellTowerId(i)).collect()).unwrap()
    }

    fn site(k: u32) -> StopSiteId {
        StopSiteId(k)
    }

    #[test]
    fn low_confidence_samples_are_ignored() {
        let mut u = DbUpdater::new(UpdaterConfig::default());
        u.record(site(0), fp(&[1, 2, 3]), 2.0);
        assert_eq!(u.pending_for(site(0)), 0);
        u.record(site(0), fp(&[1, 2, 3]), 5.0);
        assert_eq!(u.pending_for(site(0)), 1);
    }

    #[test]
    fn empty_fingerprints_are_ignored() {
        let mut u = DbUpdater::new(UpdaterConfig::default());
        u.record(site(0), Fingerprint::new(vec![]).unwrap(), 9.0);
        assert_eq!(u.pending_for(site(0)), 0);
    }

    #[test]
    fn refresh_waits_for_enough_samples() {
        let mut u = DbUpdater::new(UpdaterConfig {
            min_samples: 3,
            ..Default::default()
        });
        let mut db = StopFingerprintDb::new();
        db.insert(site(0), fp(&[1, 2, 3, 4]));
        u.record(site(0), fp(&[9, 8, 7]), 9.0);
        assert_eq!(u.refresh(&mut db, &MatchConfig::default()), 0);
        assert_eq!(db.get(site(0)), Some(&fp(&[1, 2, 3, 4])), "unchanged");
        assert_eq!(u.pending_for(site(0)), 1, "samples retained for later");
    }

    #[test]
    fn drifted_environment_replaces_stale_entry() {
        // The radio environment changed: fresh scans consistently show a
        // new tower set. The stale entry must lose the election.
        let mut u = DbUpdater::new(UpdaterConfig {
            min_samples: 3,
            ..Default::default()
        });
        let mut db = StopFingerprintDb::new();
        db.insert(site(0), fp(&[1, 2, 3, 4]));
        for _ in 0..3 {
            u.record(site(0), fp(&[50, 51, 52, 53]), 9.0);
        }
        let changed = u.refresh(&mut db, &MatchConfig::default());
        assert_eq!(changed, 1);
        assert_eq!(db.get(site(0)), Some(&fp(&[50, 51, 52, 53])));
        assert_eq!(u.pending_for(site(0)), 0, "harvest consumed");
    }

    #[test]
    fn stable_environment_keeps_current_entry() {
        // Fresh samples agree with the stored entry: no churn.
        let mut u = DbUpdater::new(UpdaterConfig {
            min_samples: 3,
            ..Default::default()
        });
        let mut db = StopFingerprintDb::new();
        let stored = fp(&[1, 2, 3, 4, 5]);
        db.insert(site(0), stored.clone());
        // Noisy variants of the stored entry: each individually differs, but
        // the stored entry is the most mutually consistent candidate.
        u.record(site(0), fp(&[1, 2, 3, 4, 9]), 9.0);
        u.record(site(0), fp(&[1, 2, 3, 5, 4]), 9.0);
        u.record(site(0), fp(&[2, 1, 3, 4, 5]), 9.0);
        let changed = u.refresh(&mut db, &MatchConfig::default());
        assert_eq!(changed, 0, "stored entry wins the election");
        assert_eq!(db.get(site(0)), Some(&stored));
    }

    #[test]
    fn refresh_changes_returns_the_delta_without_applying() {
        let mut u = DbUpdater::new(UpdaterConfig {
            min_samples: 3,
            ..Default::default()
        });
        let mut db = StopFingerprintDb::new();
        db.insert(site(0), fp(&[1, 2, 3, 4]));
        for _ in 0..3 {
            u.record(site(0), fp(&[50, 51, 52, 53]), 9.0);
            u.record(site(9), fp(&[90, 91, 92]), 9.0);
        }
        let changes = u.refresh_changes(&db, &MatchConfig::default());
        assert_eq!(
            changes,
            vec![
                (site(0), fp(&[50, 51, 52, 53])),
                (site(9), fp(&[90, 91, 92])),
            ],
            "delta sorted by site"
        );
        assert_eq!(db.get(site(0)), Some(&fp(&[1, 2, 3, 4])), "db untouched");
        assert_eq!(u.pending_for(site(0)), 0, "harvest consumed");
    }

    #[test]
    fn sample_buffer_is_bounded() {
        let mut u = DbUpdater::new(UpdaterConfig {
            min_samples: 1000, // never refresh in this test
            max_samples: 5,
            ..Default::default()
        });
        for k in 0..20u32 {
            u.record(site(0), fp(&[k, k + 1]), 9.0);
        }
        assert_eq!(u.pending_for(site(0)), 5);
    }

    #[test]
    fn new_stop_can_be_learned_from_scratch() {
        // A stop with no database entry at all: enough harvested samples
        // create one (online bootstrap, the paper's "bus drivers install
        // our app to bootstrap the system").
        let mut u = DbUpdater::new(UpdaterConfig {
            min_samples: 3,
            ..Default::default()
        });
        let mut db = StopFingerprintDb::new();
        for _ in 0..3 {
            u.record(site(7), fp(&[70, 71, 72]), 9.0);
        }
        assert_eq!(u.refresh(&mut db, &MatchConfig::default()), 1);
        assert_eq!(db.get(site(7)), Some(&fp(&[70, 71, 72])));
    }
}
