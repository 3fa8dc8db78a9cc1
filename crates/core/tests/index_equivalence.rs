//! Equivalence suite: the indexed matcher must be *bit-identical* to the
//! brute-force scan — same sites, same score bits, same `common_cells`,
//! same `None`s, in the same order — on random corpora, across
//! configurations, and through arbitrary `insert`/`remove` maintenance
//! sequences. Pruning is an optimization, never an approximation.

use busprobe_cellular::{CellTowerId, Fingerprint};
use busprobe_core::{MatchConfig, MatchIndex, MatchResult, Matcher, StopFingerprintDb};
use busprobe_network::StopSiteId;
use proptest::prelude::*;

/// Cell universe small enough to force heavy posting-list overlap.
const CELL_UNIVERSE: u32 = 48;

fn arb_fp(max_len: usize) -> impl Strategy<Value = Fingerprint> {
    proptest::collection::vec(0u32..CELL_UNIVERSE, 0..max_len)
        .prop_map(|ids| ids.into_iter().map(CellTowerId).collect())
}

fn arb_db(max_stops: usize) -> impl Strategy<Value = StopFingerprintDb> {
    proptest::collection::vec(arb_fp(9), 0..max_stops).prop_map(|fps| {
        fps.into_iter()
            .enumerate()
            .map(|(k, fp)| (StopSiteId(k as u32), fp))
            .collect()
    })
}

/// Samples drawn from the same universe: mostly partial overlaps, some
/// total strangers, some empty.
fn arb_samples(count: usize) -> impl Strategy<Value = Vec<Fingerprint>> {
    proptest::collection::vec(arb_fp(9), 0..count)
}

/// Asserts bit-level equality of two optional results (plain `==` would
/// accept `-0.0 == 0.0`; scores must not differ even in bits).
fn assert_bit_identical(indexed: Option<MatchResult>, brute: Option<MatchResult>) {
    match (indexed, brute) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.site, b.site);
            assert_eq!(a.common_cells, b.common_cells);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "score bits differ: {} vs {}",
                a.score,
                b.score
            );
        }
        (a, b) => panic!("presence differs: indexed {a:?} vs brute {b:?}"),
    }
}

/// Runs the indexed query against the brute-force oracle for every sample.
fn assert_matcher_equivalent(matcher: &Matcher, samples: &[Fingerprint]) {
    for sample in samples {
        assert_bit_identical(matcher.best_match(sample), matcher.best_match_brute(sample));
    }
}

/// The acceptance thresholds the suite sweeps: the paper's γ = 2, a
/// permissive γ, a harsh one, and the degenerate γ ≤ 0 (index-off
/// fallback).
const GAMMAS: [f64; 4] = [2.0, 0.7, 4.5, 0.0];

/// How many of [`GAMMAS`] leave the index on (all but the trailing 0):
/// the bound probes answer from the index only there.
const INDEXED_GAMMAS: usize = 3;

/// Applies a random insert/replace/remove sequence to `matcher`, calling
/// `check` before the first step and after every one.
fn churn(matcher: &mut Matcher, ops: Vec<(u32, Fingerprint, u8)>, check: impl Fn(&Matcher)) {
    check(matcher);
    for (site_raw, fp, op) in ops {
        let site = StopSiteId(site_raw);
        if op == 0 {
            matcher.remove(site);
        } else {
            matcher.insert(site, fp);
        }
        check(matcher);
    }
}

/// The brute oracle of the bound probes: per stored stop, the score
/// bound of the cells it shares with `sample`, kept when it reaches γ.
fn brute_bounds(matcher: &Matcher, sample: &Fingerprint) -> Vec<f64> {
    let config = matcher.config();
    matcher
        .db()
        .iter()
        .map(|(_, stored)| MatchIndex::score_bound(sample.common_cells(stored), config.match_score))
        .filter(|&bound| bound >= config.accept_threshold)
        .collect()
}

proptest! {
    #[test]
    fn prop_indexed_matches_brute_force(
        db in arb_db(24),
        samples in arb_samples(12),
        gamma_pick in 0usize..GAMMAS.len(),
    ) {
        let config = MatchConfig {
            accept_threshold: GAMMAS[gamma_pick],
            ..MatchConfig::default()
        };
        let matcher = Matcher::new(db, config);
        assert_matcher_equivalent(&matcher, &samples);
    }

    #[test]
    fn prop_maintained_index_matches_rebuilt_brute_force(
        db in arb_db(16),
        ops in proptest::collection::vec((0u32..24, arb_fp(9), 0u8..4), 0..24),
        samples in arb_samples(8),
    ) {
        // Apply a random insert/replace/remove sequence to one live
        // matcher; after every step its incrementally-maintained index
        // must agree with a matcher rebuilt from scratch on the same
        // database — and with its own brute-force scan.
        let config = MatchConfig::default();
        let mut live = Matcher::new(db.clone(), config);
        let mut shadow = db;
        for (site_raw, fp, op) in ops {
            let site = StopSiteId(site_raw);
            if op == 0 {
                let removed_live = live.remove(site);
                let removed_shadow = shadow.remove(site);
                prop_assert_eq!(removed_live, removed_shadow);
            } else {
                let prev_live = live.insert(site, fp.clone());
                let prev_shadow = shadow.insert(site, fp);
                prop_assert_eq!(prev_live, prev_shadow);
            }
            let rebuilt = Matcher::new(shadow.clone(), config);
            for sample in &samples {
                assert_bit_identical(live.best_match(sample), rebuilt.best_match(sample));
                assert_bit_identical(live.best_match(sample), live.best_match_brute(sample));
            }
        }
        assert_matcher_equivalent(&live, &samples);
    }

    #[test]
    fn prop_trip_dedup_never_changes_answers(
        db in arb_db(20),
        samples in proptest::collection::vec(arb_fp(6), 0..20),
    ) {
        // Tight cell range + short fingerprints → plenty of repeats, so
        // the batch scorer's repeated-fingerprint path is genuinely
        // exercised.
        let matcher = Matcher::new(db, MatchConfig::default());
        for (got, sample) in matcher.match_trip(&samples).into_iter().zip(&samples) {
            assert_bit_identical(got, matcher.best_match_brute(sample));
        }
    }
}

proptest! {
    #[test]
    fn prop_probe_candidates_counts_the_brute_bound_filter_under_churn(
        db in arb_db(16),
        ops in proptest::collection::vec((0u32..24, arb_fp(9), 0u8..4), 0..16),
        samples in arb_samples(8),
        gamma_pick in 0usize..INDEXED_GAMMAS,
    ) {
        let config = MatchConfig {
            accept_threshold: GAMMAS[gamma_pick],
            ..MatchConfig::default()
        };
        churn(&mut Matcher::new(db, config), ops, |matcher| {
            for sample in &samples {
                assert_eq!(
                    matcher.probe_candidates(sample),
                    brute_bounds(matcher, sample).len(),
                    "{sample:?}"
                );
            }
        });
    }

    #[test]
    fn prop_best_candidate_bound_is_the_brute_maximum_under_churn(
        db in arb_db(16),
        ops in proptest::collection::vec((0u32..24, arb_fp(9), 0u8..4), 0..16),
        samples in arb_samples(8),
        gamma_pick in 0usize..INDEXED_GAMMAS,
    ) {
        let config = MatchConfig {
            accept_threshold: GAMMAS[gamma_pick],
            ..MatchConfig::default()
        };
        churn(&mut Matcher::new(db, config), ops, |matcher| {
            for sample in &samples {
                let brute = brute_bounds(matcher, sample).into_iter().reduce(f64::max);
                assert_eq!(
                    matcher.best_candidate_bound(sample).map(f64::to_bits),
                    brute.map(f64::to_bits),
                    "{sample:?}"
                );
            }
        });
    }
}

#[test]
fn stored_fingerprints_match_themselves_through_the_index() {
    // Every stored fingerprint queried verbatim must come back as its own
    // site (self-similarity is maximal and the tie-breaks favour more
    // common cells; distinct stops with identical fingerprints tie by
    // site id) — through both paths.
    let fp = |ids: &[u32]| -> Fingerprint { ids.iter().map(|&i| CellTowerId(i)).collect() };
    let db: StopFingerprintDb = [
        (StopSiteId(0), fp(&[1, 2, 3, 4])),
        (StopSiteId(1), fp(&[3, 4, 5, 6])),
        (StopSiteId(2), fp(&[7, 8, 9])),
    ]
    .into_iter()
    .collect();
    let matcher = Matcher::new(db.clone(), MatchConfig::default());
    for (site, stored) in db.iter() {
        let hit = matcher.best_match(stored).expect("self-match passes γ");
        assert_eq!(hit.site, site);
        assert_bit_identical(Some(hit), matcher.best_match_brute(stored));
    }
}
