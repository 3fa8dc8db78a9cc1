//! Equivalence suite for the trip-batched matcher: `match_trip` must be
//! *bit-identical* — same sites, same score bits, same `common_cells`,
//! same `None`s, in the same order — to the per-sample query (a
//! one-fingerprint pool) and to the brute-force scan, on random trips,
//! across configurations, past the distinct-fingerprint cap (a trip
//! answered in several pools), and through arbitrary `insert`/`remove`
//! maintenance sequences. The shared probe and the SoA candidate pool
//! are an optimization, never an approximation.

use busprobe_cellular::{CellTowerId, Fingerprint};
use busprobe_core::{MatchConfig, MatchResult, Matcher, StopFingerprintDb};
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

/// One trip: scans drawn from a small pool of distinct fingerprints so
/// repeats are common (a phone hears the same towers for minutes), with
/// the occasional stranger and empty scan mixed in.
fn arb_trip(max_len: usize) -> impl Strategy<Value = Vec<Fingerprint>> {
    proptest::collection::vec(arb_fp(9), 1..24).prop_flat_map(move |pool| {
        proptest::collection::vec(0usize..pool.len(), 0..max_len)
            .prop_map(move |picks| picks.iter().map(|&i| pool[i].clone()).collect())
    })
}

/// Asserts bit-level equality of two optional results (plain `==` would
/// accept `-0.0 == 0.0`; scores must not differ even in bits).
fn assert_bit_identical(batched: Option<MatchResult>, reference: Option<MatchResult>) {
    match (batched, reference) {
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
        (a, b) => panic!("presence differs: batched {a:?} vs reference {b:?}"),
    }
}

/// Runs one trip through all three paths and demands positional
/// bit-identity: batched ≡ indexed per sample ≡ brute per sample.
fn assert_trip_equivalent(matcher: &Matcher, trip: &[Fingerprint]) {
    let batched = matcher.match_trip(trip);
    assert_eq!(batched.len(), trip.len(), "one answer per scan");
    for (got, fp) in batched.into_iter().zip(trip) {
        assert_bit_identical(got, matcher.best_match_brute(fp));
        assert_bit_identical(matcher.best_match(fp), matcher.best_match_brute(fp));
    }
}

/// The acceptance thresholds the suite sweeps: the paper's γ = 2, a
/// permissive γ, a harsh one, and the degenerate γ ≤ 0 (where pruning
/// is unsound and the batch path must degrade to the per-sample scan).
const GAMMAS: [f64; 4] = [2.0, 0.7, 4.5, 0.0];

proptest! {
    #[test]
    fn prop_batched_matches_indexed_and_brute(
        db in arb_db(24),
        trip in arb_trip(40),
        gamma_pick in 0usize..GAMMAS.len(),
    ) {
        let config = MatchConfig {
            accept_threshold: GAMMAS[gamma_pick],
            ..MatchConfig::default()
        };
        let matcher = Matcher::new(db, config);
        assert_trip_equivalent(&matcher, &trip);
    }

    #[test]
    fn prop_batched_survives_index_maintenance(
        db in arb_db(16),
        ops in proptest::collection::vec((0u32..24, arb_fp(9), 0u8..4), 0..16),
        trip in arb_trip(16),
    ) {
        // Apply a random insert/replace/remove sequence to one live
        // matcher; after every step the batch path must agree with the
        // per-sample paths of a matcher rebuilt from scratch on the same
        // database — stale pool state or rank tables would show here.
        let config = MatchConfig::default();
        let mut live = Matcher::new(db.clone(), config);
        let mut shadow = db;
        for (site_raw, fp, op) in ops {
            let site = StopSiteId(site_raw);
            if op == 0 {
                live.remove(site);
                shadow.remove(site);
            } else {
                live.insert(site, fp.clone());
                shadow.insert(site, fp);
            }
            let rebuilt = Matcher::new(shadow.clone(), config);
            let batched = live.match_trip(&trip);
            for (got, fp) in batched.into_iter().zip(&trip) {
                assert_bit_identical(got, rebuilt.best_match(fp));
            }
        }
        assert_trip_equivalent(&live, &trip);
    }

    #[test]
    fn prop_long_trips_past_the_distinct_cap(
        db in arb_db(24),
        // Many distinct fingerprints (no pooling) so trips overflow the
        // distinct cap and are answered in several pools.
        trip in proptest::collection::vec(arb_fp(7), 0..200),
        gamma_pick in 0usize..GAMMAS.len(),
    ) {
        let config = MatchConfig {
            accept_threshold: GAMMAS[gamma_pick],
            ..MatchConfig::default()
        };
        let matcher = Matcher::new(db, config);
        assert_trip_equivalent(&matcher, &trip);
    }
}

#[test]
fn empty_trip_yields_empty_answers() {
    let matcher = Matcher::new(StopFingerprintDb::default(), MatchConfig::default());
    assert!(matcher.match_trip(&[]).is_empty());
}

#[test]
fn trip_sizes_one_through_two_hundred_stay_bit_identical() {
    // Deterministic sweep over every trip length 1..=200 against one
    // fixed database — covers the cap boundary (64 distinct) exactly,
    // with an LCG driving fingerprint reuse so dedup hits both sides.
    let fp = |ids: &[u32]| -> Fingerprint { ids.iter().map(|&i| CellTowerId(i)).collect() };
    let db: StopFingerprintDb = (0..24u32)
        .map(|k| {
            let base = k * 2 % CELL_UNIVERSE;
            (
                StopSiteId(k),
                fp(&[
                    base,
                    (base + 1) % CELL_UNIVERSE,
                    (base + 5) % CELL_UNIVERSE,
                    (base + 9) % CELL_UNIVERSE,
                ]),
            )
        })
        .collect();
    let matcher = Matcher::new(db, MatchConfig::default());
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rand = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as u32
    };
    for len in 1..=200usize {
        let trip: Vec<Fingerprint> = (0..len)
            .map(|_| {
                // ~1/3 repeats of a small motif pool, ~2/3 fresh draws:
                // long trips blow past the distinct cap while short ones
                // stay under it.
                if rand() % 3 == 0 {
                    let base = rand() % CELL_UNIVERSE;
                    fp(&[base, (base + 1) % CELL_UNIVERSE])
                } else {
                    let n = (rand() % 8) as usize;
                    (0..n)
                        .map(|_| CellTowerId(rand() % CELL_UNIVERSE))
                        .collect()
                }
            })
            .collect();
        assert_trip_equivalent(&matcher, &trip);
    }
}

#[test]
fn stored_fingerprints_match_themselves_through_the_batch() {
    // Every stored fingerprint, sent as one trip, must come back as its
    // own site through the batch path — self-similarity is maximal.
    let fp = |ids: &[u32]| -> Fingerprint { ids.iter().map(|&i| CellTowerId(i)).collect() };
    let db: StopFingerprintDb = [
        (StopSiteId(0), fp(&[1, 2, 3, 4])),
        (StopSiteId(1), fp(&[3, 4, 5, 6])),
        (StopSiteId(2), fp(&[7, 8, 9])),
    ]
    .into_iter()
    .collect();
    let matcher = Matcher::new(db.clone(), MatchConfig::default());
    let trip: Vec<Fingerprint> = db.iter().map(|(_, stored)| stored.clone()).collect();
    let sites: Vec<StopSiteId> = db.iter().map(|(site, _)| site).collect();
    for (got, site) in matcher.match_trip(&trip).into_iter().zip(sites) {
        assert_eq!(got.expect("self-match passes γ").site, site);
    }
}
