//! Per-sample fingerprint matching (§III-C1).
//!
//! "While the cell tower RSS values may vary, their rank always preserves.
//! Thus we use the modified Smith-Waterman algorithm which focuses on the
//! orders rather than the absolute RSS value to score the similarity of
//! different sets." The alignment compares the RSS-descending cell-ID
//! sequences; matches score +1, mismatches and gaps cost 0.3 (the value the
//! paper selected by sweeping 0.1–0.9).
//!
//! The [`Matcher`] answers per trip ([`match_trip`](Matcher::match_trip),
//! what the pipeline takes) and per sample
//! ([`best_match`](Matcher::best_match), a one-fingerprint trip) through
//! one scoring path and one tie-break comparator, so they cannot
//! diverge. Every indexed query — these two and the router's bound
//! probes — runs on a trip pool over the [`MatchIndex`], an inverted
//! cell-ID index with provable score-bound pruning that skips stops which
//! cannot reach the acceptance threshold. The exhaustive scan (exposed as
//! [`best_match_brute`](Matcher::best_match_brute), the oracle) takes over
//! whenever pruning is not sound (γ ≤ 0 accepts stops sharing zero
//! cells). Results are bit-identical between the two paths;
//! `crates/core/tests/` holds the property suite asserting it.

use crate::database::StopFingerprintDb;
use crate::fxhash::FxBuildHasher;
use crate::index::{MatchIndex, TripPool};
use crate::telemetry::MatcherMetrics;
use busprobe_cellular::{CellTowerId, Fingerprint};
use busprobe_network::StopSiteId;
use busprobe_telemetry::Stage;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Scoring parameters of the modified Smith–Waterman alignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchConfig {
    /// Reward for an aligned identical cell ID.
    pub match_score: f64,
    /// Penalty for aligning two different cell IDs.
    pub mismatch_penalty: f64,
    /// Penalty for skipping a cell ID on either side.
    pub gap_penalty: f64,
    /// Acceptance threshold γ: samples whose best score is below this are
    /// discarded as noise (§III-C1 sets γ = 2 from Fig. 2b/2c).
    pub accept_threshold: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            match_score: 1.0,
            mismatch_penalty: 0.3,
            gap_penalty: 0.3,
            accept_threshold: 2.0,
        }
    }
}

/// Reusable two-row DP scratch. The matcher's inner loop runs once per
/// (sample, candidate) pair; reusing rows removes two heap allocations
/// per alignment from the hottest path in the pipeline.
#[derive(Debug, Default)]
struct DpScratch {
    prev: Vec<f64>,
    cur: Vec<f64>,
}

/// Reusable per-thread scratch for every indexed query: the candidate
/// pool plus the per-level histogram that orders each sample's visit.
#[derive(Debug, Default)]
struct TripScratch {
    pool: TripPool,
    /// `counts[shared]` counts candidates sharing exactly `shared` cells
    /// with the loaded sample (levels ≥ the γ threshold only).
    counts: Vec<u32>,
}

thread_local! {
    static DP_SCRATCH: RefCell<DpScratch> = RefCell::new(DpScratch::default());
    static TRIP_SCRATCH: RefCell<TripScratch> = RefCell::new(TripScratch::default());
}

/// Smith–Waterman local-alignment similarity between two RSS-ordered cell
/// sequences. Symmetric, non-negative, and at most
/// `match_score · min(len_a, len_b)`.
///
/// # Examples
///
/// The worked example of Table I: uploading `1,2,3,4,5` against the stored
/// fingerprint `1,7,3,5` aligns 3 matches, 1 gap and 1 mismatch for
/// `3·1.0 − 0.3 − 0.3 = 2.4`.
///
/// ```
/// use busprobe_cellular::{CellTowerId, Fingerprint};
/// use busprobe_core::matching::{similarity, MatchConfig};
///
/// let fp = |ids: &[u32]| {
///     Fingerprint::new(ids.iter().map(|&i| CellTowerId(i)).collect()).unwrap()
/// };
/// let score = similarity(&fp(&[1, 2, 3, 4, 5]), &fp(&[1, 7, 3, 5]), &MatchConfig::default());
/// assert!((score - 2.4).abs() < 1e-9);
/// ```
#[must_use]
pub fn similarity(a: &Fingerprint, b: &Fingerprint, config: &MatchConfig) -> f64 {
    DP_SCRATCH
        .with(|scratch| similarity_cells(a.cells(), b.cells(), config, &mut scratch.borrow_mut()))
}

/// [`similarity`] over raw cell slices — the batch scorer aligns samples
/// against SoA arena slices that never materialize a `Fingerprint`. Same
/// DP, same operation order, bit-identical scores.
fn similarity_cells(
    xs: &[CellTowerId],
    ys: &[CellTowerId],
    config: &MatchConfig,
    s: &mut DpScratch,
) -> f64 {
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    // Two-row dynamic program; H[i][j] = best local alignment ending at
    // (i, j), floored at zero (local alignment restarts freely). The
    // boundary column H[i][0] is always 0, so `diag` and `left` carry as
    // scalars across the row and the zipped iteration elides every bounds
    // check; each f64 operation and its order are exactly the indexed
    // formulation's, keeping scores bit-stable.
    s.prev.clear();
    s.prev.resize(ys.len(), 0.0);
    s.cur.clear();
    s.cur.resize(ys.len(), 0.0);
    let mut prev = &mut s.prev;
    let mut cur = &mut s.cur;
    let mut best = 0.0f64;
    for &x in xs {
        let mut diag_h = 0.0f64; // H[i-1][j-1], seeded by the zero column
        let mut left_h = 0.0f64; // H[i][j-1]
        for (&y, (up_h, out)) in ys.iter().zip(prev.iter().zip(cur.iter_mut())) {
            let diag = diag_h
                + if x == y {
                    config.match_score
                } else {
                    -config.mismatch_penalty
                };
            let up = *up_h - config.gap_penalty;
            let left = left_h - config.gap_penalty;
            let h = diag.max(up).max(left).max(0.0);
            diag_h = *up_h;
            left_h = h;
            *out = h;
            if h > best {
                best = h;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// A successful match of one cellular sample to a bus stop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchResult {
    /// The matched logical bus stop.
    pub site: StopSiteId,
    /// Alignment similarity score.
    pub score: f64,
    /// Number of cell IDs the sample shares with the stored fingerprint
    /// (the paper's tie-breaker).
    pub common_cells: usize,
}

impl MatchResult {
    /// The canonical candidate priority — higher score first, then more
    /// common cells, then smaller site id — as a public comparator.
    /// Federation layers (the shard router) use it to pick one global
    /// winner across independently scored sub-databases bit-exactly:
    /// because the order is total and sites are unique, the winner is
    /// the same no matter how the candidate pool was split.
    #[must_use]
    pub fn rank_order(a: &MatchResult, b: &MatchResult) -> Ordering {
        rank(a, b)
    }
}

/// The full match deliberation for one scan, produced by
/// [`Matcher::explain`] for the decision-provenance trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchExplanation {
    /// Best candidate above the γ acceptance threshold, if any — what
    /// [`Matcher::best_match`] returns for this scan.
    pub winner: Option<MatchResult>,
    /// Second-best candidate above γ: the margin of the decision.
    pub runner_up: Option<MatchResult>,
    /// The highest-ranked candidate that *failed* γ (why an unmatched
    /// scan was discarded).
    pub best_rejected: Option<MatchResult>,
    /// Stops the inverted index would actually score for this scan.
    pub considered: usize,
    /// Stops the index eliminates without scoring (`db − considered`).
    pub pruned: usize,
}

/// The canonical candidate priority: higher score first, then more common
/// cells ("the one with a larger number of common cell IDs is selected"),
/// then smaller site id for determinism. `Less` ranks higher. Every
/// matcher path — brute-force or indexed, best-only or full pool — orders
/// results with this one comparator.
fn rank(a: &MatchResult, b: &MatchResult) -> Ordering {
    // total_cmp: alignment scores are finite by construction, but the
    // matcher sits on the hostile-upload path and must not panic.
    b.score
        .total_cmp(&a.score)
        .then(b.common_cells.cmp(&a.common_cells))
        .then(a.site.cmp(&b.site))
}

/// Most distinct fingerprints one trip pool answers; a trip with more
/// is answered in pools of this many, which bounds a pool's mask width
/// (the cap only matters for hostile uploads — beeps arrive a few
/// seconds apart, and a trip rarely carries more distinct scans).
pub(crate) const TRIP_DISTINCT_CAP: usize = 64;

/// Matches uploaded samples against a [`StopFingerprintDb`].
#[derive(Debug, Clone)]
pub struct Matcher {
    db: StopFingerprintDb,
    index: MatchIndex,
    config: MatchConfig,
    metrics: MatcherMetrics,
}

impl Matcher {
    /// Creates a matcher over `db`, building the inverted cell-ID index
    /// (timed as [`Stage::IndexBuild`]).
    #[must_use]
    pub fn new(db: StopFingerprintDb, config: MatchConfig) -> Self {
        let metrics = MatcherMetrics::new();
        let span = metrics.stages.start(Stage::IndexBuild);
        let index = MatchIndex::build(db.iter());
        span.finish();
        Matcher {
            db,
            index,
            config,
            metrics,
        }
    }

    /// The scoring configuration.
    #[must_use]
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The fingerprint database.
    #[must_use]
    pub fn db(&self) -> &StopFingerprintDb {
        &self.db
    }

    /// The inverted index.
    #[must_use]
    pub fn index(&self) -> &MatchIndex {
        &self.index
    }

    /// Whether queries will use the inverted index. Pruning is only sound
    /// when the threshold is positive: γ ≤ 0 accepts stops sharing zero
    /// cells with the sample, which no cell-driven index can enumerate.
    #[must_use]
    pub fn indexed(&self) -> bool {
        self.config.accept_threshold > 0.0
    }

    /// Stores (or replaces) the fingerprint of `site` in both the
    /// database and the index — the online database-update path.
    pub fn insert(&mut self, site: StopSiteId, fp: Fingerprint) -> Option<Fingerprint> {
        self.index.insert(site, &fp);
        self.db.insert(site, fp)
    }

    /// Removes `site` from both the database and the index.
    pub fn remove(&mut self, site: StopSiteId) -> Option<Fingerprint> {
        self.index.remove(site);
        self.db.remove(site)
    }

    /// The best-matching bus stop for `sample`, or `None` when every score
    /// falls below the acceptance threshold γ ("all cellular samples whose
    /// highest similarity score is lower than 2 are discarded").
    ///
    /// Ties on score are broken by the larger number of common cell IDs,
    /// then by smaller site id for determinism.
    ///
    /// Runs on a one-fingerprint trip pool: only stops sharing enough
    /// cells to possibly reach γ are aligned, visited in descending
    /// score-bound order with an early exit once no remaining bound can
    /// beat the current best. Bit-identical to
    /// [`best_match_brute`](Self::best_match_brute).
    #[must_use]
    pub fn best_match(&self, sample: &Fingerprint) -> Option<MatchResult> {
        if !self.indexed() {
            return self.best_match_brute(sample);
        }
        let (best, scored) = self.with_pool(&[sample], |scratch| {
            self.best_match_pooled(0, sample, scratch)
        });
        self.record_queries(1, scored);
        best
    }

    /// [`best_match`](Self::best_match) for every sample of one trip,
    /// sharing the index probe across the whole upload.
    ///
    /// Samples within a trip hear the same few stops, so the batch path
    /// probes the inverted index once per trip: distinct fingerprints are
    /// deduplicated (a repeat reuses the first occurrence's answer), one
    /// trip pool materializes the union of candidate posting lists
    /// with per-candidate shared-cell bitmasks and an SoA cell arena, and
    /// each distinct sample then scores its candidates by counting-sorted
    /// shared-count buckets in `(bound desc, site asc)` order with an
    /// early exit. Results are bit-identical to
    /// [`best_match_brute`](Self::best_match_brute) per sample;
    /// `crates/core/tests/batch_equivalence.rs` holds the property suite.
    ///
    /// A trip with more than 64 distinct fingerprints is answered in
    /// pools of 64.
    #[must_use]
    pub fn match_trip(&self, fps: &[Fingerprint]) -> Vec<Option<MatchResult>> {
        if !self.indexed() {
            // Pruning is unsound at γ ≤ 0: scan the database per sample.
            return fps.iter().map(|fp| self.best_match_brute(fp)).collect();
        }

        // Deduplicate on the exact cell sequence: `occ[i]` is sample i's
        // distinct-fingerprint id.
        let mut distinct: Vec<&Fingerprint> = Vec::new();
        let mut ids: HashMap<&[CellTowerId], u32, FxBuildHasher> =
            HashMap::with_capacity_and_hasher(fps.len(), FxBuildHasher::default());
        let occ: Vec<u32> = fps
            .iter()
            .map(|fp| {
                *ids.entry(fp.cells()).or_insert_with(|| {
                    distinct.push(fp);
                    u32::try_from(distinct.len() - 1).expect("fewer than 2^32 scans")
                })
            })
            .collect();

        let mut answers: Vec<Option<MatchResult>> = Vec::with_capacity(distinct.len());
        let mut scored = 0;
        for chunk in distinct.chunks(TRIP_DISTINCT_CAP) {
            self.with_pool(chunk, |scratch| {
                for (k, fp) in chunk.iter().enumerate() {
                    let (best, n) = self.best_match_pooled(k, fp, scratch);
                    answers.push(best);
                    scored += n;
                }
            });
        }
        self.record_queries(distinct.len(), scored);
        occ.iter().map(|&o| answers[o as usize]).collect()
    }

    /// Runs `query` on this thread's trip scratch, its pool built for
    /// `fps`. Nothing a query calls borrows the scratch again.
    fn with_pool<R>(&self, fps: &[&Fingerprint], query: impl FnOnce(&mut TripScratch) -> R) -> R {
        TRIP_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            self.index.probe_trip(fps, &mut scratch.pool);
            query(scratch)
        })
    }

    /// Loads pool fingerprint `k` (`sample`) and histograms the pool's
    /// candidates by shared count into `counts`. Returns the levels a
    /// visit walks, `min_shared..=top`: from the fewest shared cells
    /// whose bound reaches γ to the most any candidate has — empty when
    /// no candidate can reach γ.
    fn levels(
        &self,
        k: usize,
        sample: &Fingerprint,
        scratch: &mut TripScratch,
    ) -> RangeInclusive<usize> {
        scratch.pool.load_fingerprint(k);
        // The γ filter `score_bound(shared) >= γ` is monotone in the
        // shared count, so it collapses to one integer threshold.
        let mut min_shared = 1usize;
        while min_shared <= sample.len()
            && MatchIndex::score_bound(min_shared, self.config.match_score)
                < self.config.accept_threshold
        {
            min_shared += 1;
        }
        // Histogram levels: shared counts never exceed the sample length.
        scratch.counts.clear();
        scratch.counts.resize(sample.len() + 1, 0);
        let top = if min_shared > sample.len() {
            0 // γ unreachable for this sample: no candidate can pass
        } else {
            scratch.pool.fill_shared(min_shared, &mut scratch.counts)
        };
        min_shared..=top
    }

    /// [`best_match`](Self::best_match) against the trip pool: shared
    /// counts come from mask popcounts, candidates visit level by level
    /// (shared desc; pool position — i.e. site — ascending within a
    /// level), and alignments run over the SoA arena slices. Also returns
    /// how many candidates it aligned.
    fn best_match_pooled(
        &self,
        k: usize,
        sample: &Fingerprint,
        scratch: &mut TripScratch,
    ) -> (Option<MatchResult>, usize) {
        let levels = self.levels(k, sample, scratch);
        let TripScratch { pool, counts } = scratch;
        let mut best: Option<MatchResult> = None;
        let mut scored = 0usize;
        DP_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            'visit: for shared in levels.rev() {
                let mut remaining = counts[shared];
                if remaining == 0 {
                    continue;
                }
                let bound = MatchIndex::score_bound(shared, self.config.match_score);
                for p in 0..pool.candidate_count() {
                    if pool.shared_of(p) as usize != shared {
                        continue;
                    }
                    if let Some(b) = &best {
                        // No remaining candidate can reach the current
                        // best score (bounds are visited in descending
                        // order), and an exact score tie is impossible
                        // below the bound — stop aligning.
                        if bound < b.score {
                            break 'visit;
                        }
                    }
                    scored += 1;
                    let score =
                        similarity_cells(sample.cells(), pool.candidate_cells(p), &self.config, s);
                    if score >= self.config.accept_threshold {
                        let candidate = MatchResult {
                            site: pool.site(p),
                            score,
                            common_cells: shared,
                        };
                        let better = match &best {
                            None => true,
                            Some(b) => rank(&candidate, b) == Ordering::Less,
                        };
                        if better {
                            best = Some(candidate);
                        }
                    }
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        });
        (best, scored)
    }

    /// Reference implementation of [`best_match`](Self::best_match): a
    /// full scan of the database. Kept public as the oracle of the
    /// equivalence tests.
    #[must_use]
    pub fn best_match_brute(&self, sample: &Fingerprint) -> Option<MatchResult> {
        // min_by(rank): rank is a total order and sites are unique, so
        // the minimum (highest-priority) element is unique.
        self.db
            .iter()
            .filter_map(|(site, stored)| {
                let score = similarity(sample, stored, &self.config);
                (score >= self.config.accept_threshold).then(|| MatchResult {
                    site,
                    score,
                    common_cells: sample.common_cells(stored),
                })
            })
            .min_by(rank)
    }

    /// Number of stops that survive the index's score-bound filter for
    /// `sample` — the alignments an indexed query would run at most.
    /// Exposed for the bench harness to time the index bookkeeping
    /// (candidate counting + ordering) separately from alignment.
    #[must_use]
    pub fn probe_candidates(&self, sample: &Fingerprint) -> usize {
        self.with_pool(&[sample], |scratch| {
            let levels = self.levels(0, sample, scratch);
            levels.map(|shared| scratch.counts[shared] as usize).sum()
        })
    }

    /// The best score any stored stop could reach against `sample` —
    /// the largest index bound, without running an alignment.
    /// `None` when no stop shares a cell with the sample. The shard
    /// router probes this per region to route an upload toward the
    /// shard whose database can score it highest; it is an upper bound
    /// on [`best_match`](Self::best_match)'s score, so a shard whose
    /// bound loses to another shard's *achieved* score can be skipped
    /// without changing any outcome.
    ///
    /// Falls back to the achieved best score when the index is
    /// disabled (γ ≤ 0), keeping the probe meaningful — just not O(1).
    #[must_use]
    pub fn best_candidate_bound(&self, sample: &Fingerprint) -> Option<f64> {
        if !self.indexed() {
            return self.best_match_brute(sample).map(|m| m.score);
        }
        self.with_pool(&[sample], |scratch| {
            let levels = self.levels(0, sample, scratch);
            (!levels.is_empty())
                .then(|| MatchIndex::score_bound(*levels.end(), self.config.match_score))
        })
    }

    /// Whether [`best_candidate_bound`](Self::best_candidate_bound)
    /// could be `Some` for `sample`, answered without walking a posting
    /// list: no stop shares more cells with the sample than the sample
    /// has cells known to the index, so when even that count's score
    /// bound misses γ, every candidate's does. `false` is a proof;
    /// `true` promises nothing (and is all a disabled index, γ ≤ 0, can
    /// say). The shard router asks this of every region before racing
    /// bounds among those that remain.
    #[must_use]
    pub fn may_match(&self, sample: &Fingerprint) -> bool {
        !self.indexed()
            || MatchIndex::score_bound(self.index.known_cells(sample), self.config.match_score)
                >= self.config.accept_threshold
    }

    /// The full deliberation for one scan — what the tracing layer
    /// records. A γ-free exhaustive scan: the winner and the runner-up
    /// it beat (the decision margin), the best candidate γ *rejected*
    /// (why an unmatched scan lost), and how much of the database the
    /// inverted index would have pruned without scoring.
    ///
    /// Diagnostic-path only (never called by ingest when tracing is
    /// off); touches no telemetry counters, so a traced run's metrics
    /// equal an untraced run's.
    #[must_use]
    pub fn explain(&self, sample: &Fingerprint) -> MatchExplanation {
        let mut above: Vec<MatchResult> = Vec::new();
        let mut best_rejected: Option<MatchResult> = None;
        for (site, stored) in self.db.iter() {
            let candidate = MatchResult {
                site,
                score: similarity(sample, stored, &self.config),
                common_cells: sample.common_cells(stored),
            };
            if candidate.score >= self.config.accept_threshold {
                above.push(candidate);
            } else {
                let better = match &best_rejected {
                    None => true,
                    Some(b) => rank(&candidate, b) == Ordering::Less,
                };
                if better {
                    best_rejected = Some(candidate);
                }
            }
        }
        above.sort_by(rank);
        let considered = if self.indexed() {
            self.probe_candidates(sample)
        } else {
            self.db.len()
        };
        MatchExplanation {
            winner: above.first().copied(),
            runner_up: above.get(1).copied(),
            best_rejected,
            considered,
            pruned: self.db.len().saturating_sub(considered),
        }
    }

    /// Folds the counters of `queries` indexed queries that aligned
    /// `scored` candidates in all into telemetry, once per call: a query
    /// prunes every stop it does not align.
    fn record_queries(&self, queries: usize, scored: usize) {
        self.metrics.candidates_scored.add(scored as u64);
        self.metrics
            .candidates_pruned
            .add((queries * self.db.len()).saturating_sub(scored) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busprobe_cellular::CellTowerId;
    use proptest::prelude::*;

    fn fp(ids: &[u32]) -> Fingerprint {
        Fingerprint::new(ids.iter().map(|&i| CellTowerId(i)).collect()).unwrap()
    }

    fn config() -> MatchConfig {
        MatchConfig::default()
    }

    #[test]
    fn table_i_worked_example() {
        // Table I: c_upload = 1,2,3,4,5 vs c_database = 1,7,3,5 scores 2.4
        // (3 matches, 1 gap, 1 mismatch).
        let score = similarity(&fp(&[1, 2, 3, 4, 5]), &fp(&[1, 7, 3, 5]), &config());
        assert!((score - 2.4).abs() < 1e-9, "got {score}");
    }

    #[test]
    fn identical_sets_score_their_length() {
        let a = fp(&[4, 8, 15, 16, 23]);
        assert_eq!(similarity(&a, &a, &config()), 5.0);
    }

    #[test]
    fn disjoint_sets_score_zero() {
        let score = similarity(&fp(&[1, 2, 3]), &fp(&[4, 5, 6]), &config());
        assert_eq!(score, 0.0);
    }

    #[test]
    fn empty_fingerprint_scores_zero() {
        let empty = Fingerprint::new(vec![]).unwrap();
        assert_eq!(similarity(&empty, &fp(&[1, 2]), &config()), 0.0);
        assert_eq!(similarity(&fp(&[1, 2]), &empty, &config()), 0.0);
    }

    #[test]
    fn rank_swap_costs_less_than_membership_change() {
        let base = fp(&[1, 2, 3, 4, 5]);
        let swapped = fp(&[2, 1, 3, 4, 5]); // adjacent rank swap
        let replaced = fp(&[9, 8, 3, 4, 5]); // two towers replaced
        let s_swap = similarity(&base, &swapped, &config());
        let s_repl = similarity(&base, &replaced, &config());
        assert!(s_swap > s_repl, "swap {s_swap} vs replace {s_repl}");
        // A single adjacent swap still aligns 4 of 5 in order.
        assert!(s_swap >= 4.0 - 0.4);
    }

    #[test]
    fn best_match_picks_highest_score() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2, 3, 4, 5]));
        db.insert(StopSiteId(1), fp(&[1, 2, 9, 8, 7]));
        let matcher = Matcher::new(db, config());
        let hit = matcher.best_match(&fp(&[1, 2, 3, 4, 6])).unwrap();
        assert_eq!(hit.site, StopSiteId(0));
        assert_eq!(hit.common_cells, 4);
    }

    #[test]
    fn below_threshold_is_discarded() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 9, 10, 11]));
        let matcher = Matcher::new(db, config());
        // Only one common cell → score 1.0 < γ = 2.
        assert!(matcher.best_match(&fp(&[1, 2, 3, 4])).is_none());
    }

    #[test]
    fn tie_broken_by_common_cells() {
        // Both stops align only the run 1,2 for score 2.0. The second stop
        // additionally shares cell 31, but in *crossing* order (before the
        // run in the database, after it in the sample), so the alignment
        // cannot use it — only the common-cell tie-breaker sees it.
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2, 40, 41]));
        db.insert(StopSiteId(1), fp(&[31, 1, 2, 50]));
        let matcher = Matcher::new(db, config());
        let sample = fp(&[1, 2, 31]);
        let explained = matcher.explain(&sample);
        let (first, second) = (explained.winner.unwrap(), explained.runner_up.unwrap());
        assert!(
            (first.score - second.score).abs() < 1e-12,
            "scores tie at 2.0"
        );
        let hit = matcher.best_match(&sample).unwrap();
        assert_eq!(hit.site, StopSiteId(1), "more common cells wins the tie");
        assert_eq!(hit.common_cells, 3);
    }

    #[test]
    fn paper_fig3_style_fingerprints_are_distinct() {
        // Neighbouring stops from Fig. 3 share some towers but never score
        // as high as a self-match.
        let s1 = fp(&[2103, 3486, 3893, 22, 65]);
        let s2 = fp(&[65, 3353, 22, 2103]);
        let self_score = similarity(&s1, &s1, &config());
        let cross = similarity(&s1, &s2, &config());
        assert!(self_score >= 5.0 - 1e-9);
        assert!(cross < self_score / 2.0);
    }

    #[test]
    fn indexed_and_brute_agree_on_a_small_db() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2, 3, 4, 5]));
        db.insert(StopSiteId(1), fp(&[1, 2, 9, 8, 7]));
        db.insert(StopSiteId(2), fp(&[31, 1, 2, 50]));
        db.insert(StopSiteId(3), fp(&[60, 61, 62]));
        let matcher = Matcher::new(db, config());
        for sample in [
            fp(&[1, 2, 3, 4, 6]),
            fp(&[1, 2, 31]),
            fp(&[60, 61]),
            fp(&[99, 98]),
            fp(&[]),
        ] {
            assert_eq!(
                matcher.best_match(&sample),
                matcher.best_match_brute(&sample)
            );
        }
    }

    #[test]
    fn non_positive_threshold_falls_back_to_the_scan() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2]));
        db.insert(StopSiteId(1), fp(&[8, 9]));
        let cfg = MatchConfig {
            accept_threshold: 0.0,
            ..config()
        };
        let matcher = Matcher::new(db, cfg);
        assert!(!matcher.indexed(), "γ ≤ 0 cannot be index-pruned");
        // Every stop passes γ = 0, even with zero shared cells.
        let far = fp(&[8, 9, 7]);
        let hit = matcher.best_match(&far).unwrap();
        assert_eq!(Some(hit), matcher.best_match_brute(&far));
        assert_eq!(matcher.match_trip(&[far]), vec![Some(hit)]);
        let zero_shared = matcher.best_match(&fp(&[5, 6])).unwrap();
        assert_eq!(zero_shared.common_cells, 0, "accepted on score 0 alone");
    }

    #[test]
    fn insert_and_remove_keep_queries_exact() {
        let mut matcher = Matcher::new(StopFingerprintDb::new(), config());
        assert!(matcher.best_match(&fp(&[1, 2, 3])).is_none());
        matcher.insert(StopSiteId(4), fp(&[1, 2, 3, 9]));
        assert_eq!(
            matcher.best_match(&fp(&[1, 2, 3])).unwrap().site,
            StopSiteId(4)
        );
        // Replace the entry: the stale postings must not resurrect it.
        matcher.insert(StopSiteId(4), fp(&[50, 51, 52]));
        assert!(matcher.best_match(&fp(&[1, 2, 3])).is_none());
        assert_eq!(
            matcher.best_match(&fp(&[50, 51])).unwrap().site,
            StopSiteId(4)
        );
        let removed = matcher.remove(StopSiteId(4));
        assert_eq!(removed, Some(fp(&[50, 51, 52])));
        assert!(matcher.best_match(&fp(&[50, 51])).is_none());
    }

    #[test]
    fn match_trip_equals_per_sample_brute() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2, 3, 4, 5]));
        db.insert(StopSiteId(1), fp(&[1, 2, 9, 8, 7]));
        db.insert(StopSiteId(2), fp(&[31, 1, 2, 50]));
        db.insert(StopSiteId(3), fp(&[60, 61, 62]));
        let matcher = Matcher::new(db, config());
        let trip = vec![
            fp(&[1, 2, 3, 4, 6]),
            fp(&[1, 2, 31]),
            fp(&[1, 2, 3, 4, 6]), // repeat: dedup answers it
            fp(&[60, 61]),
            fp(&[99, 98]), // unmatched
            fp(&[]),       // empty scan
            fp(&[1, 2, 31]),
        ];
        let batch = matcher.match_trip(&trip);
        let serial: Vec<_> = trip.iter().map(|f| matcher.best_match_brute(f)).collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn match_trip_past_the_dedup_cap_still_answers() {
        let mut db = StopFingerprintDb::new();
        for k in 0..100u32 {
            db.insert(StopSiteId(k), fp(&[k, k + 1000, k + 2000]));
        }
        let matcher = Matcher::new(db, config());
        // More distinct fingerprints than TRIP_DISTINCT_CAP, plus a
        // repeat of an over-cap fingerprint.
        let mut trip: Vec<Fingerprint> = (0..80u32).map(|k| fp(&[k, k + 1000, k + 2000])).collect();
        trip.push(fp(&[79, 1079, 2079]));
        let batch = matcher.match_trip(&trip);
        let serial: Vec<_> = trip.iter().map(|f| matcher.best_match_brute(f)).collect();
        assert_eq!(batch, serial);
        assert_eq!(batch[79].unwrap().site, StopSiteId(79));
    }

    #[test]
    fn match_trip_unindexed_falls_back_to_the_scan() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2]));
        db.insert(StopSiteId(1), fp(&[8, 9]));
        let cfg = MatchConfig {
            accept_threshold: 0.0,
            ..config()
        };
        let matcher = Matcher::new(db, cfg);
        let trip = vec![fp(&[1, 2]), fp(&[8, 9]), fp(&[1, 2])];
        let batch = matcher.match_trip(&trip);
        let serial: Vec<_> = trip.iter().map(|f| matcher.best_match_brute(f)).collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn explain_agrees_with_best_match_and_reports_the_margin() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2, 3, 4]));
        db.insert(StopSiteId(1), fp(&[1, 2, 3, 9]));
        db.insert(StopSiteId(2), fp(&[50, 51, 52]));
        let matcher = Matcher::new(db, config());
        let sample = fp(&[1, 2, 3, 4]);
        let explanation = matcher.explain(&sample);
        assert_eq!(explanation.winner, matcher.best_match(&sample));
        let runner_up = explanation.runner_up.expect("two candidates pass γ");
        assert_eq!(runner_up.site, StopSiteId(1));
        assert_eq!(
            explanation.considered + explanation.pruned,
            3,
            "accounting covers the whole database"
        );
        // A hopeless scan explains what it rejected.
        let miss = matcher.explain(&fp(&[50]));
        assert!(miss.winner.is_none());
        let rejected = miss.best_rejected.expect("the near miss is reported");
        assert_eq!(rejected.site, StopSiteId(2));
    }

    fn arb_fp(max_len: usize) -> impl Strategy<Value = Fingerprint> {
        proptest::collection::vec(0u32..30, 0..max_len).prop_map(|ids| {
            let mut seen = std::collections::HashSet::new();
            let cells: Vec<CellTowerId> = ids
                .into_iter()
                .filter(|c| seen.insert(*c))
                .map(CellTowerId)
                .collect();
            Fingerprint::new(cells).unwrap()
        })
    }

    proptest! {
        #[test]
        fn prop_similarity_symmetric(a in arb_fp(10), b in arb_fp(10)) {
            let c = config();
            // The DP transposes exactly (max is exact, the cell scores are
            // symmetric), so symmetry holds bit-for-bit — which is what
            // lets build_from_samples reuse the upper triangle.
            prop_assert_eq!(
                similarity(&a, &b, &c).to_bits(),
                similarity(&b, &a, &c).to_bits()
            );
        }

        #[test]
        fn prop_similarity_bounded(a in arb_fp(10), b in arb_fp(10)) {
            let c = config();
            let s = similarity(&a, &b, &c);
            prop_assert!(s >= 0.0);
            prop_assert!(s <= c.match_score * a.len().min(b.len()) as f64 + 1e-9);
        }

        #[test]
        fn prop_self_similarity_is_maximal(a in arb_fp(10), b in arb_fp(10)) {
            let c = config();
            prop_assert!(similarity(&a, &b, &c) <= similarity(&a, &a, &c) + 1e-9);
        }

        #[test]
        fn prop_score_bounded_by_shared_cells(a in arb_fp(10), b in arb_fp(10)) {
            // The pruning invariant: score ≤ match_score · common_cells
            // (within the index's slop). This is what makes skipping
            // low-overlap stops provably exact.
            let c = config();
            let s = similarity(&a, &b, &c);
            let bound = crate::index::MatchIndex::score_bound(a.common_cells(&b), c.match_score);
            prop_assert!(s <= bound, "score {s} exceeds bound {bound}");
        }

        /// The routing pre-filter's lemma, under index churn: the cells
        /// of a sample the index knows bound what it shares with any one
        /// stop, so `may_match == false` proves there is no candidate
        /// bound — also after removals left cells interned with empty
        /// posting lists, which must not count as known.
        #[test]
        fn prop_may_match_false_proves_no_bound(
            stored in proptest::collection::vec(arb_fp(10), 1..8),
            removed in proptest::collection::vec(0usize..8, 0..4),
            sample in arb_fp(10),
            gamma in 0.5f64..4.0,
        ) {
            let mut m = Matcher::new(
                StopFingerprintDb::new(),
                MatchConfig { accept_threshold: gamma, ..config() },
            );
            for (k, fp) in stored.iter().enumerate() {
                m.insert(StopSiteId(k as u32), fp.clone());
            }
            for k in removed {
                m.remove(StopSiteId(k as u32));
            }
            let known = m.index().known_cells(&sample);
            for (_, fp) in m.db().iter() {
                prop_assert!(sample.common_cells(fp) <= known);
            }
            let live: std::collections::HashSet<CellTowerId> =
                m.db().iter().flat_map(|(_, fp)| fp.cells().iter().copied()).collect();
            prop_assert_eq!(
                known,
                sample.cells().iter().filter(|c| live.contains(c)).count(),
                "a cell is known exactly while some stored stop contains it"
            );
            if !m.may_match(&sample) {
                prop_assert_eq!(m.best_candidate_bound(&sample), None);
            }
        }
    }

    #[test]
    fn may_match_is_vacuous_without_the_index() {
        let mut db = StopFingerprintDb::new();
        db.insert(StopSiteId(0), fp(&[1, 2, 3]));
        let m = Matcher::new(
            db,
            MatchConfig {
                accept_threshold: 0.0,
                ..config()
            },
        );
        // γ ≤ 0 accepts stops sharing nothing, which no cell count rules out.
        assert!(m.may_match(&fp(&[90, 91])));
        assert!(m.best_candidate_bound(&fp(&[90, 91])).is_some());
    }
}
