//! Inverted cell-ID index over the stop-fingerprint database.
//!
//! The brute-force matcher aligns every uploaded sample against *every*
//! stored fingerprint — O(stops · |fp|²) per sample. City-scale databases
//! make that the pipeline's wall. [`MatchIndex`] makes matching sub-linear
//! without changing a single result:
//!
//! * **Interning.** Every [`CellTowerId`] seen in a stored fingerprint is
//!   interned to a dense `u32`, and each interned cell keeps a posting
//!   list of the stop slots whose fingerprint contains it.
//! * **Candidate counting.** A trip's cells are looked up in the
//!   interner; one walk over their posting lists builds a `TripPool`
//!   whose per-candidate bitmasks count, per stop, exactly
//!   `common_cells(sample, stored)` — the paper's tie-breaker, obtained
//!   here for free, before any alignment runs.
//! * **Score-bound pruning.** A modified Smith–Waterman score only ever
//!   gains from aligned *identical* cells (+`match_score` each); gaps and
//!   mismatches cost. Hence `score ≤ match_score · common_cells`. Stops
//!   whose bound falls below the acceptance threshold γ are *provably*
//!   rejected without alignment, and visiting candidates in descending
//!   bound order lets the caller stop as soon as the bound drops below
//!   its current best score.
//!
//! The index is maintained online: [`insert`](MatchIndex::insert) and
//! [`remove`](MatchIndex::remove) keep the posting lists exact while the
//! paper's database-update path promotes fresh fingerprints. Slots of
//! removed stops are recycled; the interner only grows (a cell that once
//! existed costs one empty posting list — negligible against re-keying).

use crate::fxhash::FxBuildHasher;
use busprobe_cellular::{CellTowerId, Fingerprint};
use busprobe_network::StopSiteId;
use std::collections::HashMap;

/// Relative slop applied to the pruning bound so that floating-point
/// rounding in the DP (sums of `match_score`) can never make the bound
/// fall *below* an achievable score. Pruning stays provable: the padded
/// bound is an upper bound on any computed alignment score.
const BOUND_SLOP: f64 = 1e-12;

/// One indexed stop: its site and the stored fingerprint.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    site: StopSiteId,
    fp: Fingerprint,
}

/// Per-trip candidate pool shared by every scan in one upload.
///
/// Samples within a trip hear the same few stops, so instead of probing
/// the interner and walking posting lists once per sample, the batch
/// scorer probes once per *trip*: [`MatchIndex::probe_trip`] ranks the
/// trip's distinct indexed cells, unions the posting lists into one
/// site-ascending candidate pool, flattens every candidate fingerprint
/// into a contiguous SoA cell arena, and precomputes per-candidate
/// shared-cell bitmasks over the ranked cells. Per-sample
/// `common_cells` then collapses to a handful of `popcnt`s (fingerprints
/// are duplicate-free, so the popcount equals `common_cells` exactly).
/// A single scan is a one-fingerprint pool.
///
/// The pool is plain reusable scratch: buffers grow to the trip's
/// high-water mark and are reset by index walks, never by full clears of
/// the slot-sized arrays.
#[derive(Debug, Default)]
pub(crate) struct TripPool {
    /// Bit rank + 1 per interned cell (`0` = not in this trip).
    rank_of_cell: Vec<u32>,
    /// Interned ids holding a non-zero entry in `rank_of_cell`.
    ranked_cells: Vec<u32>,
    /// Per trip fingerprint, `(start, len)` into `fp_bits`.
    fp_spans: Vec<(u32, u32)>,
    /// Flattened per-fingerprint bit ranks (one per indexed cell).
    fp_bits: Vec<u32>,
    /// Mask words per candidate (⌈ranked cells / 64⌉).
    words: usize,
    /// Scratch mask of the currently loaded fingerprint.
    fp_mask: Vec<u64>,
    /// Pool position per slot; `u32::MAX` = not in this trip's pool.
    pool_of_slot: Vec<u32>,
    /// Candidate slots in pool (site-ascending) order.
    slots: Vec<u32>,
    /// Sort scratch: `(site << 32) | slot` keys.
    packed: Vec<u64>,
    /// Mask rows in discovery order, permuted into `masks` after the
    /// site sort (lets one posting walk build both pool and masks).
    disc_masks: Vec<u64>,
    /// Candidate sites in pool order.
    sites: Vec<StopSiteId>,
    /// Candidate fingerprint `(start, len)` spans into `cells`.
    spans: Vec<(u32, u32)>,
    /// SoA arena: every candidate fingerprint's cells, flattened.
    cells: Vec<CellTowerId>,
    /// Candidate shared-cell masks, `words` per candidate.
    masks: Vec<u64>,
    /// Shared count per candidate against the loaded fingerprint.
    shared_of: Vec<u32>,
}

impl TripPool {
    /// Restores the zeroed/unset invariants and sizes the dense arrays.
    fn reset(&mut self, interned: usize, slots: usize) {
        for &ci in &self.ranked_cells {
            self.rank_of_cell[ci as usize] = 0;
        }
        self.ranked_cells.clear();
        for &slot in &self.slots {
            self.pool_of_slot[slot as usize] = u32::MAX;
        }
        self.slots.clear();
        if self.rank_of_cell.len() < interned {
            self.rank_of_cell.resize(interned, 0);
        }
        if self.pool_of_slot.len() < slots {
            self.pool_of_slot.resize(slots, u32::MAX);
        }
        self.fp_spans.clear();
        self.fp_bits.clear();
        self.sites.clear();
        self.spans.clear();
        self.cells.clear();
        self.masks.clear();
        self.packed.clear();
        self.disc_masks.clear();
        self.shared_of.clear();
    }

    /// Number of candidate stops in the pool.
    pub(crate) fn candidate_count(&self) -> usize {
        self.sites.len()
    }

    /// Site of pool candidate `p`.
    pub(crate) fn site(&self, p: usize) -> StopSiteId {
        self.sites[p]
    }

    /// Stored-fingerprint cells of pool candidate `p` (arena slice).
    pub(crate) fn candidate_cells(&self, p: usize) -> &[CellTowerId] {
        let (start, len) = self.spans[p];
        &self.cells[start as usize..(start + len) as usize]
    }

    /// Loads trip fingerprint `k`'s shared-cell mask into the scratch
    /// register for [`shared_with_loaded`](Self::shared_with_loaded).
    pub(crate) fn load_fingerprint(&mut self, k: usize) {
        self.fp_mask.clear();
        self.fp_mask.resize(self.words, 0);
        let (start, len) = self.fp_spans[k];
        for &bit in &self.fp_bits[start as usize..(start + len) as usize] {
            self.fp_mask[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Exact `common_cells` between the loaded fingerprint and candidate
    /// `p` — cells outside the index cannot be shared with any candidate.
    pub(crate) fn shared_with_loaded(&self, p: usize) -> u32 {
        let mask = &self.masks[p * self.words..(p + 1) * self.words];
        mask.iter()
            .zip(&self.fp_mask)
            .map(|(m, f)| (m & f).count_ones())
            .sum()
    }

    /// Counting-scan of the pool against the loaded fingerprint: fills
    /// `shared_of` per candidate and a per-level histogram in `counts`
    /// (touched only for `shared >= min_shared`, the γ filter collapsed
    /// to an integer threshold). Returns the highest counted level
    /// (0 = none). The visit loop then walks levels high→low and pool
    /// positions ascending within a level — candidates stay in
    /// site-ascending order without materializing bucket lists. A trip's
    /// distinct cells almost always fit one mask word; that case runs
    /// without the word loop or its bounds checks.
    pub(crate) fn fill_shared(&mut self, min_shared: usize, counts: &mut [u32]) -> usize {
        self.shared_of.clear();
        let mut top = 0usize;
        if self.words == 1 {
            let fpm = self.fp_mask[0];
            for &m in &self.masks {
                let shared = (m & fpm).count_ones();
                self.shared_of.push(shared);
                if shared as usize >= min_shared {
                    counts[shared as usize] += 1;
                    if shared as usize > top {
                        top = shared as usize;
                    }
                }
            }
        } else if self.words > 1 {
            for p in 0..self.sites.len() {
                let shared = self.shared_with_loaded(p);
                self.shared_of.push(shared);
                if shared as usize >= min_shared {
                    counts[shared as usize] += 1;
                    if shared as usize > top {
                        top = shared as usize;
                    }
                }
            }
        }
        top
    }

    /// Shared count of pool candidate `p` from the last
    /// [`fill_shared`](Self::fill_shared).
    pub(crate) fn shared_of(&self, p: usize) -> u32 {
        self.shared_of[p]
    }
}

/// Inverted cell→stop index with exact score-bound pruning.
#[derive(Debug, Clone, Default)]
pub struct MatchIndex {
    /// Interner: cell ID → dense index into `postings`.
    cell_ids: HashMap<CellTowerId, u32, FxBuildHasher>,
    /// Per interned cell, the slots whose fingerprint contains it.
    postings: Vec<Vec<u32>>,
    /// Slot-addressed entries; `None` marks a recycled slot.
    entries: Vec<Option<Entry>>,
    /// Site → slot, for O(1) maintenance.
    by_site: HashMap<StopSiteId, u32>,
    /// Recycled slots available for reuse.
    free: Vec<u32>,
}

impl MatchIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        MatchIndex::default()
    }

    /// Builds the index over `entries`.
    pub fn build<'a, I: IntoIterator<Item = (StopSiteId, &'a Fingerprint)>>(entries: I) -> Self {
        let mut index = MatchIndex::new();
        for (site, fp) in entries {
            index.insert(site, fp);
        }
        index
    }

    /// Number of indexed stops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_site.len()
    }

    /// Whether the index holds no stops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_site.is_empty()
    }

    /// Number of distinct cell IDs ever interned.
    #[must_use]
    pub fn interned_cells(&self) -> usize {
        self.cell_ids.len()
    }

    /// Indexes (or re-indexes) the fingerprint of `site`.
    pub fn insert(&mut self, site: StopSiteId, fp: &Fingerprint) {
        self.remove(site);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            u32::try_from(self.entries.len() - 1).expect("fewer than 2^32 stops")
        });
        for &cell in fp.cells() {
            let next = u32::try_from(self.cell_ids.len()).expect("fewer than 2^32 cells");
            let ci = *self.cell_ids.entry(cell).or_insert(next);
            if ci as usize == self.postings.len() {
                self.postings.push(Vec::new());
            }
            self.postings[ci as usize].push(slot);
        }
        self.entries[slot as usize] = Some(Entry {
            site,
            fp: fp.clone(),
        });
        self.by_site.insert(site, slot);
    }

    /// Drops `site` from the index. Returns whether it was present.
    pub fn remove(&mut self, site: StopSiteId) -> bool {
        let Some(slot) = self.by_site.remove(&site) else {
            return false;
        };
        // invariant: `by_site` only maps to occupied slots.
        let entry = self.entries[slot as usize].take().expect("occupied slot");
        for &cell in entry.fp.cells() {
            if let Some(&ci) = self.cell_ids.get(&cell) {
                let posting = &mut self.postings[ci as usize];
                if let Some(pos) = posting.iter().position(|&s| s == slot) {
                    posting.swap_remove(pos);
                }
            }
        }
        self.free.push(slot);
        true
    }

    /// The provable score upper bound for a candidate sharing
    /// `shared_cells` cell IDs with the sample.
    #[must_use]
    pub fn score_bound(shared_cells: usize, match_score: f64) -> f64 {
        match_score * shared_cells as f64 * (1.0 + BOUND_SLOP)
    }

    /// How many of `sample`'s cells some indexed stop currently contains
    /// — an upper bound on `sample.common_cells(stored)` for every stored
    /// fingerprint, from interner lookups alone. A cell counts by its
    /// posting list, not its interned id: the interner only grows, so a
    /// cell whose last stop was removed is interned but shared with
    /// nobody.
    #[must_use]
    pub fn known_cells(&self, sample: &Fingerprint) -> usize {
        sample
            .cells()
            .iter()
            .filter(|cell| {
                self.cell_ids
                    .get(cell)
                    .is_some_and(|&ci| !self.postings[ci as usize].is_empty())
            })
            .count()
    }

    /// Builds the per-trip candidate pool for `fps` (the trip's distinct
    /// fingerprints) into `pool`: one interner lookup per cell instance,
    /// two posting walks total, instead of a full probe per sample.
    ///
    /// Pool order is site-ascending, so a bucket walk in descending
    /// shared count visits candidates in `(bound desc, site asc)` order.
    pub(crate) fn probe_trip(&self, fps: &[&Fingerprint], pool: &mut TripPool) {
        pool.reset(self.postings.len(), self.entries.len());

        // Pass 1: rank the trip's distinct indexed cells and record each
        // fingerprint's bit list. Cells the interner has never seen are
        // excluded outright — no stored fingerprint contains them, so
        // they cannot contribute to any candidate's shared count.
        let mut bits = 0u32;
        for fp in fps {
            let start = u32::try_from(pool.fp_bits.len()).expect("trip bits fit in u32");
            for &cell in fp.cells() {
                let Some(&ci) = self.cell_ids.get(&cell) else {
                    continue;
                };
                let rank = &mut pool.rank_of_cell[ci as usize];
                if *rank == 0 {
                    bits += 1;
                    *rank = bits;
                    pool.ranked_cells.push(ci);
                }
                pool.fp_bits.push(*rank - 1);
            }
            let len = u32::try_from(pool.fp_bits.len()).expect("trip bits fit in u32") - start;
            pool.fp_spans.push((start, len));
        }
        pool.words = (bits as usize).div_ceil(64);

        // Pass 2: one posting walk both unions the ranked cells' posting
        // lists into the pool and ORs each candidate's shared-cell bits
        // into a discovery-ordered mask row.
        for &ci in &pool.ranked_cells {
            let bit = pool.rank_of_cell[ci as usize] - 1;
            let (word, shift) = ((bit / 64) as usize, bit % 64);
            for &slot in &self.postings[ci as usize] {
                let mut d = pool.pool_of_slot[slot as usize] as usize;
                if d == u32::MAX as usize {
                    d = pool.slots.len();
                    pool.pool_of_slot[slot as usize] = u32::try_from(d).expect("pool fits in u32");
                    pool.slots.push(slot);
                    pool.disc_masks
                        .resize(pool.disc_masks.len() + pool.words, 0);
                }
                pool.disc_masks[d * pool.words + word] |= 1u64 << shift;
            }
        }
        // Sort by site with one entry lookup per slot (packed keys), not
        // one per comparison.
        for &slot in &pool.slots {
            // invariant: postings only reference occupied slots.
            let site = self.entries[slot as usize]
                .as_ref()
                .expect("posted slot occupied")
                .site;
            pool.packed
                .push((u64::from(site.0) << 32) | u64::from(slot));
        }
        pool.packed.sort_unstable();
        pool.slots.clear();
        for p in 0..pool.packed.len() {
            let slot = (pool.packed[p] & 0xFFFF_FFFF) as u32;
            pool.slots.push(slot);
            let d = pool.pool_of_slot[slot as usize] as usize;
            pool.masks
                .extend_from_slice(&pool.disc_masks[d * pool.words..(d + 1) * pool.words]);
            pool.pool_of_slot[slot as usize] = u32::try_from(p).expect("pool fits in u32");
            let entry = self.entries[slot as usize]
                .as_ref()
                .expect("posted slot occupied");
            let start = u32::try_from(pool.cells.len()).expect("arena fits in u32");
            pool.cells.extend_from_slice(entry.fp.cells());
            pool.spans.push((
                start,
                u32::try_from(entry.fp.len()).expect("fp fits in u32"),
            ));
            pool.sites.push(entry.site);
        }
        pool.packed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(ids: &[u32]) -> Fingerprint {
        Fingerprint::new(ids.iter().map(|&i| CellTowerId(i)).collect()).unwrap()
    }

    /// Every candidate of a one-fingerprint pool whose bound (at
    /// `match_score` 1) reaches `threshold`, as `(site, shared)` in the
    /// order the matcher visits them: levels from the top, site
    /// ascending within a level.
    fn collect(
        index: &MatchIndex,
        sample: &Fingerprint,
        threshold: f64,
    ) -> Vec<(StopSiteId, usize)> {
        let mut pool = TripPool::default();
        index.probe_trip(&[sample], &mut pool);
        pool.load_fingerprint(0);
        let min_shared = (1..)
            .find(|&shared| MatchIndex::score_bound(shared, 1.0) >= threshold)
            .unwrap();
        let mut counts = vec![0u32; sample.len() + 1];
        let top = pool.fill_shared(min_shared, &mut counts);
        let mut out = Vec::new();
        for shared in (min_shared..=top).rev() {
            for p in 0..pool.candidate_count() {
                if pool.shared_of(p) as usize == shared {
                    out.push((pool.site(p), shared));
                }
            }
        }
        let counted: u32 = counts.iter().sum();
        assert_eq!(
            out.len(),
            counted as usize,
            "the histogram counts every visit"
        );
        out
    }

    #[test]
    fn counts_shared_cells_exactly() {
        let mut index = MatchIndex::new();
        index.insert(StopSiteId(0), &fp(&[1, 2, 3, 4]));
        index.insert(StopSiteId(1), &fp(&[3, 4, 5]));
        index.insert(StopSiteId(2), &fp(&[9, 10]));
        let sample = fp(&[2, 3, 4]);
        let hits = collect(&index, &sample, 2.0);
        assert_eq!(hits, vec![(StopSiteId(0), 3), (StopSiteId(1), 2)]);
    }

    #[test]
    fn bound_filter_drops_hopeless_stops() {
        let mut index = MatchIndex::new();
        index.insert(StopSiteId(0), &fp(&[1, 7, 8]));
        // One shared cell bounds the score at 1.0 < γ = 2.
        assert!(collect(&index, &fp(&[1, 2, 3]), 2.0).is_empty());
        // γ = 1 keeps it.
        assert_eq!(collect(&index, &fp(&[1, 2, 3]), 1.0).len(), 1);
    }

    #[test]
    fn visit_order_is_bound_descending_site_ascending() {
        let mut index = MatchIndex::new();
        index.insert(StopSiteId(5), &fp(&[1, 2]));
        index.insert(StopSiteId(3), &fp(&[1, 2, 9]));
        index.insert(StopSiteId(4), &fp(&[1, 2, 8]));
        let hits = collect(&index, &fp(&[1, 2]), 0.5);
        let sites: Vec<u32> = hits.iter().map(|(s, _)| s.0).collect();
        assert_eq!(sites, vec![3, 4, 5], "ties break by ascending site id");
    }

    #[test]
    fn early_exit_stops_the_visit() {
        // Ten stops tie on one level: a visitor that stops after three
        // has seen the three smallest sites, and the level still counts
        // all ten.
        let mut index = MatchIndex::new();
        for k in 0..10u32 {
            index.insert(StopSiteId(k), &fp(&[1, 2, 100 + k]));
        }
        let hits = collect(&index, &fp(&[1, 2]), 1.0);
        assert_eq!(hits.len(), 10, "all candidates passed the bound filter");
        let first: Vec<u32> = hits.iter().take(3).map(|(s, _)| s.0).collect();
        assert_eq!(first, vec![0, 1, 2]);
    }

    #[test]
    fn remove_and_reinsert_recycle_slots() {
        let mut index = MatchIndex::new();
        index.insert(StopSiteId(0), &fp(&[1, 2]));
        index.insert(StopSiteId(1), &fp(&[2, 3]));
        assert_eq!(index.len(), 2);
        assert!(index.remove(StopSiteId(0)));
        assert!(!index.remove(StopSiteId(0)), "already gone");
        assert_eq!(index.len(), 1);
        assert!(collect(&index, &fp(&[1, 2]), 1.0)
            .iter()
            .all(|(s, _)| *s != StopSiteId(0)));

        // Reinsertion reuses the freed slot and the stale posting is gone.
        index.insert(StopSiteId(7), &fp(&[1, 9]));
        assert_eq!(index.entries.iter().flatten().count(), 2, "slot recycled");
        let hits = collect(&index, &fp(&[1]), 1.0);
        assert_eq!(hits, vec![(StopSiteId(7), 1)]);
    }

    #[test]
    fn reindexing_a_site_replaces_its_postings() {
        let mut index = MatchIndex::new();
        index.insert(StopSiteId(0), &fp(&[1, 2, 3]));
        index.insert(StopSiteId(0), &fp(&[7, 8]));
        assert_eq!(index.len(), 1);
        assert!(collect(&index, &fp(&[1, 2, 3]), 1.0).is_empty());
        assert_eq!(collect(&index, &fp(&[7]), 1.0).len(), 1);
    }

    #[test]
    fn empty_sample_and_empty_index_are_harmless() {
        let index = MatchIndex::new();
        assert!(collect(&index, &fp(&[1, 2]), 1.0).is_empty());
        let mut index = MatchIndex::new();
        index.insert(StopSiteId(0), &fp(&[1]));
        assert!(collect(&index, &Fingerprint::new(vec![]).unwrap(), 1.0).is_empty());
    }

    #[test]
    fn score_bound_dominates_match_count() {
        // The bound must never under-estimate k additions of match_score.
        for &mc in &[1.0f64, 0.3, 0.7, 1.7] {
            for k in 0..64usize {
                let mut acc = 0.0f64;
                for _ in 0..k {
                    acc += mc;
                }
                assert!(
                    MatchIndex::score_bound(k, mc) >= acc,
                    "bound({k}, {mc}) < summed score"
                );
            }
        }
    }
}
