//! Derived lookup tables of a [`TransitNetwork`](crate::TransitNetwork):
//! the per-pair segment chains and the `follows` relation, laid out flat
//! so their size is O(served pairs) at any city size and a lookup touches
//! a couple of cache lines.
//!
//! Both are pure functions of serialised fields (`routes`, `segments`,
//! `successors`), are never serialised themselves and are rebuilt lazily
//! after deserialisation.

use crate::ids::{SegmentKey, StopSiteId};
use crate::network::Segment;
use crate::route::BusRoute;
use std::collections::{BTreeMap, BTreeSet};

/// The chain of one served ordered site pair.
#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    /// Destination site (the origin is the run this entry sits in).
    to: StopSiteId,
    /// Where the chain starts in [`ChainTable::hop_keys`].
    first_hop: u32,
    /// Number of elementary segments in the chain.
    hops: u32,
    /// Whether every hop has a segment registry entry (always, unless
    /// the network came off the wire inconsistent).
    complete: bool,
    /// Total length, summed hop by hop in chain order from 0.0.
    length_m: f64,
    /// Total free-flow travel time, summed the same way.
    free_time_s: f64,
}

/// One looked-up chain, borrowed from its [`ChainTable`].
pub(crate) struct Chain<'a> {
    /// The elementary segments, in travel order.
    pub(crate) keys: &'a [SegmentKey],
    /// `(length_m, free travel time_s)` over `keys`; `None` when a hop
    /// has no segment entry.
    pub(crate) totals: Option<(f64, f64)>,
}

/// Every served ordered site pair's segment chain, as one CSR table.
#[derive(Debug, Clone)]
pub(crate) struct ChainTable {
    /// `entries[starts[a]..starts[a + 1]]` are the pairs leaving site `a`.
    starts: Vec<u32>,
    /// One entry per served pair, destination-ascending within a run.
    entries: Vec<ChainEntry>,
    /// The consecutive-stop keys of every route, routes concatenated in
    /// id order. A chain is a sub-slice of one route's run.
    hop_keys: Vec<SegmentKey>,
}

impl ChainTable {
    /// Builds the table. Of the routes visiting `a` then `b` the one
    /// with the fewest hops wins, the lowest route id among equals, and
    /// a site a route visits twice counts at its first occurrence only —
    /// the selection a scan of the routes in id order makes when it
    /// replaces a chain only by a strictly shorter one.
    pub(crate) fn build(routes: &[BusRoute], segments: &BTreeMap<SegmentKey, Segment>) -> Self {
        let mut hop_keys: Vec<SegmentKey> = Vec::new();
        // `(length_m, free travel time_s)` per hop, looked up once here
        // rather than once per chain crossing the hop.
        let mut hop_stats: Vec<Option<(f64, f64)>> = Vec::new();
        // `(from, to, hops, first_hop)`: sorting puts each pair's winner
        // first, since a lower route id means a lower `first_hop` and a
        // route offers each pair at most once.
        let mut candidates: Vec<(StopSiteId, StopSiteId, u32, u32)> = Vec::new();
        let mut order: Vec<(StopSiteId, usize)> = Vec::new();
        for route in routes {
            let stops = route.stops();
            let base = hop_keys.len();
            for key in route.segment_keys() {
                hop_keys.push(key);
                hop_stats.push(
                    segments
                        .get(&key)
                        .map(|seg| (seg.length_m, seg.free_travel_time_s())),
                );
            }
            // First occurrence of each site, in stop order.
            order.clear();
            for (i, rs) in stops.iter().enumerate() {
                if !order.iter().any(|&(s, _)| s == rs.site) {
                    order.push((rs.site, i));
                }
            }
            for (x, &(a, ia)) in order.iter().enumerate() {
                for &(b, ib) in &order[x + 1..] {
                    candidates.push((a, b, (ib - ia) as u32, (base + ia) as u32));
                }
            }
        }
        // Checked before any candidate is read: the `as u32`s above
        // are all below this count.
        assert!(
            u32::try_from(hop_keys.len()).is_ok(),
            "fewer than 2^32 route hops"
        );
        candidates.sort_unstable();
        candidates.dedup_by_key(|c| (c.0, c.1));
        assert!(
            u32::try_from(candidates.len()).is_ok(),
            "fewer than 2^32 served pairs"
        );

        let sites = candidates.last().map_or(0, |c| c.0.index() + 1);
        let mut starts = vec![0u32; sites + 1];
        let mut entries = Vec::with_capacity(candidates.len());
        for &(from, to, hops, first_hop) in &candidates {
            // Totals accumulate in chain order from 0.0, matching a
            // per-field `.sum()` over the chain bit for bit (differences
            // of per-route prefix sums would not).
            let mut length_m = 0.0f64;
            let mut free_time_s = 0.0f64;
            let mut complete = true;
            for stats in &hop_stats[first_hop as usize..][..hops as usize] {
                let Some((hop_m, hop_s)) = stats else {
                    complete = false;
                    break;
                };
                length_m += hop_m;
                free_time_s += hop_s;
            }
            starts[from.index() + 1] += 1;
            entries.push(ChainEntry {
                to,
                first_hop,
                hops,
                complete,
                length_m,
                free_time_s,
            });
        }
        for a in 0..sites {
            starts[a + 1] += starts[a];
        }
        ChainTable {
            starts,
            entries,
            hop_keys,
        }
    }

    /// The chain from `a` to `b`, if one route visits `a` then `b`.
    pub(crate) fn get(&self, a: StopSiteId, b: StopSiteId) -> Option<Chain<'_>> {
        let lo = *self.starts.get(a.index())? as usize;
        let hi = *self.starts.get(a.index() + 1)? as usize;
        let run = &self.entries[lo..hi];
        let entry = &run[run.binary_search_by_key(&b, |e| e.to).ok()?];
        Some(Chain {
            keys: &self.hop_keys[entry.first_hop as usize..][..entry.hops as usize],
            totals: entry
                .complete
                .then_some((entry.length_m, entry.free_time_s)),
        })
    }

    /// Heap bytes held, for the size-per-pair test.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.starts) + size_of_val(&*self.entries) + size_of_val(&*self.hop_keys)
    }

    /// Number of served ordered pairs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One row of [`FollowsBits`]: the band of words spanning a site's
/// successors.
#[derive(Debug, Clone, Copy)]
struct Band {
    /// Index (`site id / 64`) of the band's first word.
    first_word: u32,
    /// Where the band starts in [`FollowsBits::words`].
    offset: u32,
    /// Words in the band.
    len: u32,
}

/// The `follows` relation as a banded bitmap: per site, only the words
/// between its lowest and highest successor. Routes are local, so a band
/// is a few words wide however many sites the city has.
#[derive(Debug, Clone)]
pub(crate) struct FollowsBits {
    bands: Vec<Band>,
    words: Vec<u64>,
}

impl FollowsBits {
    /// Builds the bitmap from the per-site successor sets.
    pub(crate) fn build(successors: &[BTreeSet<StopSiteId>]) -> Self {
        let mut bands = Vec::with_capacity(successors.len());
        let mut words: Vec<u64> = Vec::new();
        for succ in successors {
            let offset = u32::try_from(words.len()).expect("fewer than 2^32 bitmap words");
            // No successors: an empty band, which contains nothing.
            let first_word = succ.first().map_or(0, |lo| lo.0 / 64);
            let len = succ.last().map_or(0, |hi| hi.0 / 64 - first_word + 1);
            words.resize(words.len() + len as usize, 0);
            for y in succ {
                words[(offset + y.0 / 64 - first_word) as usize] |= 1u64 << (y.0 % 64);
            }
            bands.push(Band {
                first_word,
                offset,
                len,
            });
        }
        FollowsBits { bands, words }
    }

    /// Whether `b` is a successor of `a`.
    pub(crate) fn contains(&self, a: StopSiteId, b: StopSiteId) -> bool {
        let Some(band) = self.bands.get(a.index()) else {
            return false;
        };
        // A word below the band wraps to a huge index and fails the test.
        let word = (b.0 / 64).wrapping_sub(band.first_word);
        word < band.len && self.words[(band.offset + word) as usize] >> (b.0 % 64) & 1 == 1
    }

    /// Heap bytes held, for the size-per-site test.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.bands) + std::mem::size_of_val(&*self.words)
    }
}
