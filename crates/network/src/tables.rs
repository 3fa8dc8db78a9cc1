//! Derived lookup tables of a [`TransitNetwork`](crate::TransitNetwork):
//! a per-site route-visit index that answers segment chains on demand,
//! and the `follows` relation as a banded bitmap. Both are flat — the
//! index is O(route stops), the bitmap a few words per site — and a
//! lookup touches a couple of cache lines.
//!
//! Both are pure functions of the routes (and the segment registry built
//! from them), are never serialised and are built on first use.

use crate::ids::{SegmentKey, StopSiteId};
use crate::network::Segment;
use crate::route::BusRoute;
use std::collections::BTreeMap;

/// One route's first visit to a site.
#[derive(Debug, Clone, Copy)]
struct Visit {
    /// The visiting route's id.
    route: u32,
    /// The visit's position in [`ChainIndex::hop_keys`]: the route's
    /// base plus the site's first stop index on the route, so the hops
    /// from this visit to a later one on the same route are
    /// `hop_keys[from.hop..to.hop]`.
    hop: u32,
}

/// One looked-up chain, borrowed from its [`ChainIndex`].
pub(crate) struct Chain<'a> {
    /// The elementary segments, in travel order.
    pub(crate) keys: &'a [SegmentKey],
    /// `(length_m, free travel time_s)` per key.
    stats: &'a [(f64, f64)],
}

impl Chain<'_> {
    /// `(length_m, free travel time_s)` over the chain, summed hop by
    /// hop in chain order from 0.0 — bit for bit a per-field `.sum()`
    /// over the chain's segments (differences of per-route prefix sums
    /// would not be).
    pub(crate) fn totals(&self) -> (f64, f64) {
        let mut length_m = 0.0f64;
        let mut free_time_s = 0.0f64;
        for &(hop_m, hop_s) in self.stats {
            length_m += hop_m;
            free_time_s += hop_s;
        }
        (length_m, free_time_s)
    }
}

/// Every route's visits, per site, and every route's hops, from which
/// the chain of any ordered site pair is merged on demand.
#[derive(Debug, Clone)]
pub(crate) struct ChainIndex {
    /// `visits[starts[s]..starts[s + 1]]` are the routes visiting site
    /// `s`, route-ascending.
    starts: Vec<u32>,
    /// One entry per (site, route visiting it), at the site's first
    /// occurrence on the route.
    visits: Vec<Visit>,
    /// The consecutive-stop keys of every route, routes concatenated in
    /// id order. A chain is a sub-slice of one route's run.
    hop_keys: Vec<SegmentKey>,
    /// `(length_m, free travel time_s)` per entry of `hop_keys`, looked
    /// up once per route hop rather than once per query.
    hop_stats: Vec<(f64, f64)>,
}

impl ChainIndex {
    /// Builds the index over `sites` sites in one pass over the route
    /// stops, plus a counting sort of the visits by site. `segments` is
    /// the registry of these routes, so it holds every hop.
    pub(crate) fn build(
        sites: usize,
        routes: &[BusRoute],
        segments: &BTreeMap<SegmentKey, Segment>,
    ) -> Self {
        let mut hop_keys: Vec<SegmentKey> = Vec::new();
        let mut hop_stats: Vec<(f64, f64)> = Vec::new();
        // `(site, visit)` in route order, first occurrences only.
        let mut firsts: Vec<(u32, Visit)> = Vec::new();
        // The last route that visited each site, so a second visit by
        // the same route is recognised in O(1).
        let mut last_route = vec![u32::MAX; sites];
        for (r, route) in routes.iter().enumerate() {
            let r = u32::try_from(r).expect("fewer than 2^32 routes");
            let base = hop_keys.len();
            for (i, rs) in route.stops().iter().enumerate() {
                let seen = &mut last_route[rs.site.index()];
                if *seen != r {
                    *seen = r;
                    let hop = u32::try_from(base + i).expect("fewer than 2^32 route hops");
                    firsts.push((rs.site.0, Visit { route: r, hop }));
                }
            }
            for key in route.segment_keys() {
                hop_keys.push(key);
                let seg = &segments[&key];
                hop_stats.push((seg.length_m, seg.free_travel_time_s()));
            }
        }

        let mut starts = vec![0u32; sites + 1];
        for &(site, _) in &firsts {
            starts[site as usize + 1] += 1;
        }
        for s in 0..sites {
            starts[s + 1] += starts[s];
        }
        // Placing in route order keeps every run route-ascending.
        let mut next = starts.clone();
        let mut visits = vec![Visit { route: 0, hop: 0 }; firsts.len()];
        for &(site, visit) in &firsts {
            visits[next[site as usize] as usize] = visit;
            next[site as usize] += 1;
        }
        ChainIndex {
            starts,
            visits,
            hop_keys,
            hop_stats,
        }
    }

    /// The routes visiting `site`, route-ascending; `None` past the end.
    fn visits(&self, site: StopSiteId) -> Option<&[Visit]> {
        let lo = *self.starts.get(site.index())? as usize;
        let hi = *self.starts.get(site.index() + 1)? as usize;
        Some(&self.visits[lo..hi])
    }

    /// The chain from `a` to `b`, if one route visits `a` then `b`. Of
    /// the routes whose first visit to `a` precedes their first visit
    /// to `b`, the one with the fewest hops wins, the lowest route id
    /// among equals — what a scan of the routes in id order selects
    /// when it replaces a chain only by a strictly shorter one.
    pub(crate) fn get(&self, a: StopSiteId, b: StopSiteId) -> Option<Chain<'_>> {
        let (from, to) = (self.visits(a)?, self.visits(b)?);
        // `(first hop, hops)` of the best chain so far.
        let mut best: Option<(u32, u32)> = None;
        let (mut i, mut j) = (0, 0);
        while i < from.len() && j < to.len() {
            let (va, vb) = (from[i], to[j]);
            if va.route < vb.route {
                i += 1;
            } else if va.route > vb.route {
                j += 1;
            } else {
                if va.hop < vb.hop && best.is_none_or(|(_, hops)| vb.hop - va.hop < hops) {
                    best = Some((va.hop, vb.hop - va.hop));
                }
                i += 1;
                j += 1;
            }
        }
        let (first, hops) = best?;
        let range = first as usize..(first + hops) as usize;
        Some(Chain {
            keys: &self.hop_keys[range.clone()],
            stats: &self.hop_stats[range],
        })
    }

    /// Heap bytes held, for the size-per-stop test.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.starts)
            + size_of_val(&*self.visits)
            + size_of_val(&*self.hop_keys)
            + size_of_val(&*self.hop_stats)
    }
}

/// One row of [`FollowsBits`]: the band of words spanning the sites that
/// follow a site.
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
/// between the lowest and highest site that follows it. Routes are local,
/// so a band is a few words wide however many sites the city has.
#[derive(Debug, Clone)]
pub(crate) struct FollowsBits {
    bands: Vec<Band>,
    words: Vec<u64>,
}

impl FollowsBits {
    /// Builds the bitmap over `sites` sites from every route's stop pairs
    /// `i < j`: `b` follows `a` iff some route stops at `b` after `a`,
    /// revisits included.
    pub(crate) fn build(sites: usize, routes: &[BusRoute]) -> Self {
        let pairs = || {
            routes.iter().flat_map(|route| {
                let stops = route.stops();
                (0..stops.len()).flat_map(move |i| {
                    stops[i + 1..]
                        .iter()
                        .map(move |b| (stops[i].site, b.site.0))
                })
            })
        };
        // Per site, the lowest and highest site that follows it; a site
        // nothing follows keeps `lo > hi` and gets an empty band.
        let mut spans = vec![(u32::MAX, 0u32); sites];
        for (a, b) in pairs() {
            let (lo, hi) = &mut spans[a.index()];
            (*lo, *hi) = ((*lo).min(b), (*hi).max(b));
        }
        let mut bands = Vec::with_capacity(sites);
        let mut offset = 0u32;
        for (lo, hi) in spans {
            let (first_word, len) = if lo <= hi {
                (lo / 64, hi / 64 - lo / 64 + 1)
            } else {
                (0, 0)
            };
            bands.push(Band {
                first_word,
                offset,
                len,
            });
            offset = offset.checked_add(len).expect("fewer than 2^32 words");
        }
        let mut words = vec![0u64; offset as usize];
        for (a, b) in pairs() {
            let band = bands[a.index()];
            words[(band.offset + b / 64 - band.first_word) as usize] |= 1u64 << (b % 64);
        }
        FollowsBits { bands, words }
    }

    /// Whether `b` follows `a`; `false` for ids past the end.
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
