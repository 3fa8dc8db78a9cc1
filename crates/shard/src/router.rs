//! Routing uploads to regional shards by matched region.
//!
//! The router never trusts sender-side location hints (there are none —
//! uploads are anonymous cell scans). Instead it *probes*: a few evenly
//! spaced samples from the trip are run against each shard's inverted
//! matcher index, which yields — in sub-microsecond time and without
//! scoring — an upper bound on the best match score that shard could
//! produce. A shard whose index returns no candidate at all cannot
//! match any sample, so the trip would drop as `UnmatchedScans` there;
//! the shard with the strictly best bound wins outright.
//!
//! Under a component-closed plan ([`CityPlan`](crate::CityPlan)) a
//! clean trip has candidates in exactly one shard and the bound race is
//! a formality — so before racing, the router asks each shard whether
//! its index knows enough of any probe's cells to produce a bound at
//! all (hash lookups only, no posting walk), and races only the shards
//! that might; the outcome is the unfiltered race's on every trip.
//! Noisy boundary trips — phantom towers straddling two components —
//! can tie, and those fall to the [`OverflowPolicy`], which stays
//! bit-exact by scoring candidates in shard-id order.

use busprobe_cellular::Fingerprint;
use busprobe_core::{MatchResult, TrafficMonitor};
use busprobe_mobile::Trip;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How many trip samples the router probes (evenly spaced, distinct).
const PROBE_SAMPLES: usize = 4;

/// What to do with a trip whose probe bounds tie across shards. One
/// policy: any tie-break that does not follow the global best match
/// makes the federated map depend on the shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Fully score the probe samples in each tied shard, in shard-id
    /// order, and take the shard holding the globally best match under
    /// the matcher's canonical rank. Deterministic and independent of
    /// the shard count (the best-ranked site is a global property).
    #[default]
    Score,
}

impl OverflowPolicy {
    /// Stable manifest label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OverflowPolicy::Score => "score",
        }
    }

    /// Parses a manifest label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        (label == "score").then_some(OverflowPolicy::Score)
    }
}

/// Where one upload went, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// Destination shard index.
    pub shard: usize,
    /// The bound race did not produce a unique winner and the overflow
    /// policy decided (also set for unroutable trips sent to shard 0).
    pub overflow: bool,
}

/// Routes uploads across per-shard monitors by probing their matcher
/// indexes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRouter {
    policy: OverflowPolicy,
}

impl ShardRouter {
    /// A router with the given overflow policy.
    #[must_use]
    pub fn new(policy: OverflowPolicy) -> Self {
        ShardRouter { policy }
    }

    /// The configured overflow policy.
    #[must_use]
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Picks the destination shard for `trip`. Deterministic in the
    /// trip bytes and the shard databases; never fails — trips no
    /// shard can place (e.g. all-noise scans) go to shard 0, which
    /// attributes the drop like any other unmatched upload.
    #[must_use]
    pub fn route(&self, shards: &[Arc<TrafficMonitor>], trip: &Trip) -> Routed {
        if shards.len() <= 1 {
            return Routed {
                shard: 0,
                overflow: false,
            };
        }
        let probes = probe_fingerprints(trip);
        if probes.is_empty() {
            return Routed {
                shard: 0,
                overflow: true,
            };
        }

        // Rule out, without probing them, the shards whose index knows
        // too few of any probe's cells to reach γ: their bound is
        // provably `None` (see `Matcher::may_match`), which the race
        // below would only rediscover the expensive way.
        let contenders: Vec<usize> = (0..shards.len())
            .filter(|&idx| shards[idx].probe_may_match(&probes))
            .collect();
        // A lone contender wins by having any bound at all, whatever its
        // size, so its first one settles the race.
        let lone = contenders.len() == 1;

        // Best candidate bound per contender, in shard-id order.
        let mut best = f64::NEG_INFINITY;
        let mut winners: Vec<usize> = Vec::new();
        for idx in contenders {
            let mut bound = f64::NEG_INFINITY;
            for fp in &probes {
                if let Some(b) = shards[idx].probe_route_bound(fp) {
                    bound = bound.max(b);
                    if lone {
                        break;
                    }
                }
            }
            if bound == f64::NEG_INFINITY {
                continue;
            }
            if bound > best {
                best = bound;
                winners.clear();
                winners.push(idx);
            } else if bound == best {
                winners.push(idx);
            }
        }

        match winners.len() {
            0 => Routed {
                shard: 0,
                overflow: true,
            },
            1 => Routed {
                shard: winners[0],
                overflow: false,
            },
            _ => Routed {
                shard: Self::break_tie(shards, &winners, &probes),
                overflow: true,
            },
        }
    }

    /// Resolves a bound tie under [`OverflowPolicy::Score`]. `winners`
    /// is already in shard-id order.
    fn break_tie(
        shards: &[Arc<TrafficMonitor>],
        winners: &[usize],
        probes: &[Fingerprint],
    ) -> usize {
        let mut chosen = winners[0];
        let mut best: Option<MatchResult> = None;
        for &idx in winners {
            for fp in probes {
                let Some(m) = shards[idx].probe_best_match(fp) else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some(cur) => MatchResult::rank_order(&m, cur) == std::cmp::Ordering::Less,
                };
                if better {
                    best = Some(m);
                    chosen = idx;
                }
            }
        }
        chosen
    }
}

/// Up to [`PROBE_SAMPLES`] evenly spaced, pairwise-distinct, non-empty
/// sample fingerprints from the trip.
fn probe_fingerprints(trip: &Trip) -> Vec<Fingerprint> {
    let n = trip.samples.len();
    if n == 0 {
        return Vec::new();
    }
    let take = PROBE_SAMPLES.min(n);
    let mut probes: Vec<Fingerprint> = Vec::with_capacity(take);
    for k in 0..take {
        // Even spacing including both ends.
        let i = if take == 1 {
            0
        } else {
            k * (n - 1) / (take - 1)
        };
        let fp = trip.samples[i].scan.fingerprint();
        if fp.is_empty() || probes.contains(&fp) {
            continue;
        }
        probes.push(fp);
    }
    probes
}
