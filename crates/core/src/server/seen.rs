//! The seen set: digests of every ingested upload, for duplicate
//! suppression.

use std::collections::HashSet;

/// Digests of ingested uploads: a hash set, plus, after a restart, the
/// snapshot's digests as a sorted array not yet hashed.
///
/// A restart moves the snapshot's sorted digests in as the array, so it
/// hashes none of them before the server is back. Until the next
/// [`export`](Self::export) a lookup probes the hash set, then
/// binary-searches the array; the export hashes the array in and frees
/// it, so from then on every lookup and insert costs what it costs in a
/// plain hash set. A monitor that never restarted holds an empty array.
#[derive(Debug, Default)]
pub(super) struct SeenSet {
    /// A restored snapshot's digests, strictly ascending; none of them
    /// in `hashed`.
    restored: Vec<u64>,
    hashed: HashSet<u64>,
}

impl SeenSet {
    /// A set holding `sorted`, which must strictly ascend — as a
    /// snapshot's decoded `seen` does.
    pub(super) fn from_sorted(sorted: Vec<u64>) -> Self {
        debug_assert!(sorted.windows(2).all(|pair| pair[0] < pair[1]));
        SeenSet {
            restored: sorted,
            hashed: HashSet::new(),
        }
    }

    /// Whether `digest` was inserted.
    pub(super) fn contains(&self, digest: &u64) -> bool {
        self.hashed.contains(digest) || self.restored.binary_search(digest).is_ok()
    }

    /// Inserts `digest`; returns whether it was new.
    pub(super) fn insert(&mut self, digest: u64) -> bool {
        self.restored.binary_search(&digest).is_err() && self.hashed.insert(digest)
    }

    /// Every digest, strictly ascending. Hashes a restored array in
    /// first, so later lookups skip the binary search.
    pub(super) fn export(&mut self) -> Vec<u64> {
        if !self.restored.is_empty() {
            self.hashed.extend(std::mem::take(&mut self.restored));
        }
        let mut all: Vec<u64> = self.hashed.iter().copied().collect();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random workload on the set.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u64),
        Contains(u64),
        Export,
    }

    /// Mostly inserts and lookups over a small digest range, so repeats
    /// are common, with an export now and then.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u32..16, 0u64..48).prop_map(|(kind, digest)| match kind {
            0 => Op::Export,
            1..=8 => Op::Insert(digest),
            _ => Op::Contains(digest),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The set answers every `insert` and `contains` exactly as a
        /// `HashSet<u64>` does, whatever the restored array and wherever
        /// the exports fall, and every export is the whole set, strictly
        /// ascending.
        #[test]
        fn answers_like_a_hash_set(
            initial in collection::vec(0u64..48, 0..24),
            ops in collection::vec(arb_op(), 0..200),
        ) {
            let mut oracle: HashSet<u64> = initial.iter().copied().collect();
            let mut sorted: Vec<u64> = oracle.iter().copied().collect();
            sorted.sort_unstable();
            let mut set = SeenSet::from_sorted(sorted);
            for op in ops {
                match op {
                    Op::Insert(d) => prop_assert_eq!(set.insert(d), oracle.insert(d)),
                    Op::Contains(d) => prop_assert_eq!(set.contains(&d), oracle.contains(&d)),
                    Op::Export => {
                        let mut expected: Vec<u64> = oracle.iter().copied().collect();
                        expected.sort_unstable();
                        let exported = set.export();
                        prop_assert!(exported.windows(2).all(|pair| pair[0] < pair[1]));
                        prop_assert_eq!(exported, expected);
                    }
                }
            }
            let mut expected: Vec<u64> = oracle.into_iter().collect();
            expected.sort_unstable();
            prop_assert_eq!(set.export(), expected);
        }
    }

    #[test]
    fn an_export_hashes_the_restored_digests() {
        let mut set = SeenSet::from_sorted(vec![10, 20, 30]);
        for digest in [35, 5, 25, 15] {
            assert!(set.insert(digest));
        }
        assert!(!set.insert(20), "a restored digest is seen");
        assert_eq!(set.export(), [5, 10, 15, 20, 25, 30, 35]);
        assert!(set.restored.is_empty());
        assert_eq!(set.restored.capacity(), 0, "the array is freed");
        assert!(
            set.contains(&10) && !set.insert(30),
            "restored digests stay seen"
        );
        assert_eq!(set.export(), [5, 10, 15, 20, 25, 30, 35]);
    }
}
