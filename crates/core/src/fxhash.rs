//! A tiny multiplicative hasher for the matcher's internal maps.
//!
//! The inverted index interns cell-tower IDs and the batch scorer
//! deduplicates fingerprints on every upload; both sit on the hottest
//! matching path, where SipHash's per-word mixing shows up in
//! profiles. This is the classic "Fx" construction (rotate, xor,
//! multiply by a golden-ratio constant) — not DoS-resistant, which is
//! fine for these maps: keys are dense cell IDs and short cell
//! sequences whose worst-case collision cost is a short probe chain,
//! and nothing observable (results, WAL bytes, traces) depends on hash
//! order.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FireFox/rustc multiplicative hasher.
#[derive(Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hashes_are_stable_and_maps_work() {
        let mut map: HashMap<Vec<u32>, usize, FxBuildHasher> = HashMap::default();
        map.insert(vec![1, 2, 3], 0);
        map.insert(vec![1, 2], 1);
        map.insert(vec![], 2);
        assert_eq!(map.get([1u32, 2, 3].as_slice()), Some(&0));
        assert_eq!(map.get([1u32, 2].as_slice()), Some(&1));
        assert_eq!(map.get([].as_slice()), Some(&2));
        assert_eq!(map.get([3u32].as_slice()), None);
    }

    #[test]
    fn byte_stream_chunking_is_consistent() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), c.finish());
    }
}
