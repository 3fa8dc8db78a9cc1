//! The content digest behind duplicate suppression, trace ids and the
//! serve front's refusal ids: SipHash-1-3 with zero keys, fed explicit
//! little-endian bytes.
//!
//! These digests outlive the process — the seen set is in every
//! snapshot and WAL record, trace ids are in exported traces — so the
//! function must not move with the toolchain or the host. `std`'s
//! default hasher promises neither (its algorithm is unspecified across
//! releases, and `Hash` impls feed native-endian bytes). This is the
//! function it computes today, pinned: every value matches what state
//! dirs and traces written with it already hold.

/// A streaming SipHash-1-3 state with keys `(0, 0)`.
///
/// Writes are explicit about width and byte order; a `put_u64(x)` feeds
/// the eight little-endian bytes of `x`, exactly what `x.hash(..)` feeds
/// `std`'s default hasher on a little-endian host.
#[derive(Debug, Clone)]
pub struct Digest {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// The bytes of the word being assembled, little-endian.
    tail: u64,
    /// How many bytes `tail` holds (0..8).
    ntail: usize,
    /// Bytes written so far; its low byte enters the final block.
    length: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// An empty digest.
    #[must_use]
    pub fn new() -> Self {
        Digest {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// Feeds the four little-endian bytes of `v`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_word(u64::from(v), 4);
    }

    /// Feeds the eight little-endian bytes of `v`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_word(v, 8);
    }

    /// Feeds the eight little-endian bytes of `v`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_word(v.cast_unsigned(), 8);
    }

    /// Feeds the UTF-8 bytes of `s` and a `0xFF` terminator, which no
    /// `str` contains — so consecutive strings cannot run together.
    pub fn put_str(&mut self, s: &str) {
        let mut words = s.as_bytes().chunks_exact(8);
        for word in &mut words {
            self.put_word(le_word(word), 8);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.put_word(le_word(rest), rest.len());
        }
        self.put_word(0xFF, 1);
    }

    /// Feeds the low `bytes` (1..=8) little-endian bytes of `v`, whose
    /// higher bytes are zero, compressing the word they complete.
    #[inline]
    fn put_word(&mut self, v: u64, bytes: usize) {
        self.length = self.length.wrapping_add(bytes);
        let ntail = self.ntail;
        self.tail |= v << (8 * ntail);
        if ntail + bytes < 8 {
            self.ntail = ntail + bytes;
            return;
        }
        self.compress(self.tail);
        self.ntail = ntail + bytes - 8;
        // The bytes of `v` the completed word had no room for.
        self.tail = if ntail == 0 {
            0
        } else {
            v >> (8 * (8 - ntail))
        };
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut state = self.clone();
        let last = ((self.length as u64 & 0xFF) << 56) | self.tail;
        state.compress(last);
        state.v2 ^= 0xFF;
        for _ in 0..3 {
            state.round();
        }
        state.v0 ^ state.v1 ^ state.v2 ^ state.v3
    }

    /// Absorbs one message word: one compression round (the "1" of
    /// SipHash-1-3).
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
    }

    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }
}

/// Up to eight bytes as a little-endian word, zero-padded above.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed vectors, recorded from `std`'s default hasher (SipHash-1-3,
    /// zero keys) on a little-endian host: a change to the function, or to
    /// how a width is fed, fails here before it moves a persisted
    /// digest.
    #[test]
    fn digest_is_pinned_on_fixed_vectors() {
        let digest = |feed: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            feed(&mut d);
            d.finish()
        };
        assert_eq!(digest(&|_| {}), 0xd1fb_a762_150c_532c);
        assert_eq!(digest(&|d| d.put_u64(0)), 0xbd60_acb6_58c7_9e45);
        assert_eq!(
            digest(&|d| d.put_u64(0x0123_4567_89AB_CDEF)),
            0x8662_046e_5226_4db8
        );
        assert_eq!(digest(&|d| d.put_i64(-42)), 0xf94f_475e_43ef_4577);
        assert_eq!(digest(&|d| d.put_u32(7)), 0xc123_1798_07bd_2fea);
        assert_eq!(digest(&|d| d.put_str("")), 0x3040_6ea5_23c5_3def);
        assert_eq!(
            digest(&|d| d.put_str("{\"cmd\":\"ping\"}")),
            0x123a_7d49_af1d_269f
        );
        // Widths that straddle word boundaries: an upload's sample time,
        // then tower id and signal per observation.
        assert_eq!(
            digest(&|d| {
                d.put_u64(120.5f64.to_bits());
                for (tower, rss) in [(17u32, -71.0f64), (4, -88.5), (230, -95.25)] {
                    d.put_u32(tower);
                    d.put_u64(rss.to_bits());
                }
            }),
            0xfb88_9d97_b59a_7afa
        );
        // A near-duplicate window digest: content, then window index.
        assert_eq!(
            digest(&|d| {
                d.put_u64(0xDEAD_BEEF_F00D_CAFE);
                d.put_i64(2 * 1234 + 1);
            }),
            0x10e4_7a27_5386_7e12
        );
        let long: String = (0..100)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        assert_eq!(digest(&|d| d.put_str(&long)), 0x3340_d932_a6fe_7acd);
    }
}
