//! SipHash-1-3, the workspace's one pinned hash function.
//!
//! Everything that must hash identically on every build goes through
//! here: the EDA cache's 128-bit content keys ([`Sip13`]) and the
//! 64-bit seeds of the simulated models' content plans, the LLM fault
//! rolls and the backoff jitter ([`SipHasher13`]). The standard
//! library's `DefaultHasher` computes the same 64-bit function today,
//! but its docs say the algorithm "should not be relied upon over
//! releases", so a toolchain upgrade could silently move every seeded
//! result. This implementation cannot move.
//!
//! Both types compress one 8-byte little-endian word per round and run
//! three finalization rounds per output half; a message split across
//! any number of `write` calls hashes like the message written whole.

use std::hash::Hasher;

/// The shared SipHash state: four lanes, the bytes not yet compressed
/// and the running length.
#[derive(Debug, Clone, Copy)]
struct State {
    v: [u64; 4],
    /// Bytes not yet compressed, little-endian in the low `ntail` bytes.
    tail: u64,
    ntail: usize,
    len: u64,
}

impl State {
    /// The 64-bit-output state under key `(k0, k1)`.
    fn keyed(k0: u64, k1: u64) -> State {
        State {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.v[0] ^= m;
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.ntail > 0 {
            let take = (8 - self.ntail).min(bytes.len());
            for (i, &b) in bytes[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            bytes = &bytes[take..];
            if self.ntail < 8 {
                return;
            }
            let m = self.tail;
            self.compress(m);
            (self.tail, self.ntail) = (0, 0);
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut m = [0u8; 8];
            m.copy_from_slice(word);
            self.compress(u64::from_le_bytes(m));
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * i);
        }
        self.ntail = words.remainder().len();
    }

    /// Compresses the final word and runs the three finalization
    /// rounds after xoring `v2` with `mark`.
    fn finalize(&mut self, mark: u64) -> u64 {
        let last = ((self.len & 0xff) << 56) | self.tail;
        self.compress(last);
        self.v[2] ^= mark;
        for _ in 0..3 {
            self.round();
        }
        self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3]
    }
}

/// Streaming SipHash-1-3 with 128-bit output under a caller's key.
#[derive(Debug, Clone)]
pub struct Sip13(State);

impl Sip13 {
    /// The 128-bit-output state under key `(k0, k1)`.
    #[must_use]
    #[inline]
    pub fn keyed(k0: u64, k1: u64) -> Sip13 {
        let mut state = State::keyed(k0, k1);
        state.v[1] ^= 0xee;
        Sip13(state)
    }

    /// Absorbs `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    /// The 128-bit digest: low half first, as SipHash-128 defines it.
    #[must_use]
    pub fn finish128(mut self) -> u128 {
        let low = self.0.finalize(0xee);
        self.0.v[1] ^= 0xdd;
        for _ in 0..3 {
            self.0.round();
        }
        let v = self.0.v;
        let high = v[0] ^ v[1] ^ v[2] ^ v[3];
        (u128::from(high) << 64) | u128::from(low)
    }
}

/// SipHash-1-3 with 64-bit output under the zero key, as a
/// [`Hasher`]: the function `DefaultHasher::new()` computes today,
/// pinned.
///
/// Integers are written little-endian on every platform. Hash a string
/// with [`SipHasher13::write_str_pinned`] (its bytes, then `0xff`, the
/// framing std's `Hash for str` uses), not through `Hash`, so the
/// framing cannot move with the toolchain either.
#[derive(Debug, Clone, Copy)]
pub struct SipHasher13(State);

impl SipHasher13 {
    /// A hasher under the zero key.
    #[must_use]
    #[inline]
    pub fn new() -> SipHasher13 {
        SipHasher13(State::keyed(0, 0))
    }

    /// Absorbs `s` followed by a `0xff` terminator, so adjacent strings
    /// cannot alias (`0xff` never occurs in UTF-8).
    #[inline]
    pub fn write_str_pinned(&mut self, s: &str) {
        self.0.write(s.as_bytes());
        self.0.write(&[0xff]);
    }
}

impl Default for SipHasher13 {
    fn default() -> SipHasher13 {
        SipHasher13::new()
    }
}

impl Hasher for SipHasher13 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0.write(&v.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        let mut state = self.0;
        state.finalize(0xff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;

    /// The compression and tail handling checked against the standard
    /// library's SipHash-1-3 (the 64-bit variant under the zero key,
    /// which is what `DefaultHasher::new` computes), at every length
    /// from 0 to 40 bytes and split across writes at every point.
    #[test]
    fn sip13_core_matches_the_standard_library() {
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=bytes.len() {
            let msg = &bytes[..len];
            let mut std = DefaultHasher::new();
            std.write(msg);
            let want = std.finish();
            for split in 0..=len {
                let mut ours = SipHasher13::new();
                ours.write(&msg[..split]);
                ours.write(&msg[split..]);
                assert_eq!(ours.finish(), want, "len {len}, split {split}");
            }
        }
    }

    /// The framing the seeded call sites use (strings, `u64`, `u32`)
    /// equals what `Hash` feeds `DefaultHasher` on this toolchain, so
    /// pinning the hasher moved no seed.
    #[test]
    fn pinned_framing_matches_hash_through_the_standard_library() {
        for (s, t, n, k) in [
            ("", "", 0u64, 0u32),
            ("GPT-4o", "prob017_mux4", 3, 1),
            ("a\u{e9}", "lat4", u64::MAX, u32::MAX),
        ] {
            let mut std = DefaultHasher::new();
            s.hash(&mut std);
            n.hash(&mut std);
            k.hash(&mut std);
            t.hash(&mut std);
            let mut ours = SipHasher13::new();
            ours.write_str_pinned(s);
            ours.write_u64(n);
            ours.write_u32(k);
            ours.write_str_pinned(t);
            assert_eq!(ours.finish(), std.finish(), "{s:?} {t:?}");
        }
    }

    #[test]
    fn finish_does_not_consume_the_state() {
        let mut h = SipHasher13::new();
        h.write(b"abc");
        let first = h.finish();
        assert_eq!(h.finish(), first);
        h.write(b"d");
        let mut whole = SipHasher13::new();
        whole.write(b"abcd");
        assert_eq!(h.finish(), whole.finish());
    }

    #[test]
    fn sip13_128_is_write_split_invariant() {
        let bytes: Vec<u8> = (0..64u8).collect();
        let whole = {
            let mut h = Sip13::keyed(1, 2);
            h.write(&bytes);
            h.finish128()
        };
        for split in 0..bytes.len() {
            let mut h = Sip13::keyed(1, 2);
            for chunk in bytes[..split].chunks(3) {
                h.write(chunk);
            }
            h.write(&bytes[split..]);
            assert_eq!(h.finish128(), whole, "split {split}");
        }
    }
}
