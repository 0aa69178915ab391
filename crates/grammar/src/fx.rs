//! A fast, non-cryptographic hasher for the hot paths of table
//! construction and incremental parsing.
//!
//! The standard library's default hasher (SipHash 1-3) is keyed and
//! DoS-resistant, but costs tens of cycles per small key — measurable when
//! the merge tables, the proxy forward map, and the input stream's
//! replacement map are probed once per reduction, or when LR(0) kernels
//! are interned once per transition. Keys on those paths are arena
//! indices, small integers and item lists produced by the program itself,
//! never attacker-chosen, so a multiply-rotate hash in the Firefox
//! `FxHasher` family is both safe and several times faster. It lives here,
//! at the bottom of the crate graph, so the table generator and the parse
//! dag (which re-exports it) share one copy.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (64-bit golden-ratio mix, the `FxHasher` seed).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate streaming hasher over machine words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`std::collections::HashMap`] using [`FxHasher`]. Construct with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A [`std::collections::HashSet`] using [`FxHasher`]. Construct with
/// `FxHashSet::default()`.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (for open-addressed tables that
/// manage their own buckets).
#[inline]
pub fn fx_hash(value: impl std::hash::Hash) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        assert_eq!(fx_hash(42u32), fx_hash(42u32));
        assert_ne!(fx_hash(42u32), fx_hash(43u32));
        // Sequential keys must not collapse onto a few buckets.
        let mut low_bits: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for i in 0u32..256 {
            low_bits.insert(fx_hash(i) & 0xff);
        }
        assert!(
            low_bits.len() > 128,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn byte_stream_matches_word_writes_only_in_length() {
        // Same bytes hashed via `write` are deterministic.
        let mut a = FxHasher::default();
        a.write(b"hello world, incremental parser");
        let mut b = FxHasher::default();
        b.write(b"hello world, incremental parser");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world, incremental parsed");
        assert_ne!(a.finish(), c.finish());
    }
}
