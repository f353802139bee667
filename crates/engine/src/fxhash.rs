//! A fast, deterministic hasher for hot-path integer-keyed maps.
//!
//! The simulator's per-page bookkeeping maps (`Vpn`-keyed tables, access
//! counters, cache reverse indices) sit on the access fast path, where
//! `std`'s SipHash costs more than the work it guards. This is the FxHash
//! multiply-rotate scheme used by rustc: a few cycles per `u64`, no
//! per-instance random state, and therefore identical layouts across
//! runs — which keeps the hot path fast *and* reproducible.
//!
//! Determinism note: nothing in the simulator may iterate a hash map in a
//! behavior-affecting order (checkpoint snapshots sort; state digests fold
//! order-independent sums, see [`crate::digest`]), so the hasher choice
//! cannot change semantics — only speed. These maps
//! are keyed by trusted simulator-internal values (page numbers, group
//! ids), not attacker-controlled input, so HashDoS resistance is not a
//! concern.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from FxHash (the golden-ratio-derived odd
/// constant for 64-bit mixing).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHash hasher: `state = (rotl5(state) ^ word) * SEED` per
/// 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
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
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (no random per-map state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast deterministic hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast deterministic hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_hash() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.remove(&2), Some("two"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn byte_stream_matches_wordwise_padding() {
        // Partial trailing chunks hash via zero-padding; distinct lengths
        // of the same prefix must still disagree through the word mix.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Both pad to the same word here — equality is fine; the test
        // pins that hashing is stable, not injective.
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 4]);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert_eq!(s.len(), 1);
    }
}
