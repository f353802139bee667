//! The per-epoch state digest: one mixer, a word-at-a-time hasher for
//! small state, and order-independent running sums for large tables.
//!
//! The simulator records a digest of its whole mutable state at every
//! epoch boundary, so the digest must cost little next to an epoch while
//! still changing whenever any part of the state does. State comes in
//! two shapes, and each gets its own tool:
//!
//! - Small, fixed-size state (TLB and cache sets, DRAM channels, event
//!   counters, the O-Table) is hashed from scratch by [`StateHasher`], one
//!   64-bit word per field, in a fixed order. `StateHasher` is an
//!   [`Encoder`], so a component's [`Snapshot`](crate::codec::Snapshot)
//!   impl is also its digest.
//! - Tables whose size grows with the footprint (page tables, frame
//!   residency, per-page driver and policy maps) keep a [`SetDigest`]: the
//!   wrapping sum of one [`entry_hash`] per entry. Addition commutes, so a
//!   table updates the sum where it mutates (subtract the old entry's hash,
//!   add the new one) and is never sorted or walked in full to be
//!   digested.
//!
//! A table's running sum must always equal the sum recomputed from its
//! entries. [`StateHasher::reference`] builds the same digest with every
//! table recomputed from scratch and [`StateHasher::verify`] names the
//! first table whose running sum disagrees; the simulator's guard runs it.
//!
//! Everything here is deterministic and platform-independent. The
//! constants are frozen by the reference vectors in the tests: changing
//! them changes every digest trail.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::codec::Encoder;
use crate::error::{SimError, SimResult};
use crate::FxHashMap;

/// The 64-bit golden-ratio increment of SplitMix64, added before each
/// mixing round so an all-zero input cannot stall the chain at zero.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Starting value of every hash chain (the FNV-1a offset basis, reused as
/// an arbitrary nonzero seed).
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The SplitMix64 finalizer: a bijection on `u64` in which every input
/// bit affects every output bit.
#[inline]
const fn mix64(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds one word into a hash chain.
#[inline]
const fn step(h: u64, word: u64) -> u64 {
    mix64(h.wrapping_add(GAMMA) ^ word)
}

/// Hash of one table entry given as words, key first. Distinct entries
/// hash apart with overwhelming probability, so a [`SetDigest`] of the
/// hashes tells apart any two tables that differ in any entry.
#[inline]
pub fn entry_hash<const N: usize>(words: [u64; N]) -> u64 {
    words.into_iter().fold(SEED, step)
}

/// An order-independent digest of a set of entries: the wrapping sum of
/// their [`entry_hash`]es. A table keeps one current as it mutates;
/// collecting the hashes of all entries gives the same value from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetDigest(u64);

impl SetDigest {
    /// Accounts for an entry that joined the set.
    #[inline]
    pub fn add(&mut self, entry: u64) {
        self.0 = self.0.wrapping_add(entry);
    }

    /// Accounts for an entry that left the set.
    #[inline]
    pub fn remove(&mut self, entry: u64) {
        self.0 = self.0.wrapping_sub(entry);
    }

    /// Accounts for an entry whose hash changed from `old` to `new`.
    #[inline]
    pub fn replace(&mut self, old: u64, new: u64) {
        self.0 = self.0.wrapping_sub(old).wrapping_add(new);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl FromIterator<u64> for SetDigest {
    /// The from-scratch digest of a set, given each entry's hash.
    fn from_iter<I: IntoIterator<Item = u64>>(hashes: I) -> Self {
        let mut d = SetDigest::default();
        hashes.into_iter().for_each(|h| d.add(h));
        d
    }
}

/// Hashes a state from scratch, one word per field, and folds in the
/// tables' digests.
///
/// A hasher made by [`StateHasher::new`] takes each table's running sum;
/// one made by [`StateHasher::reference`] recomputes every sum from the
/// table's entries instead, so it yields the same value whenever the
/// running sums are right, and records the first table where one is not.
#[derive(Debug)]
pub struct StateHasher {
    h: u64,
    reference: bool,
    mismatch: Option<String>,
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    /// A hasher that folds tables' running sums.
    pub fn new() -> Self {
        StateHasher {
            h: SEED,
            reference: false,
            mismatch: None,
        }
    }

    /// A hasher that recomputes every table sum from scratch and checks
    /// it against the running one.
    pub fn reference() -> Self {
        StateHasher {
            reference: true,
            ..Self::new()
        }
    }

    /// Folds one word.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.h = step(self.h, word);
    }

    /// Folds a table of `len` entries whose running digest is `running`.
    /// A reference hasher calls `recompute` and folds its result instead,
    /// remembering `name` if this is the first table where the two differ.
    pub fn table(
        &mut self,
        name: fmt::Arguments<'_>,
        len: usize,
        running: SetDigest,
        recompute: impl FnOnce() -> SetDigest,
    ) {
        let sum = if self.reference {
            let fresh = recompute();
            if fresh != running && self.mismatch.is_none() {
                self.mismatch = Some(format!(
                    "{name}: running sum {:#018x}, recomputed {:#018x}",
                    running.value(),
                    fresh.value()
                ));
            }
            fresh
        } else {
            running
        };
        self.word(len as u64);
        self.word(sum.value());
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        mix64(self.h)
    }

    /// The digest, or the typed `digest-running-sum` invariant violation
    /// naming the first table whose running sum disagreed with its
    /// recomputation (only a reference hasher can find one).
    pub fn verify(&self) -> SimResult<u64> {
        match &self.mismatch {
            None => Ok(self.finish()),
            Some(detail) => Err(SimError::invariant("digest-running-sum", detail.clone())),
        }
    }
}

impl Encoder for StateHasher {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    #[inline]
    fn u16(&mut self, v: u16) {
        self.word(u64::from(v));
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn bool(&mut self, v: bool) {
        self.word(u64::from(v));
    }
}

/// An [`FxHashMap`] that keeps a [`SetDigest`] of its entries current.
///
/// Every mutation goes through a method that sees the old and new entry,
/// so the running sum can never go stale. `hash` maps an entry to its
/// [`entry_hash`].
#[derive(Debug, Clone)]
pub struct DigestMap<K, V> {
    map: FxHashMap<K, V>,
    sum: SetDigest,
    hash: fn(&K, &V) -> u64,
}

impl<K: std::hash::Hash + Eq + Copy, V> DigestMap<K, V> {
    /// An empty map whose entries hash with `hash`.
    pub fn new(hash: fn(&K, &V) -> u64) -> Self {
        DigestMap {
            map: FxHashMap::default(),
            sum: SetDigest::default(),
            hash,
        }
    }

    /// The value for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Iterates over the entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }

    /// Inserts or replaces the value for `key`, returning the old one.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let new = (self.hash)(&key, &value);
        let old = self.map.insert(key, value);
        if let Some(old) = &old {
            self.sum.remove((self.hash)(&key, old));
        }
        self.sum.add(new);
        old
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let old = self.map.remove(key)?;
        self.sum.remove((self.hash)(key, &old));
        Some(old)
    }

    /// Applies `f` to the value for `key`, inserting `default` first if
    /// the key is absent, and returns what `f` returns.
    pub fn update<R>(&mut self, key: K, default: V, f: impl FnOnce(&mut V) -> R) -> R {
        let hash = self.hash;
        let value = match self.map.entry(key) {
            Entry::Occupied(e) => {
                self.sum.remove(hash(&key, e.get()));
                e.into_mut()
            }
            Entry::Vacant(e) => e.insert(default),
        };
        let r = f(value);
        self.sum.add(hash(&key, value));
        r
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.sum = SetDigest::default();
    }

    /// Folds the map into a state digest under `name`: the running sum of
    /// its entries, or a recomputation for a reference hasher.
    pub fn digest_into(&self, h: &mut StateHasher, name: fmt::Arguments<'_>) {
        h.table(name, self.map.len(), self.sum, || self.recompute_digest());
    }

    fn recompute_digest(&self) -> SetDigest {
        self.map.iter().map(|(k, v)| (self.hash)(k, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SplitMix64 generator seeded with 0 yields `mix64(k * GAMMA)`
    /// as its k-th output; these are its published first outputs.
    #[test]
    fn mix64_matches_splitmix64_reference_outputs() {
        assert_eq!(mix64(GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(GAMMA.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix64(GAMMA.wrapping_mul(3)), 0x06c4_5d18_8009_454f);
        assert_eq!(mix64(0), 0);
    }

    /// Pins the chain and the finishing step: these values are what every
    /// digest trail is made of, so a change here is a format change.
    #[test]
    fn hasher_and_entry_hash_are_pinned() {
        assert_eq!(entry_hash([]), SEED);
        assert_eq!(entry_hash([0]), 0xc381_7c01_6ba4_ff30);
        assert_eq!(entry_hash([7, 42]), 0xa360_4b63_cf53_e49c);
        let mut h = StateHasher::new();
        assert_eq!(h.finish(), mix64(SEED));
        h.word(1);
        h.u8(2);
        h.bool(true);
        assert_eq!(h.finish(), 0x0ae5_b84f_a5fe_da47);
    }

    #[test]
    fn zero_words_still_advance_the_chain() {
        let mut seen = std::collections::HashSet::new();
        let mut h = StateHasher::new();
        for _ in 0..1000 {
            assert!(
                seen.insert(h.finish()),
                "a zero word left the chain unchanged"
            );
            h.word(0);
        }
    }

    #[test]
    fn word_order_matters_to_the_hasher() {
        let digest = |words: &[u64]| {
            let mut h = StateHasher::new();
            words.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
        assert_ne!(entry_hash([1, 2]), entry_hash([2, 1]));
    }

    #[test]
    fn set_digest_ignores_order_and_tracks_replacement() {
        let hashes: Vec<u64> = (0..50u64).map(|i| entry_hash([i, i * i])).collect();
        let forward: SetDigest = hashes.iter().copied().collect();
        let backward: SetDigest = hashes.iter().rev().copied().collect();
        assert_eq!(forward, backward);
        let mut running = forward;
        running.replace(hashes[3], entry_hash([3, 0]));
        running.remove(hashes[10]);
        let fresh: SetDigest = (0..50u64)
            .filter(|&i| i != 10)
            .map(|i| entry_hash([i, if i == 3 { 0 } else { i * i }]))
            .collect();
        assert_eq!(running, fresh);
        assert_ne!(running, forward);
    }

    fn pair_hash(k: &u64, v: &u32) -> u64 {
        entry_hash([*k, u64::from(*v)])
    }

    #[test]
    fn digest_map_keeps_its_running_sum_current() {
        let mut m: DigestMap<u64, u32> = DigestMap::new(pair_hash);
        for i in 0..200u64 {
            match i % 5 {
                0 | 1 => {
                    m.insert(i % 17, i as u32);
                }
                2 => {
                    m.remove(&(i % 13));
                }
                3 => {
                    let doubled = m.update(i % 11, 1, |v| {
                        *v *= 2;
                        *v
                    });
                    assert_eq!(m.get(&(i % 11)), Some(&doubled));
                }
                _ => {
                    m.update(i % 7, 0, |_| ());
                }
            }
            assert_eq!(m.sum, m.recompute_digest(), "after op {i}");
        }
        let before = m.sum;
        m.clear();
        assert!(m.map.is_empty());
        assert_eq!(m.sum, SetDigest::default());
        assert_ne!(before, m.sum);
    }

    #[test]
    fn reference_hasher_recomputes_and_names_the_first_stale_table() {
        let fold = |mut h: StateHasher, b: SetDigest, c: SetDigest| {
            h.word(9);
            h.table(format_args!("table a"), 1, SetDigest(5), || SetDigest(5));
            h.table(format_args!("table b"), 2, b, || SetDigest(6));
            h.table(format_args!("table c"), 2, c, || SetDigest(1));
            h
        };
        let right = fold(StateHasher::new(), SetDigest(6), SetDigest(1)).finish();
        let checked = fold(StateHasher::reference(), SetDigest(6), SetDigest(1));
        assert_eq!(checked.verify(), Ok(right));
        let stale = fold(StateHasher::reference(), SetDigest(4), SetDigest(3));
        assert_eq!(stale.finish(), right, "the reference folds recomputed sums");
        assert_ne!(
            fold(StateHasher::new(), SetDigest(4), SetDigest(3)).finish(),
            right
        );
        let err = stale.verify().expect_err("table b is stale").to_string();
        assert!(err.contains("table b") && !err.contains("table c"), "{err}");
    }
}
