//! The workspace's one FNV-1a 64 implementation.
//!
//! FNV-1a is the integrity and identity hash everywhere bytes need a
//! stable 64-bit fingerprint: checkpoint trailer checksums
//! ([`crate::codec`]), the golden snapshot digests that pin simulation
//! semantics across versions, per-record sweep-journal checksums
//! ([`crate::journal`]), sweep-identity tags (fuzz/inject/verify-replay),
//! and the sweep server's content-addressed result-cache keys. Before this
//! module the same two constants were hand-rolled at several call-sites;
//! they now live here once, pinned by reference vectors, so digests,
//! checkpoints, journals, and cache keys stay bit-identical across
//! refactors. (This is distinct from [`crate::fxhash`], the *non-stable*
//! rustc-fx hasher used only for in-memory index maps, and from
//! [`crate::digest`], which builds the per-epoch state digest from words
//! instead of bytes.)
//!
//! The constants are the published FNV-1a 64 parameters; changing either
//! invalidates every checkpoint, journal, golden digest fixture, and cache
//! entry ever written, so the tests below treat them as frozen.

/// FNV-1a 64-bit offset basis (the published constant).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (the published constant).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher, used for checkpoint and journal
/// checksums and for the golden snapshot digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors. These pin the constants:
    /// if either `FNV_OFFSET` or `FNV_PRIME` drifts, every snapshot digest,
    /// checkpoint checksum, journal record, sweep tag, and cache key in
    /// the wild silently stops matching — so this test failing means a
    /// data-compatibility break, not a bug in the test.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_and_one_shot_agree_at_any_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = fnv1a(data);
        for split in 0..=data.len() {
            let mut h = Fnv1a::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn constants_are_frozen() {
        // Belt and braces: the vectors above imply these, but spell the
        // raw values out so a constant edit fails loudly and legibly.
        assert_eq!(FNV_OFFSET, 0xcbf2_9ce4_8422_2325);
        assert_eq!(FNV_PRIME, 0x0000_0100_0000_01b3);
    }
}
