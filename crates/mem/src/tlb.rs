//! Set-associative TLB model with true-LRU replacement.
//!
//! Used for both the per-CU-cluster L1 TLB (32-entry) and the GPU-shared
//! L2 TLB (512-entry, 16-way) of Table I. Only presence is modelled — the
//! actual translation lives in the page tables — so a TLB entry is just a
//! cached VPN plus LRU state.
//!
//! Storage is a flat structure-of-arrays arena: all sets' lines live in
//! two parallel vectors (`line_vpn`, `line_stamp`) sliced by set index, so
//! a lookup is one multiply plus a short contiguous scan with no pointer
//! chasing and no hashing. The reverse `where_is` map the old layout kept
//! for shootdowns was pure redundancy — the target set of any VPN is
//! directly computable — and is gone entirely.

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::error::SimError;
use oasis_engine::FxHashSet;

use crate::types::Vpn;

/// A set-associative TLB.
///
/// # Example
///
/// ```
/// use oasis_mem::{Tlb, Vpn};
///
/// let mut tlb = Tlb::new(32, 32); // Table I's L1 TLB
/// assert!(!tlb.access(Vpn(7)));   // cold miss
/// tlb.fill(Vpn(7));
/// assert!(tlb.access(Vpn(7)));    // hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// `line_vpn[set * ways + i]` for `i < set_len[set]` are the cached
    /// VPNs of `set`; `line_stamp` holds the matching last-use stamps.
    line_vpn: Vec<Vpn>,
    line_stamp: Vec<u64>,
    set_len: Vec<u16>,
    num_sets: usize,
    ways: usize,
    cached: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
    /// Shootdowns that actually removed an entry. Observational only:
    /// deliberately excluded from snapshots/digests so enabling metrics
    /// cannot perturb replay.
    shootdowns: u64,
    /// Last-hit memo: `line_vpn[memo_idx] == memo_vpn` while valid
    /// (`memo_idx != u32::MAX`). Consecutive transactions land on the same
    /// page (64 B transactions, 4 KB pages), so this short-circuits the
    /// set scan. Pure cache — cleared by any mutation that moves lines,
    /// never serialized.
    memo_vpn: Vpn,
    memo_idx: u32,
}

impl Tlb {
    /// Creates a TLB with `entries` total entries organized as `ways`-way
    /// sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or if the
    /// resulting set count is not a power of two (required for indexing).
    /// Use [`Tlb::try_new`] for a fallible variant.
    pub fn new(entries: usize, ways: usize) -> Self {
        match Self::try_new(entries, ways) {
            Ok(tlb) => tlb,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates the geometry instead of panicking.
    pub fn try_new(entries: usize, ways: usize) -> Result<Self, SimError> {
        if ways == 0 || entries == 0 {
            return Err(SimError::invariant(
                "tlb-geometry",
                format!("TLB geometry must be positive (entries={entries}, ways={ways})"),
            ));
        }
        if !entries.is_multiple_of(ways) {
            return Err(SimError::invariant(
                "tlb-geometry",
                format!("entries ({entries}) must be a multiple of ways ({ways})"),
            ));
        }
        let num_sets = entries / ways;
        if !num_sets.is_power_of_two() {
            return Err(SimError::invariant(
                "tlb-geometry",
                format!("set count ({num_sets}) must be a power of two"),
            ));
        }
        Ok(Tlb {
            line_vpn: vec![Vpn(0); entries],
            line_stamp: vec![0; entries],
            set_len: vec![0; num_sets],
            num_sets,
            ways,
            cached: 0,
            stamp: 0,
            hits: 0,
            misses: 0,
            shootdowns: 0,
            memo_vpn: Vpn(0),
            memo_idx: u32::MAX,
        })
    }

    #[inline]
    fn set_index(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.num_sets - 1)
    }

    /// Position of `vpn` within its set's occupied lines, if cached.
    #[inline]
    fn find(&self, base: usize, len: usize, vpn: Vpn) -> Option<usize> {
        self.line_vpn[base..base + len]
            .iter()
            .position(|&v| v == vpn)
    }

    /// Looks up `vpn`; on a hit, refreshes its LRU position. Returns whether
    /// it hit.
    #[inline]
    pub fn access(&mut self, vpn: Vpn) -> bool {
        self.stamp += 1;
        if self.memo_idx != u32::MAX && vpn == self.memo_vpn {
            // Same page as the last hit; the memoized line is still live.
            // Identical effects to the scan path: stamp refresh + hit.
            self.line_stamp[self.memo_idx as usize] = self.stamp;
            self.hits += 1;
            return true;
        }
        let base = self.set_index(vpn) * self.ways;
        let len = self.set_len[base / self.ways] as usize;
        if let Some(pos) = self.find(base, len, vpn) {
            self.line_stamp[base + pos] = self.stamp;
            self.hits += 1;
            self.memo_vpn = vpn;
            self.memo_idx = (base + pos) as u32;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Installs a translation for `vpn`, evicting the LRU entry of its set
    /// if the set is full. Returns the evicted VPN, if any.
    pub fn fill(&mut self, vpn: Vpn) -> Option<Vpn> {
        let set = self.set_index(vpn);
        let base = set * self.ways;
        if let Some(pos) = self.find(base, self.set_len[set] as usize, vpn) {
            self.stamp += 1;
            self.line_stamp[base + pos] = self.stamp;
            return None;
        }
        self.fill_missed(vpn)
    }

    /// [`Tlb::fill`] for a `vpn` that is not cached, as after an
    /// [`access`](Tlb::access) that missed with nothing filled since:
    /// the same effects, without scanning the set for `vpn` again.
    pub fn fill_missed(&mut self, vpn: Vpn) -> Option<Vpn> {
        debug_assert!(!self.contains(vpn), "fill_missed on cached {vpn:?}");
        self.stamp += 1;
        let set = self.set_index(vpn);
        let base = set * self.ways;
        let len = self.set_len[set] as usize;
        let evicted = if len == self.ways {
            // A full set is necessarily nonempty (ways > 0). Evict the LRU
            // line with swap-remove semantics (last line moves into the
            // hole) — position ties are replacement-relevant, so this
            // must match the historical Vec::swap_remove exactly.
            let lru_pos = (0..len)
                .min_by_key(|&i| self.line_stamp[base + i])
                .expect("nonempty set");
            let old = self.line_vpn[base + lru_pos];
            self.line_vpn[base + lru_pos] = self.line_vpn[base + len - 1];
            self.line_stamp[base + lru_pos] = self.line_stamp[base + len - 1];
            self.set_len[set] -= 1;
            self.cached -= 1;
            self.memo_idx = u32::MAX; // lines moved
            Some(old)
        } else {
            None
        };
        let len = self.set_len[set] as usize;
        self.line_vpn[base + len] = vpn;
        self.line_stamp[base + len] = self.stamp;
        self.set_len[set] += 1;
        self.cached += 1;
        self.memo_vpn = vpn;
        self.memo_idx = (base + len) as u32;
        evicted
    }

    /// Invalidates the entry for `vpn` (a TLB shootdown). Returns whether an
    /// entry was present.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set_index(vpn);
        let base = set * self.ways;
        let len = self.set_len[set] as usize;
        if let Some(pos) = self.find(base, len, vpn) {
            self.line_vpn[base + pos] = self.line_vpn[base + len - 1];
            self.line_stamp[base + pos] = self.line_stamp[base + len - 1];
            self.set_len[set] -= 1;
            self.cached -= 1;
            self.shootdowns += 1;
            self.memo_idx = u32::MAX; // removed or moved a line
            true
        } else {
            false
        }
    }

    /// True if `vpn` is currently cached (does not touch LRU state).
    pub fn contains(&self, vpn: Vpn) -> bool {
        let set = self.set_index(vpn);
        let base = set * self.ways;
        self.find(base, self.set_len[set] as usize, vpn).is_some()
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.cached
    }

    /// True if the TLB caches nothing.
    pub fn is_empty(&self) -> bool {
        self.cached == 0
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Iterates over every cached VPN (set order). Used by the sim-guard
    /// checker to assert TLB entries only exist for mapped pages.
    pub fn cached_vpns(&self) -> impl Iterator<Item = Vpn> + '_ {
        (0..self.num_sets).flat_map(move |set| {
            let base = set * self.ways;
            self.line_vpn[base..base + self.set_len[set] as usize]
                .iter()
                .copied()
        })
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of shootdowns that removed a live entry. Not snapshotted —
    /// this counter feeds the metrics registry only.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }
}

impl Snapshot for Tlb {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.stamp);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.num_sets as u64);
        // Line order within a set is part of replacement behaviour
        // (swap-remove eviction ties on position), so it is preserved
        // verbatim — and it is already deterministic, being driven only by
        // the access stream.
        for set in 0..self.num_sets {
            let base = set * self.ways;
            let len = self.set_len[set] as usize;
            w.u16(len as u16);
            for i in 0..len {
                w.u64(self.line_vpn[base + i].0);
                w.u64(self.line_stamp[base + i]);
            }
        }
    }
}

impl Restore for Tlb {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.stamp = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        let n_sets = r.usize()?;
        if n_sets != self.num_sets {
            return Err(r.malformed(format!(
                "snapshot has {n_sets} sets, this TLB has {}",
                self.num_sets
            )));
        }
        self.cached = 0;
        self.memo_idx = u32::MAX;
        let mut seen: FxHashSet<Vpn> = FxHashSet::default();
        for set in 0..n_sets {
            let n_lines = r.u16()? as usize;
            if n_lines > self.ways {
                return Err(r.malformed(format!(
                    "set {set} holds {n_lines} lines but associativity is {}",
                    self.ways
                )));
            }
            let base = set * self.ways;
            self.set_len[set] = n_lines as u16;
            for i in 0..n_lines {
                let vpn = Vpn(r.u64()?);
                let stamp = r.u64()?;
                let home = self.set_index(vpn);
                if home != set {
                    return Err(r.malformed(format!(
                        "page {vpn:?} stored in set {set} but belongs in set {home}"
                    )));
                }
                self.line_vpn[base + i] = vpn;
                self.line_stamp[base + i] = stamp;
                if !seen.insert(vpn) {
                    return Err(r.malformed(format!("page {vpn:?} cached twice")));
                }
                self.cached += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(32, 32);
        assert!(!tlb.access(Vpn(5)));
        assert_eq!(tlb.fill(Vpn(5)), None);
        assert!(tlb.access(Vpn(5)));
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        // Fully associative 4-entry TLB.
        let mut tlb = Tlb::new(4, 4);
        for i in 0..4 {
            tlb.fill(Vpn(i));
        }
        tlb.access(Vpn(0)); // 0 most recent; 1 is now LRU
        let evicted = tlb.fill(Vpn(99));
        assert_eq!(evicted, Some(Vpn(1)));
        assert!(tlb.contains(Vpn(0)));
        assert!(tlb.contains(Vpn(99)));
    }

    #[test]
    fn set_indexing_isolates_sets() {
        // 2 sets, 1 way: vpns with equal parity collide.
        let mut tlb = Tlb::new(2, 1);
        tlb.fill(Vpn(0));
        tlb.fill(Vpn(1));
        assert!(tlb.contains(Vpn(0)));
        assert!(tlb.contains(Vpn(1)));
        // Filling vpn 2 (even) evicts vpn 0, not vpn 1.
        assert_eq!(tlb.fill(Vpn(2)), Some(Vpn(0)));
        assert!(tlb.contains(Vpn(1)));
    }

    #[test]
    fn invalidate_removes_exactly_one() {
        let mut tlb = Tlb::new(8, 4);
        tlb.fill(Vpn(1));
        tlb.fill(Vpn(2));
        assert!(tlb.invalidate(Vpn(1)));
        assert!(!tlb.invalidate(Vpn(1)));
        assert!(!tlb.contains(Vpn(1)));
        assert!(tlb.contains(Vpn(2)));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut tlb = Tlb::new(2, 2);
        tlb.fill(Vpn(0));
        tlb.fill(Vpn(0));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(Tlb::new(512, 16).capacity(), 512);
    }

    #[test]
    #[should_panic(expected = "must be a multiple")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(10, 4);
    }

    #[test]
    fn try_new_reports_bad_geometry() {
        assert!(Tlb::try_new(0, 4).is_err());
        assert!(Tlb::try_new(10, 4).is_err());
        assert!(Tlb::try_new(24, 4).is_err()); // 6 sets: not a power of two
        assert!(Tlb::try_new(32, 4).is_ok());
    }

    #[test]
    fn cached_vpns_lists_contents() {
        let mut tlb = Tlb::new(8, 4);
        tlb.fill(Vpn(3));
        tlb.fill(Vpn(4));
        let mut vpns: Vec<_> = tlb.cached_vpns().collect();
        vpns.sort();
        assert_eq!(vpns, vec![Vpn(3), Vpn(4)]);
    }

    #[test]
    fn snapshot_preserves_contents_lru_and_stats() {
        let mut tlb = Tlb::new(8, 4);
        for i in 0..6 {
            tlb.fill(Vpn(i));
        }
        tlb.access(Vpn(0));
        tlb.access(Vpn(42)); // a miss
        let mut w = ByteWriter::new();
        tlb.snapshot(&mut w);

        let mut fresh = Tlb::new(8, 4);
        let buf = w.into_vec();
        let mut r = ByteReader::new("tlb", &buf);
        fresh.restore(&mut r).expect("valid tlb state");
        assert_eq!(fresh.stats(), tlb.stats());
        assert_eq!(fresh.len(), tlb.len());
        // Replacement proceeds identically after restore.
        assert_eq!(fresh.fill(Vpn(100)), tlb.fill(Vpn(100)));
        assert_eq!(fresh.fill(Vpn(102)), tlb.fill(Vpn(102)));
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let mut big = Tlb::new(512, 16);
        big.fill(Vpn(1));
        let mut w = ByteWriter::new();
        big.snapshot(&mut w);
        let buf = w.into_vec();
        let mut small = Tlb::new(32, 32);
        let mut r = ByteReader::new("tlb", &buf);
        assert!(small.restore(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_a_page_in_another_set() {
        // 2 sets: page 3 belongs in set 1, but this snapshot stores it in
        // set 0, where no lookup or shootdown would ever look for it.
        let mut w = ByteWriter::new();
        w.u64(1); // stamp
        w.u64(0); // hits
        w.u64(0); // misses
        w.u64(2); // sets
        w.u16(1); // set 0: page 3, stamp 1
        w.u64(3);
        w.u64(1);
        w.u16(0); // set 1: empty
        let buf = w.into_vec();
        let mut tlb = Tlb::new(8, 4);
        let err = tlb
            .restore(&mut ByteReader::new("tlb", &buf))
            .expect_err("misplaced page");
        assert!(
            err.to_string()
                .contains("page Vpn(3) stored in set 0 but belongs in set 1"),
            "{err}"
        );
    }
}
