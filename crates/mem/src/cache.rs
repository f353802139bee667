//! Set-associative data-cache model (presence only, LRU replacement).
//!
//! Models the per-GPU L2 cache of Table I (256 KB, 16-way, 64 B lines).
//! Like the TLB model, it tracks which line addresses are resident so the
//! simulator can decide whether an access pays DRAM latency; it does not
//! hold data. Each set is a short `Vec` of (line address, last-use stamp)
//! pairs, where the line address is the canonical VA >> 6 and its low bits
//! pick the set; a page migrating away or a duplicate collapsing drops the
//! page's lines with [`Cache::invalidate_page`].

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::FxHashSet;

use crate::types::{PageSize, Va, Vpn};

#[derive(Debug, Clone)]
struct Set {
    lines: Vec<(u64, u64)>, // (line address, last-use stamp)
}

/// A set-associative cache over 64-bit line addresses.
///
/// # Example
///
/// ```
/// use oasis_mem::{Cache, Va};
///
/// let mut l2 = Cache::new(256 * 1024, 16, 64); // Table I's L2
/// assert!(!l2.access(Va(0x1000))); // miss fills the line
/// assert!(l2.access(Va(0x1020)));  // same 64 B line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Set>,
    ways: usize,
    line_shift: u32,
    stamp: u64,
    hits: u64,
    misses: u64,
    /// Total resident lines across all sets. The target set of any line is
    /// directly computable from its address, so no reverse map is kept.
    resident: usize,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if geometry is degenerate (zero sizes, non-power-of-two line
    /// size or set count, capacity not divisible by `ways * line_bytes`).
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            capacity_bytes > 0 && ways > 0 && line_bytes > 0,
            "cache geometry must be positive"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            (lines as usize).is_multiple_of(ways),
            "line count must be a multiple of associativity"
        );
        let num_sets = lines as usize / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            sets: (0..num_sets)
                .map(|_| Set {
                    lines: Vec::with_capacity(ways),
                })
                .collect(),
            ways,
            line_shift: line_bytes.trailing_zeros(),
            stamp: 0,
            hits: 0,
            misses: 0,
            resident: 0,
        }
    }

    fn line_addr(&self, va: Va) -> u64 {
        va.canonical().0 >> self.line_shift
    }

    fn set_index(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// Accesses the line containing `va`; fills it on a miss. Returns
    /// whether it hit.
    pub fn access(&mut self, va: Va) -> bool {
        let line = self.line_addr(va);
        self.stamp += 1;
        let idx = self.set_index(line);
        let stamp = self.stamp;
        let ways = self.ways;
        let set = &mut self.sets[idx];
        if let Some(l) = set.lines.iter_mut().find(|(a, _)| *a == line) {
            l.1 = stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if set.lines.len() == ways {
            let (lru_pos, _) = set
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .expect("full set is nonempty");
            set.lines.swap_remove(lru_pos);
        } else {
            self.resident += 1;
        }
        set.lines.push((line, stamp));
        false
    }

    /// Drops every line belonging to virtual page `vpn` (done when a page
    /// migrates away or a duplicate is collapsed). Returns how many lines
    /// were dropped.
    ///
    /// A page with no more lines than the cache has sets (a 4 KiB page on
    /// Table I's cache: 64 lines, 256 sets) puts each line in a set of its
    /// own, so each line is looked up in its set. A larger page (2 MiB:
    /// 32,768 lines) covers every set many times over, so each set is
    /// visited once instead and its lines of the page dropped lowest
    /// address first: the order a line-by-line walk drops them in, so
    /// `swap_remove` leaves the set's other lines where that walk would.
    /// Kept out of line: it runs on shootdowns only, and inlined into the
    /// simulator's per-access loop it moved that loop's code.
    #[inline(never)]
    pub fn invalidate_page(&mut self, vpn: Vpn, page: PageSize) -> usize {
        let first_line = (vpn.0 << page.shift()) >> self.line_shift;
        let lines_per_page = (page.bytes() >> self.line_shift).max(1);
        let mut dropped = 0;
        if lines_per_page <= self.sets.len() as u64 {
            for line in first_line..first_line + lines_per_page {
                let idx = self.set_index(line);
                let set = &mut self.sets[idx];
                if let Some(pos) = set.lines.iter().position(|(a, _)| *a == line) {
                    set.lines.swap_remove(pos);
                    dropped += 1;
                }
            }
        } else {
            for set in &mut self.sets {
                loop {
                    // The page's lowest line in this set: the smallest
                    // offset into the page below `lines_per_page`.
                    let (mut lowest, mut pos) = (lines_per_page, usize::MAX);
                    for (i, &(a, _)) in set.lines.iter().enumerate() {
                        let offset = a.wrapping_sub(first_line);
                        if offset < lowest {
                            (lowest, pos) = (offset, i);
                        }
                    }
                    if pos == usize::MAX {
                        break;
                    }
                    set.lines.swap_remove(pos);
                    dropped += 1;
                }
            }
        }
        self.resident -= dropped;
        dropped
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Snapshot for Cache {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.stamp);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.sets.len() as u64);
        // Line order within a set matters to `swap_remove` tie-breaking, so
        // it is preserved verbatim (see the Tlb snapshot).
        for set in &self.sets {
            w.u16(set.lines.len() as u16);
            for &(line, stamp) in &set.lines {
                w.u64(line);
                w.u64(stamp);
            }
        }
    }
}

impl Restore for Cache {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.stamp = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        let n_sets = r.usize()?;
        if n_sets != self.sets.len() {
            return Err(r.malformed(format!(
                "snapshot has {n_sets} sets, this cache has {}",
                self.sets.len()
            )));
        }
        self.resident = 0;
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for idx in 0..n_sets {
            let n_lines = r.u16()? as usize;
            if n_lines > self.ways {
                return Err(r.malformed(format!(
                    "set {idx} holds {n_lines} lines but associativity is {}",
                    self.ways
                )));
            }
            self.sets[idx].lines.clear();
            for _ in 0..n_lines {
                let line = r.u64()?;
                let stamp = r.u64()?;
                let home = self.set_index(line);
                if home != idx {
                    return Err(r.malformed(format!(
                        "line {line:#x} stored in set {idx} but belongs in set {home}"
                    )));
                }
                self.sets[idx].lines.push((line, stamp));
                if !seen.insert(line) {
                    return Err(r.malformed(format!("line {line:#x} cached twice")));
                }
                self.resident += 1;
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
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(256 * 1024, 16, 64);
        assert!(!c.access(Va(0x1000)));
        assert!(c.access(Va(0x1000)));
        assert!(c.access(Va(0x1038))); // 0x1000..0x1040 is one 64 B line
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(Va(0x100)));
        assert!(c.access(Va(0x13F))); // 0x100..0x140 is one 64 B line
        assert!(!c.access(Va(0x140))); // next line
    }

    #[test]
    fn lru_within_set() {
        // 2 lines per set, 2 sets (256 B cache, 64 B lines, 2-way).
        let mut c = Cache::new(256, 2, 64);
        // Lines 0, 2, 4 all map to set 0.
        c.access(Va(0)); // line 0
        c.access(Va(128)); // line 2
        c.access(Va(0)); // refresh line 0; line 2 is LRU
        c.access(Va(256)); // line 4 evicts line 2
        assert!(c.access(Va(0)));
        assert!(!c.access(Va(128)));
    }

    #[test]
    fn invalidate_page_drops_all_its_lines() {
        let mut c = Cache::new(64 * 1024, 16, 64);
        let vpn = Vpn(3);
        let base = vpn.base(PageSize::Small4K).0;
        for off in (0..4096).step_by(64) {
            c.access(Va(base + off));
        }
        let resident_before = c.len();
        assert_eq!(resident_before, 64);
        let dropped = c.invalidate_page(vpn, PageSize::Small4K);
        assert_eq!(dropped, 64);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_page_spares_other_pages() {
        let mut c = Cache::new(64 * 1024, 16, 64);
        c.access(Va(Vpn(1).base(PageSize::Small4K).0));
        c.access(Va(Vpn(2).base(PageSize::Small4K).0));
        c.invalidate_page(Vpn(1), PageSize::Small4K);
        assert!(c.access(Va(Vpn(2).base(PageSize::Small4K).0)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = Cache::new(1024, 2, 60);
    }

    #[test]
    fn snapshot_round_trips_replacement_state() {
        let mut c = Cache::new(256, 2, 64);
        c.access(Va(0));
        c.access(Va(128));
        c.access(Va(0));
        let mut w = ByteWriter::new();
        c.snapshot(&mut w);

        let mut fresh = Cache::new(256, 2, 64);
        let buf = w.into_vec();
        let mut r = ByteReader::new("cache", &buf);
        fresh.restore(&mut r).expect("valid cache state");
        assert_eq!(fresh.stats(), c.stats());
        assert_eq!(fresh.len(), c.len());
        // Same next eviction decision as the original.
        assert_eq!(fresh.access(Va(256)), c.access(Va(256)));
        assert_eq!(fresh.access(Va(128)), c.access(Va(128)));
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let mut big = Cache::new(64 * 1024, 16, 64);
        big.access(Va(0));
        let mut w = ByteWriter::new();
        big.snapshot(&mut w);
        let buf = w.into_vec();
        let mut small = Cache::new(256, 2, 64);
        let mut r = ByteReader::new("cache", &buf);
        assert!(small.restore(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_a_line_in_another_set() {
        // 2 sets: line 1 belongs in set 1, but this snapshot stores it in
        // set 0, where no access or invalidation would ever look for it.
        let mut w = ByteWriter::new();
        w.u64(1); // stamp
        w.u64(0); // hits
        w.u64(1); // misses
        w.u64(2); // sets
        w.u16(1); // set 0: line 1, stamp 1
        w.u64(1);
        w.u64(1);
        w.u16(0); // set 1: empty
        let buf = w.into_vec();
        let mut c = Cache::new(256, 2, 64);
        let err = c
            .restore(&mut ByteReader::new("cache", &buf))
            .expect_err("misplaced line");
        assert!(
            err.to_string()
                .contains("line 0x1 stored in set 0 but belongs in set 1"),
            "{err}"
        );
    }

    #[test]
    fn tagged_va_maps_to_same_line_as_untagged() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(Va(0x100));
        assert!(c.access(Va(0x100 | (0x11u64 << 48))));
    }
}
