//! Per-device physical-frame accounting with LRU residency tracking.
//!
//! GPUs have finite local memory (4 GB in Table I). Under oversubscription
//! (§VI-D of the paper) migrating a page into a full GPU first evicts the
//! least-recently-used resident page back to the host. This structure tracks
//! which virtual pages are resident on a device and in what recency order.
//!
//! Recency lives in a slot arena threaded by an intrusive doubly-linked
//! list (head = LRU, tail = MRU): `touch` is an O(1) unlink/relink instead
//! of the ordered-map remove+insert it replaces, which matters because the
//! simulator touches the allocator on every local access. Stamps are
//! assigned monotonically and only ever at the list tail, so list order and
//! stamp order are the same order — snapshots serialize the list front to
//! back and produce exactly the stamp-sorted byte stream of the old layout.
//!
//! The state digest covers the resident `(vpn, stamp)` pairs through a
//! running [`SetDigest`] of the pages stamped before a *settle point*.
//! Pages stamped since then form the MRU end of the list (stamps are only
//! assigned at the tail), so the digest adds them by walking back from the
//! tail, and [`FrameAllocator::settle_digest`] folds them into the sum at
//! each epoch boundary. A touch therefore costs one comparison, plus one
//! hash the first time a page is touched after a settle.

use std::fmt;

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::digest::{entry_hash, SetDigest, StateHasher};
use oasis_engine::FxHashMap;

use crate::types::Vpn;

/// Null link in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// One arena slot: a page this device has ever held, with its residency
/// and LRU-list state. Slots are never freed — a page that loses residency
/// keeps its slot (cheap: a few words) and reuses it if it returns.
#[derive(Debug, Clone, Copy)]
struct Slot {
    vpn: Vpn,
    stamp: u64,
    prev: u32,
    next: u32,
    resident: bool,
}

/// Tracks the set of pages resident in one device's memory, in LRU order.
///
/// # Example
///
/// ```
/// use oasis_mem::{FrameAllocator, Vpn};
///
/// let mut frames = FrameAllocator::new(Some(2));
/// frames.insert(Vpn(1));
/// frames.insert(Vpn(2));
/// // The device is full: inserting evicts the LRU page.
/// assert_eq!(frames.insert(Vpn(3)), Some(Vpn(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Maximum resident pages; `None` = unlimited (the host).
    capacity_pages: Option<u64>,
    /// vpn -> slot id (persists across residency changes).
    index: FxHashMap<Vpn, u32>,
    /// The slot arena; resident slots are threaded onto the LRU list.
    slots: Vec<Slot>,
    /// LRU end of the list (first eviction victim); `NIL` when empty.
    head: u32,
    /// MRU end of the list; `NIL` when empty.
    tail: u32,
    resident_count: u64,
    next_stamp: u64,
    evictions: u64,
    /// Frames retired after ECC poisoning; each reduces the effective
    /// capacity by one for the rest of the run.
    quarantined: u64,
    /// Running digest of the resident pages stamped before `settled`.
    sum: SetDigest,
    /// The settle point: resident pages with a stamp at or above it are
    /// not in `sum` and sit at the MRU end of the list.
    settled: u64,
}

impl FrameAllocator {
    /// Creates an allocator holding at most `capacity_pages` pages, or
    /// unlimited if `None`.
    pub fn new(capacity_pages: Option<u64>) -> Self {
        FrameAllocator {
            capacity_pages,
            index: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_count: 0,
            next_stamp: 0,
            evictions: 0,
            quarantined: 0,
            sum: SetDigest::default(),
            settled: 0,
        }
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> u64 {
        self.resident_count
    }

    /// Configured capacity.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity_pages
    }

    /// True if `vpn` is resident.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.index
            .get(&vpn)
            .is_some_and(|&s| self.slots[s as usize].resident)
    }

    /// Capacity after subtracting quarantined frames; `None` = unlimited.
    pub fn effective_capacity(&self) -> Option<u64> {
        self.capacity_pages
            .map(|cap| cap.saturating_sub(self.quarantined))
    }

    /// True if inserting one more page would exceed the effective capacity.
    pub fn is_full(&self) -> bool {
        self.effective_capacity()
            .is_some_and(|cap| self.resident() >= cap)
    }

    /// True if no usable frame remains at all: every configured frame is
    /// quarantined, so nothing can ever be made resident.
    pub fn out_of_frames(&self) -> bool {
        self.effective_capacity() == Some(0)
    }

    /// Retires the frame holding `vpn` after an ECC poison event: the page
    /// loses residency and the frame is permanently removed from the
    /// usable pool. Returns whether the page was resident.
    pub fn quarantine(&mut self, vpn: Vpn) -> bool {
        let present = self.remove(vpn);
        if present {
            self.quarantined += 1;
        }
        present
    }

    /// Number of frames quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Marks `vpn` resident (or refreshes its recency if already resident).
    ///
    /// If the device is full, the LRU page is evicted first and returned;
    /// the caller is responsible for migrating its data and fixing page
    /// tables.
    pub fn insert(&mut self, vpn: Vpn) -> Option<Vpn> {
        if let Some(&s) = self.index.get(&vpn) {
            if self.slots[s as usize].resident {
                self.refresh(s);
                return None;
            }
        }
        let victim = if self.is_full() && self.head != NIL {
            // A full device necessarily has a list head; the NIL check is
            // the graceful fall-through for a zero-capacity allocator.
            let h = self.head;
            self.unlink(h);
            self.slots[h as usize].resident = false;
            self.resident_count -= 1;
            self.evictions += 1;
            self.forget(h);
            Some(self.slots[h as usize].vpn)
        } else {
            None
        };
        let s = self.slot_for(vpn);
        let stamp = self.bump();
        self.slots[s as usize].stamp = stamp;
        self.slots[s as usize].resident = true;
        self.link_tail(s);
        self.resident_count += 1;
        victim
    }

    /// Refreshes `vpn`'s recency (it was just accessed). No-op if absent.
    pub fn touch(&mut self, vpn: Vpn) {
        if let Some(&s) = self.index.get(&vpn) {
            if self.slots[s as usize].resident {
                self.refresh(s);
            }
        }
    }

    /// Removes `vpn` from residency (migrated away / freed). Returns whether
    /// it was present.
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        if let Some(&s) = self.index.get(&vpn) {
            if self.slots[s as usize].resident {
                self.unlink(s);
                self.slots[s as usize].resident = false;
                self.resident_count -= 1;
                self.forget(s);
                return true;
            }
        }
        false
    }

    /// The current LRU page, if any.
    pub fn lru(&self) -> Option<Vpn> {
        (self.head != NIL).then(|| self.slots[self.head as usize].vpn)
    }

    /// Number of capacity evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterates over all resident pages (arbitrary order). Used by the
    /// sim-guard checker to reconcile allocator state with page tables.
    pub fn pages(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.slots.iter().filter(|s| s.resident).map(|s| s.vpn)
    }

    /// Iterates over all resident pages in recency order (LRU first).
    /// Deterministic across runs, which makes it the index space for
    /// seed-driven ECC victim selection.
    pub fn pages_by_recency(&self) -> impl Iterator<Item = Vpn> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&s| {
            let n = self.slots[s as usize].next;
            (n != NIL).then_some(n)
        })
        .map(move |s| self.slots[s as usize].vpn)
    }

    /// Folds the allocator into a state digest under `name`: its counters
    /// and the digest of its resident pages, or a recomputation over every
    /// resident page for a reference hasher.
    pub fn digest_into(&self, h: &mut StateHasher, name: fmt::Arguments<'_>) {
        h.word(self.next_stamp);
        h.word(self.evictions);
        h.word(self.quarantined);
        h.table(
            name,
            self.resident_count as usize,
            self.running_sum(),
            || {
                self.slots
                    .iter()
                    .filter(|s| s.resident)
                    .map(|s| frame_hash(s.vpn, s.stamp))
                    .collect()
            },
        );
    }

    /// Folds the pages stamped since the last settle into the running
    /// digest sum, so the next digest need not walk them. The simulator
    /// calls this at every epoch boundary; skipping it costs time, not
    /// correctness.
    pub fn settle_digest(&mut self) {
        self.sum = self.running_sum();
        self.settled = self.next_stamp;
    }

    /// The digest of every resident page: the settled sum plus the pages
    /// stamped since, which are the MRU end of the list, walked back from
    /// the tail.
    fn running_sum(&self) -> SetDigest {
        let mut sum = self.sum;
        let mut s = self.tail;
        while s != NIL && self.slots[s as usize].stamp >= self.settled {
            let slot = &self.slots[s as usize];
            sum.add(frame_hash(slot.vpn, slot.stamp));
            s = slot.prev;
        }
        sum
    }

    /// Takes slot `s`, which is leaving its stamp behind, out of the
    /// running sum if that stamp was settled.
    #[inline]
    fn forget(&mut self, s: u32) {
        let slot = &self.slots[s as usize];
        if slot.stamp < self.settled {
            self.sum.remove(frame_hash(slot.vpn, slot.stamp));
        }
    }

    /// Re-stamps resident slot `s` as most recent: unlink, bump, relink at
    /// the tail. O(1), replacing the old ordered-map remove+insert.
    fn refresh(&mut self, s: u32) {
        self.forget(s);
        self.unlink(s);
        let stamp = self.bump();
        self.slots[s as usize].stamp = stamp;
        self.link_tail(s);
    }

    /// The arena slot for `vpn`, allocating one on first sight.
    fn slot_for(&mut self, vpn: Vpn) -> u32 {
        if let Some(&s) = self.index.get(&vpn) {
            return s;
        }
        let s = u32::try_from(self.slots.len()).expect("frame arena exceeds u32 slots");
        self.slots.push(Slot {
            vpn,
            stamp: 0,
            prev: NIL,
            next: NIL,
            resident: false,
        });
        self.index.insert(vpn, s);
        s
    }

    fn unlink(&mut self, s: u32) {
        let (p, n) = {
            let slot = &self.slots[s as usize];
            (slot.prev, slot.next)
        };
        if p == NIL {
            self.head = n;
        } else {
            self.slots[p as usize].next = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.slots[n as usize].prev = p;
        }
        self.slots[s as usize].prev = NIL;
        self.slots[s as usize].next = NIL;
    }

    fn link_tail(&mut self, s: u32) {
        self.slots[s as usize].prev = self.tail;
        self.slots[s as usize].next = NIL;
        if self.tail == NIL {
            self.head = s;
        } else {
            self.slots[self.tail as usize].next = s;
        }
        self.tail = s;
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }
}

/// Digest hash of one resident page.
#[inline]
fn frame_hash(vpn: Vpn, stamp: u64) -> u64 {
    entry_hash([vpn.0, stamp])
}

impl Snapshot for FrameAllocator {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.next_stamp);
        w.u64(self.evictions);
        w.u64(self.quarantined);
        // Stamps are only ever assigned at the list tail and increase
        // monotonically, so walking the list front to back emits the
        // (stamp, vpn) pairs in ascending stamp order — the exact byte
        // stream the previous ordered-map layout produced.
        w.u64(self.resident_count);
        let mut s = self.head;
        while s != NIL {
            let slot = &self.slots[s as usize];
            w.u64(slot.stamp);
            w.u64(slot.vpn.0);
            s = slot.next;
        }
    }
}

impl Restore for FrameAllocator {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        // Capacity is configuration, not state; it stays as constructed.
        self.next_stamp = r.u64()?;
        self.evictions = r.u64()?;
        self.quarantined = r.u64()?;
        if self
            .capacity_pages
            .is_some_and(|cap| self.quarantined > cap)
        {
            return Err(r.malformed(format!(
                "{} quarantined frames exceed capacity {:?}",
                self.quarantined, self.capacity_pages
            )));
        }
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.resident_count = 0;
        // Nothing settled: the first digest walks every restored page.
        self.sum = SetDigest::default();
        self.settled = 0;
        let n = r.usize()?;
        // Accept pairs in any order (matching the old map-based restore):
        // collect, validate, then rebuild the list in ascending stamp order.
        let mut pairs: Vec<(u64, Vpn)> = Vec::with_capacity(n);
        for _ in 0..n {
            let stamp = r.u64()?;
            let vpn = Vpn(r.u64()?);
            if stamp >= self.next_stamp {
                return Err(r.malformed(format!(
                    "stamp {stamp} not below next_stamp {}",
                    self.next_stamp
                )));
            }
            pairs.push((stamp, vpn));
        }
        pairs.sort_unstable_by_key(|&(stamp, _)| stamp);
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(r.malformed(format!("duplicate resident page {:?}", w[1].1)));
            }
        }
        for (stamp, vpn) in pairs {
            if self.contains(vpn) {
                return Err(r.malformed(format!("duplicate resident page {vpn:?}")));
            }
            let s = self.slot_for(vpn);
            self.slots[s as usize].stamp = stamp;
            self.slots[s as usize].resident = true;
            self.link_tail(s);
            self.resident_count += 1;
        }
        if self
            .effective_capacity()
            .is_some_and(|cap| self.resident() > cap)
        {
            return Err(r.malformed(format!(
                "{} resident pages exceed effective capacity {:?}",
                self.resident(),
                self.effective_capacity()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;

    #[test]
    fn unlimited_never_evicts() {
        let mut f = FrameAllocator::new(None);
        for i in 0..10_000 {
            assert_eq!(f.insert(Vpn(i)), None);
        }
        assert_eq!(f.resident(), 10_000);
        assert!(!f.is_full());
        assert_eq!(f.evictions(), 0);
    }

    #[test]
    fn evicts_lru_when_full() {
        let mut f = FrameAllocator::new(Some(3));
        f.insert(Vpn(1));
        f.insert(Vpn(2));
        f.insert(Vpn(3));
        assert!(f.is_full());
        f.touch(Vpn(1)); // 2 is now LRU
        assert_eq!(f.insert(Vpn(4)), Some(Vpn(2)));
        assert!(f.contains(Vpn(1)));
        assert!(!f.contains(Vpn(2)));
        assert_eq!(f.evictions(), 1);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut f = FrameAllocator::new(Some(2));
        f.insert(Vpn(1));
        f.insert(Vpn(2));
        assert_eq!(f.insert(Vpn(1)), None); // refresh, no eviction
        assert_eq!(f.insert(Vpn(3)), Some(Vpn(2))); // 2 was LRU after refresh
    }

    #[test]
    fn remove_frees_capacity() {
        let mut f = FrameAllocator::new(Some(1));
        f.insert(Vpn(1));
        assert!(f.remove(Vpn(1)));
        assert!(!f.remove(Vpn(1)));
        assert_eq!(f.insert(Vpn(2)), None);
    }

    #[test]
    fn lru_reports_oldest() {
        let mut f = FrameAllocator::new(Some(10));
        assert_eq!(f.lru(), None);
        f.insert(Vpn(5));
        f.insert(Vpn(6));
        assert_eq!(f.lru(), Some(Vpn(5)));
        f.touch(Vpn(5));
        assert_eq!(f.lru(), Some(Vpn(6)));
    }

    #[test]
    fn touch_absent_is_noop() {
        let mut f = FrameAllocator::new(Some(2));
        f.touch(Vpn(9));
        assert_eq!(f.resident(), 0);
    }

    #[test]
    fn capacity_accessor() {
        assert_eq!(FrameAllocator::new(Some(7)).capacity(), Some(7));
        assert_eq!(FrameAllocator::new(None).capacity(), None);
    }

    #[test]
    fn recency_iteration_walks_lru_to_mru() {
        let mut f = FrameAllocator::new(None);
        f.insert(Vpn(1));
        f.insert(Vpn(2));
        f.insert(Vpn(3));
        f.touch(Vpn(1));
        let order: Vec<_> = f.pages_by_recency().collect();
        assert_eq!(order, vec![Vpn(2), Vpn(3), Vpn(1)]);
        // Removal splices the list without disturbing neighbors.
        f.remove(Vpn(3));
        let order: Vec<_> = f.pages_by_recency().collect();
        assert_eq!(order, vec![Vpn(2), Vpn(1)]);
    }

    #[test]
    fn snapshot_preserves_lru_order_and_counters() {
        let mut f = FrameAllocator::new(Some(3));
        f.insert(Vpn(1));
        f.insert(Vpn(2));
        f.insert(Vpn(3));
        f.touch(Vpn(1));
        f.insert(Vpn(4)); // evicts 2
        let mut w = ByteWriter::new();
        f.snapshot(&mut w);

        let mut g = FrameAllocator::new(Some(3));
        let buf = w.into_vec();
        let mut r = ByteReader::new("frames", &buf);
        g.restore(&mut r).expect("valid frame state");
        assert_eq!(g.resident(), f.resident());
        assert_eq!(g.evictions(), 1);
        assert_eq!(g.lru(), f.lru());
        // The restored allocator evicts the same victim next.
        assert_eq!(g.insert(Vpn(9)), f.insert(Vpn(9)));
    }

    #[test]
    fn snapshot_of_identical_states_is_bit_identical() {
        let build = || {
            let mut f = FrameAllocator::new(None);
            for i in (0..64).rev() {
                f.insert(Vpn(i));
            }
            f
        };
        let mut a = ByteWriter::new();
        build().snapshot(&mut a);
        let mut b = ByteWriter::new();
        build().snapshot(&mut b);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn restore_accepts_pairs_in_any_stream_order() {
        // The map-based layout serialized ascending but restored from any
        // order; the arena keeps that tolerance for hand-built streams.
        let mut w = ByteWriter::new();
        w.u64(10); // next_stamp
        w.u64(0); // evictions
        w.u64(0); // quarantined
        w.u64(3); // count
        for (stamp, vpn) in [(7u64, 3u64), (2, 1), (5, 2)] {
            w.u64(stamp);
            w.u64(vpn);
        }
        let buf = w.into_vec();
        let mut f = FrameAllocator::new(None);
        let mut r = ByteReader::new("frames", &buf);
        f.restore(&mut r).expect("valid state");
        let order: Vec<_> = f.pages_by_recency().collect();
        assert_eq!(order, vec![Vpn(1), Vpn(2), Vpn(3)]);
        assert_eq!(f.lru(), Some(Vpn(1)));
    }

    #[test]
    fn quarantine_shrinks_effective_capacity() {
        let mut f = FrameAllocator::new(Some(3));
        f.insert(Vpn(1));
        f.insert(Vpn(2));
        f.insert(Vpn(3));
        assert!(f.quarantine(Vpn(2)));
        assert!(!f.quarantine(Vpn(2)), "already gone");
        assert_eq!(f.quarantined(), 1);
        assert_eq!(f.effective_capacity(), Some(2));
        assert!(!f.contains(Vpn(2)));
        assert!(f.is_full(), "2 resident pages fill 2 usable frames");
        // Inserting now evicts the LRU survivor, not the quarantined slot.
        assert_eq!(f.insert(Vpn(4)), Some(Vpn(1)));
        // Quarantining everything leaves the device unusable.
        f.quarantine(Vpn(3));
        f.quarantine(Vpn(4));
        assert!(f.out_of_frames());
        assert_eq!(f.resident(), 0);
        // Unlimited allocators track the count but never run out.
        let mut host = FrameAllocator::new(None);
        host.insert(Vpn(7));
        host.quarantine(Vpn(7));
        assert_eq!(host.quarantined(), 1);
        assert!(!host.out_of_frames());
    }

    #[test]
    fn quarantine_survives_snapshot_and_guards_restore() {
        let mut f = FrameAllocator::new(Some(3));
        f.insert(Vpn(1));
        f.insert(Vpn(2));
        f.quarantine(Vpn(1));
        let mut w = ByteWriter::new();
        f.snapshot(&mut w);
        let buf = w.into_vec();
        let mut g = FrameAllocator::new(Some(3));
        let mut r = ByteReader::new("frames", &buf);
        g.restore(&mut r).expect("valid state");
        assert_eq!(g.quarantined(), 1);
        assert_eq!(g.effective_capacity(), Some(2));
        // More quarantined frames than the target's capacity is rejected.
        let mut tiny = FrameAllocator::new(Some(0));
        let mut r = ByteReader::new("frames", &buf);
        assert!(tiny.restore(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_overfull_state() {
        let mut big = FrameAllocator::new(None);
        for i in 0..8 {
            big.insert(Vpn(i));
        }
        let mut w = ByteWriter::new();
        big.snapshot(&mut w);
        let buf = w.into_vec();
        let mut tiny = FrameAllocator::new(Some(2));
        let mut r = ByteReader::new("frames", &buf);
        assert!(tiny.restore(&mut r).is_err());
    }

    #[test]
    fn restore_rejects_duplicate_pages_and_stamps() {
        let encode = |pairs: &[(u64, u64)]| {
            let mut w = ByteWriter::new();
            w.u64(100);
            w.u64(0);
            w.u64(0);
            w.u64(pairs.len() as u64);
            for &(stamp, vpn) in pairs {
                w.u64(stamp);
                w.u64(vpn);
            }
            w.into_vec()
        };
        let mut f = FrameAllocator::new(None);
        let buf = encode(&[(1, 10), (2, 10)]); // same page twice
        let mut r = ByteReader::new("frames", &buf);
        assert!(f.restore(&mut r).is_err());
        let buf = encode(&[(3, 10), (3, 11)]); // same stamp twice
        let mut r = ByteReader::new("frames", &buf);
        assert!(f.restore(&mut r).is_err());
    }
}
