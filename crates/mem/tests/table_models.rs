//! Op-sequence tests of the page tables and the frame allocator against a
//! `BTreeMap` reference model, of the TLB against a plain per-set model
//! without its last-hit memo, and of the L2 cache against a plain per-set
//! model that drops a page line by line, driven by the in-tree
//! deterministic [`SimRng`] (the build is offline, so there is no
//! property-testing crate). After every operation (for the cache, every
//! page invalidation) the snapshot bytes must equal the model's encoding,
//! and for the tables the running digest must equal its from-scratch
//! recomputation; a snapshot -> restore round trip must leave the digest
//! or bytes unchanged. A failing case index pins the exact op sequence.

use std::collections::BTreeMap;

use oasis_engine::codec::{ByteReader, ByteWriter, Restore, Snapshot};
use oasis_engine::{SimRng, StateHasher};
use oasis_mem::cache::Cache;
use oasis_mem::frames::FrameAllocator;
use oasis_mem::page::{device_to_byte, HostEntry, HostPageTable, LocalPageTable, PolicyBits, Pte};
use oasis_mem::tlb::Tlb;
use oasis_mem::types::{DeviceId, GpuId, PageSize, Va, Vpn};

const CASES: u64 = 40;
const OPS: u64 = 300;

/// The running digest folded by `fold`, after checking that a reference
/// hasher recomputes the same value and finds no stale sum.
fn checked_digest(fold: impl Fn(&mut StateHasher)) -> u64 {
    let mut running = StateHasher::new();
    fold(&mut running);
    let mut reference = StateHasher::reference();
    fold(&mut reference);
    assert_eq!(reference.verify(), Ok(running.finish()));
    running.finish()
}

fn snapshot_bytes(t: &impl Snapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    t.snapshot(&mut w);
    w.into_vec()
}

/// Restores `bytes` into `fresh` and returns it, checking every byte was
/// consumed.
fn restored<T: Restore>(mut fresh: T, bytes: &[u8]) -> T {
    let mut r = ByteReader::new("table", bytes);
    fresh.restore(&mut r).expect("own snapshot restores");
    assert!(r.is_empty());
    fresh
}

fn device(rng: &mut SimRng) -> DeviceId {
    match rng.gen_range(0..5) {
        4 => DeviceId::Host,
        g => DeviceId::Gpu(GpuId(g as u8)),
    }
}

fn policy(rng: &mut SimRng) -> PolicyBits {
    match rng.gen_range(0..3) {
        0 => PolicyBits::OnTouch,
        1 => PolicyBits::AccessCounter,
        _ => PolicyBits::Duplication,
    }
}

fn local_model_bytes(model: &BTreeMap<u64, Pte>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(model.len() as u64);
    for (&vpn, pte) in model {
        w.u64(vpn);
        w.u8(device_to_byte(pte.location));
        w.bool(pte.writable);
        w.u8(pte.policy.bits());
    }
    w.into_vec()
}

#[test]
fn local_page_table_matches_its_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x10CA_1000 + case);
        let mut table = LocalPageTable::new();
        let mut model: BTreeMap<u64, Pte> = BTreeMap::new();
        let digest = |t: &LocalPageTable| checked_digest(|h| t.digest_into(h, format_args!("t")));
        for op in 0..OPS {
            let vpn = rng.gen_range(0..48);
            if rng.gen_range(0..3) < 2 {
                let pte = Pte {
                    location: device(&mut rng),
                    writable: rng.gen_range(0..2) == 1,
                    policy: policy(&mut rng),
                };
                table.insert(Vpn(vpn), pte);
                model.insert(vpn, pte);
            } else {
                assert_eq!(
                    table.invalidate(Vpn(vpn)),
                    model.remove(&vpn),
                    "case {case} op {op}"
                );
            }
            assert_eq!(table.len(), model.len(), "case {case} op {op}");
            assert_eq!(table.get(Vpn(vpn)), model.get(&vpn), "case {case} op {op}");
            assert_eq!(
                snapshot_bytes(&table),
                local_model_bytes(&model),
                "case {case} op {op}"
            );
            digest(&table);
        }
        let back = restored(LocalPageTable::new(), &snapshot_bytes(&table));
        assert_eq!(digest(&back), digest(&table), "case {case}");
    }
}

fn host_model_bytes(model: &BTreeMap<u64, HostEntry>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(model.len() as u64);
    for (&vpn, e) in model {
        w.u64(vpn);
        w.u8(device_to_byte(e.owner));
        w.u32(e.copy_mask);
        w.u32(e.mapper_mask);
        w.u8(e.policy.bits());
        w.u32(e.touched_by);
    }
    w.into_vec()
}

/// One random in-place edit of a host entry.
fn edit(rng: &mut SimRng) -> impl Fn(&mut HostEntry) {
    let field = rng.gen_range(0..5);
    let dev = device(rng);
    let bits = policy(rng);
    let mask = rng.gen_range(0..16) as u32;
    move |e: &mut HostEntry| match field {
        0 => e.owner = dev,
        1 => e.copy_mask = mask,
        2 => e.mapper_mask ^= mask,
        3 => e.policy = bits,
        _ => e.mark_touched(GpuId(mask as u8 % 4)),
    }
}

#[test]
fn host_page_table_matches_its_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x4057_0000 + case);
        let mut table = HostPageTable::new();
        let mut model: BTreeMap<u64, HostEntry> = BTreeMap::new();
        let digest = |t: &HostPageTable| checked_digest(|h| t.digest_into(h));
        for op in 0..OPS {
            let vpn = rng.gen_range(0..48);
            match rng.gen_range(0..4) {
                0 => {
                    let entry = HostEntry::new_at(device(&mut rng));
                    let registered = table.register(Vpn(vpn), entry).is_ok();
                    assert_eq!(registered, !model.contains_key(&vpn), "case {case} op {op}");
                    model.entry(vpn).or_insert(entry);
                }
                _ => {
                    let f = edit(&mut rng);
                    let applied = table.update(Vpn(vpn), &f);
                    assert_eq!(applied.is_some(), model.contains_key(&vpn));
                    if let Some(e) = model.get_mut(&vpn) {
                        f(e);
                    }
                }
            }
            assert_eq!(table.len(), model.len(), "case {case} op {op}");
            assert_eq!(table.get(Vpn(vpn)), model.get(&vpn), "case {case} op {op}");
            assert_eq!(
                snapshot_bytes(&table),
                host_model_bytes(&model),
                "case {case} op {op}"
            );
            digest(&table);
        }
        let back = restored(HostPageTable::new(), &snapshot_bytes(&table));
        assert_eq!(digest(&back), digest(&table), "case {case}");
    }
}

/// The frame allocator's reference model: resident pages with their
/// stamps, plus the counters a snapshot carries.
struct FramesModel {
    capacity: Option<u64>,
    resident: BTreeMap<u64, u64>,
    next_stamp: u64,
    evictions: u64,
    quarantined: u64,
}

impl FramesModel {
    fn stamp(&mut self, vpn: u64) {
        self.resident.insert(vpn, self.next_stamp);
        self.next_stamp += 1;
    }

    fn insert(&mut self, vpn: u64) -> Option<Vpn> {
        if self.resident.contains_key(&vpn) {
            self.stamp(vpn);
            return None;
        }
        let full = self
            .capacity
            .is_some_and(|cap| self.resident.len() as u64 >= cap.saturating_sub(self.quarantined));
        let victim = if full {
            let lru = self
                .resident
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(&v, _)| v);
            lru.inspect(|v| {
                self.resident.remove(v);
                self.evictions += 1;
            })
        } else {
            None
        };
        self.stamp(vpn);
        victim.map(Vpn)
    }

    fn bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.next_stamp);
        w.u64(self.evictions);
        w.u64(self.quarantined);
        w.u64(self.resident.len() as u64);
        let mut by_stamp: Vec<(u64, u64)> = self.resident.iter().map(|(&v, &s)| (s, v)).collect();
        by_stamp.sort_unstable();
        for (stamp, vpn) in by_stamp {
            w.u64(stamp);
            w.u64(vpn);
        }
        w.into_vec()
    }
}

#[test]
fn frame_allocator_matches_its_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xF4A3_0000 + case);
        let capacity = (case % 3 != 0).then(|| rng.gen_range(2..24));
        let mut frames = FrameAllocator::new(capacity);
        let mut model = FramesModel {
            capacity,
            resident: BTreeMap::new(),
            next_stamp: 0,
            evictions: 0,
            quarantined: 0,
        };
        let digest = |f: &FrameAllocator| checked_digest(|h| f.digest_into(h, format_args!("f")));
        for op in 0..OPS {
            let vpn = rng.gen_range(0..40);
            match rng.gen_range(0..10) {
                0..=3 => assert_eq!(
                    frames.insert(Vpn(vpn)),
                    model.insert(vpn),
                    "case {case} op {op}"
                ),
                4..=6 => {
                    frames.touch(Vpn(vpn));
                    if model.resident.contains_key(&vpn) {
                        model.stamp(vpn);
                    }
                }
                7 => assert_eq!(
                    frames.remove(Vpn(vpn)),
                    model.resident.remove(&vpn).is_some(),
                    "case {case} op {op}"
                ),
                8 if model.quarantined < 2 => {
                    let hit = model.resident.remove(&vpn).is_some();
                    model.quarantined += u64::from(hit);
                    assert_eq!(frames.quarantine(Vpn(vpn)), hit, "case {case} op {op}");
                }
                _ => {
                    let before = digest(&frames);
                    frames.settle_digest();
                    assert_eq!(digest(&frames), before, "settling changed the digest");
                }
            }
            assert_eq!(frames.resident(), model.resident.len() as u64);
            assert_eq!(
                snapshot_bytes(&frames),
                model.bytes(),
                "case {case} op {op}"
            );
            digest(&frames);
        }
        let back = restored(FrameAllocator::new(capacity), &snapshot_bytes(&frames));
        assert_eq!(digest(&back), digest(&frames), "case {case}");
    }
}

/// The snapshot layout the TLB and the L2 cache share: the counters, then
/// each set's `(key, stamp)` lines in order.
fn per_set_bytes(stamp: u64, hits: u64, misses: u64, sets: &[Vec<(u64, u64)>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(stamp);
    w.u64(hits);
    w.u64(misses);
    w.u64(sets.len() as u64);
    for set in sets {
        w.u16(set.len() as u16);
        for &(key, stamp) in set {
            w.u64(key);
            w.u64(stamp);
        }
    }
    w.into_vec()
}

/// The TLB's reference model: each set a plain list of `(vpn, stamp)`
/// lines, scanned on every lookup, evicting the least recently used line
/// with the same swap-remove as the TLB.
struct TlbModel {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl TlbModel {
    fn new(entries: usize, ways: usize) -> Self {
        TlbModel {
            sets: vec![Vec::new(); entries / ways],
            ways,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, vpn: u64) -> &mut Vec<(u64, u64)> {
        let n = self.sets.len();
        &mut self.sets[vpn as usize % n]
    }

    fn access(&mut self, vpn: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let line = self.set(vpn).iter_mut().find(|(v, _)| *v == vpn);
        let hit = line.map(|l| l.1 = stamp).is_some();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn fill(&mut self, vpn: u64) -> Option<Vpn> {
        self.stamp += 1;
        let (stamp, ways) = (self.stamp, self.ways);
        let set = self.set(vpn);
        if let Some(line) = set.iter_mut().find(|(v, _)| *v == vpn) {
            line.1 = stamp;
            return None;
        }
        let evicted = (set.len() == ways).then(|| {
            let lru = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
            set.swap_remove(lru).0
        });
        set.push((vpn, stamp));
        evicted.map(Vpn)
    }

    fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set(vpn);
        let pos = set.iter().position(|(v, _)| *v == vpn);
        pos.map(|p| set.swap_remove(p)).is_some()
    }

    fn bytes(&self) -> Vec<u8> {
        per_set_bytes(self.stamp, self.hits, self.misses, &self.sets)
    }
}

#[test]
fn tlb_matches_its_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x71B0_0000 + case);
        let (entries, ways) = [(16, 4), (8, 8), (32, 2), (4, 1)][case as usize % 4];
        let mut tlb = Tlb::new(entries, ways);
        let mut model = TlbModel::new(entries, ways);
        let vpns = 2 * entries as u64;
        let mut vpn = 0;
        for op in 0..OPS {
            // Repeat the last page half the time, as consecutive
            // transactions do, so the memo is live for most operations.
            if rng.gen_range(0..2) == 0 {
                vpn = rng.gen_range(0..vpns);
            }
            match rng.gen_range(0..20) {
                0..=5 => assert_eq!(
                    tlb.access(Vpn(vpn)),
                    model.access(vpn),
                    "case {case} op {op}: access {vpn}"
                ),
                6..=9 => {
                    // A lookup that fills on a miss, as a GPU's translate
                    // does, through the fill path that skips the set scan.
                    let hit = tlb.access(Vpn(vpn));
                    assert_eq!(hit, model.access(vpn), "case {case} op {op}: access {vpn}");
                    if !hit {
                        assert_eq!(
                            tlb.fill_missed(Vpn(vpn)),
                            model.fill(vpn),
                            "case {case} op {op}: fill after a miss on {vpn}"
                        );
                    }
                }
                10..=14 => assert_eq!(
                    tlb.fill(Vpn(vpn)),
                    model.fill(vpn),
                    "case {case} op {op}: fill {vpn}"
                ),
                15..=18 => assert_eq!(
                    tlb.invalidate(Vpn(vpn)),
                    model.invalidate(vpn),
                    "case {case} op {op}: invalidate {vpn}"
                ),
                _ => {
                    // Empty it, one shootdown per cached translation.
                    let cached: Vec<Vpn> = tlb.cached_vpns().collect();
                    for v in cached {
                        assert!(tlb.invalidate(v), "case {case} op {op}: drop {v:?}");
                    }
                    model.sets.iter_mut().for_each(Vec::clear);
                }
            }
            assert_eq!(
                tlb.stats(),
                (model.hits, model.misses),
                "case {case} op {op}"
            );
            assert_eq!(
                tlb.len(),
                model.sets.iter().map(Vec::len).sum::<usize>(),
                "case {case} op {op}"
            );
            assert_eq!(snapshot_bytes(&tlb), model.bytes(), "case {case} op {op}");
        }
        let back = restored(Tlb::new(entries, ways), &snapshot_bytes(&tlb));
        assert_eq!(snapshot_bytes(&back), model.bytes(), "case {case}");
    }
}

/// The L2 cache's reference model: each set a plain list of
/// `(line, stamp)` pairs, evicting the least recently used line with the
/// same swap-remove as the cache, and a page invalidation that looks up
/// each of the page's lines in turn, lowest address first.
struct CacheModel {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl CacheModel {
    const LINE_SHIFT: u32 = 6;

    fn new(capacity: u64, ways: usize) -> Self {
        let lines = (capacity >> Self::LINE_SHIFT) as usize;
        CacheModel {
            sets: vec![Vec::new(); lines / ways],
            ways,
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, u64)> {
        let n = self.sets.len();
        &mut self.sets[line as usize % n]
    }

    fn access(&mut self, va: u64) -> bool {
        let line = va >> Self::LINE_SHIFT;
        self.stamp += 1;
        let (stamp, ways) = (self.stamp, self.ways);
        let set = self.set(line);
        if let Some(l) = set.iter_mut().find(|(a, _)| *a == line) {
            l.1 = stamp;
            self.hits += 1;
            return true;
        }
        if set.len() == ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
            set.swap_remove(lru);
        }
        set.push((line, stamp));
        self.misses += 1;
        false
    }

    fn invalidate_page(&mut self, vpn: u64, page: PageSize) -> usize {
        let first = (vpn << page.shift()) >> Self::LINE_SHIFT;
        let lines = page.bytes() >> Self::LINE_SHIFT;
        let mut dropped = 0;
        for line in first..first + lines {
            let set = self.set(line);
            if let Some(pos) = set.iter().position(|(a, _)| *a == line) {
                set.swap_remove(pos);
                dropped += 1;
            }
        }
        dropped
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn bytes(&self) -> Vec<u8> {
        per_set_bytes(self.stamp, self.hits, self.misses, &self.sets)
    }
}

#[test]
fn cache_matches_its_model() {
    // Table I's L2, a smaller one, and one so small that a 4 KiB page
    // also spans every set, each at both page sizes.
    const GEOMETRIES: [(u64, usize); 3] = [(256 * 1024, 16), (64 * 1024, 4), (1024, 2)];
    const PAGES: [PageSize; 2] = [PageSize::Small4K, PageSize::Large2M];
    const ROUNDS: u64 = 24;
    for case in 0..18 {
        let mut rng = SimRng::seed_from_u64(0xCAC4_0000 + case);
        let (capacity, ways) = GEOMETRIES[case as usize % 3];
        let page = PAGES[case as usize / 3 % 2];
        let mut cache = Cache::new(capacity, ways, 64);
        let mut model = CacheModel::new(capacity, ways);
        // Four pages, or enough of them to hold four times the cache, so
        // sets fill and evict and hold several lines of one page.
        let pages = (4 * capacity / page.bytes()).max(4);
        let region = pages * page.bytes();
        let lines = capacity >> CacheModel::LINE_SHIFT;
        let mut va = 0;
        for round in 0..ROUNDS {
            for op in 0..rng.gen_range(0..2 * lines + 64) {
                // Stay near the last line half the time, so lines hit.
                va = if rng.gen_range(0..2) == 0 {
                    (va + rng.gen_range(0..4) * 64) % region
                } else {
                    rng.gen_range(0..region)
                };
                assert_eq!(
                    cache.access(Va(va)),
                    model.access(va),
                    "case {case} round {round} op {op}: access {va:#x}"
                );
            }
            assert_eq!(
                cache.stats(),
                (model.hits, model.misses),
                "case {case} round {round}"
            );
            let vpn = rng.gen_range(0..pages);
            assert_eq!(
                cache.invalidate_page(Vpn(vpn), page),
                model.invalidate_page(vpn, page),
                "case {case} round {round}: invalidate {vpn} ({page:?})"
            );
            assert_eq!(cache.len(), model.len(), "case {case} round {round}");
            assert_eq!(
                snapshot_bytes(&cache),
                model.bytes(),
                "case {case} round {round}"
            );
        }
        let back = restored(Cache::new(capacity, ways, 64), &snapshot_bytes(&cache));
        assert_eq!(snapshot_bytes(&back), model.bytes(), "case {case}");
    }
}
