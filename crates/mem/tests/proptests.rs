//! Randomized property tests for the memory-hierarchy building blocks,
//! driven by the in-tree deterministic [`SimRng`] (the build environment is
//! offline, so no external property-testing framework is available). Each
//! test sweeps many seeded cases; a failing case index pins the exact input.

use oasis_engine::SimRng;
use oasis_mem::cache::Cache;
use oasis_mem::frames::FrameAllocator;
use oasis_mem::layout::{AddressSpace, OBJECT_ALIGN};
use oasis_mem::tlb::Tlb;
use oasis_mem::types::{PageSize, Va, Vpn};
use std::collections::HashSet;

const CASES: u64 = 48;

/// The TLB never exceeds capacity and `contains` agrees with
/// access-hit behaviour under arbitrary fill/invalidate sequences.
#[test]
fn tlb_capacity_and_consistency() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x71B0 + case);
        let n = rng.gen_range(1..300) as usize;
        let mut tlb = Tlb::new(16, 4);
        let mut shadow: HashSet<u64> = HashSet::new();
        for _ in 0..n {
            let op = rng.gen_range(0..3);
            let vpn = rng.gen_range(0..64);
            match op {
                0 => {
                    let evicted = tlb.fill(Vpn(vpn));
                    shadow.insert(vpn);
                    if let Some(e) = evicted {
                        shadow.remove(&e.0);
                    }
                }
                1 => {
                    let hit = tlb.access(Vpn(vpn));
                    assert_eq!(hit, shadow.contains(&vpn), "case {case}");
                }
                _ => {
                    tlb.invalidate(Vpn(vpn));
                    shadow.remove(&vpn);
                }
            }
            assert!(tlb.len() <= tlb.capacity(), "case {case}");
            assert_eq!(tlb.len(), shadow.len(), "case {case}");
        }
    }
}

/// A full TLB set always evicts its least-recently-used entry.
#[test]
fn tlb_evicts_lru() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x1B0E + case);
        let extra = rng.gen_range(0..1000);
        // Fully associative 8-entry TLB.
        let mut tlb = Tlb::new(8, 8);
        for i in 0..8u64 {
            tlb.fill(Vpn(i));
        }
        // Touch everything except `victim`.
        let victim = extra % 8;
        for i in 0..8u64 {
            if i != victim {
                tlb.access(Vpn(i));
            }
        }
        let evicted = tlb.fill(Vpn(1000 + extra));
        assert_eq!(evicted, Some(Vpn(victim)), "case {case}");
    }
}

/// Frame allocator: capacity is never exceeded; eviction only happens
/// at capacity; LRU victim is correct.
#[test]
fn frames_respect_capacity() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xF4A3 + case);
        let cap = rng.gen_range(1..16);
        let n = rng.gen_range(1..200) as usize;
        let mut f = FrameAllocator::new(Some(cap));
        for _ in 0..n {
            let vpn = rng.gen_range(0..64);
            let victim = f.insert(Vpn(vpn));
            assert!(f.resident() <= cap, "case {case}");
            if let Some(v) = victim {
                assert_ne!(v.0, vpn, "case {case}: never evicts what it inserts");
                assert!(!f.contains(v), "case {case}");
            }
            assert!(f.contains(Vpn(vpn)), "case {case}");
        }
    }
}

/// Frame allocator under sustained pressure: with a working set far larger
/// than capacity, every insert past the warm-up evicts exactly the LRU
/// page, the eviction counter advances in lockstep, and the resident set
/// always matches the most-recently-used window.
#[test]
fn frames_under_pressure_evict_strict_lru() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x9E55 + case);
        let cap = rng.gen_range(2..8);
        let mut f = FrameAllocator::new(Some(cap));
        let mut lru_shadow: Vec<u64> = Vec::new(); // front = LRU
        let mut expected_evictions = 0u64;
        for step in 0..400u64 {
            // Skew toward new pages so the allocator is always saturated.
            let vpn = rng.gen_range(0..1_000_000);
            let already = lru_shadow.contains(&vpn);
            let victim = f.insert(Vpn(vpn));
            if already {
                lru_shadow.retain(|&v| v != vpn);
                lru_shadow.push(vpn);
                assert_eq!(
                    victim, None,
                    "case {case} step {step}: refresh must not evict"
                );
            } else {
                if lru_shadow.len() as u64 == cap {
                    let expect_victim = lru_shadow.remove(0);
                    expected_evictions += 1;
                    assert_eq!(
                        victim,
                        Some(Vpn(expect_victim)),
                        "case {case} step {step}: wrong LRU victim"
                    );
                } else {
                    assert_eq!(victim, None, "case {case} step {step}");
                }
                lru_shadow.push(vpn);
            }
            assert_eq!(
                f.resident(),
                lru_shadow.len() as u64,
                "case {case} step {step}"
            );
            assert_eq!(f.evictions(), expected_evictions, "case {case} step {step}");
            assert_eq!(f.lru(), lru_shadow.first().map(|&v| Vpn(v)), "case {case}");
        }
        // The whole resident set is enumerable and consistent.
        let mut resident: Vec<u64> = f.pages().map(|v| v.0).collect();
        resident.sort_unstable();
        let mut expected = lru_shadow.clone();
        expected.sort_unstable();
        assert_eq!(resident, expected, "case {case}");
    }
}

/// Cache: line residency is idempotent — a hit right after any access
/// to the same address is guaranteed.
#[test]
fn cache_access_then_hit() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xCAC4 + case);
        let n = rng.gen_range(1..200) as usize;
        let mut c = Cache::new(16 * 1024, 4, 64);
        for _ in 0..n {
            let a = rng.gen_range(0..1_000_000);
            c.access(Va(a));
            assert!(c.access(Va(a)), "case {case}: immediate re-access must hit");
        }
    }
}

/// Address space: objects are 2 MiB-aligned, keep their sizes, and never
/// overlap.
#[test]
fn address_space_objects_disjoint() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xAD52 + case);
        let n = rng.gen_range(1..40) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..8_000_000)).collect();
        let mut space = AddressSpace::new();
        let ids: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| space.alloc(format!("o{i}"), *s))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let o = space.object(*id);
            assert_eq!((o.id, o.size), (*id, sizes[i]), "case {case}");
            assert_eq!(o.base.0 % OBJECT_ALIGN, 0, "case {case}");
            // No overlap with the next object.
            if i + 1 < ids.len() {
                let next = space.object(ids[i + 1]);
                assert!(o.base.0 + o.size <= next.base.0, "case {case}");
            }
        }
    }
}

/// VPN round-trip: va -> vpn -> base covers va's page for both sizes.
#[test]
fn vpn_round_trip() {
    for case in 0..CASES * 4 {
        let mut rng = SimRng::seed_from_u64(0x4B17 + case);
        let raw = rng.gen_range(0..(1u64 << 48));
        for size in [PageSize::Small4K, PageSize::Large2M] {
            let va = Va(raw);
            let vpn = va.vpn(size);
            let base = vpn.base(size);
            assert!(base.0 <= va.canonical().0, "case {case}");
            assert!(va.canonical().0 - base.0 < size.bytes(), "case {case}");
            assert_eq!(base.0 % size.bytes(), 0, "case {case}");
        }
    }
}
