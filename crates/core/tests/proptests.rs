//! Randomized property tests for the OASIS structures, driven by the
//! in-tree deterministic [`SimRng`] (the build environment is offline, so
//! no external property-testing framework is available). Each test sweeps
//! many seeded cases; a failing case index pins the exact input.

use oasis_core::inmem::ShadowMap;
use oasis_core::otable::{OTable, PolicyChoice};
use oasis_core::tracker::{decode, encode};
use oasis_engine::SimRng;
use oasis_mem::types::{ObjectId, Va};
use std::collections::HashMap;

const CASES: u64 = 64;

/// Pointer tagging round-trips any 48-bit address and any id width.
#[test]
fn tag_round_trip() {
    for case in 0..CASES * 4 {
        let mut rng = SimRng::seed_from_u64(0x7A60 + case);
        let addr = rng.gen_range(0..(1u64 << 48));
        let id = rng.gen_range(0..u16::MAX as u64) as u16;
        let bits = rng.gen_range(1..16) as u32;
        let hw = rng.gen_bool_ratio(1, 2);
        let tagged = encode(Va(addr), ObjectId(id), bits, hw);
        let (got_id, got_hw) = decode(tagged, bits);
        assert_eq!(got_hw, hw, "case {case}");
        assert_eq!(
            u64::from(got_id),
            u64::from(id) & ((1 << bits) - 1),
            "case {case}"
        );
        assert_eq!(tagged.canonical(), Va(addr).canonical(), "case {case}");
    }
}

/// The O-Table never exceeds capacity, keeps per-object state for resident
/// entries, and stays LRU-well-formed (the sim-guard invariant) throughout.
#[test]
fn otable_capacity_and_state() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x07AB + case);
        let n = rng.gen_range(1..300) as usize;
        let mut t = OTable::new();
        let mut shadow: HashMap<u16, (PolicyChoice, u8)> = HashMap::new();
        for _ in 0..n {
            let obj = rng.gen_range(0..32) as u16;
            let write = rng.gen_bool_ratio(1, 2);
            // Mirror a decide_shared-like update.
            if let Some((policy, pf)) = shadow.get(&obj).copied() {
                if t.peek(obj).is_some() {
                    let e = t.lookup_or_insert(obj);
                    assert_eq!(e.policy, policy, "case {case}");
                    assert_eq!(e.pf_count, pf, "case {case}");
                }
            }
            let e = t.lookup_or_insert(obj);
            if e.pf_count == 0 {
                e.policy = PolicyChoice::learn(write);
            }
            e.pf_count = (e.pf_count + 1) % 8;
            shadow.insert(obj, (e.policy, e.pf_count));
            assert!(t.len() <= t.capacity(), "case {case}");
            t.check_invariants().expect("LRU well-formed");
        }
    }
}

/// Shadow map: lookups return exactly what ranges were set, segment by
/// segment, for arbitrary non-overlapping object layouts.
#[test]
fn shadow_map_matches_layout() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x5AD0 + case);
        let n = rng.gen_range(1..20) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..200_000)).collect();
        let mut m = ShadowMap::new();
        let mut base = 0x1000_0000u64;
        let mut ranges = Vec::new();
        for (i, s) in sizes.iter().enumerate() {
            m.set_range(Va(base), *s, i as u16);
            ranges.push((base, *s, i as u16));
            base += s.div_ceil(4096) * 4096; // next 4K boundary, no overlap
        }
        for (b, s, id) in &ranges {
            assert_eq!(m.lookup(Va(*b)).0, Some(*id), "case {case}");
            assert_eq!(m.lookup(Va(*b + s - 1)).0, Some(*id), "case {case}");
        }
        // Nothing is mapped past the last range.
        assert_eq!(m.lookup(Va(base)).0, None, "case {case}");
    }
}
