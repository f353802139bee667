//! sim-guard: the runtime cross-layer invariant checker.
//!
//! The simulator's correctness claims rest on the host page table, the
//! per-GPU local page tables, and the per-GPU frame allocators agreeing
//! about where every page lives. [`check_mem_state`] validates that
//! agreement on demand — after every driver step or at epoch boundaries,
//! depending on how the run is configured — and returns a typed
//! [`InvariantViolation`](oasis_engine::InvariantViolation) naming the first
//! divergence it finds.
//!
//! Checked invariants:
//!
//! 1. **owner-holds-frame** — a GPU that owns a page has the page resident
//!    in its frame allocator.
//! 2. **copy-holds-frame** — every duplicate holder has the page resident.
//! 3. **mask-bounds** — copy/mapper/owner masks never name GPUs outside the
//!    system.
//! 4. **local-pte-agrees** — a valid local PTE implies the host table grants
//!    that GPU access: a local-pointing PTE means owner or duplicate holder;
//!    a remote-pointing PTE means a recorded mapper pointing at the current
//!    owner.
//! 5. **no-writable-duplicates** — while a page is duplicated, no holder
//!    (including the owner) has a writable mapping. The Ideal policy is
//!    exempt by construction (`allow_writable_copies`).
//! 6. **frames-registered** — every frame-resident page has a host-table
//!    entry granting that GPU data (owner or duplicate holder).

use oasis_engine::error::{SimError, SimResult};
use oasis_mem::types::DeviceId;

use crate::driver::MemState;

/// Validates the cross-layer memory-state invariants.
///
/// `allow_writable_copies` exempts the no-writable-duplicates check (the
/// hypothetical Ideal policy hands out writable copies with no consistency
/// bookkeeping by design).
pub fn check_mem_state(state: &MemState, allow_writable_copies: bool) -> SimResult<()> {
    let gpu_count = state.gpu_count();
    let full_mask = if gpu_count >= 32 {
        u32::MAX
    } else {
        (1u32 << gpu_count) - 1
    };

    for (&vpn, entry) in state.host_table.iter() {
        // 3. Masks never name GPUs outside the system.
        if entry.copy_mask & !full_mask != 0 || entry.mapper_mask & !full_mask != 0 {
            return Err(SimError::invariant(
                "mask-bounds",
                format!(
                    "page {:#x}: copy_mask {:#b} / mapper_mask {:#b} name GPUs beyond the {} present",
                    vpn.0, entry.copy_mask, entry.mapper_mask, gpu_count
                ),
            ));
        }
        if let DeviceId::Gpu(g) = entry.owner {
            if g.index() >= gpu_count {
                return Err(SimError::invariant(
                    "mask-bounds",
                    format!(
                        "page {:#x}: owner GPU {} beyond the {} present",
                        vpn.0, g.0, gpu_count
                    ),
                ));
            }
            // 1. The owning GPU holds the frame.
            if !state.frames[g.index()].contains(vpn) {
                return Err(SimError::invariant(
                    "owner-holds-frame",
                    format!("page {:#x}: owner GPU {} has no resident frame", vpn.0, g.0),
                ));
            }
        }
        // 2. Every duplicate holder holds the frame.
        for g in entry.duplicate_holders() {
            if !state.frames[g.index()].contains(vpn) {
                return Err(SimError::invariant(
                    "copy-holds-frame",
                    format!(
                        "page {:#x}: duplicate holder GPU {} has no resident frame",
                        vpn.0, g.0
                    ),
                ));
            }
        }
        // 5. Duplicated pages are read-only everywhere.
        if entry.copy_mask != 0 && !allow_writable_copies {
            for g in 0..gpu_count {
                if let Some(pte) = state.local_tables[g].get(vpn) {
                    if pte.writable {
                        return Err(SimError::invariant(
                            "no-writable-duplicates",
                            format!(
                                "page {:#x}: GPU {g} maps it writable while copy_mask is {:#b}",
                                vpn.0, entry.copy_mask
                            ),
                        ));
                    }
                }
            }
        }
    }

    for (g, table) in state.local_tables.iter().enumerate() {
        for (&vpn, pte) in table.iter() {
            // 4. A valid local PTE is backed by the host table.
            let Some(entry) = state.host_table.get(vpn) else {
                return Err(SimError::invariant(
                    "local-pte-agrees",
                    format!("page {:#x}: GPU {g} maps an unregistered page", vpn.0),
                ));
            };
            let this = DeviceId::Gpu(oasis_mem::types::GpuId(g as u8));
            if pte.location == this {
                // Local data: must be the owner or a duplicate holder, with
                // the data actually resident.
                let has_data = entry.owner == this || entry.copy_mask & (1 << g) != 0;
                if !has_data {
                    return Err(SimError::invariant(
                        "local-pte-agrees",
                        format!(
                            "page {:#x}: GPU {g} has a local PTE but owns no data (owner {:?}, copies {:#b})",
                            vpn.0, entry.owner, entry.copy_mask
                        ),
                    ));
                }
                if !state.frames[g].contains(vpn) {
                    return Err(SimError::invariant(
                        "local-pte-agrees",
                        format!(
                            "page {:#x}: GPU {g} maps local data but holds no frame",
                            vpn.0
                        ),
                    ));
                }
            } else {
                // Remote-pointing PTE: must be a recorded mapper, and must
                // point at the page's current owner.
                if !entry.maps_remotely(oasis_mem::types::GpuId(g as u8)) {
                    return Err(SimError::invariant(
                        "local-pte-agrees",
                        format!(
                            "page {:#x}: GPU {g} has a remote PTE but is not a recorded mapper",
                            vpn.0
                        ),
                    ));
                }
                if pte.location != entry.owner {
                    return Err(SimError::invariant(
                        "local-pte-agrees",
                        format!(
                            "page {:#x}: GPU {g}'s remote PTE points at {:?} but the owner is {:?}",
                            vpn.0, pte.location, entry.owner
                        ),
                    ));
                }
            }
        }
    }

    // 6. Frame residency is backed by the host table.
    for (g, frames) in state.frames.iter().enumerate() {
        for vpn in frames.pages() {
            let Some(entry) = state.host_table.get(vpn) else {
                return Err(SimError::invariant(
                    "frames-registered",
                    format!("page {:#x}: resident on GPU {g} but not registered", vpn.0),
                ));
            };
            let this = DeviceId::Gpu(oasis_mem::types::GpuId(g as u8));
            let has_data = entry.owner == this || entry.copy_mask & (1 << g) != 0;
            if !has_data {
                return Err(SimError::invariant(
                    "frames-registered",
                    format!(
                        "page {:#x}: GPU {g} holds a frame but the host table grants it no data",
                        vpn.0
                    ),
                ));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::UvmCosts;
    use crate::driver::UvmDriver;
    use crate::fault::PageFault;
    use crate::policy::{DuplicationPolicy, OnTouchPolicy, PolicyEngine};
    use oasis_interconnect::{Fabric, FabricConfig};
    use oasis_mem::page::{PolicyBits, Pte};
    use oasis_mem::types::{AccessKind, GpuId, ObjectId, PageSize, Va, Vpn};

    fn driver(policy: Box<dyn PolicyEngine>) -> (UvmDriver, Fabric) {
        let mut d = UvmDriver::new(4, PageSize::Small4K, None, policy, UvmCosts::default(), 256);
        d.alloc_object(ObjectId(0), Va(0x1000_0000), 16 * 4096, |_| DeviceId::Host)
            .expect("fresh allocation");
        (d, Fabric::new(4, FabricConfig::default()))
    }

    fn vpn(i: u64) -> Vpn {
        Va(0x1000_0000 + i * 4096).vpn(PageSize::Small4K)
    }

    #[test]
    fn healthy_state_passes() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy));
        for g in 0..3u8 {
            let pf = PageFault::far(GpuId(g), Va(0x1000_0000), vpn(0), AccessKind::Read);
            d.handle_fault(oasis_engine::Time::ZERO, &pf, &mut f)
                .expect("fault resolves");
        }
        check_mem_state(&d.state, false).expect("consistent state");
    }

    #[test]
    fn missing_owner_frame_is_flagged() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy));
        let pf = PageFault::far(GpuId(1), Va(0x1000_0000), vpn(0), AccessKind::Read);
        d.handle_fault(oasis_engine::Time::ZERO, &pf, &mut f)
            .expect("fault resolves");
        // Corrupt: drop the owner's frame behind the driver's back.
        d.state.frames[1].remove(vpn(0));
        let err = check_mem_state(&d.state, false).expect_err("divergence detected");
        assert!(err.to_string().contains("owner-holds-frame"), "{err}");
    }

    #[test]
    fn writable_duplicate_is_flagged() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy));
        for g in 0..2u8 {
            let pf = PageFault::far(GpuId(g), Va(0x1000_0000), vpn(0), AccessKind::Read);
            d.handle_fault(oasis_engine::Time::ZERO, &pf, &mut f)
                .expect("fault resolves");
        }
        // Corrupt: upgrade GPU0's read-only duplicate to writable.
        d.state.local_tables[0].insert(
            vpn(0),
            Pte {
                location: DeviceId::Gpu(GpuId(0)),
                writable: true,
                policy: PolicyBits::Duplication,
            },
        );
        let err = check_mem_state(&d.state, false).expect_err("divergence detected");
        assert!(err.to_string().contains("no-writable-duplicates"), "{err}");
        // The Ideal exemption tolerates it.
        check_mem_state(&d.state, true).expect("ideal runs allow writable copies");
    }

    #[test]
    fn stray_pte_is_flagged() {
        let (mut d, _) = driver(Box::new(OnTouchPolicy));
        // Corrupt: GPU2 claims a local mapping it was never granted.
        d.state.local_tables[2].insert(
            vpn(3),
            Pte {
                location: DeviceId::Gpu(GpuId(2)),
                writable: true,
                policy: PolicyBits::OnTouch,
            },
        );
        let err = check_mem_state(&d.state, false).expect_err("divergence detected");
        assert!(err.to_string().contains("local-pte-agrees"), "{err}");
    }

    #[test]
    fn stray_frame_is_flagged() {
        let (mut d, _) = driver(Box::new(OnTouchPolicy));
        // Corrupt: GPU3 holds a frame for a host-owned page.
        d.state.frames[3].insert(vpn(2));
        let err = check_mem_state(&d.state, false).expect_err("divergence detected");
        assert!(err.to_string().contains("frames-registered"), "{err}");
    }

    #[test]
    fn out_of_range_mask_is_flagged() {
        let (mut d, _) = driver(Box::new(OnTouchPolicy));
        d.state
            .host_table
            .update(vpn(0), |e| e.copy_mask = 1 << 7) // GPU 7 of 4
            .expect("registered");
        let err = check_mem_state(&d.state, false).expect_err("divergence detected");
        assert!(err.to_string().contains("mask-bounds"), "{err}");
    }
}
