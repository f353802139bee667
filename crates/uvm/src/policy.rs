//! The page-management policy interface and the uniform policies.
//!
//! A [`PolicyEngine`] is consulted by the [`UvmDriver`](crate::driver) on
//! every page fault and answers *how* to resolve it. The four engines here
//! implement the paper's Section II-B policies applied uniformly to every
//! page, plus the hypothetical "Ideal" configuration of Section IV-A.
//! OASIS (`oasis-core`) and GRIT (`oasis-grit`) implement the same trait.

use oasis_engine::codec::{ByteReader, CodecError, Encoder};
use oasis_engine::digest::StateHasher;
use oasis_engine::error::SimResult;
use oasis_engine::{Duration, MetricsRegistry};
use oasis_mem::types::{DeviceId, ObjectId, Va};

use crate::driver::MemState;
use crate::fault::PageFault;

/// How a fault should be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Migrate the page into the requesting GPU's memory (on-touch).
    Migrate,
    /// Install a remote mapping to wherever the page lives; hardware access
    /// counters will migrate it once remote accesses reach the threshold.
    RemoteMap,
    /// Create a read-only duplicate on the requester; on a write fault this
    /// implies the duplicate-then-collapse sequence (the paper's
    /// protection-fault overhead for written pages under duplication).
    Duplicate,
    /// Hypothetical ideal: give the requester its own writable copy with no
    /// consistency actions, ever.
    IdealCopy,
}

/// A policy engine's answer for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The mechanic to apply.
    pub resolution: Resolution,
    /// Extra latency charged for consulting policy metadata (e.g. the
    /// OASIS-InMem shadow map, or a GRIT PA-Cache miss).
    pub metadata_latency: Duration,
}

impl Decision {
    /// A decision with no metadata cost.
    pub fn free(resolution: Resolution) -> Self {
        Decision {
            resolution,
            metadata_latency: Duration::ZERO,
        }
    }
}

/// Decides how the UVM driver resolves page faults.
///
/// Implementations receive every fault (in simulated-time order) plus
/// runtime notifications (kernel launches, allocations) that OASIS's
/// explicit-phase detection and Object Tracker rely on.
pub trait PolicyEngine {
    /// Short name used in reports ("on-touch", "oasis", ...).
    fn name(&self) -> &str;

    /// Decides how to resolve `fault`. `state` gives read-only access to
    /// the driver's centralized page table.
    fn resolve(&mut self, fault: &PageFault, state: &MemState) -> Decision;

    /// Called when a kernel is launched (an *explicit phase* boundary).
    fn on_kernel_launch(&mut self) {}

    /// Called when an object is allocated via the managed allocator.
    fn on_alloc(&mut self, _obj: ObjectId, _base: Va, _bytes: u64) {}

    /// Called when the driver observes that serving `va` by duplication
    /// would cross a permanently dead interconnect link. Stateful engines
    /// (OASIS) demote the page's object away from duplication so shared
    /// traffic stops betting on the broken path; the uniform policies have
    /// no per-object state to adjust and ignore the signal.
    fn on_link_degraded(&mut self, _va: Va) {}

    /// Validates the policy's internal metadata (e.g. O-Table LRU
    /// well-formedness). Called by the sim-guard runtime checker; stateless
    /// policies have nothing to verify.
    fn check_invariants(&self) -> SimResult<()> {
        Ok(())
    }

    /// Publishes policy-internal counters into the metrics registry at
    /// report time (e.g. OASIS's `otable.relearn`). Stateless policies
    /// have nothing to publish.
    fn publish_metrics(&self, _m: &mut MetricsRegistry) {}

    /// Folds the engine's mutable state into the per-epoch state digest.
    /// The default hashes [`PolicyEngine::snapshot_state`] word by word,
    /// which suits small state such as the O-Table. An engine with a table
    /// that grows with the footprint keeps a running sum for it and
    /// overrides this hook (GRIT's per-page map), so no epoch sorts it.
    fn digest(&self, h: &mut StateHasher) {
        self.snapshot_state(h);
    }

    /// Serializes the engine's mutable state into a checkpoint section.
    /// The uniform policies are stateless, so the default writes nothing;
    /// stateful engines (OASIS's O-Table and learning statistics) override
    /// both hooks as a pair.
    fn snapshot_state(&self, _w: &mut dyn Encoder) {}

    /// Restores state written by [`PolicyEngine::snapshot_state`]. The
    /// default accepts only an empty payload, so resuming a checkpoint
    /// taken under a stateful engine into a stateless one fails loudly.
    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if !r.is_empty() {
            return Err(r.malformed(format!(
                "policy '{}' is stateless but checkpoint carries {} bytes of policy state",
                self.name(),
                r.remaining()
            )));
        }
        Ok(())
    }
}

/// Uniform on-touch migration: always migrate to the requester
/// (Section II-B1; the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnTouchPolicy;

impl PolicyEngine for OnTouchPolicy {
    fn name(&self) -> &str {
        "on-touch"
    }

    fn resolve(&mut self, _fault: &PageFault, _state: &MemState) -> Decision {
        Decision::free(Resolution::Migrate)
    }
}

/// Uniform access counter-based migration (Section II-B2): every fault
/// merely establishes a remote mapping (to the host or the owning peer
/// GPU); data migrates only once the hardware counter observes the
/// threshold of remote accesses. This deferral is exactly the policy's
/// weakness the paper highlights for private-data-dominated apps like I2C
/// ("remote access latency before a page is migrated").
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessCounterPolicy;

impl PolicyEngine for AccessCounterPolicy {
    fn name(&self) -> &str {
        "access-counter"
    }

    fn resolve(&mut self, fault: &PageFault, state: &MemState) -> Decision {
        let owner = state
            .host_table
            .get(fault.vpn)
            .map(|e| e.owner)
            .unwrap_or(DeviceId::Host);
        if owner == DeviceId::Gpu(fault.gpu) {
            // Re-fault on a page we already own (e.g. after an eviction
            // race): just reinstall the local mapping.
            Decision::free(Resolution::Migrate)
        } else {
            Decision::free(Resolution::RemoteMap)
        }
    }
}

/// Uniform page duplication (Section II-B3): every fault duplicates the
/// page read-only on the requester; writes then pay the protection-fault +
/// write-collapse overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct DuplicationPolicy;

impl PolicyEngine for DuplicationPolicy {
    fn name(&self) -> &str {
        "duplication"
    }

    fn resolve(&mut self, _fault: &PageFault, _state: &MemState) -> Decision {
        Decision::free(Resolution::Duplicate)
    }
}

/// The hypothetical "Ideal" NUMA-GPU of Section IV-A: every first access
/// from a GPU pays one duplication, after which all accesses (reads *and*
/// writes) are local with zero consistency traffic. Not realizable in
/// hardware; used as the optimization headroom in Figs. 2 and 15.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealPolicy;

impl PolicyEngine for IdealPolicy {
    fn name(&self) -> &str {
        "ideal"
    }

    fn resolve(&mut self, _fault: &PageFault, _state: &MemState) -> Decision {
        Decision::free(Resolution::IdealCopy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_mem::page::HostEntry;
    use oasis_mem::types::{AccessKind, GpuId, PageSize, Vpn};

    fn state() -> MemState {
        MemState::new(4, PageSize::Small4K, None)
    }

    fn fault(vpn: u64) -> PageFault {
        PageFault::far(GpuId(0), Va(0), Vpn(vpn), AccessKind::Read)
    }

    #[test]
    fn on_touch_always_migrates() {
        let mut p = OnTouchPolicy;
        assert_eq!(
            p.resolve(&fault(1), &state()).resolution,
            Resolution::Migrate
        );
        assert_eq!(p.name(), "on-touch");
    }

    #[test]
    fn access_counter_defers_migration_everywhere_but_self() {
        let mut p = AccessCounterPolicy;
        let mut s = state();
        for (v, e) in [
            (Vpn(1), HostEntry::new_on_host()),
            (Vpn(2), HostEntry::new_at(DeviceId::Gpu(GpuId(3)))),
            (Vpn(3), HostEntry::new_at(DeviceId::Gpu(GpuId(0)))),
        ] {
            s.host_table.register(v, e).expect("fresh page");
        }
        // Host-resident and peer-resident pages both get remote mappings;
        // only a re-fault on a self-owned page reinstalls locally.
        assert_eq!(p.resolve(&fault(1), &s).resolution, Resolution::RemoteMap);
        assert_eq!(p.resolve(&fault(2), &s).resolution, Resolution::RemoteMap);
        assert_eq!(p.resolve(&fault(3), &s).resolution, Resolution::Migrate);
    }

    #[test]
    fn duplication_always_duplicates() {
        let mut p = DuplicationPolicy;
        assert_eq!(
            p.resolve(&fault(1), &state()).resolution,
            Resolution::Duplicate
        );
    }

    #[test]
    fn ideal_always_ideal_copies() {
        let mut p = IdealPolicy;
        assert_eq!(
            p.resolve(&fault(1), &state()).resolution,
            Resolution::IdealCopy
        );
    }

    #[test]
    fn free_decision_has_no_metadata_cost() {
        let d = Decision::free(Resolution::Migrate);
        assert_eq!(d.metadata_latency, Duration::ZERO);
    }
}
