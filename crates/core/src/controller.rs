//! The Object Policy Controller (OP-Controller, Section V-D).
//!
//! Resolution flow for every page fault:
//!
//! 1. **Host page table filter** — the centralized table's physical
//!    location for the page classifies it: data on the host ⇒ *private*
//!    first touch ⇒ resolve with default on-touch migration, never touching
//!    the O-Table; data on another GPU ⇒ *shared* ⇒ consult the O-Table.
//!    Under oversubscription, a host-resident page whose recorded policy
//!    bits differ from on-touch is a previously-shared evicted page and is
//!    treated as shared (Section VI-D).
//! 2. **O-Table** — a PF count of zero means the policy must be (re)learned
//!    from this fault's W bit: read ⇒ duplication, write ⇒ access-counter
//!    migration. Otherwise the recorded policy applies. The PF count
//!    increments on every shared fault and resets to zero at the reset
//!    threshold (implicit-phase self-correction) and at every kernel launch
//!    (explicit phases).
//!
//! The resulting state machine is exactly Fig. 13(b): objects start
//! on-touch, move to duplication or access-counter on the first shared
//! fault, oscillate between those two as relearning dictates, and never
//! return to on-touch.

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::error::SimResult;
use oasis_engine::{Duration, MetricsRegistry};
use oasis_mem::page::PolicyBits;
use oasis_mem::types::{DeviceId, ObjectId, Va};
use oasis_uvm::driver::MemState;
use oasis_uvm::fault::{FaultType, PageFault};
use oasis_uvm::policy::{Decision, PolicyEngine, Resolution};

use crate::otable::{OTable, PolicyChoice};
use crate::tracker::{decode, DEFAULT_ID_BITS};

/// Tunable parameters of the OP-Controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OasisConfig {
    /// Shared page faults per object before the PF count resets and the
    /// policy is relearned (default 8; Fig. 16 sweeps 4/8/32).
    pub reset_threshold: u8,
    /// Obj_ID bits encoded in pointers.
    pub id_bits: u32,
    /// O-Table entries (default 16).
    pub otable_capacity: usize,
    /// Reset PF counts at kernel launches (explicit-phase detection;
    /// disable only for the ablation study).
    pub explicit_resets: bool,
    /// Use the host page table as the private/shared filter (Section V-D);
    /// when disabled every fault consults the O-Table (ablation).
    pub host_pt_filter: bool,
}

impl Default for OasisConfig {
    fn default() -> Self {
        OasisConfig {
            reset_threshold: 8,
            id_bits: DEFAULT_ID_BITS,
            otable_capacity: 16,
            explicit_resets: true,
            host_pt_filter: true,
        }
    }
}

impl OasisConfig {
    /// Ablation: disable the implicit-phase self-correction (the PF count
    /// never reaches the reset threshold).
    pub fn without_self_correction(mut self) -> Self {
        self.reset_threshold = u8::MAX;
        self
    }

    /// Ablation: disable the explicit-phase reset at kernel launches.
    pub fn without_explicit_resets(mut self) -> Self {
        self.explicit_resets = false;
        self
    }

    /// Ablation: disable the host-page-table private/shared filter.
    pub fn without_host_pt_filter(mut self) -> Self {
        self.host_pt_filter = false;
        self
    }
}

/// Counters describing the controller's behaviour (not hardware state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OasisStats {
    /// Faults classified private and resolved on-touch via the host-PT
    /// filter (never reached the O-Table).
    pub private_faults: u64,
    /// Faults classified shared and routed to the O-Table.
    pub shared_faults: u64,
    /// Times a policy was (re)learned from a fault's W bit.
    pub policy_learns: u64,
    /// PF-count resets triggered by reaching the reset threshold
    /// (implicit-phase self-correction).
    pub implicit_resets: u64,
    /// Kernel-launch resets (explicit phases).
    pub explicit_resets: u64,
    /// Duplication policies demoted because the object's shared traffic
    /// crossed a permanently dead link (hardware-fault degradation).
    pub link_demotions: u64,
}

/// The policy logic shared by hardware OASIS and OASIS-InMem.
#[derive(Debug, Clone)]
pub(crate) struct ControllerCore {
    pub(crate) config: OasisConfig,
    pub(crate) otable: OTable,
    pub(crate) stats: OasisStats,
}

impl ControllerCore {
    pub(crate) fn new(config: OasisConfig) -> Self {
        ControllerCore {
            otable: OTable::with_capacity(config.otable_capacity),
            config,
            stats: OasisStats::default(),
        }
    }

    /// The host-page-table private/shared filter.
    pub(crate) fn is_shared(&self, fault: &PageFault, state: &MemState) -> bool {
        if fault.fault_type == FaultType::Protection {
            // Protection faults only arise on duplicated (hence shared)
            // pages.
            return true;
        }
        let entry = match state.host_table.get(fault.vpn) {
            Some(e) => e,
            None => return false,
        };
        match entry.owner {
            DeviceId::Gpu(g) => g != fault.gpu,
            // Host-resident data is a private first touch — unless its
            // policy bits reveal an evicted shared page (Section VI-D) or
            // duplicates exist with the host as master.
            DeviceId::Host => entry.policy != PolicyBits::OnTouch || entry.copy_mask != 0,
        }
    }

    /// The O-Table learn-or-apply step for a shared fault on object `tag`.
    pub(crate) fn decide_shared(
        &mut self,
        tag: u16,
        is_write: bool,
        is_protection: bool,
    ) -> Resolution {
        self.stats.shared_faults += 1;
        let threshold = self.config.reset_threshold;
        let entry = self.otable.lookup_or_insert(tag);
        if entry.pf_count == 0 {
            entry.policy = PolicyChoice::learn(is_write);
            self.stats.policy_learns += 1;
        } else if is_protection && entry.policy == PolicyChoice::Duplication {
            // Fig. 13(b) transition (4): write-protection faults on a
            // duplicated object flip it to access-counter migration
            // directly — waiting out the reset threshold would keep paying
            // write-collapses.
            entry.policy = PolicyChoice::AccessCounter;
            self.stats.policy_learns += 1;
        }
        entry.pf_count += 1;
        let policy = entry.policy;
        if entry.pf_count >= threshold {
            entry.pf_count = 0;
            self.stats.implicit_resets += 1;
        }
        match policy {
            PolicyChoice::Duplication => Resolution::Duplicate,
            PolicyChoice::AccessCounter => Resolution::RemoteMap,
        }
    }

    /// Fig. 13(b)'s protection-fault transition reused for hardware
    /// degradation: shared traffic for `tag` crossed a permanently dead
    /// link, so duplication (which keeps re-fetching over the broken path)
    /// is no longer a good bet. Demote the object to access-counter
    /// migration and restart its learning window.
    pub(crate) fn on_link_degraded(&mut self, tag: u16) {
        let entry = self.otable.lookup_or_insert(tag);
        if entry.policy == PolicyChoice::Duplication {
            entry.policy = PolicyChoice::AccessCounter;
            // Keep the PF count nonzero so the next fault *applies* the
            // demoted policy instead of relearning duplication from its
            // R/W bit (same shape as the protection-fault flip above).
            entry.pf_count = entry.pf_count.max(1);
            self.stats.policy_learns += 1;
            self.stats.link_demotions += 1;
        }
    }

    pub(crate) fn on_kernel_launch(&mut self) {
        if !self.config.explicit_resets {
            return;
        }
        self.otable.reset_all_pf_counts();
        self.stats.explicit_resets += 1;
    }

    /// Serializes the learned state (O-Table) and behaviour counters.
    /// Configuration is not written: it comes from construction, and the
    /// O-Table restore rejects capacity mismatches.
    pub(crate) fn snapshot_state(&self, w: &mut dyn Encoder) {
        self.otable.snapshot(w);
        for v in [
            self.stats.private_faults,
            self.stats.shared_faults,
            self.stats.policy_learns,
            self.stats.implicit_resets,
            self.stats.explicit_resets,
            self.stats.link_demotions,
        ] {
            w.u64(v);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.otable.restore(r)?;
        for field in [
            &mut self.stats.private_faults,
            &mut self.stats.shared_faults,
            &mut self.stats.policy_learns,
            &mut self.stats.implicit_resets,
            &mut self.stats.explicit_resets,
            &mut self.stats.link_demotions,
        ] {
            *field = r.u64()?;
        }
        Ok(())
    }
}

/// Hardware OASIS: Obj_ID decoded from the pointer tag, O-Table on chip
/// (zero metadata latency).
#[derive(Debug, Clone)]
pub struct OasisController {
    core: ControllerCore,
}

impl OasisController {
    /// Creates a controller with the paper's defaults.
    pub fn new() -> Self {
        Self::with_config(OasisConfig::default())
    }

    /// Creates a controller with explicit parameters.
    pub fn with_config(config: OasisConfig) -> Self {
        OasisController {
            core: ControllerCore::new(config),
        }
    }

    /// Behaviour counters.
    pub fn stats(&self) -> OasisStats {
        self.core.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> OasisConfig {
        self.core.config
    }

    /// Read-only access to the O-Table (tests, ablations).
    pub fn otable(&self) -> &OTable {
        &self.core.otable
    }

    fn tag_of(&self, va: Va) -> u16 {
        decode(va, self.core.config.id_bits).0
    }
}

impl Default for OasisController {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyEngine for OasisController {
    fn name(&self) -> &str {
        "oasis"
    }

    fn resolve(&mut self, fault: &PageFault, state: &MemState) -> Decision {
        if self.core.config.host_pt_filter && !self.core.is_shared(fault, state) {
            self.core.stats.private_faults += 1;
            return Decision::free(Resolution::Migrate);
        }
        let tag = self.tag_of(fault.va);
        let resolution = self.core.decide_shared(
            tag,
            fault.is_write(),
            fault.fault_type == FaultType::Protection,
        );
        Decision {
            resolution,
            // The O-Table is a 24-byte on-chip structure; its access
            // latency is negligible (Section V-E).
            metadata_latency: Duration::ZERO,
        }
    }

    fn on_kernel_launch(&mut self) {
        self.core.on_kernel_launch();
    }

    fn on_link_degraded(&mut self, va: Va) {
        let tag = self.tag_of(va);
        self.core.on_link_degraded(tag);
    }

    fn on_alloc(&mut self, obj: ObjectId, _base: Va, _bytes: u64) {
        let mask = (1u32 << self.core.config.id_bits) - 1;
        self.core.otable.init(obj.0 & mask as u16);
    }

    fn check_invariants(&self) -> SimResult<()> {
        self.core.otable.check_invariants()
    }

    fn snapshot_state(&self, w: &mut dyn Encoder) {
        self.core.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.core.restore_state(r)
    }

    fn publish_metrics(&self, m: &mut MetricsRegistry) {
        let s = self.core.stats;
        m.set("otable.relearn", s.policy_learns);
        m.set("otable.implicit_reset", s.implicit_resets);
        m.set("otable.explicit_reset", s.explicit_resets);
        m.set("oasis.private_faults", s.private_faults);
        m.set("oasis.shared_faults", s.shared_faults);
        m.set("oasis.link_demotions", s.link_demotions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::encode;
    use oasis_engine::codec::ByteWriter;
    use oasis_mem::page::HostEntry;
    use oasis_mem::types::{AccessKind, GpuId, PageSize, Vpn};

    fn state_with(owner: DeviceId, vpn: Vpn) -> MemState {
        let mut s = MemState::new(4, PageSize::Small4K, None);
        s.host_table
            .register(vpn, HostEntry::new_at(owner))
            .expect("fresh page");
        s
    }

    fn tagged(obj: u16) -> Va {
        encode(Va(0x1000_0000), ObjectId(obj), 4, true)
    }

    fn far(gpu: u8, obj: u16, vpn: u64, kind: AccessKind) -> PageFault {
        PageFault::far(GpuId(gpu), tagged(obj), Vpn(vpn), kind)
    }

    #[test]
    fn host_resident_pages_are_private_on_touch() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Host, Vpn(5));
        let d = c.resolve(&far(0, 1, 5, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::Migrate);
        assert_eq!(c.stats().private_faults, 1);
        assert_eq!(c.stats().shared_faults, 0);
        // The O-Table was not consulted.
        assert!(c.otable().peek(1).is_none());
    }

    #[test]
    fn shared_read_learns_duplication() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        let d = c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(
            c.otable().peek(2).unwrap().policy,
            PolicyChoice::Duplication
        );
        assert_eq!(c.stats().policy_learns, 1);
    }

    #[test]
    fn shared_write_learns_access_counter() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        let d = c.resolve(&far(0, 2, 5, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::RemoteMap);
        assert_eq!(
            c.otable().peek(2).unwrap().policy,
            PolicyChoice::AccessCounter
        );
    }

    #[test]
    fn subsequent_faults_apply_recorded_policy_regardless_of_kind() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        // Learn duplication from a read...
        c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        // ...then a write fault still *applies* duplication (PF count != 0).
        let d = c.resolve(&far(2, 2, 5, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(c.stats().policy_learns, 1);
    }

    #[test]
    fn reset_threshold_triggers_relearning() {
        let mut c = OasisController::with_config(OasisConfig {
            reset_threshold: 4,
            ..OasisConfig::default()
        });
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        // 4 read faults: learn duplication, count 1..4, reset at 4.
        for _ in 0..4 {
            assert_eq!(
                c.resolve(&far(0, 2, 5, AccessKind::Read), &s).resolution,
                Resolution::Duplicate
            );
        }
        assert_eq!(c.stats().implicit_resets, 1);
        // Next fault is a write: relearn to access-counter.
        let d = c.resolve(&far(0, 2, 5, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::RemoteMap);
        assert_eq!(c.stats().policy_learns, 2);
    }

    #[test]
    fn kernel_launch_resets_pf_counts() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(c.otable().peek(2).unwrap().pf_count, 1);
        c.on_kernel_launch();
        assert_eq!(c.otable().peek(2).unwrap().pf_count, 0);
        assert_eq!(c.stats().explicit_resets, 1);
        // Next fault relearns from its own W bit.
        let d = c.resolve(&far(0, 2, 5, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::RemoteMap);
    }

    #[test]
    fn protection_faults_are_always_shared() {
        let mut c = OasisController::new();
        // Even with the data host-resident (e.g. a duplicated master on
        // host), a protection fault routes to the O-Table.
        let mut s = state_with(DeviceId::Host, Vpn(5));
        s.host_table.update(Vpn(5), |e| e.copy_mask = 0b1).unwrap();
        let pf = PageFault::protection(GpuId(0), tagged(2), Vpn(5));
        let d = c.resolve(&pf, &s);
        // First shared fault, W=1: learn access-counter.
        assert_eq!(d.resolution, Resolution::RemoteMap);
        assert_eq!(c.stats().shared_faults, 1);
    }

    #[test]
    fn evicted_shared_pages_keep_shared_treatment() {
        // Section VI-D: host-resident page with non-default policy bits.
        let mut c = OasisController::new();
        let mut s = state_with(DeviceId::Host, Vpn(5));
        s.host_table
            .update(Vpn(5), |e| e.policy = PolicyBits::Duplication)
            .unwrap();
        let d = c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(c.stats().shared_faults, 1);
        assert_eq!(c.stats().private_faults, 0);
    }

    #[test]
    fn refault_on_own_page_is_private() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(0)), Vpn(5));
        let d = c.resolve(&far(0, 2, 5, AccessKind::Write), &s);
        assert_eq!(d.resolution, Resolution::Migrate);
        assert_eq!(c.stats().private_faults, 1);
    }

    #[test]
    fn alloc_initializes_entries_by_aliased_id() {
        let mut c = OasisController::new();
        assert!(c.otable().peek(3).is_none());
        // Obj_IDs beyond 4 bits alias into the table.
        c.on_alloc(ObjectId(19), Va(0x2000), 4096);
        assert!(c.otable().peek(3).is_some());
    }

    #[test]
    fn objects_policies_are_independent() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        c.resolve(&far(0, 1, 5, AccessKind::Read), &s);
        c.resolve(&far(0, 2, 5, AccessKind::Write), &s);
        assert_eq!(
            c.otable().peek(1).unwrap().policy,
            PolicyChoice::Duplication
        );
        assert_eq!(
            c.otable().peek(2).unwrap().policy,
            PolicyChoice::AccessCounter
        );
    }

    #[test]
    fn ablation_no_explicit_resets_keeps_pf_counts() {
        let mut c = OasisController::with_config(OasisConfig::default().without_explicit_resets());
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        c.on_kernel_launch();
        assert_eq!(c.otable().peek(2).unwrap().pf_count, 1);
        assert_eq!(c.stats().explicit_resets, 0);
    }

    #[test]
    fn ablation_no_self_correction_never_relearns() {
        let mut c = OasisController::with_config(OasisConfig::default().without_self_correction());
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        for _ in 0..40 {
            // Far write faults while the recorded policy is duplication:
            // without resets the policy stays duplication forever.
            let d = c.resolve(&far(2, 2, 5, AccessKind::Write), &s);
            assert_eq!(d.resolution, Resolution::Duplicate);
        }
        assert_eq!(c.stats().implicit_resets, 0);
        assert_eq!(c.stats().policy_learns, 1);
    }

    #[test]
    fn ablation_no_host_pt_filter_routes_everything_to_otable() {
        let mut c = OasisController::with_config(OasisConfig::default().without_host_pt_filter());
        let s = state_with(DeviceId::Host, Vpn(5));
        // Host-resident first touch would normally be private on-touch;
        // without the filter it is learned in the O-Table.
        let d = c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(d.resolution, Resolution::Duplicate);
        assert_eq!(c.stats().private_faults, 0);
        assert_eq!(c.stats().shared_faults, 1);
    }

    #[test]
    fn snapshot_restores_learned_policies_and_stats() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        c.resolve(&far(0, 1, 5, AccessKind::Read), &s);
        c.resolve(&far(0, 2, 5, AccessKind::Write), &s);
        c.on_kernel_launch();
        let mut w = ByteWriter::new();
        c.snapshot_state(&mut w);
        let buf = w.into_vec();

        let mut fresh = OasisController::new();
        let mut r = ByteReader::new("policy", &buf);
        fresh.restore_state(&mut r).expect("valid policy state");
        assert!(r.is_empty(), "payload fully consumed");
        assert_eq!(fresh.stats(), c.stats());
        assert_eq!(
            fresh.otable().peek(1).unwrap().policy,
            PolicyChoice::Duplication
        );
        assert_eq!(
            fresh.otable().peek(2).unwrap().policy,
            PolicyChoice::AccessCounter
        );
        // The restored controller keeps deciding identically.
        let a = c.resolve(&far(3, 1, 5, AccessKind::Write), &s);
        let b = fresh.resolve(&far(3, 1, 5, AccessKind::Write), &s);
        assert_eq!(a, b);
    }

    #[test]
    fn link_degradation_demotes_duplication_to_access_counter() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        // Learn duplication from a shared read.
        c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(
            c.otable().peek(2).unwrap().policy,
            PolicyChoice::Duplication
        );
        // The driver reports the object's traffic crossing a dead link.
        c.on_link_degraded(tagged(2));
        let e = c.otable().peek(2).unwrap();
        assert_eq!(e.policy, PolicyChoice::AccessCounter);
        assert!(e.pf_count > 0, "next fault applies, not relearns");
        assert_eq!(c.stats().link_demotions, 1);
        assert_eq!(c.stats().policy_learns, 2);
        // Later shared faults apply the demoted policy.
        let d = c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(d.resolution, Resolution::RemoteMap);
        // Re-notifying an already-demoted object is a no-op.
        c.on_link_degraded(tagged(2));
        assert_eq!(c.stats().link_demotions, 1);
    }

    #[test]
    fn metadata_latency_is_zero_for_on_chip_otable() {
        let mut c = OasisController::new();
        let s = state_with(DeviceId::Gpu(GpuId(1)), Vpn(5));
        let d = c.resolve(&far(0, 2, 5, AccessKind::Read), &s);
        assert_eq!(d.metadata_latency, Duration::ZERO);
        assert_eq!(c.name(), "oasis");
    }
}
