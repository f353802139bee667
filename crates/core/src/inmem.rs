//! OASIS-InMem: the software-only, scalable alternative (Section V-F).
//!
//! When objects outnumber the encodable pointer tags, or the upper pointer
//! bits are reserved for other uses (MTE, implicit memory tagging), the
//! configuration bit is set to 0 and the Obj_ID is retrieved from a
//! **two-level shadow map** in system memory: the first level is (in the
//! paper) a 128 MB array of 2^24 pointers, each addressing a dynamically
//! allocated second-level table of 2^12 N-bit entries, one per 4 KiB of
//! virtual memory. The O-Table also moves to system memory
//! (O-Table-InMem, `(4+N) × #Obj` bits).
//!
//! Both structures are hot in the host CPU's otherwise-underutilized LLC,
//! so lookups usually cost an LLC hit; the first touch of a second-level
//! table or O-Table entry pays a memory access. This module models exactly
//! that cost structure — the policy logic itself is shared with the
//! hardware controller.

use std::collections::{HashMap, HashSet};

use oasis_engine::codec::{ByteReader, CodecError, Encoder};
use oasis_engine::error::SimResult;
use oasis_engine::{Duration, MetricsRegistry};
use oasis_mem::types::{ObjectId, Va};
use oasis_uvm::driver::MemState;
use oasis_uvm::fault::PageFault;
use oasis_uvm::policy::{Decision, PolicyEngine, Resolution};

use crate::controller::{ControllerCore, OasisConfig, OasisStats};

/// log2 of entries per second-level shadow-map table.
const L2_BITS: u32 = 12;
/// Entries per second-level table (each covers 4 KiB of VA space).
const L2_ENTRIES: usize = 1 << L2_BITS;
/// Bytes of VA covered by one shadow-map entry (the allocation unit M).
const ENTRY_COVER: u64 = 4096;
/// Sentinel for "no object mapped here".
const NO_OBJ: u16 = u16::MAX;

/// The two-level shadow map assigning an N-bit Obj_ID to every 4 KiB
/// segment of allocated virtual memory.
///
/// The paper's first level is a flat 2^24-slot pointer array (128 MB);
/// this model allocates only its populated slots, but reports the paper's
/// memory accounting via [`ShadowMap::modelled_bytes`].
#[derive(Debug, Clone, Default)]
pub struct ShadowMap {
    l1: HashMap<u64, Box<[u16; L2_ENTRIES]>>,
}

impl ShadowMap {
    /// Creates an empty shadow map.
    pub fn new() -> Self {
        Self::default()
    }

    fn indices(va: Va) -> (u64, usize) {
        let seg = va.canonical().0 / ENTRY_COVER;
        (seg >> L2_BITS, (seg & (L2_ENTRIES as u64 - 1)) as usize)
    }

    /// Writes `obj` into every entry covering `[base, base + bytes)`.
    pub fn set_range(&mut self, base: Va, bytes: u64, obj: u16) {
        assert_ne!(obj, NO_OBJ, "obj id {NO_OBJ} is reserved");
        let start = base.canonical().0 / ENTRY_COVER;
        let end = (base.canonical().0 + bytes.max(1) - 1) / ENTRY_COVER;
        for seg in start..=end {
            let (l1, l2) = (seg >> L2_BITS, (seg & (L2_ENTRIES as u64 - 1)) as usize);
            self.l1
                .entry(l1)
                .or_insert_with(|| Box::new([NO_OBJ; L2_ENTRIES]))[l2] = obj;
        }
    }

    /// The Obj_ID covering `va`, if any. Also reports which first-level
    /// slot was traversed (for the LLC warmth model).
    pub fn lookup(&self, va: Va) -> (Option<u16>, u64) {
        let (l1, l2) = Self::indices(va);
        let id = self.l1.get(&l1).map(|t| t[l2]).filter(|&id| id != NO_OBJ);
        (id, l1)
    }

    /// Memory footprint per the paper's accounting: 128 MB first level +
    /// `2^12 × 2 B` per second-level table.
    pub fn modelled_bytes(&self) -> u64 {
        128 * 1024 * 1024 + self.l1.len() as u64 * (L2_ENTRIES as u64) * 2
    }
}

/// Latency model for in-memory metadata accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InMemCosts {
    /// Host LLC hit (the common case once structures are warm).
    pub llc_hit: Duration,
    /// DRAM access for the first touch of a line.
    pub memory: Duration,
}

impl Default for InMemCosts {
    fn default() -> Self {
        InMemCosts {
            llc_hit: Duration::from_ns(30),
            memory: Duration::from_ns(80),
        }
    }
}

/// OASIS-InMem: identical policy logic to [`OasisController`], with the
/// Obj_ID sourced from the shadow map and metadata latency charged per
/// fault.
///
/// [`OasisController`]: crate::controller::OasisController
#[derive(Debug, Clone)]
pub struct OasisInMem {
    core: ControllerCore,
    shadow: ShadowMap,
    /// Allocation record needed to clear shadow entries on free.
    ranges: HashMap<u16, (Va, u64)>,
    costs: InMemCosts,
    warm_l2: HashSet<u64>,
    warm_entries: HashSet<u16>,
    shadow_lookups: u64,
    shadow_cold: u64,
}

impl OasisInMem {
    /// Creates an InMem controller with the paper's defaults. The
    /// O-Table-InMem has no hardware capacity limit; it grows with the
    /// object count (`(4+N) × #Obj` bits).
    pub fn new() -> Self {
        Self::with_config(OasisConfig::default(), InMemCosts::default())
    }

    /// Creates an InMem controller with explicit parameters.
    pub fn with_config(config: OasisConfig, costs: InMemCosts) -> Self {
        let config = OasisConfig {
            // Full 16-bit ids: no pointer-tag aliasing in software.
            id_bits: 16,
            otable_capacity: 1 << 16,
            ..config
        };
        OasisInMem {
            core: ControllerCore::new(config),
            shadow: ShadowMap::new(),
            ranges: HashMap::new(),
            costs,
            warm_l2: HashSet::new(),
            warm_entries: HashSet::new(),
            shadow_lookups: 0,
            shadow_cold: 0,
        }
    }

    /// Behaviour counters shared with the hardware controller.
    pub fn stats(&self) -> OasisStats {
        self.core.stats
    }

    fn charge_lookup(&mut self, l1: u64, tag: u16) -> Duration {
        self.shadow_lookups += 1;
        let mut d = Duration::ZERO;
        // Two-level shadow map walk.
        if self.warm_l2.insert(l1) {
            self.shadow_cold += 1;
            d += self.costs.memory * 2; // both levels cold
        } else {
            d += self.costs.llc_hit * 2;
        }
        // O-Table-InMem access.
        if self.warm_entries.insert(tag) {
            d += self.costs.memory;
        } else {
            d += self.costs.llc_hit;
        }
        d
    }
}

impl Default for OasisInMem {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyEngine for OasisInMem {
    fn name(&self) -> &str {
        "oasis-inmem"
    }

    fn resolve(&mut self, fault: &PageFault, state: &MemState) -> Decision {
        if !self.core.is_shared(fault, state) {
            self.core.stats.private_faults += 1;
            return Decision::free(Resolution::Migrate);
        }
        let (tag, l1) = self.shadow.lookup(fault.va);
        let Some(tag) = tag else {
            // A shared fault outside any tracked object (should not happen
            // in a well-formed run): fall back to the default policy.
            debug_assert!(false, "shared fault on untracked va {}", fault.va);
            return Decision::free(Resolution::Migrate);
        };
        let metadata_latency = self.charge_lookup(l1, tag);
        let resolution = self.core.decide_shared(
            tag,
            fault.is_write(),
            fault.fault_type == oasis_uvm::fault::FaultType::Protection,
        );
        Decision {
            resolution,
            metadata_latency,
        }
    }

    fn on_kernel_launch(&mut self) {
        self.core.on_kernel_launch();
    }

    fn on_link_degraded(&mut self, va: Va) {
        if let (Some(tag), _) = self.shadow.lookup(va) {
            self.core.on_link_degraded(tag);
        }
    }

    fn on_alloc(&mut self, obj: ObjectId, base: Va, bytes: u64) {
        self.shadow.set_range(base, bytes, obj.0);
        self.ranges.insert(obj.0, (base.canonical(), bytes));
        self.core.otable.init(obj.0);
    }

    fn check_invariants(&self) -> SimResult<()> {
        self.core.otable.check_invariants()
    }

    /// Serializes the shared policy core plus the InMem-only state. The
    /// shadow map itself is not written: it is a pure function of the live
    /// allocation ranges and is rebuilt on restore.
    fn snapshot_state(&self, w: &mut dyn Encoder) {
        self.core.snapshot_state(w);
        let mut ranges: Vec<(u16, Va, u64)> = self
            .ranges
            .iter()
            .map(|(obj, (base, bytes))| (*obj, *base, *bytes))
            .collect();
        ranges.sort_unstable_by_key(|(obj, _, _)| *obj);
        w.u64(ranges.len() as u64);
        for (obj, base, bytes) in ranges {
            w.u16(obj);
            w.u64(base.0);
            w.u64(bytes);
        }
        let mut warm_l2: Vec<u64> = self.warm_l2.iter().copied().collect();
        warm_l2.sort_unstable();
        w.u64(warm_l2.len() as u64);
        for slot in warm_l2 {
            w.u64(slot);
        }
        let mut warm_entries: Vec<u16> = self.warm_entries.iter().copied().collect();
        warm_entries.sort_unstable();
        w.u64(warm_entries.len() as u64);
        for tag in warm_entries {
            w.u16(tag);
        }
        w.u64(self.shadow_lookups);
        w.u64(self.shadow_cold);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.core.restore_state(r)?;
        let n = r.usize()?;
        self.shadow = ShadowMap::new();
        self.ranges = HashMap::with_capacity(n);
        for _ in 0..n {
            let obj = r.u16()?;
            if obj == NO_OBJ {
                return Err(r.malformed(format!("object id {NO_OBJ} is reserved")));
            }
            let base = Va(r.u64()?);
            let bytes = r.u64()?;
            if self.ranges.insert(obj, (base, bytes)).is_some() {
                return Err(r.malformed(format!("duplicate allocation range for object {obj}")));
            }
            self.shadow.set_range(base, bytes, obj);
        }
        let n = r.usize()?;
        self.warm_l2 = HashSet::with_capacity(n);
        for _ in 0..n {
            self.warm_l2.insert(r.u64()?);
        }
        let n = r.usize()?;
        self.warm_entries = HashSet::with_capacity(n);
        for _ in 0..n {
            self.warm_entries.insert(r.u16()?);
        }
        self.shadow_lookups = r.u64()?;
        self.shadow_cold = r.u64()?;
        Ok(())
    }

    fn publish_metrics(&self, m: &mut MetricsRegistry) {
        let s = self.core.stats;
        m.set("otable.relearn", s.policy_learns);
        m.set("otable.implicit_reset", s.implicit_resets);
        m.set("otable.explicit_reset", s.explicit_resets);
        m.set("oasis.private_faults", s.private_faults);
        m.set("oasis.shared_faults", s.shared_faults);
        m.set("oasis.link_demotions", s.link_demotions);
        m.set("shadow.lookups", self.shadow_lookups);
        m.set("shadow.cold_lookups", self.shadow_cold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_mem::page::HostEntry;
    use oasis_mem::types::{AccessKind, DeviceId, GpuId, PageSize, Vpn};
    use oasis_uvm::fault::PageFault;

    #[test]
    fn shadow_map_round_trips_ranges() {
        let mut m = ShadowMap::new();
        m.set_range(Va(0x1000_0000), 2 * 1024 * 1024, 7);
        // A 2 MB object occupies 512 entries, all holding the same id.
        assert_eq!(m.lookup(Va(0x1000_0000)).0, Some(7));
        assert_eq!(m.lookup(Va(0x1000_0000 + 2 * 1024 * 1024 - 1)).0, Some(7));
        assert_eq!(m.lookup(Va(0x1000_0000 + 2 * 1024 * 1024)).0, None);
        assert_eq!(m.lookup(Va(0x0FFF_FFFF)).0, None);
    }

    #[test]
    fn shadow_map_ignores_pointer_tags() {
        let mut m = ShadowMap::new();
        m.set_range(Va(0x1000_0000), 4096, 3);
        let tagged = Va(0x1000_0000 | (0b1u64 << 48));
        assert_eq!(m.lookup(tagged).0, Some(3));
    }

    #[test]
    fn shadow_map_memory_accounting() {
        let mut m = ShadowMap::new();
        assert_eq!(m.modelled_bytes(), 128 * 1024 * 1024);
        // One second-level table of 2^12 two-byte entries.
        m.set_range(Va(0x1000_0000), 4096, 1);
        assert_eq!(m.modelled_bytes(), 128 * 1024 * 1024 + (1 << 12) * 2);
    }

    /// `(total shadow lookups, cold lookups that paid a memory access)`,
    /// as the controller publishes them.
    fn shadow_stats(c: &OasisInMem) -> (u64, u64) {
        let mut m = MetricsRegistry::enabled();
        c.publish_metrics(&mut m);
        (
            m.counter("shadow.lookups"),
            m.counter("shadow.cold_lookups"),
        )
    }

    fn shared_state(vpn: Vpn) -> MemState {
        let mut s = MemState::new(4, PageSize::Small4K, None);
        s.host_table
            .register(vpn, HostEntry::new_at(DeviceId::Gpu(GpuId(1))))
            .expect("fresh page");
        s
    }

    #[test]
    fn inmem_learns_like_hardware_but_charges_latency() {
        let mut c = OasisInMem::new();
        c.on_alloc(ObjectId(300), Va(0x1000_0000), 64 * 4096);
        let s = shared_state(Vpn(0x1000_0000 >> 12));
        let f = PageFault::far(
            GpuId(0),
            Va(0x1000_0000),
            Vpn(0x1000_0000 >> 12),
            AccessKind::Read,
        );
        let d = c.resolve(&f, &s);
        assert_eq!(d.resolution, Resolution::Duplicate);
        // Cold lookup: two memory accesses for the shadow walk + one for
        // the O-Table entry.
        assert_eq!(d.metadata_latency, Duration::from_ns(240));
        // Second fault: everything warm in the LLC.
        let d = c.resolve(&f, &s);
        assert_eq!(d.metadata_latency, Duration::from_ns(90));
        assert_eq!(shadow_stats(&c), (2, 1));
    }

    #[test]
    fn inmem_supports_object_counts_beyond_pointer_tags() {
        let mut c = OasisInMem::new();
        // 300 objects — far beyond the 4-bit pointer encoding.
        for i in 0..300u16 {
            c.on_alloc(ObjectId(i), Va(0x1000_0000 + i as u64 * 0x20_0000), 4096);
        }
        let s = shared_state(Vpn((0x1000_0000 + 299 * 0x20_0000) >> 12));
        let f = PageFault::far(
            GpuId(0),
            Va(0x1000_0000 + 299 * 0x20_0000),
            Vpn((0x1000_0000 + 299 * 0x20_0000) >> 12),
            AccessKind::Write,
        );
        assert_eq!(c.resolve(&f, &s).resolution, Resolution::RemoteMap);
        // Distinct entries, no aliasing.
        assert_eq!(c.stats().shared_faults, 1);
    }

    #[test]
    fn inmem_private_path_skips_shadow_map() {
        let mut c = OasisInMem::new();
        c.on_alloc(ObjectId(0), Va(0x1000_0000), 4096);
        let mut s = MemState::new(4, PageSize::Small4K, None);
        s.host_table
            .register(Vpn(0x1000_0000 >> 12), HostEntry::new_on_host())
            .expect("fresh page");
        let f = PageFault::far(
            GpuId(0),
            Va(0x1000_0000),
            Vpn(0x1000_0000 >> 12),
            AccessKind::Write,
        );
        let d = c.resolve(&f, &s);
        assert_eq!(d.resolution, Resolution::Migrate);
        assert_eq!(d.metadata_latency, Duration::ZERO);
        assert_eq!(shadow_stats(&c).0, 0, "host-PT filter avoided the lookup");
    }

    #[test]
    fn inmem_name() {
        assert_eq!(OasisInMem::new().name(), "oasis-inmem");
    }

    #[test]
    fn inmem_snapshot_rebuilds_shadow_map_and_warmth() {
        let mut c = OasisInMem::new();
        c.on_alloc(ObjectId(300), Va(0x1000_0000), 64 * 4096);
        let s = shared_state(Vpn(0x1000_0000 >> 12));
        let f = PageFault::far(
            GpuId(0),
            Va(0x1000_0000),
            Vpn(0x1000_0000 >> 12),
            AccessKind::Read,
        );
        c.resolve(&f, &s); // cold lookup: warms the L2 slot and O-Table entry
        let mut w = oasis_engine::ByteWriter::new();
        c.snapshot_state(&mut w);
        let buf = w.into_vec();

        let mut fresh = OasisInMem::new();
        let mut r = oasis_engine::ByteReader::new("policy", &buf);
        fresh.restore_state(&mut r).expect("valid inmem state");
        assert!(r.is_empty(), "payload fully consumed");
        assert_eq!(fresh.stats(), c.stats());
        assert_eq!(shadow_stats(&fresh), shadow_stats(&c));
        // The restored controller finds the object in its rebuilt shadow
        // map and is warm: the next lookup charges LLC hits, exactly like
        // the uninterrupted run.
        let a = c.resolve(&f, &s);
        let b = fresh.resolve(&f, &s);
        assert_eq!(a, b);
        assert_eq!(b.metadata_latency, Duration::from_ns(90));
    }
}
