//! System configuration (Table I) and policy selection.

use oasis_core::controller::{OasisConfig, OasisController};
use oasis_core::inmem::{InMemCosts, OasisInMem};
use oasis_core::tracker::ObjectTracker;
use oasis_engine::codec::{ByteReader, ByteWriter, CodecError};
use oasis_engine::{Duration, ErrorPolicy};
use oasis_grit::{GritConfig, GritEngine};
use oasis_interconnect::{FabricConfig, FaultPlan};
use oasis_mem::types::PageSize;
use oasis_uvm::costs::UvmCosts;
use oasis_uvm::policy::{
    AccessCounterPolicy, DuplicationPolicy, IdealPolicy, OnTouchPolicy, PolicyEngine,
};

/// Where managed pages start out (Fig. 21's sensitivity study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// All pages begin in host memory (the baseline).
    #[default]
    Host,
    /// Pages are distributed round-robin across the GPUs.
    Striped,
}

/// When the sim-guard runtime invariant checker runs during a simulation.
///
/// The checker ([`oasis_uvm::check_mem_state`] plus the policy engine's
/// [`check_invariants`](oasis_uvm::policy::PolicyEngine::check_invariants)
/// and a TLB-vs-page-table sweep) walks the whole memory state, so its cost
/// scales with footprint; pick the granularity the run can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// Never check (fastest; normal performance sweeps).
    #[default]
    Off,
    /// Check at every epoch boundary (kernel launch) and at end of run.
    Epoch,
    /// Check after every memory transaction (slow; fault-injection runs).
    Step,
}

/// The page-management policy a run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// Uniform on-touch migration (the baseline of every figure).
    OnTouch,
    /// Uniform access counter-based migration.
    AccessCounter,
    /// Uniform page duplication.
    Duplication,
    /// The hypothetical Ideal configuration of Section IV-A.
    Ideal,
    /// Hardware OASIS.
    Oasis(OasisConfig),
    /// OASIS-InMem (software-only).
    OasisInMem(OasisConfig),
    /// The GRIT baseline.
    Grit(GritConfig),
}

impl Policy {
    /// OASIS with default parameters.
    pub fn oasis() -> Self {
        Policy::Oasis(OasisConfig::default())
    }

    /// OASIS-InMem with default parameters.
    pub fn oasis_inmem() -> Self {
        Policy::OasisInMem(OasisConfig::default())
    }

    /// GRIT with default parameters.
    pub fn grit() -> Self {
        Policy::Grit(GritConfig::default())
    }

    /// The four core policies that the fuzz oracle and the kill/resume
    /// audit compare.
    pub fn core() -> [Policy; 4] {
        [
            Policy::OnTouch,
            Policy::AccessCounter,
            Policy::Duplication,
            Policy::oasis(),
        ]
    }

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::OnTouch => "on-touch",
            Policy::AccessCounter => "access-counter",
            Policy::Duplication => "duplication",
            Policy::Ideal => "ideal",
            Policy::Oasis(_) => "oasis",
            Policy::OasisInMem(_) => "oasis-inmem",
            Policy::Grit(_) => "grit",
        }
    }

    /// Instantiates the policy engine.
    pub fn build(&self) -> Box<dyn PolicyEngine> {
        match self {
            Policy::OnTouch => Box::new(OnTouchPolicy),
            Policy::AccessCounter => Box::new(AccessCounterPolicy),
            Policy::Duplication => Box::new(DuplicationPolicy),
            Policy::Ideal => Box::new(IdealPolicy),
            Policy::Oasis(c) => Box::new(OasisController::with_config(*c)),
            Policy::OasisInMem(c) => Box::new(OasisInMem::with_config(*c, InMemCosts::default())),
            Policy::Grit(c) => Box::new(GritEngine::with_config(*c)),
        }
    }

    /// The pointer tracker matching this policy's tagging mode.
    pub fn tracker(&self) -> ObjectTracker {
        match self {
            Policy::Oasis(c) => ObjectTracker::hardware().with_id_bits(c.id_bits),
            Policy::OasisInMem(_) => ObjectTracker::in_mem(),
            // Non-OASIS policies don't tag pointers; the InMem tracker
            // leaves the address bits untouched except the (ignored)
            // config bit, so reuse it with hardware mode off.
            _ => ObjectTracker::in_mem(),
        }
    }
}

/// The simulated platform (Table I defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of GPUs (4 in the baseline; 8/16 in Fig. 17).
    pub gpu_count: usize,
    /// Translation granularity (4 KiB baseline; 2 MiB in Fig. 19).
    pub page_size: PageSize,
    /// Concurrent outstanding accesses per GPU (models the 64 CUs' memory
    /// parallelism at trace granularity).
    pub lanes_per_gpu: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// L1 TLB geometry: (entries, ways). Table I: 32-entry, 32-way.
    pub l1_tlb: (usize, usize),
    /// L2 TLB geometry: (entries, ways). Table I: 512-entry, 16-way.
    pub l2_tlb: (usize, usize),
    /// L2 cache geometry: (bytes, ways, line bytes). Table I: 256 KB,
    /// 16-way.
    pub l2_cache: (u64, usize, u64),
    /// L1 TLB hit latency (cycles).
    pub l1_tlb_cycles: u64,
    /// L2 TLB lookup latency (cycles).
    pub l2_tlb_cycles: u64,
    /// GMMU page-walk latency (cycles).
    pub page_walk_cycles: u64,
    /// L2 cache hit latency.
    pub l2_cache_latency: Duration,
    /// Local DRAM access latency.
    pub dram_latency: Duration,
    /// Extra per-transaction overhead for accesses served from a peer
    /// GPU's memory over NVLink (request serialization at the remote port,
    /// protocol turnaround). This is the exposed cost of *not*
    /// migrating/duplicating data.
    pub remote_access_overhead: Duration,
    /// Same, for accesses served from host memory over PCIe (higher:
    /// longer path, no peer caching).
    pub host_access_overhead: Duration,
    /// Local DRAM bandwidth (bytes/second).
    pub dram_bytes_per_sec: u64,
    /// Interconnect parameters (NVLink 300 GB/s, PCIe 32 GB/s).
    pub fabric: FabricConfig,
    /// UVM driver latency parameters.
    pub uvm_costs: UvmCosts,
    /// Remote accesses per 64 KiB group before a counter migration
    /// (Table I: 256).
    pub counter_threshold: u32,
    /// Real coalesced accesses each sampled trace transaction stands for
    /// (counter increments by this, keeping the effective threshold
    /// faithful despite trace sampling).
    pub counter_weight: u32,
    /// GPU memory capacity in pages (`None` = enough for the workload;
    /// set for the Fig. 25 oversubscription study).
    pub gpu_capacity_pages: Option<u64>,
    /// Initial page placement.
    pub placement: Placement,
    /// Enable the driver's neighborhood group prefetcher (extension; the
    /// paper-faithful baseline leaves it off).
    pub prefetch_group: bool,
    /// Host-side overhead per kernel launch.
    pub kernel_launch_overhead: Duration,
    /// What [`System::run`](crate::System::run) does when an access fails
    /// with a typed error: abort the run (tests, debugging) or record it
    /// and keep simulating (long sweeps).
    pub error_policy: ErrorPolicy,
    /// When the sim-guard invariant checker runs.
    pub guard: GuardMode,
    /// Progress-watchdog window: how many consecutive failed accesses with
    /// no driver state change [`System::run`](crate::System::run) tolerates
    /// before aborting with
    /// [`SimError::Stalled`](oasis_engine::error::SimError). Any retired
    /// access or page-state transition resets the count; only a run that is
    /// truly spinning (every event rejected, nothing moving) trips it.
    pub stall_window: u64,
    /// Event-trace ring capacity. 0 (the default) installs no tracer, so
    /// events are never built; nonzero installs a bounded
    /// [`RingTracer`](oasis_engine::RingTracer) keeping the most recent N
    /// events. Tracer *state* is observational — excluded from digests and
    /// checkpoints — but this knob travels with the config section so a
    /// resumed run rebuilds the same observer.
    pub trace_capacity: usize,
    /// Enable the hierarchical metrics registry (counters + latency
    /// histograms surfaced in [`RunReport`](crate::RunReport)).
    pub metrics: bool,
    /// Deterministic hardware-fault plan (link failures, CRC-glitch
    /// windows, ECC page poisoning). Empty by default: the zero-fault data
    /// path is bit-identical to a build without the fault layer.
    pub fault_plan: FaultPlan,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            gpu_count: 4,
            page_size: PageSize::Small4K,
            lanes_per_gpu: 16,
            clock_ghz: 1.0,
            l1_tlb: (32, 32),
            l2_tlb: (512, 16),
            l2_cache: (256 * 1024, 16, 64),
            l1_tlb_cycles: 1,
            l2_tlb_cycles: 10,
            page_walk_cycles: 500,
            l2_cache_latency: Duration::from_ns(150),
            dram_latency: Duration::from_ns(250),
            remote_access_overhead: Duration::from_us(1),
            host_access_overhead: Duration::from_us(3),
            dram_bytes_per_sec: 512_000_000_000,
            fabric: FabricConfig::default(),
            uvm_costs: UvmCosts::default(),
            counter_threshold: 256,
            counter_weight: 2,
            gpu_capacity_pages: None,
            placement: Placement::Host,
            prefetch_group: false,
            kernel_launch_overhead: Duration::from_us(5),
            error_policy: ErrorPolicy::FailFast,
            guard: GuardMode::Off,
            stall_window: 100_000,
            trace_capacity: 0,
            metrics: false,
            fault_plan: FaultPlan::default(),
        }
    }
}

impl SystemConfig {
    /// The baseline with a different GPU count (Fig. 17).
    pub fn with_gpus(gpu_count: usize) -> Self {
        SystemConfig {
            gpu_count,
            ..SystemConfig::default()
        }
    }

    /// The baseline with 2 MiB pages (Fig. 19).
    pub fn with_large_pages() -> Self {
        SystemConfig {
            page_size: PageSize::Large2M,
            ..SystemConfig::default()
        }
    }

    /// Caps each GPU's memory so that the given workload footprint
    /// oversubscribes it by `percent` (e.g. 150 for Fig. 25): total GPU
    /// memory = footprint / (percent/100), split evenly.
    pub fn with_oversubscription(mut self, footprint_bytes: u64, percent: u64) -> Self {
        assert!(percent > 100, "oversubscription needs percent > 100");
        let total_pages = self.page_size.pages_for(footprint_bytes * 100 / percent);
        self.gpu_capacity_pages = Some((total_pages / self.gpu_count as u64).max(1));
        self
    }

    /// L1 TLB hit latency as a duration.
    pub fn l1_tlb_latency(&self) -> Duration {
        Duration::from_cycles(self.l1_tlb_cycles, self.clock_ghz)
    }

    /// L2 TLB lookup latency as a duration.
    pub fn l2_tlb_latency(&self) -> Duration {
        Duration::from_cycles(self.l2_tlb_cycles, self.clock_ghz)
    }

    /// Page-walk latency as a duration.
    pub fn page_walk_latency(&self) -> Duration {
        Duration::from_cycles(self.page_walk_cycles, self.clock_ghz)
    }

    /// Serializes the full configuration into a checkpoint section so a
    /// resumed run rebuilds a geometrically identical platform.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.gpu_count as u64);
        w.u8(match self.page_size {
            PageSize::Small4K => 0,
            PageSize::Large2M => 1,
        });
        w.u64(self.lanes_per_gpu as u64);
        w.f64(self.clock_ghz);
        for (entries, ways) in [self.l1_tlb, self.l2_tlb] {
            w.u64(entries as u64);
            w.u64(ways as u64);
        }
        w.u64(self.l2_cache.0);
        w.u64(self.l2_cache.1 as u64);
        w.u64(self.l2_cache.2);
        w.u64(self.l1_tlb_cycles);
        w.u64(self.l2_tlb_cycles);
        w.u64(self.page_walk_cycles);
        for d in [
            self.l2_cache_latency,
            self.dram_latency,
            self.remote_access_overhead,
            self.host_access_overhead,
        ] {
            w.u64(d.as_ps());
        }
        w.u64(self.dram_bytes_per_sec);
        w.u64(self.fabric.nvlink_bytes_per_sec);
        w.u64(self.fabric.nvlink_latency.as_ps());
        w.u64(self.fabric.pcie_bytes_per_sec);
        w.u64(self.fabric.pcie_latency.as_ps());
        for d in [
            self.uvm_costs.far_fault_base,
            self.uvm_costs.protection_fault_base,
            self.uvm_costs.pte_update,
            self.uvm_costs.invalidation_base,
            self.uvm_costs.invalidation_extra,
            self.uvm_costs.counter_migration_base,
            self.uvm_costs.fault_service,
        ] {
            w.u64(d.as_ps());
        }
        w.u32(self.counter_threshold);
        w.u32(self.counter_weight);
        w.bool(self.gpu_capacity_pages.is_some());
        w.u64(self.gpu_capacity_pages.unwrap_or(0));
        w.u8(match self.placement {
            Placement::Host => 0,
            Placement::Striped => 1,
        });
        w.bool(self.prefetch_group);
        w.u64(self.kernel_launch_overhead.as_ps());
        w.u8(match self.error_policy {
            ErrorPolicy::FailFast => 0,
            ErrorPolicy::RecordAndContinue => 1,
        });
        w.u8(match self.guard {
            GuardMode::Off => 0,
            GuardMode::Epoch => 1,
            GuardMode::Step => 2,
        });
        w.u64(self.stall_window);
        w.u64(self.trace_capacity as u64);
        w.bool(self.metrics);
        self.fault_plan.encode(w);
    }

    /// Reads a configuration [`encode`](SystemConfig::encode)d into a
    /// checkpoint, rejecting unknown enum tags as malformed.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let gpu_count = r.usize()?;
        let page_size = match r.u8()? {
            0 => PageSize::Small4K,
            1 => PageSize::Large2M,
            b => return Err(r.malformed(format!("invalid page-size byte {b}"))),
        };
        let lanes_per_gpu = r.usize()?;
        let clock_ghz = r.f64()?;
        if !(clock_ghz.is_finite() && clock_ghz > 0.0) {
            return Err(r.malformed(format!("invalid clock frequency {clock_ghz}")));
        }
        let l1_tlb = (r.usize()?, r.usize()?);
        let l2_tlb = (r.usize()?, r.usize()?);
        let l2_cache = (r.u64()?, r.usize()?, r.u64()?);
        let l1_tlb_cycles = r.u64()?;
        let l2_tlb_cycles = r.u64()?;
        let page_walk_cycles = r.u64()?;
        let ps = |r: &mut ByteReader<'_>| r.u64().map(Duration::from_ps);
        let l2_cache_latency = ps(r)?;
        let dram_latency = ps(r)?;
        let remote_access_overhead = ps(r)?;
        let host_access_overhead = ps(r)?;
        let dram_bytes_per_sec = r.u64()?;
        let fabric = FabricConfig {
            nvlink_bytes_per_sec: r.u64()?,
            nvlink_latency: ps(r)?,
            pcie_bytes_per_sec: r.u64()?,
            pcie_latency: ps(r)?,
        };
        let uvm_costs = UvmCosts {
            far_fault_base: ps(r)?,
            protection_fault_base: ps(r)?,
            pte_update: ps(r)?,
            invalidation_base: ps(r)?,
            invalidation_extra: ps(r)?,
            counter_migration_base: ps(r)?,
            fault_service: ps(r)?,
        };
        let counter_threshold = r.u32()?;
        let counter_weight = r.u32()?;
        let capped = r.bool()?;
        let capacity = r.u64()?;
        let gpu_capacity_pages = capped.then_some(capacity);
        let placement = match r.u8()? {
            0 => Placement::Host,
            1 => Placement::Striped,
            b => return Err(r.malformed(format!("invalid placement byte {b}"))),
        };
        let prefetch_group = r.bool()?;
        let kernel_launch_overhead = ps(r)?;
        let error_policy = match r.u8()? {
            0 => ErrorPolicy::FailFast,
            1 => ErrorPolicy::RecordAndContinue,
            b => return Err(r.malformed(format!("invalid error-policy byte {b}"))),
        };
        let guard = match r.u8()? {
            0 => GuardMode::Off,
            1 => GuardMode::Epoch,
            2 => GuardMode::Step,
            b => return Err(r.malformed(format!("invalid guard-mode byte {b}"))),
        };
        let stall_window = r.u64()?;
        let trace_capacity = r.usize()?;
        let metrics = r.bool()?;
        let fault_plan = FaultPlan::decode(r)?;
        Ok(SystemConfig {
            gpu_count,
            page_size,
            lanes_per_gpu,
            clock_ghz,
            l1_tlb,
            l2_tlb,
            l2_cache,
            l1_tlb_cycles,
            l2_tlb_cycles,
            page_walk_cycles,
            l2_cache_latency,
            dram_latency,
            remote_access_overhead,
            host_access_overhead,
            dram_bytes_per_sec,
            fabric,
            uvm_costs,
            counter_threshold,
            counter_weight,
            gpu_capacity_pages,
            placement,
            prefetch_group,
            kernel_launch_overhead,
            error_policy,
            guard,
            stall_window,
            trace_capacity,
            metrics,
            fault_plan,
        })
    }
}

impl Policy {
    /// Serializes the policy selection (variant plus parameters) into a
    /// checkpoint section.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self {
            Policy::OnTouch => w.u8(0),
            Policy::AccessCounter => w.u8(1),
            Policy::Duplication => w.u8(2),
            Policy::Ideal => w.u8(3),
            Policy::Oasis(c) | Policy::OasisInMem(c) => {
                w.u8(if matches!(self, Policy::Oasis(_)) {
                    4
                } else {
                    5
                });
                w.u8(c.reset_threshold);
                w.u32(c.id_bits);
                w.u64(c.otable_capacity as u64);
                w.bool(c.explicit_resets);
                w.bool(c.host_pt_filter);
            }
            Policy::Grit(c) => {
                w.u8(6);
                w.u8(c.fault_trigger);
                w.u64(c.neighbor_window);
                w.u64(c.pa_cache_entries as u64);
                w.u64(c.attribute_fetch.as_ps());
            }
        }
    }

    /// Reads a policy [`encode`](Policy::encode)d into a checkpoint.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Policy::OnTouch,
            1 => Policy::AccessCounter,
            2 => Policy::Duplication,
            3 => Policy::Ideal,
            tag @ (4 | 5) => {
                let c = OasisConfig {
                    reset_threshold: r.u8()?,
                    id_bits: r.u32()?,
                    otable_capacity: r.usize()?,
                    explicit_resets: r.bool()?,
                    host_pt_filter: r.bool()?,
                };
                if tag == 4 {
                    Policy::Oasis(c)
                } else {
                    Policy::OasisInMem(c)
                }
            }
            6 => Policy::Grit(GritConfig {
                fault_trigger: r.u8()?,
                neighbor_window: r.u64()?,
                pa_cache_entries: r.usize()?,
                attribute_fetch: Duration::from_ps(r.u64()?),
            }),
            b => return Err(r.malformed(format!("invalid policy tag {b}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = SystemConfig::default();
        assert_eq!(c.gpu_count, 4);
        assert_eq!(c.l1_tlb, (32, 32));
        assert_eq!(c.l2_tlb, (512, 16));
        assert_eq!(c.l2_cache.0, 256 * 1024);
        assert_eq!(c.counter_threshold, 256);
        assert_eq!(c.fabric.nvlink_bytes_per_sec, 300_000_000_000);
        assert_eq!(c.fabric.pcie_bytes_per_sec, 32_000_000_000);
        assert_eq!(c.page_size, PageSize::Small4K);
    }

    #[test]
    fn latency_helpers_use_clock() {
        let c = SystemConfig::default();
        assert_eq!(c.l1_tlb_latency(), Duration::from_ns(1));
        assert_eq!(c.l2_tlb_latency(), Duration::from_ns(10));
        assert_eq!(c.page_walk_latency(), Duration::from_ns(500));
    }

    #[test]
    fn oversubscription_caps_capacity() {
        let footprint = 32u64 << 20; // 8192 pages
        let c = SystemConfig::default().with_oversubscription(footprint, 150);
        // 150% oversubscription: capacity = 8192/1.5 ≈ 5461 pages total,
        // ~1365 per GPU.
        let per_gpu = c.gpu_capacity_pages.unwrap();
        assert!((1300..=1400).contains(&per_gpu), "{per_gpu}");
    }

    #[test]
    fn policy_factories() {
        for p in [
            Policy::OnTouch,
            Policy::AccessCounter,
            Policy::Duplication,
            Policy::Ideal,
            Policy::oasis(),
            Policy::oasis_inmem(),
            Policy::grit(),
        ] {
            let engine = p.build();
            assert_eq!(engine.name(), p.name());
        }
    }

    #[test]
    fn trackers_match_policy_modes() {
        // Whether a tagged pointer carries the Obj_ID (the config bit).
        let hardware = |p: Policy| {
            let mut t = p.tracker();
            let ptr = t.on_alloc(oasis_mem::types::Va(0x1000_0000));
            oasis_core::decode(ptr, t.id_bits()).1
        };
        assert!(hardware(Policy::oasis()));
        assert!(!hardware(Policy::oasis_inmem()));
        assert!(!hardware(Policy::OnTouch));
    }

    #[test]
    fn config_and_policy_round_trip_through_the_codec() {
        let cfg = SystemConfig {
            gpu_count: 8,
            page_size: PageSize::Large2M,
            clock_ghz: 1.5,
            gpu_capacity_pages: Some(777),
            placement: Placement::Striped,
            error_policy: ErrorPolicy::RecordAndContinue,
            guard: GuardMode::Epoch,
            stall_window: 42,
            trace_capacity: 4096,
            metrics: true,
            fault_plan: FaultPlan::parse("seed:9,down:0-1@2,flaky:2-3@1-6:1/8,ecc:0@3x2")
                .expect("valid plan"),
            ..SystemConfig::default()
        };
        let mut w = ByteWriter::new();
        cfg.encode(&mut w);
        let buf = w.into_vec();
        let mut r = ByteReader::new("config", &buf);
        let back = SystemConfig::decode(&mut r).expect("decode");
        assert!(r.is_empty(), "decode must consume the whole payload");
        let mut w2 = ByteWriter::new();
        back.encode(&mut w2);
        assert_eq!(w2.as_slice(), buf, "re-encoding must be bit-identical");
        assert_eq!(back.gpu_count, 8);
        assert_eq!(back.gpu_capacity_pages, Some(777));
        assert_eq!(back.stall_window, 42);
        assert_eq!(back.trace_capacity, 4096);
        assert!(back.metrics);

        for p in [
            Policy::OnTouch,
            Policy::AccessCounter,
            Policy::Duplication,
            Policy::Ideal,
            Policy::oasis(),
            Policy::oasis_inmem(),
            Policy::grit(),
        ] {
            let mut w = ByteWriter::new();
            p.encode(&mut w);
            let buf = w.into_vec();
            let mut r = ByteReader::new("config", &buf);
            let back = Policy::decode(&mut r).expect("decode");
            assert!(r.is_empty());
            assert_eq!(back, p);
        }
    }

    #[test]
    fn bad_enum_tags_are_malformed() {
        let mut r = ByteReader::new("config", &[9]);
        let err = Policy::decode(&mut r).unwrap_err();
        assert!(err.to_string().contains("invalid policy tag"), "{err}");
    }

    #[test]
    fn variant_constructors() {
        assert_eq!(SystemConfig::with_gpus(8).gpu_count, 8);
        assert_eq!(
            SystemConfig::with_large_pages().page_size,
            PageSize::Large2M
        );
    }
}
