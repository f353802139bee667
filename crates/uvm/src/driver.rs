//! The UVM driver: centralized state plus fault-resolution mechanics.
//!
//! The driver owns the system's memory state (centralized host page table,
//! per-GPU local page tables, per-GPU frame residency) and implements the
//! mechanics every policy is built from: page migration, read duplication,
//! write-collapse, remote mapping with hardware access counters, and LRU
//! eviction to the host under oversubscription. *Which* mechanic resolves a
//! given fault is delegated to the configured [`PolicyEngine`].
//!
//! Every public operation is fallible: instead of aborting on inconsistent
//! state or malformed input, the driver returns a typed
//! [`SimError`](oasis_engine::SimError) so callers can fail fast, record and
//! continue, or feed the failure back to the fault-injection harness.

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::digest::{entry_hash, DigestMap, StateHasher};
use oasis_engine::error::{EvictionError, FaultError, MigrationError, SimError, SimResult};
use oasis_engine::{
    CounterHandle, Duration, Endpoint, HistogramHandle, Observer, Time, TraceEvent,
};
use oasis_interconnect::Fabric;
use oasis_mem::frames::FrameAllocator;
use oasis_mem::page::{HostEntry, HostPageTable, LocalPageTable, PolicyBits, Pte};
use oasis_mem::types::{AccessKind, DeviceId, GpuId, ObjectId, PageSize, Va, Vpn};

use crate::costs::UvmCosts;
use crate::fault::{FaultType, PageFault};
use crate::policy::{PolicyEngine, Resolution};
use crate::stats::UvmStats;

/// Pages per 64 KiB access-counter group for 4 KiB pages (the NVIDIA
/// driver's counter granularity, Table I).
const GROUP_BYTES: u64 = 64 * 1024;

/// Replayed fault-service attempts allowed while recovering a page whose
/// frame was ECC-poisoned, before the driver gives up with
/// [`SimError::HardwareExhausted`].
pub const ECC_RETRY_BUDGET: u32 = 4;

/// Process-wide switches that deliberately break driver mechanics, used by
/// the fuzzer's meta-tests to prove the oracle and invariant checker catch
/// real bugs. All flags default to off; production paths read them through
/// an atomic load and behave identically while unset.
pub mod test_flags {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SKIP_EVICT_INVALIDATION: AtomicBool = AtomicBool::new(false);

    /// When set, `do_evict` leaves the evicting GPU's own PTE stale when it
    /// writes an owned page back to the host — the class of bug the
    /// `local-pte-agrees` guard invariant exists to catch.
    pub fn set_skip_evict_invalidation(on: bool) {
        SKIP_EVICT_INVALIDATION.store(on, Ordering::Relaxed);
    }

    /// Whether the planted eviction bug is currently enabled.
    pub fn skip_evict_invalidation() -> bool {
        SKIP_EVICT_INVALIDATION.load(Ordering::Relaxed)
    }
}

/// Maps a simulated device to a trace endpoint.
fn endpoint(dev: DeviceId) -> Endpoint {
    match dev {
        DeviceId::Host => Endpoint::Host,
        DeviceId::Gpu(g) => Endpoint::Gpu(g.0),
    }
}

/// The memory state shared between the driver and policy engines.
#[derive(Debug)]
pub struct MemState {
    /// Translation granularity of this run.
    pub page_size: PageSize,
    /// The centralized page table on the host (the driver's ground truth).
    pub host_table: HostPageTable,
    /// Per-GPU local page tables (walked by each GMMU).
    pub local_tables: Vec<LocalPageTable>,
    /// Per-GPU physical-frame residency (finite under oversubscription).
    pub frames: Vec<FrameAllocator>,
}

impl MemState {
    /// Creates state for `gpu_count` GPUs, each with `capacity_pages`
    /// local frames (`None` = unbounded, the non-oversubscribed setup).
    pub fn new(gpu_count: usize, page_size: PageSize, capacity_pages: Option<u64>) -> Self {
        assert!(gpu_count > 0, "need at least one GPU");
        MemState {
            page_size,
            host_table: HostPageTable::new(),
            local_tables: (0..gpu_count).map(|_| LocalPageTable::new()).collect(),
            frames: (0..gpu_count)
                .map(|_| FrameAllocator::new(capacity_pages))
                .collect(),
        }
    }

    /// Number of GPUs in the system.
    pub fn gpu_count(&self) -> usize {
        self.local_tables.len()
    }
}

/// What a fault resolution (or counter notification) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Page migrated to the requester.
    Migrated,
    /// Read-only duplicate created on the requester.
    Duplicated,
    /// Write far fault under duplication: duplicate, then immediate
    /// protection fault and collapse (Section IV-B's private-write
    /// pathology).
    DuplicatedAndCollapsed,
    /// Protection fault resolved by collapsing all copies to the writer.
    /// Under access-counter policy bits, later sharers then remote-map
    /// instead of re-duplicating.
    CollapsedToWriter,
    /// Remote mapping installed; no data moved.
    RemoteMapped,
    /// Writable ideal copy created (hypothetical Ideal policy).
    IdealCopied,
    /// A hardware access counter hit its threshold and migrated `pages`
    /// pages of its 64 KiB group.
    CounterMigrated {
        /// How many pages of the group moved.
        pages: u32,
    },
    /// An ECC poison event retired a frame that held a read-only replica;
    /// the authoritative copy elsewhere keeps serving, so no data was
    /// re-fetched (hardware-fault model).
    EccReplicaDropped,
}

/// The result of a driver operation, consumed by the GPU-side model.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What happened.
    pub kind: OutcomeKind,
    /// Total latency charged to the triggering access.
    pub latency: Duration,
    /// `(gpu, vpn)` translations invalidated; the GPU model must drop the
    /// corresponding TLB entries and cache lines.
    pub invalidations: Vec<(GpuId, Vpn)>,
    /// Portion of `latency` spent moving data over the fabric.
    pub transfer_time: Duration,
    /// Portion of `latency` spent on invalidation (shootdown) rounds.
    pub shootdown_time: Duration,
    /// Portion of `latency` spent queued behind the serialized driver
    /// pipeline.
    pub queue_wait: Duration,
}

impl Outcome {
    fn new(kind: OutcomeKind) -> Self {
        Outcome {
            kind,
            latency: Duration::ZERO,
            invalidations: Vec::new(),
            transfer_time: Duration::ZERO,
            shootdown_time: Duration::ZERO,
            queue_wait: Duration::ZERO,
        }
    }
}

/// The UVM driver.
pub struct UvmDriver {
    /// Centralized memory state.
    pub state: MemState,
    /// The active page-management policy.
    pub policy: Box<dyn PolicyEngine>,
    /// Latency parameters.
    pub costs: UvmCosts,
    /// Remote accesses per 64 KiB group before a counter migration
    /// (Table I: 256).
    pub counter_threshold: u32,
    /// Counter increment per observed transaction. Trace transactions are
    /// sampled (one stands for several coalesced warp accesses), so the
    /// platform sets this to the sampling factor to keep the *effective*
    /// threshold faithful to real access volumes. Default 1.
    pub counter_weight: u32,
    /// Event counters.
    pub stats: UvmStats,
    /// Fault-driven migrations of one page within [`Self::thrash_window`]
    /// before the driver pins it (serves it remotely instead of
    /// migrating), mirroring the real UVM driver's thrashing mitigation.
    pub thrash_threshold: u32,
    /// Sliding window for thrash detection.
    pub thrash_window: Duration,
    /// When true, resolving a far fault by migration from *host* memory
    /// also pulls in the untouched remainder of the page's 64 KiB group —
    /// a simplified form of the real UVM driver's density/tree-based
    /// neighborhood prefetcher. Off by default (the paper's baseline does
    /// not isolate it); exposed for the ablation study.
    pub prefetch_group: bool,
    group_shift: u32,
    /// Raw access counters per `(gpu, 64 KiB group)`.
    counters: DigestMap<(u8, u64), u32>,
    /// Per-page (migration count in window, window start) for thrash
    /// detection.
    thrash: DigestMap<Vpn, (u32, Time)>,
    /// When the serialized host fault-handling pipeline frees up.
    driver_free: Time,
    /// Observability sink (tracer + metrics). Purely observational:
    /// excluded from [`Snapshot`]/[`Restore`] and rebuilt from config on
    /// resume, so tracing cannot perturb replay.
    pub obs: Observer,
    /// Pre-resolved metric slots for the per-fault observation path
    /// (re-resolved by [`UvmDriver::bind_metric_handles`] whenever `obs`
    /// is replaced).
    mh: FaultMetricHandles,
}

/// Handles into `obs.metrics` for every metric the fault path updates per
/// event, so servicing a fault never pays a name lookup. Handles from a
/// disabled registry are inert, so binding is unconditional.
#[derive(Debug, Clone, Copy)]
struct FaultMetricHandles {
    far: CounterHandle,
    protection: CounterHandle,
    service_ns: HistogramHandle,
    queue_ns: HistogramHandle,
    transfer_ns: HistogramHandle,
    shootdown_ns: HistogramHandle,
}

impl FaultMetricHandles {
    fn bind(m: &mut oasis_engine::MetricsRegistry) -> Self {
        FaultMetricHandles {
            far: m.counter_handle("uvm.fault.far"),
            protection: m.counter_handle("uvm.fault.protection"),
            service_ns: m.histogram_handle("uvm.fault.service_ns"),
            queue_ns: m.histogram_handle("uvm.fault.queue_ns"),
            transfer_ns: m.histogram_handle("uvm.fault.transfer_ns"),
            shootdown_ns: m.histogram_handle("uvm.fault.shootdown_ns"),
        }
    }
}

impl std::fmt::Debug for UvmDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UvmDriver")
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl UvmDriver {
    /// Creates a driver for `gpu_count` GPUs using `policy`.
    pub fn new(
        gpu_count: usize,
        page_size: PageSize,
        capacity_pages: Option<u64>,
        policy: Box<dyn PolicyEngine>,
        costs: UvmCosts,
        counter_threshold: u32,
    ) -> Self {
        let pages_per_group = (GROUP_BYTES / page_size.bytes()).max(1);
        UvmDriver {
            state: MemState::new(gpu_count, page_size, capacity_pages),
            policy,
            costs,
            counter_threshold,
            counter_weight: 1,
            thrash_threshold: 4,
            thrash_window: Duration::from_ms(1),
            prefetch_group: false,
            thrash: DigestMap::new(|vpn, &(count, start)| {
                entry_hash([vpn.0, u64::from(count), start.as_ps()])
            }),
            stats: UvmStats::default(),
            group_shift: pages_per_group.trailing_zeros(),
            counters: DigestMap::new(|&(gpu, group), &count| {
                entry_hash([u64::from(gpu), group, u64::from(count)])
            }),
            driver_free: Time::ZERO,
            obs: Observer::disabled(),
            mh: FaultMetricHandles::bind(&mut oasis_engine::MetricsRegistry::disabled()),
        }
    }

    /// Re-resolves the fault path's metric handles against the current
    /// `obs.metrics`. Must be called after replacing [`UvmDriver::obs`];
    /// handles from a previous registry would index the wrong slots.
    pub fn bind_metric_handles(&mut self) {
        self.mh = FaultMetricHandles::bind(&mut self.obs.metrics);
    }

    /// The host-table entry for `vpn`, copied, or a migration error if the
    /// page vanished mid-mechanic.
    fn entry(&self, vpn: Vpn) -> SimResult<HostEntry> {
        self.state
            .host_table
            .get(vpn)
            .copied()
            .ok_or_else(|| MigrationError::SourceMissing { vpn: vpn.0 }.into())
    }

    /// Applies `f` to the host-table entry for `vpn`, or returns a
    /// migration error if the page vanished mid-mechanic.
    fn update_entry<R>(&mut self, vpn: Vpn, f: impl FnOnce(&mut HostEntry) -> R) -> SimResult<R> {
        self.state
            .host_table
            .update(vpn, f)
            .ok_or_else(|| MigrationError::SourceMissing { vpn: vpn.0 }.into())
    }

    /// Records a data-moving fault for `vpn` in the sliding thrash window
    /// and reports whether the page is now considered thrashing.
    fn thrash_check(&mut self, now: Time, vpn: Vpn) -> bool {
        let window = self.thrash_window;
        let moves = self.thrash.update(vpn, (0, now), |e| {
            if now.since(e.1.min(now)) > window {
                *e = (0, now);
            }
            e.0 += 1;
            e.0
        });
        moves > self.thrash_threshold
    }

    /// Reserves the serialized driver pipeline at `now`, returning the
    /// queueing delay incurred. Faults that arrive while the pipeline is
    /// busy are *batched*: real UVM drains its fault buffer in groups, so
    /// back-to-back faults amortize to roughly half the isolated service
    /// time.
    fn reserve_driver(&mut self, now: Time, service: Duration) -> Duration {
        let busy = now < self.driver_free;
        let start = now.max(self.driver_free);
        let effective = if busy { service / 2 } else { service };
        self.driver_free = start + effective;
        start.since(now)
    }

    /// Registers all pages of a new object, placing them at `placement`,
    /// and notifies the policy engine of the allocation.
    ///
    /// Overlapping an existing allocation yields a
    /// [`TableError`](oasis_engine::TableError); pages registered before the
    /// clash are left in place (the caller is expected to abandon the run).
    pub fn alloc_object(
        &mut self,
        obj: ObjectId,
        base: Va,
        bytes: u64,
        placement: impl Fn(Vpn) -> DeviceId,
    ) -> SimResult<()> {
        let first = base.vpn(self.state.page_size).0;
        let last = Va(base.canonical().0 + bytes.max(1) - 1)
            .vpn(self.state.page_size)
            .0;
        for p in first..=last {
            let dev = placement(Vpn(p));
            let entry = match dev {
                DeviceId::Host => HostEntry::new_on_host(),
                DeviceId::Gpu(g) => {
                    // Initially-striped pages are resident and mapped on
                    // their GPU from the start (Fig. 21).
                    if let Some(victim) = self.state.frames[g.index()].insert(Vpn(p)) {
                        // Initial placement overflowed the device: spill the
                        // victim back to the host so residency and the host
                        // table stay in agreement.
                        self.state.local_tables[g.index()].invalidate(victim);
                        self.state.host_table.update(victim, |e| {
                            e.owner = DeviceId::Host;
                            e.copy_mask = 0;
                            e.mapper_mask = 0;
                        });
                        self.stats.evictions += 1;
                    }
                    self.state.local_tables[g.index()].insert(
                        Vpn(p),
                        Pte {
                            location: dev,
                            writable: true,
                            policy: PolicyBits::OnTouch,
                        },
                    );
                    HostEntry::new_at(dev)
                }
            };
            self.state.host_table.register(Vpn(p), entry)?;
        }
        self.policy.on_alloc(obj, base, bytes);
        Ok(())
    }

    /// Notifies the policy of an explicit phase boundary (kernel launch).
    pub fn kernel_launch(&mut self) {
        self.policy.on_kernel_launch();
    }

    /// Resolves a page fault at simulated time `now`.
    ///
    /// A fault on a page that was never registered (a trace touching
    /// unallocated memory) returns
    /// [`FaultError::UnregisteredPage`]; a fault naming a GPU outside the
    /// system returns [`FaultError::NoSuchGpu`]. Either leaves the driver
    /// state untouched.
    pub fn handle_fault(
        &mut self,
        now: Time,
        fault: &PageFault,
        fabric: &mut Fabric,
    ) -> SimResult<Outcome> {
        if fault.gpu.index() >= self.state.gpu_count() {
            return Err(FaultError::NoSuchGpu {
                gpu: fault.gpu.0,
                gpu_count: self.state.gpu_count(),
            }
            .into());
        }
        if self
            .state
            .host_table
            .update(fault.vpn, |e| e.mark_touched(fault.gpu))
            .is_none()
        {
            return Err(FaultError::UnregisteredPage {
                vpn: fault.vpn.0,
                gpu: fault.gpu.0,
            }
            .into());
        }
        match fault.fault_type {
            FaultType::Far => self.stats.far_faults += 1,
            FaultType::Protection => self.stats.protection_faults += 1,
        }

        let decision = self.policy.resolve(fault, &self.state);
        // A duplicate whose source sits across a permanently dead link still
        // works (the fabric stages the data over PCIe), but it is a bad bet
        // going forward: tell the policy so stateful engines demote the
        // object away from duplication (OASIS's self-correction path).
        if decision.resolution == Resolution::Duplicate {
            if let Some(DeviceId::Gpu(src)) = self.state.host_table.get(fault.vpn).map(|e| e.owner)
            {
                if src != fault.gpu && fabric.link_is_down(src.0, fault.gpu.0) {
                    self.policy.on_link_degraded(fault.va);
                    self.obs.metrics.add("uvm.link_demotions", 1);
                }
            }
        }
        let base = match fault.fault_type {
            FaultType::Far => self.costs.far_fault_base,
            FaultType::Protection => self.costs.protection_fault_base,
        };
        // Fault packet to the host and resolution reply back to the GPU.
        let rtt = self.costs.pte_update
            + fabric.control_latency(DeviceId::Gpu(fault.gpu), DeviceId::Host) * 2;
        // The host fault pipeline is serialized: queue behind in-flight
        // fault work. The wait is charged to the fault's total latency, but
        // data transfers are reserved from the arrival time: pushing them
        // past the queue delay would let one backlogged fault poison the
        // interconnect for unrelated earlier requesters.
        let queue_wait = self.reserve_driver(now, self.costs.fault_service);

        // Thrashing mitigation (as in the real UVM driver): a page that
        // keeps bouncing between processors gets *pinned* — served through
        // a remote mapping instead of moved again.
        let owner = self
            .state
            .host_table
            .get(fault.vpn)
            .map(|e| e.owner)
            .unwrap_or(DeviceId::Host);
        let moves_data = matches!(
            (fault.fault_type, decision.resolution),
            (FaultType::Far, Resolution::Migrate | Resolution::Duplicate)
                | (FaultType::Protection, _)
        );
        let pinnable = owner != DeviceId::Gpu(fault.gpu)
            && fault.fault_type == FaultType::Far
            && matches!(
                decision.resolution,
                Resolution::Migrate | Resolution::Duplicate
            );
        let thrashing = moves_data && self.thrash_check(now, fault.vpn);

        let mut out;
        if thrashing && pinnable {
            out = Outcome::new(OutcomeKind::RemoteMapped);
            self.do_remote_map(now, fault.gpu, fault.vpn, &mut out)?;
            self.stats.thrash_pins += 1;
            out.queue_wait = queue_wait;
            out.latency += base + rtt + decision.metadata_latency + queue_wait;
            self.observe_fault(now, fault, &out);
            return Ok(out);
        }
        match (fault.fault_type, decision.resolution) {
            (FaultType::Far, Resolution::Migrate) => {
                out = Outcome::new(OutcomeKind::Migrated);
                self.do_migrate(
                    now,
                    fault.gpu,
                    fault.vpn,
                    PolicyBits::OnTouch,
                    fabric,
                    &mut out,
                )?;
                self.stats.migrations += 1;
                if self.prefetch_group && owner == DeviceId::Host {
                    self.do_group_prefetch(now, fault.gpu, fault.vpn, fabric, &mut out)?;
                }
            }
            (FaultType::Far, Resolution::RemoteMap) => {
                out = Outcome::new(OutcomeKind::RemoteMapped);
                self.do_remote_map(now, fault.gpu, fault.vpn, &mut out)?;
            }
            (FaultType::Far, Resolution::Duplicate) => {
                if fault.is_write() {
                    // Duplicate read-only, then the store immediately raises
                    // a protection fault and collapses to the writer. The
                    // driver resolves the replayed fault within the same
                    // pipeline occupancy, but the requester eats the extra
                    // protection-fault latency.
                    out = Outcome::new(OutcomeKind::DuplicatedAndCollapsed);
                    self.do_duplicate(now, fault.gpu, fault.vpn, fabric, &mut out)?;
                    out.latency += self.costs.protection_fault_base;
                    self.stats.protection_faults += 1;
                    self.do_collapse_to_writer(now, fault.gpu, fault.vpn, fabric, &mut out)?;
                } else {
                    out = Outcome::new(OutcomeKind::Duplicated);
                    self.do_duplicate(now, fault.gpu, fault.vpn, fabric, &mut out)?;
                }
            }
            (FaultType::Far, Resolution::IdealCopy) => {
                out = Outcome::new(OutcomeKind::IdealCopied);
                self.do_ideal_copy(now, fault.gpu, fault.vpn, fabric, &mut out)?;
            }
            (FaultType::Protection, Resolution::RemoteMap) => {
                // Access-counter handling of a write to a duplicated page:
                // the copies collapse to the writer, and the page's policy
                // bits switch to access-counter so *later* sharers get
                // remote mappings instead of new duplicates.
                out = Outcome::new(OutcomeKind::CollapsedToWriter);
                let old_bits = self.update_entry(fault.vpn, |e| {
                    std::mem::replace(&mut e.policy, PolicyBits::AccessCounter)
                })?;
                self.note_policy(now, fault.vpn, old_bits, PolicyBits::AccessCounter);
                self.do_collapse_to_writer(now, fault.gpu, fault.vpn, fabric, &mut out)?;
            }
            (FaultType::Protection, _) => {
                out = Outcome::new(OutcomeKind::CollapsedToWriter);
                self.do_collapse_to_writer(now, fault.gpu, fault.vpn, fabric, &mut out)?;
            }
        }
        out.queue_wait = queue_wait;
        out.latency += base + rtt + decision.metadata_latency + queue_wait;
        self.observe_fault(now, fault, &out);
        Ok(out)
    }

    /// Records a remote access by `gpu` to `vpn` (which it maps remotely).
    /// Returns a migration outcome when the 64 KiB group's counter reaches
    /// the threshold.
    pub fn note_remote_access(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
    ) -> SimResult<Option<Outcome>> {
        let group = vpn.0 >> self.group_shift;
        let (weight, threshold) = (self.counter_weight, self.counter_threshold);
        let tripped = self.counters.update((gpu.0, group), 0, |c| {
            *c = c.saturating_add(weight);
            let tripped = *c >= threshold;
            if tripped {
                *c = 0;
            }
            tripped
        });
        if !tripped {
            return Ok(None);
        }
        self.obs.metrics.add("uvm.counter.trip", 1);
        let mut out = Outcome::new(OutcomeKind::CounterMigrated { pages: 0 });
        // Counter notifications go through the same serialized driver
        // pipeline as faults.
        let queue_wait = self.reserve_driver(now, self.costs.fault_service);
        out.latency += self.costs.counter_migration_base + queue_wait;
        // The hardware counter covers a 64 KiB region: once it trips, the
        // driver migrates the *whole group* from the triggering page's
        // source, not just the pages this GPU happens to map already
        // (matching the region-granular migration of real UVM stacks).
        let source = self
            .state
            .host_table
            .get(vpn)
            .map(|e| e.owner)
            .unwrap_or(DeviceId::Host);
        let first = group << self.group_shift;
        let mut moved = 0u32;
        for p in first..first + (1 << self.group_shift) {
            let vpn = Vpn(p);
            let keep_policy = self.state.host_table.get(vpn).and_then(|e| {
                let migrate =
                    e.owner != DeviceId::Gpu(gpu) && (e.maps_remotely(gpu) || e.owner == source);
                migrate.then_some(e.policy)
            });
            if let Some(bits) = keep_policy {
                self.do_migrate(now, gpu, vpn, bits, fabric, &mut out)?;
                self.stats.counter_migrations += 1;
                moved += 1;
            }
        }
        if moved == 0 {
            return Ok(None);
        }
        // A migration resets *every* GPU's counter for the group: the next
        // contender must accumulate a full threshold of remote accesses
        // before stealing it back, which paces ping-ponging at the
        // threshold period (as the real counter clear-on-migrate does).
        for g in 0..self.state.gpu_count() as u8 {
            self.counters.remove(&(g, group));
        }
        out.kind = OutcomeKind::CounterMigrated { pages: moved };
        // Counter migrations are asynchronous: the notification is handled
        // by the driver in the background while the triggering access
        // completes remotely. The work still occupies the driver pipeline
        // and the interconnect (reserved above); only the triggering lane
        // is spared the stall.
        out.latency = Duration::ZERO;
        Ok(Some(out))
    }

    /// The page size this driver operates at.
    pub fn page_size(&self) -> PageSize {
        self.state.page_size
    }

    /// Overwrites the raw access counter of `vpn`'s 64 KiB group for `gpu`.
    ///
    /// Not used by normal simulation — this is the fault-injection hook for
    /// modelling corrupted or saturated hardware counters.
    pub fn poke_counter(&mut self, gpu: GpuId, vpn: Vpn, value: u32) {
        let group = vpn.0 >> self.group_shift;
        self.counters.insert((gpu.0, group), value);
    }

    /// Overwrites the learned policy bits of a registered page.
    ///
    /// Not used by normal simulation — this is the fault-injection hook for
    /// modelling mid-phase policy flips.
    pub fn set_page_policy(&mut self, vpn: Vpn, bits: PolicyBits) -> SimResult<()> {
        self.update_entry(vpn, |e| e.policy = bits)
    }

    /// Applies an ECC poison event to the frame holding `vpn` on `gpu`:
    /// the frame is quarantined (permanently reducing the GPU's usable
    /// capacity), and the lost copy is either dropped (read-only replica —
    /// the authoritative copy elsewhere keeps serving) or recovered by
    /// replaying the far fault from the home copy with a bounded
    /// retry/backoff budget.
    ///
    /// Returns `Ok(None)` if the page was not resident on `gpu` (no frame
    /// to poison), `Ok(Some(outcome))` after a drop or successful
    /// re-service, and [`SimError::HardwareExhausted`] once the retry
    /// budget ([`ECC_RETRY_BUDGET`]) runs out — never a panic.
    pub fn poison_frame(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
    ) -> SimResult<Option<Outcome>> {
        if gpu.index() >= self.state.gpu_count() {
            return Err(FaultError::NoSuchGpu {
                gpu: gpu.0,
                gpu_count: self.state.gpu_count(),
            }
            .into());
        }
        if !self.state.frames[gpu.index()].quarantine(vpn) {
            return Ok(None);
        }
        self.stats.ecc_quarantines += 1;
        self.obs.metrics.add("uvm.ecc.quarantine", 1);
        self.obs.emit(now, || TraceEvent::FrameQuarantine {
            gpu: gpu.0,
            vpn: vpn.0,
        });
        let entry = self.entry(vpn)?;
        if entry.owner != DeviceId::Gpu(gpu) {
            // The poisoned frame held a read-only duplicate (or ideal
            // copy): drop the replica, no data re-fetch needed.
            let mut out = Outcome::new(OutcomeKind::EccReplicaDropped);
            self.invalidate_at(now, gpu, vpn, false, &mut out);
            self.charge_invalidation(1, &mut out);
            self.update_entry(vpn, |e| e.copy_mask &= !(1 << gpu.0))?;
            return Ok(Some(out));
        }
        // The poisoned frame held the authoritative copy: fall back to the
        // home copy on the host, tear down every stale translation, then
        // replay the far fault so the victim GPU re-fetches the page.
        let mut out = Outcome::new(OutcomeKind::EccReplicaDropped);
        let mut inv = 0usize;
        for g in entry.duplicate_holders().chain(entry.remote_mappers()) {
            if g != gpu {
                self.invalidate_at(now, g, vpn, true, &mut out);
                inv += 1;
            }
        }
        self.invalidate_at(now, gpu, vpn, false, &mut out);
        inv += 1;
        self.charge_invalidation(inv, &mut out);
        self.update_entry(vpn, |e| {
            e.owner = DeviceId::Host;
            e.copy_mask = 0;
            e.mapper_mask = 0;
        })?;
        let mut reserviced = self.reservice_poisoned(now, gpu, vpn, fabric)?;
        reserviced.latency += out.latency;
        reserviced.shootdown_time += out.shootdown_time;
        reserviced.invalidations.extend(out.invalidations);
        Ok(Some(reserviced))
    }

    /// Replays the far fault for a poisoned page with a bounded
    /// retry/backoff budget. Each attempt that cannot land (the GPU has no
    /// usable frame left) backs off for twice as long; exhausting
    /// [`ECC_RETRY_BUDGET`] attempts surfaces
    /// [`SimError::HardwareExhausted`].
    fn reservice_poisoned(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
    ) -> SimResult<Outcome> {
        let va = Va(vpn.0 * self.page_bytes());
        let mut backoff = self.costs.fault_service;
        let mut when = now;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.stats.fault_retries += 1;
            self.obs.metrics.add("uvm.ecc.retry", 1);
            self.obs.emit(when, || TraceEvent::FaultRetry {
                gpu: gpu.0,
                vpn: vpn.0,
                attempt,
            });
            // An ECC replay is recovery, not ping-ponging: keep it out of
            // the thrash detector so repeated attempts are not "pinned"
            // into a remote mapping the policy never asked for.
            self.thrash.remove(&vpn);
            let pf = PageFault::far(gpu, va, vpn, AccessKind::Read);
            match self.handle_fault(when, &pf, fabric) {
                Err(SimError::HardwareExhausted { .. }) if attempt < ECC_RETRY_BUDGET => {
                    when += backoff;
                    backoff = backoff * 2;
                }
                Err(SimError::HardwareExhausted { .. }) => {
                    return Err(SimError::HardwareExhausted {
                        gpu: gpu.0,
                        vpn: vpn.0,
                        retries: attempt,
                    });
                }
                other => return other,
            }
        }
    }

    // ------------------------------------------------------------------
    // Mechanics
    // ------------------------------------------------------------------

    /// Rejects a data-landing mechanic when `g` has no usable frame left
    /// (every configured frame quarantined). Pages already resident are
    /// fine — re-inserting them claims no new frame.
    fn ensure_frame_available(&self, g: GpuId, vpn: Vpn) -> SimResult<()> {
        if !self.state.frames[g.index()].contains(vpn)
            && self.state.frames[g.index()].out_of_frames()
        {
            return Err(SimError::HardwareExhausted {
                gpu: g.0,
                vpn: vpn.0,
                retries: 0,
            });
        }
        Ok(())
    }

    fn invalidate_at(
        &mut self,
        now: Time,
        g: GpuId,
        vpn: Vpn,
        drop_frame: bool,
        out: &mut Outcome,
    ) {
        if self.state.local_tables[g.index()].invalidate(vpn).is_some() {
            out.invalidations.push((g, vpn));
            self.stats.invalidations += 1;
            self.obs.emit(now, || TraceEvent::Shootdown {
                gpu: g.0,
                vpn: vpn.0,
            });
        }
        if drop_frame {
            self.state.frames[g.index()].remove(vpn);
        }
    }

    /// Charges the latency of an invalidation round covering `devices`
    /// devices, attributing it to the outcome's shootdown phase.
    fn charge_invalidation(&mut self, devices: usize, out: &mut Outcome) {
        let cost = self.costs.invalidation(devices);
        out.latency += cost;
        out.shootdown_time += cost;
    }

    /// Reserves a synchronous page transfer on the fabric, charges its
    /// latency to the outcome's transfer phase, and traces it.
    fn charge_transfer(
        &mut self,
        now: Time,
        from: DeviceId,
        to: DeviceId,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) {
        let bytes = self.page_bytes();
        let t = fabric.transfer(now + out.latency, from, to, bytes);
        let lat = t.latency_from(now + out.latency);
        out.latency += lat;
        out.transfer_time += lat;
        self.obs.emit(now, || TraceEvent::LinkTransfer {
            from: endpoint(from),
            to: endpoint(to),
            bytes,
            busy: lat,
        });
    }

    /// Records a page-policy transition (if the bits actually changed).
    fn note_policy(&mut self, now: Time, vpn: Vpn, from: PolicyBits, to: PolicyBits) {
        if from != to {
            self.obs.metrics.add("uvm.policy_switch", 1);
            self.obs.emit(now, || TraceEvent::PolicySwitch {
                vpn: vpn.0,
                from: from.bits(),
                to: to.bits(),
            });
        }
    }

    /// Records a completed fault's phase attribution into the metrics
    /// registry and the tracer.
    fn observe_fault(&mut self, now: Time, fault: &PageFault, out: &Outcome) {
        if self.obs.metrics.is_enabled() {
            match fault.fault_type {
                FaultType::Far => self.obs.metrics.add_to(self.mh.far, 1),
                FaultType::Protection => self.obs.metrics.add_to(self.mh.protection, 1),
            }
            self.obs.metrics.observe_in(self.mh.service_ns, out.latency);
            self.obs
                .metrics
                .observe_in(self.mh.queue_ns, out.queue_wait);
            self.obs
                .metrics
                .observe_in(self.mh.transfer_ns, out.transfer_time);
            self.obs
                .metrics
                .observe_in(self.mh.shootdown_ns, out.shootdown_time);
        }
        self.obs.emit(now, || TraceEvent::FarFault {
            gpu: fault.gpu.0,
            vpn: fault.vpn.0,
            write: fault.is_write(),
            queue: out.queue_wait,
            service: out.latency,
        });
    }

    /// Migrates `vpn` into `to`'s memory, invalidating every other holder.
    fn do_migrate(
        &mut self,
        now: Time,
        to: GpuId,
        vpn: Vpn,
        bits: PolicyBits,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) -> SimResult<()> {
        self.ensure_frame_available(to, vpn)?;
        let entry = self.entry(vpn)?;
        let from = entry.owner;
        let mut victims: Vec<GpuId> = Vec::new();
        for g in entry.duplicate_holders().chain(entry.remote_mappers()) {
            if !victims.contains(&g) {
                victims.push(g);
            }
        }
        if let Some(og) = from.gpu() {
            if !victims.contains(&og) {
                victims.push(og);
            }
        }
        let mut inv_count = 0usize;
        for g in victims {
            if g == to {
                // The requester's own stale mapping (e.g. a remote map being
                // upgraded by a counter migration) is replaced below, but its
                // TLB entry must still be refreshed.
                self.invalidate_at(now, g, vpn, true, out);
                continue;
            }
            self.invalidate_at(now, g, vpn, true, out);
            inv_count += 1;
        }
        self.charge_invalidation(inv_count, out);

        if from != DeviceId::Gpu(to) {
            self.charge_transfer(now, from, DeviceId::Gpu(to), fabric, out);
        }
        if let Some(victim) = self.state.frames[to.index()].insert(vpn) {
            self.do_evict(now, to, victim, fabric, out)?;
        }
        let old_bits = self.update_entry(vpn, |e| {
            e.owner = DeviceId::Gpu(to);
            e.copy_mask = 0;
            e.mapper_mask = 0;
            std::mem::replace(&mut e.policy, bits)
        })?;
        self.state.local_tables[to.index()].insert(
            vpn,
            Pte {
                location: DeviceId::Gpu(to),
                writable: true,
                policy: bits,
            },
        );
        out.latency += self.costs.pte_update;
        self.note_policy(now, vpn, old_bits, bits);
        self.obs.emit(now, || TraceEvent::Migration {
            vpn: vpn.0,
            from: endpoint(from),
            to: Endpoint::Gpu(to.0),
        });
        Ok(())
    }

    /// Installs a remote mapping for `gpu` to the page's current owner.
    fn do_remote_map(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        out: &mut Outcome,
    ) -> SimResult<()> {
        // Read-only duplicates cannot coexist with a writable remote
        // mapping: collapse them back to the owner first.
        let entry = self.entry(vpn)?;
        if entry.copy_mask != 0 {
            let mut inv = 0usize;
            for g in entry.duplicate_holders() {
                self.invalidate_at(now, g, vpn, true, out);
                inv += 1;
            }
            self.charge_invalidation(inv, out);
            self.update_entry(vpn, |e| e.copy_mask = 0)?;
        }
        let owner = self.entry(vpn)?.owner;
        if owner == DeviceId::Gpu(gpu) {
            // Degenerate case (e.g. a re-fault on a self-owned page with
            // the host-PT filter ablated): just reinstall the local
            // translation.
            self.ensure_frame_available(gpu, vpn)?;
            self.state.frames[gpu.index()].insert(vpn);
            self.state.local_tables[gpu.index()].insert(
                vpn,
                Pte {
                    location: owner,
                    writable: true,
                    policy: PolicyBits::AccessCounter,
                },
            );
            out.latency += self.costs.pte_update;
            return Ok(());
        }
        // Restore the owner's writable mapping (it may have been downgraded
        // while duplicated).
        if let Some(og) = owner.gpu() {
            self.state.local_tables[og.index()].insert(
                vpn,
                Pte {
                    location: owner,
                    writable: true,
                    policy: PolicyBits::AccessCounter,
                },
            );
        }
        let old_bits = self.update_entry(vpn, |e| {
            e.mapper_mask |= 1 << gpu.0;
            std::mem::replace(&mut e.policy, PolicyBits::AccessCounter)
        })?;
        self.state.local_tables[gpu.index()].insert(
            vpn,
            Pte {
                location: owner,
                writable: true,
                policy: PolicyBits::AccessCounter,
            },
        );
        out.latency += self.costs.pte_update;
        self.stats.remote_maps += 1;
        self.note_policy(now, vpn, old_bits, PolicyBits::AccessCounter);
        Ok(())
    }

    /// Creates a read-only duplicate of `vpn` on `gpu`.
    fn do_duplicate(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) -> SimResult<()> {
        self.ensure_frame_available(gpu, vpn)?;
        let entry = self.entry(vpn)?;
        // Writable remote mappings cannot coexist with read-only copies.
        let mut inv = 0usize;
        for g in entry.remote_mappers() {
            if g != gpu {
                self.invalidate_at(now, g, vpn, false, out);
                inv += 1;
            }
        }
        let owner = entry.owner;
        // Downgrade the owner's mapping to read-only.
        if let Some(og) = owner.gpu() {
            if let Some(pte) = self.state.local_tables[og.index()].get(vpn).copied() {
                if pte.writable {
                    self.state.local_tables[og.index()].insert(
                        vpn,
                        Pte {
                            writable: false,
                            policy: PolicyBits::Duplication,
                            ..pte
                        },
                    );
                    out.invalidations.push((og, vpn));
                    self.stats.invalidations += 1;
                    inv += 1;
                }
            }
        }
        self.charge_invalidation(inv, out);
        self.charge_transfer(now, owner, DeviceId::Gpu(gpu), fabric, out);
        if let Some(victim) = self.state.frames[gpu.index()].insert(vpn) {
            self.do_evict(now, gpu, victim, fabric, out)?;
        }
        let old_bits = self.update_entry(vpn, |e| {
            e.mapper_mask = 0;
            e.copy_mask |= 1 << gpu.0;
            std::mem::replace(&mut e.policy, PolicyBits::Duplication)
        })?;
        self.state.local_tables[gpu.index()].insert(
            vpn,
            Pte {
                location: DeviceId::Gpu(gpu),
                writable: false,
                policy: PolicyBits::Duplication,
            },
        );
        out.latency += self.costs.pte_update;
        self.stats.duplications += 1;
        self.note_policy(now, vpn, old_bits, PolicyBits::Duplication);
        self.obs.emit(now, || TraceEvent::Duplication {
            vpn: vpn.0,
            from: endpoint(owner),
            to: gpu.0,
        });
        Ok(())
    }

    /// Write-collapse: invalidate every copy and make the writer the
    /// exclusive owner.
    fn do_collapse_to_writer(
        &mut self,
        now: Time,
        writer: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) -> SimResult<()> {
        self.ensure_frame_available(writer, vpn)?;
        let entry = self.entry(vpn)?;
        let writer_has_data =
            entry.owner == DeviceId::Gpu(writer) || entry.copy_mask & (1 << writer.0) != 0;
        let mut inv = 0usize;
        for g in entry.duplicate_holders().chain(entry.remote_mappers()) {
            if g != writer {
                self.invalidate_at(now, g, vpn, true, out);
                inv += 1;
            }
        }
        if let Some(og) = entry.owner.gpu() {
            if og != writer {
                self.invalidate_at(now, og, vpn, true, out);
                inv += 1;
            }
        }
        self.charge_invalidation(inv, out);
        if !writer_has_data {
            self.charge_transfer(now, entry.owner, DeviceId::Gpu(writer), fabric, out);
        }
        if let Some(victim) = self.state.frames[writer.index()].insert(vpn) {
            self.do_evict(now, writer, victim, fabric, out)?;
        }
        let bits = self.update_entry(vpn, |e| {
            e.owner = DeviceId::Gpu(writer);
            e.copy_mask = 0;
            e.mapper_mask = 0;
            e.policy
        })?;
        self.state.local_tables[writer.index()].insert(
            vpn,
            Pte {
                location: DeviceId::Gpu(writer),
                writable: true,
                policy: bits,
            },
        );
        out.latency += self.costs.pte_update;
        self.stats.collapses += 1;
        Ok(())
    }

    /// Gives `gpu` its own writable copy with no consistency bookkeeping
    /// (the hypothetical Ideal policy).
    fn do_ideal_copy(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) -> SimResult<()> {
        self.ensure_frame_available(gpu, vpn)?;
        let entry = self.entry(vpn)?;
        self.charge_transfer(now, entry.owner, DeviceId::Gpu(gpu), fabric, out);
        if let Some(victim) = self.state.frames[gpu.index()].insert(vpn) {
            self.do_evict(now, gpu, victim, fabric, out)?;
        }
        self.update_entry(vpn, |e| e.copy_mask |= 1 << gpu.0)?;
        self.state.local_tables[gpu.index()].insert(
            vpn,
            Pte {
                location: DeviceId::Gpu(gpu),
                writable: true,
                policy: PolicyBits::OnTouch,
            },
        );
        out.latency += self.costs.pte_update;
        self.stats.ideal_copies += 1;
        Ok(())
    }

    /// Neighborhood prefetch: after a host→GPU on-touch migration, pull in
    /// the rest of the faulting page's 64 KiB group that is still
    /// host-resident and untouched. Transfers ride along with the fault's
    /// resolution (no additional fault service); PTEs are installed so the
    /// prefetched pages never fault.
    fn do_group_prefetch(
        &mut self,
        now: Time,
        gpu: GpuId,
        vpn: Vpn,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) -> SimResult<()> {
        let group = vpn.0 >> self.group_shift;
        let first = group << self.group_shift;
        for p in first..first + (1 << self.group_shift) {
            let candidate = Vpn(p);
            if candidate == vpn {
                continue;
            }
            // Prefetch is best-effort: a frame-exhausted GPU just skips it.
            if self.ensure_frame_available(gpu, candidate).is_err() {
                break;
            }
            let eligible = self.state.host_table.get(candidate).is_some_and(|e| {
                e.owner == DeviceId::Host
                    && e.copy_mask == 0
                    && e.mapper_mask == 0
                    && e.touched_by == 0
            });
            if !eligible {
                continue;
            }
            let t = fabric.transfer(
                now + out.latency,
                DeviceId::Host,
                DeviceId::Gpu(gpu),
                self.page_bytes(),
            );
            // Prefetch transfers consume bandwidth but resolve in the
            // background; only the transfer pipeline extends the fault.
            let busy = t.latency_from(now + out.latency);
            let bytes = self.page_bytes();
            self.obs.emit(now, || TraceEvent::LinkTransfer {
                from: Endpoint::Host,
                to: Endpoint::Gpu(gpu.0),
                bytes,
                busy,
            });
            if let Some(victim) = self.state.frames[gpu.index()].insert(candidate) {
                self.do_evict(now, gpu, victim, fabric, out)?;
            }
            self.update_entry(candidate, |e| e.owner = DeviceId::Gpu(gpu))?;
            self.state.local_tables[gpu.index()].insert(
                candidate,
                Pte {
                    location: DeviceId::Gpu(gpu),
                    writable: true,
                    policy: PolicyBits::OnTouch,
                },
            );
            self.stats.prefetches += 1;
        }
        Ok(())
    }

    /// Evicts `victim` from `gpu` (its frame was just reclaimed): duplicate
    /// copies are simply dropped; owned pages are written back to the host,
    /// which keeps their learned policy bits (the paper's oversubscription
    /// fix in Section VI-D).
    fn do_evict(
        &mut self,
        now: Time,
        gpu: GpuId,
        victim: Vpn,
        fabric: &mut Fabric,
        out: &mut Outcome,
    ) -> SimResult<()> {
        let entry = *self.state.host_table.get(victim).ok_or(
            // The allocator thought the frame was resident but the host
            // table has never heard of the page: the two diverged.
            EvictionError::VictimUnregistered {
                vpn: victim.0,
                gpu: gpu.0,
            },
        )?;
        self.stats.evictions += 1;
        self.obs.emit(now, || TraceEvent::Eviction {
            gpu: gpu.0,
            vpn: victim.0,
        });
        if entry.owner != DeviceId::Gpu(gpu) {
            // The victim frame held a read-only duplicate (or ideal copy):
            // drop it, no data movement needed.
            self.invalidate_at(now, gpu, victim, false, out);
            self.charge_invalidation(1, out);
            self.update_entry(victim, |e| e.copy_mask &= !(1 << gpu.0))?;
            return Ok(());
        }
        // Full eviction of an owned page: every holder is invalidated and
        // the data moves back to host memory.
        let mut inv = 0usize;
        for g in entry.duplicate_holders().chain(entry.remote_mappers()) {
            if g != gpu {
                self.invalidate_at(now, g, victim, true, out);
                inv += 1;
            }
        }
        if !test_flags::skip_evict_invalidation() {
            self.invalidate_at(now, gpu, victim, false, out);
            inv += 1;
        }
        self.charge_invalidation(inv, out);
        // The write-back to host is asynchronous (the driver evicts in the
        // background): it consumes PCIe bandwidth but does not stall the
        // lane whose fault triggered the eviction.
        let t = fabric.transfer(
            now + out.latency,
            DeviceId::Gpu(gpu),
            DeviceId::Host,
            self.page_bytes(),
        );
        let busy = t.latency_from(now + out.latency);
        let bytes = self.page_bytes();
        self.obs.emit(now, || TraceEvent::LinkTransfer {
            from: Endpoint::Gpu(gpu.0),
            to: Endpoint::Host,
            bytes,
            busy,
        });
        self.update_entry(victim, |e| {
            e.owner = DeviceId::Host;
            e.copy_mask = 0;
            e.mapper_mask = 0;
            // e.policy intentionally retained (Section VI-D).
        })
    }

    fn page_bytes(&self) -> u64 {
        self.state.page_size.bytes()
    }

    /// Folds each GPU's recently stamped frames into its running digest
    /// sum ([`FrameAllocator::settle_digest`]), so the digest at an epoch
    /// boundary walks nothing.
    pub fn settle_digests(&mut self) {
        self.state
            .frames
            .iter_mut()
            .for_each(FrameAllocator::settle_digest);
    }

    /// Folds the state that [`Snapshot`] writes into a state digest, in the
    /// same order: the tables and maps by their running sums (or, for a
    /// reference hasher, recomputed), everything else word by word. The
    /// policy engine's state is folded separately
    /// ([`PolicyEngine::digest`]).
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.word(self.state.gpu_count() as u64);
        self.state.host_table.digest_into(h);
        for g in 0..self.state.gpu_count() {
            self.state.local_tables[g].digest_into(h, format_args!("gpu {g} local page table"));
            self.state.frames[g].digest_into(h, format_args!("gpu {g} frames"));
        }
        self.counters
            .digest_into(h, format_args!("access counters"));
        self.thrash.digest_into(h, format_args!("thrash windows"));
        h.word(self.driver_free.as_ps());
        self.stats.snapshot(h);
    }
}

impl Snapshot for UvmDriver {
    /// Serializes the driver's mutable state: the centralized tables, the
    /// per-GPU residency, the raw access counters, the thrash windows, the
    /// pipeline occupancy, and the event counters. Cost parameters, the
    /// counter threshold, and the policy engine's own state are NOT part of
    /// this section — they come from construction and from the policy's
    /// [`PolicyEngine::snapshot_state`](crate::policy::PolicyEngine)
    /// respectively.
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.state.gpu_count() as u64);
        self.state.host_table.snapshot(w);
        for g in 0..self.state.gpu_count() {
            self.state.local_tables[g].snapshot(w);
            self.state.frames[g].snapshot(w);
        }
        // HashMap iteration order is nondeterministic: emit access counters
        // and thrash windows sorted by key so identical states serialize to
        // identical bytes (checkpoints and the golden snapshot digest).
        let mut counters: Vec<((u8, u64), u32)> =
            self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        counters.sort_unstable_by_key(|(k, _)| *k);
        w.u64(counters.len() as u64);
        for ((gpu, group), val) in counters {
            w.u8(gpu);
            w.u64(group);
            w.u32(val);
        }
        let mut thrash: Vec<(Vpn, (u32, Time))> =
            self.thrash.iter().map(|(k, v)| (*k, *v)).collect();
        thrash.sort_unstable_by_key(|(v, _)| v.0);
        w.u64(thrash.len() as u64);
        for (vpn, (count, start)) in thrash {
            w.u64(vpn.0);
            w.u32(count);
            w.u64(start.as_ps());
        }
        w.u64(self.driver_free.as_ps());
        self.stats.snapshot(w);
    }
}

impl Restore for UvmDriver {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let gpus = r.usize()?;
        if gpus != self.state.gpu_count() {
            return Err(r.malformed(format!(
                "checkpoint driver manages {gpus} GPUs, this system has {}",
                self.state.gpu_count()
            )));
        }
        self.state.host_table.restore(r)?;
        for g in 0..gpus {
            self.state.local_tables[g].restore(r)?;
            self.state.frames[g].restore(r)?;
        }
        let n = r.usize()?;
        self.counters.clear();
        for _ in 0..n {
            let gpu = r.u8()?;
            let group = r.u64()?;
            let val = r.u32()?;
            if self.counters.insert((gpu, group), val).is_some() {
                return Err(r.malformed(format!(
                    "duplicate access-counter key (gpu {gpu}, group {group})"
                )));
            }
        }
        let n = r.usize()?;
        self.thrash.clear();
        for _ in 0..n {
            let vpn = Vpn(r.u64()?);
            let count = r.u32()?;
            let start = Time::from_ps(r.u64()?);
            if self.thrash.insert(vpn, (count, start)).is_some() {
                return Err(r.malformed(format!("duplicate thrash entry for vpn {}", vpn.0)));
            }
        }
        self.driver_free = Time::from_ps(r.u64()?);
        self.stats.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        AccessCounterPolicy, Decision, DuplicationPolicy, IdealPolicy, OnTouchPolicy,
    };
    use oasis_engine::codec::ByteWriter;
    use oasis_engine::SimError;
    use oasis_interconnect::FabricConfig;
    use oasis_mem::types::AccessKind;

    fn driver(policy: Box<dyn PolicyEngine>, capacity: Option<u64>) -> (UvmDriver, Fabric) {
        let mut d = UvmDriver::new(
            4,
            PageSize::Small4K,
            capacity,
            policy,
            UvmCosts::default(),
            4, // low threshold for tests
        );
        d.alloc_object(ObjectId(0), Va(0x1000_0000), 64 * 4096, |_| DeviceId::Host)
            .expect("fresh allocation");
        (d, Fabric::new(4, FabricConfig::default()))
    }

    fn vpn(i: u64) -> Vpn {
        Va(0x1000_0000 + i * 4096).vpn(PageSize::Small4K)
    }

    fn far(gpu: u8, page: u64, kind: AccessKind) -> PageFault {
        PageFault::far(GpuId(gpu), Va(0x1000_0000 + page * 4096), vpn(page), kind)
    }

    /// Resolves a fault that the test expects to succeed.
    fn fault(d: &mut UvmDriver, f: &mut Fabric, pf: &PageFault) -> Outcome {
        d.handle_fault(Time::ZERO, pf, f).expect("fault resolves")
    }

    /// Copied host-table entry for a page the test knows is registered.
    fn entry(d: &UvmDriver, v: Vpn) -> HostEntry {
        *d.state.host_table.get(v).expect("page registered")
    }

    /// Local PTE for a page the test knows is mapped on `g`.
    fn pte(d: &UvmDriver, g: usize, v: Vpn) -> Pte {
        *d.state.local_tables[g].get(v).expect("page mapped")
    }

    /// Remote-access notification that the test expects to succeed.
    fn note(d: &mut UvmDriver, f: &mut Fabric, g: u8, v: Vpn) -> Option<Outcome> {
        d.note_remote_access(Time::ZERO, GpuId(g), v, f)
            .expect("notification accepted")
    }

    /// Edits a registered page's host-table entry in place.
    fn with_entry(d: &mut UvmDriver, v: Vpn, edit: impl FnOnce(&mut HostEntry)) {
        d.state.host_table.update(v, edit).expect("page registered");
    }

    #[test]
    fn on_touch_migrates_from_host_then_between_gpus() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), None);
        let o = fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        assert_eq!(o.kind, OutcomeKind::Migrated);
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Gpu(GpuId(0)));
        assert!(d.state.frames[0].contains(vpn(0)));
        // GPU1 touches the same page: ping-pong migration, GPU0 invalidated.
        let o = fault(&mut d, &mut f, &far(1, 0, AccessKind::Write));
        assert_eq!(o.kind, OutcomeKind::Migrated);
        assert!(o.invalidations.contains(&(GpuId(0), vpn(0))));
        assert!(d.state.local_tables[0].get(vpn(0)).is_none());
        assert!(!d.state.frames[0].contains(vpn(0)));
        assert!(d.state.frames[1].contains(vpn(0)));
        assert_eq!(d.stats.migrations, 2);
        assert_eq!(d.stats.far_faults, 2);
    }

    #[test]
    fn access_counter_maps_then_migrates_at_threshold() {
        let (mut d, mut f) = driver(Box::new(AccessCounterPolicy), None);
        // GPU0 touches first: remote map to host (deferred migration).
        let o = fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        assert_eq!(o.kind, OutcomeKind::RemoteMapped);
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Host);
        // GPU0's counter reaches the threshold: the 64 KiB group migrates
        // to it from the host (region-granular migration).
        for _ in 0..3 {
            note(&mut d, &mut f, 0, vpn(0));
        }
        let o = note(&mut d, &mut f, 0, vpn(0)).expect("host group migrates at threshold");
        assert!(matches!(o.kind, OutcomeKind::CounterMigrated { pages: 16 }));
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Gpu(GpuId(0)));
        // Unmapped same-source neighbors moved too.
        assert_eq!(entry(&d, vpn(5)).owner, DeviceId::Gpu(GpuId(0)));
        d.stats.counter_migrations = 0;
        // GPU1 then faults: remote map, data stays at GPU0.
        let o = fault(&mut d, &mut f, &far(1, 0, AccessKind::Write));
        assert_eq!(o.kind, OutcomeKind::RemoteMapped);
        let e = entry(&d, vpn(0));
        assert_eq!(e.owner, DeviceId::Gpu(GpuId(0)));
        assert!(e.maps_remotely(GpuId(1)));
        let p = pte(&d, 1, vpn(0));
        assert_eq!(p.location, DeviceId::Gpu(GpuId(0)));
        assert_eq!(p.policy, PolicyBits::AccessCounter);
        // Remote accesses below the threshold don't migrate.
        for _ in 0..3 {
            assert!(note(&mut d, &mut f, 1, vpn(0)).is_none());
        }
        // The 4th access hits the threshold and migrates the group (all 16
        // pages now live at GPU0, the triggering page's source) to GPU1.
        let o = note(&mut d, &mut f, 1, vpn(0)).expect("counter migration");
        assert!(matches!(o.kind, OutcomeKind::CounterMigrated { pages: 16 }));
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Gpu(GpuId(1)));
        assert!(o.invalidations.contains(&(GpuId(0), vpn(0))));
        assert_eq!(d.stats.counter_migrations, 16);
        // Counter migration keeps the access-counter policy bits.
        assert_eq!(entry(&d, vpn(0)).policy, PolicyBits::AccessCounter);
    }

    #[test]
    fn counter_migration_moves_whole_group_mapped_remotely() {
        let (mut d, mut f) = driver(Box::new(AccessCounterPolicy), None);
        // GPU1 remote-maps host pages 0 and 1 (same 64 KiB group).
        fault(&mut d, &mut f, &far(1, 0, AccessKind::Read));
        fault(&mut d, &mut f, &far(1, 1, AccessKind::Read));
        for _ in 0..3 {
            assert!(note(&mut d, &mut f, 1, vpn(0)).is_none());
        }
        let o = note(&mut d, &mut f, 1, vpn(0)).expect("group migrates");
        // The whole same-source 64 KiB group migrates together (16 pages
        // registered in the test object's first group).
        assert!(matches!(o.kind, OutcomeKind::CounterMigrated { pages: 16 }));
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Gpu(GpuId(1)));
        assert_eq!(entry(&d, vpn(1)).owner, DeviceId::Gpu(GpuId(1)));
    }

    #[test]
    fn duplication_read_shares_then_write_collapses() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy), None);
        // GPU0 reads: duplicate from host (host stays owner).
        let o = fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        assert_eq!(o.kind, OutcomeKind::Duplicated);
        let e = entry(&d, vpn(0));
        assert_eq!(e.owner, DeviceId::Host);
        assert!(e.duplicate_holders().eq([GpuId(0)]));
        assert!(!pte(&d, 0, vpn(0)).writable);
        // GPU1 and GPU2 also read.
        fault(&mut d, &mut f, &far(1, 0, AccessKind::Read));
        fault(&mut d, &mut f, &far(2, 0, AccessKind::Read));
        assert_eq!(entry(&d, vpn(0)).duplicate_holders().count(), 3);
        assert_eq!(d.stats.duplications, 3);
        // GPU0 writes its read-only copy: protection fault, collapse.
        let pf = PageFault::protection(GpuId(0), Va(0x1000_0000), vpn(0));
        let o = fault(&mut d, &mut f, &pf);
        assert_eq!(o.kind, OutcomeKind::CollapsedToWriter);
        let e = entry(&d, vpn(0));
        assert_eq!(e.owner, DeviceId::Gpu(GpuId(0)));
        assert_eq!(e.copy_mask, 0);
        assert!(pte(&d, 0, vpn(0)).writable);
        assert!(d.state.local_tables[1].get(vpn(0)).is_none());
        assert!(d.state.local_tables[2].get(vpn(0)).is_none());
        assert_eq!(d.stats.collapses, 1);
        assert!(!d.state.frames[1].contains(vpn(0)));
    }

    #[test]
    fn write_far_fault_under_duplication_pays_double() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy), None);
        let o = fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        assert_eq!(o.kind, OutcomeKind::DuplicatedAndCollapsed);
        // Ends exclusive-writable at the writer.
        let e = entry(&d, vpn(0));
        assert_eq!(e.owner, DeviceId::Gpu(GpuId(0)));
        assert!(pte(&d, 0, vpn(0)).writable);
        // It cost a far fault AND a protection fault.
        assert_eq!(d.stats.far_faults, 1);
        assert_eq!(d.stats.protection_faults, 1);
        let single_fault_floor =
            UvmCosts::default().far_fault_base + UvmCosts::default().protection_fault_base;
        assert!(o.latency > single_fault_floor);
    }

    #[test]
    fn ideal_copies_are_writable_and_never_invalidated() {
        let (mut d, mut f) = driver(Box::new(IdealPolicy), None);
        for g in 0..4 {
            let o = fault(&mut d, &mut f, &far(g, 0, AccessKind::Write));
            assert_eq!(o.kind, OutcomeKind::IdealCopied);
            assert!(o.invalidations.is_empty());
        }
        for g in 0..4usize {
            let p = pte(&d, g, vpn(0));
            assert!(p.writable);
            assert_eq!(p.location, DeviceId::Gpu(GpuId(g as u8)));
        }
        assert_eq!(d.stats.ideal_copies, 4);
        assert_eq!(d.stats.collapses, 0);
    }

    #[test]
    fn oversubscription_evicts_lru_to_host_and_keeps_policy_bits() {
        // Capacity of 2 pages per GPU.
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), Some(2));
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        fault(&mut d, &mut f, &far(0, 1, AccessKind::Write));
        // Mark page 0's learned policy so we can check it survives eviction.
        with_entry(&mut d, vpn(0), |e| e.policy = PolicyBits::Duplication);
        // Third page evicts page 0 (LRU).
        let o = fault(&mut d, &mut f, &far(0, 2, AccessKind::Write));
        assert!(o.invalidations.contains(&(GpuId(0), vpn(0))));
        let e = entry(&d, vpn(0));
        assert_eq!(e.owner, DeviceId::Host);
        assert_eq!(e.policy, PolicyBits::Duplication);
        assert!(!d.state.frames[0].contains(vpn(0)));
        assert!(d.state.frames[0].contains(vpn(1)));
        assert!(d.state.frames[0].contains(vpn(2)));
        assert_eq!(d.stats.evictions, 1);
    }

    #[test]
    fn evicting_a_duplicate_copy_drops_it_without_writeback() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy), Some(2));
        // Two duplicates on GPU0 (owner stays host), then a third fills it.
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        fault(&mut d, &mut f, &far(0, 1, AccessKind::Read));
        let before = f.pcie_bytes();
        fault(&mut d, &mut f, &far(0, 2, AccessKind::Read));
        // Page 0's copy dropped from GPU0; host entry no longer lists it.
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Host);
        assert_eq!(entry(&d, vpn(0)).duplicate_holders().count(), 0);
        assert!(d.state.local_tables[0].get(vpn(0)).is_none());
        // Only the new duplicate's transfer hit PCIe (no write-back).
        assert_eq!(f.pcie_bytes() - before, 4096);
        assert_eq!(d.stats.evictions, 1);
    }

    #[test]
    fn protection_fault_with_remote_map_policy_collapses_to_writer_as_acctr() {
        let (mut d, mut f) = driver(Box::new(AccessCounterPolicy), None);
        // GPU0 owns the page; GPU1 and GPU2 hold duplicates (hand-built,
        // as OASIS can produce after a policy change).
        with_entry(&mut d, vpn(0), |e| {
            e.owner = DeviceId::Gpu(GpuId(0));
            e.copy_mask = 0b0110;
        });
        d.state.frames[0].insert(vpn(0));
        d.state.local_tables[0].insert(
            vpn(0),
            Pte {
                location: DeviceId::Gpu(GpuId(0)),
                writable: false,
                policy: PolicyBits::Duplication,
            },
        );
        for g in [1u8, 2u8] {
            d.state.frames[g as usize].insert(vpn(0));
            d.state.local_tables[g as usize].insert(
                vpn(0),
                Pte {
                    location: DeviceId::Gpu(GpuId(g)),
                    writable: false,
                    policy: PolicyBits::Duplication,
                },
            );
        }
        let pf = PageFault::protection(GpuId(1), Va(0x1000_0000), vpn(0));
        let o = fault(&mut d, &mut f, &pf);
        assert_eq!(o.kind, OutcomeKind::CollapsedToWriter);
        let e = entry(&d, vpn(0));
        // The writer becomes the exclusive owner with access-counter
        // policy bits: later sharers remote-map instead of duplicating.
        assert_eq!(e.owner, DeviceId::Gpu(GpuId(1)));
        assert_eq!(e.copy_mask, 0);
        assert_eq!(e.policy, PolicyBits::AccessCounter);
        assert!(pte(&d, 1, vpn(0)).writable);
        assert!(d.state.local_tables[0].get(vpn(0)).is_none());
        assert!(d.state.local_tables[2].get(vpn(0)).is_none());
    }

    #[test]
    fn group_prefetch_pulls_untouched_neighbors() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), None);
        d.prefetch_group = true;
        // One fault on page 0 migrates it AND prefetches the rest of its
        // 64 KiB group (pages 1..16) from the host.
        let o = fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        assert_eq!(o.kind, OutcomeKind::Migrated);
        assert_eq!(d.stats.prefetches, 15);
        for p in 0..16u64 {
            assert_eq!(
                entry(&d, vpn(p)).owner,
                DeviceId::Gpu(GpuId(0)),
                "page {p} should be resident after prefetch"
            );
            assert!(d.state.local_tables[0].get(vpn(p)).is_some());
        }
        // Subsequent accesses to the group fault no more.
        let faults_before = d.stats.far_faults;
        assert!(d.state.local_tables[0].get(vpn(5)).is_some());
        assert_eq!(d.stats.far_faults, faults_before);
        // Pages already touched by another GPU are not stolen by prefetch.
        fault(&mut d, &mut f, &far(1, 17, AccessKind::Read));
        let o = fault(&mut d, &mut f, &far(0, 16, AccessKind::Read));
        assert_eq!(o.kind, OutcomeKind::Migrated);
        assert_eq!(
            entry(&d, vpn(17)).owner,
            DeviceId::Gpu(GpuId(1)),
            "prefetch must not steal touched pages"
        );
    }

    #[test]
    fn striped_placement_premaps_pages() {
        let mut d = UvmDriver::new(
            4,
            PageSize::Small4K,
            None,
            Box::new(OnTouchPolicy),
            UvmCosts::default(),
            256,
        );
        d.alloc_object(ObjectId(0), Va(0x1000_0000), 4 * 4096, |v| {
            DeviceId::Gpu(GpuId((v.0 % 4) as u8))
        })
        .expect("fresh allocation");
        let mut owners: Vec<DeviceId> = (0..4).map(|i| entry(&d, vpn(i)).owner).collect();
        owners.sort();
        owners.dedup();
        assert_eq!(owners.len(), 4, "pages striped across all four GPUs");
        // Each owning GPU already has a valid local translation.
        for i in 0..4u64 {
            if let DeviceId::Gpu(g) = entry(&d, vpn(i)).owner {
                assert!(d.state.local_tables[g.index()].get(vpn(i)).is_some());
            } else {
                unreachable!("striped pages are GPU-owned");
            }
        }
    }

    #[test]
    fn double_alloc_is_a_typed_error() {
        let (mut d, _) = driver(Box::new(OnTouchPolicy), None);
        let err = d
            .alloc_object(ObjectId(1), Va(0x1000_0000), 4096, |_| DeviceId::Host)
            .expect_err("overlapping allocation must be rejected");
        assert!(matches!(err, SimError::Table(_)), "got {err}");
    }

    #[test]
    fn fault_on_unregistered_page_is_a_typed_error() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), None);
        let bogus_va = Va(0x9999_0000);
        let bogus = PageFault::far(
            GpuId(0),
            bogus_va,
            bogus_va.vpn(PageSize::Small4K),
            AccessKind::Read,
        );
        let err = d
            .handle_fault(Time::ZERO, &bogus, &mut f)
            .expect_err("unregistered page must not resolve");
        assert_eq!(
            err,
            SimError::Fault(oasis_engine::FaultError::UnregisteredPage {
                vpn: bogus_va.vpn(PageSize::Small4K).0,
                gpu: 0,
            })
        );
        // The failed fault must leave no trace in the stats or state.
        assert_eq!(d.stats.far_faults, 0);
    }

    #[test]
    fn fault_from_unknown_gpu_is_a_typed_error() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), None);
        let bogus = PageFault::far(GpuId(9), Va(0x1000_0000), vpn(0), AccessKind::Read);
        let err = d
            .handle_fault(Time::ZERO, &bogus, &mut f)
            .expect_err("GPU 9 does not exist");
        assert!(matches!(
            err,
            SimError::Fault(oasis_engine::FaultError::NoSuchGpu {
                gpu: 9,
                gpu_count: 4
            })
        ));
    }

    #[test]
    fn remote_map_collapses_existing_duplicates_first() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy), None);
        // GPU0 writes (becomes owner), GPU1 reads (duplicate).
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        fault(&mut d, &mut f, &far(1, 0, AccessKind::Read));
        assert_eq!(entry(&d, vpn(0)).duplicate_holders().count(), 1);
        // Switch policy semantics: hand GPU2 a remote map via the driver.
        let mut out = Outcome::new(OutcomeKind::RemoteMapped);
        d.do_remote_map(Time::ZERO, GpuId(2), vpn(0), &mut out)
            .expect("remote map succeeds");
        let e = entry(&d, vpn(0));
        assert_eq!(e.copy_mask, 0, "duplicates collapsed");
        assert!(e.maps_remotely(GpuId(2)));
        // The owner's mapping is writable again.
        assert!(pte(&d, 0, vpn(0)).writable);
    }

    #[test]
    fn poke_counter_forces_next_access_over_threshold() {
        let (mut d, mut f) = driver(Box::new(AccessCounterPolicy), None);
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Read)); // remote map
                                                             // Corrupt the counter to just below the threshold: one access trips.
        d.poke_counter(GpuId(0), vpn(0), 3);
        let o = note(&mut d, &mut f, 0, vpn(0)).expect("poked counter trips");
        assert!(matches!(o.kind, OutcomeKind::CounterMigrated { .. }));
    }

    #[test]
    fn snapshot_round_trips_driver_state_bit_identically() {
        let (mut d, mut f) = driver(Box::new(AccessCounterPolicy), Some(8));
        // Build up nontrivial state: remote maps, counters mid-threshold,
        // thrash windows, evictions, a busy driver pipeline.
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        fault(&mut d, &mut f, &far(1, 1, AccessKind::Write));
        note(&mut d, &mut f, 0, vpn(0));
        note(&mut d, &mut f, 0, vpn(0));
        note(&mut d, &mut f, 1, vpn(1));
        let mut w = ByteWriter::new();
        d.snapshot(&mut w);
        let buf = w.into_vec();

        let mut fresh = UvmDriver::new(
            4,
            PageSize::Small4K,
            Some(8),
            Box::new(AccessCounterPolicy),
            UvmCosts::default(),
            4,
        );
        let mut r = ByteReader::new("driver", &buf);
        fresh.restore(&mut r).expect("valid driver state");
        assert!(r.is_empty(), "payload fully consumed");
        assert_eq!(fresh.stats, d.stats);

        // Re-serializing the restored driver is bit-identical — the digest
        // contract that makes divergence detection meaningful.
        let mut w2 = ByteWriter::new();
        fresh.snapshot(&mut w2);
        assert_eq!(w2.as_slice(), buf.as_slice());

        // And the restored driver behaves identically: the same remote
        // access trips (or doesn't trip) the counter in both.
        let mut f2 = Fabric::new(4, FabricConfig::default());
        let a = note(&mut d, &mut f, 0, vpn(0));
        let b = note(&mut fresh, &mut f2, 0, vpn(0));
        assert_eq!(a.is_some(), b.is_some());
    }

    #[test]
    fn restore_rejects_gpu_count_mismatch() {
        let (d, _) = driver(Box::new(OnTouchPolicy), None);
        let mut w = ByteWriter::new();
        d.snapshot(&mut w);
        let buf = w.into_vec();
        let mut small = UvmDriver::new(
            2,
            PageSize::Small4K,
            None,
            Box::new(OnTouchPolicy),
            UvmCosts::default(),
            256,
        );
        let mut r = ByteReader::new("driver", &buf);
        assert!(small.restore(&mut r).is_err());
    }

    /// Wraps a policy and records link-degradation notifications, so tests
    /// can observe the driver-side half of the self-correction handshake.
    struct RecordingPolicy {
        inner: DuplicationPolicy,
        degraded: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl PolicyEngine for RecordingPolicy {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn resolve(&mut self, fault: &PageFault, state: &MemState) -> Decision {
            self.inner.resolve(fault, state)
        }
        fn on_link_degraded(&mut self, _va: Va) {
            self.degraded.set(self.degraded.get() + 1);
        }
    }

    #[test]
    fn ecc_poison_of_a_replica_drops_it_without_reservice() {
        let (mut d, mut f) = driver(Box::new(DuplicationPolicy), Some(8));
        // GPU0 owns the page; GPU1 holds a read-only duplicate.
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        fault(&mut d, &mut f, &far(1, 0, AccessKind::Read));
        let o = d
            .poison_frame(Time::ZERO, GpuId(1), vpn(0), &mut f)
            .expect("replica drop never fails")
            .expect("frame was resident");
        assert_eq!(o.kind, OutcomeKind::EccReplicaDropped);
        let e = entry(&d, vpn(0));
        assert_eq!(e.owner, DeviceId::Gpu(GpuId(0)), "owner untouched");
        assert_eq!(e.duplicate_holders().count(), 0, "replica gone");
        assert!(d.state.local_tables[1].get(vpn(0)).is_none());
        assert_eq!(d.state.frames[1].quarantined(), 1);
        assert_eq!(d.stats.ecc_quarantines, 1);
        assert_eq!(d.stats.fault_retries, 0, "no re-service for replicas");
    }

    #[test]
    fn ecc_poison_of_the_owner_reservices_from_the_home_copy() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), Some(8));
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Gpu(GpuId(0)));
        let o = d
            .poison_frame(Time::ZERO, GpuId(0), vpn(0), &mut f)
            .expect("one spare frame remains")
            .expect("frame was resident");
        // The replayed far fault re-migrated the page onto GPU0.
        assert_eq!(o.kind, OutcomeKind::Migrated);
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Gpu(GpuId(0)));
        assert!(d.state.frames[0].contains(vpn(0)));
        assert_eq!(d.state.frames[0].quarantined(), 1);
        assert_eq!(d.stats.ecc_quarantines, 1);
        assert_eq!(d.stats.fault_retries, 1, "first replay succeeded");
    }

    #[test]
    fn ecc_poison_on_a_nonresident_page_is_a_noop() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), Some(8));
        assert!(d
            .poison_frame(Time::ZERO, GpuId(2), vpn(0), &mut f)
            .expect("no-op")
            .is_none());
        assert_eq!(d.stats.ecc_quarantines, 0);
        assert_eq!(d.state.frames[2].quarantined(), 0);
    }

    #[test]
    fn ecc_exhaustion_is_a_typed_error_never_a_panic() {
        // A single frame per GPU: poisoning it leaves GPU0 with nothing.
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), Some(1));
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Write));
        let err = d
            .poison_frame(Time::ZERO, GpuId(0), vpn(0), &mut f)
            .expect_err("no usable frame left on GPU0");
        assert_eq!(
            err,
            SimError::HardwareExhausted {
                gpu: 0,
                vpn: vpn(0).0,
                retries: ECC_RETRY_BUDGET,
            }
        );
        assert_eq!(d.stats.fault_retries, ECC_RETRY_BUDGET as u64);
        // Degradation is graceful: the page fell back to its home copy and
        // other GPUs still serve it (here: GPU1 migrates it to itself).
        assert_eq!(entry(&d, vpn(0)).owner, DeviceId::Host);
        let o = fault(&mut d, &mut f, &far(1, 0, AccessKind::Read));
        assert_eq!(o.kind, OutcomeKind::Migrated);
    }

    #[test]
    fn frame_exhausted_gpu_still_remote_maps() {
        let (mut d, mut f) = driver(Box::new(AccessCounterPolicy), Some(1));
        // Hand GPU0 ownership of page 1 so it occupies its only frame.
        with_entry(&mut d, vpn(1), |e| e.owner = DeviceId::Gpu(GpuId(0)));
        d.state.frames[0].insert(vpn(1));
        d.state.local_tables[0].insert(
            vpn(1),
            Pte {
                location: DeviceId::Gpu(GpuId(0)),
                writable: true,
                policy: PolicyBits::OnTouch,
            },
        );
        // Poisoning it exhausts GPU0, but the re-service still succeeds:
        // the access-counter policy serves the page through a remote
        // mapping, which claims no local frame.
        let o = d
            .poison_frame(Time::ZERO, GpuId(0), vpn(1), &mut f)
            .expect("remote-map recovery")
            .expect("frame was resident");
        assert_eq!(o.kind, OutcomeKind::RemoteMapped);
        assert!(d.state.frames[0].out_of_frames());
        // And later faults keep resolving the same graceful way.
        let o = fault(&mut d, &mut f, &far(0, 2, AccessKind::Read));
        assert_eq!(o.kind, OutcomeKind::RemoteMapped);
    }

    #[test]
    fn duplicate_across_a_dead_link_notifies_the_policy() {
        use oasis_interconnect::{FaultPlan, LinkDown};
        let degraded = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let mut d = UvmDriver::new(
            4,
            PageSize::Small4K,
            None,
            Box::new(RecordingPolicy {
                inner: DuplicationPolicy,
                degraded: degraded.clone(),
            }),
            UvmCosts::default(),
            256,
        );
        d.alloc_object(ObjectId(0), Va(0x1000_0000), 64 * 4096, |_| DeviceId::Host)
            .expect("fresh allocation");
        let plan = FaultPlan {
            link_down: vec![LinkDown {
                a: 0,
                b: 1,
                epoch: 0,
            }],
            ..FaultPlan::default()
        };
        let mut f = Fabric::with_plan(4, FabricConfig::default(), plan);
        assert_eq!(f.begin_epoch(0), vec![(0, 1)]);
        // GPU1 takes ownership; GPU0 then reads across the dead 0-1 link.
        fault(&mut d, &mut f, &far(1, 0, AccessKind::Write));
        fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        assert_eq!(degraded.get(), 1, "one degradation notification");
        // A host-sourced duplicate (no dead link on the path) is silent.
        fault(&mut d, &mut f, &far(2, 1, AccessKind::Read));
        assert_eq!(degraded.get(), 1);
    }

    #[test]
    fn migration_latency_includes_transfer_and_fault_overhead() {
        let (mut d, mut f) = driver(Box::new(OnTouchPolicy), None);
        let o = fault(&mut d, &mut f, &far(0, 0, AccessKind::Read));
        let floor = UvmCosts::default().far_fault_base;
        assert!(o.latency > floor);
        // 4 KiB over 32 GB/s PCIe = 128 ns, plus 2 us latency, plus fault.
        assert!(o.latency.as_us() > 22.0);
        assert!(o.latency.as_us() < 30.0);
    }
}
