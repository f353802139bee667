//! The assembled system and its trace-driven simulation loop.

use std::io::{Read, Write};
use std::time::Instant;

use oasis_core::tracker::ObjectTracker;
use oasis_engine::codec::{
    fnv1a, ByteReader, ByteWriter, CheckpointReader, CheckpointWriter, CodecError, Encoder,
    Restore, Snapshot,
};
use oasis_engine::digest::StateHasher;
use oasis_engine::error::{ErrorPolicy, FaultError, SimError, SimResult, TraceError};
use oasis_engine::{
    CounterHandle, Duration, Endpoint, HistogramHandle, LaneTree, Observer, Time, TraceEvent,
};
use oasis_interconnect::Fabric;
use oasis_mem::layout::AddressSpace;
use oasis_mem::types::{DeviceId, GpuId, ObjectId, Va};
use oasis_uvm::driver::{Outcome, UvmDriver};
use oasis_uvm::fault::PageFault;
use oasis_uvm::guard::check_mem_state;
use oasis_workloads::compiled::CompiledAccess;
use oasis_workloads::trace::{Phase, Trace};

use crate::config::{GuardMode, Placement, Policy, SystemConfig};
use crate::gpu::{GpuModel, TlbLatencies};
use crate::report::{EpochRollup, RunInstrumentation, RunReport};

/// How many recorded-error descriptions a report keeps verbatim.
const ERROR_SAMPLE_CAP: usize = 8;

/// A simulation abort: the typed error plus the 1-based global access
/// number at which it struck. Together with the run's configuration and
/// trace seed this replays exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// 1-based index of the memory transaction being processed when the
    /// error occurred (0 = during trace load, before any access).
    pub step: u64,
    /// The underlying typed error.
    pub error: SimError,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.step == 0 {
            write!(f, "during trace load: {}", self.error)
        } else {
            write!(f, "at step {}: {}", self.step, self.error)
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A hook invoked at each epoch boundary with the epoch index and driver.
type EpochHook = Box<dyn FnMut(u64, &mut UvmDriver)>;

/// A fully assembled multi-GPU platform ready to execute traces.
pub struct System {
    config: SystemConfig,
    gpus: Vec<GpuModel>,
    fabric: Fabric,
    driver: UvmDriver,
    space: AddressSpace,
    tracker: ObjectTracker,
    /// Each object's tagged base and size: the binding every access
    /// resolves against as it is simulated. Rebuilt by `load` and
    /// `resume`.
    tagged_bases: Vec<Va>,
    object_sizes: Vec<u64>,
    /// Table I's TLB and walk latencies, converted from cycles once.
    tlb_latency: TlbLatencies,
    policy: Policy,
    policy_mix: [u64; 3],
    local_accesses: u64,
    remote_accesses: u64,
    accesses: u64,
    /// Global 1-based access counter (the replay coordinate of errors).
    step: u64,
    /// Errors recorded under [`ErrorPolicy::RecordAndContinue`].
    errors_recorded: u64,
    error_samples: Vec<String>,
    epoch_hook: Option<EpochHook>,
    /// Simulated clock, promoted to a field so a checkpoint can carry it
    /// across process boundaries.
    global: Time,
    /// The next epoch (phase index) to execute; everything before it is
    /// already reflected in the system state.
    next_epoch: u64,
    /// Whether the trace's objects are allocated (by `load` or `resume`).
    loaded: bool,
    /// Fingerprint of the trace this system was loaded with (rejects
    /// resuming a checkpoint against a different trace).
    trace_fingerprint: u64,
    /// Per-epoch state digests accumulated so far.
    digest_trail: Vec<u64>,
    /// Pre-resolved metric slots for the per-access path.
    m_local: CounterHandle,
    m_remote: CounterHandle,
    m_walk_ns: HistogramHandle,
    /// Host-side wall-clock measurements.
    instr: RunInstrumentation,
    /// Per-epoch activity deltas. Observational only: never snapshotted,
    /// digested, or checkpointed (a resumed run restarts its rollups).
    epoch_rollups: Vec<EpochRollup>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("policy", &self.policy.name())
            .field("gpus", &self.gpus.len())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system with the given configuration and policy.
    pub fn new(config: SystemConfig, policy: &Policy) -> Self {
        let gpus = (0..config.gpu_count)
            .map(|_| GpuModel::new(&config))
            .collect();
        let fabric = Fabric::with_plan(config.gpu_count, config.fabric, config.fault_plan.clone());
        let mut driver = UvmDriver::new(
            config.gpu_count,
            config.page_size,
            config.gpu_capacity_pages,
            policy.build(),
            config.uvm_costs,
            config.counter_threshold,
        );
        driver.counter_weight = config.counter_weight;
        driver.prefetch_group = config.prefetch_group;
        driver.obs = Observer::from_config(config.trace_capacity, config.metrics);
        driver.bind_metric_handles();
        let m_local = driver.obs.metrics.counter_handle("access.local");
        let m_remote = driver.obs.metrics.counter_handle("access.remote");
        let m_walk_ns = driver.obs.metrics.histogram_handle("tlb.walk_ns");
        System {
            gpus,
            fabric,
            driver,
            space: AddressSpace::new(),
            tracker: policy.tracker(),
            tagged_bases: Vec::new(),
            object_sizes: Vec::new(),
            tlb_latency: TlbLatencies::of(&config),
            policy: policy.clone(),
            policy_mix: [0; 3],
            local_accesses: 0,
            remote_accesses: 0,
            accesses: 0,
            step: 0,
            errors_recorded: 0,
            error_samples: Vec::new(),
            epoch_hook: None,
            global: Time::ZERO,
            next_epoch: 0,
            loaded: false,
            trace_fingerprint: 0,
            digest_trail: Vec::new(),
            m_local,
            m_remote,
            m_walk_ns,
            instr: RunInstrumentation::default(),
            epoch_rollups: Vec::new(),
            config,
        }
    }

    /// Installs a hook called at every epoch boundary (kernel launch, after
    /// the policy engine is notified) with the 0-based epoch index and
    /// mutable driver access. Fault-injection campaigns use this for
    /// mid-run perturbations (counter corruption, policy flips).
    pub fn set_epoch_hook(&mut self, hook: impl FnMut(u64, &mut UvmDriver) + 'static) {
        self.epoch_hook = Some(Box::new(hook));
    }

    /// Allocates the trace's objects: VA ranges, pointer tags, page
    /// registration with the configured initial placement.
    fn load(&mut self, trace: &Trace) -> SimResult<()> {
        assert!(
            self.space.is_empty(),
            "System::run consumed; build a fresh System per trace"
        );
        for phase in &trace.phases {
            // A stream for a GPU the system doesn't have can never be
            // scheduled; surface it as a typed trace error up front.
            if phase.per_gpu.len() != self.config.gpu_count {
                return Err(TraceError::GpuOutOfRange {
                    gpu: phase.per_gpu.len(),
                    gpu_count: self.config.gpu_count,
                }
                .into());
            }
        }
        self.bind_objects(trace);
        let gpus = self.config.gpu_count as u64;
        let placement = self.config.placement;
        for obj in self.space.objects() {
            self.driver
                .alloc_object(obj.id, obj.base, obj.size, |vpn| match placement {
                    Placement::Host => DeviceId::Host,
                    Placement::Striped => DeviceId::Gpu(GpuId((vpn.0 % gpus) as u8)),
                })?;
        }
        self.trace_fingerprint = trace_fingerprint(trace);
        Ok(())
    }

    /// Allocates the trace's objects in the address space, in order, and
    /// records each one's tagged base and size.
    fn bind_objects(&mut self, trace: &Trace) {
        for (i, obj) in trace.objects.iter().enumerate() {
            let id = self.space.alloc(obj.name.clone(), obj.bytes);
            debug_assert_eq!(id, ObjectId(i as u16));
            let base = self.space.object(id).base;
            self.tagged_bases.push(self.tracker.tag(id, base));
            self.object_sizes.push(obj.bytes);
        }
    }

    fn ensure_loaded(&mut self, trace: &Trace) -> Result<(), RunError> {
        if self.loaded {
            return Ok(());
        }
        self.load(trace)
            .map_err(|error| RunError { step: 0, error })?;
        self.loaded = true;
        Ok(())
    }

    fn apply_invalidations(&mut self, out: &Outcome) {
        for (g, vpn) in &out.invalidations {
            self.gpus[g.index()].invalidate(*vpn, self.config.page_size);
        }
    }

    /// The typed trace error for an access that did not resolve.
    #[cold]
    fn trace_error(&self, a: &CompiledAccess) -> SimError {
        match self.object_sizes.get(a.obj.0 as usize) {
            None => TraceError::UnknownObject { object: a.obj.0 }.into(),
            Some(&size) => TraceError::OffsetOutOfRange {
                object: a.obj.0,
                offset: a.offset,
                size,
            }
            .into(),
        }
    }

    /// Resolves an access whose first PTE probe did not yield a usable
    /// translation: the driver services faults (far or protection) until
    /// one exists, accumulating their latency. Outlined so the fast path
    /// stays small.
    fn resolve_via_faults(
        &mut self,
        now: Time,
        g: usize,
        a: &CompiledAccess,
        latency: &mut Duration,
    ) -> SimResult<oasis_mem::page::Pte> {
        let gpu_id = GpuId(g as u8);
        let vpn = a.vpn;
        let mut rounds = 0u32;
        loop {
            let pte = self.driver.state.local_tables[g].get(vpn).copied();
            let fault = match pte {
                None => PageFault::far(gpu_id, a.va, vpn, a.kind),
                Some(p) if a.kind.is_write() && !p.writable => {
                    PageFault::protection(gpu_id, a.va, vpn)
                }
                Some(p) => return Ok(p),
            };
            if rounds >= 4 {
                // The speculative TLB fill from translate() must not
                // outlive the failed access.
                self.gpus[g].invalidate(vpn, self.config.page_size);
                return Err(FaultError::Unresolvable {
                    vpn: vpn.0,
                    gpu: g as u8,
                    rounds,
                }
                .into());
            }
            let out = match self
                .driver
                .handle_fault(now + *latency, &fault, &mut self.fabric)
            {
                Ok(out) => out,
                Err(e) => {
                    self.gpus[g].invalidate(vpn, self.config.page_size);
                    return Err(e);
                }
            };
            *latency += out.latency;
            self.apply_invalidations(&out);
            rounds += 1;
        }
    }

    /// Executes one resolved memory transaction, returning its total
    /// latency.
    ///
    /// An access that did not resolve fails here before any state is
    /// touched (no residue); a fault-resolution failure cleans up the TLB
    /// fill it caused.
    fn process_access(&mut self, now: Time, g: usize, a: &CompiledAccess) -> SimResult<Duration> {
        if !a.valid {
            return Err(self.trace_error(a));
        }
        self.accesses += 1;
        let va = a.va;
        let vpn = a.vpn;
        let gpu_id = GpuId(g as u8);

        let tlb = self.gpus[g].translate(vpn, &self.tlb_latency);
        let mut latency = tlb.latency;
        if tlb.l2_miss {
            self.driver
                .obs
                .metrics
                .observe_in(self.m_walk_ns, tlb.latency);
            self.driver.obs.emit(now, || TraceEvent::WalkComplete {
                gpu: g as u8,
                vpn: vpn.0,
                latency: tlb.latency,
            });
        }

        // The local PTE is the source of truth for location and
        // permissions (the TLB models timing only). An L1 TLB hit on a
        // sufficient translation takes the early exit below — one arena
        // probe, no fault scaffolding, no policy or metrics state touched
        // (policy-mix attribution and walk observation only exist on L2
        // misses). Anything else drops into the fault-resolution loop.
        let pte = match self.driver.state.local_tables[g].get(vpn) {
            Some(&p) if !a.kind.is_write() || p.writable => p,
            _ => self.resolve_via_faults(now, g, a, &mut latency)?,
        };
        if tlb.l2_miss {
            self.policy_mix[RunReport::mix_index(pte.policy)] += 1;
        }

        if pte.location == DeviceId::Gpu(gpu_id) {
            self.local_accesses += 1;
            self.driver.obs.metrics.add_to(self.m_local, 1);
            latency +=
                self.gpus[g].local_access(now + latency, va, u64::from(a.bytes), &self.config);
            self.driver.state.frames[g].touch(vpn);
        } else {
            self.remote_accesses += 1;
            self.driver.obs.metrics.add_to(self.m_remote, 1);
            // Request to the remote device, data back over the fabric.
            let depart = now + latency;
            let t = self.fabric.transfer(
                depart,
                pte.location,
                DeviceId::Gpu(gpu_id),
                u64::from(a.bytes),
            );
            let busy = t.latency_from(depart);
            let source = pte.location;
            self.driver.obs.emit(depart, || TraceEvent::LinkTransfer {
                from: device_endpoint(source),
                to: Endpoint::Gpu(g as u8),
                bytes: u64::from(a.bytes),
                busy,
            });
            let overhead = if pte.location.is_host() {
                self.config.host_access_overhead
            } else {
                self.config.remote_access_overhead
            };
            latency += busy + self.config.dram_latency + overhead;
            if let Some(out) =
                self.driver
                    .note_remote_access(now + latency, gpu_id, vpn, &mut self.fabric)?
            {
                latency += out.latency;
                self.apply_invalidations(&out);
            }
        }
        debug_assert!(
            latency < Duration::from_ms(10_000),
            "implausible access latency {latency} at {now} (vpn {vpn})"
        );
        Ok(latency)
    }

    /// Runs the sim-guard invariant sweep over the whole platform:
    /// cross-layer memory state, policy-engine metadata, and
    /// TLB-vs-page-table agreement (a cached translation must be backed by
    /// a live local PTE).
    fn check_guard(&self) -> SimResult<()> {
        let allow_writable_copies = self.policy.name() == "ideal";
        check_mem_state(&self.driver.state, allow_writable_copies)?;
        self.driver.policy.check_invariants()?;
        for (g, gpu) in self.gpus.iter().enumerate() {
            for (level, tlb) in [("L1", &gpu.l1_tlb), ("L2", &gpu.l2_tlb)] {
                for vpn in tlb.cached_vpns() {
                    if self.driver.state.local_tables[g].get(vpn).is_none() {
                        return Err(SimError::invariant(
                            "tlb-maps-unmapped",
                            format!("GPU {g} {level} TLB caches {:#x} with no local PTE", vpn.0),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn guard_due_each_step(&self) -> bool {
        self.config.guard == GuardMode::Step
    }

    /// Routes an access failure per the configured [`ErrorPolicy`]:
    /// `FailFast` aborts the run, `RecordAndContinue` counts it (keeping
    /// the first few verbatim) and lets the simulation proceed.
    fn absorb_error(&mut self, error: SimError) -> Result<(), RunError> {
        match self.config.error_policy {
            ErrorPolicy::FailFast => Err(RunError {
                step: self.step,
                error,
            }),
            ErrorPolicy::RecordAndContinue => {
                self.errors_recorded += 1;
                if self.error_samples.len() < ERROR_SAMPLE_CAP {
                    self.error_samples
                        .push(format!("step {}: {error}", self.step));
                }
                Ok(())
            }
        }
    }

    /// Runs the trace to completion and produces the report, or the typed
    /// error (with its step number) that stopped it.
    ///
    /// On a freshly built system this executes every epoch; on a system
    /// returned by [`System::resume`] (or advanced by
    /// [`System::run_prefix`]) it picks up at the next unexecuted epoch
    /// and the report covers the whole run, as if never interrupted.
    pub fn run(&mut self, trace: &Trace) -> Result<RunReport, RunError> {
        self.run_until(trace, trace.phases.len() as u64)?;
        Ok(self.report(trace))
    }

    /// Runs epochs until `epochs` of the trace have executed (useful for
    /// checkpointing mid-run: run a prefix, checkpoint, drop the system).
    /// Running past the end of the trace is clamped; a prefix the system
    /// has already passed is a no-op.
    pub fn run_prefix(&mut self, trace: &Trace, epochs: u64) -> Result<(), RunError> {
        self.run_until(trace, epochs.min(trace.phases.len() as u64))
    }

    fn run_until(&mut self, trace: &Trace, upto: u64) -> Result<(), RunError> {
        let t0 = Instant::now();
        self.ensure_loaded(trace)?;
        let mut result = Ok(());
        while result.is_ok() && self.next_epoch < upto {
            result = self.run_epoch(trace);
        }
        self.instr.wall_clock_us += t0.elapsed().as_micros() as u64;
        result
    }

    /// Executes the next epoch (one kernel launch / trace phase) and
    /// records its end-of-epoch state digest.
    fn run_epoch(&mut self, trace: &Trace) -> Result<(), RunError> {
        let epoch = self.next_epoch;
        let phase = &trace.phases[epoch as usize];
        let epoch_start = self.global;
        let uvm_before = self.driver.stats;
        let accesses_before = self.accesses;
        self.driver.kernel_launch();
        if let Some(mut hook) = self.epoch_hook.take() {
            hook(epoch, &mut self.driver);
            self.epoch_hook = Some(hook);
        }
        self.global += self.config.kernel_launch_overhead;
        self.apply_scheduled_faults(epoch)?;
        // Grid-wide barriers split the kernel into synchronized
        // segments (in-kernel iteration boundaries). Unlike kernel
        // launches, barriers do not notify the policy engine. Segments are
        // described by index ranges into the per-GPU streams — no
        // per-segment slice vectors.
        let n_barriers = phase.barriers.first().map(Vec::len).unwrap_or(0);
        for seg in 0..=n_barriers {
            let bounds = |g: usize| {
                let start = if seg == 0 {
                    0
                } else {
                    phase.barriers[g][seg - 1]
                };
                let end = if seg == n_barriers {
                    phase.per_gpu[g].len()
                } else {
                    phase.barriers[g][seg]
                };
                (start, end)
            };
            self.global = self.run_segment(self.global, phase, &bounds)?;
        }
        if self.config.guard == GuardMode::Epoch {
            self.validate().map_err(|error| RunError {
                step: self.step,
                error,
            })?;
        }
        self.next_epoch += 1;
        self.epoch_rollups.push(EpochRollup {
            epoch,
            sim_time: self.global - epoch_start,
            accesses: self.accesses - accesses_before,
            uvm: self.driver.stats.minus(&uvm_before),
        });
        self.driver.settle_digests();
        self.digest_trail.push(self.digest());
        Ok(())
    }

    /// Applies the fault plan's schedule for the start of `epoch`: marks
    /// freshly failed NVLink pairs down (their traffic takes the staged
    /// PCIe reroute from here on) and poisons scheduled ECC victim
    /// frames, re-servicing the lost pages through the driver's
    /// bounded-retry path. Victims are drawn from the struck GPU's
    /// resident set in recency order with the plan RNG, so the whole
    /// fault stream replays from one seed. Recovery failures (retry
    /// budget exhausted on a frame-starved GPU) route through the
    /// configured [`ErrorPolicy`] like any access failure.
    fn apply_scheduled_faults(&mut self, epoch: u64) -> Result<(), RunError> {
        for (a, b) in self.fabric.begin_epoch(epoch) {
            self.driver.obs.metrics.add("fabric.link_faults", 1);
            self.driver
                .obs
                .emit(self.global, || TraceEvent::LinkFault { a, b });
        }
        for ev in self.fabric.ecc_events_for(epoch) {
            let gpu = GpuId(ev.gpu);
            for _ in 0..ev.frames {
                let resident: Vec<_> = self.driver.state.frames[gpu.index()]
                    .pages_by_recency()
                    .collect();
                if resident.is_empty() {
                    break; // nothing resident left to strike
                }
                let vpn = resident[self.fabric.fault_draw(resident.len())];
                match self
                    .driver
                    .poison_frame(self.global, gpu, vpn, &mut self.fabric)
                {
                    Ok(Some(out)) => {
                        self.global += out.latency;
                        self.apply_invalidations(&out);
                    }
                    Ok(None) => {}
                    Err(error) => self.absorb_error(error)?,
                }
            }
        }
        Ok(())
    }

    /// Runs one synchronized segment of per-GPU streams starting at
    /// `start`, returning the time all GPUs completed it. The segment is
    /// `bounds(g)` index ranges into the phase's streams; each access is
    /// resolved against the object binding as it is simulated.
    ///
    /// Each GPU issues from `lanes.min(seg_len.max(1))` lanes, armed at
    /// `start` in GPU order, which fixes their sequence numbers and so the
    /// order of equal-time events: event interleaving feeds fabric
    /// contention and is digest-visible.
    fn run_segment(
        &mut self,
        start: Time,
        phase: &Phase,
        bounds: &dyn Fn(usize) -> (usize, usize),
    ) -> Result<Time, RunError> {
        let lanes = self.config.lanes_per_gpu.max(1);
        let page = self.config.page_size;
        let mut next = vec![0usize; phase.per_gpu.len()];
        let mut ends = vec![0usize; phase.per_gpu.len()];
        let mut lane_gpu = Vec::new();
        for g in 0..phase.per_gpu.len() {
            let (lo, hi) = bounds(g);
            next[g] = lo;
            ends[g] = hi;
            lane_gpu.extend(std::iter::repeat_n(g, lanes.min((hi - lo).max(1))));
        }
        let mut queue = LaneTree::new(lane_gpu.len(), start);
        let mut end = start;
        // Progress watchdog: consecutive failed accesses that also left
        // the driver's page state untouched. Any retired access or
        // page-state transition resets it; `stall_window` of them in a row
        // means the run is spinning without forward progress.
        let mut stalled_events = 0u64;
        while let Some(ev) = queue.peek() {
            let g = lane_gpu[ev.payload];
            let idx = next[g];
            if idx >= ends[g] {
                queue.retire();
                continue;
            }
            next[g] = idx + 1;
            self.step += 1;
            let stats_before = self.driver.stats.progress_token();
            let a = CompiledAccess::resolve(
                &phase.per_gpu[g][idx],
                &self.tagged_bases,
                &self.object_sizes,
                page,
            );
            match self.process_access(ev.time, g, &a) {
                Ok(latency) => {
                    stalled_events = 0;
                    let done = ev.time + latency;
                    end = end.max(done);
                    queue.rearm(done);
                }
                Err(e) => {
                    if self.driver.stats.progress_token() == stats_before {
                        stalled_events += 1;
                        if stalled_events >= self.config.stall_window {
                            return Err(RunError {
                                step: self.step,
                                error: SimError::Stalled {
                                    step: self.step,
                                    window: self.config.stall_window,
                                },
                            });
                        }
                    } else {
                        stalled_events = 0;
                    }
                    self.absorb_error(e)?;
                    // The failed access consumed no simulated time; the
                    // lane moves straight to its next transaction.
                    queue.rearm(ev.time);
                }
            }
            if self.guard_due_each_step() {
                self.check_guard().map_err(|error| RunError {
                    step: self.step,
                    error,
                })?;
            }
        }
        Ok(end)
    }

    /// Builds the report-time metrics view: the live registry's counters
    /// and histograms plus rollups that only exist as component state
    /// (fabric link busy times, TLB shootdowns, page-table churn,
    /// policy-internal counters). Pure derivation — the simulation state
    /// is not touched.
    fn metrics_view(&self) -> oasis_engine::MetricsRegistry {
        let mut m = self.driver.obs.metrics.clone();
        if !m.is_enabled() {
            return m;
        }
        self.driver.policy.publish_metrics(&mut m);
        for ls in self.fabric.link_stats() {
            let prefix = format!("fabric.{}{}", ls.kind, ls.gpu);
            m.set(&format!("{prefix}.busy_ns"), ls.busy.as_ps() / 1_000);
            m.set(&format!("{prefix}.bytes"), ls.bytes);
            m.set(&format!("{prefix}.transfers"), ls.transfers);
        }
        for (g, gpu) in self.gpus.iter().enumerate() {
            m.set(
                &format!("tlb.gpu{g}.shootdowns"),
                gpu.l1_tlb.shootdowns() + gpu.l2_tlb.shootdowns(),
            );
            m.set(
                &format!("pagetable.gpu{g}.updates"),
                self.driver.state.local_tables[g].updates(),
            );
        }
        if self.driver.obs.tracing() {
            m.set("trace.dropped", self.driver.obs.dropped());
        }
        let fc = self.fabric.fault_state().counters();
        m.set("fabric.crc_retries", fc.crc_retries);
        m.set("fabric.reroutes", fc.reroutes);
        m.set("fabric.rerouted_bytes", fc.rerouted_bytes);
        m.set(
            "fabric.links_down",
            self.fabric.fault_state().links_down() as u64,
        );
        m
    }

    fn report(&self, trace: &Trace) -> RunReport {
        let sum2 = |f: &dyn Fn(&GpuModel) -> (u64, u64)| {
            self.gpus
                .iter()
                .map(f)
                .fold((0, 0), |(a, b), (h, m)| (a + h, b + m))
        };
        RunReport {
            app: trace.app.to_string(),
            policy: self.policy.name().to_string(),
            total_time: self.global - Time::ZERO,
            phases: trace.phases.len(),
            accesses: self.accesses,
            local_accesses: self.local_accesses,
            remote_accesses: self.remote_accesses,
            l1_tlb: sum2(&|g: &GpuModel| g.l1_tlb.stats()),
            l2_tlb: sum2(&|g: &GpuModel| g.l2_tlb.stats()),
            l2_cache: sum2(&|g: &GpuModel| g.l2_cache.stats()),
            uvm: self.driver.stats,
            policy_mix: self.policy_mix,
            nvlink_bytes: self.fabric.nvlink_bytes(),
            pcie_bytes: self.fabric.pcie_bytes(),
            faults: self.fabric.fault_state().counters(),
            errors_recorded: self.errors_recorded,
            error_samples: self.error_samples.clone(),
            digest_trail: self.digest_trail.clone(),
            instrumentation: RunInstrumentation {
                retired_steps: self.step,
                ..self.instr.clone()
            },
            epoch_rollups: self.epoch_rollups.clone(),
            metrics: self.metrics_view(),
            trace_events: self.driver.obs.events(),
        }
    }

    /// Encodes the mutable state outside the driver and the policy engine,
    /// in a fixed order: the progress scalars, tracker, fabric, fault
    /// state, and every GPU's TLBs, L2 cache and DRAM channel. Small and
    /// fixed-size, so both digests take it from scratch; a checkpoint
    /// stores the same bytes as its `platform` section.
    fn encode_platform<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.global.as_ps());
        w.u64(self.next_epoch);
        w.u64(self.step);
        w.u64(self.accesses);
        w.u64(self.local_accesses);
        w.u64(self.remote_accesses);
        for v in self.policy_mix {
            w.u64(v);
        }
        w.u64(self.errors_recorded);
        self.tracker.snapshot(w);
        self.fabric.snapshot(w);
        self.fabric.fault_state().snapshot(w);
        for g in &self.gpus {
            g.l1_tlb.snapshot(w);
            g.l2_tlb.snapshot(w);
            g.l2_cache.snapshot(w);
            g.dram.snapshot(w);
        }
    }

    /// Reads back, field for field, what [`System::encode_platform`]
    /// wrote.
    fn restore_platform(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.global = Time::from_ps(r.u64()?);
        self.next_epoch = r.u64()?;
        self.step = r.u64()?;
        self.accesses = r.u64()?;
        self.local_accesses = r.u64()?;
        self.remote_accesses = r.u64()?;
        for v in &mut self.policy_mix {
            *v = r.u64()?;
        }
        self.errors_recorded = r.u64()?;
        self.tracker.restore(r)?;
        self.fabric.restore(r)?;
        self.fabric.fault_state_mut().restore(r)?;
        for g in &mut self.gpus {
            g.l1_tlb.restore(r)?;
            g.l2_tlb.restore(r)?;
            g.l2_cache.restore(r)?;
            g.dram.restore(r)?;
        }
        Ok(())
    }

    /// Folds every piece of mutable simulation state (not the
    /// configuration) into `h`: the platform word by word, the driver's
    /// tables by their running sums, the policy through its digest hook.
    fn fold_digest(&self, mut h: StateHasher) -> StateHasher {
        self.encode_platform(&mut h);
        self.driver.digest_into(&mut h);
        self.driver.policy.digest(&mut h);
        h
    }

    /// Digest of the full mutable simulation state, composed from
    /// component digests with no serialization, sort or allocation. Two
    /// systems with the same configuration that executed the same accesses
    /// have the same digest; recorded once per epoch, the trail pins down
    /// the first epoch at which a replay diverged.
    pub fn digest(&self) -> u64 {
        self.fold_digest(StateHasher::new()).finish()
    }

    /// [`System::digest`] computed in one pass from scratch, every table
    /// sum recomputed from the table's entries: the reference the running
    /// sums are checked against.
    pub fn reference_digest(&self) -> u64 {
        self.fold_digest(StateHasher::reference()).finish()
    }

    /// FNV-1a over the serialized mutable state: the per-epoch digest
    /// format before [`System::digest`]. It follows the simulated state but
    /// not the digest format, so the golden trails pin it as the
    /// cross-version fixture for simulation semantics. No run path calls
    /// it.
    pub fn snapshot_digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        self.encode_platform(&mut w);
        self.driver.snapshot(&mut w);
        self.driver.policy.snapshot_state(&mut w);
        fnv1a(w.as_slice())
    }

    /// Serializes the whole system — configuration, policy selection,
    /// progress cursor, and every component's mutable state — into `sink`
    /// as one versioned, checksummed checkpoint.
    ///
    /// Call this at an epoch boundary (after [`System::run_prefix`] or
    /// from an epoch hook); mid-segment state lives in a local event queue
    /// and is not captured.
    ///
    /// # Panics
    ///
    /// Panics if no trace was loaded yet (there is no state worth saving).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Codec`] if writing to `sink` fails.
    pub fn checkpoint(&mut self, sink: &mut impl Write) -> Result<(), SimError> {
        assert!(
            self.loaded,
            "checkpoint before load/run has no state to save"
        );
        let t0 = Instant::now();
        let mut cw = CheckpointWriter::new();
        cw.section("config", |w| {
            self.config.encode(w);
            self.policy.encode(w);
        });
        cw.section("progress", |w| {
            w.u64(self.trace_fingerprint);
            w.u64(self.error_samples.len() as u64);
            for s in &self.error_samples {
                w.str(s);
            }
            w.u64(self.digest_trail.len() as u64);
            for &d in &self.digest_trail {
                w.u64(d);
            }
            w.u64(self.instr.wall_clock_us);
            w.u64(self.instr.checkpoint_write_us);
            w.u64(self.instr.checkpoint_restore_us);
        });
        cw.section("platform", |w| self.encode_platform(w));
        cw.snapshot("driver", &self.driver);
        cw.section("policy", |w| self.driver.policy.snapshot_state(w));
        let bytes = cw.finish();
        oasis_engine::emit_checkpoint(sink, &bytes).map_err(SimError::Codec)?;
        self.instr.checkpoint_write_us += t0.elapsed().as_micros() as u64;
        Ok(())
    }

    /// Rebuilds a system from a checkpoint written by
    /// [`System::checkpoint`], ready to [`run`](System::run) the remaining
    /// epochs of `trace`. The trace must be the one the checkpointed run
    /// was executing (a fingerprint over its objects and accesses is
    /// verified); the address space is rebuilt from it deterministically
    /// while all driver, policy, and platform state comes from the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Codec`] for unreadable, truncated, corrupted,
    /// or mismatched checkpoints, naming the failing section.
    pub fn resume(source: &mut impl Read, trace: &Trace) -> Result<System, SimError> {
        let t0 = Instant::now();
        let mut bytes = Vec::new();
        source
            .read_to_end(&mut bytes)
            .map_err(|e| SimError::Codec(CodecError::Io(e.to_string())))?;
        let mut cr = CheckpointReader::new(&bytes)?;

        let mut sec = cr.section("config")?;
        let config = SystemConfig::decode(&mut sec)?;
        let policy = Policy::decode(&mut sec)?;
        if !sec.is_empty() {
            return Err(sec
                .malformed("trailing bytes after policy parameters")
                .into());
        }
        let mut sys = System::new(config, &policy);

        let mut sec = cr.section("progress")?;
        let fingerprint = sec.u64()?;
        let expected = trace_fingerprint(trace);
        if fingerprint != expected {
            return Err(sec
                .malformed(format!(
                    "checkpoint was taken against a different trace \
                     (fingerprint {fingerprint:#018x}, trace {expected:#018x})"
                ))
                .into());
        }
        let samples = sec.u64()?;
        if samples > ERROR_SAMPLE_CAP as u64 {
            return Err(sec
                .malformed(format!("{samples} error samples exceed the cap"))
                .into());
        }
        for _ in 0..samples {
            let s = sec.str()?;
            sys.error_samples.push(s);
        }
        let epochs = sec.u64()?;
        for _ in 0..epochs {
            let d = sec.u64()?;
            sys.digest_trail.push(d);
        }
        sys.instr.wall_clock_us = sec.u64()?;
        sys.instr.checkpoint_write_us = sec.u64()?;
        sys.instr.checkpoint_restore_us = sec.u64()?;
        if !sec.is_empty() {
            return Err(sec.malformed("trailing bytes after progress state").into());
        }
        sys.trace_fingerprint = fingerprint;

        // Rebuild the address space exactly as load() would, but leave
        // page registration alone: the restored driver state already
        // reflects it (re-registering would clobber learned placement).
        sys.bind_objects(trace);

        let mut sec = cr.section("platform")?;
        sys.restore_platform(&mut sec)?;
        if !sec.is_empty() {
            return Err(sec.malformed("trailing bytes after platform state").into());
        }
        if sys.next_epoch > trace.phases.len() as u64 {
            return Err(sec
                .malformed(format!(
                    "checkpoint is {} epochs in but the trace has {}",
                    sys.next_epoch,
                    trace.phases.len()
                ))
                .into());
        }
        if epochs != sys.next_epoch {
            return Err(sec
                .malformed(format!(
                    "digest trail covers {epochs} epochs but the cursor is at {}",
                    sys.next_epoch
                ))
                .into());
        }
        cr.restore("driver", &mut sys.driver)?;
        let mut sec = cr.section("policy")?;
        sys.driver.policy.restore_state(&mut sec)?;
        if !sec.is_empty() {
            return Err(sec.malformed("trailing bytes after policy state").into());
        }
        cr.finish()?;
        sys.loaded = true;
        sys.instr.checkpoint_restore_us += t0.elapsed().as_micros() as u64;
        Ok(sys)
    }

    /// The UVM driver (tests, characterization).
    pub fn driver(&self) -> &UvmDriver {
        &self.driver
    }

    /// The next epoch (trace phase index) this system would execute —
    /// `0` on a fresh system, `trace.phases.len()` once a run finished.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// The policy this system was built with (restored verbatim on
    /// [`System::resume`]).
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Runs the sim-guard sweep plus the digest reference check on
    /// demand (tests, post-run validation; `GuardMode::Epoch` runs it at
    /// every epoch boundary). The reference check recomputes every running
    /// table sum and fails with the `digest-running-sum` invariant naming
    /// the first table whose sum disagrees.
    pub fn validate(&self) -> SimResult<()> {
        self.check_guard()?;
        self.fold_digest(StateHasher::reference()).verify()?;
        Ok(())
    }

    /// The address space built from the trace's allocations.
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

/// Trace-event endpoint for a device id.
fn device_endpoint(dev: DeviceId) -> Endpoint {
    match dev {
        DeviceId::Host => Endpoint::Host,
        DeviceId::Gpu(g) => Endpoint::Gpu(g.0),
    }
}

/// Fingerprint of a trace's full content: app, GPU count, object layout,
/// every access, every barrier. Stored in checkpoints so a resume against
/// the wrong trace (or a mutated one) fails loudly instead of silently
/// diverging.
///
/// The trace streams word by word through the digest mixer, with no
/// buffer. Each access is two words on two independent chains, so the
/// mixer's latency overlaps: its object, kind and size packed into one
/// word (`obj | write << 16 | bytes << 32`, lossless) on the layout
/// chain, and its offset on the offset chain. Every string is prefixed
/// with its length and every list with its count, so the layout chain
/// alone fixes which access each offset belongs to. The offset chain's
/// hash is folded into the layout chain last.
pub(crate) fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut layout = StateHasher::new();
    let mut offsets = StateHasher::new();
    str_words(&mut layout, trace.app);
    layout.word(trace.gpu_count as u64);
    layout.word(trace.objects.len() as u64);
    for obj in &trace.objects {
        str_words(&mut layout, &obj.name);
        layout.word(obj.bytes);
    }
    layout.word(trace.phases.len() as u64);
    for phase in &trace.phases {
        str_words(&mut layout, &phase.name);
        layout.word(phase.per_gpu.len() as u64);
        for stream in &phase.per_gpu {
            layout.word(stream.len() as u64);
            for a in stream {
                layout.word(
                    u64::from(a.obj.0)
                        | u64::from(a.kind.is_write()) << 16
                        | u64::from(a.bytes) << 32,
                );
                offsets.word(a.offset);
            }
        }
        layout.word(phase.barriers.len() as u64);
        for b in &phase.barriers {
            layout.word(b.len() as u64);
            for &pos in b {
                layout.word(pos as u64);
            }
        }
    }
    layout.word(offsets.finish());
    layout.finish()
}

/// Folds a string as its byte length, then its bytes eight to a word
/// (little-endian, the last word zero-padded).
fn str_words(h: &mut StateHasher, s: &str) {
    h.word(s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(word));
    }
}

/// Builds a system, runs `trace`, and returns the report.
///
/// This is the fail-fast convenience wrapper: a typed simulation error
/// aborts the process with the error's step coordinate. Callers that want
/// to handle errors (or run record-and-continue campaigns) use
/// [`try_simulate`].
pub fn simulate(config: &SystemConfig, policy: Policy, trace: &Trace) -> RunReport {
    match try_simulate(config, policy, trace) {
        Ok(report) => report,
        Err(e) => panic!("simulation failed {e}"),
    }
}

/// Builds a system, runs `trace`, and returns the report or the typed
/// error (with its replay step) that stopped it.
pub fn try_simulate(
    config: &SystemConfig,
    policy: Policy,
    trace: &Trace,
) -> Result<RunReport, RunError> {
    System::new(config.clone(), &policy).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_workloads::{generate, App, WorkloadParams};

    fn small(app: App) -> oasis_workloads::Trace {
        generate(app, &WorkloadParams::small(app, 4))
    }

    #[test]
    fn on_touch_run_produces_consistent_counters() {
        let trace = small(App::Mt);
        let r = simulate(&SystemConfig::default(), Policy::OnTouch, &trace);
        assert_eq!(r.accesses as usize, trace.total_accesses());
        assert_eq!(r.accesses, r.local_accesses + r.remote_accesses);
        assert!(r.total_time > Duration::ZERO);
        assert!(r.uvm.far_faults > 0);
        // On-touch never duplicates or remote-maps.
        assert_eq!(r.uvm.duplications, 0);
        assert_eq!(r.uvm.remote_maps, 0);
        assert_eq!(r.remote_accesses, 0);
        assert_eq!(r.errors_recorded, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small(App::Bfs);
        let a = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
        let b = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.uvm, b.uvm);
        assert_eq!(a.policy_mix, b.policy_mix);
    }

    #[test]
    fn duplication_policy_duplicates_shared_reads() {
        let trace = small(App::Mm);
        let r = simulate(&SystemConfig::default(), Policy::Duplication, &trace);
        assert!(r.uvm.duplications > 0);
    }

    #[test]
    fn access_counter_policy_serves_remotely() {
        let trace = small(App::Mm);
        let r = simulate(&SystemConfig::default(), Policy::AccessCounter, &trace);
        assert!(r.uvm.remote_maps > 0);
        assert!(r.remote_accesses > 0);
    }

    #[test]
    fn ideal_beats_on_touch_on_shared_workloads() {
        let trace = small(App::Mm);
        let base = simulate(&SystemConfig::default(), Policy::OnTouch, &trace);
        let ideal = simulate(&SystemConfig::default(), Policy::Ideal, &trace);
        assert!(
            ideal.speedup_over(&base) > 1.0,
            "ideal {:.2}x",
            ideal.speedup_over(&base)
        );
    }

    #[test]
    fn striped_placement_runs() {
        let trace = small(App::St);
        let cfg = SystemConfig {
            placement: Placement::Striped,
            ..SystemConfig::default()
        };
        let r = simulate(&cfg, Policy::oasis(), &trace);
        assert!(r.total_time > Duration::ZERO);
    }

    #[test]
    fn oversubscription_evicts() {
        let trace = small(App::Mt);
        let cfg = SystemConfig::default().with_oversubscription(trace.footprint_bytes(), 150);
        let r = simulate(&cfg, Policy::OnTouch, &trace);
        assert!(r.uvm.evictions > 0, "capacity pressure must evict");
    }

    #[test]
    fn large_pages_reduce_fault_count() {
        let trace = small(App::Mt);
        let small_pages = simulate(&SystemConfig::default(), Policy::OnTouch, &trace);
        let large_pages = simulate(&SystemConfig::with_large_pages(), Policy::OnTouch, &trace);
        assert!(large_pages.uvm.far_faults < small_pages.uvm.far_faults);
    }

    #[test]
    fn policy_mix_counts_l2_misses_only() {
        let trace = small(App::Mt);
        let r = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
        let mix_total: u64 = r.policy_mix.iter().sum();
        assert_eq!(mix_total, r.l2_tlb.1, "one mix sample per L2 TLB miss");
    }

    #[test]
    fn guarded_runs_match_unguarded_results() {
        // C2D's 9 epochs make the epoch guard check running digest sums
        // that earlier epochs settled.
        for app in [App::Mm, App::C2d] {
            let trace = small(app);
            let plain = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
            let cfg = SystemConfig {
                guard: GuardMode::Epoch,
                ..SystemConfig::default()
            };
            let guarded = simulate(&cfg, Policy::oasis(), &trace);
            assert_eq!(plain.total_time, guarded.total_time);
            assert_eq!(plain.uvm, guarded.uvm);
            assert_eq!(plain.digest_trail, guarded.digest_trail);
        }
    }

    #[test]
    fn unknown_object_is_a_typed_error_with_step() {
        let mut trace = small(App::Mt);
        // Corrupt one access to reference an object the trace never
        // allocated.
        trace.phases[0].per_gpu[1][3].obj = ObjectId(999);
        let err = try_simulate(&SystemConfig::default(), Policy::OnTouch, &trace)
            .expect_err("corrupt trace must fail");
        assert!(err.step > 0, "{err}");
        assert!(matches!(
            err.error,
            SimError::Trace(TraceError::UnknownObject { object: 999 })
        ));
    }

    #[test]
    fn out_of_range_offset_is_a_typed_error() {
        let mut trace = small(App::Mt);
        trace.phases[0].per_gpu[0][0].offset = u64::MAX / 2;
        let err = try_simulate(&SystemConfig::default(), Policy::OnTouch, &trace)
            .expect_err("corrupt trace must fail");
        assert!(matches!(
            err.error,
            SimError::Trace(TraceError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn record_and_continue_finishes_despite_corruption() {
        let mut trace = small(App::Mt);
        trace.phases[0].per_gpu[0][0].obj = ObjectId(999);
        trace.phases[0].per_gpu[2][5].offset = u64::MAX / 2;
        let cfg = SystemConfig {
            error_policy: ErrorPolicy::RecordAndContinue,
            guard: GuardMode::Epoch,
            ..SystemConfig::default()
        };
        let r = try_simulate(&cfg, Policy::OnTouch, &trace).expect("run survives");
        assert_eq!(r.errors_recorded, 2);
        assert_eq!(r.error_samples.len(), 2);
        assert_eq!(r.accesses as usize, trace.total_accesses() - 2);
    }

    #[test]
    fn mismatched_gpu_count_fails_at_load() {
        let trace = small(App::Mt); // 4-GPU trace
        let err = try_simulate(&SystemConfig::with_gpus(8), Policy::OnTouch, &trace)
            .expect_err("4-GPU trace cannot drive 8 GPUs");
        assert_eq!(err.step, 0);
        assert!(matches!(
            err.error,
            SimError::Trace(TraceError::GpuOutOfRange {
                gpu: 4,
                gpu_count: 8
            })
        ));
    }

    #[test]
    fn step_guard_passes_on_healthy_small_run() {
        let mut params = WorkloadParams::small(App::Mt, 4);
        params.footprint_mb = 2; // keep the per-step sweep affordable
        let trace = generate(App::Mt, &params);
        let cfg = SystemConfig {
            guard: GuardMode::Step,
            ..SystemConfig::default()
        };
        let r = try_simulate(&cfg, Policy::oasis(), &trace).expect("guard holds every step");
        assert!(r.accesses > 0);
    }

    /// Runs `trace` halfway, checkpoints, drops the system (the "kill"),
    /// resumes from the serialized bytes, and finishes the run.
    fn resumed_at_midpoint(cfg: &SystemConfig, policy: &Policy, trace: &Trace) -> RunReport {
        let midpoint = (trace.phases.len() as u64 / 2).max(1);
        crate::replay::kill_and_resume(cfg, policy, trace, midpoint)
            .expect("kill/resume leg")
            .report
    }

    #[test]
    fn midpoint_kill_resume_is_bit_identical_for_every_policy() {
        for policy in [
            Policy::OnTouch,
            Policy::AccessCounter,
            Policy::Duplication,
            Policy::oasis(),
            Policy::oasis_inmem(),
            Policy::grit(),
        ] {
            // C2D has 9 phases, so the kill lands genuinely mid-trace
            // (epoch 4) rather than at the end of a single-phase run.
            let trace = small(App::C2d);
            let cfg = SystemConfig::default();
            let straight = simulate(&cfg, policy.clone(), &trace);
            let resumed = resumed_at_midpoint(&cfg, &policy, &trace);
            resumed
                .check_digests_against(&straight)
                .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            assert!(
                resumed.same_simulation(&straight),
                "{} kill/resume diverged from the straight run",
                policy.name()
            );
            assert_eq!(resumed.digest_trail.len(), trace.phases.len());
        }
    }

    /// A resumed system resolves its accesses against the binding
    /// `resume` rebuilt, not one from a fresh `load`. An out-of-range
    /// access in epoch 6, resumed from epoch 4, must fail at the straight
    /// run's step, or be recorded once, as in the straight run.
    #[test]
    fn a_trace_error_after_the_kill_epoch_is_raised_alike_on_resume() {
        use crate::replay::{kill_and_resume, ResumeError};
        let mut trace = small(App::C2d);
        trace.phases[6].per_gpu[1][3].offset = u64::MAX / 2;
        let policy = Policy::oasis();

        let fail_fast = SystemConfig::default();
        let straight = try_simulate(&fail_fast, policy.clone(), &trace)
            .expect_err("a corrupt trace fails fast");
        assert!(
            matches!(
                straight.error,
                SimError::Trace(TraceError::OffsetOutOfRange { .. })
            ),
            "{straight}"
        );
        match kill_and_resume(&fail_fast, &policy, &trace, 4) {
            Err(ResumeError::Finish(resumed)) => assert_eq!(resumed, straight),
            other => panic!("the resumed run must fail as the straight one did: {other:?}"),
        }

        let record = SystemConfig {
            error_policy: ErrorPolicy::RecordAndContinue,
            ..SystemConfig::default()
        };
        let straight = simulate(&record, policy.clone(), &trace);
        let resumed = kill_and_resume(&record, &policy, &trace, 4)
            .expect("a recorded error does not stop the run")
            .report;
        assert_eq!(resumed.errors_recorded, 1);
        assert_eq!(resumed.error_samples.len(), 1);
        assert!(resumed.same_simulation(&straight));
    }

    #[test]
    fn resume_restores_the_exact_state_digest() {
        let trace = small(App::Bfs);
        let mut sys = System::new(SystemConfig::default(), &Policy::oasis());
        sys.run_prefix(&trace, 1).expect("first epoch");
        let expected = sys.digest();
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        let resumed = System::resume(&mut buf.as_slice(), &trace).expect("resume");
        assert_eq!(resumed.digest(), expected, "restored state must hash alike");
        assert_eq!(resumed.reference_digest(), expected);
        assert_eq!(resumed.snapshot_digest(), sys.snapshot_digest());
    }

    #[test]
    fn report_instrumentation_counts_steps_and_checkpoint_work() {
        let trace = small(App::Mt);
        let cfg = SystemConfig::default();
        let straight = simulate(&cfg, Policy::OnTouch, &trace);
        assert_eq!(straight.instrumentation.retired_steps, straight.accesses);
        assert_eq!(straight.instrumentation.checkpoint_write_us, 0);
        let resumed = resumed_at_midpoint(&cfg, &Policy::OnTouch, &trace);
        assert_eq!(resumed.instrumentation.retired_steps, resumed.accesses);
    }

    #[test]
    fn truncated_checkpoint_fails_typed_naming_a_section() {
        let trace = small(App::Mt);
        let mut sys = System::new(SystemConfig::default(), &Policy::oasis());
        sys.run_prefix(&trace, 1).expect("first epoch");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        let err = System::resume(&mut &buf[..buf.len() / 2], &trace)
            .expect_err("half a checkpoint must not resume");
        match err {
            SimError::Codec(CodecError::Truncated { section, .. }) => {
                assert!(!section.is_empty(), "truncation names the starving section");
            }
            other => panic!("expected a typed truncation error, got {other}"),
        }
    }

    #[test]
    fn flipped_checksum_byte_fails_typed() {
        let trace = small(App::Mt);
        let mut sys = System::new(SystemConfig::default(), &Policy::OnTouch);
        sys.run_prefix(&trace, 1).expect("first epoch");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        *buf.last_mut().unwrap() ^= 0xFF;
        let err = System::resume(&mut buf.as_slice(), &trace)
            .expect_err("corrupted trailer must not resume");
        assert!(
            matches!(err, SimError::Codec(CodecError::ChecksumMismatch { .. })),
            "expected checksum mismatch, got {err}"
        );
    }

    #[test]
    fn wrong_format_version_fails_typed() {
        let trace = small(App::Mt);
        let mut sys = System::new(SystemConfig::default(), &Policy::OnTouch);
        sys.run_prefix(&trace, 1).expect("first epoch");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = System::resume(&mut buf.as_slice(), &trace)
            .expect_err("future format version must not resume");
        assert!(
            matches!(
                err,
                SimError::Codec(CodecError::UnsupportedVersion { found: 99, .. })
            ),
            "expected unsupported version, got {err}"
        );
    }

    /// Version 3 checkpoints embed a digest trail in the previous format,
    /// version 4 ones a trace fingerprint in the previous format, and
    /// version 5 ones split the platform state over five sections;
    /// resuming any of them would misread it.
    #[test]
    fn older_format_versions_fail_typed() {
        let trace = small(App::Mt);
        let mut sys = System::new(SystemConfig::default(), &Policy::OnTouch);
        sys.run_prefix(&trace, 1).expect("first epoch");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        for found in [3u32, 4, 5] {
            let mut old = buf.clone();
            old[8..12].copy_from_slice(&found.to_le_bytes());
            let err = System::resume(&mut old.as_slice(), &trace)
                .expect_err("an older format version must not resume");
            assert_eq!(
                err,
                SimError::Codec(CodecError::UnsupportedVersion { found, expected: 6 })
            );
        }
    }

    /// Asserts `err` is the typed refusal of a checkpoint taken against
    /// another trace.
    fn assert_different_trace(err: &SimError) {
        assert!(
            matches!(
                err,
                SimError::Codec(CodecError::Malformed { section, detail })
                    if section == "progress" && detail.contains("different trace")
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn resume_rejects_a_different_trace() {
        let trace = small(App::Mt);
        let mut sys = System::new(SystemConfig::default(), &Policy::OnTouch);
        sys.run_prefix(&trace, 1).expect("first epoch");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        let other = small(App::Bfs);
        let err = System::resume(&mut buf.as_slice(), &other)
            .expect_err("checkpoint is bound to its trace");
        assert_different_trace(&err);

        // One access's offset, in the epoch the checkpoint has not run
        // yet, is enough.
        let mut nudged = trace.clone();
        let last = nudged.phases.len() - 1;
        nudged.phases[last].per_gpu[0][0].offset += 64;
        let err = System::resume(&mut buf.as_slice(), &nudged)
            .expect_err("one moved offset makes another trace");
        assert_different_trace(&err);
        System::resume(&mut buf.as_slice(), &trace.clone()).expect("an identical clone resumes");
    }

    /// A small hand-built trace with two objects, two phases, two GPUs and
    /// one barrier: every field the fingerprint covers, independent of the
    /// generators.
    fn fixed_trace() -> Trace {
        use oasis_mem::types::AccessKind;
        use oasis_workloads::trace::{Access, ObjectSpec, Phase};
        let access = |obj: u16, offset: u64, kind: AccessKind, bytes: u32| Access {
            obj: ObjectId(obj),
            offset,
            kind,
            bytes,
        };
        Trace {
            app: "MT",
            gpu_count: 2,
            objects: vec![
                ObjectSpec {
                    name: "MT_Input".into(),
                    bytes: 8192,
                },
                ObjectSpec {
                    name: "MT_Output".into(),
                    bytes: 4096,
                },
            ],
            phases: vec![
                Phase {
                    name: "transpose".into(),
                    per_gpu: vec![
                        vec![
                            access(0, 0, AccessKind::Read, 64),
                            access(1, 64, AccessKind::Write, 64),
                            access(0, 4096, AccessKind::Read, 32),
                        ],
                        vec![access(0, 128, AccessKind::Read, 64)],
                    ],
                    barriers: vec![vec![2], vec![1]],
                },
                Phase {
                    name: "check".into(),
                    per_gpu: vec![vec![access(1, 0, AccessKind::Read, 64)], vec![]],
                    barriers: vec![vec![], vec![]],
                },
            ],
        }
    }

    /// Pins the fingerprint: checkpoints and verify-replay journal tags
    /// embed it, so a change here is a format change. The value was
    /// cross-checked against an independent implementation of the
    /// definition on `trace_fingerprint`.
    #[test]
    fn trace_fingerprint_is_pinned() {
        assert_eq!(trace_fingerprint(&fixed_trace()), 0x1bd3_8740_7435_06ee);
    }

    /// A one-field edit of a trace, named after the field.
    type Mutation = (&'static str, fn(&mut Trace));

    #[test]
    fn every_covered_field_moves_the_fingerprint() {
        use oasis_mem::types::AccessKind;
        let base = fixed_trace();
        let pinned = trace_fingerprint(&base);
        assert_eq!(trace_fingerprint(&base.clone()), pinned);
        let mutations: [Mutation; 12] = [
            ("app", |t| t.app = "MM"),
            ("gpu_count", |t| t.gpu_count = 4),
            ("object name", |t| t.objects[1].name.push('2')),
            ("object size", |t| t.objects[0].bytes += 4096),
            ("phase name", |t| t.phases[1].name = "checK".into()),
            ("stream length", |t| t.phases[0].per_gpu[1].clear()),
            ("access obj", |t| {
                t.phases[0].per_gpu[0][2].obj = ObjectId(1)
            }),
            ("access offset", |t| t.phases[0].per_gpu[0][1].offset = 0),
            ("access kind", |t| {
                t.phases[0].per_gpu[1][0].kind = AccessKind::Write;
            }),
            ("access bytes", |t| t.phases[1].per_gpu[0][0].bytes = 128),
            ("barrier position", |t| t.phases[0].barriers[0][0] = 1),
            ("barrier count", |t| t.phases[1].barriers[1].push(0)),
        ];
        for (field, mutate) in mutations {
            let mut t = base.clone();
            mutate(&mut t);
            assert_ne!(t, base, "{field}: the mutation changed nothing");
            assert_ne!(
                trace_fingerprint(&t),
                pinned,
                "{field} left the fingerprint"
            );
        }
    }

    #[test]
    fn watchdog_aborts_a_spinning_run() {
        // Every access references an object that was never allocated, so
        // under record-and-continue each event fails without touching any
        // page state: the definition of no forward progress.
        let mut trace = small(App::Mt);
        for phase in &mut trace.phases {
            for stream in &mut phase.per_gpu {
                for a in stream.iter_mut() {
                    a.obj = ObjectId(999);
                }
            }
        }
        let cfg = SystemConfig {
            error_policy: ErrorPolicy::RecordAndContinue,
            stall_window: 50,
            ..SystemConfig::default()
        };
        let err = try_simulate(&cfg, Policy::OnTouch, &trace).expect_err("watchdog trips");
        assert!(err.step > 0);
        assert!(
            matches!(err.error, SimError::Stalled { window: 50, .. }),
            "expected a stall, got {err}"
        );

        // A window larger than the whole trace lets the same sick run
        // limp to completion, every failure recorded.
        let lenient = SystemConfig {
            error_policy: ErrorPolicy::RecordAndContinue,
            ..SystemConfig::default()
        };
        let r = try_simulate(&lenient, Policy::OnTouch, &trace).expect("lenient window");
        assert_eq!(r.errors_recorded as usize, trace.total_accesses());
        assert_eq!(r.accesses, 0);
    }

    #[test]
    fn watchdog_is_reset_by_real_progress() {
        // A handful of corrupt accesses interleaved with healthy ones must
        // not trip even a tiny window.
        let mut trace = small(App::Mt);
        trace.phases[0].per_gpu[0][0].obj = ObjectId(999);
        trace.phases[0].per_gpu[2][5].obj = ObjectId(999);
        let cfg = SystemConfig {
            error_policy: ErrorPolicy::RecordAndContinue,
            stall_window: 2,
            ..SystemConfig::default()
        };
        let r = try_simulate(&cfg, Policy::OnTouch, &trace).expect("healthy run");
        assert_eq!(r.errors_recorded, 2);
    }

    #[test]
    fn digest_trail_is_deterministic_and_per_epoch() {
        let trace = small(App::Bfs);
        let a = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
        let b = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
        assert_eq!(a.digest_trail, b.digest_trail);
        assert_eq!(a.digest_trail.len(), trace.phases.len());
        assert!(a.check_digests_against(&b).is_ok());
    }

    #[test]
    fn epoch_hook_runs_once_per_phase() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let trace = small(App::Mt);
        let seen: Rc<RefCell<Vec<u64>>> = Rc::default();
        let seen2 = Rc::clone(&seen);
        let mut sys = System::new(SystemConfig::default(), &Policy::OnTouch);
        sys.set_epoch_hook(move |epoch, _driver| seen2.borrow_mut().push(epoch));
        sys.run(&trace).expect("run completes");
        let epochs = seen.borrow();
        assert_eq!(epochs.len(), trace.phases.len());
        assert_eq!(epochs[0], 0);
    }
}
