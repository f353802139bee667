//! Interconnect model: NVLink fabric between GPUs, PCIe to the host.
//!
//! Matches the baseline platform of Table I: every GPU has a 300 GB/s
//! NVLink-v2 port into an all-to-all fabric, and a 32 GB/s PCIe-v4 link to
//! the host CPU. A transfer occupies both endpoints' ports for its
//! serialization time, so migration storms toward one GPU congest its
//! ingress and heavy fault traffic congests PCIe — the effects that make
//! page ping-ponging and fault-heavy policies expensive in the paper.
//!
//! The fabric can also degrade: a [`FaultPlan`] schedules permanent
//! link-down events (transfers between the pair fall back to the
//! staged-through-host PCIe path, with its real bandwidth penalty) and
//! transient CRC-glitch windows (bounded retransmissions that re-occupy
//! both ports). With an empty plan the data path is byte-for-byte the
//! pre-fault model.

pub mod fault;

use oasis_engine::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use oasis_engine::{Channel, Duration, Time, Transfer};
use oasis_mem::types::DeviceId;

pub use fault::{
    EccEvent, FaultCounters, FaultPlan, FaultSpecError, FaultState, FlakyWindow, LinkDown,
    MAX_CRC_RETRIES,
};

/// Interconnect configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Per-GPU NVLink port bandwidth in bytes/second (paper: 300 GB/s).
    pub nvlink_bytes_per_sec: u64,
    /// NVLink one-way latency.
    pub nvlink_latency: Duration,
    /// Per-GPU PCIe link bandwidth in bytes/second (paper: 32 GB/s).
    pub pcie_bytes_per_sec: u64,
    /// PCIe one-way latency.
    pub pcie_latency: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nvlink_bytes_per_sec: 300_000_000_000,
            nvlink_latency: Duration::from_ns(500),
            pcie_bytes_per_sec: 32_000_000_000,
            pcie_latency: Duration::from_us(1),
        }
    }
}

/// The system interconnect: per-GPU NVLink ports (all-to-all) plus per-GPU
/// PCIe links to the host.
#[derive(Debug, Clone)]
pub struct Fabric {
    nvlink: Vec<Channel>,
    pcie: Vec<Channel>,
    config: FabricConfig,
    plan: FaultPlan,
    fault: FaultState,
}

impl Fabric {
    /// Builds the fabric for `gpu_count` GPUs with no scheduled faults.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero.
    pub fn new(gpu_count: usize, config: FabricConfig) -> Self {
        Self::with_plan(gpu_count, config, FaultPlan::default())
    }

    /// Builds the fabric with a hardware-fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero or the plan names a GPU outside the
    /// system (validate plans against the GPU count before construction).
    pub fn with_plan(gpu_count: usize, config: FabricConfig, plan: FaultPlan) -> Self {
        assert!(gpu_count > 0, "need at least one GPU");
        if let Some(g) = plan.max_gpu() {
            assert!(
                usize::from(g) < gpu_count,
                "fault plan names GPU {g} but only {gpu_count} exist"
            );
        }
        let fault = FaultState::new(&plan);
        Fabric {
            nvlink: (0..gpu_count)
                .map(|_| Channel::new(config.nvlink_bytes_per_sec, config.nvlink_latency))
                .collect(),
            pcie: (0..gpu_count)
                .map(|_| Channel::new(config.pcie_bytes_per_sec, config.pcie_latency))
                .collect(),
            config,
            plan,
            fault,
        }
    }

    /// Number of GPUs attached.
    pub fn gpu_count(&self) -> usize {
        self.nvlink.len()
    }

    /// The configuration the fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Reserves a bulk transfer of `bytes` from `from` to `to` at `now`,
    /// occupying both endpoints' ports.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (no self-transfers) or a GPU index is out of
    /// range.
    pub fn transfer(&mut self, now: Time, from: DeviceId, to: DeviceId, bytes: u64) -> Transfer {
        assert_ne!(from, to, "self-transfer on the fabric");
        match (from, to) {
            (DeviceId::Gpu(a), DeviceId::Gpu(b)) => {
                let (i, j) = (a.index(), b.index());
                if self.fault.is_down(i as u8, j as u8) {
                    return self.reroute_via_host(now, i, j, bytes);
                }
                // Joint reservation: the transfer starts when both ports are
                // free, then occupies both for its serialization time.
                let hint = now
                    .max(self.nvlink[i].next_free())
                    .max(self.nvlink[j].next_free());
                let mut t = self.nvlink[i].reserve(hint, bytes);
                let t2 = self.nvlink[j].reserve(hint, bytes);
                debug_assert_eq!(t.start, t2.start);
                if !self.plan.flaky.is_empty() {
                    t = self.apply_crc_glitches(t, i, j, bytes);
                }
                t
            }
            (DeviceId::Host, DeviceId::Gpu(g)) | (DeviceId::Gpu(g), DeviceId::Host) => {
                self.pcie[g.index()].reserve(now, bytes)
            }
            (DeviceId::Host, DeviceId::Host) => unreachable!("guarded by assert_ne"),
        }
    }

    /// The PCIe fallback path for a dead NVLink pair: the payload is staged
    /// through host memory, serializing on both endpoints' PCIe links in
    /// sequence — the full bandwidth penalty of losing the direct link.
    fn reroute_via_host(&mut self, now: Time, i: usize, j: usize, bytes: u64) -> Transfer {
        let leg1 = self.pcie[i].reserve(now, bytes);
        let leg2 = self.pcie[j].reserve(leg1.arrive, bytes);
        self.fault.note_reroute(bytes);
        Transfer {
            start: leg1.start,
            depart: leg2.depart,
            arrive: leg2.arrive,
        }
    }

    /// CRC-style link glitches: while a flaky window covers the pair, each
    /// transfer retransmits with the window's probability, re-occupying
    /// both ports per retry (bounded by [`MAX_CRC_RETRIES`]).
    fn apply_crc_glitches(&mut self, first: Transfer, i: usize, j: usize, bytes: u64) -> Transfer {
        let epoch = self.fault.epoch();
        let window = self.plan.flaky.iter().find(|w| {
            let (a, b) = (usize::from(w.a), usize::from(w.b));
            ((a, b) == (i, j) || (a, b) == (j, i)) && epoch >= w.from_epoch && epoch < w.to_epoch
        });
        let Some(&fault::FlakyWindow { num, den, .. }) = window else {
            return first;
        };
        let mut t = first;
        for _ in 0..MAX_CRC_RETRIES {
            if !self.fault.rng().gen_bool_ratio(num, den) {
                break;
            }
            let hint = t.depart;
            let retry = self.nvlink[i].reserve(hint, bytes);
            self.nvlink[j].reserve(hint, bytes);
            t = Transfer {
                start: t.start,
                depart: retry.depart,
                arrive: retry.arrive,
            };
            self.fault.note_crc_retry();
        }
        t
    }

    /// Announces the start of `epoch`: applies scheduled permanent
    /// link-down events and arms the flaky windows. Returns the pairs
    /// newly taken down, in plan order, for event tracing.
    pub fn begin_epoch(&mut self, epoch: u64) -> Vec<(u8, u8)> {
        self.fault.set_epoch(epoch);
        let mut downed = Vec::new();
        for l in &self.plan.link_down {
            if l.epoch == epoch && self.fault.mark_down(l.a, l.b) {
                downed.push((l.a, l.b));
            }
        }
        downed
    }

    /// Whether the NVLink pair between GPUs `a` and `b` is permanently
    /// down (transfers fall back to the PCIe path).
    pub fn link_is_down(&self, a: u8, b: u8) -> bool {
        self.fault.is_down(a, b)
    }

    /// The fault schedule this fabric was built with.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// ECC events the plan schedules for `epoch`, in plan order.
    pub fn ecc_events_for(&self, epoch: u64) -> Vec<EccEvent> {
        self.plan
            .ecc
            .iter()
            .copied()
            .filter(|e| e.epoch == epoch)
            .collect()
    }

    /// One deterministic draw from the fault RNG in `[0, bound)`; used for
    /// ECC victim selection so the whole fault stream replays from one
    /// seed.
    pub fn fault_draw(&mut self, bound: usize) -> usize {
        self.fault.rng().gen_below(bound)
    }

    /// Read access to the mutable fault state (health, counters).
    pub fn fault_state(&self) -> &FaultState {
        &self.fault
    }

    /// Mutable access to the fault state, for checkpoint restore.
    pub fn fault_state_mut(&mut self) -> &mut FaultState {
        &mut self.fault
    }

    /// One-way latency for a small control message (fault packet,
    /// invalidation request/ack) between two devices. Control messages are
    /// assumed not to consume meaningful bandwidth.
    pub fn control_latency(&self, from: DeviceId, to: DeviceId) -> Duration {
        match (from, to) {
            (DeviceId::Gpu(_), DeviceId::Gpu(_)) => self.config.nvlink_latency,
            (DeviceId::Host, DeviceId::Gpu(_)) | (DeviceId::Gpu(_), DeviceId::Host) => {
                self.config.pcie_latency
            }
            (DeviceId::Host, DeviceId::Host) => Duration::ZERO,
        }
    }

    /// Total bytes moved over NVLink ports (each inter-GPU byte counts once
    /// per endpoint port).
    pub fn nvlink_bytes(&self) -> u64 {
        self.nvlink.iter().map(Channel::bytes_moved).sum()
    }

    /// Total bytes moved over PCIe links.
    pub fn pcie_bytes(&self) -> u64 {
        self.pcie.iter().map(Channel::bytes_moved).sum()
    }

    /// Resets occupancy and statistics on all links, and rewinds the
    /// hardware-fault state (link health, fault RNG, retry/reroute
    /// rollups) to the start of the plan — so `link_stats()` and the
    /// fault counters report zeros after a reset, matching the byte
    /// counters that were always cleared here.
    pub fn reset(&mut self) {
        for c in self.nvlink.iter_mut().chain(self.pcie.iter_mut()) {
            c.reset();
        }
        self.fault = FaultState::new(&self.plan);
    }

    /// Per-link utilization rollup, in deterministic order (all NVLink
    /// ports by GPU index, then all PCIe links). Feeds the metrics
    /// registry at report time.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        let mut out = Vec::with_capacity(self.nvlink.len() + self.pcie.len());
        for (kind, links) in [("nvlink", &self.nvlink), ("pcie", &self.pcie)] {
            for (gpu, c) in links.iter().enumerate() {
                out.push(LinkStats {
                    kind,
                    gpu,
                    busy: c.busy_time(),
                    bytes: c.bytes_moved(),
                    transfers: c.transfers(),
                });
            }
        }
        out
    }
}

/// Utilization summary for one fabric link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Link kind: `"nvlink"` or `"pcie"`.
    pub kind: &'static str,
    /// GPU index the port/link belongs to.
    pub gpu: usize,
    /// Cumulative serialization (busy) time.
    pub busy: Duration,
    /// Total bytes moved.
    pub bytes: u64,
    /// Number of transfers reserved.
    pub transfers: u64,
}

impl Snapshot for Fabric {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.nvlink.len() as u64);
        for c in self.nvlink.iter().chain(self.pcie.iter()) {
            c.snapshot(w);
        }
    }
}

impl Restore for Fabric {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let n = r.usize()?;
        if n != self.nvlink.len() {
            return Err(r.malformed(format!(
                "snapshot has {n} GPU ports, this fabric has {}",
                self.nvlink.len()
            )));
        }
        for c in self.nvlink.iter_mut().chain(self.pcie.iter_mut()) {
            c.restore(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::codec::ByteWriter;
    use oasis_mem::types::GpuId;

    fn gpu(i: u8) -> DeviceId {
        DeviceId::Gpu(GpuId(i))
    }

    #[test]
    fn gpu_to_gpu_uses_nvlink_latency() {
        let mut f = Fabric::new(4, FabricConfig::default());
        let t = f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        let expected = Duration::for_transfer(4096, 300_000_000_000) + Duration::from_ns(500);
        assert_eq!(t.latency_from(Time::ZERO), expected);
    }

    #[test]
    fn host_transfers_use_pcie() {
        let mut f = Fabric::new(2, FabricConfig::default());
        let t = f.transfer(Time::ZERO, DeviceId::Host, gpu(1), 4096);
        let expected = Duration::for_transfer(4096, 32_000_000_000) + Duration::from_us(1);
        assert_eq!(t.latency_from(Time::ZERO), expected);
        assert_eq!(f.pcie_bytes(), 4096);
        assert_eq!(f.nvlink_bytes(), 0);
    }

    #[test]
    fn transfers_to_same_gpu_serialize_on_its_port() {
        let mut f = Fabric::new(4, FabricConfig::default());
        let a = f.transfer(Time::ZERO, gpu(0), gpu(3), 1 << 20);
        let b = f.transfer(Time::ZERO, gpu(1), gpu(3), 1 << 20);
        assert!(b.start >= a.depart, "ingress port must serialize");
    }

    #[test]
    fn transfers_between_disjoint_pairs_proceed_in_parallel() {
        let mut f = Fabric::new(4, FabricConfig::default());
        let a = f.transfer(Time::ZERO, gpu(0), gpu(1), 1 << 20);
        let b = f.transfer(Time::ZERO, gpu(2), gpu(3), 1 << 20);
        assert_eq!(a.start, b.start);
    }

    #[test]
    fn pcie_links_are_per_gpu() {
        let mut f = Fabric::new(2, FabricConfig::default());
        let a = f.transfer(Time::ZERO, DeviceId::Host, gpu(0), 1 << 20);
        let b = f.transfer(Time::ZERO, DeviceId::Host, gpu(1), 1 << 20);
        assert_eq!(a.start, b.start);
    }

    #[test]
    fn control_latencies() {
        let f = Fabric::new(2, FabricConfig::default());
        assert_eq!(f.control_latency(gpu(0), gpu(1)), Duration::from_ns(500));
        assert_eq!(
            f.control_latency(gpu(0), DeviceId::Host),
            Duration::from_us(1)
        );
        assert_eq!(
            f.control_latency(DeviceId::Host, DeviceId::Host),
            Duration::ZERO
        );
    }

    #[test]
    fn reset_clears_stats() {
        let mut f = Fabric::new(2, FabricConfig::default());
        f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        f.reset();
        assert_eq!(f.nvlink_bytes(), 0);
        assert!(f.link_stats().iter().all(|l| l.busy == Duration::ZERO));
    }

    #[test]
    #[should_panic(expected = "self-transfer")]
    fn self_transfer_panics() {
        let mut f = Fabric::new(2, FabricConfig::default());
        f.transfer(Time::ZERO, gpu(0), gpu(0), 1);
    }

    #[test]
    fn gpu_count_reported() {
        assert_eq!(Fabric::new(8, FabricConfig::default()).gpu_count(), 8);
    }

    #[test]
    fn snapshot_round_trips_port_occupancy() {
        let mut f = Fabric::new(4, FabricConfig::default());
        f.transfer(Time::ZERO, gpu(0), gpu(1), 1 << 20);
        f.transfer(Time::ZERO, DeviceId::Host, gpu(2), 4096);
        let mut w = ByteWriter::new();
        f.snapshot(&mut w);

        let mut g = Fabric::new(4, FabricConfig::default());
        let buf = w.into_vec();
        let mut r = ByteReader::new("fabric", &buf);
        g.restore(&mut r).expect("valid fabric state");
        assert_eq!(g.nvlink_bytes(), f.nvlink_bytes());
        assert_eq!(g.pcie_bytes(), f.pcie_bytes());
        // Subsequent transfers queue identically.
        let a = f.transfer(Time::ZERO, gpu(1), gpu(0), 4096);
        let b = g.transfer(Time::ZERO, gpu(1), gpu(0), 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_gpu_count_mismatch_is_rejected() {
        let f = Fabric::new(4, FabricConfig::default());
        let mut w = ByteWriter::new();
        f.snapshot(&mut w);
        let buf = w.into_vec();
        let mut g = Fabric::new(2, FabricConfig::default());
        let mut r = ByteReader::new("fabric", &buf);
        assert!(g.restore(&mut r).is_err());
    }

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("valid plan")
    }

    #[test]
    fn empty_plan_leaves_the_data_path_identical() {
        let mut a = Fabric::new(4, FabricConfig::default());
        let mut b = Fabric::with_plan(4, FabricConfig::default(), FaultPlan::default());
        b.begin_epoch(0);
        for (from, to) in [(gpu(0), gpu(1)), (DeviceId::Host, gpu(2)), (gpu(3), gpu(0))] {
            assert_eq!(
                a.transfer(Time::ZERO, from, to, 1 << 16),
                b.transfer(Time::ZERO, from, to, 1 << 16)
            );
        }
        assert_eq!(b.fault_state().counters(), FaultCounters::default());
    }

    #[test]
    fn dead_link_reroutes_over_both_pcie_links() {
        let mut f = Fabric::with_plan(4, FabricConfig::default(), plan("down:0-1@2"));
        assert!(f.begin_epoch(1).is_empty());
        assert!(!f.link_is_down(0, 1));
        let direct = f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        assert_eq!(f.pcie_bytes(), 0, "healthy link uses NVLink");

        assert_eq!(f.begin_epoch(2), vec![(0, 1)]);
        assert!(f.link_is_down(0, 1) && f.link_is_down(1, 0));
        let rerouted = f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        // Two staged PCIe legs are strictly slower than the direct path.
        assert!(rerouted.arrive > direct.arrive);
        let one_leg = Duration::for_transfer(4096, 32_000_000_000) + Duration::from_us(1);
        assert_eq!(rerouted.latency_from(Time::ZERO), one_leg + one_leg);
        assert_eq!(
            f.pcie_bytes(),
            2 * 4096,
            "both endpoints' PCIe links move the payload"
        );
        let c = f.fault_state().counters();
        assert_eq!((c.reroutes, c.rerouted_bytes, c.link_faults), (1, 4096, 1));
        // The unaffected pair still takes NVLink.
        f.transfer(Time::ZERO, gpu(2), gpu(3), 4096);
        assert_eq!(f.nvlink_bytes(), 2 * 4096 * 2);
    }

    #[test]
    fn flaky_window_adds_bounded_retransmissions_deterministically() {
        let spec = "flaky:0-1@0-4:1/2,seed:11";
        let run = || {
            let mut f = Fabric::with_plan(2, FabricConfig::default(), plan(spec));
            f.begin_epoch(0);
            let mut arrivals = Vec::new();
            for _ in 0..64 {
                arrivals.push(f.transfer(Time::ZERO, gpu(0), gpu(1), 4096).arrive);
            }
            (arrivals, f.fault_state().counters().crc_retries)
        };
        let (a, retries_a) = run();
        let (b, retries_b) = run();
        assert_eq!(a, b, "same seed, same glitch stream");
        assert_eq!(retries_a, retries_b);
        assert!(retries_a > 0, "1/2 glitch rate over 64 transfers must hit");
        assert!(
            retries_a <= 64 * u64::from(MAX_CRC_RETRIES),
            "retries are bounded"
        );

        // Outside the window the same fabric is glitch-free.
        let mut f = Fabric::with_plan(2, FabricConfig::default(), plan(spec));
        f.begin_epoch(4);
        let t = f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        let expected = Duration::for_transfer(4096, 300_000_000_000) + Duration::from_ns(500);
        assert_eq!(t.latency_from(Time::ZERO), expected);
        assert_eq!(f.fault_state().counters().crc_retries, 0);
    }

    #[test]
    fn reset_clears_fault_state_and_link_stats() {
        let mut f = Fabric::with_plan(4, FabricConfig::default(), plan("down:0-1@0,seed:5"));
        f.begin_epoch(0);
        f.transfer(Time::ZERO, gpu(0), gpu(1), 4096); // rerouted
        f.transfer(Time::ZERO, gpu(2), gpu(3), 4096);
        assert_ne!(f.fault_state().counters(), FaultCounters::default());
        f.reset();
        assert_eq!(f.fault_state().counters(), FaultCounters::default());
        assert_eq!(f.fault_state().links_down(), 0);
        assert!(!f.link_is_down(0, 1), "health is restored on reset");
        for ls in f.link_stats() {
            assert_eq!(ls.busy, Duration::ZERO, "{}{} busy", ls.kind, ls.gpu);
            assert_eq!(ls.bytes, 0, "{}{} bytes", ls.kind, ls.gpu);
            assert_eq!(ls.transfers, 0, "{}{} transfers", ls.kind, ls.gpu);
        }
    }

    #[test]
    fn fault_state_snapshot_rides_alongside_the_port_snapshot() {
        let mut f = Fabric::with_plan(4, FabricConfig::default(), plan("down:0-1@1,seed:3"));
        f.begin_epoch(1);
        f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        let mut w = ByteWriter::new();
        f.snapshot(&mut w);
        f.fault_state().snapshot(&mut w);
        let buf = w.into_vec();

        let mut g = Fabric::with_plan(4, FabricConfig::default(), plan("down:0-1@1,seed:3"));
        let mut r = ByteReader::new("fabric", &buf);
        g.restore(&mut r).expect("ports");
        g.fault_state_mut().restore(&mut r).expect("fault state");
        assert!(r.is_empty());
        assert!(g.link_is_down(0, 1));
        assert_eq!(g.fault_state().counters(), f.fault_state().counters());
        let a = f.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        let b = g.transfer(Time::ZERO, gpu(0), gpu(1), 4096);
        assert_eq!(a, b, "restored fabric schedules identically");
    }

    #[test]
    #[should_panic(expected = "fault plan names GPU 7")]
    fn plan_naming_a_missing_gpu_panics_at_construction() {
        Fabric::with_plan(4, FabricConfig::default(), plan("down:0-7@1"));
    }
}
