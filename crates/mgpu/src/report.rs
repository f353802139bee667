//! Simulation results.

use oasis_engine::error::SimError;
use oasis_engine::{Duration, MetricsRegistry, TimedEvent};
use oasis_interconnect::FaultCounters;
use oasis_mem::page::PolicyBits;
use oasis_uvm::stats::UvmStats;

/// Per-epoch activity delta: what one kernel launch (trace phase) cost and
/// did. Derived from cumulative counters at epoch boundaries, so rollups
/// are observational — they carry no state of their own and are excluded
/// from digests, checkpoints, and [`RunReport::same_simulation`] (a
/// resumed run only has rollups for the epochs it executed itself).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochRollup {
    /// 0-based epoch (kernel launch) index.
    pub epoch: u64,
    /// Simulated time this epoch consumed (launch overhead + segments).
    pub sim_time: Duration,
    /// Memory transactions retired during this epoch.
    pub accesses: u64,
    /// UVM driver activity during this epoch (field-wise delta).
    pub uvm: UvmStats,
}

/// Host-side measurements of one run: wall-clock spent simulating and
/// checkpointing, plus the retired-event count. Everything here except
/// `retired_steps` depends on the machine the simulator ran on, so these
/// fields are excluded from [`RunReport::same_simulation`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunInstrumentation {
    /// Wall-clock microseconds spent inside `System::run` (cumulative
    /// across resume: a resumed run carries the original's time forward).
    pub wall_clock_us: u64,
    /// Simulation-loop events retired (attempted accesses, including ones
    /// that failed and were recorded).
    pub retired_steps: u64,
    /// Wall-clock microseconds spent serializing checkpoints.
    pub checkpoint_write_us: u64,
    /// Wall-clock microseconds spent restoring from a checkpoint.
    pub checkpoint_restore_us: u64,
}

/// Everything a run produces; the raw material of every figure.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Application abbreviation.
    pub app: String,
    /// Policy name.
    pub policy: String,
    /// Simulated end-to-end execution time (the performance metric; all
    /// figures report its inverse normalized to on-touch).
    pub total_time: Duration,
    /// Kernel launches executed.
    pub phases: usize,
    /// Total memory transactions issued.
    pub accesses: u64,
    /// Transactions served from the issuing GPU's local memory/cache.
    pub local_accesses: u64,
    /// Transactions served from a remote device.
    pub remote_accesses: u64,
    /// Aggregated (hits, misses) over all L1 TLBs.
    pub l1_tlb: (u64, u64),
    /// Aggregated (hits, misses) over all L2 TLBs.
    pub l2_tlb: (u64, u64),
    /// Aggregated (hits, misses) over all L2 caches.
    pub l2_cache: (u64, u64),
    /// UVM driver event counters (faults, migrations, ...).
    pub uvm: UvmStats,
    /// Policy bits in force for each L2-TLB-miss request, indexed
    /// `[on-touch, access-counter, duplication]` (Fig. 23).
    pub policy_mix: [u64; 3],
    /// Bytes moved over NVLink ports.
    pub nvlink_bytes: u64,
    /// Bytes moved over PCIe.
    pub pcie_bytes: u64,
    /// Hardware-fault recovery rollup: CRC retransmissions, PCIe-fallback
    /// reroutes (count and payload bytes), and permanent link faults
    /// applied. All zeros under an empty fault plan. Deterministic — part
    /// of [`RunReport::same_simulation`].
    pub faults: FaultCounters,
    /// Typed errors absorbed under
    /// [`ErrorPolicy::RecordAndContinue`](oasis_engine::ErrorPolicy) (0 in
    /// fail-fast runs, which abort instead).
    pub errors_recorded: u64,
    /// The first few recorded errors, verbatim, each prefixed with its
    /// step number for replay.
    pub error_samples: Vec<String>,
    /// [`System::digest`](crate::System::digest) of the full simulation
    /// state at the end of each epoch (kernel launch), in epoch order. Two
    /// runs of the same trace under the same configuration must produce
    /// identical trails; a resumed run keeps the trail of the epochs that
    /// ran before the checkpoint.
    pub digest_trail: Vec<u64>,
    /// Host-side wall-clock and checkpoint-latency measurements (not part
    /// of the deterministic result).
    pub instrumentation: RunInstrumentation,
    /// Per-epoch activity deltas for the epochs *this* system executed
    /// (a resumed run lacks pre-checkpoint rollups). Observational;
    /// excluded from [`RunReport::same_simulation`].
    pub epoch_rollups: Vec<EpochRollup>,
    /// The metrics registry at report time: instrumented-component
    /// counters/histograms plus report-time rollups (fabric link busy
    /// times, TLB shootdowns, policy-internal counters). Empty when
    /// metrics were disabled. Observational; excluded from
    /// [`RunReport::same_simulation`].
    pub metrics: MetricsRegistry,
    /// Events retained by the tracer, in record order. Empty when tracing
    /// was disabled. Observational; excluded from
    /// [`RunReport::same_simulation`].
    pub trace_events: Vec<TimedEvent>,
}

impl RunReport {
    /// Speedup of this run over `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.total_time.as_ps() as f64 / self.total_time.as_ps().max(1) as f64
    }

    /// Fraction of L2-TLB-miss requests governed by `bits`.
    pub fn policy_share(&self, bits: PolicyBits) -> f64 {
        let total: u64 = self.policy_mix.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let idx = match bits {
            PolicyBits::OnTouch => 0,
            PolicyBits::AccessCounter => 1,
            PolicyBits::Duplication => 2,
        };
        self.policy_mix[idx] as f64 / total as f64
    }

    /// Index into [`RunReport::policy_mix`] for `bits`.
    pub fn mix_index(bits: PolicyBits) -> usize {
        match bits {
            PolicyBits::OnTouch => 0,
            PolicyBits::AccessCounter => 1,
            PolicyBits::Duplication => 2,
        }
    }

    /// True when two reports describe the same simulated execution: every
    /// deterministic field (simulated time, counters, digest trail,
    /// retired steps) matches. Wall-clock and checkpoint latencies are
    /// ignored — they vary run to run on the host.
    pub fn same_simulation(&self, other: &RunReport) -> bool {
        self.app == other.app
            && self.policy == other.policy
            && self.total_time == other.total_time
            && self.phases == other.phases
            && self.accesses == other.accesses
            && self.local_accesses == other.local_accesses
            && self.remote_accesses == other.remote_accesses
            && self.l1_tlb == other.l1_tlb
            && self.l2_tlb == other.l2_tlb
            && self.l2_cache == other.l2_cache
            && self.uvm == other.uvm
            && self.policy_mix == other.policy_mix
            && self.nvlink_bytes == other.nvlink_bytes
            && self.pcie_bytes == other.pcie_bytes
            && self.faults == other.faults
            && self.errors_recorded == other.errors_recorded
            && self.error_samples == other.error_samples
            && self.digest_trail == other.digest_trail
            && self.instrumentation.retired_steps == other.instrumentation.retired_steps
    }

    /// Compares this run's per-epoch digest trail against a reference
    /// run's, returning a typed [`SimError::Divergence`] naming the first
    /// epoch whose state digest departed (a missing epoch counts as digest
    /// 0 on the short side).
    pub fn check_digests_against(&self, reference: &RunReport) -> Result<(), SimError> {
        let epochs = self.digest_trail.len().max(reference.digest_trail.len());
        for epoch in 0..epochs {
            let got = self.digest_trail.get(epoch).copied().unwrap_or(0);
            let expected = reference.digest_trail.get(epoch).copied().unwrap_or(0);
            if got != expected {
                return Err(SimError::Divergence {
                    epoch: epoch as u64,
                    expected,
                    got,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(us: u64) -> RunReport {
        RunReport {
            app: "X".into(),
            policy: "p".into(),
            total_time: Duration::from_us(us),
            phases: 1,
            accesses: 0,
            local_accesses: 0,
            remote_accesses: 0,
            l1_tlb: (0, 0),
            l2_tlb: (0, 0),
            l2_cache: (0, 0),
            uvm: UvmStats::default(),
            policy_mix: [0; 3],
            nvlink_bytes: 0,
            pcie_bytes: 0,
            faults: FaultCounters::default(),
            errors_recorded: 0,
            error_samples: Vec::new(),
            digest_trail: Vec::new(),
            instrumentation: RunInstrumentation::default(),
            epoch_rollups: Vec::new(),
            metrics: MetricsRegistry::disabled(),
            trace_events: Vec::new(),
        }
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let base = report(200);
        let fast = report(100);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-9);
        assert!((base.speedup_over(&fast) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn policy_share_sums_to_one() {
        let mut r = report(1);
        r.policy_mix = [1, 2, 7];
        let total: f64 = [
            PolicyBits::OnTouch,
            PolicyBits::AccessCounter,
            PolicyBits::Duplication,
        ]
        .into_iter()
        .map(|b| r.policy_share(b))
        .sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((r.policy_share(PolicyBits::Duplication) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_mix_has_zero_share() {
        assert_eq!(report(1).policy_share(PolicyBits::OnTouch), 0.0);
    }

    #[test]
    fn same_simulation_ignores_wall_clock_but_not_results() {
        let a = report(100);
        let mut b = report(100);
        b.instrumentation.wall_clock_us = 123_456;
        b.instrumentation.checkpoint_write_us = 9;
        b.epoch_rollups.push(EpochRollup::default());
        b.metrics = MetricsRegistry::enabled();
        assert!(
            a.same_simulation(&b),
            "host timings and observability state must not matter"
        );
        b.accesses = 1;
        assert!(!a.same_simulation(&b), "simulated counters must match");
    }

    #[test]
    fn digest_divergence_names_the_first_bad_epoch() {
        let mut reference = report(1);
        reference.digest_trail = vec![10, 20, 30];
        let mut run = reference.clone();
        assert!(run.check_digests_against(&reference).is_ok());
        run.digest_trail[1] = 99;
        match run.check_digests_against(&reference) {
            Err(SimError::Divergence {
                epoch,
                expected,
                got,
            }) => {
                assert_eq!(epoch, 1);
                assert_eq!(expected, 20);
                assert_eq!(got, 99);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // A truncated trail diverges at the first missing epoch.
        run.digest_trail = vec![10, 20];
        let err = run.check_digests_against(&reference).unwrap_err();
        assert!(matches!(err, SimError::Divergence { epoch: 2, .. }));
    }
}
