//! Deterministic scenario generation.
//!
//! A [`Scenario`] is the fuzzer's unit of work: a compact, shrinkable
//! description of one simulation setup — application, platform shape,
//! capacity pressure, and hardware-fault schedule — from which the concrete
//! [`SystemConfig`] and [`Trace`](oasis_workloads::Trace) are rebuilt on
//! demand. Every field is derived from a single seed through the in-tree
//! [`SimRng`], so `generate(seed)` is a pure function: the same seed always
//! yields the same scenario, on any host.

use oasis_engine::{ErrorPolicy, SimRng};
use oasis_interconnect::FaultPlan;
use oasis_mem::types::PageSize;
use oasis_mgpu::{GuardMode, Placement, SystemConfig};
use oasis_workloads::{generate as generate_trace, App, Trace, WorkloadParams};

/// Applications the generator draws from: the cheap, structurally diverse
/// subset (random, adjacent, and scatter-gather patterns; single- and
/// multi-phase traces). The DNN training apps are excluded — they allocate
/// hundreds of objects and would blow the CI time budget without adding
/// new mechanics.
pub const FUZZ_APPS: [App; 6] = [App::Bfs, App::C2d, App::Fft, App::Mm, App::Mt, App::St];

/// One generated simulation setup. Small on purpose: each field is an
/// independently shrinkable knob, and the whole struct round-trips through
/// the JSON corpus format (see [`crate::corpus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The seed this scenario was generated from. Also drives every
    /// oracle-internal choice (replay policy, kill epoch), so a scenario
    /// re-checked from its corpus file behaves identically.
    pub seed: u64,
    /// Application whose trace generator is used.
    pub app: App,
    /// GPUs in the simulated system.
    pub gpu_count: usize,
    /// Managed footprint in MB.
    pub footprint_mb: u64,
    /// Seed for the trace generator's own RNG.
    pub workload_seed: u64,
    /// Kernel count: the trace is truncated to its first `max_phases`
    /// phases (at least one survives).
    pub max_phases: usize,
    /// Use 2 MiB pages instead of 4 KiB.
    pub large_pages: bool,
    /// Stripe initial placement across GPUs instead of starting on host.
    pub striped: bool,
    /// Concurrent outstanding accesses per GPU.
    pub lanes_per_gpu: usize,
    /// Access-counter migration threshold.
    pub counter_threshold: u32,
    /// Per-GPU frame capacity (`None` = enough for the workload). `Some`
    /// creates eviction pressure, the oversubscription code path.
    pub capacity_pages: Option<u64>,
    /// Scheduled hardware faults (always valid for `gpu_count`).
    pub fault_plan: FaultPlan,
}

impl Scenario {
    /// Generates the scenario for `seed`. Pure: no global state, no clock.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5CEA_A710_F077_A5ED_u64);
        Self::from_rng(seed, &mut rng)
    }

    fn from_rng(seed: u64, rng: &mut SimRng) -> Scenario {
        let app = *rng.choose(&FUZZ_APPS).expect("non-empty app set");
        let gpu_count = rng.gen_range(1..5) as usize;
        let footprint_mb = rng.gen_range(2..5);
        let workload_seed = rng.next_u64();
        let max_phases = rng.gen_range(1..4) as usize;
        let large_pages = rng.gen_bool_ratio(1, 4);
        let striped = rng.gen_bool_ratio(1, 3);
        let lanes_per_gpu = *rng.choose(&[1usize, 4, 16]).expect("non-empty");
        let counter_threshold = *rng.choose(&[8u32, 64, 256]).expect("non-empty");
        // Capacity pressure in half the 4 KiB-page scenarios. A 2 MB
        // footprint is ~512 small pages; capping a GPU at 48..=256 frames
        // forces the eviction path without starving the fault handler.
        // 2 MiB-page runs are 1-2 pages total, so a cap is meaningless.
        let capacity_pages =
            (!large_pages && rng.gen_bool_ratio(1, 2)).then(|| rng.gen_range(48..257));
        let fault_plan = random_fault_plan(rng, gpu_count, max_phases);
        Scenario {
            seed,
            app,
            gpu_count,
            footprint_mb,
            workload_seed,
            max_phases,
            large_pages,
            striped,
            lanes_per_gpu,
            counter_threshold,
            capacity_pages,
            fault_plan,
        }
    }

    /// Builds the concrete trace: the app's generator at this scenario's
    /// footprint and seed, truncated to `max_phases` kernels.
    pub fn trace(&self) -> Trace {
        let params = WorkloadParams {
            gpu_count: self.gpu_count,
            footprint_mb: self.footprint_mb,
            seed: self.workload_seed,
        };
        let mut trace = generate_trace(self.app, &params);
        trace.retain_phases(self.max_phases);
        trace
    }

    /// Builds the concrete platform configuration for `policy` runs. The
    /// oracle's standing choices — `RecordAndContinue` (panics and aborts
    /// are findings, recorded errors are data) and the epoch guard (the
    /// invariant checker IS one of the oracles) — live here so every
    /// checker sees the same platform.
    pub fn config(&self) -> SystemConfig {
        SystemConfig {
            gpu_count: self.gpu_count,
            page_size: if self.large_pages {
                PageSize::Large2M
            } else {
                PageSize::Small4K
            },
            lanes_per_gpu: self.lanes_per_gpu,
            counter_threshold: self.counter_threshold,
            gpu_capacity_pages: self.capacity_pages,
            placement: if self.striped {
                Placement::Striped
            } else {
                Placement::Host
            },
            error_policy: ErrorPolicy::RecordAndContinue,
            guard: GuardMode::Epoch,
            fault_plan: self.fault_plan.clone(),
            ..SystemConfig::default()
        }
    }

    /// A compact one-line rendering for logs and failure messages.
    pub fn summary(&self) -> String {
        format!(
            "seed={:#018x} app={} gpus={} footprint={}MB phases={} pages={} \
             placement={} lanes={} threshold={} capacity={} faults='{}'",
            self.seed,
            self.app.abbr(),
            self.gpu_count,
            self.footprint_mb,
            self.max_phases,
            if self.large_pages { "2M" } else { "4K" },
            if self.striped { "striped" } else { "host" },
            self.lanes_per_gpu,
            self.counter_threshold,
            self.capacity_pages
                .map_or_else(|| "none".to_string(), |c| c.to_string()),
            self.fault_plan.to_spec(),
        )
    }
}

/// Draws a small fault plan valid for a `gpu_count`-GPU run of
/// `max_phases` epochs: 0-2 events, link events only when two endpoints
/// exist, flaky windows kept disjoint by construction (one per plan).
fn random_fault_plan(rng: &mut SimRng, gpu_count: usize, max_phases: usize) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: rng.next_u64(),
        ..FaultPlan::default()
    };
    let events = rng.gen_range(0..3);
    let epochs = max_phases as u64;
    for _ in 0..events {
        match rng.gen_range(0..3) {
            0 if gpu_count >= 2 => {
                let (a, b) = random_pair(rng, gpu_count);
                plan.link_down.push(oasis_interconnect::LinkDown {
                    a,
                    b,
                    epoch: rng.gen_range(0..epochs.max(1)),
                });
            }
            1 if gpu_count >= 2 && plan.flaky.is_empty() => {
                let (a, b) = random_pair(rng, gpu_count);
                let from = rng.gen_range(0..epochs.max(1));
                plan.flaky.push(oasis_interconnect::FlakyWindow {
                    a,
                    b,
                    from_epoch: from,
                    to_epoch: from + rng.gen_range(1..4),
                    num: 1,
                    den: rng.gen_range(2..9),
                });
            }
            2 => {
                plan.ecc.push(oasis_interconnect::EccEvent {
                    gpu: rng.gen_below(gpu_count) as u8,
                    epoch: rng.gen_range(0..epochs.max(1)),
                    frames: rng.gen_range(1..3) as u32,
                });
            }
            _ => {} // link event drawn for a 1-GPU system: skip.
        }
    }
    debug_assert!(plan.validate_for(gpu_count).is_ok());
    plan
}

fn random_pair(rng: &mut SimRng, gpu_count: usize) -> (u8, u8) {
    let a = rng.gen_below(gpu_count) as u8;
    let mut b = rng.gen_below(gpu_count) as u8;
    while b == a {
        b = rng.gen_below(gpu_count) as u8;
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn generated_scenarios_are_always_valid() {
        for seed in 0..200u64 {
            let s = Scenario::generate(seed);
            assert!((1..=4).contains(&s.gpu_count), "{}", s.summary());
            assert!((2..=4).contains(&s.footprint_mb), "{}", s.summary());
            assert!(s.max_phases >= 1, "{}", s.summary());
            assert!(
                s.fault_plan.validate_for(s.gpu_count).is_ok(),
                "{}",
                s.summary()
            );
            // The rendered plan re-parses: corpus files will round-trip.
            let respec = FaultPlan::parse(&s.fault_plan.to_spec()).expect("round-trip");
            assert_eq!(respec, s.fault_plan, "{}", s.summary());
            // Trace and config build without panicking and agree on shape.
            let trace = s.trace();
            assert!(!trace.phases.is_empty());
            assert!(trace.phases.len() <= s.max_phases);
            assert_eq!(s.config().gpu_count, s.gpu_count);
        }
    }

    #[test]
    fn seeds_explore_the_space() {
        let mut gpu_counts = std::collections::BTreeSet::new();
        let mut apps = std::collections::BTreeSet::new();
        let mut any_capacity = false;
        let mut any_fault = false;
        for seed in 0..100u64 {
            let s = Scenario::generate(seed);
            gpu_counts.insert(s.gpu_count);
            apps.insert(s.app);
            any_capacity |= s.capacity_pages.is_some();
            any_fault |= !s.fault_plan.is_empty();
        }
        assert!(gpu_counts.len() >= 3, "gpu counts stuck: {gpu_counts:?}");
        assert!(apps.len() >= 4, "apps stuck: {apps:?}");
        assert!(any_capacity, "capacity pressure never generated");
        assert!(any_fault, "fault plans never generated");
    }
}
