//! Deterministic fault-injection harness: sim-guard's adversary.
//!
//! Each campaign perturbs small but complete simulations in ways the
//! robust core must survive — malformed traces, out-of-range accesses,
//! forced oversubscription, corrupted access counters, mid-run policy
//! flips — and records, per scenario, either a clean completion (with the
//! invariant checker enabled throughout) or the typed error and the step
//! at which it struck. Every random choice derives from a caller-supplied
//! master seed through the in-tree [`SimRng`], so a campaign's full output
//! is a pure function of that seed: any failure replays exactly.

use oasis_engine::pool::Job;
use oasis_engine::sweep::{Sweep, SweepCodec, SweepError, SweepOptions, SweepStats};
use oasis_engine::{ByteReader, ByteWriter, CodecError, SimRng};
use oasis_interconnect::FaultPlan;
use oasis_mem::layout::AddressSpace;
use oasis_mem::page::PolicyBits;
use oasis_mem::types::{GpuId, PageSize, Vpn};
use oasis_workloads::trace::Trace;
use oasis_workloads::{generate, App, WorkloadParams};

use crate::config::{GuardMode, Policy, SystemConfig};
use crate::replay::audit;
use crate::system::System;

/// The perturbation kinds a campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Perturbation {
    /// Cut every GPU's stream short mid-phase (a truncated trace file).
    TruncateTrace,
    /// Point one access beyond its object's extent (a malformed trace).
    OutOfRangeAccess,
    /// Shrink GPU memory far below the footprint (forced eviction storm).
    CapacityCrunch,
    /// Overwrite hardware access counters with junk at every epoch.
    CorruptCounters,
    /// Rewrite per-page policy bits mid-run at every epoch.
    PolicyFlip,
    /// Kill the simulation at a random epoch boundary, then resume it from
    /// its own checkpoint bytes and require the finished run to be
    /// bit-identical (digest trail and counters) to an uninterrupted one.
    KillAndResume,
    /// Permanently fail one NVLink pair at a seed-chosen epoch: shared
    /// traffic must complete over the staged PCIe fallback.
    LinkDown,
    /// Subject one NVLink pair to a CRC-glitch window covering the whole
    /// run: transfers pay bounded retransmission latency but succeed.
    LinkFlaky,
    /// Poison resident frames with ECC events mid-run: the driver must
    /// quarantine the frames and re-service the victim pages.
    EccPoison,
}

impl Perturbation {
    /// Every kind, in campaign order.
    pub const ALL: [Perturbation; 9] = [
        Perturbation::TruncateTrace,
        Perturbation::OutOfRangeAccess,
        Perturbation::CapacityCrunch,
        Perturbation::CorruptCounters,
        Perturbation::PolicyFlip,
        Perturbation::KillAndResume,
        Perturbation::LinkDown,
        Perturbation::LinkFlaky,
        Perturbation::EccPoison,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Perturbation::TruncateTrace => "truncate-trace",
            Perturbation::OutOfRangeAccess => "out-of-range-access",
            Perturbation::CapacityCrunch => "capacity-crunch",
            Perturbation::CorruptCounters => "corrupt-counters",
            Perturbation::PolicyFlip => "policy-flip",
            Perturbation::KillAndResume => "kill-and-resume",
            Perturbation::LinkDown => "link-down",
            Perturbation::LinkFlaky => "link-flaky",
            Perturbation::EccPoison => "ecc-poison",
        }
    }

    /// Whether the healthy simulator is *expected* to abort this scenario
    /// with a typed error. An out-of-range access must stop the run and
    /// name the step — completing it would be the bug — so `ok == false`
    /// is the passing result for that kind.
    pub fn expects_abort(self) -> bool {
        matches!(self, Perturbation::OutOfRangeAccess)
    }
}

/// What one injected scenario did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// The perturbation injected.
    pub kind: Perturbation,
    /// The scenario's derived seed (replay coordinate).
    pub seed: u64,
    /// Whether the run completed (with the invariant checker passing).
    pub ok: bool,
    /// One deterministic, human-readable result line.
    pub line: String,
}

impl InjectionOutcome {
    /// Whether the outcome matches what a healthy simulator should do for
    /// this kind: survive with invariants intact, except for kinds that
    /// [`Perturbation::expects_abort`] — there a typed abort is the pass.
    pub fn passed(&self) -> bool {
        self.ok != self.kind.expects_abort()
    }
}

/// The pages the driver will register for `trace`, reconstructed from the
/// deterministic allocator layout (used to aim counter/policy
/// perturbations without iterating hash maps, whose order is not stable).
fn page_candidates(trace: &Trace, page: PageSize) -> Vec<Vpn> {
    let mut space = AddressSpace::new();
    let mut vpns = Vec::new();
    for obj in &trace.objects {
        let id = space.alloc(obj.name.clone(), obj.bytes);
        let o = space.object(id);
        let first = o.base.vpn(page).0;
        let pages = page.pages_for(o.size);
        // A handful per object is plenty of attack surface.
        for i in 0..pages.min(8) {
            vpns.push(Vpn(first + i));
        }
    }
    vpns
}

fn base_config() -> SystemConfig {
    SystemConfig {
        guard: GuardMode::Epoch,
        ..SystemConfig::default()
    }
}

fn small_trace(seed_app: App) -> Trace {
    let mut params = WorkloadParams::small(seed_app, 4);
    params.footprint_mb = 2; // hundreds of pages: fast yet evictable
    generate(seed_app, &params)
}

/// The kill-and-resume scenario: the shared kill/resume audit (see
/// [`crate::replay`]) on C2D under oasis, killed at a seed-chosen epoch.
fn run_kill_and_resume(kind: Perturbation, seed: u64) -> InjectionOutcome {
    // C2D is multi-phase (9 epochs), so the seed-chosen kill point lands
    // genuinely mid-trace instead of degenerating to a full run.
    let trace = small_trace(App::C2d);
    let epochs = trace.phases.len() as u64;
    // Kill somewhere strictly inside the run: epoch in [1, epochs-1].
    let kill_epoch = 1 + SimRng::seed_from_u64(seed).gen_below(epochs.max(2) as usize - 1) as u64;
    let (ok, detail) = match audit(&base_config(), &Policy::oasis(), &trace, kill_epoch) {
        Ok((bytes, report)) => (
            true,
            format!(
                "killed at epoch {kill_epoch}/{epochs}, checkpoint {bytes} bytes, \
                 resumed bit-identical accesses={} guard=ok",
                report.accesses
            ),
        ),
        Err(detail) => (false, detail),
    };
    InjectionOutcome {
        kind,
        seed,
        ok,
        line: format!("{} seed={seed:#018x}: {detail}", kind.name()),
    }
}

fn run_one(kind: Perturbation, seed: u64) -> InjectionOutcome {
    if kind == Perturbation::KillAndResume {
        return run_kill_and_resume(kind, seed);
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let name = kind.name();
    let mut cfg = base_config();
    let mut trace = small_trace(App::Mt);
    let mut policy = Policy::oasis();

    match kind {
        Perturbation::TruncateTrace => {
            // Chop every stream at an arbitrary point and drop the now
            // inconsistent barrier positions: the run must still complete.
            for phase in &mut trace.phases {
                for stream in &mut phase.per_gpu {
                    let keep = rng.gen_below(stream.len() + 1);
                    stream.truncate(keep);
                }
                for b in &mut phase.barriers {
                    b.clear();
                }
            }
        }
        Perturbation::OutOfRangeAccess => {
            // One access reaches past its object's last byte: the run must
            // stop with a typed trace error naming the step.
            policy = Policy::OnTouch;
            let phase = rng.gen_below(trace.phases.len());
            let gpu = rng.gen_below(trace.phases[phase].per_gpu.len());
            let stream = &mut trace.phases[phase].per_gpu[gpu];
            let idx = rng.gen_below(stream.len());
            let bytes = trace.objects[stream[idx].obj.0 as usize].bytes;
            stream[idx].offset = bytes + 4096 * (1 + rng.gen_range(0..16));
        }
        Perturbation::CapacityCrunch => {
            // Far fewer frames than pages: sustained eviction pressure.
            policy = Policy::OnTouch;
            cfg.gpu_capacity_pages = Some(rng.gen_range(8..32));
        }
        Perturbation::CorruptCounters | Perturbation::PolicyFlip => {
            if kind == Perturbation::CorruptCounters {
                // Access counters only steer the counter-based policy.
                policy = Policy::AccessCounter;
            }
        }
        Perturbation::LinkDown => {
            // Duplication keeps pages shared across GPUs, so killing a
            // link forces real traffic onto the PCIe fallback.
            policy = Policy::Duplication;
            let a = rng.gen_below(4) as u8;
            let b = (a + 1 + rng.gen_below(3) as u8) % 4;
            let epoch = rng.gen_below(trace.phases.len());
            cfg.fault_plan = FaultPlan::parse(&format!("seed:{seed},down:{a}-{b}@{epoch}"))
                .expect("generated plan is well-formed");
        }
        Perturbation::LinkFlaky => {
            // Remote mappings put steady read traffic on the fabric for
            // the glitch window to tax.
            policy = Policy::AccessCounter;
            let a = rng.gen_below(4) as u8;
            let b = (a + 1 + rng.gen_below(3) as u8) % 4;
            let to = trace.phases.len().max(1);
            cfg.fault_plan = FaultPlan::parse(&format!("seed:{seed},flaky:{a}-{b}@0-{to}:1/2"))
                .expect("generated plan is well-formed");
        }
        Perturbation::EccPoison => {
            // Strike after at least one epoch so frames are resident.
            let gpu = rng.gen_below(4);
            let epoch = 1 + rng.gen_below(trace.phases.len().max(2) - 1);
            let frames = 1 + rng.gen_below(4);
            cfg.fault_plan = FaultPlan::parse(&format!("seed:{seed},ecc:{gpu}@{epoch}x{frames}"))
                .expect("generated plan is well-formed");
        }
        Perturbation::KillAndResume => unreachable!("dispatched above"),
    }

    let mut sys = System::new(cfg, &policy);
    match kind {
        Perturbation::CorruptCounters => {
            let candidates = page_candidates(&trace, sys.config().page_size);
            let mut hook_rng = SimRng::seed_from_u64(seed ^ 0xC0FF_EE00);
            sys.set_epoch_hook(move |_epoch, driver| {
                for _ in 0..8 {
                    let vpn = candidates[hook_rng.gen_below(candidates.len())];
                    let gpu = GpuId(hook_rng.gen_range(0..4) as u8);
                    let junk = hook_rng.gen_range(0..u32::MAX as u64) as u32;
                    driver.poke_counter(gpu, vpn, junk);
                }
            });
        }
        Perturbation::PolicyFlip => {
            let candidates = page_candidates(&trace, sys.config().page_size);
            let mut hook_rng = SimRng::seed_from_u64(seed ^ 0xF11B_0000);
            sys.set_epoch_hook(move |_epoch, driver| {
                for _ in 0..8 {
                    let vpn = candidates[hook_rng.gen_below(candidates.len())];
                    let bits = match hook_rng.gen_range(0..3) {
                        0 => PolicyBits::OnTouch,
                        1 => PolicyBits::AccessCounter,
                        _ => PolicyBits::Duplication,
                    };
                    let _ = driver.set_page_policy(vpn, bits);
                }
            });
        }
        _ => {}
    }

    match sys.run(&trace) {
        Ok(report) => {
            let guard = match sys.validate() {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("VIOLATED ({e})"),
            };
            let ok = guard == "ok";
            let hardware = match kind {
                Perturbation::LinkDown | Perturbation::LinkFlaky | Perturbation::EccPoison => {
                    format!(
                        " reroutes={} crc-retries={} quarantines={} fault-retries={}",
                        report.faults.reroutes,
                        report.faults.crc_retries,
                        report.uvm.ecc_quarantines,
                        report.uvm.fault_retries
                    )
                }
                _ => String::new(),
            };
            InjectionOutcome {
                kind,
                seed,
                ok,
                line: format!(
                    "{name} seed={seed:#018x}: completed accesses={} evictions={} \
                     recorded-errors={}{hardware} guard={guard}",
                    report.accesses, report.uvm.evictions, report.errors_recorded
                ),
            }
        }
        Err(e) => InjectionOutcome {
            kind,
            seed,
            ok: false,
            line: format!("{name} seed={seed:#018x}: aborted {e}"),
        },
    }
}

/// A campaign run under the supervised pool: outcomes stay in kind order
/// and scenarios lost to supervision are synthesized as `ok == false`
/// outcomes, so the report shape is stable whatever happens.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One outcome per [`Perturbation::ALL`] kind, in campaign order.
    pub outcomes: Vec<InjectionOutcome>,
    /// Kinds whose *job* failed under supervision (panic, deadline,
    /// retry exhaustion), with the rendered error.
    pub job_failures: Vec<(Perturbation, String)>,
    /// Kinds quarantined after crashing or hanging their worker.
    pub quarantined: Vec<Perturbation>,
    /// Resumed kinds, retries, journal warnings, and whether a stop
    /// drained the campaign (missing kinds then have no outcome line).
    pub sweep: SweepStats,
}

impl CampaignReport {
    /// Whether the campaign is healthy: ran to completion with no
    /// supervision casualties, and every outcome matches its kind's
    /// expectation (see [`InjectionOutcome::passed`]).
    pub fn passed(&self) -> bool {
        !self.sweep.interrupted
            && self.job_failures.is_empty()
            && self.outcomes.iter().all(InjectionOutcome::passed)
    }
}

/// The per-kind seeds of a campaign, drawn from an RNG stream with
/// repeats rejected, so every kind is guaranteed a distinct seed for any
/// master seed. (The old XOR-with-multiple derivation could collide two
/// kinds onto one seed, letting the "all kinds exercised, all seeds
/// distinct" assertion in tests/fault_injection.rs dedup away a kind and
/// pass vacuously.)
fn campaign_seeds(master_seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(master_seed);
    let mut used = std::collections::BTreeSet::new();
    Perturbation::ALL
        .iter()
        .map(|_| {
            let mut seed = rng.next_u64();
            while !used.insert(seed) {
                seed = rng.next_u64();
            }
            seed
        })
        .collect()
}

/// The journal tag pinning a campaign's identity to its master seed.
fn campaign_tag(master_seed: u64) -> u64 {
    oasis_engine::fnv1a(format!("oasis-inject-campaign-v1 seed={master_seed}").as_bytes())
}

/// Journals a completed scenario: its seed, pass flag and result line.
struct InjectCodec;

impl SweepCodec for InjectCodec {
    type Value = InjectionOutcome;

    fn encode(&self, outcome: &InjectionOutcome, w: &mut ByteWriter) {
        w.u64(outcome.seed);
        w.bool(outcome.ok);
        w.str(&outcome.line);
    }

    fn decode(&self, id: u64, r: &mut ByteReader<'_>) -> Result<InjectionOutcome, CodecError> {
        Ok(InjectionOutcome {
            kind: Perturbation::ALL[id as usize],
            seed: r.u64()?,
            ok: r.bool()?,
            line: r.str()?,
        })
    }
}

/// Runs the full campaign — one scenario per [`Perturbation`] kind — with
/// every random choice derived from `master_seed`, fanned out over the
/// supervised pool on the journaled sweep runner. Outcome content is a
/// deterministic function of the seed alone: the worker count changes
/// wall-clock, never the report, and a resumed journal merges a killed
/// campaign's adjudicated kinds instead of re-running them.
///
/// # Errors
///
/// Returns an error only for unusable journals (wrong tag, undecodable
/// payload, append failure); scenario failures stay inside the report.
pub fn run_campaign_supervised(
    master_seed: u64,
    opts: &SweepOptions,
) -> Result<CampaignReport, SweepError> {
    let seeds = campaign_seeds(master_seed);
    let label = format!("inject seed={master_seed}");
    let total = Perturbation::ALL.len() as u64;
    let mut sweep = Sweep::open(InjectCodec, opts, campaign_tag(master_seed), &label, total)?;
    sweep.run(&sweep.pending(), |id| {
        let kind = Perturbation::ALL[id as usize];
        let seed = seeds[id as usize];
        Job::new(kind.name(), move || Ok(run_one(kind, seed)))
    })?;
    let (settled, stats) = sweep.finish();
    let mut report = CampaignReport {
        outcomes: Vec::with_capacity(Perturbation::ALL.len()),
        job_failures: Vec::new(),
        quarantined: Vec::new(),
        sweep: stats,
    };
    for settled in settled {
        let kind = Perturbation::ALL[settled.id as usize];
        let seed = seeds[settled.id as usize];
        match settled.outcome {
            Ok(outcome) => report.outcomes.push(outcome),
            Err(lost) => {
                if lost.quarantined {
                    report.quarantined.push(kind);
                }
                // Synthesize a failed outcome so the report keeps one
                // line per kind whatever supervision saw.
                report.outcomes.push(InjectionOutcome {
                    kind,
                    seed,
                    ok: false,
                    line: format!(
                        "{} seed={seed:#018x}: job {} after {} attempt(s)",
                        kind.name(),
                        lost.error,
                        settled.attempts
                    ),
                });
                report.job_failures.push((kind, lost.error));
            }
        }
    }
    Ok(report)
}

/// Serial convenience wrapper around [`run_campaign_supervised`]: the
/// classic one-thread campaign returning just the outcomes.
pub fn run_campaign(master_seed: u64) -> Vec<InjectionOutcome> {
    run_campaign_supervised(master_seed, &SweepOptions::default())
        .expect("an unjournaled campaign cannot fail")
        .outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_covers_every_kind_once() {
        let outcomes = run_campaign(7);
        assert_eq!(outcomes.len(), Perturbation::ALL.len());
        for (o, kind) in outcomes.iter().zip(Perturbation::ALL) {
            assert_eq!(o.kind, kind);
            assert!(o.line.starts_with(kind.name()), "{}", o.line);
        }
    }

    #[test]
    fn campaign_seeds_are_distinct_and_deterministic() {
        for master in [0u64, 7, 42, u64::MAX] {
            let outcomes = run_campaign(master);
            let seeds: std::collections::BTreeSet<u64> = outcomes.iter().map(|o| o.seed).collect();
            assert_eq!(
                seeds.len(),
                Perturbation::ALL.len(),
                "seed collision at master={master}"
            );
            let again = run_campaign(master);
            assert!(
                outcomes
                    .iter()
                    .zip(&again)
                    .all(|(a, b)| a.seed == b.seed && a.line == b.line),
                "campaign not deterministic at master={master}"
            );
        }
    }

    #[test]
    fn out_of_range_scenario_yields_a_typed_error() {
        let outcomes = run_campaign(0xBAD_5EED);
        let oor = &outcomes[1];
        assert_eq!(oor.kind, Perturbation::OutOfRangeAccess);
        assert!(!oor.ok);
        assert!(oor.line.contains("at step"), "{}", oor.line);
        assert!(oor.line.contains("outside object"), "{}", oor.line);
    }

    #[test]
    fn survivors_keep_invariants() {
        for o in run_campaign(42) {
            if o.kind != Perturbation::OutOfRangeAccess {
                assert!(o.ok, "{}", o.line);
                assert!(o.line.contains("guard=ok"), "{}", o.line);
            }
        }
    }

    #[test]
    fn capacity_crunch_actually_evicts() {
        let outcomes = run_campaign(3);
        let crunch = &outcomes[2];
        assert_eq!(crunch.kind, Perturbation::CapacityCrunch);
        assert!(!crunch.line.contains("evictions=0"), "{}", crunch.line);
    }

    #[test]
    fn scenarios_run_with_the_epoch_guard() {
        assert_eq!(base_config().guard, GuardMode::Epoch);
    }

    #[test]
    fn hardware_fault_scenarios_degrade_gracefully() {
        let outcomes = run_campaign(19);
        let down = &outcomes[6];
        assert_eq!(down.kind, Perturbation::LinkDown);
        assert!(down.ok, "{}", down.line);
        assert!(down.line.contains("reroutes="), "{}", down.line);
        let flaky = &outcomes[7];
        assert_eq!(flaky.kind, Perturbation::LinkFlaky);
        assert!(flaky.ok, "{}", flaky.line);
        let ecc = &outcomes[8];
        assert_eq!(ecc.kind, Perturbation::EccPoison);
        assert!(ecc.ok, "{}", ecc.line);
        assert!(ecc.line.contains("quarantines="), "{}", ecc.line);
    }

    #[test]
    fn expected_abort_counts_as_a_pass() {
        let report = run_campaign_supervised(42, &SweepOptions::default())
            .expect("an unjournaled campaign cannot fail");
        assert!(report.passed(), "healthy campaign must pass");
        assert!(report.job_failures.is_empty());
        assert!(report.quarantined.is_empty());
        let oor = &report.outcomes[1];
        assert_eq!(oor.kind, Perturbation::OutOfRangeAccess);
        assert!(!oor.ok, "the typed abort is the desired behavior");
        assert!(oor.passed(), "…and therefore a pass");
        for o in &report.outcomes {
            if !o.kind.expects_abort() {
                assert_eq!(o.passed(), o.ok, "{}", o.line);
            }
        }
    }

    #[test]
    fn parallel_campaign_matches_the_serial_one() {
        let serial = run_campaign_supervised(7, &SweepOptions::default())
            .expect("an unjournaled campaign cannot fail");
        let parallel = run_campaign_supervised(
            7,
            &SweepOptions {
                pool: oasis_engine::PoolConfig::with_workers(3),
                ..SweepOptions::default()
            },
        )
        .expect("an unjournaled campaign cannot fail");
        assert_eq!(
            serial.outcomes, parallel.outcomes,
            "jobs must not change content"
        );
        assert!(parallel.passed());
    }

    #[test]
    fn kill_and_resume_scenario_is_bit_identical() {
        let outcomes = run_campaign(11);
        let kr = &outcomes[5];
        assert_eq!(kr.kind, Perturbation::KillAndResume);
        assert!(kr.ok, "{}", kr.line);
        assert!(kr.line.contains("resumed bit-identical"), "{}", kr.line);
        assert!(kr.line.contains("killed at epoch"), "{}", kr.line);
    }
}
