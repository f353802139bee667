//! The differential policy oracle.
//!
//! Policies may change *placement and timing* — where pages live, how long
//! accesses take — but never *semantics*: every access retires, no page is
//! lost or invented, no run panics, and determinism (replay and
//! kill/resume) holds under every policy. [`check`] runs one generated
//! scenario under all four core policies and verifies exactly that,
//! returning the first violation found.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oasis_engine::pool::panic_message;
use oasis_engine::SimRng;
use oasis_mgpu::{kill_and_resume, Policy, RunReport, System};
use oasis_workloads::Trace;

use crate::scenario::Scenario;

/// Which oracle a scenario violated. The shrinker preserves this kind: a
/// reduction is accepted only if the *same* check still fails, so shrinking
/// can't wander from (say) a guard violation to an unrelated timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// A run aborted with a typed `RunError` despite `RecordAndContinue`
    /// (guard violation, stall, or unabsorbable error).
    Abort,
    /// A run panicked — the one thing typed-error discipline forbids.
    Panic,
    /// The post-run invariant sweep (`System::validate`) failed.
    GuardViolation,
    /// Policies disagree on the final set of registered pages.
    PageSetMismatch,
    /// Policies disagree on how many accesses retired (fault-free runs).
    AccessCountMismatch,
    /// Errors were recorded in a run whose fault plan schedules none.
    UnexpectedErrors,
    /// A same-seed re-run diverged from the first run.
    ReplayDivergence,
    /// A kill/checkpoint/resume run diverged from the straight run.
    ResumeDivergence,
}

impl OracleKind {
    /// Stable corpus-file identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            OracleKind::Abort => "abort",
            OracleKind::Panic => "panic",
            OracleKind::GuardViolation => "guard-violation",
            OracleKind::PageSetMismatch => "page-set-mismatch",
            OracleKind::AccessCountMismatch => "access-count-mismatch",
            OracleKind::UnexpectedErrors => "unexpected-errors",
            OracleKind::ReplayDivergence => "replay-divergence",
            OracleKind::ResumeDivergence => "resume-divergence",
        }
    }

    /// Inverse of [`OracleKind::as_str`].
    pub fn parse(s: &str) -> Option<OracleKind> {
        [
            OracleKind::Abort,
            OracleKind::Panic,
            OracleKind::GuardViolation,
            OracleKind::PageSetMismatch,
            OracleKind::AccessCountMismatch,
            OracleKind::UnexpectedErrors,
            OracleKind::ReplayDivergence,
            OracleKind::ResumeDivergence,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One oracle failure: which check fired and a human-readable account.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The oracle that fired.
    pub kind: OracleKind,
    /// What happened, naming the policy involved where applicable.
    pub detail: String,
}

/// One successful policy run plus the functional state the differential
/// checks compare.
struct PolicyRun {
    report: RunReport,
    /// Sorted VPNs of every page registered in the host page table at end
    /// of run. Registration happens at allocation and is policy-invariant;
    /// a mismatch means a policy lost or invented a page.
    pages: Vec<u64>,
}

/// Runs `policy` over the scenario, converting panics, aborts, and guard
/// failures into violations.
fn run_policy(scenario: &Scenario, policy: &Policy, trace: &Trace) -> Result<PolicyRun, Violation> {
    let name = policy.name();
    let config = scenario.config();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sys = System::new(config, policy);
        let run = sys.run(trace);
        let validate = sys.validate().map_err(|e| e.to_string());
        let mut pages: Vec<u64> = sys
            .driver()
            .state
            .host_table
            .iter()
            .map(|(vpn, _)| vpn.0)
            .collect();
        pages.sort_unstable();
        (run, validate, pages)
    }));
    let (run, validate, pages) = outcome.map_err(|payload| Violation {
        kind: OracleKind::Panic,
        detail: format!("{name}: panicked: {}", panic_message(&*payload)),
    })?;
    let report = run.map_err(|e| Violation {
        kind: OracleKind::Abort,
        detail: format!("{name}: aborted: {e}"),
    })?;
    validate.map_err(|e| Violation {
        kind: OracleKind::GuardViolation,
        detail: format!("{name}: post-run validate failed: {e}"),
    })?;
    Ok(PolicyRun { report, pages })
}

/// Checks every oracle against `scenario`, returning the first violation
/// (or `None`: the scenario is clean). Deterministic: every internal
/// choice — which policy is replayed, where the kill lands — derives from
/// `scenario.seed`.
pub fn check(scenario: &Scenario) -> Option<Violation> {
    check_runs(scenario).err()
}

/// [`check`], keeping the straight runs' reports: for a clean scenario,
/// one [`RunReport`] per policy of [`Policy::core`], in that order.
///
/// # Errors
///
/// The first violation, as [`check`] reports it.
pub fn check_runs(scenario: &Scenario) -> Result<[RunReport; 4], Violation> {
    let trace = scenario.trace();
    let policies = Policy::core();

    // Per-policy oracles: completes, no panic, guard-clean.
    let mut runs = Vec::with_capacity(policies.len());
    for policy in &policies {
        runs.push(run_policy(scenario, policy, &trace)?);
    }

    // Differential oracles: functional state must agree across policies.
    let reference = &runs[0];
    let fault_free = scenario.fault_plan.ecc.is_empty();
    for (policy, run) in policies.iter().zip(&runs).skip(1) {
        if run.pages != reference.pages {
            return Err(Violation {
                kind: OracleKind::PageSetMismatch,
                detail: format!(
                    "{} registers {} pages, {} registers {}",
                    policies[0].name(),
                    reference.pages.len(),
                    policy.name(),
                    run.pages.len()
                ),
            });
        }
        if fault_free && run.report.accesses != reference.report.accesses {
            return Err(Violation {
                kind: OracleKind::AccessCountMismatch,
                detail: format!(
                    "{} retired {} accesses, {} retired {}",
                    policies[0].name(),
                    reference.report.accesses,
                    policy.name(),
                    run.report.accesses
                ),
            });
        }
    }
    if fault_free {
        for (policy, run) in policies.iter().zip(&runs) {
            if run.report.errors_recorded != 0 {
                return Err(Violation {
                    kind: OracleKind::UnexpectedErrors,
                    detail: format!(
                        "{}: {} errors recorded with no ECC events scheduled (first: {})",
                        policy.name(),
                        run.report.errors_recorded,
                        run.report
                            .error_samples
                            .first()
                            .map_or("<none>", String::as_str)
                    ),
                });
            }
        }
    }

    // Determinism oracles on one seed-chosen policy.
    let mut rng = SimRng::seed_from_u64(scenario.seed ^ 0x0AC1_E5EE_D000_0001);
    let pick = rng.gen_below(policies.len());
    let policy = &policies[pick];
    let straight = &runs[pick].report;

    // Replay: a fresh same-config run must be bit-identical.
    let again = run_policy(scenario, policy, &trace).map_err(|mut v| {
        v.detail = format!("replay leg: {}", v.detail);
        v
    })?;
    if again.report.check_digests_against(straight).is_err()
        || !again.report.same_simulation(straight)
    {
        return Err(Violation {
            kind: OracleKind::ReplayDivergence,
            detail: format!("{}: same-seed re-run diverged", policy.name()),
        });
    }

    // Kill/resume: checkpoint mid-run, drop the system, resume, finish.
    let epochs = trace.phases.len() as u64;
    if epochs >= 2 {
        let kill_at = rng.gen_range(1..epochs);
        let name = policy.name();
        let leg = catch_unwind(AssertUnwindSafe(|| {
            kill_and_resume(&scenario.config(), policy, &trace, kill_at)
        }))
        .map_err(|payload| Violation {
            kind: OracleKind::Panic,
            detail: format!(
                "{name}: kill/resume leg panicked: {}",
                panic_message(&*payload)
            ),
        })?;
        let resumed = leg
            .map_err(|e| Violation {
                kind: OracleKind::ResumeDivergence,
                detail: format!("{name}: {e}"),
            })?
            .report;
        if resumed.check_digests_against(straight).is_err() || !resumed.same_simulation(straight) {
            return Err(Violation {
                kind: OracleKind::ResumeDivergence,
                detail: format!(
                    "{}: killed at epoch {kill_at}/{epochs}, resumed run diverged",
                    policy.name()
                ),
            });
        }
    }

    let reports: Vec<RunReport> = runs.into_iter().map(|run| run.report).collect();
    Ok(reports.try_into().expect("one run per core policy"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strings_round_trip() {
        for kind in [
            OracleKind::Abort,
            OracleKind::Panic,
            OracleKind::GuardViolation,
            OracleKind::PageSetMismatch,
            OracleKind::AccessCountMismatch,
            OracleKind::UnexpectedErrors,
            OracleKind::ReplayDivergence,
            OracleKind::ResumeDivergence,
        ] {
            assert_eq!(OracleKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(OracleKind::parse("frob"), None);
    }

    #[test]
    fn a_known_clean_scenario_passes_every_oracle() {
        // Slow-ish (runs ~6 simulations) but the one in-crate proof that
        // the oracle harness itself is wired correctly.
        let s = Scenario::generate(0);
        if let Some(v) = check(&s) {
            panic!("seed 0 should be clean, got {}: {}", v.kind, v.detail);
        }
    }
}
