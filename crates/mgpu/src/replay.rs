//! The checkpoint/kill/resume determinism audit.
//!
//! [`kill_and_resume`] is the leg every audit shares: run a trace to an
//! epoch boundary, checkpoint, drop the system, resume from the bytes and
//! finish. The fuzz oracle compares its report with a straight run it
//! already has; the audit behind both the `inject` campaign's
//! kill-and-resume scenario and `verify-replay` runs the trace straight
//! through itself, and the resumed run must then pass the sim-guard sweep
//! and match the straight one digest for digest and counter for counter.
//! `verify-replay` fans the audit over the four core policies on the
//! journaled sweep runner.

use std::fmt;
use std::sync::Arc;

use oasis_engine::pool::Job;
use oasis_engine::sweep::{clip, Sweep, SweepCodec, SweepError, SweepOptions, SweepStats};
use oasis_engine::{fnv1a, ByteReader, ByteWriter, CodecError, SimError};
use oasis_workloads::Trace;

use crate::config::{Policy, SystemConfig};
use crate::report::RunReport;
use crate::system::{trace_fingerprint, RunError, System};

/// The step at which a kill/resume leg stopped, with its typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// Running the first system to the kill epoch failed.
    Prefix(RunError),
    /// Writing the checkpoint failed.
    Checkpoint(SimError),
    /// Reading the checkpoint back failed.
    Resume(SimError),
    /// The resumed system could not finish the run.
    Finish(RunError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Prefix(e) => write!(f, "prefix run failed: {e}"),
            ResumeError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            ResumeError::Resume(e) => write!(f, "resume failed: {e}"),
            ResumeError::Finish(e) => write!(f, "resumed run failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A run killed at an epoch boundary and resumed to its end.
#[derive(Debug)]
pub struct Resumed {
    /// The resumed system, after the trace's last epoch.
    pub system: System,
    /// The resumed system's report.
    pub report: RunReport,
    /// Size of the checkpoint it resumed from, in bytes.
    pub checkpoint_bytes: usize,
}

/// Runs `trace` under `policy` up to `kill_epoch`, checkpoints to memory,
/// drops the system (the simulated crash), resumes a new one from the
/// bytes and finishes the run.
///
/// # Errors
///
/// The first step that failed, typed.
pub fn kill_and_resume(
    config: &SystemConfig,
    policy: &Policy,
    trace: &Trace,
    kill_epoch: u64,
) -> Result<Resumed, ResumeError> {
    let mut buf = Vec::new();
    {
        let mut first = System::new(config.clone(), policy);
        first
            .run_prefix(trace, kill_epoch)
            .map_err(ResumeError::Prefix)?;
        first
            .checkpoint(&mut buf)
            .map_err(ResumeError::Checkpoint)?;
        // `first` drops here: the simulated crash.
    }
    let mut system = System::resume(&mut buf.as_slice(), trace).map_err(ResumeError::Resume)?;
    let report = system.run(trace).map_err(ResumeError::Finish)?;
    Ok(Resumed {
        system,
        report,
        checkpoint_bytes: buf.len(),
    })
}

/// Audits `policy` on `trace`: a straight run, then [`kill_and_resume`]
/// at `kill_epoch`, whose resumed system must pass the sim-guard sweep and
/// whose report must match the straight one. Returns the checkpoint's
/// size in bytes and the resumed run's report, or the first step that
/// failed.
pub(crate) fn audit(
    config: &SystemConfig,
    policy: &Policy,
    trace: &Trace,
    kill_epoch: u64,
) -> Result<(usize, RunReport), String> {
    let straight = System::new(config.clone(), policy)
        .run(trace)
        .map_err(|e| format!("straight run failed: {e}"))?;
    let resumed = kill_and_resume(config, policy, trace, kill_epoch).map_err(|e| e.to_string())?;
    resumed
        .system
        .validate()
        .map_err(|e| format!("guard VIOLATED ({e})"))?;
    resumed
        .report
        .check_digests_against(&straight)
        .map_err(|e| e.to_string())?;
    if !resumed.report.same_simulation(&straight) {
        return Err("resumed report differs from the straight run".into());
    }
    Ok((resumed.checkpoint_bytes, resumed.report))
}

/// What `verify-replay` found.
#[derive(Debug, Clone)]
pub struct ReplayAudit {
    /// The epoch every second run is killed at (the trace's midpoint).
    pub kill_epoch: u64,
    /// Epochs in the trace.
    pub epochs: u64,
    /// One verdict per audited policy of [`Policy::core`], in that order:
    /// the rendered OK line, or the defect (or supervision loss) that
    /// failed the policy. Short of all of them only when the audit was
    /// interrupted.
    pub verdicts: Vec<Result<String, String>>,
    /// Resumed policies, journal warnings, and whether a stop drained the
    /// audit (a journaled one is resumable).
    pub sweep: SweepStats,
}

/// Journals a policy verdict: whether it passed, then its line or defect.
struct VerdictCodec;

impl SweepCodec for VerdictCodec {
    type Value = Result<String, String>;

    fn encode(&self, verdict: &Result<String, String>, w: &mut ByteWriter) {
        let (Ok(text) | Err(text)) = verdict;
        w.bool(verdict.is_ok());
        w.str(&clip(text));
    }

    fn decode(&self, _id: u64, r: &mut ByteReader<'_>) -> Result<Self::Value, CodecError> {
        let passed = r.bool()?;
        let text = r.str()?;
        Ok(if passed { Ok(text) } else { Err(text) })
    }
}

/// The journal tag pinning a `verify-replay` audit to everything that
/// defines it: the trace's full content (app, seed, footprint, GPU
/// count, every access) and the whole system configuration — the bytes a
/// checkpoint pins its own identity with.
fn replay_tag(trace: &Trace, config: &SystemConfig) -> u64 {
    let mut w = ByteWriter::new();
    w.str("oasis-verify-replay-v3");
    w.u64(trace_fingerprint(trace));
    config.encode(&mut w);
    fnv1a(w.as_slice())
}

/// Runs the kill/resume audit for each [`Policy::core`] policy, killing
/// each at the trace's midpoint epoch. The policies fan
/// out over the pool and come back in policy order, so the verdicts are
/// identical at any worker count; with a journal, a resume merges the
/// policies already audited.
///
/// # Errors
///
/// Only for an unusable journal; a policy that fails the audit is a
/// verdict, not an error.
pub fn run_verify_replay(
    trace: Trace,
    config: &SystemConfig,
    opts: &SweepOptions,
) -> Result<ReplayAudit, SweepError> {
    let policies = Policy::core();
    let epochs = trace.phases.len() as u64;
    let kill_epoch = (epochs / 2).max(1);
    let tag = replay_tag(&trace, config);
    let label = format!("verify-replay {}", trace.app);
    let trace = Arc::new(trace);
    let mut sweep = Sweep::open(VerdictCodec, opts, tag, &label, policies.len() as u64)?;
    sweep.run(&sweep.pending(), |id| {
        let policy = policies[id as usize].clone();
        let (trace, config) = (Arc::clone(&trace), config.clone());
        Job::new(policy.name(), move || {
            let name = policy.name();
            let verdict = audit(&config, &policy, &trace, kill_epoch)
                .map(|(bytes, report)| {
                    let digests = report.digest_trail.len();
                    format!("  {name:<16} OK  checkpoint {bytes} bytes, {digests} epoch digests match\n")
                })
                .map_err(|defect| format!("{name}: {defect}"));
            Ok(verdict)
        })
    })?;
    let (settled, stats) = sweep.finish();
    let verdicts = settled
        .into_iter()
        .map(|s| {
            let name = policies[s.id as usize].name();
            s.outcome
                .unwrap_or_else(|lost| Err(format!("{name}: job {}", lost.error)))
        })
        .collect();
    Ok(ReplayAudit {
        kill_epoch,
        epochs,
        verdicts,
        sweep: stats,
    })
}
