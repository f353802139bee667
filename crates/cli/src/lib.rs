//! Argument parsing and report formatting for the `oasis-sim` CLI.
//!
//! Kept as a library so the parsing and rendering logic is unit-testable;
//! `main.rs` is a thin shell around [`run`].

pub mod args;
mod chaos;
pub mod render;
pub mod signal;

use std::fmt::{self, Write as _};
use std::fs::File;

use oasis_engine::pool::{run_sweep, Job, JobOutcome, PoolConfig, StopHandle};
use oasis_engine::sweep::{SweepError, SweepOptions};
use oasis_mgpu::{run_campaign_supervised, simulate, Policy, System};
use oasis_workloads::{generate, Trace};

pub use args::{Cli, Command, ParseError};

/// A failed invocation, split by exit contract.
///
/// The full exit-code taxonomy the binary commits to:
///
/// | exit | meaning                                                      |
/// |------|--------------------------------------------------------------|
/// | 0    | success — the command ran to completion with every gate held |
/// | 1    | [`CliError::Failure`]: bad arguments, a failed simulation or |
/// |      | gate, a violated chaos invariant, a degraded serve run (the  |
/// |      | admission journal broke mid-run), or a `submit` batch whose  |
/// |      | retry budget was exhausted                                   |
/// | 75   | [`CliError::Interrupted`] (`EX_TEMPFAIL`): a journaled sweep |
/// |      | or serve run drained cleanly on SIGINT/SIGTERM and can be    |
/// |      | finished — resume with `--resume-sweep` / `--serve-state`    |
///
/// Typed *per-job* rejections (`overloaded`, `unavailable`,
/// `connection-inflight`) are not process exits: they arrive as result
/// lines, and `submit` maps any unresolved job onto exit 1 after its
/// `--retries` budget is spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Ordinary failure: message on stderr, exit code 1.
    Failure(String),
    /// A journaled sweep drained cleanly on SIGINT/SIGTERM and can be
    /// finished with `--resume-sweep`: exit code 75 (`EX_TEMPFAIL`, the
    /// sysexits "temporary failure, retry later" convention).
    Interrupted(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Failure(msg) | CliError::Interrupted(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failure(msg)
    }
}

impl From<SweepError> for CliError {
    fn from(e: SweepError) -> Self {
        CliError::Failure(e.to_string())
    }
}

/// The supervised-pool shape this invocation selects (`--jobs`,
/// `--job-deadline-secs`, `--job-attempts`).
fn pool_config(cli: &Cli) -> PoolConfig {
    PoolConfig {
        workers: cli.jobs.max(1),
        deadline: cli.job_deadline_secs.map(std::time::Duration::from_secs),
        max_attempts: cli.job_attempts.max(1),
    }
}

/// The batch-sweep shape this invocation selects: the pool, `--journal`,
/// `--resume-sweep`, and the drain handle.
fn sweep_options(cli: &Cli, stop: Option<&StopHandle>) -> SweepOptions {
    SweepOptions {
        pool: pool_config(cli),
        journal: cli.journal.as_ref().map(std::path::PathBuf::from),
        resume: cli.resume_sweep,
        stop: stop.cloned(),
    }
}

/// Runs `run` with optional checkpoint/resume plumbing and returns the
/// finished report, or a human-readable failure.
fn run_with_checkpoints(cli: &Cli, trace: &Trace) -> Result<oasis_mgpu::RunReport, String> {
    let mut sys = match &cli.resume {
        Some(path) => {
            let mut f = File::open(path).map_err(|e| format!("--resume {path}: {e}"))?;
            System::resume(&mut f, trace).map_err(|e| format!("--resume {path}: {e}"))?
        }
        None => System::new(cli.system_config(), &cli.policy),
    };
    if let Some(every) = cli.checkpoint_every {
        let dir = cli.checkpoint_dir.as_deref().unwrap_or(".");
        let total = trace.phases.len() as u64;
        let mut at = sys.next_epoch();
        while at < total {
            at = (at + every).min(total);
            sys.run_prefix(trace, at).map_err(|e| e.to_string())?;
            if at < total {
                let path = format!("{dir}/{}-{}-epoch{at}.ckpt", trace.app, sys.policy().name());
                // Serialize to memory, then publish atomically: a kill during
                // the write can never leave a torn checkpoint at `path`.
                let mut buf = Vec::new();
                sys.checkpoint(&mut buf)
                    .map_err(|e| format!("checkpoint {path}: {e}"))?;
                oasis_engine::atomic_write(std::path::Path::new(&path), &buf)
                    .map_err(|e| format!("checkpoint {path}: {e}"))?;
            }
        }
    }
    sys.run(trace).map_err(|e| e.to_string())
}

/// The checkpoint/kill/resume determinism audit: each core policy runs the
/// app straight through and again with a mid-run kill and resume, and the
/// two reports (including per-epoch state digests) must be bit-identical.
/// The policies fan out over the pool (`--jobs`) and print in policy
/// order; with `--journal` every verdict is persisted, `--resume-sweep`
/// skips already-audited policies, and a SIGINT/SIGTERM drain exits
/// resumable (code 75).
fn verify_replay(cli: &Cli, stop: Option<&StopHandle>) -> Result<String, CliError> {
    let trace = generate(cli.app, &cli.workload_params());
    let app = trace.app;
    let audit =
        oasis_mgpu::run_verify_replay(trace, &cli.system_config(), &sweep_options(cli, stop))?;
    for w in &audit.sweep.warnings {
        eprintln!("verify-replay: warning: {w}");
    }
    let total = Policy::core().len();
    if audit.sweep.interrupted {
        let journal_path = cli.journal.as_deref().unwrap_or("<journal>");
        return Err(CliError::Interrupted(format!(
            "verify-replay: drained after {}/{total} policy audit(s); finish with: \
             oasis-sim verify-replay --app {} --journal {journal_path} --resume-sweep",
            audit.verdicts.len(),
            cli.app.abbr(),
        )));
    }
    let mut out = format!(
        "verify-replay {app} — kill at epoch {}/{}, resume, compare\n",
        audit.kill_epoch, audit.epochs
    );
    for verdict in audit.verdicts {
        out.push_str(&verdict?);
    }
    out.push_str(&format!(
        "all {total} policies replay bit-identically after kill/resume\n"
    ));
    Ok(out)
}

/// Replays every repro in a corpus directory over the supervised pool.
/// Skipped files (wrong extension, malformed) are warnings in the output;
/// any oracle violation or lost job is a failure (nonzero exit).
fn replay_corpus(cli: &Cli, dir: &std::path::Path) -> Result<String, String> {
    let corpus = oasis_fuzz::load_dir(dir).map_err(|e| format!("--replay: {e}"))?;
    let mut out = format!(
        "replay corpus {} — {} repro(s), {} skipped\n",
        dir.display(),
        corpus.len(),
        corpus.skipped.len()
    );
    for s in &corpus.skipped {
        let _ = writeln!(out, "  warning: skipped {}: {}", s.path.display(), s.reason);
    }
    if corpus.is_empty() {
        out.push_str("corpus is empty; nothing to replay\n");
        return Ok(out);
    }
    let jobs: Vec<Job<Option<oasis_fuzz::Violation>>> = corpus
        .entries
        .iter()
        .map(|entry| {
            let scenario = entry.scenario.clone();
            let label = entry.path.display().to_string();
            Job::new(label, move || Ok(oasis_fuzz::check(&scenario)))
        })
        .collect();
    let sweep = run_sweep(&pool_config(cli), jobs);
    let mut failures = Vec::new();
    for (record, entry) in sweep.jobs.iter().zip(&corpus.entries) {
        match &record.outcome {
            JobOutcome::Completed(None) => {
                let _ = writeln!(out, "  {} OK", record.label);
            }
            JobOutcome::Completed(Some(v)) => failures.push(format!(
                "{}: {} — {}\n  repro: {}",
                record.label,
                v.kind,
                v.detail,
                entry.scenario.summary()
            )),
            JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => failures.push(format!(
                "{}: job {e} after {} attempt(s)",
                record.label, record.attempts
            )),
        }
    }
    if failures.is_empty() {
        let _ = writeln!(out, "all {} repro(s) clean", corpus.len());
        Ok(out)
    } else {
        Err(format!(
            "{out}{} corpus repro(s) failed:\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

/// The `fuzz` command: either replay saved corpus repros (one file or a
/// whole directory), or run a fuzzing session — all cases fanned over the
/// supervised pool, then the lowest-index violation shrunk and saved.
/// Any violation *or supervision casualty* is a failure: the exit code is
/// nonzero whenever a job ends `Failed`/`Quarantined`, `--json` or not.
/// A SIGINT/SIGTERM drain of a journaled session exits resumable (75).
fn fuzz(cli: &Cli, stop: Option<&StopHandle>) -> Result<String, CliError> {
    if let Some(path) = &cli.replay {
        if std::path::Path::new(path).is_dir() {
            return replay_corpus(cli, std::path::Path::new(path)).map_err(CliError::Failure);
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("--replay {path}: {e}"))?;
        let (scenario, _recorded) =
            oasis_fuzz::from_json(&text).map_err(|e| format!("--replay {path}: {e}"))?;
        return match oasis_fuzz::check(&scenario) {
            None => Ok(format!(
                "replay {path}: clean, every oracle passed\n  {}\n",
                scenario.summary()
            )),
            Some(v) => Err(format!(
                "replay {path}: {} violation\n  {}\n  repro: {}",
                v.kind,
                v.detail,
                scenario.summary()
            )
            .into()),
        };
    }

    let seed = cli.seed.unwrap_or(0);
    let mut opts = oasis_fuzz::FuzzOptions::new(seed, cli.cases);
    opts.time_budget = cli.time_budget_secs.map(std::time::Duration::from_secs);
    opts.corpus_dir = Some(cli.corpus_dir.as_deref().unwrap_or("tests/corpus").into());
    opts.sweep = sweep_options(cli, stop);
    let report = oasis_fuzz::run_fuzz(&opts)?;

    // Journal warnings (salvaged tail, duplicate records) go to stderr so
    // stdout stays byte-identical between straight and resumed sessions.
    for w in &report.sweep.warnings {
        eprintln!("fuzz: warning: {w}");
    }
    if report.sweep.interrupted {
        let journal = cli.journal.as_deref().unwrap_or("<journal>");
        return Err(CliError::Interrupted(format!(
            "fuzz: sweep drained with {} of {} case(s) adjudicated; finish with: \
             oasis-sim fuzz --seed {seed} --cases {} --journal {journal} --resume-sweep",
            report.cases_run, cli.cases, cli.cases,
        )));
    }

    let mut problems = String::new();
    if let Some(f) = &report.failure {
        let corpus_note = f
            .corpus_path
            .as_ref()
            .map_or("corpus write failed".to_string(), |p| {
                format!("saved to {}", p.display())
            });
        let _ = writeln!(
            problems,
            "fuzz: {} violation(s), first at case {} (master seed {seed:#018x})\n  {}\n  \
             original: {}\n  shrunk repro (seed {:#018x}, {} shrink evals): {}\n  {}\n  \
             replay with: oasis-sim fuzz --replay <corpus file>",
            report.violations.len(),
            f.case_index,
            f.violation.detail,
            f.original.summary(),
            f.shrunk.seed,
            f.shrink_attempts,
            f.shrunk.summary(),
            corpus_note,
        );
    }
    for jf in &report.job_failures {
        let _ = writeln!(
            problems,
            "fuzz: case {} (scenario seed {:#018x}) lost to supervision: {} \
             after {} attempt(s){}",
            jf.case_index,
            jf.scenario_seed,
            jf.error,
            jf.attempts,
            if jf.quarantined { " [quarantined]" } else { "" },
        );
    }
    if !problems.is_empty() {
        // Nonzero exit whatever the output mode; --json callers get the
        // machine-readable report ahead of the failure summary.
        return Err(if cli.json {
            format!("{}{problems}", oasis_fuzz::report_json(&opts, &report))
        } else {
            problems
        }
        .into());
    }
    Ok(if cli.json {
        oasis_fuzz::report_json(&opts, &report)
    } else {
        format!(
            "fuzz: {} case(s) checked in {:.1}s (master seed {seed:#018x}), no violations\n",
            report.cases_run,
            report.elapsed.as_secs_f64()
        )
    })
}

/// Runs the crash-durable sweep server until SIGINT/SIGTERM drains it.
///
/// The listening line goes straight to stdout (flushed) the moment the
/// socket is live, because the normal return path only prints after the
/// server exits — clients and the CI gates wait on that line to connect.
/// A graceful drain is the *expected* way out, reported as
/// [`CliError::Interrupted`] so the process exits `EX_TEMPFAIL` (75) with
/// the resume hint; admitted-but-unfinished jobs stay in the journal and
/// a restart with the same `--serve-state` finishes them.
fn serve(cli: &Cli, stop: Option<&StopHandle>) -> Result<String, CliError> {
    let state_dir = std::path::PathBuf::from(cli.serve_state.as_deref().unwrap_or(".oasis-serve"));
    let mut cfg = oasis_serve::ServeConfig::new(state_dir.clone());
    cfg.port = cli.port;
    cfg.queue_depth = cli.queue_depth;
    cfg.conn_inflight = cli.conn_inflight;
    cfg.idle_timeout = std::time::Duration::from_secs(cli.idle_timeout_secs);
    cfg.pool = pool_config(cli);
    let stop = stop.cloned().unwrap_or_else(StopHandle::new);

    let summary = oasis_serve::run_serve(cfg, stop, |port| {
        println!("serve: listening on 127.0.0.1:{port}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
    })
    .map_err(CliError::Failure)?;

    // A degraded run (broken admission journal) kept serving cached
    // results but refused new work — that is exit 1, never a silent 75.
    if let Some(err) = &summary.journal_error {
        return Err(CliError::Failure(format!(
            "serve: degraded and drained: {err}; restart with --serve-state {} to \
             recover the journal and resume admissions",
            state_dir.display(),
        )));
    }

    let mut counters = String::new();
    for (key, value) in &summary.counters {
        let _ = writeln!(counters, "  {key} = {value}");
    }
    Err(CliError::Interrupted(format!(
        "serve: drained cleanly after {} adjudication(s); counters:\n{counters}\
         restart with --serve-state {} to resume any journaled jobs",
        summary.adjudicated,
        state_dir.display(),
    )))
}

/// Sends a batch of scenarios to a running sweep server and prints one
/// deterministic result line per submission.
///
/// Scenarios come from `--replay` (a corpus file or directory) or are
/// generated exactly the way `fuzz --seed N --cases K` would draw them,
/// so a sweep can be reproduced locally or through the server
/// interchangeably. Progress and the optional `--submit-stats` counter
/// snapshot go to stderr; stdout carries only content-derived result
/// lines, byte-identical across server restarts and cache hits.
fn submit(cli: &Cli) -> Result<String, CliError> {
    let scenarios: Vec<oasis_fuzz::Scenario> = match &cli.replay {
        Some(path) => {
            let p = std::path::Path::new(path);
            if p.is_dir() {
                let corpus = oasis_fuzz::load_dir(p).map_err(CliError::Failure)?;
                for s in &corpus.skipped {
                    eprintln!("submit: skipped {}: {}", s.path.display(), s.reason);
                }
                if corpus.is_empty() {
                    return Err(CliError::Failure(format!(
                        "--replay {path}: no corpus repros found"
                    )));
                }
                corpus.entries.into_iter().map(|e| e.scenario).collect()
            } else {
                let text = std::fs::read_to_string(p)
                    .map_err(|e| CliError::Failure(format!("--replay {path}: {e}")))?;
                let (scenario, _recorded) = oasis_fuzz::from_json(&text)
                    .map_err(|e| CliError::Failure(format!("--replay {path}: {e}")))?;
                vec![scenario]
            }
        }
        None => {
            let seed = cli.seed.unwrap_or(0);
            let mut master = oasis_engine::SimRng::seed_from_u64(seed);
            (0..cli.cases)
                .map(|_| oasis_fuzz::Scenario::generate(master.next_u64()))
                .collect()
        }
    };

    let outcome = oasis_serve::submit_batch_with_retry(
        cli.port,
        &scenarios,
        cli.submit_stats,
        std::time::Duration::from_secs(cli.submit_timeout_secs),
        cli.retries,
        std::time::Duration::from_millis(cli.retry_backoff_ms),
    )
    .map_err(CliError::Failure)?;

    for line in &outcome.progress {
        eprintln!("submit: {line}");
    }
    if cli.submit_stats {
        for (key, value) in &outcome.stats {
            eprintln!("submit: stat {key} = {value}");
        }
    }
    let body = outcome.results.join("\n");
    if outcome.failed > 0 {
        return Err(CliError::Failure(format!(
            "{body}\nsubmit: {} of {} job(s) did not complete cleanly",
            outcome.failed,
            scenarios.len()
        )));
    }
    Ok(body)
}

/// Executes a parsed invocation, returning the text to print or a
/// human-readable failure (nonzero exit).
///
/// # Errors
///
/// Returns a message describing the failed simulation, unreadable or
/// corrupted checkpoint, or replay divergence.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    run_with_stop(cli, None)
}

/// [`run`] with an optional cooperative stop handle threaded into the
/// sweep commands (fuzz, inject, verify-replay); `main` wires it to
/// SIGINT/SIGTERM via [`signal::install_drain`] so a journaled sweep
/// drains instead of dying mid-record.
///
/// # Errors
///
/// As [`run`]; additionally [`CliError::Interrupted`] when a sweep was
/// drained by the stop handle and is resumable.
pub fn run_with_stop(cli: &Cli, stop: Option<StopHandle>) -> Result<String, CliError> {
    let stop = stop.as_ref();
    Ok(match &cli.command {
        Command::Run => {
            let trace = generate(cli.app, &cli.workload_params());
            let report = if cli.resume.is_some() || cli.checkpoint_every.is_some() {
                run_with_checkpoints(cli, &trace)?
            } else {
                simulate(&cli.system_config(), cli.policy.clone(), &trace)
            };
            let trace_note = match &cli.trace_out {
                Some(path) => {
                    let json = oasis_engine::chrome_trace_json(&report.trace_events);
                    oasis_engine::atomic_write(std::path::Path::new(path), json.as_bytes())
                        .map_err(|e| format!("--trace-out {path}: {e}"))?;
                    format!(
                        "trace: {} events written to {path}\n",
                        report.trace_events.len()
                    )
                }
                None => String::new(),
            };
            let digest_note = match &cli.digest_out {
                Some(path) => {
                    let mut trail = String::new();
                    for d in &report.digest_trail {
                        trail.push_str(&format!("{d:#018x}\n"));
                    }
                    oasis_engine::atomic_write(std::path::Path::new(path), trail.as_bytes())
                        .map_err(|e| format!("--digest-out {path}: {e}"))?;
                    format!(
                        "digests: {} epoch digest(s) written to {path}\n",
                        report.digest_trail.len()
                    )
                }
                None => String::new(),
            };
            let body = if cli.json {
                render::report_json(&report)
            } else {
                render::report_text(&report)
            };
            // The side-channel notes go after text output but never
            // inside JSON (the files are written either way).
            if cli.json {
                body
            } else {
                format!("{body}{trace_note}{digest_note}")
            }
        }
        Command::Compare => {
            let trace = generate(cli.app, &cli.workload_params());
            let config = cli.system_config();
            let policies = args::all_policies();
            let mut reports = Vec::new();
            for p in policies {
                reports.push(simulate(&config, p, &trace));
            }
            render::comparison_text(&reports)
        }
        Command::Characterize => {
            let trace = generate(cli.app, &cli.workload_params());
            render::characterization_text(&trace, cli.system_config().page_size)
        }
        Command::Inject => {
            let seed = cli.seed.unwrap_or(0);
            let campaign = run_campaign_supervised(seed, &sweep_options(cli, stop))?;
            for w in &campaign.sweep.warnings {
                eprintln!("inject: warning: {w}");
            }
            if campaign.sweep.interrupted {
                let journal = cli.journal.as_deref().unwrap_or("<journal>");
                return Err(CliError::Interrupted(format!(
                    "inject: campaign drained with {} of {} kind(s) adjudicated; finish \
                     with: oasis-sim inject --seed {seed} --journal {journal} --resume-sweep",
                    campaign.outcomes.len(),
                    oasis_mgpu::Perturbation::ALL.len(),
                )));
            }
            let body = if cli.json {
                render::inject_json(&campaign.outcomes)
            } else {
                let survivors = campaign.outcomes.iter().filter(|o| o.ok).count();
                let mut out = format!("fault-injection campaign, master seed {seed:#018x}\n\n");
                for o in &campaign.outcomes {
                    out.push_str(&o.line);
                    out.push('\n');
                }
                out.push_str(&format!(
                    "\n{survivors}/{} scenarios completed with invariants intact; \
                     replay any line with its printed seed\n",
                    campaign.outcomes.len()
                ));
                out
            };
            // Exit nonzero whenever the campaign deviates from per-kind
            // expectations or loses a job to supervision, --json or not.
            if !campaign.passed() {
                let mut problems = String::new();
                for o in campaign.outcomes.iter().filter(|o| !o.passed()) {
                    let _ = writeln!(problems, "inject: unexpected outcome: {}", o.line);
                }
                for (kind, err) in &campaign.job_failures {
                    let _ = writeln!(
                        problems,
                        "inject: {} lost to supervision: {err}",
                        kind.name()
                    );
                }
                return Err(format!("{body}{problems}").into());
            }
            body
        }
        Command::VerifyReplay => verify_replay(cli, stop)?,
        Command::Stats => {
            let trace = generate(cli.app, &cli.workload_params());
            let report = simulate(&cli.system_config(), cli.policy.clone(), &trace);
            render::stats_text(&report, cli.top)
        }
        Command::Fuzz => fuzz(cli, stop)?,
        Command::Serve => serve(cli, stop)?,
        Command::Submit => submit(cli)?,
        Command::Chaos => chaos::run_chaos(cli)?,
        Command::Help => args::USAGE.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Cli {
        Cli::parse(argv.iter().map(|s| s.to_string())).expect("parse")
    }

    fn run_ok(argv: &[&str]) -> String {
        run(&parse(argv)).expect("command succeeds")
    }

    #[test]
    fn run_produces_report_text() {
        let out = run_ok(&["run", "--app", "MT", "--footprint-mb", "4"]);
        assert!(out.contains("simulated time"));
        assert!(out.contains("far faults"));
        assert!(out.contains("wall clock"));
    }

    #[test]
    fn run_json_is_wellformed_enough() {
        let out = run_ok(&["run", "--app", "MT", "--footprint-mb", "4", "--json"]);
        assert!(out.trim_start().starts_with('{'));
        assert!(out.contains("\"total_time_us\""));
        assert!(out.contains("\"retired_steps\""));
        assert!(out.contains("\"digest_trail\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn compare_lists_all_policies() {
        let out = run_ok(&["compare", "--app", "MT", "--footprint-mb", "4"]);
        for name in ["on-touch", "access-counter", "duplication", "oasis", "grit"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn characterize_lists_objects() {
        let out = run_ok(&["characterize", "--app", "MM", "--footprint-mb", "4"]);
        assert!(out.contains("MM_A"));
        assert!(out.contains("read-only"));
    }

    #[test]
    fn fault_plan_run_reports_recovery_counters() {
        let argv = [
            "run",
            "--app",
            "C2D",
            "--footprint-mb",
            "4",
            "--fault-plan",
            "seed:5,down:0-1@2",
        ];
        let text = run_ok(&argv);
        assert!(text.contains("hw degradation"), "{text}");
        assert!(text.contains("1 link fault(s)"), "{text}");
        let mut jargv = argv.to_vec();
        jargv.push("--json");
        let json = run_ok(&jargv);
        assert!(json.contains("\"link_faults\": 1"), "{json}");
        assert!(json.contains("\"reroutes\""), "{json}");
        // The zero-fault report keeps its old shape.
        let clean = run_ok(&["run", "--app", "C2D", "--footprint-mb", "4"]);
        assert!(!clean.contains("hw degradation"), "{clean}");
    }

    #[test]
    fn inject_is_deterministic_and_covers_all_kinds() {
        let a = run_ok(&["inject", "--seed", "9"]);
        let b = run_ok(&["inject", "--seed", "9"]);
        assert_eq!(a, b, "same seed, same campaign output");
        for kind in [
            "truncate-trace",
            "out-of-range-access",
            "capacity-crunch",
            "corrupt-counters",
            "policy-flip",
            "kill-and-resume",
            "link-down",
            "link-flaky",
            "ecc-poison",
        ] {
            assert!(a.contains(kind), "missing {kind} in:\n{a}");
        }
        assert!(a.contains("invariants intact"));
    }

    #[test]
    fn inject_json_is_one_object_per_line() {
        let out = run_ok(&["inject", "--seed", "9", "--json"]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), oasis_mgpu::Perturbation::ALL.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\""), "{line}");
            assert!(line.contains("\"seed\""), "{line}");
            assert!(line.contains("\"ok\""), "{line}");
        }
        assert!(out.contains("\"kill-and-resume\""));
    }

    #[test]
    fn checkpoint_write_and_resume_round_trip() {
        let dir = std::env::temp_dir().join("oasis-cli-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir = dir.to_str().expect("utf-8 temp dir");
        // C2D has 9 phases, so `--checkpoint-every 4` takes genuine mid-run
        // checkpoints at epochs 4 and 8.
        let straight = run_ok(&["run", "--app", "C2D", "--footprint-mb", "4", "--json"]);
        run_ok(&[
            "run",
            "--app",
            "C2D",
            "--footprint-mb",
            "4",
            "--checkpoint-every",
            "4",
            "--checkpoint-dir",
            dir,
        ]);
        let ckpt = format!("{dir}/C2D-oasis-epoch4.ckpt");
        assert!(std::path::Path::new(&ckpt).exists(), "missing {ckpt}");
        assert!(
            std::path::Path::new(&format!("{dir}/C2D-oasis-epoch8.ckpt")).exists(),
            "missing epoch-8 checkpoint"
        );
        let resumed = run_ok(&[
            "run",
            "--app",
            "C2D",
            "--footprint-mb",
            "4",
            "--resume",
            &ckpt,
            "--json",
        ]);
        // Deterministic fields must match; host timings won't.
        for key in ["\"total_time_us\"", "\"far_faults\"", "\"digest_trail\""] {
            let pick = |s: &str| {
                s.lines()
                    .find(|l| l.contains(key))
                    .map(str::to_string)
                    .unwrap_or_default()
            };
            assert_eq!(pick(&straight), pick(&resumed), "{key} diverged");
        }
        let err = run(&parse(&["run", "--resume", "/nonexistent/x.ckpt"]))
            .expect_err("missing checkpoint file fails");
        assert!(err.to_string().contains("--resume"), "{err}");
    }

    #[test]
    fn verify_replay_passes_for_all_core_policies() {
        let out = run_ok(&["verify-replay", "--app", "C2D", "--footprint-mb", "4"]);
        for name in ["on-touch", "access-counter", "duplication", "oasis"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("bit-identically"), "{out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run_ok(&["help"]);
        assert!(out.contains("USAGE"));
        assert!(out.contains("verify-replay"));
        assert!(out.contains("--checkpoint-every"));
        assert!(out.contains("--trace-out"));
        assert!(out.contains("--fault-plan"));
        assert!(out.contains("fuzz"));
        assert!(out.contains("--time-budget-secs"));
        assert!(out.contains("--replay"));
    }

    #[test]
    fn fuzz_clean_session_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("oasis-cli-fuzz-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir_s = dir.to_str().expect("utf-8 temp dir");

        // A tiny session on the healthy simulator is clean.
        let out = run_ok(&["fuzz", "--cases", "2", "--corpus-dir", dir_s]);
        assert!(out.contains("2 case(s) checked"), "{out}");
        assert!(out.contains("no violations"), "{out}");

        let json = run_ok(&["fuzz", "--cases", "1", "--corpus-dir", dir_s, "--json"]);
        assert!(json.contains("\"oasis-fuzz-report-v2\""), "{json}");
        assert!(json.contains("\"violations\": 0"), "{json}");
        assert!(json.contains("\"job_failures\": 0"), "{json}");

        // Replay a corpus file written by hand: clean scenario passes.
        let scenario = oasis_fuzz::Scenario::generate(0);
        let path = oasis_fuzz::write_repro(&dir, &scenario, None).expect("write repro");
        let path_s = path.to_str().expect("utf-8 path");
        let out = run_ok(&["fuzz", "--replay", path_s]);
        assert!(out.contains("clean"), "{out}");

        // A missing or unparsable replay file is a descriptive error.
        let err = run(&parse(&["fuzz", "--replay", "/nonexistent/r.json"]))
            .expect_err("missing replay file fails");
        assert!(err.to_string().contains("--replay"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_writes_deterministic_chrome_trace() {
        let dir = std::env::temp_dir().join("oasis-cli-trace-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path_a = dir.join("a.json");
        let path_b = dir.join("b.json");
        for path in [&path_a, &path_b] {
            run_ok(&[
                "run",
                "--app",
                "C2D",
                "--policy",
                "oasis",
                "--footprint-mb",
                "4",
                "--trace-out",
                path.to_str().expect("utf-8"),
            ]);
        }
        let a = std::fs::read(&path_a).expect("trace a");
        let b = std::fs::read(&path_b).expect("trace b");
        assert!(!a.is_empty());
        assert_eq!(a, b, "same-seed traces must be byte-identical");
        let text = String::from_utf8(a).expect("utf-8 trace");
        assert!(text.starts_with("[\n"), "chrome trace is a JSON array");
        assert!(text.ends_with("\n]\n"));
        for name in ["far_fault", "link_transfer", "migration"] {
            assert!(text.contains(name), "missing {name} events");
        }
    }

    #[test]
    fn stats_prints_counter_and_histogram_tables() {
        let out = run_ok(&["stats", "--app", "MM", "--footprint-mb", "4", "--top", "10"]);
        assert!(out.contains("metrics breakdown"), "{out}");
        assert!(out.contains("uvm.fault.service_ns"), "{out}");
        assert!(out.contains("per-epoch rollups"), "{out}");
        assert!(out.contains("access.local"), "{out}");
    }

    #[test]
    fn chaos_filtered_cells_hold_and_bad_filters_are_typed() {
        // The corpus slice keeps this test cheap; the full 26-cell matrix
        // runs in CI via `oasis-sim chaos` (scripts/ci.sh strict mode).
        let out = run_ok(&["chaos", "--chaos-filter", "corpus", "--jobs", "2"]);
        assert!(out.contains("corpus/corpus.write/eio"), "{out}");
        assert!(out.contains("corpus/corpus.write/enospc"), "{out}");
        assert!(
            out.contains("all 2 cell(s) held the invariant triad"),
            "{out}"
        );

        let err = run(&parse(&["chaos", "--chaos-filter", "no-such-cell"]))
            .expect_err("an unmatched filter is a typed failure");
        assert!(err.to_string().contains("matches no cell"), "{err}");
    }
}
