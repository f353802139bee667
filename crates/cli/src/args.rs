//! Hand-rolled argument parsing (no external CLI dependency).

use std::fmt;

use oasis_core::controller::OasisConfig;
use oasis_grit::GritConfig;
use oasis_mem::types::PageSize;
use oasis_mgpu::{FaultPlan, Placement, Policy, SystemConfig};
use oasis_workloads::{App, WorkloadParams, ALL_APPS};

/// Usage text for `oasis-sim help`.
pub const USAGE: &str = "\
oasis-sim — OASIS multi-GPU page-management simulator

USAGE:
    oasis-sim <COMMAND> [OPTIONS]

COMMANDS:
    run           simulate one app under one policy and print the report
    compare       simulate one app under every policy
    characterize  print per-object access patterns of an app's trace
    inject        run the deterministic fault-injection campaign
    verify-replay checkpoint/kill/resume one app under the four core
                  policies and verify bit-identical replay
    stats         simulate with metrics on and print the top-N counter
                  and latency-histogram breakdown
    fuzz          property-based fuzzing: random scenarios through the
                  differential policy oracle; failures are shrunk and
                  saved as corpus repros
    serve         run the crash-durable sweep server: accept scenario
                  jobs over newline JSON on a localhost socket, schedule
                  them on the supervised pool, cache results by content
                  digest, and journal the queue so a killed server
                  resumes without losing admitted work
    submit        send scenario jobs to a running sweep server, stream
                  progress to stderr, and print one deterministic result
                  line per job
    chaos         storage-chaos audit: enumerate every failpoint site x
                  fault kind (EIO, ENOSPC, short write, fsync/rename
                  failure, torn append) against the checkpoint, journal,
                  corpus, and serve durability surfaces and assert the
                  invariant triad — no panic, no corrupt artifact read
                  back as valid, post-fault recovery byte-identical or a
                  typed error naming the site
    help          show this text

OPTIONS:
    --app <ABBR>            application: BFS C2D FFT I2C MM MT PR ST
                            LeNet VGG16 ResNet18          [default: MT]
    --policy <NAME>         on-touch | access-counter | duplication |
                            ideal | oasis | oasis-inmem | grit
                                                          [default: oasis]
    --gpus <N>              GPU count                     [default: 4]
    --footprint-mb <MB>     override the Table II footprint
    --page-size <4k|2m>     translation granularity       [default: 4k]
    --placement <host|striped>  initial page placement    [default: host]
    --oversubscribe <PCT>   cap GPU memory for PCT% oversubscription
    --fault-plan <SPEC>     schedule deterministic hardware faults:
                            comma-separated clauses  seed:<n>
                            down:<a>-<b>@<epoch> (permanent link failure)
                            flaky:<a>-<b>@<from>-<to>:<num>/<den> (CRC
                            glitch window)  ecc:<gpu>@<epoch>x<count>
                            (poison resident frames)
    --reset-threshold <N>   OASIS reset threshold         [default: 8]
    --seed <N>              workload RNG seed; for inject, the campaign's
                            master seed (same seed, same output)
    --checkpoint-every <N>  run: write a checkpoint every N epochs
    --checkpoint-dir <DIR>  where checkpoints are written  [default: .]
    --resume <FILE>         run: resume from a checkpoint file (the
                            checkpoint's config and policy win over flags)
    --digest-out <FILE>     run: write the per-epoch digest trail, one
                            0x-prefixed hex digest per line (CI cmp's
                            this against pinned golden fixtures)
    --json                  machine-readable output (run and inject)
    --trace-out <FILE>      run: write a Chrome trace_event JSON file
                            (open in chrome://tracing or Perfetto)
    --trace-cap <N>         bound the trace ring buffer to N events
                            [default: 262144 when --trace-out is given]
    --top <N>               stats: rows per breakdown table [default: 20]
    --cases <N>             fuzz: scenarios to generate and check
                            [default: 100]
    --time-budget-secs <S>  fuzz: stop cleanly once S seconds have elapsed
    --corpus-dir <DIR>      fuzz: where shrunk repros are written and
                            --replay paths resolve [default: tests/corpus]
    --replay <PATH>         fuzz: re-check one saved corpus repro (or, for
                            a directory, every repro in it) instead of
                            generating scenarios
    --jobs <N>              fuzz/inject/verify-replay/chaos/serve: worker
                            threads for the supervised pool; report
                            content is identical for any N   [default: 1]
    --journal <FILE>        fuzz/inject/verify-replay: write-ahead sweep
                            journal; every job outcome is fsync'd so a
                            killed sweep can be resumed
    --resume-sweep          with --journal: skip the jobs the journal
                            already adjudicates and finish the rest; the
                            final report is byte-identical to an
                            uninterrupted run
    --job-deadline-secs <S> per-job wall-clock deadline: a job past it is
                            recorded as a typed timed-out failure and its
                            worker is respawned
    --job-attempts <N>      attempts per job before it counts as
                            failed; a retry goes straight back on
                            the queue                        [default: 1]
    --port <N>              serve: TCP port on 127.0.0.1 (0 binds an
                            ephemeral port and announces it);
                            submit: the server's port         [default: 0]
    --serve-state <DIR>     serve: state directory for the queue journal
                            and result cache; restart with the same
                            directory to resume   [default: .oasis-serve]
    --queue-depth <N>       serve: admission cap on pending + in-flight
                            jobs; beyond it submissions get a typed
                            overload rejection             [default: 256]
    --conn-inflight <N>     serve: per-connection cap on unresolved
                            jobs                            [default: 64]
    --idle-timeout-secs <S> serve: close connections idle this long with
                            no jobs in flight               [default: 30]
    --submit-stats          submit: request the server's counter snapshot
                            after the batch and print it to stderr
    --submit-timeout-secs <S> submit: overall deadline for the batch
                                                           [default: 600]
    --retries <N>           submit: extra attempts after a transient
                            connect failure or a typed overloaded
                            rejection (0 = fail fast)       [default: 0]
    --retry-backoff-ms <MS> submit: first retry delay; doubles after
                            every attempt                 [default: 100]
    --chaos-filter <SUBSTR> chaos: run only the matrix cells whose
                            workload/site/kind label contains SUBSTR

EXAMPLES:
    oasis-sim run --app MM --policy duplication
    oasis-sim compare --app ST --gpus 8
    oasis-sim characterize --app C2D
    oasis-sim run --app BFS --policy oasis --oversubscribe 150 --json
    oasis-sim run --app MT --checkpoint-every 2 --checkpoint-dir /tmp/ckpt
    oasis-sim run --app MT --resume /tmp/ckpt/MT-oasis-epoch2.ckpt
    oasis-sim inject --seed 42 --json
    oasis-sim verify-replay --app MT --footprint-mb 4
    oasis-sim run --app C2D --policy oasis --trace-out trace.json
    oasis-sim stats --app MM --policy oasis --top 15
    oasis-sim fuzz --seed 7 --cases 500 --time-budget-secs 60 --jobs 8
    oasis-sim fuzz --replay tests/corpus --jobs 4
    oasis-sim fuzz --replay tests/corpus/repro-0000000000000000-none.json
    oasis-sim inject --seed 42 --jobs 4 --job-deadline-secs 120
    oasis-sim fuzz --seed 7 --cases 200 --journal sweep.jnl
    oasis-sim fuzz --seed 7 --cases 200 --journal sweep.jnl --resume-sweep
    oasis-sim serve --port 7077 --serve-state /tmp/sweepd --jobs 4
    oasis-sim submit --port 7077 --seed 7 --cases 20 --submit-stats
    oasis-sim submit --port 7077 --replay tests/corpus
    oasis-sim submit --port 7077 --seed 7 --retries 3 --retry-backoff-ms 250
    oasis-sim chaos --jobs 4
    oasis-sim chaos --chaos-filter journal.append
    oasis-sim run --app C2D --policy oasis \\
        --fault-plan seed:7,down:0-1@2,ecc:0@3x2
";

/// Subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// One app, one policy.
    Run,
    /// One app, every policy.
    Compare,
    /// Trace characterization.
    Characterize,
    /// Deterministic fault-injection campaign.
    Inject,
    /// Checkpoint/kill/resume determinism audit over the core policies.
    VerifyReplay,
    /// Metrics-registry breakdown of one run.
    Stats,
    /// Property-based fuzzing with the differential policy oracle.
    Fuzz,
    /// Crash-durable sweep server over a localhost socket.
    Serve,
    /// Client: send scenario jobs to a running sweep server.
    Submit,
    /// Storage-chaos audit over the failpoint site x fault-kind matrix.
    Chaos,
    /// Usage text.
    Help,
}

/// A parsed invocation.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
    /// Application under test.
    pub app: App,
    /// Policy for `run`.
    pub policy: Policy,
    /// GPU count.
    pub gpus: usize,
    /// Footprint override (MB).
    pub footprint_mb: Option<u64>,
    /// Page size.
    pub page_size: PageSize,
    /// Initial placement.
    pub placement: Placement,
    /// Oversubscription percentage (>100) if set.
    pub oversubscribe: Option<u64>,
    /// Deterministic hardware-fault schedule, if any.
    pub fault_plan: Option<FaultPlan>,
    /// OASIS reset threshold.
    pub reset_threshold: u8,
    /// Workload seed override.
    pub seed: Option<u64>,
    /// Write a checkpoint every N epochs during `run`.
    pub checkpoint_every: Option<u64>,
    /// Directory checkpoints are written into.
    pub checkpoint_dir: Option<String>,
    /// Resume `run` from this checkpoint file.
    pub resume: Option<String>,
    /// Write the per-epoch digest trail to this file after `run`
    /// (one `0x%016x` line per epoch — the CI determinism gate `cmp`s
    /// this against pinned fixtures).
    pub digest_out: Option<String>,
    /// JSON output.
    pub json: bool,
    /// Write a Chrome trace_event JSON file after `run`.
    pub trace_out: Option<String>,
    /// Ring-tracer capacity override (events).
    pub trace_cap: Option<usize>,
    /// Rows per `stats` breakdown table.
    pub top: usize,
    /// `fuzz`: scenarios to generate and check.
    pub cases: u64,
    /// `fuzz`: wall-clock budget in seconds, if bounded.
    pub time_budget_secs: Option<u64>,
    /// `fuzz`: directory for shrunk repros (written on failure, read by
    /// relative `--replay` paths).
    pub corpus_dir: Option<String>,
    /// `fuzz`: replay this saved corpus repro (file) or whole corpus
    /// (directory) instead of generating.
    pub replay: Option<String>,
    /// Worker threads for the supervised pool (fuzz, inject, verify-replay,
    /// chaos, serve). 1 keeps the classic serial behavior.
    pub jobs: usize,
    /// Per-job wall-clock deadline for supervised sweeps, in seconds.
    pub job_deadline_secs: Option<u64>,
    /// Attempts per supervised job before it counts as failed.
    pub job_attempts: u32,
    /// Write-ahead sweep journal for fuzz/inject/verify-replay.
    pub journal: Option<String>,
    /// Resume a journaled sweep instead of starting it over.
    pub resume_sweep: bool,
    /// `serve`: TCP port to bind (0 = ephemeral); `submit`: the server's
    /// port.
    pub port: u16,
    /// `serve`: state directory for the queue journal and result cache.
    pub serve_state: Option<String>,
    /// `serve`: admission cap on pending + in-flight jobs.
    pub queue_depth: usize,
    /// `serve`: per-connection cap on unresolved jobs.
    pub conn_inflight: usize,
    /// `serve`: idle-connection cutoff, seconds.
    pub idle_timeout_secs: u64,
    /// `submit`: request and print the server's counter snapshot.
    pub submit_stats: bool,
    /// `submit`: overall batch deadline, seconds.
    pub submit_timeout_secs: u64,
    /// `submit`: extra attempts after a transient connect failure or a
    /// typed overloaded rejection. 0 keeps the classic fail-fast shape.
    pub retries: u32,
    /// `submit`: first retry delay in milliseconds; doubles per attempt.
    pub retry_backoff_ms: u64,
    /// `chaos`: run only the cells whose label contains this substring.
    pub chaos_filter: Option<String>,
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Every selectable policy, for `compare`.
pub fn all_policies() -> Vec<Policy> {
    vec![
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::oasis(),
        Policy::oasis_inmem(),
        Policy::grit(),
        Policy::Ideal,
    ]
}

fn parse_policy(name: &str, reset_threshold: u8) -> Result<Policy, ParseError> {
    let oasis_cfg = OasisConfig {
        reset_threshold,
        ..OasisConfig::default()
    };
    Ok(match name {
        "on-touch" => Policy::OnTouch,
        "access-counter" => Policy::AccessCounter,
        "duplication" => Policy::Duplication,
        "ideal" => Policy::Ideal,
        "oasis" => Policy::Oasis(oasis_cfg),
        "oasis-inmem" => Policy::OasisInMem(oasis_cfg),
        "grit" => Policy::Grit(GritConfig::default()),
        other => return Err(ParseError(format!("unknown policy '{other}'"))),
    })
}

impl Cli {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first invalid argument.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, ParseError> {
        let mut args = argv.into_iter().peekable();
        let command = match args.next().as_deref() {
            Some("run") => Command::Run,
            Some("compare") => Command::Compare,
            Some("characterize") => Command::Characterize,
            Some("inject") => Command::Inject,
            Some("verify-replay") => Command::VerifyReplay,
            Some("stats") => Command::Stats,
            Some("fuzz") => Command::Fuzz,
            Some("serve") => Command::Serve,
            Some("submit") => Command::Submit,
            Some("chaos") => Command::Chaos,
            Some("help") | Some("--help") | Some("-h") | None => Command::Help,
            Some(other) => return Err(ParseError(format!("unknown command '{other}'"))),
        };
        let mut cli = Cli {
            command,
            app: App::Mt,
            policy: Policy::oasis(),
            gpus: 4,
            footprint_mb: None,
            page_size: PageSize::Small4K,
            placement: Placement::Host,
            oversubscribe: None,
            fault_plan: None,
            reset_threshold: 8,
            seed: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            digest_out: None,
            json: false,
            trace_out: None,
            trace_cap: None,
            top: 20,
            cases: 100,
            time_budget_secs: None,
            corpus_dir: None,
            replay: None,
            jobs: 1,
            job_deadline_secs: None,
            job_attempts: 1,
            journal: None,
            resume_sweep: false,
            port: 0,
            serve_state: None,
            queue_depth: 256,
            conn_inflight: 64,
            idle_timeout_secs: 30,
            submit_stats: false,
            submit_timeout_secs: 600,
            retries: 0,
            retry_backoff_ms: 100,
            chaos_filter: None,
        };
        let mut policy_name: Option<String> = None;
        while let Some(flag) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| ParseError(format!("{flag} needs a value")))
            };
            match flag.as_str() {
                "--app" => {
                    let v = value("--app")?;
                    cli.app = *ALL_APPS
                        .iter()
                        .find(|a| a.abbr().eq_ignore_ascii_case(&v))
                        .ok_or_else(|| ParseError(format!("unknown app '{v}'")))?;
                }
                "--policy" => policy_name = Some(value("--policy")?),
                "--gpus" => {
                    cli.gpus = value("--gpus")?
                        .parse()
                        .map_err(|e| ParseError(format!("--gpus: {e}")))?;
                    if cli.gpus == 0 {
                        return Err(ParseError("--gpus must be positive".into()));
                    }
                }
                "--footprint-mb" => {
                    cli.footprint_mb = Some(
                        value("--footprint-mb")?
                            .parse()
                            .map_err(|e| ParseError(format!("--footprint-mb: {e}")))?,
                    );
                }
                "--page-size" => {
                    cli.page_size = match value("--page-size")?.as_str() {
                        "4k" | "4K" | "4096" => PageSize::Small4K,
                        "2m" | "2M" => PageSize::Large2M,
                        v => return Err(ParseError(format!("unknown page size '{v}'"))),
                    };
                }
                "--placement" => {
                    cli.placement = match value("--placement")?.as_str() {
                        "host" => Placement::Host,
                        "striped" => Placement::Striped,
                        v => return Err(ParseError(format!("unknown placement '{v}'"))),
                    };
                }
                "--oversubscribe" => {
                    let pct: u64 = value("--oversubscribe")?
                        .parse()
                        .map_err(|e| ParseError(format!("--oversubscribe: {e}")))?;
                    if pct <= 100 {
                        return Err(ParseError("--oversubscribe must exceed 100".into()));
                    }
                    cli.oversubscribe = Some(pct);
                }
                "--fault-plan" => {
                    let spec = value("--fault-plan")?;
                    cli.fault_plan = Some(
                        FaultPlan::parse(&spec)
                            .map_err(|e| ParseError(format!("--fault-plan: {e}")))?,
                    );
                }
                "--reset-threshold" => {
                    cli.reset_threshold = value("--reset-threshold")?
                        .parse()
                        .map_err(|e| ParseError(format!("--reset-threshold: {e}")))?;
                }
                "--seed" => {
                    cli.seed = Some(
                        value("--seed")?
                            .parse()
                            .map_err(|e| ParseError(format!("--seed: {e}")))?,
                    );
                }
                "--checkpoint-every" => {
                    let every: u64 = value("--checkpoint-every")?
                        .parse()
                        .map_err(|e| ParseError(format!("--checkpoint-every: {e}")))?;
                    if every == 0 {
                        return Err(ParseError("--checkpoint-every must be positive".into()));
                    }
                    cli.checkpoint_every = Some(every);
                }
                "--checkpoint-dir" => cli.checkpoint_dir = Some(value("--checkpoint-dir")?),
                "--resume" => cli.resume = Some(value("--resume")?),
                "--digest-out" => cli.digest_out = Some(value("--digest-out")?),
                "--json" => cli.json = true,
                "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
                "--trace-cap" => {
                    let cap: usize = value("--trace-cap")?
                        .parse()
                        .map_err(|e| ParseError(format!("--trace-cap: {e}")))?;
                    if cap == 0 {
                        return Err(ParseError("--trace-cap must be positive".into()));
                    }
                    cli.trace_cap = Some(cap);
                }
                "--top" => {
                    cli.top = value("--top")?
                        .parse()
                        .map_err(|e| ParseError(format!("--top: {e}")))?;
                    if cli.top == 0 {
                        return Err(ParseError("--top must be positive".into()));
                    }
                }
                "--cases" => {
                    cli.cases = value("--cases")?
                        .parse()
                        .map_err(|e| ParseError(format!("--cases: {e}")))?;
                    if cli.cases == 0 {
                        return Err(ParseError("--cases must be positive".into()));
                    }
                }
                "--time-budget-secs" => {
                    let secs: u64 = value("--time-budget-secs")?
                        .parse()
                        .map_err(|e| ParseError(format!("--time-budget-secs: {e}")))?;
                    if secs == 0 {
                        return Err(ParseError("--time-budget-secs must be positive".into()));
                    }
                    cli.time_budget_secs = Some(secs);
                }
                "--corpus-dir" => cli.corpus_dir = Some(value("--corpus-dir")?),
                "--replay" => cli.replay = Some(value("--replay")?),
                "--jobs" => {
                    cli.jobs = value("--jobs")?
                        .parse()
                        .map_err(|e| ParseError(format!("--jobs: {e}")))?;
                    if cli.jobs == 0 {
                        return Err(ParseError("--jobs must be positive".into()));
                    }
                }
                "--job-deadline-secs" => {
                    let secs: u64 = value("--job-deadline-secs")?
                        .parse()
                        .map_err(|e| ParseError(format!("--job-deadline-secs: {e}")))?;
                    if secs == 0 {
                        return Err(ParseError("--job-deadline-secs must be positive".into()));
                    }
                    cli.job_deadline_secs = Some(secs);
                }
                "--job-attempts" => {
                    cli.job_attempts = value("--job-attempts")?
                        .parse()
                        .map_err(|e| ParseError(format!("--job-attempts: {e}")))?;
                    if cli.job_attempts == 0 {
                        return Err(ParseError("--job-attempts must be positive".into()));
                    }
                }
                "--journal" => cli.journal = Some(value("--journal")?),
                "--resume-sweep" => cli.resume_sweep = true,
                "--port" => {
                    cli.port = value("--port")?
                        .parse()
                        .map_err(|e| ParseError(format!("--port: {e}")))?;
                }
                "--serve-state" => cli.serve_state = Some(value("--serve-state")?),
                "--queue-depth" => {
                    cli.queue_depth = value("--queue-depth")?
                        .parse()
                        .map_err(|e| ParseError(format!("--queue-depth: {e}")))?;
                    if cli.queue_depth == 0 {
                        return Err(ParseError("--queue-depth must be positive".into()));
                    }
                }
                "--conn-inflight" => {
                    cli.conn_inflight = value("--conn-inflight")?
                        .parse()
                        .map_err(|e| ParseError(format!("--conn-inflight: {e}")))?;
                    if cli.conn_inflight == 0 {
                        return Err(ParseError("--conn-inflight must be positive".into()));
                    }
                }
                "--idle-timeout-secs" => {
                    let secs: u64 = value("--idle-timeout-secs")?
                        .parse()
                        .map_err(|e| ParseError(format!("--idle-timeout-secs: {e}")))?;
                    if secs == 0 {
                        return Err(ParseError("--idle-timeout-secs must be positive".into()));
                    }
                    cli.idle_timeout_secs = secs;
                }
                "--submit-stats" => cli.submit_stats = true,
                "--retries" => {
                    cli.retries = value("--retries")?
                        .parse()
                        .map_err(|e| ParseError(format!("--retries: {e}")))?;
                }
                "--retry-backoff-ms" => {
                    cli.retry_backoff_ms = value("--retry-backoff-ms")?
                        .parse()
                        .map_err(|e| ParseError(format!("--retry-backoff-ms: {e}")))?;
                }
                "--chaos-filter" => cli.chaos_filter = Some(value("--chaos-filter")?),
                "--submit-timeout-secs" => {
                    let secs: u64 = value("--submit-timeout-secs")?
                        .parse()
                        .map_err(|e| ParseError(format!("--submit-timeout-secs: {e}")))?;
                    if secs == 0 {
                        return Err(ParseError("--submit-timeout-secs must be positive".into()));
                    }
                    cli.submit_timeout_secs = secs;
                }
                other => return Err(ParseError(format!("unknown option '{other}'"))),
            }
        }
        if let Some(name) = policy_name {
            cli.policy = parse_policy(&name, cli.reset_threshold)?;
        } else {
            cli.policy = parse_policy("oasis", cli.reset_threshold)?;
        }
        if cli.resume_sweep && cli.journal.is_none() {
            return Err(ParseError("--resume-sweep requires --journal".into()));
        }
        if cli.command == Command::Submit && cli.port == 0 {
            return Err(ParseError(
                "submit needs --port (the port the server announced)".into(),
            ));
        }
        // Validate here (flags arrive in any order) so a bad plan is a
        // parse error instead of a panic when the fabric is built.
        if let Some(plan) = cli.fault_plan.as_ref() {
            plan.validate_for(cli.gpus)
                .map_err(|e| ParseError(format!("--fault-plan: {e}")))?;
        }
        Ok(cli)
    }

    /// The workload parameters this invocation selects.
    pub fn workload_params(&self) -> WorkloadParams {
        let mut p = WorkloadParams::paper(self.app, self.gpus);
        if let Some(mb) = self.footprint_mb {
            p.footprint_mb = mb;
        }
        if let Some(seed) = self.seed {
            p.seed = seed;
        }
        p
    }

    /// The system configuration this invocation selects. The observability
    /// knobs follow the command: `--trace-out` turns tracing on (at
    /// `--trace-cap` or a roomy default), and `stats` turns metrics on.
    pub fn system_config(&self) -> SystemConfig {
        let trace_capacity = match (self.trace_cap, &self.trace_out) {
            (Some(cap), _) => cap,
            (None, Some(_)) => 1 << 18,
            (None, None) => 0,
        };
        let mut c = SystemConfig {
            gpu_count: self.gpus,
            page_size: self.page_size,
            placement: self.placement,
            trace_capacity,
            metrics: self.command == Command::Stats,
            fault_plan: self.fault_plan.clone().unwrap_or_default(),
            ..SystemConfig::default()
        };
        if let Some(pct) = self.oversubscribe {
            c = c.with_oversubscription(self.workload_params().footprint_bytes(), pct);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Cli, ParseError> {
        Cli::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let c = parse(&["run"]).unwrap();
        assert_eq!(c.command, Command::Run);
        assert_eq!(c.app, App::Mt);
        assert_eq!(c.gpus, 4);
        assert_eq!(c.policy.name(), "oasis");
        assert!(!c.json);
    }

    #[test]
    fn full_flag_set() {
        let c = parse(&[
            "run",
            "--app",
            "bfs",
            "--policy",
            "grit",
            "--gpus",
            "8",
            "--footprint-mb",
            "12",
            "--page-size",
            "2m",
            "--placement",
            "striped",
            "--oversubscribe",
            "150",
            "--seed",
            "7",
            "--json",
        ])
        .unwrap();
        assert_eq!(c.app, App::Bfs);
        assert_eq!(c.policy.name(), "grit");
        assert_eq!(c.gpus, 8);
        assert_eq!(c.footprint_mb, Some(12));
        assert_eq!(c.page_size, PageSize::Large2M);
        assert_eq!(c.placement, Placement::Striped);
        assert_eq!(c.oversubscribe, Some(150));
        assert_eq!(c.seed, Some(7));
        assert!(c.json);
        assert!(c.system_config().gpu_capacity_pages.is_some());
    }

    #[test]
    fn reset_threshold_feeds_oasis_config() {
        let c = parse(&["run", "--policy", "oasis", "--reset-threshold", "32"]).unwrap();
        match c.policy {
            Policy::Oasis(cfg) => assert_eq!(cfg.reset_threshold, 32),
            _ => panic!("expected oasis"),
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["frobnicate"]).unwrap_err().0.contains("command"));
        assert!(parse(&["run", "--app", "NOPE"])
            .unwrap_err()
            .0
            .contains("app"));
        assert!(parse(&["run", "--policy", "magic"])
            .unwrap_err()
            .0
            .contains("policy"));
        assert!(parse(&["run", "--gpus"]).unwrap_err().0.contains("value"));
        assert!(parse(&["run", "--gpus", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&["run", "--oversubscribe", "90"])
            .unwrap_err()
            .0
            .contains("exceed 100"));
    }

    #[test]
    fn fault_plan_parses_validates_and_shapes_the_config() {
        let c = parse(&["run", "--fault-plan", "seed:7,down:0-1@2,ecc:0@3x2"]).unwrap();
        let plan = c.fault_plan.as_ref().expect("plan parsed");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.link_down.len(), 1);
        assert_eq!(c.system_config().fault_plan, *plan);

        // No flag: the config carries the empty (zero-fault) plan.
        assert!(parse(&["run"])
            .unwrap()
            .system_config()
            .fault_plan
            .is_empty());

        assert!(parse(&["run", "--fault-plan", "down:0-0@1"])
            .unwrap_err()
            .0
            .contains("--fault-plan"));
        // Naming a GPU the system doesn't have is a parse error, whatever
        // the flag order.
        let err = parse(&["run", "--fault-plan", "down:0-5@1", "--gpus", "4"]).unwrap_err();
        assert!(err.0.contains("GPU 5"), "{err}");
        assert!(parse(&["run", "--gpus", "8", "--fault-plan", "down:0-5@1"]).is_ok());
    }

    #[test]
    fn no_args_means_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn checkpoint_flags_parse() {
        let c = parse(&[
            "run",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
            "/tmp/ckpt",
        ])
        .unwrap();
        assert_eq!(c.checkpoint_every, Some(2));
        assert_eq!(c.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
        let c = parse(&["run", "--resume", "state.ckpt"]).unwrap();
        assert_eq!(c.resume.as_deref(), Some("state.ckpt"));
        assert!(parse(&["run", "--checkpoint-every", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
    }

    #[test]
    fn verify_replay_is_a_command() {
        assert_eq!(
            parse(&["verify-replay"]).unwrap().command,
            Command::VerifyReplay
        );
    }

    #[test]
    fn observability_flags_parse_and_shape_the_config() {
        let c = parse(&["run", "--trace-out", "t.json"]).unwrap();
        assert_eq!(c.trace_out.as_deref(), Some("t.json"));
        assert_eq!(
            c.system_config().trace_capacity,
            1 << 18,
            "trace-out implies tracing"
        );

        let c = parse(&["run", "--trace-out", "t.json", "--trace-cap", "512"]).unwrap();
        assert_eq!(c.system_config().trace_capacity, 512);

        // No observability flags: everything stays dark.
        let dark = parse(&["run"]).unwrap().system_config();
        assert_eq!(dark.trace_capacity, 0);
        assert!(!dark.metrics);

        // `stats` turns metrics on.
        let stats = parse(&["stats", "--top", "5"]).unwrap();
        assert_eq!(stats.command, Command::Stats);
        assert_eq!(stats.top, 5);
        assert!(stats.system_config().metrics);

        assert!(parse(&["run", "--trace-cap", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
    }

    #[test]
    fn fuzz_flags_parse() {
        let c = parse(&[
            "fuzz",
            "--seed",
            "7",
            "--cases",
            "500",
            "--time-budget-secs",
            "60",
            "--corpus-dir",
            "corp",
            "--json",
        ])
        .unwrap();
        assert_eq!(c.command, Command::Fuzz);
        assert_eq!(c.seed, Some(7));
        assert_eq!(c.cases, 500);
        assert_eq!(c.time_budget_secs, Some(60));
        assert_eq!(c.corpus_dir.as_deref(), Some("corp"));
        assert!(c.json);

        let c = parse(&["fuzz", "--replay", "tests/corpus/r.json"]).unwrap();
        assert_eq!(c.replay.as_deref(), Some("tests/corpus/r.json"));
        assert_eq!(c.cases, 100, "default case count");

        assert!(parse(&["fuzz", "--cases", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&["fuzz", "--time-budget-secs", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
    }

    #[test]
    fn supervised_sweep_flags_parse() {
        let c = parse(&[
            "fuzz",
            "--jobs",
            "8",
            "--job-deadline-secs",
            "120",
            "--job-attempts",
            "3",
        ])
        .unwrap();
        assert_eq!(c.jobs, 8);
        assert_eq!(c.job_deadline_secs, Some(120));
        assert_eq!(c.job_attempts, 3);

        // Defaults keep the classic serial, one-shot, unbounded shape.
        let d = parse(&["inject"]).unwrap();
        assert_eq!(d.jobs, 1);
        assert_eq!(d.job_deadline_secs, None);
        assert_eq!(d.job_attempts, 1);

        for bad in [
            ["fuzz", "--jobs", "0"],
            ["fuzz", "--job-deadline-secs", "0"],
            ["fuzz", "--job-attempts", "0"],
        ] {
            assert!(parse(&bad).unwrap_err().0.contains("positive"), "{bad:?}");
        }
    }

    #[test]
    fn journal_flags_parse_and_resume_requires_a_journal() {
        let c = parse(&["fuzz", "--journal", "sweep.jnl"]).unwrap();
        assert_eq!(c.journal.as_deref(), Some("sweep.jnl"));
        assert!(!c.resume_sweep);

        let c = parse(&["inject", "--journal", "c.jnl", "--resume-sweep"]).unwrap();
        assert!(c.resume_sweep);

        // Flag order must not matter for the pairing check.
        assert!(parse(&["fuzz", "--resume-sweep", "--journal", "s.jnl"]).is_ok());
        let err = parse(&["fuzz", "--resume-sweep"]).unwrap_err();
        assert!(err.0.contains("--journal"), "{err}");
    }

    #[test]
    fn serve_and_submit_flags_parse() {
        let c = parse(&[
            "serve",
            "--port",
            "7077",
            "--serve-state",
            "/tmp/sweepd",
            "--queue-depth",
            "8",
            "--conn-inflight",
            "2",
            "--idle-timeout-secs",
            "5",
            "--jobs",
            "4",
        ])
        .unwrap();
        assert_eq!(c.command, Command::Serve);
        assert_eq!(c.port, 7077);
        assert_eq!(c.serve_state.as_deref(), Some("/tmp/sweepd"));
        assert_eq!(c.queue_depth, 8);
        assert_eq!(c.conn_inflight, 2);
        assert_eq!(c.idle_timeout_secs, 5);
        assert_eq!(c.jobs, 4);

        // serve defaults: ephemeral port, production-shaped limits.
        let d = parse(&["serve"]).unwrap();
        assert_eq!(d.port, 0);
        assert_eq!(d.queue_depth, 256);
        assert_eq!(d.conn_inflight, 64);
        assert_eq!(d.idle_timeout_secs, 30);

        let s = parse(&[
            "submit",
            "--port",
            "7077",
            "--seed",
            "7",
            "--cases",
            "20",
            "--submit-stats",
        ])
        .unwrap();
        assert_eq!(s.command, Command::Submit);
        assert_eq!(s.port, 7077);
        assert!(s.submit_stats);
        assert_eq!(s.submit_timeout_secs, 600);

        // submit without a port cannot connect anywhere: parse error.
        let err = parse(&["submit", "--seed", "7"]).unwrap_err();
        assert!(err.0.contains("--port"), "{err}");

        for bad in [
            ["serve", "--queue-depth", "0"],
            ["serve", "--conn-inflight", "0"],
            ["serve", "--idle-timeout-secs", "0"],
        ] {
            assert!(parse(&bad).unwrap_err().0.contains("positive"), "{bad:?}");
        }
    }

    #[test]
    fn chaos_and_retry_flags_parse() {
        let c = parse(&["chaos", "--jobs", "4", "--chaos-filter", "journal"]).unwrap();
        assert_eq!(c.command, Command::Chaos);
        assert_eq!(c.jobs, 4);
        assert_eq!(c.chaos_filter.as_deref(), Some("journal"));
        assert_eq!(parse(&["chaos"]).unwrap().chaos_filter, None);

        let s = parse(&[
            "submit",
            "--port",
            "7077",
            "--retries",
            "3",
            "--retry-backoff-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(s.retries, 3);
        assert_eq!(s.retry_backoff_ms, 250);

        // Defaults keep the classic fail-fast client.
        let d = parse(&["submit", "--port", "7077"]).unwrap();
        assert_eq!(d.retries, 0);
        assert_eq!(d.retry_backoff_ms, 100);

        assert!(parse(&["submit", "--port", "7077", "--retries", "x"])
            .unwrap_err()
            .0
            .contains("--retries"));
    }

    #[test]
    fn digest_out_parses() {
        let c = parse(&["run", "--digest-out", "trail.txt"]).unwrap();
        assert_eq!(c.digest_out.as_deref(), Some("trail.txt"));
        assert_eq!(parse(&["run"]).unwrap().digest_out, None);
    }
}
