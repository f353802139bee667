//! The `chaos` subcommand: a deterministic storage-fault audit over the
//! failpoint site x fault-kind matrix.
//!
//! Every durability claim the simulator makes — atomic checkpoint
//! publication, longest-clean-prefix journal salvage, corpus repro
//! writes, the serve cache and admission journal — is exercised here
//! under injected EIO, ENOSPC, short writes, fsync failures, rename
//! failures, and torn appends. Each matrix cell asserts the invariant
//! triad:
//!
//! 1. **No panic.** A cell runs as a supervised pool job; a panicking
//!    cell is quarantined and reported, never silently swallowed.
//! 2. **No corrupt artifact read back as valid.** After the fault the
//!    previously published artifact is byte-identical and loadable, and
//!    no staging debris is left behind.
//! 3. **Deterministic recovery.** A disarmed retry (or a journal resume)
//!    converges to output byte-identical to an uninterrupted run, or the
//!    fault surfaced as a typed error naming the injection site.
//!
//! Checkpoint, journal, and corpus cells use thread-scoped fail plans and
//! fan out over the supervised pool (`--jobs`). Serve cells drive a live
//! server whose worker threads the thread scope cannot reach, so they arm
//! process-scoped plans filtered to the cell's state directory and run
//! serially after the pool phase.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use oasis_engine::failpoint::{arm_process, arm_thread, FailPlan, FaultKind};
use oasis_engine::pool::{run_sweep, Job, JobError, JobOutcome, PoolConfig, StopHandle};
use oasis_fuzz::{report_json, run_fuzz, FuzzOptions, Scenario};
use oasis_mgpu::System;
use oasis_serve::{submit_batch, ServeConfig, ServeSummary};
use oasis_workloads::generate;

use crate::{pool_config, Cli, CliError};

/// Which durability surface a matrix cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Surface {
    /// `atomic_write` checkpoint publication over an older checkpoint.
    CheckpointPublish,
    /// `System::checkpoint` serialization through `codec.checkpoint`.
    CheckpointCodec,
    /// `JournalWriter::create` Begin publication inside a fuzz sweep.
    JournalBegin,
    /// Mid-sweep journal appends inside a fuzz sweep, then resume.
    JournalAppend,
    /// Corpus repro writes.
    Corpus,
    /// Serve result-cache writes: recompute-and-serve degradation.
    ServeCacheWrite,
    /// Serve result-cache reads: corrupt entries recompute and heal.
    ServeCacheRead,
    /// Serve admission journal: typed `unavailable` plus restart recovery.
    ServeJournal,
}

/// One site x kind cell of the audit matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    surface: Surface,
    site: &'static str,
    kind: FaultKind,
}

impl Cell {
    fn group(&self) -> &'static str {
        match self.surface {
            Surface::CheckpointPublish | Surface::CheckpointCodec => "checkpoint",
            Surface::JournalBegin | Surface::JournalAppend => "journal",
            Surface::Corpus => "corpus",
            Surface::ServeCacheWrite | Surface::ServeCacheRead | Surface::ServeJournal => "serve",
        }
    }

    fn label(&self) -> String {
        format!("{}/{}/{}", self.group(), self.site, self.kind)
    }
}

/// The full audit matrix: every registered durability site crossed with
/// every fault kind that can physically strike it.
fn matrix() -> Vec<Cell> {
    use FaultKind::{Eio, Enospc, FsyncFail, RenameFail, ShortWrite, TornAppend};
    let mut cells = Vec::new();
    let mut push = |surface, site, kinds: &[FaultKind]| {
        for &kind in kinds {
            cells.push(Cell {
                surface,
                site,
                kind,
            });
        }
    };
    push(Surface::CheckpointPublish, "fsio.create", &[Eio, Enospc]);
    push(
        Surface::CheckpointPublish,
        "fsio.write",
        &[Eio, Enospc, ShortWrite, TornAppend],
    );
    push(
        Surface::CheckpointPublish,
        "fsio.fsync",
        &[FsyncFail, Enospc],
    );
    push(
        Surface::CheckpointPublish,
        "fsio.rename",
        &[RenameFail, Eio],
    );
    push(
        Surface::CheckpointCodec,
        "codec.checkpoint",
        &[Eio, Enospc, ShortWrite],
    );
    push(Surface::JournalBegin, "journal.begin", &[Eio, Enospc]);
    push(
        Surface::JournalAppend,
        "journal.append.write",
        &[Eio, Enospc, ShortWrite, TornAppend],
    );
    push(Surface::JournalAppend, "journal.append.fsync", &[FsyncFail]);
    push(Surface::Corpus, "corpus.write", &[Eio, Enospc]);
    push(
        Surface::ServeCacheWrite,
        "serve.cache.write",
        &[Eio, Enospc],
    );
    push(Surface::ServeCacheRead, "serve.cache.read", &[Eio]);
    push(Surface::ServeJournal, "journal.append.write", &[Eio]);
    cells
}

/// Shared reference artifacts, built once before the matrix runs: the
/// checkpoint pair every checkpoint cell publishes against, the straight
/// fuzz report every journal cell must converge to, and the corpus repro
/// bytes every corpus retry must reproduce.
struct Reference {
    trace: oasis_workloads::Trace,
    config: oasis_mgpu::SystemConfig,
    policy: oasis_mgpu::Policy,
    old_ckpt: Vec<u8>,
    new_ckpt: Vec<u8>,
    /// An uninterrupted straight run — codec cells replay against its
    /// per-epoch digest trail (checkpoint *bytes* embed host timings and
    /// are only comparable within one `System` instance).
    straight: oasis_mgpu::RunReport,
    fuzz_json: String,
    scenario: Scenario,
    repro_bytes: Vec<u8>,
}

/// The fixed fuzz workload journal cells run: tiny, clean, journaled.
fn journal_fuzz_opts(journal: PathBuf, resume: bool) -> FuzzOptions {
    let mut opts = FuzzOptions::new(0, 2);
    opts.sweep.journal = Some(journal);
    opts.sweep.resume = resume;
    opts
}

/// Drops the wall-clock line so two reports can be byte-compared.
fn stable_json(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("\"elapsed_secs\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn build_reference(root: &Path) -> Result<Reference, String> {
    let cli = Cli::parse(
        ["run", "--app", "C2D", "--footprint-mb", "4"]
            .iter()
            .map(|s| s.to_string()),
    )
    .map_err(|e| format!("chaos reference workload: {e}"))?;
    let trace = generate(cli.app, &cli.workload_params());
    let config = cli.system_config();
    let policy = cli.policy.clone();
    let checkpoint_at = |epoch: u64| -> Result<Vec<u8>, String> {
        let mut sys = System::new(config.clone(), &policy);
        sys.run_prefix(&trace, epoch)
            .map_err(|e| format!("reference prefix run: {e}"))?;
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf)
            .map_err(|e| format!("reference checkpoint: {e}"))?;
        Ok(buf)
    };
    let old_ckpt = checkpoint_at(2)?;
    let new_ckpt = checkpoint_at(4)?;
    let straight = System::new(config.clone(), &policy)
        .run(&trace)
        .map_err(|e| format!("reference straight run: {e}"))?;

    let ref_dir = root.join("reference");
    std::fs::create_dir_all(&ref_dir).map_err(|e| format!("chaos reference dir: {e}"))?;
    let opts = journal_fuzz_opts(ref_dir.join("sweep.jnl"), false);
    let report = run_fuzz(&opts).map_err(|e| format!("reference fuzz sweep: {e}"))?;
    let fuzz_json = stable_json(&report_json(&opts, &report));

    let scenario = Scenario::generate(7);
    let repro_path = oasis_fuzz::write_repro(&ref_dir, &scenario, None)
        .map_err(|e| format!("reference corpus write: {e}"))?;
    let repro_bytes =
        std::fs::read(&repro_path).map_err(|e| format!("reference corpus read: {e}"))?;

    Ok(Reference {
        trace,
        config,
        policy,
        old_ckpt,
        new_ckpt,
        straight,
        fuzz_json,
        scenario,
        repro_bytes,
    })
}

/// Any staging temp files left under `dir` — must always be none.
fn stray_temps(dir: &Path) -> Result<Vec<String>, String> {
    let mut strays = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let name = entry
            .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
            .file_name()
            .to_string_lossy()
            .into_owned();
        if name.contains(".tmp.") {
            strays.push(name);
        }
    }
    Ok(strays)
}

/// Checkpoint-publication cell: the armed publish must fail with a typed
/// error naming the site, leave the old checkpoint byte-identical and
/// resumable with zero staging debris, and the disarmed retry must
/// converge to the new checkpoint.
fn run_checkpoint_publish_cell(cell: Cell, dir: &Path, r: &Reference) -> Result<String, String> {
    let path = dir.join("C2D-oasis.ckpt");
    oasis_engine::atomic_write(&path, &r.old_ckpt).map_err(|e| format!("publish old: {e}"))?;

    let scope = arm_thread(FailPlan::once(cell.site, cell.kind));
    let outcome = oasis_engine::atomic_write(&path, &r.new_ckpt);
    let fired = scope.fired();
    drop(scope);
    let err = match outcome {
        Ok(()) => return Err("armed publish succeeded; the fault never surfaced".into()),
        Err(e) => e,
    };
    if fired != 1 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected exactly 1"
        ));
    }
    if !err.to_string().contains(cell.site) {
        return Err(format!("error does not name the site: {err}"));
    }

    let strays = stray_temps(dir)?;
    if !strays.is_empty() {
        return Err(format!("staging debris after the fault: {strays:?}"));
    }
    let visible = std::fs::read(&path).map_err(|e| format!("read target: {e}"))?;
    if visible != r.old_ckpt {
        return Err("the previously published checkpoint was corrupted".into());
    }
    let sys = System::resume(&mut visible.as_slice(), &r.trace)
        .map_err(|e| format!("old checkpoint no longer resumes: {e}"))?;
    if sys.next_epoch() != 2 {
        return Err(format!(
            "old checkpoint resumes at epoch {}",
            sys.next_epoch()
        ));
    }

    // Disarmed retry: the exact publish that just failed must converge.
    oasis_engine::atomic_write(&path, &r.new_ckpt).map_err(|e| format!("retry publish: {e}"))?;
    let visible = std::fs::read(&path).map_err(|e| format!("read retried target: {e}"))?;
    if visible != r.new_ckpt {
        return Err("retried publish is not byte-identical to the reference".into());
    }
    let sys = System::resume(&mut visible.as_slice(), &r.trace)
        .map_err(|e| format!("retried checkpoint does not resume: {e}"))?;
    if sys.next_epoch() != 4 {
        return Err(format!("retry resumes at epoch {}", sys.next_epoch()));
    }
    Ok("old checkpoint intact and resumable, no strays, retry converged".into())
}

/// Codec cell: serialization itself fails typed; nothing is published,
/// and the disarmed retry yields a checkpoint that resumes and replays
/// digest-identically to an uninterrupted run.
fn run_checkpoint_codec_cell(cell: Cell, r: &Reference) -> Result<String, String> {
    let mut sys = System::new(r.config.clone(), &r.policy);
    sys.run_prefix(&r.trace, 4)
        .map_err(|e| format!("prefix run: {e}"))?;

    let scope = arm_thread(FailPlan::once(cell.site, cell.kind));
    let mut buf = Vec::new();
    let outcome = sys.checkpoint(&mut buf);
    let fired = scope.fired();
    drop(scope);
    let err = match outcome {
        Ok(()) => return Err("armed checkpoint succeeded; the fault never surfaced".into()),
        Err(e) => e,
    };
    if fired != 1 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected exactly 1"
        ));
    }
    if !err.to_string().contains(cell.site) {
        return Err(format!("error does not name the site: {err}"));
    }

    buf.clear();
    sys.checkpoint(&mut buf)
        .map_err(|e| format!("retry checkpoint: {e}"))?;
    let mut resumed = System::resume(&mut buf.as_slice(), &r.trace)
        .map_err(|e| format!("retried checkpoint does not resume: {e}"))?;
    if resumed.next_epoch() != 4 {
        return Err(format!(
            "retried checkpoint resumes at epoch {}",
            resumed.next_epoch()
        ));
    }
    let report = resumed
        .run(&r.trace)
        .map_err(|e| format!("resumed run: {e}"))?;
    report
        .check_digests_against(&r.straight)
        .map_err(|e| format!("resumed replay diverges: {e}"))?;
    Ok("serialization failed typed, retry resumes and replays identically".into())
}

/// Journal-Begin cell: the sweep refuses to start without a durable
/// journal (typed error, no file), and a disarmed rerun matches the
/// straight reference report byte for byte.
fn run_journal_begin_cell(cell: Cell, dir: &Path, r: &Reference) -> Result<String, String> {
    let jpath = dir.join("sweep.jnl");
    let scope = arm_thread(FailPlan::once(cell.site, cell.kind));
    let outcome = run_fuzz(&journal_fuzz_opts(jpath.clone(), false));
    let fired = scope.fired();
    drop(scope);
    let err = match outcome {
        Ok(_) => return Err("armed sweep started; the fault never surfaced".into()),
        Err(e) => e.to_string(),
    };
    if fired != 1 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected exactly 1"
        ));
    }
    if !err.contains(cell.site) || !err.contains("cannot create sweep journal") {
        return Err(format!("error does not name the site and surface: {err}"));
    }
    if jpath.exists() {
        return Err("a failed Begin publication left a journal file behind".into());
    }

    let opts = journal_fuzz_opts(jpath, false);
    let report = run_fuzz(&opts).map_err(|e| format!("disarmed rerun: {e}"))?;
    if stable_json(&report_json(&opts, &report)) != r.fuzz_json {
        return Err("disarmed rerun report differs from the reference".into());
    }
    Ok("sweep refused to start untracked, rerun byte-identical".into())
}

/// Journal-append cell: the sweep stops on the append failure with a
/// typed error, recovery salvages the journal without panicking, and a
/// resumed sweep produces the exact straight-run report.
fn run_journal_append_cell(cell: Cell, dir: &Path, r: &Reference) -> Result<String, String> {
    let jpath = dir.join("sweep.jnl");
    let mut plan = FailPlan::once(cell.site, cell.kind);
    // Let the Begin record and the first append land so the salvage has a
    // genuine clean prefix to keep.
    plan.after = 1;
    let scope = arm_thread(plan);
    let outcome = run_fuzz(&journal_fuzz_opts(jpath.clone(), false));
    let fired = scope.fired();
    drop(scope);
    let err = match outcome {
        Ok(_) => return Err("armed sweep completed; the fault never surfaced".into()),
        Err(e) => e.to_string(),
    };
    if fired != 1 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected exactly 1"
        ));
    }
    if !err.contains(cell.site) || !err.contains("sweep journal append failed") {
        return Err(format!("error does not name the site and surface: {err}"));
    }

    // The damaged journal must recover typed — salvage, never panic or
    // garbage — before the resume reads it.
    oasis_engine::recover(&jpath).map_err(|e| format!("recover after fault: {e}"))?;

    let opts = journal_fuzz_opts(jpath, true);
    let report = run_fuzz(&opts).map_err(|e| format!("resumed sweep: {e}"))?;
    if report.sweep.interrupted {
        return Err("resumed sweep did not run to completion".into());
    }
    if stable_json(&report_json(&opts, &report)) != r.fuzz_json {
        return Err("resumed report differs from the straight reference".into());
    }
    Ok("append failed typed, salvage clean, resume byte-identical".into())
}

/// Corpus cell: a failed repro write is typed, leaves nothing behind, and
/// the retry reproduces the reference bytes exactly.
fn run_corpus_cell(cell: Cell, dir: &Path, r: &Reference) -> Result<String, String> {
    let scope = arm_thread(FailPlan::once(cell.site, cell.kind));
    let outcome = oasis_fuzz::write_repro(dir, &r.scenario, None);
    let fired = scope.fired();
    drop(scope);
    let err = match outcome {
        Ok(_) => return Err("armed repro write succeeded; the fault never surfaced".into()),
        Err(e) => e,
    };
    if fired != 1 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected exactly 1"
        ));
    }
    if !err.to_string().contains(cell.site) {
        return Err(format!("error does not name the site: {err}"));
    }
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    if !leftovers.is_empty() {
        return Err(format!(
            "a failed repro write left files behind: {leftovers:?}"
        ));
    }

    let path = oasis_fuzz::write_repro(dir, &r.scenario, None)
        .map_err(|e| format!("retry repro write: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("read retried repro: {e}"))?;
    if bytes != r.repro_bytes {
        return Err("retried repro bytes differ from the reference".into());
    }
    Ok("write failed typed with no leftovers, retry byte-identical".into())
}

/// A live in-process sweep server for the serve cells.
struct ServeHarness {
    stop: StopHandle,
    port: u16,
    handle: std::thread::JoinHandle<Result<ServeSummary, String>>,
}

fn start_serve(state: PathBuf) -> Result<ServeHarness, String> {
    let mut cfg = ServeConfig::new(state);
    cfg.pool = PoolConfig::with_workers(2);
    cfg.idle_timeout = Duration::from_secs(120);
    let stop = StopHandle::new();
    let stop2 = stop.clone();
    let (ptx, prx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        oasis_serve::run_serve(cfg, stop2, move |port| {
            let _ = ptx.send(port);
        })
    });
    match prx.recv_timeout(Duration::from_secs(30)) {
        Ok(port) => Ok(ServeHarness { stop, port, handle }),
        Err(_) => {
            let err = match handle.join() {
                Ok(Ok(_)) => "server exited before announcing its port".to_string(),
                Ok(Err(e)) => e,
                Err(_) => "server thread panicked".to_string(),
            };
            Err(format!("server did not come up: {err}"))
        }
    }
}

impl ServeHarness {
    fn shutdown(self) -> Result<ServeSummary, String> {
        self.stop.stop();
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

fn counter(summary: &ServeSummary, key: &str) -> u64 {
    summary
        .counters
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

const SUBMIT_TIMEOUT: Duration = Duration::from_secs(120);

fn submit_one(port: u16, scenario: &Scenario) -> Result<String, String> {
    let outcome = submit_batch(port, std::slice::from_ref(scenario), false, SUBMIT_TIMEOUT)
        .map_err(|e| e.to_string())?;
    outcome
        .results
        .first()
        .cloned()
        .ok_or_else(|| "submit resolved no result line".to_string())
}

/// A process-scoped plan confined to this cell's state directory, so the
/// server's worker threads hit it and nothing else ever can.
fn process_plan(cell: Cell, state_tag: &str, count_all: bool) -> FailPlan {
    let mut plan = FailPlan::once(cell.site, cell.kind);
    if count_all {
        plan.count = u64::MAX;
    }
    plan.path = Some(state_tag.to_string());
    plan
}

/// Cache-write cell: every cache write fails, yet both the first and the
/// recomputed second submission complete with identical verdicts, the
/// failures are counted, and the journal stays healthy.
fn run_serve_cache_write_cell(cell: Cell, state: PathBuf) -> Result<String, String> {
    let state_tag = state
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or("state dir has no name")?;
    let scenario = Scenario::generate(41);
    let scope = arm_process(process_plan(cell, &state_tag, true));
    let server = start_serve(state)?;
    let first = submit_one(server.port, &scenario)?;
    let second = submit_one(server.port, &scenario)?;
    let summary = server.shutdown()?;
    let fired = scope.fired();
    drop(scope);

    if !first.contains(" completed: ") || !second.contains(" completed: ") {
        return Err(format!(
            "submissions must complete uncached under cache-write faults:\n{first}\n{second}"
        ));
    }
    if first != second {
        return Err("recomputed verdict differs from the first".into());
    }
    if fired < 2 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected both writes"
        ));
    }
    let failed = counter(&summary, "serve.cache_write_failed");
    if failed < 2 {
        return Err(format!("cache-write failures under-counted: {failed}"));
    }
    if let Some(e) = summary.journal_error {
        return Err(format!("journal must stay healthy in this cell: {e}"));
    }
    Ok("both submissions served uncached, identical verdicts, failures counted".into())
}

/// Cache-read cell: a cached entry that turns unreadable is treated as
/// corrupt, recomputed, and the served verdict is byte-identical.
fn run_serve_cache_read_cell(cell: Cell, state: PathBuf) -> Result<String, String> {
    let state_tag = state
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or("state dir has no name")?;
    let scenario = Scenario::generate(42);
    let server = start_serve(state)?;
    let first = submit_one(server.port, &scenario)?;
    if !first.contains(" completed: ") {
        return Err(format!("priming submission did not complete: {first}"));
    }

    let scope = arm_process(process_plan(cell, &state_tag, false));
    let second = submit_one(server.port, &scenario)?;
    let fired = scope.fired();
    drop(scope);
    let summary = server.shutdown()?;

    if fired != 1 {
        return Err(format!(
            "failpoint fired {fired} time(s), expected exactly 1"
        ));
    }
    if second != first {
        return Err(format!(
            "recomputed verdict differs from the cached one:\n{first}\n{second}"
        ));
    }
    if let Some(e) = summary.journal_error {
        return Err(format!("journal must stay healthy in this cell: {e}"));
    }
    Ok("unreadable cache entry recomputed, verdict byte-identical".into())
}

/// Admission-journal cell: with the queue journal broken, cached results
/// keep flowing, new work is refused with the typed `unavailable`
/// rejection, the degradation reaches the summary, and a restart on the
/// same state directory recovers full service.
fn run_serve_journal_cell(cell: Cell, state: PathBuf) -> Result<String, String> {
    let state_tag = state
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or("state dir has no name")?;
    let a = Scenario::generate(44);
    let b = Scenario::generate(45);

    let server = start_serve(state.clone())?;
    let cached = submit_one(server.port, &a)?;
    if !cached.contains(" completed: ") {
        return Err(format!("priming submission did not complete: {cached}"));
    }

    let scope = arm_process(process_plan(cell, &state_tag, true));
    let hit = submit_one(server.port, &a)?;
    let refused = submit_one(server.port, &b)?;
    let summary = server.shutdown()?;
    drop(scope);

    if hit != cached {
        return Err("cached result changed while the journal was broken".into());
    }
    if !refused.contains(" rejected: unavailable: ") {
        return Err(format!("new work must be refused typed: {refused}"));
    }
    let err = summary
        .journal_error
        .as_deref()
        .ok_or("the degradation never reached the serve summary")?;
    if !err.contains("journal append failed") {
        return Err(format!("summary names the wrong failure: {err}"));
    }
    if counter(&summary, "serve.rejected_unavailable") < 1 {
        return Err("the unavailable rejection was not counted".into());
    }

    // Disarmed restart on the same state: the refused job now computes.
    let server = start_serve(state)?;
    let after = submit_one(server.port, &b)?;
    let summary = server.shutdown()?;
    if !after.contains(" completed: ") {
        return Err(format!("restart did not recover admissions: {after}"));
    }
    if let Some(e) = summary.journal_error {
        return Err(format!("restarted server is still degraded: {e}"));
    }
    Ok("cache served, admission refused typed, restart recovered".into())
}

/// Runs one serve-surface cell serially on the calling thread, converting
/// a panic anywhere in the cell into a failed (never fatal) verdict.
fn run_serve_cell(cell: Cell, state: PathBuf) -> Result<String, String> {
    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cell.surface {
        Surface::ServeCacheWrite => run_serve_cache_write_cell(cell, state),
        Surface::ServeCacheRead => run_serve_cache_read_cell(cell, state),
        Surface::ServeJournal => run_serve_journal_cell(cell, state),
        _ => unreachable!("not a serve cell"),
    }));
    match body {
        Ok(result) => result,
        Err(_) => Err("cell panicked".into()),
    }
}

/// Runs the storage-chaos audit and renders one verdict line per cell.
///
/// # Errors
///
/// Returns [`CliError::Failure`] when any cell violates the invariant
/// triad (the report, with every per-cell diagnosis, is in the message) —
/// the process exits nonzero so CI treats a single violated durability
/// claim as a broken build.
pub(crate) fn run_chaos(cli: &Cli) -> Result<String, CliError> {
    let mut cells = matrix();
    if let Some(filter) = &cli.chaos_filter {
        cells.retain(|c| c.label().contains(filter.as_str()));
        if cells.is_empty() {
            return Err(CliError::Failure(format!(
                "--chaos-filter '{filter}' matches no cell; labels look like \
                 checkpoint/fsio.write/torn-append"
            )));
        }
    }

    let root = std::env::temp_dir().join(format!("oasis-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("chaos work dir: {e}"))?;
    let reference = Arc::new(build_reference(&root).map_err(CliError::Failure)?);

    // Phase 1: checkpoint, journal, and corpus cells fan out over the
    // supervised pool. Thread-scoped plans keep concurrent cells fully
    // isolated; a panicking cell is quarantined, not fatal.
    let pool_cells: Vec<(usize, Cell)> = cells
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| {
            !matches!(
                c.surface,
                Surface::ServeCacheWrite | Surface::ServeCacheRead | Surface::ServeJournal
            )
        })
        .collect();
    let jobs: Vec<Job<String>> = pool_cells
        .iter()
        .map(|&(idx, cell)| {
            let r = Arc::clone(&reference);
            let dir = root.join(format!("cell-{idx:02}"));
            Job::new(cell.label(), move || {
                std::fs::create_dir_all(&dir).map_err(|e| format!("cell dir: {e}"))?;
                match cell.surface {
                    Surface::CheckpointPublish => run_checkpoint_publish_cell(cell, &dir, &r),
                    Surface::CheckpointCodec => run_checkpoint_codec_cell(cell, &r),
                    Surface::JournalBegin => run_journal_begin_cell(cell, &dir, &r),
                    Surface::JournalAppend => run_journal_append_cell(cell, &dir, &r),
                    Surface::Corpus => run_corpus_cell(cell, &dir, &r),
                    _ => unreachable!("serve cells run serially"),
                }
            })
        })
        .collect();
    let sweep = run_sweep(&pool_config(cli), jobs);
    let mut verdicts: std::collections::BTreeMap<usize, Result<String, String>> =
        std::collections::BTreeMap::new();
    for (record, &(idx, _)) in sweep.jobs.iter().zip(&pool_cells) {
        let verdict = match &record.outcome {
            JobOutcome::Completed(line) => Ok(line.clone()),
            JobOutcome::Failed(JobError::Failed(msg)) => Err(msg.clone()),
            JobOutcome::Failed(e) => Err(format!("job {e}")),
            JobOutcome::Quarantined(e) => Err(format!("panicked: quarantined ({e})")),
        };
        verdicts.insert(idx, verdict);
    }

    // Phase 2: serve cells run serially — their process-scoped plans are
    // path-filtered to the cell's own state directory, and the process
    // token serializes them anyway.
    for (serve_idx, (idx, cell)) in cells
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| {
            matches!(
                c.surface,
                Surface::ServeCacheWrite | Surface::ServeCacheRead | Surface::ServeJournal
            )
        })
        .enumerate()
    {
        let state = root.join(format!("serve-{serve_idx}"));
        verdicts.insert(idx, run_serve_cell(cell, state));
    }

    let _ = std::fs::remove_dir_all(&root);

    let mut out = format!(
        "storage chaos: {} cell(s) over {} site(s)\n",
        cells.len(),
        cells
            .iter()
            .map(|c| c.site)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    let mut failures = 0usize;
    for (idx, cell) in cells.iter().enumerate() {
        match verdicts.get(&idx) {
            Some(Ok(line)) => {
                let _ = writeln!(out, "  ok    {:<42} {line}", cell.label());
            }
            Some(Err(msg)) => {
                failures += 1;
                let _ = writeln!(out, "  FAIL  {:<42} {msg}", cell.label());
            }
            None => {
                failures += 1;
                let _ = writeln!(
                    out,
                    "  FAIL  {:<42} cell was never adjudicated",
                    cell.label()
                );
            }
        }
    }
    if failures > 0 {
        return Err(CliError::Failure(format!(
            "{out}chaos: {failures} of {} cell(s) violated a durability invariant",
            cells.len()
        )));
    }
    let _ = writeln!(
        out,
        "chaos: all {} cell(s) held the invariant triad — no panic, no corrupt \
         artifact read back as valid, recovery byte-identical or typed",
        cells.len()
    );
    Ok(out)
}
