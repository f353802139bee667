//! Durable batch sweeps: `fuzz`, the `inject` campaign and `verify-replay`
//! all run on the one journaled runner (`oasis::engine::sweep`), so each
//! must
//!
//! * report the same with a journal as without one;
//! * resume a crafted prefix journal — its first jobs adjudicated, as a
//!   drained sweep leaves it — at a different worker count into the
//!   identical report, merging exactly the prefix and leaving one
//!   `Adjudicated` record per job, so no adjudicated job ran again;
//! * resume a complete journal into the identical report without
//!   appending a record;
//! * resume a complete journal whose last record a kill cut partway into
//!   the identical report, merging only the whole adjudications and
//!   warning once, of the salvage;
//! * refuse a journal written with other parameters with the typed
//!   tag-mismatch error instead of merging two different sweeps;
//! * refuse a version 1 or 2 journal, which hold the retired `Dispatched`
//!   and `Interrupted` records, with the typed version error and without
//!   touching it — in the journal writer, a fuzz sweep and the sweep
//!   server alike.
//!
//! Every test works in a directory of its own.

use std::path::{Path, PathBuf};

use oasis::engine::journal::{
    recover, JournalError, JournalWriter, JOURNAL_MAGIC, JOURNAL_VERSION,
};
use oasis::engine::pool::{PoolConfig, StopHandle};
use oasis::engine::sweep::{SweepError, SweepOptions, SweepStats};
use oasis::engine::{fnv1a, ByteWriter};
use oasis::fuzz::{report_json, run_fuzz, FuzzOptions};
use oasis::mgpu::{run_campaign_supervised, run_verify_replay, Placement, SystemConfig};
use oasis::workloads::{generate, App, Trace, WorkloadParams};

/// What a sweep under test produced: its deterministic report rendered,
/// and how the sweep went.
struct Run {
    report: String,
    sweep: SweepStats,
}

type SweepFn = dyn Fn(SweepOptions) -> Result<Run, SweepError>;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn options(journal: Option<&Path>, resume: bool, workers: usize) -> SweepOptions {
    SweepOptions {
        pool: PoolConfig::with_workers(workers),
        journal: journal.map(Path::to_path_buf),
        resume,
        stop: None,
    }
}

/// A resumed run must report exactly what the reference did, merge
/// `merged` jobs from the journal, and finish without warnings, or, if
/// `salvaged`, with exactly one: the salvage of a torn tail.
fn assert_resumed(name: &str, reference: &Run, resumed: &Run, merged: usize, salvaged: bool) {
    assert_eq!(
        reference.report, resumed.report,
        "{name}: resume changed the report"
    );
    assert_eq!(
        resumed.sweep.resumed, merged as u64,
        "{name}: wrong jobs merged"
    );
    assert!(!resumed.sweep.interrupted, "{name}: the resume drained");
    let warnings = &resumed.sweep.warnings;
    assert_eq!(
        warnings.len(),
        usize::from(salvaged),
        "{name}: {warnings:?}"
    );
    assert!(
        warnings.iter().all(|w| w.contains("salvaged")),
        "{name}: {warnings:?}"
    );
}

/// A resumed journal must hold one `Adjudicated` record per job: a job
/// that ran again after its adjudication would have a second.
fn assert_adjudicated_once(name: &str, path: &Path) {
    let rec = recover(path).expect("recover the resumed journal");
    assert!(
        rec.duplicate_adjudications.is_empty(),
        "{name}: jobs {:?} adjudicated twice",
        rec.duplicate_adjudications
    );
}

/// Straight, journaled, resumed-from-a-prefix, resumed-when-complete and
/// resumed-from-a-torn-tail runs of one sweep.
fn assert_resumes_identically(name: &str, prefix: usize, sweep: &SweepFn) {
    let dir = test_dir(name);
    let reference = sweep(options(None, false, 1)).expect("unjournaled run");

    let full_path = dir.join("full.jnl");
    let full_run = sweep(options(Some(&full_path), false, 2)).expect("journaled run");
    assert_eq!(
        reference.report, full_run.report,
        "{name}: journaling changed the report"
    );
    assert!(
        !full_run.sweep.interrupted,
        "{name}: the journaled run drained"
    );
    let full = recover(&full_path).expect("recover the full journal");
    assert!(full.adjudicated.len() > prefix);
    let full_bytes = std::fs::read(&full_path).expect("read the full journal");

    // What a sweep drained after `prefix` jobs leaves behind.
    let partial_path = dir.join("partial.jnl");
    let mut w = JournalWriter::create(&partial_path, full.tag, "partial sweep").expect("create");
    for (&id, adj) in full.adjudicated.iter().take(prefix) {
        w.adjudicated(id, adj.outcome, adj.attempts, &adj.payload)
            .expect("adjudicated");
    }
    drop(w);

    let resumed = sweep(options(Some(&partial_path), true, 3)).expect("resumed run");
    assert_resumed(name, &reference, &resumed, prefix, false);

    let after = recover(&partial_path).expect("recover the resumed journal");
    assert_eq!(after.adjudicated.len(), full.adjudicated.len());
    assert_adjudicated_once(name, &partial_path);

    // A journal that already adjudicates every job resumes into the same
    // report and appends nothing.
    let complete = sweep(options(Some(&full_path), true, 2)).expect("complete resume");
    assert_resumed(name, &reference, &complete, full.adjudicated.len(), false);
    let len = std::fs::metadata(&full_path)
        .expect("journal metadata")
        .len();
    assert_eq!(
        len,
        full_bytes.len() as u64,
        "{name}: a complete journal grew"
    );

    // Killed mid-append: part of the last adjudication reached the disk.
    // Only the whole adjudications merge; the torn job runs again.
    let torn_path = dir.join("torn.jnl");
    std::fs::write(&torn_path, &full_bytes[..full_bytes.len() - 7]).expect("write torn");
    let torn = sweep(options(Some(&torn_path), true, 2)).expect("salvaged resume");
    assert_resumed(name, &reference, &torn, full.adjudicated.len() - 1, true);
    assert_adjudicated_once(name, &torn_path);
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal left by a sweep drained before its first job must be refused
/// by `other`, a sweep with different parameters.
fn assert_refused(name: &str, sweep: &SweepFn, other: &SweepFn) {
    let dir = test_dir(name);
    let path = dir.join("sweep.jnl");
    let stop = StopHandle::new();
    stop.stop();
    let drained = sweep(SweepOptions {
        stop: Some(stop),
        ..options(Some(&path), false, 1)
    })
    .expect("a drained sweep still journals");
    assert!(drained.sweep.interrupted);
    match other(options(Some(&path), true, 1)) {
        Err(SweepError::Resume {
            error: JournalError::TagMismatch { .. },
            ..
        }) => {}
        Err(e) => panic!("{name}: expected a tag mismatch, got: {e}"),
        Ok(_) => panic!("{name}: a journal from other parameters was resumed"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn fuzz(cases: u64) -> impl Fn(SweepOptions) -> Result<Run, SweepError> {
    move |sweep| {
        let mut opts = FuzzOptions::new(0xFA57, cases);
        opts.sweep = sweep;
        let report = run_fuzz(&opts)?;
        Ok(Run {
            report: report_json(&opts, &report)
                .lines()
                .filter(|l| !l.contains("elapsed_secs"))
                .collect(),
            sweep: report.sweep,
        })
    }
}

fn inject(seed: u64) -> impl Fn(SweepOptions) -> Result<Run, SweepError> {
    move |sweep| {
        let c = run_campaign_supervised(seed, &sweep)?;
        Ok(Run {
            report: format!("{:?} {:?} {}", c.outcomes, c.job_failures, c.sweep.retries),
            sweep: c.sweep,
        })
    }
}

fn small_trace(app: App, seed: u64) -> Trace {
    let mut params = WorkloadParams::small(app, 4);
    params.footprint_mb = 2;
    params.seed = seed;
    generate(app, &params)
}

fn verify(
    app: App,
    seed: u64,
    config: SystemConfig,
) -> impl Fn(SweepOptions) -> Result<Run, SweepError> {
    move |sweep| {
        let audit = run_verify_replay(small_trace(app, seed), &config, &sweep)?;
        Ok(Run {
            report: format!("{}/{} {:?}", audit.kill_epoch, audit.epochs, audit.verdicts),
            sweep: audit.sweep,
        })
    }
}

#[test]
fn fuzz_resumes_identically_and_refuses_other_parameters() {
    assert_resumes_identically("fuzz", 2, &fuzz(4));
    assert_refused("fuzz-tag", &fuzz(4), &fuzz(5));
}

#[test]
fn inject_resumes_identically_and_refuses_other_parameters() {
    assert_resumes_identically("inject", 4, &inject(42));
    assert_refused("inject-tag", &inject(42), &inject(43));
}

#[test]
fn verify_replay_resumes_identically_and_refuses_other_parameters() {
    let config = SystemConfig::default();
    // C2D has 9 kernels, so the audit kills genuinely mid-run.
    assert_resumes_identically("verify", 2, &verify(App::C2d, 1, config.clone()));
    // The tag pins the whole audit: another workload seed (PR draws its
    // graph from it) or another system configuration is another audit.
    assert_refused(
        "verify-seed",
        &verify(App::Pr, 1, config.clone()),
        &verify(App::Pr, 2, config.clone()),
    );
    let striped = SystemConfig {
        placement: Placement::Striped,
        ..config.clone()
    };
    assert_refused(
        "verify-config",
        &verify(App::C2d, 1, config),
        &verify(App::C2d, 1, striped),
    );
}

/// One checksummed journal record, framed as every version frames it.
fn record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = vec![kind];
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    let sum = fnv1a(&rec);
    rec.extend_from_slice(&sum.to_le_bytes());
    rec
}

/// A journal as an older version wrote it: `Begin`, the record kind that
/// version retired mid-stream (version 1's `Dispatched`, kind 1; version
/// 2's `Interrupted` trailer, kind 3, as a resumed drain leaves it), and
/// one `Adjudicated` record.
fn old_journal(version: u32, tag: u64) -> Vec<u8> {
    let mut bytes = JOURNAL_MAGIC.to_vec();
    bytes.extend_from_slice(&version.to_le_bytes());
    let mut begin = ByteWriter::new();
    begin.u64(tag);
    begin.str("older sweep");
    bytes.extend(record(0, begin.as_slice()));
    let mut retired = ByteWriter::new();
    retired.u64(0);
    if version == 1 {
        retired.u32(1);
        bytes.extend(record(1, retired.as_slice()));
    } else {
        bytes.extend(record(3, retired.as_slice()));
    }
    let mut adjudicated = ByteWriter::new();
    adjudicated.u64(0);
    adjudicated.u8(0);
    adjudicated.u32(1);
    adjudicated.bytes(b"clean");
    bytes.extend(record(2, adjudicated.as_slice()));
    bytes
}

#[test]
fn a_version_1_journal_is_refused_typed_and_left_untouched() {
    for version in [1, 2] {
        refuses_old_journal(version);
    }
}

fn refuses_old_journal(version: u32) {
    let dir = test_dir(&format!("v{version}"));
    let unsupported = JournalError::UnsupportedVersion {
        found: version,
        expected: JOURNAL_VERSION,
    };

    let path = dir.join("writer.jnl");
    let old = old_journal(version, 7);
    std::fs::write(&path, &old).expect("write the old journal");
    match JournalWriter::resume(&path, 7) {
        Err(e) => assert_eq!(e, unsupported),
        Ok(_) => panic!("a version {version} journal was resumed"),
    }
    assert_eq!(std::fs::read(&path).expect("read back"), old);

    let path = dir.join("fuzz.jnl");
    std::fs::write(&path, &old).expect("write the old journal");
    match fuzz(2)(options(Some(&path), true, 1)) {
        Err(SweepError::Resume { error, .. }) => assert_eq!(error, unsupported),
        Err(e) => panic!("expected a resume refusal, got: {e}"),
        Ok(_) => panic!("a version {version} journal was resumed"),
    }
    assert_eq!(std::fs::read(&path).expect("read back"), old);

    let state = dir.join("serve");
    std::fs::create_dir_all(&state).expect("mkdir");
    let path = state.join(oasis::serve::JOURNAL_FILE);
    let old = old_journal(version, oasis::serve::queue_tag());
    std::fs::write(&path, &old).expect("write the old journal");
    let served = oasis::serve::run_serve(
        oasis::serve::ServeConfig::new(state.clone()),
        StopHandle::new(),
        |_| panic!("the server bound a port over a version {version} journal"),
    );
    match served {
        Err(msg) => {
            assert!(msg.contains(&path.display().to_string()), "{msg}");
            assert!(msg.contains(&unsupported.to_string()), "{msg}");
        }
        Ok(_) => panic!("the server resumed a version {version} journal"),
    }
    assert_eq!(std::fs::read(&path).expect("read back"), old);
    std::fs::remove_dir_all(&dir).ok();
}
