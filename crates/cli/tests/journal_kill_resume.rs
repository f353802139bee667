//! End-to-end kill resilience for journaled sweeps, against the real
//! `oasis-sim` binary:
//!
//! * SIGKILL (uncatchable, mid-anything) partway through `fuzz --journal`,
//!   then `--resume-sweep` → stdout byte-identical to an uninterrupted
//!   run, and the journal adjudicates every case exactly once.
//! * SIGTERM → the sweep drains, leaving a journal that ends on a whole
//!   record, and exits with the resumable code 75; the resume finishes
//!   the report.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use oasis_engine::journal::recover;

const BIN: &str = env!("CARGO_BIN_EXE_oasis-sim");
const SEED: &str = "7";
const CASES: &str = "8";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn fuzz_cmd(corpus: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(["fuzz", "--seed", SEED, "--cases", CASES, "--jobs", "2"])
        .args(["--corpus-dir", corpus.to_str().expect("utf-8")])
        .arg("--json")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Stdout with the one wall-clock line removed.
fn deterministic_stdout(out: &[u8]) -> String {
    String::from_utf8_lossy(out)
        .lines()
        .filter(|l| !l.contains("elapsed_secs"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Waits up to `limit` for the child; panics (after killing it) on hang.
fn wait_with_deadline(mut child: Child, limit: Duration) -> std::process::Output {
    let start = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("wait_with_output"),
            None if start.elapsed() > limit => {
                child.kill().ok();
                panic!("child did not exit within {limit:?}");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[test]
fn sigkill_midway_then_resume_is_byte_identical() {
    let dir = temp_dir("sigkill");
    let journal = dir.join("sweep.jnl");

    // Reference: the identical sweep, no journal, straight through.
    let straight = fuzz_cmd(&dir, &[]).output().expect("straight run");
    assert!(
        straight.status.success(),
        "straight run failed: {straight:?}"
    );
    let reference = deterministic_stdout(&straight.stdout);

    // Journaled run, SIGKILLed while cases are still in flight. If the
    // machine is so fast the sweep already finished, the test degrades to
    // resuming a complete journal — still a valid identity check.
    let mut child = fuzz_cmd(&dir, &["--journal", journal.to_str().expect("utf-8")])
        .spawn()
        .expect("spawn journaled run");
    std::thread::sleep(Duration::from_millis(2500));
    child.kill().ok(); // SIGKILL on Unix: no drain
    child.wait().expect("reap killed child");
    assert!(journal.exists(), "journal must exist after the kill");

    // Resume: exit 0, stdout byte-identical to the uninterrupted run.
    let resumed = fuzz_cmd(
        &dir,
        &[
            "--journal",
            journal.to_str().expect("utf-8"),
            "--resume-sweep",
        ],
    )
    .output()
    .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resume failed: status {:?}, stderr: {}",
        resumed.status,
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        reference,
        deterministic_stdout(&resumed.stdout),
        "resumed report diverged from the straight run"
    );

    // The journal's own history: a case that ran again after its
    // adjudication would hold a second `Adjudicated` record.
    let rec = recover(&journal).expect("journal recovers");
    assert_eq!(rec.adjudicated.len(), 8, "all cases adjudicated in the end");
    assert!(
        rec.duplicate_adjudications.is_empty(),
        "cases {:?} adjudicated twice",
        rec.duplicate_adjudications
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg(unix)]
fn sigterm_drains_to_exit_75_and_resume_finishes() {
    let dir = temp_dir("sigterm");
    let journal = dir.join("sweep.jnl");

    let straight = fuzz_cmd(&dir, &[]).output().expect("straight run");
    assert!(straight.status.success());
    let reference = deterministic_stdout(&straight.stdout);

    let child = fuzz_cmd(&dir, &["--journal", journal.to_str().expect("utf-8")])
        .spawn()
        .expect("spawn journaled run");
    std::thread::sleep(Duration::from_millis(2000));
    // SIGTERM via kill(1): the process should drain and exit 75. (If it
    // finished before the signal landed, it exits 0 — accept both, but
    // only the drain path asserts the journal.)
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    let out = wait_with_deadline(child, Duration::from_secs(120));
    let code = out.status.code();
    assert!(
        code == Some(75) || code == Some(0),
        "expected drain (75) or natural finish (0), got {code:?}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    if code == Some(75) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--resume-sweep"),
            "drain message must say how to resume: {stderr}"
        );
        let rec = recover(&journal).expect("journal recovers");
        assert!(rec.salvage.is_none(), "a drain leaves no torn tail");
        assert!(
            rec.adjudicated.len() <= 8,
            "a drain can never adjudicate more cases than the sweep has"
        );
    }

    let resumed = fuzz_cmd(
        &dir,
        &[
            "--journal",
            journal.to_str().expect("utf-8"),
            "--resume-sweep",
        ],
    )
    .output()
    .expect("resumed run");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(reference, deterministic_stdout(&resumed.stdout));

    std::fs::remove_dir_all(&dir).ok();
}
