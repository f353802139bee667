//! End-to-end crash durability for the sweep server, against the real
//! `oasis-sim` binary over real sockets:
//!
//! * SIGKILL (uncatchable, mid-sweep) the server, restart it on the same
//!   state directory → re-collected results byte-identical to a server
//!   that was never interrupted.
//! * Jobs adjudicated before the kill are answered from the
//!   content-addressed cache with zero recompute (`serve.cache_hits`).
//! * SIGTERM → graceful drain: the server exits with the resumable code
//!   75 and its message names the state directory to resume with.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_oasis-sim");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A running `oasis-sim serve` child plus the port it announced.
struct Server {
    child: Child,
    port: u16,
}

fn spawn_server(state: &Path) -> Server {
    let mut child = Command::new(BIN)
        .args(["serve", "--port", "0", "--jobs", "2"])
        .args(["--serve-state", state.to_str().expect("utf-8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server");
    // The listening line is printed (and flushed) the moment the socket
    // is live; everything after it arrives only at exit.
    let stdout = child.stdout.take().expect("server stdout");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("server prints a listening line")
        .expect("read listening line");
    let port: u16 = line
        .rsplit(':')
        .next()
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparsable listening line: {line}"));
    Server { child, port }
}

fn submit(port: u16, seed: &str, cases: &str) -> std::process::Output {
    Command::new(BIN)
        .args(["submit", "--port", &port.to_string()])
        .args(["--seed", seed, "--cases", cases, "--submit-stats"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("run submit")
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `serve.cache_hits` value from a submit's `--submit-stats` stderr.
fn cache_hits(out: &std::process::Output) -> u64 {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .find_map(|l| {
            l.strip_prefix("submit: stat serve.cache_hits = ")
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Jobs the server's journal holds admitted but not adjudicated; 0 while
/// the journal is not readable yet.
fn pending_jobs(journal: &Path) -> usize {
    oasis_engine::journal::recover(journal).map_or(0, |rec| rec.pending().len())
}

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
fn sigkill_mid_sweep_then_restart_is_byte_identical_and_cached() {
    let reference_state = temp_dir("serve-ref");
    let crash_state = temp_dir("serve-crash");

    // Reference: an uninterrupted server adjudicates the whole batch.
    let reference = {
        let mut server = spawn_server(&reference_state);
        let out = submit(server.port, "99", "4");
        assert!(out.status.success(), "reference submit failed: {out:?}");
        server.child.kill().ok();
        server.child.wait().expect("reap reference server");
        stdout_of(&out)
    };
    assert_eq!(
        reference.lines().count(),
        4,
        "one result line per submission:\n{reference}"
    );

    // Crash run, phase 1: adjudicate a small warm-up batch (so the cache
    // provably holds entries), then SIGKILL the server while a second
    // batch is mid-sweep.
    let mut server = spawn_server(&crash_state);
    let warm = submit(server.port, "7", "2");
    assert!(warm.status.success(), "warm-up submit failed: {warm:?}");
    let warm_stdout = stdout_of(&warm);

    let inflight = Command::new(BIN)
        .args(["submit", "--port", &server.port.to_string()])
        .args(["--seed", "99", "--cases", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn in-flight submit");
    // Kill -9 the server the moment its journal holds a job of the batch
    // admitted and not adjudicated: no drain, results unsent. A verdict is
    // journaled before any client sees it, so a job still pending in the
    // dead server's journal is one whose result never left the server.
    let journal = crash_state.join("serve.jnl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while pending_jobs(&journal) == 0 {
        assert!(Instant::now() < deadline, "the batch was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.child.kill().ok();
    server.child.wait().expect("reap killed server");
    assert!(
        pending_jobs(&journal) > 0,
        "the kill must land while a job of the batch is unadjudicated"
    );
    // The orphaned client must fail fast (EOF), not hang.
    let orphan = wait_with_deadline(inflight, Duration::from_secs(60));
    assert!(
        !orphan.status.success(),
        "client should report the lost server"
    );

    assert!(journal.exists(), "journal must survive the kill");

    // Phase 2: restart on the same state directory.
    let mut server = spawn_server(&crash_state);

    // (a) The warm-up batch is answered from the cache: byte-identical
    // stdout and a nonzero cache-hit counter — zero recompute.
    let warm_again = submit(server.port, "7", "2");
    assert!(
        warm_again.status.success(),
        "cached submit failed: {warm_again:?}"
    );
    assert_eq!(
        warm_stdout,
        stdout_of(&warm_again),
        "cached results diverged from the originals"
    );
    assert!(
        cache_hits(&warm_again) >= 2,
        "expected >= 2 cache hits, stderr: {}",
        String::from_utf8_lossy(&warm_again.stderr)
    );

    // (b) The killed batch converges to the reference bytes: jobs that
    // adjudicated before the kill come from the backfilled cache, the
    // rest are re-run from the journaled queue.
    let recollected = submit(server.port, "99", "4");
    assert!(
        recollected.status.success(),
        "re-collect failed: {recollected:?}"
    );
    assert_eq!(
        reference,
        stdout_of(&recollected),
        "post-crash results diverged from an uninterrupted server's"
    );

    server.child.kill().ok();
    server.child.wait().expect("reap server");
    std::fs::remove_dir_all(&reference_state).ok();
    std::fs::remove_dir_all(&crash_state).ok();
}

#[test]
#[cfg(unix)]
fn sigterm_drains_to_exit_75_with_resume_hint() {
    let state = temp_dir("serve-drain");
    let server = spawn_server(&state);

    // A served job proves the socket works before the drain.
    let out = submit(server.port, "3", "1");
    assert!(out.status.success(), "submit failed: {out:?}");

    let _ = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    let out = wait_with_deadline(server.child, Duration::from_secs(120));
    assert_eq!(
        out.status.code(),
        Some(75),
        "graceful drain must exit EX_TEMPFAIL; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--serve-state"),
        "drain message must say how to resume: {stderr}"
    );

    // The drained journal recovers whole, the served job adjudicated.
    let rec = oasis_engine::journal::recover(&state.join("serve.jnl")).expect("journal recovers");
    assert!(rec.salvage.is_none(), "a drain leaves no torn tail");
    assert_eq!(rec.adjudicated.len(), 1);
    assert!(rec.pending().is_empty());

    std::fs::remove_dir_all(&state).ok();
}
