//! The `submit` client: connect to a sweep server, send a batch of
//! scenario jobs, stream progress, and collect verdicts.
//!
//! The client keeps its stdout deterministic on purpose: one
//! `result <digest> ...` line per submitted scenario, in submission
//! order, containing only content-derived fields (digest, outcome,
//! verdict). Everything run-dependent — accept acks, dispatch and
//! progress events, cache-hit markers, counter snapshots — goes to the
//! progress stream (the CLI prints it to stderr). That split is what lets
//! the kill/restart gates `cmp` two runs byte for byte.
//!
//! Each request line goes out with its newline in one `write(2)`: written
//! apart they would leave as two TCP segments under `TCP_NODELAY`.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use oasis_fuzz::{scenario_digest, to_json_line, Scenario};

use crate::protocol::{digest_hex, parse_event, LinePoll, LineReader, ServerEvent, MAX_LINE_BYTES};

/// What one batch submission produced.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// One line per submitted scenario, submission order — deterministic
    /// across runs, restarts, and cache hits.
    pub results: Vec<String>,
    /// Run-dependent narration (accepts, dispatches, progress, cache
    /// markers, rejections), in arrival order.
    pub progress: Vec<String>,
    /// Server counter snapshot, if requested.
    pub stats: Vec<(String, u64)>,
    /// Scenarios that did not end in a completed verdict (failed,
    /// quarantined, or rejected).
    pub failed: usize,
}

/// The terminal state of one submitted digest, as the client records it.
#[derive(Debug, Clone)]
enum Resolution {
    Verdict { outcome: String, verdict: String },
    Rejected { reason: String, detail: String },
}

fn result_line(digest: u64, res: &Resolution) -> String {
    match res {
        Resolution::Verdict { outcome, verdict } => {
            format!("result {} {outcome}: {verdict}", digest_hex(digest))
        }
        Resolution::Rejected { reason, detail } => {
            format!("result {} rejected: {reason}: {detail}", digest_hex(digest))
        }
    }
}

/// Submits `scenarios` to the server at `127.0.0.1:port` and waits for
/// every one to resolve (verdict or typed rejection).
///
/// Duplicate scenarios in the batch are sent once each; the server
/// answers per distinct digest and the client fans the resolution out to
/// every submission slot, so `results.len() == scenarios.len()` always.
///
/// # Errors
///
/// Returns a message for connection failures, protocol breaches (a line
/// the client cannot parse), a server that closes the stream with
/// submissions outstanding, or an overall `timeout` expiry.
pub fn submit_batch(
    port: u16,
    scenarios: &[Scenario],
    want_stats: bool,
    timeout: Duration,
) -> Result<SubmitOutcome, String> {
    let stream = TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("submit: cannot connect to 127.0.0.1:{port}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("submit: set_read_timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("submit: clone stream: {e}"))?;
    let mut reader = LineReader::new(stream, MAX_LINE_BYTES);

    // digest -> submission slots awaiting it (duplicates share a digest).
    let mut slots: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut sent = 0usize;
    for (idx, scenario) in scenarios.iter().enumerate() {
        let digest = scenario_digest(scenario);
        let fresh = !slots.contains_key(&digest);
        slots.entry(digest).or_default().push(idx);
        if fresh {
            let line = format!("{}\n", to_json_line(scenario));
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("submit: send: {e}"))?;
            sent += 1;
        }
    }
    let mut progress = vec![format!(
        "sent {sent} distinct scenario(s) for {} submission(s)",
        scenarios.len()
    )];

    let mut resolved: BTreeMap<u64, Resolution> = BTreeMap::new();
    let mut stats: Vec<(String, u64)> = Vec::new();
    let mut stats_pending = false;
    let deadline = Instant::now() + timeout;

    while resolved.len() < slots.len() || stats_pending {
        if Instant::now() >= deadline {
            return Err(format!(
                "submit: timed out after {timeout:?} with {} of {} digest(s) unresolved",
                slots.len() - resolved.len(),
                slots.len()
            ));
        }
        let line = match reader.poll_line() {
            Ok(LinePoll::Line(l)) => l,
            Ok(LinePoll::Pending) => continue,
            Ok(LinePoll::Eof) => {
                return Err(format!(
                    "submit: server closed the stream with {} digest(s) unresolved",
                    slots.len() - resolved.len()
                ));
            }
            Err(e) => return Err(format!("submit: {e}")),
        };
        if line.is_empty() {
            continue;
        }
        let text = String::from_utf8(line).map_err(|_| "submit: non-UTF-8 event".to_string())?;
        match parse_event(&text).map_err(|e| format!("submit: unparsable event: {e} ({text})"))? {
            ServerEvent::Accepted {
                digest, coalesced, ..
            } => {
                progress.push(format!(
                    "accepted {}{}",
                    digest_hex(digest),
                    if coalesced { " (coalesced)" } else { "" }
                ));
            }
            ServerEvent::Dispatched { digest, attempt } => {
                progress.push(format!(
                    "dispatched {} attempt {attempt}",
                    digest_hex(digest)
                ));
            }
            ServerEvent::Progress { digest, counts } => {
                let detail: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
                progress.push(format!(
                    "progress {} {}",
                    digest_hex(digest),
                    detail.join(" ")
                ));
            }
            ServerEvent::Result {
                digest,
                outcome,
                verdict,
                cached,
                attempts,
            } => {
                progress.push(format!(
                    "resolved {} ({outcome}, {attempts} attempt(s){})",
                    digest_hex(digest),
                    if cached { ", cached" } else { "" }
                ));
                resolved
                    .entry(digest)
                    .or_insert(Resolution::Verdict { outcome, verdict });
            }
            ServerEvent::Rejected {
                digest,
                reason,
                detail,
            } => {
                progress.push(format!("rejected {} ({reason})", digest_hex(digest)));
                resolved
                    .entry(digest)
                    .or_insert(Resolution::Rejected { reason, detail });
            }
            ServerEvent::Error { code, detail } => {
                return Err(format!("submit: server reported {code}: {detail}"));
            }
            ServerEvent::Stats(counters) => {
                stats = counters;
                stats_pending = false;
            }
            ServerEvent::Pong => {}
        }
        if want_stats && resolved.len() == slots.len() && !stats_pending && stats.is_empty() {
            writer
                .write_all(b"stats\n")
                .map_err(|e| format!("submit: send stats: {e}"))?;
            stats_pending = true;
        }
    }

    // Handle the all-duplicates / zero-wait edge where the loop body never
    // sent the stats request.
    if want_stats && stats.is_empty() && !stats_pending {
        writer
            .write_all(b"stats\n")
            .map_err(|e| format!("submit: send stats: {e}"))?;
        loop {
            if Instant::now() >= deadline {
                return Err("submit: timed out waiting for stats".to_string());
            }
            match reader.poll_line() {
                Ok(LinePoll::Line(l)) => {
                    let text =
                        String::from_utf8(l).map_err(|_| "submit: non-UTF-8 event".to_string())?;
                    if text.is_empty() {
                        continue;
                    }
                    if let ServerEvent::Stats(counters) =
                        parse_event(&text).map_err(|e| format!("submit: unparsable event: {e}"))?
                    {
                        stats = counters;
                        break;
                    }
                }
                Ok(LinePoll::Pending) => continue,
                Ok(LinePoll::Eof) => {
                    return Err("submit: server closed the stream before stats".to_string())
                }
                Err(e) => return Err(format!("submit: {e}")),
            }
        }
    }

    let mut results = Vec::with_capacity(scenarios.len());
    let mut failed = 0usize;
    for scenario in scenarios {
        let digest = scenario_digest(scenario);
        let res = resolved
            .get(&digest)
            .expect("loop exits only when every digest resolved");
        if !matches!(
            res,
            Resolution::Verdict { outcome, .. } if outcome == "completed"
        ) {
            failed += 1;
        }
        results.push(result_line(digest, res));
    }

    Ok(SubmitOutcome {
        results,
        progress,
        stats,
        failed,
    })
}

/// [`submit_batch`] with bounded deterministic retry: transient connect
/// failures retry the whole batch, typed `overloaded` rejections retry
/// only the shed scenarios, each wait doubling from `backoff`. `retries`
/// is the total extra-attempt budget shared by both cases; `0` makes this
/// exactly [`submit_batch`].
///
/// Retried resolutions are spliced back into their original submission
/// slots, so `results` keeps its one-line-per-scenario submission-order
/// contract and two runs that converge produce byte-identical stdout.
///
/// # Errors
///
/// Returns the final attempt's message once the budget is exhausted —
/// annotated with the attempt count for connect failures — so the caller's
/// exit code is exactly what a retry-free run would have produced.
pub fn submit_batch_with_retry(
    port: u16,
    scenarios: &[Scenario],
    want_stats: bool,
    timeout: Duration,
    retries: u32,
    backoff: Duration,
) -> Result<SubmitOutcome, String> {
    let mut attempt = 0u32;
    let mut delay = backoff;
    let mut pre_progress: Vec<String> = Vec::new();
    let mut out = loop {
        match submit_batch(port, scenarios, want_stats, timeout) {
            Ok(out) => break out,
            Err(e) if e.contains("cannot connect") => {
                if attempt >= retries {
                    return Err(format!("{e} (after {} attempt(s))", attempt + 1));
                }
                attempt += 1;
                pre_progress.push(format!(
                    "connect failed; retry {attempt}/{retries} in {}ms",
                    delay.as_millis()
                ));
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    };
    if !pre_progress.is_empty() {
        pre_progress.append(&mut out.progress);
        out.progress = pre_progress;
    }

    loop {
        let overloaded: Vec<usize> = out
            .results
            .iter()
            .enumerate()
            .filter(|(_, line)| line.contains(" rejected: overloaded: "))
            .map(|(i, _)| i)
            .collect();
        if overloaded.is_empty() || attempt >= retries {
            break;
        }
        attempt += 1;
        // One resubmission per distinct shed digest; duplicates share it.
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let retry_scenarios: Vec<Scenario> = overloaded
            .iter()
            .filter(|&&i| seen.insert(scenario_digest(&scenarios[i])))
            .map(|&i| scenarios[i].clone())
            .collect();
        out.progress.push(format!(
            "{} scenario(s) shed as overloaded; retry {attempt}/{retries} in {}ms",
            retry_scenarios.len(),
            delay.as_millis()
        ));
        std::thread::sleep(delay);
        delay = delay.saturating_mul(2);
        let retry_out = submit_batch(port, &retry_scenarios, false, timeout)?;
        let by_digest: BTreeMap<u64, &String> = retry_scenarios
            .iter()
            .map(scenario_digest)
            .zip(&retry_out.results)
            .collect();
        for &i in &overloaded {
            if let Some(line) = by_digest.get(&scenario_digest(&scenarios[i])) {
                out.results[i] = (*line).clone();
            }
        }
        out.progress.extend(retry_out.progress);
    }
    out.failed = out
        .results
        .iter()
        .filter(|line| !line.contains(" completed: "))
        .count();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{run_serve, ServeConfig};
    use oasis_engine::{PoolConfig, StopHandle};
    use std::sync::mpsc;

    fn start_server(name: &str) -> (StopHandle, u16, std::thread::JoinHandle<()>) {
        start_server_with(name, |_| {})
    }

    fn start_server_with(
        name: &str,
        tune: impl FnOnce(&mut ServeConfig),
    ) -> (StopHandle, u16, std::thread::JoinHandle<()>) {
        let dir =
            std::env::temp_dir().join(format!("oasis-serve-client-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig::new(dir);
        cfg.pool = PoolConfig::with_workers(2);
        tune(&mut cfg);
        let stop = StopHandle::new();
        let stop2 = stop.clone();
        let (ptx, prx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_serve(cfg, stop2, move |p| {
                let _ = ptx.send(p);
            })
            .expect("serve run");
        });
        let port = prx
            .recv_timeout(Duration::from_secs(30))
            .expect("port announce");
        (stop, port, handle)
    }

    /// End-to-end through real sockets: duplicates collapse onto one
    /// computed job, results stay in submission order, a re-submission is
    /// answered from the cache, and the counters prove zero recompute.
    #[test]
    fn duplicate_batch_resolves_every_slot_in_order() {
        let (stop, port, handle) = start_server("dupes");
        let a = Scenario::generate(31);
        let b = Scenario::generate(32);
        let batch = vec![a.clone(), b.clone(), a.clone(), a.clone()];

        let out = submit_batch(port, &batch, true, Duration::from_secs(300)).expect("submit");
        assert_eq!(out.results.len(), 4);
        // Slots 0, 2, 3 share scenario `a`: identical lines.
        assert_eq!(out.results[0], out.results[2]);
        assert_eq!(out.results[0], out.results[3]);
        assert!(out.results[0].contains(&digest_hex(scenario_digest(&a))));
        assert!(out.results[1].contains(&digest_hex(scenario_digest(&b))));
        assert_eq!(out.failed, 0);

        // Second batch: same scenarios, now pure cache hits, and stdout
        // bytes match the first run exactly.
        let again = submit_batch(port, &batch, true, Duration::from_secs(300)).expect("resubmit");
        assert_eq!(out.results, again.results);
        let hits = again
            .stats
            .iter()
            .find(|(k, _)| k == "serve.cache_hits")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(hits >= 2, "expected cache hits on resubmission, got {hits}");

        stop.stop();
        handle.join().expect("server thread");
    }

    /// Connect-failure retry: the budget is consumed deterministically,
    /// the backoff actually elapses, and exhaustion surfaces the original
    /// connect error annotated with the attempt count — so the CLI's
    /// failure exit is identical to a retry-free run's.
    #[test]
    fn connect_retry_exhaustion_preserves_the_error() {
        // Bind then drop to get a port with nothing listening on it.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind probe");
        let port = listener.local_addr().expect("addr").port();
        drop(listener);

        let batch = vec![Scenario::generate(5)];
        let t0 = Instant::now();
        let err = submit_batch_with_retry(
            port,
            &batch,
            false,
            Duration::from_secs(5),
            2,
            Duration::from_millis(10),
        )
        .expect_err("no server must exhaust the retry budget");
        assert!(err.contains("cannot connect"), "{err}");
        assert!(err.contains("after 3 attempt(s)"), "{err}");
        // 10ms + 20ms of doubling backoff must actually have elapsed.
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "{:?}",
            t0.elapsed()
        );
    }

    /// Overload shedding is recoverable: a burst against a depth-1 queue
    /// sheds most of the batch, and the retry loop resubmits exactly the
    /// shed scenarios until every submission slot holds a verdict.
    #[test]
    fn overloaded_shed_jobs_are_retried_to_completion() {
        let (stop, port, handle) = start_server_with("overload-retry", |cfg| {
            cfg.queue_depth = 1;
            cfg.pool = PoolConfig::with_workers(1);
        });
        let batch: Vec<Scenario> = (50..56).map(Scenario::generate).collect();
        let out = submit_batch_with_retry(
            port,
            &batch,
            false,
            Duration::from_secs(300),
            10,
            Duration::from_millis(50),
        )
        .expect("retried submit");
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.failed, 0, "unresolved slots: {:#?}", out.results);
        assert!(
            out.results.iter().all(|l| l.contains(" completed: ")),
            "{:#?}",
            out.results
        );
        // Depth 1 against a 6-job burst must have shed something, so the
        // retry loop must have narrated at least one resubmission.
        assert!(
            out.progress.iter().any(|l| l.contains("overloaded; retry")),
            "{:#?}",
            out.progress
        );
        stop.stop();
        handle.join().expect("server thread");
    }
}
