//! The sweep server end to end, in process: two connections in a closed
//! loop over small scenarios and then their repeats, followed by a drain;
//! and one supervision case on the pool's open job feed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use oasis::engine::pool::{open_feed, supervise, Job, JobError, JobOutcome, PoolConfig};
use oasis::engine::StopHandle;
use oasis::fuzz::{scenario_digest, to_json_line, Scenario};
use oasis::serve::{parse_event, run_serve, ServeConfig, ServerEvent};

/// Generated scenarios with the smallest footprint and a single kernel, so
/// the oracle stays quick in a debug build.
fn small_scenarios(n: usize) -> Vec<Scenario> {
    (0..)
        .map(Scenario::generate)
        .filter(|s| s.footprint_mb == 2 && s.max_phases == 1 && !s.large_pages)
        .take(n)
        .collect()
}

/// One answered submission: its result without the `cached` flag, and the
/// flag.
type Answer = (String, bool);

/// Sends `scenario` on one connection and reads events until its result.
fn round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    scenario: &Scenario,
) -> Answer {
    let digest = scenario_digest(scenario);
    writer
        .write_all(format!("{}\n", to_json_line(scenario)).as_bytes())
        .expect("send");
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "server hung up"
        );
        match parse_event(line.trim_end()).expect("event parses") {
            ServerEvent::Result {
                digest: d,
                outcome,
                verdict,
                cached,
                attempts,
            } if d == digest => {
                return (
                    format!("{d:016x} {outcome}: {verdict} ({attempts})"),
                    cached,
                );
            }
            ServerEvent::Rejected { reason, .. } => panic!("rejected: {reason}"),
            _ => {}
        }
    }
}

/// Runs `scenarios` through two connections, each with one job in flight,
/// and returns the answers in scenario order.
fn closed_loop(port: u16, scenarios: &[Scenario]) -> Vec<Answer> {
    let cursor = AtomicUsize::new(0);
    let mut answers: Vec<(usize, Answer)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut writer = TcpStream::connect(("127.0.0.1", port)).expect("connect");
                    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
                    let mut answered = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            return answered;
                        };
                        answered.push((i, round_trip(&mut reader, &mut writer, scenario)));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    answers.sort_by_key(|(i, _)| *i);
    answers.into_iter().map(|(_, a)| a).collect()
}

#[test]
fn two_connections_get_misses_then_byte_equal_cache_hits_then_drain() {
    let state = std::env::temp_dir().join(format!("oasis-serve-round-trip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut cfg = ServeConfig::new(state.clone());
    cfg.pool = PoolConfig::with_workers(2);
    let stop = StopHandle::new();
    let (port_tx, port_rx) = mpsc::channel();
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            run_serve(cfg, stop, move |port| {
                let _ = port_tx.send(port);
            })
        })
    };
    let port = port_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the server announces its port");

    let scenarios = small_scenarios(4);
    // Every miss has resolved before the repeats start, so each repeat
    // must be answered from the cache.
    let misses = closed_loop(port, &scenarios);
    let hits = closed_loop(port, &scenarios);
    for (miss, hit) in misses.iter().zip(&hits) {
        assert!(miss.0.contains(" completed: "), "{}", miss.0);
        assert!(!miss.1, "a first submission is computed: {}", miss.0);
        assert!(hit.1, "a repeat is a cache hit: {}", hit.0);
        assert_eq!(hit.0, miss.0, "a hit is byte-equal to its miss");
    }

    stop.stop();
    let summary = server.join().expect("server thread").expect("serve result");
    assert!(summary.journal_error.is_none());
    assert_eq!(summary.adjudicated, scenarios.len() as u64);
    let counter = |key: &str| {
        summary
            .counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    };
    let answered =
        counter("serve.accepted") + counter("serve.coalesced") + counter("serve.cache_hits");
    assert_eq!(answered, 2 * scenarios.len() as u64);
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn a_panicking_job_on_the_feed_is_contained_and_quarantined() {
    let (feed, intake) = open_feed();
    let pool = std::thread::spawn(move || {
        supervise(&PoolConfig::with_workers(2), intake, Default::default())
    });
    feed.submit(7, Job::new("panics", || panic!("deliberate panic")));
    feed.submit(9, Job::new("healthy", || Ok(3u64)));
    drop(feed);
    let report = pool.join().expect("the supervisor survives the panic");
    assert_eq!(report.jobs[0].id, 7);
    match &report.jobs[0].outcome {
        JobOutcome::Quarantined(JobError::Panicked(msg)) => {
            assert!(msg.contains("deliberate panic"), "{msg}");
        }
        other => panic!("expected a quarantined panic, got {other:?}"),
    }
    assert_eq!(report.jobs[1].id, 9);
    assert_eq!(report.jobs[1].outcome.value(), Some(&3));
}
