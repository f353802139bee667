//! Supervision-layer proof tests for `oasis_engine::pool`.
//!
//! A test-only `JobKind` harness drives the three failure modes the pool
//! must contain — panics, hangs, and transient failures — and each test
//! asserts the *deterministic* part of the resulting `SweepReport`
//! (outcomes, attempt counts, backoff bookkeeping, quarantine list,
//! job-id ordering). The wall-clock and worker-id fields are explicitly
//! nondeterministic and are never asserted on. The open-feed cases gate
//! their jobs with channels, not sleeps.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use oasis_engine::pool::{
    open_feed, run_sweep, run_sweep_controlled, supervise, Intake, Job, JobError, JobOutcome,
    JobRecord, PoolConfig, StopHandle, SweepControl, SweepReport,
};

/// The failure repertoire a supervised job can exercise.
#[derive(Clone)]
enum JobKind {
    /// Completes immediately with `value`.
    Ok { value: u64 },
    /// Panics with a recognizable message after `ms` of real work.
    PanicAfter { ms: u64 },
    /// Spins for up to `ms`, polling the cooperative cancel flag so the
    /// abandoned worker can exit and the test process stays clean.
    HangFor { ms: u64 },
    /// Fails the first `n` attempts with a typed error, then succeeds
    /// with `value`. The shared counter makes the job body `Fn`-safe.
    FailNTimes { n: u32, value: u64 },
}

fn job(label: &str, kind: JobKind) -> Job<u64> {
    let failures = Arc::new(AtomicU32::new(0));
    Job::new(label, move |ctx| match &kind {
        JobKind::Ok { value } => Ok(*value),
        JobKind::PanicAfter { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            panic!("deliberate panic from job {}", ctx.job_id);
        }
        JobKind::HangFor { ms } => {
            let start = std::time::Instant::now();
            while start.elapsed() < Duration::from_millis(*ms) {
                if ctx.cancelled() {
                    return Err("cancelled by watchdog".to_string());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(0)
        }
        JobKind::FailNTimes { n, value } => {
            if failures.fetch_add(1, Ordering::SeqCst) < *n {
                Err(format!("transient failure on attempt {}", ctx.attempt))
            } else {
                Ok(*value)
            }
        }
    })
}

#[test]
fn a_panicking_job_is_contained_and_typed() {
    let jobs = vec![
        job("healthy-0", JobKind::Ok { value: 10 }),
        job("panicker", JobKind::PanicAfter { ms: 1 }),
        job("healthy-2", JobKind::Ok { value: 30 }),
    ];
    let report = run_sweep(&PoolConfig::with_workers(2), jobs);
    assert_eq!(report.jobs.len(), 3);
    assert_eq!(report.completed(), 2);
    assert_eq!(report.quarantined, vec![1]);
    let rec = &report.jobs[1];
    assert_eq!(rec.label, "panicker");
    assert_eq!(rec.attempts, 1);
    match &rec.outcome {
        JobOutcome::Quarantined(JobError::Panicked(msg)) => {
            assert!(
                msg.contains("deliberate panic from job 1"),
                "panic payload must be preserved, got: {msg}"
            );
        }
        other => panic!("expected a quarantined panic, got {other:?}"),
    }
    // The healthy jobs are untouched by their neighbor's crash.
    assert_eq!(report.jobs[0].outcome.value(), Some(&10));
    assert_eq!(report.jobs[2].outcome.value(), Some(&30));
    assert_eq!(report.metrics.counter("pool.attempts.panicked"), 1);
}

#[test]
fn a_hanging_job_blows_its_deadline_and_the_worker_is_respawned() {
    let jobs = vec![
        job("hang", JobKind::HangFor { ms: 10_000 }),
        job("after-0", JobKind::Ok { value: 1 }),
        job("after-1", JobKind::Ok { value: 2 }),
    ];
    let config = PoolConfig {
        workers: 1, // the hang must not starve the jobs queued behind it
        deadline: Some(Duration::from_millis(100)),
        watchdog_poll: Duration::from_millis(5),
        ..PoolConfig::default()
    };
    let report = run_sweep(&config, jobs);
    assert_eq!(report.completed(), 2);
    assert_eq!(report.quarantined, vec![0]);
    match &report.jobs[0].outcome {
        JobOutcome::Quarantined(JobError::TimedOut { deadline_ms }) => {
            assert_eq!(*deadline_ms, 100);
        }
        other => panic!("expected a quarantined timeout, got {other:?}"),
    }
    assert_eq!(report.jobs[0].attempts, 1);
    // The abandoned worker was replaced so the rest of the queue drained.
    assert!(report.workers_respawned >= 1);
    assert_eq!(report.jobs[1].outcome.value(), Some(&1));
    assert_eq!(report.jobs[2].outcome.value(), Some(&2));
}

#[test]
fn transient_failures_retry_then_succeed_with_backoff_bookkeeping() {
    let jobs = vec![job("flaky", JobKind::FailNTimes { n: 2, value: 99 })];
    let config = PoolConfig {
        max_attempts: 4,
        backoff_base_ms: 10,
        sleep_on_backoff: false, // bookkeeping only: the test is instant
        ..PoolConfig::default()
    };
    let report = run_sweep(&config, jobs);
    let rec = &report.jobs[0];
    assert_eq!(rec.outcome.value(), Some(&99));
    assert_eq!(rec.attempts, 3, "two failures then one success");
    // Doubling backoff: 10 ms after attempt 1, 20 ms after attempt 2.
    assert_eq!(rec.backoff_ms, 30);
    assert_eq!(report.retries, 2);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.metrics.counter("pool.attempts"), 3);
    assert_eq!(report.metrics.counter("pool.attempts.failed"), 2);
    assert_eq!(report.metrics.counter("pool.attempts.completed"), 1);
}

#[test]
fn retry_exhaustion_on_a_typed_error_is_failed_not_quarantined() {
    let jobs = vec![job("doomed", JobKind::FailNTimes { n: 10, value: 0 })];
    let config = PoolConfig {
        max_attempts: 3,
        backoff_base_ms: 5,
        ..PoolConfig::default()
    };
    let report = run_sweep(&config, jobs);
    let rec = &report.jobs[0];
    assert_eq!(rec.attempts, 3);
    // 5 ms + 10 ms of (bookkept) backoff across the two retries.
    assert_eq!(rec.backoff_ms, 15);
    match &rec.outcome {
        JobOutcome::Failed(JobError::Failed(msg)) => {
            assert!(msg.contains("attempt 3"), "last error is kept, got: {msg}");
        }
        other => panic!("expected a typed Failed outcome, got {other:?}"),
    }
    // A typed failure never endangered a worker: no quarantine.
    assert!(report.quarantined.is_empty());
    assert_eq!(report.workers_respawned, 0);
}

#[test]
fn a_repeatedly_panicking_job_is_quarantined_after_exhaustion() {
    let jobs = vec![
        job("crasher", JobKind::PanicAfter { ms: 0 }),
        job("bystander", JobKind::Ok { value: 7 }),
    ];
    let config = PoolConfig {
        workers: 2,
        max_attempts: 3,
        backoff_base_ms: 1,
        ..PoolConfig::default()
    };
    let report = run_sweep(&config, jobs);
    let rec = &report.jobs[0];
    assert_eq!(rec.attempts, 3, "panics are retried up to the budget");
    assert!(matches!(
        rec.outcome,
        JobOutcome::Quarantined(JobError::Panicked(_))
    ));
    assert_eq!(report.quarantined, vec![0]);
    assert_eq!(report.retries, 2);
    assert_eq!(report.jobs[1].outcome.value(), Some(&7));
    assert_eq!(report.metrics.counter("pool.attempts.panicked"), 3);
}

#[test]
fn racing_completions_against_the_deadline_never_wedge_the_sweep() {
    // Regression: a worker that finished its attempt just as the watchdog
    // reported it expired could be abandoned *after* it had dequeued its
    // next attempt — that attempt's result was then discarded and never
    // re-queued, so the sweep spun forever one job short. Jobs here run
    // for almost exactly the deadline, so Done and Expired race
    // constantly; the sweep must still adjudicate every job.
    let jobs: Vec<Job<u64>> = (0..48u64)
        .map(|i| {
            Job::new(format!("edge-{i}"), move |ctx| {
                let start = std::time::Instant::now();
                while start.elapsed() < Duration::from_millis(20) {
                    if ctx.cancelled() {
                        return Err("cancelled by watchdog".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(i)
            })
        })
        .collect();
    let config = PoolConfig {
        workers: 4,
        deadline: Some(Duration::from_millis(20)),
        watchdog_poll: Duration::from_millis(1),
        max_attempts: 2,
        ..PoolConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_sweep(&config, jobs));
    });
    let report = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("sweep wedged: a job racing the deadline was lost without adjudication");
    assert_eq!(report.jobs.len(), 48);
    for rec in &report.jobs {
        match &rec.outcome {
            JobOutcome::Completed(v) => assert_eq!(*v, rec.id),
            JobOutcome::Quarantined(JobError::TimedOut { .. }) => {}
            other => panic!("job {} ended unexpectedly: {other:?}", rec.id),
        }
    }
}

#[test]
fn mixed_sweep_matches_the_issue_acceptance_scenario() {
    // The acceptance criterion: one panicking job plus one hanging job in
    // a sweep must both come back as typed failures with attempt counts,
    // and every other job's result must be identical to a serial run.
    let build = || {
        vec![
            job("ok-0", JobKind::Ok { value: 100 }),
            job("panics", JobKind::PanicAfter { ms: 1 }),
            job("ok-2", JobKind::Ok { value: 102 }),
            job("hangs", JobKind::HangFor { ms: 10_000 }),
            job("ok-4", JobKind::Ok { value: 104 }),
        ]
    };
    let config = |workers| PoolConfig {
        workers,
        deadline: Some(Duration::from_millis(150)),
        watchdog_poll: Duration::from_millis(5),
        ..PoolConfig::default()
    };
    let parallel = run_sweep(&config(4), build());
    let serial = run_sweep(&config(1), build());
    for report in [&parallel, &serial] {
        assert_eq!(report.jobs.len(), 5);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.quarantined, vec![1, 3]);
        assert!(matches!(
            report.jobs[1].outcome,
            JobOutcome::Quarantined(JobError::Panicked(_))
        ));
        assert_eq!(report.jobs[1].attempts, 1);
        assert!(matches!(
            report.jobs[3].outcome,
            JobOutcome::Quarantined(JobError::TimedOut { .. })
        ));
        assert_eq!(report.jobs[3].attempts, 1);
    }
    // Deterministic fan-out: the survivable results are identical across
    // worker counts, completion order notwithstanding.
    let surviving = |r: &oasis_engine::pool::SweepReport<u64>| {
        r.jobs
            .iter()
            .map(|j| {
                (
                    j.id,
                    j.label.clone(),
                    j.outcome.value().copied(),
                    j.attempts,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(surviving(&parallel), surviving(&serial));
}

#[test]
fn a_pre_raised_stop_halts_every_job_without_dispatching() {
    let stop = StopHandle::new();
    stop.stop();
    let mut dispatched = Vec::new();
    let mut on_dispatch = |id: u64, attempt: u32| dispatched.push((id, attempt));
    let report = run_sweep_controlled(
        &PoolConfig::with_workers(2),
        vec![
            job("never-0", JobKind::Ok { value: 1 }),
            job("never-1", JobKind::Ok { value: 2 }),
        ],
        SweepControl {
            stop: Some(stop),
            on_dispatch: Some(&mut on_dispatch),
            on_adjudicated: None,
        },
    );
    assert!(report.interrupted);
    assert!(report.jobs.is_empty(), "nothing was adjudicated");
    assert_eq!(report.halted, vec![0, 1], "both jobs drained unrecorded");
    // The initial fan-out observed the dispatches before the supervisor
    // noticed the stop — exactly what a write-ahead journal needs: an
    // attempt may be recorded and then never adjudicated, never the
    // reverse.
    assert_eq!(dispatched, vec![(0, 1), (1, 1)]);
}

#[test]
fn a_mid_sweep_stop_drains_the_queue_and_keeps_finished_work() {
    // Worker 1 + a gate inside job 0: the sweep is stopped while job 0 is
    // in flight, so job 0 adjudicates normally and jobs 1..4 are halted.
    let stop = StopHandle::new();
    let gate = {
        let stop = stop.clone();
        move |_ctx: &oasis_engine::pool::JobCtx| {
            stop.stop();
            // Give the supervisor time to notice before finishing, so the
            // queued jobs are reliably drained rather than dispatched.
            std::thread::sleep(Duration::from_millis(50));
            Ok(42u64)
        }
    };
    let mut jobs = vec![Job::new("gate", gate)];
    for i in 1..4u64 {
        jobs.push(job(&format!("queued-{i}"), JobKind::Ok { value: i }));
    }
    let mut adjudicated = Vec::new();
    let mut on_adjudicated =
        |rec: &oasis_engine::pool::JobRecord<u64>| adjudicated.push((rec.id, rec.attempts));
    let report = run_sweep_controlled(
        &PoolConfig::with_workers(1),
        jobs,
        SweepControl {
            stop: Some(stop.clone()),
            on_dispatch: None,
            on_adjudicated: Some(&mut on_adjudicated),
        },
    );
    assert!(report.interrupted);
    assert!(stop.is_stopped());
    assert_eq!(report.jobs.len(), 1, "only the in-flight job finished");
    assert_eq!(report.jobs[0].outcome.value(), Some(&42));
    assert_eq!(report.halted, vec![1, 2, 3]);
    assert_eq!(adjudicated, vec![(0, 1)]);
}

#[test]
fn stop_suppresses_retries_but_adjudicates_the_failure() {
    // The job fails every attempt and raises the stop during the first:
    // instead of burning the remaining attempts the supervisor finalizes
    // it as Failed with attempts=1.
    let stop = StopHandle::new();
    let flaky = {
        let stop = stop.clone();
        move |ctx: &oasis_engine::pool::JobCtx| -> Result<u64, String> {
            stop.stop();
            std::thread::sleep(Duration::from_millis(30));
            Err(format!("transient failure on attempt {}", ctx.attempt))
        }
    };
    let config = PoolConfig {
        workers: 1,
        max_attempts: 5,
        backoff_base_ms: 1,
        ..PoolConfig::default()
    };
    let report = run_sweep_controlled(
        &config,
        vec![Job::new("flaky", flaky)],
        SweepControl {
            stop: Some(stop),
            on_dispatch: None,
            on_adjudicated: None,
        },
    );
    assert!(report.interrupted);
    let rec = &report.jobs[0];
    assert_eq!(rec.attempts, 1, "no retry after the stop was raised");
    assert!(matches!(
        rec.outcome,
        JobOutcome::Failed(JobError::Failed(_))
    ));
    assert_eq!(report.retries, 0);
}

#[test]
fn an_unstopped_controlled_sweep_matches_run_sweep_and_journals_every_step() {
    let build = || {
        vec![
            job("ok", JobKind::Ok { value: 5 }),
            job("flaky", JobKind::FailNTimes { n: 1, value: 6 }),
        ]
    };
    let config = PoolConfig {
        workers: 2,
        max_attempts: 3,
        backoff_base_ms: 1,
        sleep_on_backoff: false,
        ..PoolConfig::default()
    };
    let mut dispatched = Vec::new();
    let mut adjudicated = Vec::new();
    let mut on_dispatch = |id: u64, attempt: u32| dispatched.push((id, attempt));
    let mut on_adjudicated =
        |rec: &oasis_engine::pool::JobRecord<u64>| adjudicated.push((rec.id, rec.attempts));
    let controlled = run_sweep_controlled(
        &config,
        build(),
        SweepControl {
            stop: None,
            on_dispatch: Some(&mut on_dispatch),
            on_adjudicated: Some(&mut on_adjudicated),
        },
    );
    let plain = run_sweep(&config, build());
    assert!(!controlled.interrupted);
    assert!(controlled.halted.is_empty());
    assert_eq!(controlled.jobs.len(), plain.jobs.len());
    for (c, p) in controlled.jobs.iter().zip(&plain.jobs) {
        assert_eq!(c.outcome.value(), p.outcome.value());
        assert_eq!(c.attempts, p.attempts);
    }
    // Every attempt produced exactly one Dispatched observation, in
    // attempt order per job, and every job exactly one adjudication.
    dispatched.sort_unstable();
    assert_eq!(dispatched, vec![(0, 1), (1, 1), (1, 2)]);
    adjudicated.sort_unstable();
    assert_eq!(adjudicated, vec![(0, 1), (1, 2)]);
}

/// A job that signals `started` and then holds its worker until `release`
/// fires.
fn held(started: Sender<()>, release: Receiver<()>) -> Job<u64> {
    let release = Mutex::new(release);
    Job::new("held", move |_ctx| {
        let _ = started.send(());
        let _ = release.lock().expect("release lock").recv();
        Ok(0)
    })
}

/// Runs `supervise` on a thread of its own, reporting each adjudicated
/// job id on the returned channel.
fn spawn_supervisor(
    config: PoolConfig,
    intake: Intake<u64>,
    stop: Option<StopHandle>,
) -> (JoinHandle<SweepReport<u64>>, Receiver<u64>) {
    let (settled_tx, settled_rx) = channel();
    let handle = std::thread::spawn(move || {
        let mut on_adjudicated = |rec: &JobRecord<u64>| {
            let _ = settled_tx.send(rec.id);
        };
        let ctrl = SweepControl {
            stop,
            on_dispatch: None,
            on_adjudicated: Some(&mut on_adjudicated),
        };
        supervise(&config, intake, ctrl)
    });
    (handle, settled_rx)
}

#[test]
fn a_job_fed_while_another_is_held_runs_and_settles_first() {
    let (feed, intake) = open_feed();
    let (supervisor, settled) = spawn_supervisor(PoolConfig::with_workers(2), intake, None);
    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    feed.submit(0, held(started_tx, release_rx));
    started.recv().expect("the held job starts");
    feed.submit(1, job("fed", JobKind::Ok { value: 11 }));
    assert_eq!(settled.recv().expect("a settlement"), 1);
    release.send(()).expect("release the held job");
    assert_eq!(settled.recv().expect("a settlement"), 0);
    drop(feed);
    let report = supervisor.join().expect("supervisor");
    assert!(!report.interrupted);
    let ids: Vec<u64> = report.jobs.iter().map(|j| j.id).collect();
    assert_eq!(ids, vec![0, 1]);
    assert_eq!(report.jobs[1].outcome.value(), Some(&11));
}

#[test]
fn jobs_fed_after_a_stop_are_halted_and_the_held_job_is_adjudicated() {
    let stop = StopHandle::new();
    let (feed, intake) = open_feed();
    let (supervisor, settled) =
        spawn_supervisor(PoolConfig::with_workers(1), intake, Some(stop.clone()));
    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    feed.submit(0, held(started_tx, release_rx));
    started.recv().expect("the held job starts");
    stop.stop();
    feed.submit(1, job("late-1", JobKind::Ok { value: 1 }));
    feed.submit(2, job("late-2", JobKind::Ok { value: 2 }));
    release.send(()).expect("release the held job");
    // The supervisor returns once the held job settles, with the feed
    // still open.
    let report = supervisor.join().expect("supervisor");
    assert_eq!(settled.try_iter().collect::<Vec<_>>(), vec![0]);
    assert!(report.interrupted);
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.jobs[0].outcome.value(), Some(&0));
    assert_eq!(report.halted, vec![1, 2]);
    assert!(!feed.submit(3, job("after", JobKind::Ok { value: 3 })));
}

#[test]
fn a_fed_list_reports_exactly_what_the_fixed_list_reports() {
    let build = || {
        vec![
            job("ok-0", JobKind::Ok { value: 100 }),
            job("panics", JobKind::PanicAfter { ms: 0 }),
            job("flaky", JobKind::FailNTimes { n: 1, value: 102 }),
            job("doomed", JobKind::FailNTimes { n: 9, value: 0 }),
            job("ok-4", JobKind::Ok { value: 104 }),
        ]
    };
    let config = PoolConfig {
        workers: 2,
        max_attempts: 2,
        backoff_base_ms: 3,
        ..PoolConfig::default()
    };
    let fixed = run_sweep(&config, build());
    // The same jobs fed one by one, each after the previous settled, to a
    // pool that is already running.
    let (feed, intake) = open_feed();
    let (supervisor, settled) = spawn_supervisor(config.clone(), intake, None);
    for (id, job) in build().into_iter().enumerate() {
        feed.submit(id as u64, job);
        assert_eq!(settled.recv().expect("a settlement"), id as u64);
    }
    drop(feed);
    let fed = supervisor.join().expect("supervisor");
    let deterministic = |r: &SweepReport<u64>| {
        let jobs: Vec<_> = r
            .jobs
            .iter()
            .map(|j| {
                (
                    j.id,
                    j.label.clone(),
                    j.outcome.clone(),
                    j.attempts,
                    j.backoff_ms,
                )
            })
            .collect();
        (
            jobs,
            r.retries,
            r.quarantined.clone(),
            r.halted.clone(),
            r.interrupted,
        )
    };
    assert_eq!(deterministic(&fed), deterministic(&fixed));
}
