//! Supervised parallel sweep executor.
//!
//! Every multi-scenario workflow in the workspace — the fuzzer, the
//! fault-injection campaign, the replay audit, the bench matrix — fans a
//! set of independent simulations across cores. The unit of work here is a
//! *supervised job*, not a bare closure:
//!
//! * **Panic isolation** — each attempt runs under `catch_unwind`; a panic
//!   becomes a typed [`JobError::Panicked`] carrying the payload message,
//!   and the sweep keeps going.
//! * **Per-job deadlines** — a shared watchdog thread scans in-flight
//!   attempts; one that outlives [`PoolConfig::deadline`] is adjudicated
//!   [`JobError::TimedOut`], its cooperative cancel flag is raised (see
//!   [`JobCtx::cancelled`]), its worker is abandoned, and a replacement
//!   worker is spawned so the sweep never loses capacity. Jobs that drive a
//!   `System` should additionally set the simulator's own progress
//!   watchdog (`stall_window`) so a wedged run aborts itself from inside.
//! * **Retry with deterministic backoff** — a failed attempt is retried up
//!   to [`PoolConfig::max_attempts`] times. Backoff doubles per attempt and
//!   is *bookkeeping by default* ([`JobRecord::backoff_ms`]): sweeps stay
//!   deterministic and tests stay fast; opt into real sleeps with
//!   [`PoolConfig::sleep_on_backoff`].
//! * **Quarantine** — a job whose final attempt still crashed a worker
//!   (panic or deadline) is quarantined rather than lost: the sweep always
//!   completes and [`SweepReport::quarantined`] names the casualties.
//!
//! **Determinism.** Jobs are numbered by submission order and dispatched
//! in id order, and [`SweepReport::jobs`] is collected in id order — so
//! given deterministic job bodies, everything in the report except the
//! explicitly wall-clock fields (`wall_clock_us`, `worker`) is
//! byte-identical regardless of worker count or completion order.
//!
//! **Observability.** Each worker owns a [`MetricsRegistry`]; retired
//! workers hand theirs back and the supervisor merges them in worker-id
//! order into [`SweepReport::metrics`], so counters survive the fan-out
//! without locks on the hot path. (A worker abandoned to a hung job takes
//! its registry down with it — by design: nothing blocks on a wedge.)
//!
//! **Cooperative stop.** A sweep launched through [`run_sweep_controlled`]
//! can carry a [`StopHandle`]: once stopped (a signal handler, a server's
//! shutdown path), the supervisor drains the queue without dispatching
//! further attempts, lets in-flight attempts finish or hit their deadline,
//! and returns an *interrupted* [`SweepReport`] — adjudicated jobs in
//! [`SweepReport::jobs`], never-run ones named in [`SweepReport::halted`].
//! [`SweepControl`] also carries dispatch/adjudication observers, which is
//! how the write-ahead sweep journal ([`crate::journal`]) sees one
//! `Dispatched` record per attempt and one `Adjudicated` per outcome
//! without the pool knowing anything about files.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::MetricsRegistry;

/// Knobs for one sweep. The default is the conservative serial shape:
/// one worker, no deadline, one attempt.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Wall-clock budget per attempt; `None` trusts jobs to finish.
    pub deadline: Option<Duration>,
    /// Attempts per job before it is given up on (at least 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base_ms << (n-1)` milliseconds.
    pub backoff_base_ms: u64,
    /// Actually sleep the backoff before re-dispatch. Off by default:
    /// the backoff is then pure bookkeeping in [`JobRecord::backoff_ms`],
    /// which keeps sweeps deterministic and tests instant.
    pub sleep_on_backoff: bool,
    /// How often the watchdog scans in-flight attempts.
    pub watchdog_poll: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 1,
            deadline: None,
            max_attempts: 1,
            backoff_base_ms: 10,
            sleep_on_backoff: false,
            watchdog_poll: Duration::from_millis(10),
        }
    }
}

impl PoolConfig {
    /// A config with `workers` threads and everything else default.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers,
            ..PoolConfig::default()
        }
    }
}

/// A clonable cooperative stop flag for one sweep. Any holder may call
/// [`StopHandle::stop`] (idempotent); the supervisor notices within one
/// poll interval and begins draining. Attempts already running are *not*
/// cancelled — they finish normally or hit the per-job deadline.
#[derive(Debug, Clone, Default)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
}

impl StopHandle {
    /// A fresh, un-stopped handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the sweep stop dispatching new attempts. Idempotent.
    pub fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Observer invoked as `(job_id, attempt)` when an attempt is committed
/// for dispatch.
pub type DispatchObserver<'cb> = &'cb mut dyn FnMut(u64, u32);

/// Observer invoked with the final [`JobRecord`] when a job is
/// adjudicated.
pub type AdjudicationObserver<'cb, T> = &'cb mut dyn FnMut(&JobRecord<T>);

/// Per-sweep control surface beyond [`PoolConfig`]: an optional stop
/// handle plus observer hooks the supervisor invokes at its two decision
/// points. Both hooks run on the supervisor thread, so observers need no
/// synchronization and their call order is the adjudication order.
pub struct SweepControl<'cb, T> {
    /// Cooperative stop flag; `None` means the sweep runs to completion.
    pub stop: Option<StopHandle>,
    /// Called with `(job_id, attempt)` when an attempt is committed for
    /// dispatch — every initial fan-out entry and every retry, *before*
    /// the attempt can run.
    pub on_dispatch: Option<DispatchObserver<'cb>>,
    /// Called with the final [`JobRecord`] the moment a job is
    /// adjudicated (completed, failed, or quarantined).
    pub on_adjudicated: Option<AdjudicationObserver<'cb, T>>,
}

impl<T> Default for SweepControl<'_, T> {
    fn default() -> Self {
        SweepControl {
            stop: None,
            on_dispatch: None,
            on_adjudicated: None,
        }
    }
}

/// Why a job attempt (or the whole job) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The attempt panicked; the payload message is preserved.
    Panicked(String),
    /// The attempt outlived the per-job deadline and was abandoned.
    TimedOut {
        /// The deadline that fired, in milliseconds.
        deadline_ms: u64,
    },
    /// The job body returned a typed failure.
    Failed(String),
}

impl JobError {
    /// Stable short tag (`panicked` / `timed-out` / `failed`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panicked(_) => "panicked",
            JobError::TimedOut { .. } => "timed-out",
            JobError::Failed(_) => "failed",
        }
    }

    /// Whether this error crashed or wedged its worker (panic/deadline),
    /// which is what sends a retry-exhausted job to quarantine.
    pub fn crashed_worker(&self) -> bool {
        matches!(self, JobError::Panicked(_) | JobError::TimedOut { .. })
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobError::TimedOut { deadline_ms } => {
                write!(f, "timed out after {deadline_ms} ms deadline")
            }
            JobError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// Final state of one supervised job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// An attempt succeeded and produced a value.
    Completed(T),
    /// Every attempt returned a typed failure; the last one is kept.
    Failed(JobError),
    /// The final attempt crashed or wedged its worker (panic or deadline);
    /// the job is quarantined so the sweep can finish without it.
    Quarantined(JobError),
}

impl<T> JobOutcome<T> {
    /// Whether the job produced a value.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The completed value, if any.
    pub fn value(&self) -> Option<&T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// Stable short tag (`completed` / `failed` / `quarantined`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Quarantined(_) => "quarantined",
        }
    }
}

/// Per-attempt context handed to the job body. Cooperative jobs poll
/// [`JobCtx::cancelled`] and bail early once the watchdog gives up on them
/// (the result of a cancelled attempt is discarded either way; polling
/// just releases the thread).
#[derive(Debug)]
pub struct JobCtx {
    /// The job's sweep-wide id (submission order).
    pub job_id: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    cancel: Arc<AtomicBool>,
}

impl JobCtx {
    /// Whether the watchdog has abandoned this attempt.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

type Work<T> = dyn Fn(&JobCtx) -> Result<T, String> + Send + Sync;

/// One supervised job: a label for reports plus a re-runnable body.
/// The body must be `Fn` (not `FnOnce`) because the supervisor may run it
/// several times under the retry policy.
pub struct Job<T> {
    /// Human-readable label carried into the [`JobRecord`].
    pub label: String,
    work: Arc<Work<T>>,
}

impl<T> Job<T> {
    /// A job running `work` under supervision.
    pub fn new(
        label: impl Into<String>,
        work: impl Fn(&JobCtx) -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        Job {
            label: label.into(),
            work: Arc::new(work),
        }
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("label", &self.label).finish()
    }
}

/// Everything known about one job after the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord<T> {
    /// Sweep-wide id: the job's index in the submitted list.
    pub id: u64,
    /// The label the job was submitted with.
    pub label: String,
    /// Terminal outcome.
    pub outcome: JobOutcome<T>,
    /// Attempts consumed (1 on a first-try success).
    pub attempts: u32,
    /// Total deterministic backoff charged across retries, in ms.
    pub backoff_ms: u64,
    /// Host wall-clock across all adjudicated attempts, in µs.
    /// *Not* deterministic — exclude it from byte-compared reports.
    pub wall_clock_us: u64,
    /// Worker that ran the final adjudicated attempt.
    /// *Not* deterministic — exclude it from byte-compared reports.
    pub worker: u64,
}

/// The structured result of one sweep: per-job records in job-id order
/// plus supervision totals. The sweep itself never fails — individual
/// jobs do, visibly.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// One record per *adjudicated* job, sorted by job id regardless of
    /// completion order. Equals the submitted set unless the sweep was
    /// stopped, in which case [`SweepReport::halted`] names the rest.
    pub jobs: Vec<JobRecord<T>>,
    /// Worker threads the sweep started with.
    pub workers: usize,
    /// Replacement workers spawned after deadline abandonments.
    pub workers_respawned: u64,
    /// Retried attempts across all jobs.
    pub retries: u64,
    /// Ids of quarantined jobs, ascending.
    pub quarantined: Vec<u64>,
    /// Whether a [`StopHandle`] drained this sweep before every job was
    /// adjudicated.
    pub interrupted: bool,
    /// Ids of jobs the stop drained before they were adjudicated,
    /// ascending. Always empty when `interrupted` is false.
    pub halted: Vec<u64>,
    /// Host wall-clock for the whole sweep, in µs (not deterministic).
    pub wall_clock_us: u64,
    /// Per-worker registries merged in worker-id order, plus supervisor
    /// totals (`pool.*` keys).
    pub metrics: MetricsRegistry,
}

impl<T> SweepReport<T> {
    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome.is_completed())
            .count()
    }
}

/// One queued attempt.
struct Attempt<T> {
    job_id: u64,
    attempt: u32,
    work: Arc<Work<T>>,
}

/// What a worker is running right now, as seen by the watchdog.
struct InFlight {
    job_id: u64,
    attempt: u32,
    started: Instant,
    cancel: Arc<AtomicBool>,
}

/// State shared between supervisor, watchdog, and workers.
struct Shared<T> {
    queue: Mutex<VecDeque<Attempt<T>>>,
    available: Condvar,
    shutdown: AtomicBool,
    in_flight: Mutex<BTreeMap<u64, InFlight>>,
}

enum WorkerMsg<T> {
    /// An attempt finished (value, typed failure, or caught panic).
    Done {
        worker: u64,
        job_id: u64,
        attempt: u32,
        result: Result<T, JobError>,
        elapsed_us: u64,
    },
    /// The watchdog found an attempt past its deadline.
    Expired {
        worker: u64,
        job_id: u64,
        attempt: u32,
    },
    /// A worker exited cleanly and hands back its registry.
    Retired {
        worker: u64,
        metrics: MetricsRegistry,
    },
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn_worker<T: Send + 'static>(
    token: u64,
    shared: Arc<Shared<T>>,
    tx: Sender<WorkerMsg<T>>,
    abandoned: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("oasis-pool-{token}"))
        .spawn(move || {
            let mut metrics = MetricsRegistry::enabled();
            loop {
                if abandoned.load(Ordering::Relaxed) {
                    break; // supervisor gave up on us; results are stale
                }
                let task = {
                    let mut q = shared.queue.lock().expect("pool queue poisoned");
                    loop {
                        if shared.shutdown.load(Ordering::Relaxed) {
                            // Retire: hand the registry back (the receiver
                            // may already be gone; that is fine).
                            let _ = tx.send(WorkerMsg::Retired {
                                worker: token,
                                metrics,
                            });
                            return;
                        }
                        if let Some(t) = q.pop_front() {
                            break t;
                        }
                        q = shared.available.wait(q).expect("pool queue poisoned");
                    }
                };
                let cancel = Arc::new(AtomicBool::new(false));
                shared.in_flight.lock().expect("in-flight poisoned").insert(
                    token,
                    InFlight {
                        job_id: task.job_id,
                        attempt: task.attempt,
                        started: Instant::now(),
                        cancel: Arc::clone(&cancel),
                    },
                );
                let ctx = JobCtx {
                    job_id: task.job_id,
                    attempt: task.attempt,
                    cancel,
                };
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| (task.work)(&ctx)));
                let elapsed_us = started.elapsed().as_micros() as u64;
                shared
                    .in_flight
                    .lock()
                    .expect("in-flight poisoned")
                    .remove(&token);
                let result = match outcome {
                    Ok(Ok(v)) => {
                        metrics.add("pool.attempts.completed", 1);
                        Ok(v)
                    }
                    Ok(Err(msg)) => {
                        metrics.add("pool.attempts.failed", 1);
                        Err(JobError::Failed(msg))
                    }
                    Err(payload) => {
                        metrics.add("pool.attempts.panicked", 1);
                        Err(JobError::Panicked(panic_message(&*payload)))
                    }
                };
                metrics.add("pool.attempts", 1);
                metrics.observe_ns("pool.attempt.wall_ns", elapsed_us.saturating_mul(1000));
                if abandoned.load(Ordering::Relaxed) {
                    // Adjudicated as timed out while we were running: the
                    // supervisor no longer trusts this thread. Discard.
                    break;
                }
                if tx
                    .send(WorkerMsg::Done {
                        worker: token,
                        job_id: task.job_id,
                        attempt: task.attempt,
                        result,
                        elapsed_us,
                    })
                    .is_err()
                {
                    break; // supervisor is gone
                }
            }
        })
        .expect("spawning a pool worker failed")
}

/// Supervisor-side view of one job's progress.
struct JobState<T> {
    label: String,
    work: Arc<Work<T>>,
    attempts: u32,
    backoff_ms: u64,
    wall_clock_us: u64,
    record: Option<JobRecord<T>>,
    halted: bool,
}

/// Runs `jobs` to completion under `config` and returns the structured
/// report. Blocks the calling thread (which acts as the supervisor) until
/// every job is adjudicated; a sweep with no deadline and a truly hung
/// job will block with it — set [`PoolConfig::deadline`] for sweeps that
/// must always terminate.
pub fn run_sweep<T: Send + 'static>(config: &PoolConfig, jobs: Vec<Job<T>>) -> SweepReport<T> {
    run_sweep_controlled(config, jobs, SweepControl::default())
}

/// [`run_sweep`] with a [`SweepControl`]: cooperative stop plus
/// dispatch/adjudication observers. With a stop handle attached the
/// supervisor polls the flag between messages (a few-ms wakeup) instead
/// of blocking indefinitely on the channel; without one this is exactly
/// `run_sweep`.
pub fn run_sweep_controlled<T: Send + 'static>(
    config: &PoolConfig,
    jobs: Vec<Job<T>>,
    mut ctrl: SweepControl<'_, T>,
) -> SweepReport<T> {
    let sweep_started = Instant::now();
    let job_count = jobs.len();
    let workers = config.workers.clamp(1, job_count.max(1));
    let max_attempts = config.max_attempts.max(1);

    let mut states: Vec<JobState<T>> = jobs
        .into_iter()
        .map(|j| JobState {
            label: j.label,
            work: j.work,
            attempts: 0,
            backoff_ms: 0,
            wall_clock_us: 0,
            record: None,
            halted: false,
        })
        .collect();

    let shared: Arc<Shared<T>> = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        in_flight: Mutex::new(BTreeMap::new()),
    });
    // Deterministic fan-out: the initial queue is in job-id order. The
    // dispatch observer fires before workers exist, so every intent is
    // journaled before any attempt can possibly run.
    {
        let mut q = shared.queue.lock().expect("pool queue poisoned");
        for (id, state) in states.iter().enumerate() {
            if let Some(cb) = ctrl.on_dispatch.as_mut() {
                cb(id as u64, 1);
            }
            q.push_back(Attempt {
                job_id: id as u64,
                attempt: 1,
                work: Arc::clone(&state.work),
            });
        }
    }

    let (tx, rx): (Sender<WorkerMsg<T>>, Receiver<WorkerMsg<T>>) = channel();
    let mut next_token = 0u64;
    let mut handles: Vec<(u64, Arc<AtomicBool>, JoinHandle<()>)> = Vec::new();
    // A stop raised before the sweep starts means "dispatch nothing":
    // skipping worker spawn entirely makes the all-halted outcome
    // deterministic instead of racing the drain against eager workers.
    let workers = if ctrl.stop.as_ref().is_some_and(|s| s.is_stopped()) {
        0
    } else {
        workers
    };
    for _ in 0..workers {
        let abandoned = Arc::new(AtomicBool::new(false));
        let h = spawn_worker(
            next_token,
            Arc::clone(&shared),
            tx.clone(),
            Arc::clone(&abandoned),
        );
        handles.push((next_token, abandoned, h));
        next_token += 1;
    }

    // The shared watchdog: scans in-flight attempts and reports the ones
    // past the deadline. Adjudication stays with the supervisor so there
    // is exactly one decision point per attempt.
    let watchdog = config.deadline.map(|deadline| {
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        let poll = config.watchdog_poll.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("oasis-pool-watchdog".to_string())
            .spawn(move || {
                let mut reported: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
                while !shared.shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    let expired: Vec<(u64, u64, u32)> = {
                        let inf = shared.in_flight.lock().expect("in-flight poisoned");
                        inf.iter()
                            .filter(|(token, f)| {
                                f.started.elapsed() > deadline
                                    && reported.get(token) != Some(&(f.job_id, f.attempt))
                            })
                            .map(|(&token, f)| (token, f.job_id, f.attempt))
                            .collect()
                    };
                    for (worker, job_id, attempt) in expired {
                        reported.insert(worker, (job_id, attempt));
                        if tx
                            .send(WorkerMsg::Expired {
                                worker,
                                job_id,
                                attempt,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            })
            .expect("spawning the pool watchdog failed")
    });

    let deadline_ms = config.deadline.map_or(0, |d| d.as_millis() as u64);
    let mut finalized = 0usize;
    let mut retries = 0u64;
    let mut workers_respawned = 0u64;
    let mut delayed: Vec<(Instant, Attempt<T>)> = Vec::new();
    let mut worker_metrics: BTreeMap<u64, MetricsRegistry> = BTreeMap::new();
    let stop = ctrl.stop.clone();
    let mut stopped = false;
    let mut halted_count = 0usize;

    let enqueue = |shared: &Shared<T>, attempt: Attempt<T>| {
        shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(attempt);
        shared.available.notify_one();
    };

    while finalized + halted_count < job_count {
        // Cooperative stop: drain everything not yet handed to a worker.
        // In-flight attempts are left to finish (or hit the deadline) and
        // are adjudicated normally; queued and backoff-delayed attempts
        // are halted without a record and named in the report.
        if !stopped && stop.as_ref().is_some_and(|s| s.is_stopped()) {
            stopped = true;
            let drained: Vec<Attempt<T>> = {
                let mut q = shared.queue.lock().expect("pool queue poisoned");
                q.drain(..).collect()
            };
            let delayed_attempts: Vec<Attempt<T>> =
                delayed.drain(..).map(|(_, attempt)| attempt).collect();
            for a in drained.into_iter().chain(delayed_attempts) {
                let st = &mut states[a.job_id as usize];
                if st.record.is_none() && !st.halted {
                    st.halted = true;
                    halted_count += 1;
                }
            }
            continue; // re-check the loop condition before blocking
        }

        // Release retries whose (optional) real backoff has elapsed.
        let now = Instant::now();
        let mut i = 0;
        while i < delayed.len() {
            if delayed[i].0 <= now {
                let (_, attempt) = delayed.swap_remove(i);
                enqueue(&shared, attempt);
            } else {
                i += 1;
            }
        }

        // Block indefinitely when no retry is waiting on its backoff and
        // no stop handle needs polling — worker/watchdog messages are the
        // only possible wakeups then. Poll with a short timeout while
        // `delayed` holds retries whose (real) backoff has yet to elapse,
        // or while a stop handle could be raised behind our back.
        let msg = if delayed.is_empty() && stop.is_none() {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break, // all senders gone
            }
        } else {
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break, // all senders gone
            }
        };
        let (worker, job_id, attempt, result, elapsed_us) = match msg {
            WorkerMsg::Done {
                worker,
                job_id,
                attempt,
                result,
                elapsed_us,
            } => (worker, job_id, attempt, result, elapsed_us),
            WorkerMsg::Expired {
                worker,
                job_id,
                attempt,
            } => {
                // Stale if the attempt was already adjudicated (the worker
                // squeaked a result in just before the deadline fired).
                let state = &states[job_id as usize];
                if state.record.is_some() || state.attempts >= attempt {
                    continue;
                }
                // The watchdog's report may also be behind the worker: if
                // the worker finished this attempt just under the wire, its
                // `Done` is queued behind this `Expired` and the worker may
                // already be running a *different* attempt. Abandoning it
                // then would discard that new attempt's result without ever
                // re-queueing it, wedging the sweep. So only abandon while
                // the worker is provably still on (job_id, attempt) — check
                // and act under the in-flight lock, and raise `abandoned`
                // inside the critical section: the worker removes its entry
                // under the same lock before it re-checks `abandoned`, so it
                // can never slip past the flag and dequeue further work.
                {
                    let mut inf = shared.in_flight.lock().expect("in-flight poisoned");
                    let matches = inf
                        .get(&worker)
                        .is_some_and(|f| f.job_id == job_id && f.attempt == attempt);
                    if !matches {
                        continue; // stale: the attempt beat the deadline
                    }
                    if let Some((_, abandoned, _)) =
                        handles.iter().find(|(token, _, _)| *token == worker)
                    {
                        abandoned.store(true, Ordering::Relaxed);
                    }
                    let f = inf.remove(&worker).expect("entry matched above");
                    f.cancel.store(true, Ordering::Relaxed);
                }
                // Respawn so the sweep keeps its configured parallelism.
                let abandoned = Arc::new(AtomicBool::new(false));
                let h = spawn_worker(
                    next_token,
                    Arc::clone(&shared),
                    tx.clone(),
                    Arc::clone(&abandoned),
                );
                handles.push((next_token, abandoned, h));
                next_token += 1;
                workers_respawned += 1;
                (
                    worker,
                    job_id,
                    attempt,
                    Err(JobError::TimedOut { deadline_ms }),
                    deadline_ms.saturating_mul(1000),
                )
            }
            WorkerMsg::Retired { worker, metrics } => {
                worker_metrics.insert(worker, metrics);
                continue;
            }
        };

        let state = &mut states[job_id as usize];
        if state.record.is_some() || state.attempts >= attempt {
            continue; // stale: a late result from an abandoned attempt
        }
        state.attempts = attempt;
        state.wall_clock_us = state.wall_clock_us.saturating_add(elapsed_us);
        match result {
            Ok(value) => {
                state.record = Some(JobRecord {
                    id: job_id,
                    label: state.label.clone(),
                    outcome: JobOutcome::Completed(value),
                    attempts: state.attempts,
                    backoff_ms: state.backoff_ms,
                    wall_clock_us: state.wall_clock_us,
                    worker,
                });
                finalized += 1;
                if let Some(cb) = ctrl.on_adjudicated.as_mut() {
                    cb(state.record.as_ref().expect("record just set"));
                }
            }
            // A stopped sweep spends no further attempts: a failure that
            // would have retried is finalized with what it has.
            Err(_retryable) if state.attempts < max_attempts && !stopped => {
                // Deterministic doubling backoff, recorded always and
                // slept only on request. The retry is journaled at this
                // decision point, before it can be released to a worker.
                let backoff = config.backoff_base_ms << (state.attempts - 1).min(32);
                state.backoff_ms += backoff;
                retries += 1;
                let next_attempt = state.attempts + 1;
                if let Some(cb) = ctrl.on_dispatch.as_mut() {
                    cb(job_id, next_attempt);
                }
                let due = if config.sleep_on_backoff {
                    Instant::now() + Duration::from_millis(backoff)
                } else {
                    Instant::now()
                };
                delayed.push((
                    due,
                    Attempt {
                        job_id,
                        attempt: next_attempt,
                        work: Arc::clone(&state.work),
                    },
                ));
            }
            Err(err) => {
                let outcome = if err.crashed_worker() {
                    JobOutcome::Quarantined(err)
                } else {
                    JobOutcome::Failed(err)
                };
                state.record = Some(JobRecord {
                    id: job_id,
                    label: state.label.clone(),
                    outcome,
                    attempts: state.attempts,
                    backoff_ms: state.backoff_ms,
                    wall_clock_us: state.wall_clock_us,
                    worker,
                });
                finalized += 1;
                if let Some(cb) = ctrl.on_adjudicated.as_mut() {
                    cb(state.record.as_ref().expect("record just set"));
                }
            }
        }
    }

    // Wind down: wake everyone, join the workers still trusted, leave
    // abandoned ones to their hung jobs (they exit on their own if the
    // job ever returns or polls its cancel flag).
    shared.shutdown.store(true, Ordering::Relaxed);
    shared.available.notify_all();
    drop(tx);
    if let Some(h) = watchdog {
        let _ = h.join(); // exits within one poll interval
    }
    for (_, abandoned, handle) in handles {
        if !abandoned.load(Ordering::Relaxed) {
            let _ = handle.join();
        }
    }
    // Collect the registries retired workers sent on their way out.
    while let Ok(msg) = rx.try_recv() {
        if let WorkerMsg::Retired { worker, metrics } = msg {
            worker_metrics.insert(worker, metrics);
        }
    }

    let mut metrics = MetricsRegistry::enabled();
    for reg in worker_metrics.values() {
        metrics.merge_from(reg);
    }
    metrics.set("pool.jobs", job_count as u64);
    metrics.set("pool.retries", retries);
    metrics.set("pool.workers", workers as u64);
    metrics.set("pool.workers_respawned", workers_respawned);

    let mut jobs: Vec<JobRecord<T>> = Vec::with_capacity(finalized);
    let mut halted: Vec<u64> = Vec::with_capacity(halted_count);
    for (id, s) in states.into_iter().enumerate() {
        match s.record {
            Some(rec) => jobs.push(rec),
            None if s.halted => halted.push(id as u64),
            None => unreachable!("job {id} finished the sweep without a record"),
        }
    }
    let quarantined: Vec<u64> = jobs
        .iter()
        .filter(|j| matches!(j.outcome, JobOutcome::Quarantined(_)))
        .map(|j| j.id)
        .collect();

    SweepReport {
        jobs,
        workers,
        workers_respawned,
        retries,
        quarantined,
        interrupted: stopped,
        halted,
        wall_clock_us: sweep_started.elapsed().as_micros() as u64,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_serial_shape() {
        let c = PoolConfig::default();
        assert_eq!(c.workers, 1);
        assert_eq!(c.max_attempts, 1);
        assert!(c.deadline.is_none());
        assert!(!c.sleep_on_backoff);
    }

    #[test]
    fn job_error_display_and_kind() {
        let p = JobError::Panicked("boom".into());
        assert_eq!(p.kind(), "panicked");
        assert!(p.to_string().contains("boom"));
        assert!(p.crashed_worker());
        let t = JobError::TimedOut { deadline_ms: 50 };
        assert_eq!(t.kind(), "timed-out");
        assert!(t.to_string().contains("50 ms"));
        assert!(t.crashed_worker());
        let f = JobError::Failed("nope".into());
        assert_eq!(f.kind(), "failed");
        assert!(!f.crashed_worker());
    }

    #[test]
    fn empty_sweep_completes_immediately() {
        let report = run_sweep::<u64>(&PoolConfig::with_workers(4), Vec::new());
        assert!(report.jobs.is_empty());
        assert_eq!(report.metrics.counter("pool.jobs"), 0);
    }

    #[test]
    fn results_come_back_in_job_id_order() {
        // Jobs sleep in *reverse* length order so completion order is the
        // opposite of submission order under parallelism.
        let jobs: Vec<Job<u64>> = (0..8u64)
            .map(|i| {
                Job::new(format!("job-{i}"), move |_ctx| {
                    std::thread::sleep(Duration::from_millis((8 - i) * 3));
                    Ok(i * 10)
                })
            })
            .collect();
        let report = run_sweep(&PoolConfig::with_workers(4), jobs);
        let ids: Vec<u64> = report.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        let values: Vec<_> = report
            .jobs
            .iter()
            .map(|j| j.outcome.value().copied())
            .collect();
        assert_eq!(values, (0..8).map(|i| Some(i * 10)).collect::<Vec<_>>());
        assert_eq!(report.metrics.counter("pool.attempts"), 8);
        assert_eq!(report.metrics.counter("pool.attempts.completed"), 8);
    }

    #[test]
    fn workers_are_clamped_to_the_job_count() {
        let jobs = vec![Job::new("only", |_ctx| Ok(1u64))];
        let report = run_sweep(&PoolConfig::with_workers(64), jobs);
        assert_eq!(report.workers, 1);
        assert_eq!(report.completed(), 1);
    }
}
