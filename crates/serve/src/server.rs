//! The sweep server: blocking accept, a reader and a writer thread per
//! connection, admission control, a journaled job feed on the supervised
//! pool, and graceful drain.
//!
//! # Threads
//!
//! Every thread blocks on the one thing it waits for, so a result is
//! written the moment it lands and a job starts the moment a worker is
//! free:
//!
//! * **accept** — the [`run_serve`] caller blocks in `accept` and hands
//!   each connection its two threads;
//! * **reader**, one per connection — blocks on its socket for request
//!   lines, answers pings, stats and cache hits, and admits submissions;
//! * **writer**, one per connection — blocks on the connection's event
//!   channel and writes every line queued there with one `write(2)`;
//! * **supervisor** — serves the server's open job feed with
//!   [`oasis_engine::pool::supervise`]; its observers journal each
//!   dispatch and verdict, write the cache, and push `dispatched`,
//!   `progress` and `result` lines to every subscribed connection;
//! * **pool workers** — long-lived, each takes jobs as they are fed.
//!
//! # Lifecycle
//!
//! One [`run_serve`] call owns the whole server. It binds a localhost
//! listener, opens (or resumes) the write-ahead queue journal and the
//! content-addressed result cache under the state directory, feeds the
//! resumed jobs first, and runs until the [`StopHandle`] fires. A stop
//! refuses new admissions with a typed `draining` rejection, halts queued
//! jobs and lets the pool adjudicate the in-flight ones. Once the pool has
//! settled, every waiter of an unfinished job gets a terminal `draining`
//! line, every connection's read side is shut down (which wakes its
//! blocked reader), and a loopback connect wakes the accept loop. The
//! journal then gets its `Interrupted` trailer and [`run_serve`] returns
//! a [`ServeSummary`] whose `drained` flag tells the CLI to exit
//! `EX_TEMPFAIL` with a resume hint.
//!
//! # Durability
//!
//! Admission is write-ahead: the scenario's canonical wire line is
//! journaled as an `Enqueued` record *before* the job is fed to the pool,
//! and every verdict is journaled as an `Adjudicated` record *before* the
//! result is cached or streamed. A SIGKILL at any instant therefore loses
//! at most replies, never admitted work: the restarted server salvages the
//! journal prefix, backfills the cache from adjudicated records, and
//! re-runs exactly the admitted-but-unadjudicated jobs. Because the job
//! body is a pure function of the scenario, the verdicts a client
//! re-collects after a crash are byte-identical to an uninterrupted run.
//!
//! # Storage-fault degradation
//!
//! The durability path can itself fail (ENOSPC, EIO, a dying disk). The
//! server degrades instead of corrupting or dying: a failed cache write is
//! recorded (`serve.cache_write_failed`) and the result served uncached —
//! the journal already holds the adjudication; a failed journal append
//! flips the server into degraded mode where new admissions are refused
//! with a typed `unavailable` rejection while cached results keep flowing
//! and in-flight jobs finish. The failure surfaces in
//! [`ServeSummary::journal_error`] so the CLI exits nonzero. Every one of
//! these paths is exercised by the `chaos` subcommand's injected-fault
//! matrix.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oasis_engine::pool::{open_feed, supervise, Feed, Intake, Job, JobOutcome, JobRecord};
use oasis_engine::pool::{PoolConfig, SweepControl};
use oasis_engine::{AdjudicatedOutcome, JournalWriter, MetricsRegistry, StopHandle};
use oasis_fuzz::{check, from_json, scenario_digest, to_json_line, Scenario};
use oasis_mgpu::{simulate, Policy};

use crate::cache::{CacheRead, CachedResult, ResultCache};
use crate::protocol::{
    event_accepted, event_dispatched, event_error, event_pong, event_progress, event_rejected,
    event_result, event_stats, parse_request, sanitize, LinePoll, LineReader, ProtocolError,
    Request, MAX_LINE_BYTES,
};

/// The journal `Begin` tag for serve queues; a resume against a journal
/// written by any other subsystem fails with a typed `TagMismatch`.
pub fn queue_tag() -> u64 {
    oasis_engine::fnv1a(b"oasis-serve-queue-v1")
}

/// Journal file name under the state directory.
pub const JOURNAL_FILE: &str = "serve.jnl";
/// Cache directory name under the state directory.
pub const CACHE_DIR: &str = "cache";

/// Everything the server needs to run. Defaults are production-shaped;
/// tests and the CLI override per flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; `0` binds an ephemeral port (announced via
    /// the `announce` callback).
    pub port: u16,
    /// State directory holding the queue journal and result cache.
    pub state_dir: PathBuf,
    /// Admission cap: admitted, unadjudicated jobs beyond this are
    /// rejected with a typed `overloaded` event instead of queued.
    pub queue_depth: usize,
    /// Per-connection cap on unresolved jobs; beyond it submissions are
    /// rejected with `connection-inflight`.
    pub conn_inflight: usize,
    /// Concurrent connection cap; further accepts get a `busy` rejection
    /// line and an immediate close.
    pub max_connections: usize,
    /// Idle cutoff for connections with no unresolved jobs: the socket's
    /// read timeout.
    pub idle_timeout: Duration,
    /// Request-line byte cap.
    pub max_line_bytes: usize,
    /// Supervised-pool shape (workers, per-job deadline, retry budget).
    pub pool: PoolConfig,
}

impl ServeConfig {
    /// A config with production-shaped limits for `state_dir`.
    pub fn new(state_dir: PathBuf) -> Self {
        ServeConfig {
            port: 0,
            state_dir,
            queue_depth: 256,
            conn_inflight: 64,
            max_connections: 32,
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: MAX_LINE_BYTES,
            pool: PoolConfig::with_workers(2),
        }
    }
}

/// What a serve run amounted to, for the CLI's exit path and logs.
#[derive(Debug)]
pub struct ServeSummary {
    /// True when the run ended in a signal-initiated drain (the CLI maps
    /// this to `EX_TEMPFAIL` and prints the resume hint).
    pub drained: bool,
    /// Port actually bound.
    pub port: u16,
    /// Final `serve.*` counter snapshot, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Jobs adjudicated during this run (resumed ones included).
    pub adjudicated: u64,
    /// The first journal append failure, if the run degraded. The server
    /// kept serving (cached results, in-flight jobs) but refused new
    /// admissions; the CLI maps this to a failure exit so the degradation
    /// is never silent.
    pub journal_error: Option<String>,
}

/// What the oracle produced for one job, plus the deterministic activity
/// counts streamed as `progress` (harvested for clean runs only; a
/// violating scenario already has its verdict).
struct JobResult {
    verdict: String,
    events: Option<[u64; 5]>,
}

/// One admitted, not-yet-adjudicated job.
struct Admitted {
    digest: u64,
    /// Connections waiting for its result (a digest submitted again while
    /// queued or running coalesces onto this job).
    subscribers: Vec<u64>,
}

impl Admitted {
    fn new(digest: u64) -> Self {
        let subscribers = Vec::new();
        Admitted {
            digest,
            subscribers,
        }
    }
}

/// One live connection, as the state lock sees it.
struct Conn {
    /// The connection's event channel, drained by its writer thread.
    out: Sender<String>,
    /// A handle on the socket, so the drain can wake the blocked reader.
    socket: TcpStream,
    /// Admitted jobs this connection still waits for.
    waiting: usize,
    /// When the last result reached it: with the last request line, the
    /// start of its idle time.
    last_result: Instant,
}

/// Jobs, connections and subscriptions, under one lock.
struct QueueState {
    /// Admitted, unadjudicated jobs by job id; its length is the queue
    /// depth.
    jobs: BTreeMap<u64, Admitted>,
    conns: BTreeMap<u64, Conn>,
    /// The pool's open feed. Jobs are fed under this lock, after their
    /// `Enqueued` record and their `accepted` line.
    feed: Feed<JobResult>,
    next_job_id: u64,
    next_conn_id: u64,
    accepting: bool,
    adjudicated: u64,
}

/// Sends `line` to each of `subscribers` still connected; a `settled` line
/// ends their wait for the job.
fn tell(conns: &mut BTreeMap<u64, Conn>, subscribers: &[u64], line: &str, settled: bool) {
    for id in subscribers {
        if let Some(conn) = conns.get_mut(id) {
            let _ = conn.out.send(line.to_string());
            if settled {
                conn.waiting -= 1;
                conn.last_result = Instant::now();
            }
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    stop: StopHandle,
    journal: Mutex<JournalWriter>,
    /// First journal append failure; set once. A broken journal flips the
    /// server into degraded mode: new admissions are refused with a typed
    /// `unavailable` rejection (durability is gone for *new* work) while
    /// cached results keep being served and in-flight jobs finish — the
    /// server never trades a storage fault for an availability outage or,
    /// worse, silently volatile state.
    journal_failure: Mutex<Option<String>>,
    cache: ResultCache,
    metrics: Mutex<MetricsRegistry>,
    state: Mutex<QueueState>,
}

impl Shared {
    fn count(&self, key: &str, v: u64) {
        self.metrics.lock().expect("metrics lock").add(key, v);
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let m = self.metrics.lock().expect("metrics lock");
        let mut out: Vec<(String, u64)> = m.counters().map(|(k, v)| (k.to_string(), v)).collect();
        out.sort();
        out
    }

    fn state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("state lock")
    }

    /// True once any journal append has failed; the server is then in
    /// degraded (admission-refusing) mode until restarted.
    fn journal_broken(&self) -> bool {
        self.journal_failure
            .lock()
            .expect("journal failure lock")
            .is_some()
    }

    /// Journals an append. On failure the server degrades (see
    /// [`Shared::journal_failure`]) instead of stopping: the caller gets
    /// the typed message, new admissions get `unavailable`. The failure is
    /// sticky: a journal that failed once is not trusted again until an
    /// operator restarts (and thereby recovers) it.
    fn journal_append(
        &self,
        op: impl FnOnce(&mut JournalWriter) -> Result<(), oasis_engine::JournalError>,
    ) -> Result<(), String> {
        if let Some(msg) = self
            .journal_failure
            .lock()
            .expect("journal failure lock")
            .clone()
        {
            return Err(msg);
        }
        let mut journal = self.journal.lock().expect("journal lock");
        let result = op(&mut journal).map_err(|e| format!("journal append failed: {e}"));
        drop(journal);
        if let Err(msg) = &result {
            let mut failure = self.journal_failure.lock().expect("journal failure lock");
            if failure.is_none() {
                *failure = Some(msg.clone());
                eprintln!(
                    "serve: warning: {msg}; refusing new admissions with a typed `unavailable` \
                     rejection, still serving cached results and finishing in-flight jobs"
                );
                drop(failure);
                self.count("serve.journal_failed", 1);
            }
        }
        result
    }
}

/// The verdict string for a supervised outcome — the one rendering every
/// consumer (journal payload, cache entry, result event) shares.
fn render_verdict(outcome: &JobOutcome<JobResult>) -> String {
    match outcome {
        JobOutcome::Completed(r) => r.verdict.clone(),
        JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => sanitize(&e.to_string()),
    }
}

/// The deterministic job body: run the differential oracle; for a clean
/// scenario, additionally run it once under the oasis policy to harvest
/// the `TraceEvent`-taxonomy activity counts the `progress` event streams.
fn run_job(scenario: &Scenario) -> Result<JobResult, String> {
    match check(scenario) {
        Some(violation) => Ok(JobResult {
            verdict: sanitize(&format!(
                "violation {}: {}",
                violation.kind.as_str(),
                violation.detail
            )),
            events: None,
        }),
        None => {
            let report = simulate(&scenario.config(), Policy::oasis(), &scenario.trace());
            let uvm = &report.uvm;
            Ok(JobResult {
                verdict: "clean".to_string(),
                events: Some([
                    uvm.far_faults,
                    uvm.migrations,
                    uvm.duplications,
                    uvm.invalidations,
                    uvm.evictions,
                ]),
            })
        }
    }
}

/// The pool job for one scenario.
fn job(scenario: Scenario, digest: u64) -> Job<JobResult> {
    Job::new(format!("scenario-{digest:016x}"), move |_ctx| {
        run_job(&scenario)
    })
}

/// Runs the sweep server until the stop handle fires.
///
/// `announce` is called exactly once with the bound port, after the
/// listener is live — the CLI prints the "listening" line from it so
/// clients (and the e2e test) can connect as soon as it appears.
///
/// # Errors
///
/// Returns a message for unrecoverable setup or runtime failures: bind
/// errors, an unusable state directory, a journal that cannot be created,
/// resumed, or appended to.
pub fn run_serve(
    cfg: ServeConfig,
    stop: StopHandle,
    announce: impl FnOnce(u16),
) -> Result<ServeSummary, String> {
    std::fs::create_dir_all(&cfg.state_dir).map_err(|e| {
        format!(
            "serve: cannot create state dir {}: {e}",
            cfg.state_dir.display()
        )
    })?;
    let cache = ResultCache::open(&cfg.state_dir.join(CACHE_DIR))?;
    let journal_path = cfg.state_dir.join(JOURNAL_FILE);

    let mut metrics = MetricsRegistry::enabled();
    let mut resumed: Vec<(u64, u64, Scenario)> = Vec::new();
    let mut next_job_id = 0u64;
    let mut preadjudicated = 0u64;

    let journal = if journal_path.exists() {
        let (writer, recovery) =
            JournalWriter::resume(&journal_path, queue_tag()).map_err(|e| {
                format!(
                    "serve: cannot resume journal {}: {e}",
                    journal_path.display()
                )
            })?;
        for warning in recovery.warnings() {
            eprintln!("serve: warning: {warning}");
        }
        // Backfill the result cache from journaled adjudications so
        // already-decided jobs are cache hits after a crash even if the
        // cache write itself was lost.
        for (&job_id, adj) in &recovery.adjudicated {
            preadjudicated += 1;
            let Some(wire) = recovery.enqueued.get(&job_id) else {
                eprintln!(
                    "serve: warning: job {job_id} adjudicated without an Enqueued record; \
                     cannot backfill its cache entry"
                );
                continue;
            };
            let digest = oasis_engine::fnv1a(wire);
            if matches!(cache.read(digest), CacheRead::Hit(_)) {
                continue;
            }
            let entry = CachedResult {
                outcome: adj.outcome,
                attempts: adj.attempts,
                verdict: String::from_utf8_lossy(&adj.payload).into_owned(),
            };
            if let Err(e) = cache.write(digest, &entry) {
                eprintln!("serve: warning: cache backfill for job {job_id}: {e}");
            } else {
                metrics.add("serve.cache_backfilled", 1);
            }
        }
        // Rebuild the pending queue: admitted, never adjudicated.
        for (job_id, wire) in recovery.pending() {
            let text = match std::str::from_utf8(wire) {
                Ok(t) => t,
                Err(_) => {
                    eprintln!(
                        "serve: warning: journaled payload for job {job_id} is not UTF-8; dropped"
                    );
                    continue;
                }
            };
            match from_json(text) {
                Ok((scenario, _)) => {
                    let digest = scenario_digest(&scenario);
                    resumed.push((job_id, digest, scenario));
                    metrics.add("serve.resumed_pending", 1);
                }
                Err(e) => {
                    eprintln!(
                        "serve: warning: journaled payload for job {job_id} does not parse \
                         ({e}); dropped"
                    );
                }
            }
        }
        next_job_id = recovery
            .enqueued
            .keys()
            .max()
            .map(|&id| id + 1)
            .unwrap_or(0);
        if !resumed.is_empty() {
            eprintln!(
                "serve: resuming {} admitted job(s) from {}",
                resumed.len(),
                journal_path.display()
            );
        }
        writer
    } else {
        JournalWriter::create(&journal_path, queue_tag(), "serve queue").map_err(|e| {
            format!(
                "serve: cannot create journal {}: {e}",
                journal_path.display()
            )
        })?
    };

    let listener = TcpListener::bind(("127.0.0.1", cfg.port))
        .map_err(|e| format!("serve: cannot bind 127.0.0.1:{}: {e}", cfg.port))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("serve: local_addr: {e}"))?
        .port();

    // Resumed jobs are fed first, before any connection can admit more.
    let (feed, intake) = open_feed();
    let mut jobs = BTreeMap::new();
    for (job_id, digest, scenario) in resumed {
        jobs.insert(job_id, Admitted::new(digest));
        feed.submit(job_id, job(scenario, digest));
    }
    let shared = Arc::new(Shared {
        cfg,
        stop: stop.clone(),
        journal: Mutex::new(journal),
        journal_failure: Mutex::new(None),
        cache,
        metrics: Mutex::new(metrics),
        state: Mutex::new(QueueState {
            jobs,
            conns: BTreeMap::new(),
            feed,
            next_job_id,
            next_conn_id: 0,
            accepting: true,
            adjudicated: 0,
        }),
    });

    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || {
                run_jobs(&shared, intake);
                drain(&shared);
                // Wake the accept loop, which then finds admission closed.
                let _ = TcpStream::connect(("127.0.0.1", port));
            })
            .map_err(|e| format!("serve: cannot spawn the supervisor: {e}"))?
    };

    announce(port);

    let mut conn_threads = Vec::new();
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                if !open_connection(&shared, stream, &mut conn_threads) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("serve: warning: accept: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    drop(listener);
    let _ = supervisor.join();
    for h in conn_threads {
        let _ = h.join();
    }

    let adjudicated_now = shared.state().adjudicated;
    // Best-effort trailer: on a broken journal this fails (and stays
    // recorded); the summary still reports the drain so the operator gets
    // counters plus the typed journal error, not an opaque abort.
    let _ = shared.journal_append(|j| j.interrupted(preadjudicated + adjudicated_now));

    let journal_error = shared
        .journal_failure
        .lock()
        .expect("journal failure lock")
        .clone();
    Ok(ServeSummary {
        drained: true,
        port,
        counters: shared.counters(),
        adjudicated: adjudicated_now,
        journal_error,
    })
}

/// The supervisor: serves the feed on the pool until a stop settles it.
/// Each dispatch and verdict is journaled, each verdict cached, and every
/// event pushed to the job's subscribers.
fn run_jobs(shared: &Shared, intake: Intake<JobResult>) {
    let mut on_dispatch = |id: u64, attempt: u32| {
        let _ = shared.journal_append(|j| j.dispatched(id, attempt));
        let mut guard = shared.state();
        let st = &mut *guard;
        if let Some(job) = st.jobs.get(&id) {
            let line = event_dispatched(job.digest, attempt);
            tell(&mut st.conns, &job.subscribers, &line, false);
        }
    };
    let mut on_adjudicated = |record: &JobRecord<JobResult>| {
        let digest = shared
            .state()
            .jobs
            .get(&record.id)
            .expect("a fed job stays admitted until adjudicated")
            .digest;
        let verdict = render_verdict(&record.outcome);
        let tag = AdjudicatedOutcome::of(&record.outcome);
        // Journal first: the verdict is durable before anyone sees it.
        let _ = shared
            .journal_append(|j| j.adjudicated(record.id, tag, record.attempts, verdict.as_bytes()));
        let entry = CachedResult {
            outcome: tag,
            attempts: record.attempts,
            verdict: verdict.clone(),
        };
        if let Err(e) = shared.cache.write(digest, &entry) {
            // RecordAndContinue: the verdict is journaled (or at worst
            // recomputable); losing the cache entry costs a recompute on
            // resubmission, never the result.
            shared.count("serve.cache_write_failed", 1);
            eprintln!("serve: warning: {e}; serving the result uncached");
        }
        shared.count(&format!("serve.jobs_{}", record.outcome.kind()), 1);
        let mut guard = shared.state();
        let st = &mut *guard;
        st.adjudicated += 1;
        let subscribers = st
            .jobs
            .remove(&record.id)
            .map_or_else(Vec::new, |j| j.subscribers);
        if let JobOutcome::Completed(JobResult {
            events: Some([ff, mig, dup, sd, ev]),
            ..
        }) = record.outcome
        {
            let line = event_progress(digest, ff, mig, dup, sd, ev);
            tell(&mut st.conns, &subscribers, &line, false);
        }
        let line = event_result(digest, tag.kind(), &verdict, false, record.attempts);
        tell(&mut st.conns, &subscribers, &line, true);
    };
    supervise(
        &shared.cfg.pool,
        intake,
        SweepControl {
            stop: Some(shared.stop.clone()),
            on_dispatch: Some(&mut on_dispatch),
            on_adjudicated: Some(&mut on_adjudicated),
        },
    );
}

/// Runs once the pool has settled after a stop. Closes admission, sends
/// every waiter of an unfinished job a terminal `draining` line so no
/// client hangs (the job stays journaled for the restarted server), and
/// shuts every connection's read side, which wakes its blocked reader.
fn drain(shared: &Shared) {
    let mut guard = shared.state();
    let st = &mut *guard;
    st.accepting = false;
    for (_, job) in std::mem::take(&mut st.jobs) {
        let line = event_rejected(
            job.digest,
            "draining",
            "server draining before this job finished; it stays journaled — restart the \
             server with the same --serve-state to resume",
        );
        tell(&mut st.conns, &job.subscribers, &line, true);
    }
    for conn in st.conns.values() {
        let _ = conn.socket.shutdown(Shutdown::Read);
    }
}

/// Registers an accepted connection and starts its threads. Returns false
/// once the drain has closed the server to connections.
fn open_connection(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    threads: &mut Vec<std::thread::JoinHandle<()>>,
) -> bool {
    let mut st = shared.state();
    if !st.accepting {
        return false;
    }
    if st.conns.len() >= shared.cfg.max_connections {
        drop(st);
        shared.count("serve.rejected_busy", 1);
        let line = event_rejected(0, "busy", "connection limit reached");
        let _ = stream.write_all(format!("{line}\n").as_bytes());
        return true;
    }
    let _ = stream.set_nodelay(true);
    let socket = match stream.try_clone() {
        Ok(socket) => socket,
        Err(e) => {
            eprintln!("serve: warning: cannot clone connection stream: {e}");
            return true;
        }
    };
    let (out, events) = mpsc::channel();
    let id = st.next_conn_id;
    st.next_conn_id += 1;
    let conn = Conn {
        out: out.clone(),
        socket,
        waiting: 0,
        last_result: Instant::now(),
    };
    st.conns.insert(id, conn);
    drop(st);
    shared.count("serve.connections", 1);
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("serve-conn".to_string())
        .spawn(move || {
            std::thread::scope(|s| {
                let stream = &stream;
                let spawned = std::thread::Builder::new()
                    .name("serve-conn-writer".to_string())
                    .spawn_scoped(s, move || write_events(stream, events));
                match spawned {
                    Ok(_) => read_requests(&conn_shared, id, stream, out),
                    Err(e) => eprintln!("serve: warning: cannot spawn a connection writer: {e}"),
                }
                // Unregistering drops the connection's last sender: the
                // writer sends what is queued, then exits.
                conn_shared.state().conns.remove(&id);
            });
        });
    match spawned {
        Ok(h) => {
            threads.retain(|h| !h.is_finished());
            threads.push(h);
        }
        Err(e) => {
            eprintln!("serve: warning: cannot spawn connection thread: {e}");
            shared.state().conns.remove(&id);
        }
    }
    true
}

/// Writes a connection's event lines as they arrive. Lines queued behind
/// one go out with it, in a single `write(2)`.
fn write_events(mut socket: &TcpStream, events: Receiver<String>) {
    let mut batch = Vec::new();
    while let Ok(line) = events.recv() {
        batch.clear();
        for line in std::iter::once(line).chain(events.try_iter()) {
            batch.extend_from_slice(line.as_bytes());
            batch.push(b'\n');
        }
        if socket.write_all(&batch).is_err() {
            return;
        }
    }
}

/// Reads request lines until EOF, a fatal protocol error or the idle
/// timeout, answering each through the writer's channel `out`.
fn read_requests(shared: &Shared, id: u64, stream: &TcpStream, out: Sender<String>) {
    let idle = shared.cfg.idle_timeout;
    let least = Duration::from_millis(1);
    let _ = stream.set_read_timeout(Some(idle.max(least)));
    let mut reader = LineReader::new(stream, shared.cfg.max_line_bytes);
    let mut last_line = Instant::now();
    loop {
        let raw = match reader.poll_line() {
            Ok(LinePoll::Line(raw)) => raw,
            Ok(LinePoll::Eof) => return,
            // The read timed out (or a line is still partial). The
            // connection is idle when it waits for no job and has been
            // silent, both ways, for the whole timeout.
            Ok(LinePoll::Pending) => {
                let (waiting, last_result) = shared
                    .state()
                    .conns
                    .get(&id)
                    .map_or((0, last_line), |c| (c.waiting, c.last_result));
                let quiet = last_line.max(last_result).elapsed();
                if waiting == 0 && quiet >= idle {
                    let err = ProtocolError::IdleTimeout {
                        secs: idle.as_secs(),
                    };
                    shared.count("serve.rejected_protocol", 1);
                    let _ = out.send(event_error(&err));
                    return;
                }
                let left = if waiting == 0 { idle - quiet } else { idle };
                let _ = stream.set_read_timeout(Some(left.max(least)));
                continue;
            }
            Err(err) => {
                shared.count("serve.rejected_protocol", 1);
                let _ = out.send(event_error(&err));
                return; // only framing damage is fatal, and this is it
            }
        };
        last_line = Instant::now();
        match parse_request(&raw) {
            Ok(None) => {}
            Ok(Some(Request::Ping)) => {
                let _ = out.send(event_pong());
            }
            Ok(Some(Request::Stats)) => {
                let _ = out.send(event_stats(&shared.counters()));
            }
            Ok(Some(Request::Submit(scenario))) => submit(shared, id, &out, *scenario),
            Err(err) => {
                shared.count("serve.rejected_protocol", 1);
                let _ = out.send(event_error(&err));
                if err.fatal_to_connection() {
                    return;
                }
            }
        }
    }
}

/// Answers one submission on `out`: from the cache, or by admitting it.
fn submit(shared: &Shared, conn: u64, out: &Sender<String>, scenario: Scenario) {
    let digest = scenario_digest(&scenario);

    // Content-addressed fast path: an identical scenario that has ever
    // been adjudicated is answered from the cache with zero recompute.
    match shared.cache.read(digest) {
        CacheRead::Hit(cached) => {
            shared.count("serve.cache_hits", 1);
            let kind = cached.outcome.kind();
            let line = event_result(digest, kind, &cached.verdict, true, cached.attempts);
            let _ = out.send(line);
            return;
        }
        CacheRead::Miss => shared.count("serve.cache_misses", 1),
        CacheRead::Corrupt(reason) => {
            shared.count("serve.cache_corrupt", 1);
            eprintln!(
                "serve: warning: cache entry {digest:#018x} is corrupt ({reason}); recomputing"
            );
        }
    }

    let counter = match admit(shared, conn, out, digest, scenario) {
        Ok(counter) => counter,
        Err((reason, detail)) => {
            let _ = out.send(event_rejected(digest, reason, &detail));
            match reason {
                "overloaded" => "serve.rejected_overload",
                "connection-inflight" => "serve.rejected_conn_inflight",
                "unavailable" => "serve.rejected_unavailable",
                _ => "serve.rejected_other",
            }
        }
    };
    shared.count(counter, 1);
}

/// Admits one submission under the state lock, in order: a digest this
/// connection already waits for is acknowledged without a second
/// subscription; a draining server, a broken journal and a connection at
/// its cap reject; a digest queued or running coalesces; a full queue
/// rejects `overloaded`; anything else is journaled (`Enqueued`,
/// write-ahead) and fed. The `accepted` line enters the connection's
/// channel before the pool can see the job, so no `dispatched` line can
/// overtake it. Returns the counter to bump, or the typed rejection.
fn admit(
    shared: &Shared,
    conn: u64,
    out: &Sender<String>,
    digest: u64,
    scenario: Scenario,
) -> Result<&'static str, (&'static str, String)> {
    let mut guard = shared.state();
    let st = &mut *guard;
    let queued = st.jobs.iter().find(|(_, job)| job.digest == digest);
    let queued = queued.map(|(&id, job)| (id, job.subscribers.contains(&conn)));
    if let Some((_, true)) = queued {
        let _ = out.send(event_accepted(0, digest, true));
        return Ok("serve.coalesced");
    }
    if !st.accepting || shared.stop.is_stopped() {
        let detail = "server is draining; resubmit after restart";
        return Err(("draining", detail.into()));
    }
    if shared.journal_broken() {
        // Degraded mode: admission cannot be made durable, so refusing is
        // the only answer that never corrupts state. Typed `unavailable`
        // (not `draining`): the server is up, the journal is not.
        let detail = "admission journal is broken; restart the server to recover it";
        return Err(("unavailable", detail.into()));
    }
    let waiting = st.conns.get(&conn).map_or(0, |c| c.waiting);
    if waiting >= shared.cfg.conn_inflight {
        let detail = format!("connection already has {waiting} unresolved job(s)");
        return Err(("connection-inflight", detail));
    }
    let fresh = queued.is_none();
    let job_id = match queued {
        Some((id, _)) => id,
        None => {
            let depth = st.jobs.len();
            if depth >= shared.cfg.queue_depth {
                let detail = format!("queue depth {depth} at limit {}", shared.cfg.queue_depth);
                return Err(("overloaded", detail));
            }
            // Write-ahead: the admission is durable before the pool can
            // see it, and holding the state lock across the append keeps
            // journal order and feed order the same.
            let job_id = st.next_job_id;
            let wire = to_json_line(&scenario);
            shared
                .journal_append(|j| j.enqueued(job_id, wire.as_bytes()))
                .map_err(|e| ("unavailable", format!("admission journal failed: {e}")))?;
            st.next_job_id += 1;
            st.jobs.insert(job_id, Admitted::new(digest));
            job_id
        }
    };
    let admitted = st.jobs.get_mut(&job_id).expect("queued or just inserted");
    admitted.subscribers.push(conn);
    if let Some(c) = st.conns.get_mut(&conn) {
        c.waiting += 1;
    }
    if !fresh {
        let _ = out.send(event_accepted(0, digest, true));
        return Ok("serve.coalesced");
    }
    let _ = out.send(event_accepted(job_id, digest, false));
    st.feed.submit(job_id, job(scenario, digest));
    Ok("serve.accepted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ServerEvent;
    use std::io::{BufRead, BufReader};

    fn temp_state(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oasis-serve-state-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    struct Server {
        stop: StopHandle,
        port: u16,
        handle: Option<std::thread::JoinHandle<Result<ServeSummary, String>>>,
    }

    impl Server {
        fn start(mut cfg: ServeConfig) -> Server {
            cfg.port = 0;
            let stop = StopHandle::new();
            let (ptx, prx) = mpsc::channel();
            let stop2 = stop.clone();
            let handle = std::thread::spawn(move || {
                run_serve(cfg, stop2, move |port| {
                    let _ = ptx.send(port);
                })
            });
            let port = prx
                .recv_timeout(Duration::from_secs(30))
                .expect("server announced its port");
            Server {
                stop,
                port,
                handle: Some(handle),
            }
        }

        fn connect(&self) -> (BufReader<TcpStream>, TcpStream) {
            let stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            (reader, stream)
        }

        fn shutdown(mut self) -> ServeSummary {
            self.stop.stop();
            self.handle
                .take()
                .expect("handle")
                .join()
                .expect("server thread")
                .expect("serve result")
        }
    }

    fn read_event(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read event line");
        line.trim_end().to_string()
    }

    fn small_cfg(state: PathBuf) -> ServeConfig {
        let mut cfg = ServeConfig::new(state);
        cfg.pool = PoolConfig::with_workers(2);
        cfg.idle_timeout = Duration::from_secs(120);
        cfg
    }

    #[test]
    fn ping_stats_and_garbage_share_a_connection() {
        let server = Server::start(small_cfg(temp_state("ping")));
        let (mut reader, mut stream) = server.connect();
        writeln!(stream, "ping").unwrap();
        assert_eq!(read_event(&mut reader), event_pong());
        // Garbage gets a typed error and the connection survives...
        writeln!(stream, "total garbage").unwrap();
        let err = read_event(&mut reader);
        assert!(err.contains("bad-request"), "{err}");
        // ...as proven by the next request still working.
        writeln!(stream, "stats").unwrap();
        let stats = read_event(&mut reader);
        assert!(stats.contains("\"serve\": \"stats\""), "{stats}");
        drop(stream);
        let summary = server.shutdown();
        assert!(summary.drained);
    }

    #[test]
    fn submit_computes_then_caches_and_coalesces() {
        let server = Server::start(small_cfg(temp_state("cachehit")));
        let (mut reader, mut stream) = server.connect();
        let scenario = Scenario::generate(11);
        let wire = to_json_line(&scenario);

        writeln!(stream, "{wire}").unwrap();
        let accepted = read_event(&mut reader);
        assert!(accepted.contains("\"accepted\""), "{accepted}");
        let result = loop {
            let line = read_event(&mut reader);
            if line.contains("\"result\"") {
                break line;
            }
        };
        assert!(result.contains("\"cached\": false"), "{result}");

        // Resubmitting the identical scenario is a cache hit: the result
        // line arrives immediately, marked cached, with no accept first.
        writeln!(stream, "{wire}").unwrap();
        let hit = read_event(&mut reader);
        assert!(hit.contains("\"cached\": true"), "{hit}");
        // Verdict bytes match the computed run exactly.
        let verdict = |line: &str| {
            line.split("\"verdict\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(verdict(&result), verdict(&hit));

        drop(stream);
        let summary = server.shutdown();
        let hits = summary
            .counters
            .iter()
            .find(|(k, _)| k == "serve.cache_hits")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(hits, 1);
    }

    #[test]
    fn overload_is_a_typed_rejection_not_a_hang() {
        let mut cfg = small_cfg(temp_state("overload"));
        cfg.queue_depth = 1;
        cfg.pool.workers = 1;
        let server = Server::start(cfg);
        let (mut reader, mut stream) = server.connect();

        // Burst distinct scenarios; with depth 1 at least one must be
        // shed with the typed overloaded rejection.
        for seed in 0..6u64 {
            let wire = to_json_line(&Scenario::generate(seed));
            writeln!(stream, "{wire}").unwrap();
        }
        let mut rejected = 0;
        let mut results = 0;
        let mut accepted = 0;
        while results + rejected < 6 {
            let line = read_event(&mut reader);
            if line.contains("\"rejected\"") {
                assert!(line.contains("overloaded"), "{line}");
                rejected += 1;
            } else if line.contains("\"result\"") {
                results += 1;
            } else if line.contains("\"accepted\"") {
                accepted += 1;
            }
        }
        assert!(rejected >= 1, "queue depth 1 must shed a 6-job burst");
        assert_eq!(accepted, results);

        drop(stream);
        let summary = server.shutdown();
        let shed = summary
            .counters
            .iter()
            .find(|(k, _)| k == "serve.rejected_overload")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(shed >= 1);
    }

    /// A cache write that fails on every attempt must cost recomputes,
    /// never results: submissions still resolve, verdict bytes match, and
    /// the failure is counted.
    #[test]
    fn cache_write_failure_degrades_to_recompute_and_serve() {
        use oasis_engine::failpoint::{arm_process, FailPlan};
        let state = temp_state("cachefail");
        let state_tag = state.file_name().unwrap().to_string_lossy().into_owned();
        let mut plan =
            FailPlan::parse("site:serve.cache.write,kind:eio,after:0,count:*").expect("plan");
        plan.path = Some(state_tag);
        let scope = arm_process(plan);

        let server = Server::start(small_cfg(state));
        let (mut reader, mut stream) = server.connect();
        let wire = to_json_line(&Scenario::generate(41));
        writeln!(stream, "{wire}").unwrap();
        let first = loop {
            let line = read_event(&mut reader);
            if line.contains("\"result\"") {
                break line;
            }
        };
        assert!(first.contains("\"cached\": false"), "{first}");

        // Resubmit: the entry never landed, so this recomputes instead of
        // hitting the cache — and still resolves with the same verdict.
        writeln!(stream, "{wire}").unwrap();
        let second = loop {
            let line = read_event(&mut reader);
            if line.contains("\"result\"") {
                break line;
            }
        };
        assert!(second.contains("\"cached\": false"), "{second}");
        let verdict = |line: &str| {
            line.split("\"verdict\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(verdict(&first), verdict(&second));

        drop(stream);
        let summary = server.shutdown();
        drop(scope);
        let failed = summary
            .counters
            .iter()
            .find(|(k, _)| k == "serve.cache_write_failed")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert!(failed >= 2, "both cache writes must be counted: {failed}");
        assert!(summary.journal_error.is_none());
    }

    /// A broken journal must degrade, not kill: cached results keep
    /// flowing, new admissions get the typed `unavailable` rejection, the
    /// summary carries the error, and a restart on the same state dir
    /// recovers full service.
    #[test]
    fn journal_failure_refuses_admissions_with_typed_unavailable() {
        use oasis_engine::failpoint::{arm_process, FailPlan};
        let state = temp_state("junavail");
        let state_tag = state.file_name().unwrap().to_string_lossy().into_owned();
        let a = Scenario::generate(42);
        let b = Scenario::generate(43);

        let server = Server::start(small_cfg(state.clone()));
        let (mut reader, mut stream) = server.connect();
        // Adjudicate A cleanly so it is cached before the journal breaks.
        writeln!(stream, "{}", to_json_line(&a)).unwrap();
        loop {
            if read_event(&mut reader).contains("\"result\"") {
                break;
            }
        }

        let mut plan =
            FailPlan::parse("site:journal.append.write,kind:eio,after:0,count:*").expect("plan");
        plan.path = Some(state_tag);
        let scope = arm_process(plan);

        // Cached work is still served in degraded mode...
        writeln!(stream, "{}", to_json_line(&a)).unwrap();
        let hit = read_event(&mut reader);
        assert!(hit.contains("\"cached\": true"), "{hit}");
        // ...while new work is refused with the typed rejection.
        writeln!(stream, "{}", to_json_line(&b)).unwrap();
        let rejected = read_event(&mut reader);
        assert!(rejected.contains("\"rejected\""), "{rejected}");
        assert!(rejected.contains("unavailable"), "{rejected}");

        drop(stream);
        let summary = server.shutdown();
        drop(scope);
        let err = summary.journal_error.expect("journal error surfaces");
        assert!(err.contains("journal append failed"), "{err}");
        let refused = summary
            .counters
            .iter()
            .find(|(k, _)| k == "serve.rejected_unavailable")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(refused, 1);

        // Restart on the same state dir, failpoint disarmed: B computes.
        let server = Server::start(small_cfg(state));
        let (mut reader, mut stream) = server.connect();
        writeln!(stream, "{}", to_json_line(&b)).unwrap();
        let result = loop {
            let line = read_event(&mut reader);
            if line.contains("\"result\"") {
                break line;
            }
        };
        assert!(
            result.contains(&crate::protocol::digest_hex(scenario_digest(&b))),
            "{result}"
        );
        drop(stream);
        let summary = server.shutdown();
        assert!(summary.journal_error.is_none());
    }

    /// Generated scenarios with the smallest footprint and one kernel, so
    /// the oracle stays quick in a debug build.
    fn small_scenarios(n: usize) -> Vec<Scenario> {
        (0..)
            .map(Scenario::generate)
            .filter(|s| s.footprint_mb == 2 && s.max_phases == 1 && !s.large_pages)
            .take(n)
            .collect()
    }

    /// Reads events until `results` of them are results.
    fn events_until_results(reader: &mut BufReader<TcpStream>, results: usize) -> Vec<ServerEvent> {
        let mut events = Vec::new();
        while events
            .iter()
            .filter(|e| matches!(e, ServerEvent::Result { .. }))
            .count()
            < results
        {
            let line = read_event(reader);
            events.push(crate::protocol::parse_event(&line).expect(&line));
        }
        events
    }

    /// On one connection, every event for a digest follows that digest's
    /// `accepted`, and exactly one `result` ends them.
    fn assert_accepted_first_result_last(events: &[ServerEvent]) {
        let mut by_digest: BTreeMap<u64, Vec<&ServerEvent>> = BTreeMap::new();
        for event in events {
            let digest = match event {
                ServerEvent::Accepted { digest, .. }
                | ServerEvent::Dispatched { digest, .. }
                | ServerEvent::Progress { digest, .. }
                | ServerEvent::Result { digest, .. } => *digest,
                other => panic!("unexpected event {other:?}"),
            };
            by_digest.entry(digest).or_default().push(event);
        }
        for seen in by_digest.values() {
            assert!(matches!(seen[0], ServerEvent::Accepted { .. }), "{seen:?}");
            let results = seen
                .iter()
                .filter(|e| matches!(e, ServerEvent::Result { .. }))
                .count();
            assert_eq!(results, 1, "{seen:?}");
            assert!(
                matches!(seen.last(), Some(ServerEvent::Result { .. })),
                "{seen:?}"
            );
        }
    }

    #[test]
    fn accepted_comes_first_and_result_last_for_fresh_and_coalesced_jobs() {
        let mut cfg = small_cfg(temp_state("order"));
        cfg.pool.workers = 1;
        let server = Server::start(cfg);
        let (mut a_reader, mut a) = server.connect();
        let (mut b_reader, mut b) = server.connect();
        // One worker and four jobs: the last is still queued when the
        // second connection submits it again.
        let scenarios = small_scenarios(4);
        for scenario in &scenarios {
            writeln!(a, "{}", to_json_line(scenario)).unwrap();
        }
        let mut a_events = Vec::new();
        while a_events
            .iter()
            .filter(|e| matches!(e, ServerEvent::Accepted { .. }))
            .count()
            < scenarios.len()
        {
            let line = read_event(&mut a_reader);
            a_events.push(crate::protocol::parse_event(&line).expect(&line));
        }
        writeln!(b, "{}", to_json_line(&scenarios[3])).unwrap();
        let b_events = events_until_results(&mut b_reader, 1);
        assert!(
            matches!(
                b_events[0],
                ServerEvent::Accepted {
                    coalesced: true,
                    ..
                }
            ),
            "{b_events:?}"
        );
        let results_so_far = a_events
            .iter()
            .filter(|e| matches!(e, ServerEvent::Result { .. }))
            .count();
        a_events.extend(events_until_results(
            &mut a_reader,
            scenarios.len() - results_so_far,
        ));
        assert_accepted_first_result_last(&a_events);
        assert_accepted_first_result_last(&b_events);
        drop((a, b));
        let _ = server.shutdown();
    }

    /// A reader blocked on an idle connection must not hold up the drain:
    /// the server exits well inside the 120 s idle timeout, and the client
    /// reads EOF.
    #[test]
    fn an_idle_connection_does_not_hold_up_the_drain() {
        let server = Server::start(small_cfg(temp_state("idle-drain")));
        let (mut reader, mut stream) = server.connect();
        writeln!(stream, "ping").unwrap();
        assert_eq!(read_event(&mut reader), event_pong());
        let started = Instant::now();
        let summary = server.shutdown();
        assert!(summary.drained);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drain took {:?}",
            started.elapsed()
        );
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).expect("read after drain"), 0);
    }

    /// A connection silent for the whole idle timeout, with no job
    /// outstanding, gets a typed `idle-timeout` error and is closed.
    #[test]
    fn a_silent_connection_times_out_typed_then_closes() {
        let mut cfg = small_cfg(temp_state("idle-timeout"));
        cfg.idle_timeout = Duration::from_millis(200);
        let server = Server::start(cfg);
        let (mut reader, mut stream) = server.connect();
        writeln!(stream, "ping").unwrap();
        assert_eq!(read_event(&mut reader), event_pong());
        let pong_at = Instant::now();
        let err = read_event(&mut reader);
        assert!(err.contains("idle-timeout"), "{err}");
        // Not before the timeout, give or take the pong's own transit.
        assert!(pong_at.elapsed() >= Duration::from_millis(150));
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).expect("read after close"), 0);
        let summary = server.shutdown();
        let closed = summary
            .counters
            .iter()
            .find(|(k, _)| k == "serve.rejected_protocol")
            .map(|(_, v)| *v);
        assert_eq!(closed, Some(1));
    }

    #[test]
    fn drain_mid_queue_resumes_pending_jobs_after_restart() {
        let state = temp_state("resume");
        let scenario = Scenario::generate(21);
        let digest = scenario_digest(&scenario);

        // First server: admit the job, then stop before reading results
        // (the scheduler may or may not have finished it — both paths
        // must converge after restart).
        let mut cfg = small_cfg(state.clone());
        cfg.pool.workers = 1;
        let server = Server::start(cfg);
        let (mut reader, mut stream) = server.connect();
        writeln!(stream, "{}", to_json_line(&scenario)).unwrap();
        let accepted = read_event(&mut reader);
        assert!(accepted.contains("\"accepted\""), "{accepted}");
        drop(stream);
        drop(reader);
        let _ = server.shutdown();

        // Second server on the same state dir: the scenario is either in
        // the backfilled cache (if it adjudicated) or re-run from the
        // journaled queue; either way resubmission converges on the same
        // verdict and the journal is intact.
        let server = Server::start(small_cfg(state));
        let (mut reader, mut stream) = server.connect();
        writeln!(stream, "{}", to_json_line(&scenario)).unwrap();
        let result = loop {
            let line = read_event(&mut reader);
            if line.contains("\"result\"") {
                break line;
            }
        };
        assert!(
            result.contains(&crate::protocol::digest_hex(digest)),
            "{result}"
        );
        drop(stream);
        let _ = server.shutdown();
    }
}
