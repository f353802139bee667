//! The `serve-mixed` workload: a closed loop of two connections, one job in
//! flight each, against `oasis-sim serve` running in its own process with
//! a fresh state directory.
//!
//! Jobs are fuzz [`Scenario`]s. Each pass submits [`NEW_PER_PASS`] new
//! scenarios, which take the miss path (oracle, journal fsync, cache
//! write), and repeats [`HITS_PER_PASS`] of the previous pass's, which take
//! the cache-hit read path.
//!
//! Every miss RTT is quantized by the server's 50 ms connection read
//! timeout: a connection forwards a finished result only after its pending
//! read returns, and with one job in flight the client sends nothing while
//! it waits. The RTTs measured here include that tick, as a user sees it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use oasis_engine::SimRng;
use oasis_fuzz::{check, scenario_digest, to_json_line, Scenario};
use oasis_mgpu::Policy;
use oasis_serve::{parse_event, LinePoll, LineReader, ServerEvent, MAX_LINE_BYTES};

use crate::layers::{self, LayerTotals};
use crate::spans::Spans;
use crate::stats::{self, Report};
use crate::{Outcome, RunArgs};

/// Server spawns per run; `setup_s` is the median spawn -> `pong` time.
const SETUP_REPS: usize = 5;
/// Client connections, each with one job in flight.
const CONNECTIONS: usize = 2;
/// New scenarios per pass (the misses).
const NEW_PER_PASS: usize = 11;
/// Scenarios from the previous pass repeated in each pass (the cache hits):
/// 45%, about half, and below half so that `rtt_p50_ms` lies inside the
/// miss population rather than midway between the slowest hit and the
/// fastest miss.
const HITS_PER_PASS: usize = 9;
/// An untraced run measures at least this many requests, so that at least
/// 10 lie beyond `rtt_p95_ms`, even if that takes longer than `--seconds`.
const MIN_REQUESTS: usize = 200;
/// No single request may take longer than this.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

struct Job {
    scenario: Scenario,
    line: String,
    digest: u64,
    hit: bool,
}

impl Job {
    fn new(scenario: Scenario, hit: bool) -> Job {
        Job {
            line: to_json_line(&scenario),
            digest: scenario_digest(&scenario),
            scenario,
            hit,
        }
    }
}

/// The job lists of successive passes.
struct JobStream {
    rng: SimRng,
    /// The first [`NEW_PER_PASS`] scenarios `oasis-sim submit` sends by
    /// default (`Scenario::generate` over the stream of seed 0): the fuzz
    /// generator's own mix of apps, GPU counts, footprints, kernels, page
    /// sizes, placements, lanes, thresholds, frame caps and fault plans.
    bases: Vec<Scenario>,
    previous: Vec<Scenario>,
}

impl JobStream {
    fn new(seed: u64) -> Self {
        let mut master = SimRng::seed_from_u64(0);
        JobStream {
            rng: SimRng::seed_from_u64(seed ^ 0x5E2F_E0B5_u64),
            bases: (0..NEW_PER_PASS)
                .map(|_| Scenario::generate(master.next_u64()))
                .collect(),
            previous: Vec::new(),
        }
    }

    /// The next pass: every base scenario under a fresh scenario seed drawn
    /// from the run's seed, alternating with repeats of a seeded subset of
    /// the previous pass's scenarios. The fresh seed makes the job new to
    /// the server and redraws the oracle's own choices (which policy it
    /// replays, where it kills and resumes); the trace stays the
    /// generator's, so a pass costs about the same on every seed. The order
    /// is the same on every pass, so which jobs share a scheduler wave does
    /// not depend on the seed either.
    fn next_pass(&mut self) -> Vec<Job> {
        let fresh: Vec<Scenario> = self
            .bases
            .iter()
            .map(|b| Scenario {
                seed: self.rng.next_u64(),
                ..b.clone()
            })
            .collect();
        let mut repeat: Vec<usize> = (0..self.previous.len()).collect();
        self.rng.shuffle(&mut repeat);
        let mut repeat = repeat.into_iter().take(HITS_PER_PASS);
        let mut jobs = Vec::with_capacity(NEW_PER_PASS + HITS_PER_PASS);
        for s in &fresh {
            jobs.push(Job::new(s.clone(), false));
            if let Some(i) = repeat.next() {
                jobs.push(Job::new(self.previous[i].clone(), true));
            }
        }
        self.previous = fresh;
        jobs
    }
}

/// A running `oasis-sim serve` child.
struct Server {
    child: Child,
    port: u16,
}

impl Server {
    /// Spawns the server on a fresh state directory and waits for the
    /// first `pong`. Returns it with the spawn -> pong time.
    fn spawn(state: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(state);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server { child, port: 0 };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's listening line: {e}"))?;
        server.port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unexpected server output {line:?}"))?;
        let mut conn = Conn::open(server.port)?;
        match conn.call("ping")? {
            ServerEvent::Pong => Ok((server, t0.elapsed().as_secs_f64())),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| format!("connecting to 127.0.0.1:{port}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            writer,
            reader: LineReader::new(stream, MAX_LINE_BYTES),
        })
    }

    /// Sends one request line and returns the first event that answers
    /// it: `pong`, `stats`, or the `result`/`rejected` for `digest`.
    fn send(&mut self, line: &str, digest: Option<u64>) -> Result<ServerEvent, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            let raw = match self.reader.poll_line().map_err(|e| e.to_string())? {
                LinePoll::Line(raw) => raw,
                LinePoll::Pending if Instant::now() < deadline => continue,
                LinePoll::Pending => return Err("request timed out".to_string()),
                LinePoll::Eof => return Err("server closed the connection".to_string()),
            };
            let text = String::from_utf8(raw).map_err(|_| "non-UTF-8 event".to_string())?;
            if text.is_empty() {
                continue;
            }
            let event = parse_event(&text)?;
            match (&event, digest) {
                (ServerEvent::Pong | ServerEvent::Stats(_), None) => return Ok(event),
                (ServerEvent::Result { digest: d, .. }, Some(want)) if *d == want => {
                    return Ok(event)
                }
                (ServerEvent::Rejected { reason, detail, .. }, Some(_)) => {
                    return Err(format!("rejected: {reason}: {detail}"))
                }
                (ServerEvent::Error { code, detail }, _) => {
                    return Err(format!("server error {code}: {detail}"))
                }
                _ => {}
            }
        }
    }

    fn call(&mut self, keyword: &str) -> Result<ServerEvent, String> {
        self.send(keyword, None)
    }
}

/// One answered (or failed) request.
struct Sample {
    job: usize,
    rtt_ms: f64,
    /// `result <digest> <outcome>: <verdict>` and whether it was cached.
    result: Result<(String, bool), String>,
}

/// Runs `jobs` through the closed loop and returns one sample per job.
fn closed_loop(port: u16, jobs: &[Job]) -> Result<Vec<Sample>, String> {
    let cursor = AtomicUsize::new(0);
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::open(port)?;
                    let mut samples = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let t0 = Instant::now();
                        let result =
                            conn.send(&job.line, Some(job.digest))
                                .and_then(|ev| match ev {
                                    ServerEvent::Result {
                                        digest,
                                        outcome,
                                        verdict,
                                        cached,
                                        ..
                                    } => Ok((
                                        format!("result {digest:016x} {outcome}: {verdict}"),
                                        cached,
                                    )),
                                    other => Err(format!("unexpected event {other:?}")),
                                });
                        samples.push(Sample {
                            job: i,
                            rtt_ms: t0.elapsed().as_secs_f64() * 1e3,
                            result,
                        });
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = Vec::with_capacity(jobs.len());
    for r in per_conn {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.job);
    Ok(samples)
}

/// Checks one pass's answers: every job completed, every repeat was a
/// cache hit, and every hit line is byte-equal to the line its miss got.
fn check_pass(
    jobs: &[Job],
    samples: &[Sample],
    lines: &mut BTreeMap<u64, String>,
    out: &mut Outcome,
) {
    for s in samples {
        let job = &jobs[s.job];
        let mut failures = Vec::new();
        match &s.result {
            Err(e) => failures.push(format!("job {:016x}: {e}", job.digest)),
            Ok((line, cached)) => {
                if !line.contains(" completed: ") {
                    failures.push(format!("job not completed: {line}"));
                }
                if job.hit != *cached {
                    failures.push(format!(
                        "job {:016x}: cached={cached}, expected {}",
                        job.digest, job.hit
                    ));
                }
                match lines.get(&job.digest) {
                    Some(first) if first != line => {
                        failures.push(format!("hit line {line:?} != miss line {first:?}"));
                    }
                    Some(_) => {}
                    None => {
                        lines.insert(job.digest, line.clone());
                    }
                }
            }
        }
        out.record(failures);
    }
}

/// Simulated accesses in the jobs' traces that take the miss path.
fn miss_accesses(jobs: &[Job]) -> u64 {
    jobs.iter()
        .filter(|j| !j.hit)
        .map(|j| {
            j.scenario
                .trace()
                .phases
                .iter()
                .flat_map(|p| p.per_gpu.iter())
                .map(|s| s.len() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// In-process work on one traced pass's new scenarios: the oracle, whose
/// verdict must agree with the server's, and the same per-layer probes the
/// simulation workloads run, on each scenario's own trace.
fn probe_pass(
    args: &RunArgs,
    jobs: &[Job],
    lines: &BTreeMap<u64, String>,
    sp: &mut Spans,
    totals: &mut LayerTotals,
    oracle_ms: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    for job in jobs.iter().filter(|j| !j.hit) {
        let t0 = Instant::now();
        let verdict = sp.time("fuzz.check", || check(&job.scenario));
        oracle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let served_clean = lines
            .get(&job.digest)
            .is_some_and(|l| l.ends_with(" completed: clean"));
        if verdict.is_none() != served_clean {
            out.record(vec![format!(
                "job {:016x}: in-process oracle disagrees with the server",
                job.digest
            )]);
        }
        layers::probe_cell(
            sp,
            totals,
            || job.scenario.trace(),
            &job.scenario.config(),
            &Policy::oasis(),
        )?;
    }
    layers::probe_persistence(sp, totals, &args.scratch.join("persist"))
}

pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<Report, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (s, secs) = Server::spawn(&args.scratch.join(format!("serve-{rep}")))?;
        setup.push(secs);
        drop(server.replace(s));
    }
    let server = server.expect("at least one spawn");
    let result = drive(args, &server, out);
    drop(server);
    let (mut e2e, per_layer) = result?;
    if args.trace {
        return Ok(per_layer);
    }
    e2e.put_median("setup_s", "s", &setup);
    Ok(e2e)
}

/// Warm-up pass, then timed passes for `--seconds`. Returns the end-to-end
/// report (untraced metrics) and the per-layer report.
fn drive(args: &RunArgs, server: &Server, out: &mut Outcome) -> Result<(Report, Report), String> {
    let mut stream = JobStream::new(args.seed);
    let mut lines = BTreeMap::new();
    // Warm-up: the scenarios the first timed pass repeats.
    let warm = stream.next_pass();
    let warm_samples = closed_loop(server.port, &warm)?;
    check_pass(&warm, &warm_samples, &mut lines, out);
    // The server's peak RSS covers the timed passes, not start-up.
    stats::reset_peak_rss(&server.pid());

    let mut pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut rtt = Vec::new();
    let mut hit_rtt = Vec::new();
    let mut miss_rtt = Vec::new();
    let mut completed = 0u64;
    let mut accesses = 0u64;
    let mut oracle_ms = Vec::new();
    let mut traced = Vec::new();
    let mut sp = Spans::new(args.trace);
    let t0 = Instant::now();
    let mut pass = 0usize;
    while pass_s.is_empty()
        || (args.trace && traced.is_empty())
        || (!args.trace && rtt.len() < MIN_REQUESTS)
        || t0.elapsed().as_secs_f64() < args.seconds
    {
        // In a traced run, every other pass is traced.
        let tracing = args.trace && pass % 2 == 1;
        pass += 1;
        let jobs = stream.next_pass();
        let mark = sp.mark();
        let outer = tracing.then(|| sp.enter("bench.pass"));
        let t = Instant::now();
        let samples = if tracing {
            sp.time("serve.closed_loop", || closed_loop(server.port, &jobs))?
        } else {
            closed_loop(server.port, &jobs)?
        };
        let secs = t.elapsed().as_secs_f64();
        if tracing {
            traced_pass_s.push(secs);
        } else {
            pass_s.push(secs);
            accesses += miss_accesses(&jobs);
        }
        check_pass(&jobs, &samples, &mut lines, out);
        for s in &samples {
            if matches!(&s.result, Ok((line, _)) if line.contains(" completed: ")) {
                completed += 1;
            }
            rtt.push(s.rtt_ms);
            if jobs[s.job].hit {
                hit_rtt.push(s.rtt_ms);
            } else {
                miss_rtt.push(s.rtt_ms);
            }
        }
        if let Some(outer) = outer {
            let mut totals = LayerTotals::default();
            probe_pass(
                args,
                &jobs,
                &lines,
                &mut sp,
                &mut totals,
                &mut oracle_ms,
                out,
            )?;
            sp.exit(outer);
            traced.push(layers::pass_values(&sp, mark, &totals));
        }
    }
    let peak_kb = stats::peak_rss_kb(&server.pid());
    let stats = match Conn::open(server.port)?.call("stats")? {
        ServerEvent::Stats(counters) => counters,
        other => return Err(format!("expected stats, got {other:?}")),
    };
    let counter = |prefix: &str| -> u64 {
        stats
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    if args.trace {
        sp.write_tsv(&args.spans_path("serve-mixed"))
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    let mut e2e = Report::default();
    let total_s: f64 = pass_s.iter().sum();
    e2e.put_median("run_s", "s", &pass_s);
    e2e.put(
        "steps_per_s",
        "1/s",
        accesses as f64 / total_s,
        pass_s.len(),
    );
    e2e.put(
        "rtt_p50_ms",
        "ms",
        stats::smoothed_quantile(&rtt, 0.5),
        rtt.len(),
    );
    e2e.put(
        "rtt_p95_ms",
        "ms",
        stats::smoothed_quantile(&rtt, 0.95),
        rtt.len(),
    );
    e2e.put(
        "jobs_per_s",
        "1/s",
        completed as f64 / (total_s + traced_pass_s.iter().sum::<f64>()),
        rtt.len(),
    );
    e2e.put(
        "peak_rss_mb",
        "MiB",
        peak_kb.unwrap_or(0) as f64 / 1024.0,
        1,
    );

    let hits = counter("serve.cache_hits");
    let misses = counter("serve.cache_misses");
    let oracle = stats::median(&oracle_ms);
    for v in &mut traced {
        v.insert("fuzz.oracle_ms", oracle);
        v.insert("serve.hit_rtt_ms", stats::median(&hit_rtt));
        v.insert("serve.miss_rtt_ms", stats::median(&miss_rtt));
        v.insert("serve.queue_wait_ms", stats::median(&miss_rtt) - oracle);
        v.insert("serve.cache_hits", hits as f64);
        v.insert(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        v.insert("serve.rejected", counter("serve.rejected") as f64);
    }
    let mut per_layer = Report::default();
    if args.trace {
        let overhead = stats::median(&traced_pass_s) / stats::median(&pass_s) - 1.0;
        crate::put_layers(&mut per_layer, &traced, overhead);
    }
    Ok((e2e, per_layer))
}
