//! Property-based scenario fuzzer for the OASIS simulator.
//!
//! Every test elsewhere in the workspace exercises a hand-picked scenario;
//! this crate explores the random space of (workload × platform × fault
//! plan × policy) combinations automatically, exploiting the simulator's
//! determinism end to end:
//!
//! 1. **Generate** ([`scenario`]): one `SimRng` seed expands into a full
//!    scenario — app, GPU count, footprint, page size, placement, capacity
//!    pressure, and a valid hardware-fault plan.
//! 2. **Check** ([`oracle`]): the scenario runs under all four core
//!    policies. Policies may change placement and timing, never semantics —
//!    so final registered page sets and retired access counts must agree,
//!    no run may panic or abort under `RecordAndContinue`, the invariant
//!    guard must stay clean, and both replay and kill/resume must be
//!    bit-identical.
//! 3. **Shrink** ([`shrink`]): on a violation, delta-debugging reduces the
//!    scenario (drop fault events, truncate kernels, fewer GPUs, less
//!    memory) while the same oracle keeps firing.
//! 4. **Remember** ([`corpus`]): the minimal repro is written as a JSON
//!    file under `tests/corpus/`, which the regression suite replays
//!    forever after.
//!
//! The CLI front end is `oasis-sim fuzz`; [`run_fuzz`] is the library
//! entry point it wraps.

pub mod corpus;
pub mod oracle;
pub mod scenario;
pub mod shrink;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use oasis_engine::codec::{ByteReader, ByteWriter, CodecError};
use oasis_engine::json::Writer;
use oasis_engine::pool::Job;
use oasis_engine::sweep::{clip, Sweep, SweepCodec, SweepError, SweepOptions, SweepStats};
use oasis_engine::{fnv1a, SimRng};

pub use corpus::{
    from_json, load_dir, scenario_digest, to_json, to_json_line, write_repro, Corpus, CorpusEntry,
    SkippedFile,
};
pub use oracle::{check, check_runs, OracleKind, Violation};
pub use scenario::{Scenario, FUZZ_APPS};
pub use shrink::{shrink, ShrinkResult, DEFAULT_SHRINK_BUDGET};

/// Knobs for one fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed: case `i` fuzzes the scenario whose seed is the `i`-th
    /// draw of this seed's RNG stream, so `(seed, i)` pins any case.
    pub seed: u64,
    /// Cases to attempt.
    pub cases: u64,
    /// Optional wall-clock bound; the sweep stops cleanly at the first
    /// dispatch-wave boundary past the budget.
    pub time_budget: Option<Duration>,
    /// Where to write shrunk repros (`None` disables corpus writing, e.g.
    /// for exploratory runs in a read-only checkout).
    pub corpus_dir: Option<PathBuf>,
    /// Oracle evaluations the shrinker may spend per failure.
    pub shrink_budget: usize,
    /// Pool shape, journal and stop. A resumed journal must carry the
    /// same `(seed, cases)` tag; a raised stop drains the sweep and the
    /// report comes back with [`SweepStats::interrupted`] set.
    pub sweep: SweepOptions,
}

impl FuzzOptions {
    /// A session with the given seed and case count and default budgets.
    pub fn new(seed: u64, cases: u64) -> Self {
        FuzzOptions {
            seed,
            cases,
            time_budget: None,
            corpus_dir: None,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            sweep: SweepOptions::default(),
        }
    }

    /// The journal tag pinning this sweep's identity: a resume is only
    /// valid against a journal created with the same seed and case count.
    pub fn sweep_tag(&self) -> u64 {
        fnv1a(
            format!(
                "oasis-fuzz-sweep-v1 seed={} cases={}",
                self.seed, self.cases
            )
            .as_bytes(),
        )
    }
}

/// Everything known about one failing case: the original scenario, the
/// shrunk repro, and where it was saved.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Which case of the session failed.
    pub case_index: u64,
    /// The scenario as generated.
    pub original: Scenario,
    /// The minimized scenario (still failing with the same oracle).
    pub shrunk: Scenario,
    /// The violation the shrunk scenario produces.
    pub violation: Violation,
    /// Corpus file holding the repro, when a corpus dir was configured
    /// and writable.
    pub corpus_path: Option<PathBuf>,
    /// Oracle evaluations the shrinker spent.
    pub shrink_attempts: usize,
}

/// One violating case from the sweep (unshrunk; the lowest-index one is
/// additionally shrunk into [`FuzzReport::failure`]).
#[derive(Debug, Clone)]
pub struct CaseViolation {
    /// Which case of the session violated.
    pub case_index: u64,
    /// The scenario as generated.
    pub scenario: Scenario,
    /// What the oracle reported.
    pub violation: Violation,
}

/// A case whose *job* failed under supervision — it panicked past the
/// oracle's own containment, blew its deadline, or exhausted retries —
/// as opposed to a case whose oracle found a simulator violation.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Which case of the session was lost.
    pub case_index: u64,
    /// The scenario seed, so `(seed, case)` stays reproducible.
    pub scenario_seed: u64,
    /// The supervision error, rendered.
    pub error: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Whether the job ended quarantined (crashed/hung worker) rather
    /// than merely failed.
    pub quarantined: bool,
}

/// Result of a fuzzing session. Unlike the pre-pool fuzzer, the sweep
/// runs *every* case — a violation (or a hung worker) costs one case,
/// never the rest of the campaign — and then shrinks the lowest-index
/// violation into one corpus-saved repro.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases actually checked (short of the request only when the time
    /// budget expires between dispatch waves).
    pub cases_run: u64,
    /// Wall-clock time spent (not deterministic).
    pub elapsed: Duration,
    /// Every violating case, in case order.
    pub violations: Vec<CaseViolation>,
    /// The lowest-index failing case, shrunk and saved.
    pub failure: Option<CaseFailure>,
    /// Cases lost to supervision (panic/deadline/retry-exhaustion), in
    /// case order.
    pub job_failures: Vec<JobFailure>,
    /// Resumed cases, retries, whether a stop drained the sweep, and
    /// journal warnings (never part of the JSON report).
    pub sweep: SweepStats,
}

/// Journals a case verdict: `0` for clean, or `1` plus the oracle kind
/// and the (clipped) violation detail.
struct FuzzCodec;

impl SweepCodec for FuzzCodec {
    type Value = Option<Violation>;

    fn encode(&self, verdict: &Option<Violation>, w: &mut ByteWriter) {
        match verdict {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.str(v.kind.as_str());
                w.str(&clip(&v.detail));
            }
        }
    }

    fn decode(&self, _case: u64, r: &mut ByteReader<'_>) -> Result<Option<Violation>, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => {
                let kind = r.str()?;
                let kind = OracleKind::parse(&kind)
                    .ok_or_else(|| r.malformed(format!("unknown oracle kind '{kind}'")))?;
                let detail = r.str()?;
                Ok(Some(Violation { kind, detail }))
            }
            b => Err(r.malformed(format!("bad verdict byte {b:#04x}"))),
        }
    }
}

/// Runs a fuzzing session: all cases fan out over the supervised pool
/// (generate → differential oracle per case), then the lowest-index
/// violation is shrunk and corpus-saved.
///
/// The sweep is deterministic in everything but wall-clock: case seeds
/// are drawn from the master seed up front and results are collected in
/// case order. When [`FuzzOptions::time_budget`] is `None` the report's
/// content is fully independent of the worker count; with a budget, the
/// dispatch-wave layout is still worker-independent, but `cases_run`
/// depends on how many waves fit inside the wall-clock budget.
///
/// The sweep runs on the journaled runner ([`Sweep`]): with a journal
/// configured, a resume merges a previous (killed or drained) sweep's
/// adjudicated cases instead of re-running them, and a resumed
/// budget-free report is byte-identical to a straight run's. Errors are
/// returned only for unusable journals; oracle violations and lost jobs
/// stay inside the report.
pub fn run_fuzz(opts: &FuzzOptions) -> Result<FuzzReport, SweepError> {
    let started = Instant::now();
    let mut master = SimRng::seed_from_u64(opts.seed);
    let case_seeds: Vec<u64> = (0..opts.cases).map(|_| master.next_u64()).collect();
    let label = format!("fuzz seed={} cases={}", opts.seed, opts.cases);
    let mut sweep = Sweep::open(FuzzCodec, &opts.sweep, opts.sweep_tag(), &label, opts.cases)?;

    // With no time budget, dispatch everything as one sweep: every case
    // runs, so the report is byte-identical at any `jobs`. With a budget,
    // dispatch in waves of a *constant* size — never derived from the
    // worker count — so the wave layout (and therefore which boundary the
    // budget can cut at) is also independent of `jobs`; how many waves
    // fit inside the budget still depends on wall-clock speed.
    const BUDGET_WAVE: usize = 32;
    let pending = sweep.pending();
    let wave = if opts.time_budget.is_some() {
        BUDGET_WAVE
    } else {
        pending.len().max(1)
    };
    for chunk in pending.chunks(wave) {
        let over_budget = opts
            .time_budget
            .is_some_and(|budget| started.elapsed() >= budget);
        if over_budget || sweep.interrupted() {
            break;
        }
        sweep.run(chunk, |case| {
            let seed = case_seeds[case as usize];
            Job::new(format!("case-{case}"), move || {
                Ok(check(&Scenario::generate(seed)))
            })
        })?;
    }
    let (settled, stats) = sweep.finish();

    // `settled` is in case order, so a resumed sweep interleaves
    // journaled and fresh results exactly as a straight run orders them.
    let mut violations = Vec::new();
    let mut job_failures = Vec::new();
    for settled in &settled {
        let case_index = settled.id;
        let scenario_seed = case_seeds[case_index as usize];
        match &settled.outcome {
            Ok(None) => {}
            Ok(Some(violation)) => violations.push(CaseViolation {
                case_index,
                scenario: Scenario::generate(scenario_seed),
                violation: violation.clone(),
            }),
            Err(lost) => job_failures.push(JobFailure {
                case_index,
                scenario_seed,
                error: lost.error.clone(),
                attempts: settled.attempts,
                quarantined: lost.quarantined,
            }),
        }
    }

    // Shrink the lowest-index violation: one minimal, corpus-saved repro
    // is the actionable artifact; the full tally stays in the report.
    // A drained sweep skips shrinking — the resume will do it with the
    // complete picture.
    let failure = if stats.interrupted {
        None
    } else {
        violations.first().map(|first| {
            let result = shrink(&first.scenario, &first.violation, opts.shrink_budget);
            let corpus_path = opts.corpus_dir.as_ref().and_then(|dir| {
                write_repro(dir, &result.scenario, Some(result.violation.kind)).ok()
            });
            CaseFailure {
                case_index: first.case_index,
                original: first.scenario.clone(),
                shrunk: result.scenario,
                violation: result.violation,
                corpus_path,
                shrink_attempts: result.attempts,
            }
        })
    };

    Ok(FuzzReport {
        cases_run: settled.len() as u64,
        elapsed: started.elapsed(),
        violations,
        failure,
        job_failures,
        sweep: stats,
    })
}

/// Renders a machine-readable session report. With no time budget set,
/// everything in it except the `"elapsed_secs"` line is deterministic
/// for a given `(seed, cases)` regardless of `jobs` — which is exactly
/// what lets CI `cmp` a serial and a parallel run after dropping that
/// one line. (A time budget makes `cases_run` wall-clock dependent, so
/// budgeted runs are not byte-comparable.)
pub fn report_json(opts: &FuzzOptions, report: &FuzzReport) -> String {
    let violations = report.violations.iter().map(|v| v.case_index);
    let lost = report.job_failures.iter();
    let quarantined = lost.filter(|f| f.quarantined).map(|f| f.case_index);
    Writer::pretty()
        .str("schema", "oasis-fuzz-report-v2")
        .u64("master_seed", opts.seed)
        .u64("cases_requested", opts.cases)
        .u64("cases_run", report.cases_run)
        .fixed3("elapsed_secs", report.elapsed.as_secs_f64())
        .u64("violations", report.violations.len() as u64)
        .u64s("violation_cases", violations)
        .u64("job_failures", report.job_failures.len() as u64)
        .u64s("quarantined_cases", quarantined)
        .u64("retries", report.sweep.retries)
        .finish()
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_reproducible() {
        // The i-th scenario of a session depends only on (seed, i).
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        for _ in 0..10 {
            assert_eq!(
                Scenario::generate(a.next_u64()),
                Scenario::generate(b.next_u64())
            );
        }
    }

    #[test]
    fn a_short_clean_session_reports_all_cases_run() {
        let report = run_fuzz(&FuzzOptions::new(0xFA57, 2)).expect("unjournaled run");
        assert_eq!(report.cases_run, 2);
        assert!(
            report.failure.is_none(),
            "unexpected failure: {:?}",
            report.failure
        );
    }

    #[test]
    fn zero_time_budget_stops_before_any_case() {
        let mut opts = FuzzOptions::new(1, 100);
        opts.time_budget = Some(Duration::ZERO);
        let report = run_fuzz(&opts).expect("unjournaled run");
        assert_eq!(report.cases_run, 0);
        assert!(report.failure.is_none());
    }

    #[test]
    fn the_sweep_tag_pins_seed_and_case_count() {
        assert_eq!(
            FuzzOptions::new(7, 10).sweep_tag(),
            FuzzOptions::new(7, 10).sweep_tag()
        );
        assert_ne!(
            FuzzOptions::new(7, 10).sweep_tag(),
            FuzzOptions::new(8, 10).sweep_tag()
        );
        assert_ne!(
            FuzzOptions::new(7, 10).sweep_tag(),
            FuzzOptions::new(7, 11).sweep_tag()
        );
    }

    #[test]
    fn a_pre_raised_stop_interrupts_before_any_case() {
        let stop = oasis_engine::StopHandle::new();
        stop.stop();
        let mut opts = FuzzOptions::new(3, 5);
        opts.sweep.stop = Some(stop);
        let report = run_fuzz(&opts).expect("stop is not an error");
        assert!(report.sweep.interrupted);
        assert_eq!(report.cases_run, 0);
        assert!(report.failure.is_none());
    }

    /// `fuzz --json` is `cmp`'d across `--jobs` counts and resumes: these
    /// bytes may never move.
    #[test]
    fn report_json_is_pinned() {
        let violation = |case_index| CaseViolation {
            case_index,
            scenario: Scenario::generate(case_index),
            violation: Violation {
                kind: OracleKind::Abort,
                detail: "aborted".to_string(),
            },
        };
        let lost = |case_index, quarantined| JobFailure {
            case_index,
            scenario_seed: case_index,
            error: "panicked".to_string(),
            attempts: 2,
            quarantined,
        };
        let report = FuzzReport {
            cases_run: 9,
            elapsed: Duration::from_millis(1500),
            violations: vec![violation(3), violation(5)],
            failure: None,
            job_failures: vec![lost(1, true), lost(4, false), lost(6, true)],
            sweep: SweepStats {
                retries: 4,
                ..SweepStats::default()
            },
        };
        let pinned = r#"{
  "schema": "oasis-fuzz-report-v2",
  "master_seed": 7,
  "cases_requested": 10,
  "cases_run": 9,
  "elapsed_secs": 1.500,
  "violations": 2,
  "violation_cases": [3, 5],
  "job_failures": 3,
  "quarantined_cases": [1, 6],
  "retries": 4
}
"#;
        assert_eq!(report_json(&FuzzOptions::new(7, 10), &report), pinned);
        let clean = FuzzReport {
            violations: Vec::new(),
            job_failures: Vec::new(),
            ..report
        };
        let pinned = pinned
            .replace("\"violations\": 2", "\"violations\": 0")
            .replace("[3, 5]", "[]")
            .replace("\"job_failures\": 3", "\"job_failures\": 0")
            .replace("[1, 6]", "[]");
        assert_eq!(report_json(&FuzzOptions::new(7, 10), &clean), pinned);
    }

    #[test]
    fn verdicts_round_trip_through_the_journal_codec() {
        let violation = Violation {
            kind: OracleKind::Panic,
            detail: "boom".to_string(),
        };
        for verdict in [None, Some(violation)] {
            let mut w = ByteWriter::new();
            FuzzCodec.encode(&verdict, &mut w);
            let mut r = ByteReader::new("test", w.as_slice());
            let back = FuzzCodec.decode(0, &mut r).expect("decode");
            assert_eq!(format!("{back:?}"), format!("{verdict:?}"));
        }
    }
}
