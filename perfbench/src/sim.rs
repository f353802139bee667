//! The three simulation workloads: `dnn-train`, `hpc-fit`, `hpc-oversub`.
//!
//! A cell is one (app, policy, capacity) run at the Table II footprint on
//! 4 GPUs. A pass runs every cell of the workload once, generate -> report,
//! the way `oasis-sim run` does. The untraced pass is what the end-to-end
//! metrics time; the traced pass steps the same cells epoch by epoch with a
//! span around every call (see [`crate::layers`]).

use std::time::Instant;

use oasis_mgpu::{Policy, RunReport, System, SystemConfig};
use oasis_workloads::{generate, App, WorkloadParams};

use crate::layers::{self, LayerTotals};
use crate::pins;
use crate::spans::Spans;
use crate::stats::{self, Report};
use crate::{Outcome, RunArgs};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const HPC_APPS: [App; 8] = [
    App::Bfs,
    App::C2d,
    App::Fft,
    App::I2c,
    App::Mm,
    App::Mt,
    App::Pr,
    App::St,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    DnnTrain,
    HpcFit,
    HpcOversub,
}

impl SimWorkload {
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::DnnTrain => "dnn-train",
            SimWorkload::HpcFit => "hpc-fit",
            SimWorkload::HpcOversub => "hpc-oversub",
        }
    }

    fn cells(self) -> Vec<Cell> {
        let policies: &[&'static str] = match self {
            SimWorkload::DnnTrain => &["oasis"],
            _ => &["on-touch", "oasis"],
        };
        let apps: &[App] = match self {
            SimWorkload::DnnTrain => &[App::LeNet, App::Vgg16, App::ResNet18],
            _ => &HPC_APPS,
        };
        policies
            .iter()
            .flat_map(|&policy| {
                apps.iter().map(move |&app| Cell {
                    app,
                    policy,
                    oversub: self == SimWorkload::HpcOversub,
                })
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    app: App,
    policy: &'static str,
    oversub: bool,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}", self.app.abbr(), self.policy)
    }

    fn policy(&self) -> Policy {
        match self.policy {
            "on-touch" => Policy::OnTouch,
            _ => Policy::oasis(),
        }
    }

    /// Table II parameters; seed 0 keeps the paper's workload seeds.
    fn params(&self, seed: u64) -> WorkloadParams {
        let mut p = WorkloadParams::paper(self.app, 4);
        p.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        p
    }

    fn config(&self, params: &WorkloadParams) -> SystemConfig {
        let config = SystemConfig::default();
        if self.oversub {
            config.with_oversubscription(params.footprint_bytes(), 150)
        } else {
            config
        }
    }
}

/// One untraced cell: generate -> report, with the time inside
/// `System::run` split out.
struct CellRun {
    report: RunReport,
    wall_s: f64,
    run_s: f64,
    valid: Result<(), String>,
}

fn run_cell(cell: &Cell, seed: u64) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let params = cell.params(seed);
    let trace = generate(cell.app, &params);
    let mut sys = System::new(cell.config(&params), &cell.policy());
    let t_run = Instant::now();
    let report = sys
        .run(&trace)
        .map_err(|e| format!("{}: {e}", cell.key()))?;
    let run_s = t_run.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let valid = sys.validate().map_err(|e| e.to_string());
    Ok(CellRun {
        report,
        wall_s,
        run_s,
        valid,
    })
}

/// The output check for one cell. `reference` is the cell's report from
/// the run's first pass; every later pass must simulate the same thing.
fn check_cell(
    w: SimWorkload,
    seed: u64,
    cell: &Cell,
    report: &RunReport,
    reference: Option<&RunReport>,
) -> Vec<String> {
    let key = cell.key();
    let mut failures = Vec::new();
    if let Some(reference) = reference {
        if !report.same_simulation(reference) {
            failures.push(format!(
                "{key}: simulation differs from the run's first pass"
            ));
        }
    }
    if seed == 0 {
        let got = pins::counters(report);
        match pins::lookup(w.name(), &key) {
            Some(want) if want == got => {}
            Some(want) => failures.push(format!("{key}: counters {got} != pinned {want}")),
            None => failures.push(format!("{key}: no pinned counters")),
        }
    }
    let evictions = report.uvm.evictions;
    match w {
        SimWorkload::HpcFit if evictions != 0 => {
            failures.push(format!(
                "{key}: {evictions} evictions in a fitting footprint"
            ));
        }
        SimWorkload::HpcOversub if evictions == 0 => {
            failures.push(format!("{key}: no evictions at 150% oversubscription"));
        }
        _ => {}
    }
    failures
}

/// Median set-up time: `generate` plus `run_prefix(&trace, 0)` (load and
/// compile) for every cell.
fn measure_setup(cells: &[Cell], seed: u64) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for cell in cells {
            let params = cell.params(seed);
            let trace = generate(cell.app, &params);
            let mut sys = System::new(cell.config(&params), &cell.policy());
            sys.run_prefix(&trace, 0)
                .map_err(|e| format!("{}: {e}", cell.key()))?;
            std::hint::black_box(&sys);
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok(samples)
}

/// Per-cell samples of the untraced passes.
#[derive(Default)]
struct Untraced {
    passes: usize,
    /// Generate -> report seconds, per cell, one sample per pass.
    wall_s: Vec<Vec<f64>>,
    /// Seconds inside `System::run`, per cell, one sample per pass.
    run_s: Vec<Vec<f64>>,
    /// Retired steps per cell (identical on every pass).
    steps: Vec<u64>,
}

impl Untraced {
    /// Pass time as the sum of per-cell medians: a burst of host noise
    /// shorter than a pass slows a few cells of one pass, and their
    /// medians discard it.
    fn pass_s(&self) -> f64 {
        self.wall_s.iter().map(|xs| stats::median(xs)).sum()
    }

    fn steps_per_s(&self) -> f64 {
        let run_s: f64 = self.run_s.iter().map(|xs| stats::median(xs)).sum();
        self.steps.iter().sum::<u64>() as f64 / run_s
    }

    /// Every cell latency sample, in ms.
    fn cell_ms(&self) -> Vec<f64> {
        self.wall_s.iter().flatten().map(|s| s * 1e3).collect()
    }
}

/// Runs one untraced pass, checking every cell against `refs` (filled on
/// the first pass).
fn untraced_pass(
    w: SimWorkload,
    args: &RunArgs,
    cells: &[Cell],
    refs: &mut Vec<RunReport>,
    acc: &mut Untraced,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut runs = Vec::with_capacity(cells.len());
    for cell in cells {
        runs.push(run_cell(cell, args.seed)?);
    }
    let first = refs.is_empty();
    if first {
        acc.wall_s = vec![Vec::new(); cells.len()];
        acc.run_s = vec![Vec::new(); cells.len()];
        acc.steps = runs
            .iter()
            .map(|r| r.report.instrumentation.retired_steps)
            .collect();
    }
    acc.passes += 1;
    for (i, (cell, r)) in cells.iter().zip(&runs).enumerate() {
        acc.wall_s[i].push(r.wall_s);
        acc.run_s[i].push(r.run_s);
        let mut failures = check_cell(w, args.seed, cell, &r.report, refs.get(i));
        if let Err(e) = &r.valid {
            failures.push(format!("{}: validate: {e}", cell.key()));
        }
        out.record(failures);
    }
    if first {
        refs.extend(runs.into_iter().map(|r| r.report));
    }
    Ok(())
}

/// Runs one traced pass and returns its per-layer values plus the
/// generate -> report time the traced cells took, less the digest probes.
fn traced_pass(
    w: SimWorkload,
    args: &RunArgs,
    cells: &[Cell],
    refs: &[RunReport],
    sp: &mut Spans,
    out: &mut Outcome,
) -> Result<(std::collections::BTreeMap<&'static str, f64>, f64), String> {
    let mark = sp.mark();
    let mut totals = LayerTotals::default();
    let pass = sp.enter("bench.pass");
    for (i, cell) in cells.iter().enumerate() {
        let params = cell.params(args.seed);
        let report = layers::probe_cell(
            sp,
            &mut totals,
            || generate(cell.app, &params),
            &cell.config(&params),
            &cell.policy(),
        )?;
        out.record(check_cell(w, args.seed, cell, &report, refs.get(i)));
    }
    layers::probe_persistence(sp, &mut totals, &args.scratch.join("persist"))?;
    sp.exit(pass);
    let traced_s =
        (sp.total_ms(mark, "bench.cell") - sp.total_ms(mark, layers::DIGEST_PROBE)) / 1e3;
    Ok((layers::pass_values(sp, mark, &totals), traced_s))
}

pub fn run(w: SimWorkload, args: &RunArgs, out: &mut Outcome) -> Result<Report, String> {
    let cells = w.cells();
    let setup = measure_setup(&cells, args.seed)?;
    stats::reset_peak_rss("self");

    let mut refs = Vec::new();
    let mut acc = Untraced::default();
    let mut traced = Vec::new();
    let mut traced_s = Vec::new();
    let mut sp = Spans::new(args.trace);
    let t0 = Instant::now();
    while acc.passes == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        untraced_pass(w, args, &cells, &mut refs, &mut acc, out)?;
        if args.trace {
            let (values, s) = traced_pass(w, args, &cells, &refs, &mut sp, out)?;
            traced.push(values);
            traced_s.push(s);
        }
    }
    let peak_mb = stats::peak_rss_kb("self").unwrap_or(0) as f64 / 1024.0;
    if args.trace {
        sp.write_tsv(&args.spans_path(w.name()))
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    let mut report = Report::default();
    if !args.trace {
        let cell_ms = acc.cell_ms();
        let run_s = acc.pass_s();
        report.put("run_s", "s", run_s, acc.passes);
        report.put("steps_per_s", "1/s", acc.steps_per_s(), acc.passes);
        report.put_median("setup_s", "s", &setup);
        report.put("peak_rss_mb", "MiB", peak_mb, 1);
        report.put(
            "rtt_p50_ms",
            "ms",
            stats::smoothed_quantile(&cell_ms, 0.5),
            cell_ms.len(),
        );
        report.put(
            "rtt_p95_ms",
            "ms",
            stats::smoothed_quantile(&cell_ms, 0.95),
            cell_ms.len(),
        );
        report.put("jobs_per_s", "1/s", cells.len() as f64 / run_s, acc.passes);
    } else {
        let overhead = stats::median(&traced_s) / acc.pass_s() - 1.0;
        crate::put_layers(&mut report, &traced, overhead);
    }
    Ok(report)
}

/// Prints the pinned-counter table for the default seed (`--pin`).
pub fn print_pins(w: SimWorkload) -> Result<(), String> {
    for cell in w.cells() {
        let r = run_cell(&cell, 0)?;
        println!(
            "    (\"{}\", \"{}\", \"{}\"),",
            w.name(),
            cell.key(),
            pins::counters(&r.report)
        );
    }
    Ok(())
}
