//! Host-time benchmark of the OASIS reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hpc-fit --seed 0 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! One workload per process. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer split from a traced pass. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any failed output check makes the exit code nonzero.
//! `--workload all` runs every workload untraced and then traced, each in
//! a child process of its own. See `perfbench/README.md`.

mod layers;
mod pins;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sim::SimWorkload;
use stats::Report;

const WORKLOADS: [&str; 4] = ["dnn-train", "hpc-fit", "hpc-oversub", "serve-mixed"];

/// Command-line arguments of one workload run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-process scratch directory (removed at exit).
    pub scratch: PathBuf,
}

impl RunArgs {
    /// Where the traced run writes its spans.
    pub fn spans_path(&self, workload: &str) -> PathBuf {
        PathBuf::from(format!(
            ".perfbench-out/spans-{workload}-seed{}.tsv",
            self.seed
        ))
    }
}

/// Attempted and failed output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one checked cell or job; it failed if `failures` is not
    /// empty.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }
}

/// Adds every per-layer metric: the median over traced passes (0 where a
/// pass did not exercise the layer), plus the tracing overhead.
pub fn put_layers(report: &mut Report, passes: &[BTreeMap<&'static str, f64>], overhead: f64) {
    for (name, unit) in layers::PER_LAYER {
        if name == "bench.trace_overhead" {
            report.put(name, unit, overhead, passes.len());
            continue;
        }
        let xs: Vec<f64> = passes
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        report.put_median(name, unit, &xs);
    }
}

fn usage() -> String {
    format!(
        "usage: oasis-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(format!(".perfbench-tmp/{}", std::process::id())),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Runs one workload and prints its table and result line.
fn run_one(args: &RunArgs) -> ExitCode {
    let mut out = Outcome::default();
    let result = std::fs::create_dir_all(&args.scratch)
        .and_then(|()| std::fs::create_dir_all(".perfbench-out"))
        .map_err(|e| format!("creating scratch directories: {e}"))
        .and_then(|()| match args.workload.as_str() {
            "dnn-train" => sim::run(SimWorkload::DnnTrain, args, &mut out),
            "hpc-fit" => sim::run(SimWorkload::HpcFit, args, &mut out),
            "hpc-oversub" => sim::run(SimWorkload::HpcOversub, args, &mut out),
            _ => serve::run(args, &mut out),
        });
    let _ = std::fs::remove_dir_all(&args.scratch);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mode = if args.trace { "traced" } else { "untraced" };
    print!(
        "{}",
        report.table(&format!("{} seed={} {mode}", args.workload, args.seed))
    );
    println!(
        "  {:<34} {:>16} {:<6} n={}",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        report.json_line(correct, out.attempted.max(1), out.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload untraced, then traced, each in its own process.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", w, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                eprintln!("perfbench: {w} --trace {trace} failed: {status:?}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        // The server process of `serve-mixed`: `oasis-sim serve` through the
        // CLI library, on the given state directory.
        Some("--serve-child") => {
            let Some(state) = argv.get(1) else {
                return ExitCode::FAILURE;
            };
            let cli = [
                "serve",
                "--serve-state",
                state,
                "--port",
                "0",
                "--jobs",
                "2",
            ];
            let cli = oasis_cli::Cli::parse(cli.iter().map(|s| s.to_string()))
                .expect("fixed serve arguments parse");
            let stop = oasis_engine::StopHandle::new();
            oasis_cli::signal::install_drain(stop.clone());
            let _ = oasis_cli::run_with_stop(&cli, Some(stop));
            return ExitCode::SUCCESS;
        }
        // Prints the pinned-counter table for the default seed.
        Some("--pin") => {
            for w in [
                SimWorkload::DnnTrain,
                SimWorkload::HpcFit,
                SimWorkload::HpcOversub,
            ] {
                if let Err(e) = sim::print_pins(w) {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
