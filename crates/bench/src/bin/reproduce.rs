//! Reproduces the paper's tables and figures, the ablation study and
//! Observation 2, printing each and writing CSVs under `results/`.
//!
//! Usage: `reproduce [NAME...]` runs the named entries (all of them when
//! none is named), simulating each distinct cell of their union once. Set
//! `OASIS_FAST=1` for a quick smoke run with reduced input sizes. Exits
//! nonzero when a cell fails or a CSV cannot be written.

use std::process::ExitCode;
use std::time::Instant;

use oasis_bench::{dedup, run_cells, select, Cell, Figure, Output, Profile, ENTRIES};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let entries = match select(&names) {
        Ok(entries) => entries,
        Err(unknown) => {
            let valid: Vec<&str> = ENTRIES.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "reproduce: unknown entry `{unknown}`; valid names: {}",
                valid.join(" ")
            );
            return ExitCode::FAILURE;
        }
    };
    let profile = Profile::from_env();
    println!("Reproducing all OASIS (HPCA 2025) experiments [{profile:?} profile]\n");
    let t0 = Instant::now();

    let figures: Vec<Figure> = entries.iter().map(|(_, build)| build(profile)).collect();
    let cells: Vec<Cell> = figures.iter().flat_map(|f| f.cells.clone()).collect();
    let results = run_cells(&cells);

    let mut failures = Vec::new();
    let mut outputs = Vec::new();
    let mut next = 0;
    for ((name, _), figure) in entries.iter().zip(&figures) {
        let mine = &results[next..next + figure.cells.len()];
        next += figure.cells.len();
        match mine
            .iter()
            .map(Result::as_ref)
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(reports) => outputs.extend(figure.render(&reports)),
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }
    // A table ends in a blank line; text is followed by one unless last.
    for (i, output) in outputs.iter().enumerate() {
        match output {
            Output::Text(text) => {
                print!("{text}");
                if i + 1 < outputs.len() {
                    println!();
                }
            }
            Output::Table(name, table) => {
                if let Err(e) = table.emit(name) {
                    failures.push(e.to_string());
                }
            }
        }
    }

    eprintln!(
        "reproduce: {} cells declared, {} run, {:.1}s",
        cells.len(),
        dedup(&cells).0.len(),
        t0.elapsed().as_secs_f64()
    );
    for failure in &failures {
        eprintln!("reproduce: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
