//! Deterministic fan-out: the fuzz report's content must not depend on
//! the worker count.
//!
//! This is the in-tree, debug-profile-sized version of the CI gate
//! (`scripts/ci.sh` runs the full 50-case release-binary comparison at
//! `--jobs 1/4/8` and `cmp`s the JSON): a handful of cases through the
//! real differential oracle, serial vs parallel, asserting byte-identical
//! rendered reports once the one wall-clock line is dropped.

use oasis_fuzz::{report_json, run_fuzz, FuzzOptions};

/// Renders the report and strips the only nondeterministic line.
fn deterministic_json(opts: &FuzzOptions) -> String {
    let report = run_fuzz(opts).expect("unjournaled run cannot fail");
    assert_eq!(report.cases_run, opts.cases, "all cases must run");
    report_json(opts, &report)
        .lines()
        .filter(|l| !l.contains("elapsed_secs"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn same_seed_sweep_is_byte_identical_across_worker_counts() {
    let mk = |jobs: usize| {
        let mut opts = FuzzOptions::new(0xFA57, 3);
        opts.sweep.pool.workers = jobs;
        opts
    };
    let serial = deterministic_json(&mk(1));
    let three = deterministic_json(&mk(3));
    assert_eq!(serial, three, "--jobs 3 diverged from serial");
    assert!(serial.contains("\"violations\": 0"), "{serial}");
    assert!(serial.contains("\"job_failures\": 0"), "{serial}");
}

#[test]
fn a_generous_time_budget_does_not_break_jobs_independence() {
    // Under a time budget the dispatch-wave size is a constant, never
    // derived from the worker count — so as long as the budget doesn't
    // expire, the report stays byte-identical across --jobs. (Regression:
    // the wave size once scaled with `jobs`, which made `cases_run` —
    // and so the whole report — depend on the worker count whenever a
    // budget was set.)
    let mk = |jobs: usize| {
        let mut opts = FuzzOptions::new(0xFA57, 3);
        opts.sweep.pool.workers = jobs;
        opts.time_budget = Some(std::time::Duration::from_secs(3600));
        opts
    };
    let serial = deterministic_json(&mk(1));
    let parallel = deterministic_json(&mk(4));
    assert_eq!(serial, parallel, "budgeted --jobs 4 diverged from serial");
}
