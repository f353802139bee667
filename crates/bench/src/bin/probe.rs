//! Calibration probe: prints the normalized-performance matrix for every
//! app × policy at paper sizes, plus the headline averages. Not a paper
//! figure — use it to check shapes while tuning the cost model.

use oasis_bench::{geomean, matrix, run_cells, FigureTable};
use oasis_mgpu::{Policy, RunReport, SystemConfig};
use oasis_workloads::{WorkloadParams, ALL_APPS};

fn main() {
    let policies = [
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::oasis(),
        Policy::oasis_inmem(),
        Policy::grit(),
        Policy::Ideal,
    ];
    let mut config = SystemConfig::default();
    if let Ok(v) = std::env::var("REMOTE_US") {
        config.remote_access_overhead =
            oasis_engine::Duration::from_ns((v.parse::<f64>().unwrap() * 1000.0) as u64);
    }
    if let Ok(v) = std::env::var("CTR_WEIGHT") {
        config.counter_weight = v.parse().unwrap();
    }
    if let Ok(v) = std::env::var("FAULT_SVC_US") {
        config.uvm_costs.fault_service =
            oasis_engine::Duration::from_ns((v.parse::<f64>().unwrap() * 1000.0) as u64);
    }
    let gpus = config.gpu_count;
    let cells = matrix(&config, &ALL_APPS, &policies, |a| {
        WorkloadParams::paper(a, gpus)
    });
    let reports: Vec<RunReport> = run_cells(&cells)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("{e}"));
    // One row of reports per app, in `policies` order.
    let rows: Vec<&[RunReport]> = reports.chunks(policies.len()).collect();
    let col = |name: &str| {
        policies
            .iter()
            .position(|p| p.name() == name)
            .expect("a probed policy")
    };
    let names: Vec<String> = policies.iter().map(|p| p.name().to_string()).collect();
    let mut table = FigureTable::new(
        "Probe: speedup over on-touch (4 GPUs, Table II sizes)",
        names.clone(),
    );
    for (app, row) in ALL_APPS.iter().zip(&rows) {
        table.push(
            app.abbr(),
            row.iter().map(|r| r.speedup_over(&row[0])).collect(),
        );
    }
    table.push_geomean();
    println!("{}", table.render());

    // Headline comparisons.
    let gm = |target: &str, base: &str| {
        let (t, b) = (col(target), col(base));
        geomean(
            &rows
                .iter()
                .map(|row| row[t].speedup_over(&row[b]))
                .collect::<Vec<_>>(),
        )
    };
    println!(
        "oasis vs on-touch      : {:+.1}% (paper +64%)",
        (gm("oasis", "on-touch") - 1.0) * 100.0
    );
    println!(
        "oasis vs access-counter: {:+.1}% (paper +35%)",
        (gm("oasis", "access-counter") - 1.0) * 100.0
    );
    println!(
        "oasis vs duplication   : {:+.1}% (paper +42%)",
        (gm("oasis", "duplication") - 1.0) * 100.0
    );
    println!(
        "oasis vs grit          : {:+.1}% (paper +12%)",
        (gm("oasis", "grit") - 1.0) * 100.0
    );
    println!(
        "inmem vs oasis         : {:+.1}% (paper ~-2%)",
        (gm("oasis-inmem", "oasis") - 1.0) * 100.0
    );

    // Fault counts (Fig. 24 shape).
    let faults = |p: &str| -> u64 {
        let c = col(p);
        rows.iter().map(|row| row[c].uvm.total_faults()).sum()
    };
    let (fo, fg) = (faults("oasis"), faults("grit"));
    println!(
        "faults oasis/grit      : {:.2} (paper ~0.78)",
        fo as f64 / fg as f64
    );
}
