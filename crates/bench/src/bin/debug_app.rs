//! Debug tool: dump full counters for one app under every policy.
//! Usage: `debug_app <APP> [small]`

use oasis_bench::{matrix, run_cells};
use oasis_mgpu::{Policy, SystemConfig};
use oasis_workloads::{WorkloadParams, ALL_APPS};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "FFT".into());
    let small = std::env::args().nth(2).is_some();
    let fp_override: Option<u64> = std::env::var("FOOTPRINT_MB")
        .ok()
        .and_then(|v| v.parse().ok());
    let app = *ALL_APPS
        .iter()
        .find(|a| a.abbr().eq_ignore_ascii_case(&name))
        .expect("unknown app");
    let policies = [
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::oasis(),
        Policy::grit(),
        Policy::Ideal,
    ];
    let config = if std::env::var("LARGE_PAGES").is_ok() {
        SystemConfig::with_large_pages()
    } else {
        SystemConfig::default()
    };
    let cells = matrix(&config, &[app], &policies, |a| {
        let mut p = if small {
            WorkloadParams::small(a, 4)
        } else {
            WorkloadParams::paper(a, 4)
        };
        if let Some(fp) = fp_override {
            p.footprint_mb = fp;
        }
        p
    });
    println!(
        "{:<16} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "policy",
        "time(ms)",
        "farF",
        "protF",
        "migr",
        "ctrMigr",
        "dup",
        "collapse",
        "rmaps",
        "remoteAcc",
        "localAcc"
    );
    for report in run_cells(&cells) {
        let r = report.unwrap_or_else(|e| panic!("{e}"));
        println!(
            "{:<16} {:>9.2} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
            r.policy,
            r.total_time.as_us() / 1000.0,
            r.uvm.far_faults,
            r.uvm.protection_faults,
            r.uvm.migrations,
            r.uvm.counter_migrations,
            r.uvm.duplications,
            r.uvm.collapses,
            r.uvm.remote_maps,
            r.remote_accesses,
            r.local_accesses,
        );
    }
}
