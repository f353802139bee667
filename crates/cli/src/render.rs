//! Report rendering: aligned text, and flat JSON through
//! [`oasis_engine::json`].

use std::fmt::Write as _;

use oasis_engine::json::Writer;
use oasis_mem::types::PageSize;
use oasis_mgpu::characterize::{profile, RwPattern, Scope, SharePattern};
use oasis_mgpu::{InjectionOutcome, RunReport};
use oasis_workloads::Trace;

/// Human-readable single-run report.
pub fn report_text(r: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} under {}", r.app, r.policy);
    let _ = writeln!(
        out,
        "  simulated time     {:>12.3} ms",
        r.total_time.as_us() / 1000.0
    );
    let _ = writeln!(out, "  kernel launches    {:>12}", r.phases);
    let _ = writeln!(out, "  transactions       {:>12}", r.accesses);
    let _ = writeln!(
        out,
        "  local / remote     {:>12} / {}",
        r.local_accesses, r.remote_accesses
    );
    let _ = writeln!(out, "  far faults         {:>12}", r.uvm.far_faults);
    let _ = writeln!(out, "  protection faults  {:>12}", r.uvm.protection_faults);
    let _ = writeln!(out, "  migrations         {:>12}", r.uvm.migrations);
    let _ = writeln!(out, "  counter migrations {:>12}", r.uvm.counter_migrations);
    let _ = writeln!(out, "  duplications       {:>12}", r.uvm.duplications);
    let _ = writeln!(out, "  collapses          {:>12}", r.uvm.collapses);
    let _ = writeln!(out, "  remote maps        {:>12}", r.uvm.remote_maps);
    let _ = writeln!(out, "  evictions          {:>12}", r.uvm.evictions);
    let _ = writeln!(out, "  thrash pins        {:>12}", r.uvm.thrash_pins);
    let _ = writeln!(
        out,
        "  NVLink / PCIe      {:>9} KB / {} KB",
        r.nvlink_bytes / 1024,
        r.pcie_bytes / 1024
    );
    // Hardware-fault recovery lines appear only when a fault plan did
    // something; the zero-fault report stays unchanged.
    let f = &r.faults;
    if f.link_faults + f.reroutes + f.crc_retries > 0 || r.uvm.ecc_quarantines > 0 {
        let _ = writeln!(
            out,
            "  hw degradation     {:>12} link fault(s), {} reroutes ({} KB), {} CRC retries",
            f.link_faults,
            f.reroutes,
            f.rerouted_bytes / 1024,
            f.crc_retries
        );
        let _ = writeln!(
            out,
            "  ECC recovery       {:>12} quarantines, {} fault retries",
            r.uvm.ecc_quarantines, r.uvm.fault_retries
        );
    }
    let (h1, m1) = r.l1_tlb;
    let (h2, m2) = r.l2_tlb;
    let _ = writeln!(
        out,
        "  L1 TLB hit rate    {:>11.1}%   L2 TLB hit rate {:>5.1}%",
        pct(h1, h1 + m1),
        pct(h2, h2 + m2)
    );
    let i = &r.instrumentation;
    let _ = writeln!(
        out,
        "  wall clock         {:>12.3} ms   ({} steps retired)",
        i.wall_clock_us as f64 / 1000.0,
        i.retired_steps
    );
    if i.checkpoint_write_us > 0 || i.checkpoint_restore_us > 0 {
        let _ = writeln!(
            out,
            "  checkpoint I/O     {:>12.3} ms write / {:.3} ms restore",
            i.checkpoint_write_us as f64 / 1000.0,
            i.checkpoint_restore_us as f64 / 1000.0
        );
    }
    out
}

fn pct(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64 * 100.0
    }
}

/// Machine-readable single-run report.
pub fn report_json(r: &RunReport) -> String {
    let i = &r.instrumentation;
    Writer::pretty()
        .str("app", &r.app)
        .str("policy", &r.policy)
        .fixed3("total_time_us", r.total_time.as_us())
        .u64("phases", r.phases as u64)
        .u64("accesses", r.accesses)
        .u64("local_accesses", r.local_accesses)
        .u64("remote_accesses", r.remote_accesses)
        .u64("far_faults", r.uvm.far_faults)
        .u64("protection_faults", r.uvm.protection_faults)
        .u64("migrations", r.uvm.migrations)
        .u64("counter_migrations", r.uvm.counter_migrations)
        .u64("duplications", r.uvm.duplications)
        .u64("collapses", r.uvm.collapses)
        .u64("remote_maps", r.uvm.remote_maps)
        .u64("evictions", r.uvm.evictions)
        .u64("thrash_pins", r.uvm.thrash_pins)
        .u64("nvlink_bytes", r.nvlink_bytes)
        .u64("pcie_bytes", r.pcie_bytes)
        .u64("link_faults", r.faults.link_faults)
        .u64("reroutes", r.faults.reroutes)
        .u64("rerouted_bytes", r.faults.rerouted_bytes)
        .u64("crc_retries", r.faults.crc_retries)
        .u64("ecc_quarantines", r.uvm.ecc_quarantines)
        .u64("fault_retries", r.uvm.fault_retries)
        .u64s("policy_mix", r.policy_mix)
        .u64("wall_clock_us", i.wall_clock_us)
        .u64("retired_steps", i.retired_steps)
        .u64("checkpoint_write_us", i.checkpoint_write_us)
        .u64("checkpoint_restore_us", i.checkpoint_restore_us)
        .hexes("digest_trail", r.digest_trail.iter().copied())
        .finish()
}

/// Metrics-registry breakdown: top-N counters by value, every latency
/// histogram with bucket-resolution quantiles, and the per-epoch rollup
/// table. Deterministic: ties in counter value break on key order.
pub fn stats_text(r: &RunReport, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} under {} — metrics breakdown", r.app, r.policy);

    let mut counters: Vec<(&str, u64)> = r.metrics.counters().collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total = counters.len();
    let _ = writeln!(out, "\ncounters (top {} of {total}):", top.min(total));
    for (key, v) in counters.iter().take(top) {
        let _ = writeln!(out, "  {key:<40} {v:>16}");
    }

    let _ = writeln!(
        out,
        "\nlatency histograms:\n  {:<28} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "key", "count", "mean(ns)", "p50(ns)", "p99(ns)", "max(ns)"
    );
    for (key, h) in r.metrics.histograms().take(top) {
        let _ = writeln!(
            out,
            "  {key:<28} {:>10} {:>12.1} {:>10} {:>10} {:>10}",
            h.count(),
            h.mean_ns(),
            h.quantile_ns(0.5),
            h.quantile_ns(0.99),
            h.max_ns()
        );
    }

    if !r.epoch_rollups.is_empty() {
        let _ = writeln!(
            out,
            "\nper-epoch rollups:\n  {:<6} {:>12} {:>10} {:>8} {:>10} {:>10}",
            "epoch", "sim(ms)", "accesses", "faults", "migrations", "evictions"
        );
        for e in &r.epoch_rollups {
            let _ = writeln!(
                out,
                "  {:<6} {:>12.3} {:>10} {:>8} {:>10} {:>10}",
                e.epoch,
                e.sim_time.as_us() / 1000.0,
                e.accesses,
                e.uvm.total_faults(),
                e.uvm.migrations + e.uvm.counter_migrations,
                e.uvm.evictions
            );
        }
    }
    if !r.trace_events.is_empty() {
        let _ = writeln!(
            out,
            "\ntrace: {} events retained (dropped count under trace.dropped)",
            r.trace_events.len()
        );
    }
    out
}

/// Machine-readable fault-injection campaign: one JSON object per line per
/// outcome (JSON Lines; seeds as hex strings to stay exact beyond 2^53).
pub fn inject_json(outcomes: &[InjectionOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let line = Writer::line()
            .str("kind", o.kind.name())
            .hex("seed", o.seed)
            .bool("ok", o.ok)
            .str("line", &o.line)
            .finish();
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Side-by-side comparison of several runs (same app).
pub fn comparison_text(reports: &[RunReport]) -> String {
    let mut out = String::new();
    let base = reports
        .iter()
        .find(|r| r.policy == "on-touch")
        .or_else(|| reports.first())
        .expect("at least one report");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>9} {:>12} {:>12}",
        "policy", "time(ms)", "speedup", "page-faults", "remote-acc"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<16} {:>12.3} {:>8.2}x {:>12} {:>12}",
            r.policy,
            r.total_time.as_us() / 1000.0,
            r.speedup_over(base),
            r.uvm.total_faults(),
            r.remote_accesses
        );
    }
    out
}

/// Per-object characterization of a trace.
pub fn characterization_text(trace: &Trace, page: PageSize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} objects, {} MB, {} launches, {} transactions ({page} pages)",
        trace.app,
        trace.objects.len(),
        trace.footprint_bytes() >> 20,
        trace.phases.len(),
        trace.total_accesses()
    );
    let profiles = profile(trace, page, Scope::Whole);
    let total: u64 = profiles.iter().map(|p| p.accesses).sum();
    for p in profiles.iter().filter(|p| p.accesses > 0) {
        let share = match p.share_pattern() {
            Some(SharePattern::Private) => "private",
            Some(SharePattern::Shared) => "shared",
            None => "untouched",
        };
        let rw = match p.rw_pattern() {
            Some(RwPattern::ReadOnly) => "read-only",
            Some(RwPattern::WriteOnly) => "write-only",
            Some(RwPattern::RwMix) => "rw-mix",
            None => "untouched",
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>8} pages  {:<8} {:<10} {:>5.1}% of accesses{}",
            p.name,
            p.pages,
            share,
            rw,
            pct(p.accesses, total),
            if p.is_non_uniform() {
                "  [non-uniform]"
            } else {
                ""
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run --json` and `inject --json` are read by scripts: these bytes
    /// may never move.
    #[test]
    fn report_and_inject_json_are_pinned() {
        let mut r = RunReport {
            app: "C2D".to_string(),
            policy: "oasis".to_string(),
            total_time: oasis_engine::Duration::from_ns(1_234_567),
            phases: 9,
            accesses: 1000,
            local_accesses: 700,
            remote_accesses: 300,
            l1_tlb: (1, 2),
            l2_tlb: (3, 4),
            l2_cache: (5, 6),
            uvm: Default::default(),
            policy_mix: [11, 22, 33],
            nvlink_bytes: 4096,
            pcie_bytes: 8192,
            faults: Default::default(),
            errors_recorded: 0,
            error_samples: Vec::new(),
            digest_trail: vec![0x1, 0xdead_beef_0bad_f00d],
            instrumentation: Default::default(),
            epoch_rollups: Vec::new(),
            metrics: oasis_engine::MetricsRegistry::disabled(),
            trace_events: Vec::new(),
        };
        r.uvm.far_faults = 12;
        r.uvm.protection_faults = 13;
        r.uvm.migrations = 14;
        r.uvm.counter_migrations = 15;
        r.uvm.duplications = 16;
        r.uvm.collapses = 17;
        r.uvm.remote_maps = 18;
        r.uvm.evictions = 19;
        r.uvm.thrash_pins = 20;
        r.uvm.ecc_quarantines = 21;
        r.uvm.fault_retries = 22;
        r.faults.link_faults = 1;
        r.faults.reroutes = 2;
        r.faults.rerouted_bytes = 3;
        r.faults.crc_retries = 4;
        r.instrumentation.wall_clock_us = 55;
        r.instrumentation.retired_steps = 66;
        r.instrumentation.checkpoint_write_us = 77;
        r.instrumentation.checkpoint_restore_us = 88;
        let pinned = r#"{
  "app": "C2D",
  "policy": "oasis",
  "total_time_us": 1234.567,
  "phases": 9,
  "accesses": 1000,
  "local_accesses": 700,
  "remote_accesses": 300,
  "far_faults": 12,
  "protection_faults": 13,
  "migrations": 14,
  "counter_migrations": 15,
  "duplications": 16,
  "collapses": 17,
  "remote_maps": 18,
  "evictions": 19,
  "thrash_pins": 20,
  "nvlink_bytes": 4096,
  "pcie_bytes": 8192,
  "link_faults": 1,
  "reroutes": 2,
  "rerouted_bytes": 3,
  "crc_retries": 4,
  "ecc_quarantines": 21,
  "fault_retries": 22,
  "policy_mix": [11, 22, 33],
  "wall_clock_us": 55,
  "retired_steps": 66,
  "checkpoint_write_us": 77,
  "checkpoint_restore_us": 88,
  "digest_trail": ["0x0000000000000001", "0xdeadbeef0badf00d"]
}"#;
        assert_eq!(report_json(&r), pinned);
        r.digest_trail.clear();
        assert!(report_json(&r).contains("\n  \"digest_trail\": []\n}"));

        let outcomes = [
            InjectionOutcome {
                kind: oasis_mgpu::Perturbation::LinkDown,
                seed: 0xfeed,
                ok: true,
                line: "link-down: \"0-1\" down at epoch 2".to_string(),
            },
            InjectionOutcome {
                kind: oasis_mgpu::Perturbation::OutOfRangeAccess,
                seed: u64::MAX,
                ok: false,
                line: "aborted at step 3".to_string(),
            },
        ];
        let pinned = concat!(
            r#"{"kind": "link-down", "seed": "0x000000000000feed", "ok": true, "#,
            r#""line": "link-down: \"0-1\" down at epoch 2"}"#,
            "\n",
            r#"{"kind": "out-of-range-access", "seed": "0xffffffffffffffff", "ok": false, "#,
            r#""line": "aborted at step 3"}"#,
            "\n",
        );
        assert_eq!(inject_json(&outcomes), pinned);
    }

    #[test]
    fn pct_handles_zero_denominator() {
        assert_eq!(pct(5, 0), 0.0);
        assert_eq!(pct(1, 2), 50.0);
    }
}
