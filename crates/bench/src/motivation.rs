//! Motivation & characterization experiments: Tables I–III, Figs. 2–7, 20.

use oasis_mem::types::PageSize;
use oasis_mgpu::characterize::{page_type_mix, profile, RwPattern, Scope, SharePattern};
use oasis_mgpu::{Policy, SystemConfig};
use oasis_workloads::{generate, App, ALL_APPS};

use crate::evaluation::{names, speedup_figure};
use crate::table::FigureTable;
use crate::{Figure, Profile};

/// Table I: the baseline configuration, rendered from the live defaults so
/// the document can never drift from the code.
pub fn table1() -> String {
    let c = SystemConfig::default();
    let mut out = String::from("## Table I: baseline multi-GPU configuration\n");
    let rows = [
        (
            "Compute model".to_string(),
            format!(
                "{} GHz, {} lanes/GPU (trace-level)",
                c.clock_ghz, c.lanes_per_gpu
            ),
        ),
        ("GPUs".to_string(), format!("{}", c.gpu_count)),
        (
            "L1 TLB".to_string(),
            format!(
                "{} entries, {}-way, {} cy",
                c.l1_tlb.0, c.l1_tlb.1, c.l1_tlb_cycles
            ),
        ),
        (
            "L2 TLB".to_string(),
            format!(
                "{} entries, {}-way, {} cy",
                c.l2_tlb.0, c.l2_tlb.1, c.l2_tlb_cycles
            ),
        ),
        (
            "GMMU page walk".to_string(),
            format!("{} cy", c.page_walk_cycles),
        ),
        (
            "L2 cache".to_string(),
            format!(
                "{} KB, {}-way, {} B lines",
                c.l2_cache.0 / 1024,
                c.l2_cache.1,
                c.l2_cache.2
            ),
        ),
        (
            "DRAM".to_string(),
            format!(
                "{} ns, {} GB/s",
                c.dram_latency.as_ns(),
                c.dram_bytes_per_sec / 1_000_000_000
            ),
        ),
        (
            "Inter-GPU network".to_string(),
            format!(
                "{} GB/s NVLink-v2, {} ns",
                c.fabric.nvlink_bytes_per_sec / 1_000_000_000,
                c.fabric.nvlink_latency.as_ns()
            ),
        ),
        (
            "CPU-GPU network".to_string(),
            format!(
                "{} GB/s PCIe-v4, {:.1} us",
                c.fabric.pcie_bytes_per_sec / 1_000_000_000,
                c.fabric.pcie_latency.as_us()
            ),
        ),
        (
            "Access counter threshold".to_string(),
            format!(
                "{} per 64 KB group (x{} sampling weight)",
                c.counter_threshold, c.counter_weight
            ),
        ),
        (
            "Far fault".to_string(),
            format!(
                "{:.0} us base, {:.1} us service",
                c.uvm_costs.far_fault_base.as_us(),
                c.uvm_costs.fault_service.as_us()
            ),
        ),
        ("Page size".to_string(), format!("{}", c.page_size)),
    ];
    for (k, v) in rows {
        out.push_str(&format!("{k:<26} {v}\n"));
    }
    out
}

/// Table II: the application list with pattern, object count, footprint.
pub fn table2() -> String {
    let mut out = String::from("## Table II: applications\n");
    out.push_str(&format!(
        "{:<9} {:<32} {:<12} {:<15} {:>9} {:>10}\n",
        "Abbr", "Application", "Suite", "Pattern", "#Objects", "Footprint"
    ));
    for app in ALL_APPS {
        out.push_str(&format!(
            "{:<9} {:<32} {:<12} {:<15} {:>9} {:>7} MB\n",
            app.abbr(),
            app.full_name(),
            app.suite(),
            app.pattern().to_string(),
            app.object_count(),
            app.footprint_mb(4),
        ));
    }
    out
}

/// Table III: footprints at 8 and 16 GPUs.
pub fn table3() -> FigureTable {
    let mut t = FigureTable::new(
        "Table III: memory footprint (MB) for different GPU counts",
        vec!["4-GPU".into(), "8-GPU".into(), "16-GPU".into()],
    );
    t.decimals = 0;
    for app in ALL_APPS {
        t.push(
            app.abbr(),
            vec![
                app.footprint_mb(4) as f64,
                app.footprint_mb(8) as f64,
                app.footprint_mb(16) as f64,
            ],
        );
    }
    t
}

/// Fig. 2: uniform policies + Ideal, normalized to on-touch.
pub fn fig02(profile: Profile) -> Figure {
    let policies = [
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::Ideal,
    ];
    speedup_figure(
        "fig02_uniform_policies",
        "Fig. 2: uniform page-management policies normalized to on-touch",
        SystemConfig::default(),
        &policies,
        names(&policies),
        |a| profile.params(a, 4),
    )
}

/// Fig. 3: object size distribution per app (pages at 4 KiB).
pub fn fig03() -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 3: object size distribution (4 KiB pages per object)",
        vec![
            "min".into(),
            "median".into(),
            "max".into(),
            "%1-page".into(),
        ],
    );
    t.decimals = 1;
    for app in ALL_APPS {
        let trace = generate(app, &Profile::Full.params(app, 4));
        let mut sizes: Vec<u64> = trace
            .objects
            .iter()
            .map(|o| PageSize::Small4K.pages_for(o.bytes).max(1))
            .collect();
        sizes.sort_unstable();
        let single = sizes.iter().filter(|&&s| s == 1).count() as f64 / sizes.len() as f64;
        t.push(
            app.abbr(),
            vec![
                sizes[0] as f64,
                sizes[sizes.len() / 2] as f64,
                *sizes.last().expect("nonempty") as f64,
                single * 100.0,
            ],
        );
    }
    t
}

fn rw_label(p: Option<RwPattern>) -> &'static str {
    match p {
        None => "untouched",
        Some(RwPattern::ReadOnly) => "read-only",
        Some(RwPattern::WriteOnly) => "write-only",
        Some(RwPattern::RwMix) => "rw-mix",
    }
}

fn share_label(p: Option<SharePattern>) -> &'static str {
    match p {
        None => "untouched",
        Some(SharePattern::Private) => "private",
        Some(SharePattern::Shared) => "shared",
    }
}

/// Fig. 4: MT's per-object page patterns, overall and across 8 time
/// intervals.
pub fn fig04() -> String {
    let trace = generate(App::Mt, &Profile::Full.params(App::Mt, 4));
    let mut out = String::from("## Fig. 4: MT page access patterns (per object, 8 intervals)\n");
    let whole = profile(&trace, PageSize::Small4K, Scope::Whole);
    for p in whole.iter().filter(|p| p.accesses > 0) {
        out.push_str(&format!(
            "{:<12} pages 0..{:<6} overall: {} / {}\n",
            p.name,
            p.pages,
            share_label(p.share_pattern()),
            rw_label(p.rw_pattern()),
        ));
    }
    out.push_str(&format!("{:<10}", "interval"));
    for p in whole.iter().filter(|p| p.accesses > 0) {
        out.push_str(&format!(" {:>12}", p.name));
    }
    out.push('\n');
    for i in 0..8 {
        let iv = profile(
            &trace,
            PageSize::Small4K,
            Scope::Interval { index: i, of: 8 },
        );
        out.push_str(&format!("{i:<10}"));
        for (idx, p) in whole.iter().enumerate() {
            if p.accesses == 0 {
                continue;
            }
            out.push_str(&format!(" {:>12}", rw_label(iv[idx].rw_pattern())));
        }
        out.push('\n');
    }
    out
}

/// Fig. 5: object behaviour and access share for I2C, MM, ST.
pub fn fig05() -> String {
    let mut out = String::from("## Fig. 5: object behaviour (pattern, pages, % of accesses)\n");
    for app in [App::I2c, App::Mm, App::St] {
        let trace = generate(app, &Profile::Full.params(app, 4));
        let profiles = profile(&trace, PageSize::Small4K, Scope::Whole);
        let total: u64 = profiles.iter().map(|p| p.accesses).sum();
        out.push_str(&format!("{}:\n", app.abbr()));
        for p in profiles.iter().filter(|p| p.accesses > 0) {
            out.push_str(&format!(
                "  {:<14} {:<8}-{:<11} {:>7} pages  {:>5.1}% of accesses\n",
                p.name,
                share_label(p.share_pattern()),
                rw_label(p.rw_pattern()),
                p.pages,
                p.accesses as f64 / total as f64 * 100.0,
            ));
        }
    }
    out
}

/// Fig. 6: C2D object patterns per explicit phase vs overall.
pub fn fig06() -> String {
    let trace = generate(App::C2d, &Profile::Full.params(App::C2d, 4));
    let mut out = String::from("## Fig. 6: C2D object patterns across explicit phases\n");
    let whole = profile(&trace, PageSize::Small4K, Scope::Whole);
    let main_objects: Vec<usize> = whole
        .iter()
        .enumerate()
        .filter(|(_, p)| p.accesses > 0 && p.pages > 16)
        .map(|(i, _)| i)
        .collect();
    out.push_str(&format!("{:<16}", "phase"));
    for &i in &main_objects {
        out.push_str(&format!(" {:>22}", whole[i].name));
    }
    out.push('\n');
    for (pi, ph) in trace.phases.iter().enumerate().take(3) {
        let pp = profile(&trace, PageSize::Small4K, Scope::Phase(pi));
        out.push_str(&format!("{:<16}", ph.name));
        for &i in &main_objects {
            let label = if pp[i].accesses == 0 {
                "-".to_string()
            } else {
                format!(
                    "{}/{}",
                    share_label(pp[i].share_pattern()),
                    rw_label(pp[i].rw_pattern())
                )
            };
            out.push_str(&format!(" {label:>22}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<16}", "overall"));
    for &i in &main_objects {
        out.push_str(&format!(
            " {:>22}",
            format!(
                "{}/{}",
                share_label(whole[i].share_pattern()),
                rw_label(whole[i].rw_pattern())
            )
        ));
    }
    out.push('\n');
    out
}

/// Fig. 7: ST buffer patterns across iterations (as stream intervals).
pub fn fig07() -> String {
    let trace = generate(App::St, &Profile::Full.params(App::St, 4));
    let iters = oasis_workloads::apps::st::ITERATIONS;
    let mut out = String::from("## Fig. 7: ST buffer read/write alternation across iterations\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12}\n",
        "interval", "ST_Data1", "ST_Data2"
    ));
    for i in 0..iters {
        let iv = profile(
            &trace,
            PageSize::Small4K,
            Scope::Interval {
                index: i,
                of: iters,
            },
        );
        out.push_str(&format!(
            "{:<10} {:>12} {:>12}\n",
            i,
            rw_label(iv[0].rw_pattern()),
            rw_label(iv[1].rw_pattern()),
        ));
    }
    out
}

/// Fig. 20: page-type percentages at 4 KiB vs 2 MiB pages.
pub fn fig20() -> FigureTable {
    let mut t = FigureTable::new(
        "Fig. 20: page-type mix (percent of touched pages), 4KB vs 2MB",
        vec![
            "4K-ro".into(),
            "4K-wo".into(),
            "4K-rw".into(),
            "4K-shared".into(),
            "2M-ro".into(),
            "2M-wo".into(),
            "2M-rw".into(),
            "2M-shared".into(),
        ],
    );
    t.decimals = 1;
    for app in ALL_APPS {
        let trace = generate(app, &Profile::Full.params(app, 4));
        let ((ro4, wo4, rw4), (_, sh4)) = page_type_mix(&trace, PageSize::Small4K);
        let ((ro2, wo2, rw2), (_, sh2)) = page_type_mix(&trace, PageSize::Large2M);
        t.push(
            app.abbr(),
            vec![
                ro4 * 100.0,
                wo4 * 100.0,
                rw4 * 100.0,
                sh4 * 100.0,
                ro2 * 100.0,
                wo2 * 100.0,
                rw2 * 100.0,
                sh2 * 100.0,
            ],
        );
    }
    t
}
