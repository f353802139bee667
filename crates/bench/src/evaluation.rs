//! Evaluation experiments: Figs. 15–19 and 21–25.

use oasis_core::controller::OasisConfig;
use oasis_mem::page::PolicyBits;
use oasis_mgpu::{Placement, Policy, RunReport, SystemConfig};
use oasis_workloads::{App, WorkloadParams, ALL_APPS};

use crate::cells::matrix;
use crate::table::FigureTable;
use crate::{Figure, Output, Profile};

/// The display names of `policies`.
pub(crate) fn names(policies: &[Policy]) -> Vec<String> {
    policies.iter().map(|p| p.name().to_string()).collect()
}

/// One row per app from an app-major matrix's reports: each app's last
/// `columns.len()` reports as speedups over its first, then the geomean.
pub(crate) fn speedup_table(
    title: &str,
    columns: Vec<String>,
    apps: &[App],
    reports: &[&RunReport],
) -> FigureTable {
    let mut t = FigureTable::new(title, columns);
    let width = reports.len() / apps.len();
    for (app, row) in apps.iter().zip(reports.chunks(width)) {
        let speedups = row[width - t.columns.len()..]
            .iter()
            .map(|r| r.speedup_over(row[0]))
            .collect();
        t.push(app.abbr(), speedups);
    }
    t.push_geomean();
    t
}

/// The table `name` over every app × `policies` on `config`, rendered as
/// speedups over the first policy.
pub(crate) fn speedup_figure(
    name: &'static str,
    title: &'static str,
    config: SystemConfig,
    policies: &[Policy],
    columns: Vec<String>,
    params: impl Fn(App) -> WorkloadParams,
) -> Figure {
    Figure::new(
        matrix(&config, &ALL_APPS, policies, params),
        move |reports| {
            vec![Output::Table(
                name,
                speedup_table(title, columns.clone(), &ALL_APPS, reports),
            )]
        },
    )
}

/// Fig. 15: OASIS and OASIS-InMem vs the three uniform policies + Ideal.
pub fn fig15(profile: Profile) -> Figure {
    let policies = [
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::oasis(),
        Policy::oasis_inmem(),
        Policy::Ideal,
    ];
    speedup_figure(
        "fig15_overall",
        "Fig. 15: OASIS vs uniform policies (normalized to on-touch)",
        SystemConfig::default(),
        &policies,
        names(&policies),
        |a| profile.params(a, 4),
    )
}

/// Fig. 16: reset-threshold sensitivity (4 / 8 / 32).
pub fn fig16(profile: Profile) -> Figure {
    let mut policies = vec![Policy::OnTouch];
    for threshold in [4u8, 8, 32] {
        policies.push(Policy::Oasis(OasisConfig {
            reset_threshold: threshold,
            ..OasisConfig::default()
        }));
    }
    speedup_figure(
        "fig16_reset_threshold",
        "Fig. 16: OASIS reset-threshold sensitivity (normalized to on-touch)",
        SystemConfig::default(),
        &policies,
        vec!["thr-4".into(), "thr-8".into(), "thr-32".into()],
        |a| profile.params(a, 4),
    )
}

/// Fig. 17: OASIS at 8 and 16 GPUs, each normalized to its own on-touch
/// baseline (Table III inputs).
pub fn fig17(profile: Profile) -> Figure {
    let cells = [8usize, 16]
        .into_iter()
        .flat_map(|gpus| {
            matrix(
                &SystemConfig::with_gpus(gpus),
                &ALL_APPS,
                &[Policy::OnTouch, Policy::oasis()],
                |a| profile.params(a, gpus),
            )
        })
        .collect();
    Figure::new(cells, |reports| {
        let mut t = FigureTable::new(
            "Fig. 17: OASIS speedup over on-touch at 8 and 16 GPUs",
            vec!["8-GPU".into(), "16-GPU".into()],
        );
        let (gpu8, gpu16) = reports.split_at(reports.len() / 2);
        for (i, app) in ALL_APPS.iter().enumerate() {
            let speedup = |r: &[&RunReport]| r[2 * i + 1].speedup_over(r[2 * i]);
            t.push(app.abbr(), vec![speedup(gpu8), speedup(gpu16)]);
        }
        t.push_geomean();
        vec![Output::Table("fig17_gpu_count", t)]
    })
}

/// Fig. 18: 16-GPU input sizes run on the 4-GPU system.
pub fn fig18(profile: Profile) -> Figure {
    let policies = [
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::oasis(),
    ];
    speedup_figure(
        "fig18_input_size",
        "Fig. 18: large inputs (16-GPU sizes on 4 GPUs), normalized to on-touch",
        SystemConfig::default(),
        &policies,
        names(&policies),
        |a| WorkloadParams {
            gpu_count: 4,
            ..profile.params(a, 16)
        },
    )
}

/// Fig. 19: 2 MiB pages (normalized to on-touch with 2 MiB pages).
pub fn fig19(profile: Profile) -> Figure {
    let policies = [
        Policy::OnTouch,
        Policy::AccessCounter,
        Policy::Duplication,
        Policy::oasis(),
    ];
    speedup_figure(
        "fig19_large_pages",
        "Fig. 19: 2 MB pages (normalized to on-touch with 2 MB pages)",
        SystemConfig::with_large_pages(),
        &policies,
        names(&policies),
        |a| profile.params(a, 4),
    )
}

/// Fig. 21: initial pages striped across GPUs instead of host-resident.
pub fn fig21(profile: Profile) -> Figure {
    speedup_figure(
        "fig21_placement",
        "Fig. 21: striped initial placement, OASIS vs on-touch",
        SystemConfig {
            placement: Placement::Striped,
            ..SystemConfig::default()
        },
        &[Policy::OnTouch, Policy::oasis()],
        vec!["oasis".into()],
        |a| profile.params(a, 4),
    )
}

/// Fig. 22: OASIS speedup over GRIT.
pub fn fig22(profile: Profile) -> Figure {
    speedup_figure(
        "fig22_vs_grit",
        "Fig. 22: OASIS normalized to GRIT",
        SystemConfig::default(),
        &[Policy::grit(), Policy::oasis()],
        vec!["oasis".into()],
        |a| profile.params(a, 4),
    )
}

/// The GRIT-vs-OASIS matrix of Fig. 22, rendered as one table.
fn grit_oasis(profile: Profile, render: impl Fn(&[&RunReport]) -> Output + 'static) -> Figure {
    Figure::new(
        matrix(
            &SystemConfig::default(),
            &ALL_APPS,
            &[Policy::grit(), Policy::oasis()],
            |a| profile.params(a, 4),
        ),
        move |reports| vec![render(reports)],
    )
}

/// Fig. 23: policy mix of L2-TLB-miss requests under GRIT and OASIS.
pub fn fig23(profile: Profile) -> Figure {
    grit_oasis(profile, |reports| {
        let mut t = FigureTable::new(
            "Fig. 23: page-policy share of L2-TLB-miss requests (percent)",
            vec![
                "grit-ot".into(),
                "grit-ac".into(),
                "grit-dup".into(),
                "oasis-ot".into(),
                "oasis-ac".into(),
                "oasis-dup".into(),
            ],
        );
        t.decimals = 1;
        for (app, pair) in ALL_APPS.iter().zip(reports.chunks(2)) {
            let mut row = Vec::new();
            for r in pair {
                for bits in [
                    PolicyBits::OnTouch,
                    PolicyBits::AccessCounter,
                    PolicyBits::Duplication,
                ] {
                    row.push(r.policy_share(bits) * 100.0);
                }
            }
            t.push(app.abbr(), row);
        }
        Output::Table("fig23_policy_mix", t)
    })
}

/// Fig. 24: total GPU page faults, OASIS normalized to GRIT.
pub fn fig24(profile: Profile) -> Figure {
    grit_oasis(profile, |reports| {
        let mut t = FigureTable::new(
            "Fig. 24: GPU page faults, OASIS normalized to GRIT (lower is better)",
            vec!["oasis/grit".into()],
        );
        for (app, pair) in ALL_APPS.iter().zip(reports.chunks(2)) {
            let g = pair[0].uvm.total_faults();
            let o = pair[1].uvm.total_faults();
            t.push(app.abbr(), vec![o as f64 / g.max(1) as f64]);
        }
        t.push_geomean();
        Output::Table("fig24_faults", t)
    })
}

/// Fig. 25: 150 % memory oversubscription.
pub fn fig25(profile: Profile) -> Figure {
    let cells = ALL_APPS
        .iter()
        .flat_map(|&app| {
            let params = profile.params(app, 4);
            let config =
                SystemConfig::default().with_oversubscription(params.footprint_bytes(), 150);
            matrix(&config, &[app], &[Policy::OnTouch, Policy::oasis()], |_| {
                params
            })
        })
        .collect();
    Figure::new(cells, |reports| {
        let title = "Fig. 25: OASIS vs on-touch under 150% memory oversubscription";
        vec![Output::Table(
            "fig25_oversubscription",
            speedup_table(title, vec!["oasis".into()], &ALL_APPS, reports),
        )]
    })
}
