//! Studies beyond the paper's figures: the ablation of OASIS's and GRIT's
//! design choices, and a check of the paper's Observation 2.

use oasis_core::controller::OasisConfig;
use oasis_grit::GritConfig;
use oasis_mem::types::PageSize;
use oasis_mgpu::characterize::{profile, Scope};
use oasis_mgpu::{Policy, SystemConfig};
use oasis_workloads::{generate, App};

use crate::cells::matrix;
use crate::evaluation::speedup_table;
use crate::table::FigureTable;
use crate::{Figure, Output, Profile};

/// Ablation study of OASIS's design choices (Section V / VI-C):
///
/// * self-correction off (PF-count reset threshold never reached),
/// * explicit kernel-launch resets off,
/// * host-page-table private/shared filter off,
/// * O-Table shrunk to 4 entries,
/// * GRIT without Neighboring-Aware Prediction,
///
/// all normalized to on-touch, on the phase-heavy / object-heavy apps
/// where each mechanism matters; then the UVM group prefetcher
/// (extension) for the baseline and for OASIS.
pub fn ablation(profile: Profile) -> Figure {
    const APPS: [App; 5] = [App::C2d, App::St, App::Mm, App::LeNet, App::Bfs];
    let variants: Vec<(&str, Policy)> = vec![
        ("on-touch", Policy::OnTouch),
        ("oasis", Policy::oasis()),
        (
            "no-self-corr",
            Policy::Oasis(OasisConfig::default().without_self_correction()),
        ),
        (
            "no-launch-reset",
            Policy::Oasis(OasisConfig::default().without_explicit_resets()),
        ),
        (
            "no-pt-filter",
            Policy::Oasis(OasisConfig::default().without_host_pt_filter()),
        ),
        (
            "otable-4",
            Policy::Oasis(OasisConfig {
                otable_capacity: 4,
                ..OasisConfig::default()
            }),
        ),
        ("grit", Policy::grit()),
        (
            "grit-no-nap",
            Policy::Grit(GritConfig {
                neighbor_window: 0,
                ..GritConfig::default()
            }),
        ),
    ];
    let policies: Vec<Policy> = variants.iter().map(|(_, p)| p.clone()).collect();
    let mut cells = matrix(&SystemConfig::default(), &APPS, &policies, |a| {
        profile.params(a, 4)
    });
    let split = cells.len();
    let prefetch = SystemConfig {
        prefetch_group: true,
        ..SystemConfig::default()
    };
    cells.extend(matrix(
        &prefetch,
        &APPS,
        &[Policy::OnTouch, Policy::oasis()],
        |a| profile.params(a, 4),
    ));
    let names: Vec<String> = variants[1..].iter().map(|(n, _)| n.to_string()).collect();
    Figure::new(cells, move |reports| {
        let (plain, prefetched) = reports.split_at(split);
        let title = "Ablation: OASIS/GRIT design choices (normalized to on-touch)";
        let t = speedup_table(title, names.clone(), &APPS, plain);
        let mut t2 = FigureTable::new(
            "Ablation: UVM group prefetcher on (speedup vs no-prefetch run)",
            vec!["on-touch+pf".into(), "oasis+pf".into()],
        );
        let width = split / APPS.len();
        for (i, app) in APPS.iter().enumerate() {
            let (base, oasis) = (plain[i * width], plain[i * width + 1]);
            let (base_pf, oasis_pf) = (prefetched[2 * i], prefetched[2 * i + 1]);
            t2.push(
                app.abbr(),
                vec![base_pf.speedup_over(base), oasis_pf.speedup_over(oasis)],
            );
        }
        t2.push_geomean();
        vec![
            Output::Table("ablation", t),
            Output::Table("ablation_prefetch", t2),
        ]
    })
}

/// Checks the paper's Observation 2 on the generated traces: "pages
/// within a single object typically exhibit the same patterns".
///
/// The paper evaluates the 7 single-explicit-phase applications (BFS, FFT,
/// I2C, MM, MT, PR, ST) and finds only 2 of 26 objects *non-uniform* (at
/// least one page differing from the rest in both the private/shared and
/// read/write dimensions), with only ST qualifying as a non-uniform app.
pub fn observation2() -> String {
    let single_phase = [
        App::Bfs,
        App::Fft,
        App::I2c,
        App::Mm,
        App::Mt,
        App::Pr,
        App::St,
    ];
    let mut out =
        String::from("## Observation 2: object uniformity (single-explicit-phase apps)\n");
    let mut objects = 0usize;
    let mut non_uniform_objects = 0usize;
    let mut non_uniform_apps = 0usize;
    for app in single_phase {
        let trace = generate(app, &Profile::Full.params(app, 4));
        let profiles = profile(&trace, PageSize::Small4K, Scope::Whole);
        let mut app_non_uniform = false;
        for p in profiles.iter().filter(|p| p.accesses > 0) {
            objects += 1;
            if p.is_non_uniform() {
                non_uniform_objects += 1;
                app_non_uniform = true;
                out.push_str(&format!("  {} {:<16} NON-UNIFORM\n", app.abbr(), p.name));
            }
        }
        if app_non_uniform {
            non_uniform_apps += 1;
        }
    }
    out.push_str(&format!(
        "{non_uniform_objects} of {objects} touched objects non-uniform \
         (paper: 2 of 26); {non_uniform_apps} of {} apps non-uniform (paper: 1 of 7)\n",
        single_phase.len()
    ));
    out
}
