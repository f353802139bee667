//! Cells and the runner: every figure declares the simulations it needs as
//! plain cells, and [`run_cells`] runs each distinct cell once on the
//! shared supervised pool.

use std::fmt;

use oasis_engine::pool::{run_sweep, Job, JobError, JobOutcome, PoolConfig};
use oasis_mgpu::{try_simulate, Policy, RunReport, SystemConfig};
use oasis_workloads::{generate, App, WorkloadParams};

/// One simulation: a platform, an application with its trace parameters,
/// and a policy. Two cells are the same simulation exactly when they are
/// `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The simulated platform.
    pub config: SystemConfig,
    /// The application.
    pub app: App,
    /// Trace generation parameters.
    pub params: WorkloadParams,
    /// The page-management policy.
    pub policy: Policy,
}

impl Cell {
    /// Generates the cell's trace and simulates it.
    fn simulate(&self) -> Result<RunReport, String> {
        let trace = generate(self.app, &self.params);
        try_simulate(&self.config, self.policy.clone(), &trace).map_err(|e| e.to_string())
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {} on {} GPUs at {} MB",
            self.app,
            self.policy.name(),
            self.config.gpu_count,
            self.params.footprint_mb
        )
    }
}

/// A cell whose simulation panicked or failed.
#[derive(Debug, Clone)]
pub struct CellError {
    /// The cell that did not produce a report.
    pub cell: Box<Cell>,
    /// What went wrong.
    pub error: JobError,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {} {}", self.cell, self.error)
    }
}

/// Every `(app, policy)` pair, app-major, on one platform.
pub fn matrix(
    config: &SystemConfig,
    apps: &[App],
    policies: &[Policy],
    params: impl Fn(App) -> WorkloadParams,
) -> Vec<Cell> {
    apps.iter()
        .flat_map(|&app| {
            let params = params(app);
            policies.iter().map(move |policy| Cell {
                config: config.clone(),
                app,
                params,
                policy: policy.clone(),
            })
        })
        .collect()
}

/// The distinct cells of `cells` in first-seen order, and for each cell
/// of `cells` the index of its distinct cell.
pub fn dedup(cells: &[Cell]) -> (Vec<&Cell>, Vec<usize>) {
    let mut distinct: Vec<&Cell> = Vec::new();
    let slots = cells
        .iter()
        .map(|cell| match distinct.iter().position(|&d| d == cell) {
            Some(slot) => slot,
            None => {
                distinct.push(cell);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, slots)
}

/// Simulates each distinct cell of `cells` once, in first-seen order on
/// one worker per core, and returns one result per cell of `cells`, in
/// order.
pub fn run_cells(cells: &[Cell]) -> Vec<Result<RunReport, CellError>> {
    let (distinct, slots) = dedup(cells);
    let jobs = distinct
        .iter()
        .map(|&cell| {
            let cell = cell.clone();
            Job::new(cell.to_string(), move || cell.simulate())
        })
        .collect();
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let sweep = run_sweep(&PoolConfig::with_workers(workers), jobs);
    let runs: Vec<Result<RunReport, CellError>> = distinct
        .iter()
        .zip(sweep.jobs)
        .map(|(&cell, job)| match job.outcome {
            JobOutcome::Completed(report) => Ok(report),
            JobOutcome::Failed(error) | JobOutcome::Quarantined(error) => Err(CellError {
                cell: Box::new(cell.clone()),
                error,
            }),
        })
        .collect();
    slots.iter().map(|&slot| runs[slot].clone()).collect()
}

#[cfg(test)]
mod tests {
    use oasis_core::controller::OasisConfig;
    use oasis_mgpu::Placement;

    use super::*;
    use crate::{Profile, ENTRIES};

    fn cell(app: App) -> Cell {
        Cell {
            config: SystemConfig::default(),
            app,
            params: WorkloadParams {
                footprint_mb: 2,
                ..WorkloadParams::small(app, 4)
            },
            policy: Policy::oasis(),
        }
    }

    fn distinct_count(cells: &[Cell]) -> usize {
        dedup(cells).0.len()
    }

    #[test]
    fn exact_repeats_merge_in_first_seen_order() {
        let cells = [cell(App::Mt), cell(App::Mm), cell(App::Mt), cell(App::Mm)];
        let (distinct, slots) = dedup(&cells);
        assert_eq!(distinct, [&cells[0], &cells[1]]);
        assert_eq!(slots, [0, 1, 0, 1]);
    }

    #[test]
    fn cells_differing_in_one_field_never_merge() {
        let base = cell(App::Mt);
        let threshold = |reset_threshold| Cell {
            policy: Policy::Oasis(OasisConfig {
                reset_threshold,
                ..OasisConfig::default()
            }),
            ..base.clone()
        };
        let config = |config: SystemConfig| Cell {
            config,
            ..base.clone()
        };
        let params = |params: WorkloadParams| Cell {
            params,
            ..base.clone()
        };
        let pairs = [
            (threshold(4), threshold(32)),
            (
                config(SystemConfig::default()),
                config(SystemConfig {
                    placement: Placement::Striped,
                    ..SystemConfig::default()
                }),
            ),
            (
                config(SystemConfig::default()),
                config(SystemConfig::with_large_pages()),
            ),
            (
                config(SystemConfig::default().with_oversubscription(8 << 20, 150)),
                config(SystemConfig::default().with_oversubscription(8 << 20, 200)),
            ),
            (
                config(SystemConfig::with_gpus(4)),
                config(SystemConfig::with_gpus(8)),
            ),
            (
                params(base.params),
                params(WorkloadParams {
                    footprint_mb: 3,
                    ..base.params
                }),
            ),
            (
                config(SystemConfig::default()),
                config(SystemConfig {
                    prefetch_group: true,
                    ..SystemConfig::default()
                }),
            ),
        ];
        for (a, b) in pairs {
            assert_eq!(distinct_count(&[a.clone(), a.clone()]), 1, "{a:?}");
            assert_eq!(distinct_count(&[a.clone(), b.clone()]), 2, "{a:?} vs {b:?}");
        }
    }

    /// All declared cells of the named entries at the full profile.
    fn declared(names: &[&str]) -> Vec<Cell> {
        ENTRIES
            .iter()
            .filter(|(name, _)| names.contains(name))
            .flat_map(|(_, build)| build(Profile::Full).cells)
            .collect()
    }

    #[test]
    fn the_paper_declares_396_cells_of_which_275_are_distinct() {
        let paper: Vec<&str> = ENTRIES[..20].iter().map(|(name, _)| *name).collect();
        assert_eq!(paper.last(), Some(&"fig25_oversubscription"));
        let cells = declared(&paper);
        assert_eq!((cells.len(), distinct_count(&cells)), (396, 275));

        let all: Vec<&str> = ENTRIES.iter().map(|(name, _)| *name).collect();
        let cells = declared(&all);
        assert_eq!((cells.len(), distinct_count(&cells)), (446, 310));
        assert!(declared(&["observation2"]).is_empty());
    }

    #[test]
    fn run_cells_reports_every_declared_cell_in_order() {
        let cells = [
            cell(App::Mt),
            Cell {
                policy: Policy::OnTouch,
                ..cell(App::Mm)
            },
            cell(App::Mt),
            Cell {
                config: SystemConfig::with_large_pages(),
                ..cell(App::Mm)
            },
        ];
        let reports = run_cells(&cells);
        assert_eq!(reports.len(), cells.len());
        for (cell, report) in cells.iter().zip(&reports) {
            let direct = cell.simulate().expect("cell simulates");
            let report = report.as_ref().expect("cell simulates");
            assert!(report.same_simulation(&direct), "{cell}");
        }
    }

    #[test]
    fn a_panicking_cell_comes_back_as_an_error_naming_it() {
        let broken = Cell {
            config: SystemConfig {
                l1_tlb: (3, 2),
                ..SystemConfig::default()
            },
            ..cell(App::Mm)
        };
        let reports = run_cells(&[cell(App::Mt), broken.clone()]);
        assert!(reports[0].is_ok());
        let err = reports[1]
            .as_ref()
            .expect_err("invalid TLB geometry panics");
        assert_eq!(*err.cell, broken);
        assert!(matches!(err.error, JobError::Panicked(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.starts_with("cell MM under oasis on 4 GPUs at 2 MB panicked"),
            "{msg}"
        );
    }
}
