//! Experiment harness shared code: running policy sweeps across apps and
//! emitting the paper's tables/figures as text + CSV.

pub mod evaluation;
pub mod motivation;
pub mod runner;
pub mod table;

pub use runner::{run_matrix, Cell, MatrixArgs, STANDARD_POLICIES};
pub use table::{geomean, write_csv, FigureTable};

/// Speed profile for experiment binaries: `Full` reproduces the paper's
/// Table II/III sizes; `Fast` shrinks footprints for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-size inputs.
    Full,
    /// Reduced inputs (~8× smaller footprints).
    Fast,
}

impl Profile {
    /// Reads the profile from the `OASIS_FAST` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("OASIS_FAST").is_ok_and(|v| v != "0") {
            Profile::Fast
        } else {
            Profile::Full
        }
    }

    /// Workload parameters for `app` at `gpus` under this profile.
    pub fn params(self, app: oasis_workloads::App, gpus: usize) -> oasis_workloads::WorkloadParams {
        match self {
            Profile::Full => oasis_workloads::WorkloadParams::paper(app, gpus),
            Profile::Fast => oasis_workloads::WorkloadParams::small(app, gpus),
        }
    }
}
