//! Experiment harness: every table, figure and study of the paper declares
//! the cells it needs and renders itself from their reports; the
//! `reproduce` binary runs the union of the cells once and prints each
//! entry as text + CSV.

pub mod cells;
pub mod evaluation;
pub mod motivation;
pub mod studies;
pub mod table;

use oasis_mgpu::RunReport;

pub use cells::{dedup, matrix, run_cells, Cell, CellError};
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

/// What an entry prints.
#[derive(Debug)]
pub enum Output {
    /// Printed as is.
    Text(String),
    /// Printed, and written to `results/<name>.csv`.
    Table(&'static str, FigureTable),
}

type Render = dyn Fn(&[&RunReport]) -> Vec<Output>;

/// One entry's cells and how it renders from their reports.
pub struct Figure {
    /// The cells the entry needs, in the order its renderer reads their
    /// reports.
    pub cells: Vec<Cell>,
    render: Box<Render>,
}

impl Figure {
    /// An entry rendered by `render` from the reports of `cells`.
    pub(crate) fn new(
        cells: Vec<Cell>,
        render: impl Fn(&[&RunReport]) -> Vec<Output> + 'static,
    ) -> Self {
        Figure {
            cells,
            render: Box::new(render),
        }
    }

    /// An entry printed as text, computed without simulating.
    pub(crate) fn text(text: fn() -> String) -> Self {
        Figure::new(Vec::new(), move |_| vec![Output::Text(text())])
    }

    /// An entry rendered as the table `name`, computed without simulating.
    pub(crate) fn table(name: &'static str, table: fn() -> FigureTable) -> Self {
        Figure::new(Vec::new(), move |_| vec![Output::Table(name, table())])
    }

    /// Renders the entry; `reports[i]` is the report of `cells[i]`.
    pub fn render(&self, reports: &[&RunReport]) -> Vec<Output> {
        assert_eq!(reports.len(), self.cells.len(), "one report per cell");
        (self.render)(reports)
    }
}

/// A `reproduce` entry: the name its command line takes, and the function
/// declaring its cells at a profile.
pub type Entry = (&'static str, fn(Profile) -> Figure);

/// Every entry, in the order `reproduce` prints them: the paper's tables
/// and figures, then the ablation study and Observation 2.
pub const ENTRIES: [Entry; 22] = [
    ("table1_config", |_| Figure::text(motivation::table1)),
    ("table2_apps", |_| Figure::text(motivation::table2)),
    ("table3_footprints", |_| {
        Figure::table("table3_footprints", motivation::table3)
    }),
    ("fig02_uniform_policies", motivation::fig02),
    ("fig03_object_sizes", |_| {
        Figure::table("fig03_object_sizes", motivation::fig03)
    }),
    ("fig04_mt_pages", |_| Figure::text(motivation::fig04)),
    ("fig05_object_behavior", |_| Figure::text(motivation::fig05)),
    ("fig06_c2d_phases", |_| Figure::text(motivation::fig06)),
    ("fig07_st_iterations", |_| Figure::text(motivation::fig07)),
    ("fig15_overall", evaluation::fig15),
    ("fig16_reset_threshold", evaluation::fig16),
    ("fig17_gpu_count", evaluation::fig17),
    ("fig18_input_size", evaluation::fig18),
    ("fig19_large_pages", evaluation::fig19),
    ("fig20_page_types", |_| {
        Figure::table("fig20_page_types", motivation::fig20)
    }),
    ("fig21_placement", evaluation::fig21),
    ("fig22_vs_grit", evaluation::fig22),
    ("fig23_policy_mix", evaluation::fig23),
    ("fig24_faults", evaluation::fig24),
    ("fig25_oversubscription", evaluation::fig25),
    ("ablation", studies::ablation),
    ("observation2", |_| Figure::text(studies::observation2)),
];

/// The entries named by `names` in that order, or every entry when
/// `names` is empty.
///
/// # Errors
///
/// Returns the first name that names no entry.
pub fn select(names: &[String]) -> Result<Vec<Entry>, String> {
    if names.is_empty() {
        return Ok(ENTRIES.to_vec());
    }
    names
        .iter()
        .map(|name| {
            ENTRIES
                .iter()
                .find(|(entry, _)| entry == name)
                .copied()
                .ok_or_else(|| name.clone())
        })
        .collect()
}
