//! Figure/table formatting: aligned text tables and CSV dumps.

use std::fmt::Write as _;
use std::path::Path;

use oasis_engine::SimError;

/// Geometric mean of strictly positive values (the paper's averaging
/// convention for normalized speedups).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// A figure rendered as rows (apps) × columns (series).
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Title printed above the table.
    pub title: String,
    /// Name of the row-label column ("App").
    pub row_label: String,
    /// Series names.
    pub columns: Vec<String>,
    /// (row label, values per column).
    pub rows: Vec<(String, Vec<f64>)>,
    /// How many decimals to print.
    pub decimals: usize,
}

impl FigureTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        FigureTable {
            title: title.into(),
            row_label: "App".to_string(),
            columns,
            rows: Vec::new(),
            decimals: 2,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs from the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Appends a geometric-mean summary row over the current rows.
    pub fn push_geomean(&mut self) {
        let cols = self.columns.len();
        let values: Vec<f64> = (0..cols)
            .map(|c| geomean(&self.rows.iter().map(|(_, v)| v[c]).collect::<Vec<_>>()))
            .collect();
        self.rows.push(("GEOMEAN".to_string(), values));
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([self.row_label.len()])
            .max()
            .unwrap_or(8)
            .max(4);
        let col_w: Vec<usize> = self.columns.iter().map(|c| c.len().max(8)).collect();
        let _ = write!(out, "{:<label_w$}", self.row_label);
        for (c, w) in self.columns.iter().zip(&col_w) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for (v, w) in values.iter().zip(&col_w) {
                let _ = write!(out, "  {:>w$.prec$}", v, prec = self.decimals);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV form (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.row_label.to_lowercase());
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label}");
            for v in values {
                let _ = write!(out, ",{v:.6}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints the table to stdout and writes `results/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Returns the typed error from [`write_csv`] when the CSV is lost;
    /// the rendered table has gone to stdout either way.
    pub fn emit(&self, name: &str) -> Result<(), SimError> {
        println!("{}", self.render());
        write_csv(name, &self.to_csv())
    }
}

/// Writes `contents` to `results/<name>.csv`, creating the directory.
/// The write is atomic, so a crash never leaves a half-written table.
///
/// # Errors
///
/// Returns a typed [`SimError::Io`] naming the artifact (or the failpoint
/// site, when a chaos plan injected the failure).
pub fn write_csv(name: &str, contents: &str) -> Result<(), SimError> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)
        .map_err(|e| SimError::io(format!("bench-table {}", dir.display()), e))?;
    let path = dir.join(format!("{name}.csv"));
    oasis_engine::atomic_write(&path, contents.as_bytes())
        .map_err(|e| SimError::io(format!("bench-table {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn table_render_and_csv() {
        let mut t = FigureTable::new("Fig X", vec!["a".into(), "b".into()]);
        t.push("MM", vec![1.0, 2.0]);
        t.push("MT", vec![3.0, 4.0]);
        t.push_geomean();
        let txt = t.render();
        assert!(txt.contains("Fig X"));
        assert!(txt.contains("GEOMEAN"));
        let csv = t.to_csv();
        assert!(csv.starts_with("app,a,b\n"));
        assert!(csv.contains("MM,1.000000,2.000000"));
        // Geomean row: sqrt(3) and sqrt(8).
        let gm_line = csv.lines().last().unwrap();
        assert!(gm_line.starts_with("GEOMEAN,1.732"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = FigureTable::new("t", vec!["a".into()]);
        t.push("x", vec![1.0, 2.0]);
    }
}
