//! Sample statistics, process memory, and the result line.

use std::fmt::Write as _;

/// Linear-interpolated quantile `q` in [0, 1] of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smoothed quantile `q`: the mean of the sorted samples ranked within
/// `q ± 2.5%` (at least one; NaN when empty). Where the samples bunch
/// into a few levels, as the latencies of a fixed job or cell mix do, a
/// plain quantile jumps a whole level whenever a level boundary crosses
/// it; the window moves by a fraction of that.
pub fn smoothed_quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let lo = (((q - 0.025) * n).floor().max(0.0) as usize).min(v.len() - 1);
    let hi = (((q + 0.025) * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// `VmHWM` (peak resident set, kB) of process `pid` (`"self"` for this
/// one), or `None` where `/proc` is unavailable.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the `VmHWM` of process `pid` (`"self"` for this one) to its
/// current RSS, so the next read covers only what ran after the reset.
/// Returns false if the kernel refused (the peak then covers everything).
pub fn reset_peak_rss(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Median of `xs`, tagged with its sample count.
    pub fn put_median(&mut self, name: &str, unit: &'static str, xs: &[f64]) {
        self.put(name, unit, median(xs), xs.len());
    }

    /// The human-readable table: one metric per line with unit and count.
    pub fn table(&self, heading: &str) -> String {
        let mut out = format!("== {heading}\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<6} n={}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The result object the benchmark ends its standard output with.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (non-finite values become 0).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn smoothed_quantile_averages_the_window() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(smoothed_quantile(&xs, 0.95), 95.5);
        assert_eq!(smoothed_quantile(&xs, 0.5), 50.5);
        assert_eq!(smoothed_quantile(&[7.0], 0.95), 7.0);
        // Two levels: the window straddles the boundary instead of
        // snapping to either level.
        let mut two = vec![1.0; 95];
        two.extend([9.0; 5]);
        let v = smoothed_quantile(&two, 0.95);
        assert!(v > 1.0 && v < 9.0, "{v}");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.put("run_s", "s", 1.25, 3);
        let line = r.json_line(true, 5, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
