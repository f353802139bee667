//! In-memory span recorder for the traced pass.
//!
//! A span is (name, start, end, parent). The benchmark opens one around
//! every call it makes into a layer's public API; the layer is the name's
//! prefix before the first `.` (`mgpu.epoch` belongs to `oasis-mgpu`).
//! Spans stay in memory until the run ends, when [`Spans::write_tsv`]
//! writes them out. A disabled recorder does nothing but return a dummy
//! handle, so the untraced pass runs the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span, times in nanoseconds since the
/// recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(usize);

const OFF: SpanId = SpanId(usize::MAX);

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Index of the next span to be recorded: spans recorded from here on
    /// belong to whatever the caller does next.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Closed spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark.min(self.spans.len())..]
    }

    /// Total duration (ms) of the spans named `name` since `mark`.
    pub fn total_ms(&self, mark: usize, name: &str) -> f64 {
        self.since(mark)
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Self time per layer (ms) over the spans since `mark`: each span's
    /// duration minus the part its child spans cover.
    pub fn self_ms_by_layer(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.since(mark) {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(mark) {
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(layer_of(s.name)).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Every span as one tab-separated line: id, parent, name, start, end.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The layer a span name belongs to: its prefix before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("bench.pass");
        s.time("mgpu.epoch", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit(outer);
        let by_layer = s.self_ms_by_layer(0);
        assert!(by_layer["mgpu"] >= 5.0);
        let total = s.total_ms(0, "bench.pass");
        assert!((by_layer["bench"] + by_layer["mgpu"] - total).abs() < 1e-6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.enter("mgpu.epoch");
        s.exit(id);
        assert!(s.since(0).is_empty());
    }
}
