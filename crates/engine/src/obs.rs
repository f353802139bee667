//! The [`Observer`] bundles an optional [`RingTracer`] and a
//! [`MetricsRegistry`] into one handle that instrumented components carry.
//!
//! Observer state is deliberately *outside* the simulation: it is never
//! snapshotted, never digested, and never checkpointed. On resume it is
//! rebuilt from config, so a run observed with tracing on is bit-identical
//! to the same run observed with tracing off.

use crate::metrics::MetricsRegistry;
use crate::time::Time;
use crate::trace::{RingTracer, TimedEvent, TraceEvent};

/// Shared observability handle: an event ring when tracing is on, plus
/// one metrics registry. The default records nothing.
#[derive(Debug, Default)]
pub struct Observer {
    tracer: Option<RingTracer>,
    /// Metrics sink; callers update it directly (it self-gates on its
    /// enabled flag).
    pub metrics: MetricsRegistry,
}

impl Observer {
    /// An observer that records nothing — the hot-path default.
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// An observer configured from [`SystemConfig`]-level knobs:
    /// `trace_capacity == 0` disables tracing, otherwise a bounded
    /// [`RingTracer`] of that capacity is installed.
    pub fn from_config(trace_capacity: usize, metrics_on: bool) -> Self {
        Observer {
            tracer: (trace_capacity > 0).then(|| RingTracer::new(trace_capacity)),
            metrics: if metrics_on {
                MetricsRegistry::enabled()
            } else {
                MetricsRegistry::disabled()
            },
        }
    }

    /// Whether events are kept.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records an event built by `f`, constructing it only when tracing
    /// is on. The disabled path is a single predictable branch.
    #[inline]
    pub fn emit(&mut self, at: Time, f: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = &mut self.tracer {
            tracer.record(at, f());
        }
    }

    /// All retained trace events in record order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.tracer
            .as_ref()
            .map_or_else(Vec::new, RingTracer::events)
    }

    /// Events dropped by the bounded tracer.
    pub fn dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, RingTracer::dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn disabled_observer_never_runs_the_event_closure() {
        let mut o = Observer::disabled();
        let mut built = false;
        o.emit(Time::ZERO, || {
            built = true;
            TraceEvent::Eviction { gpu: 0, vpn: 1 }
        });
        assert!(!built);
        assert!(!o.tracing());
        assert!(o.events().is_empty());
    }

    #[test]
    fn from_config_zero_capacity_means_off() {
        let o = Observer::from_config(0, true);
        assert!(!o.tracing());
        assert!(o.metrics.is_enabled());
        let o = Observer::from_config(128, false);
        assert!(o.tracing());
        assert!(!o.metrics.is_enabled());
    }

    #[test]
    fn enabled_observer_records_events_with_timestamps() {
        let mut o = Observer::from_config(8, true);
        o.emit(Time::from_ps(5_000), || TraceEvent::WalkComplete {
            gpu: 2,
            vpn: 7,
            latency: Duration::from_ns(40),
        });
        let evs = o.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at, Time::from_ps(5_000));
        assert_eq!(evs[0].event.name(), "walk_complete");
        assert_eq!(o.dropped(), 0);
    }
}
