//! Typed event tracing with simulated timestamps.
//!
//! The simulator emits [`TraceEvent`]s at significant points (fault
//! serviced, page migrated, TLB shot down, link transfer scheduled, walk
//! finished). A [`RingTracer`] keeps the most recent N of them in a
//! bounded ring; with tracing off there is no tracer at all, and the
//! event is never built (see [`crate::obs::Observer`]).
//!
//! Two invariants matter here:
//!
//! 1. **Determinism** — events carry only simulated time ([`Time`]) and a
//!    monotonically increasing sequence number assigned at record time.
//!    No wall-clock, no pointers, no iteration over unordered maps. Two
//!    runs with the same seed and config produce byte-identical exports.
//! 2. **Non-interference** — tracer state lives outside every `Snapshot`
//!    impl and state digest. Turning tracing on or off cannot change a
//!    single simulated outcome, which `verify-replay` checks end to end.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::{Duration, Time};

/// One side of a data movement: the host or a GPU by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Host (CPU) memory.
    Host,
    /// GPU with the given device index.
    Gpu(u8),
}

impl Endpoint {
    /// Short stable label used in exports (`host`, `gpu0`, ...).
    pub fn label(&self) -> String {
        match self {
            Endpoint::Host => "host".to_string(),
            Endpoint::Gpu(g) => format!("gpu{g}"),
        }
    }
}

/// A typed simulation event. Fields are primitives so events are `Copy`
/// and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A far-fault (or protection fault) finished servicing on `gpu`.
    /// `queue` is time spent waiting for the serialized fault pipeline,
    /// `service` the total latency charged to the access.
    FarFault {
        /// Faulting GPU index.
        gpu: u8,
        /// Faulting virtual page number.
        vpn: u64,
        /// Whether the access was a write.
        write: bool,
        /// Time spent queued behind earlier faults.
        queue: Duration,
        /// Total service latency for this fault.
        service: Duration,
    },
    /// A page moved from `from` to `to`.
    Migration {
        /// Migrated virtual page number.
        vpn: u64,
        /// Source of the page data.
        from: Endpoint,
        /// New owner of the page.
        to: Endpoint,
    },
    /// A read-only replica of `vpn` was created on GPU `to`.
    Duplication {
        /// Duplicated virtual page number.
        vpn: u64,
        /// Source of the page data.
        from: Endpoint,
        /// GPU receiving the replica.
        to: u8,
    },
    /// A TLB shootdown invalidated `vpn` on `gpu`.
    Shootdown {
        /// GPU whose TLBs were invalidated.
        gpu: u8,
        /// Invalidated virtual page number.
        vpn: u64,
    },
    /// A resident page was evicted from `gpu` to make room.
    Eviction {
        /// GPU that lost the page.
        gpu: u8,
        /// Evicted virtual page number.
        vpn: u64,
    },
    /// The per-page policy bits changed (O-Table relearn / reset).
    PolicySwitch {
        /// Affected virtual page number.
        vpn: u64,
        /// Previous policy bits.
        from: u8,
        /// New policy bits.
        to: u8,
    },
    /// Bytes were scheduled across a fabric link.
    LinkTransfer {
        /// Transfer source.
        from: Endpoint,
        /// Transfer destination.
        to: Endpoint,
        /// Payload size in bytes.
        bytes: u64,
        /// Serialization + queueing time the transfer occupied the link.
        busy: Duration,
    },
    /// A page-table walk completed after an L2 TLB miss on `gpu`.
    WalkComplete {
        /// Walking GPU index.
        gpu: u8,
        /// Translated virtual page number.
        vpn: u64,
        /// Walk latency.
        latency: Duration,
    },
    /// A fabric link between two GPUs changed health (permanent link-down).
    LinkFault {
        /// One endpoint of the failed NVLink pair.
        a: u8,
        /// The other endpoint.
        b: u8,
    },
    /// A physical frame on `gpu` was poisoned by ECC and quarantined.
    FrameQuarantine {
        /// GPU whose frame was quarantined.
        gpu: u8,
        /// The virtual page that was resident in the poisoned frame.
        vpn: u64,
    },
    /// The UVM driver re-serviced (or retried re-servicing) a fault for a
    /// page lost to hardware degradation.
    FaultRetry {
        /// GPU whose page is being re-serviced.
        gpu: u8,
        /// The page being re-serviced.
        vpn: u64,
        /// Zero-based attempt number within the retry budget.
        attempt: u32,
    },
}

impl TraceEvent {
    /// Short stable name for exports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::FarFault { .. } => "far_fault",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::Duplication { .. } => "duplication",
            TraceEvent::Shootdown { .. } => "shootdown",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::PolicySwitch { .. } => "policy_switch",
            TraceEvent::LinkTransfer { .. } => "link_transfer",
            TraceEvent::WalkComplete { .. } => "walk_complete",
            TraceEvent::LinkFault { .. } => "link_fault",
            TraceEvent::FrameQuarantine { .. } => "frame_quarantine",
            TraceEvent::FaultRetry { .. } => "fault_retry",
        }
    }
}

/// An event stamped with its simulated time and record order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulated time the event was recorded at.
    pub at: Time,
    /// Monotonic sequence number (record order, ties broken stably).
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// A bounded tracer keeping the most recent `capacity` events.
///
/// When full, the oldest event is dropped and counted in
/// [`RingTracer::dropped`].
/// Everything about it is deterministic: same event stream in, same ring
/// contents out.
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    ring: VecDeque<TimedEvent>,
    dropped: u64,
    seq: u64,
}

impl RingTracer {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingTracer {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            seq: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records `event` at simulated time `at`, dropping the oldest event
    /// when the ring is full. Kept out of line, so that the instrumented
    /// call sites on the simulator's hot path stay small.
    #[inline(never)]
    pub fn record(&mut self, at: Time, event: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TimedEvent {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// All retained events in record order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.ring.iter().copied().collect()
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Microseconds with fixed 3-decimal formatting (`ts` fields in the
/// Chrome trace format are µs; our base unit is ps).
fn ps_as_us_fixed(ps: u64) -> String {
    let us = ps / 1_000_000;
    let frac_ns = (ps % 1_000_000) / 1_000;
    format!("{us}.{frac_ns:03}")
}

fn push_common(out: &mut String, name: &str, phase: &str, ts_ps: u64, tid: u64) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{phase}\",\"ts\":{},\"pid\":0,\"tid\":{tid}",
        ps_as_us_fixed(ts_ps)
    );
}

/// Renders events as a Chrome `trace_event` JSON array, loadable in
/// `chrome://tracing` or Perfetto.
///
/// Durationful events (`far_fault`, `link_transfer`, `walk_complete`)
/// become complete (`"X"`) slices; the rest are instants (`"i"`). The
/// `tid` lane is the GPU index where one applies (host = lane 255).
/// Output is a pure function of the event list: same events, same bytes.
pub fn chrome_trace_json(events: &[TimedEvent]) -> String {
    fn lane(e: &Endpoint) -> u64 {
        match e {
            Endpoint::Host => 255,
            Endpoint::Gpu(g) => u64::from(*g),
        }
    }

    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, te) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        let ts = te.at.as_ps();
        match &te.event {
            TraceEvent::FarFault {
                gpu,
                vpn,
                write,
                queue,
                service,
            } => {
                push_common(&mut out, "far_fault", "X", ts, u64::from(*gpu));
                let _ = write!(
                    out,
                    ",\"dur\":{},\"args\":{{\"vpn\":{vpn},\"write\":{write},\"queue_ns\":{}}}}}",
                    ps_as_us_fixed(service.as_ps()),
                    queue.as_ps() / 1000,
                );
            }
            TraceEvent::Migration { vpn, from, to } => {
                push_common(&mut out, "migration", "i", ts, lane(to));
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn},\"from\":\"{}\",\"to\":\"{}\"}}}}",
                    from.label(),
                    to.label(),
                );
            }
            TraceEvent::Duplication { vpn, from, to } => {
                push_common(&mut out, "duplication", "i", ts, u64::from(*to));
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn},\"from\":\"{}\",\"to\":\"gpu{to}\"}}}}",
                    from.label(),
                );
            }
            TraceEvent::Shootdown { gpu, vpn } => {
                push_common(&mut out, "shootdown", "i", ts, u64::from(*gpu));
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn}}}}}");
            }
            TraceEvent::Eviction { gpu, vpn } => {
                push_common(&mut out, "eviction", "i", ts, u64::from(*gpu));
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn}}}}}");
            }
            TraceEvent::PolicySwitch { vpn, from, to } => {
                push_common(&mut out, "policy_switch", "i", ts, 0);
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn},\"from\":{from},\"to\":{to}}}}}"
                );
            }
            TraceEvent::LinkTransfer {
                from,
                to,
                bytes,
                busy,
            } => {
                push_common(&mut out, "link_transfer", "X", ts, lane(from));
                let _ = write!(
                    out,
                    ",\"dur\":{},\"args\":{{\"from\":\"{}\",\"to\":\"{}\",\"bytes\":{bytes}}}}}",
                    ps_as_us_fixed(busy.as_ps()),
                    from.label(),
                    to.label(),
                );
            }
            TraceEvent::WalkComplete { gpu, vpn, latency } => {
                push_common(&mut out, "walk_complete", "X", ts, u64::from(*gpu));
                let _ = write!(
                    out,
                    ",\"dur\":{},\"args\":{{\"vpn\":{vpn}}}}}",
                    ps_as_us_fixed(latency.as_ps()),
                );
            }
            TraceEvent::LinkFault { a, b } => {
                push_common(&mut out, "link_fault", "i", ts, u64::from(*a));
                let _ = write!(out, ",\"s\":\"g\",\"args\":{{\"a\":{a},\"b\":{b}}}}}");
            }
            TraceEvent::FrameQuarantine { gpu, vpn } => {
                push_common(&mut out, "frame_quarantine", "i", ts, u64::from(*gpu));
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn}}}}}");
            }
            TraceEvent::FaultRetry { gpu, vpn, attempt } => {
                push_common(&mut out, "fault_retry", "i", ts, u64::from(*gpu));
                let _ = write!(
                    out,
                    ",\"s\":\"t\",\"args\":{{\"vpn\":{vpn},\"attempt\":{attempt}}}}}"
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vpn: u64) -> TraceEvent {
        TraceEvent::Shootdown { gpu: 1, vpn }
    }

    #[test]
    fn ring_tracer_is_bounded_and_drops_oldest() {
        let mut t = RingTracer::new(3);
        for i in 0..5 {
            t.record(Time::from_ps(i * 100), ev(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<u64> = t
            .events()
            .iter()
            .map(|te| match te.event {
                TraceEvent::Shootdown { vpn, .. } => vpn,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, [2, 3, 4]);
        // Sequence numbers keep counting across drops.
        assert_eq!(t.events()[0].seq, 2);
        assert_eq!(t.events()[2].seq, 4);
    }

    #[test]
    fn identical_event_streams_export_identical_bytes() {
        let mut a = RingTracer::new(16);
        let mut b = RingTracer::new(16);
        for t in [&mut a, &mut b] {
            t.record(
                Time::from_ps(1_500_000),
                TraceEvent::FarFault {
                    gpu: 0,
                    vpn: 42,
                    write: true,
                    queue: Duration::from_ns(3),
                    service: Duration::from_us(2),
                },
            );
            t.record(
                Time::from_ps(2_000_000),
                TraceEvent::LinkTransfer {
                    from: Endpoint::Gpu(0),
                    to: Endpoint::Gpu(1),
                    bytes: 4096,
                    busy: Duration::from_ns(500),
                },
            );
            t.record(
                Time::from_ps(2_000_000),
                TraceEvent::Migration {
                    vpn: 42,
                    from: Endpoint::Host,
                    to: Endpoint::Gpu(1),
                },
            );
        }
        let ja = chrome_trace_json(&a.events());
        let jb = chrome_trace_json(&b.events());
        assert_eq!(ja, jb);
        assert!(ja.starts_with('['));
        assert!(ja.trim_end().ends_with(']'));
        assert!(ja.contains("\"ph\":\"X\""));
        assert!(ja.contains("\"ph\":\"i\""));
        assert!(ja.contains("\"ts\":1.500"));
        assert!(ja.contains("\"from\":\"host\""));
        // One object per event: balanced outer braces per line.
        assert_eq!(ja.lines().count(), 3 + 2); // "[", 3 events, "]"
    }

    #[test]
    fn timestamps_format_ps_to_us_with_fixed_decimals() {
        assert_eq!(ps_as_us_fixed(0), "0.000");
        assert_eq!(ps_as_us_fixed(1_000), "0.001"); // 1 ns
        assert_eq!(ps_as_us_fixed(999_999), "0.999"); // sub-ns truncates
        assert_eq!(ps_as_us_fixed(1_000_000), "1.000");
        assert_eq!(ps_as_us_fixed(1_234_567), "1.234");
    }

    #[test]
    fn empty_event_list_is_a_valid_empty_array() {
        assert_eq!(chrome_trace_json(&[]), "[\n]\n");
    }

    #[test]
    fn hardware_fault_events_export_as_instants() {
        let mut t = RingTracer::new(8);
        t.record(Time::from_ps(100), TraceEvent::LinkFault { a: 0, b: 2 });
        t.record(
            Time::from_ps(200),
            TraceEvent::FrameQuarantine { gpu: 1, vpn: 9 },
        );
        t.record(
            Time::from_ps(300),
            TraceEvent::FaultRetry {
                gpu: 1,
                vpn: 9,
                attempt: 2,
            },
        );
        assert_eq!(t.events()[0].event.name(), "link_fault");
        assert_eq!(t.events()[1].event.name(), "frame_quarantine");
        assert_eq!(t.events()[2].event.name(), "fault_retry");
        let j = chrome_trace_json(&t.events());
        assert!(j.contains("\"link_fault\""), "{j}");
        assert!(j.contains("\"frame_quarantine\""), "{j}");
        assert!(j.contains("\"fault_retry\""), "{j}");
        assert!(j.contains("\"attempt\":2"), "{j}");
        assert_eq!(j.lines().count(), 3 + 2);
    }
}
