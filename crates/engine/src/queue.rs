//! Deterministic event queue.
//!
//! Events are delivered in nondecreasing time order; ties are broken by
//! insertion order (FIFO), which keeps simulations bit-for-bit reproducible
//! regardless of heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use crate::time::Time;

/// A scheduled event carrying an arbitrary payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<T> {
    /// When the event fires.
    pub time: Time,
    /// Monotonic sequence number assigned at insertion (tie-breaker).
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: T,
}

struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event surfaces.
        other
            .0
            .time
            .cmp(&self.0.time)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking.
///
/// # Example
///
/// ```
/// use oasis_engine::{Duration, EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::ZERO + Duration::from_ns(1), 'b');
/// q.push(Time::ZERO + Duration::from_ns(1), 'c');
/// q.push(Time::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
    now: Time,
}

impl<T: std::fmt::Debug> std::fmt::Debug for HeapEntry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue positioned at `Time::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error; in debug builds it panics.
    pub fn push(&mut self, time: Time, payload: T) {
        debug_assert!(
            time >= self.now,
            "scheduled an event in the past: {time} < {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Event { time, seq, payload }));
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its timestamp.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let ev = self.heap.pop()?.0;
        self.now = ev.time;
        Some(ev)
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Checkpoints the queue *cursor* (current time and next sequence number).
///
/// Payloads are caller-defined and not serializable in general, so queues
/// may only be checkpointed when drained — which is how the simulator uses
/// them: segment-local queues empty out before every epoch boundary, the
/// only points where checkpoints are taken.
impl<T> Snapshot for EventQueue<T> {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        debug_assert!(
            self.heap.is_empty(),
            "checkpointed an event queue with {} in-flight events",
            self.heap.len()
        );
        w.u64(self.now.as_ps());
        w.u64(self.next_seq);
    }
}

impl<T> Restore for EventQueue<T> {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        if !self.heap.is_empty() {
            return Err(r.malformed("restore target queue has pending events"));
        }
        self.now = Time::from_ps(r.u64()?);
        self.next_seq = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;
    use crate::time::Duration;

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_ns(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(30), 3);
        q.push(at(10), 1);
        q.push(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(at(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), at(7));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.push(at(3), 'x');
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled an event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(at(10), ());
        q.pop();
        q.push(at(5), ());
    }

    #[test]
    fn cursor_snapshot_round_trips() {
        let mut q = EventQueue::new();
        q.push(at(10), 'a');
        q.push(at(20), 'b');
        q.pop();
        q.pop();
        let mut w = ByteWriter::new();
        q.snapshot(&mut w);

        let mut fresh: EventQueue<char> = EventQueue::new();
        let buf = w.into_vec();
        let mut r = ByteReader::new("queue", &buf);
        fresh.restore(&mut r).expect("valid cursor");
        assert_eq!(fresh.now(), at(20));
        // A past-scheduling bug after resume would panic in debug builds;
        // scheduling at or after the restored `now` is fine.
        fresh.push(at(20), 'c');
        assert_eq!(fresh.pop().unwrap().seq, 2);
    }

    #[test]
    fn restore_into_nonempty_queue_is_rejected() {
        let mut q = EventQueue::new();
        q.push(at(10), ());
        q.pop();
        let mut w = ByteWriter::new();
        q.snapshot(&mut w);
        let buf = w.into_vec();
        let mut busy = EventQueue::new();
        busy.push(at(1), ());
        let mut r = ByteReader::new("queue", &buf);
        assert!(busy.restore(&mut r).is_err());
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        let mut q = EventQueue::new();
        q.push(at(1), 1);
        q.push(at(4), 4);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(at(2), 2);
        q.push(at(4), 5);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 4);
        assert_eq!(q.pop().unwrap().payload, 5);
    }
}
