//! Deterministic event queues.
//!
//! Events are delivered in nondecreasing time order; ties are broken by
//! insertion order (FIFO), which keeps simulations bit-for-bit reproducible
//! regardless of queue internals. [`EventQueue`] is the general queue, a
//! binary heap. [`LaneTree`] serves a fixed set of lanes with at most one
//! pending event each, which is what a simulated GPU's issue lanes are,
//! and pops in exactly the order an `EventQueue` holding the same events
//! would.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::select_unpredictable;

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

/// The key of a lane with no pending event: a retired lane, or a padding
/// leaf. It loses every match against an armed lane.
const IDLE: u128 = u128::MAX;

/// An event's position in the total order: its time, then its sequence
/// number, packed so that one `u128` comparison decides a match.
fn key(time: Time, seq: u64) -> u128 {
    u128::from(time.as_ps()) << 64 | u128::from(seq)
}

/// A tournament (loser) tree over a fixed set of lanes, each holding at
/// most one pending event: the event loop of a segment, where every lane
/// that fires is re-armed or retired before the next one fires.
///
/// Lane `i` is leaf `width + i` of a complete binary tree, `width` the
/// lane count rounded up to a power of two; internal node `n` has the
/// children `2n` and `2n + 1`. Each internal node holds the loser of the
/// match played there, and slot 0 the overall winner, the earliest event.
/// Re-arming or retiring that winner replays only its own leaf-to-root
/// path: one compare-and-select per level, `log2(width)` in all, against
/// a binary heap's sift-down that compares both children at every level.
///
/// An event's key is `time_ps << 64 | seq`, and `seq` is assigned as
/// [`EventQueue::push`] assigns it: lane `i` starts with `i`, each re-arm
/// takes the next number, and a retirement takes none. Keys are therefore
/// unique and ordered exactly as `EventQueue` orders the same events, so
/// a loop driven by this tree fires its lanes in the same order (FIFO
/// among equal times) as one that pushes and pops an `EventQueue`.
///
/// # Example
///
/// ```
/// use oasis_engine::{Duration, LaneTree, Time};
///
/// let mut lanes = LaneTree::new(2, Time::ZERO);
/// let first = lanes.peek().expect("both lanes armed");
/// assert_eq!((first.payload, first.seq), (0, 0));
/// lanes.rearm(first.time + Duration::from_ns(1)); // lane 0, seq 2
/// assert_eq!(lanes.peek().map(|e| e.payload), Some(1));
/// lanes.retire(); // lane 1 is done
/// assert_eq!(lanes.peek().map(|e| (e.payload, e.seq)), Some((0, 2)));
/// lanes.retire();
/// assert!(lanes.peek().is_none());
/// ```
#[derive(Debug)]
pub struct LaneTree {
    /// `keys[n]`/`lanes[n]` for `1 <= n < width`: the losing key and lane
    /// of the match at node `n`; index 0: the winner's.
    keys: Vec<u128>,
    lanes: Vec<u32>,
    next_seq: u64,
}

impl LaneTree {
    /// Arms `lanes` lanes at `start`, lane `i` with sequence number `i`:
    /// the order in which a loop arming them one by one would push them.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` does not fit in a `u32`.
    pub fn new(lanes: usize, start: Time) -> Self {
        let count = u32::try_from(lanes).expect("lane count fits in u32");
        let width = lanes.next_power_of_two();
        // Keys ascend with the lane and unarmed leaves are the rightmost,
        // so every match is won by its left subtree's leftmost leaf and
        // lost by its right subtree's leftmost leaf.
        let arm = |lane: usize| {
            let key = if lane < lanes {
                key(start, lane as u64)
            } else {
                IDLE
            };
            (key, lane as u32)
        };
        let (mut keys, mut lane_of) = (vec![IDLE; width], vec![0u32; width]);
        (keys[0], lane_of[0]) = arm(0);
        for node in 1..width {
            let mut leaf = 2 * node + 1;
            while leaf < width {
                leaf *= 2;
            }
            (keys[node], lane_of[node]) = arm(leaf - width);
        }
        LaneTree {
            keys,
            lanes: lane_of,
            next_seq: u64::from(count),
        }
    }

    /// The earliest pending event, its payload the lane: `None` once every
    /// lane has retired. The lane stays pending until [`LaneTree::rearm`]
    /// or [`LaneTree::retire`].
    #[inline]
    pub fn peek(&self) -> Option<Event<usize>> {
        let key = self.keys[0];
        (key != IDLE).then(|| Event {
            time: Time::from_ps((key >> 64) as u64),
            seq: key as u64,
            payload: self.lanes[0] as usize,
        })
    }

    /// Re-arms the lane [`LaneTree::peek`] returned to fire at `time`,
    /// with the next sequence number.
    ///
    /// Re-arming before the event it replaces is a logic error; in debug
    /// builds it panics.
    #[inline]
    pub fn rearm(&mut self, time: Time) {
        debug_assert!(self.keys[0] != IDLE, "re-armed a tree with no pending lane");
        debug_assert!(
            time.as_ps() >= (self.keys[0] >> 64) as u64,
            "scheduled an event in the past: {time} < {now}",
            now = Time::from_ps((self.keys[0] >> 64) as u64)
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.replay(key(time, seq));
    }

    /// Retires the lane [`LaneTree::peek`] returned: it never fires again.
    #[inline]
    pub fn retire(&mut self) {
        self.replay(IDLE);
    }

    /// Gives the winning lane the key `key` and replays its path to the
    /// root. Every level is a compare and four selects with no jump on
    /// the outcome: which lane wins a match is as good as random, so a
    /// branch there mispredicts about half the time.
    /// `select_unpredictable` keeps LLVM from turning the selects back
    /// into a branch.
    #[inline(never)]
    fn replay(&mut self, mut key: u128) {
        let width = self.keys.len();
        let mut lane = self.lanes[0];
        let mut node = (width + lane as usize) >> 1;
        while node > 0 {
            let (held_key, held_lane) = (self.keys[node], self.lanes[node]);
            let held_wins = held_key < key;
            self.keys[node] = select_unpredictable(held_wins, key, held_key);
            self.lanes[node] = select_unpredictable(held_wins, lane, held_lane);
            key = select_unpredictable(held_wins, held_key, key);
            lane = select_unpredictable(held_wins, held_lane, lane);
            node >>= 1;
        }
        (self.keys[0], self.lanes[0]) = (key, lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;
    use crate::rng::SimRng;
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

    /// What the reference check drives: peek at the earliest lane, then
    /// re-arm or retire it.
    trait Lanes {
        fn peek(&self) -> Option<Event<usize>>;
        fn rearm(&mut self, time: Time);
        fn retire(&mut self);
    }

    impl Lanes for LaneTree {
        fn peek(&self) -> Option<Event<usize>> {
            LaneTree::peek(self)
        }
        fn rearm(&mut self, time: Time) {
            LaneTree::rearm(self, time);
        }
        fn retire(&mut self) {
            LaneTree::retire(self);
        }
    }

    /// A planted bug: the tree keyed on `time << 64 | lane`, so that equal
    /// times fire in lane order, not FIFO. It reports the sequence numbers
    /// the real tree would.
    struct LaneIndexTies {
        tree: LaneTree,
        seq: Vec<u64>,
        next_seq: u64,
    }

    impl LaneIndexTies {
        fn new(lanes: usize, start: Time) -> Self {
            LaneIndexTies {
                tree: LaneTree::new(lanes, start),
                seq: (0..lanes as u64).collect(),
                next_seq: lanes as u64,
            }
        }
    }

    impl Lanes for LaneIndexTies {
        fn peek(&self) -> Option<Event<usize>> {
            let ev = self.tree.peek()?;
            Some(Event {
                seq: self.seq[ev.payload],
                ..ev
            })
        }
        fn rearm(&mut self, time: Time) {
            let lane = self.tree.peek().expect("a pending lane").payload;
            self.seq[lane] = self.next_seq;
            self.next_seq += 1;
            self.tree.replay(key(time, lane as u64));
        }
        fn retire(&mut self) {
            self.tree.retire();
        }
    }

    /// Lane counts for case `case`: the edges first (one lane, powers of
    /// two and their neighbours), then seeded counts up to 64.
    fn lane_count(case: u64, rng: &mut SimRng) -> usize {
        const EDGES: [usize; 9] = [1, 2, 3, 5, 7, 31, 33, 63, 64];
        EDGES
            .get(case as usize)
            .copied()
            .unwrap_or_else(|| 1 + rng.gen_below(64))
    }

    /// Drives `lanes` and an [`EventQueue`] holding the same events
    /// through one seeded script and returns the first step at which
    /// their `(time, seq, lane)` differ. Each lane fires a seeded number
    /// of times, so lanes retire at different points; a re-arm's latency
    /// is zero (the error path re-arms at the popped time), one shared
    /// value (equal times from different lanes), or random.
    fn first_divergence<L: Lanes>(case: u64, new: fn(usize, Time) -> L) -> Option<String> {
        let mut rng = SimRng::seed_from_u64(0x1A7E_0000 + case);
        let n = lane_count(case, &mut rng);
        let start = Time::from_ps(rng.gen_range(0..1_000_000));
        let mut budget: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40)).collect();
        let shared = Duration::from_ps(1 + rng.gen_range(0..2_000));
        let mut lanes = new(n, start);
        let mut reference = EventQueue::new();
        for lane in 0..n {
            reference.push(start, lane);
        }
        for step in 0.. {
            let (got, want) = (lanes.peek(), reference.pop());
            if got != want {
                return Some(format!(
                    "case {case} ({n} lanes) step {step}: {got:?} != {want:?}"
                ));
            }
            let ev = want?;
            if budget[ev.payload] == 0 {
                lanes.retire();
                continue;
            }
            budget[ev.payload] -= 1;
            let latency = match rng.gen_range(0..3) {
                0 => Duration::ZERO,
                1 => shared,
                _ => Duration::from_ps(rng.gen_range(0..5_000)),
            };
            lanes.rearm(ev.time + latency);
            reference.push(ev.time + latency, ev.payload);
        }
        unreachable!("the loop returns")
    }

    #[test]
    fn lane_tree_pops_as_the_event_queue_does() {
        for case in 0..256 {
            if let Some(diff) = first_divergence(case, LaneTree::new) {
                panic!("{diff}");
            }
        }
    }

    #[test]
    fn the_reference_check_catches_ties_broken_by_lane() {
        let caught = (0..256)
            .filter(|&case| first_divergence(case, LaneIndexTies::new).is_some())
            .count();
        assert!(caught > 128, "only {caught} of 256 cases caught the plant");
    }

    #[test]
    fn a_tree_with_no_lanes_is_empty() {
        assert!(LaneTree::new(0, Time::ZERO).peek().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled an event in the past")]
    fn rearming_in_the_past_panics_in_debug() {
        let mut lanes = LaneTree::new(1, at(10));
        lanes.rearm(at(5));
    }
}
