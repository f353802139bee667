//! Bandwidth-serialized transfer channels.
//!
//! A [`Channel`] models a physical link (an NVLink port, a PCIe lane bundle,
//! a DRAM channel): transfers occupy the link back-to-back, so a burst of
//! page migrations genuinely queues up and congests, exactly the effect that
//! makes on-touch "ping-ponging" expensive in the paper.

use crate::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};
use crate::time::{Duration, Time};

/// The outcome of reserving a transfer on a [`Channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the payload starts moving (after queueing behind earlier
    /// transfers).
    pub start: Time,
    /// When the last byte leaves the sender.
    pub depart: Time,
    /// When the last byte arrives at the receiver (`depart` + wire latency).
    pub arrive: Time,
}

impl Transfer {
    /// Total latency observed by the requester, from `now` to arrival.
    pub fn latency_from(&self, now: Time) -> Duration {
        self.arrive.since(now)
    }
}

/// A point-to-point link with fixed wire latency and finite bandwidth.
///
/// # Example
///
/// ```
/// use oasis_engine::{Channel, Duration, Time};
///
/// // A 300 GB/s NVLink port with 500 ns latency.
/// let mut link = Channel::new(300_000_000_000, Duration::from_ns(500));
/// let a = link.reserve(Time::ZERO, 4096);
/// let b = link.reserve(Time::ZERO, 4096);
/// assert_eq!(b.start, a.depart); // second transfer queues behind the first
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    bytes_per_sec: u64,
    latency: Duration,
    next_free: Time,
    busy: Duration,
    bytes_moved: u64,
    transfers: u64,
    // Memo of the last transfer-size -> duration computation. Transfer
    // sizes are heavily repeated (64 B coalesced transactions, page-sized
    // migrations), and `Duration::for_transfer` costs a u128 division per
    // call. Pure cache: same inputs, same output; never serialized.
    memo_bytes: u64,
    memo_xfer: Duration,
}

impl Channel {
    /// Creates a channel with the given sustained bandwidth (bytes/second)
    /// and one-way wire latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64, latency: Duration) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        Channel {
            bytes_per_sec,
            latency,
            next_free: Time::ZERO,
            busy: Duration::ZERO,
            bytes_moved: 0,
            transfers: 0,
            memo_bytes: 0,
            memo_xfer: Duration::ZERO,
        }
    }

    /// Reserves the link for a `bytes`-sized transfer requested at `now`,
    /// returning its timing. The link is occupied until the transfer
    /// departs; wire latency is not occupancy (it pipelines).
    pub fn reserve(&mut self, now: Time, bytes: u64) -> Transfer {
        let start = now.max(self.next_free);
        let xfer = if bytes == self.memo_bytes {
            self.memo_xfer
        } else {
            let x = Duration::for_transfer(bytes, self.bytes_per_sec);
            self.memo_bytes = bytes;
            self.memo_xfer = x;
            x
        };
        let depart = start + xfer;
        let arrive = depart + self.latency;
        self.next_free = depart;
        self.busy += xfer;
        self.bytes_moved += bytes;
        self.transfers += 1;
        Transfer {
            start,
            depart,
            arrive,
        }
    }

    /// Latency-only traversal for tiny control messages (fault packets,
    /// invalidation acks) that don't meaningfully consume bandwidth.
    pub fn control_latency(&self) -> Duration {
        self.latency
    }

    /// Configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// One-way wire latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Earliest time a new transfer could start.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Cumulative time the link spent moving bytes.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Total bytes moved over the link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers served.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Resets occupancy and statistics (used between experiment runs).
    pub fn reset(&mut self) {
        self.next_free = Time::ZERO;
        self.busy = Duration::ZERO;
        self.bytes_moved = 0;
        self.transfers = 0;
    }
}

impl Snapshot for Channel {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        w.u64(self.next_free.as_ps());
        w.u64(self.busy.as_ps());
        w.u64(self.bytes_moved);
        w.u64(self.transfers);
    }
}

impl Restore for Channel {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        // Bandwidth and latency come from construction; only occupancy and
        // statistics are mutable state.
        self.next_free = Time::from_ps(r.u64()?);
        self.busy = Duration::from_ps(r.u64()?);
        self.bytes_moved = r.u64()?;
        self.transfers = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;

    fn at(ns: u64) -> Time {
        Time::ZERO + Duration::from_ns(ns)
    }

    #[test]
    fn single_transfer_timing() {
        let mut c = Channel::new(1_000_000_000, Duration::from_ns(100)); // 1 GB/s
        let t = c.reserve(at(50), 1000); // 1000 B at 1 GB/s = 1000 ns
        assert_eq!(t.start, at(50));
        assert_eq!(t.depart, at(1050));
        assert_eq!(t.arrive, at(1150));
        assert_eq!(t.latency_from(at(50)), Duration::from_ns(1100));
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut c = Channel::new(1_000_000_000, Duration::from_ns(0));
        let a = c.reserve(at(0), 500);
        let b = c.reserve(at(0), 500);
        assert_eq!(a.depart, at(500));
        assert_eq!(b.start, at(500));
        assert_eq!(b.depart, at(1000));
    }

    #[test]
    fn idle_gap_is_not_occupancy() {
        let mut c = Channel::new(1_000_000_000, Duration::from_ns(0));
        c.reserve(at(0), 100);
        let late = c.reserve(at(10_000), 100);
        assert_eq!(late.start, at(10_000));
        assert_eq!(c.busy_time(), Duration::from_ns(200));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Channel::new(2_000_000_000, Duration::from_ns(5));
        c.reserve(at(0), 4096);
        c.reserve(at(0), 4096);
        assert_eq!(c.bytes_moved(), 8192);
        assert_eq!(c.transfers(), 2);
        assert!(c.busy_time() > Duration::ZERO);
        c.reset();
        assert_eq!(c.bytes_moved(), 0);
        assert_eq!(c.transfers(), 0);
        assert_eq!(c.next_free(), Time::ZERO);
    }

    #[test]
    fn memoized_durations_match_a_fresh_computation_on_every_call() {
        // Repeated and alternating sizes, the memo's hit and miss paths,
        // against `Duration::for_transfer` computed anew for each call.
        let sizes = [
            64,
            64,
            4096,
            64,
            4096,
            4096,
            0,
            0,
            2 << 20,
            64,
            2 << 20,
            1,
            1,
            64,
        ];
        for bytes_per_sec in [300_000_000_000, 32_000_000_000, 3] {
            let latency = Duration::from_ns(500);
            let mut c = Channel::new(bytes_per_sec, latency);
            let (mut next_free, mut busy) = (Time::ZERO, Duration::ZERO);
            for (i, &bytes) in sizes.iter().cycle().take(3 * sizes.len()).enumerate() {
                let now = at(i as u64 * 300);
                let xfer = Duration::for_transfer(bytes, bytes_per_sec);
                let start = now.max(next_free);
                let want = Transfer {
                    start,
                    depart: start + xfer,
                    arrive: start + xfer + latency,
                };
                assert_eq!(c.reserve(now, bytes), want, "call {i}: {bytes} B");
                next_free = want.depart;
                busy += xfer;
                assert_eq!(c.busy_time(), busy, "call {i}: {bytes} B");
            }
        }
    }

    #[test]
    fn accessors_report_configuration() {
        let c = Channel::new(42, Duration::from_ns(7));
        assert_eq!(c.bytes_per_sec(), 42);
        assert_eq!(c.latency(), Duration::from_ns(7));
        assert_eq!(c.control_latency(), Duration::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Channel::new(0, Duration::ZERO);
    }

    #[test]
    fn snapshot_round_trips_occupancy_and_stats() {
        let mut c = Channel::new(1_000_000_000, Duration::from_ns(5));
        c.reserve(at(0), 4096);
        c.reserve(at(100), 128);
        let mut w = ByteWriter::new();
        c.snapshot(&mut w);

        let mut fresh = Channel::new(1_000_000_000, Duration::from_ns(5));
        let buf = w.into_vec();
        let mut r = ByteReader::new("channel", &buf);
        fresh.restore(&mut r).expect("valid channel state");
        assert_eq!(fresh.next_free(), c.next_free());
        assert_eq!(fresh.busy_time(), c.busy_time());
        assert_eq!(fresh.bytes_moved(), c.bytes_moved());
        assert_eq!(fresh.transfers(), c.transfers());
        // The restored link queues new transfers exactly like the original.
        let a = c.reserve(at(200), 64);
        let b = fresh.reserve(at(200), 64);
        assert_eq!(a, b);
    }
}
