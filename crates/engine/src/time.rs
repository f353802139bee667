//! Simulated time in picosecond resolution.
//!
//! All latencies and bandwidth computations in the simulator bottom out in
//! these two newtypes. Picoseconds give enough headroom to express both a
//! single 1 GHz cycle (1000 ps) and multi-second simulations (`u64` holds
//! ~213 days of picoseconds) without floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, measured in picoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of simulated time in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The beginning of the simulation.
    pub const ZERO: Time = Time(0);

    /// Constructs a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Raw picosecond value.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (lossy).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds (lossy).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The later of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Constructs a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000_000)
    }

    /// Constructs a duration from a cycle count at the given clock frequency
    /// in gigahertz. One cycle at 1 GHz is exactly 1 ns.
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        debug_assert!(ghz > 0.0, "clock frequency must be positive");
        Duration(((cycles as f64) * 1e3 / ghz).round() as u64)
    }

    /// The time it takes to move `bytes` over a link sustaining
    /// `bytes_per_sec` of bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // ps = bytes / (bytes/s) * 1e12, computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 1_000_000_000_000u128) / bytes_per_sec as u128;
        Duration(ps as u64)
    }

    /// Raw picosecond value.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (lossy).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds (lossy).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Duration::from_ns(1).as_ps(), 1_000);
        assert_eq!(Duration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Duration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Time::from_ps(42).as_ps(), 42);
    }

    #[test]
    fn cycles_at_one_ghz_are_nanoseconds() {
        assert_eq!(Duration::from_cycles(10, 1.0), Duration::from_ns(10));
        assert_eq!(Duration::from_cycles(4, 2.0), Duration::from_ns(2));
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 300 GB/s moving 4 KiB: 4096 / 300e9 s = 13.653 ns.
        let d = Duration::for_transfer(4096, 300_000_000_000);
        assert!((d.as_ns() - 13.653).abs() < 0.01, "{}", d.as_ns());
    }

    #[test]
    fn transfer_time_zero_bytes_is_zero() {
        assert_eq!(Duration::for_transfer(0, 1_000_000), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn transfer_time_zero_bandwidth_panics() {
        let _ = Duration::for_transfer(1, 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Duration::from_ns(5);
        let u = t + Duration::from_ns(3);
        assert_eq!(u - t, Duration::from_ns(3));
        assert_eq!(t.max(u), u);
        assert_eq!(t.min(u), t);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_ns(10);
        let b = Duration::from_ns(4);
        assert_eq!(a + b, Duration::from_ns(14));
        assert_eq!(a - b, Duration::from_ns(6));
        assert_eq!(a * 3, Duration::from_ns(30));
        assert_eq!(a / 2, Duration::from_ns(5));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        let total: Duration = [a, b, b].into_iter().sum();
        assert_eq!(total, Duration::from_ns(18));
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", Time::ZERO).is_empty());
        assert!(!format!("{}", Duration::from_us(3)).is_empty());
    }
}
