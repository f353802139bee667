//! Hierarchical metrics registry: named counters plus fixed-bucket latency
//! histograms.
//!
//! Keys are dot-separated paths (`uvm.fault.service_ns`,
//! `fabric.nvlink0.busy_ns`, `otable.relearn`) so consumers can group and
//! filter by prefix. Both maps are `BTreeMap`s: iteration order — and
//! therefore every rendering of a registry — is deterministic.
//!
//! The whole registry is gated by a single `enabled` flag set at
//! construction. A disabled registry rejects every update with one branch
//! and allocates nothing, which is what keeps the observability layer's
//! disabled path out of the simulator's hot-loop profile. Registry contents
//! are *observational*: they are never serialized into checkpoints or state
//! digests, so enabling metrics cannot perturb replay determinism.

use std::collections::BTreeMap;

use crate::time::Duration;

/// Number of histogram buckets: bucket 0 holds exact-zero samples, buckets
/// `1..=26` hold log2-spaced nanosecond ranges (`[2^(i-1), 2^i)` ns), and
/// the final bucket absorbs everything at or above ~33 ms (overflow).
pub const HISTOGRAM_BUCKETS: usize = 28;

/// A fixed-bucket latency histogram over nanoseconds.
///
/// Buckets are log2-spaced: bucket 0 counts exact-zero latencies, bucket
/// `i` (for `1 <= i < HISTOGRAM_BUCKETS-1`) counts samples in
/// `[2^(i-1), 2^i)` ns, and the last bucket is the overflow bucket for
/// everything larger. Sum/min/max are tracked exactly, so the mean is exact
/// and only quantiles are bucket-resolution estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a sample of `ns` nanoseconds lands in.
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        // 64 - leading_zeros = position of the highest set bit + 1, so
        // ns=1 -> 1, ns in [2,3] -> 2, ... clamped into the overflow bucket.
        ((64 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive lower bound (ns) of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            i => 1u64 << (i - 1),
        }
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Exact mean in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Bucket-resolution estimate of quantile `q` in `[0, 1]`: the floor of
    /// the bucket containing the q-th sample (exact for bucket 0). The
    /// overflow bucket reports the recorded maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == HISTOGRAM_BUCKETS - 1 {
                    return self.max_ns;
                }
                return Self::bucket_floor(i);
            }
        }
        self.max_ns
    }
}

/// A pre-resolved counter slot: holds the index of a counter registered
/// with [`MetricsRegistry::counter_handle`], so hot-path updates are a
/// bounds-checked vector add instead of a `BTreeMap` string lookup.
///
/// Handles are only meaningful on the registry (or a clone of the
/// registry) that issued them; on a disabled registry every handle update
/// is dropped by the same single branch as the string API.
#[derive(Debug, Clone, Copy)]
pub struct CounterHandle(u32);

/// A pre-resolved histogram slot, the [`CounterHandle`] analogue for
/// latency histograms.
#[derive(Debug, Clone, Copy)]
pub struct HistogramHandle(u32);

/// Named counters and latency histograms for one run.
///
/// Storage is an index map (`name -> slot`) over dense value vectors.
/// The string-keyed API looks the slot up per call; hot-path consumers
/// resolve a [`CounterHandle`]/[`HistogramHandle`] once at construction
/// and update by slot. A registered-but-never-updated key is *not*
/// considered recorded: it does not appear in listings, keeping handle
/// pre-registration invisible in rendered output.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counter_idx: BTreeMap<String, u32>,
    counter_vals: Vec<u64>,
    /// Whether the slot was ever written (add/set), as opposed to merely
    /// registered for a handle. Distinguishes an explicit zero gauge from
    /// an untouched slot.
    counter_live: Vec<bool>,
    histogram_idx: BTreeMap<String, u32>,
    histogram_vals: Vec<Histogram>,
}

impl MetricsRegistry {
    /// A registry that records everything.
    pub fn enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// A registry that drops every update (the default).
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether updates are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn counter_slot(&mut self, key: &str) -> usize {
        if let Some(&i) = self.counter_idx.get(key) {
            return i as usize;
        }
        let i = self.counter_vals.len();
        self.counter_idx.insert(key.to_string(), i as u32);
        self.counter_vals.push(0);
        self.counter_live.push(false);
        i
    }

    fn histogram_slot(&mut self, key: &str) -> usize {
        if let Some(&i) = self.histogram_idx.get(key) {
            return i as usize;
        }
        let i = self.histogram_vals.len();
        self.histogram_idx.insert(key.to_string(), i as u32);
        self.histogram_vals.push(Histogram::default());
        i
    }

    /// Resolves `key` to a [`CounterHandle`] for repeated hot-path updates.
    ///
    /// Resolve once (at component construction), update per event with
    /// [`MetricsRegistry::add_to`]. On a disabled registry this registers
    /// nothing and returns a handle whose updates are dropped.
    pub fn counter_handle(&mut self, key: &str) -> CounterHandle {
        if !self.enabled {
            return CounterHandle(0);
        }
        CounterHandle(self.counter_slot(key) as u32)
    }

    /// Resolves `key` to a [`HistogramHandle`]; see
    /// [`MetricsRegistry::counter_handle`].
    pub fn histogram_handle(&mut self, key: &str) -> HistogramHandle {
        if !self.enabled {
            return HistogramHandle(0);
        }
        HistogramHandle(self.histogram_slot(key) as u32)
    }

    /// Adds `v` to the counter behind `h` (the hot-path form of
    /// [`MetricsRegistry::add`]: one branch plus a vector add).
    #[inline]
    pub fn add_to(&mut self, h: CounterHandle, v: u64) {
        if !self.enabled {
            return;
        }
        let i = h.0 as usize;
        self.counter_vals[i] += v;
        self.counter_live[i] = true;
    }

    /// Records `ns` into the histogram behind `h`.
    #[inline]
    pub fn observe_ns_in(&mut self, h: HistogramHandle, ns: u64) {
        if !self.enabled {
            return;
        }
        self.histogram_vals[h.0 as usize].record_ns(ns);
    }

    /// Records a [`Duration`] into the histogram behind `h`.
    #[inline]
    pub fn observe_in(&mut self, h: HistogramHandle, d: Duration) {
        self.observe_ns_in(h, d.as_ps() / 1000);
    }

    /// Adds `v` to counter `key` (creating it at zero).
    ///
    /// Steady-state updates are allocation-free: the key string is only
    /// cloned the first time a counter is touched.
    pub fn add(&mut self, key: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let i = self.counter_slot(key);
        self.counter_vals[i] += v;
        self.counter_live[i] = true;
    }

    /// Overwrites counter `key` with `v` (for end-of-run gauges rolled up
    /// from component state, e.g. per-link busy time).
    pub fn set(&mut self, key: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let i = self.counter_slot(key);
        self.counter_vals[i] = v;
        self.counter_live[i] = true;
    }

    /// The value of counter `key` (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counter_idx
            .get(key)
            .map(|&i| self.counter_vals[i as usize])
            .unwrap_or(0)
    }

    /// The histogram under `key`, if any samples were recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histogram_idx
            .get(key)
            .map(|&i| &self.histogram_vals[i as usize])
            .filter(|h| h.count() > 0)
    }

    /// All recorded counters in deterministic (lexicographic) key order.
    /// Slots registered for a handle but never updated are omitted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_idx
            .iter()
            .filter(|(_, &i)| self.counter_live[i as usize])
            .map(|(k, &i)| (k.as_str(), self.counter_vals[i as usize]))
    }

    /// All recorded histograms in deterministic (lexicographic) key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_idx
            .iter()
            .filter(|(_, &i)| self.histogram_vals[i as usize].count() > 0)
            .map(|(k, &i)| (k.as_str(), &self.histogram_vals[i as usize]))
    }
}

/// Logical equality: same enablement and the same *recorded* content.
/// Slot numbering (handle registration order) is intentionally ignored —
/// two registries that rendered identically are equal.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.enabled == other.enabled
            && self.counters().eq(other.counters())
            && self.histograms().eq(other.histograms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let mut h = Histogram::default();
        h.record_ns(0);
        h.record_ns(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        // Bucket 0 is exclusively for zeros: a 1 ns sample goes to bucket 1,
        // whose floor is 1.
        h.record_ns(1);
        assert_eq!(h.quantile_ns(2.0 / 3.0), 0);
        assert_eq!(h.quantile_ns(1.0), 1);
    }

    #[test]
    fn huge_samples_land_in_the_overflow_bucket() {
        let mut h = Histogram::default();
        h.record_ns(u64::MAX);
        h.record_ns(1 << 40); // ~18 minutes in ns — far past the last range
        assert_eq!(h.max_ns(), u64::MAX);
        // The overflow bucket reports the true max for quantiles, so
        // both samples are in it.
        assert_eq!(h.quantile_ns(0.0), u64::MAX);
        assert_eq!(h.quantile_ns(0.99), u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum_ns(), u64::MAX);
    }

    #[test]
    fn bucket_boundaries_are_log2_ns() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_floor(2), 2);
        assert_eq!(Histogram::bucket_floor(11), 1024);
    }

    #[test]
    fn quantiles_estimate_from_buckets() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record_ns(100); // bucket 7: [64, 128)
        }
        for _ in 0..10 {
            h.record_ns(10_000); // bucket 14: [8192, 16384)
        }
        assert_eq!(h.quantile_ns(0.5), 64);
        assert_eq!(h.quantile_ns(0.95), 8192);
        assert!((h.mean_ns() - 1090.0).abs() < 1e-9);
    }

    #[test]
    fn handles_update_the_same_slots_as_strings() {
        let mut m = MetricsRegistry::enabled();
        let c = m.counter_handle("access.local");
        let h = m.histogram_handle("walk_ns");
        m.add_to(c, 2);
        m.add("access.local", 3);
        m.add_to(c, 1);
        assert_eq!(m.counter("access.local"), 6);
        m.observe_ns_in(h, 100);
        let again = m.histogram_handle("walk_ns");
        m.observe_ns_in(again, 200);
        assert_eq!(m.histogram("walk_ns").unwrap().count(), 2);
        m.observe_in(h, Duration::from_ps(1500));
        assert_eq!(m.histogram("walk_ns").unwrap().count(), 3);
    }

    #[test]
    fn registered_but_untouched_handles_stay_invisible() {
        let mut m = MetricsRegistry::enabled();
        let _c = m.counter_handle("never.updated");
        let _h = m.histogram_handle("never.observed");
        m.add("real", 1);
        assert_eq!(m.counters().count(), 1);
        assert!(m.histogram("never.observed").is_none());
        assert_eq!(m.histograms().count(), 0);
        // An explicit zero gauge, by contrast, is recorded.
        m.set("zero.gauge", 0);
        assert_eq!(m.counters().count(), 2);
    }

    #[test]
    fn equality_ignores_registration_order() {
        let mut a = MetricsRegistry::enabled();
        let ah = a.counter_handle("x");
        a.counter_handle("unused");
        a.add_to(ah, 5);
        let lat = a.histogram_handle("lat");
        a.observe_ns_in(lat, 7);
        let mut b = MetricsRegistry::enabled();
        let lat = b.histogram_handle("lat");
        b.observe_ns_in(lat, 7);
        b.add("x", 5);
        assert_eq!(a, b);
        b.add("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_registry_drops_handle_updates() {
        let mut m = MetricsRegistry::disabled();
        let c = m.counter_handle("a");
        let h = m.histogram_handle("b");
        m.add_to(c, 5);
        m.observe_ns_in(h, 100);
        assert_eq!(m.counters().count(), 0);
        assert!(m.histogram("b").is_none());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::disabled();
        m.add("a.b", 5);
        let h = m.histogram_handle("c.d");
        m.observe_ns_in(h, 100);
        m.set("e.f", 9);
        assert!(!m.is_enabled());
        assert_eq!(m.counter("a.b"), 0);
        assert!(m.histogram("c.d").is_none());
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn enabled_registry_accumulates_in_sorted_order() {
        let mut m = MetricsRegistry::enabled();
        m.add("z.last", 1);
        m.add("a.first", 2);
        m.add("a.first", 3);
        m.set("m.gauge", 7);
        m.set("m.gauge", 9);
        let lat = m.histogram_handle("lat_ns");
        m.observe_in(lat, Duration::from_ps(1500)); // 1.5 ns rounds down to 1
        assert_eq!(m.counter("a.first"), 5);
        assert_eq!(m.counter("m.gauge"), 9);
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a.first", "m.gauge", "z.last"]);
        assert_eq!(m.histogram("lat_ns").unwrap().max_ns(), 1);
    }
}
