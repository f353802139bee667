//! Small deterministic RNG for workload generation and fault injection.
//!
//! The build environment has no network access, so instead of pulling in the
//! `rand` crate the simulator carries its own generator: xoshiro256**
//! (Blackman & Vigna) seeded through splitmix64, the standard pairing — the
//! seeding function's equidistribution fills the 256-bit state from a single
//! `u64` without the correlation pitfalls of naive repetition.
//!
//! Determinism is load-bearing: the fault-injection harness prints a seed and
//! step number for every failure, and replaying that seed must reproduce the
//! failure bit-for-bit.

use crate::codec::{ByteReader, CodecError, Encoder, Restore, Snapshot};

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl Snapshot for SimRng {
    fn snapshot<E: Encoder + ?Sized>(&self, w: &mut E) {
        for word in self.s {
            w.u64(word);
        }
    }
}

impl Restore for SimRng {
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        for word in &mut self.s {
            *word = r.u64()?;
        }
        if self.s == [0; 4] {
            return Err(r.malformed("all-zero xoshiro256** state"));
        }
        Ok(())
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose full 256-bit state is derived from `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniform random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[range.start, range.end)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// exactly uniform. Empty ranges return `range.start`.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        let span = range.end.saturating_sub(range.start);
        if span == 0 {
            return range.start;
        }
        // Draws whose low 64 bits fall below (2^64 - span) mod span are the
        // biased sliver; rejecting exactly those makes every quotient
        // equally likely.
        let threshold = span.wrapping_neg().wrapping_rem(span);
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            if (m as u64) >= threshold {
                return range.start + (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` below `bound` (0 when `bound` is 0).
    pub fn gen_below(&mut self, bound: usize) -> usize {
        self.gen_range(0..bound as u64) as usize
    }

    /// True with probability `num / denom`.
    pub fn gen_bool_ratio(&mut self, num: u64, denom: u64) -> bool {
        denom != 0 && self.gen_range(0..denom) < num
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..(i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_below(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ByteWriter;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws should cover 10 values");
    }

    #[test]
    fn gen_range_empty_returns_start() {
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(rng.gen_range(9..9), 9);
        assert_eq!(rng.gen_below(0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }

    #[test]
    fn snapshot_restores_the_exact_stream_position() {
        let mut a = SimRng::seed_from_u64(99);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut w = ByteWriter::new();
        a.snapshot(&mut w);
        let upcoming: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();

        let mut b = SimRng::seed_from_u64(0);
        let buf = w.into_vec();
        let mut r = ByteReader::new("rng", &buf);
        b.restore(&mut r).expect("valid rng state");
        let replayed: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(upcoming, replayed);
    }

    #[test]
    fn all_zero_rng_state_is_rejected() {
        let mut w = ByteWriter::new();
        for _ in 0..4 {
            w.u64(0);
        }
        let buf = w.into_vec();
        let mut r = ByteReader::new("rng", &buf);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(rng.restore(&mut r).is_err());
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = SimRng::seed_from_u64(3);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }
}
