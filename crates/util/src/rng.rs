//! A small, fast, seeded PRNG: xoshiro256++ with SplitMix64 seeding.
//!
//! Not cryptographic. Every stream is fully determined by its seed, which
//! is what reproducible experiments and property tests need.

/// A seeded pseudo-random number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator fully determined by `seed`.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// An independent generator split off this one (for child streams).
    pub fn split(&mut self) -> Rng {
        Rng::seed(self.next_u64())
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded(0)");
        // Debiased multiply-shift (Lemire).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in the half-open range `lo..hi` (`lo < hi`).
    #[inline]
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.bounded(range.end - range.start)
    }

    /// Uniform `u32` in `lo..hi`.
    #[inline]
    pub fn range_u32(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.range_u64(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `usize` in `lo..hi`.
    #[inline]
    pub fn range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.range_u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `u64` in the closed range `lo..=hi`.
    #[inline]
    pub fn range_inclusive_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.bounded(hi - lo + 1)
    }

    /// Uniform `usize` in `lo..=hi`.
    #[inline]
    pub fn range_inclusive_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_inclusive_u64(lo as u64, hi as u64) as usize
    }

    /// A fair coin.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0..i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed(7);
        let mut b = Rng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed(8);
        assert_ne!(Rng::seed(7).next_u64(), c.next_u64());
    }

    #[test]
    fn bounded_stays_in_range() {
        let mut r = Rng::seed(1);
        for _ in 0..10_000 {
            assert!(r.bounded(7) < 7);
            let x = r.range_u64(10..20);
            assert!((10..20).contains(&x));
            let y = r.range_inclusive_u64(3, 5);
            assert!((3..=5).contains(&y));
        }
        assert_eq!(r.range_u64(4..5), 4);
        assert_eq!(r.range_inclusive_u64(9, 9), 9);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = Rng::seed(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
