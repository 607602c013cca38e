//! Deterministic, seedable pseudo-random number generation for the
//! AstroMLab 2 reproduction.
//!
//! Every stochastic component of the reproduction — synthetic-world
//! generation, parameter initialisation, data shuffling, sampling during
//! generation — draws from this crate so that a single master seed fully
//! determines an experiment. The implementation is self-contained (no
//! external `rand` dependency) to guarantee bit-for-bit reproducibility
//! across toolchain and dependency upgrades.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state generator, used for seeding and
//!   for deriving independent substreams from string labels.
//! * [`Xoshiro256`] — `xoshiro256**`, the workhorse generator used for all
//!   bulk sampling. Fast, passes BigCrush, 256-bit state.
//!
//! # Substreams
//!
//! Experiments need many independent random streams (one per document
//! generator, per model init, per data loader, ...). [`Rng::substream`]
//! derives a child generator by hashing a textual label into the parent's
//! seed fingerprint, so adding a new consumer never perturbs existing
//! streams:
//!
//! ```
//! use astro_prng::Rng;
//! let root = Rng::seed_from(42);
//! let mut init = root.substream("model-init");
//! let mut data = root.substream("data-order");
//! assert_ne!(init.next_u64(), data.next_u64());
//! ```

mod distributions;
mod splitmix;
mod xoshiro;

pub use distributions::{Categorical, Zipf};
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256;

/// The crate-standard generator: `xoshiro256**` seeded via SplitMix64,
/// with a convenience sampling API layered on top.
///
/// `Rng` is deliberately `Clone`: cloning produces a generator that will
/// emit the identical sequence, which is occasionally useful in tests.
/// For *independent* streams use [`Rng::substream`].
#[derive(Clone, Debug)]
pub struct Rng {
    core: Xoshiro256,
    /// Cached second Gaussian variate from the polar method.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; SplitMix64 expansion guarantees a non-degenerate state.
    pub fn seed_from(seed: u64) -> Self {
        Rng {
            core: Xoshiro256::seed_from(seed),
            gauss_spare: None,
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The child's seed is a hash of the parent's *initial* seed material
    /// and the label, so the derivation is insensitive to how many values
    /// the parent has already produced.
    pub fn substream(&self, label: &str) -> Rng {
        let mut h = self.core.seed_fingerprint();
        for &b in label.as_bytes() {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64).rotate_left(7);
        }
        Rng::seed_from(SplitMix64::new(h).next_u64())
    }

    /// Derive an independent child stream identified by a label plus an
    /// integer index (e.g. one stream per document).
    pub fn substream_idx(&self, label: &str, idx: u64) -> Rng {
        let mut h = self.core.seed_fingerprint() ^ idx.wrapping_mul(0x9e3779b97f4a7c15);
        for &b in label.as_bytes() {
            h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64).rotate_left(7);
        }
        Rng::seed_from(SplitMix64::new(h).next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.core.next_u64()
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.core.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f32 in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.core.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below bound must be positive");
        // Lemire 2019: unbiased bounded integers without division in the
        // common case.
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

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Rng::range_u64 requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "Rng::range requires lo < hi");
        lo + self.index(hi - lo)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (values outside
    /// `[0, 1]` saturate).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal variate via the Marsaglia polar method.
    pub fn gauss(&mut self) -> f64 {
        if let Some(g) = self.gauss_spare.take() {
            return g;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * k);
                return u * k;
            }
        }
    }

    /// Normal variate with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.gauss()
    }

    /// Standard normal variate as `f32` (used for weight initialisation).
    #[inline]
    pub fn gauss_f32(&mut self) -> f32 {
        self.gauss() as f32
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "Rng::choose on empty slice");
        &xs[self.index(xs.len())]
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement
    /// (Floyd's algorithm; order is randomised afterwards).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n} without replacement");
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        self.shuffle(&mut chosen);
        chosen
    }

    /// Sample an index from an unnormalised non-negative weight slice.
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to zero / a non-finite value.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "Rng::weighted requires positive finite total weight"
        );
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent_of_parent_position() {
        let parent = Rng::seed_from(99);
        let mut s1 = parent.substream("alpha");
        let mut advanced = Rng::seed_from(99);
        for _ in 0..1000 {
            advanced.next_u64();
        }
        let mut s2 = advanced.substream("alpha");
        for _ in 0..16 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn substream_labels_distinguish() {
        let parent = Rng::seed_from(5);
        let mut a = parent.substream("a");
        let mut b = parent.substream("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substream_idx_distinguish() {
        let parent = Rng::seed_from(5);
        let mut a = parent.substream_idx("doc", 0);
        let mut b = parent.substream_idx("doc", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_centred() {
        let mut r = Rng::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut r = Rng::seed_from(13);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10) as usize;
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng::seed_from(0).below(0);
    }

    #[test]
    fn gauss_moments() {
        let mut r = Rng::seed_from(17);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(23);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle left identity (astronomically unlikely)");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::seed_from(29);
        for _ in 0..50 {
            let s = r.sample_indices(20, 8);
            assert_eq!(s.len(), 8);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 8);
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full() {
        let mut r = Rng::seed_from(31);
        let mut s = r.sample_indices(5, 5);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::seed_from(37);
        for _ in 0..500 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_distribution_roughly_matches() {
        let mut r = Rng::seed_from(41);
        let w = [1.0, 3.0];
        let n = 40_000;
        let ones = (0..n).filter(|_| r.weighted(&w) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(43);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
