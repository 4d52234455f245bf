//! Deterministic, splittable pseudo-random number generation.
//!
//! Experiments in the HDX reproduction must be reproducible across runs
//! and platforms, so all stochastic components (data synthesis, weight
//! initialization, pair sampling, path sampling) draw from this small
//! SplitMix64-based generator instead of a global RNG.

/// A deterministic pseudo-random number generator (SplitMix64 core).
///
/// `Rng` is intentionally tiny: it provides exactly the distributions the
/// workspace needs (uniform `u64`/`f32`, ranges, Gaussian via Box–Muller,
/// shuffling) with reproducible streams. Use [`Rng::split`] to derive
/// independent sub-streams for parallel or per-component use.
///
/// # Example
///
/// ```
/// use hdx_tensor::Rng;
/// let mut rng = Rng::new(42);
/// let a = rng.uniform();
/// assert!((0.0..1.0).contains(&a));
/// let mut sub = rng.split();
/// let _gaussian = sub.normal();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rng {
    state: u64,
    /// Cached second Box–Muller sample.
    spare_normal: Option<u64>,
}

impl Rng {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            // Avoid the all-zero state pathologies by mixing the seed once.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            spare_normal: None,
        }
    }

    /// Returns the next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives an independent generator from this one.
    ///
    /// The parent stream advances by one draw; the child is seeded from it.
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // 24 high bits -> f32 mantissa.
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform_in: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: n must be positive");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "range_inclusive: empty range [{lo}, {hi}]");
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal sample (Box–Muller, with caching of the pair).
    pub fn normal(&mut self) -> f32 {
        if let Some(bits) = self.spare_normal.take() {
            return f32::from_bits(bits as u32);
        }
        // Draw until u1 is safely away from zero.
        let mut u1 = self.uniform();
        while u1 < 1e-7 {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        let z0 = r * theta.cos();
        let z1 = r * theta.sin();
        self.spare_normal = Some(z1.to_bits() as u64);
        z0
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Captures the generator's full state as three words (the
    /// SplitMix64 state, a flag for the cached Box–Muller sample, and
    /// its bit pattern). [`Rng::from_state_words`] restores the exact
    /// stream — the checkpoint/resume layer relies on this to continue
    /// a search bit-identically.
    pub fn state_words(&self) -> [u64; 3] {
        [
            self.state,
            u64::from(self.spare_normal.is_some()),
            self.spare_normal.unwrap_or(0),
        ]
    }

    /// Rebuilds a generator from [`Rng::state_words`]. The restored
    /// stream continues exactly where the captured one stopped.
    pub fn from_state_words(words: [u64; 3]) -> Rng {
        Rng {
            state: words[0],
            spare_normal: (words[1] != 0).then_some(words[2]),
        }
    }

    /// Samples an index from an (unnormalized, non-negative) weight slice.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn weighted_index(&mut self, weights: &[f32]) -> usize {
        assert!(!weights.is_empty(), "weighted_index: empty weights");
        let total: f32 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weighted_index: weights must sum to a positive finite value (got {total})"
        );
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

impl Default for Rng {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different seeds should diverge");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::new(11);
        let n = 50_000;
        let mean: f32 = (0..n).map(|_| rng.uniform()).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(5);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "normal mean {mean} too far from 0");
        assert!(
            (var - 1.0).abs() < 0.05,
            "normal variance {var} too far from 1"
        );
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = Rng::new(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut rng = Rng::new(13);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            match rng.range_inclusive(2, 4) {
                2 => seen_lo = true,
                4 => seen_hi = true,
                3 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Rng::new(21);
        let mut child = parent.split();
        let a: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn state_words_round_trip_mid_stream() {
        let mut rng = Rng::new(19);
        // Leave a cached Box–Muller sample pending so the spare slot is
        // exercised too.
        let _ = rng.normal();
        let mut restored = Rng::from_state_words(rng.state_words());
        for _ in 0..64 {
            assert_eq!(restored.normal().to_bits(), rng.normal().to_bits());
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(17);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::new(23);
        let weights = [0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(rng.weighted_index(&weights), 1);
        }
    }

    #[test]
    #[should_panic(expected = "empty weights")]
    fn weighted_index_rejects_empty() {
        Rng::new(0).weighted_index(&[]);
    }
}
