//! Zipf-distributed sampling for natural-looking token frequencies.

use rand::Rng;

/// A sampler over ranks `0..n` with `P(rank) ∝ 1/(rank+1)^s`.
///
/// Real corpora have heavy-tailed vocabularies; using a Zipf background
/// keeps the generated vocabulary statistics (|V|, tokens with frequency
/// ≥ 2) in the same regime as Table 3.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Draw a rank.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first rank whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(100, 1.1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut head = 0;
        let n = 10_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The top-10 ranks of a 1000-rank Zipf(1.2) hold ~58% of the mass.
        assert!(head as f64 / n as f64 > 0.4, "head mass {head}/{n}");
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 2000.0).abs() < 300.0, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
