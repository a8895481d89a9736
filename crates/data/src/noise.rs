//! Label-noise injection for robustness studies.
//!
//! Annotators are imperfect; an AL strategy that over-trusts single
//! evaluations amplifies annotation mistakes. These helpers corrupt a
//! fraction of oracle labels so the harness can study how the
//! history-aware strategies degrade (the robustness extension experiment,
//! `histal-experiments noise`).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Flip each classification label to a uniformly random *other* class
/// with probability `rate`. Returns the indices that were corrupted.
///
/// # Panics
/// Panics if `rate` is outside `[0, 1]` or `n_classes < 2`.
pub fn corrupt_labels(labels: &mut [usize], n_classes: usize, rate: f64, seed: u64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&rate), "noise rate must be in [0, 1]");
    assert!(n_classes >= 2, "need at least two classes to corrupt");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut corrupted = Vec::new();
    for (i, label) in labels.iter_mut().enumerate() {
        if rng.gen::<f64>() < rate {
            let mut new = rng.gen_range(0..n_classes - 1);
            if new >= *label {
                new += 1;
            }
            *label = new;
            corrupted.push(i);
        }
    }
    corrupted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_noop() {
        let mut labels = vec![0, 1, 0, 1];
        let flipped = corrupt_labels(&mut labels, 2, 0.0, 1);
        assert!(flipped.is_empty());
        assert_eq!(labels, vec![0, 1, 0, 1]);
    }

    #[test]
    fn full_rate_flips_everything_to_other_classes() {
        let mut labels = vec![0usize; 100];
        let flipped = corrupt_labels(&mut labels, 3, 1.0, 2);
        assert_eq!(flipped.len(), 100);
        assert!(labels.iter().all(|&l| l == 1 || l == 2));
    }

    #[test]
    fn rate_is_approximately_respected() {
        let mut labels = vec![0usize; 10_000];
        let flipped = corrupt_labels(&mut labels, 2, 0.2, 3);
        let rate = flipped.len() as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn corruption_is_deterministic() {
        let mut a = vec![0, 1, 2, 0, 1, 2];
        let mut b = a.clone();
        corrupt_labels(&mut a, 3, 0.5, 9);
        corrupt_labels(&mut b, 3, 0.5, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "noise rate")]
    fn bad_rate_panics() {
        let mut labels = vec![0, 1];
        let _ = corrupt_labels(&mut labels, 2, 1.5, 0);
    }
}
