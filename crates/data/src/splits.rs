//! Dataset splitting: shuffled train/test splits.
//!
//! MR and Subj ship without a standard test set; the harness carves one
//! out with [`train_test_split`].

use rand::prelude::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Shuffle `0..n` and split into `(train, test)` index sets with
/// `test_fraction` of the data in the test set (at least one sample in
/// each side when `n ≥ 2`).
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..1.0).contains(&test_fraction),
        "test fraction must be in [0, 1)"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let mut n_test = (n as f64 * test_fraction).round() as usize;
    if n >= 2 {
        n_test = n_test.clamp(1, n - 1);
    }
    let test = idx.split_off(n - n_test);
    (idx, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn split_sizes_and_disjointness() {
        let (train, test) = train_test_split(100, 0.2, 7);
        assert_eq!(test.len(), 20);
        assert_eq!(train.len(), 80);
        let t: HashSet<_> = train.iter().collect();
        assert!(test.iter().all(|i| !t.contains(i)));
    }

    #[test]
    fn split_always_nonempty_sides() {
        let (train, test) = train_test_split(2, 0.01, 7);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn split_deterministic() {
        assert_eq!(train_test_split(50, 0.3, 9), train_test_split(50, 0.3, 9));
        assert_ne!(
            train_test_split(50, 0.3, 9).1,
            train_test_split(50, 0.3, 10).1
        );
    }
}
