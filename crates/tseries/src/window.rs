//! Windowed views and weighted sums over score sequences.
//!
//! WSHS (paper Eq. 9–10) scores a sample by
//! `Σ_{j=t-l+1..t} 2^{j-t} · φ_j(x)`: the most recent score has weight 1,
//! the one before 1/2, then 1/4, …, truncated to a window of the last `l`
//! iterations. With `l = 1` this degrades to the base strategy.

/// The last `min(l, seq.len())` elements of `seq`, oldest first.
///
/// An `l` of zero returns the empty slice.
pub fn last_window(seq: &[f64], l: usize) -> &[f64] {
    let start = seq.len().saturating_sub(l);
    &seq[start..]
}

/// The exponential weights of Eq. 10 for a window of length `n`, oldest
/// first: `[2^{-(n-1)}, …, 1/4, 1/2, 1]`.
pub fn exp_weights(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (2f64).powi(i as i32 - (n as i32 - 1)))
        .collect()
}

/// WSHS score: exponentially weighted sum of the last `l` elements
/// (Eq. 9–10). Empty sequences score 0.
///
/// ```
/// use histal_tseries::exp_weighted_sum;
/// let h = [0.1, 0.2, 0.4];
/// // 0.25*0.1 + 0.5*0.2 + 1.0*0.4
/// assert!((exp_weighted_sum(&h, 3) - 0.525).abs() < 1e-12);
/// // l = 1 degrades to the current score.
/// assert_eq!(exp_weighted_sum(&h, 1), 0.4);
/// ```
pub fn exp_weighted_sum(seq: &[f64], l: usize) -> f64 {
    let w = last_window(seq, l);
    let mut acc = 0.0;
    let mut weight = 1.0;
    for &v in w.iter().rev() {
        acc += weight * v;
        weight *= 0.5;
    }
    acc
}

/// HUS-style plain sum of the last `l` elements (Davy & Luz 2007): every
/// historical score weighted equally.
pub fn uniform_sum(seq: &[f64], l: usize) -> f64 {
    last_window(seq, l).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_shorter_than_l() {
        assert_eq!(last_window(&[1.0, 2.0], 5), &[1.0, 2.0]);
    }

    #[test]
    fn window_exact_and_truncated() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(last_window(&s, 2), &[3.0, 4.0]);
        assert_eq!(last_window(&s, 4), &s[..]);
        assert!(last_window(&s, 0).is_empty());
    }

    #[test]
    fn weights_are_powers_of_two() {
        assert_eq!(exp_weights(3), vec![0.25, 0.5, 1.0]);
        assert_eq!(exp_weights(1), vec![1.0]);
        assert!(exp_weights(0).is_empty());
    }

    #[test]
    fn weighted_sum_matches_explicit_weights() {
        let s = [0.3, 0.7, 0.5, 0.9];
        let l = 3;
        let w = exp_weights(l);
        let window = last_window(&s, l);
        let expected: f64 = w.iter().zip(window).map(|(a, b)| a * b).sum();
        assert!((exp_weighted_sum(&s, l) - expected).abs() < 1e-12);
    }

    #[test]
    fn l1_degrades_to_current_score() {
        assert_eq!(exp_weighted_sum(&[0.2, 0.8], 1), 0.8);
    }

    #[test]
    fn empty_sequence_scores_zero() {
        assert_eq!(exp_weighted_sum(&[], 3), 0.0);
        assert_eq!(uniform_sum(&[], 3), 0.0);
    }

    #[test]
    fn uniform_sum_is_plain_sum() {
        assert!((uniform_sum(&[1.0, 2.0, 3.0], 2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn recent_scores_dominate() {
        // Same current score, historically-high sample must win under WSHS.
        let stable_high = [0.69, 0.68, 0.69, 0.68, 0.69];
        let late_spike = [0.33, 0.42, 0.58, 0.54, 0.69];
        assert!(exp_weighted_sum(&stable_high, 5) > exp_weighted_sum(&late_spike, 5));
    }
}
