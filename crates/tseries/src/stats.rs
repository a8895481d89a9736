//! Elementary statistics over score sequences.
//!
//! FHS (paper Eq. 11) adds `w_f · V(H_t(x))` to the current score, where
//! `V` is the population variance of the last `l` evaluation results — a
//! sample fluctuating around the decision boundary gets a large variance
//! and is considered more uncertain than one with a stable sequence.

/// Arithmetic mean; 0 for the empty slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (divides by `n`, matching the paper's `1/l Σ (…)²`);
/// 0 for slices with fewer than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// The FHS fluctuation term: population variance of the last `l` elements.
pub fn window_variance(seq: &[f64], l: usize) -> f64 {
    variance(crate::window::last_window(seq, l))
}

/// Lag-`k` autocorrelation of a sequence, in `[-1, 1]`; 0 for sequences
/// too short or with zero variance. Distinguishes *oscillating* histories
/// (negative lag-1 ACF — a sample bouncing across the boundary) from
/// *drifting* ones (positive ACF) at equal variance, which neither the
/// fluctuation nor the trend feature can separate — the paper's "explore
/// more effective features" future-work direction.
pub fn autocorrelation(seq: &[f64], k: usize) -> f64 {
    let n = seq.len();
    if k == 0 {
        return if n == 0 { 0.0 } else { 1.0 };
    }
    if n <= k + 1 {
        return 0.0;
    }
    let m = mean(seq);
    let denom: f64 = seq.iter().map(|&x| (x - m) * (x - m)).sum();
    if denom <= 1e-15 {
        return 0.0;
    }
    let num: f64 = (0..n - k).map(|i| (seq[i] - m) * (seq[i + k] - m)).sum();
    num / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_hand_computed() {
        // mean 2, deviations [-1, 0, 1] → var = 2/3
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[5.0; 10]), 0.0);
    }

    #[test]
    fn variance_degenerate_lengths() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn window_variance_uses_only_window() {
        // Large early value outside the window must not contribute.
        let seq = [100.0, 1.0, 1.0, 1.0];
        assert_eq!(window_variance(&seq, 3), 0.0);
    }

    #[test]
    fn acf_of_oscillation_is_negative() {
        let osc = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(autocorrelation(&osc, 1) < -0.5);
    }

    #[test]
    fn acf_of_smooth_drift_is_positive() {
        let drift: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!(autocorrelation(&drift, 1) > 0.5);
    }

    #[test]
    fn acf_edge_cases() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0, 2.0], 1), 0.0);
        assert_eq!(autocorrelation(&[3.0; 10], 1), 0.0); // zero variance
        assert_eq!(autocorrelation(&[1.0, 2.0, 3.0], 0), 1.0);
        assert_eq!(autocorrelation(&[], 0), 0.0);
    }

    #[test]
    fn acf_bounded() {
        let seq = [0.2, 0.9, 0.1, 0.5, 0.7, 0.3, 0.8];
        for k in 1..4 {
            let a = autocorrelation(&seq, k);
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&a), "lag {k}: {a}");
        }
    }

    #[test]
    fn fluctuating_beats_stable() {
        // The paper's motivating example: fluctuating sequence (d) must get
        // larger variance than stable sequence (a).
        let stable = [0.69, 0.68, 0.69, 0.68, 0.69];
        let fluct = [0.33, 0.68, 0.58, 0.52, 0.69];
        assert!(window_variance(&fluct, 5) > window_variance(&stable, 5));
    }
}
