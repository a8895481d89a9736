//! Property-based tests for [`RollingStats`]: the O(1) incremental
//! window sum, exponentially-weighted sum and variance must track the
//! from-scratch folds (`uniform_sum`, `exp_weighted_sum`,
//! `window_variance` — the test oracle) for arbitrary append sequences
//! and window lengths, to within accumulated rounding error.

use proptest::prelude::*;

use histal_tseries::{exp_weighted_sum, uniform_sum, window_variance, RollingStats};

/// Drive the rolling tracker alongside an explicit sequence, as the
/// history store does: the evictee is the value `window` positions back,
/// handed over exactly when the window is full.
fn drive(values: &[f64], window: usize, mut check: impl FnMut(&RollingStats, &[f64])) {
    let mut stats = RollingStats::new(window);
    let mut seq: Vec<f64> = Vec::new();
    for &v in values {
        let evicted = (seq.len() >= window).then(|| seq[seq.len() - window]);
        stats.push(v, evicted);
        seq.push(v);
        check(&stats, &seq);
    }
}

/// The rolling updates associate additions differently than the oracle
/// folds and the Welford remove/add error compounds over a run, so the
/// bound is a relative 1e-10 — far above accumulated epsilon, far below
/// any structural defect (a wrong evictee or weight shows up at ~1e-1).
fn close(rolling: f64, scratch: f64) -> bool {
    (rolling - scratch).abs() <= scratch.abs().max(1.0) * 1e-10
}

proptest! {
    /// Window sum tracks `uniform_sum` after every push.
    #[test]
    fn sum_matches_oracle(
        values in prop::collection::vec(-5.0f64..5.0, 0..60),
        window in 1usize..9,
    ) {
        drive(&values, window, |stats, seq| {
            let oracle = uniform_sum(seq, window);
            assert!(
                close(stats.uniform_sum(), oracle),
                "sum: rolling {} vs scratch {}", stats.uniform_sum(), oracle
            );
        });
    }

    /// Exponentially-weighted sum tracks `exp_weighted_sum` after every
    /// push (the halving recurrence is exact in the weights; only the
    /// addition order differs).
    #[test]
    fn ew_sum_matches_oracle(
        values in prop::collection::vec(-5.0f64..5.0, 0..60),
        window in 1usize..9,
    ) {
        drive(&values, window, |stats, seq| {
            let oracle = exp_weighted_sum(seq, window);
            assert!(
                close(stats.exp_weighted_sum(), oracle),
                "ew_sum: rolling {} vs scratch {}", stats.exp_weighted_sum(), oracle
            );
        });
    }

    /// Welford variance tracks `window_variance` after every push and
    /// never goes negative.
    #[test]
    fn variance_matches_oracle(
        values in prop::collection::vec(-5.0f64..5.0, 0..60),
        window in 1usize..9,
    ) {
        drive(&values, window, |stats, seq| {
            let oracle = window_variance(seq, window);
            assert!(stats.variance() >= 0.0);
            assert!(
                close(stats.variance(), oracle),
                "variance: rolling {} vs scratch {}", stats.variance(), oracle
            );
        });
    }

    /// `current` and `len` mirror the driven sequence exactly.
    #[test]
    fn bookkeeping_matches(
        values in prop::collection::vec(-5.0f64..5.0, 1..40),
        window in 1usize..6,
    ) {
        drive(&values, window, |stats, seq| {
            assert_eq!(stats.current(), *seq.last().unwrap());
            assert_eq!(stats.window(), window);
        });
    }
}
