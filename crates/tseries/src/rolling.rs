//! O(1)-per-update rolling statistics over a sliding score window.
//!
//! The history-aware strategies fold the last `l` scores of every pool
//! sample every round. Recomputing [`crate::exp_weighted_sum`] /
//! [`crate::window_variance`] from the stored sequence is O(l) per sample
//! per round; [`RollingStats`] maintains the same three quantities —
//! plain window sum (HUS), exponentially-weighted sum (WSHS, Eq. 9–10)
//! and population variance (FHS, Eq. 11) — incrementally, with one
//! constant-time update per appended score.
//!
//! * the window sum adds the new score and subtracts the evicted one;
//! * the WSHS sum uses the halving recurrence
//!   `S ← φ_new + (S − φ_out·2^{-(l-1)}) / 2` (the power-of-two weight
//!   products and the halving are exact floating-point operations);
//! * the variance is a Welford-style add/remove of the window mean and
//!   the sum of squared deviations `M2`.
//!
//! The rolling values associate the additions differently than the
//! from-scratch folds, so they agree with the reference implementations
//! to rounding error — a few ULP at the accumulator's magnitude — not
//! necessarily bit-for-bit. The from-scratch functions remain the test
//! oracle: property tests in `tests/rolling_props.rs` pin the error
//! bound for arbitrary append sequences, and the caller (the driver's
//! scoring path) is separately verified to produce identical selections.

/// Rolling window sum, exponentially-weighted sum and variance with O(1)
/// updates per appended value.
///
/// The window length is fixed at construction. Push values oldest-first
/// with [`RollingStats::push`], handing over the value that falls out of
/// the window (the caller owns the window storage, typically a ring
/// buffer, and knows the evictee).
#[derive(Debug, Clone)]
pub struct RollingStats {
    /// Window length `l` (values contributing to the statistics).
    window: usize,
    /// Number of values currently in the window (≤ `window`).
    len: usize,
    /// Most recently pushed value.
    current: f64,
    /// Plain sum over the window.
    sum: f64,
    /// Exponentially-weighted sum, newest weight 1 (Eq. 9–10).
    ew_sum: f64,
    /// Welford running mean over the window.
    mean: f64,
    /// Welford sum of squared deviations over the window.
    m2: f64,
}

impl RollingStats {
    /// An empty window of length `window` (must be positive).
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "rolling window must be positive");
        Self {
            window,
            len: 0,
            current: 0.0,
            sum: 0.0,
            ew_sum: 0.0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Push `value`; `evicted` is the value leaving the window (required
    /// exactly when the window was already full, i.e. `len() == window()`).
    pub fn push(&mut self, value: f64, evicted: Option<f64>) {
        debug_assert_eq!(
            evicted.is_some(),
            self.len == self.window,
            "evictee must be supplied iff the window is full"
        );
        self.current = value;
        if let Some(out) = evicted {
            // Window full: replace `out` by `value`.
            self.sum += value - out;
            // 2^{-(l-1)}·out is exact (power-of-two scale), as is the /2.
            let out_weight = (2f64).powi(1 - self.window as i32);
            self.ew_sum = value + (self.ew_sum - out * out_weight) * 0.5;
            // Welford remove-then-add at constant count.
            let n = self.len as f64;
            let old_mean = self.mean;
            let mean_wo = if self.len == 1 {
                0.0
            } else {
                old_mean - (out - old_mean) / (n - 1.0)
            };
            self.m2 -= (out - old_mean) * (out - mean_wo);
            let d = value - mean_wo;
            self.mean = mean_wo + d / n;
            self.m2 += d * (value - self.mean);
            self.m2 = self.m2.max(0.0);
        } else {
            self.sum += value;
            self.ew_sum = value + self.ew_sum * 0.5;
            self.len += 1;
            let d = value - self.mean;
            self.mean += d / self.len as f64;
            self.m2 += d * (value - self.mean);
        }
    }

    /// Most recently pushed value; 0 before the first push.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Plain sum of the window (HUS).
    pub fn uniform_sum(&self) -> f64 {
        self.sum
    }

    /// Exponentially-weighted sum of the window with newest weight 1
    /// (WSHS, Eq. 9–10).
    pub fn exp_weighted_sum(&self) -> f64 {
        self.ew_sum
    }

    /// Population variance of the window (FHS fluctuation, Eq. 11);
    /// 0 with fewer than two values, matching [`crate::variance`].
    pub fn variance(&self) -> f64 {
        if self.len < 2 {
            0.0
        } else {
            self.m2 / self.len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exp_weighted_sum, uniform_sum, window_variance};

    /// Drive a RollingStats alongside an explicit window and return both
    /// views after every push.
    fn drive(values: &[f64], window: usize) -> Vec<(RollingStats, Vec<f64>)> {
        let mut stats = RollingStats::new(window);
        let mut seq: Vec<f64> = Vec::new();
        let mut out = Vec::new();
        for &v in values {
            let evicted = if seq.len() >= window {
                Some(seq[seq.len() - window])
            } else {
                None
            };
            stats.push(v, evicted);
            seq.push(v);
            out.push((stats.clone(), seq.clone()));
        }
        out
    }

    fn assert_close(a: f64, b: f64, scale: f64, what: &str) {
        let tol = scale.abs().max(1.0) * 4.0 * f64::EPSILON;
        assert!((a - b).abs() <= tol, "{what}: rolling {a} vs scratch {b}");
    }

    #[test]
    fn tracks_reference_folds() {
        let values = [0.3, 0.9, 0.1, 0.7, 0.5, 0.2, 0.8];
        for window in 1..=5 {
            for (stats, seq) in drive(&values, window) {
                assert_eq!(stats.current(), *seq.last().unwrap());
                assert_close(
                    stats.uniform_sum(),
                    uniform_sum(&seq, window),
                    stats.uniform_sum(),
                    "sum",
                );
                assert_close(
                    stats.exp_weighted_sum(),
                    exp_weighted_sum(&seq, window),
                    stats.exp_weighted_sum(),
                    "ew_sum",
                );
                assert_close(
                    stats.variance(),
                    window_variance(&seq, window),
                    1.0,
                    "variance",
                );
            }
        }
    }

    #[test]
    fn empty_is_all_zero() {
        let s = RollingStats::new(3);
        assert_eq!(s.current(), 0.0);
        assert_eq!(s.uniform_sum(), 0.0);
        assert_eq!(s.exp_weighted_sum(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn window_one_is_current_only() {
        let mut s = RollingStats::new(1);
        s.push(0.4, None);
        s.push(0.9, Some(0.4));
        assert_eq!(s.current(), 0.9);
        assert_eq!(s.uniform_sum(), 0.9);
        assert_eq!(s.exp_weighted_sum(), 0.9);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn variance_never_negative() {
        let mut s = RollingStats::new(3);
        let mut seq = Vec::new();
        for i in 0..50 {
            let v = 1e6 + (i % 2) as f64 * 1e-8;
            let evicted = (seq.len() >= 3).then(|| seq[seq.len() - 3]);
            s.push(v, evicted);
            seq.push(v);
            assert!(s.variance() >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = RollingStats::new(0);
    }
}
