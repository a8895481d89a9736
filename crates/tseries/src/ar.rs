//! Autoregressive AR(p) next-score predictor.
//!
//! The paper predicts the next evaluation score with an LSTM; the AR(p)
//! model fitted by ordinary least squares is the classical alternative
//! (ARIMA-family) the paper cites, and serves as the ablation predictor for
//! the LHS strategy. The normal equations are solved with Gaussian
//! elimination with partial pivoting — design matrices here are `p+1` wide
//! with `p ≤ ~8`, so numerical heroics are unnecessary.

#![allow(clippy::needless_range_loop)]

use serde::{Deserialize, Serialize};

use crate::SequencePredictor;

/// An AR(p) model `x_t ≈ c + Σ_{i=1..p} a_i x_{t-i}` fitted by least
/// squares over a training corpus of sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArPredictor {
    order: usize,
    /// `[c, a_1, …, a_p]` — intercept then lag coefficients (lag 1 first).
    coeffs: Vec<f64>,
    /// Mean of all training targets, the fallback prediction for sequences
    /// shorter than `order`.
    fallback: f64,
}

impl ArPredictor {
    /// Fit an AR(`order`) model on every length-`order` window of every
    /// training sequence.
    ///
    /// Returns a persistence model (predict-last-value) when there is not
    /// enough data to identify the coefficients.
    ///
    /// # Panics
    /// Panics if `order == 0`.
    pub fn fit(sequences: &[Vec<f64>], order: usize) -> Self {
        assert!(order > 0, "AR order must be positive");
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut targets: Vec<f64> = Vec::new();
        for seq in sequences {
            if seq.len() <= order {
                continue;
            }
            for t in order..seq.len() {
                let mut row = Vec::with_capacity(order + 1);
                row.push(1.0);
                for i in 1..=order {
                    row.push(seq[t - i]);
                }
                rows.push(row);
                targets.push(seq[t]);
            }
        }
        let fallback = if targets.is_empty() {
            0.0
        } else {
            targets.iter().sum::<f64>() / targets.len() as f64
        };
        if rows.len() < order + 1 {
            // Unidentifiable: persistence model (coefficient 1 on lag 1).
            let mut coeffs = vec![0.0; order + 1];
            coeffs[1] = 1.0;
            return Self {
                order,
                coeffs,
                fallback,
            };
        }
        let dim = order + 1;
        // Normal equations with ridge jitter for stability.
        let mut xtx = vec![vec![0.0; dim]; dim];
        let mut xty = vec![0.0; dim];
        for (row, &y) in rows.iter().zip(&targets) {
            for i in 0..dim {
                xty[i] += row[i] * y;
                for j in 0..dim {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        for (i, r) in xtx.iter_mut().enumerate() {
            r[i] += 1e-6;
        }
        let coeffs = solve(xtx, xty).unwrap_or_else(|| {
            let mut c = vec![0.0; dim];
            c[1] = 1.0;
            c
        });
        Self {
            order,
            coeffs,
            fallback,
        }
    }

    /// The number of lags: how many trailing scores a prediction reads.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Check a deserialized model before it predicts: one intercept plus
    /// one coefficient per lag. A model from [`ArPredictor::fit`] always
    /// passes.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.order.checked_add(1) == Some(self.coeffs.len()) {
            Ok(())
        } else {
            Err(format!(
                "AR({}) model has {} coefficients, needs order + 1",
                self.order,
                self.coeffs.len()
            ))
        }
    }
}

impl SequencePredictor for ArPredictor {
    fn predict_next(&self, seq: &[f64]) -> f64 {
        if seq.len() < self.order {
            return match seq.last() {
                Some(&v) => v,
                None => self.fallback,
            };
        }
        let mut y = self.coeffs[0];
        for i in 1..=self.order {
            y += self.coeffs[i] * seq[seq.len() - i];
        }
        if y.is_finite() {
            y
        } else {
            self.fallback
        }
    }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` for (numerically) singular systems.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_is_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn recovers_exact_ar1() {
        // x_t = 0.5 x_{t-1} + 0.1, exactly.
        let mut seq = vec![1.0];
        for _ in 0..50 {
            let last = *seq.last().unwrap();
            seq.push(0.5 * last + 0.1);
        }
        // Add a second trajectory from another start so the system is
        // well-conditioned.
        let mut seq2 = vec![-1.0];
        for _ in 0..50 {
            let last = *seq2.last().unwrap();
            seq2.push(0.5 * last + 0.1);
        }
        let m = ArPredictor::fit(&[seq.clone(), seq2], 1);
        assert!((m.coeffs[0] - 0.1).abs() < 1e-6);
        assert!((m.coeffs[1] - 0.5).abs() < 1e-6);
        let pred = m.predict_next(&seq);
        let expected = 0.5 * seq.last().unwrap() + 0.1;
        assert!((pred - expected).abs() < 1e-6);
    }

    #[test]
    fn short_history_falls_back_to_last_value() {
        let m = ArPredictor::fit(&[vec![0.0, 0.5, 1.0, 1.5, 2.0]], 3);
        assert_eq!(m.predict_next(&[7.0]), 7.0);
    }

    #[test]
    fn empty_history_uses_global_mean() {
        let m = ArPredictor::fit(&[vec![1.0, 1.0, 1.0, 1.0]], 2);
        let p = m.predict_next(&[]);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_training_data_gives_persistence() {
        let m = ArPredictor::fit(&[], 2);
        assert_eq!(m.predict_next(&[0.3, 0.6]), 0.6);
        assert_eq!(m.predict_next(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = ArPredictor::fit(&[], 0);
    }
}
