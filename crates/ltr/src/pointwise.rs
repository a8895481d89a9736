//! Pointwise regression ranking — the LAL substrate.
//!
//! Where LambdaMART learns *pairwise order* within query groups, the LAL
//! formulation ("Learning Active Learning from Data", Konyushkova et
//! al.) regresses the expected error reduction of each candidate
//! directly: flat `(features, delta)` pairs, no groups. Ranking by the
//! predicted delta is then just sorting by the regression output, so the
//! fitted model implements [`Ranker`] like everything else in this
//! crate.
//!
//! Two fits reuse the existing machinery:
//!
//! * [`PointwiseRegressor::fit_trees`] — gradient-boosted
//!   [`RegressionTree::fit_mean`] trees on the residuals (the
//!   least-squares special case of the Newton trees LambdaMART uses);
//! * [`PointwiseRegressor::fit_linear`] — ridge least squares via the
//!   normal equations (deterministic, no RNG), the linear counterpart of
//!   the pairwise-logistic ablation ranker.

use serde::{Deserialize, Serialize};

use crate::tree::{RegressionTree, TreeConfig};
use crate::Ranker;

/// Hyper-parameters for the boosted-tree pointwise fit.
#[derive(Debug, Clone)]
pub struct PointwiseConfig {
    /// Boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Tree induction parameters.
    pub tree: TreeConfig,
    /// Ridge strength for [`PointwiseRegressor::fit_linear`].
    pub l2: f64,
}

impl Default for PointwiseConfig {
    fn default() -> Self {
        Self {
            n_trees: 30,
            learning_rate: 0.1,
            tree: TreeConfig::default(),
            l2: 1.0,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum PointwiseModel {
    /// Degenerate fit (no training rows): predict a constant.
    Constant { value: f64 },
    /// Boosted residual trees around a base prediction.
    Trees {
        base: f64,
        learning_rate: f64,
        trees: Vec<RegressionTree>,
    },
    /// Ridge least squares: `w · x + bias`.
    Linear { weights: Vec<f64>, bias: f64 },
}

/// A fitted pointwise regression ranker (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointwiseRegressor {
    model: PointwiseModel,
}

impl PointwiseRegressor {
    /// Gradient-boosted regression-tree fit: start from the target mean,
    /// then fit `n_trees` mean-leaf trees to the shrinking residuals.
    /// Zero rows yield a constant-zero model instead of panicking, so a
    /// degenerate training simulation still produces a usable selector.
    ///
    /// # Panics
    /// Panics if `rows` and `targets` are misaligned.
    pub fn fit_trees(rows: &[Vec<f64>], targets: &[f64], config: &PointwiseConfig) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets misaligned");
        if rows.is_empty() {
            return Self {
                model: PointwiseModel::Constant { value: 0.0 },
            };
        }
        let base = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut residuals: Vec<f64> = targets.iter().map(|&t| t - base).collect();
        let mut trees = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            let tree = RegressionTree::fit_mean(rows, &residuals, &config.tree);
            for (row, r) in rows.iter().zip(residuals.iter_mut()) {
                *r -= config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Self {
            model: PointwiseModel::Trees {
                base,
                learning_rate: config.learning_rate,
                trees,
            },
        }
    }

    /// Ridge least squares via the normal equations
    /// `(XᵀX + l2·I)·w = Xᵀy` (bias column unregularized), solved by
    /// Gaussian elimination with partial pivoting — deterministic and
    /// exact for the small feature widths the learned selectors use.
    /// Zero rows yield a constant-zero model.
    ///
    /// # Panics
    /// Panics if `rows` and `targets` are misaligned or rows are ragged.
    pub fn fit_linear(rows: &[Vec<f64>], targets: &[f64], l2: f64) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets misaligned");
        if rows.is_empty() {
            return Self {
                model: PointwiseModel::Constant { value: 0.0 },
            };
        }
        let d = rows[0].len();
        for row in rows {
            assert_eq!(row.len(), d, "ragged feature rows");
        }
        // Augmented design: d feature columns + 1 bias column.
        let dim = d + 1;
        let mut ata = vec![vec![0.0; dim]; dim];
        let mut aty = vec![0.0; dim];
        let mut aug = vec![0.0; dim];
        for (row, &y) in rows.iter().zip(targets) {
            aug[..d].copy_from_slice(row);
            aug[d] = 1.0;
            for i in 0..dim {
                for j in 0..dim {
                    ata[i][j] += aug[i] * aug[j];
                }
                aty[i] += aug[i] * y;
            }
        }
        for (i, row) in ata.iter_mut().enumerate().take(d) {
            row[i] += l2;
        }
        let solution = solve(&mut ata, &mut aty);
        match solution {
            Some(w) => Self {
                model: PointwiseModel::Linear {
                    bias: w[d],
                    weights: w[..d].to_vec(),
                },
            },
            // Singular system (e.g. l2 = 0 with collinear features):
            // fall back to predicting the target mean.
            None => Self {
                model: PointwiseModel::Constant {
                    value: targets.iter().sum::<f64>() / targets.len() as f64,
                },
            },
        }
    }

    /// Predicted target for one feature row.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        match &self.model {
            PointwiseModel::Constant { value } => *value,
            PointwiseModel::Trees {
                base,
                learning_rate,
                trees,
            } => {
                let mut y = *base;
                for tree in trees {
                    y += learning_rate * tree.predict(row);
                }
                y
            }
            PointwiseModel::Linear { weights, bias } => {
                let mut y = *bias;
                for (i, w) in weights.iter().enumerate() {
                    y += w * row.get(i).copied().unwrap_or(0.0);
                }
                y
            }
        }
    }
}

impl Ranker for PointwiseRegressor {
    fn score(&self, features: &[f64]) -> f64 {
        self.predict(features)
    }
}

/// Solve `A·x = b` in place by Gaussian elimination with partial
/// pivoting. Returns `None` for a (numerically) singular system.
fn solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
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
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        let (b_pivot, b_rest) = b.split_at_mut(col + 1);
        let b_col = b_pivot[col];
        for (row, b_row) in rest.iter_mut().zip(b_rest.iter_mut()) {
            let factor = row[col] / pivot_row[col];
            if factor == 0.0 {
                continue;
            }
            for (v, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= factor * p;
            }
            *b_row -= factor * b_col;
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in col + 1..n {
            sum -= a[col][k] * x[k];
        }
        x[col] = sum / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PointwiseConfig {
        PointwiseConfig {
            n_trees: 50,
            learning_rate: 0.3,
            tree: TreeConfig {
                max_depth: 3,
                min_samples_leaf: 1,
                lambda: 0.0,
                min_gain: 1e-12,
            },
            l2: 1e-6,
        }
    }

    #[test]
    fn trees_fit_step_function() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let m = PointwiseRegressor::fit_trees(&rows, &targets, &cfg());
        assert!(m.predict(&[3.0]) < 0.2, "{}", m.predict(&[3.0]));
        assert!(m.predict(&[15.0]) > 0.8, "{}", m.predict(&[15.0]));
        assert!(matches!(&m.model, PointwiseModel::Trees { trees, .. } if trees.len() == 50));
    }

    #[test]
    fn trees_ranking_order_follows_targets() {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let targets: Vec<f64> = (0..12).map(|i| i as f64 * 0.01).collect();
        let m = PointwiseRegressor::fit_trees(&rows, &targets, &cfg());
        let scores = m.score_batch(&rows);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 11);
    }

    #[test]
    fn linear_recovers_plane() {
        // y = 2x0 - 3x1 + 0.5; tiny ridge keeps the solve stable without
        // visibly biasing the coefficients.
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 0.5).collect();
        let m = PointwiseRegressor::fit_linear(&rows, &targets, 1e-9);
        for (row, &t) in rows.iter().zip(&targets) {
            assert!((m.predict(row) - t).abs() < 1e-6, "{row:?}");
        }
    }

    #[test]
    fn empty_fit_is_constant_zero() {
        let trees = PointwiseRegressor::fit_trees(&[], &[], &cfg());
        assert_eq!(trees.predict(&[1.0, 2.0]), 0.0);
        let linear = PointwiseRegressor::fit_linear(&[], &[], 1.0);
        assert_eq!(linear.predict(&[1.0]), 0.0);
    }

    #[test]
    fn singular_linear_falls_back_to_mean() {
        // Identical rows with l2 = 0: XᵀX is singular, the fit degrades
        // to the target mean instead of NaN.
        let rows = vec![vec![1.0, 2.0]; 4];
        let m = PointwiseRegressor::fit_linear(&rows, &[1.0, 2.0, 3.0, 4.0], 0.0);
        let p = m.predict(&[1.0, 2.0]);
        assert!(p.is_finite());
        assert!((p - 2.5).abs() < 1e-9, "{p}");
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let m = PointwiseRegressor::fit_trees(&rows, &targets, &cfg());
        let json = serde_json::to_string(&m).expect("serialize");
        let back: PointwiseRegressor = serde_json::from_str(&json).expect("deserialize");
        for row in &rows {
            assert_eq!(m.predict(row), back.predict(row));
        }
    }
}
