//! Regression trees with Newton-step leaf values.
//!
//! The trees are fitted to per-row gradient/hessian pairs (second-order
//! boosting, as in LambdaMART/XGBoost): each leaf outputs
//! `−Σg / (Σh + λ)`, and splits maximize the standard gain
//! `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`. Plain least-squares regression
//! is the special case `g = −target, h = 1` (leaf = shrunken mean), exposed
//! as [`RegressionTree::fit_mean`].

#![allow(clippy::needless_range_loop)]

use serde::{Deserialize, Serialize};

/// Hyper-parameters for tree induction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth; a depth of 0 yields a single leaf.
    pub max_depth: usize,
    /// Minimum rows on each side of a split.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum gain for a split to be accepted.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 4,
            min_samples_leaf: 2,
            lambda: 1.0,
            min_gain: 1e-9,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Rows with `x[feature] <= threshold` go left.
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    root: Node,
}

impl RegressionTree {
    /// Fit to gradient/hessian pairs.
    ///
    /// # Panics
    /// Panics if the slices are misaligned or `rows` is empty.
    pub(crate) fn fit(rows: &[Vec<f64>], grads: &[f64], hess: &[f64], config: &TreeConfig) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree to zero rows");
        assert_eq!(rows.len(), grads.len(), "rows/grads misaligned");
        assert_eq!(rows.len(), hess.len(), "rows/hess misaligned");
        let idx: Vec<u32> = (0..rows.len() as u32).collect();
        let root = build(rows, grads, hess, idx, config.max_depth, config);
        Self { root }
    }

    /// Least-squares convenience: fits to `targets` with unit hessians, so
    /// leaves hold (L2-shrunken) target means.
    pub fn fit_mean(rows: &[Vec<f64>], targets: &[f64], config: &TreeConfig) -> Self {
        let grads: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; targets.len()];
        Self::fit(rows, &grads, &hess, config)
    }

    /// Evaluate the tree on one row. Missing (out-of-range) features read
    /// as 0.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let x = row.get(*feature).copied().unwrap_or(0.0);
                    node = if x <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Number of leaves.
    #[cfg(test)]
    fn n_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Depth of the tree (a lone leaf has depth 0).
    #[cfg(test)]
    fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

fn leaf_value(idx: &[u32], grads: &[f64], hess: &[f64], lambda: f64) -> f64 {
    let mut g = 0.0;
    let mut h = 0.0;
    for &i in idx {
        g += grads[i as usize];
        h += hess[i as usize];
    }
    -g / (h + lambda)
}

fn node_score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

fn build(
    rows: &[Vec<f64>],
    grads: &[f64],
    hess: &[f64],
    idx: Vec<u32>,
    depth_left: usize,
    config: &TreeConfig,
) -> Node {
    if depth_left == 0 || idx.len() < 2 * config.min_samples_leaf.max(1) {
        return Node::Leaf {
            value: leaf_value(&idx, grads, hess, config.lambda),
        };
    }
    let n_features = rows[idx[0] as usize].len();
    let (mut total_g, mut total_h) = (0.0, 0.0);
    for &i in &idx {
        total_g += grads[i as usize];
        total_h += hess[i as usize];
    }
    let parent_score = node_score(total_g, total_h, config.lambda);

    let mut best: Option<BestSplit> = None;
    let mut sorted = idx.clone();
    for f in 0..n_features {
        sorted.sort_unstable_by(|&a, &b| {
            rows[a as usize][f]
                .partial_cmp(&rows[b as usize][f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (mut gl, mut hl) = (0.0, 0.0);
        for pos in 0..sorted.len() - 1 {
            let i = sorted[pos] as usize;
            gl += grads[i];
            hl += hess[i];
            let here = rows[i][f];
            let next = rows[sorted[pos + 1] as usize][f];
            if here == next {
                continue; // can't split between equal values
            }
            let left_n = pos + 1;
            let right_n = sorted.len() - left_n;
            if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                continue;
            }
            let gain = node_score(gl, hl, config.lambda)
                + node_score(total_g - gl, total_h - hl, config.lambda)
                - parent_score;
            if gain > config.min_gain && best.as_ref().map_or(true, |b| gain > b.gain) {
                best = Some(BestSplit {
                    feature: f,
                    threshold: (here + next) / 2.0,
                    gain,
                });
            }
        }
    }

    match best {
        None => Node::Leaf {
            value: leaf_value(&idx, grads, hess, config.lambda),
        },
        Some(split) => {
            let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = idx
                .into_iter()
                .partition(|&i| rows[i as usize][split.feature] <= split.threshold);
            let left = build(rows, grads, hess, left_idx, depth_left - 1, config);
            let right = build(rows, grads, hess, right_idx, depth_left - 1, config);
            Node::Split {
                feature: split.feature,
                threshold: split.threshold,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TreeConfig {
        TreeConfig {
            max_depth: 4,
            min_samples_leaf: 1,
            lambda: 0.0,
            min_gain: 1e-12,
        }
    }

    #[test]
    fn single_leaf_is_mean() {
        let rows = vec![vec![0.0], vec![0.0], vec![0.0]];
        let t = RegressionTree::fit_mean(&rows, &[1.0, 2.0, 3.0], &cfg());
        // Identical features → no split possible → mean leaf.
        assert_eq!(t.n_leaves(), 1);
        assert!((t.predict(&[0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_step_function() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 10.0 }).collect();
        let t = RegressionTree::fit_mean(&rows, &targets, &cfg());
        assert!((t.predict(&[2.0]) - 0.0).abs() < 1e-9);
        assert!((t.predict(&[7.0]) - 10.0).abs() < 1e-9);
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn picks_informative_feature() {
        // Feature 0 is noise-free signal, feature 1 is constant.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i < 10 { 0.0 } else { 1.0 }, 5.0])
            .collect();
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { -1.0 } else { 1.0 }).collect();
        let t = RegressionTree::fit_mean(&rows, &targets, &cfg());
        assert!(t.predict(&[0.0, 5.0]) < 0.0);
        assert!(t.predict(&[1.0, 5.0]) > 0.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let shallow = TreeConfig {
            max_depth: 2,
            ..cfg()
        };
        let t = RegressionTree::fit_mean(&rows, &targets, &shallow);
        assert!(t.depth() <= 2);
        assert!(t.n_leaves() <= 4);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0];
        let strict = TreeConfig {
            min_samples_leaf: 4,
            ..cfg()
        };
        let t = RegressionTree::fit_mean(&rows, &targets, &strict);
        // Only one split (4|4) is legal; the outlier cannot be isolated.
        assert!(t.n_leaves() <= 2);
    }

    #[test]
    fn lambda_shrinks_leaves() {
        let rows = vec![vec![0.0]];
        let no_reg = RegressionTree::fit_mean(&rows, &[10.0], &cfg());
        let reg = RegressionTree::fit_mean(
            &rows,
            &[10.0],
            &TreeConfig {
                lambda: 9.0,
                ..cfg()
            },
        );
        assert!((no_reg.predict(&[0.0]) - 10.0).abs() < 1e-12);
        assert!((reg.predict(&[0.0]) - 1.0).abs() < 1e-12); // 10 / (1 + 9)
    }

    #[test]
    fn newton_leaf_value() {
        // grads [-2,-4], hess [1,1], lambda 0 → leaf = 6/2 = 3
        let rows = vec![vec![0.0], vec![0.0]];
        let t = RegressionTree::fit(&rows, &[-2.0, -4.0], &[1.0, 1.0], &cfg());
        assert!((t.predict(&[0.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_feature_reads_zero() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let t = RegressionTree::fit_mean(&rows, &[0.0, 0.0, 1.0, 1.0], &cfg());
        // Row with no features: feature 0 reads 0.0 → left branch.
        let empty: Vec<f64> = vec![];
        assert!((t.predict(&empty) - t.predict(&[0.0])).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let _ = RegressionTree::fit(&[], &[], &[], &cfg());
    }

    proptest::proptest! {
        /// Leaf counts are bounded by 2^depth and depth by `max_depth`.
        #[test]
        fn tree_leaf_bounds(targets in proptest::collection::vec(-5.0f64..5.0, 4..30)) {
            let rows: Vec<Vec<f64>> = (0..targets.len()).map(|i| vec![i as f64]).collect();
            let mk = |depth| {
                RegressionTree::fit_mean(
                    &rows,
                    &targets,
                    &TreeConfig { max_depth: depth, min_samples_leaf: 1, lambda: 0.0, min_gain: 1e-12 },
                )
            };
            let shallow = mk(2);
            let deep = mk(5);
            proptest::prop_assert!(shallow.n_leaves() <= 4);
            proptest::prop_assert!(deep.n_leaves() <= 32);
            proptest::prop_assert!(deep.depth() <= 5);
            proptest::prop_assert!(shallow.depth() <= 2);
        }
    }
}
