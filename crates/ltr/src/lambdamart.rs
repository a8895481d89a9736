//! LambdaMART: gradient-boosted regression trees with lambda gradients.
//!
//! For every pair of documents `(i, j)` in a query group with
//! `rel_i > rel_j`, the pairwise cross-entropy gradient
//! `ρ = 1 / (1 + e^{σ(s_i − s_j)})` is weighted by `|ΔNDCG|`, the NDCG
//! change that swapping the two documents would cause at their current
//! ranks (Burges 2010, "From RankNet to LambdaRank to LambdaMART"). The
//! accumulated lambdas and their second derivatives feed a Newton-step
//! regression tree per boosting round.

use serde::{Deserialize, Serialize};

use crate::dataset::RankingDataset;
use crate::metrics::{discount, gain, ideal_dcg_at, ndcg_of_ranking};
use crate::tree::{RegressionTree, TreeConfig};
use crate::Ranker;

/// Hyper-parameters for [`LambdaMart::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LambdaMartConfig {
    /// Boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Sigmoid steepness σ.
    pub sigma: f64,
    /// NDCG truncation for ΔNDCG weighting; 0 means the full group.
    pub ndcg_k: usize,
    /// Tree induction parameters.
    pub tree: TreeConfig,
}

impl Default for LambdaMartConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            learning_rate: 0.1,
            sigma: 1.0,
            ndcg_k: 0,
            tree: TreeConfig {
                max_depth: 3,
                min_samples_leaf: 4,
                lambda: 1.0,
                min_gain: 1e-9,
            },
        }
    }
}

/// A trained LambdaMART ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LambdaMart {
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    /// Mean training NDCG after each boosting round (diagnostics).
    pub train_ndcg_history: Vec<f64>,
}

impl LambdaMart {
    /// Train on a query-grouped dataset.
    ///
    /// Degenerate groups (all labels equal) contribute no lambdas but are
    /// still scored; datasets with no trainable group yield a constant
    /// (zero-scoring) model.
    pub fn fit(dataset: &RankingDataset, config: &LambdaMartConfig) -> Self {
        let mut model = Self {
            trees: Vec::with_capacity(config.n_trees),
            learning_rate: config.learning_rate,
            train_ndcg_history: Vec::with_capacity(config.n_trees),
        };
        let n_docs = dataset.n_docs();
        if n_docs == 0 || dataset.trainable_groups().next().is_none() {
            return model;
        }
        // Flatten rows once; remember group boundaries.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n_docs);
        let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(dataset.groups.len());
        for g in &dataset.groups {
            let start = rows.len();
            rows.extend(g.features.iter().cloned());
            bounds.push((start, rows.len()));
        }
        let mut scores = vec![0.0; n_docs];

        for _ in 0..config.n_trees {
            let mut lambdas = vec![0.0; n_docs];
            let mut weights = vec![0.0; n_docs];
            for (g, &(start, end)) in dataset.groups.iter().zip(&bounds) {
                if g.is_degenerate() {
                    continue;
                }
                accumulate_lambdas(
                    &scores[start..end],
                    &g.relevance,
                    config,
                    &mut lambdas[start..end],
                    &mut weights[start..end],
                );
            }
            // Tree fitted to Newton step: leaf = Σλ / (Σw + reg).
            let grads: Vec<f64> = lambdas.iter().map(|l| -l).collect();
            let tree = RegressionTree::fit(&rows, &grads, &weights, &config.tree);
            for (s, row) in scores.iter_mut().zip(&rows) {
                *s += config.learning_rate * tree.predict(row);
            }
            model.trees.push(tree);
            // Diagnostics: mean NDCG across groups.
            let mut ndcg_sum = 0.0;
            for (g, &(start, end)) in dataset.groups.iter().zip(&bounds) {
                let k = if config.ndcg_k == 0 {
                    g.len()
                } else {
                    config.ndcg_k
                };
                ndcg_sum += ndcg_of_ranking(&scores[start..end], &g.relevance, k);
            }
            model
                .train_ndcg_history
                .push(ndcg_sum / dataset.groups.len() as f64);
        }
        model
    }
}

impl Ranker for LambdaMart {
    fn score(&self, features: &[f64]) -> f64 {
        self.trees
            .iter()
            .map(|t| self.learning_rate * t.predict(features))
            .sum()
    }
}

/// Accumulate lambda gradients and weights for one query group.
fn accumulate_lambdas(
    scores: &[f64],
    rels: &[f64],
    config: &LambdaMartConfig,
    lambdas: &mut [f64],
    weights: &mut [f64],
) {
    let n = scores.len();
    let k = if config.ndcg_k == 0 { n } else { config.ndcg_k };
    let ideal = ideal_dcg_at(rels, k);
    if ideal <= 0.0 {
        return;
    }
    // Current rank of each document under the current scores.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rank_of = vec![0usize; n];
    for (rank, &doc) in order.iter().enumerate() {
        rank_of[doc] = rank;
    }
    for i in 0..n {
        for j in 0..n {
            if rels[i] <= rels[j] {
                continue; // only pairs where i should outrank j
            }
            let (ri, rj) = (rank_of[i], rank_of[j]);
            // Swapping only changes DCG through positions inside the cutoff.
            if ri >= k && rj >= k {
                continue;
            }
            let di = if ri < k { discount(ri) } else { 0.0 };
            let dj = if rj < k { discount(rj) } else { 0.0 };
            let delta_ndcg = ((gain(rels[i]) - gain(rels[j])) * (di - dj)).abs() / ideal;
            if delta_ndcg == 0.0 {
                continue;
            }
            let rho = 1.0 / (1.0 + (config.sigma * (scores[i] - scores[j])).exp());
            let lambda = config.sigma * rho * delta_ndcg;
            let w = config.sigma * config.sigma * rho * (1.0 - rho) * delta_ndcg;
            lambdas[i] += lambda;
            lambdas[j] -= lambda;
            weights[i] += w;
            weights[j] += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::QueryGroup;
    use crate::metrics::ndcg_of_ranking;

    /// Groups where relevance is a clean monotone function of feature 0.
    fn monotone_dataset() -> RankingDataset {
        let mut ds = RankingDataset::new();
        for q in 0..12 {
            let offset = q as f64 * 0.01;
            let features: Vec<Vec<f64>> =
                (0..8).map(|d| vec![d as f64 / 8.0 + offset, 0.5]).collect();
            let relevance: Vec<f64> = (0..8).map(|d| (d / 2) as f64).collect();
            ds.push(QueryGroup::new(features, relevance));
        }
        ds
    }

    #[test]
    fn learns_monotone_ranking() {
        let ds = monotone_dataset();
        let model = LambdaMart::fit(&ds, &LambdaMartConfig::default());
        // Higher feature → higher score.
        assert!(model.score(&[0.9, 0.5]) > model.score(&[0.1, 0.5]));
        // Ranking the first group should be near-perfect.
        let g = &ds.groups[0];
        let scores = model.score_batch(&g.features);
        let ndcg = ndcg_of_ranking(&scores, &g.relevance, g.len());
        assert!(ndcg > 0.95, "ndcg {ndcg}");
    }

    #[test]
    fn training_ndcg_improves() {
        let ds = monotone_dataset();
        let model = LambdaMart::fit(&ds, &LambdaMartConfig::default());
        let first = model.train_ndcg_history[0];
        let last = *model.train_ndcg_history.last().unwrap();
        assert!(last >= first, "ndcg fell from {first} to {last}");
        assert!(last > 0.9);
    }

    #[test]
    fn empty_dataset_scores_zero() {
        let model = LambdaMart::fit(&RankingDataset::new(), &LambdaMartConfig::default());
        assert_eq!(model.trees.len(), 0);
        assert_eq!(model.score(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn all_degenerate_groups_scores_zero() {
        let mut ds = RankingDataset::new();
        ds.push(QueryGroup::new(vec![vec![0.0], vec![1.0]], vec![1.0, 1.0]));
        let model = LambdaMart::fit(&ds, &LambdaMartConfig::default());
        assert_eq!(model.trees.len(), 0);
    }

    #[test]
    fn lambda_signs_push_relevant_up() {
        // Two docs, the relevant one currently scored lower.
        let config = LambdaMartConfig::default();
        let mut lambdas = vec![0.0; 2];
        let mut weights = vec![0.0; 2];
        accumulate_lambdas(
            &[0.0, 1.0],
            &[2.0, 0.0],
            &config,
            &mut lambdas,
            &mut weights,
        );
        assert!(lambdas[0] > 0.0, "relevant doc must be pushed up");
        assert!(lambdas[1] < 0.0, "irrelevant doc must be pushed down");
        assert!(weights[0] > 0.0 && weights[1] > 0.0);
    }

    #[test]
    fn correctly_ranked_pair_gets_small_lambda() {
        let config = LambdaMartConfig::default();
        let mut wrong = vec![0.0; 2];
        let mut w1 = vec![0.0; 2];
        accumulate_lambdas(&[-3.0, 3.0], &[2.0, 0.0], &config, &mut wrong, &mut w1);
        let mut right = vec![0.0; 2];
        let mut w2 = vec![0.0; 2];
        accumulate_lambdas(&[3.0, -3.0], &[2.0, 0.0], &config, &mut right, &mut w2);
        assert!(
            wrong[0] > right[0],
            "mis-ranked pair must get larger gradient"
        );
    }

    #[test]
    fn ndcg_k_truncation_ignores_tail_pairs() {
        let config = LambdaMartConfig {
            ndcg_k: 1,
            ..Default::default()
        };
        // rels: docs 0 and 1 tie at the top grade; doc 1 vs doc 2 is the
        // only strict preference not involving rank 0 — with k = 1 both sit
        // outside the cutoff, so no lambda may accumulate on doc 1.
        let scores = [3.0, 2.0, 1.0]; // ranks 0, 1, 2
        let rels = [2.0, 2.0, 1.0];
        let mut lambdas = vec![0.0; 3];
        let mut weights = vec![0.0; 3];
        accumulate_lambdas(&scores, &rels, &config, &mut lambdas, &mut weights);
        assert_eq!(lambdas[1], 0.0);
        assert_eq!(weights[1], 0.0);
        // Pair (0, 2) involves rank 0 and does accumulate.
        assert!(lambdas[0] > 0.0);
    }

    #[test]
    fn generalizes_to_unseen_group() {
        let ds = monotone_dataset();
        let model = LambdaMart::fit(&ds, &LambdaMartConfig::default());
        // A fresh group whose offset interpolates the training offsets
        // (0.00..0.11) rather than extrapolating beyond them.
        let features: Vec<Vec<f64>> = (0..8).map(|d| vec![d as f64 / 8.0 + 0.055, 0.5]).collect();
        let rels: Vec<f64> = (0..8).map(|d| (d / 2) as f64).collect();
        let scores = model.score_batch(&features);
        assert!(ndcg_of_ranking(&scores, &rels, 8) > 0.9);
    }
}
