//! Pairwise-logistic linear ranker (RankNet with a linear scoring
//! function). The ablation baseline for LambdaMART in the LHS strategy:
//! same training pairs, no trees, no ΔNDCG weighting.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::RankingDataset;
use crate::Ranker;

/// Hyper-parameters for [`LinearRanker::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearRankerConfig {
    /// SGD epochs over all pairs.
    pub epochs: usize,
    /// SGD step size.
    pub lr: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LinearRankerConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            lr: 0.05,
            l2: 1e-4,
        }
    }
}

/// A linear scoring function `s(x) = w·x` trained on pairwise preferences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearRanker {
    weights: Vec<f64>,
}

impl LinearRanker {
    /// Train with pairwise logistic loss over all preference pairs in all
    /// trainable groups. Deterministic given `rng`.
    pub fn fit<R: Rng + ?Sized>(
        dataset: &RankingDataset,
        config: &LinearRankerConfig,
        rng: &mut R,
    ) -> Self {
        let dim = dataset.n_features();
        let mut weights = vec![0.0; dim];
        // Materialize preference pairs (hi, lo) as (group, i, j).
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
        for (gi, g) in dataset.groups.iter().enumerate() {
            for i in 0..g.len() {
                for j in 0..g.len() {
                    if g.relevance[i] > g.relevance[j] {
                        pairs.push((gi, i, j));
                    }
                }
            }
        }
        if pairs.is_empty() {
            return Self { weights };
        }
        for _ in 0..config.epochs {
            for k in (1..pairs.len()).rev() {
                let j = rng.gen_range(0..=k);
                pairs.swap(k, j);
            }
            for &(gi, i, j) in &pairs {
                let g = &dataset.groups[gi];
                let (xi, xj) = (&g.features[i], &g.features[j]);
                let margin: f64 = xi
                    .iter()
                    .zip(xj)
                    .zip(&weights)
                    .map(|((a, b), w)| w * (a - b))
                    .sum();
                // d/dw of log(1 + e^{-margin})
                let coeff = -1.0 / (1.0 + margin.exp());
                for ((w, a), b) in weights.iter_mut().zip(xi).zip(xj) {
                    *w -= config.lr * (coeff * (a - b) + config.l2 * *w);
                }
            }
        }
        Self { weights }
    }
}

impl Ranker for LinearRanker {
    fn score(&self, features: &[f64]) -> f64 {
        features.iter().zip(&self.weights).map(|(x, w)| x * w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::QueryGroup;
    use crate::metrics::ndcg_of_ranking;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    fn monotone_dataset() -> RankingDataset {
        let mut ds = RankingDataset::new();
        for q in 0..6 {
            let features: Vec<Vec<f64>> = (0..6)
                .map(|d| vec![d as f64 + q as f64 * 0.1, 1.0])
                .collect();
            let relevance: Vec<f64> = (0..6).map(|d| d as f64).collect();
            ds.push(QueryGroup::new(features, relevance));
        }
        ds
    }

    #[test]
    fn learns_positive_weight_on_signal() {
        let ds = monotone_dataset();
        let model = LinearRanker::fit(&ds, &LinearRankerConfig::default(), &mut rng());
        assert!(model.weights[0] > 0.0);
        let g = &ds.groups[0];
        let scores = model.score_batch(&g.features);
        assert!(ndcg_of_ranking(&scores, &g.relevance, g.len()) > 0.95);
    }

    #[test]
    fn anti_correlated_feature_gets_negative_weight() {
        let mut ds = RankingDataset::new();
        let features: Vec<Vec<f64>> = (0..6).map(|d| vec![-(d as f64)]).collect();
        let relevance: Vec<f64> = (0..6).map(|d| d as f64).collect();
        ds.push(QueryGroup::new(features, relevance));
        let model = LinearRanker::fit(&ds, &LinearRankerConfig::default(), &mut rng());
        assert!(model.weights[0] < 0.0);
    }

    #[test]
    fn empty_dataset_gives_zero_scorer() {
        let model = LinearRanker::fit(
            &RankingDataset::new(),
            &LinearRankerConfig::default(),
            &mut rng(),
        );
        assert_eq!(model.score(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn degenerate_groups_give_zero_scorer() {
        let mut ds = RankingDataset::new();
        ds.push(QueryGroup::new(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]));
        let model = LinearRanker::fit(&ds, &LinearRankerConfig::default(), &mut rng());
        assert_eq!(model.weights, &[0.0]);
    }

    #[test]
    fn deterministic_with_seed() {
        let ds = monotone_dataset();
        let a = LinearRanker::fit(&ds, &LinearRankerConfig::default(), &mut rng());
        let b = LinearRanker::fit(&ds, &LinearRankerConfig::default(), &mut rng());
        assert_eq!(a.weights, b.weights);
    }
}
