//! Property-based tests for the learning-to-rank stack.

use proptest::prelude::*;

use histal_ltr::{
    dcg_at, ndcg_at, ndcg_of_ranking, LambdaMart, LambdaMartConfig, QueryGroup, Ranker,
    RankingDataset, RegressionTree, TreeConfig,
};

fn rels_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..4.0, 1..15).prop_map(|v| v.into_iter().map(f64::floor).collect())
}

proptest! {
    /// NDCG is always in [0, 1].
    #[test]
    fn ndcg_bounded(rels in rels_strategy(), k in 1usize..15) {
        let v = ndcg_at(&rels, k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "ndcg {v}");
    }

    /// Ranking by the labels themselves is optimal.
    #[test]
    fn ranking_by_labels_is_perfect(rels in rels_strategy()) {
        let v = ndcg_of_ranking(&rels, &rels, rels.len());
        prop_assert!((v - 1.0).abs() < 1e-9);
    }

    /// DCG is monotone in k.
    #[test]
    fn dcg_monotone_in_k(rels in rels_strategy()) {
        let mut prev = 0.0;
        for k in 1..=rels.len() {
            let d = dcg_at(&rels, k);
            prop_assert!(d + 1e-12 >= prev);
            prev = d;
        }
    }

    /// A mean-fit tree with no regularization predicts within the target
    /// range for in-sample rows.
    #[test]
    fn tree_prediction_within_target_range(
        targets in prop::collection::vec(-5.0f64..5.0, 2..30),
    ) {
        let rows: Vec<Vec<f64>> = (0..targets.len()).map(|i| vec![i as f64]).collect();
        let config = TreeConfig { max_depth: 4, min_samples_leaf: 1, lambda: 0.0, min_gain: 1e-12 };
        let tree = RegressionTree::fit_mean(&rows, &targets, &config);
        let min = targets.iter().copied().fold(f64::INFINITY, f64::min);
        let max = targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for row in &rows {
            let p = tree.predict(row);
            prop_assert!(p >= min - 1e-9 && p <= max + 1e-9, "prediction {p} outside [{min}, {max}]");
        }
    }

    /// LambdaMART scores are finite for arbitrary query groups.
    #[test]
    fn lambdamart_scores_finite(
        rels in rels_strategy(),
        feats in prop::collection::vec(0.0f64..1.0, 1..15),
    ) {
        let n = rels.len().min(feats.len());
        let features: Vec<Vec<f64>> = (0..n).map(|i| vec![feats[i], 1.0 - feats[i]]).collect();
        let mut ds = RankingDataset::new();
        ds.push(QueryGroup::new(features.clone(), rels[..n].to_vec()));
        let model = LambdaMart::fit(&ds, &LambdaMartConfig { n_trees: 5, ..Default::default() });
        for row in &features {
            prop_assert!(model.score(row).is_finite());
        }
    }
}
