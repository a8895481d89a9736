//! Learning-to-rank substrate.
//!
//! The LHS strategy (paper §4.4) trains a LambdaMART ranker over features
//! extracted from historical evaluation sequences; each active-learning
//! iteration forms one *query group* whose documents are the candidate
//! samples and whose graded relevance labels are the bucketed
//! `Eval(M′) − Eval(M)` improvements (Algorithm 1). This crate implements
//! that stack from scratch:
//!
//! * `dataset` — query-grouped ranking datasets,
//! * `tree` — regression trees with Newton leaf values,
//! * `metrics` — DCG / NDCG,
//! * `lambdamart` — the boosted LambdaMART ranker,
//! * `linear` — a pairwise-logistic linear ranker (ablation baseline),
//! * `pointwise` — a pointwise regression ranker (the LAL substrate).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod dataset;
pub(crate) mod lambdamart;
pub(crate) mod linear;
pub(crate) mod metrics;
pub(crate) mod pointwise;
pub(crate) mod tree;

pub use dataset::{QueryGroup, RankingDataset};
pub use lambdamart::{LambdaMart, LambdaMartConfig};
pub use linear::{LinearRanker, LinearRankerConfig};
pub use metrics::{dcg_at, ndcg_at, ndcg_of_ranking};
pub use pointwise::{PointwiseConfig, PointwiseRegressor};
pub use tree::{RegressionTree, TreeConfig};

/// A trained model that scores feature vectors for ranking.
///
/// Higher scores mean "rank earlier". Both [`LambdaMart`] and
/// [`LinearRanker`] implement this, so the LHS strategy can swap rankers
/// for the ablation study.
pub trait Ranker: Send + Sync {
    /// Score one feature vector.
    fn score(&self, features: &[f64]) -> f64;

    /// Score a batch; the default maps [`Ranker::score`].
    fn score_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.score(r)).collect()
    }
}
