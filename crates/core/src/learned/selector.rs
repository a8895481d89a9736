//! The runtime selection component shared by LHS and LAL.
//!
//! [`LearnedSelector`] bundles a trained ranker, a trained next-score
//! predictor and the feature layout they were trained with; each round it
//! ranks the §4.4.1 candidate set (top entropy ∪ top LC) and picks the
//! best batch. The historical `LhsSelector` name is a type alias — the
//! pairwise-trained LHS selector and the pointwise LAL regressor are the
//! same runtime object, differing only in how the ranker inside was
//! fitted and whether pool-level meta-features are appended to each row.

use histal_ltr::Ranker;
use histal_tseries::SequencePredictor;

use crate::driver::top_k;
use crate::eval::SampleEval;
use crate::history::HistoryStore;

use super::features::{candidate_set, LhsFeatureConfig, PoolMetaFeatures};

/// A trained learned-selection component: ranker + predictor + feature
/// layout. Cheaply cloneable (the trained parts are shared), so one
/// trained selector can serve many runs.
#[derive(Clone)]
pub struct LearnedSelector {
    ranker: std::sync::Arc<dyn Ranker>,
    predictor: std::sync::Arc<dyn SequencePredictor>,
    features: LhsFeatureConfig,
    /// Candidate-set size (union of top-entropy and top-LC slices,
    /// §4.4.1). Clamped to the pool size at selection time.
    candidate_pool: usize,
    /// Append pool-level meta-features to every candidate row (the LAL /
    /// transfer configuration). Off for classic LHS selectors, keeping
    /// their feature rows byte-identical to the pre-meta implementation.
    use_meta: bool,
}

/// The historical name of [`LearnedSelector`] (pairwise LHS was the only
/// learned selector before LAL landed).
pub type LhsSelector = LearnedSelector;

impl LearnedSelector {
    /// Assemble a selector from pre-trained parts.
    pub fn new(
        ranker: Box<dyn Ranker>,
        predictor: Box<dyn SequencePredictor>,
        features: LhsFeatureConfig,
        candidate_pool: usize,
    ) -> Self {
        assert!(candidate_pool > 0, "candidate pool must be positive");
        Self {
            ranker: std::sync::Arc::from(ranker),
            predictor: std::sync::Arc::from(predictor),
            features,
            candidate_pool,
            use_meta: false,
        }
    }

    /// Toggle the pool-level meta-feature block. Must match the layout
    /// the ranker was trained with.
    pub fn with_meta(mut self, use_meta: bool) -> Self {
        self.use_meta = use_meta;
        self
    }

    /// The feature configuration the ranker was trained with.
    pub fn feature_config(&self) -> &LhsFeatureConfig {
        &self.features
    }

    /// Whether ranking features read the full posterior vector, so the
    /// driver must request [`EvalCaps::probs`](crate::eval::EvalCaps)
    /// from the model.
    pub fn needs_probs(&self) -> bool {
        self.features.use_probs
    }

    /// Whether candidate rows carry the pool-level meta-feature block
    /// (the `Select` stage then computes one [`PoolMetaFeatures`] per
    /// round from its context).
    pub fn uses_meta(&self) -> bool {
        self.use_meta
    }

    /// Rank the candidate set and return up to `batch` positions into
    /// `unlabeled`, best first.
    pub fn select(
        &self,
        unlabeled: &[usize],
        evals: &[SampleEval],
        history: &HistoryStore,
        batch: usize,
    ) -> Vec<usize> {
        self.select_with_scratch(unlabeled, evals, history, batch, &mut Vec::new())
    }

    /// [`Self::select`] with a caller-owned scratch buffer for
    /// materializing each candidate's (possibly ring-wrapped) history
    /// window, so repeated rounds allocate no per-candidate sequence
    /// copies. The `Select::Lhs` stage reuses one buffer across
    /// the whole run.
    pub fn select_with_scratch(
        &self,
        unlabeled: &[usize],
        evals: &[SampleEval],
        history: &HistoryStore,
        batch: usize,
        seq_buf: &mut Vec<f64>,
    ) -> Vec<usize> {
        self.select_with_meta(unlabeled, evals, history, batch, seq_buf, None)
    }

    /// [`Self::select_with_scratch`] with an optional pool-level
    /// meta-feature block appended to every candidate row. Selectors
    /// trained without meta-features ([`Self::uses_meta`] is `false`)
    /// ignore `meta`, so the classic LHS path is unchanged whether or
    /// not the caller computed the block.
    pub fn select_with_meta(
        &self,
        unlabeled: &[usize],
        evals: &[SampleEval],
        history: &HistoryStore,
        batch: usize,
        seq_buf: &mut Vec<f64>,
        meta: Option<&PoolMetaFeatures>,
    ) -> Vec<usize> {
        let meta = if self.use_meta { meta } else { None };
        let candidates = candidate_set(evals, self.candidate_pool);
        let rows: Vec<Vec<f64>> = candidates
            .iter()
            .map(|&pos| {
                history.seq(unlabeled[pos]).copy_into(seq_buf);
                let mut row = self
                    .features
                    .extract(seq_buf, &evals[pos], self.predictor.as_ref());
                if let Some(meta) = meta {
                    meta.append_to(&mut row);
                }
                row
            })
            .collect();
        let scores = self.ranker.score_batch(&rows);
        let best = top_k(&scores, batch.min(candidates.len()));
        best.into_iter().map(|i| candidates[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_tseries::SequencePredictor;

    struct ConstPredictor(f64);
    impl SequencePredictor for ConstPredictor {
        fn predict_next(&self, _seq: &[f64]) -> f64 {
            self.0
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn selector_zero_pool_panics() {
        struct ZeroRanker;
        impl Ranker for ZeroRanker {
            fn score(&self, _f: &[f64]) -> f64 {
                0.0
            }
        }
        let _ = LhsSelector::new(
            Box::new(ZeroRanker),
            Box::new(ConstPredictor(0.0)),
            LhsFeatureConfig::default(),
            0,
        );
    }

    #[test]
    fn meta_block_changes_selection_input_only_when_enabled() {
        // A ranker that scores by row width: with the meta block the rows
        // are wider, so selection can observe the difference — but only
        // when the selector opts in.
        struct WidthRanker;
        impl Ranker for WidthRanker {
            fn score(&self, f: &[f64]) -> f64 {
                f.len() as f64
            }
        }
        let features = LhsFeatureConfig::default();
        let plain = LearnedSelector::new(
            Box::new(WidthRanker),
            Box::new(ConstPredictor(0.0)),
            features,
            4,
        );
        let meta_sel = plain.clone().with_meta(true);
        assert!(!plain.uses_meta());
        assert!(meta_sel.uses_meta());

        let evals = vec![SampleEval::from_probs(vec![0.6, 0.4]); 3];
        let mut history = HistoryStore::new(3);
        for id in 0..3 {
            history.append(id, 0.5);
        }
        let meta = PoolMetaFeatures::from_evals(&evals, 1, 4, 0);
        let unlabeled = [0, 1, 2];
        // Passing meta to a non-meta selector must not change its picks.
        let a = plain.select_with_scratch(&unlabeled, &evals, &history, 2, &mut Vec::new());
        let b = plain.select_with_meta(
            &unlabeled,
            &evals,
            &history,
            2,
            &mut Vec::new(),
            Some(&meta),
        );
        assert_eq!(a, b);
        // The meta selector consumes the block without panicking.
        let c = meta_sel.select_with_meta(
            &unlabeled,
            &evals,
            &history,
            2,
            &mut Vec::new(),
            Some(&meta),
        );
        assert_eq!(c.len(), 2);
    }
}
