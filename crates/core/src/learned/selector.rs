//! The learned selector shared by LHS and LAL: the training output, the
//! `HLRN1` payload and the object the pipeline's `Select::Lhs` stage runs.
//!
//! [`LearnedSelector`] bundles a trained ranker, a trained next-score
//! predictor and the feature layout they were trained with; each round it
//! ranks the §4.4.1 candidate set (top entropy ∪ top LC) and picks the
//! best batch. The pairwise-trained LHS selector and the pointwise LAL
//! regressor are the same type, differing only in how the ranker inside
//! was fitted and whether pool-level meta-features are appended to each
//! row.

use serde::{Deserialize, Serialize};

use crate::driver::top_k;
use crate::eval::SampleEval;
use crate::history::HistoryStore;

use super::artifacts::{TrainedPredictor, TrainedRanker};
use super::features::{candidate_set, LhsFeatureConfig, PoolMetaFeatures};

/// A trained learned-selection component: ranker + predictor + feature
/// layout. Lets a ranker trained once on a labeled dataset (the paper
/// trains on Subj) be persisted and deployed on other datasets later —
/// the §4.4 transfer protocol. Sessions share one instance through an
/// `Arc`, so one trained selector serves many runs.
#[derive(Clone, Serialize, Deserialize)]
pub struct LearnedSelector {
    /// The trained ranking model.
    pub ranker: TrainedRanker,
    /// The trained next-score predictor.
    pub predictor: TrainedPredictor,
    /// Feature layout the ranker was trained with.
    pub features: LhsFeatureConfig,
    /// Candidate-set size (union of top-entropy and top-LC slices,
    /// §4.4.1). Clamped to the pool size at selection time; must be
    /// positive.
    pub candidate_pool: usize,
    /// Whether the ranker was trained with (and selection must append)
    /// pool-level meta-features — the LAL / transfer configuration.
    /// Defaults to `false` so artifacts written before the field existed
    /// load unchanged.
    #[serde(default)]
    pub use_meta: bool,
}

impl LearnedSelector {
    /// Rank the candidate set and return up to `batch` positions into
    /// `unlabeled`, best first. `seq_buf` is caller-owned scratch for
    /// materializing each candidate's (possibly ring-wrapped) history
    /// window, so repeated rounds allocate no per-candidate sequence
    /// copies. `meta` is appended to every candidate row when the
    /// selector was trained with meta-features and ignored otherwise, so
    /// the classic LHS path is unchanged whether or not the caller
    /// computed the block.
    pub(crate) fn select(
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
                let mut row = self.features.extract(seq_buf, &evals[pos], &self.predictor);
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

    /// A selector built from real trained-model values, deserialized the
    /// way `HLRN1` loads them: an all-ones linear ranker (it sums the
    /// row, meta block included) and an AR(1) predictor that predicts
    /// the last value.
    fn width_selector(use_meta: bool) -> LearnedSelector {
        let features = LhsFeatureConfig::default();
        let width = features.width() + 6; // + the pool meta block
        let weights = vec!["1.0"; width].join(",");
        let ranker: TrainedRanker =
            serde_json::from_str(&format!("{{\"Linear\":{{\"weights\":[{weights}]}}}}"))
                .expect("linear ranker JSON");
        let predictor: TrainedPredictor =
            serde_json::from_str("{\"Ar\":{\"order\":1,\"coeffs\":[0.0,1.0],\"fallback\":0.0}}")
                .expect("AR predictor JSON");
        LearnedSelector {
            ranker,
            predictor,
            features,
            candidate_pool: 4,
            use_meta,
        }
    }

    #[test]
    fn meta_block_changes_selection_input_only_when_enabled() {
        let plain = width_selector(false);
        let meta_sel = width_selector(true);
        let evals: Vec<SampleEval> = [0.6, 0.7, 0.9]
            .iter()
            .map(|&p| SampleEval::from_probs(vec![p, 1.0 - p]))
            .collect();
        let mut history = HistoryStore::new(3, plain.features.window);
        for id in 0..3 {
            history.append(id, 0.5);
        }
        let meta = PoolMetaFeatures::from_evals(&evals, 1, 4, 0);
        let unlabeled = [0, 1, 2];
        // Passing meta to a non-meta selector must not change its picks.
        let a = plain.select(&unlabeled, &evals, &history, 2, &mut Vec::new(), None);
        let b = plain.select(
            &unlabeled,
            &evals,
            &history,
            2,
            &mut Vec::new(),
            Some(&meta),
        );
        assert_eq!(a, b);
        // The meta selector consumes the block without panicking.
        let c = meta_sel.select(
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
