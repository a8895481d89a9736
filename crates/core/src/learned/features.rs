//! Feature extraction for the learned selectors (§4.4.2).
//!
//! Two layers of features feed the learned rankers:
//!
//! * **Per-sample history features** ([`LhsFeatureConfig`]): the raw
//!   last-`l` window of historical scores, the fluctuation (window
//!   variance), the Mann–Kendall trend statistic, the predicted next
//!   score, and the model's output distribution — one row per candidate
//!   sample, exactly the paper's feature set.
//! * **Pool-level meta-features** ([`PoolMetaFeatures`]): label ratio,
//!   pool size, round index, and the moments of the pool's uncertainty
//!   distribution. These describe the *state of the AL problem* rather
//!   than any one sample, which is what makes a selector trained on
//!   dataset A plausible on dataset B (Chu & Lin's transfer argument):
//!   the per-sample features only transfer when the pool context they
//!   were learned in is part of the row.
//!
//! The candidate set of §4.4.1 ([`candidate_set`]) also lives here: the
//! union of the top-`k/2` samples by entropy and by least confidence.

use serde::{Deserialize, Serialize};

use histal_tseries::{autocorrelation, last_window, mann_kendall, window_variance};

use crate::driver::top_k;
use crate::eval::SampleEval;

use super::artifacts::TrainedPredictor;

/// Which feature groups the ranker sees — each toggle corresponds to one
/// row of the paper's ablation study (Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LhsFeatureConfig {
    /// History window length `l` for the raw-score features.
    pub window: usize,
    /// Number of probability features (posterior sorted descending,
    /// padded/truncated to this width).
    pub n_prob_features: usize,
    /// Include the raw last-`l` historical scores.
    pub use_history: bool,
    /// Include the window variance (fluctuation).
    pub use_fluctuation: bool,
    /// Include the Mann–Kendall trend statistics.
    pub use_trend: bool,
    /// Include the predicted next score.
    pub use_prediction: bool,
    /// Include the output probability distribution.
    pub use_probs: bool,
    /// Include the lag-1 autocorrelation of the window — an *extension*
    /// feature beyond the paper (its conclusion calls for exploring more
    /// sequence features): separates oscillating from drifting histories
    /// at equal variance.
    pub use_autocorr: bool,
}

impl Default for LhsFeatureConfig {
    fn default() -> Self {
        Self {
            window: 5,
            n_prob_features: 2,
            use_history: true,
            use_fluctuation: true,
            use_trend: true,
            use_prediction: true,
            use_probs: true,
            use_autocorr: false,
        }
    }
}

impl LhsFeatureConfig {
    /// Total feature-vector width under this configuration.
    pub fn width(&self) -> usize {
        let mut w = 0;
        if self.use_history {
            w += self.window;
        }
        if self.use_fluctuation {
            w += 1;
        }
        if self.use_trend {
            w += 2; // z statistic and tau
        }
        if self.use_prediction {
            w += 1;
        }
        if self.use_probs {
            w += self.n_prob_features;
        }
        if self.use_autocorr {
            w += 1;
        }
        w
    }

    /// Extract the ranking features for one sample.
    ///
    /// `seq` is the historical evaluation sequence *including* the current
    /// iteration's score; `eval` is the current model evaluation.
    pub(crate) fn extract(
        &self,
        seq: &[f64],
        eval: &SampleEval,
        predictor: &TrainedPredictor,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.width());
        if self.use_history {
            let w = last_window(seq, self.window);
            // Left-pad with zeros so early iterations produce fixed-width rows.
            out.extend(std::iter::repeat(0.0).take(self.window - w.len()));
            out.extend_from_slice(w);
        }
        if self.use_fluctuation {
            out.push(window_variance(seq, self.window));
        }
        if self.use_trend {
            let mk = mann_kendall(last_window(seq, self.window));
            out.push(mk.z);
            out.push(mk.tau);
        }
        if self.use_prediction {
            out.push(predictor.predict_next(seq));
        }
        if self.use_probs {
            let mut probs = eval.probs.clone();
            probs.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
            probs.resize(self.n_prob_features, 0.0);
            out.extend_from_slice(&probs[..self.n_prob_features]);
        }
        if self.use_autocorr {
            out.push(autocorrelation(last_window(seq, self.window), 1));
        }
        out
    }
}

/// Pool-level meta-features: the state of the AL problem at the moment a
/// row is featurized, independent of which sample the row describes.
/// Computed once per round from the full unlabeled pool, then appended
/// to every candidate row. All reductions are serial left-to-right folds
/// over [`Pool::unlabeled`](crate::pool::Pool::unlabeled) order, so the
/// values are independent of the worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PoolMetaFeatures {
    /// `|L| / (|L| + |U|)` — how far annotation has progressed.
    pub label_ratio: f64,
    /// `ln(1 + |L| + |U|)` — pool scale, compressed so MR-sized and
    /// AG-News-sized pools land in comparable range.
    pub log_pool_size: f64,
    /// Round index (0-based), as a float.
    pub round: f64,
    /// Mean of the pool's uncertainty scores (entropy of each unlabeled
    /// sample's posterior).
    pub score_mean: f64,
    /// Standard deviation of the uncertainty scores.
    pub score_std: f64,
    /// Skewness of the uncertainty scores (0 when the spread is
    /// degenerate).
    pub score_skew: f64,
}

impl PoolMetaFeatures {
    /// Compute the meta-features from the uncertainty scores of the
    /// unlabeled pool (one entropy per unlabeled sample, in pool order)
    /// and the round bookkeeping.
    pub(crate) fn compute(
        uncertainty: &[f64],
        n_labeled: usize,
        pool_size: usize,
        round: usize,
    ) -> Self {
        let n = uncertainty.len() as f64;
        let (mean, std, skew) = if uncertainty.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let mut sum = 0.0;
            for &u in uncertainty {
                sum += u;
            }
            let mean = sum / n;
            let (mut m2, mut m3) = (0.0, 0.0);
            for &u in uncertainty {
                let d = u - mean;
                m2 += d * d;
                m3 += d * d * d;
            }
            let var = m2 / n;
            let std = var.sqrt();
            let skew = if std > 1e-12 {
                (m3 / n) / (std * std * std)
            } else {
                0.0
            };
            (mean, std, skew)
        };
        Self {
            label_ratio: if pool_size > 0 {
                n_labeled as f64 / pool_size as f64
            } else {
                0.0
            },
            log_pool_size: (1.0 + pool_size as f64).ln(),
            round: round as f64,
            score_mean: mean,
            score_std: std,
            score_skew: skew,
        }
    }

    /// Compute from per-sample evaluations (reads each sample's entropy).
    pub(crate) fn from_evals(
        evals: &[SampleEval],
        n_labeled: usize,
        pool_size: usize,
        round: usize,
    ) -> Self {
        let uncertainty: Vec<f64> = evals.iter().map(|e| e.entropy).collect();
        Self::compute(&uncertainty, n_labeled, pool_size, round)
    }

    /// Append the meta block (exactly six values) to a
    /// per-sample feature row.
    pub(crate) fn append_to(&self, row: &mut Vec<f64>) {
        row.push(self.label_ratio);
        row.push(self.log_pool_size);
        row.push(self.round);
        row.push(self.score_mean);
        row.push(self.score_std);
        row.push(self.score_skew);
    }
}

/// Build the candidate set of §4.4.1: the union of the top-`k/2` samples
/// by entropy and by least confidence. Returns positions into `evals`.
pub(crate) fn candidate_set(evals: &[SampleEval], pool: usize) -> Vec<usize> {
    let k = pool.min(evals.len());
    if k == evals.len() {
        return (0..evals.len()).collect();
    }
    let half = k.div_ceil(2);
    let ent: Vec<f64> = evals.iter().map(|e| e.entropy).collect();
    let lc: Vec<f64> = evals.iter().map(|e| e.least_confidence).collect();
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    let mut seen = vec![false; evals.len()];
    for &pos in top_k(&ent, half).iter().chain(top_k(&lc, half).iter()) {
        if !seen[pos] {
            seen[pos] = true;
            picked.push(pos);
        }
    }
    // Top up from entropy order if the union was smaller than k.
    if picked.len() < k {
        for pos in top_k(&ent, evals.len()) {
            if !seen[pos] {
                seen[pos] = true;
                picked.push(pos);
                if picked.len() == k {
                    break;
                }
            }
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An AR(1) predictor with a zero lag weight, deserialized the way
    /// `HLRN1` loads one: it predicts `c` for every sequence.
    fn const_predictor(c: f64) -> TrainedPredictor {
        serde_json::from_str(&format!(
            "{{\"Ar\":{{\"order\":1,\"coeffs\":[{c:?},0.0],\"fallback\":{c:?}}}}}"
        ))
        .expect("AR predictor JSON")
    }

    #[test]
    fn feature_width_matches_extract() {
        let cfg = LhsFeatureConfig::default();
        let eval = SampleEval::from_probs(vec![0.6, 0.4]);
        let feats = cfg.extract(&[0.1, 0.2, 0.3], &eval, &const_predictor(0.5));
        assert_eq!(feats.len(), cfg.width());
    }

    #[test]
    fn history_features_left_padded() {
        let cfg = LhsFeatureConfig {
            window: 4,
            use_fluctuation: false,
            use_trend: false,
            use_prediction: false,
            use_probs: false,
            ..Default::default()
        };
        let eval = SampleEval::default();
        let feats = cfg.extract(&[0.9], &eval, &const_predictor(0.0));
        assert_eq!(feats, vec![0.0, 0.0, 0.0, 0.9]);
    }

    #[test]
    fn toggles_remove_feature_groups() {
        let full = LhsFeatureConfig::default();
        let no_trend = LhsFeatureConfig {
            use_trend: false,
            ..full
        };
        assert_eq!(full.width() - no_trend.width(), 2);
        let no_probs = LhsFeatureConfig {
            use_probs: false,
            ..full
        };
        assert_eq!(full.width() - no_probs.width(), full.n_prob_features);
        let with_acf = LhsFeatureConfig {
            use_autocorr: true,
            ..full
        };
        assert_eq!(with_acf.width() - full.width(), 1);
    }

    #[test]
    fn autocorr_feature_extracted_when_enabled() {
        let cfg = LhsFeatureConfig {
            window: 6,
            use_history: false,
            use_fluctuation: false,
            use_trend: false,
            use_prediction: false,
            use_probs: false,
            use_autocorr: true,
            n_prob_features: 2,
        };
        let eval = SampleEval::default();
        let osc = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let feats = cfg.extract(&osc, &eval, &const_predictor(0.0));
        assert_eq!(feats.len(), 1);
        assert!(feats[0] < -0.5, "oscillation ACF {}", feats[0]);
    }

    #[test]
    fn probs_sorted_and_padded() {
        let cfg = LhsFeatureConfig {
            window: 1,
            n_prob_features: 3,
            use_history: false,
            use_fluctuation: false,
            use_trend: false,
            use_prediction: false,
            use_probs: true,
            use_autocorr: false,
        };
        let eval = SampleEval::from_probs(vec![0.3, 0.7]);
        let feats = cfg.extract(&[], &eval, &const_predictor(0.0));
        assert_eq!(feats, vec![0.7, 0.3, 0.0]);
    }

    #[test]
    fn empty_history_sequence_yields_fixed_width_row() {
        // A sample featurized before any score has been appended (an
        // empty history window) must still produce a full-width row with
        // an all-zero history block and finite values everywhere.
        let cfg = LhsFeatureConfig {
            use_autocorr: true,
            ..Default::default()
        };
        let eval = SampleEval::from_probs(vec![0.5, 0.5]);
        let feats = cfg.extract(&[], &eval, &const_predictor(0.25));
        assert_eq!(feats.len(), cfg.width());
        assert!(feats[..cfg.window].iter().all(|&v| v == 0.0));
        assert!(feats.iter().all(|v| v.is_finite()), "{feats:?}");
    }

    #[test]
    fn probs_shorter_than_n_prob_features_padded_with_zeros() {
        // Fewer classes than requested probability features: the block
        // is zero-padded, never truncated short or panicking.
        let cfg = LhsFeatureConfig {
            window: 1,
            n_prob_features: 5,
            use_history: false,
            use_fluctuation: false,
            use_trend: false,
            use_prediction: false,
            use_probs: true,
            use_autocorr: false,
        };
        let eval = SampleEval::from_probs(vec![1.0]);
        let feats = cfg.extract(&[0.2], &eval, &const_predictor(0.0));
        assert_eq!(feats, vec![1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn candidate_set_pool_smaller_than_candidates_returns_all() {
        // Pools smaller than the requested candidate count (and smaller
        // than n_prob_features-sized slices) must return every position
        // exactly once.
        let evals = vec![SampleEval::from_probs(vec![0.5, 0.5]); 2];
        assert_eq!(candidate_set(&evals, 75), vec![0, 1]);
        assert_eq!(candidate_set(&[], 75), Vec::<usize>::new());
    }

    #[test]
    fn meta_features_deterministic_across_thread_counts() {
        // The meta block is a serial fold; running it under thread pools
        // of different sizes (as the grid executor does) must produce
        // bit-identical values.
        let evals: Vec<SampleEval> = (0..512)
            .map(|i| {
                let p = 0.5 + 0.4 * ((i as f64) * 0.137).sin();
                SampleEval::from_probs(vec![p, 1.0 - p])
            })
            .collect();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            pool.install(|| PoolMetaFeatures::from_evals(&evals, 40, 552, 3))
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
        let mut row = vec![0.5];
        one.append_to(&mut row);
        assert_eq!(row.len(), 1 + 6);
        assert!((one.label_ratio - 40.0 / 552.0).abs() < 1e-15);
        assert_eq!(one.round, 3.0);
    }

    #[test]
    fn meta_features_empty_pool_is_finite() {
        let meta = PoolMetaFeatures::compute(&[], 10, 10, 7);
        assert_eq!(meta.score_mean, 0.0);
        assert_eq!(meta.score_std, 0.0);
        assert_eq!(meta.score_skew, 0.0);
        assert_eq!(meta.label_ratio, 1.0);
    }

    #[test]
    fn candidate_set_unions_entropy_and_lc() {
        // Sample 0: high entropy, low LC. Sample 1: low entropy, high LC.
        // Sample 2: low both. Pool of 2 must pick 0 and 1.
        let e0 = SampleEval {
            entropy: 1.0,
            least_confidence: 0.0,
            ..Default::default()
        };
        let e1 = SampleEval {
            entropy: 0.0,
            least_confidence: 1.0,
            ..Default::default()
        };
        let e2 = SampleEval::default();
        let picked = candidate_set(&[e0, e1, e2], 2);
        assert!(picked.contains(&0) && picked.contains(&1));
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn candidate_set_small_pool_returns_all() {
        let evals = vec![SampleEval::default(); 3];
        assert_eq!(candidate_set(&evals, 10), vec![0, 1, 2]);
    }

    #[test]
    fn candidate_set_tops_up_on_overlap() {
        // All samples identical: entropy-top and LC-top overlap fully; the
        // set must still reach the requested size.
        let evals = vec![SampleEval::from_probs(vec![0.5, 0.5]); 6];
        assert_eq!(candidate_set(&evals, 4).len(), 4);
    }
}
