//! Per-sample evaluation outputs produced by the underlying model.
//!
//! Each active-learning iteration, the model evaluates every unlabeled
//! sample and emits a [`SampleEval`]. The cheap informative quantities
//! (posterior, entropy, least confidence) are always present; the
//! expensive ones (EGL, MC-dropout BALD, committee KL, MNLP) are computed
//! only when the strategy's [`EvalCaps`] requests them.

/// Which optional (expensive) evaluation quantities the model must
/// compute. Derived from the strategy via
/// `crate::strategy::BaseStrategy::caps`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCaps {
    /// Expected gradient length over the whole parameter vector (Eq. 5).
    pub egl: bool,
    /// Max-over-words expected gradient on word-embedding blocks (Eq. 12).
    pub egl_word: bool,
    /// Bayesian uncertainty via MC-dropout (Gal et al. 2017).
    pub bald: bool,
    /// Maximum normalized log probability for sequence models (Eq. 13).
    pub mnlp: bool,
    /// Committee disagreement as mean KL divergence (Eq. 6).
    pub qbc: bool,
    /// Sequence-level top-2 margin (2-best Viterbi). Classification
    /// models derive margin from the posterior for free and ignore this.
    pub margin: bool,
    /// Per-token marginal entropy (backward pass for sequence models).
    /// Classification models compute entropy for free and ignore this;
    /// the CRF skips the backward lattice when it is unset.
    pub entropy: bool,
    /// Full posterior vector in [`SampleEval::probs`]. Set by consumers
    /// that read posteriors directly (HKLD committee, LHS posterior
    /// features) rather than through a base-strategy score.
    pub probs: bool,
}

/// Model outputs for one unlabeled sample in one iteration.
#[derive(Debug, Clone, Default)]
pub struct SampleEval {
    /// Predicted class distribution. Classification models fill this;
    /// sequence models may leave it empty (their entropy/LC fields are
    /// sequence-level aggregates instead).
    pub probs: Vec<f64>,
    /// Entropy of the prediction (Eq. 4); for sequence models the mean
    /// per-token marginal entropy.
    pub entropy: f64,
    /// `1 − P(ŷ|x)` (Eq. 3); for sequence models `1 − P(best path)`.
    pub least_confidence: f64,
    /// Gap between top-2 class probabilities, as an *uncertainty* (1 − gap).
    pub margin: Option<f64>,
    /// Expected gradient length (Eq. 5).
    pub egl: Option<f64>,
    /// EGL of word embedding, max over words (Eq. 12).
    pub egl_word: Option<f64>,
    /// BALD mutual-information estimate.
    pub bald: Option<f64>,
    /// MNLP uncertainty `1 − max_y (1/n) Σ log P` (Eq. 13), shifted so
    /// larger = more uncertain.
    pub mnlp: Option<f64>,
    /// Mean KL divergence of committee members from the committee mean.
    pub qbc_kl: Option<f64>,
}

impl SampleEval {
    /// Build the always-present fields from a class posterior; optional
    /// fields start unset.
    pub fn from_probs(probs: Vec<f64>) -> Self {
        let entropy = entropy_of(&probs);
        let max_p = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let least_confidence = if probs.is_empty() { 0.0 } else { 1.0 - max_p };
        let margin = margin_of(&probs);
        Self {
            probs,
            entropy,
            least_confidence,
            margin,
            ..Default::default()
        }
    }
}

/// Shannon entropy (natural log) of a distribution; `0 log 0 = 0`.
pub fn entropy_of(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Margin uncertainty `1 − (p₁ − p₂)`; `None` with fewer than two classes.
pub fn margin_of(probs: &[f64]) -> Option<f64> {
    if probs.len() < 2 {
        return None;
    }
    let (mut top, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &p in probs {
        if p > top {
            second = top;
            top = p;
        } else if p > second {
            second = p;
        }
    }
    Some(1.0 - (top - second))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_uniform_is_ln_k() {
        let e = entropy_of(&[0.25; 4]);
        assert!((e - (4f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_deterministic_is_zero() {
        assert_eq!(entropy_of(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_binary_half() {
        // The paper's running example: H(0.5, 0.5) = ln 2 ≈ 0.693.
        assert!((entropy_of(&[0.5, 0.5]) - (2f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn margin_basics() {
        assert!((margin_of(&[0.7, 0.3]).unwrap() - 0.6).abs() < 1e-12);
        assert!((margin_of(&[0.5, 0.5]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(margin_of(&[1.0]), None);
        assert_eq!(margin_of(&[]), None);
    }

    #[test]
    fn margin_finds_top_two_regardless_of_order() {
        let m = margin_of(&[0.1, 0.6, 0.3]).unwrap();
        assert!((m - (1.0 - 0.3)).abs() < 1e-12);
    }

    #[test]
    fn from_probs_fills_basics() {
        let e = SampleEval::from_probs(vec![0.8, 0.2]);
        assert!((e.least_confidence - 0.2).abs() < 1e-12);
        assert!(e.entropy > 0.0);
        assert!(e.margin.is_some());
        assert!(e.egl.is_none() && e.bald.is_none());
    }

    #[test]
    fn from_empty_probs_is_neutral() {
        let e = SampleEval::from_probs(vec![]);
        assert_eq!(e.entropy, 0.0);
        assert_eq!(e.least_confidence, 0.0);
        assert_eq!(e.margin, None);
    }
}
