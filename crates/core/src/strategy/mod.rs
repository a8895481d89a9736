//! Query strategies: base score functions and history-aware policies.
//!
//! A [`Strategy`] is a composition of
//!
//! * a [`BaseStrategy`] — the per-iteration informative score `φ_t(x)`
//!   (entropy, LC, margin, EGL, EGL-word, BALD, MNLP, QBC-KL, or random);
//! * a [`HistoryPolicy`] — how the historical sequence `H_t(x)` is folded
//!   into the selection score (the identity, HUS, WSHS, or FHS);
//! * optional [`combinators`] — density weighting (representativeness,
//!   Eq. 7) and MMR diversity (Eq. 8).
//!
//! The learned LHS selector is a separate component
//! ([`crate::learned::LearnedSelector`]) because it ranks a candidate set
//! rather than mapping one history to one score.

pub mod combinators;

use crate::error::Error;
use crate::eval::{EvalCaps, SampleEval};
use histal_tseries::{exp_weighted_sum, uniform_sum, window_variance, RollingStats};

pub use combinators::{DensityConfig, MmrConfig};

/// The base informative score function `φ_S(·)` of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseStrategy {
    /// I.i.d. baseline: a uniform random score per sample per round.
    Random,
    /// Prediction entropy (Eq. 4).
    Entropy,
    /// Least confidence `1 − P(ŷ|x)` (Eq. 3).
    LeastConfidence,
    /// Top-2 margin uncertainty.
    Margin,
    /// Expected gradient length (Eq. 5).
    Egl,
    /// EGL of word embedding, max over words (Eq. 12; Zhang et al. 2017).
    EglWord,
    /// Bayesian uncertainty via MC dropout (Gal et al. 2017).
    Bald,
    /// Maximum normalized log probability (Eq. 13; Shen et al. 2018).
    Mnlp,
    /// Query-by-committee mean KL divergence (Eq. 6).
    QbcKl,
}

impl BaseStrategy {
    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Random => "random",
            Self::Entropy => "entropy",
            Self::LeastConfidence => "LC",
            Self::Margin => "margin",
            Self::Egl => "EGL",
            Self::EglWord => "EGL-word",
            Self::Bald => "BALD",
            Self::Mnlp => "MNLP",
            Self::QbcKl => "QBC",
        }
    }

    /// The optional model outputs this strategy needs.
    pub(crate) fn caps(&self) -> EvalCaps {
        let mut caps = EvalCaps::default();
        match self {
            Self::Egl => caps.egl = true,
            Self::EglWord => caps.egl_word = true,
            Self::Bald => caps.bald = true,
            Self::Mnlp => caps.mnlp = true,
            Self::QbcKl => caps.qbc = true,
            Self::Margin => caps.margin = true,
            Self::Entropy => caps.entropy = true,
            _ => {}
        }
        caps
    }

    /// Compute `φ_t(x)` from a sample evaluation. `random_value` supplies
    /// the driver-generated uniform draw for [`BaseStrategy::Random`].
    pub(crate) fn base_score(&self, eval: &SampleEval, random_value: f64) -> Result<f64, Error> {
        let missing = |field: &'static str| Error::missing_capability(self.name_static(), field);
        match self {
            Self::Random => Ok(random_value),
            Self::Entropy => Ok(eval.entropy),
            Self::LeastConfidence => Ok(eval.least_confidence),
            Self::Margin => eval.margin.ok_or_else(|| {
                Error::new(crate::error::ErrorKind::NotEnoughClasses {
                    got: eval.probs.len(),
                })
            }),
            Self::Egl => eval.egl.ok_or_else(|| missing("egl")),
            Self::EglWord => eval.egl_word.ok_or_else(|| missing("egl_word")),
            Self::Bald => eval.bald.ok_or_else(|| missing("bald")),
            Self::Mnlp => eval.mnlp.ok_or_else(|| missing("mnlp")),
            Self::QbcKl => eval.qbc_kl.ok_or_else(|| missing("qbc_kl")),
        }
    }

    fn name_static(&self) -> &'static str {
        self.name()
    }
}

/// How the historical sequence is folded into a selection score.
///
/// All policies receive the full retained sequence, whose *last* element
/// is the current iteration's score.
///
/// ```
/// use histal_core::strategy::HistoryPolicy;
/// let history = [0.2, 0.6, 0.4];
/// assert_eq!(HistoryPolicy::CurrentOnly.final_score(&history), 0.4);
/// // WSHS: 0.25·0.2 + 0.5·0.6 + 1.0·0.4 (Eq. 9–10)
/// let wshs = HistoryPolicy::Wshs { l: 3 }.final_score(&history);
/// assert!((wshs - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HistoryPolicy {
    /// Classic behaviour: use only the current score (Eq. 2).
    CurrentOnly,
    /// HUS (Davy & Luz 2007): plain sum of the last `k` scores.
    Hus {
        /// History window length.
        k: usize,
    },
    /// WSHS (Eq. 9–10): exponentially weighted sum of the last `l` scores.
    Wshs {
        /// History window length; `l = 1` degrades to [`Self::CurrentOnly`].
        l: usize,
    },
    /// FHS (Eq. 11): `w_score · φ_t(x) + w_fluct · Var(last l scores)`.
    Fhs {
        /// History window length for the variance.
        l: usize,
        /// Weight of the current score (`w_s`).
        w_score: f64,
        /// Weight of the fluctuation term (`w_f`).
        w_fluct: f64,
    },
}

impl HistoryPolicy {
    /// Fold a historical sequence into the selection score. Returns 0 for
    /// an empty sequence (no evaluations yet).
    pub fn final_score(&self, seq: &[f64]) -> f64 {
        let current = seq.last().copied().unwrap_or(0.0);
        match *self {
            Self::CurrentOnly => current,
            Self::Hus { k } => uniform_sum(seq, k),
            Self::Wshs { l } => exp_weighted_sum(seq, l),
            Self::Fhs {
                l,
                w_score,
                w_fluct,
            } => w_score * current + w_fluct * window_variance(seq, l),
        }
    }

    /// The history window this policy folds over (1 for
    /// [`Self::CurrentOnly`]). This is the window to hand to
    /// [`crate::history::HistoryStore::with_rolling`] so that
    /// [`Self::rolling_score`] sees the right statistics.
    pub fn window(&self) -> usize {
        match *self {
            Self::CurrentOnly => 1,
            Self::Hus { k } => k,
            Self::Wshs { l } => l,
            Self::Fhs { l, .. } => l,
        }
    }

    /// Fold via O(1) rolling statistics instead of rescanning the
    /// sequence. `stats` must track this policy's [`Self::window`].
    /// Agrees with [`Self::final_score`] on the retained sequence to
    /// rounding error; the slice fold stays the test oracle.
    pub fn rolling_score(&self, stats: &RollingStats) -> f64 {
        match *self {
            Self::CurrentOnly => stats.current(),
            Self::Hus { .. } => stats.uniform_sum(),
            Self::Wshs { .. } => stats.exp_weighted_sum(),
            Self::Fhs {
                w_score, w_fluct, ..
            } => w_score * stats.current() + w_fluct * stats.variance(),
        }
    }

    /// Display name for experiment reports.
    pub(crate) fn name(&self) -> String {
        match self {
            Self::CurrentOnly => String::new(),
            Self::Hus { .. } => "HUS".to_string(),
            Self::Wshs { .. } => "WSHS".to_string(),
            Self::Fhs { .. } => "FHS".to_string(),
        }
    }
}

/// A fully configured query strategy.
#[derive(Debug, Clone)]
pub struct Strategy {
    /// The informative base score.
    pub base: BaseStrategy,
    /// History folding policy.
    pub history: HistoryPolicy,
    /// Optional density (representativeness) weighting, Eq. 7.
    pub density: Option<DensityConfig>,
    /// Optional MMR diversity for batch selection, Eq. 8.
    pub mmr: Option<MmrConfig>,
    /// HKLD baseline (Davy & Luz 2007): select by the mean KL divergence
    /// of the posteriors produced by the models of the last `k`
    /// iterations. When set, this *replaces* the history policy for
    /// scoring (the base strategy still populates the scalar history for
    /// diagnostics).
    pub hkld: Option<usize>,
    /// Greedy k-center (core-set) batch selection instead of top-k;
    /// requires representations. Mutually exclusive with MMR (MMR wins
    /// if both are set).
    pub kcenter: bool,
}

impl Strategy {
    /// A bare strategy using only the current iteration's score.
    pub fn new(base: BaseStrategy) -> Self {
        Self {
            base,
            history: HistoryPolicy::CurrentOnly,
            density: None,
            mmr: None,
            hkld: None,
            kcenter: false,
        }
    }

    /// Use greedy k-center (core-set) batch selection.
    pub fn with_kcenter(mut self) -> Self {
        self.kcenter = true;
        self
    }

    /// Use the HKLD historical-committee baseline over the last `k`
    /// iterations' posteriors.
    pub fn with_hkld(mut self, k: usize) -> Self {
        assert!(k >= 2, "HKLD needs a committee of at least two iterations");
        self.hkld = Some(k);
        self
    }

    /// Attach a history policy.
    pub fn with_history(mut self, history: HistoryPolicy) -> Self {
        self.history = history;
        self
    }

    /// Attach density weighting.
    pub fn with_density(mut self, density: DensityConfig) -> Self {
        self.density = Some(density);
        self
    }

    /// Attach MMR batch diversity.
    pub fn with_mmr(mut self, mmr: MmrConfig) -> Self {
        self.mmr = Some(mmr);
        self
    }

    /// Does a combinator need sample representations (pool geometry)?
    /// Density weighting, MMR and k-center do; without representations
    /// they would silently fall back to plain top-k.
    pub fn needs_representations(&self) -> bool {
        self.density.is_some() || self.mmr.is_some() || self.kcenter
    }

    /// Report name, e.g. `"WSHS(entropy)"` or `"LC"`.
    pub fn name(&self) -> String {
        if let Some(k) = self.hkld {
            return format!("HKLD(k={k})");
        }
        let wrapper = self.history.name();
        if wrapper.is_empty() {
            self.base.name().to_string()
        } else {
            format!("{wrapper}({})", self.base.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SampleEval;

    #[test]
    fn caps_requested_per_strategy() {
        assert!(BaseStrategy::Egl.caps().egl);
        assert!(BaseStrategy::Bald.caps().bald);
        assert!(!BaseStrategy::Entropy.caps().egl);
    }

    #[test]
    fn base_score_entropy_and_lc() {
        let e = SampleEval::from_probs(vec![0.9, 0.1]);
        let ent = BaseStrategy::Entropy.base_score(&e, 0.0).unwrap();
        assert!((ent - e.entropy).abs() < 1e-12);
        let lc = BaseStrategy::LeastConfidence.base_score(&e, 0.0).unwrap();
        assert!((lc - 0.1).abs() < 1e-9);
    }

    #[test]
    fn random_uses_supplied_value() {
        let e = SampleEval::default();
        assert_eq!(BaseStrategy::Random.base_score(&e, 0.42).unwrap(), 0.42);
    }

    #[test]
    fn missing_capability_is_error() {
        let e = SampleEval::from_probs(vec![0.5, 0.5]);
        let err = BaseStrategy::Egl.base_score(&e, 0.0).unwrap_err();
        assert!(matches!(
            err.kind,
            crate::error::ErrorKind::MissingCapability { field: "egl", .. }
        ));
    }

    #[test]
    fn margin_single_class_errors() {
        let e = SampleEval::from_probs(vec![1.0]);
        assert!(BaseStrategy::Margin.base_score(&e, 0.0).is_err());
    }

    #[test]
    fn current_only_is_last_element() {
        let p = HistoryPolicy::CurrentOnly;
        assert_eq!(p.final_score(&[0.1, 0.9]), 0.9);
        assert_eq!(p.final_score(&[]), 0.0);
    }

    #[test]
    fn wshs_l1_equals_current_only() {
        let seq = [0.3, 0.8, 0.6];
        let wshs = HistoryPolicy::Wshs { l: 1 };
        assert_eq!(
            wshs.final_score(&seq),
            HistoryPolicy::CurrentOnly.final_score(&seq)
        );
    }

    #[test]
    fn fhs_combines_score_and_variance() {
        let seq = [0.0, 1.0, 0.0, 1.0];
        let p = HistoryPolicy::Fhs {
            l: 4,
            w_score: 0.5,
            w_fluct: 0.5,
        };
        let expected = 0.5 * 1.0 + 0.5 * histal_tseries::window_variance(&seq, 4);
        assert!((p.final_score(&seq) - expected).abs() < 1e-12);
    }

    #[test]
    fn hus_is_plain_sum() {
        let p = HistoryPolicy::Hus { k: 2 };
        assert!((p.final_score(&[1.0, 2.0, 3.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rolling_score_matches_slice_fold() {
        let seq = [0.3, 0.8, 0.1, 0.6, 0.9];
        let policies = [
            HistoryPolicy::CurrentOnly,
            HistoryPolicy::Hus { k: 3 },
            HistoryPolicy::Wshs { l: 3 },
            HistoryPolicy::Fhs {
                l: 3,
                w_score: 0.5,
                w_fluct: 0.5,
            },
        ];
        for p in policies {
            let mut stats = RollingStats::new(p.window());
            let mut seen: Vec<f64> = Vec::new();
            for &v in &seq {
                let evicted = (seen.len() >= p.window()).then(|| seen[seen.len() - p.window()]);
                stats.push(v, evicted);
                seen.push(v);
                let rolling = p.rolling_score(&stats);
                let scratch = p.final_score(&seen);
                assert!(
                    (rolling - scratch).abs() <= 1e-12,
                    "{p:?}: {rolling} vs {scratch}"
                );
            }
        }
    }

    #[test]
    fn policy_windows() {
        assert_eq!(HistoryPolicy::CurrentOnly.window(), 1);
        assert_eq!(HistoryPolicy::Hus { k: 4 }.window(), 4);
        assert_eq!(HistoryPolicy::Wshs { l: 3 }.window(), 3);
    }

    #[test]
    fn strategy_names_match_paper_style() {
        let s = Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Wshs { l: 3 });
        assert_eq!(s.name(), "WSHS(entropy)");
        assert_eq!(Strategy::new(BaseStrategy::LeastConfidence).name(), "LC");
        let f = Strategy::new(BaseStrategy::Egl).with_history(HistoryPolicy::Fhs {
            l: 3,
            w_score: 0.5,
            w_fluct: 0.5,
        });
        assert_eq!(f.name(), "FHS(EGL)");
    }
}
