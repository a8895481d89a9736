//! The learned-selector subsystem: LHS (§4.4, Algorithm 1) and LAL.
//!
//! LHS casts sample selection as learning-to-rank: each active-learning
//! iteration is a *query*, the candidate samples are its *documents*, and
//! the graded relevance of a candidate is how much adding it actually
//! improved the model (`Eval(M′) − Eval(M)`, bucketed into levels). LAL
//! (Konyushkova et al.) keeps the same simulation but regresses the raw
//! improvement deltas pointwise, and — combined with pool-level
//! meta-features — produces selectors that transfer across datasets
//! (Chu & Lin).
//!
//! One type, [`LearnedSelector`], is the trained selector end to end:
//! [`train_learned`] returns it, `HLRN1` files serialize it, and the
//! pipeline's `Select::Lhs` stage runs it behind an `Arc`. The modules:
//!
//! * `features` — per-sample history features ([`LhsFeatureConfig`]:
//!   raw window, fluctuation, Mann–Kendall trend, predicted next score,
//!   output distribution) plus pool-level meta-features
//!   (`PoolMetaFeatures`) and the §4.4.1 candidate set;
//! * `targets` — the two-phase Algorithm 1 training simulation,
//!   generalized over [`TargetKind`] (pairwise ranking groups for LHS,
//!   pointwise expected-error-reduction targets for LAL);
//! * `artifacts` — the trained ranker and predictor enums and the
//!   versioned `HLRN1` file format ([`save_artifacts`] /
//!   [`load_artifacts`]) for cross-process, cross-dataset deployment;
//! * `selector` — [`LearnedSelector`] and its per-round `select`.

pub(crate) mod artifacts;
pub(crate) mod features;
pub(crate) mod selector;
pub(crate) mod targets;

pub use artifacts::{load_artifacts, save_artifacts, ArtifactProvenance};
pub use features::LhsFeatureConfig;
pub(crate) use features::PoolMetaFeatures;
pub use selector::LearnedSelector;
pub use targets::{
    bucket_levels, train_learned, LearnedTrainerConfig, PredictorKind, RankerKind, TargetKind,
};
