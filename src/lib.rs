//! # histal — Active Learning with Historical Evaluation Results
//!
//! Umbrella crate for the `histal` workspace, a Rust reproduction of
//! *"Looking Back on the Past: Active Learning with Historical Evaluation
//! Results"* (Yao, Dou, Nie, Wen — TKDE 2020 / ICDE 2023 extended
//! abstract).
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`core`] — the active-learning framework and the paper's WSHS / FHS /
//!   LHS strategies;
//! * [`models`] — the text classifier and CRF substrates;
//! * [`data`] — seeded synthetic corpora matching the paper's dataset
//!   statistics;
//! * [`text`] — feature hashing, sparse vectors and pool geometry;
//! * [`tseries`] — historical-sequence features (window sums, fluctuation,
//!   Mann–Kendall trend, LSTM/AR next-score predictors);
//! * [`ltr`] — the LambdaMART learning-to-rank stack behind LHS.
//!
//! See `examples/quickstart.rs` for a complete working loop and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]

pub use histal_core as core;
pub use histal_data as data;
pub use histal_ltr as ltr;
pub use histal_models as models;
pub use histal_text as text;
pub use histal_tseries as tseries;

/// Convenience prelude with the types most programs need.
pub mod prelude {
    pub use histal_core::analysis::{
        area_under_curve, deficiency, format_cost, samples_to_target, selection_stats,
    };
    pub use histal_core::driver::{ActiveLearner, PoolConfig, RunResult};
    pub use histal_core::learned::{
        train_learned, LearnedSelector, LearnedTrainerConfig, LhsFeatureConfig,
    };
    pub use histal_core::stats::{compare_curves, paired_bootstrap, wilcoxon_signed_rank};
    pub use histal_core::stopping::{StopReason, StoppingRule};
    pub use histal_core::strategy::{BaseStrategy, HistoryPolicy, Strategy};
    pub use histal_core::Model;
    pub use histal_data::{NerDataset, NerSpec, TextDataset, TextSpec};
    pub use histal_models::{
        CrfConfig, CrfTagger, Document, NaiveBayes, NaiveBayesConfig, Sentence, TextClassifier,
        TextClassifierConfig,
    };
    pub use histal_text::FeatureHasher;
}
