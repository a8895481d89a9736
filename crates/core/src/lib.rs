//! # histal-core — active learning with historical evaluation results
//!
//! This crate implements the contribution of *"Looking Back on the Past:
//! Active Learning with Historical Evaluation Results"* (Yao, Dou, Nie,
//! Wen; TKDE 2020 / ICDE 2023 extended abstract): pool-based active
//! learning query strategies that exploit the *sequence* of evaluation
//! scores each unlabeled sample accumulates across iterations, rather than
//! only the most recent score.
//!
//! ## The framework
//!
//! Pool-based active learning (see [`driver::ActiveLearner`]) iterates:
//!
//! 1. train the underlying [`model::Model`] on the labeled set `L`;
//! 2. score every sample `x` in the unlabeled pool `U` with a base query
//!    strategy `φ_t(x)` ([`strategy::BaseStrategy`]);
//! 3. append `φ_t(x)` to the sample's historical sequence `H_t(x)`
//!    ([`history::HistoryStore`]);
//! 4. compute selection scores `F(H_t(x))` ([`strategy::HistoryPolicy`] or
//!    the learned [`learned::LearnedSelector`]);
//! 5. annotate the top batch and repeat.
//!
//! ## The proposed strategies
//!
//! * **WSHS** — exponentially weighted window sum of `H_t(x)` (Eq. 9–10);
//! * **FHS** — current score plus the window variance of `H_t(x)`
//!   (Eq. 11), rewarding samples that *fluctuate* near the decision
//!   boundary;
//! * **LHS** — a LambdaMART ranker trained per Algorithm 1 on features of
//!   `H_t(x)` (raw window, fluctuation, Mann–Kendall trend, LSTM-predicted
//!   next score, output distribution), with graded labels derived from
//!   measured model-improvement deltas.
//!
//! All three wrap any informative base strategy (entropy, least
//! confidence, EGL, EGL-word, BALD, MNLP, QBC) and compose with the
//! representative/diversity combinators ([`strategy::combinators`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use histal_core::driver::{ActiveLearner, PoolConfig};
//! use histal_core::eval::{EvalCaps, SampleEval};
//! use histal_core::model::Model;
//! use histal_core::strategy::{BaseStrategy, HistoryPolicy, Strategy};
//!
//! // Any type implementing `Model` plugs into the driver; the built-in
//! // text classifier and CRF live in the `histal-models` crate.
//! #[derive(Clone)]
//! struct MyModel;
//! impl Model for MyModel {
//!     type Sample = Vec<f64>;
//!     type Label = usize;
//!     fn fit(&mut self, _: &[&Vec<f64>], _: &[&usize], _: &mut rand_chacha::ChaCha8Rng) {}
//!     fn eval_sample(&self, _: &Vec<f64>, _: &EvalCaps, _: u64) -> SampleEval {
//!         SampleEval::from_probs(vec![0.5, 0.5])
//!     }
//!     fn metric(&self, _: &[&Vec<f64>], _: &[&usize]) -> f64 { 0.0 }
//! }
//!
//! let (pool, pool_labels) = (vec![vec![0.0]; 100], vec![0usize; 100]);
//! let (test, test_labels) = (vec![vec![0.0]; 20], vec![0usize; 20]);
//! let strategy = Strategy::new(BaseStrategy::Entropy)
//!     .with_history(HistoryPolicy::Wshs { l: 3 });
//! let mut learner = ActiveLearner::builder(MyModel)
//!     .pool(pool, pool_labels)
//!     .test(test, test_labels)
//!     .strategy(strategy)
//!     .config(PoolConfig::default())
//!     .seed(42)
//!     .build();
//! let result = learner.run().expect("entropy needs no extra capabilities");
//! for point in &result.curve {
//!     println!("{} labeled → metric {:.4}", point.n_labeled, point.metric);
//! }
//! ```
//!
//! The builder is a typestate chain — `pool`, `test` and `strategy` are
//! required (omitting one is a compile error), everything after is
//! optional. Observability hooks (a metrics registry and a crash-safe
//! run journal from the `histal-obs` crate) attach the same way; see
//! [`session::SessionBuilder`].

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod analysis;
pub mod driver;
pub mod error;
pub mod eval;
pub mod history;
pub mod learned;
pub mod lhs;
pub mod live;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod pool;
pub mod session;
pub mod stats;
pub mod stopping;
pub mod strategy;
pub mod tags;

pub use driver::{ActiveLearner, PoolConfig, RunResult};
pub use error::Error;
pub use eval::{EvalCaps, SampleEval};
pub use model::Model;
pub use strategy::Strategy;
