//! # histal-models — the ML substrate under the active-learning loop
//!
//! The paper fine-tunes a TextCNN for text classification and a
//! BiLSTM-CNNs-CRF for NER. This crate provides pure-Rust stand-ins that
//! expose *exactly the quantities the query strategies consume* (class
//! posteriors, expected gradient lengths, per-word embedding gradients,
//! MC-dropout posteriors, committee disagreement, sequence path
//! probabilities) while training in milliseconds on CPU:
//!
//! * [`TextClassifier`] — multinomial logistic regression over hashed
//!   bag-of-n-grams features, with warm-start SGD fine-tuning, closed-form
//!   EGL / EGL-word, MC-dropout BALD, and bootstrap committees for QBC;
//! * [`CrfTagger`] — a linear-chain CRF with exact forward–backward
//!   marginals, Viterbi decoding, and the MNLP score.
//!
//! Both implement [`histal_core::Model`], so they plug straight into
//! [`histal_core::ActiveLearner`]. See `DESIGN.md` at the workspace root
//! for the substitution rationale.

#![deny(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod crf;
pub(crate) mod document;
pub mod kernels;
pub(crate) mod logreg;
pub(crate) mod math;
pub(crate) mod nb;
pub mod parallel;
#[allow(unsafe_code)]
pub mod vexp;

pub use crf::{CrfConfig, CrfTagger, Sentence};
pub use document::Document;
pub use logreg::{TextClassifier, TextClassifierConfig};
pub use nb::{NaiveBayes, NaiveBayesConfig};
