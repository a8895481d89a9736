//! The model abstraction the active-learning driver trains and queries.

use rand_chacha::ChaCha8Rng;

use crate::eval::{EvalCaps, SampleEval};

/// An underlying task model (the paper's TextCNN / BiLSTM-CNNs-CRF slot).
///
/// Implementations live in `histal-models`; the driver only relies on this
/// trait, so custom models plug in directly (see the `custom_strategy`
/// example).
///
/// ### Contract
///
/// * [`Model::fit`] is called once per AL round with the **entire** current
///   labeled set. Implementations may retrain from scratch or fine-tune —
///   the paper fine-tunes for a fixed number of epochs, which is what the
///   built-in models do.
/// * [`Model::eval_sample`] must be pure given `(self, sample, caps, seed)`
///   — it is called from parallel workers. Stochastic estimates (MC
///   dropout, committee sampling) must derive their randomness from
///   `seed` alone so runs are reproducible.
/// * [`Model::metric`] is the task's headline number (accuracy for text
///   classification, span-F1 for NER); the driver records it per round and
///   the LHS trainer differentiates it (`Eval(M′) − Eval(M)`).
pub trait Model: Send + Sync + 'static {
    /// Pool / test sample type (a featurized document or sentence).
    type Sample: Send + Sync + 'static;
    /// Gold label type (class index or tag sequence). `PartialEq` lets a
    /// session tell an idempotent label re-delivery from a conflicting
    /// one.
    type Label: Send + Sync + Clone + PartialEq + 'static;

    /// Train on the labeled set. `rng` drives shuffling and any
    /// stochastic regularization.
    fn fit(&mut self, samples: &[&Self::Sample], labels: &[&Self::Label], rng: &mut ChaCha8Rng);

    /// Evaluate one unlabeled sample, computing the optional quantities
    /// requested in `caps`.
    fn eval_sample(&self, sample: &Self::Sample, caps: &EvalCaps, seed: u64) -> SampleEval;

    /// Task metric on a held-out set (higher is better).
    fn metric(&self, samples: &[&Self::Sample], labels: &[&Self::Label]) -> f64;
}
