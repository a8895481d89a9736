//! The pool-based active learning driver.
//!
//! [`ActiveLearner`] runs the round pipeline of [`crate::live::Session`]
//! (fit → eval → score → fold history → select → annotate) against the
//! pool's hidden labels, repeated until the rounds are exhausted or a
//! [`StoppingRule`] fires. It is generic over [`Model`], so the same
//! driver executes both the text-classification and NER experiments
//! (and user-provided models). This module also holds the run's result
//! types and the selection helpers the pipeline shares.

use serde::{Deserialize, Serialize};

use histal_text::AnnConfig;
use histal_tseries::{exp_weighted_sum, window_variance};

use crate::error::Error;
use crate::history::HistoryStore;
use crate::live::Session;
use crate::model::Model;
use crate::session::{NeedsPool, SessionBuilder};
use crate::stopping::{StopReason, StoppingRule};

/// Static configuration of an active-learning run.
#[derive(Debug, Clone, Serialize)]
pub struct PoolConfig {
    /// Samples annotated per round.
    pub batch_size: usize,
    /// Number of selection rounds (the curve gets `rounds + 1` points).
    pub rounds: usize,
    /// Size of the random initial labeled set `s₀`.
    pub init_labeled: usize,
    /// Return the full per-sample history matrix in
    /// [`RunResult::history`] (off by default — it is `O(rounds · N)`).
    pub record_history: bool,
    /// Approximate-neighbor settings for the similarity combinators.
    /// `None` (the default) keeps the exhaustive exact sweeps —
    /// byte-identical results to every pre-ANN release; `Some` builds one
    /// seeded [`LshIndex`](histal_text::LshIndex) per run and routes
    /// density/MMR/k-center neighbor queries through it.
    pub ann: Option<AnnConfig>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            batch_size: 25,
            rounds: 20,
            init_labeled: 25,
            record_history: false,
            ann: None,
        }
    }
}

/// One point of the learning curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Labeled-set size when the metric was measured.
    pub n_labeled: usize,
    /// Test metric after training on that labeled set.
    pub metric: f64,
}

/// Per-round bookkeeping, including the Table 6 diagnostics and the
/// wall-clock breakdown behind the Table 2 efficiency argument.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Pool ids selected this round.
    pub selected: Vec<usize>,
    /// Mean WSHS score (window 3) of the selected samples at selection
    /// time — the quantity reported in Table 6.
    pub mean_wshs_of_selected: f64,
    /// Mean history fluctuation (window-3 variance) of the selected
    /// samples — the FHS column of Table 6.
    pub mean_fluct_of_selected: f64,
    /// Time spent training the model this round (milliseconds).
    pub fit_ms: f64,
    /// Time spent evaluating the unlabeled pool — the `O(T)` cost every
    /// strategy pays (milliseconds).
    pub eval_ms: f64,
    /// Time spent scoring: base scores, history folding, and density
    /// weighting — the per-sample cost the history-aware strategies add
    /// (milliseconds).
    #[serde(default)]
    pub score_ms: f64,
    /// Time spent selecting the batch from the final scores (top-k, MMR,
    /// k-center or LHS ranking; milliseconds).
    pub select_ms: f64,
}

/// The output of a full run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Human-readable strategy name (e.g. `"WSHS(entropy)"`, `"LHS(LC)"`).
    pub strategy_name: String,
    /// Learning curve: metric after the initial set, then after each batch.
    pub curve: Vec<CurvePoint>,
    /// Per-round selections and diagnostics.
    pub rounds: Vec<RoundRecord>,
    /// Per-sample historical evaluation sequences (indexed by pool id;
    /// a sample's sequence stops growing once it is labeled). Empty
    /// unless [`PoolConfig::record_history`] was set.
    #[serde(default)]
    pub history: Vec<Vec<f64>>,
}

impl RunResult {
    /// Metric at the largest labeled-set size, or `None` for a run whose
    /// curve is empty (previously this returned `0.0`, which silently
    /// read as "the model learned nothing" instead of "nothing ran").
    pub fn final_metric(&self) -> Option<f64> {
        self.curve.last().map(|p| p.metric)
    }
}

/// Diagnostic window used for the Table 6 statistics.
pub(crate) const DIAG_WINDOW: usize = 3;

/// A pool-based active learner (problem setting of §2, Figure 1): a
/// [`Session`] answered from the pool's hidden gold labels.
///
/// Construction goes through [`ActiveLearner::builder`]; [`run_until`]
/// loops the session's `step → answer_from_hidden → submit`, so a batch
/// run and an interactive session execute the same round body.
///
/// [`run_until`]: ActiveLearner::run_until
pub struct ActiveLearner<M: Model>(pub(crate) Session<M>);

impl<M: Model> ActiveLearner<M> {
    /// Start building a session: `ActiveLearner::builder(model)
    /// .pool(..).test(..).strategy(..).build()`. The builder enforces the
    /// required inputs at compile time and names the optional ones — see
    /// [`SessionBuilder`].
    pub fn builder(model: M) -> SessionBuilder<M, NeedsPool> {
        SessionBuilder::start(model)
    }

    /// Run the full loop. Returns an error if the strategy requires a
    /// capability the model does not provide, or if the run journal
    /// cannot be written. Once the run is complete, further calls
    /// return the same result.
    pub fn run(&mut self) -> Result<RunResult, Error> {
        self.run_until(&StoppingRule::none())
            .map(|(result, _)| result)
    }

    /// Run until the configured rounds complete or `rule` fires, whichever
    /// comes first. Returns the run and why it stopped. The rule is
    /// checked after every fit; the round whose fit fires it runs no
    /// eval, score or select.
    pub fn run_until(&mut self, rule: &StoppingRule) -> Result<(RunResult, StopReason), Error> {
        let result = self.0.run_hidden_until(rule)?;
        let reason = self
            .0
            .stop_reason()
            .expect("done session has a stop reason");
        Ok((result, reason))
    }

    /// Consume the learner, returning the trained model (e.g. to inspect
    /// it after a run).
    pub fn into_model(self) -> M {
        self.0.into_model()
    }
}

/// Positions of the `k` largest scores, best first.
///
/// Tie-breaking is part of the public contract (and pinned by a property
/// test in `tests/driver_props.rs`): **equal scores resolve toward the
/// lower index**, so a batch drawn from a pool of tied candidates is the
/// first `k` of them in pool order, independent of `k` and of any other
/// scores present. `NaN` scores sort after every real score (and among
/// themselves in pool order), keeping the comparator a total order: an
/// all-`NaN` (or otherwise constant) score vector degrades to
/// pool-order selection, and mixed `NaN`s sort deterministically rather
/// than panicking or varying by platform.
///
/// Runs as a bounded-heap partial selection in `O(n log k)` instead of a
/// full `O(n log n)` sort. The heap holds the best `k` seen so far, keyed
/// so its root is the *worst* member; a candidate replaces the root only
/// when it is strictly better under the full (score desc, index asc)
/// order, which reproduces the sort's tie-breaks exactly. `NaN` scores
/// need the sort's explicit NaN-last total order, so any `NaN` input (and
/// the trivial `k ≥ n` case) falls back to the full sort — provable
/// equivalence beats a heap on inputs that are degenerate anyway. The
/// equivalence over all inputs, `NaN`s included, is pinned by a property
/// test in `tests/driver_props.rs`.
pub fn top_k(scores: &[f64], k: usize) -> Vec<usize> {
    if k == 0 || scores.is_empty() {
        return Vec::new();
    }
    if k >= scores.len() || scores.iter().any(|s| s.is_nan()) {
        return top_k_full_sort(scores, k);
    }

    /// Heap key ordered worst-first: lower score is greater, then higher
    /// index is greater — the reverse of the selection order, so the
    /// binary max-heap's root is the eviction candidate.
    #[derive(PartialEq)]
    struct WorstFirst {
        score: f64,
        idx: usize,
    }
    impl Eq for WorstFirst {}
    impl Ord for WorstFirst {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Scores are NaN-free here (guarded above), so partial_cmp
            // is a total order.
            other
                .score
                .partial_cmp(&self.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.idx.cmp(&other.idx))
        }
    }
    impl PartialOrd for WorstFirst {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::with_capacity(k);
    for (idx, &score) in scores.iter().enumerate() {
        let cand = WorstFirst { score, idx };
        if heap.len() < k {
            heap.push(cand);
        } else if let Some(mut worst) = heap.peek_mut() {
            // `cand < worst` ⇔ cand ranks better; on a score tie the
            // later index is "greater" (worse), so ties keep the
            // incumbent lower index — the top_k contract.
            if cand < *worst {
                *worst = cand;
            }
        }
    }
    // Ascending by worst-first order = best first.
    heap.into_sorted_vec().into_iter().map(|e| e.idx).collect()
}

/// Full stable-order sort: [`top_k`]'s fallback, which defines the
/// contract on degenerate inputs.
///
/// `NaN` is ordered explicitly (after every real score, pool order
/// among `NaN`s) because `partial_cmp → Equal` is not transitive on
/// mixed-`NaN` input and the standard sort is allowed to panic on a
/// non-total comparator.
fn top_k_full_sort(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        let (sa, sb) = (scores[a], scores[b]);
        match (sa.is_nan(), sb.is_nan()) {
            (true, true) | (false, false) => sb
                .partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b)),
            (true, false) => std::cmp::Ordering::Greater,
            (false, true) => std::cmp::Ordering::Less,
        }
    });
    idx.truncate(k);
    idx
}

/// Mix a run seed, round and sample id into an independent stream seed.
pub(crate) fn mix_seed(seed: u64, round: u64, id: u64) -> u64 {
    let mut h =
        seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// HKLD score: mean KL divergence of the last-`k` posteriors from their
/// mean. Returns 0 with fewer than two recorded posteriors.
pub fn hkld_score(prob_seq: &[Vec<f64>], k: usize) -> f64 {
    let start = prob_seq.len().saturating_sub(k);
    hkld_score_members(prob_seq[start..].iter().map(|p| p.as_slice()))
}

/// HKLD over an already-windowed committee, oldest first. Shared by the
/// slice entry point above and the pipeline's ring-buffered posterior
/// history (summation order must match the slice path bit-for-bit).
pub(crate) fn hkld_score_members<'a>(window: impl Iterator<Item = &'a [f64]>) -> f64 {
    let members: Vec<&[f64]> = window.filter(|p| !p.is_empty()).collect();
    if members.len() < 2 {
        return 0.0;
    }
    let dim = members[0].len();
    if members.iter().any(|p| p.len() != dim) {
        return 0.0;
    }
    let mut avg = vec![0.0; dim];
    for p in &members {
        for (a, v) in avg.iter_mut().zip(p.iter()) {
            *a += v;
        }
    }
    for a in &mut avg {
        *a /= members.len() as f64;
    }
    let kl = |p: &[f64], q: &[f64]| -> f64 {
        p.iter()
            .zip(q)
            .filter(|(&pi, _)| pi > 0.0)
            .map(|(&pi, &qi)| pi * (pi / qi.max(1e-12)).ln())
            .sum()
    };
    // Gibbs' inequality guarantees non-negativity; clamp away the
    // floating-point noise that can leave a tiny negative residue.
    (members.iter().map(|p| kl(p, &avg)).sum::<f64>() / members.len() as f64).max(0.0)
}

pub(crate) fn selection_diagnostics(
    selected: &[usize],
    history: &HistoryStore,
    buf: &mut Vec<f64>,
) -> (f64, f64) {
    if selected.is_empty() {
        return (0.0, 0.0);
    }
    let mut wshs = 0.0;
    let mut fluct = 0.0;
    for &id in selected {
        history.seq(id).copy_into(buf);
        wshs += exp_weighted_sum(buf, DIAG_WINDOW);
        fluct += window_variance(buf, DIAG_WINDOW);
    }
    let n = selected.len() as f64;
    (wshs / n, fluct / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_descending() {
        assert_eq!(top_k(&[0.1, 0.9, 0.5], 2), vec![1, 2]);
        assert_eq!(top_k(&[0.5, 0.5], 2), vec![0, 1]);
        assert_eq!(top_k(&[1.0], 5), vec![0]);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn mix_seed_varies_by_all_inputs() {
        let base = mix_seed(1, 2, 3);
        assert_ne!(base, mix_seed(2, 2, 3));
        assert_ne!(base, mix_seed(1, 3, 3));
        assert_ne!(base, mix_seed(1, 2, 4));
        assert_eq!(base, mix_seed(1, 2, 3));
    }

    #[test]
    fn hkld_zero_for_insufficient_history() {
        assert_eq!(hkld_score(&[], 3), 0.0);
        assert_eq!(hkld_score(&[vec![0.5, 0.5]], 3), 0.0);
    }

    #[test]
    fn hkld_zero_for_agreeing_committee() {
        let seq = vec![vec![0.7, 0.3]; 4];
        assert!(hkld_score(&seq, 4).abs() < 1e-12);
    }

    #[test]
    fn hkld_positive_for_disagreement_and_uses_window() {
        let seq = vec![
            vec![0.99, 0.01], // outside window of k = 2
            vec![0.9, 0.1],
            vec![0.1, 0.9],
        ];
        let disagree = hkld_score(&seq, 2);
        assert!(disagree > 0.0);
        // Full window includes the extreme first posterior → larger KL.
        assert!(hkld_score(&seq, 3) > disagree);
    }

    #[test]
    fn hkld_tolerates_dimension_mismatch() {
        let seq = vec![vec![0.5, 0.5], vec![0.3, 0.3, 0.4]];
        assert_eq!(hkld_score(&seq, 2), 0.0);
    }

    #[test]
    fn diagnostics_empty_selection() {
        let h = HistoryStore::new(4, DIAG_WINDOW);
        assert_eq!(selection_diagnostics(&[], &h, &mut Vec::new()), (0.0, 0.0));
    }

    #[test]
    fn diagnostics_average_over_selection() {
        let mut h = HistoryStore::new(2, DIAG_WINDOW);
        for v in [0.0, 1.0, 0.0] {
            h.append(0, v);
        }
        for v in [0.5, 0.5, 0.5] {
            h.append(1, v);
        }
        let (w, f) = selection_diagnostics(&[0, 1], &h, &mut Vec::new());
        let w_expected =
            (exp_weighted_sum(&[0.0, 1.0, 0.0], 3) + exp_weighted_sum(&[0.5, 0.5, 0.5], 3)) / 2.0;
        let f_expected = (window_variance(&[0.0, 1.0, 0.0], 3) + 0.0) / 2.0;
        assert!((w - w_expected).abs() < 1e-12);
        assert!((f - f_expected).abs() < 1e-12);
    }
}
