//! The stages of one active-learning round, run by
//! [`Session`](crate::live::Session).
//!
//! The paper's loop (§2: train → score pool → fold history → annotate
//! batch → repeat) is decomposed into the stages below. Each arrow with
//! one implementation is a plain function; the two with several
//! variants are closed enums whose variant the session picks once, when
//! it is built:
//!
//! ```text
//!   fit_measure   train the model on L, measure the test metric
//!   eval_pool     evaluate every sample in U (parallel, seeded)
//!   score_base    φ_t(x) per evaluation (one RNG draw per sample)
//!   FoldHistory   append to H_t(x), fold H_t(x) → selection score
//!                 (Policy: WSHS/FHS/HUS/current; Hkld)
//!   Select        pick the batch (TopK / Mmr / KCenter / Lhs)
//!   annotate      a ticketed LabelRequest the caller answers
//! ```
//!
//! [`Session::compute_round`](crate::live::Session) is the only round
//! body; a `RoundCtx` carries its reusable per-round buffers and
//! per-stage timers.
//!
//! ## Ordering contract
//!
//! Stages that iterate the unlabeled pool do so in [`Pool::unlabeled`]
//! order (ascending by id). Three things observe that order and pin it:
//! the per-sample RNG draws in `score_base`, the density reference
//! subsample drawn inside the score stage, and [`top_k`]'s
//! lower-index-wins tie-break. See the `pool` module docs.

use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use histal_text::{NeighborIndex, PoolGeometry};

use crate::driver::{hkld_score_members, mix_seed, top_k};
use crate::error::Error;
use crate::eval::{EvalCaps, SampleEval};
use crate::history::{HistoryStore, Ring};
use crate::learned::{LearnedSelector, PoolMetaFeatures};
use crate::model::Model;
use crate::pool::{Pool, SampleId};
use crate::strategy::combinators::{kcenter_select, mmr_select, SimScratch};
use crate::strategy::{BaseStrategy, HistoryPolicy, MmrConfig};

// ---------------------------------------------------------------------------
// Round context
// ---------------------------------------------------------------------------

/// Wall-clock of each pipeline stage for one round, milliseconds. Feeds
/// the matching fields of [`RoundRecord`](crate::driver::RoundRecord)
/// (the Table 2 efficiency breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageTimers {
    /// Model training (`fit_measure`).
    pub fit_ms: f64,
    /// Pool evaluation (`eval_pool`).
    pub eval_ms: f64,
    /// Scoring: base scores, history folding and density weighting
    /// (`score_base` + [`FoldHistory`]).
    pub score_ms: f64,
    /// Batch selection ([`Select`]).
    pub select_ms: f64,
}

/// Reusable per-round working state: evaluation/score buffers, the
/// similarity scratch for the combinators, and the stage timers. One
/// `RoundCtx` lives for the whole run, so steady-state rounds reuse
/// every buffer instead of reallocating.
#[derive(Default)]
pub(crate) struct RoundCtx {
    /// Current round index (0-based).
    pub round: usize,
    /// Per-unlabeled-sample evaluations, in [`Pool::unlabeled`] order.
    pub evals: Vec<SampleEval>,
    /// Base scores `φ_t(x)`, parallel to `evals`.
    pub base_scores: Vec<f64>,
    /// Folded selection scores `F(H_t(x))`, parallel to `evals`.
    pub final_scores: Vec<f64>,
    /// Shared working memory for density/MMR/k-center.
    pub sim: SimScratch,
    /// Scratch for materializing history windows (diagnostics, LHS
    /// feature rows).
    pub seq_buf: Vec<f64>,
    /// This round's stage timings.
    pub timers: StageTimers,
}

impl RoundCtx {
    /// Fresh context with empty buffers.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Start round `round`: stamps the index and zeroes the timers. The
    /// data buffers keep their capacity and are overwritten by the
    /// stages that fill them.
    pub(crate) fn begin(&mut self, round: usize) {
        self.round = round;
        self.timers = StageTimers::default();
    }
}

// ---------------------------------------------------------------------------
// Fit, eval, base score
// ---------------------------------------------------------------------------

/// Train `model` from scratch on the full labeled set (the paper's
/// protocol) and return its test metric. The labeled slices arrive in
/// labeling order (see [`Pool::labeled`]); training is order-sensitive.
pub(crate) fn fit_measure<M: Model>(
    model: &mut M,
    samples: &[&M::Sample],
    labels: &[&M::Label],
    test_samples: &[&M::Sample],
    test_labels: &[&M::Label],
    rng: &mut ChaCha8Rng,
) -> f64 {
    model.fit(samples, labels, rng);
    model.metric(test_samples, test_labels)
}

/// Evaluate `samples[id]` for every `id` in `unlabeled` into `out`, in
/// `unlabeled` order. Data-parallel and deterministic: each sample's
/// stochastic estimates (MC dropout, committees) derive from
/// [`mix_seed`]`(seed, round, id)` alone, so the result is independent
/// of the worker count and of which thread evaluates which sample.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_pool<M: Model>(
    model: &M,
    samples: &[M::Sample],
    unlabeled: &[SampleId],
    caps: &EvalCaps,
    seed: u64,
    round: usize,
    out: &mut Vec<SampleEval>,
) {
    *out = unlabeled
        .par_iter()
        .map(|&id| {
            let s = mix_seed(seed, round as u64, id as u64);
            model.eval_sample(&samples[id], caps, s)
        })
        .collect();
}

/// Fill `out` with the per-iteration informative score `φ_t(x)` of
/// every evaluation under `base`.
///
/// Consumes exactly one RNG draw per evaluation, in `evals` order,
/// whether or not the draw is used — the draw sequence is part of the
/// byte-identical contract (the `Random` baseline and the density
/// subsample read the same stream).
pub(crate) fn score_base(
    base: BaseStrategy,
    evals: &[SampleEval],
    rng: &mut ChaCha8Rng,
    out: &mut Vec<f64>,
) -> Result<(), Error> {
    out.clear();
    for eval in evals {
        let r: f64 = rng.gen();
        out.push(base.base_score(eval, r)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// FoldHistory
// ---------------------------------------------------------------------------

/// Maintain the historical state and fold it into selection scores.
/// Split into two calls because recording mutates the store the session
/// owns, while folding only reads it.
pub(crate) enum FoldHistory {
    /// Scalar folding via a [`HistoryPolicy`] (current-only, HUS, WSHS,
    /// FHS) over the store's O(1) rolling statistics, which the session
    /// always enables for this variant.
    Policy(HistoryPolicy),
    /// The HKLD baseline (Davy & Luz 2007): the committee is the
    /// posteriors of the last `k` iterations; the score is the mean KL
    /// divergence of each member from the committee mean. Owns the
    /// per-sample posterior rings (the scalar history still receives the
    /// base scores, which the Table 6 diagnostics read).
    Hkld {
        /// Each sample's last `k` posteriors, refilled in place: a ring
        /// of `min(k, rounds)` slots, as a run records one per round.
        posteriors: Ring<Vec<f64>>,
    },
}

impl FoldHistory {
    /// HKLD over the last `k` posteriors of `n` samples in a run of
    /// `rounds` rounds.
    pub(crate) fn hkld(k: usize, n: usize, rounds: usize) -> Self {
        Self::Hkld {
            posteriors: Ring::new(n, k.min(rounds)),
        }
    }

    /// Append this round's base scores (and, for HKLD, the full
    /// posteriors) to the history.
    pub(crate) fn record(
        &mut self,
        unlabeled: &[SampleId],
        base_scores: &[f64],
        evals: &[SampleEval],
        history: &mut HistoryStore,
    ) {
        for (&id, &score) in unlabeled.iter().zip(base_scores) {
            history.append(id, score);
        }
        if let Self::Hkld { posteriors } = self {
            for (&id, eval) in unlabeled.iter().zip(evals) {
                posteriors.push(id).clone_from(&eval.probs);
            }
        }
    }

    /// Fold each unlabeled sample's history into its selection score,
    /// filling `out` in `unlabeled` order.
    pub(crate) fn fold(&self, unlabeled: &[SampleId], history: &HistoryStore, out: &mut Vec<f64>) {
        out.clear();
        match self {
            Self::Policy(policy) => out.extend(unlabeled.iter().map(|&id| {
                let stats = history
                    .rolling(id)
                    .expect("policy folds read the store's rolling statistics");
                policy.rolling_score(stats)
            })),
            Self::Hkld { posteriors } => out.extend(unlabeled.iter().map(|&id| {
                let (front, back) = posteriors.get(id);
                hkld_score_members(front.iter().chain(back).map(|p| p.as_slice()))
            })),
        }
    }
}

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

/// Everything a batch selector may consult, borrowed for one round.
pub(crate) struct SelectCtx<'a> {
    /// Folded selection scores, parallel to `unlabeled`.
    pub scores: &'a [f64],
    /// The unlabeled ids (ascending; see [`Pool::unlabeled`]).
    pub unlabeled: &'a [SampleId],
    /// This round's evaluations, parallel to `unlabeled`.
    pub evals: &'a [SampleEval],
    /// The scalar history store.
    pub history: &'a HistoryStore,
    /// Cached pool geometry, when representations were attached.
    pub geometry: Option<&'a PoolGeometry>,
    /// Approximate-neighbor index over the geometry rows, when the run
    /// was configured with [`PoolConfig::ann`](crate::driver::PoolConfig);
    /// `None` keeps the exact sweeps.
    pub index: Option<&'a dyn NeighborIndex>,
    /// Batch size, already clamped to the pool.
    pub batch: usize,
    /// Zero-based selection round index.
    pub round: usize,
    /// Labeled-set size going into this round.
    pub n_labeled: usize,
    /// Shared similarity scratch.
    pub scratch: &'a mut SimScratch,
    /// Scratch for materializing history windows.
    pub seq_buf: &'a mut Vec<f64>,
}

/// How a round picks its batch.
pub(crate) enum Select {
    /// The `k` best scores, ties toward the lower position (= lower id,
    /// given ascending `unlabeled`). See [`top_k`].
    TopK,
    /// Greedy MMR batch diversity (Eq. 8). Requires pool geometry.
    Mmr(MmrConfig),
    /// Greedy k-center (core-set) batch selection. Requires pool
    /// geometry.
    KCenter,
    /// The learned selector (LHS/LAL): ranks a candidate set (union of
    /// top-entropy and top-LC) with the trained ranker instead of
    /// sorting by the folded scores. The trained ranker and predictor
    /// are immutable at selection time, so one instance is shared
    /// through the [`Arc`] instead of deep-cloning the ensemble per run.
    Lhs(Arc<LearnedSelector>),
}

impl Select {
    /// Select the round's batch: up to `ctx.batch` *positions into
    /// `ctx.unlabeled`*, best first.
    pub(crate) fn select(&self, ctx: SelectCtx<'_>) -> Vec<usize> {
        match self {
            Self::TopK => top_k(ctx.scores, ctx.batch),
            Self::Mmr(cfg) => mmr_select(
                ctx.scores,
                ctx.unlabeled,
                ctx.geometry.expect("MMR selection requires pool geometry"),
                ctx.index,
                ctx.batch,
                cfg,
                ctx.scratch,
            ),
            Self::KCenter => kcenter_select(
                ctx.scores,
                ctx.unlabeled,
                ctx.geometry
                    .expect("k-center selection requires pool geometry"),
                ctx.index,
                ctx.batch,
                ctx.scratch,
            ),
            Self::Lhs(selector) => {
                let meta = selector.use_meta.then(|| {
                    PoolMetaFeatures::from_evals(
                        ctx.evals,
                        ctx.n_labeled,
                        ctx.n_labeled + ctx.unlabeled.len(),
                        ctx.round,
                    )
                });
                selector.select(
                    ctx.unlabeled,
                    ctx.evals,
                    ctx.history,
                    ctx.batch,
                    ctx.seq_buf,
                    meta.as_ref(),
                )
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Annotate
// ---------------------------------------------------------------------------

/// Monotonic identifier of one labeling request within a session. Tickets
/// start at 0 (the initial random labeled set) and increase by one per
/// selection round, so a ticket doubles as a round cursor: ticket `t + 1`
/// asks for round `t`'s batch.
pub type Ticket = u64;

/// A batch labeling request: the annotate boundary of the loop, made
/// explicit so labels can be produced *outside* the round (by a human
/// annotator, over the network, out of order). Issued by
/// [`Session`](crate::live::Session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelRequest {
    /// Request identifier, unique within the session.
    pub ticket: Ticket,
    /// Pool ids to annotate, in selection order (best first). The order
    /// is part of the request: labels are applied to the pool in this
    /// order regardless of arrival order, which keeps replays
    /// byte-identical.
    pub indices: Vec<SampleId>,
}

/// Labels answering (part of) a [`LabelRequest`]. A response may be
/// partial — any subset of the requested ids — and responses for one
/// ticket may arrive in any order; see
/// [`Session::submit`](crate::live::Session::submit).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelResponse<L> {
    /// The request being answered.
    pub ticket: Ticket,
    /// `(pool id, revealed label)` pairs.
    pub labels: Vec<(SampleId, L)>,
}

/// Apply a fully-fulfilled response: reveal each label, then move the
/// whole batch to the labeled side *in request order* (the order the
/// selector produced), independent of the order labels arrived in.
/// Panics if the response misses a requested id — callers gate on
/// completeness first.
pub(crate) fn apply_response<L: Clone>(
    request: &LabelRequest,
    response: &LabelResponse<L>,
    pool: &mut Pool,
    revealed: &mut [Option<L>],
) {
    for &(id, ref label) in &response.labels {
        revealed[id] = Some(label.clone());
    }
    for &id in &request.indices {
        assert!(
            revealed[id].is_some(),
            "label response for ticket {} misses sample {id}",
            request.ticket
        );
    }
    pool.label_batch(&request.indices);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_score_draws_once_per_eval() {
        use rand::SeedableRng;
        let evals = vec![SampleEval::from_probs(vec![0.5, 0.5]); 3];
        let mut rng_a = ChaCha8Rng::seed_from_u64(7);
        let mut out = Vec::new();
        score_base(BaseStrategy::Random, &evals, &mut rng_a, &mut out).unwrap();
        // The same seed replayed by hand gives the same three draws.
        let mut rng_b = ChaCha8Rng::seed_from_u64(7);
        let expect: Vec<f64> = (0..3).map(|_| rng_b.gen()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn policy_fold_matches_slice_oracle() {
        // The fold reads the rolling trackers; the slice fold over the
        // retained (ring-wrapped) sequence is the oracle, to the rounding
        // the rolling updates' addition order allows.
        let policy = HistoryPolicy::Wshs { l: 3 };
        let mut history = HistoryStore::new(2, 3).with_rolling(policy.window());
        for v in [0.1, 0.9, 0.4, 0.7] {
            history.append(0, v);
            history.append(1, 1.0 - v);
        }
        let fold = FoldHistory::Policy(policy);
        let mut out = Vec::new();
        fold.fold(&[0, 1], &history, &mut out);
        for (pos, &id) in [0usize, 1].iter().enumerate() {
            let expect = policy.final_score(&history.seq(id).to_vec());
            assert!((out[pos] - expect).abs() <= 1e-12, "sample {id}");
        }
    }

    #[test]
    fn hkld_fold_reads_the_last_k_posteriors() {
        let mut history = HistoryStore::new(2, 4);
        let mut fold = FoldHistory::hkld(2, 2, 4);
        let rounds: [[Vec<f64>; 2]; 4] = [
            [vec![0.9, 0.1], vec![0.5, 0.5]],
            [vec![0.1, 0.9], vec![]],
            [vec![0.5, 0.5], vec![0.2, 0.3, 0.5]],
            [vec![0.7, 0.3], vec![0.6, 0.4]],
        ];
        let mut seen: [Vec<Vec<f64>>; 2] = Default::default();
        let mut out = Vec::new();
        for probs in rounds {
            let evals: Vec<SampleEval> =
                probs.iter().cloned().map(SampleEval::from_probs).collect();
            fold.record(&[0, 1], &[0.0, 0.0], &evals, &mut history);
            fold.fold(&[0, 1], &history, &mut out);
            for (id, p) in probs.into_iter().enumerate() {
                seen[id].push(p);
                // The slice entry point over everything recorded is the
                // oracle; sample 1's empty and wider posteriors exercise
                // the skip and width-mismatch paths.
                assert_eq!(
                    out[id].to_bits(),
                    crate::driver::hkld_score(&seen[id], 2).to_bits()
                );
            }
        }
        assert!(out[0] > 0.0);
    }
}
