//! Linear-chain CRF sequence tagger.
//!
//! The BiLSTM-CNNs-CRF stand-in for the NER task. Emission scores are
//! linear in hashed token features (word identity, neighbours, character
//! n-grams, shape — the information the reference model's CNN/embedding
//! layers provide); transitions, start and end scores are dense. Training
//! minimizes the exact negative log-likelihood via forward–backward;
//! decoding is Viterbi. The sequence-level query-strategy quantities are
//! exact:
//!
//! * `1 − P(ŷ|x)` (least confidence over the best path),
//! * MNLP (Eq. 13): the length-normalized best-path log-probability,
//! * per-token marginal entropies (mean = the sequence entropy score),
//! * top-2 path margin via 2-best Viterbi (Scheffer et al. 2001),
//! * MC-dropout BALD via per-token Viterbi variation ratios (the
//!   sequence-model BALD of Siddhant & Lipton 2018),
//! * bootstrap-committee QBC over token marginals (Eq. 6).

#![allow(clippy::needless_range_loop)]
#![allow(clippy::identity_op)]

use std::cell::RefCell;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::metrics::span_f1;
use histal_core::model::Model;
use histal_core::tags::TagScheme;
use histal_obs::span;
use histal_obs::trace::Level;
use histal_text::{char_ngrams, FeatureHasher, SparseVec};

use crate::kernels;
use crate::math::logsumexp;

/// A featurized sentence: one sparse emission-feature vector per token.
#[derive(Debug, Clone, Default)]
pub struct Sentence {
    /// Per-token emission features.
    pub token_feats: Vec<SparseVec>,
}

impl Sentence {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.token_feats.len()
    }

    /// True for the empty sentence.
    pub fn is_empty(&self) -> bool {
        self.token_feats.is_empty()
    }

    /// Standard NER feature template: current/previous/next word,
    /// lowercased word, character 3-grams, and shape flags (capitalized,
    /// all-caps, digit), all hashed into one space.
    pub fn featurize(tokens: &[String], hasher: &FeatureHasher) -> Self {
        let token_feats = (0..tokens.len())
            .map(|i| {
                let mut feats: Vec<String> = Vec::with_capacity(12);
                let w = &tokens[i];
                feats.push(format!("w={w}"));
                feats.push(format!("lw={}", w.to_lowercase()));
                if i > 0 {
                    feats.push(format!("w-1={}", tokens[i - 1]));
                } else {
                    feats.push("BOS".to_string());
                }
                if i + 1 < tokens.len() {
                    feats.push(format!("w+1={}", tokens[i + 1]));
                } else {
                    feats.push("EOS".to_string());
                }
                for g in char_ngrams(w, 3) {
                    feats.push(format!("c3={g}"));
                }
                if w.chars().next().is_some_and(|c| c.is_uppercase()) {
                    feats.push("cap".to_string());
                }
                if w.chars().all(|c| c.is_uppercase()) && w.len() > 1 {
                    feats.push("allcap".to_string());
                }
                if w.chars().any(|c| c.is_ascii_digit()) {
                    feats.push("digit".to_string());
                }
                hasher.hash_bag_normalized(feats.iter().map(String::as_str))
            })
            .collect();
        Self { token_feats }
    }
}

/// Hyper-parameters for [`CrfTagger`].
#[derive(Debug, Clone)]
pub struct CrfConfig {
    /// Hashed emission feature width.
    pub n_features: u32,
    /// SGD epochs per [`Model::fit`] call.
    pub epochs: usize,
    /// SGD step size.
    pub lr: f64,
    /// L2 decay on touched emission weights and all transitions.
    pub l2: f64,
    /// Inference-time emission-feature dropout for BALD.
    pub dropout: f64,
    /// Training-time emission-feature dropout (the reference model trains
    /// with dropout); also the source of the round-to-round score
    /// fluctuation the history strategies exploit.
    pub train_dropout: f64,
    /// MC-dropout passes for BALD.
    pub mc_passes: usize,
    /// Fine-tune across fits (paper behaviour) or retrain from zero.
    pub warm_start: bool,
    /// Bootstrap committee size for QBC; 0 disables committee training.
    pub committee: usize,
    /// Epochs per committee member.
    pub committee_epochs: usize,
    /// Tag inventory (provides the span-F1 metric).
    pub scheme: TagScheme,
    /// Log-domain beam width for **scoring-only** pruned
    /// forward–backward (DESIGN.md §5.7). `None` (the default) keeps
    /// every strategy-scoring pass exact. `Some(δ)` prunes source
    /// states more than `δ` below each timestep's best forward score
    /// when computing `logZ`/entropy inside [`Model::eval_sample`];
    /// `|logZ_pruned − logZ| ≤ −(T−1)·ln(1 − L·e^{−δ})` for
    /// `L·e^{−δ} < 1` (L = label count, T = sentence length). Training,
    /// decoding and the span-F1 metric never use the beam.
    pub score_beam: Option<f64>,
}

impl Default for CrfConfig {
    fn default() -> Self {
        Self {
            n_features: 1 << 16,
            epochs: 8,
            lr: 0.3,
            l2: 1e-6,
            dropout: 0.2,
            train_dropout: 0.25,
            mc_passes: 8,
            warm_start: true,
            committee: 0,
            committee_epochs: 3,
            scheme: TagScheme::conll(),
            score_beam: None,
        }
    }
}

/// Reusable flat (row-major `t_len × n_labels`) lattice buffers for the
/// evaluation paths. `eval_sample` runs once per unlabeled sample per
/// round, and every call used to allocate fresh nested `Vec<Vec<f64>>`
/// lattices; one scratch per thread amortizes all of that away. The
/// flat layout performs the exact same floating-point operations in the
/// same order as the nested reference implementations (`forward`,
/// `backward`), so scores are bit-identical — see
/// `flat_eval_matches_nested_reference`.
#[derive(Debug, Default)]
struct LatticeScratch {
    /// Emission scores `e[t*l + y]`.
    e: Vec<f64>,
    /// Forward lattice `α[t*l + y]`.
    alpha: Vec<f64>,
    /// Backward lattice `β[t*l + y]`.
    beta: Vec<f64>,
    /// Per-cell logsumexp row (`n_labels` long).
    row: Vec<f64>,
    /// Viterbi score lattice.
    delta: Vec<f64>,
    /// Viterbi backpointers.
    back: Vec<u16>,
    /// Decoded tag buffer.
    tags: Vec<u16>,
    /// 2-best lattice columns (best, second) per label.
    best2: Vec<(f64, f64)>,
    next2: Vec<(f64, f64)>,
    /// Marginal row for the entropy accumulation.
    probs: Vec<f64>,
    /// BALD vote counts `votes[t*l + tag]`.
    votes: Vec<u32>,
    /// Prepared (bounds-filtered, f64-widened) features `(idx, val)`
    /// for the current sentence, and per-token offsets (`poff[t]..
    /// poff[t+1]` is token `t`'s window). Every lattice pass over one
    /// sentence — exact fill, the BALD dropout fills, repeat Viterbi
    /// decodes — shares this one preparation.
    pfeat: Vec<(u32, f64)>,
    poff: Vec<usize>,
    /// The features a BALD dropout mask kept from one token's window.
    kept: Vec<(u32, f64)>,
    /// Transposed transitions `trans_t[y*l + p] = trans[p*l + y]`, so
    /// forward/Viterbi row fills read contiguous rows.
    trans_t: Vec<f64>,
    /// Beam-active label sets per timestep (flattened + offsets).
    act: Vec<u16>,
    act_off: Vec<usize>,
}

thread_local! {
    static LATTICE: RefCell<LatticeScratch> = RefCell::new(LatticeScratch::default());
}

/// Borrow this thread's lattice scratch. Callees must not re-enter (the
/// public wrappers borrow once and hand `&mut LatticeScratch` down).
fn with_lattice<R>(f: impl FnOnce(&mut LatticeScratch) -> R) -> R {
    LATTICE.with(|cell| f(&mut cell.borrow_mut()))
}

/// The CRF model (paper Task 2 substrate).
#[derive(Debug, Clone)]
pub struct CrfTagger {
    config: CrfConfig,
    n_labels: usize,
    /// Feature-major `n_features × n_labels` emission weights:
    /// `emit[idx*l + y]`. Feature-major puts all labels of one hashed
    /// feature in one contiguous (vectorizable, cache-friendly) row,
    /// which is the layout every hot loop walks: emission fills and the
    /// sparse SGD updates both iterate features outer, labels inner.
    /// For any fixed `(t, y)` cell the accumulation still runs in
    /// feature order, so scores are bit-identical to the historical
    /// label-major layout.
    emit: Vec<f64>,
    /// `trans[prev * n_labels + cur]`.
    trans: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
    /// Bootstrap committee members (empty unless `config.committee > 0`).
    committee: Vec<CrfTagger>,
}

impl CrfTagger {
    /// A fresh zero-weight tagger.
    pub fn new(config: CrfConfig) -> Self {
        let n_labels = config.scheme.n_labels();
        assert!(n_labels >= 2, "need at least two labels");
        assert!(
            (0.0..1.0).contains(&config.dropout),
            "dropout must be in [0, 1)"
        );
        let nf = config.n_features as usize;
        Self {
            emit: vec![0.0; n_labels * nf],
            trans: vec![0.0; n_labels * n_labels],
            start: vec![0.0; n_labels],
            end: vec![0.0; n_labels],
            n_labels,
            committee: Vec::new(),
            config,
        }
    }

    /// Minibatch size for the parallel SGD kernel: per-sentence
    /// gradients inside one minibatch are taken at the batch-start
    /// weights and applied as a sum. Part of the training semantics —
    /// must not depend on the thread count.
    const MINIBATCH: usize = 4;
    /// Sentences per parallel accumulation chunk (see
    /// [`crate::parallel::chunked_grads`]); fixed for determinism.
    const GRAD_CHUNK: usize = 1;

    /// The contiguous per-feature weight row `emit[idx*l ..][..l]`.
    #[inline]
    fn emit_row(&self, idx: usize) -> &[f64] {
        &self.emit[idx * self.n_labels..(idx + 1) * self.n_labels]
    }

    /// Emission score matrix `E[t][y]` for a sentence — the nested
    /// reference implementation (tests, `marginals`, `nll`).
    fn emissions(&self, s: &Sentence) -> Vec<Vec<f64>> {
        let nf = self.config.n_features as usize;
        let l = self.n_labels;
        s.token_feats
            .iter()
            .map(|x| {
                let mut row = vec![0.0; l];
                for (idx, val) in x.iter() {
                    // Out-of-range hashed indices contribute zero.
                    if (idx as usize) < nf {
                        kernels::axpy(&mut row, self.emit_row(idx as usize), val as f64);
                    }
                }
                row
            })
            .collect()
    }

    /// Flat emission matrix `e[t*l + y]` into a reusable buffer.
    fn emissions_into(&self, s: &Sentence, e: &mut Vec<f64>) {
        let nf = self.config.n_features as usize;
        let l = self.n_labels;
        e.clear();
        e.resize(s.len() * l, 0.0);
        for (t, x) in s.token_feats.iter().enumerate() {
            let row = &mut e[t * l..(t + 1) * l];
            for (idx, val) in x.iter() {
                if (idx as usize) < nf {
                    kernels::axpy(row, self.emit_row(idx as usize), val as f64);
                }
            }
        }
    }

    /// Bounds-filter and f64-widen a sentence's features once, into
    /// flat per-token windows. All lattice passes over the sentence
    /// (exact fill + every BALD dropout fill) then share this single
    /// preparation instead of re-walking the `SparseVec`s.
    fn prepare_feats(&self, s: &Sentence, pfeat: &mut Vec<(u32, f64)>, poff: &mut Vec<usize>) {
        let nf = self.config.n_features as usize;
        pfeat.clear();
        poff.clear();
        poff.push(0);
        for x in &s.token_feats {
            pfeat.extend(
                x.iter()
                    .filter(|&(idx, _)| (idx as usize) < nf)
                    .map(|(idx, val)| (idx, val as f64)),
            );
            poff.push(pfeat.len());
        }
    }

    /// Flat emission fill from prepared features.
    fn fill_emissions(&self, pfeat: &[(u32, f64)], poff: &[usize], e: &mut Vec<f64>) {
        let l = self.n_labels;
        let t_len = poff.len() - 1;
        e.clear();
        e.resize(t_len * l, 0.0);
        for t in 0..t_len {
            let row = &mut e[t * l..(t + 1) * l];
            for &(idx, v) in &pfeat[poff[t]..poff[t + 1]] {
                kernels::axpy(row, self.emit_row(idx as usize), v);
            }
        }
    }

    /// Flat emission fill under a random dropout mask, from prepared
    /// features; `kept` is scratch at least as long as the longest
    /// token window. Draws one uniform per prepared feature, in token
    /// and feature order.
    fn fill_emissions_dropout(
        &self,
        pfeat: &[(u32, f64)],
        poff: &[usize],
        rng: &mut ChaCha8Rng,
        kept: &mut [(u32, f64)],
        e: &mut Vec<f64>,
    ) {
        let l = self.n_labels;
        let keep = 1.0 - self.config.dropout;
        let scale = 1.0 / keep;
        let t_len = poff.len() - 1;
        e.clear();
        e.resize(t_len * l, 0.0);
        for t in 0..t_len {
            let row = &mut e[t * l..(t + 1) * l];
            let n_kept = kernels::dropout_mask(&pfeat[poff[t]..poff[t + 1]], keep, rng, kept);
            for &(idx, v) in &kept[..n_kept] {
                kernels::axpy(row, self.emit_row(idx as usize), v * scale);
            }
        }
    }

    /// Transposed transitions `trans_t[y*l + p] = trans[p*l + y]` for
    /// contiguous forward/Viterbi row fills. O(L²) copies — negligible
    /// next to one lattice pass.
    fn fill_trans_t(&self, trans_t: &mut Vec<f64>) {
        let l = self.n_labels;
        trans_t.clear();
        trans_t.resize(l * l, 0.0);
        for p in 0..l {
            for y in 0..l {
                trans_t[y * l + p] = self.trans[p * l + y];
            }
        }
    }

    /// Forward pass on a flat emission matrix; fills `alpha` and returns
    /// `logZ`. Same operations in the same order as [`Self::forward`]:
    /// the vectorized row fill `α[t−1][p] + trans[p][y]` produces the
    /// exact operands the scalar loop fed `logsumexp`, and the
    /// (order-sensitive) sum of exponentials stays scalar inside
    /// `logsumexp` itself.
    fn forward_flat(
        &self,
        e: &[f64],
        trans_t: &[f64],
        alpha: &mut Vec<f64>,
        row: &mut Vec<f64>,
    ) -> f64 {
        let l = self.n_labels;
        let t_len = e.len() / l;
        alpha.clear();
        alpha.resize(t_len * l, 0.0);
        row.clear();
        row.resize(l, 0.0);
        for y in 0..l {
            alpha[y] = self.start[y] + e[y];
        }
        for t in 1..t_len {
            let (prev, cur) = alpha.split_at_mut(t * l);
            let aprev = &prev[(t - 1) * l..];
            for y in 0..l {
                kernels::add2(row, aprev, &trans_t[y * l..(y + 1) * l]);
                cur[y] = logsumexp(row) + e[t * l + y];
            }
        }
        for y in 0..l {
            row[y] = alpha[(t_len - 1) * l + y] + self.end[y];
        }
        logsumexp(row)
    }

    /// Backward pass on a flat emission matrix; fills `beta`. The row
    /// fill keeps the reference association `(trans + e) + β`.
    fn backward_flat(&self, e: &[f64], beta: &mut Vec<f64>, row: &mut Vec<f64>) {
        let l = self.n_labels;
        let t_len = e.len() / l;
        beta.clear();
        beta.resize(t_len * l, 0.0);
        row.clear();
        row.resize(l, 0.0);
        beta[(t_len - 1) * l..].copy_from_slice(&self.end);
        for t in (0..t_len - 1).rev() {
            let (cur, next) = beta.split_at_mut((t + 1) * l);
            let bnext = &next[..l];
            let enext = &e[(t + 1) * l..(t + 2) * l];
            for y in 0..l {
                kernels::add3(row, &self.trans[y * l..(y + 1) * l], enext, bnext);
                cur[t * l + y] = logsumexp(row);
            }
        }
    }

    /// Viterbi on a flat emission matrix with reusable lattices; fills
    /// `tags` with the best path and returns its unnormalized score.
    /// The max-sum recursion's argmax is [`kernels::max_index`], which
    /// keeps the earliest index on ties.
    fn viterbi_flat(
        &self,
        e: &[f64],
        trans_t: &[f64],
        delta: &mut Vec<f64>,
        back: &mut Vec<u16>,
        tags: &mut Vec<u16>,
        row: &mut Vec<f64>,
    ) -> f64 {
        let l = self.n_labels;
        let t_len = e.len() / l;
        delta.clear();
        delta.resize(t_len * l, 0.0);
        back.clear();
        back.resize(t_len * l, 0);
        row.clear();
        row.resize(l, 0.0);
        for y in 0..l {
            delta[y] = self.start[y] + e[y];
        }
        for t in 1..t_len {
            let (prev, cur) = delta.split_at_mut(t * l);
            let dprev = &prev[(t - 1) * l..];
            for y in 0..l {
                kernels::add2(row, dprev, &trans_t[y * l..(y + 1) * l]);
                let (best, arg) = kernels::max_index(row);
                cur[y] = best + e[t * l + y];
                back[t * l + y] = arg as u16;
            }
        }
        kernels::add2(row, &delta[(t_len - 1) * l..], &self.end);
        let (best, mut cur) = kernels::max_index(row);
        tags.clear();
        tags.resize(t_len, 0);
        tags[t_len - 1] = cur as u16;
        for t in (1..t_len).rev() {
            cur = back[t * l + cur] as usize;
            tags[t - 1] = cur as u16;
        }
        best
    }

    /// 2-best Viterbi on a flat emission matrix with reusable columns.
    fn viterbi2_flat(
        &self,
        e: &[f64],
        delta: &mut Vec<(f64, f64)>,
        next: &mut Vec<(f64, f64)>,
    ) -> (f64, f64) {
        let l = self.n_labels;
        let t_len = e.len() / l;
        delta.clear();
        delta.resize(l, (f64::NEG_INFINITY, f64::NEG_INFINITY));
        for (y, d) in delta.iter_mut().enumerate() {
            d.0 = self.start[y] + e[y];
        }
        next.clear();
        next.resize(l, (f64::NEG_INFINITY, f64::NEG_INFINITY));
        for t in 1..t_len {
            for (y, n) in next.iter_mut().enumerate() {
                let (mut b1, mut b2) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for (p, d) in delta.iter().enumerate() {
                    let tr = self.trans[p * l + y];
                    for cand in [d.0 + tr, d.1 + tr] {
                        if cand > b1 {
                            b2 = b1;
                            b1 = cand;
                        } else if cand > b2 {
                            b2 = cand;
                        }
                    }
                }
                *n = (b1 + e[t * l + y], b2 + e[t * l + y]);
            }
            std::mem::swap(delta, next);
        }
        let (mut b1, mut b2) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (y, d) in delta.iter().enumerate() {
            for cand in [d.0 + self.end[y], d.1 + self.end[y]] {
                if cand > b1 {
                    b2 = b1;
                    b1 = cand;
                } else if cand > b2 {
                    b2 = cand;
                }
            }
        }
        (b1, b2)
    }

    /// Append the labels of `row` within `delta` of its maximum to
    /// `act`. With `delta = ∞` every (non-NaN) label stays active.
    fn prune_row(row: &[f64], delta: f64, act: &mut Vec<u16>) {
        let (m, _) = kernels::max_index(row);
        let thr = m - delta;
        for (y, &v) in row.iter().enumerate() {
            if v >= thr {
                act.push(y as u16);
            }
        }
    }

    /// Beam-pruned forward pass (scoring only — see
    /// [`CrfConfig::score_beam`]). Every `α[t][y]` cell is still
    /// computed, but the transition sum at step `t` runs over only the
    /// *source* labels within `delta` of step `t−1`'s best forward
    /// score; the per-step active sets are recorded in `act`/`act_off`
    /// for the matching backward pass. Dropping a source can only
    /// remove probability mass, so the returned `logZ` underestimates
    /// the exact one by at most `−(T−1)·ln(1 − L·e^{−δ})` nats (each
    /// step discards at most `L·e^{−δ}` of its relative mass). With
    /// `delta = ∞` nothing is pruned and every output is bit-identical
    /// to [`Self::forward_flat`].
    #[allow(clippy::too_many_arguments)]
    fn forward_beam(
        &self,
        e: &[f64],
        trans_t: &[f64],
        delta: f64,
        alpha: &mut Vec<f64>,
        row: &mut Vec<f64>,
        act: &mut Vec<u16>,
        act_off: &mut Vec<usize>,
    ) -> f64 {
        let l = self.n_labels;
        let t_len = e.len() / l;
        alpha.clear();
        alpha.resize(t_len * l, 0.0);
        act.clear();
        act_off.clear();
        act_off.push(0);
        row.clear();
        row.resize(l, 0.0);
        for y in 0..l {
            alpha[y] = self.start[y] + e[y];
        }
        Self::prune_row(&alpha[..l], delta, act);
        act_off.push(act.len());
        for t in 1..t_len {
            let (prev, cur) = alpha.split_at_mut(t * l);
            let aprev = &prev[(t - 1) * l..];
            let srcs = &act[act_off[t - 1]..act_off[t]];
            for y in 0..l {
                let ty = &trans_t[y * l..(y + 1) * l];
                row.clear();
                // Sources in index order: with a full active set this
                // reproduces the exact row, value for value.
                for &p in srcs {
                    row.push(aprev[p as usize] + ty[p as usize]);
                }
                cur[y] = logsumexp(row) + e[t * l + y];
            }
            let full = &alpha[t * l..(t + 1) * l];
            Self::prune_row(full, delta, act);
            act_off.push(act.len());
        }
        row.clear();
        row.resize(l, 0.0);
        for y in 0..l {
            row[y] = alpha[(t_len - 1) * l + y] + self.end[y];
        }
        logsumexp(row)
    }

    /// Backward pass restricted to the forward beam's per-step active
    /// sets. With full active sets it is bit-identical to
    /// [`Self::backward_flat`].
    fn backward_beam(
        &self,
        e: &[f64],
        beta: &mut Vec<f64>,
        row: &mut Vec<f64>,
        act: &[u16],
        act_off: &[usize],
    ) {
        let l = self.n_labels;
        let t_len = e.len() / l;
        beta.clear();
        beta.resize(t_len * l, 0.0);
        beta[(t_len - 1) * l..].copy_from_slice(&self.end);
        for t in (0..t_len - 1).rev() {
            let (cur, next) = beta.split_at_mut((t + 1) * l);
            let bnext = &next[..l];
            let enext = &e[(t + 1) * l..(t + 2) * l];
            let nexts = &act[act_off[t + 1]..act_off[t + 2]];
            for y in 0..l {
                let tr = &self.trans[y * l..(y + 1) * l];
                row.clear();
                for &n in nexts {
                    let n = n as usize;
                    row.push((tr[n] + enext[n]) + bnext[n]);
                }
                cur[t * l + y] = logsumexp(row);
            }
        }
    }

    /// Log-space forward pass; returns `(alpha, logZ)`.
    fn forward(&self, e: &[Vec<f64>]) -> (Vec<Vec<f64>>, f64) {
        let t_len = e.len();
        let l = self.n_labels;
        let mut alpha = vec![vec![0.0; l]; t_len];
        for y in 0..l {
            alpha[0][y] = self.start[y] + e[0][y];
        }
        let mut scratch = vec![0.0; l];
        for t in 1..t_len {
            for y in 0..l {
                for (p, s) in scratch.iter_mut().enumerate() {
                    *s = alpha[t - 1][p] + self.trans[p * l + y];
                }
                alpha[t][y] = logsumexp(&scratch) + e[t][y];
            }
        }
        let final_scores: Vec<f64> = (0..l).map(|y| alpha[t_len - 1][y] + self.end[y]).collect();
        let log_z = logsumexp(&final_scores);
        (alpha, log_z)
    }

    /// Log-space backward pass.
    fn backward(&self, e: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let t_len = e.len();
        let l = self.n_labels;
        let mut beta = vec![vec![0.0; l]; t_len];
        beta[t_len - 1].copy_from_slice(&self.end);
        let mut scratch = vec![0.0; l];
        for t in (0..t_len - 1).rev() {
            for y in 0..l {
                for (n, s) in scratch.iter_mut().enumerate() {
                    *s = self.trans[y * l + n] + e[t + 1][n] + beta[t + 1][n];
                }
                beta[t][y] = logsumexp(&scratch);
            }
        }
        beta
    }

    /// Per-token posterior marginals `γ_t(y)`.
    pub fn marginals(&self, s: &Sentence) -> Vec<Vec<f64>> {
        if s.is_empty() {
            return Vec::new();
        }
        let e = self.emissions(s);
        let (alpha, log_z) = self.forward(&e);
        let beta = self.backward(&e);
        alpha
            .iter()
            .zip(&beta)
            .map(|(a, b)| {
                a.iter()
                    .zip(b)
                    .map(|(&ai, &bi)| (ai + bi - log_z).exp())
                    .collect()
            })
            .collect()
    }

    /// Viterbi decoding: `(best tag sequence, unnormalized path score)`.
    pub fn viterbi(&self, s: &Sentence) -> (Vec<u16>, f64) {
        if s.is_empty() {
            return (Vec::new(), 0.0);
        }
        with_lattice(|ws| {
            let LatticeScratch {
                e,
                delta,
                back,
                tags,
                row,
                trans_t,
                ..
            } = ws;
            self.emissions_into(s, e);
            self.fill_trans_t(trans_t);
            let score = self.viterbi_flat(e, trans_t, delta, back, tags, row);
            (tags.clone(), score)
        })
    }

    /// Log partition function `ln Z(x)`, honoring
    /// [`CrfConfig::score_beam`]: exact when the beam is unset,
    /// beam-pruned (underestimating by at most the documented bound)
    /// when set. Exposed so the beam's error-bound and rank-stability
    /// properties can be tested against the exact oracle directly.
    pub fn log_partition(&self, s: &Sentence) -> f64 {
        if s.is_empty() {
            return 0.0;
        }
        with_lattice(|ws| {
            let LatticeScratch {
                e,
                alpha,
                row,
                trans_t,
                act,
                act_off,
                ..
            } = ws;
            self.emissions_into(s, e);
            self.fill_trans_t(trans_t);
            match self.config.score_beam {
                Some(delta) => self.forward_beam(e, trans_t, delta, alpha, row, act, act_off),
                None => self.forward_flat(e, trans_t, alpha, row),
            }
        })
    }

    /// Unnormalized score of a given path.
    fn path_score(&self, e: &[Vec<f64>], tags: &[u16]) -> f64 {
        let l = self.n_labels;
        let mut score = self.start[tags[0] as usize] + e[0][tags[0] as usize];
        for t in 1..tags.len() {
            score +=
                self.trans[tags[t - 1] as usize * l + tags[t] as usize] + e[t][tags[t] as usize];
        }
        score + self.end[*tags.last().expect("non-empty path") as usize]
    }

    /// Exact negative log-likelihood of `(s, tags)` — exposed for the
    /// gradient-check test.
    pub fn nll(&self, s: &Sentence, tags: &[u16]) -> f64 {
        assert_eq!(s.len(), tags.len(), "sentence/tags misaligned");
        if s.is_empty() {
            return 0.0;
        }
        let e = self.emissions(s);
        let (_, log_z) = self.forward(&e);
        log_z - self.path_score(&e, tags)
    }

    /// One SGD step on the exact NLL gradient of one sentence, with
    /// inverted dropout on the emission features. Training now runs
    /// through the minibatch kernel in [`Model::fit`]; this single-step
    /// form is retained as the reference implementation the
    /// gradient-check test differentiates.
    #[cfg_attr(not(test), allow(dead_code))]
    fn sgd_step(&mut self, s: &Sentence, tags: &[u16], lr: f64, l2: f64, rng: &mut ChaCha8Rng) {
        if s.is_empty() {
            return;
        }
        let l = self.n_labels;
        let nf = self.config.n_features as usize;
        // Sample one mask per token for this step; reuse it for the
        // forward pass and the gradient.
        let keep = 1.0 - self.config.train_dropout;
        let masked: Vec<Vec<(u32, f64)>> = s
            .token_feats
            .iter()
            .map(|x| {
                x.iter()
                    .filter(|&(idx, _)| (idx as usize) < nf)
                    .filter_map(|(idx, val)| {
                        if self.config.train_dropout == 0.0 || rng.gen::<f64>() < keep {
                            Some((idx, val as f64 / keep))
                        } else {
                            None
                        }
                    })
                    .collect()
            })
            .collect();
        let e: Vec<Vec<f64>> = masked
            .iter()
            .map(|feats| {
                (0..l)
                    .map(|y| {
                        feats
                            .iter()
                            .map(|&(idx, v)| self.emit[idx as usize * l + y] * v)
                            .sum()
                    })
                    .collect()
            })
            .collect();
        let (alpha, log_z) = self.forward(&e);
        let beta = self.backward(&e);
        // Emission gradient: (γ_t(y) − δ) x_t, on the masked features.
        for (t, feats) in masked.iter().enumerate() {
            for y in 0..l {
                let gamma = (alpha[t][y] + beta[t][y] - log_z).exp();
                let g = gamma - if tags[t] as usize == y { 1.0 } else { 0.0 };
                if g.abs() < 1e-12 {
                    continue;
                }
                for &(idx, v) in feats {
                    let w = &mut self.emit[idx as usize * l + y];
                    *w -= lr * (g * v + l2 * *w);
                }
            }
        }
        // Transition gradient: ξ_t(p,y) − observed.
        for t in 0..s.len() - 1 {
            for p in 0..l {
                for y in 0..l {
                    let xi = (alpha[t][p] + self.trans[p * l + y] + e[t + 1][y] + beta[t + 1][y]
                        - log_z)
                        .exp();
                    let obs = if tags[t] as usize == p && tags[t + 1] as usize == y {
                        1.0
                    } else {
                        0.0
                    };
                    let w = &mut self.trans[p * l + y];
                    *w -= lr * ((xi - obs) + l2 * *w);
                }
            }
        }
        // Start/end gradients.
        for y in 0..l {
            let gamma0 = (alpha[0][y] + beta[0][y] - log_z).exp();
            self.start[y] -= lr * (gamma0 - if tags[0] as usize == y { 1.0 } else { 0.0 });
            let t_last = s.len() - 1;
            let gamma_t = (alpha[t_last][y] + beta[t_last][y] - log_z).exp();
            self.end[y] -= lr * (gamma_t - if tags[t_last] as usize == y { 1.0 } else { 0.0 });
        }
    }

    /// Committee disagreement for QBC: mean over tokens of the mean KL
    /// divergence of each member's marginal distribution from the
    /// committee mean. `None` if no committee was trained.
    pub(crate) fn qbc_kl(&self, s: &Sentence) -> Option<f64> {
        if self.committee.is_empty() || s.is_empty() {
            return if self.committee.is_empty() {
                None
            } else {
                Some(0.0)
            };
        }
        // Members compute forward–backward independently; the collect
        // preserves member order, so this is safe to fan out.
        let member_marginals: Vec<Vec<Vec<f64>>> =
            crate::parallel::map_items(self.committee.len(), |m| self.committee[m].marginals(s));
        let c = member_marginals.len() as f64;
        let l = self.n_labels;
        let mut acc = 0.0;
        for t in 0..s.len() {
            let mut avg = vec![0.0; l];
            for mm in &member_marginals {
                for (a, v) in avg.iter_mut().zip(&mm[t]) {
                    *a += v / c;
                }
            }
            let mut kl_sum = 0.0;
            for mm in &member_marginals {
                kl_sum += crate::math::kl_divergence(&mm[t], &avg);
            }
            acc += kl_sum / c;
        }
        Some(acc / s.len() as f64)
    }
}

/// Per-sentence gradient payload returned by the minibatch kernel:
/// flattened dropout-masked features (token `t`'s window is
/// `masked[moff[t]..moff[t+1]]`) plus the flat gradient factors
/// `g[t*l + y] = γ_t(y) − δ`.
#[derive(Default)]
struct SentGrad {
    masked: Vec<(u32, f64)>,
    moff: Vec<usize>,
    g: Vec<f64>,
}

impl CrfTagger {
    /// Gradient factors below this skip the emission-row update (and
    /// its L2 decay) — the historical sparse-update cutoff.
    const GRAD_EPS: f64 = 1e-12;

    /// BALD inner loop on caller-provided scratch: `mc_passes` dropout
    /// lattices and Viterbi decodes with zero per-pass allocation. All
    /// passes share one feature preparation and one transition
    /// transpose; only the masked emission fill differs per pass.
    fn bald_with(&self, s: &Sentence, rng: &mut ChaCha8Rng, ws: &mut LatticeScratch) -> f64 {
        if s.is_empty() {
            return 0.0;
        }
        let l = self.n_labels;
        let passes = self.config.mc_passes.max(2);
        let LatticeScratch {
            e,
            delta,
            back,
            tags,
            row,
            votes,
            pfeat,
            poff,
            kept,
            trans_t,
            ..
        } = ws;
        self.prepare_feats(s, pfeat, poff);
        self.fill_trans_t(trans_t);
        kept.resize(pfeat.len(), (0, 0.0));
        votes.clear();
        votes.resize(s.len() * l, 0);
        for _ in 0..passes {
            self.fill_emissions_dropout(pfeat, poff, rng, kept, e);
            self.viterbi_flat(e, trans_t, delta, back, tags, row);
            for (t, &tag) in tags.iter().enumerate() {
                votes[t * l + tag as usize] += 1;
            }
        }
        let mut acc = 0.0;
        for token_votes in votes.chunks(l) {
            let mode = token_votes.iter().copied().max().unwrap_or(0);
            acc += 1.0 - mode as f64 / passes as f64;
        }
        acc / s.len() as f64
    }
}

impl Model for CrfTagger {
    type Sample = Sentence;
    type Label = Vec<u16>;

    fn fit(&mut self, samples: &[&Sentence], labels: &[&Vec<u16>], rng: &mut ChaCha8Rng) {
        if samples.is_empty() {
            return;
        }
        let _span = span!(Level::Debug, "crf.fit", n = samples.len());
        if !self.config.warm_start {
            let nf = self.config.n_features as usize;
            self.emit = vec![0.0; self.n_labels * nf];
            self.trans = vec![0.0; self.n_labels * self.n_labels];
            self.start = vec![0.0; self.n_labels];
            self.end = vec![0.0; self.n_labels];
        }
        let nf = self.config.n_features as usize;
        let l = self.n_labels;
        let (lr, l2) = (self.config.lr, self.config.l2);
        let train_dropout = self.config.train_dropout;
        let keep = 1.0 - train_dropout;
        // Hoisted out of the epoch loop: bounds-filter and widen every
        // token's features once per fit instead of once per step, already
        // divided by the inverted-dropout `keep` (the same `v / keep` a
        // kept feature always got).
        let feats: Vec<Vec<Vec<(u32, f64)>>> = samples
            .iter()
            .map(|s| {
                s.token_feats
                    .iter()
                    .map(|x| {
                        x.iter()
                            .filter(|&(idx, _)| (idx as usize) < nf)
                            .map(|(idx, val)| (idx, val as f64 / keep))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Dense accumulator layout: transitions ‖ start ‖ end.
        let dense_dim = l * l + 2 * l;
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..self.config.epochs {
            rand::seq::SliceRandom::shuffle(&mut order[..], rng);
            let epoch_seed: u64 = rng.gen();
            for (batch_no, batch) in order.chunks(Self::MINIBATCH).enumerate() {
                let base = batch_no * Self::MINIBATCH;
                let model = &*self;
                // Per-sentence gradients at the batch-start weights, in
                // parallel. Dropout masks come from per-sentence RNGs
                // derived from the serially-drawn epoch seed, so worker
                // threads never touch the driver stream.
                let (per_item, dense) = crate::parallel::chunked_grads(
                    batch.len(),
                    Self::GRAD_CHUNK,
                    dense_dim,
                    |j, acc| {
                        let i = batch[j];
                        let (s, tags) = (samples[i], labels[i]);
                        if s.is_empty() {
                            return SentGrad::default();
                        }
                        let mut srng = ChaCha8Rng::seed_from_u64(crate::parallel::derive_seed(
                            epoch_seed,
                            (base + j) as u64,
                        ));
                        // One mask per token, reused for the forward
                        // pass and the gradient. The mask draws run in
                        // token and feature order.
                        let mut sg = SentGrad::default();
                        sg.masked
                            .resize(feats[i].iter().map(Vec::len).sum(), (0, 0.0));
                        sg.moff.push(0);
                        let mut hi = 0;
                        for toks in &feats[i] {
                            hi += kernels::train_dropout_mask(
                                toks,
                                train_dropout,
                                &mut srng,
                                &mut sg.masked[hi..],
                            );
                            sg.moff.push(hi);
                        }
                        sg.masked.truncate(hi);
                        let t_len = s.len();
                        // Flat thread-local lattices replace the
                        // per-sentence nested allocations; the flat
                        // passes are bit-identical to the nested
                        // references (`flat_eval_matches_nested_reference`).
                        with_lattice(|ws| {
                            let LatticeScratch {
                                e,
                                alpha,
                                beta,
                                row,
                                trans_t,
                                ..
                            } = ws;
                            model.fill_emissions(&sg.masked, &sg.moff, e);
                            model.fill_trans_t(trans_t);
                            let log_z = model.forward_flat(e, trans_t, alpha, row);
                            model.backward_flat(e, beta, row);
                            // Emission gradient factors γ_t(y) − δ; row 0
                            // and the last row double as the start/end
                            // gradients.
                            sg.g.resize(t_len * l, 0.0);
                            for t in 0..t_len {
                                let grow = &mut sg.g[t * l..(t + 1) * l];
                                kernels::add2(
                                    grow,
                                    &alpha[t * l..(t + 1) * l],
                                    &beta[t * l..(t + 1) * l],
                                );
                                for (y, gy) in grow.iter_mut().enumerate() {
                                    *gy = (*gy - log_z).exp()
                                        - if tags[t] as usize == y { 1.0 } else { 0.0 };
                                }
                            }
                            // Transition gradient ξ_t(p,y) − observed,
                            // with the L2 term at the batch-start weights
                            // so it folds into the order-fixed
                            // accumulator.
                            for t in 0..t_len - 1 {
                                let enext = &e[(t + 1) * l..(t + 2) * l];
                                let bnext = &beta[(t + 1) * l..(t + 2) * l];
                                for p in 0..l {
                                    let tr = &model.trans[p * l..(p + 1) * l];
                                    kernels::shift_add3_sub(
                                        row,
                                        alpha[t * l + p],
                                        tr,
                                        enext,
                                        bnext,
                                        log_z,
                                    );
                                    let accr = &mut acc[p * l..(p + 1) * l];
                                    for y in 0..l {
                                        let obs =
                                            if tags[t] as usize == p && tags[t + 1] as usize == y {
                                                1.0
                                            } else {
                                                0.0
                                            };
                                        accr[y] += (row[y].exp() - obs) + l2 * tr[y];
                                    }
                                }
                            }
                            for y in 0..l {
                                acc[l * l + y] += sg.g[y];
                                acc[l * l + l + y] += sg.g[(t_len - 1) * l + y];
                            }
                        });
                        sg
                    },
                );
                for (w, d) in self.trans.iter_mut().zip(&dense[..l * l]) {
                    *w -= lr * d;
                }
                for (w, d) in self.start.iter_mut().zip(&dense[l * l..l * l + l]) {
                    *w -= lr * d;
                }
                for (w, d) in self.end.iter_mut().zip(&dense[l * l + l..]) {
                    *w -= lr * d;
                }
                // Sparse emission updates in sentence order (serial, so
                // the L2 term sees deterministically-evolving weights).
                // Feature-major rows make each token's update walk
                // contiguous `l`-wide blocks; within one token every
                // `(feature, label)` cell is touched at most once, so
                // swapping the feature/label loop order leaves the final
                // weights bit-identical.
                for sg in &per_item {
                    let t_len = sg.moff.len().saturating_sub(1);
                    for t in 0..t_len {
                        let grow = &sg.g[t * l..(t + 1) * l];
                        for &(idx, v) in &sg.masked[sg.moff[t]..sg.moff[t + 1]] {
                            let idx = idx as usize;
                            kernels::sgd_row_update(
                                &mut self.emit[idx * l..(idx + 1) * l],
                                grow,
                                v,
                                lr,
                                l2,
                                Self::GRAD_EPS,
                            );
                        }
                    }
                }
            }
        }
        // Bootstrap committee for QBC (trained from scratch each fit).
        // Bootstrap indices and member seeds are drawn serially from the
        // driver stream; the independent members then train in parallel.
        let n = samples.len();
        let plans: Vec<(Vec<usize>, u64)> = (0..self.config.committee)
            .map(|_| {
                let boot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                (boot, rng.gen())
            })
            .collect();
        let base_cfg = &self.config;
        self.committee = crate::parallel::map_items(plans.len(), |m| {
            let (boot, member_seed) = &plans[m];
            let mut member_cfg = base_cfg.clone();
            member_cfg.committee = 0;
            member_cfg.epochs = base_cfg.committee_epochs;
            member_cfg.warm_start = false;
            let mut member = CrfTagger::new(member_cfg);
            let boot_s: Vec<&Sentence> = boot.iter().map(|&i| samples[i]).collect();
            let boot_l: Vec<&Vec<u16>> = boot.iter().map(|&i| labels[i]).collect();
            member.fit(
                &boot_s,
                &boot_l,
                &mut ChaCha8Rng::seed_from_u64(*member_seed),
            );
            member
        });
    }

    fn eval_sample(&self, sample: &Sentence, caps: &EvalCaps, seed: u64) -> SampleEval {
        if sample.is_empty() {
            return SampleEval::default();
        }
        let l = self.n_labels;
        with_lattice(|ws| {
            let mut eval = {
                let LatticeScratch {
                    e,
                    alpha,
                    beta,
                    row,
                    delta,
                    back,
                    tags,
                    best2,
                    next2,
                    probs,
                    pfeat,
                    poff,
                    trans_t,
                    act,
                    act_off,
                    ..
                } = &mut *ws;
                // One feature preparation + one emission fill shared by
                // every lattice pass below (forward, backward, Viterbi,
                // 2-best), and reused by the BALD dropout passes.
                self.prepare_feats(sample, pfeat, poff);
                self.fill_emissions(pfeat, poff, e);
                self.fill_trans_t(trans_t);
                let beam = self.config.score_beam;
                let log_z = match beam {
                    Some(d) => self.forward_beam(e, trans_t, d, alpha, row, act, act_off),
                    None => self.forward_flat(e, trans_t, alpha, row),
                };
                let best_score = self.viterbi_flat(e, trans_t, delta, back, tags, row);
                let best_logprob = best_score - log_z;

                // Mean per-token marginal entropy. Needs the backward
                // lattice, so both are gated on the entropy cap — LC
                // and MNLP strategies never pay for them.
                let entropy = if caps.entropy {
                    match beam {
                        Some(_) => self.backward_beam(e, beta, row, act, act_off),
                        None => self.backward_flat(e, beta, row),
                    }
                    let mut entropy = 0.0;
                    for t in 0..sample.len() {
                        probs.clear();
                        probs.extend(
                            (0..l).map(|y| (alpha[t * l + y] + beta[t * l + y] - log_z).exp()),
                        );
                        entropy += histal_core::eval::entropy_of(probs);
                    }
                    entropy / sample.len() as f64
                } else {
                    0.0
                };

                let mut eval = SampleEval {
                    probs: Vec::new(),
                    entropy,
                    least_confidence: 1.0 - best_logprob.exp(),
                    // Top-2 path margin (sequence analogue of margin
                    // sampling); 2-best Viterbi costs a second lattice
                    // pass, so it is gated. Reuses the emission matrix
                    // already in scratch.
                    margin: if caps.margin {
                        let (_, second) = self.viterbi2_flat(e, best2, next2);
                        let p1 = best_logprob.exp();
                        let p2 = if second.is_finite() {
                            (second - log_z).exp()
                        } else {
                            0.0
                        };
                        Some(1.0 - (p1 - p2))
                    } else {
                        None
                    },
                    ..Default::default()
                };
                if caps.mnlp {
                    // Eq. 13 as an uncertainty: −(1/n) log P(ŷ|x) ≥ 0.
                    eval.mnlp = Some(-best_logprob / sample.len() as f64);
                }
                eval
            };
            if caps.bald {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                eval.bald = Some(self.bald_with(sample, &mut rng, ws));
            }
            if caps.qbc {
                // Committee members allocate their own lattices inside
                // `marginals` (the nested reference path), so this does
                // not re-enter the thread-local scratch.
                eval.qbc_kl = self.qbc_kl(sample);
            }
            if caps.egl || caps.egl_word {
                // Gradient-length strategies are not implemented for the
                // CRF substrate (the paper only runs LC/MNLP/BALD-family
                // strategies on NER); the fields remain None and the
                // strategy surfaces a MissingCapability error.
            }
            eval
        })
    }

    fn metric(&self, samples: &[&Sentence], labels: &[&Vec<u16>]) -> f64 {
        let _span = span!(Level::Debug, "crf.metric", n = samples.len());
        let scheme = &self.config.scheme;
        let pred_spans: Vec<Vec<(usize, usize, usize)>> = samples
            .iter()
            .map(|s| scheme.decode_spans(&self.viterbi(s).0))
            .collect();
        let gold_spans: Vec<Vec<(usize, usize, usize)>> =
            labels.iter().map(|l| scheme.decode_spans(l)).collect();
        span_f1(&pred_spans, &gold_spans).f1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_core::tags::Position;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Tiny scheme: one entity type → 5 labels.
    fn tiny_config() -> CrfConfig {
        CrfConfig {
            n_features: 1 << 10,
            epochs: 10,
            mc_passes: 6,
            train_dropout: 0.0,
            scheme: TagScheme::new(["X"]),
            ..Default::default()
        }
    }

    fn sent(tokens: &[&str]) -> Sentence {
        let toks: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Sentence::featurize(&toks, &FeatureHasher::new(1 << 10))
    }

    /// Score of every label path, by enumeration.
    fn brute_force_path_scores(m: &CrfTagger, s: &Sentence) -> Vec<f64> {
        let e = m.emissions(s);
        let l = m.n_labels;
        let t_len = s.len();
        (0..l.pow(t_len as u32))
            .map(|code| {
                let mut c = code;
                let tags: Vec<u16> = (0..t_len)
                    .map(|_| {
                        let y = (c % l) as u16;
                        c /= l;
                        y
                    })
                    .collect();
                m.path_score(&e, &tags)
            })
            .collect()
    }

    /// Enumerate all paths to brute-force the partition function.
    fn brute_force_logz(m: &CrfTagger, s: &Sentence) -> f64 {
        logsumexp(&brute_force_path_scores(m, s))
    }

    fn randomize(m: &mut CrfTagger, seed: u64) {
        let mut r = rng(seed);
        for w in m.emit.iter_mut().take(4096) {
            *w = r.gen_range(-1.0..1.0);
        }
        for w in m.trans.iter_mut() {
            *w = r.gen_range(-1.0..1.0);
        }
        for w in m.start.iter_mut().chain(m.end.iter_mut()) {
            *w = r.gen_range(-1.0..1.0);
        }
    }

    #[test]
    fn forward_matches_brute_force() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 1);
        let s = sent(&["a", "b", "c"]);
        let e = m.emissions(&s);
        let (_, log_z) = m.forward(&e);
        let brute = brute_force_logz(&m, &s);
        assert!((log_z - brute).abs() < 1e-9, "{log_z} vs {brute}");
    }

    #[test]
    fn marginals_sum_to_one_and_match_brute_force() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 2);
        let s = sent(&["x", "y"]);
        let marg = m.marginals(&s);
        for row in &marg {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // Brute-force marginal of label 0 at t=0.
        let e = m.emissions(&s);
        let l = m.n_labels;
        let (mut num, mut all) = (Vec::new(), Vec::new());
        for y0 in 0..l {
            for y1 in 0..l {
                let score = m.path_score(&e, &[y0 as u16, y1 as u16]);
                all.push(score);
                if y0 == 0 {
                    num.push(score);
                }
            }
        }
        let expected = (logsumexp(&num) - logsumexp(&all)).exp();
        assert!((marg[0][0] - expected).abs() < 1e-9);
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 3);
        let s = sent(&["p", "q", "r"]);
        let e = m.emissions(&s);
        let (tags, score) = m.viterbi(&s);
        // Brute force.
        let l = m.n_labels;
        let mut best = f64::NEG_INFINITY;
        let mut best_tags = Vec::new();
        for code in 0..l.pow(3) {
            let mut c = code;
            let path: Vec<u16> = (0..3)
                .map(|_| {
                    let y = (c % l) as u16;
                    c /= l;
                    y
                })
                .collect();
            let v = m.path_score(&e, &path);
            if v > best {
                best = v;
                best_tags = path;
            }
        }
        assert!((score - best).abs() < 1e-9);
        assert_eq!(tags, best_tags);
    }

    #[test]
    fn nll_gradient_check_on_transitions() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 4);
        let s = sent(&["m", "n"]);
        let tags = vec![1u16, 2u16];
        // Analytic gradient on trans[1][2]: one sgd_step with lr encodes
        // −lr·grad; recover grad by differencing weights (l2 = 0).
        let l = m.n_labels;
        let before = m.trans[1 * l + 2];
        let mut stepped = m.clone();
        stepped.sgd_step(&s, &tags, 1e-3, 0.0, &mut rng(0));
        let analytic = (before - stepped.trans[1 * l + 2]) / 1e-3;
        // Numeric gradient.
        let eps = 1e-6;
        let mut plus = m.clone();
        plus.trans[1 * l + 2] += eps;
        let mut minus = m.clone();
        minus.trans[1 * l + 2] -= eps;
        let numeric = (plus.nll(&s, &tags) - minus.nll(&s, &tags)) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-4,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn learns_simple_tagging_pattern() {
        // "ent" tokens are single-token entities, everything else O.
        let scheme = TagScheme::new(["X"]);
        let s_tag = scheme.tag(Position::S, 0);
        let mut sentences = Vec::new();
        let mut tag_seqs = Vec::new();
        for i in 0..30 {
            let filler = format!("w{i}");
            let toks = [filler.as_str(), "ent", "other"];
            sentences.push(sent(&toks));
            tag_seqs.push(vec![0u16, s_tag, 0u16]);
        }
        let mut m = CrfTagger::new(tiny_config());
        let s_refs: Vec<&Sentence> = sentences.iter().collect();
        let l_refs: Vec<&Vec<u16>> = tag_seqs.iter().collect();
        m.fit(&s_refs, &l_refs, &mut rng(5));
        let (tags, _) = m.viterbi(&sent(&["w99", "ent", "other"]));
        assert_eq!(tags[1], s_tag, "entity token must be tagged S-X: {tags:?}");
        assert_eq!(tags[0], 0);
        assert_eq!(tags[2], 0);
        let f1 = m.metric(&s_refs, &l_refs);
        assert!(f1 > 0.9, "training F1 {f1}");
    }

    #[test]
    fn dropout_training_still_learns() {
        let scheme = TagScheme::new(["X"]);
        let s_tag = scheme.tag(Position::S, 0);
        let mut sentences = Vec::new();
        let mut tag_seqs = Vec::new();
        for i in 0..30 {
            let filler = format!("w{i}");
            let toks = [filler.as_str(), "ent", "other"];
            sentences.push(sent(&toks));
            tag_seqs.push(vec![0u16, s_tag, 0u16]);
        }
        let mut cfg = tiny_config();
        cfg.train_dropout = 0.25;
        let mut m = CrfTagger::new(cfg);
        let s_refs: Vec<&Sentence> = sentences.iter().collect();
        let l_refs: Vec<&Vec<u16>> = tag_seqs.iter().collect();
        m.fit(&s_refs, &l_refs, &mut rng(15));
        let f1 = m.metric(&s_refs, &l_refs);
        assert!(f1 > 0.8, "dropout-trained F1 {f1}");
    }

    #[test]
    fn training_bits_are_pinned() {
        // FNV-1a over the bits of `emit`, `trans`, `start` then `end`
        // after a 3-epoch fit with training dropout on. Every kernel on
        // the fit path (emission fill, lattices, ξ rows, SGD row update)
        // feeds these weights, so a reassociated or fused float op in
        // any of them moves the hash.
        let scheme = TagScheme::new(["X"]);
        let s_tag = scheme.tag(Position::S, 0);
        let mut sentences = Vec::new();
        let mut tag_seqs = Vec::new();
        for i in 0..23 {
            let filler = format!("w{i}");
            let toks = [filler.as_str(), "ent", "other", "ent"];
            sentences.push(sent(&toks));
            tag_seqs.push(vec![0u16, s_tag, 0u16, s_tag]);
        }
        let mut cfg = tiny_config();
        cfg.epochs = 3;
        cfg.train_dropout = 0.25;
        let mut m = CrfTagger::new(cfg);
        let s_refs: Vec<&Sentence> = sentences.iter().collect();
        let l_refs: Vec<&Vec<u16>> = tag_seqs.iter().collect();
        m.fit(&s_refs, &l_refs, &mut rng(17));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in m.emit.iter().chain(&m.trans).chain(&m.start).chain(&m.end) {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xdd40_91dc_d16c_6eea, "pinned hash {h:#018x}");
    }

    #[test]
    fn mnlp_normalizes_length_bias() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 6);
        let caps = EvalCaps {
            mnlp: true,
            ..Default::default()
        };
        let short = m.eval_sample(&sent(&["a", "b"]), &caps, 0);
        let long = m.eval_sample(&sent(&["a", "b", "a", "b", "a", "b", "a", "b"]), &caps, 0);
        // LC grows with length (P(best path) shrinks multiplicatively)…
        assert!(long.least_confidence >= short.least_confidence - 1e-9);
        // …while MNLP is per-token and must stay the same order of magnitude.
        let long_mnlp = long
            .mnlp
            .expect("eval_sample must set mnlp for the long sentence when EvalCaps requests it");
        let short_mnlp = short
            .mnlp
            .expect("eval_sample must set mnlp for the short sentence when EvalCaps requests it");
        let ratio = long_mnlp / short_mnlp.max(1e-9);
        assert!(ratio < 4.0, "MNLP still length-biased: ratio {ratio}");
    }

    #[test]
    fn empty_sentence_is_safe() {
        let m = CrfTagger::new(tiny_config());
        let empty = Sentence::default();
        let (tags, score) = m.viterbi(&empty);
        assert!(tags.is_empty());
        assert_eq!(score, 0.0);
        let eval = m.eval_sample(
            &empty,
            &EvalCaps {
                mnlp: true,
                bald: true,
                ..Default::default()
            },
            0,
        );
        assert_eq!(eval.entropy, 0.0);
        assert!(m.marginals(&empty).is_empty());
    }

    #[test]
    fn bald_deterministic_per_seed_and_bounded() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 7);
        let s = sent(&["u", "v", "w"]);
        let caps = EvalCaps {
            bald: true,
            ..Default::default()
        };
        let a = m.eval_sample(&s, &caps, 42).bald.unwrap();
        let b = m.eval_sample(&s, &caps, 42).bald.unwrap();
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn viterbi2_matches_brute_force() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 21);
        let s = sent(&["a", "b", "c"]);
        let mut scores = brute_force_path_scores(&m, &s);
        scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let (b1, b2) = with_lattice(|ws| {
            let LatticeScratch {
                e, best2, next2, ..
            } = ws;
            m.emissions_into(&s, e);
            m.viterbi2_flat(e, best2, next2)
        });
        assert!((b1 - scores[0]).abs() < 1e-9, "{b1} vs {}", scores[0]);
        assert!((b2 - scores[1]).abs() < 1e-9, "{b2} vs {}", scores[1]);
    }

    #[test]
    fn sequence_margin_matches_brute_force_and_only_on_request() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 22);
        let s = sent(&["p", "q"]);
        let caps = EvalCaps {
            margin: true,
            ..Default::default()
        };
        let margin = m.eval_sample(&s, &caps, 0).margin.unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&margin), "margin {margin}");
        // 1 - (p(best path) - p(second-best path)), by enumeration.
        let log_z = brute_force_logz(&m, &s);
        let mut scores = brute_force_path_scores(&m, &s);
        scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let expected = 1.0 - ((scores[0] - log_z).exp() - (scores[1] - log_z).exp());
        assert!((margin - expected).abs() < 1e-9, "{margin} vs {expected}");
        // Not computed unless requested (it costs a second lattice pass).
        assert!(m.eval_sample(&s, &EvalCaps::default(), 0).margin.is_none());
    }

    #[test]
    fn qbc_requires_committee() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 23);
        assert!(m.qbc_kl(&sent(&["x"])).is_none());
        let caps = EvalCaps {
            qbc: true,
            ..Default::default()
        };
        assert!(m.eval_sample(&sent(&["x"]), &caps, 0).qbc_kl.is_none());
    }

    #[test]
    fn qbc_with_committee_is_nonnegative() {
        let scheme = TagScheme::new(["X"]);
        let s_tag = scheme.tag(Position::S, 0);
        let mut sentences = Vec::new();
        let mut tag_seqs = Vec::new();
        for i in 0..12 {
            let filler = format!("w{i}");
            sentences.push(sent(&[filler.as_str(), "ent"]));
            tag_seqs.push(vec![0u16, s_tag]);
        }
        let mut cfg = tiny_config();
        cfg.committee = 3;
        cfg.committee_epochs = 2;
        let mut m = CrfTagger::new(cfg);
        let s_refs: Vec<&Sentence> = sentences.iter().collect();
        let l_refs: Vec<&Vec<u16>> = tag_seqs.iter().collect();
        m.fit(&s_refs, &l_refs, &mut rng(24));
        let kl = m.qbc_kl(&sent(&["w99", "ent"])).unwrap();
        assert!(kl >= 0.0 && kl.is_finite());
        // Determinism via eval_sample seed path.
        let caps = EvalCaps {
            qbc: true,
            ..Default::default()
        };
        let a = m.eval_sample(&sent(&["zz"]), &caps, 5);
        let b = m.eval_sample(&sent(&["zz"]), &caps, 5);
        assert_eq!(a.qbc_kl, b.qbc_kl);
    }

    #[test]
    fn flat_eval_matches_nested_reference() {
        let mut m = CrfTagger::new(tiny_config());
        randomize(&mut m, 31);
        let s = sent(&["alpha", "Beta", "g4mma"]);
        let l = m.n_labels;
        let e_nested = m.emissions(&s);
        let (alpha_n, log_z_n) = m.forward(&e_nested);
        let beta_n = m.backward(&e_nested);

        let (mut e, mut alpha, mut beta, mut row) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        m.emissions_into(&s, &mut e);
        for (t, erow) in e_nested.iter().enumerate() {
            for (y, v) in erow.iter().enumerate() {
                assert_eq!(v.to_bits(), e[t * l + y].to_bits());
            }
        }
        let mut trans_t = Vec::new();
        m.fill_trans_t(&mut trans_t);
        let log_z = m.forward_flat(&e, &trans_t, &mut alpha, &mut row);
        assert_eq!(log_z.to_bits(), log_z_n.to_bits());
        m.backward_flat(&e, &mut beta, &mut row);
        for t in 0..s.len() {
            for y in 0..l {
                assert_eq!(alpha_n[t][y].to_bits(), alpha[t * l + y].to_bits());
                assert_eq!(beta_n[t][y].to_bits(), beta[t * l + y].to_bits());
            }
        }
        // Scratch reuse is stateless: a second evaluation of a different,
        // shorter sentence through the same public entry points matches a
        // fresh model's answer.
        let short = sent(&["x"]);
        let fresh = m.clone();
        let a = m.eval_sample(
            &short,
            &EvalCaps {
                margin: true,
                mnlp: true,
                bald: true,
                entropy: true,
                ..Default::default()
            },
            9,
        );
        let b = fresh.eval_sample(
            &short,
            &EvalCaps {
                margin: true,
                mnlp: true,
                bald: true,
                entropy: true,
                ..Default::default()
            },
            9,
        );
        assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
        assert_eq!(a.least_confidence.to_bits(), b.least_confidence.to_bits());
        assert_eq!(a.margin, b.margin);
        assert_eq!(a.bald, b.bald);
    }

    #[test]
    fn egl_caps_left_unset_for_crf() {
        let m = CrfTagger::new(tiny_config());
        let caps = EvalCaps {
            egl: true,
            ..Default::default()
        };
        let eval = m.eval_sample(&sent(&["a"]), &caps, 0);
        assert!(eval.egl.is_none());
    }
}
