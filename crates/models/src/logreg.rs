//! Multinomial logistic regression text classifier.
//!
//! The TextCNN stand-in: a softmax-linear model over hashed
//! bag-of-n-grams features, fine-tuned by SGD each active-learning round
//! (the paper fine-tunes for 10 epochs after each batch). It supplies
//! every capability the informative strategies need:
//!
//! * posteriors → entropy / LC / margin,
//! * closed-form expected gradient length (EGL, Eq. 5): for softmax NLL
//!   the gradient w.r.t. class `c` is `(p_c − δ_{cy}) · [x; 1]`, so
//!   `‖∇‖ = √(‖x‖²+1) · ‖p − e_y‖` and the expectation marginalizes over
//!   `y` in closed form,
//! * EGL-word (Eq. 12): `max_j |x_j| · Σ_y p_y ‖p − e_y‖` — the gradient
//!   norm restricted to one word's weight block,
//! * MC-dropout BALD: feature dropout at inference, mutual information
//!   `H(E[p]) − E[H(p)]`,
//! * bootstrap committees for QBC (mean KL to the committee mean).

#![allow(clippy::needless_range_loop)]

use std::cell::RefCell;

use rand::prelude::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::metrics::accuracy;
use histal_core::model::Model;
use histal_obs::span;
use histal_obs::trace::Level;
use histal_text::SparseVec;

use crate::document::Document;
use crate::math::{kl_divergence, softmax_inplace};

/// Hyper-parameters for [`TextClassifier`].
#[derive(Debug, Clone)]
pub struct TextClassifierConfig {
    /// Number of classes.
    pub n_classes: usize,
    /// Hashed feature-space width.
    pub n_features: u32,
    /// SGD epochs per [`Model::fit`] call (the paper fine-tunes 10).
    pub epochs: usize,
    /// SGD step size.
    pub lr: f64,
    /// L2 weight decay applied to touched coordinates.
    pub l2: f64,
    /// Inference-time feature dropout probability for BALD.
    pub dropout: f64,
    /// Training-time feature dropout (the TextCNN analogue's dropout
    /// regularizer). Besides regularizing, this makes successive rounds'
    /// evaluation scores genuinely stochastic — the fluctuation signal
    /// the history-aware strategies exploit.
    pub train_dropout: f64,
    /// MC-dropout passes for BALD.
    pub mc_passes: usize,
    /// Committee size for QBC; 0 disables committee training.
    pub committee: usize,
    /// Epochs per committee member (bootstrap-trained from scratch).
    pub committee_epochs: usize,
    /// Fine-tune from the previous round's weights (paper behaviour) or
    /// retrain from zero each round.
    pub warm_start: bool,
}

impl Default for TextClassifierConfig {
    fn default() -> Self {
        Self {
            n_classes: 2,
            n_features: 1 << 16,
            epochs: 10,
            lr: 0.5,
            l2: 1e-5,
            dropout: 0.25,
            train_dropout: 0.35,
            mc_passes: 16,
            committee: 0,
            committee_epochs: 5,
            warm_start: true,
        }
    }
}

/// Reusable posterior buffers for the evaluation hot path (one MC-dropout
/// pass posterior and its running mean). Thread-local so parallel
/// pool-evaluation workers each keep their own without locking.
#[derive(Debug, Default)]
struct PosteriorScratch {
    pass: Vec<f64>,
    mean: Vec<f64>,
    /// One document's dropout-mask candidates and the kept ones.
    cand: Vec<(usize, f64)>,
    kept: Vec<(usize, f64)>,
}

thread_local! {
    static POSTERIOR: RefCell<PosteriorScratch> = RefCell::new(PosteriorScratch::default());
}

/// One linear softmax scorer (weights + biases).
#[derive(Debug, Clone)]
struct Linear {
    n_classes: usize,
    n_features: u32,
    /// Feature-major `n_features × n_classes`: `w[idx*k + c]` keeps one
    /// hashed feature's class block contiguous, so the sparse hot loops
    /// (logits, dropout posteriors, SGD updates) each touch one cache
    /// line per feature; logits hand the class block to
    /// `kernels::axpy`.
    /// Per output cell the accumulation still runs over features in
    /// index order, so results are bit-identical to the class-major
    /// layout this replaces.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Linear {
    fn zeros(n_classes: usize, n_features: u32) -> Self {
        Self {
            n_classes,
            n_features,
            w: vec![0.0; n_classes * n_features as usize],
            b: vec![0.0; n_classes],
        }
    }

    fn logits(&self, x: &SparseVec) -> Vec<f64> {
        let mut out = self.b.clone();
        let (nf, k) = (self.n_features as usize, self.n_classes);
        for (idx, val) in x.iter() {
            // Out-of-range hashed indices are ignored, matching the old
            // dot_dense-based path.
            if (idx as usize) < nf {
                let row = &self.w[idx as usize * k..(idx as usize + 1) * k];
                crate::kernels::axpy(&mut out, row, val as f64);
            }
        }
        out
    }

    fn probs(&self, x: &SparseVec) -> Vec<f64> {
        let mut p = self.logits(x);
        softmax_inplace(&mut p);
        p
    }

    /// The candidates of every dropout mask over `x`: its in-range
    /// features, widened, in feature order. Out-of-range hashed indices
    /// are ignored, matching logits, and draw no mask bit.
    fn mask_candidates(&self, x: &SparseVec, cand: &mut Vec<(usize, f64)>) {
        let nf = self.n_features as usize;
        cand.clear();
        cand.extend(
            x.iter()
                .filter(|&(idx, _)| (idx as usize) < nf)
                .map(|(idx, val)| (idx as usize, val as f64)),
        );
    }

    /// Posterior under one random feature-dropout mask (inverted
    /// dropout) over `cand` (see [`Self::mask_candidates`]), written into
    /// `out`; `kept` is scratch at least as long as `cand`. Draws exactly
    /// one uniform per candidate, in order — callers rely on that to
    /// keep the MC-dropout stream reproducible.
    fn probs_dropout_into(
        &self,
        cand: &[(usize, f64)],
        dropout: f64,
        rng: &mut ChaCha8Rng,
        kept: &mut [(usize, f64)],
        out: &mut Vec<f64>,
    ) {
        let keep = 1.0 - dropout;
        let scale = 1.0 / keep;
        let k = self.n_classes;
        let n_kept = crate::kernels::dropout_mask(cand, keep, rng, kept);
        out.clear();
        out.extend_from_slice(&self.b);
        for &(idx, v) in &kept[..n_kept] {
            crate::kernels::axpy(out, &self.w[idx * k..(idx + 1) * k], v * scale);
        }
        softmax_inplace(out);
    }

    /// Minibatch size for the SGD kernel. Gradients within a minibatch
    /// are taken at the batch-start weights and applied as a sum, so the
    /// value is part of the training semantics.
    const MINIBATCH: usize = 8;
    /// Items per bias-gradient accumulation chunk. Part of the training
    /// semantics too: each chunk's partial starts at zero and the
    /// partials are summed in chunk order into a zeroed total, so
    /// changing it moves the low bits of every trained weight.
    const GRAD_CHUNK: usize = 2;

    /// Minibatch SGD with inverted feature dropout.
    ///
    /// Runs on the calling thread. Per-sample gradients inside one
    /// minibatch are computed at the batch-start weights; bias gradients
    /// reduce through fixed-order chunk partials and sparse weight
    /// gradients apply in sample order. A minibatch is 8 sparse
    /// documents, about a microsecond of work per chunk, far less than a
    /// pool round-trip, so it does not fan out; pool evaluation and the
    /// harness parallelise above it. Dropout masks come from per-sample
    /// RNGs derived from one `epoch_seed` drawn from the driver stream.
    ///
    /// One workspace per fit: every buffer is sized before the epoch
    /// loop and only cleared inside it. The logit rows go through
    /// `kernels::axpy`; the SGD row update is written inline, because
    /// `kernels::sgd_row_update` carries the CRF's small-gradient skip
    /// and this update touches every cell.
    #[allow(clippy::too_many_arguments)]
    fn train(
        &mut self,
        samples: &[&Document],
        labels: &[&usize],
        epochs: usize,
        lr: f64,
        l2: f64,
        train_dropout: f64,
        rng: &mut ChaCha8Rng,
    ) {
        let n = samples.len();
        if n == 0 {
            return;
        }
        let nf = self.n_features as usize;
        let k = self.n_classes;
        let keep = 1.0 - train_dropout;
        // Each sample's bounds-filtered, widened features, already divided
        // by the inverted-dropout `keep` (the same `v / keep` a kept
        // feature always got), flattened once per fit: sample `i` owns
        // `feats[foff[i]..foff[i + 1]]`.
        let mut foff = Vec::with_capacity(n + 1);
        foff.push(0);
        let mut feats: Vec<(usize, f64)> = Vec::new();
        let mut max_len = 0;
        for d in samples {
            let start = feats.len();
            feats.extend(
                d.features
                    .iter()
                    .filter(|&(idx, _)| (idx as usize) < nf)
                    .map(|(idx, val)| (idx as usize, val as f64 / keep)),
            );
            max_len = max_len.max(feats.len() - start);
            foff.push(feats.len());
        }
        // The minibatch's dropout-masked features (sample `j` of the
        // batch owns `masked[moff[j]..moff[j + 1]]`) and its `batch × k`
        // block of logit gradients. The mask stores every candidate of
        // sample `j` at or after `moff[j] <= j * max_len`, so a full
        // batch of the longest sample fits without slack.
        let mut masked = vec![(0, 0.0); Self::MINIBATCH * max_len];
        let mut moff: Vec<usize> = Vec::with_capacity(Self::MINIBATCH + 1);
        let mut grads = vec![0.0; Self::MINIBATCH * k];
        let mut chunk_grad = vec![0.0; k];
        let mut bias_grad = vec![0.0; k];
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..epochs {
            order.shuffle(rng);
            let epoch_seed: u64 = rng.gen();
            for (batch_no, batch) in order.chunks(Self::MINIBATCH).enumerate() {
                let base = batch_no * Self::MINIBATCH;
                moff.clear();
                moff.push(0);
                bias_grad.fill(0.0);
                for (chunk_no, chunk) in batch.chunks(Self::GRAD_CHUNK).enumerate() {
                    chunk_grad.fill(0.0);
                    for (jc, &i) in chunk.iter().enumerate() {
                        let j = chunk_no * Self::GRAD_CHUNK + jc;
                        let mut srng = ChaCha8Rng::seed_from_u64(crate::parallel::derive_seed(
                            epoch_seed,
                            (base + j) as u64,
                        ));
                        // One dropout mask per sample, reused for the
                        // forward pass and the gradient.
                        let lo = moff[j];
                        let hi = lo
                            + crate::kernels::train_dropout_mask(
                                &feats[foff[i]..foff[i + 1]],
                                train_dropout,
                                &mut srng,
                                &mut masked[lo..],
                            );
                        moff.push(hi);
                        let g = &mut grads[j * k..(j + 1) * k];
                        g.copy_from_slice(&self.b);
                        for &(idx, v) in &masked[lo..hi] {
                            crate::kernels::axpy(g, &self.w[idx * k..(idx + 1) * k], v);
                        }
                        softmax_inplace(g);
                        let y = *labels[i];
                        for (c, (gc, acc)) in g.iter_mut().zip(chunk_grad.iter_mut()).enumerate() {
                            *gc -= if c == y { 1.0 } else { 0.0 };
                            *acc += *gc;
                        }
                    }
                    for (t, p) in bias_grad.iter_mut().zip(&chunk_grad) {
                        *t += p;
                    }
                }
                for (bc, g) in self.b.iter_mut().zip(&bias_grad) {
                    *bc -= lr * g;
                }
                // Sparse weight updates in sample order (serial, so the
                // L2 term sees deterministically-evolving weights). One
                // sample's features are unique, so within a sample each
                // weight cell is touched once and the feature-outer
                // order is bit-identical to the old class-outer order.
                for (j, g) in grads.chunks_exact(k).take(batch.len()).enumerate() {
                    for &(idx, v) in &masked[moff[j]..moff[j + 1]] {
                        for (wc, &gc) in self.w[idx * k..(idx + 1) * k].iter_mut().zip(g) {
                            *wc -= lr * (gc * v + l2 * *wc);
                        }
                    }
                }
            }
        }
    }
}

/// The text classification model (paper Task 1 substrate).
#[derive(Debug, Clone)]
pub struct TextClassifier {
    config: TextClassifierConfig,
    main: Linear,
    committee: Vec<Linear>,
}

impl TextClassifier {
    /// A fresh (zero-weight) classifier.
    pub fn new(config: TextClassifierConfig) -> Self {
        assert!(config.n_classes >= 2, "need at least two classes");
        assert!(
            (0.0..1.0).contains(&config.dropout),
            "dropout must be in [0, 1)"
        );
        let main = Linear::zeros(config.n_classes, config.n_features);
        Self {
            config,
            main,
            committee: Vec::new(),
        }
    }

    /// Class posterior for one document.
    pub fn predict_proba(&self, doc: &Document) -> Vec<f64> {
        self.main.probs(&doc.features)
    }

    /// Argmax class prediction.
    pub(crate) fn predict(&self, doc: &Document) -> usize {
        let p = self.predict_proba(doc);
        argmax(&p)
    }

    /// Closed-form expected gradient length (Eq. 5): the reference the
    /// fused `eval_sample` path is checked against.
    #[cfg(test)]
    fn egl(&self, doc: &Document) -> f64 {
        let p = self.predict_proba(doc);
        let x_norm = (doc.features.norm().powi(2) + 1.0).sqrt(); // +1 for bias
        x_norm * expected_grad_class_factor(&p)
    }

    /// EGL of word embedding (Eq. 12): the expected gradient norm on the
    /// most influential word's weight block.
    #[cfg(test)]
    fn egl_word(&self, doc: &Document) -> f64 {
        let p = self.predict_proba(doc);
        doc.max_word_weight * expected_grad_class_factor(&p)
    }

    /// BALD mutual information via MC dropout. All pass posteriors live
    /// in thread-local scratch, so repeated calls over a pool allocate
    /// nothing.
    pub(crate) fn bald(&self, doc: &Document, rng: &mut ChaCha8Rng) -> f64 {
        POSTERIOR.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            let PosteriorScratch {
                pass,
                mean,
                cand,
                kept,
            } = ws;
            let passes = self.config.mc_passes.max(2);
            mean.clear();
            mean.resize(self.config.n_classes, 0.0);
            self.main.mask_candidates(&doc.features, cand);
            kept.resize(cand.len(), (0, 0.0));
            let mut mean_entropy = 0.0;
            for _ in 0..passes {
                self.main
                    .probs_dropout_into(cand, self.config.dropout, rng, kept, pass);
                mean_entropy += histal_core::eval::entropy_of(pass);
                for (m, pi) in mean.iter_mut().zip(pass.iter()) {
                    *m += pi;
                }
            }
            for m in mean.iter_mut() {
                *m /= passes as f64;
            }
            mean_entropy /= passes as f64;
            (histal_core::eval::entropy_of(mean) - mean_entropy).max(0.0)
        })
    }

    /// Mean KL of committee members from the committee mean (Eq. 6).
    /// Returns `None` if no committee was trained.
    pub(crate) fn qbc_kl(&self, doc: &Document) -> Option<f64> {
        if self.committee.is_empty() {
            return None;
        }
        // A member's posterior is ~100 ns of work and this runs once per
        // pool sample inside the evaluation fan-out, so it stays serial.
        let dists: Vec<Vec<f64>> = self
            .committee
            .iter()
            .map(|member| member.probs(&doc.features))
            .collect();
        let k = self.config.n_classes;
        let mut avg = vec![0.0; k];
        for d in &dists {
            for (a, v) in avg.iter_mut().zip(d) {
                *a += v;
            }
        }
        for a in &mut avg {
            *a /= dists.len() as f64;
        }
        let kl: f64 = dists.iter().map(|d| kl_divergence(d, &avg)).sum();
        Some(kl / dists.len() as f64)
    }
}

/// `Σ_y p_y · ‖p − e_y‖₂` — the class-space factor shared by EGL and
/// EGL-word.
fn expected_grad_class_factor(p: &[f64]) -> f64 {
    let norm_sq: f64 = p.iter().map(|v| v * v).sum();
    p.iter()
        .map(|&py| {
            // ‖p − e_y‖² = ‖p‖² − 2 p_y + 1
            py * (norm_sq - 2.0 * py + 1.0).max(0.0).sqrt()
        })
        .sum()
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl Model for TextClassifier {
    type Sample = Document;
    type Label = usize;

    fn fit(&mut self, samples: &[&Document], labels: &[&usize], rng: &mut ChaCha8Rng) {
        if samples.is_empty() {
            return;
        }
        let _span = span!(Level::Debug, "logreg.fit", n = samples.len());
        if !self.config.warm_start {
            self.main = Linear::zeros(self.config.n_classes, self.config.n_features);
        }
        self.main.train(
            samples,
            labels,
            self.config.epochs,
            self.config.lr,
            self.config.l2,
            self.config.train_dropout,
            rng,
        );
        // Bootstrap committee for QBC: same labeled set, resampled with
        // replacement, trained from scratch with its own randomness.
        // Bootstrap indices and member seeds are drawn serially from the
        // driver stream; the independent members then train in parallel.
        let n = samples.len();
        let plans: Vec<(Vec<usize>, u64)> = (0..self.config.committee)
            .map(|_| {
                let boot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                (boot, rng.gen())
            })
            .collect();
        let cfg = &self.config;
        self.committee = crate::parallel::map_items(plans.len(), |m| {
            let (boot, member_seed) = &plans[m];
            let boot_samples: Vec<&Document> = boot.iter().map(|&i| samples[i]).collect();
            let boot_labels: Vec<&usize> = boot.iter().map(|&i| labels[i]).collect();
            let mut member = Linear::zeros(cfg.n_classes, cfg.n_features);
            let mut mrng = ChaCha8Rng::seed_from_u64(*member_seed);
            member.train(
                &boot_samples,
                &boot_labels,
                cfg.committee_epochs,
                cfg.lr,
                cfg.l2,
                cfg.train_dropout,
                &mut mrng,
            );
            member
        });
    }

    fn eval_sample(&self, sample: &Document, caps: &EvalCaps, seed: u64) -> SampleEval {
        let p = self.predict_proba(sample);
        // EGL and EGL-word share the class-space factor, and both start
        // from the posterior already in hand — fold them off it instead
        // of recomputing it per capability.
        let grad_factor = (caps.egl || caps.egl_word).then(|| expected_grad_class_factor(&p));
        let mut eval = SampleEval::from_probs(p);
        if caps.egl {
            let x_norm = (sample.features.norm().powi(2) + 1.0).sqrt(); // +1 for bias
            eval.egl = grad_factor.map(|f| x_norm * f);
        }
        if caps.egl_word {
            eval.egl_word = grad_factor.map(|f| sample.max_word_weight * f);
        }
        if caps.bald {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            eval.bald = Some(self.bald(sample, &mut rng));
        }
        if caps.qbc {
            eval.qbc_kl = self.qbc_kl(sample);
        }
        eval
    }

    fn metric(&self, samples: &[&Document], labels: &[&usize]) -> f64 {
        let _span = span!(Level::Debug, "logreg.metric", n = samples.len());
        let pred: Vec<usize> = samples.iter().map(|d| self.predict(d)).collect();
        let gold: Vec<usize> = labels.iter().map(|&&l| l).collect();
        accuracy(&pred, &gold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_text::FeatureHasher;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn hasher() -> FeatureHasher {
        FeatureHasher::new(1 << 12)
    }

    fn doc(words: &[&str]) -> Document {
        let toks: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Document::from_tokens(&toks, &hasher())
    }

    fn toy_data() -> (Vec<Document>, Vec<usize>) {
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let filler = format!("f{i}");
            if i % 2 == 0 {
                docs.push(doc(&["good", "great", &filler]));
                labels.push(1);
            } else {
                docs.push(doc(&["bad", "awful", &filler]));
                labels.push(0);
            }
        }
        (docs, labels)
    }

    fn small_config() -> TextClassifierConfig {
        TextClassifierConfig {
            n_features: 1 << 12,
            epochs: 15,
            mc_passes: 8,
            ..Default::default()
        }
    }

    fn fit(model: &mut TextClassifier, docs: &[Document], labels: &[usize], seed: u64) {
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        model.fit(&s, &l, &mut rng(seed));
    }

    #[test]
    fn probs_sum_to_one_untrained() {
        let m = TextClassifier::new(small_config());
        let p = m.predict_proba(&doc(&["x"]));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn learns_separable_data() {
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(small_config());
        fit(&mut m, &docs, &labels, 1);
        assert_eq!(m.predict(&doc(&["good", "great"])), 1);
        assert_eq!(m.predict(&doc(&["bad", "awful"])), 0);
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        assert!(m.metric(&s, &l) > 0.95);
    }

    #[test]
    fn egl_higher_for_uncertain_sample() {
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(small_config());
        fit(&mut m, &docs, &labels, 2);
        let certain = m.egl(&doc(&["good", "great"]));
        let uncertain = m.egl(&doc(&["good", "bad"]));
        assert!(
            uncertain > certain,
            "uncertain {uncertain} vs certain {certain}"
        );
    }

    #[test]
    fn egl_class_factor_bounds() {
        // Deterministic posterior → factor 0; uniform → positive.
        assert!(expected_grad_class_factor(&[1.0, 0.0]) < 1e-9);
        assert!(expected_grad_class_factor(&[0.5, 0.5]) > 0.5);
    }

    #[test]
    fn bald_near_zero_for_empty_doc_and_positive_for_ambiguous() {
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(small_config());
        fit(&mut m, &docs, &labels, 3);
        let ambiguous = m.bald(&doc(&["good", "bad"]), &mut rng(9));
        assert!(ambiguous >= 0.0);
        // An empty document gets the same posterior under every mask →
        // zero mutual information.
        let empty = m.bald(&Document::default(), &mut rng(9));
        assert!(empty.abs() < 1e-9);
    }

    #[test]
    fn qbc_requires_committee() {
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(small_config());
        fit(&mut m, &docs, &labels, 4);
        assert!(m.qbc_kl(&doc(&["good"])).is_none());
        let mut m2 = TextClassifier::new(TextClassifierConfig {
            committee: 3,
            ..small_config()
        });
        fit(&mut m2, &docs, &labels, 4);
        let kl = m2.qbc_kl(&doc(&["good", "bad"])).unwrap();
        assert!(kl >= 0.0);
    }

    #[test]
    fn eval_sample_respects_caps() {
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(small_config());
        fit(&mut m, &docs, &labels, 5);
        let d = doc(&["good"]);
        let none = m.eval_sample(&d, &EvalCaps::default(), 7);
        assert!(none.egl.is_none() && none.bald.is_none());
        let caps = EvalCaps {
            egl: true,
            egl_word: true,
            bald: true,
            ..Default::default()
        };
        let full = m.eval_sample(&d, &caps, 7);
        assert!(full.egl.is_some() && full.egl_word.is_some() && full.bald.is_some());
        // Determinism under the same seed.
        let again = m.eval_sample(&d, &caps, 7);
        assert_eq!(full.bald, again.bald);
    }

    #[test]
    fn eval_sample_matches_standalone_scores() {
        // The batched eval path folds EGL / EGL-word off one shared
        // posterior and runs BALD through thread-local scratch; it must
        // stay bit-identical to the standalone public methods.
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(small_config());
        fit(&mut m, &docs, &labels, 11);
        let d = doc(&["good", "bad", "odd"]);
        let caps = EvalCaps {
            egl: true,
            egl_word: true,
            bald: true,
            ..Default::default()
        };
        let eval = m.eval_sample(&d, &caps, 13);
        assert_eq!(eval.egl, Some(m.egl(&d)));
        assert_eq!(eval.egl_word, Some(m.egl_word(&d)));
        assert_eq!(eval.bald, Some(m.bald(&d, &mut rng(13))));
        let p = m.predict_proba(&d);
        assert_eq!(eval.entropy, histal_core::eval::entropy_of(&p));
    }

    #[test]
    fn warm_start_vs_scratch() {
        let (docs, labels) = toy_data();
        let mut warm = TextClassifier::new(small_config());
        fit(&mut warm, &docs, &labels, 6);
        let before = warm.predict_proba(&doc(&["good", "great"]))[1];
        // Second fit on the same data sharpens the posterior further.
        fit(&mut warm, &docs, &labels, 7);
        let after = warm.predict_proba(&doc(&["good", "great"]))[1];
        assert!(after >= before - 1e-6);

        let mut cold = TextClassifier::new(TextClassifierConfig {
            warm_start: false,
            epochs: 1,
            ..small_config()
        });
        fit(&mut cold, &docs, &labels, 8);
        let p1 = cold.predict_proba(&doc(&["good", "great"]))[1];
        fit(&mut cold, &docs, &labels, 8);
        let p2 = cold.predict_proba(&doc(&["good", "great"]))[1];
        // Retrained from scratch with identical seed → identical model.
        assert!((p1 - p2).abs() < 1e-12);
    }

    #[test]
    fn empty_fit_is_noop() {
        let mut m = TextClassifier::new(small_config());
        m.fit(&[], &[], &mut rng(0));
        let p = m.predict_proba(&doc(&["x"]));
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multiclass_training() {
        let mut cfg = small_config();
        cfg.n_classes = 3;
        let classes: [&[&str]; 3] = [&["alpha", "one"], &["beta", "two"], &["gamma", "three"]];
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..10 {
            for (c, words) in classes.iter().enumerate() {
                let filler = format!("n{rep}");
                let mut ws: Vec<&str> = words.to_vec();
                ws.push(&filler);
                docs.push(doc(&ws));
                labels.push(c);
            }
        }
        let mut m = TextClassifier::new(cfg);
        fit(&mut m, &docs, &labels, 9);
        assert_eq!(m.predict(&doc(&["alpha", "one"])), 0);
        assert_eq!(m.predict(&doc(&["beta", "two"])), 1);
        assert_eq!(m.predict(&doc(&["gamma", "three"])), 2);
    }

    #[test]
    fn training_bits_are_pinned() {
        // FNV-1a over the bits of `main.w` then `main.b` after a fixed
        // 3-epoch fit with training dropout on. Pins the minibatch
        // gradient's chunk association (`GRAD_CHUNK`): summing the bias
        // gradient in any other order moves the low bits.
        let (docs, labels) = toy_data();
        let mut m = TextClassifier::new(TextClassifierConfig {
            epochs: 3,
            ..small_config()
        });
        assert!(m.config.train_dropout > 0.0);
        fit(&mut m, &docs, &labels, 21);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in m.main.w.iter().chain(&m.main.b) {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xf02c_d799_23c7_dd7c, "pinned hash {h:#018x}");
    }

    #[test]
    fn multiclass_short_batch_training_bits_are_pinned() {
        // k = 3 over 37 samples: four full minibatches and a short last
        // one of 5, whose bias gradient reduces over chunks of 2, 2 and
        // 1. Same FNV-1a as `training_bits_are_pinned`.
        let classes: [&[&str]; 3] = [&["alpha", "one"], &["beta", "two"], &["gamma", "three"]];
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..37 {
            let filler = format!("m{i}");
            let mut ws: Vec<&str> = classes[i % 3].to_vec();
            ws.push(&filler);
            docs.push(doc(&ws));
            labels.push(i % 3);
        }
        let mut m = TextClassifier::new(TextClassifierConfig {
            n_classes: 3,
            epochs: 3,
            ..small_config()
        });
        fit(&mut m, &docs, &labels, 23);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in m.main.w.iter().chain(&m.main.b) {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x6e17_13f4_3d7c_02ec, "pinned hash {h:#018x}");
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn one_class_panics() {
        let mut cfg = small_config();
        cfg.n_classes = 1;
        let _ = TextClassifier::new(cfg);
    }
}
