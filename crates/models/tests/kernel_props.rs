//! Property tests for the beam-pruned scoring pass (DESIGN.md §5.7): it
//! stays inside its documented error envelope. `logZ` is underestimated
//! by at most `B = −(T−1)·ln(1 − L·e^{−δ})`, least-confidence moves by
//! at most `e^B − 1`, and a wide-open beam (`δ` huge) reproduces the
//! exact path bit-for-bit.
//!
//! And for the branch-free dropout mask: it keeps exactly what the
//! branchy reference keeps and leaves its RNG where the reference leaves
//! its own. `scripts/ci.sh` also runs this file in release, where the
//! mask loop is the optimised one the models run.

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use histal_core::eval::EvalCaps;
use histal_core::model::Model;
use histal_core::tags::TagScheme;
use histal_models::kernels::{dropout_mask, train_dropout_mask};
use histal_models::{CrfConfig, CrfTagger, Sentence};
use histal_text::FeatureHasher;

fn sents_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(prop::collection::vec("[a-d]{1,3}", 1..9), 2..6)
}

/// Fit two CRFs with identical seeds and configs differing only in
/// `score_beam` (which `fit` never reads, so weights come out
/// identical), over the given sentences. Returns `(exact, beamed,
/// sentences, n_labels)`.
fn fit_pair(tokens: &[Vec<String>], delta: f64) -> (CrfTagger, CrfTagger, Vec<Sentence>, usize) {
    let hasher = FeatureHasher::new(1 << 8);
    let sents: Vec<Sentence> = tokens
        .iter()
        .map(|t| Sentence::featurize(t, &hasher))
        .collect();
    let mk = |beam: Option<f64>| {
        CrfTagger::new(CrfConfig {
            n_features: 1 << 8,
            epochs: 2,
            scheme: TagScheme::new(["X"]),
            score_beam: beam,
            ..Default::default()
        })
    };
    let mut exact = mk(None);
    let mut beamed = mk(Some(delta));
    let n_labels = TagScheme::new(["X"]).n_labels();
    let tag_rows: Vec<Vec<u16>> = tokens
        .iter()
        .map(|t| (0..t.len()).map(|i| (i % n_labels) as u16).collect())
        .collect();
    let s: Vec<&Sentence> = sents.iter().collect();
    let t: Vec<&Vec<u16>> = tag_rows.iter().collect();
    exact.fit(&s, &t, &mut ChaCha8Rng::seed_from_u64(7));
    beamed.fit(&s, &t, &mut ChaCha8Rng::seed_from_u64(7));
    (exact, beamed, sents, n_labels)
}

/// The documented per-sentence log-partition slack
/// `B = −(T−1)·ln(1 − L·e^{−δ})` (0 for single-token sentences).
fn logz_bound(t_len: usize, n_labels: usize, delta: f64) -> f64 {
    let mass = n_labels as f64 * (-delta).exp();
    assert!(mass < 1.0, "bound is vacuous for this (L, δ)");
    -((t_len as f64 - 1.0).max(0.0)) * (1.0 - mass).ln()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A wide-open beam keeps every state active, so the pruned pass is
    /// the exact pass: logZ, least-confidence, and entropy are all
    /// bit-identical. (This is the δ → ∞ limit of the error bound.)
    #[test]
    fn huge_beam_is_bit_identical_to_exact(tokens in sents_strategy()) {
        let (exact, beamed, sents, _) = fit_pair(&tokens, 1e300);
        let caps = EvalCaps { entropy: true, ..Default::default() };
        for (i, s) in sents.iter().enumerate() {
            prop_assert_eq!(
                exact.log_partition(s).to_bits(),
                beamed.log_partition(s).to_bits()
            );
            let a = exact.eval_sample(s, &caps, i as u64);
            let b = beamed.eval_sample(s, &caps, i as u64);
            prop_assert_eq!(a.least_confidence.to_bits(), b.least_confidence.to_bits());
            prop_assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
        }
    }

    /// Pruning only removes non-negative terms from each logsumexp, so
    /// the beamed logZ never exceeds the exact one — and it stays within
    /// the documented bound `B` of it.
    #[test]
    fn beam_logz_within_documented_bound(tokens in sents_strategy()) {
        let delta = 8.0;
        let (exact, beamed, sents, n_labels) = fit_pair(&tokens, delta);
        for s in &sents {
            let ze = exact.log_partition(s);
            let zb = beamed.log_partition(s);
            let bound = logz_bound(s.len(), n_labels, delta);
            prop_assert!(zb <= ze + 1e-9, "beam must underestimate: {zb} > {ze}");
            prop_assert!(
                ze - zb <= bound + 1e-9,
                "logZ gap {} exceeds bound {bound}",
                ze - zb
            );
        }
    }

    /// Least-confidence error is bounded by `e^B − 1` (the Viterbi path
    /// score is exact in both, only logZ moves), and pairs whose exact
    /// LC gap exceeds the sum of their error radii keep their relative
    /// order under the beam — the rank-stability property selection
    /// actually depends on.
    #[test]
    fn beam_lc_bounded_and_rank_stable(tokens in sents_strategy()) {
        let delta = 8.0;
        let (exact, beamed, sents, n_labels) = fit_pair(&tokens, delta);
        let caps = EvalCaps::default();
        let mut rows = Vec::new();
        for (i, s) in sents.iter().enumerate() {
            let lc_e = exact.eval_sample(s, &caps, i as u64).least_confidence;
            let lc_b = beamed.eval_sample(s, &caps, i as u64).least_confidence;
            let err = logz_bound(s.len(), n_labels, delta).exp() - 1.0;
            prop_assert!(
                (lc_b - lc_e).abs() <= err + 1e-9,
                "LC moved by {} > radius {err}",
                (lc_b - lc_e).abs()
            );
            rows.push((lc_e, lc_b, err));
        }
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                let (ei, bi, ri) = rows[i];
                let (ej, bj, rj) = rows[j];
                if ei + ri < ej - rj {
                    prop_assert!(
                        bi < bj,
                        "separated pair reordered: exact {ei} < {ej} but beamed {bi} >= {bj}"
                    );
                }
            }
        }
    }
}

/// The branchy keep/drop loop the mask kernel replaced.
fn reference_mask<T: Copy>(cand: &[T], keep: f64, rng: &mut ChaCha8Rng) -> Vec<T> {
    let mut out = Vec::new();
    for &c in cand {
        if rng.gen::<f64>() < keep {
            out.push(c);
        }
    }
    out
}

/// Distinct candidates, so a reordering or a duplicate shows.
fn candidates(n: usize) -> Vec<(u32, f64)> {
    (0..n).map(|i| (i as u32, i as f64 * 0.5 - 3.0)).collect()
}

fn keep_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.5), Just(0.65), Just(0.75), Just(1.0), 0.0f64..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same kept list, in the same order, and the same number of draws
    /// consumed: the next word of both streams agrees. `skip` starts the
    /// streams at an arbitrary offset into the RNG's word buffer.
    #[test]
    fn dropout_mask_matches_branchy_reference(
        n in 0usize..200,
        keep in keep_strategy(),
        seed in 0u64..u64::MAX,
        skip in 0usize..70,
    ) {
        let cand = candidates(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ref_rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..skip {
            rng.next_u32();
            ref_rng.next_u32();
        }
        let mut out = vec![(0, 0.0); n];
        let kept = dropout_mask(&cand, keep, &mut rng, &mut out);
        prop_assert_eq!(&out[..kept], &reference_mask(&cand, keep, &mut ref_rng)[..]);
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
    }

    /// A training mask at dropout `d > 0` is the mask at `keep = 1 − d`.
    #[test]
    fn train_mask_matches_branchy_reference(
        n in 0usize..200,
        train_dropout in 0.01f64..0.9,
        seed in 0u64..u64::MAX,
    ) {
        let cand = candidates(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ref_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = vec![(0, 0.0); n];
        let kept = train_dropout_mask(&cand, train_dropout, &mut rng, &mut out);
        let expected = reference_mask(&cand, 1.0 - train_dropout, &mut ref_rng);
        prop_assert_eq!(&out[..kept], &expected[..]);
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64());
    }

    /// `train_dropout == 0.0` keeps every candidate and draws nothing.
    #[test]
    fn zero_train_dropout_keeps_all_and_draws_nothing(
        n in 0usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let cand = candidates(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = vec![(0, 0.0); n];
        let kept = train_dropout_mask(&cand, 0.0, &mut rng, &mut out);
        prop_assert_eq!(&out[..kept], &cand[..]);
        prop_assert_eq!(rng.next_u64(), ChaCha8Rng::seed_from_u64(seed).next_u64());
    }
}

/// A mask stores past its kept prefix, so the output must hold every
/// candidate; a short one is refused rather than written out of bounds.
#[test]
#[should_panic]
fn dropout_mask_refuses_a_short_output() {
    let cand = candidates(4);
    let mut out = vec![(0, 0.0); 3];
    dropout_mask(&cand, 0.5, &mut ChaCha8Rng::seed_from_u64(0), &mut out);
}
