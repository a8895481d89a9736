//! Property-based tests for the active-learning core: evaluation math,
//! history folding, tag codecs and selection utilities.

use proptest::prelude::*;

use histal_core::driver::{hkld_score, top_k};
use histal_core::eval::{entropy_of, margin_of, SampleEval};
use histal_core::history::HistoryStore;
use histal_core::learned::bucket_levels;
use histal_core::metrics::PrF1;
use histal_core::strategy::HistoryPolicy;
use histal_core::tags::TagScheme;

fn probs_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, 2..8).prop_map(|v| {
        let sum: f64 = v.iter().sum();
        v.into_iter().map(|x| x / sum).collect()
    })
}

proptest! {
    /// Entropy is bounded by [0, ln k] on the simplex.
    #[test]
    fn entropy_bounds(p in probs_strategy()) {
        let e = entropy_of(&p);
        prop_assert!(e >= -1e-12);
        prop_assert!(e <= (p.len() as f64).ln() + 1e-9);
    }

    /// Margin uncertainty is in [0, 1] on the simplex.
    #[test]
    fn margin_bounds(p in probs_strategy()) {
        let m = margin_of(&p).expect("≥2 classes");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&m));
    }

    /// SampleEval::from_probs is consistent with the raw functions.
    #[test]
    fn eval_consistency(p in probs_strategy()) {
        let eval = SampleEval::from_probs(p.clone());
        prop_assert!((eval.entropy - entropy_of(&p)).abs() < 1e-12);
        let max = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((eval.least_confidence - (1.0 - max)).abs() < 1e-12);
    }

    /// The ring keeps the last `l` scores, oldest first: its view equals
    /// the tail of everything appended, at every step.
    #[test]
    fn history_ring_keeps_suffix(scores in prop::collection::vec(-5.0f64..5.0, 0..30), l in 1usize..6) {
        let mut store = HistoryStore::new(2, l);
        for (t, &s) in scores.iter().enumerate() {
            store.append(1, s);
            let tail_start = (t + 1).saturating_sub(l);
            prop_assert_eq!(store.seq(1).to_vec(), scores[tail_start..=t].to_vec());
        }
        prop_assert_eq!(store.seq(0).to_vec(), Vec::<f64>::new());
    }

    /// Rolling-statistics scoring through the store agrees with the
    /// from-scratch policy fold on the retained sequence, for arbitrary
    /// append sequences, window lengths and any ring at least as long
    /// as the window.
    #[test]
    fn rolling_store_matches_policy_fold(
        scores in prop::collection::vec(-5.0f64..5.0, 0..40),
        extra in 0usize..8,
        window in 1usize..8,
        policy_ix in 0usize..4,
    ) {
        let policy = match policy_ix {
            0 => HistoryPolicy::CurrentOnly,
            1 => HistoryPolicy::Hus { k: window },
            2 => HistoryPolicy::Wshs { l: window },
            _ => HistoryPolicy::Fhs { l: window, w_score: 0.6, w_fluct: 0.4 },
        };
        let mut store = HistoryStore::new(1, policy.window() + extra).with_rolling(policy.window());
        for &s in &scores {
            store.append(0, s);
            let rolling = policy.rolling_score(store.rolling(0).expect("rolling enabled"));
            let seq = store.seq(0).to_vec();
            let scratch = policy.final_score(&seq);
            // Rolling updates associate the arithmetic differently and the
            // Welford remove/add error accumulates over the run, so the
            // bound is a comfortable multiple of machine epsilon — still
            // orders of magnitude below any real defect (wrong evictee or
            // weight shows up at ~1e-1).
            let tol = scratch.abs().max(1.0) * 1e-10;
            prop_assert!(
                (rolling - scratch).abs() <= tol,
                "{:?}: rolling {} vs scratch {}", policy, rolling, scratch
            );
        }
    }

    /// All history policies coincide on single-element sequences
    /// (variance is zero; sums have one term).
    #[test]
    fn policies_agree_on_singletons(score in -5.0f64..5.0) {
        let seq = [score];
        let current = HistoryPolicy::CurrentOnly.final_score(&seq);
        let wshs = HistoryPolicy::Wshs { l: 3 }.final_score(&seq);
        let hus = HistoryPolicy::Hus { k: 3 }.final_score(&seq);
        let fhs = HistoryPolicy::Fhs { l: 3, w_score: 1.0, w_fluct: 1.0 }.final_score(&seq);
        prop_assert!((wshs - current).abs() < 1e-12);
        prop_assert!((hus - current).abs() < 1e-12);
        prop_assert!((fhs - current).abs() < 1e-12);
    }

    /// top_k returns positions whose scores are sorted descending, and
    /// they dominate all unreturned scores.
    #[test]
    fn top_k_dominance(scores in prop::collection::vec(-100.0f64..100.0, 0..40), k in 0usize..10) {
        let picks = top_k(&scores, k);
        prop_assert_eq!(picks.len(), k.min(scores.len()));
        for w in picks.windows(2) {
            prop_assert!(scores[w[0]] >= scores[w[1]]);
        }
        if let Some(&last) = picks.last() {
            for (i, &s) in scores.iter().enumerate() {
                if !picks.contains(&i) {
                    prop_assert!(s <= scores[last] + 1e-12);
                }
            }
        }
    }

    /// bucket_levels is monotone: a larger delta never gets a lower level.
    #[test]
    fn bucket_levels_monotone(deltas in prop::collection::vec(-1.0f64..1.0, 1..20)) {
        let levels = bucket_levels(&deltas, 0.0);
        for i in 0..deltas.len() {
            for j in 0..deltas.len() {
                if deltas[i] > deltas[j] {
                    prop_assert!(levels[i] >= levels[j]);
                }
            }
        }
    }

    /// HKLD is non-negative and zero for identical posteriors.
    #[test]
    fn hkld_nonneg(p in probs_strategy(), reps in 2usize..6, k in 2usize..6) {
        let identical = vec![p.clone(); reps];
        prop_assert!(hkld_score(&identical, k).abs() < 1e-9);
        // Perturbed committee: still non-negative.
        let mut perturbed = identical.clone();
        let dim = p.len();
        perturbed[0] = {
            let mut q = vec![1e-3; dim];
            q[0] = 1.0 - 1e-3 * (dim - 1) as f64;
            q
        };
        prop_assert!(hkld_score(&perturbed, k) >= 0.0);
    }

    /// PrF1 from counts is always within [0, 1] and F1 is the harmonic
    /// mean when both parts are positive.
    #[test]
    fn prf1_invariants(tp in 0usize..50, extra_pred in 0usize..50, extra_gold in 0usize..50) {
        let m = PrF1::from_counts(tp, tp + extra_pred, tp + extra_gold);
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
        if m.precision > 0.0 && m.recall > 0.0 {
            let hm = 2.0 * m.precision * m.recall / (m.precision + m.recall);
            prop_assert!((m.f1 - hm).abs() < 1e-12);
        }
    }

    /// BIOES span codec round-trips arbitrary non-overlapping layouts.
    #[test]
    fn span_codec_roundtrip(layout in prop::collection::vec((1usize..4, 0usize..4, 0usize..3), 0..6)) {
        let scheme = TagScheme::conll();
        let mut tags: Vec<u16> = Vec::new();
        let mut expected = Vec::new();
        for (len, ty, gap) in layout {
            tags.extend(std::iter::repeat(0u16).take(gap));
            let start = tags.len();
            tags.extend(scheme.encode_span(len, ty));
            expected.push((start, start + len - 1, ty));
        }
        prop_assert_eq!(scheme.decode_spans(&tags), expected);
    }
}
