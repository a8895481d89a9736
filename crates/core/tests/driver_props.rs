//! Property-based tests of the full active-learning driver, using a
//! deterministic mock model so the loop's structural invariants are
//! checked across random pool sizes, batch sizes and strategies.

use proptest::prelude::*;
use rand_chacha::ChaCha8Rng;

use histal_core::driver::{top_k, ActiveLearner, PoolConfig};
use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::model::Model;
use histal_core::strategy::{BaseStrategy, HistoryPolicy, Strategy as AlStrategy};

/// Posterior fixed by the sample value; fit is a no-op.
#[derive(Clone)]
struct FixedModel;

impl Model for FixedModel {
    type Sample = f64;
    type Label = usize;

    fn fit(&mut self, _: &[&f64], _: &[&usize], _: &mut ChaCha8Rng) {}

    fn eval_sample(&self, sample: &f64, _: &EvalCaps, _: u64) -> SampleEval {
        let p = sample.clamp(0.0, 1.0);
        SampleEval::from_probs(vec![p, 1.0 - p])
    }

    fn metric(&self, samples: &[&f64], labels: &[&usize]) -> f64 {
        let correct = samples
            .iter()
            .zip(labels)
            .filter(|(&&x, &&y)| usize::from(x >= 0.5) == y)
            .count();
        correct as f64 / samples.len().max(1) as f64
    }
}

fn strategies() -> impl Strategy<Value = AlStrategy> {
    prop_oneof![
        Just(AlStrategy::new(BaseStrategy::Entropy)),
        Just(AlStrategy::new(BaseStrategy::LeastConfidence)),
        Just(AlStrategy::new(BaseStrategy::Random)),
        Just(AlStrategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Wshs { l: 3 })),
        Just(
            AlStrategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Fhs {
                l: 3,
                w_score: 0.5,
                w_fluct: 0.5,
            })
        ),
        Just(AlStrategy::new(BaseStrategy::Entropy).with_hkld(3)),
    ]
}

fn run(
    n: usize,
    batch: usize,
    rounds: usize,
    strategy: AlStrategy,
    seed: u64,
) -> histal_core::RunResult {
    let pool: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
    let labels: Vec<usize> = pool.iter().map(|&x| usize::from(x >= 0.5)).collect();
    let mut learner = ActiveLearner::builder(FixedModel)
        .pool(pool, labels)
        .test(vec![0.1, 0.9], vec![0, 1])
        .strategy(strategy)
        .config(PoolConfig {
            batch_size: batch,
            rounds,
            init_labeled: batch,
            record_history: true,
            ann: None,
        })
        .seed(seed)
        .build();
    learner
        .run()
        .expect("mock model supports all chosen strategies")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Structural invariants hold for every pool/batch/strategy combo:
    /// no duplicate selections, monotone labeled counts, curve length
    /// bounded by rounds + 1, history lengths bounded by rounds.
    #[test]
    fn driver_invariants(
        n in 10usize..120,
        batch in 1usize..12,
        rounds in 1usize..8,
        strategy in strategies(),
        seed in 0u64..1000,
    ) {
        let r = run(n, batch, rounds, strategy, seed);
        prop_assert!(r.curve.len() <= rounds + 1);
        // Labeled counts strictly increase across curve points.
        for w in r.curve.windows(2) {
            prop_assert!(w[1].n_labeled > w[0].n_labeled);
            prop_assert!(w[1].n_labeled - w[0].n_labeled <= batch);
        }
        // No sample selected twice, and never one from the initial set.
        let mut seen = std::collections::HashSet::new();
        for round in &r.rounds {
            prop_assert!(round.selected.len() <= batch);
            for &id in &round.selected {
                prop_assert!(id < n);
                prop_assert!(seen.insert(id), "sample {id} selected twice");
            }
        }
        // Histories never exceed the number of selection rounds.
        for seq in &r.history {
            prop_assert!(seq.len() <= rounds);
        }
        // Total labeled never exceeds the pool.
        prop_assert!(r.curve.last().unwrap().n_labeled <= n);
    }

    /// Identical seeds reproduce runs exactly; different seeds change the
    /// random initial set.
    #[test]
    fn driver_determinism(
        n in 20usize..80,
        seed in 0u64..500,
        strategy in strategies(),
    ) {
        let a = run(n, 5, 3, strategy.clone(), seed);
        let b = run(n, 5, 3, strategy, seed);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            prop_assert_eq!(&ra.selected, &rb.selected);
        }
        for (pa, pb) in a.curve.iter().zip(&b.curve) {
            prop_assert_eq!(pa.metric, pb.metric);
        }
    }

    /// `top_k`'s documented tie-break: equal scores resolve toward the
    /// lower index. Scores are drawn from a tiny discrete set so heavy
    /// ties are the common case, and the result must equal a stable
    /// descending sort (which preserves pool order within each tie
    /// class) truncated to `k`.
    #[test]
    fn top_k_breaks_ties_toward_lower_index(
        scores in prop::collection::vec(0u8..4, 0..60),
        k in 0usize..70,
    ) {
        let scores: Vec<f64> = scores.into_iter().map(f64::from).collect();
        let got = top_k(&scores, k);
        let mut expect: Vec<usize> = (0..scores.len()).collect();
        expect.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        expect.truncate(k);
        prop_assert_eq!(&got, &expect);
        // Membership restated directly: anything strictly better is in,
        // and within a tie class every lower index is in first.
        for &i in &got {
            for j in 0..scores.len() {
                let better = scores[j] > scores[i] || (scores[j] == scores[i] && j < i);
                if better {
                    prop_assert!(got.contains(&j), "index {j} beats {i} but was dropped");
                }
            }
        }
    }
}

/// The full-sort contract `top_k` must reproduce, stated as a total
/// key `(is_nan, score desc, index asc)`: indices by score descending,
/// `NaN` after every real score, ties (including between `NaN`s) toward
/// the lower index.
fn sort_oracle(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        let (sa, sb) = (scores[a], scores[b]);
        sa.is_nan()
            .cmp(&sb.is_nan())
            .then_with(|| sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

proptest! {
    /// `top_k` (the bounded-heap path) is extensionally equal to the
    /// full sort for every input: mixed magnitudes, heavy ties, and
    /// `NaN`s (which route to the sort fallback), at every `k` from
    /// under-full to over-full.
    #[test]
    fn top_k_matches_full_sort(
        raw in prop::collection::vec(
            // i32::MAX is mapped to NaN below; unweighted union keeps
            // NaN common enough to exercise the sort fallback.
            prop_oneof![-100i32..100, Just(i32::MAX)],
            0..80,
        ),
        k in 0usize..90,
    ) {
        let scores: Vec<f64> = raw
            .into_iter()
            .map(|v| if v == i32::MAX { f64::NAN } else { f64::from(v) / 8.0 })
            .collect();
        prop_assert_eq!(top_k(&scores, k), sort_oracle(&scores, k));
    }

    /// `NaN`-free vectors with heavy ties: the bounded-heap path proper
    /// (the union above yields `NaN` in half the draws, which routes to
    /// the sort fallback — this pins the heap against the oracle).
    #[test]
    fn top_k_matches_full_sort_finite(
        raw in prop::collection::vec(-20i32..20, 0..80),
        k in 0usize..90,
    ) {
        let scores: Vec<f64> = raw.into_iter().map(|v| f64::from(v) / 4.0).collect();
        prop_assert_eq!(top_k(&scores, k), sort_oracle(&scores, k));
    }

    /// All-tied score vectors degrade to pool order: a real tie runs the
    /// heap's pure tie-break path, an all-`NaN` vector the sort fallback.
    #[test]
    fn top_k_all_tied_is_pool_order(
        n in 0usize..60,
        k in 0usize..70,
        v in prop_oneof![-5.0f64..5.0, Just(f64::NAN)],
    ) {
        let got = top_k(&vec![v; n], k);
        let expect: Vec<usize> = (0..n.min(k)).collect();
        prop_assert_eq!(&got, &expect);
    }
}

/// A zero history window has no rolling fold: building the session
/// panics, as `with_hkld(1)` does, instead of running an all-zero fold
/// under a `HUS(...)` label.
#[test]
#[should_panic(expected = "rolling window must be positive")]
fn zero_history_window_panics_at_build() {
    run(
        20,
        2,
        2,
        AlStrategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Hus { k: 0 }),
        0,
    );
}
