//! Driver-level tests of the density/MMR combinators and structural
//! invariants of the active-learning loop (via a deterministic mock
//! model, so they are fast and substrate-independent).

mod common;

use common::tiny_text_task;
use histal::prelude::*;
use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::strategy::{DensityConfig, MmrConfig};
use histal_text::SparseVec;
use rand_chacha::ChaCha8Rng;

/// A mock classifier whose posterior for sample `i` is fixed by the
/// sample itself: `probs = [x[0], 1 - x[0]]`. fit() is a no-op, so the
/// driver's structure can be tested in isolation.
#[derive(Clone)]
struct FixedModel;

impl Model for FixedModel {
    type Sample = f64;
    type Label = usize;

    fn fit(&mut self, _: &[&f64], _: &[&usize], _: &mut ChaCha8Rng) {}

    fn eval_sample(&self, sample: &f64, _: &EvalCaps, _: u64) -> SampleEval {
        SampleEval::from_probs(vec![*sample, 1.0 - *sample])
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

fn run_fixed(n: usize, strategy: Strategy, batch: usize, rounds: usize) -> histal_core::RunResult {
    // Sample i has "certainty" i/n: the most uncertain samples are near
    // x = 0.5.
    let pool: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
    let labels: Vec<usize> = pool.iter().map(|&x| usize::from(x >= 0.5)).collect();
    let mut learner = ActiveLearner::builder(FixedModel)
        .pool(pool, labels.clone())
        .test(vec![0.2, 0.8], vec![0, 1])
        .strategy(strategy)
        .config(PoolConfig {
            batch_size: batch,
            rounds,
            init_labeled: batch,
            record_history: false,
            ann: None,
        })
        .seed(9)
        .build();
    learner.run().expect("mock model provides probabilities")
}

#[test]
fn no_sample_selected_twice_and_batches_full() {
    let r = run_fixed(200, Strategy::new(BaseStrategy::Entropy), 10, 8);
    let mut seen = std::collections::HashSet::new();
    for round in &r.rounds {
        assert_eq!(round.selected.len(), 10);
        for &id in &round.selected {
            assert!(seen.insert(id), "sample {id} selected twice");
        }
    }
}

#[test]
fn entropy_selects_most_uncertain_first() {
    let r = run_fixed(100, Strategy::new(BaseStrategy::Entropy), 10, 1);
    // The first batch must be the samples closest to x = 0.5.
    for &id in &r.rounds[0].selected {
        let x = id as f64 / 100.0;
        assert!(
            (x - 0.5).abs() <= 0.11,
            "selected sample {id} (x = {x}) is not near the boundary"
        );
    }
}

#[test]
fn curve_n_labeled_increments_by_batch() {
    let r = run_fixed(300, Strategy::new(BaseStrategy::LeastConfidence), 20, 5);
    for w in r.curve.windows(2) {
        assert_eq!(w[1].n_labeled - w[0].n_labeled, 20);
    }
}

#[test]
fn density_changes_selection_with_representations() {
    let task = tiny_text_task(2, 400, 61);
    let reps: Vec<SparseVec> = task.pool_docs.iter().map(|d| d.features.clone()).collect();
    let config = PoolConfig {
        batch_size: 15,
        rounds: 4,
        init_labeled: 15,
        record_history: false,
        ann: None,
    };
    let mk_learner = |strategy: Strategy| {
        ActiveLearner::builder(TextClassifier::new(TextClassifierConfig {
            n_classes: 2,
            n_features: 1 << 14,
            epochs: 4,
            ..Default::default()
        }))
        .pool(task.pool_docs.clone(), task.pool_labels.clone())
        .test(task.test_docs.clone(), task.test_labels.clone())
        .strategy(strategy)
        .config(config.clone())
        .seed(13)
        .representations(reps.clone())
        .build()
    };
    let plain = mk_learner(Strategy::new(BaseStrategy::Entropy))
        .run()
        .unwrap();
    let dense = mk_learner(
        Strategy::new(BaseStrategy::Entropy).with_density(DensityConfig {
            sample_size: 64,
            beta: 1.0,
        }),
    )
    .run()
    .unwrap();
    assert!(
        plain
            .rounds
            .iter()
            .zip(&dense.rounds)
            .any(|(a, b)| a.selected != b.selected),
        "density weighting never changed a selection"
    );
    assert!(dense.final_metric().unwrap() > 0.5);
}

#[test]
fn mmr_diversifies_batches() {
    let task = tiny_text_task(2, 400, 62);
    let reps: Vec<SparseVec> = task.pool_docs.iter().map(|d| d.features.clone()).collect();
    let config = PoolConfig {
        batch_size: 20,
        rounds: 3,
        init_labeled: 20,
        record_history: false,
        ann: None,
    };
    let run = |mmr: Option<MmrConfig>| {
        let mut strategy = Strategy::new(BaseStrategy::Entropy);
        if let Some(m) = mmr {
            strategy = strategy.with_mmr(m);
        }
        let mut learner = ActiveLearner::builder(TextClassifier::new(TextClassifierConfig {
            n_classes: 2,
            n_features: 1 << 14,
            epochs: 4,
            ..Default::default()
        }))
        .pool(task.pool_docs.clone(), task.pool_labels.clone())
        .test(task.test_docs.clone(), task.test_labels.clone())
        .strategy(strategy)
        .config(config.clone())
        .seed(17)
        .representations(reps.clone())
        .build();
        learner.run().unwrap()
    };
    let plain = run(None);
    let mmr = run(Some(MmrConfig { lambda: 0.3 }));
    // Mean pairwise similarity within each MMR batch must be lower.
    let mean_sim = |r: &histal_core::RunResult| {
        let mut acc = 0.0;
        let mut n = 0usize;
        for round in &r.rounds {
            for (i, &a) in round.selected.iter().enumerate() {
                for &b in &round.selected[i + 1..] {
                    acc += reps[a].cosine(&reps[b]);
                    n += 1;
                }
            }
        }
        acc / n.max(1) as f64
    };
    let plain_sim = mean_sim(&plain);
    let mmr_sim = mean_sim(&mmr);
    assert!(
        mmr_sim < plain_sim + 1e-9,
        "MMR batches not more diverse: {mmr_sim:.4} vs {plain_sim:.4}"
    );
}

#[test]
fn kcenter_batches_are_more_diverse_than_topk() {
    let task = tiny_text_task(2, 400, 63);
    let reps: Vec<SparseVec> = task.pool_docs.iter().map(|d| d.features.clone()).collect();
    let config = PoolConfig {
        batch_size: 20,
        rounds: 3,
        init_labeled: 20,
        record_history: false,
        ann: None,
    };
    let run = |kcenter: bool| {
        let mut strategy = Strategy::new(BaseStrategy::Entropy);
        if kcenter {
            strategy = strategy.with_kcenter();
        }
        let mut learner = ActiveLearner::builder(TextClassifier::new(TextClassifierConfig {
            n_classes: 2,
            n_features: 1 << 14,
            epochs: 4,
            ..Default::default()
        }))
        .pool(task.pool_docs.clone(), task.pool_labels.clone())
        .test(task.test_docs.clone(), task.test_labels.clone())
        .strategy(strategy)
        .config(config.clone())
        .seed(19)
        .representations(reps.clone())
        .build();
        learner.run().unwrap()
    };
    let plain = run(false);
    let kc = run(true);
    let mean_sim = |r: &histal_core::RunResult| {
        let mut acc = 0.0;
        let mut n = 0usize;
        for round in &r.rounds {
            for (i, &a) in round.selected.iter().enumerate() {
                for &b in &round.selected[i + 1..] {
                    acc += reps[a].cosine(&reps[b]);
                    n += 1;
                }
            }
        }
        acc / n.max(1) as f64
    };
    assert!(
        mean_sim(&kc) < mean_sim(&plain),
        "k-center batches must be geometrically more diverse"
    );
}

#[test]
fn run_until_stops_on_budget_and_target() {
    use histal_core::stopping::{StopReason, StoppingRule};

    let pool: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
    let labels: Vec<usize> = pool.iter().map(|&x| usize::from(x >= 0.5)).collect();
    let mk = || {
        ActiveLearner::builder(FixedModel)
            .pool(pool.clone(), labels.clone())
            .test(vec![0.2, 0.8], vec![0, 1])
            .strategy(Strategy::new(BaseStrategy::Entropy))
            .config(PoolConfig {
                batch_size: 10,
                rounds: 15,
                init_labeled: 10,
                record_history: false,
                ann: None,
            })
            .seed(4)
            .build()
    };
    // Budget: stop at 40 labels → 4 curve points (10, 20, 30, 40).
    let (r, reason) = mk()
        .run_until(&StoppingRule::none().with_budget(40))
        .unwrap();
    assert_eq!(reason, StopReason::BudgetReached);
    assert_eq!(r.curve.last().unwrap().n_labeled, 40);

    // Target: the fixed model's metric is 1.0 from the start.
    let (r, reason) = mk()
        .run_until(&StoppingRule::none().with_target(0.9))
        .unwrap();
    assert_eq!(reason, StopReason::TargetReached);
    assert_eq!(r.curve.len(), 1);

    // No rule: all rounds.
    let (r, reason) = mk().run_until(&StoppingRule::none()).unwrap();
    assert_eq!(reason, StopReason::RoundsExhausted);
    assert_eq!(r.curve.len(), 16);
}

#[test]
fn run_until_plateau_fires_on_flat_metric() {
    use histal_core::stopping::{StopReason, StoppingRule};

    let pool: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
    let labels: Vec<usize> = pool.iter().map(|&x| usize::from(x >= 0.5)).collect();
    // Metric is constant → plateau after `patience` rounds.
    let mut learner = ActiveLearner::builder(FixedModel)
        .pool(pool, labels)
        .test(vec![0.2, 0.8], vec![0, 1])
        .strategy(Strategy::new(BaseStrategy::Entropy))
        .config(PoolConfig {
            batch_size: 10,
            rounds: 15,
            init_labeled: 10,
            record_history: false,
            ann: None,
        })
        .seed(4)
        .build();
    let (r, reason) = learner
        .run_until(&StoppingRule::none().with_patience(3, 1e-6))
        .unwrap();
    assert_eq!(reason, StopReason::Plateau);
    assert!(r.curve.len() <= 5);
}

#[test]
fn init_larger_than_pool_is_clamped() {
    let r = run_fixed(30, Strategy::new(BaseStrategy::Entropy), 50, 3);
    assert_eq!(r.curve[0].n_labeled, 30);
    // Pool exhausted immediately: nothing further to select.
    assert!(r.rounds.is_empty() || r.rounds.iter().all(|x| x.selected.is_empty()));
}
