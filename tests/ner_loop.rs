//! End-to-end NER active learning: CRF tagger × synthetic CoNLL-style
//! data × LC/MNLP/BALD strategies and the history wrappers.

mod common;

use common::{tiny_ner_task, NerTask};
use histal::prelude::*;

fn crf() -> CrfTagger {
    CrfTagger::new(CrfConfig {
        n_features: 1 << 12,
        epochs: 4,
        mc_passes: 4,
        ..Default::default()
    })
}

fn run_ner(task: &NerTask, strategy: Strategy, rounds: usize, seed: u64) -> histal_core::RunResult {
    let mut learner = ActiveLearner::builder(crf())
        .pool(task.pool.clone(), task.pool_tags.clone())
        .test(task.test.clone(), task.test_tags.clone())
        .strategy(strategy)
        .config(PoolConfig {
            batch_size: 20,
            rounds,
            init_labeled: 20,
            record_history: false,
            ann: None,
        })
        .seed(seed)
        .build();
    learner.run().expect("strategy capabilities satisfied")
}

#[test]
fn crf_learns_under_active_learning() {
    let task = tiny_ner_task(300, 31);
    let r = run_ner(&task, Strategy::new(BaseStrategy::LeastConfidence), 5, 1);
    assert_eq!(r.curve.len(), 6);
    assert!(
        r.final_metric().unwrap() > 0.5,
        "span F1 after 120 labeled sentences: {}",
        r.final_metric().unwrap()
    );
    assert!(r.final_metric().unwrap() > r.curve[0].metric);
}

#[test]
fn mnlp_and_bald_strategies_run() {
    let task = tiny_ner_task(200, 32);
    for base in [
        BaseStrategy::Mnlp,
        BaseStrategy::Bald,
        BaseStrategy::Entropy,
    ] {
        let r = run_ner(&task, Strategy::new(base), 3, 2);
        assert_eq!(r.curve.len(), 4, "strategy {base:?}");
        assert!(r.final_metric().unwrap() > 0.0, "strategy {base:?}");
    }
}

#[test]
fn egl_fails_cleanly_on_crf() {
    let task = tiny_ner_task(100, 33);
    let mut learner = ActiveLearner::builder(crf())
        .pool(task.pool.clone(), task.pool_tags.clone())
        .test(task.test.clone(), task.test_tags.clone())
        .strategy(Strategy::new(BaseStrategy::Egl))
        .config(PoolConfig {
            batch_size: 10,
            rounds: 2,
            init_labeled: 10,
            record_history: false,
            ann: None,
        })
        .seed(3)
        .build();
    let err = learner.run().unwrap_err();
    assert!(err.to_string().contains("egl"));
}

#[test]
fn wshs_wrapper_works_on_ner() {
    let task = tiny_ner_task(250, 34);
    let r = run_ner(
        &task,
        Strategy::new(BaseStrategy::LeastConfidence).with_history(HistoryPolicy::Wshs { l: 3 }),
        4,
        5,
    );
    assert_eq!(r.strategy_name, "WSHS(LC)");
    assert!(
        r.final_metric().unwrap() > 0.3,
        "F1 {}",
        r.final_metric().unwrap()
    );
}

#[test]
fn margin_strategy_runs_on_ner() {
    // Top-2 Viterbi margin: a genuinely sequence-level margin strategy.
    let task = tiny_ner_task(150, 36);
    let r = run_ner(&task, Strategy::new(BaseStrategy::Margin), 3, 4);
    assert_eq!(r.curve.len(), 4);
    assert!(r.final_metric().unwrap() > 0.0);
}

#[test]
fn qbc_committee_runs_on_ner() {
    let task = tiny_ner_task(120, 37);
    let model = CrfTagger::new(CrfConfig {
        n_features: 1 << 12,
        epochs: 3,
        committee: 3,
        committee_epochs: 2,
        ..Default::default()
    });
    let mut learner = ActiveLearner::builder(model)
        .pool(task.pool.clone(), task.pool_tags.clone())
        .test(task.test.clone(), task.test_tags.clone())
        .strategy(Strategy::new(BaseStrategy::QbcKl))
        .config(PoolConfig {
            batch_size: 15,
            rounds: 3,
            init_labeled: 15,
            record_history: false,
            ann: None,
        })
        .seed(6)
        .build();
    let r = learner.run().expect("committee provides qbc_kl");
    assert_eq!(r.curve.len(), 4);
}

#[test]
fn ner_runs_deterministic() {
    let task = tiny_ner_task(150, 35);
    let a = run_ner(&task, Strategy::new(BaseStrategy::Mnlp), 3, 9);
    let b = run_ner(&task, Strategy::new(BaseStrategy::Mnlp), 3, 9);
    for (pa, pb) in a.curve.iter().zip(&b.curve) {
        assert_eq!(pa.metric, pb.metric);
    }
}
