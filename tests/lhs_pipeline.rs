//! End-to-end LHS (Algorithm 1): train the ranker on one labeled dataset
//! (the Subj role) and deploy it for selection on another (the MR role),
//! exactly as §4.4 prescribes.

mod common;

use common::tiny_text_task;
use std::sync::Arc;

use histal::prelude::*;
use histal_core::learned::{PredictorKind, RankerKind};
use histal_ltr::LambdaMartConfig;

fn quick_trainer_config() -> LearnedTrainerConfig {
    LearnedTrainerConfig {
        base: BaseStrategy::Entropy,
        rounds: 4,
        candidates_per_round: 10,
        init_labeled: 15,
        add_per_round: 4,
        level_interval: 0.0,
        features: LhsFeatureConfig {
            window: 3,
            ..Default::default()
        },
        predictor: PredictorKind::Ar { order: 2 },
        ranker: RankerKind::LambdaMart(LambdaMartConfig {
            n_trees: 20,
            ..Default::default()
        }),
        selector_candidate_pool: 40,
        ..Default::default()
    }
}

fn trainer_model(n_classes: usize) -> TextClassifier {
    TextClassifier::new(TextClassifierConfig {
        n_classes,
        n_features: 1 << 14,
        epochs: 4,
        ..Default::default()
    })
}

#[test]
fn train_lhs_and_select_on_fresh_dataset() {
    // "Subj" role: ranker training source.
    let subj = tiny_text_task(2, 300, 41);
    let selector = train_learned(
        &trainer_model(2),
        &subj.pool_docs,
        &subj.pool_labels,
        &subj.test_docs,
        &subj.test_labels,
        &quick_trainer_config(),
        7,
    )
    .expect("LHS training succeeds");

    // "MR" role: deployment target.
    let mr = tiny_text_task(2, 400, 42);
    let mut learner = ActiveLearner::builder(trainer_model(2))
        .pool(mr.pool_docs.clone(), mr.pool_labels.clone())
        .test(mr.test_docs.clone(), mr.test_labels.clone())
        .strategy(Strategy::new(BaseStrategy::Entropy))
        .config(PoolConfig {
            batch_size: 15,
            rounds: 6,
            init_labeled: 15,
            record_history: false,
            ann: None,
        })
        .seed(3)
        .lhs(Arc::new(selector))
        .build();
    let result = learner.run().expect("LHS run succeeds");
    assert_eq!(result.strategy_name, "LHS(entropy)");
    assert_eq!(result.curve.len(), 7);
    assert!(
        result.final_metric().unwrap() > 0.6,
        "LHS final accuracy {}",
        result.final_metric().unwrap()
    );
    // Every round selected a full batch from the candidate set.
    for r in &result.rounds {
        assert_eq!(r.selected.len(), 15);
    }
}

#[test]
fn lhs_with_lstm_predictor_and_linear_ranker() {
    let subj = tiny_text_task(2, 250, 43);
    let mut cfg = quick_trainer_config();
    cfg.predictor = PredictorKind::Lstm(histal_tseries::LstmConfig {
        hidden: 4,
        window: 3,
        epochs: 5,
        ..Default::default()
    });
    cfg.ranker = RankerKind::Linear(Default::default());
    let selector = train_learned(
        &trainer_model(2),
        &subj.pool_docs,
        &subj.pool_labels,
        &subj.test_docs,
        &subj.test_labels,
        &cfg,
        11,
    )
    .expect("LHS trains with LSTM + linear ranker");
    assert_eq!(selector.features.window, 3);
}

#[test]
fn lhs_training_is_deterministic() {
    let subj = tiny_text_task(2, 200, 44);
    let run = |seed| {
        let selector = train_learned(
            &trainer_model(2),
            &subj.pool_docs,
            &subj.pool_labels,
            &subj.test_docs,
            &subj.test_labels,
            &quick_trainer_config(),
            seed,
        )
        .unwrap();
        let mr = tiny_text_task(2, 250, 45);
        let mut learner = ActiveLearner::builder(trainer_model(2))
            .pool(mr.pool_docs.clone(), mr.pool_labels.clone())
            .test(mr.test_docs.clone(), mr.test_labels.clone())
            .strategy(Strategy::new(BaseStrategy::Entropy))
            .config(PoolConfig {
                batch_size: 10,
                rounds: 3,
                init_labeled: 10,
                record_history: false,
                ann: None,
            })
            .seed(5)
            .lhs(Arc::new(selector))
            .build();
        learner.run().unwrap()
    };
    let a = run(21);
    let b = run(21);
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.selected, rb.selected);
    }
}

#[test]
fn artifacts_round_trip_through_json() {
    let subj = tiny_text_task(2, 200, 47);
    let selector = train_learned(
        &trainer_model(2),
        &subj.pool_docs,
        &subj.pool_labels,
        &subj.test_docs,
        &subj.test_labels,
        &quick_trainer_config(),
        17,
    )
    .expect("training succeeds");

    let json = serde_json::to_string(&selector).expect("selector serializes");
    let restored: LearnedSelector = serde_json::from_str(&json).expect("selector deserializes");

    // Deploying the original and the round-tripped selector must produce
    // identical selections.
    let mr = tiny_text_task(2, 250, 48);
    let run = |selector| {
        let mut learner = ActiveLearner::builder(trainer_model(2))
            .pool(mr.pool_docs.clone(), mr.pool_labels.clone())
            .test(mr.test_docs.clone(), mr.test_labels.clone())
            .strategy(Strategy::new(BaseStrategy::Entropy))
            .config(PoolConfig {
                batch_size: 10,
                rounds: 3,
                init_labeled: 10,
                record_history: false,
                ann: None,
            })
            .seed(5)
            .lhs(selector)
            .build();
        learner.run().unwrap()
    };
    let a = run(Arc::new(selector));
    let b = run(Arc::new(restored));
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.selected, rb.selected);
    }
}

#[test]
fn ablated_feature_configs_train() {
    let subj = tiny_text_task(2, 200, 46);
    for (name, features) in [
        (
            "-history",
            LhsFeatureConfig {
                use_history: false,
                window: 3,
                ..Default::default()
            },
        ),
        (
            "-fluct",
            LhsFeatureConfig {
                use_fluctuation: false,
                window: 3,
                ..Default::default()
            },
        ),
        (
            "-trend",
            LhsFeatureConfig {
                use_trend: false,
                window: 3,
                ..Default::default()
            },
        ),
        (
            "-pred",
            LhsFeatureConfig {
                use_prediction: false,
                window: 3,
                ..Default::default()
            },
        ),
        (
            "-probs",
            LhsFeatureConfig {
                use_probs: false,
                window: 3,
                ..Default::default()
            },
        ),
    ] {
        let mut cfg = quick_trainer_config();
        cfg.rounds = 3;
        cfg.features = features;
        let r = train_learned(
            &trainer_model(2),
            &subj.pool_docs,
            &subj.pool_labels,
            &subj.test_docs,
            &subj.test_labels,
            &cfg,
            13,
        );
        assert!(r.is_ok(), "ablation {name} failed to train");
    }
}
