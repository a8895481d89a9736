//! Bit pins for whole active-learning runs on the text and NER tasks:
//! the FNV-1a hash of every curve metric's bits, every selected id and,
//! when the run records it, every historical score's bits. A
//! change to model training, evaluation or selection that moves a single
//! low bit of a trained weight shows up here. The learned-selector pin
//! hashes the `HLRN1` bytes two tiny selector trainings write, so the
//! trainer and the artifact layout are pinned the same way.

mod common;

use common::{run_text, tiny_ner_task, tiny_text_task};
use histal::prelude::*;
use histal_core::driver::RunResult;
use histal_core::learned::{
    save_artifacts, train_learned, ArtifactProvenance, LearnedTrainerConfig, PredictorKind,
    RankerKind, TargetKind,
};
use histal_ltr::LambdaMartConfig;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn entropy_run_hash(n_classes: usize, n: usize, seed: u64) -> u64 {
    let task = tiny_text_task(n_classes, n, seed);
    let config = PoolConfig {
        batch_size: 10,
        rounds: 4,
        init_labeled: 13,
        history_max_len: None,
        record_history: false,
        ann: None,
    };
    let result = run_text(&task, Strategy::new(BaseStrategy::Entropy), config, seed);
    run_hash(&result)
}

/// LC over a CRF on a tiny NER task; `score_beam` switches the scoring
/// lattices between exact and pruned forward–backward. The recorded
/// score history carries the `logZ` bits of every scoring pass.
fn lc_ner_run_hash(score_beam: Option<f64>, n: usize, seed: u64) -> u64 {
    let task = tiny_ner_task(n, seed);
    let model = CrfTagger::new(CrfConfig {
        n_features: 1 << 12,
        epochs: 3,
        score_beam,
        ..Default::default()
    });
    let mut learner = ActiveLearner::builder(model)
        .pool(task.pool, task.pool_tags)
        .test(task.test, task.test_tags)
        .strategy(Strategy::new(BaseStrategy::LeastConfidence))
        .config(PoolConfig {
            batch_size: 15,
            rounds: 3,
            init_labeled: 15,
            history_max_len: None,
            record_history: true,
            ann: None,
        })
        .seed(seed)
        .build();
    run_hash(&learner.run().expect("LC needs no extra capability"))
}

fn run_hash(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for point in &result.curve {
        fnv(&mut h, &point.metric.to_bits().to_le_bytes());
    }
    for round in &result.rounds {
        for &id in &round.selected {
            fnv(&mut h, &(id as u64).to_le_bytes());
        }
    }
    for score in result.history.iter().flatten() {
        fnv(&mut h, &score.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn binary_entropy_run_bits_are_pinned() {
    let h = entropy_run_hash(2, 300, 31);
    assert_eq!(h, 0x9f3d_aad3_94a9_edc1, "pinned hash {h:#018x}");
}

#[test]
fn six_class_entropy_run_bits_are_pinned() {
    let h = entropy_run_hash(6, 300, 32);
    assert_eq!(h, 0x7973_30c0_28cb_12fa, "pinned hash {h:#018x}");
}

#[test]
fn exact_ner_lc_run_bits_are_pinned() {
    let h = lc_ner_run_hash(None, 150, 41);
    assert_eq!(h, 0x08ae_f672_37c3_94d4, "pinned hash {h:#018x}");
}

#[test]
fn beamed_ner_lc_run_bits_are_pinned() {
    let h = lc_ner_run_hash(Some(8.0), 150, 41);
    assert_eq!(h, 0x94a9_837a_8b6f_1441, "pinned hash {h:#018x}");
}

/// Train a selector on a tiny text task and hash the `HLRN1` file
/// [`save_artifacts`] writes for it.
fn learned_artifact_hash(config: &LearnedTrainerConfig, seed: u64) -> u64 {
    let task = tiny_text_task(2, 200, seed);
    let model = TextClassifier::new(TextClassifierConfig {
        n_classes: 2,
        n_features: 1 << 14,
        epochs: 4,
        ..Default::default()
    });
    let selector = train_learned(
        &model,
        &task.pool_docs,
        &task.pool_labels,
        &task.test_docs,
        &task.test_labels,
        config,
        seed,
    )
    .expect("selector training succeeds");
    let path = std::env::temp_dir().join(format!("histal-pin-{}-{seed}.hlrn", std::process::id()));
    save_artifacts(&selector, &ArtifactProvenance::default(), &path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, &bytes);
    h
}

fn tiny_trainer() -> LearnedTrainerConfig {
    LearnedTrainerConfig {
        rounds: 3,
        candidates_per_round: 8,
        init_labeled: 15,
        add_per_round: 4,
        features: LhsFeatureConfig {
            window: 3,
            ..Default::default()
        },
        ranker: RankerKind::LambdaMart(LambdaMartConfig {
            n_trees: 10,
            ..Default::default()
        }),
        selector_candidate_pool: 30,
        ..Default::default()
    }
}

#[test]
fn learned_artifact_bytes_are_pinned() {
    // LHS: pairwise targets, LSTM next-score predictor, no meta block.
    let lhs = LearnedTrainerConfig {
        predictor: PredictorKind::Lstm(histal_tseries::LstmConfig {
            hidden: 4,
            window: 3,
            epochs: 3,
            ..Default::default()
        }),
        ..tiny_trainer()
    };
    let h = learned_artifact_hash(&lhs, 51);
    assert_eq!(h, 0x2116_515a_14eb_3295, "pinned LHS hash {h:#018x}");
    // LAL: pointwise targets with the pool-level meta block.
    let lal = LearnedTrainerConfig {
        predictor: PredictorKind::Ar { order: 2 },
        target: TargetKind::Pointwise,
        use_meta: true,
        ..tiny_trainer()
    };
    let h = learned_artifact_hash(&lal, 52);
    assert_eq!(h, 0xd9e4_c472_d367_95e3, "pinned LAL hash {h:#018x}");
}
