//! Bit pins for whole active-learning runs on the text and NER tasks:
//! the FNV-1a hash of every curve metric's bits, every selected id and,
//! when the run records it, every historical score's bits. A
//! change to model training, evaluation or selection that moves a single
//! low bit of a trained weight shows up here. The learned-selector pin
//! hashes the `HLRN1` bytes two tiny selector trainings write, so the
//! trainer and the artifact layout are pinned the same way. The
//! diversity pins cover density weighting (Eq. 7), MMR (Eq. 8) and
//! k-center, which read the pool geometry instead of the plain scores.

mod common;

use std::sync::Arc;

use common::{run_text, tiny_ner_task, tiny_text_task, TextTask};
use histal::prelude::*;
use histal_core::driver::RunResult;
use histal_core::learned::{
    save_artifacts, train_learned, ArtifactProvenance, LearnedTrainerConfig, PredictorKind,
    RankerKind, TargetKind,
};
use histal_core::strategy::{DensityConfig, MmrConfig};
use histal_ltr::LambdaMartConfig;
use histal_text::{AnnConfig, PoolGeometry, SparseVec};

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

/// The one tiny binary text task every diversity pin runs on.
fn diversity_task() -> TextTask {
    tiny_text_task(2, 300, 71)
}

/// Entropy plus one diversity combinator on [`diversity_task`]; `ann`
/// switches the similarity sweeps to the LSH candidate path. The session
/// reads `geometry` when given, and otherwise builds its own from the
/// pool's document vectors as representations.
fn diversity_run_hash(
    strategy: Strategy,
    ann: Option<AnnConfig>,
    seed: u64,
    geometry: Option<Arc<PoolGeometry>>,
) -> u64 {
    let task = diversity_task();
    let reps: Vec<SparseVec> = task.pool_docs.iter().map(|d| d.features.clone()).collect();
    let model = TextClassifier::new(TextClassifierConfig {
        n_classes: 2,
        n_features: 1 << 14,
        epochs: 4,
        ..Default::default()
    });
    let builder = ActiveLearner::builder(model)
        .pool(task.pool_docs, task.pool_labels)
        .test(task.test_docs, task.test_labels)
        .strategy(strategy)
        .config(PoolConfig {
            batch_size: 12,
            rounds: 4,
            init_labeled: 12,
            history_max_len: None,
            record_history: true,
            ann,
        })
        .seed(seed);
    let builder = match geometry {
        Some(geometry) => builder.geometry(geometry),
        None => builder.representations(reps),
    };
    run_hash(
        &builder
            .build()
            .run()
            .expect("entropy needs no extra capability"),
    )
}

fn density() -> Strategy {
    Strategy::new(BaseStrategy::Entropy).with_density(DensityConfig {
        sample_size: 64,
        beta: 1.0,
    })
}

fn mmr() -> Strategy {
    Strategy::new(BaseStrategy::Entropy).with_mmr(MmrConfig { lambda: 0.5 })
}

fn kcenter() -> Strategy {
    Strategy::new(BaseStrategy::Entropy).with_kcenter()
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

const DENSITY_PIN: u64 = 0x496e_8115_3fec_98ab;
const MMR_PIN: u64 = 0x654a_cd7a_1f8f_4dce;
const KCENTER_PIN: u64 = 0x7387_eae9_c3f3_ec6e;

#[test]
fn density_run_bits_are_pinned() {
    let h = diversity_run_hash(density(), None, 71, None);
    assert_eq!(h, DENSITY_PIN, "pinned hash {h:#018x}");
}

#[test]
fn mmr_run_bits_are_pinned() {
    let h = diversity_run_hash(mmr(), None, 72, None);
    assert_eq!(h, MMR_PIN, "pinned hash {h:#018x}");
}

#[test]
fn kcenter_run_bits_are_pinned() {
    let h = diversity_run_hash(kcenter(), None, 73, None);
    assert_eq!(h, KCENTER_PIN, "pinned hash {h:#018x}");
}

/// The density, MMR and k-center pins hold when the three sessions read
/// one shared geometry instead of each building its own, and the
/// sessions hand the geometry back when they end.
#[test]
fn diversity_pins_hold_on_one_shared_geometry() {
    let task = diversity_task();
    let shared = Arc::new(PoolGeometry::build(
        task.pool_docs.iter().map(|d| &d.features),
    ));
    for (strategy, seed, pin) in [
        (density(), 71, DENSITY_PIN),
        (mmr(), 72, MMR_PIN),
        (kcenter(), 73, KCENTER_PIN),
    ] {
        let h = diversity_run_hash(strategy, None, seed, Some(Arc::clone(&shared)));
        assert_eq!(h, pin, "shared-geometry hash {h:#018x}");
    }
    assert_eq!(Arc::strong_count(&shared), 1);
}

#[test]
fn ann_mmr_run_bits_are_pinned() {
    let ann = AnnConfig {
        tables: 4,
        bits: 0,
        probes: 1,
    };
    let h = diversity_run_hash(mmr(), Some(ann), 74, None);
    assert_eq!(h, 0xa864_e922_d107_d001, "pinned hash {h:#018x}");
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
