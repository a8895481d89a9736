//! LHS transfer (§4.4): learn a selection ranker on one labeled dataset
//! and deploy it on another — "train a ranker on an applicable labeled
//! dataset and apply it on other unlabeled datasets of the same task".
//!
//! Phase 1 runs Algorithm 1 on a Subj-analogue corpus: each AL iteration
//! becomes a ranking query whose documents are candidate samples,
//! features come from the historical evaluation sequences, and graded
//! labels from measured model-improvement deltas. Phase 2 deploys the
//! trained LambdaMART ranker to select samples on an MR-analogue pool.
//!
//! ```sh
//! cargo run --release --example lhs_transfer
//! ```

use std::sync::Arc;

use histal::prelude::*;
use histal_core::learned::{PredictorKind, RankerKind};
use histal_data::train_test_split;

fn build_task(
    spec: &TextSpec,
    n: usize,
    seed: u64,
) -> (Vec<Document>, Vec<usize>, Vec<Document>, Vec<usize>) {
    let mut spec = spec.clone();
    spec.n_samples = n;
    let data = TextDataset::generate(&spec);
    let hasher = FeatureHasher::new(1 << 15);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|t| Document::from_tokens(t, &hasher))
        .collect();
    let (tr, te) = train_test_split(docs.len(), 0.2, seed);
    (
        tr.iter().map(|&i| docs[i].clone()).collect(),
        tr.iter().map(|&i| data.labels[i]).collect(),
        te.iter().map(|&i| docs[i].clone()).collect(),
        te.iter().map(|&i| data.labels[i]).collect(),
    )
}

fn model() -> TextClassifier {
    TextClassifier::new(TextClassifierConfig {
        n_classes: 2,
        n_features: 1 << 15,
        epochs: 6,
        ..Default::default()
    })
}

fn main() {
    // ---- Phase 1: train the ranker on the Subj analogue. ----
    let (subj_pool, subj_labels, subj_test, subj_test_labels) =
        build_task(&TextSpec::subj(), 1_200, 5);
    println!("training LHS ranker on Subj analogue (Algorithm 1)…");
    let trainer = LearnedTrainerConfig {
        base: BaseStrategy::Entropy,
        rounds: 6,
        candidates_per_round: 16,
        init_labeled: 25,
        add_per_round: 5,
        level_interval: 0.0,
        features: LhsFeatureConfig {
            window: 3,
            ..Default::default()
        },
        predictor: PredictorKind::Lstm(histal::tseries::LstmConfig::default()),
        ranker: RankerKind::LambdaMart(Default::default()),
        selector_candidate_pool: 75,
        ..Default::default()
    };
    let selector = train_learned(
        &model(),
        &subj_pool,
        &subj_labels,
        &subj_test,
        &subj_test_labels,
        &trainer,
        11,
    )
    .expect("Algorithm 1 training");
    println!(
        "ranker trained ({} features per candidate)",
        selector.features.width()
    );

    // ---- Phase 2: deploy on the MR analogue. ----
    let (mr_pool, mr_labels, mr_test, mr_test_labels) = build_task(&TextSpec::mr(), 1_600, 6);
    let config = PoolConfig {
        batch_size: 25,
        rounds: 10,
        init_labeled: 25,
        record_history: false,
        ann: None,
    };

    let mut baseline = ActiveLearner::builder(model())
        .pool(mr_pool.clone(), mr_labels.clone())
        .test(mr_test.clone(), mr_test_labels.clone())
        .strategy(Strategy::new(BaseStrategy::Entropy))
        .config(config.clone())
        .seed(21)
        .build();
    let baseline_run = baseline.run().expect("entropy run");

    let mut lhs = ActiveLearner::builder(model())
        .pool(mr_pool, mr_labels)
        .test(mr_test, mr_test_labels)
        .strategy(Strategy::new(BaseStrategy::Entropy))
        .config(config)
        .seed(21)
        .lhs(Arc::new(selector))
        .build();
    let lhs_run = lhs.run().expect("LHS run");

    println!(
        "\n{:>9}  {:>10}  {:>12}",
        "#labeled", "entropy", "LHS(entropy)"
    );
    for (a, b) in baseline_run.curve.iter().zip(&lhs_run.curve) {
        println!("{:>9}  {:>10.4}  {:>12.4}", a.n_labeled, a.metric, b.metric);
    }
    println!(
        "\nfinal: entropy {:.4} vs LHS {:.4}",
        baseline_run.final_metric().unwrap_or(f64::NAN),
        lhs_run.final_metric().unwrap_or(f64::NAN)
    );
}
