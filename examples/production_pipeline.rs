//! An end-to-end "annotation campaign" pipeline: budget-aware stopping,
//! LHS artifact reuse, and a significance check.
//!
//! 1. Train an LHS selector on an already-labeled corpus and persist its
//!    artifacts as an `HLRN1` file (ship it with your product).
//! 2. Load the file back (magic, version and predictor shape are
//!    checked) and start an annotation campaign on a new corpus with a
//!    stopping rule (budget + plateau detection) instead of a fixed
//!    round count.
//! 3. Verify the strategy actually beat random with a Wilcoxon test.
//!
//! ```sh
//! cargo run --release --example production_pipeline
//! ```

use std::sync::Arc;

use histal::prelude::*;
use histal_core::learned::{load_artifacts, save_artifacts, ArtifactProvenance};
use histal_core::stats::compare_curves;
use histal_core::stopping::StoppingRule;
use histal_data::train_test_split;

fn build(
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let artifacts_path = std::env::temp_dir().join("histal-lhs-artifacts.hlrn");

    // ---- 1. Train the selector offline and persist it. ----
    println!("[1/3] training LHS selector on the labeled source corpus…");
    let (src_pool, src_labels, src_test, src_test_labels) = build(&TextSpec::subj(), 1_000, 3);
    let selector = train_learned(
        &model(),
        &src_pool,
        &src_labels,
        &src_test,
        &src_test_labels,
        &LearnedTrainerConfig {
            rounds: 5,
            candidates_per_round: 14,
            ..Default::default()
        },
        7,
    )?;
    let provenance = ArtifactProvenance {
        trained_on: "subj".to_string(),
        base: "entropy".to_string(),
        target: "pairwise".to_string(),
        seed: 7,
    };
    save_artifacts(&selector, &provenance, &artifacts_path)?;
    println!("      artifacts saved to {}", artifacts_path.display());

    // ---- 2. Run the campaign with budget + plateau stopping. ----
    println!("[2/3] running the annotation campaign on the target corpus…");
    let (pool, labels, test, test_labels) = build(&TextSpec::mr(), 1_600, 4);
    let (restored, _) = load_artifacts(&artifacts_path)?;
    let rule = StoppingRule::none()
        .with_budget(400)
        .with_patience(4, 0.002);
    let mut learner = ActiveLearner::builder(model())
        .pool(pool.clone(), labels.clone())
        .test(test.clone(), test_labels.clone())
        .strategy(Strategy::new(BaseStrategy::Entropy))
        .config(PoolConfig {
            batch_size: 25,
            rounds: 30,
            init_labeled: 25,
            record_history: false,
            ann: None,
        })
        .seed(11)
        .lhs(Arc::new(restored))
        .build();
    let (campaign, reason) = learner.run_until(&rule)?;
    println!(
        "      stopped after {} labels ({reason:?}), accuracy {:.4}",
        campaign.curve.last().map(|p| p.n_labeled).unwrap_or(0),
        campaign.final_metric().unwrap_or(f64::NAN)
    );

    // ---- 3. Did active learning beat random annotation? ----
    println!("[3/3] sanity check vs random sampling…");
    let mut random = ActiveLearner::builder(model())
        .pool(pool, labels)
        .test(test, test_labels)
        .strategy(Strategy::new(BaseStrategy::Random))
        .config(PoolConfig {
            batch_size: 25,
            rounds: campaign.curve.len().saturating_sub(1),
            init_labeled: 25,
            record_history: false,
            ann: None,
        })
        .seed(11)
        .build();
    let random_run = random.run()?;
    let t = compare_curves(&campaign, &random_run);
    println!(
        "      mean Δaccuracy {:+.4}, Wilcoxon p = {:.4} → {}",
        t.mean_diff,
        t.p_value,
        if t.significantly_better(0.05) {
            "significantly better than random"
        } else {
            "not significant at α = 0.05 (expected on small single-seed demos)"
        }
    );

    std::fs::remove_file(&artifacts_path).ok();
    Ok(())
}
