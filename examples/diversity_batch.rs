//! Representative and diversity combinators (paper §3.1.2–3.1.3).
//!
//! Demonstrates the density-weighted strategy (Eq. 7 — discounting
//! outliers by their mean similarity to the pool) and batch-mode MMR
//! diversity (Eq. 8 — penalizing near-duplicate selections within a
//! batch), both composed with the WSHS history wrapper.
//!
//! ```sh
//! cargo run --release --example diversity_batch
//! ```

use histal::prelude::*;
use histal_core::strategy::{DensityConfig, MmrConfig};
use histal_data::train_test_split;
use histal_text::SparseVec;

fn main() {
    let data = TextDataset::generate(&TextSpec::tiny(2, 1_500, 77));
    let hasher = FeatureHasher::new(1 << 14);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|t| Document::from_tokens(t, &hasher))
        .collect();
    let (tr, te) = train_test_split(docs.len(), 0.25, 8);
    let pool: Vec<Document> = tr.iter().map(|&i| docs[i].clone()).collect();
    let pool_labels: Vec<usize> = tr.iter().map(|&i| data.labels[i]).collect();
    let test: Vec<Document> = te.iter().map(|&i| docs[i].clone()).collect();
    let test_labels: Vec<usize> = te.iter().map(|&i| data.labels[i]).collect();
    // The combinators rank by sparse-vector cosine similarity; the
    // document features double as the representation.
    let reps: Vec<SparseVec> = pool.iter().map(|d| d.features.clone()).collect();

    let config = PoolConfig {
        batch_size: 25,
        rounds: 8,
        init_labeled: 25,
        record_history: false,
        ann: None,
    };
    let strategies: Vec<(&str, Strategy)> = vec![
        ("entropy", Strategy::new(BaseStrategy::Entropy)),
        (
            "density-weighted entropy (Eq. 7)",
            Strategy::new(BaseStrategy::Entropy).with_density(DensityConfig::default()),
        ),
        (
            "MMR diversity λ=0.7 (Eq. 8)",
            Strategy::new(BaseStrategy::Entropy).with_mmr(MmrConfig { lambda: 0.7 }),
        ),
        (
            "WSHS + density + MMR",
            Strategy::new(BaseStrategy::Entropy)
                .with_history(HistoryPolicy::Wshs { l: 3 })
                .with_density(DensityConfig::default())
                .with_mmr(MmrConfig { lambda: 0.7 }),
        ),
    ];

    for (label, strategy) in strategies {
        let model = TextClassifier::new(TextClassifierConfig {
            n_classes: 2,
            n_features: 1 << 14,
            ..Default::default()
        });
        let mut learner = ActiveLearner::builder(model)
            .pool(pool.clone(), pool_labels.clone())
            .test(test.clone(), test_labels.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(31)
            .representations(reps.clone())
            .build();
        let r = learner.run().expect("entropy family always evaluable");
        println!(
            "{label:<34} final accuracy {:.4} (curve: {})",
            r.final_metric().unwrap_or(f64::NAN),
            r.curve
                .iter()
                .map(|p| format!("{:.3}", p.metric))
                .collect::<Vec<_>>()
                .join(" → ")
        );
    }
}
