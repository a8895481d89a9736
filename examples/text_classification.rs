//! Movie-review sentiment classification under an annotation budget —
//! the paper's Task 1, at reduced scale.
//!
//! Compares the full strategy family on an MR-analogue corpus: the base
//! entropy strategy, the HUS baseline (plain history sum, Davy & Luz
//! 2007), and the paper's WSHS and FHS wrappers, plus the EGL-word and
//! BALD SOTA strategies with history.
//!
//! ```sh
//! cargo run --release --example text_classification
//! ```

use histal::prelude::*;
use histal_data::train_test_split;

fn main() {
    // MR-analogue at 20% scale to stay snappy (~2100 documents).
    let mut spec = TextSpec::mr();
    spec.n_samples = 2_132;
    let data = TextDataset::generate(&spec);
    let stats = data.stats();
    println!(
        "dataset {}: {} docs, {} classes, |V| = {}",
        stats.name, stats.n, stats.n_classes, stats.vocab
    );

    let hasher = FeatureHasher::new(1 << 16);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|t| Document::from_tokens(t, &hasher))
        .collect();
    let (train_idx, test_idx) = train_test_split(docs.len(), 0.2, 99);
    let pool: Vec<Document> = train_idx.iter().map(|&i| docs[i].clone()).collect();
    let pool_labels: Vec<usize> = train_idx.iter().map(|&i| data.labels[i]).collect();
    let test: Vec<Document> = test_idx.iter().map(|&i| docs[i].clone()).collect();
    let test_labels: Vec<usize> = test_idx.iter().map(|&i| data.labels[i]).collect();

    let config = PoolConfig {
        batch_size: 25,
        rounds: 12,
        init_labeled: 25,
        record_history: false,
        ann: None,
    };
    let strategies = vec![
        Strategy::new(BaseStrategy::Entropy),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Hus { k: 3 }),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Wshs { l: 3 }),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Fhs {
            l: 3,
            w_score: 0.5,
            w_fluct: 0.5,
        }),
        Strategy::new(BaseStrategy::EglWord).with_history(HistoryPolicy::Fhs {
            l: 3,
            w_score: 0.5,
            w_fluct: 0.5,
        }),
        Strategy::new(BaseStrategy::Bald).with_history(HistoryPolicy::Wshs { l: 3 }),
    ];

    let mut results = Vec::new();
    for strategy in strategies {
        let model = TextClassifier::new(TextClassifierConfig {
            n_classes: data.n_classes,
            n_features: 1 << 16,
            ..Default::default()
        });
        let mut learner = ActiveLearner::builder(model)
            .pool(pool.clone(), pool_labels.clone())
            .test(test.clone(), test_labels.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(2024)
            .build();
        results.push(learner.run().expect("all capabilities provided"));
    }

    // Print the joint learning-curve table.
    print!("{:>9}", "#labeled");
    for r in &results {
        print!("  {:>14}", r.strategy_name);
    }
    println!();
    for i in 0..results[0].curve.len() {
        print!("{:>9}", results[0].curve[i].n_labeled);
        for r in &results {
            print!("  {:>14.4}", r.curve[i].metric);
        }
        println!();
    }

    println!("\nfinal accuracies:");
    for r in &results {
        println!(
            "  {:<16} {:.4}",
            r.strategy_name,
            r.final_metric().unwrap_or(f64::NAN)
        );
    }
}
