//! Quickstart: pool-based active learning with a history-aware strategy.
//!
//! Builds a small synthetic sentiment task, then compares plain entropy
//! sampling against the paper's WSHS(entropy) on the same pool.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use histal::prelude::*;

fn main() {
    // 1. A synthetic binary text-classification dataset (2 000 docs).
    let data = TextDataset::generate(&TextSpec::tiny(2, 2_000, 42));
    let hasher = FeatureHasher::new(1 << 14);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|toks| Document::from_tokens(toks, &hasher))
        .collect();

    // 2. Carve a test split.
    let (train_idx, test_idx) = histal::data::train_test_split(docs.len(), 0.25, 7);
    let pool: Vec<Document> = train_idx.iter().map(|&i| docs[i].clone()).collect();
    let pool_labels: Vec<usize> = train_idx.iter().map(|&i| data.labels[i]).collect();
    let test: Vec<Document> = test_idx.iter().map(|&i| docs[i].clone()).collect();
    let test_labels: Vec<usize> = test_idx.iter().map(|&i| data.labels[i]).collect();

    // 3. Run the AL loop once per strategy.
    let config = PoolConfig {
        batch_size: 25,
        rounds: 10,
        init_labeled: 25,
        record_history: false,
        ann: None,
    };
    let mut results = Vec::new();
    for strategy in [
        Strategy::new(BaseStrategy::Random),
        Strategy::new(BaseStrategy::Entropy),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Wshs { l: 3 }),
        Strategy::new(BaseStrategy::Entropy).with_history(HistoryPolicy::Fhs {
            l: 3,
            w_score: 0.5,
            w_fluct: 0.5,
        }),
    ] {
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
            .seed(1234)
            .build();
        let result = learner
            .run()
            .expect("entropy-family strategies always evaluable");
        println!("== {} ==", result.strategy_name);
        for p in &result.curve {
            println!("  {:>4} labeled → accuracy {:.4}", p.n_labeled, p.metric);
        }
        results.push(result);
    }

    // 4. Annotation-cost comparison (the Table 5 statistic).
    println!("\nSamples needed to reach accuracy 0.80:");
    for r in &results {
        println!(
            "  {:<16} {}",
            r.strategy_name,
            format_cost(samples_to_target(r, 0.80), 275)
        );
    }
}
