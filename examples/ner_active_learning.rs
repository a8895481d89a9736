//! Named entity recognition under an annotation budget — the paper's
//! Task 2, at reduced scale.
//!
//! Trains a linear-chain CRF on a CoNLL-2003-style synthetic corpus and
//! compares least-confidence, MNLP (length-normalized LC, Shen et al.
//! 2018), and their WSHS history wrappers by span-F1.
//!
//! ```sh
//! cargo run --release --example ner_active_learning
//! ```

use histal::prelude::*;

fn main() {
    let mut spec = NerSpec::conll2003_english();
    spec.n_train = 1_500;
    spec.n_dev = 300;
    spec.n_test = 400;
    let data = NerDataset::generate(&spec);
    for s in data.stats() {
        println!(
            "{:<6} {:>6} sentences  {:>7} tokens  {:>6} entities",
            s.split, s.n_sentences, s.n_tokens, s.n_entities
        );
    }

    let hasher = FeatureHasher::new(1 << 16);
    let featurize = |sents: &[histal_data::ner::NerSentence]| -> (Vec<Sentence>, Vec<Vec<u16>>) {
        (
            sents
                .iter()
                .map(|s| Sentence::featurize(&s.tokens, &hasher))
                .collect(),
            sents.iter().map(|s| s.tags.clone()).collect(),
        )
    };
    let (pool, pool_tags) = featurize(&data.train);
    let (test, test_tags) = featurize(&data.test);

    let config = PoolConfig {
        batch_size: 50,
        rounds: 8,
        init_labeled: 50,
        record_history: false,
        ann: None,
    };
    let strategies = vec![
        Strategy::new(BaseStrategy::Random),
        Strategy::new(BaseStrategy::LeastConfidence),
        Strategy::new(BaseStrategy::Mnlp),
        Strategy::new(BaseStrategy::Mnlp).with_history(HistoryPolicy::Wshs { l: 3 }),
    ];

    let mut results = Vec::new();
    for strategy in strategies {
        let model = CrfTagger::new(CrfConfig {
            n_features: 1 << 16,
            epochs: 5,
            ..Default::default()
        });
        let mut learner = ActiveLearner::builder(model)
            .pool(pool.clone(), pool_tags.clone())
            .test(test.clone(), test_tags.clone())
            .strategy(strategy)
            .config(config.clone())
            .seed(777)
            .build();
        let result = learner.run().expect("CRF provides LC/MNLP");
        println!("\n== {} ==", result.strategy_name);
        for p in &result.curve {
            println!(
                "  {:>4} sentences labeled → span-F1 {:.4}",
                p.n_labeled, p.metric
            );
        }
        results.push(result);
    }

    println!("\nfinal span-F1:");
    for r in &results {
        println!(
            "  {:<12} {:.4}",
            r.strategy_name,
            r.final_metric().unwrap_or(f64::NAN)
        );
    }
}
