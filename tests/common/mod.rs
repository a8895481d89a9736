#![allow(dead_code)]
//! Shared glue for the integration tests: featurize synthetic datasets
//! and run active-learning loops with little boilerplate.

use histal::prelude::*;
use histal_core::driver::RunResult;
use histal_data::train_test_split;

/// Featurized text-classification task: pool + test split.
pub struct TextTask {
    pub pool_docs: Vec<Document>,
    pub pool_labels: Vec<usize>,
    pub test_docs: Vec<Document>,
    pub test_labels: Vec<usize>,
    pub n_classes: usize,
}

/// Generate a tiny text task and featurize it.
pub fn tiny_text_task(n_classes: usize, n: usize, seed: u64) -> TextTask {
    let data = TextDataset::generate(&TextSpec::tiny(n_classes, n, seed));
    let hasher = FeatureHasher::new(1 << 14);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|toks| Document::from_tokens(toks, &hasher))
        .collect();
    let (train_idx, test_idx) = train_test_split(n, 0.3, seed ^ 0xBEEF);
    TextTask {
        pool_docs: train_idx.iter().map(|&i| docs[i].clone()).collect(),
        pool_labels: train_idx.iter().map(|&i| data.labels[i]).collect(),
        test_docs: test_idx.iter().map(|&i| docs[i].clone()).collect(),
        test_labels: test_idx.iter().map(|&i| data.labels[i]).collect(),
        n_classes,
    }
}

/// Featurized NER task: pool + test sentences with their tag sequences.
pub struct NerTask {
    pub pool: Vec<Sentence>,
    pub pool_tags: Vec<Vec<u16>>,
    pub test: Vec<Sentence>,
    pub test_tags: Vec<Vec<u16>>,
}

/// Generate a tiny NER task and featurize it.
pub fn tiny_ner_task(n: usize, seed: u64) -> NerTask {
    let data = NerDataset::generate(&NerSpec::tiny(n, seed));
    let hasher = FeatureHasher::new(1 << 12);
    let feats = |sents: &[histal_data::ner::NerSentence]| -> (Vec<Sentence>, Vec<Vec<u16>>) {
        (
            sents
                .iter()
                .map(|s| Sentence::featurize(&s.tokens, &hasher))
                .collect(),
            sents.iter().map(|s| s.tags.clone()).collect(),
        )
    };
    let (pool, pool_tags) = feats(&data.train);
    let (test, test_tags) = feats(&data.test);
    NerTask {
        pool,
        pool_tags,
        test,
        test_tags,
    }
}

/// Run one AL loop on a text task with the given strategy.
pub fn run_text(task: &TextTask, strategy: Strategy, config: PoolConfig, seed: u64) -> RunResult {
    let model = TextClassifier::new(TextClassifierConfig {
        n_classes: task.n_classes,
        n_features: 1 << 14,
        epochs: 6,
        mc_passes: 8,
        ..Default::default()
    });
    let mut learner = ActiveLearner::builder(model)
        .pool(task.pool_docs.clone(), task.pool_labels.clone())
        .test(task.test_docs.clone(), task.test_labels.clone())
        .strategy(strategy)
        .config(config)
        .seed(seed)
        .build();
    learner.run().expect("strategy capabilities satisfied")
}

/// Mean metric over the back half of the curve — a stabler comparison
/// statistic than the single final point.
pub fn late_curve_mean(result: &RunResult) -> f64 {
    let half = result.curve.len() / 2;
    let tail = &result.curve[half..];
    tail.iter().map(|p| p.metric).sum::<f64>() / tail.len() as f64
}
