//! Microbenchmarks for the model substrates: classifier fit/eval and CRF
//! inference — the `O(T)` evaluation cost that dominates every strategy
//! in Table 2.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use histal_core::eval::EvalCaps;
use histal_core::model::Model;
use histal_data::{NerSpec, TextSpec};
use histal_models::{
    CrfConfig, CrfTagger, Document, NaiveBayes, NaiveBayesConfig, Sentence, TextClassifier,
    TextClassifierConfig,
};
use histal_text::FeatureHasher;

fn text_fixture() -> (TextClassifier, Vec<Document>, Vec<usize>) {
    let data = histal_data::TextDataset::generate(&TextSpec::tiny(2, 400, 1));
    let hasher = FeatureHasher::new(1 << 16);
    let docs: Vec<Document> = data
        .docs
        .iter()
        .map(|t| Document::from_tokens(t, &hasher))
        .collect();
    let mut model = TextClassifier::new(TextClassifierConfig {
        n_classes: 2,
        epochs: 1,
        ..Default::default()
    });
    let s: Vec<&Document> = docs.iter().collect();
    let l: Vec<&usize> = data.labels.iter().collect();
    model.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(7));
    (model, docs, data.labels)
}

fn bench_classifier(c: &mut Criterion) {
    let (model, docs, labels) = text_fixture();
    c.bench_function("classifier_fit_epoch_400", |b| {
        b.iter(|| {
            let mut m = model.clone();
            let s: Vec<&Document> = docs.iter().collect();
            let l: Vec<&usize> = labels.iter().collect();
            m.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(9));
            black_box(m.predict(&docs[0]))
        })
    });
    c.bench_function("classifier_predict_proba", |b| {
        b.iter(|| black_box(model.predict_proba(&docs[0])))
    });
    let caps = EvalCaps {
        egl: true,
        egl_word: true,
        ..Default::default()
    };
    c.bench_function("classifier_eval_egl", |b| {
        b.iter(|| black_box(model.eval_sample(&docs[0], &caps, 3)))
    });
    let bald_caps = EvalCaps {
        bald: true,
        ..Default::default()
    };
    c.bench_function("classifier_eval_bald16", |b| {
        b.iter(|| black_box(model.eval_sample(&docs[0], &bald_caps, 3)))
    });
}

fn crf_fixture() -> (CrfTagger, Vec<Sentence>, Vec<Vec<u16>>) {
    crf_fixture_with(None)
}

fn crf_fixture_with(score_beam: Option<f64>) -> (CrfTagger, Vec<Sentence>, Vec<Vec<u16>>) {
    let data = histal_data::NerDataset::generate(&NerSpec::tiny(120, 2));
    let hasher = FeatureHasher::new(1 << 16);
    let sents: Vec<Sentence> = data
        .train
        .iter()
        .map(|s| Sentence::featurize(&s.tokens, &hasher))
        .collect();
    let tags: Vec<Vec<u16>> = data.train.iter().map(|s| s.tags.clone()).collect();
    let mut model = CrfTagger::new(CrfConfig {
        epochs: 1,
        score_beam,
        ..Default::default()
    });
    let s: Vec<&Sentence> = sents.iter().collect();
    let l: Vec<&Vec<u16>> = tags.iter().collect();
    model.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(11));
    (model, sents, tags)
}

fn bench_crf(c: &mut Criterion) {
    let (model, sents, tags) = crf_fixture();
    c.bench_function("crf_fit_epoch_120", |b| {
        b.iter(|| {
            let mut m = model.clone();
            let s: Vec<&Sentence> = sents.iter().collect();
            let l: Vec<&Vec<u16>> = tags.iter().collect();
            m.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(13));
            black_box(m.n_labels())
        })
    });
    c.bench_function("crf_viterbi", |b| {
        b.iter(|| black_box(model.viterbi(&sents[0])))
    });
    c.bench_function("crf_viterbi2_margin", |b| {
        b.iter(|| black_box(model.sequence_margin(&sents[0])))
    });
    c.bench_function("crf_marginals", |b| {
        b.iter(|| black_box(model.marginals(&sents[0])))
    });
    let caps = EvalCaps {
        mnlp: true,
        ..Default::default()
    };
    c.bench_function("crf_eval_mnlp", |b| {
        b.iter(|| black_box(model.eval_sample(&sents[0], &caps, 5)))
    });
}

/// The lattice passes of DESIGN.md §5.7: exact forward, beam-pruned
/// forward, and the full scoring pass (forward + backward entropy).
fn bench_lattice(c: &mut Criterion) {
    let (exact, sents, _) = crf_fixture();
    let (beamed, _, _) = crf_fixture_with(Some(8.0));

    // Forward-only log-partition: exact vs δ=8 beam.
    c.bench_function("crf_logz_exact", |b| {
        b.iter(|| black_box(exact.log_partition(&sents[0])))
    });
    c.bench_function("crf_logz_beam8", |b| {
        b.iter(|| black_box(beamed.log_partition(&sents[0])))
    });

    // Full scoring pass (forward + backward entropy), exact vs beamed.
    let caps = EvalCaps {
        entropy: true,
        ..Default::default()
    };
    c.bench_function("crf_eval_entropy_exact", |b| {
        b.iter(|| black_box(exact.eval_sample(&sents[0], &caps, 5)))
    });
    c.bench_function("crf_eval_entropy_beam8", |b| {
        b.iter(|| black_box(beamed.eval_sample(&sents[0], &caps, 5)))
    });
}

fn bench_naive_bayes(c: &mut Criterion) {
    let (_, docs, labels) = text_fixture();
    let mut model = NaiveBayes::new(NaiveBayesConfig::default());
    let s: Vec<&Document> = docs.iter().collect();
    let l: Vec<&usize> = labels.iter().collect();
    model.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(17));
    c.bench_function("nb_fit_400", |b| {
        b.iter(|| {
            let mut m = NaiveBayes::new(NaiveBayesConfig::default());
            m.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(19));
            black_box(m.predict(&docs[0]))
        })
    });
    c.bench_function("nb_predict_proba", |b| {
        b.iter(|| black_box(model.predict_proba(&docs[0])))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_classifier, bench_crf, bench_lattice, bench_naive_bayes
}
criterion_main!(benches);
