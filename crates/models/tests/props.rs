//! Property-based tests for the model substrates.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use histal_core::eval::EvalCaps;
use histal_core::model::Model;
use histal_core::tags::TagScheme;
use histal_models::{
    CrfConfig, CrfTagger, Document, NaiveBayes, NaiveBayesConfig, Sentence, TextClassifier,
    TextClassifierConfig,
};
use histal_text::FeatureHasher;

fn docs_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(prop::collection::vec("[a-e]{1,3}", 1..8), 1..12)
}

fn featurize(tokens: &[Vec<String>]) -> Vec<Document> {
    let hasher = FeatureHasher::new(1 << 10);
    tokens
        .iter()
        .map(|t| Document::from_tokens(t, &hasher))
        .collect()
}

fn classifier() -> TextClassifier {
    TextClassifier::new(TextClassifierConfig {
        n_classes: 2,
        n_features: 1 << 10,
        epochs: 2,
        mc_passes: 4,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Posteriors live on the simplex before and after training.
    #[test]
    fn classifier_posterior_simplex(tokens in docs_strategy()) {
        let docs = featurize(&tokens);
        let labels: Vec<usize> = (0..docs.len()).map(|i| i % 2).collect();
        let mut m = classifier();
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        m.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(1));
        for d in &docs {
            let p = m.predict_proba(d);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// EGL and EGL-word are non-negative and finite; BALD ≥ 0.
    #[test]
    fn classifier_scores_sane(tokens in docs_strategy()) {
        let docs = featurize(&tokens);
        let labels: Vec<usize> = (0..docs.len()).map(|i| i % 2).collect();
        let mut m = classifier();
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        m.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(2));
        let caps = EvalCaps { egl: true, egl_word: true, bald: true, ..Default::default() };
        for (i, d) in docs.iter().enumerate() {
            let e = m.eval_sample(d, &caps, i as u64);
            prop_assert!(e.egl.unwrap() >= 0.0 && e.egl.unwrap().is_finite());
            prop_assert!(e.egl_word.unwrap() >= 0.0);
            prop_assert!(e.bald.unwrap() >= 0.0);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&e.least_confidence));
        }
    }

    /// CRF: marginals are per-token distributions and the NLL of any
    /// labeling is non-negative (log Z ≥ any path score).
    #[test]
    fn crf_marginals_and_nll(tokens in prop::collection::vec("[a-d]{1,3}", 1..6)) {
        let scheme = TagScheme::new(["X"]);
        let n_labels = scheme.n_labels() as u16;
        let mut m = CrfTagger::new(CrfConfig {
            n_features: 1 << 8,
            epochs: 1,
            scheme,
            ..Default::default()
        });
        let hasher = FeatureHasher::new(1 << 8);
        let sent = Sentence::featurize(&tokens, &hasher);
        // Train on an arbitrary labeling so weights are non-trivial.
        let tags: Vec<u16> = (0..tokens.len()).map(|i| (i as u16) % n_labels).collect();
        let s = [&sent];
        let t_owned = [tags.clone()];
        let t: Vec<&Vec<u16>> = t_owned.iter().collect();
        m.fit(&s, &t, &mut ChaCha8Rng::seed_from_u64(3));

        for row in m.marginals(&sent) {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            prop_assert!(row.iter().all(|&p| p >= -1e-12));
        }
        prop_assert!(m.nll(&sent, &tags) >= -1e-9);
        // Viterbi path has NLL no larger than any other labeling's.
        let (best, _) = m.viterbi(&sent);
        prop_assert!(m.nll(&sent, &best) <= m.nll(&sent, &tags) + 1e-9);
    }

    /// Documents are deterministic functions of their tokens.
    #[test]
    fn document_featurization_deterministic(tokens in prop::collection::vec("[a-z]{1,5}", 0..10)) {
        let hasher = FeatureHasher::new(1 << 10);
        let a = Document::from_tokens(&tokens, &hasher);
        let b = Document::from_tokens(&tokens, &hasher);
        prop_assert_eq!(a.features, b.features);
        prop_assert_eq!(a.max_word_weight, b.max_word_weight);
    }

    /// NB posteriors stay on the simplex for arbitrary token bags, before
    /// and after fitting on arbitrary labeled data.
    #[test]
    fn nb_posterior_simplex(
        docs in prop::collection::vec(prop::collection::vec("[a-f]{1,3}", 1..6), 1..10),
    ) {
        let hasher = FeatureHasher::new(1 << 10);
        let featurized: Vec<Document> =
            docs.iter().map(|t| Document::from_tokens(t, &hasher)).collect();
        let labels: Vec<usize> = (0..featurized.len()).map(|i| i % 2).collect();
        let mut m = NaiveBayes::new(NaiveBayesConfig {
            n_features: 1 << 10,
            ..Default::default()
        });
        let s: Vec<&Document> = featurized.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        m.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(1));
        for d in &featurized {
            let e = m.eval_sample(d, &EvalCaps::default(), 0);
            prop_assert!((e.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&e.least_confidence));
        }
    }
}
