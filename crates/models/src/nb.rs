//! Multinomial Naive Bayes classifier.
//!
//! A second, structurally different text model: the paper argues its
//! history-aware strategies are "not task- or model-specific", and NB is
//! the classic counterpart to discriminative classifiers in the AL
//! literature (Settles 2009 uses it throughout). Training is a single
//! counting pass (no SGD), so its evaluation-score dynamics across AL
//! rounds differ qualitatively from the logistic model's — a good
//! stress-test for the history strategies.
//!
//! Counts come from the absolute values of the hashed features (the
//! signed hashing trick can produce negative feature values; magnitudes
//! retain the occurrence mass).

use rand_chacha::ChaCha8Rng;

use histal_core::eval::{EvalCaps, SampleEval};
use histal_core::metrics::accuracy;
use histal_core::model::Model;

use crate::document::Document;

/// Hyper-parameters for [`NaiveBayes`].
#[derive(Debug, Clone)]
pub struct NaiveBayesConfig {
    /// Number of classes.
    pub n_classes: usize,
    /// Hashed feature-space width.
    pub n_features: u32,
    /// Laplace/Lidstone smoothing mass per feature.
    pub alpha: f64,
}

impl Default for NaiveBayesConfig {
    fn default() -> Self {
        Self {
            n_classes: 2,
            n_features: 1 << 16,
            alpha: 0.1,
        }
    }
}

/// Multinomial Naive Bayes over hashed bag-of-n-grams documents.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    config: NaiveBayesConfig,
    /// Per-class feature mass, row-major `n_classes × n_features`.
    counts: Vec<f64>,
    /// Per-class total feature mass.
    class_mass: Vec<f64>,
    /// Per-class document counts (for the prior).
    class_docs: Vec<f64>,
}

impl NaiveBayes {
    /// A fresh (uniform) model.
    pub fn new(config: NaiveBayesConfig) -> Self {
        assert!(config.n_classes >= 2, "need at least two classes");
        assert!(config.alpha > 0.0, "smoothing must be positive");
        let nf = config.n_features as usize;
        Self {
            counts: vec![0.0; config.n_classes * nf],
            class_mass: vec![0.0; config.n_classes],
            class_docs: vec![0.0; config.n_classes],
            config,
        }
    }

    /// Class posterior for one document.
    pub(crate) fn predict_proba(&self, doc: &Document) -> Vec<f64> {
        let k = self.config.n_classes;
        let nf = self.config.n_features as usize;
        let total_docs: f64 = self.class_docs.iter().sum();
        let alpha = self.config.alpha;
        let mut log_post: Vec<f64> = (0..k)
            .map(|c| {
                // Smoothed log prior.
                ((self.class_docs[c] + 1.0) / (total_docs + k as f64)).ln()
            })
            .collect();
        for (idx, val) in doc.features.iter() {
            if (idx as usize) >= nf {
                continue;
            }
            let weight = (val as f64).abs();
            for (c, lp) in log_post.iter_mut().enumerate() {
                let feature_mass = self.counts[c * nf + idx as usize];
                let likelihood = (feature_mass + alpha) / (self.class_mass[c] + alpha * nf as f64);
                *lp += weight * likelihood.ln();
            }
        }
        crate::math::softmax_inplace(&mut log_post);
        log_post
    }

    /// Argmax class prediction.
    pub(crate) fn predict(&self, doc: &Document) -> usize {
        let p = self.predict_proba(doc);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Model for NaiveBayes {
    type Sample = Document;
    type Label = usize;

    /// Recount from scratch (NB training is one pass; warm starting has
    /// no meaning here, and recounting keeps the model exact for the
    /// current labeled set).
    fn fit(&mut self, samples: &[&Document], labels: &[&usize], _rng: &mut ChaCha8Rng) {
        let nf = self.config.n_features as usize;
        self.counts.iter_mut().for_each(|c| *c = 0.0);
        self.class_mass.iter_mut().for_each(|c| *c = 0.0);
        self.class_docs.iter_mut().for_each(|c| *c = 0.0);
        for (doc, &&y) in samples.iter().zip(labels) {
            self.class_docs[y] += 1.0;
            for (idx, val) in doc.features.iter() {
                if (idx as usize) >= nf {
                    continue;
                }
                let w = (val as f64).abs();
                self.counts[y * nf + idx as usize] += w;
                self.class_mass[y] += w;
            }
        }
    }

    fn eval_sample(&self, sample: &Document, _caps: &EvalCaps, _seed: u64) -> SampleEval {
        // NB supports the probability-derived scores only; EGL/BALD/QBC
        // fields stay None and those strategies error cleanly.
        SampleEval::from_probs(self.predict_proba(sample))
    }

    fn metric(&self, samples: &[&Document], labels: &[&usize]) -> f64 {
        let pred: Vec<usize> = samples.iter().map(|d| self.predict(d)).collect();
        let gold: Vec<usize> = labels.iter().map(|&&l| l).collect();
        accuracy(&pred, &gold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_text::FeatureHasher;
    use rand::SeedableRng;

    fn doc(words: &[&str]) -> Document {
        let toks: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Document::from_tokens(&toks, &FeatureHasher::new(1 << 12))
    }

    fn config() -> NaiveBayesConfig {
        NaiveBayesConfig {
            n_features: 1 << 12,
            ..Default::default()
        }
    }

    fn fit(model: &mut NaiveBayes, docs: &[Document], labels: &[usize]) {
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        model.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(0));
    }

    #[test]
    fn untrained_posterior_is_uniform() {
        let m = NaiveBayes::new(config());
        let p = m.predict_proba(&doc(&["x"]));
        assert!((p[0] - 0.5).abs() < 1e-9);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn learns_separable_data() {
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let filler = format!("f{i}");
            if i % 2 == 0 {
                docs.push(doc(&["good", "fine", &filler]));
                labels.push(1);
            } else {
                docs.push(doc(&["bad", "poor", &filler]));
                labels.push(0);
            }
        }
        let mut m = NaiveBayes::new(config());
        fit(&mut m, &docs, &labels);
        assert_eq!(m.predict(&doc(&["good", "fine"])), 1);
        assert_eq!(m.predict(&doc(&["bad", "poor"])), 0);
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        assert!(m.metric(&s, &l) > 0.9);
    }

    #[test]
    fn prior_reflects_class_imbalance() {
        // 9:1 imbalance with uninformative features → posterior leans to
        // the majority class on an unseen document.
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            docs.push(doc(&[&format!("w{i}")]));
            labels.push(usize::from(i == 0));
        }
        let mut m = NaiveBayes::new(config());
        fit(&mut m, &docs, &labels);
        let p = m.predict_proba(&doc(&["unseen"]));
        assert!(p[0] > p[1], "majority prior must dominate: {p:?}");
    }

    #[test]
    fn eval_sample_has_no_optional_caps() {
        let m = NaiveBayes::new(config());
        let caps = EvalCaps {
            egl: true,
            bald: true,
            ..Default::default()
        };
        let e = m.eval_sample(&doc(&["x"]), &caps, 0);
        assert!(e.egl.is_none() && e.bald.is_none());
        assert!(e.entropy > 0.0);
    }

    #[test]
    fn refit_replaces_counts() {
        let docs1 = vec![doc(&["aa"]), doc(&["bb"])];
        let mut m = NaiveBayes::new(config());
        fit(&mut m, &docs1, &[0, 1]);
        // Refit with flipped labels: prediction must flip.
        let before = m.predict(&doc(&["aa"]));
        fit(&mut m, &docs1, &[1, 0]);
        let after = m.predict(&doc(&["aa"]));
        assert_ne!(before, after);
    }

    #[test]
    #[should_panic(expected = "smoothing")]
    fn zero_alpha_panics() {
        let _ = NaiveBayes::new(NaiveBayesConfig {
            alpha: 0.0,
            ..config()
        });
    }
}
