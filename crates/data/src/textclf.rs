//! Synthetic text-classification corpora (Table 3 stand-ins).
//!
//! Documents are token sequences from a three-part vocabulary:
//!
//! * a Zipf-distributed **background** vocabulary (no class signal),
//! * per-class **indicative** inventories (the signal uncertainty
//!   sampling must find),
//! * a shared **ambiguous** inventory drawn by every class (the source of
//!   genuinely hard samples that sit near the decision boundary).
//!
//! Per-token noise flips some indicative draws to a *wrong* class's
//! inventory, so no document is trivially separable. The `signal_prob` /
//! `noise_prob` / `ambiguity` knobs calibrate task difficulty per dataset
//! so learning curves land in the paper's accuracy ranges.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::zipf::Zipf;

/// Generation parameters for one synthetic text-classification dataset.
#[derive(Debug, Clone)]
pub struct TextSpec {
    /// Dataset display name.
    pub name: String,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of documents.
    pub n_samples: usize,
    /// Maximum sentence length (Table 3 `maxlen`).
    pub max_len: usize,
    /// Mean sentence length.
    pub mean_len: f64,
    /// Background (neutral) vocabulary size.
    pub background_vocab: usize,
    /// Indicative token inventory size per class.
    pub indicative_per_class: usize,
    /// Shared ambiguous inventory size.
    pub ambiguous_vocab: usize,
    /// Per-token probability of drawing from an indicative inventory.
    pub signal_prob: f64,
    /// Probability an indicative draw comes from a *wrong* class.
    pub noise_prob: f64,
    /// Probability an indicative draw comes from the ambiguous pool.
    pub ambiguity: f64,
    /// Optional class priors (must sum to ~1 and have `n_classes`
    /// entries); `None` means balanced round-robin assignment.
    pub class_priors: Option<Vec<f64>>,
    /// Generation seed.
    pub seed: u64,
}

impl TextSpec {
    /// Set explicit class priors (imbalanced generation).
    ///
    /// # Panics
    /// Panics if the priors don't match `n_classes` or don't sum to ≈ 1.
    pub fn with_class_priors(mut self, priors: Vec<f64>) -> Self {
        assert_eq!(priors.len(), self.n_classes, "one prior per class");
        let sum: f64 = priors.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "priors must sum to 1, got {sum}");
        assert!(
            priors.iter().all(|&p| p >= 0.0),
            "priors must be non-negative"
        );
        self.class_priors = Some(priors);
        self
    }
}

impl TextSpec {
    /// MR analogue: 2 classes, 10 662 docs, maxlen 56 (Pang & Lee 2005).
    pub fn mr() -> Self {
        Self {
            name: "MR".into(),
            n_classes: 2,
            n_samples: 10_662,
            max_len: 56,
            mean_len: 21.0,
            background_vocab: 24_000,
            indicative_per_class: 400,
            ambiguous_vocab: 300,
            signal_prob: 0.32,
            noise_prob: 0.18,
            ambiguity: 0.28,
            class_priors: None,
            seed: 0x4d52,
        }
    }

    /// SST-2 analogue: 2 classes, 9 613 docs, maxlen 53 (Socher et al. 2013).
    pub fn sst2() -> Self {
        Self {
            name: "SST-2".into(),
            n_classes: 2,
            n_samples: 9_613,
            max_len: 53,
            mean_len: 19.0,
            background_vocab: 20_000,
            indicative_per_class: 400,
            ambiguous_vocab: 250,
            signal_prob: 0.34,
            noise_prob: 0.14,
            ambiguity: 0.22,
            class_priors: None,
            seed: 0x5354,
        }
    }

    /// Subj analogue: 2 classes, 10 000 docs, maxlen 23 (Pang & Lee 2004).
    /// Used to train the LHS ranker.
    pub fn subj() -> Self {
        Self {
            name: "Subj".into(),
            n_classes: 2,
            n_samples: 10_000,
            max_len: 23,
            mean_len: 12.0,
            background_vocab: 27_000,
            indicative_per_class: 350,
            ambiguous_vocab: 250,
            signal_prob: 0.34,
            noise_prob: 0.16,
            ambiguity: 0.24,
            class_priors: None,
            seed: 0x5542,
        }
    }

    /// TREC analogue: 6 classes, 5 952 docs, maxlen 37 (Li & Roth 2002).
    pub fn trec() -> Self {
        Self {
            name: "TREC".into(),
            n_classes: 6,
            n_samples: 5_952,
            max_len: 37,
            mean_len: 10.0,
            background_vocab: 11_000,
            indicative_per_class: 180,
            ambiguous_vocab: 200,
            signal_prob: 0.48,
            noise_prob: 0.07,
            ambiguity: 0.14,
            class_priors: None,
            seed: 0x5452,
        }
    }

    /// Registry lookup: the named builder above, or `None` for an
    /// unrecognized name. Names are matched case-insensitively and cover
    /// the common aliases (`sst-2` for `sst2`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "mr" => Some(Self::mr()),
            "sst2" | "sst-2" => Some(Self::sst2()),
            "subj" => Some(Self::subj()),
            "trec" => Some(Self::trec()),
            _ => None,
        }
    }

    /// Canonical names [`Self::by_name`] accepts (for error messages).
    pub const NAMES: &'static [&'static str] = &["mr", "sst2", "subj", "trec"];

    /// Scaled-down variant for fast tests and examples: same process,
    /// `n` documents, small vocabulary.
    pub fn tiny(n_classes: usize, n: usize, seed: u64) -> Self {
        Self {
            name: format!("tiny-{n_classes}c"),
            n_classes,
            n_samples: n,
            max_len: 20,
            mean_len: 9.0,
            background_vocab: 500,
            indicative_per_class: 40,
            ambiguous_vocab: 30,
            signal_prob: 0.4,
            noise_prob: 0.12,
            ambiguity: 0.2,
            class_priors: None,
            seed,
        }
    }
}

/// Statistics in the shape of Table 3.
#[derive(Debug, Clone)]
pub struct TextStats {
    pub name: String,
    pub n_classes: usize,
    pub max_len: usize,
    pub n: usize,
    /// Distinct token types observed.
    pub vocab: usize,
    /// Types observed at least twice — the analogue of "words with a
    /// pre-trained embedding" (rare words lack embeddings in practice).
    pub vocab_pre: usize,
}

/// A generated text-classification dataset.
#[derive(Debug, Clone)]
pub struct TextDataset {
    /// Display name.
    pub name: String,
    /// Number of classes.
    pub n_classes: usize,
    /// Tokenized documents.
    pub docs: Vec<Vec<String>>,
    /// Gold class per document.
    pub labels: Vec<usize>,
}

impl TextDataset {
    /// Generate the dataset described by `spec` (deterministic).
    pub fn generate(spec: &TextSpec) -> Self {
        assert!(spec.n_classes >= 2, "need at least two classes");
        assert!(spec.n_samples > 0, "need at least one document");
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let background = Zipf::new(spec.background_vocab, 1.07);
        let indicative = Zipf::new(spec.indicative_per_class, 0.9);
        let ambiguous = Zipf::new(spec.ambiguous_vocab, 0.9);
        let mut docs = Vec::with_capacity(spec.n_samples);
        let mut labels = Vec::with_capacity(spec.n_samples);
        // Cumulative priors for imbalanced sampling.
        let cum_priors: Option<Vec<f64>> = spec.class_priors.as_ref().map(|p| {
            let mut acc = 0.0;
            p.iter()
                .map(|&x| {
                    acc += x;
                    acc
                })
                .collect()
        });
        for i in 0..spec.n_samples {
            let class = match &cum_priors {
                None => i % spec.n_classes, // balanced classes
                Some(cum) => {
                    let u: f64 = rng.gen();
                    cum.partition_point(|&c| c < u).min(spec.n_classes - 1)
                }
            };
            let len = sample_len(&mut rng, spec.mean_len, spec.max_len);
            let mut tokens = Vec::with_capacity(len);
            for _ in 0..len {
                let u: f64 = rng.gen();
                if u < spec.signal_prob {
                    let v: f64 = rng.gen();
                    if v < spec.ambiguity {
                        tokens.push(format!("amb{}", ambiguous.sample(&mut rng)));
                    } else {
                        let src_class = if v < spec.ambiguity + spec.noise_prob {
                            // Wrong-class noise.
                            let mut c = rng.gen_range(0..spec.n_classes);
                            if c == class {
                                c = (c + 1) % spec.n_classes;
                            }
                            c
                        } else {
                            class
                        };
                        tokens.push(format!("c{src_class}_{}", indicative.sample(&mut rng)));
                    }
                } else {
                    tokens.push(format!("w{}", background.sample(&mut rng)));
                }
            }
            docs.push(tokens);
            labels.push(class);
        }
        Self {
            name: spec.name.clone(),
            n_classes: spec.n_classes,
            docs,
            labels,
        }
    }

    /// Compute the Table 3 statistics row of this dataset.
    pub fn stats(&self) -> TextStats {
        let mut counts: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut max_len = 0;
        for doc in &self.docs {
            max_len = max_len.max(doc.len());
            for t in doc {
                *counts.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        let vocab = counts.len();
        let vocab_pre = counts.values().filter(|&&c| c >= 2).count();
        TextStats {
            name: self.name.clone(),
            n_classes: self.n_classes,
            max_len,
            n: self.docs.len(),
            vocab,
            vocab_pre,
        }
    }
}

fn sample_len<R: Rng + ?Sized>(rng: &mut R, mean: f64, max_len: usize) -> usize {
    let max_len = max_len.max(3);
    // Mostly triangular around the mean, with a small uniform long tail so
    // the observed maximum approaches the configured maxlen (real review
    // corpora are similarly long-tailed).
    let len = if rng.gen::<f64>() < 0.02 {
        rng.gen_range(mean.min(max_len as f64) as usize..=max_len)
    } else {
        let u = rng.gen::<f64>() + rng.gen::<f64>(); // mean 1.0
        (mean * u).round() as usize
    };
    len.clamp(3, max_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = TextSpec::tiny(2, 50, 9);
        let a = TextDataset::generate(&spec);
        let b = TextDataset::generate(&spec);
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn classes_are_balanced() {
        let d = TextDataset::generate(&TextSpec::tiny(3, 300, 1));
        for c in 0..3 {
            assert_eq!(d.labels.iter().filter(|&&l| l == c).count(), 100);
        }
    }

    #[test]
    fn lengths_respect_bounds() {
        let spec = TextSpec::tiny(2, 200, 2);
        let d = TextDataset::generate(&spec);
        for doc in &d.docs {
            assert!(doc.len() >= 3 && doc.len() <= spec.max_len);
        }
    }

    #[test]
    fn indicative_tokens_correlate_with_class() {
        let d = TextDataset::generate(&TextSpec::tiny(2, 400, 3));
        // Count "c0_*" tokens in each class's documents.
        let mut c0_in_class0 = 0usize;
        let mut c0_in_class1 = 0usize;
        for (doc, &label) in d.docs.iter().zip(&d.labels) {
            let n = doc.iter().filter(|t| t.starts_with("c0_")).count();
            if label == 0 {
                c0_in_class0 += n;
            } else {
                c0_in_class1 += n;
            }
        }
        assert!(
            c0_in_class0 > 2 * c0_in_class1,
            "class-0 tokens must concentrate in class 0: {c0_in_class0} vs {c0_in_class1}"
        );
    }

    #[test]
    fn stats_match_spec_shape() {
        let spec = TextSpec::trec();
        let d = TextDataset::generate(&spec);
        let s = d.stats();
        assert_eq!(s.n, 5_952);
        assert_eq!(s.n_classes, 6);
        assert!(s.max_len <= spec.max_len);
        assert!(s.vocab > 1_000, "vocab too small: {}", s.vocab);
        assert!(s.vocab_pre <= s.vocab);
    }

    #[test]
    fn presets_have_table3_sizes() {
        assert_eq!(TextDataset::generate(&TextSpec::mr()).docs.len(), 10_662);
        assert_eq!(TextDataset::generate(&TextSpec::sst2()).docs.len(), 9_613);
        assert_eq!(TextDataset::generate(&TextSpec::subj()).docs.len(), 10_000);
    }

    #[test]
    fn class_priors_skew_distribution() {
        let spec = TextSpec::tiny(2, 2_000, 5).with_class_priors(vec![0.9, 0.1]);
        let d = TextDataset::generate(&spec);
        let c0 = d.labels.iter().filter(|&&l| l == 0).count() as f64 / 2_000.0;
        assert!((c0 - 0.9).abs() < 0.03, "class-0 share {c0}");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_priors_panic() {
        let _ = TextSpec::tiny(2, 10, 0).with_class_priors(vec![0.9, 0.3]);
    }

    #[test]
    #[should_panic(expected = "one prior per class")]
    fn wrong_prior_count_panics() {
        let _ = TextSpec::tiny(3, 10, 0).with_class_priors(vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn one_class_panics() {
        let mut spec = TextSpec::tiny(2, 10, 0);
        spec.n_classes = 1;
        let _ = TextDataset::generate(&spec);
    }
}
