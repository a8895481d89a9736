//! Featurized documents for the text classifier.

use histal_text::{ngrams, FeatureHasher, SparseVec};

/// A featurized document: an L2-normalized bag-of-n-grams vector plus the
/// per-word feature weights needed for the EGL-word strategy.
///
/// In TextCNN, EGL-word inspects the gradient on each word's *embedding*.
/// In this linear substitute, a word's "embedding block" is its hashed
/// weight column; the gradient norm on that block factorizes as
/// `|feature value| · ‖p − e_y‖`, so all EGL-word needs per word is the
/// magnitude of its contribution to the document vector —
/// [`Document::max_word_weight`].
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// L2-normalized hashed bag-of-n-grams representation.
    pub features: SparseVec,
    /// Largest absolute per-word feature value in `features` (the most
    /// influential single word for EGL-word).
    pub max_word_weight: f64,
    /// Token count (diagnostics; the classifier itself is length-blind).
    pub n_tokens: usize,
}

impl Document {
    /// Featurize a tokenized sentence: unigram+bigram bag, hashed and
    /// L2-normalized.
    pub fn from_tokens(tokens: &[String], hasher: &FeatureHasher) -> Self {
        let grams = ngrams(tokens, 2);
        let features = hasher.hash_bag_normalized(grams.iter().map(String::as_str));
        // Per-word contribution magnitude: |count| / ‖raw bag‖. Compute the
        // raw counts of unigrams only (a "word" in EGL-word is a token).
        let raw = hasher.hash_bag(grams.iter().map(String::as_str));
        let norm = raw.norm();
        let mut max_count = 0.0f64;
        if norm > 0.0 {
            let mut counts = std::collections::HashMap::new();
            for t in tokens {
                *counts.entry(t.as_str()).or_insert(0u32) += 1;
            }
            for (_, c) in counts {
                max_count = max_count.max(c as f64);
            }
        }
        let max_word_weight = if norm > 0.0 { max_count / norm } else { 0.0 };
        Self {
            features,
            max_word_weight,
            n_tokens: tokens.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ts: &[&str]) -> Vec<String> {
        ts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_tokens_is_normalized() {
        let h = FeatureHasher::new(1 << 14);
        let d = Document::from_tokens(&toks(&["a", "b", "c"]), &h);
        assert!((d.features.norm() - 1.0).abs() < 1e-6);
        assert_eq!(d.n_tokens, 3);
    }

    #[test]
    fn empty_document_is_safe() {
        let h = FeatureHasher::new(1 << 14);
        let d = Document::from_tokens(&[], &h);
        assert!(d.features.is_empty());
        assert_eq!(d.max_word_weight, 0.0);
    }

    #[test]
    fn repeated_word_raises_max_weight() {
        let h = FeatureHasher::new(1 << 14);
        let plain = Document::from_tokens(&toks(&["a", "b", "c", "d"]), &h);
        let repeated = Document::from_tokens(&toks(&["a", "a", "a", "d"]), &h);
        assert!(repeated.max_word_weight > plain.max_word_weight);
    }
}
