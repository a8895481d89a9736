//! Property-based tests for n-grams, hashing and sparse vectors.

use proptest::prelude::*;

use histal_text::{char_ngrams, ngrams, FeatureHasher, SparseVec};

fn pairs_strategy() -> impl Strategy<Value = Vec<(u32, f32)>> {
    prop::collection::vec((0u32..1000, -10.0f32..10.0), 0..50)
}

proptest! {
    /// Token count of n-grams: n_unigrams + (n-1)-windows per order.
    #[test]
    fn ngram_counts(tokens in prop::collection::vec("[a-z]{1,5}", 0..12), max_n in 1usize..4) {
        let grams = ngrams(&tokens, max_n);
        let expected: usize = (1..=max_n)
            .map(|n| tokens.len().saturating_sub(n - 1))
            .take_while(|&c| c > 0)
            .sum();
        // When tokens is empty the sum is 0 for all orders.
        let expected = if tokens.is_empty() { 0 } else { expected };
        prop_assert_eq!(grams.len(), expected);
    }

    /// Char n-grams always cover the padded token.
    #[test]
    fn char_ngram_windows(token in "[a-z]{0,10}", n in 1usize..5) {
        let grams = char_ngrams(&token, n);
        prop_assert!(!grams.is_empty());
        let padded_len = token.chars().count() + 2;
        if padded_len >= n {
            prop_assert_eq!(grams.len(), padded_len - n + 1);
        }
    }

    /// Hash buckets are in range and deterministic.
    #[test]
    fn buckets_in_range(feature in ".{0,30}", log2_buckets in 1u32..16) {
        let h = FeatureHasher::new(1 << log2_buckets);
        let (i, s) = h.bucket(&feature);
        prop_assert!(i < (1 << log2_buckets));
        prop_assert!(s == 1.0 || s == -1.0);
        prop_assert_eq!(h.bucket(&feature), (i, s));
    }

    /// Normalized bags have unit norm (or are empty).
    #[test]
    fn normalized_bags(features in prop::collection::vec("[a-z]{1,6}", 0..30)) {
        let h = FeatureHasher::new(1 << 12);
        let v = h.hash_bag_normalized(features.iter().map(String::as_str));
        if v.is_empty() {
            prop_assert!(features.is_empty());
        } else {
            prop_assert!((v.norm() - 1.0).abs() < 1e-5);
        }
    }

    /// from_pairs produces sorted unique indices, preserving the total
    /// signed mass per index.
    #[test]
    fn from_pairs_invariants(pairs in pairs_strategy()) {
        let v = SparseVec::from_pairs(pairs.clone());
        let idx = v.indices();
        for w in idx.windows(2) {
            prop_assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        // Mass conservation per index.
        for (&i, &val) in idx.iter().zip(v.values()) {
            let expected: f32 = pairs.iter().filter(|&&(j, _)| j == i).map(|&(_, x)| x).sum();
            prop_assert!((val - expected).abs() < 1e-3, "index {i}");
        }
    }

    /// Dot product is symmetric and cosine is bounded.
    #[test]
    fn dot_symmetry_cosine_bounds(a in pairs_strategy(), b in pairs_strategy()) {
        let va = SparseVec::from_pairs(a);
        let vb = SparseVec::from_pairs(b);
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-6);
        let c = va.cosine(&vb);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c), "cosine {c}");
    }
}
