//! Property-based tests for the dataset generators and splitters.

use proptest::prelude::*;

use histal_data::{train_test_split, NerDataset, NerSpec, TextDataset, TextSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated text datasets respect their spec invariants for
    /// arbitrary sizes, class counts and seeds.
    #[test]
    fn text_dataset_invariants(n_classes in 2usize..6, n in 10usize..120, seed in 0u64..1000) {
        let spec = TextSpec::tiny(n_classes, n, seed);
        let d = TextDataset::generate(&spec);
        prop_assert_eq!(d.docs.len(), n);
        prop_assert_eq!(d.docs.len(), d.labels.len());
        for (doc, &label) in d.docs.iter().zip(&d.labels) {
            prop_assert!(label < n_classes);
            prop_assert!(doc.len() >= 3 && doc.len() <= spec.max_len);
        }
        // Class balance within one sample of perfect.
        for c in 0..n_classes {
            let count = d.labels.iter().filter(|&&l| l == c).count();
            prop_assert!((count as i64 - (n / n_classes) as i64).abs() <= 1);
        }
    }

    /// NER datasets: tags align, are valid ids, and decoded spans can be
    /// re-encoded to the identical tag sequence.
    #[test]
    fn ner_dataset_invariants(n in 5usize..40, seed in 0u64..500) {
        let d = NerDataset::generate(&NerSpec::tiny(n, seed));
        let n_labels = d.scheme.n_labels() as u16;
        for s in d.train.iter().chain(&d.dev).chain(&d.test) {
            prop_assert_eq!(s.tokens.len(), s.tags.len());
            prop_assert!(s.tags.iter().all(|&t| t < n_labels));
            let spans = d.scheme.decode_spans(&s.tags);
            let mut rebuilt = vec![0u16; s.tags.len()];
            for (start, end, ty) in spans {
                for (off, t) in d.scheme.encode_span(end - start + 1, ty).into_iter().enumerate() {
                    rebuilt[start + off] = t;
                }
            }
            prop_assert_eq!(&rebuilt, &s.tags);
        }
    }

    /// train_test_split partitions 0..n exactly.
    #[test]
    fn split_partitions(n in 2usize..200, frac in 0.05f64..0.9, seed in 0u64..100) {
        let (train, test) = train_test_split(n, frac, seed);
        prop_assert_eq!(train.len() + test.len(), n);
        prop_assert!(!train.is_empty() && !test.is_empty());
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    /// Generation with the same seed is identical; different seeds
    /// differ (with overwhelming probability for n ≥ 10 docs).
    #[test]
    fn seed_determinism(seed in 0u64..500) {
        let a = TextDataset::generate(&TextSpec::tiny(2, 30, seed));
        let b = TextDataset::generate(&TextSpec::tiny(2, 30, seed));
        prop_assert_eq!(&a.docs, &b.docs);
        let c = TextDataset::generate(&TextSpec::tiny(2, 30, seed.wrapping_add(1)));
        prop_assert_ne!(&a.docs, &c.docs);
    }
}
