//! Property-based tests: the generated NER corpora survive a CoNLL
//! write/parse round trip.

use proptest::prelude::*;

use histal_data::{parse_conll, write_conll, NerDataset, NerSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated NER sentences round-trip through the CoNLL text format:
    /// tokens and tag sequences survive exactly (BIOES → BIO → BIOES is
    /// lossless for well-formed sequences).
    #[test]
    fn ner_conll_round_trip(n in 3usize..25, seed in 0u64..200) {
        let d = NerDataset::generate(&NerSpec::tiny(n, seed));
        let mut buf = Vec::new();
        write_conll(&mut buf, &d.train, &d.scheme).unwrap();
        let back = parse_conll(buf.as_slice(), &d.scheme).unwrap();
        prop_assert_eq!(back.len(), d.train.len());
        for (a, b) in back.iter().zip(&d.train) {
            prop_assert_eq!(&a.tokens, &b.tokens);
            prop_assert_eq!(&a.tags, &b.tags);
        }
    }
}
