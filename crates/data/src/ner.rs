//! Synthetic NER corpora (Table 4 stand-ins).
//!
//! Sentences interleave Zipf background tokens with entity mentions drawn
//! from per-type synthetic gazetteers (capitalized pseudo-words built
//! from per-type syllable inventories, so character n-gram features carry
//! type signal, as they do in real data). Entity mentions are introduced
//! by type-specific context triggers with imperfect reliability;
//! per-language knobs control gazetteer ambiguity and trigger reliability
//! so the English > Spanish > Dutch difficulty ordering of the paper's F1
//! curves is preserved.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use histal_core::tags::TagScheme;

use crate::zipf::Zipf;

/// One annotated sentence: tokens and their BIOES tag ids.
#[derive(Debug, Clone)]
pub struct NerSentence {
    pub tokens: Vec<String>,
    pub tags: Vec<u16>,
}

/// Generation parameters for one synthetic NER dataset.
#[derive(Debug, Clone)]
pub struct NerSpec {
    /// Dataset display name.
    pub name: String,
    /// Sentences in the train split.
    pub n_train: usize,
    /// Sentences in the dev split.
    pub n_dev: usize,
    /// Sentences in the test split.
    pub n_test: usize,
    /// Mean tokens per sentence.
    pub mean_len: f64,
    /// Maximum tokens per sentence.
    pub max_len: usize,
    /// Background vocabulary size.
    pub background_vocab: usize,
    /// Gazetteer size per entity type.
    pub gazetteer_size: usize,
    /// Probability of starting an entity at an eligible position.
    pub entity_prob: f64,
    /// Probability an entity token is drawn from an *ambiguous* pool
    /// shared by all types (harder type disambiguation).
    pub gazetteer_ambiguity: f64,
    /// Probability the type-specific context trigger precedes a mention.
    pub trigger_reliability: f64,
    /// Probability an entity token is emitted lowercase (shape noise).
    pub case_noise: f64,
    /// Probability a background position emits a capitalized entity-like
    /// *distractor* token tagged `O` — the main confusion source in real
    /// newswire (sentence-initial caps, capitalized common nouns).
    pub distractor_prob: f64,
    /// Generation seed.
    pub seed: u64,
}

impl NerSpec {
    /// CoNLL-2003 English analogue: 14 987 / 3 466 / 3 684 sentences,
    /// ~13.6 tokens/sentence. Easiest setting.
    pub fn conll2003_english() -> Self {
        Self {
            name: "CoNLL-2003 English".into(),
            n_train: 14_987,
            n_dev: 3_466,
            n_test: 3_684,
            mean_len: 13.6,
            max_len: 60,
            background_vocab: 18_000,
            gazetteer_size: 900,
            entity_prob: 0.13,
            gazetteer_ambiguity: 0.15,
            trigger_reliability: 0.60,
            case_noise: 0.05,
            distractor_prob: 0.05,
            seed: 0xE203,
        }
    }

    /// CoNLL-2002 Spanish analogue: 8 322 / 1 914 / 1 516 sentences,
    /// ~31.8 tokens/sentence. Intermediate difficulty.
    pub fn conll2002_spanish() -> Self {
        Self {
            name: "CoNLL-2002 Spanish".into(),
            n_train: 8_322,
            n_dev: 1_914,
            n_test: 1_516,
            mean_len: 31.8,
            max_len: 100,
            background_vocab: 22_000,
            gazetteer_size: 900,
            entity_prob: 0.06,
            gazetteer_ambiguity: 0.30,
            trigger_reliability: 0.45,
            case_noise: 0.12,
            distractor_prob: 0.08,
            seed: 0xE502,
        }
    }

    /// CoNLL-2002 Dutch analogue: 15 806 / 2 895 / 5 195 sentences,
    /// ~12.8 tokens/sentence. Hardest setting (lowest F1 in Fig. 3).
    pub fn conll2002_dutch() -> Self {
        Self {
            name: "CoNLL-2002 Dutch".into(),
            n_train: 15_806,
            n_dev: 2_895,
            n_test: 5_195,
            mean_len: 12.8,
            max_len: 60,
            background_vocab: 20_000,
            gazetteer_size: 900,
            entity_prob: 0.11,
            gazetteer_ambiguity: 0.45,
            trigger_reliability: 0.30,
            case_noise: 0.20,
            distractor_prob: 0.11,
            seed: 0xD102,
        }
    }

    /// Registry lookup: the named builder above, or `None` for an
    /// unrecognized name. Matched case-insensitively, with short
    /// language aliases (`conll-en`, `conll-es`, `conll-nl`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "conll2003-en" | "conll-en" => Some(Self::conll2003_english()),
            "conll2002-es" | "conll-es" => Some(Self::conll2002_spanish()),
            "conll2002-nl" | "conll-nl" => Some(Self::conll2002_dutch()),
            _ => None,
        }
    }

    /// Canonical names [`Self::by_name`] accepts (for error messages).
    pub const NAMES: &'static [&'static str] = &["conll2003-en", "conll2002-es", "conll2002-nl"];

    /// Scaled-down variant for tests/examples.
    pub fn tiny(n_train: usize, seed: u64) -> Self {
        Self {
            name: "tiny-ner".into(),
            n_train,
            n_dev: n_train / 5,
            n_test: n_train / 5,
            mean_len: 9.0,
            max_len: 20,
            background_vocab: 400,
            gazetteer_size: 60,
            entity_prob: 0.18,
            gazetteer_ambiguity: 0.1,
            trigger_reliability: 0.7,
            case_noise: 0.03,
            distractor_prob: 0.03,
            seed,
        }
    }
}

/// Statistics in the shape of Table 4.
#[derive(Debug, Clone)]
pub struct NerSplitStats {
    pub split: String,
    pub n_sentences: usize,
    pub n_tokens: usize,
    pub n_entities: usize,
}

/// A generated NER dataset with train/dev/test splits.
#[derive(Debug, Clone)]
pub struct NerDataset {
    /// Display name.
    pub name: String,
    /// The BIOES tag inventory (PER/ORG/LOC/MISC).
    pub scheme: TagScheme,
    pub train: Vec<NerSentence>,
    pub dev: Vec<NerSentence>,
    pub test: Vec<NerSentence>,
}

/// Per-type syllable inventories so character n-grams carry type signal.
const SYLLABLES: [&[&str]; 4] = [
    // PER
    &["an", "be", "ka", "mi", "ro", "so", "ta", "vi", "lo", "ne"],
    // ORG
    &[
        "corp", "tek", "dyn", "glo", "sys", "net", "fab", "ix", "tron", "max",
    ],
    // LOC
    &[
        "berg", "ville", "ton", "shire", "field", "ford", "dale", "port", "land", "holm",
    ],
    // MISC
    &[
        "ism", "ian", "fest", "gate", "eco", "uni", "pan", "neo", "ult", "era",
    ],
];

/// Type-specific context triggers ("Mr." before PER, "in" before LOC, …).
const TRIGGERS: [&str; 4] = ["mr", "at-company", "located-in", "the-event"];

impl NerDataset {
    /// Generate the dataset described by `spec` (deterministic).
    pub fn generate(spec: &NerSpec) -> Self {
        let scheme = TagScheme::conll();
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let background = Zipf::new(spec.background_vocab, 1.05);
        let gaz_sampler = Zipf::new(spec.gazetteer_size, 0.8);
        // Pre-generate gazetteers: per-type plus the shared ambiguous pool.
        let gazetteers: Vec<Vec<String>> = (0..4)
            .map(|ty| {
                (0..spec.gazetteer_size)
                    .map(|i| make_name(SYLLABLES[ty], i, &mut rng))
                    .collect()
            })
            .collect();
        let ambiguous: Vec<String> = (0..spec.gazetteer_size)
            .map(|i| {
                // Ambiguous names mix syllables from two random types.
                let a = rng.gen_range(0..4);
                let b = (a + 1 + rng.gen_range(0..3)) % 4;
                let s1 = SYLLABLES[a][i % SYLLABLES[a].len()];
                let s2 = SYLLABLES[b][(i / 7) % SYLLABLES[b].len()];
                capitalize(&format!("{s1}{s2}"))
            })
            .collect();

        let gen_split = |n: usize, rng: &mut ChaCha8Rng| -> Vec<NerSentence> {
            (0..n)
                .map(|_| {
                    generate_sentence(
                        spec,
                        &scheme,
                        &background,
                        &gaz_sampler,
                        &gazetteers,
                        &ambiguous,
                        rng,
                    )
                })
                .collect()
        };
        let train = gen_split(spec.n_train, &mut rng);
        let dev = gen_split(spec.n_dev, &mut rng);
        let test = gen_split(spec.n_test, &mut rng);
        Self {
            name: spec.name.clone(),
            scheme,
            train,
            dev,
            test,
        }
    }

    /// Table 4 statistics for all three splits.
    pub fn stats(&self) -> Vec<NerSplitStats> {
        [
            ("Train", &self.train),
            ("Dev", &self.dev),
            ("Test", &self.test),
        ]
        .into_iter()
        .map(|(split, sents)| NerSplitStats {
            split: split.to_string(),
            n_sentences: sents.len(),
            n_tokens: sents.iter().map(|s| s.tokens.len()).sum(),
            n_entities: sents
                .iter()
                .map(|s| self.scheme.decode_spans(&s.tags).len())
                .sum(),
        })
        .collect()
    }
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

fn make_name(syllables: &[&str], salt: usize, rng: &mut ChaCha8Rng) -> String {
    let n_syl = 2 + rng.gen_range(0..2);
    let mut name = String::new();
    for k in 0..n_syl {
        name.push_str(
            syllables[(salt * 3 + k * 5 + rng.gen_range(0..syllables.len())) % syllables.len()],
        );
    }
    capitalize(&name)
}

#[allow(clippy::too_many_arguments)]
fn generate_sentence(
    spec: &NerSpec,
    scheme: &TagScheme,
    background: &Zipf,
    gaz_sampler: &Zipf,
    gazetteers: &[Vec<String>],
    ambiguous: &[String],
    rng: &mut ChaCha8Rng,
) -> NerSentence {
    let target_len = {
        let u = rng.gen::<f64>() + rng.gen::<f64>();
        ((spec.mean_len * u).round() as usize).clamp(2, spec.max_len)
    };
    let mut tokens = Vec::with_capacity(target_len + 2);
    let mut tags: Vec<u16> = Vec::with_capacity(target_len + 2);
    while tokens.len() < target_len {
        if rng.gen::<f64>() < spec.entity_prob {
            let ty = rng.gen_range(0..4usize);
            // Optional context trigger before the mention.
            if rng.gen::<f64>() < spec.trigger_reliability {
                tokens.push(TRIGGERS[ty].to_string());
                tags.push(scheme.outside());
            }
            let span_len =
                1 + usize::from(rng.gen::<f64>() < 0.35) + usize::from(rng.gen::<f64>() < 0.1);
            for t in scheme.encode_span(span_len, ty) {
                let idx = gaz_sampler.sample(rng);
                let mut word = if rng.gen::<f64>() < spec.gazetteer_ambiguity {
                    ambiguous[idx].clone()
                } else {
                    gazetteers[ty][idx].clone()
                };
                if rng.gen::<f64>() < spec.case_noise {
                    word = word.to_lowercase();
                }
                tokens.push(word);
                tags.push(t);
            }
        } else if rng.gen::<f64>() < spec.distractor_prob {
            // Capitalized entity-lookalike tagged O.
            let ty = rng.gen_range(0..4usize);
            let idx = gaz_sampler.sample(rng);
            tokens.push(if rng.gen::<f64>() < 0.5 {
                ambiguous[idx].clone()
            } else {
                gazetteers[ty][idx].clone()
            });
            tags.push(scheme.outside());
        } else {
            tokens.push(format!("w{}", background.sample(rng)));
            tags.push(scheme.outside());
        }
    }
    NerSentence { tokens, tags }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = NerSpec::tiny(30, 5);
        let a = NerDataset::generate(&spec);
        let b = NerDataset::generate(&spec);
        assert_eq!(a.train[0].tokens, b.train[0].tokens);
        assert_eq!(a.train[0].tags, b.train[0].tags);
    }

    #[test]
    fn tags_align_with_tokens_and_are_valid() {
        let d = NerDataset::generate(&NerSpec::tiny(50, 6));
        let n_labels = d.scheme.n_labels() as u16;
        for s in d.train.iter().chain(&d.dev).chain(&d.test) {
            assert_eq!(s.tokens.len(), s.tags.len());
            assert!(!s.tokens.is_empty());
            for &t in &s.tags {
                assert!(t < n_labels);
            }
        }
    }

    #[test]
    fn spans_are_well_formed() {
        let d = NerDataset::generate(&NerSpec::tiny(50, 7));
        for s in &d.train {
            // Re-encoding the decoded spans must reproduce the tags.
            let spans = d.scheme.decode_spans(&s.tags);
            let mut rebuilt = vec![0u16; s.tags.len()];
            for (start, end, ty) in spans {
                for (off, t) in d
                    .scheme
                    .encode_span(end - start + 1, ty)
                    .into_iter()
                    .enumerate()
                {
                    rebuilt[start + off] = t;
                }
            }
            assert_eq!(rebuilt, s.tags, "tags not round-trippable: {:?}", s.tokens);
        }
    }

    #[test]
    fn entities_exist_in_each_split() {
        let d = NerDataset::generate(&NerSpec::tiny(60, 8));
        for stats in d.stats() {
            assert!(
                stats.n_entities > 0,
                "{} split has no entities",
                stats.split
            );
            assert!(stats.n_tokens >= stats.n_sentences * 2);
        }
    }

    #[test]
    fn preset_sizes_match_table4() {
        let spec = NerSpec::conll2003_english();
        assert_eq!(spec.n_train, 14_987);
        assert_eq!(spec.n_dev, 3_466);
        assert_eq!(spec.n_test, 3_684);
        let es = NerSpec::conll2002_spanish();
        assert_eq!((es.n_train, es.n_dev, es.n_test), (8_322, 1_914, 1_516));
        let nl = NerSpec::conll2002_dutch();
        assert_eq!((nl.n_train, nl.n_dev, nl.n_test), (15_806, 2_895, 5_195));
    }

    #[test]
    fn difficulty_knobs_ordered() {
        // Dutch must be configured harder than Spanish, Spanish harder
        // than English (more ambiguity, less reliable triggers).
        let en = NerSpec::conll2003_english();
        let es = NerSpec::conll2002_spanish();
        let nl = NerSpec::conll2002_dutch();
        assert!(en.gazetteer_ambiguity < es.gazetteer_ambiguity);
        assert!(es.gazetteer_ambiguity < nl.gazetteer_ambiguity);
        assert!(en.trigger_reliability > es.trigger_reliability);
        assert!(es.trigger_reliability > nl.trigger_reliability);
        assert!(en.distractor_prob < es.distractor_prob);
        assert!(es.distractor_prob < nl.distractor_prob);
    }

    #[test]
    fn entity_tokens_are_capitalized_mostly() {
        let d = NerDataset::generate(&NerSpec::tiny(80, 9));
        let mut cap = 0usize;
        let mut total = 0usize;
        for s in &d.train {
            for (tok, &tag) in s.tokens.iter().zip(&s.tags) {
                if tag != 0 {
                    total += 1;
                    if tok.chars().next().is_some_and(|c| c.is_uppercase()) {
                        cap += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(cap as f64 / total as f64 > 0.8, "{cap}/{total} capitalized");
    }
}
