//! # histal-data — synthetic experiment corpora
//!
//! The paper evaluates on MR, SST-2, Subj, TREC (text classification,
//! Table 3) and CoNLL-2003 English / CoNLL-2002 Spanish & Dutch (NER,
//! Table 4). Those corpora cannot ship with this reproduction, so this
//! crate generates *seeded synthetic equivalents*:
//!
//! * the same sizes, class counts, split shapes, and sentence-length
//!   scales as the published statistics tables;
//! * a latent topic/gazetteer process that plants class- and
//!   entity-indicative tokens with controllable noise and ambiguity, so
//!   uncertainty-based query strategies have real signal to exploit and
//!   strategy quality differences are expressible;
//! * per-dataset difficulty knobs calibrated so the model-performance
//!   ordering of the paper (e.g. CoNLL-EN F1 > Spanish > Dutch under a
//!   small label budget) is preserved.
//!
//! It also builds seeded clustered sparse pools of any size
//! ([`synth_pool`]) for the pool-scaling grid and the selection benches.
//!
//! Everything is deterministic given the dataset seed.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub(crate) mod conll;
pub mod ner;
pub(crate) mod noise;
pub(crate) mod splits;
pub(crate) mod synth;
pub(crate) mod textclf;
pub(crate) mod zipf;

pub use conll::{parse_conll, read_conll, write_conll, ConllError};
pub use ner::{NerDataset, NerSpec};
pub use noise::corrupt_labels;
pub use splits::train_test_split;
pub use synth::synth_pool;
pub use textclf::{TextDataset, TextSpec};
