//! Text-processing substrate for the `histal` workspace.
//!
//! The paper's evaluation tasks (text classification with TextCNN, NER with
//! BiLSTM-CNNs-CRF) both consume tokenized sentences turned into feature
//! vectors. This crate provides the pieces shared by the model substrate and
//! the synthetic dataset generators:
//!
//! * [`tokenize`] — a deterministic whitespace/punctuation tokenizer,
//! * [`Vocab`] — a frequency-counted, prunable vocabulary,
//! * [`FeatureHasher`] — the signed hashing trick used to embed arbitrarily
//!   large vocabularies into a fixed-width weight matrix,
//! * [`SparseVec`] — an ordered sparse feature vector with the linear-algebra
//!   kernels (dot, cosine, axpy) the models need,
//! * [`ngrams()`] — n-gram expansion for bag-of-n-grams features.

#![forbid(unsafe_code)]

pub mod ann;
pub mod geometry;
pub mod hashing;
pub mod ngrams;
pub mod sparse;
pub mod tfidf;
pub mod tokenizer;
pub mod vectorizer;
pub mod vocab;

pub use ann::{AnnConfig, AnnScratch, ExactNeighbors, LshIndex, NeighborIndex};
pub use geometry::PoolGeometry;
pub use hashing::FeatureHasher;
pub use ngrams::{char_ngrams, ngrams};
pub use sparse::SparseVec;
pub use tfidf::TfIdf;
pub use tokenizer::{tokenize, tokenize_lower};
pub use vectorizer::BowVectorizer;
pub use vocab::Vocab;
