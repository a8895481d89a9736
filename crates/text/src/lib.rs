//! Text-processing substrate for the `histal` workspace.
//!
//! The paper's evaluation tasks (text classification with TextCNN, NER with
//! BiLSTM-CNNs-CRF) both consume tokenized sentences turned into feature
//! vectors. This crate provides the pieces shared by the model substrate,
//! the synthetic dataset generators and the pool-scoring strategies:
//!
//! * [`FeatureHasher`] — the signed hashing trick used to embed arbitrarily
//!   large vocabularies into a fixed-width weight matrix,
//! * [`SparseVec`] — an ordered sparse feature vector with the linear-algebra
//!   kernels (dot, cosine, axpy) the models need,
//! * [`ngrams()`] — n-gram expansion for bag-of-n-grams features,
//! * [`PoolGeometry`] — a pool's vectors in one arena with cached norms,
//!   for the density, MMR and k-center combinators,
//! * [`LshIndex`] / [`ExactNeighbors`] — the [`NeighborIndex`]es that
//!   bound those combinators' neighbour scans on large pools.

#![forbid(unsafe_code)]

pub mod ann;
pub mod geometry;
pub mod hashing;
pub mod ngrams;
pub mod sparse;

pub use ann::{AnnConfig, AnnScratch, ExactNeighbors, LshIndex, NeighborIndex};
pub use geometry::PoolGeometry;
pub use hashing::FeatureHasher;
pub use ngrams::{char_ngrams, ngrams};
pub use sparse::SparseVec;
