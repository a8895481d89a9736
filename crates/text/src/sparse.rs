//! Ordered sparse feature vectors.
//!
//! All models in this workspace are linear (softmax regression, linear-chain
//! CRF emissions) over hashed token features, so the single hot data
//! structure is a sparse vector of `(feature index, value)` pairs. Indices
//! are kept sorted and unique, which makes dot products and cosine
//! similarity single-pass merges.

use serde::{Deserialize, Serialize};

/// A sparse feature vector with sorted, unique `u32` indices.
///
/// Values are `f32`: feature values are counts or TF weights, and the models
/// accumulate in `f64`, so the storage precision is ample while halving the
/// memory traffic of pool-wide scoring.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVec {
    /// Build from unsorted, possibly duplicated `(index, value)` pairs.
    /// Duplicate indices are summed; zero results are kept (they are
    /// harmless and rare).
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f32> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        Self { indices, values }
    }

    /// Number of stored (structurally non-zero) entries.
    pub(crate) fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate over `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The sorted index slice.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value slice, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Sparse–sparse dot product (single-pass merge).
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (mut a, mut b) = (0, 0);
        let mut acc = 0.0;
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] as f64 * other.values[b] as f64;
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.values
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Cosine similarity; zero when either vector is all-zero.
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Scale every stored value in place.
    pub(crate) fn scale(&mut self, s: f32) {
        for v in &mut self.values {
            *v *= s;
        }
    }
}

impl FromIterator<(u32, f32)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (u32, f32)>>(iter: T) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = sv(&[(3, 1.0), (1, 2.0), (3, 0.5)]);
        assert_eq!(v.indices(), &[1, 3]);
        assert_eq!(v.values(), &[2.0, 1.5]);
    }

    #[test]
    fn sparse_dot_merge() {
        let a = sv(&[(1, 1.0), (3, 2.0), (7, 1.0)]);
        let b = sv(&[(3, 4.0), (7, 0.5), (9, 1.0)]);
        assert!((a.dot(&b) - (8.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let a = sv(&[(1, 1.0), (2, 2.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_is_zero() {
        let a = sv(&[(1, 1.0)]);
        let b = sv(&[(2, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_with_empty_is_zero() {
        let a = sv(&[(1, 1.0)]);
        assert_eq!(a.cosine(&SparseVec::default()), 0.0);
    }

    #[test]
    fn norm() {
        let v = sv(&[(0, 3.0), (1, -4.0)]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
    }
}
