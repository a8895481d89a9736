//! Pool geometry cache for similarity-based combinators.
//!
//! Density weighting, MMR and k-center selection compute cosine
//! similarities between pool samples on every round. Going through
//! [`SparseVec::cosine`] recomputes both Euclidean norms — two passes and
//! two square roots — per pair, every call, even though the pool
//! representations never change during a run. [`PoolGeometry`] snapshots
//! the pool once: all rows in one CSR-style contiguous arena (one
//! `indices` + one `values` buffer, row offsets) plus a cached norm per
//! row, so a cosine is a single sparse dot and one division.
//!
//! The stored values are deliberately *not* pre-scaled to unit length:
//! dividing the `f32` values by the norm would round each entry and
//! perturb similarities by a few ULPs, which could flip greedy selection
//! ties. Keeping the raw values and dividing the `f64` dot by the cached
//! norm product reproduces `SparseVec::cosine` bit for bit — the
//! determinism contract extends to the cached path (see the property
//! tests in `tests/geometry_props.rs`).

use crate::sparse::SparseVec;

/// Immutable CSR snapshot of a pool's sparse representations with cached
/// per-row norms.
#[derive(Debug, Clone, Default)]
pub struct PoolGeometry {
    /// Row `i` occupies `indices[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Euclidean norm of each row, computed once at build time with the
    /// same accumulation order as [`SparseVec::norm`].
    norms: Vec<f64>,
    /// One past the largest stored index — the length a dense scatter
    /// buffer needs.
    dim: usize,
}

impl PoolGeometry {
    /// Snapshot `reps` into contiguous storage. The `i`-th vector becomes
    /// row `i`; the vectors are read in place, never copied out first.
    ///
    /// Everything is pre-sized from one counting pass (`dim` folds into
    /// the fill loop) and the final capacities are asserted, so a
    /// million-row build performs exactly four arena allocations instead
    /// of thrashing the allocator with amortised regrowth.
    pub fn build<'a, I>(reps: I) -> Self
    where
        I: IntoIterator<Item = &'a SparseVec>,
        I::IntoIter: Clone,
    {
        let reps = reps.into_iter();
        let (rows, nnz) = reps.clone().fold((0, 0), |(n, z), r| (n + 1, z + r.nnz()));
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut norms = Vec::with_capacity(rows);
        let (indices_cap, values_cap, offsets_cap) =
            (indices.capacity(), values.capacity(), offsets.capacity());
        let mut dim = 0usize;
        offsets.push(0);
        for rep in reps {
            indices.extend_from_slice(rep.indices());
            values.extend_from_slice(rep.values());
            offsets.push(indices.len());
            norms.push(rep.norm());
            // Indices are sorted ascending within a row, so the last one
            // is the row's maximum.
            if let Some(&last) = rep.indices().last() {
                dim = dim.max(last as usize + 1);
            }
        }
        assert_eq!(indices.len(), nnz, "counting pass disagrees with fill");
        assert_eq!(
            indices.capacity(),
            indices_cap,
            "CSR index arena reallocated during fill"
        );
        assert_eq!(
            values.capacity(),
            values_cap,
            "CSR value arena reallocated during fill"
        );
        assert_eq!(
            offsets.capacity(),
            offsets_cap,
            "offset table reallocated during fill"
        );
        Self {
            offsets,
            indices,
            values,
            norms,
            dim,
        }
    }

    /// One past the largest stored index (0 for an all-empty pool).
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// True when the geometry holds no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// The cached Euclidean norm of row `i`.
    pub fn norm(&self, i: usize) -> f64 {
        self.norms[i]
    }

    /// Row `i` as parallel `(indices, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Scatter row `a`'s widened values into `dense` (grown to
    /// `Self::dim` on first use) for repeated one-vs-many dots. Pair
    /// with [`Self::unscatter`] to zero the entries again in O(nnz).
    pub fn scatter(&self, a: usize, dense: &mut Vec<f64>) {
        if dense.len() < self.dim() {
            dense.resize(self.dim(), 0.0);
        }
        let (ai, av) = self.row(a);
        for (&i, &v) in ai.iter().zip(av) {
            dense[i as usize] = v as f64;
        }
    }

    /// Zero row `a`'s entries in a buffer filled by [`Self::scatter`].
    pub fn unscatter(&self, a: usize, dense: &mut [f64]) {
        let (ai, _) = self.row(a);
        for &i in ai {
            dense[i as usize] = 0.0;
        }
    }

    /// Dot of row `b` against a row scattered into `dense` — a linear
    /// gather instead of the branchy two-pointer merge, and still
    /// bit-identical to [`SparseVec::dot`]: shared indices contribute the same
    /// products in the same ascending order, and non-shared indices
    /// contribute `±0.0`, which cannot change the accumulator (it is
    /// never `-0.0`: it starts at `+0.0`, and round-to-nearest addition
    /// yields `-0.0` only from `-0.0 + -0.0`).
    pub fn dot_scattered(&self, dense: &[f64], b: usize) -> f64 {
        let (bi, bv) = self.row(b);
        let mut acc = 0.0;
        for (&i, &v) in bi.iter().zip(bv) {
            acc += dense[i as usize] * v as f64;
        }
        acc
    }

    /// Cosine of rows `a` (already scattered into `dense`) and `b`;
    /// bit-identical to [`SparseVec::cosine`] of the same rows.
    pub fn cosine_scattered(&self, dense: &[f64], a: usize, b: usize) -> f64 {
        let denom = self.norm(a) * self.norm(b);
        if denom == 0.0 {
            0.0
        } else {
            self.dot_scattered(dense, b) / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn build_preserves_rows_and_norms() {
        let reps = vec![sv(&[(1, 1.0), (4, 2.0)]), sv(&[]), sv(&[(0, 3.0)])];
        let g = PoolGeometry::build(&reps);
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), (&[1u32, 4][..], &[1.0f32, 2.0][..]));
        assert_eq!(g.row(1), (&[][..], &[][..]));
        for (i, r) in reps.iter().enumerate() {
            assert_eq!(g.norm(i).to_bits(), r.norm().to_bits());
        }
    }

    #[test]
    fn empty_geometry() {
        let g = PoolGeometry::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.dim(), 0);
    }

    #[test]
    fn scattered_dot_matches_merge_bitwise() {
        // Includes negative values and an explicit 0.0 entry so the
        // ±0.0-product argument is exercised.
        let reps = vec![
            sv(&[(1, 1.0), (3, -2.0), (7, 0.0)]),
            sv(&[(3, 4.0), (7, -0.5), (9, 1.0)]),
            sv(&[(2, -1.5), (3, 0.25)]),
            sv(&[]),
        ];
        let g = PoolGeometry::build(&reps);
        let mut dense = Vec::new();
        for a in 0..reps.len() {
            g.scatter(a, &mut dense);
            for b in 0..reps.len() {
                assert_eq!(
                    g.dot_scattered(&dense, b).to_bits(),
                    reps[a].dot(&reps[b]).to_bits(),
                    "dot rows {a},{b}"
                );
                assert_eq!(
                    g.cosine_scattered(&dense, a, b).to_bits(),
                    reps[a].cosine(&reps[b]).to_bits(),
                    "cosine rows {a},{b}"
                );
            }
            g.unscatter(a, &mut dense);
            assert!(dense.iter().all(|&v| v == 0.0), "unscatter must re-zero");
        }
    }
}
