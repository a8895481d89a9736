//! Property-based tests pinning the [`PoolGeometry`] cached-norm paths to
//! the [`SparseVec`] reference implementations, bit for bit. The cache
//! stores raw values plus precomputed norms (never pre-scaled unit
//! vectors) precisely so these identities hold to the last ULP — greedy
//! tie-breaking in MMR / k-center depends on it.

use proptest::prelude::*;

use histal_text::{PoolGeometry, SparseVec};

fn pairs_strategy() -> impl Strategy<Value = Vec<(u32, f32)>> {
    prop::collection::vec((0u32..600, -10.0f32..10.0), 0..40)
}

fn pool_strategy() -> impl Strategy<Value = Vec<SparseVec>> {
    prop::collection::vec(pairs_strategy(), 1..8)
        .prop_map(|rows| rows.into_iter().map(SparseVec::from_pairs).collect())
}

proptest! {
    /// Cached norms equal `SparseVec::norm` exactly.
    #[test]
    fn cached_norms_bitwise(pool in pool_strategy()) {
        let g = PoolGeometry::build(&pool);
        prop_assert_eq!(g.len(), pool.len());
        for (i, rep) in pool.iter().enumerate() {
            prop_assert_eq!(g.norm(i).to_bits(), rep.norm().to_bits(), "row {}", i);
        }
    }

    /// The scatter/gather dot and cosine equal `SparseVec::dot` and
    /// `SparseVec::cosine` exactly for every row pair (all-zero rows
    /// included), and unscatter restores an all-zero buffer.
    #[test]
    fn scattered_paths_bitwise(pool in pool_strategy()) {
        let g = PoolGeometry::build(&pool);
        let mut dense = Vec::new();
        for a in 0..pool.len() {
            g.scatter(a, &mut dense);
            for b in 0..pool.len() {
                prop_assert_eq!(
                    g.dot_scattered(&dense, b).to_bits(),
                    pool[a].dot(&pool[b]).to_bits(),
                    "dot rows {},{}", a, b
                );
                prop_assert_eq!(
                    g.cosine_scattered(&dense, a, b).to_bits(),
                    pool[a].cosine(&pool[b]).to_bits(),
                    "cosine rows {},{}", a, b
                );
            }
            g.unscatter(a, &mut dense);
            prop_assert!(dense.iter().all(|&v| v == 0.0));
        }
    }

    /// Round-tripping a row out of the arena reproduces the original
    /// index/value slices.
    #[test]
    fn rows_roundtrip(pool in pool_strategy()) {
        let g = PoolGeometry::build(&pool);
        for (i, rep) in pool.iter().enumerate() {
            let (idx, vals) = g.row(i);
            prop_assert_eq!(idx, rep.indices(), "row {}", i);
            prop_assert_eq!(vals, rep.values(), "row {}", i);
        }
    }
}
