//! Property tests for the deterministic parallel reduction primitives:
//! the parallel chunk-accumulate-then-combine must equal a serial fold
//! with the same chunk association to 0 ULP, for any chunk size.

use histal_models::parallel::{chunked_grads, derive_seed, map_items};
use proptest::prelude::*;

proptest! {
    #[test]
    fn chunked_parallel_matches_serial_to_zero_ulp(
        vals in prop::collection::vec(-1e12f64..1e12, 0..64),
        chunk in 1usize..9,
        dense_dim in 1usize..5,
    ) {
        let grad = |i: usize, acc: &mut [f64]| {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += vals[i] * (k as f64 + 0.5);
            }
            vals[i] * 2.0
        };
        let (par_items, par_dense) = chunked_grads(vals.len(), chunk, dense_dim, grad);
        // Serial reference: each chunk's partial starts at zero and is
        // added, in chunk order, into a zeroed total.
        let mut ser_items = Vec::new();
        let mut ser_dense = vec![0.0; dense_dim];
        for lo in (0..vals.len()).step_by(chunk) {
            let mut acc = vec![0.0; dense_dim];
            for i in lo..(lo + chunk).min(vals.len()) {
                ser_items.push(grad(i, &mut acc));
            }
            for (d, a) in ser_dense.iter_mut().zip(&acc) {
                *d += a;
            }
        }
        prop_assert_eq!(&par_items, &ser_items);
        prop_assert_eq!(par_dense.len(), dense_dim);
        for (p, s) in par_dense.iter().zip(&ser_dense) {
            prop_assert_eq!(p.to_bits(), s.to_bits(), "parallel {} vs serial {}", p, s);
        }
    }

    #[test]
    fn chunk_size_does_not_reorder_items(
        n in 0usize..50,
        chunk_a in 1usize..9,
        chunk_b in 1usize..9,
    ) {
        // Per-item results are ordered by item index whatever the
        // chunking; only the dense float association may differ.
        let (a, _) = chunked_grads(n, chunk_a, 1, |i, acc| { acc[0] += 1.0; i });
        let (b, _) = chunked_grads(n, chunk_b, 1, |i, acc| { acc[0] += 1.0; i });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn map_items_is_index_ordered(n in 0usize..100) {
        let out = map_items(n, |i| i * 7 + 1);
        prop_assert_eq!(out, (0..n).map(|i| i * 7 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn derive_seed_is_pure_and_spreads(base in 0u64..u64::MAX, i in 0u64..1024) {
        prop_assert_eq!(derive_seed(base, i), derive_seed(base, i));
        prop_assert_ne!(derive_seed(base, i), derive_seed(base, i.wrapping_add(1)));
    }
}
