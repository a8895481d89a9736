//! Deterministic parallel primitives for the training kernels.
//!
//! Parallel floating-point reductions are normally non-deterministic
//! because the combine order depends on thread scheduling. The helpers
//! here make the combine order a pure function of the *data layout*
//! instead: work is split into fixed-size chunks (independent of the
//! thread count), each chunk fills its own dense accumulator serially,
//! and the per-chunk partials are folded in chunk-index order. Running
//! with 1 thread or 16 therefore produces bit-identical results — the
//! property the serial-vs-parallel equivalence tests pin down.
//!
//! Per-sample randomness (dropout masks) never touches the shared
//! driver RNG from worker threads. Callers draw one `u64` per epoch
//! from the driver stream and derive an independent per-sample RNG with
//! [`derive_seed`], keyed by the sample's position in the epoch. The
//! derived streams are identical however many threads execute them.

/// SplitMix64-style seed derivation: decorrelates `(base, index)` pairs
/// into independent seeds. Pure function — safe to call from any thread.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parallel map over `0..n` collecting results in index order.
/// Determinism: the output vector is ordered by index regardless of
/// which thread computed which element.
pub fn map_items<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    rayon::run_indexed(n, f)
}

/// Chunked parallel gradient accumulation.
///
/// Splits `0..n_items` into chunks of `chunk_size` (the last may be
/// short). Each chunk runs `f(item, &mut dense)` serially over its items
/// with a fresh `dense` accumulator of `dense_dim` zeros; chunks run in
/// parallel. Returns the per-item results in item order plus the dense
/// accumulators summed **in chunk order**, so the floating-point sum
/// association depends only on `chunk_size`, never on the thread count.
///
/// Worth it only when a chunk outweighs a pool round-trip (tens of
/// microseconds): the CRF, whose chunk is a sentence's forward–backward
/// pass, uses it; logistic regression's sparse minibatches use
/// [`chunked_grads_serial`].
pub fn chunked_grads<T, F>(
    n_items: usize,
    chunk_size: usize,
    dense_dim: usize,
    f: F,
) -> (Vec<T>, Vec<f64>)
where
    T: Send,
    F: Fn(usize, &mut [f64]) -> T + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = n_items.div_ceil(chunk_size);
    let per_chunk: Vec<(Vec<T>, Vec<f64>)> = rayon::run_indexed(n_chunks, |c| {
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(n_items);
        let mut dense = vec![0.0; dense_dim];
        let items: Vec<T> = (lo..hi).map(|i| f(i, &mut dense)).collect();
        (items, dense)
    });
    combine_chunks(per_chunk, n_items, dense_dim)
}

/// [`chunked_grads`] on the calling thread, with the *same* chunk
/// association, so the two agree to 0 ULP (property-tested). The
/// production path for work too small to pay for a pool call: the
/// logistic-regression SGD minibatch.
pub fn chunked_grads_serial<T, F>(
    n_items: usize,
    chunk_size: usize,
    dense_dim: usize,
    f: F,
) -> (Vec<T>, Vec<f64>)
where
    F: Fn(usize, &mut [f64]) -> T,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = n_items.div_ceil(chunk_size);
    let per_chunk: Vec<(Vec<T>, Vec<f64>)> = (0..n_chunks)
        .map(|c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(n_items);
            let mut dense = vec![0.0; dense_dim];
            let items: Vec<T> = (lo..hi).map(|i| f(i, &mut dense)).collect();
            (items, dense)
        })
        .collect();
    combine_chunks(per_chunk, n_items, dense_dim)
}

fn combine_chunks<T>(
    per_chunk: Vec<(Vec<T>, Vec<f64>)>,
    n_items: usize,
    dense_dim: usize,
) -> (Vec<T>, Vec<f64>) {
    let mut items = Vec::with_capacity(n_items);
    let mut dense = vec![0.0; dense_dim];
    for (chunk_items, chunk_dense) in per_chunk {
        items.extend(chunk_items);
        for (d, v) in dense.iter_mut().zip(&chunk_dense) {
            *d += v;
        }
    }
    (items, dense)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert!(a != b && a != c && b != c);
        // Pure function.
        assert_eq!(derive_seed(1, 0), a);
    }

    #[test]
    fn map_items_preserves_index_order() {
        let out = map_items(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_matches_serial_reference_exactly() {
        // Adversarially-scaled values so association actually matters.
        let vals: Vec<f64> = (0..37)
            .map(|i| (i as f64 - 18.0) * 1e10_f64.powi((i % 5) - 2))
            .collect();
        for chunk in [1, 2, 3, 8, 37, 64] {
            let (pi, pd) = chunked_grads(vals.len(), chunk, 2, |i, acc| {
                acc[0] += vals[i];
                acc[1] += vals[i] * 0.5;
                i
            });
            let (si, sd) = chunked_grads_serial(vals.len(), chunk, 2, |i, acc| {
                acc[0] += vals[i];
                acc[1] += vals[i] * 0.5;
                i
            });
            assert_eq!(pi, si, "chunk {chunk}");
            assert_eq!(pd[0].to_bits(), sd[0].to_bits(), "chunk {chunk}");
            assert_eq!(pd[1].to_bits(), sd[1].to_bits(), "chunk {chunk}");
        }
    }

    #[test]
    fn empty_input_is_safe() {
        let (items, dense) = chunked_grads(0, 4, 3, |_, _| 0u8);
        assert!(items.is_empty());
        assert_eq!(dense, vec![0.0; 3]);
    }
}
