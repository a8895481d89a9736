//! Seeded synthetic pools for the pool-scaling grid and the selection
//! benches: clustered sparse rows at any size, each row generated from
//! its own seed so any row can be rebuilt without its neighbours.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use histal_text::SparseVec;

/// Deterministic clustered sparse row for synthetic scaling pools: row
/// `i` of a `clusters`-cluster pool with ~`nnz_per_row` entries drawn
/// from its cluster's feature band plus a few global features.
///
/// Row generation is independent per row (its own
/// `mix_seed`-style stream), so a pool's rows do not depend on the
/// order they are built in and share no RNG state.
pub(crate) fn synth_row(seed: u64, i: usize, clusters: usize, nnz_per_row: usize) -> SparseVec {
    let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    let mut rng = ChaCha8Rng::seed_from_u64(h);
    let cluster = i % clusters.max(1);
    // Each cluster owns a 4096-feature band; 1/4 of the row mass comes
    // from a shared global band so clusters overlap a little.
    let band = 4096u32;
    let cluster_base = 1 + cluster as u32 * band;
    let global_base = 1 + clusters as u32 * band;
    let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(nnz_per_row);
    for k in 0..nnz_per_row {
        let (base, width) = if k % 4 == 3 {
            (global_base, band)
        } else {
            (cluster_base, band)
        };
        let feat = base + rng.gen_range(0..width);
        let weight = 0.25 + rng.gen::<f32>();
        pairs.push((feat, weight));
    }
    SparseVec::from_pairs(pairs)
}

/// Build a resident synthetic pool: `n` rows of `synth_row`.
pub fn synth_pool(seed: u64, n: usize, clusters: usize, nnz_per_row: usize) -> Vec<SparseVec> {
    (0..n)
        .map(|i| synth_row(seed, i, clusters, nnz_per_row))
        .collect()
}
