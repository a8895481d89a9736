//! Selection-primitive micro-benches for the million-sample pool work:
//! the bounded-heap `top_k` (vs. the full sort it replaced) and an
//! LSH neighbor probe, each at 10k and 1M rows.
//!
//! `top_k` is the driver's per-round batch pick and MMR's inner
//! argmax; at k ≪ n it runs O(n log k) against the old O(n log n) sort.
//! The LSH probe is what the ANN-indexed combinators pay per reference
//! row instead of an O(n) sweep.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use histal_core::driver::top_k;
use histal_data::synth_pool;
use histal_text::{AnnConfig, AnnScratch, LshIndex, NeighborIndex, PoolGeometry};

/// Deterministic pseudo-random scores without an RNG dependency here:
/// splitmix64 folded into (0, 1].
fn scores(n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let mut h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5ca1ab1e;
            h ^= h >> 30;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
            ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        })
        .collect()
}

fn bench_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("top_k");
    for &n in &[10_000usize, 1_000_000] {
        let s = scores(n);
        group.bench_function(BenchmarkId::new("heap_k64", n), |b| {
            b.iter(|| black_box(top_k(black_box(&s), 64)))
        });
    }
    group.finish();
}

fn bench_lsh_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsh_probe");
    for &n in &[10_000usize, 1_000_000] {
        // 8 nnz/row keeps the 1M resident build in a few hundred MB.
        let reps = synth_pool(0xB5, n, 8, 8);
        let geom = PoolGeometry::build(&reps);
        let index = LshIndex::build(&geom, &AnnConfig::default(), 0xB5);
        let mut scratch = AnnScratch::default();
        let mut out = Vec::new();
        group.bench_function(BenchmarkId::new("neighbors", n), |b| {
            let mut row = 0usize;
            b.iter(|| {
                index.neighbors_into(row % n, &mut scratch, &mut out);
                row = row.wrapping_add(7919);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_top_k, bench_lsh_probe);
criterion_main!(benches);
