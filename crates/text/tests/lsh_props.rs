//! Quality and determinism contracts of the LSH neighbor index.
//!
//! The index is only useful if (a) its candidate sets actually contain
//! the true nearest neighbors on the clustered pools the combinators
//! see — pinned here as recall@k ≥ 0.9 at the default [`AnnConfig`] —
//! and (b) its output is a pure function of `(pool, config, seed)`,
//! independent of how many threads the host happens to run.

use histal_text::{AnnConfig, AnnScratch, LshIndex, NeighborIndex, PoolGeometry, SparseVec};

fn splitmix(h: &mut u64) -> u64 {
    *h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Clustered pool: `n` rows over `clusters` latent topics. Each row
/// draws most features from its cluster's 32-feature band plus one
/// shared global feature in four, mirroring the shape of real
/// bag-of-words pools (dense cores, sparse overlap).
fn clustered_pool(seed: u64, n: usize, clusters: usize) -> Vec<SparseVec> {
    let mut h = seed;
    (0..n)
        .map(|i| {
            let cluster = (i % clusters) as u32;
            let pairs: Vec<(u32, f32)> = (0..8)
                .map(|k| {
                    let r = splitmix(&mut h);
                    let feat = if k % 4 == 3 {
                        1 + clusters as u32 * 32 + (r % 32) as u32
                    } else {
                        1 + cluster * 32 + (r % 32) as u32
                    };
                    (feat, 0.25 + (r >> 32) as f32 / u32::MAX as f32)
                })
                .collect();
            SparseVec::from_pairs(pairs)
        })
        .collect()
}

/// True top-k cosine neighbors of `row` (self excluded), exact scan.
fn true_top_k(geom: &PoolGeometry, row: usize, k: usize) -> Vec<usize> {
    let mut dense = Vec::new();
    geom.scatter(row, &mut dense);
    let mut scored: Vec<(f64, usize)> = (0..geom.len())
        .filter(|&j| j != row)
        .map(|j| (geom.cosine_scattered(&dense, row, j), j))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, j)| j).collect()
}

/// Recall@10 of the default-config LSH candidate sets, averaged over a
/// stride of query rows, on several seeded clustered pools.
#[test]
fn default_config_recall_at_10_is_high() {
    for seed in [1u64, 7, 42] {
        let reps = clustered_pool(seed, 2_000, 8);
        let geom = PoolGeometry::build(&reps);
        let index = LshIndex::build(&geom, &AnnConfig::default(), seed);
        let mut scratch = AnnScratch::default();
        let mut neigh = Vec::new();
        let (mut hit, mut want) = (0usize, 0usize);
        for row in (0..geom.len()).step_by(40) {
            index.neighbors_into(row, &mut scratch, &mut neigh);
            for t in true_top_k(&geom, row, 10) {
                want += 1;
                if neigh.binary_search(&t).is_ok() {
                    hit += 1;
                }
            }
        }
        let recall = hit as f64 / want as f64;
        assert!(
            recall >= 0.9,
            "seed {seed}: recall@10 {recall:.3} below 0.9 ({hit}/{want})"
        );
    }
}

/// The index is a pure function of `(pool, config, seed)`: builds and
/// queries racing on several threads produce the same candidate sets as
/// a build on the main thread.
#[test]
fn build_and_query_are_thread_count_deterministic() {
    let reps = clustered_pool(11, 600, 4);
    let geom = PoolGeometry::build(&reps);
    let cfg = AnnConfig::default();

    let reference: Vec<Vec<usize>> = {
        let index = LshIndex::build(&geom, &cfg, 11);
        let mut scratch = AnnScratch::default();
        let mut neigh = Vec::new();
        (0..geom.len())
            .map(|row| {
                index.neighbors_into(row, &mut scratch, &mut neigh);
                neigh.clone()
            })
            .collect()
    };

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let index = LshIndex::build(&geom, &cfg, 11);
                let mut scratch = AnnScratch::default();
                let mut neigh = Vec::new();
                for (row, expect) in reference.iter().enumerate() {
                    index.neighbors_into(row, &mut scratch, &mut neigh);
                    assert_eq!(&neigh, expect, "row {row} diverged across threads");
                }
            });
        }
    });
}

/// Tightening `probes` can only shrink candidate sets; the self row is
/// always present regardless.
#[test]
fn probes_grow_candidate_sets_monotonically() {
    let reps = clustered_pool(5, 800, 8);
    let geom = PoolGeometry::build(&reps);
    let mut scratch = AnnScratch::default();
    let mut prev_total = 0usize;
    for probes in [0usize, 1, 2, 4] {
        let cfg = AnnConfig {
            probes,
            ..AnnConfig::default()
        };
        let index = LshIndex::build(&geom, &cfg, 5);
        let mut neigh = Vec::new();
        let mut total = 0usize;
        for row in 0..geom.len() {
            index.neighbors_into(row, &mut scratch, &mut neigh);
            assert!(
                neigh.binary_search(&row).is_ok(),
                "self missing at row {row}"
            );
            total += neigh.len();
        }
        assert!(
            total >= prev_total,
            "probes {probes}: total candidates {total} shrank from {prev_total}"
        );
        prev_total = total;
    }
}
