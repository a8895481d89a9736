//! Pool-scaling benchmark: selection-combinator wall clocks on synthetic
//! pools far beyond the paper's dataset sizes (10k → 1M rows).
//!
//! The figure grids exercise the full AL loop, which caps out around
//! 10k-sample pools — model fitting dominates long before geometry does.
//! This grid times *only* the similarity combinators (density / k-center
//! / MMR) over a seeded clustered pool, exact path vs LSH-indexed path.
//! Every size runs over a resident [`PoolGeometry`]. Cells land in
//! `BENCH_harness.json` as experiment `bench-pool` alongside the AL-loop
//! cells. The grid is fixed: `bench` and its `--check` gate are its only
//! runners, so its settings are the constants below.
//!
//! Exact cells above [`EXACT_CEILING`] rows are skipped with a note: the
//! exact density/MMR sweeps are Θ(R·n) / Θ(k·n) cosine gathers and take
//! minutes at 1M rows (documented in DESIGN.md §5.8); the 1M cells run
//! ANN-only.

use std::time::Instant;

use histal_core::strategy::combinators::{
    apply_density, kcenter_select, mmr_select, DensityConfig, MmrConfig, SimScratch,
};
use histal_data::synth_pool;
use histal_text::{AnnConfig, LshIndex, NeighborIndex, PoolGeometry};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::experiments::BenchCell;

/// Experiment id of the emitted cells.
const NAME: &str = "bench-pool";
/// Seed for pool synthesis, scores, and the LSH index.
const SEED: u64 = 190;
/// Pool sizes swept, ascending.
pub(crate) const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// Geometry paths timed: no index, and the LSH index.
const MODES: [&str; 2] = ["exact", "ann"];
/// Combinators timed.
pub(crate) const STRATEGIES: [&str; 3] = ["density", "kcenter", "mmr"];
/// Latent clusters in the synthetic pool.
const CLUSTERS: usize = 8;
/// Stored entries per synthetic row.
const NNZ_PER_ROW: usize = 32;
/// Batch size for the k-center / MMR greedy loops.
const BATCH: usize = 64;
/// Exact cells above this many rows are skipped (documented-slower, see
/// DESIGN.md §5.8).
const EXACT_CEILING: usize = 200_000;

/// Deterministic synthetic uncertainty score for row `i`: a splitmix64
/// draw folded into `(0, 1]`, so greedy loops have real argmax structure.
fn synth_score(seed: u64, i: usize) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Time one combinator over one pool/index pairing; returns wall ms.
fn time_strategy(
    strategy: &str,
    scores: &[f64],
    unlabeled: &[usize],
    geom: &PoolGeometry,
    index: Option<&dyn NeighborIndex>,
    scratch: &mut SimScratch,
) -> f64 {
    let start = Instant::now();
    match strategy {
        "density" => {
            let mut weighted = scores.to_vec();
            let mut rng = ChaCha8Rng::seed_from_u64(SEED);
            apply_density(
                &mut weighted,
                unlabeled,
                geom,
                index,
                &DensityConfig::default(),
                &mut rng,
                scratch,
            );
            assert!(weighted.iter().all(|w| w.is_finite()));
        }
        "kcenter" => {
            let picks = kcenter_select(scores, unlabeled, geom, index, BATCH, scratch);
            assert_eq!(picks.len(), BATCH.min(unlabeled.len()));
        }
        "mmr" => {
            let picks = mmr_select(
                scores,
                unlabeled,
                geom,
                index,
                BATCH,
                &MmrConfig::default(),
                scratch,
            );
            assert_eq!(picks.len(), BATCH.min(unlabeled.len()));
        }
        other => unreachable!("validated strategy token {other}"),
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Execute the grid at the pool sizes `sizes` (`bench` passes
/// [`SIZES`], the `bench --check` gate only the smallest), emitting one
/// [`BenchCell`] per timed cell.
pub(crate) fn run_pool_scaling(sizes: &[usize]) -> Vec<BenchCell> {
    let mut cells = Vec::new();
    let mut scratch = SimScratch::default();
    for &n in sizes {
        let t0 = Instant::now();
        let geom = PoolGeometry::build(&synth_pool(SEED, n, CLUSTERS, NNZ_PER_ROW));
        eprintln!(
            "  {NAME:>10} {n:>9} rows built in {:.1} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
        let unlabeled: Vec<usize> = (0..n).collect();
        let scores: Vec<f64> = (0..n).map(|i| synth_score(SEED, i)).collect();

        let t0 = Instant::now();
        let lsh = LshIndex::build(&geom, &AnnConfig::default(), SEED ^ 0xA11);
        eprintln!(
            "  {NAME:>10} {n:>9} rows: LSH ({} tables × {} bits, {} probes) built in {:.1} ms",
            lsh.tables(),
            lsh.bits(),
            lsh.probes(),
            t0.elapsed().as_secs_f64() * 1e3
        );

        for mode in MODES {
            let index: Option<&dyn NeighborIndex> = match mode {
                "exact" => {
                    if n > EXACT_CEILING {
                        eprintln!(
                            "  {NAME:>10} {n:>9} rows: exact cells skipped \
                             (documented-slower above {EXACT_CEILING} rows, see DESIGN.md §5.8)"
                        );
                        continue;
                    }
                    None
                }
                _ => Some(&lsh),
            };
            for strategy in STRATEGIES {
                let wall_ms =
                    time_strategy(strategy, &scores, &unlabeled, &geom, index, &mut scratch);
                eprintln!(
                    "  {NAME:>10} {:<12} {:<14} wall {wall_ms:>9.1} ms",
                    format!("synth-{n}"),
                    format!("{strategy}/{mode}")
                );
                cells.push(BenchCell {
                    experiment: NAME.into(),
                    dataset: format!("synth-{n}"),
                    strategy: format!("{strategy}/{mode}"),
                    wall_ms,
                    fit_ms: 0.0,
                    eval_ms: 0.0,
                    score_ms: 0.0,
                    select_ms: wall_ms,
                });
            }
        }
        // Speedup summary wherever both paths ran at this size.
        for strategy in STRATEGIES {
            let wall = |mode: &str| {
                cells
                    .iter()
                    .find(|c| {
                        c.dataset == format!("synth-{n}")
                            && c.strategy == format!("{strategy}/{mode}")
                    })
                    .map(|c| c.wall_ms)
            };
            if let (Some(exact), Some(ann)) = (wall("exact"), wall("ann")) {
                eprintln!(
                    "  {NAME:>10} {n:>9} rows: {strategy} ann speedup ×{:.1}",
                    exact / ann.max(1e-9)
                );
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_runs_exact_and_ann() {
        let cells = run_pool_scaling(&[400]);
        assert_eq!(cells.len(), 6, "3 strategies × 2 modes");
        assert!(cells.iter().all(|c| c.wall_ms.is_finite()));
    }
}
