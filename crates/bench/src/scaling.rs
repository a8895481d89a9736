//! Pool-scaling benchmark: selection-combinator wall clocks on synthetic
//! pools far beyond the paper's dataset sizes (10k → 1M rows).
//!
//! The figure grids exercise the full AL loop, which caps out around
//! 10k-sample pools — model fitting dominates long before geometry does.
//! This grid isolates what the tentpole optimizes: it times *only* the
//! similarity combinators (density / k-center / MMR) over a seeded
//! clustered pool, exact path vs LSH-indexed path. Every size runs over
//! a resident [`PoolGeometry`]. Cells land in `BENCH_harness.json` as
//! experiment `bench-pool` alongside the AL-loop cells.
//!
//! The grid is described by `specs/bench-pool-scaling.json`, which is
//! deliberately **not** an [`ExperimentSpec`](crate::spec::ExperimentSpec): a full AL loop at 1M rows
//! is infeasible (and meaningless — there is no model or dataset here),
//! so the file carries its own `"kind": "pool-scaling"` discriminator
//! and schema. `spec-check` and the spec round-trip tests branch on that
//! field.
//!
//! Exact cells above `exact_ceiling` rows are skipped with a note: the
//! exact density/MMR sweeps are Θ(R·n) / Θ(k·n) cosine gathers and take
//! minutes at 1M rows (documented in DESIGN.md §5.8); the 1M cells run
//! ANN-only.

use std::time::Instant;

use histal_core::error::Error;
use histal_core::strategy::combinators::{
    apply_density, kcenter_select, mmr_select, DensityConfig, MmrConfig, SimScratch,
};
use histal_data::synth_pool;
use histal_text::{LshIndex, NeighborIndex, PoolGeometry};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::experiments::BenchCell;
use crate::spec::AnnSpec;

/// Discriminator value that marks a spec file as a pool-scaling grid.
pub const POOL_SCALING_KIND: &str = "pool-scaling";

/// Declarative description of one pool-scaling grid: the cross product
/// `sizes × modes × strategies`, minus exact cells above
/// [`Self::exact_ceiling`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolScalingSpec {
    /// Must be [`POOL_SCALING_KIND`]; keeps the file from being
    /// mistaken for an [`crate::spec::ExperimentSpec`].
    pub kind: String,
    /// Grid name (reported, and the `experiment` id of emitted cells).
    pub name: String,
    /// Seed for pool synthesis, scores, and the LSH index.
    #[serde(default)]
    pub seed: u64,
    /// Pool sizes to sweep, ascending.
    pub sizes: Vec<usize>,
    /// Geometry paths to time: `"exact"` (no index) and/or `"ann"`.
    pub modes: Vec<String>,
    /// Combinators to time: `"density"`, `"kcenter"`, `"mmr"`.
    pub strategies: Vec<String>,
    /// Latent clusters in the synthetic pool (default 8).
    #[serde(default)]
    pub clusters: Option<usize>,
    /// Stored entries per synthetic row (default 32).
    #[serde(default)]
    pub nnz_per_row: Option<usize>,
    /// Batch size for the k-center / MMR greedy loops (default 64).
    #[serde(default)]
    pub batch_size: Option<usize>,
    /// LSH tuning for the `"ann"` mode (defaults apply field-wise).
    #[serde(default)]
    pub ann: AnnSpec,
    /// Exact cells above this many rows are skipped — documented-slower,
    /// see DESIGN.md §5.8 (default 200 000).
    #[serde(default)]
    pub exact_ceiling: Option<usize>,
}

impl PoolScalingSpec {
    pub fn clusters(&self) -> usize {
        self.clusters.unwrap_or(8)
    }

    pub fn nnz_per_row(&self) -> usize {
        self.nnz_per_row.unwrap_or(32)
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size.unwrap_or(64)
    }

    pub fn exact_ceiling(&self) -> usize {
        self.exact_ceiling.unwrap_or(200_000)
    }
    /// Parse from JSON (strict enough that an `ExperimentSpec` file
    /// fails here rather than half-loading).
    pub fn from_json(body: &str) -> Result<Self, Error> {
        serde_json::from_str(body).map_err(|e| Error::spec(format!("pool-scaling spec: {e}")))
    }

    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("pool-scaling spec serializes")
    }

    pub fn validate(&self) -> Result<(), Error> {
        let fail = |m: String| Err(Error::spec(m));
        if self.kind != POOL_SCALING_KIND {
            return fail(format!(
                "kind must be \"{POOL_SCALING_KIND}\", got \"{}\"",
                self.kind
            ));
        }
        if self.name.is_empty() {
            return fail("pool-scaling spec needs a name".into());
        }
        if self.sizes.is_empty() {
            return fail("sizes must list at least one pool size".into());
        }
        if self.sizes.windows(2).any(|w| w[0] >= w[1]) {
            return fail("sizes must be strictly ascending".into());
        }
        if self.modes.is_empty() || self.strategies.is_empty() {
            return fail("modes and strategies must be non-empty".into());
        }
        for m in &self.modes {
            if m != "exact" && m != "ann" {
                return fail(format!("unknown mode \"{m}\" (exact|ann)"));
            }
        }
        for s in &self.strategies {
            if !matches!(s.as_str(), "density" | "kcenter" | "mmr") {
                return fail(format!("unknown strategy \"{s}\" (density|kcenter|mmr)"));
            }
        }
        if self.clusters() == 0 || self.nnz_per_row() == 0 || self.batch_size() == 0 {
            return fail("clusters, nnz_per_row and batch_size must be positive".into());
        }
        self.ann.validate()
    }
}

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
#[allow(clippy::too_many_arguments)]
fn time_strategy(
    strategy: &str,
    scores: &[f64],
    unlabeled: &[usize],
    geom: &PoolGeometry,
    index: Option<&dyn NeighborIndex>,
    batch: usize,
    seed: u64,
    scratch: &mut SimScratch,
) -> f64 {
    let start = Instant::now();
    match strategy {
        "density" => {
            let mut weighted = scores.to_vec();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
            let picks = kcenter_select(scores, unlabeled, geom, index, batch, scratch);
            assert_eq!(picks.len(), batch.min(unlabeled.len()));
        }
        "mmr" => {
            let picks = mmr_select(
                scores,
                unlabeled,
                geom,
                index,
                batch,
                &MmrConfig::default(),
                scratch,
            );
            assert_eq!(picks.len(), batch.min(unlabeled.len()));
        }
        other => unreachable!("validated strategy token {other}"),
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Execute the grid, emitting one [`BenchCell`] per timed cell. Sizes
/// above `size_cap` (when given) are dropped — the `bench --check` smoke
/// runs only the smallest size this way.
pub fn run_pool_scaling(
    spec: &PoolScalingSpec,
    size_cap: Option<usize>,
) -> Result<Vec<BenchCell>, Error> {
    spec.validate()?;
    let sizes: Vec<usize> = spec
        .sizes
        .iter()
        .copied()
        .filter(|&n| size_cap.map_or(true, |cap| n <= cap))
        .collect();
    if sizes.is_empty() {
        return Err(Error::spec(format!(
            "size cap {size_cap:?} leaves no pool-scaling sizes"
        )));
    }
    let mut cells = Vec::new();
    let mut scratch = SimScratch::default();
    for &n in &sizes {
        let t0 = Instant::now();
        let geom = PoolGeometry::build(&synth_pool(
            spec.seed,
            n,
            spec.clusters(),
            spec.nnz_per_row(),
        ));
        eprintln!(
            "  {:>10} {n:>9} rows built in {:.1} ms",
            spec.name,
            t0.elapsed().as_secs_f64() * 1e3
        );
        let unlabeled: Vec<usize> = (0..n).collect();
        let scores: Vec<f64> = (0..n).map(|i| synth_score(spec.seed, i)).collect();

        let lsh = if spec.modes.iter().any(|m| m == "ann") {
            let t0 = Instant::now();
            let index = LshIndex::build(&geom, &spec.ann.to_config(), spec.seed ^ 0xA11);
            eprintln!(
                "  {:>10} {n:>9} rows: LSH ({} tables × {} bits, {} probes) built in {:.1} ms",
                spec.name,
                index.tables(),
                index.bits(),
                index.probes(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            Some(index)
        } else {
            None
        };

        for mode in &spec.modes {
            let index: Option<&dyn NeighborIndex> = match mode.as_str() {
                "exact" => {
                    if n > spec.exact_ceiling() {
                        eprintln!(
                            "  {:>10} {n:>9} rows: exact cells skipped \
                             (documented-slower above {} rows, see DESIGN.md §5.8)",
                            spec.name,
                            spec.exact_ceiling()
                        );
                        continue;
                    }
                    None
                }
                _ => lsh.as_ref().map(|i| i as &dyn NeighborIndex),
            };
            for strategy in &spec.strategies {
                let wall_ms = time_strategy(
                    strategy,
                    &scores,
                    &unlabeled,
                    &geom,
                    index,
                    spec.batch_size(),
                    spec.seed,
                    &mut scratch,
                );
                eprintln!(
                    "  {:>10} {:<12} {:<14} wall {wall_ms:>9.1} ms",
                    spec.name,
                    format!("synth-{n}"),
                    format!("{strategy}/{mode}")
                );
                cells.push(BenchCell {
                    experiment: spec.name.clone(),
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
        for strategy in &spec.strategies {
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
                    "  {:>10} {n:>9} rows: {strategy} ann speedup ×{:.1}",
                    spec.name,
                    exact / ann.max(1e-9)
                );
            }
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecKind;

    const EMBEDDED: &str = include_str!("../../../specs/bench-pool-scaling.json");

    #[test]
    fn embedded_scaling_spec_parses_validates_and_round_trips() {
        assert_eq!(SpecKind::of_json(EMBEDDED), SpecKind::PoolScaling);
        let spec = PoolScalingSpec::from_json(EMBEDDED).expect("embedded scaling spec parses");
        spec.validate().expect("embedded scaling spec validates");
        let json = spec.to_json_pretty();
        let spec2 = PoolScalingSpec::from_json(&json).unwrap();
        assert_eq!(spec, spec2, "round trip changed the spec");
    }

    #[test]
    fn experiment_specs_are_not_pool_scaling() {
        assert_eq!(
            SpecKind::of_json(include_str!("../../../specs/fig5.json")),
            SpecKind::Experiment
        );
    }

    #[test]
    fn validate_rejects_bad_grids() {
        let mut spec = PoolScalingSpec::from_json(EMBEDDED).unwrap();
        spec.modes = vec!["warp".into()];
        assert!(spec.validate().is_err(), "unknown mode must fail");
        let mut spec = PoolScalingSpec::from_json(EMBEDDED).unwrap();
        spec.sizes = vec![100, 100];
        assert!(spec.validate().is_err(), "non-ascending sizes must fail");
        // The LSH bounds are `AnnSpec::validate`, shared with experiment specs.
        for field in ["tables", "bits", "probes"] {
            let mut spec = PoolScalingSpec::from_json(EMBEDDED).unwrap();
            match field {
                "tables" => spec.ann.tables = Some(65),
                "bits" => spec.ann.bits = Some(21),
                _ => spec.ann.probes = Some(21),
            }
            let msg = spec.validate().unwrap_err().to_string();
            assert!(msg.contains(&format!("`ann.{field}`")), "{msg}");
        }
    }

    #[test]
    fn tiny_grid_runs_exact_and_ann() {
        let spec = PoolScalingSpec {
            kind: POOL_SCALING_KIND.into(),
            name: "bench-pool".into(),
            seed: 9,
            sizes: vec![400],
            modes: vec!["exact".into(), "ann".into()],
            strategies: vec!["density".into(), "kcenter".into(), "mmr".into()],
            clusters: Some(4),
            nnz_per_row: Some(12),
            batch_size: Some(16),
            ann: AnnSpec::default(),
            exact_ceiling: None,
        };
        let cells = run_pool_scaling(&spec, None).unwrap();
        assert_eq!(cells.len(), 6, "3 strategies × 2 modes");
        assert!(cells.iter().all(|c| c.wall_ms.is_finite()));
    }
}
