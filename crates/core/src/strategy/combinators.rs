//! Representative and diversity combinators (§3.1.2–3.1.3).
//!
//! * **Density weighting** (Eq. 7) multiplies the informative score by the
//!   sample's mean similarity to the unlabeled pool, discounting outliers.
//! * **MMR diversity** (Eq. 8) greedily selects a batch balancing the
//!   informative score against the maximum similarity to already-selected
//!   samples.
//!
//! All three combinators consume a [`PoolGeometry`] — the pool's sparse
//! representations snapshotted once per run into contiguous storage with
//! cached norms — so each cosine is a single sparse dot and a division,
//! with no per-call norm recomputation. Mean pool similarity is estimated
//! on a fixed-size random subsample of the pool (documented deviation:
//! the paper averages over all of `U`, which is `O(|U|²)` per round; a
//! 256-sample Monte Carlo estimate preserves the ordering at a fraction
//! of the cost).
//!
//! The greedy k-center and MMR loops maintain their min-distance /
//! max-similarity arrays incrementally (one update sweep per pick, no
//! rescan of the selected set), and all per-round working memory lives in
//! a caller-owned [`SimScratch`] so repeated rounds allocate nothing.
//!
//! Every combinator takes an optional [`NeighborIndex`]. `None` (the
//! `ann=off` default) runs the exhaustive sweep — the code paths below
//! are byte-for-byte the pre-ANN loops, so results are bit-identical to
//! every earlier release. `Some(index)` restricts each similarity sweep
//! to the index's candidate neighbor set: with
//! [`histal_text::ExactNeighbors`] that set is the whole pool and the
//! results stay bit-identical (pinned by `tests/ann_props.rs`); with
//! [`histal_text::LshIndex`] non-neighbors are treated as
//! zero-similarity (density) or never-closer (k-center / MMR), the
//! documented approximation that makes million-sample pools tractable.

use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use histal_obs::span;
use histal_obs::trace::Level;

use histal_text::{AnnScratch, NeighborIndex, PoolGeometry};

use crate::driver::top_k;

/// Configuration for density (representativeness) weighting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DensityConfig {
    /// Pool subsample size for the mean-similarity estimate; 0 means use
    /// the full pool (exact but quadratic).
    pub sample_size: usize,
    /// Density exponent β (Settles & Craven 2008 information density):
    /// `φ(x) · density(x)^β`. β = 1 is the paper's Eq. 7; β = 0 disables
    /// the weighting.
    pub beta: f64,
}

impl Default for DensityConfig {
    fn default() -> Self {
        Self {
            sample_size: 256,
            beta: 1.0,
        }
    }
}

/// Configuration for MMR batch diversity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmrConfig {
    /// Trade-off λ in `λ·φ(x) − (1−λ)·max sim` — 1.0 disables diversity.
    pub lambda: f64,
}

impl Default for MmrConfig {
    fn default() -> Self {
        Self { lambda: 0.7 }
    }
}

/// Reusable per-round working memory for the similarity combinators.
///
/// Hold one per driver (or test) and pass it to every call; buffers are
/// resized on first use and reused thereafter, so steady-state rounds
/// perform no heap allocation.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Density reference subsample (pool ids, in draw order).
    reference: Vec<usize>,
    /// Membership mask over pool ids: `in_reference[id]` ⇔ `id` is in
    /// `reference` — replaces the former `O(R)` `contains` scan.
    in_reference: Vec<bool>,
    /// Per-candidate "already picked" mask for the greedy loops.
    taken: Vec<bool>,
    /// Per-candidate similarity state: density similarity sums, min
    /// distance (k-center) or max similarity (MMR) to the batch selected
    /// so far.
    sim: Vec<f64>,
    /// Dense scatter buffer for one-vs-many cosine sweeps
    /// ([`PoolGeometry::scatter`]); sized to the pool's feature dimension
    /// on first use.
    dense: Vec<f64>,
    /// Candidate-neighbor id buffer for ANN-indexed sweeps.
    neigh: Vec<usize>,
    /// Pool-id → position-in-`unlabeled` map (`usize::MAX` = not in `U`);
    /// filled per call, un-marked afterwards in O(|U|).
    pos_of: Vec<usize>,
    /// Per-pick MMR objective values, fed to [`top_k`].
    vals: Vec<f64>,
    /// Query-time scratch for the neighbor index.
    ann: AnnScratch,
}

impl SimScratch {
    fn reset_masks(&mut self, n: usize, fill: f64) {
        self.taken.clear();
        self.taken.resize(n, false);
        self.sim.clear();
        self.sim.resize(n, fill);
    }

    /// Point `pos_of[id]` at `id`'s position in `unlabeled`; rows outside
    /// `U` keep the `usize::MAX` sentinel. Pair with [`Self::clear_pos_of`].
    fn fill_pos_of(&mut self, n_rows: usize, unlabeled: &[usize]) {
        if self.pos_of.len() < n_rows {
            self.pos_of.resize(n_rows, usize::MAX);
        }
        for (pos, &id) in unlabeled.iter().enumerate() {
            self.pos_of[id] = pos;
        }
    }

    /// Un-mark the entries set by [`Self::fill_pos_of`]: O(|U|), not O(n).
    fn clear_pos_of(&mut self, unlabeled: &[usize]) {
        for &id in unlabeled {
            self.pos_of[id] = usize::MAX;
        }
    }
}

/// Multiply each unlabeled sample's score by its estimated mean cosine
/// similarity to the unlabeled pool (Eq. 7), in place.
///
/// `geom` row `id` is the representation of pool sample `id`; `unlabeled`
/// lists the ids currently in `U`, parallel to `scores`. With an ANN
/// `index`, each reference row only accumulates similarity over its
/// candidate neighbors — non-neighbors count as zero similarity while the
/// denominator stays the full reference size, so approximate densities
/// are biased low for outliers (exactly the samples density weighting
/// discounts anyway).
pub fn apply_density(
    scores: &mut [f64],
    unlabeled: &[usize],
    geom: &PoolGeometry,
    index: Option<&dyn NeighborIndex>,
    config: &DensityConfig,
    rng: &mut ChaCha8Rng,
    scratch: &mut SimScratch,
) {
    assert_eq!(scores.len(), unlabeled.len(), "scores/unlabeled misaligned");
    if unlabeled.is_empty() {
        return;
    }
    let _span = span!(Level::Trace, "combinator.density", n = unlabeled.len());
    scratch.reference.clear();
    if config.sample_size == 0 || unlabeled.len() <= config.sample_size {
        scratch.reference.extend_from_slice(unlabeled);
    } else {
        scratch
            .reference
            .extend(unlabeled.choose_multiple(rng, config.sample_size).copied());
    }
    if scratch.in_reference.len() < geom.len() {
        scratch.in_reference.resize(geom.len(), false);
    }
    for &id in &scratch.reference {
        scratch.in_reference[id] = true;
    }
    // Reference-outer sweep: scatter each reference row once, then
    // gather-dot every candidate against it. Each candidate's similarity
    // sum accumulates in reference order — the identical addition
    // sequence the candidate-outer merge loop produced. (The ANN branch
    // also accumulates in reference order per candidate, so routing an
    // exhaustive index through it reproduces these bits.)
    scratch.sim.clear();
    scratch.sim.resize(unlabeled.len(), 0.0);
    if let Some(idx) = index {
        scratch.fill_pos_of(geom.len(), unlabeled);
        let SimScratch {
            reference,
            sim,
            dense,
            neigh,
            pos_of,
            ann,
            ..
        } = scratch;
        for &other in reference.iter() {
            geom.scatter(other, dense);
            idx.neighbors_into(other, ann, neigh);
            for &id in neigh.iter() {
                let pos = pos_of[id];
                if pos != usize::MAX && other != id {
                    sim[pos] += geom.cosine_scattered(dense, other, id);
                }
            }
            geom.unscatter(other, dense);
        }
    } else {
        for &other in &scratch.reference {
            geom.scatter(other, &mut scratch.dense);
            for (sum, &id) in scratch.sim.iter_mut().zip(unlabeled) {
                if other != id {
                    *sum += geom.cosine_scattered(&scratch.dense, other, id);
                }
            }
            geom.unscatter(other, &mut scratch.dense);
        }
    }
    for ((score, &id), &sim_sum) in scores.iter_mut().zip(unlabeled).zip(&scratch.sim) {
        let denom = scratch
            .reference
            .len()
            .saturating_sub(usize::from(scratch.in_reference[id]));
        let density = if denom == 0 {
            0.0
        } else {
            sim_sum / denom as f64
        };
        *score *= density.max(0.0).powf(config.beta);
    }
    // Un-mark rather than re-zero the whole mask: O(R), not O(N).
    for &id in &scratch.reference {
        scratch.in_reference[id] = false;
    }
    if index.is_some() {
        scratch.clear_pos_of(unlabeled);
    }
}

/// Greedy k-center (core-set) batch selection (Sener & Savarese 2018):
/// the first pick is the top-scoring sample; every later pick maximizes
/// the minimum cosine *distance* to the batch selected so far, covering
/// the pool's geometry.
///
/// Returns up to `batch_size` positions into `unlabeled`, in selection
/// order.
///
/// With an ANN `index`, min-distance updates only touch each pick's
/// candidate neighbors; non-neighbors keep their distance (initialized to
/// the orthogonal distance 1.0), i.e. they are treated as never closer
/// than orthogonal to the batch.
pub fn kcenter_select(
    scores: &[f64],
    unlabeled: &[usize],
    geom: &PoolGeometry,
    index: Option<&dyn NeighborIndex>,
    batch_size: usize,
    scratch: &mut SimScratch,
) -> Vec<usize> {
    assert_eq!(scores.len(), unlabeled.len(), "scores/unlabeled misaligned");
    let n = unlabeled.len();
    let k = batch_size.min(n);
    if k == 0 {
        return Vec::new();
    }
    let _span = span!(Level::Trace, "combinator.kcenter", n = n, k = k);
    let first = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut selected = vec![first];
    if let Some(idx) = index {
        scratch.reset_masks(n, 1.0);
        scratch.fill_pos_of(geom.len(), unlabeled);
        {
            let SimScratch {
                taken,
                sim: min_dist,
                dense,
                neigh,
                pos_of,
                ann,
                ..
            } = scratch;
            taken[first] = true;
            let first_id = unlabeled[first];
            geom.scatter(first_id, dense);
            idx.neighbors_into(first_id, ann, neigh);
            for &id in neigh.iter() {
                let pos = pos_of[id];
                if pos != usize::MAX {
                    min_dist[pos] = 1.0 - geom.cosine_scattered(dense, first_id, id);
                }
            }
            geom.unscatter(first_id, dense);
            while selected.len() < k {
                let mut best: Option<(usize, f64)> = None;
                for pos in 0..n {
                    if taken[pos] {
                        continue;
                    }
                    if best.map_or(true, |(_, d)| min_dist[pos] > d) {
                        best = Some((pos, min_dist[pos]));
                    }
                }
                let (pos, _) = match best {
                    Some(b) => b,
                    None => break,
                };
                taken[pos] = true;
                selected.push(pos);
                let new_id = unlabeled[pos];
                geom.scatter(new_id, dense);
                idx.neighbors_into(new_id, ann, neigh);
                for &id in neigh.iter() {
                    let p = pos_of[id];
                    if p != usize::MAX && !taken[p] {
                        let d = 1.0 - geom.cosine_scattered(dense, new_id, id);
                        if d < min_dist[p] {
                            min_dist[p] = d;
                        }
                    }
                }
                geom.unscatter(new_id, dense);
            }
        }
        scratch.clear_pos_of(unlabeled);
        return selected;
    }
    scratch.reset_masks(n, 0.0);
    let SimScratch {
        taken,
        sim: min_dist,
        dense,
        ..
    } = scratch;
    // Min distance of each candidate to the selected set so far,
    // maintained incrementally: each pick scatters its row once and
    // updates every candidate with a gather-dot sweep.
    taken[first] = true;
    geom.scatter(unlabeled[first], dense);
    for (pos, d) in min_dist.iter_mut().enumerate() {
        *d = 1.0 - geom.cosine_scattered(dense, unlabeled[first], unlabeled[pos]);
    }
    geom.unscatter(unlabeled[first], dense);
    while selected.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for pos in 0..n {
            if taken[pos] {
                continue;
            }
            if best.map_or(true, |(_, d)| min_dist[pos] > d) {
                best = Some((pos, min_dist[pos]));
            }
        }
        let (pos, _) = match best {
            Some(b) => b,
            None => break,
        };
        taken[pos] = true;
        selected.push(pos);
        let new_id = unlabeled[pos];
        geom.scatter(new_id, dense);
        for other in 0..n {
            if !taken[other] {
                let d = 1.0 - geom.cosine_scattered(dense, new_id, unlabeled[other]);
                if d < min_dist[other] {
                    min_dist[other] = d;
                }
            }
        }
        geom.unscatter(new_id, dense);
    }
    selected
}

/// Greedy MMR batch selection (Eq. 8): repeatedly pick
/// `argmax λ·φ(x) − (1−λ)·max_{s ∈ batch} sim(x, s)`.
///
/// Returns up to `batch_size` *positions into `unlabeled`* in selection
/// order. The similarity penalty is taken against the batch selected so
/// far (standard batch-mode MMR; the first pick is pure argmax).
/// With an ANN `index`, similarity penalties only propagate to each
/// pick's candidate neighbors — non-neighbors keep their current penalty
/// (initially zero), i.e. they are treated as dissimilar to the batch.
pub fn mmr_select(
    scores: &[f64],
    unlabeled: &[usize],
    geom: &PoolGeometry,
    index: Option<&dyn NeighborIndex>,
    batch_size: usize,
    config: &MmrConfig,
    scratch: &mut SimScratch,
) -> Vec<usize> {
    assert_eq!(scores.len(), unlabeled.len(), "scores/unlabeled misaligned");
    let n = unlabeled.len();
    let k = batch_size.min(n);
    let _span = span!(Level::Trace, "combinator.mmr", n = n, k = k);
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    scratch.reset_masks(n, 0.0);
    if index.is_some() {
        scratch.fill_pos_of(geom.len(), unlabeled);
    }
    {
        let SimScratch {
            taken,
            sim: max_sim,
            dense,
            neigh,
            pos_of,
            vals,
            ann,
            ..
        } = scratch;
        vals.clear();
        vals.resize(n, 0.0);
        // Max similarity of each candidate to the selected batch so far,
        // maintained incrementally.
        for _ in 0..k {
            // Materialize this round's MMR objective and take its argmax
            // with the bounded-heap `top_k` (k = 1): same strict-`>`
            // lower-index-wins winner the linear scan produced, in one
            // branch-free pass.
            for pos in 0..n {
                vals[pos] = if taken[pos] {
                    f64::NEG_INFINITY
                } else {
                    config.lambda * scores[pos] - (1.0 - config.lambda) * max_sim[pos]
                };
            }
            let pos = match top_k(vals, 1).first().copied() {
                // A taken position can only win when every live candidate
                // is also −∞; fall back to the first live one.
                Some(p) if taken[p] => match (0..n).find(|&q| !taken[q]) {
                    Some(q) => q,
                    None => break,
                },
                Some(p) => p,
                None => break,
            };
            taken[pos] = true;
            selected.push(pos);
            // Update similarity penalties against the newly selected
            // sample: scatter its row once, gather-dot the rest.
            let new_id = unlabeled[pos];
            geom.scatter(new_id, dense);
            if let Some(idx) = index {
                idx.neighbors_into(new_id, ann, neigh);
                for &id in neigh.iter() {
                    let p = pos_of[id];
                    if p != usize::MAX && !taken[p] {
                        let s = geom.cosine_scattered(dense, new_id, id);
                        if s > max_sim[p] {
                            max_sim[p] = s;
                        }
                    }
                }
            } else {
                for other in 0..n {
                    if !taken[other] {
                        let s = geom.cosine_scattered(dense, new_id, unlabeled[other]);
                        if s > max_sim[other] {
                            max_sim[other] = s;
                        }
                    }
                }
            }
            geom.unscatter(new_id, dense);
        }
    }
    if index.is_some() {
        scratch.clear_pos_of(unlabeled);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use histal_text::{PoolGeometry, SparseVec};
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    fn geom(reps: &[SparseVec]) -> PoolGeometry {
        PoolGeometry::build(reps)
    }

    fn rep(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn density_downweights_outliers() {
        // Samples 0..3 share a feature; sample 3 is orthogonal.
        let reps = vec![
            rep(&[(0, 1.0)]),
            rep(&[(0, 1.0), (1, 0.2)]),
            rep(&[(0, 1.0), (2, 0.2)]),
            rep(&[(9, 1.0)]),
        ];
        let unlabeled = [0, 1, 2, 3];
        let mut scores = vec![1.0; 4];
        apply_density(
            &mut scores,
            &unlabeled,
            &geom(&reps),
            None,
            &DensityConfig {
                sample_size: 0,
                beta: 1.0,
            },
            &mut rng(),
            &mut SimScratch::default(),
        );
        assert!(
            scores[0] > scores[3],
            "outlier must be down-weighted: {scores:?}"
        );
        assert_eq!(scores[3], 0.0);
    }

    #[test]
    fn density_empty_pool_is_noop() {
        let mut scores: Vec<f64> = vec![];
        apply_density(
            &mut scores,
            &[],
            &geom(&[]),
            None,
            &DensityConfig::default(),
            &mut rng(),
            &mut SimScratch::default(),
        );
    }

    #[test]
    fn density_scratch_reuse_is_stateless() {
        // Reusing one scratch across calls must give the same result as a
        // fresh scratch (the membership mask is fully un-marked).
        let reps = vec![
            rep(&[(0, 1.0)]),
            rep(&[(0, 1.0), (1, 0.2)]),
            rep(&[(9, 1.0)]),
        ];
        let g = geom(&reps);
        let cfg = DensityConfig {
            sample_size: 2,
            beta: 1.0,
        };
        let mut shared = SimScratch::default();
        for _ in 0..3 {
            let mut reused = vec![1.0; 3];
            let mut fresh = vec![1.0; 3];
            apply_density(
                &mut reused,
                &[0, 1, 2],
                &g,
                None,
                &cfg,
                &mut rng(),
                &mut shared,
            );
            apply_density(
                &mut fresh,
                &[0, 1, 2],
                &g,
                None,
                &cfg,
                &mut rng(),
                &mut SimScratch::default(),
            );
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn mmr_lambda_one_is_pure_topk() {
        let reps = vec![rep(&[(0, 1.0)]); 4];
        let unlabeled = [0, 1, 2, 3];
        let scores = [0.1, 0.9, 0.5, 0.7];
        let picks = mmr_select(
            &scores,
            &unlabeled,
            &geom(&reps),
            None,
            2,
            &MmrConfig { lambda: 1.0 },
            &mut SimScratch::default(),
        );
        assert_eq!(picks, vec![1, 3]);
    }

    #[test]
    fn mmr_penalizes_duplicates() {
        // Two near-identical high scorers and one distinct medium scorer:
        // with strong diversity, the second pick is the distinct sample.
        let reps = vec![rep(&[(0, 1.0)]), rep(&[(0, 1.0)]), rep(&[(5, 1.0)])];
        let unlabeled = [0, 1, 2];
        let scores = [0.9, 0.89, 0.5];
        let picks = mmr_select(
            &scores,
            &unlabeled,
            &geom(&reps),
            None,
            2,
            &MmrConfig { lambda: 0.3 },
            &mut SimScratch::default(),
        );
        assert_eq!(picks[0], 0);
        assert_eq!(picks[1], 2, "duplicate must lose to the diverse sample");
    }

    #[test]
    fn mmr_batch_larger_than_pool() {
        let reps = vec![rep(&[(0, 1.0)]); 2];
        let picks = mmr_select(
            &[0.5, 0.4],
            &[0, 1],
            &geom(&reps),
            None,
            10,
            &MmrConfig::default(),
            &mut SimScratch::default(),
        );
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn mmr_empty_pool() {
        let picks = mmr_select(
            &[],
            &[],
            &geom(&[]),
            None,
            5,
            &MmrConfig::default(),
            &mut SimScratch::default(),
        );
        assert!(picks.is_empty());
    }

    #[test]
    fn density_beta_zero_is_noop() {
        let reps = vec![rep(&[(0, 1.0)]), rep(&[(9, 1.0)])];
        let unlabeled = [0, 1];
        let mut scores = vec![0.8, 0.3];
        apply_density(
            &mut scores,
            &unlabeled,
            &geom(&reps),
            None,
            &DensityConfig {
                sample_size: 0,
                beta: 0.0,
            },
            &mut rng(),
            &mut SimScratch::default(),
        );
        assert_eq!(scores, vec![0.8, 0.3]);
    }

    #[test]
    fn kcenter_starts_at_top_score_then_covers() {
        // Two identical high scorers and one distant point: k-center must
        // take the top scorer, then jump to the distant point.
        let reps = vec![rep(&[(0, 1.0)]), rep(&[(0, 1.0)]), rep(&[(7, 1.0)])];
        let picks = kcenter_select(
            &[0.9, 0.8, 0.1],
            &[0, 1, 2],
            &geom(&reps),
            None,
            2,
            &mut SimScratch::default(),
        );
        assert_eq!(picks, vec![0, 2]);
    }

    #[test]
    fn kcenter_handles_small_pools() {
        let reps = vec![rep(&[(0, 1.0)])];
        let mut scratch = SimScratch::default();
        assert_eq!(
            kcenter_select(&[0.5], &[0], &geom(&reps), None, 5, &mut scratch),
            vec![0]
        );
        assert!(kcenter_select(&[], &[], &geom(&[]), None, 3, &mut scratch).is_empty());
    }
}
