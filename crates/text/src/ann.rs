//! Approximate nearest-neighbor indexing over pool geometry.
//!
//! The similarity combinators (density weighting, k-center, MMR) are
//! O(|U|²)-ish per round when every candidate is compared against every
//! other. [`NeighborIndex`] abstracts "which rows are worth comparing":
//! [`ExactNeighbors`] returns every row (the exhaustive sweep, used by
//! tests to pin equivalence with the inline exact path), while
//! [`LshIndex`] buckets rows by random-hyperplane signatures so a query
//! touches only the handful of buckets that can plausibly contain high
//! cosine-similarity neighbors.
//!
//! # LSH construction
//!
//! For table `t` and hyperplane `p`, the sign of feature `i` is bit `p`
//! of `mix(seed ^ (t << 32) ^ i)` — one 64-bit hash per `(feature,
//! table)` pair provides the sign bits for *all* planes of that table,
//! so signing a row costs `nnz × tables` hashes regardless of the
//! signature width. A row's signature packs the signs of its `bits`
//! projections; rows sharing a signature land in the same bucket
//! (flat-CSR per table: one offsets array over `2^bits` buckets plus a
//! row-id array).
//!
//! # Probe semantics
//!
//! `probes = q` means each table is queried at the row's own signature
//! plus `q` one-bit-flipped variants — the flips chosen at build time as
//! the planes with the smallest absolute projection, i.e. the planes the
//! row was closest to falling on the other side of. Neighbor sets are
//! the deduplicated union over all tables and probes, returned in
//! ascending row order so downstream accumulation order is deterministic.
//!
//! Build and query are sequential and seeded: the index — and therefore
//! every selection that consults it — is identical across thread counts.

use serde::{Deserialize, Serialize};

use crate::geometry::PoolGeometry;

/// Tuning knobs for [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Number of independent hash tables (more tables → higher recall,
    /// linearly more build time and memory).
    pub tables: usize,
    /// Signature width in bits; `0` picks `clamp(ceil(log2 n) - 6, 4,
    /// 16)` so the expected bucket occupancy stays near 64 rows.
    pub bits: usize,
    /// Extra one-bit-flip probes per table per query (0 = exact-bucket
    /// lookup only).
    pub probes: usize,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            tables: 8,
            bits: 0,
            probes: 2,
        }
    }
}

/// Reusable query-time allocations for [`NeighborIndex::neighbors_into`].
#[derive(Debug, Default)]
pub struct AnnScratch {
    seen: Vec<bool>,
}

/// A source of candidate neighbor sets for similarity combinators.
pub trait NeighborIndex {
    /// Number of indexed rows.
    fn len(&self) -> usize;

    /// True when no rows are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collect the candidate neighbors of `row` into `out`: deduplicated,
    /// sorted ascending, and including `row` itself when it shares a
    /// bucket with the query (callers filter self-pairs as needed).
    fn neighbors_into(&self, row: usize, scratch: &mut AnnScratch, out: &mut Vec<usize>);
}

/// The exhaustive "index": every row is a candidate neighbor of every
/// other. Routing the combinators through this impl reproduces the
/// inline exact sweep bit for bit (pinned by the `ann_props` tests);
/// it exists to make that equivalence testable, not for speed.
#[derive(Debug, Clone, Copy)]
pub struct ExactNeighbors {
    n: usize,
}

impl ExactNeighbors {
    /// An exhaustive index over `n` rows.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl NeighborIndex for ExactNeighbors {
    fn len(&self) -> usize {
        self.n
    }

    fn neighbors_into(&self, _row: usize, _scratch: &mut AnnScratch, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..self.n);
    }
}

/// `splitmix64` finalizer: decorrelates consecutive `(feature, table)`
/// keys into independent sign-bit words.
#[inline]
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Multi-table random-hyperplane LSH over a [`PoolGeometry`].
#[derive(Debug, Clone)]
pub struct LshIndex {
    n: usize,
    tables: usize,
    bits: u32,
    probes: usize,
    /// Row signatures, row-major: `sigs[row * tables + t]`.
    sigs: Vec<u32>,
    /// Probe flip positions per `(row, table)`, lowest `|projection|`
    /// first: `flips[(row * tables + t) * probes + j]`.
    flips: Vec<u8>,
    /// Per-table bucket CSR: `bucket_offsets[t]` has `2^bits + 1`
    /// entries; bucket `s` of table `t` holds
    /// `bucket_rows[t][offsets[s]..offsets[s + 1]]` (ascending row ids).
    bucket_offsets: Vec<Vec<u32>>,
    bucket_rows: Vec<Vec<u32>>,
}

impl LshIndex {
    /// The signature width used for a pool of `n` rows under `cfg_bits`
    /// (`0` = auto).
    pub(crate) fn effective_bits(n: usize, cfg_bits: usize) -> u32 {
        if cfg_bits > 0 {
            cfg_bits.min(20) as u32
        } else {
            let lg = (n.max(2) as f64).log2().ceil() as i64;
            (lg - 6).clamp(4, 16) as u32
        }
    }

    /// Build the index over every row of `geom`. Deterministic in
    /// `(geom, cfg, seed)`; single-threaded by design so results do not
    /// depend on the thread pool.
    pub fn build(geom: &PoolGeometry, cfg: &AnnConfig, seed: u64) -> Self {
        let n = geom.len();
        let tables = cfg.tables.clamp(1, 64);
        let bits = Self::effective_bits(n, cfg.bits);
        let probes = cfg.probes.min(bits as usize);
        let mut sigs = vec![0u32; n * tables];
        let mut flips = vec![0u8; n * tables * probes];
        let mut proj = vec![0.0f64; bits as usize];
        for row in 0..n {
            let (ri, rv) = geom.row(row);
            for t in 0..tables {
                proj.iter_mut().for_each(|p| *p = 0.0);
                let tkey = seed ^ ((t as u64) << 32);
                for (&i, &v) in ri.iter().zip(rv) {
                    let h = mix64(tkey ^ i as u64);
                    for (p, acc) in proj.iter_mut().enumerate() {
                        if (h >> p) & 1 == 1 {
                            *acc += v as f64;
                        } else {
                            *acc -= v as f64;
                        }
                    }
                }
                let mut sig = 0u32;
                for (p, &acc) in proj.iter().enumerate() {
                    if acc >= 0.0 {
                        sig |= 1 << p;
                    }
                }
                sigs[row * tables + t] = sig;
                // The `probes` planes with the smallest |projection|,
                // ties toward the lower plane, by repeated selection
                // (probes is tiny, bits ≤ 20).
                let base = (row * tables + t) * probes;
                let mut taken = 0u32;
                for j in 0..probes {
                    let mut best = usize::MAX;
                    let mut best_abs = f64::INFINITY;
                    for (p, &acc) in proj.iter().enumerate() {
                        if taken & (1 << p) == 0 && acc.abs() < best_abs {
                            best_abs = acc.abs();
                            best = p;
                        }
                    }
                    taken |= 1 << best;
                    flips[base + j] = best as u8;
                }
            }
        }
        // Counting-sort rows into per-table flat-CSR buckets; pushing
        // rows in ascending order keeps each bucket sorted.
        let n_buckets = 1usize << bits;
        let mut bucket_offsets = Vec::with_capacity(tables);
        let mut bucket_rows = Vec::with_capacity(tables);
        for t in 0..tables {
            let mut counts = vec![0u32; n_buckets + 1];
            for row in 0..n {
                counts[sigs[row * tables + t] as usize + 1] += 1;
            }
            for s in 0..n_buckets {
                counts[s + 1] += counts[s];
            }
            let mut rows = vec![0u32; n];
            let mut cursor = counts.clone();
            for row in 0..n {
                let s = sigs[row * tables + t] as usize;
                rows[cursor[s] as usize] = row as u32;
                cursor[s] += 1;
            }
            bucket_offsets.push(counts);
            bucket_rows.push(rows);
        }
        Self {
            n,
            tables,
            bits,
            probes,
            sigs,
            flips,
            bucket_offsets,
            bucket_rows,
        }
    }

    /// Signature width in use.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of hash tables in use.
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// One-bit probes per table per query.
    pub fn probes(&self) -> usize {
        self.probes
    }
}

impl NeighborIndex for LshIndex {
    fn len(&self) -> usize {
        self.n
    }

    fn neighbors_into(&self, row: usize, scratch: &mut AnnScratch, out: &mut Vec<usize>) {
        out.clear();
        if scratch.seen.len() < self.n {
            scratch.seen.resize(self.n, false);
        }
        for t in 0..self.tables {
            let sig = self.sigs[row * self.tables + t];
            for j in 0..=self.probes {
                let s = if j == 0 {
                    sig
                } else {
                    sig ^ (1 << self.flips[(row * self.tables + t) * self.probes + (j - 1)])
                };
                let lo = self.bucket_offsets[t][s as usize] as usize;
                let hi = self.bucket_offsets[t][s as usize + 1] as usize;
                for &r in &self.bucket_rows[t][lo..hi] {
                    let r = r as usize;
                    if !scratch.seen[r] {
                        scratch.seen[r] = true;
                        out.push(r);
                    }
                }
            }
        }
        out.sort_unstable();
        for &r in out.iter() {
            scratch.seen[r] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVec;

    fn pool(n: usize, seed: u64) -> PoolGeometry {
        // Two well-separated clusters: features 0..8 vs 100..108.
        let reps: Vec<SparseVec> = (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 100 };
                let pairs: Vec<(u32, f32)> = (0..8)
                    .map(|k| {
                        let h = mix64(seed ^ (i as u64) << 8 ^ k as u64);
                        (base + k as u32, 1.0 + (h % 100) as f32 / 100.0)
                    })
                    .collect();
                SparseVec::from_pairs(pairs)
            })
            .collect();
        PoolGeometry::build(&reps)
    }

    #[test]
    fn exact_neighbors_is_everything() {
        let idx = ExactNeighbors::new(5);
        let mut scratch = AnnScratch::default();
        let mut out = Vec::new();
        idx.neighbors_into(3, &mut scratch, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lsh_neighbors_sorted_dedup_and_include_self() {
        let g = pool(64, 7);
        let idx = LshIndex::build(&g, &AnnConfig::default(), 42);
        let mut scratch = AnnScratch::default();
        let mut out = Vec::new();
        for row in 0..g.len() {
            idx.neighbors_into(row, &mut scratch, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            assert!(out.binary_search(&row).is_ok(), "row {row} finds itself");
        }
    }

    #[test]
    fn lsh_clusters_recall_their_mates() {
        // Cluster mates are near-parallel; with 8 tables at small bit
        // widths essentially all of them must surface as neighbors.
        let g = pool(200, 3);
        let idx = LshIndex::build(&g, &AnnConfig::default(), 42);
        let mut scratch = AnnScratch::default();
        let mut out = Vec::new();
        let mut hit = 0usize;
        let mut total = 0usize;
        for row in 0..g.len() {
            idx.neighbors_into(row, &mut scratch, &mut out);
            for mate in (0..g.len()).filter(|m| m % 2 == row % 2 && *m != row) {
                total += 1;
                if out.binary_search(&mate).is_ok() {
                    hit += 1;
                }
            }
        }
        assert!(
            hit as f64 >= 0.95 * total as f64,
            "cluster recall {hit}/{total}"
        );
    }

    #[test]
    fn lsh_build_is_deterministic() {
        let g = pool(100, 11);
        let a = LshIndex::build(&g, &AnnConfig::default(), 42);
        let b = LshIndex::build(&g, &AnnConfig::default(), 42);
        assert_eq!(a.sigs, b.sigs);
        assert_eq!(a.flips, b.flips);
        assert_eq!(a.bucket_rows, b.bucket_rows);
    }

    #[test]
    fn effective_bits_clamps() {
        assert_eq!(LshIndex::effective_bits(0, 0), 4);
        assert_eq!(LshIndex::effective_bits(1_000, 0), 4);
        assert_eq!(LshIndex::effective_bits(10_000, 0), 8);
        assert_eq!(LshIndex::effective_bits(1_000_000, 0), 14);
        assert_eq!(LshIndex::effective_bits(1 << 30, 0), 16);
        assert_eq!(LshIndex::effective_bits(10, 12), 12);
        assert_eq!(LshIndex::effective_bits(10, 64), 20);
    }
}
