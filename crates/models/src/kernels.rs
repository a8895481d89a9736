//! Numeric kernels for the lattice and hashed-feature hot paths
//! (DESIGN.md §5.7).
//!
//! Each kernel is one plain loop over distinct output cells, and the
//! sequence of floating-point operations that produces each cell is part
//! of the contract: association fixed left to right, multiply then add,
//! no FMA contraction. The compiler may vectorize across cells (SSE2 on
//! the baseline x86_64 target) but never regroups the operations inside
//! one. Order-sensitive reductions (`logsumexp`'s sum of exponentials)
//! do not live here; the only reduction is `max`/argmax, which keeps the
//! earliest index on ties.
//!
//! The CRF lattices run on top of these loops in `l × l` blocks, one per
//! timestep: `shift_add` and `add_shift2` fill the forward and
//! backward blocks row by row, `shift_add3_sub` the ξ block, and each
//! whole block then goes through one call of the 4-lane
//! [`crate::vexp::exp_in_place`], which returns the bits `f64::exp`
//! would. That port is the layer's one use of intrinsics and of FMA.
//!
//! [`dropout_mask`] is the one place the models draw a dropout mask: the
//! RNG stream it consumes is part of the contract the same way.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// `out[i] = a[i] + b[i]` over the common prefix of the slices.
#[inline]
pub(crate) fn add2(out: &mut [f64], a: &[f64], b: &[f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out[i] = s + a[i]` — one row of the forward lattice block.
#[inline]
pub(crate) fn shift_add(out: &mut [f64], s: f64, a: &[f64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = s + x;
    }
}

/// `out[i] = (a[i] + s) + u` — one row of the backward lattice block.
#[inline]
pub(crate) fn add_shift2(out: &mut [f64], a: &[f64], s: f64, u: f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = (x + s) + u;
    }
}

/// `out[i] = (((s + a[i]) + b[i]) + c[i]) - z` — the ξ-row shape of
/// the CRF transition gradient.
#[inline]
pub(crate) fn shift_add3_sub(out: &mut [f64], s: f64, a: &[f64], b: &[f64], c: &[f64], z: f64) {
    for (((o, &x), &y), &w) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = (((s + x) + y) + w) - z;
    }
}

/// `acc[i] += row[i] * v` (no FMA: explicit mul then add) — the hashed
/// sparse-dense building block shared by CRF emission fills and logreg
/// logits.
#[inline]
pub(crate) fn axpy(acc: &mut [f64], row: &[f64], v: f64) {
    for (o, &x) in acc.iter_mut().zip(row) {
        *o += x * v;
    }
}

/// Earliest maximum: `(value, index)` of the first occurrence of the
/// largest element; `(-inf, 0)` for an empty slice.
#[inline]
pub(crate) fn max_index(xs: &[f64]) -> (f64, usize) {
    let mut best = f64::NEG_INFINITY;
    let mut arg = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if x > best {
            best = x;
            arg = i;
        }
    }
    (best, arg)
}

/// Elementwise SGD row update `w[y] -= lr * (g[y]*v + l2*w[y])` with the
/// CRF's small-gradient skip: cells whose gradient factor is below `eps`
/// are left untouched (no L2 decay), matching the historical per-label
/// `continue`.
#[inline]
pub(crate) fn sgd_row_update(w: &mut [f64], g: &[f64], v: f64, lr: f64, l2: f64, eps: f64) {
    for (wy, &gy) in w.iter_mut().zip(g) {
        if gy.abs() < eps {
            continue;
        }
        *wy -= lr * (gy * v + l2 * *wy);
    }
}

/// Inverted-dropout keep mask, branch-free: compacts the candidates a
/// random mask keeps into the front of `out`, in candidate order, and
/// returns how many it kept.
///
/// Draws exactly one uniform `f64` per candidate, in candidate order,
/// whatever the outcome, and keeps a candidate whose draw `u` is
/// `< keep`: the draws, the kept list and the RNG position afterwards
/// are those of the branchy `if u < keep { push }` loop. Every
/// candidate is stored at the cursor and the cursor advances by
/// `(u < keep) as usize`, so a dropped candidate is overwritten by the
/// next one. A keep/drop branch taken at random mispredicts about every
/// second draw at `keep ≈ 0.65`; the unconditional store does not.
///
/// Panics if `out` is shorter than `cand`.
#[inline]
pub fn dropout_mask<T: Copy>(cand: &[T], keep: f64, rng: &mut ChaCha8Rng, out: &mut [T]) -> usize {
    let out = &mut out[..cand.len()];
    let mut kept = 0;
    for &c in cand {
        let u = rng.gen::<f64>();
        out[kept] = c;
        kept += (u < keep) as usize;
    }
    kept
}

/// The training mask: [`dropout_mask`] at `keep = 1 − train_dropout`,
/// except that `train_dropout == 0.0` draws nothing and keeps every
/// candidate.
#[inline]
pub fn train_dropout_mask<T: Copy>(
    cand: &[T],
    train_dropout: f64,
    rng: &mut ChaCha8Rng,
    out: &mut [T],
) -> usize {
    if train_dropout == 0.0 {
        out[..cand.len()].copy_from_slice(cand);
        cand.len()
    } else {
        dropout_mask(cand, 1.0 - train_dropout, rng, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_index_earliest_tie_break() {
        // Duplicated maxima: must return the first.
        let xs = [1.0, 5.0, 2.0, 5.0, 5.0, 0.0, 5.0, 1.0, 5.0];
        assert_eq!(max_index(&xs), (5.0, 1));
    }

    #[test]
    fn sgd_skip_leaves_cell_untouched() {
        let mut w = vec![1.0, 2.0, 3.0];
        let g = vec![0.0, 1e-13, 1.0];
        sgd_row_update(&mut w, &g, 1.0, 0.1, 0.5, 1e-12);
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 2.0);
        assert!((w[2] - (3.0 - 0.1 * (1.0 + 0.5 * 3.0))).abs() < 1e-15);
    }
}
