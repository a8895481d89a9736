//! Lane-unrolled numeric kernels for the lattice and hashed-feature hot
//! paths (DESIGN.md §5.7).
//!
//! Every kernel here is **bit-identical** to its scalar reference in
//! [`scalar`]: the lane forms only regroup *which distinct output cells*
//! are computed together — the sequence of floating-point operations
//! that produces each individual cell is unchanged (same operands, same
//! association, no FMA contraction). Order-sensitive reductions
//! (`logsumexp`'s sum of exponentials) are deliberately **not**
//! vectorized; the only reductions here are `max`/argmax, which are
//! exact under any grouping for non-NaN inputs (the argmax combine rule
//! preserves the scalar earliest-index tie-break).
//!
//! Dispatch has three tiers, selected once per process:
//!
//! * `scalar` — the plain reference loops (also reachable per-call via
//!   [`set_mode`] or `HISTAL_KERNELS=scalar`, which the CI equivalence
//!   smoke uses to diff whole-harness outputs against the lane path);
//! * `lanes` — portable 4-lane unrolled blocks the autovectorizer maps
//!   onto whatever 128-bit SIMD the baseline target has;
//! * on x86_64, the lane bodies are additionally compiled into AVX2
//!   clones picked at runtime via `is_x86_feature_detected!` (256-bit
//!   vectors, still no FMA — `avx2` does not imply the `fma` feature,
//!   so LLVM cannot contract the mul/add pairs).

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Plain scalar reference loops.
    Scalar,
    /// 4-lane unrolled blocks (plus runtime AVX2 clones on x86_64).
    Lanes,
}

const MODE_UNSET: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_LANES: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The active kernel mode. First call resolves `HISTAL_KERNELS`
/// (`scalar` forces the reference path; anything else selects lanes).
#[inline]
pub fn mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_SCALAR => KernelMode::Scalar,
        MODE_LANES => KernelMode::Lanes,
        _ => init_mode(),
    }
}

#[cold]
fn init_mode() -> KernelMode {
    let m = match std::env::var("HISTAL_KERNELS").as_deref() {
        Ok("scalar") => KernelMode::Scalar,
        _ => KernelMode::Lanes,
    };
    set_mode(m);
    m
}

/// Force a kernel mode (tests, benches, and the `bench --check`
/// equivalence smoke switch modes within one process).
pub fn set_mode(m: KernelMode) {
    let v = match m {
        KernelMode::Scalar => MODE_SCALAR,
        KernelMode::Lanes => MODE_LANES,
    };
    MODE.store(v, Ordering::Relaxed);
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Scalar reference implementations. These are the semantics; the lane
/// forms above them must match to 0 ULP (pinned by the proptests in
/// `tests/kernel_props.rs`).
pub mod scalar {
    /// `out[i] = a[i] + b[i]`.
    pub fn add2(out: &mut [f64], a: &[f64], b: &[f64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    /// `out[i] = (a[i] + b[i]) + c[i]` — association fixed left-to-right.
    pub fn add3(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
        for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = (x + y) + z;
        }
    }

    /// `out[i] = (((s + a[i]) + b[i]) + c[i]) - z` — the ξ-row shape of
    /// the CRF transition gradient.
    pub fn shift_add3_sub(out: &mut [f64], s: f64, a: &[f64], b: &[f64], c: &[f64], z: f64) {
        for (((o, &x), &y), &w) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = (((s + x) + y) + w) - z;
        }
    }

    /// `acc[i] += row[i] * v` (no FMA: explicit mul then add).
    pub fn axpy(acc: &mut [f64], row: &[f64], v: f64) {
        for (o, &x) in acc.iter_mut().zip(row) {
            *o += x * v;
        }
    }

    /// Earliest maximum: `(value, index)` of the first occurrence of the
    /// largest element; `(-inf, 0)` for an empty slice.
    pub fn max_index(xs: &[f64]) -> (f64, usize) {
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

    /// Elementwise SGD row update with the CRF's small-gradient skip:
    /// cells whose gradient factor is below `eps` are left untouched
    /// (no L2 decay), matching the historical per-label `continue`.
    pub fn sgd_row_update(w: &mut [f64], g: &[f64], v: f64, lr: f64, l2: f64, eps: f64) {
        for (wy, &gy) in w.iter_mut().zip(g) {
            if gy.abs() < eps {
                continue;
            }
            *wy -= lr * (gy * v + l2 * *wy);
        }
    }
}

// ---------------------------------------------------------------------------
// Lane bodies. `#[inline(always)]` lets the AVX2 clones recompile the
// same source with 256-bit codegen.
// ---------------------------------------------------------------------------

#[inline(always)]
fn add2_body(out: &mut [f64], a: &[f64], b: &[f64]) {
    let n = out.len().min(a.len()).min(b.len());
    let (out, a, b) = (&mut out[..n], &a[..n], &b[..n]);
    let mut i = 0;
    while i + 4 <= n {
        out[i] = a[i] + b[i];
        out[i + 1] = a[i + 1] + b[i + 1];
        out[i + 2] = a[i + 2] + b[i + 2];
        out[i + 3] = a[i + 3] + b[i + 3];
        i += 4;
    }
    while i < n {
        out[i] = a[i] + b[i];
        i += 1;
    }
}

#[inline(always)]
fn add3_body(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
    let n = out.len().min(a.len()).min(b.len()).min(c.len());
    let (out, a, b, c) = (&mut out[..n], &a[..n], &b[..n], &c[..n]);
    let mut i = 0;
    while i + 4 <= n {
        out[i] = (a[i] + b[i]) + c[i];
        out[i + 1] = (a[i + 1] + b[i + 1]) + c[i + 1];
        out[i + 2] = (a[i + 2] + b[i + 2]) + c[i + 2];
        out[i + 3] = (a[i + 3] + b[i + 3]) + c[i + 3];
        i += 4;
    }
    while i < n {
        out[i] = (a[i] + b[i]) + c[i];
        i += 1;
    }
}

#[inline(always)]
fn shift_add3_sub_body(out: &mut [f64], s: f64, a: &[f64], b: &[f64], c: &[f64], z: f64) {
    let n = out.len().min(a.len()).min(b.len()).min(c.len());
    let (out, a, b, c) = (&mut out[..n], &a[..n], &b[..n], &c[..n]);
    let mut i = 0;
    while i + 4 <= n {
        out[i] = (((s + a[i]) + b[i]) + c[i]) - z;
        out[i + 1] = (((s + a[i + 1]) + b[i + 1]) + c[i + 1]) - z;
        out[i + 2] = (((s + a[i + 2]) + b[i + 2]) + c[i + 2]) - z;
        out[i + 3] = (((s + a[i + 3]) + b[i + 3]) + c[i + 3]) - z;
        i += 4;
    }
    while i < n {
        out[i] = (((s + a[i]) + b[i]) + c[i]) - z;
        i += 1;
    }
}

#[inline(always)]
fn axpy_body(acc: &mut [f64], row: &[f64], v: f64) {
    let n = acc.len().min(row.len());
    let (acc, row) = (&mut acc[..n], &row[..n]);
    let mut i = 0;
    while i + 4 <= n {
        acc[i] += row[i] * v;
        acc[i + 1] += row[i + 1] * v;
        acc[i + 2] += row[i + 2] * v;
        acc[i + 3] += row[i + 3] * v;
        i += 4;
    }
    while i < n {
        acc[i] += row[i] * v;
        i += 1;
    }
}

#[inline(always)]
fn max_index_body(xs: &[f64]) -> (f64, usize) {
    let n = xs.len();
    if n < 8 {
        return scalar::max_index(xs);
    }
    // Four independent accumulator lanes; each keeps the earliest max of
    // its residue class i ≡ m (mod 4). The classes partition the range,
    // so combining lane winners with the (greater) OR (equal AND
    // earlier-index) rule recovers exactly the scalar earliest-max.
    let mut vals = [xs[0], xs[1], xs[2], xs[3]];
    let mut args = [0usize, 1, 2, 3];
    let mut i = 4;
    while i + 4 <= n {
        for m in 0..4 {
            if xs[i + m] > vals[m] {
                vals[m] = xs[i + m];
                args[m] = i + m;
            }
        }
        i += 4;
    }
    let (mut best, mut arg) = (vals[0], args[0]);
    for m in 1..4 {
        if vals[m] > best || (vals[m] == best && args[m] < arg) {
            best = vals[m];
            arg = args[m];
        }
    }
    while i < n {
        if xs[i] > best {
            best = xs[i];
            arg = i;
        }
        i += 1;
    }
    (best, arg)
}

#[inline(always)]
fn sgd_row_update_body(w: &mut [f64], g: &[f64], v: f64, lr: f64, l2: f64, eps: f64) {
    let n = w.len().min(g.len());
    let (w, g) = (&mut w[..n], &g[..n]);
    // Compute the update unconditionally (vectorizable), apply it under
    // the skip mask — bitwise the same as the scalar `continue`, since a
    // skipped cell's value is simply not stored.
    for (wy, &gy) in w.iter_mut().zip(g) {
        let updated = *wy - lr * (gy * v + l2 * *wy);
        if gy.abs() >= eps {
            *wy = updated;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    #[target_feature(enable = "avx2")]
    pub unsafe fn add2(out: &mut [f64], a: &[f64], b: &[f64]) {
        super::add2_body(out, a, b)
    }
    #[target_feature(enable = "avx2")]
    pub unsafe fn add3(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
        super::add3_body(out, a, b, c)
    }
    #[target_feature(enable = "avx2")]
    pub unsafe fn shift_add3_sub(out: &mut [f64], s: f64, a: &[f64], b: &[f64], c: &[f64], z: f64) {
        super::shift_add3_sub_body(out, s, a, b, c, z)
    }
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(acc: &mut [f64], row: &[f64], v: f64) {
        super::axpy_body(acc, row, v)
    }
    #[target_feature(enable = "avx2")]
    pub unsafe fn sgd_row_update(w: &mut [f64], g: &[f64], v: f64, lr: f64, l2: f64, eps: f64) {
        super::sgd_row_update_body(w, g, v, lr, l2, eps)
    }
}

macro_rules! dispatch {
    ($scalar:expr, $avx:expr, $lanes:expr) => {{
        if mode() == KernelMode::Scalar {
            return $scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: gated on runtime AVX2 detection.
            return unsafe { $avx };
        }
        #[allow(unreachable_code)]
        $lanes
    }};
}

/// `out[i] = a[i] + b[i]` over the common prefix of the slices.
#[inline]
pub fn add2(out: &mut [f64], a: &[f64], b: &[f64]) {
    dispatch!(
        scalar::add2(out, a, b),
        avx::add2(out, a, b),
        add2_body(out, a, b)
    )
}

/// `out[i] = (a[i] + b[i]) + c[i]`, association fixed.
#[inline]
pub fn add3(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
    dispatch!(
        scalar::add3(out, a, b, c),
        avx::add3(out, a, b, c),
        add3_body(out, a, b, c)
    )
}

/// `out[i] = (((s + a[i]) + b[i]) + c[i]) - z`, association fixed.
#[inline]
pub fn shift_add3_sub(out: &mut [f64], s: f64, a: &[f64], b: &[f64], c: &[f64], z: f64) {
    dispatch!(
        scalar::shift_add3_sub(out, s, a, b, c, z),
        avx::shift_add3_sub(out, s, a, b, c, z),
        shift_add3_sub_body(out, s, a, b, c, z)
    )
}

/// `acc[i] += row[i] * v` — the hashed sparse-dense building block
/// shared by CRF emission fills and logreg inference logits. Logreg
/// training writes the same mul-then-add inline: its rows are 2–6
/// wide, and on such a row this dispatch costs more than the row.
#[inline]
pub fn axpy(acc: &mut [f64], row: &[f64], v: f64) {
    dispatch!(
        scalar::axpy(acc, row, v),
        avx::axpy(acc, row, v),
        axpy_body(acc, row, v)
    )
}

/// Earliest maximum `(value, index)`; `(-inf, 0)` for an empty slice.
/// Exact: f64 max is associative/commutative for non-NaN inputs, and the
/// lane combine preserves the scalar first-occurrence tie-break.
#[inline]
pub fn max_index(xs: &[f64]) -> (f64, usize) {
    if mode() == KernelMode::Scalar {
        return scalar::max_index(xs);
    }
    max_index_body(xs)
}

/// SGD row update `w[y] -= lr * (g[y]*v + l2*w[y])`, skipping cells with
/// `|g[y]| < eps` (no L2 decay on skipped cells).
#[inline]
pub fn sgd_row_update(w: &mut [f64], g: &[f64], v: f64, lr: f64, l2: f64, eps: f64) {
    dispatch!(
        scalar::sgd_row_update(w, g, v, lr, l2, eps),
        avx::sgd_row_update(w, g, v, lr, l2, eps),
        sgd_row_update_body(w, g, v, lr, l2, eps)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic mixed-magnitude values; no RNG dependency needed.
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) % 1000) as f64;
                (x - 500.0) * 10f64.powi((i % 7) as i32 - 3)
            })
            .collect()
    }

    #[test]
    fn lane_kernels_match_scalar_bitwise() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 65] {
            let a = vals(n, 1);
            let b = vals(n, 2);
            let c = vals(n, 3);
            let mut o1 = vec![0.0; n];
            let mut o2 = vec![0.0; n];

            scalar::add2(&mut o1, &a, &b);
            set_mode(KernelMode::Lanes);
            add2(&mut o2, &a, &b);
            assert_eq!(bits(&o1), bits(&o2), "add2 n={n}");

            scalar::add3(&mut o1, &a, &b, &c);
            add3(&mut o2, &a, &b, &c);
            assert_eq!(bits(&o1), bits(&o2), "add3 n={n}");

            scalar::shift_add3_sub(&mut o1, 0.37, &a, &b, &c, 1.91);
            shift_add3_sub(&mut o2, 0.37, &a, &b, &c, 1.91);
            assert_eq!(bits(&o1), bits(&o2), "shift_add3_sub n={n}");

            let mut a1 = vals(n, 4);
            let mut a2 = a1.clone();
            scalar::axpy(&mut a1, &b, 0.731);
            axpy(&mut a2, &b, 0.731);
            assert_eq!(bits(&a1), bits(&a2), "axpy n={n}");

            assert_eq!(scalar::max_index(&a), max_index(&a), "max_index n={n}");

            let g = vals(n, 5);
            let mut w1 = vals(n, 6);
            let mut w2 = w1.clone();
            scalar::sgd_row_update(&mut w1, &g, 0.5, 0.3, 1e-6, 1e-12);
            sgd_row_update(&mut w2, &g, 0.5, 0.3, 1e-6, 1e-12);
            assert_eq!(bits(&w1), bits(&w2), "sgd_row_update n={n}");
        }
    }

    #[test]
    fn max_index_earliest_tie_break() {
        // Duplicated maxima across lanes: must return the first.
        let xs = [1.0, 5.0, 2.0, 5.0, 5.0, 0.0, 5.0, 1.0, 5.0];
        assert_eq!(scalar::max_index(&xs), (5.0, 1));
        set_mode(KernelMode::Lanes);
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

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
