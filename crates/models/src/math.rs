//! Shared numerical kernels.
//!
//! The max pass of both reductions is [`crate::kernels::max_index`]. The
//! sum of exps is *not* reassociable and stays a strict left-to-right
//! loop. [`logsumexp_cols`] is the column-blocked form the CRF lattices
//! use: the same operations per column, with the exponentials of a whole
//! block issued through [`crate::vexp::exp_in_place`].

/// Numerically stable softmax of `logits`, in place.
pub(crate) fn softmax_inplace(logits: &mut [f64]) {
    if logits.is_empty() {
        return;
    }
    let (max, _) = crate::kernels::max_index(logits);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// Numerically stable `ln Σ exp(xs)`.
pub(crate) fn logsumexp(xs: &[f64]) -> f64 {
    let (max, _) = crate::kernels::max_index(xs);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// [`logsumexp`] of every column of the row-major block `blk` (at least
/// one row of `out.len()` cells): `out[y]` gets the bits `logsumexp`
/// returns for `blk[y], blk[l + y], blk[2l + y], …`. Per column the
/// running max keeps the earliest maximum in row order (NaN never
/// wins), every cell is shifted by it, the sum runs in row order from
/// row 0, and an all-`−∞` column gives `−∞`. `blk` is left holding the
/// exponentials; `mx` is scratch as long as `out`.
pub(crate) fn logsumexp_cols(blk: &mut [f64], mx: &mut [f64], out: &mut [f64]) {
    let l = out.len();
    debug_assert!(mx.len() == l && blk.len() >= l && blk.len() % l == 0);
    mx.fill(f64::NEG_INFINITY);
    for r in blk.chunks_exact(l) {
        for (m, &v) in mx.iter_mut().zip(r) {
            *m = if v > *m { v } else { *m };
        }
    }
    for r in blk.chunks_exact_mut(l) {
        for (v, &m) in r.iter_mut().zip(mx.iter()) {
            *v -= m;
        }
    }
    crate::vexp::exp_in_place(blk);
    let (first, rest) = blk.split_at(l);
    out.copy_from_slice(first);
    for r in rest.chunks_exact(l) {
        for (s, &v) in out.iter_mut().zip(r) {
            *s += v;
        }
    }
    for (s, &m) in out.iter_mut().zip(mx.iter()) {
        *s = if m == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            m + s.ln()
        };
    }
}

/// KL divergence `D(p || q)` in nats; terms with `p_i = 0` contribute 0,
/// and `q` is floored at `1e-12` to avoid infinities from sampling noise.
pub(crate) fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    p.iter()
        .zip(q)
        .filter(|(&pi, _)| pi > 0.0)
        .map(|(&pi, &qi)| pi * (pi / qi.max(1e-12)).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0];
        softmax_inplace(&mut a);
        let mut b = vec![0.0, 1.0];
        softmax_inplace(&mut b);
        assert!((a[0] - b[0]).abs() < 1e-12);
        assert!(a.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f64> = vec![];
        softmax_inplace(&mut v);
    }

    #[test]
    fn logsumexp_matches_naive_when_safe() {
        let xs = [0.5, -0.2, 1.3];
        let naive = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((logsumexp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_handles_large_values() {
        let v = logsumexp(&[1e4, 1e4]);
        assert!((v - (1e4 + (2f64).ln())).abs() < 1e-9);
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn column_logsumexp_is_per_column_logsumexp() {
        let ninf = f64::NEG_INFINITY;
        // Columns: ordinary, all −∞, −∞ mixed in, a NaN, tied maxima
        // of both zero signs, and huge magnitudes.
        let rows = [
            [0.5, ninf, ninf, 1.0, 0.0, 1e300, -3.0],
            [-0.2, ninf, 2.0, f64::NAN, -0.0, -1e300, -3.0],
            [1.3, ninf, ninf, 0.25, 0.0, 1e300, 700.0],
        ];
        let l = rows[0].len();
        let mut blk: Vec<f64> = rows.iter().flatten().copied().collect();
        let (mut mx, mut out) = (vec![0.0; l], vec![0.0; l]);
        logsumexp_cols(&mut blk, &mut mx, &mut out);
        for y in 0..l {
            let col: Vec<f64> = rows.iter().map(|r| r[y]).collect();
            assert_eq!(out[y].to_bits(), logsumexp(&col).to_bits(), "column {y}");
        }
    }

    #[test]
    fn kl_zero_for_identical() {
        let p = [0.3, 0.7];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_positive_and_asymmetric() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        let pq = kl_divergence(&p, &q);
        let qp = kl_divergence(&q, &p);
        assert!(pq > 0.0 && qp > 0.0);
        assert!((pq - qp).abs() > 1e-6);
    }

    #[test]
    fn kl_tolerates_zero_q_via_floor() {
        let v = kl_divergence(&[1.0, 0.0], &[0.0, 1.0]);
        assert!(v.is_finite() && v > 0.0);
    }
}
