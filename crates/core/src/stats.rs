//! Statistical comparison of active-learning runs.
//!
//! The paper reports that its methods "significantly promote existing
//! methods"; this module provides the machinery to back such claims:
//! a Wilcoxon signed-rank test over paired per-point curve differences
//! and a paired bootstrap test over per-repeat summary statistics.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::driver::RunResult;

/// Result of a two-sided paired significance test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestResult {
    /// The test statistic (W for Wilcoxon, mean difference for bootstrap).
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Mean of the paired differences (`a − b`): positive means `a` wins.
    pub mean_diff: f64,
}

impl TestResult {
    /// Significant at level `alpha` *and* in favour of the first input.
    pub fn significantly_better(&self, alpha: f64) -> bool {
        self.p_value < alpha && self.mean_diff > 0.0
    }
}

/// Wilcoxon signed-rank test on paired samples (normal approximation
/// with tie correction — adequate for n ≥ 10, which curve comparisons
/// easily reach). Zero differences are dropped per the standard
/// procedure.
///
/// ```
/// use histal_core::stats::wilcoxon_signed_rank;
/// let variant: Vec<f64> = (0..15).map(|i| 0.6 + 0.01 * i as f64).collect();
/// let base: Vec<f64> = variant.iter().map(|x| x - 0.02).collect();
/// let t = wilcoxon_signed_rank(&variant, &base);
/// assert!(t.significantly_better(0.05));
/// ```
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> TestResult {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    let diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x - y)
        .filter(|d| d.abs() > 1e-15)
        .collect();
    let mean_diff = if a.is_empty() {
        0.0
    } else {
        a.iter().zip(b).map(|(x, y)| x - y).sum::<f64>() / a.len() as f64
    };
    let n = diffs.len();
    if n == 0 {
        return TestResult {
            statistic: 0.0,
            p_value: 1.0,
            mean_diff,
        };
    }
    // Rank |d| ascending with mid-ranks for ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        diffs[i]
            .abs()
            .partial_cmp(&diffs[j].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && (diffs[order[j + 1]].abs() - diffs[order[i]].abs()).abs() < 1e-15 {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = mid;
        }
        i = j + 1;
    }
    let w_plus: f64 = diffs
        .iter()
        .zip(&ranks)
        .filter(|(&d, _)| d > 0.0)
        .map(|(_, &r)| r)
        .sum();
    let nf = n as f64;
    let mean_w = nf * (nf + 1.0) / 4.0;
    let var_w = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0;
    if var_w <= 0.0 {
        return TestResult {
            statistic: w_plus,
            p_value: 1.0,
            mean_diff,
        };
    }
    // Continuity-corrected z.
    let z = (w_plus - mean_w - 0.5 * (w_plus - mean_w).signum()) / var_w.sqrt();
    let p = 2.0 * (1.0 - std_normal_cdf(z.abs()));
    TestResult {
        statistic: w_plus,
        p_value: p.clamp(0.0, 1.0),
        mean_diff,
    }
}

/// Paired bootstrap test: resample the paired differences `iters` times
/// and report the two-sided p-value of the sign of the mean. The test
/// half of [`paired_bootstrap_ci`] (same resampling stream, same p, same
/// degenerate p = 1), with `statistic` = `mean_diff`.
pub fn paired_bootstrap(a: &[f64], b: &[f64], iters: usize, seed: u64) -> TestResult {
    let c = paired_bootstrap_ci(a, b, iters, seed, 0.05);
    TestResult {
        statistic: c.mean_diff,
        p_value: c.p_value,
        mean_diff: c.mean_diff,
    }
}

/// Outcome of a paired comparison at a significance level: did the
/// first input win, lose, or tie against the second?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Significant and in favour of the first input.
    Win,
    /// Significant and against the first input.
    Loss,
    /// Not significant at the requested level.
    Tie,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Win => "win",
            Verdict::Loss => "loss",
            Verdict::Tie => "tie",
        })
    }
}

/// A paired comparison with an interval estimate: mean difference
/// (`a − b`), a two-sided confidence interval for it, the p-value of the
/// chosen resampling test, and the raw per-pair win/loss/tie census.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedComparison {
    /// Mean of the paired differences (`a − b`).
    pub mean_diff: f64,
    /// Lower end of the two-sided `1 − alpha` confidence interval.
    pub ci_low: f64,
    /// Upper end of the two-sided `1 − alpha` confidence interval.
    pub ci_high: f64,
    /// Two-sided p-value of the resampling test.
    pub p_value: f64,
    /// Number of pairs where `a > b` (beyond the 1e-15 tie tolerance).
    pub wins: usize,
    /// Number of pairs where `a < b`.
    pub losses: usize,
    /// Number of pairs within the tie tolerance.
    pub ties: usize,
}

impl PairedComparison {
    /// Classify the comparison at level `alpha`: [`Verdict::Win`] if
    /// significant and `mean_diff > 0`, [`Verdict::Loss`] if significant
    /// and `mean_diff < 0`, [`Verdict::Tie`] otherwise.
    pub fn verdict(&self, alpha: f64) -> Verdict {
        if self.p_value < alpha && self.mean_diff > 0.0 {
            Verdict::Win
        } else if self.p_value < alpha && self.mean_diff < 0.0 {
            Verdict::Loss
        } else {
            Verdict::Tie
        }
    }
}

/// Census of the raw paired differences at the 1e-15 tie tolerance.
fn win_loss_tie(diffs: &[f64]) -> (usize, usize, usize) {
    let mut wins = 0;
    let mut losses = 0;
    let mut ties = 0;
    for &d in diffs {
        if d > 1e-15 {
            wins += 1;
        } else if d < -1e-15 {
            losses += 1;
        } else {
            ties += 1;
        }
    }
    (wins, losses, ties)
}

/// Linear-interpolation quantile of an ascending-sorted slice:
/// `idx = q·(len − 1)`, interpolated between `floor(idx)` and
/// `ceil(idx)`. The slice must be non-empty.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Degenerate comparison for empty or all-tied inputs: point interval at
/// the mean difference, p = 1.
fn degenerate_comparison(diffs: &[f64], mean_diff: f64) -> PairedComparison {
    let (wins, losses, ties) = win_loss_tie(diffs);
    PairedComparison {
        mean_diff,
        ci_low: mean_diff,
        ci_high: mean_diff,
        p_value: 1.0,
        wins,
        losses,
        ties,
    }
}

/// Paired bootstrap with a percentile confidence interval: resample the
/// paired differences with replacement `iters` times (drawing `n`
/// indices per iteration with `gen_range(0..n)` from a
/// `ChaCha8Rng::seed_from_u64(seed)` stream), take the mean of each
/// resample, and report
///
/// * the two-sided `1 − alpha` percentile interval
///   (linear-interpolation quantiles `alpha/2` and `1 − alpha/2` of the
///   sorted resampled means), and
/// * the sign-based two-sided p-value: the share of resampled means
///   whose sign opposes `mean_diff` (or is zero), as
///   `2·(opposite + 1)/(iters + 1)`, capped at 1.
///
/// With `n = 0` pairs, all-tied pairs, or `iters = 0`, returns the
/// degenerate point interval at `mean_diff` with p = 1.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn paired_bootstrap_ci(
    a: &[f64],
    b: &[f64],
    iters: usize,
    seed: u64,
    alpha: f64,
) -> PairedComparison {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = diffs.len();
    let mean_diff = if n == 0 {
        0.0
    } else {
        diffs.iter().sum::<f64>() / n as f64
    };
    if n == 0 || iters == 0 || diffs.iter().all(|d| d.abs() < 1e-15) {
        return degenerate_comparison(&diffs, mean_diff);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(iters);
    let mut opposite = 0usize;
    for _ in 0..iters {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += diffs[rng.gen_range(0..n)];
        }
        let resampled = acc / n as f64;
        if (resampled >= 0.0) != (mean_diff >= 0.0) || resampled == 0.0 {
            opposite += 1;
        }
        means.push(resampled);
    }
    means.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let p = 2.0 * (opposite as f64 + 1.0) / (iters as f64 + 1.0);
    let (wins, losses, ties) = win_loss_tie(&diffs);
    PairedComparison {
        mean_diff,
        ci_low: sorted_quantile(&means, alpha / 2.0),
        ci_high: sorted_quantile(&means, 1.0 - alpha / 2.0),
        p_value: p.min(1.0),
        wins,
        losses,
        ties,
    }
}

/// Paired sign-flip permutation test with a test-inversion confidence
/// interval. Under the null of no paired difference the sign of each
/// difference is exchangeable, so each iteration flips the sign of every
/// difference independently (one `gen::<bool>()` draw per difference,
/// `n·iters` draws total from a `ChaCha8Rng::seed_from_u64(seed)`
/// stream) and records the permuted mean. Reports
///
/// * `p = (#{|permuted mean| ≥ |mean_diff|} + 1)/(iters + 1)`, capped
///   at 1, and
/// * the basic (pivotal) `1 − alpha` interval
///   `[mean_diff − q(1 − alpha/2), mean_diff − q(alpha/2)]`, where `q`
///   are linear-interpolation quantiles of the sorted permuted means
///   (a null distribution centred at zero).
///
/// With `n = 0` pairs, all-tied pairs, or `iters = 0`, returns the
/// degenerate point interval at `mean_diff` with p = 1.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn paired_permutation(
    a: &[f64],
    b: &[f64],
    iters: usize,
    seed: u64,
    alpha: f64,
) -> PairedComparison {
    assert_eq!(a.len(), b.len(), "paired samples must align");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = diffs.len();
    let mean_diff = if n == 0 {
        0.0
    } else {
        diffs.iter().sum::<f64>() / n as f64
    };
    if n == 0 || iters == 0 || diffs.iter().all(|d| d.abs() < 1e-15) {
        return degenerate_comparison(&diffs, mean_diff);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut means = Vec::with_capacity(iters);
    let mut extreme = 0usize;
    for _ in 0..iters {
        let mut acc = 0.0;
        for &d in &diffs {
            acc += if rng.gen::<bool>() { -d } else { d };
        }
        let permuted = acc / n as f64;
        if permuted.abs() >= mean_diff.abs() {
            extreme += 1;
        }
        means.push(permuted);
    }
    means.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let p = (extreme as f64 + 1.0) / (iters as f64 + 1.0);
    let (wins, losses, ties) = win_loss_tie(&diffs);
    PairedComparison {
        mean_diff,
        ci_low: mean_diff - sorted_quantile(&means, 1.0 - alpha / 2.0),
        ci_high: mean_diff - sorted_quantile(&means, alpha / 2.0),
        p_value: p.min(1.0),
        wins,
        losses,
        ties,
    }
}

/// Wilcoxon over the aligned learning curves of two strategies.
///
/// # Panics
/// Panics if the curves have different lengths.
pub fn compare_curves(a: &RunResult, b: &RunResult) -> TestResult {
    assert_eq!(a.curve.len(), b.curve.len(), "curves must align");
    let xs: Vec<f64> = a.curve.iter().map(|p| p.metric).collect();
    let ys: Vec<f64> = b.curve.iter().map(|p| p.metric).collect();
    wilcoxon_signed_rank(&xs, &ys)
}

/// Φ(z) via the Abramowitz–Stegun 7.1.26 erf approximation (|ε| < 1.5e-7).
fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-5);
    }

    #[test]
    fn cdf_symmetry() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn wilcoxon_detects_consistent_improvement() {
        let a: Vec<f64> = (0..20).map(|i| 0.5 + 0.01 * i as f64 + 0.02).collect();
        let b: Vec<f64> = (0..20).map(|i| 0.5 + 0.01 * i as f64).collect();
        let t = wilcoxon_signed_rank(&a, &b);
        assert!(t.p_value < 0.01, "p = {}", t.p_value);
        assert!(t.significantly_better(0.05));
    }

    #[test]
    fn wilcoxon_no_difference() {
        let a = vec![0.5; 15];
        let t = wilcoxon_signed_rank(&a, &a);
        assert_eq!(t.p_value, 1.0);
        assert!(!t.significantly_better(0.05));
    }

    #[test]
    fn wilcoxon_mixed_differences_not_significant() {
        let a: Vec<f64> = (0..20)
            .map(|i| 0.5 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let b = vec![0.5; 20];
        let t = wilcoxon_signed_rank(&a, &b);
        assert!(t.p_value > 0.5, "p = {}", t.p_value);
    }

    #[test]
    fn wilcoxon_direction_matters() {
        let a = vec![0.4; 12];
        let b: Vec<f64> = (0..12).map(|i| 0.5 + 0.001 * i as f64).collect();
        let t = wilcoxon_signed_rank(&a, &b);
        assert!(t.mean_diff < 0.0);
        assert!(!t.significantly_better(0.05));
    }

    #[test]
    fn bootstrap_consistent_improvement() {
        let a: Vec<f64> = (0..25).map(|i| 0.6 + 0.001 * (i % 5) as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 0.03).collect();
        let t = paired_bootstrap(&a, &b, 2000, 7);
        assert!(t.significantly_better(0.05), "p = {}", t.p_value);
    }

    #[test]
    fn bootstrap_identical_is_insignificant() {
        let a = vec![0.5; 10];
        let t = paired_bootstrap(&a, &a, 500, 7);
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn bootstrap_deterministic_under_seed() {
        let a: Vec<f64> = (0..15).map(|i| 0.5 + 0.01 * (i as f64).sin()).collect();
        let b = vec![0.5; 15];
        let t1 = paired_bootstrap(&a, &b, 1000, 3);
        let t2 = paired_bootstrap(&a, &b, 1000, 3);
        assert_eq!(t1.p_value, t2.p_value);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_pairs_panic() {
        let _ = wilcoxon_signed_rank(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn bootstrap_ci_brackets_a_clear_improvement() {
        let a: Vec<f64> = (0..30).map(|i| 0.62 + 0.002 * (i % 7) as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 0.05).collect();
        let c = paired_bootstrap_ci(&a, &b, 2000, 11, 0.05);
        assert!(c.ci_low <= c.mean_diff && c.mean_diff <= c.ci_high);
        assert!(c.ci_low > 0.0, "ci = [{}, {}]", c.ci_low, c.ci_high);
        assert_eq!(c.verdict(0.05), Verdict::Win);
        assert_eq!((c.wins, c.losses, c.ties), (30, 0, 0));
    }

    #[test]
    fn bootstrap_ci_identical_is_degenerate() {
        let a = vec![0.5; 12];
        let c = paired_bootstrap_ci(&a, &a, 500, 3, 0.05);
        assert_eq!(c.p_value, 1.0);
        assert_eq!((c.ci_low, c.ci_high), (0.0, 0.0));
        assert_eq!(c.verdict(0.05), Verdict::Tie);
        assert_eq!(c.ties, 12);
    }

    #[test]
    fn permutation_detects_consistent_improvement() {
        let a: Vec<f64> = (0..25).map(|i| 0.6 + 0.001 * (i % 5) as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 0.03).collect();
        let c = paired_permutation(&a, &b, 2000, 7, 0.05);
        assert!(c.p_value < 0.05, "p = {}", c.p_value);
        assert_eq!(c.verdict(0.05), Verdict::Win);
        assert!(c.ci_low <= c.mean_diff && c.mean_diff <= c.ci_high);
    }

    #[test]
    fn permutation_loss_direction() {
        let a = vec![0.4; 25];
        let b: Vec<f64> = (0..25).map(|i| 0.5 + 0.001 * (i % 3) as f64).collect();
        let c = paired_permutation(&a, &b, 2000, 7, 0.05);
        assert!(c.mean_diff < 0.0);
        assert_eq!(c.verdict(0.05), Verdict::Loss);
    }

    #[test]
    fn permutation_symmetric_noise_is_a_tie() {
        let a: Vec<f64> = (0..20)
            .map(|i| 0.5 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let b = vec![0.5; 20];
        let c = paired_permutation(&a, &b, 2000, 5, 0.05);
        assert!(c.p_value > 0.5, "p = {}", c.p_value);
        assert_eq!(c.verdict(0.05), Verdict::Tie);
    }

    #[test]
    fn permutation_deterministic_under_seed() {
        let a: Vec<f64> = (0..15).map(|i| 0.5 + 0.01 * (i as f64).sin()).collect();
        let b = vec![0.5; 15];
        let c1 = paired_permutation(&a, &b, 800, 3, 0.05);
        let c2 = paired_permutation(&a, &b, 800, 3, 0.05);
        assert_eq!(c1, c2);
    }

    #[test]
    fn sorted_quantile_endpoints_and_midpoint() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(sorted_quantile(&xs, 0.0), 1.0);
        assert_eq!(sorted_quantile(&xs, 1.0), 5.0);
        assert_eq!(sorted_quantile(&xs, 0.5), 3.0);
        assert_eq!(sorted_quantile(&xs, 0.125), 1.5);
    }

    #[test]
    fn verdict_renders_lowercase() {
        assert_eq!(Verdict::Win.to_string(), "win");
        assert_eq!(Verdict::Loss.to_string(), "loss");
        assert_eq!(Verdict::Tie.to_string(), "tie");
    }
}
