//! Mann–Kendall trend test (Hamed & Rao 1998 variant without the
//! autocorrelation correction; ties handled in the variance term).
//!
//! The LHS strategy uses the MK statistic to characterize whether a
//! sample's evaluation sequence is increasing, decreasing, or trendless —
//! e.g. for an entropy sequence an increasing trend means the model grows
//! *less* certain about the sample as training progresses.

/// Qualitative trend classification at a given significance threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trend {
    /// Significantly increasing (`z > z_crit`).
    Increasing,
    /// Significantly decreasing (`z < -z_crit`).
    Decreasing,
    /// No significant monotone trend.
    NoTrend,
}

/// Result of the Mann–Kendall test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannKendall {
    /// The raw S statistic: #concordant − #discordant pairs.
    pub s: i64,
    /// Variance of S under H0, with the tie correction.
    pub var_s: f64,
    /// The standardized statistic (continuity-corrected).
    pub z: f64,
    /// Kendall's tau-like normalization `S / (n(n-1)/2)`, in `[-1, 1]`.
    pub tau: f64,
}

impl MannKendall {
    /// Classify at the 95% two-sided level (`z_crit = 1.96`).
    pub fn trend(&self) -> Trend {
        self.trend_at(1.96)
    }

    /// Classify against an arbitrary critical z value.
    pub(crate) fn trend_at(&self, z_crit: f64) -> Trend {
        if self.z > z_crit {
            Trend::Increasing
        } else if self.z < -z_crit {
            Trend::Decreasing
        } else {
            Trend::NoTrend
        }
    }
}

/// Run the Mann–Kendall test on `seq`.
///
/// Sequences with fewer than two elements produce the all-zero result
/// (`NoTrend`). O(n²) pair enumeration — history windows are tiny (≤ 20).
///
/// ```
/// use histal_tseries::{mann_kendall, Trend};
/// let rising: Vec<f64> = (0..10).map(|i| i as f64).collect();
/// assert_eq!(mann_kendall(&rising).trend(), Trend::Increasing);
/// assert_eq!(mann_kendall(&[1.0, 1.0, 1.0]).trend(), Trend::NoTrend);
/// ```
pub fn mann_kendall(seq: &[f64]) -> MannKendall {
    let n = seq.len();
    if n < 2 {
        return MannKendall {
            s: 0,
            var_s: 0.0,
            z: 0.0,
            tau: 0.0,
        };
    }
    let mut s: i64 = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += match seq[j].partial_cmp(&seq[i]) {
                Some(std::cmp::Ordering::Greater) => 1,
                Some(std::cmp::Ordering::Less) => -1,
                _ => 0,
            };
        }
    }
    // Tie correction: group identical values.
    let mut sorted: Vec<f64> = seq.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut tie_term = 0.0;
    let mut run = 1usize;
    for i in 1..=sorted.len() {
        if i < sorted.len() && sorted[i] == sorted[i - 1] {
            run += 1;
        } else {
            if run > 1 {
                let t = run as f64;
                tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
            }
            run = 1;
        }
    }
    let nf = n as f64;
    let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;
    let z = if var_s <= 0.0 {
        0.0
    } else if s > 0 {
        (s as f64 - 1.0) / var_s.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var_s.sqrt()
    } else {
        0.0
    };
    let tau = s as f64 / (nf * (nf - 1.0) / 2.0);
    MannKendall { s, var_s, z, tau }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictly_increasing() {
        let mk = mann_kendall(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        // all pairs concordant: S = n(n-1)/2 = 28
        assert_eq!(mk.s, 28);
        assert!((mk.tau - 1.0).abs() < 1e-12);
        assert_eq!(mk.trend(), Trend::Increasing);
    }

    #[test]
    fn strictly_decreasing() {
        let mk = mann_kendall(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(mk.s, -28);
        assert!((mk.tau + 1.0).abs() < 1e-12);
        assert_eq!(mk.trend(), Trend::Decreasing);
    }

    #[test]
    fn constant_sequence_no_trend() {
        let mk = mann_kendall(&[3.0; 10]);
        assert_eq!(mk.s, 0);
        assert_eq!(mk.z, 0.0);
        assert_eq!(mk.trend(), Trend::NoTrend);
    }

    #[test]
    fn alternating_sequence_no_trend() {
        let mk = mann_kendall(&[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        assert_eq!(mk.trend(), Trend::NoTrend);
    }

    #[test]
    fn short_sequences_are_neutral() {
        assert_eq!(mann_kendall(&[]).trend(), Trend::NoTrend);
        assert_eq!(mann_kendall(&[1.0]).trend(), Trend::NoTrend);
    }

    #[test]
    fn variance_hand_computed_no_ties() {
        // n = 4: var = 4*3*13/18 = 8.666...
        let mk = mann_kendall(&[1.0, 3.0, 2.0, 4.0]);
        assert!((mk.var_s - 4.0 * 3.0 * 13.0 / 18.0).abs() < 1e-9);
        assert_eq!(mk.s, 4); // pairs: +1+1+1 +1-1 +1 → (1,3)+(1,2)+(1,4)+(3,4) up, (3,2) down, (2,4) up = 4
    }

    #[test]
    fn tie_correction_reduces_variance() {
        let no_ties = mann_kendall(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let ties = mann_kendall(&[1.0, 2.0, 2.0, 4.0, 5.0]);
        assert!(ties.var_s < no_ties.var_s);
    }

    #[test]
    fn tau_is_bounded() {
        let seqs: [&[f64]; 3] = [
            &[0.2, 0.9, 0.1, 0.4],
            &[1.0, 1.0, 2.0],
            &[5.0, 4.0, 4.0, 3.0],
        ];
        for s in seqs {
            let mk = mann_kendall(s);
            assert!(mk.tau >= -1.0 && mk.tau <= 1.0);
        }
    }
}
