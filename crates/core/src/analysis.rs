//! Post-run analysis: annotation-cost tables and selection statistics.
//!
//! These functions turn [`crate::driver::RunResult`]s into the numbers the
//! paper reports: Table 5 (samples needed to reach a target metric) and
//! Table 6 (mean WSHS / fluctuation scores of selected samples).

use crate::driver::RunResult;

/// Number of annotated samples needed for the curve to first reach
/// `target`; `None` if it never does (the paper prints `500+`).
pub fn samples_to_target(result: &RunResult, target: f64) -> Option<usize> {
    result
        .curve
        .iter()
        .find(|p| p.metric >= target)
        .map(|p| p.n_labeled)
}

/// Format a [`samples_to_target`] entry the way Table 5 does: the count,
/// or `"{budget}+"` when the target was never reached.
pub fn format_cost(cost: Option<usize>, budget: usize) -> String {
    match cost {
        Some(n) => n.to_string(),
        None => format!("{budget}+"),
    }
}

/// Mean-of-rounds selection statistics (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelectionStats {
    /// Mean WSHS (window 3) score of selected samples across rounds.
    pub mean_wshs: f64,
    /// Mean history fluctuation of selected samples across rounds.
    pub mean_fluct: f64,
}

/// Aggregate the per-round diagnostics of a run. Rounds that selected
/// nothing are skipped.
pub fn selection_stats(result: &RunResult) -> SelectionStats {
    let rounds: Vec<_> = result
        .rounds
        .iter()
        .filter(|r| !r.selected.is_empty())
        .collect();
    if rounds.is_empty() {
        return SelectionStats::default();
    }
    let n = rounds.len() as f64;
    SelectionStats {
        mean_wshs: rounds.iter().map(|r| r.mean_wshs_of_selected).sum::<f64>() / n,
        mean_fluct: rounds.iter().map(|r| r.mean_fluct_of_selected).sum::<f64>() / n,
    }
}

/// Area under the learning curve (ALC): the trapezoidal integral of the
/// metric over labeled-set size, normalized by the x-span — i.e. the
/// *average* metric across the annotation budget. The standard scalar
/// summary of an AL run (Guyon et al., 2011 AL challenge); higher is
/// better. Returns the single metric for one-point curves and 0 for
/// empty ones.
pub fn area_under_curve(result: &RunResult) -> f64 {
    let c = &result.curve;
    match c.len() {
        0 => 0.0,
        1 => c[0].metric,
        _ => {
            let mut area = 0.0;
            for w in c.windows(2) {
                let dx = (w[1].n_labeled - w[0].n_labeled) as f64;
                area += dx * (w[0].metric + w[1].metric) / 2.0;
            }
            let span = (c[c.len() - 1].n_labeled - c[0].n_labeled) as f64;
            if span > 0.0 {
                area / span
            } else {
                c[0].metric
            }
        }
    }
}

/// Deficiency of `strategy` relative to `reference` (Baram et al. 2004):
/// the ratio of the areas *above* each curve up to the shared final
/// metric ceiling. Values < 1 mean `strategy` dominates `reference`;
/// 1 means parity. Returns 1 for degenerate inputs.
pub fn deficiency(strategy: &RunResult, reference: &RunResult) -> f64 {
    assert_eq!(
        strategy.curve.len(),
        reference.curve.len(),
        "curves must align for deficiency"
    );
    if strategy.curve.is_empty() {
        return 1.0;
    }
    let ceiling = strategy
        .curve
        .iter()
        .chain(&reference.curve)
        .map(|p| p.metric)
        .fold(f64::NEG_INFINITY, f64::max);
    let above = |r: &RunResult| -> f64 { r.curve.iter().map(|p| ceiling - p.metric).sum::<f64>() };
    let (num, den) = (above(strategy), above(reference));
    if den <= 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Average several learning curves pointwise (for cross-validation folds).
/// All runs must share labeled-set sizes; the result reuses the first
/// run's strategy name and drops per-round records.
pub fn average_curves(results: &[RunResult]) -> RunResult {
    assert!(!results.is_empty(), "need at least one run to average");
    let first = &results[0];
    for r in results {
        assert_eq!(
            r.curve.len(),
            first.curve.len(),
            "curves must have equal length to average"
        );
    }
    let curve = first
        .curve
        .iter()
        .enumerate()
        .map(|(i, p)| crate::driver::CurvePoint {
            n_labeled: p.n_labeled,
            metric: results.iter().map(|r| r.curve[i].metric).sum::<f64>() / results.len() as f64,
        })
        .collect();
    RunResult {
        strategy_name: first.strategy_name.clone(),
        curve,
        rounds: Vec::new(),
        history: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CurvePoint, RoundRecord};

    fn run(points: &[(usize, f64)]) -> RunResult {
        RunResult {
            strategy_name: "test".into(),
            curve: points
                .iter()
                .map(|&(n, m)| CurvePoint {
                    n_labeled: n,
                    metric: m,
                })
                .collect(),
            rounds: Vec::new(),
            history: Vec::new(),
        }
    }

    #[test]
    fn samples_to_target_first_crossing() {
        let r = run(&[(25, 0.5), (50, 0.71), (75, 0.73), (100, 0.74)]);
        assert_eq!(samples_to_target(&r, 0.72), Some(75));
        assert_eq!(samples_to_target(&r, 0.5), Some(25));
        assert_eq!(samples_to_target(&r, 0.9), None);
    }

    #[test]
    fn format_cost_matches_table5_style() {
        assert_eq!(format_cost(Some(280), 500), "280");
        assert_eq!(format_cost(None, 500), "500+");
    }

    #[test]
    fn selection_stats_averages_rounds() {
        let mut r = run(&[(10, 0.5)]);
        r.rounds = vec![
            RoundRecord {
                round: 0,
                selected: vec![1],
                mean_wshs_of_selected: 1.0,
                mean_fluct_of_selected: 0.2,
                fit_ms: 0.0,
                eval_ms: 0.0,
                score_ms: 0.0,
                select_ms: 0.0,
            },
            RoundRecord {
                round: 1,
                selected: vec![2],
                mean_wshs_of_selected: 3.0,
                mean_fluct_of_selected: 0.4,
                fit_ms: 0.0,
                eval_ms: 0.0,
                score_ms: 0.0,
                select_ms: 0.0,
            },
            RoundRecord {
                round: 2,
                selected: vec![],
                mean_wshs_of_selected: 99.0,
                mean_fluct_of_selected: 99.0,
                fit_ms: 0.0,
                eval_ms: 0.0,
                score_ms: 0.0,
                select_ms: 0.0,
            },
        ];
        let s = selection_stats(&r);
        assert!((s.mean_wshs - 2.0).abs() < 1e-12);
        assert!((s.mean_fluct - 0.3).abs() < 1e-12);
    }

    #[test]
    fn selection_stats_empty() {
        let r = run(&[(10, 0.5)]);
        assert_eq!(selection_stats(&r), SelectionStats::default());
    }

    #[test]
    fn auc_hand_worked() {
        // Trapezoid over [10, 30]: (10*(0.4+0.6)/2 + 10*(0.6+0.8)/2)/20 = 0.6
        let r = run(&[(10, 0.4), (20, 0.6), (30, 0.8)]);
        assert!((area_under_curve(&r) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_curves() {
        assert_eq!(area_under_curve(&run(&[])), 0.0);
        assert_eq!(area_under_curve(&run(&[(10, 0.7)])), 0.7);
        // Two points at the same x: falls back to the first metric.
        assert_eq!(area_under_curve(&run(&[(10, 0.5), (10, 0.9)])), 0.5);
    }

    #[test]
    fn auc_orders_dominating_curves() {
        let better = run(&[(10, 0.5), (20, 0.7), (30, 0.8)]);
        let worse = run(&[(10, 0.4), (20, 0.5), (30, 0.8)]);
        assert!(area_under_curve(&better) > area_under_curve(&worse));
    }

    #[test]
    fn deficiency_below_one_for_dominating_strategy() {
        let better = run(&[(10, 0.6), (20, 0.7), (30, 0.8)]);
        let worse = run(&[(10, 0.4), (20, 0.5), (30, 0.8)]);
        let d = deficiency(&better, &worse);
        assert!(d < 1.0, "deficiency {d}");
        assert!(deficiency(&worse, &better) > 1.0);
    }

    #[test]
    fn deficiency_identity_is_one() {
        let r = run(&[(10, 0.5), (20, 0.6)]);
        assert!((deficiency(&r, &r) - 1.0).abs() < 1e-12);
        assert_eq!(deficiency(&run(&[]), &run(&[])), 1.0);
    }

    #[test]
    fn average_curves_pointwise() {
        let a = run(&[(10, 0.4), (20, 0.6)]);
        let b = run(&[(10, 0.6), (20, 0.8)]);
        let avg = average_curves(&[a, b]);
        assert!((avg.curve[0].metric - 0.5).abs() < 1e-12);
        assert!((avg.curve[1].metric - 0.7).abs() < 1e-12);
        assert_eq!(avg.curve[0].n_labeled, 10);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn average_mismatched_curves_panics() {
        let a = run(&[(10, 0.4)]);
        let b = run(&[(10, 0.6), (20, 0.8)]);
        let _ = average_curves(&[a, b]);
    }
}
