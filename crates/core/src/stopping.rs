//! Stopping criteria for active-learning loops.
//!
//! The paper runs a fixed number of rounds, but a production annotation
//! pipeline stops when labels stop paying for themselves. These criteria
//! compose (first to fire wins) and are consulted by
//! [`crate::driver::ActiveLearner::run_until`].

use crate::driver::CurvePoint;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The configured number of rounds completed.
    RoundsExhausted,
    /// The unlabeled pool is empty.
    PoolExhausted,
    /// The label budget was reached.
    BudgetReached,
    /// The target metric was reached.
    TargetReached,
    /// No improvement ≥ `min_delta` for `patience` consecutive rounds.
    Plateau,
    /// An external scheduler stopped the run early (e.g. the adaptive
    /// grid executor pruning a dominated cell).
    Pruned,
}

/// Composable stopping rule evaluated after each round's metric.
#[derive(Debug, Clone, Default)]
pub struct StoppingRule {
    /// Stop once this many samples are labeled.
    pub max_labeled: Option<usize>,
    /// Stop once the test metric reaches this value.
    pub target_metric: Option<f64>,
    /// Stop after `patience` rounds without ≥ `min_delta` improvement
    /// over the best metric so far.
    pub patience: Option<usize>,
    /// Minimum improvement that resets the patience counter.
    pub min_delta: f64,
}

impl StoppingRule {
    /// A rule that never stops early.
    pub fn none() -> Self {
        Self::default()
    }

    /// Stop at a label budget.
    pub fn with_budget(mut self, max_labeled: usize) -> Self {
        self.max_labeled = Some(max_labeled);
        self
    }

    /// Stop at a target metric.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target_metric = Some(target);
        self
    }

    /// Stop after a plateau.
    pub fn with_patience(mut self, patience: usize, min_delta: f64) -> Self {
        self.patience = Some(patience);
        self.min_delta = min_delta;
        self
    }

    /// Evaluate against the curve so far; `None` means keep going.
    pub fn should_stop(&self, curve: &[CurvePoint]) -> Option<StopReason> {
        let last = curve.last()?;
        if let Some(budget) = self.max_labeled {
            if last.n_labeled >= budget {
                return Some(StopReason::BudgetReached);
            }
        }
        if let Some(target) = self.target_metric {
            if last.metric >= target {
                return Some(StopReason::TargetReached);
            }
        }
        if let Some(patience) = self.patience {
            if curve.len() > patience {
                // Best metric at least `patience` rounds ago.
                let cutoff = curve.len() - patience;
                let best_before = curve[..cutoff]
                    .iter()
                    .map(|p| p.metric)
                    .fold(f64::NEG_INFINITY, f64::max);
                let best_since = curve[cutoff..]
                    .iter()
                    .map(|p| p.metric)
                    .fold(f64::NEG_INFINITY, f64::max);
                if best_since < best_before + self.min_delta {
                    return Some(StopReason::Plateau);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(usize, f64)]) -> Vec<CurvePoint> {
        points
            .iter()
            .map(|&(n, m)| CurvePoint {
                n_labeled: n,
                metric: m,
            })
            .collect()
    }

    #[test]
    fn none_never_stops() {
        let rule = StoppingRule::none();
        assert_eq!(rule.should_stop(&curve(&[(10, 0.5), (20, 0.4)])), None);
        assert_eq!(rule.should_stop(&[]), None);
    }

    #[test]
    fn budget_fires_at_threshold() {
        let rule = StoppingRule::none().with_budget(50);
        assert_eq!(rule.should_stop(&curve(&[(40, 0.5)])), None);
        assert_eq!(
            rule.should_stop(&curve(&[(40, 0.5), (55, 0.6)])),
            Some(StopReason::BudgetReached)
        );
    }

    #[test]
    fn target_fires_when_reached() {
        let rule = StoppingRule::none().with_target(0.7);
        assert_eq!(rule.should_stop(&curve(&[(10, 0.69)])), None);
        assert_eq!(
            rule.should_stop(&curve(&[(10, 0.69), (20, 0.71)])),
            Some(StopReason::TargetReached)
        );
    }

    #[test]
    fn plateau_needs_patience_rounds() {
        let rule = StoppingRule::none().with_patience(2, 1e-3);
        // Still improving: no stop.
        let improving = curve(&[(10, 0.5), (20, 0.55), (30, 0.6)]);
        assert_eq!(rule.should_stop(&improving), None);
        // Flat for two rounds after the best.
        let flat = curve(&[(10, 0.5), (20, 0.6), (30, 0.6), (40, 0.6)]);
        assert_eq!(rule.should_stop(&flat), Some(StopReason::Plateau));
    }

    #[test]
    fn plateau_respects_min_delta() {
        let rule = StoppingRule::none().with_patience(2, 0.05);
        // Improvements below min_delta count as plateau.
        let creeping = curve(&[(10, 0.5), (20, 0.51), (30, 0.52), (40, 0.53)]);
        assert_eq!(rule.should_stop(&creeping), Some(StopReason::Plateau));
    }

    #[test]
    fn budget_beats_target_in_priority() {
        let rule = StoppingRule::none().with_budget(10).with_target(0.5);
        assert_eq!(
            rule.should_stop(&curve(&[(10, 0.9)])),
            Some(StopReason::BudgetReached)
        );
    }
}
