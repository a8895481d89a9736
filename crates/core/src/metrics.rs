//! Task evaluation metrics: classification accuracy and span-level F1.
//!
//! The paper evaluates text classification by accuracy and NER by average
//! F1 over entity spans (following the original model papers).

/// Fraction of positions where `pred == gold`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn accuracy(pred: &[usize], gold: &[usize]) -> f64 {
    assert_eq!(pred.len(), gold.len(), "prediction/gold misaligned");
    if pred.is_empty() {
        return 0.0;
    }
    let correct = pred.iter().zip(gold).filter(|(a, b)| a == b).count();
    correct as f64 / pred.len() as f64
}

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrF1 {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl PrF1 {
    /// Compute from raw counts. Empty denominators yield 0 (and F1 = 0
    /// unless both precision and recall are positive).
    pub fn from_counts(true_pos: usize, n_pred: usize, n_gold: usize) -> Self {
        let precision = if n_pred == 0 {
            0.0
        } else {
            true_pos as f64 / n_pred as f64
        };
        let recall = if n_gold == 0 {
            0.0
        } else {
            true_pos as f64 / n_gold as f64
        };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// Micro-averaged span F1: spans are `(start, end_inclusive, type)`
/// triples per sentence; a predicted span counts as correct only on exact
/// boundary + type match (CoNLL convention).
pub fn span_f1(
    pred_spans: &[Vec<(usize, usize, usize)>],
    gold_spans: &[Vec<(usize, usize, usize)>],
) -> PrF1 {
    assert_eq!(pred_spans.len(), gold_spans.len(), "sentence counts differ");
    let mut tp = 0;
    let mut n_pred = 0;
    let mut n_gold = 0;
    for (pred, gold) in pred_spans.iter().zip(gold_spans) {
        n_pred += pred.len();
        n_gold += gold.len();
        for span in pred {
            if gold.contains(span) {
                tp += 1;
            }
        }
    }
    PrF1::from_counts(tp, n_pred, n_gold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn accuracy_misaligned_panics() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn prf1_perfect() {
        let m = PrF1::from_counts(5, 5, 5);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn prf1_zero_denominators() {
        let m = PrF1::from_counts(0, 0, 0);
        assert_eq!(m.f1, 0.0);
        let m = PrF1::from_counts(0, 3, 0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
    }

    #[test]
    fn prf1_hand_worked() {
        // tp=2, pred=4, gold=5 → p=0.5, r=0.4, f1=4/9*2 = 0.444…
        let m = PrF1::from_counts(2, 4, 5);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.4).abs() < 1e-12);
        assert!((m.f1 - 2.0 * 0.5 * 0.4 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn span_f1_exact_match_only() {
        let gold = vec![vec![(0, 1, 0), (3, 3, 1)]];
        // One exact match, one boundary error.
        let pred = vec![vec![(0, 1, 0), (3, 4, 1)]];
        let m = span_f1(&pred, &gold);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn span_f1_type_mismatch_is_wrong() {
        let gold = vec![vec![(0, 1, 0)]];
        let pred = vec![vec![(0, 1, 1)]];
        assert_eq!(span_f1(&pred, &gold).f1, 0.0);
    }

    #[test]
    fn span_f1_micro_averages_across_sentences() {
        let gold = vec![vec![(0, 0, 0)], vec![(1, 2, 1)]];
        let pred = vec![vec![(0, 0, 0)], vec![]];
        let m = span_f1(&pred, &gold);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 0.5);
    }
}
