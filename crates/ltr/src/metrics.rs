//! Ranking quality metrics: DCG and NDCG.
//!
//! LambdaMART's lambda gradients are weighted by `|ΔNDCG|` — the change in
//! NDCG caused by swapping two documents — so these functions are on the
//! training hot path, not just evaluation.

/// Gain of a graded relevance label: `2^rel − 1`.
#[inline]
pub(crate) fn gain(rel: f64) -> f64 {
    (2f64).powf(rel) - 1.0
}

/// Position discount `1 / log2(rank + 2)` for 0-based `rank`.
#[inline]
pub(crate) fn discount(rank: usize) -> f64 {
    1.0 / ((rank as f64) + 2.0).log2()
}

/// DCG@k of relevance labels already listed in ranked order.
pub fn dcg_at(ranked_rels: &[f64], k: usize) -> f64 {
    ranked_rels
        .iter()
        .take(k)
        .enumerate()
        .map(|(rank, &rel)| gain(rel) * discount(rank))
        .sum()
}

/// Ideal DCG@k: DCG of the labels sorted descending.
pub(crate) fn ideal_dcg_at(rels: &[f64], k: usize) -> f64 {
    let mut sorted = rels.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    dcg_at(&sorted, k)
}

/// NDCG@k of labels in ranked order; 1.0 when the ideal DCG is zero
/// (nothing relevant — every ranking is equally "perfect").
pub fn ndcg_at(ranked_rels: &[f64], k: usize) -> f64 {
    let ideal = ideal_dcg_at(ranked_rels, k);
    if ideal <= 0.0 {
        1.0
    } else {
        dcg_at(ranked_rels, k) / ideal
    }
}

/// NDCG@k of a scoring: documents with labels `rels` are ranked by
/// descending `scores` (stable on ties), then NDCG is computed.
///
/// ```
/// use histal_ltr::ndcg_of_ranking;
/// // Scores rank the most relevant document first → perfect NDCG.
/// assert!((ndcg_of_ranking(&[0.9, 0.5, 0.1], &[2.0, 1.0, 0.0], 3) - 1.0).abs() < 1e-12);
/// ```
pub fn ndcg_of_ranking(scores: &[f64], rels: &[f64], k: usize) -> f64 {
    assert_eq!(scores.len(), rels.len(), "scores and labels must align");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let ranked: Vec<f64> = order.iter().map(|&i| rels[i]).collect();
    ndcg_at(&ranked, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_and_discount_basics() {
        assert_eq!(gain(0.0), 0.0);
        assert_eq!(gain(1.0), 1.0);
        assert_eq!(gain(2.0), 3.0);
        assert!((discount(0) - 1.0).abs() < 1e-12);
        assert!((discount(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dcg_hand_worked() {
        // rels [3,2,0]: (2^3-1)/log2(2) + (2^2-1)/log2(3) + 0
        let expected = 7.0 / 1.0 + 3.0 / (3f64).log2();
        assert!((dcg_at(&[3.0, 2.0, 0.0], 3) - expected).abs() < 1e-12);
    }

    #[test]
    fn dcg_truncates_at_k() {
        assert_eq!(dcg_at(&[1.0, 1.0, 1.0], 1), 1.0);
    }

    #[test]
    fn perfect_order_has_ndcg_one() {
        assert!((ndcg_at(&[3.0, 2.0, 1.0, 0.0], 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_order_below_one() {
        let v = ndcg_at(&[0.0, 1.0, 2.0, 3.0], 4);
        assert!(v < 1.0 && v > 0.0);
    }

    #[test]
    fn all_zero_labels_ndcg_is_one() {
        assert_eq!(ndcg_at(&[0.0, 0.0], 2), 1.0);
    }

    #[test]
    fn ndcg_of_ranking_sorts_by_score() {
        // Scores reverse the natural order; labels [0,1,2] should be ranked [2,1,0].
        let v = ndcg_of_ranking(&[0.1, 0.5, 0.9], &[0.0, 1.0, 2.0], 3);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_of_bad_ranking_penalized() {
        let good = ndcg_of_ranking(&[3.0, 2.0, 1.0], &[2.0, 1.0, 0.0], 3);
        let bad = ndcg_of_ranking(&[1.0, 2.0, 3.0], &[2.0, 1.0, 0.0], 3);
        assert!(good > bad);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_scores_panic() {
        let _ = ndcg_of_ranking(&[1.0], &[1.0, 2.0], 2);
    }
}
