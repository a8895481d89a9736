//! Query-grouped ranking datasets.

/// One query group: a set of documents (feature rows) with graded
/// relevance labels, to be ranked against each other.
#[derive(Debug, Clone, Default)]
pub struct QueryGroup {
    /// One feature vector per document; all rows must share a width.
    pub features: Vec<Vec<f64>>,
    /// Graded relevance per document (0 = irrelevant; higher = better).
    pub relevance: Vec<f64>,
}

impl QueryGroup {
    /// Build a group, validating shape.
    ///
    /// # Panics
    /// Panics if `features` and `relevance` lengths differ or rows have
    /// inconsistent widths.
    pub fn new(features: Vec<Vec<f64>>, relevance: Vec<f64>) -> Self {
        assert_eq!(
            features.len(),
            relevance.len(),
            "feature rows and relevance labels must align"
        );
        if let Some(first) = features.first() {
            let w = first.len();
            assert!(
                features.iter().all(|r| r.len() == w),
                "all feature rows in a group must have the same width"
            );
        }
        Self {
            features,
            relevance,
        }
    }

    /// Number of documents.
    pub(crate) fn len(&self) -> usize {
        self.relevance.len()
    }

    /// True when the group has no documents.
    pub(crate) fn is_empty(&self) -> bool {
        self.relevance.is_empty()
    }

    /// True when every document has the same relevance (no learnable
    /// ordering signal).
    pub(crate) fn is_degenerate(&self) -> bool {
        self.relevance
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < f64::EPSILON)
    }
}

/// A collection of query groups plus the shared feature width.
#[derive(Debug, Clone, Default)]
pub struct RankingDataset {
    pub groups: Vec<QueryGroup>,
}

impl RankingDataset {
    /// Create an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a group, skipping empty ones.
    pub fn push(&mut self, group: QueryGroup) {
        if !group.is_empty() {
            self.groups.push(group);
        }
    }

    /// Total number of documents across groups.
    pub(crate) fn n_docs(&self) -> usize {
        self.groups.iter().map(QueryGroup::len).sum()
    }

    /// Feature width, or 0 for an empty dataset.
    pub(crate) fn n_features(&self) -> usize {
        self.groups
            .iter()
            .find_map(|g| g.features.first().map(Vec::len))
            .unwrap_or(0)
    }

    /// Groups that actually carry an ordering signal.
    pub(crate) fn trainable_groups(&self) -> impl Iterator<Item = &QueryGroup> {
        self.groups.iter().filter(|g| !g.is_degenerate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_alignment() {
        let g = QueryGroup::new(vec![vec![1.0], vec![2.0]], vec![0.0, 1.0]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = QueryGroup::new(vec![vec![1.0]], vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn ragged_rows_panic() {
        let _ = QueryGroup::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 1.0]);
    }

    #[test]
    fn degenerate_detection() {
        let flat = QueryGroup::new(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]);
        assert!(flat.is_degenerate());
        let graded = QueryGroup::new(vec![vec![1.0], vec![2.0]], vec![0.0, 2.0]);
        assert!(!graded.is_degenerate());
    }

    #[test]
    fn dataset_skips_empty_groups_and_counts() {
        let mut ds = RankingDataset::new();
        ds.push(QueryGroup::default());
        ds.push(QueryGroup::new(vec![vec![1.0, 2.0]], vec![1.0]));
        assert_eq!(ds.groups.len(), 1);
        assert_eq!(ds.n_docs(), 1);
        assert_eq!(ds.n_features(), 2);
    }

    #[test]
    fn trainable_groups_filters_degenerate() {
        let mut ds = RankingDataset::new();
        ds.push(QueryGroup::new(vec![vec![0.0], vec![1.0]], vec![1.0, 1.0]));
        ds.push(QueryGroup::new(vec![vec![0.0], vec![1.0]], vec![0.0, 1.0]));
        assert_eq!(ds.trainable_groups().count(), 1);
    }
}
