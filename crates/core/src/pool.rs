//! The first-class labeled/unlabeled pool partition.
//!
//! [`Pool`] owns the id space of a run: every pool sample has a stable
//! [`SampleId`] (its index in the sample vector handed to the session
//! builder), and the pool maintains the labeled/unlabeled partition
//! *incrementally* as batches are annotated — replacing the per-round
//! `(0..n).filter(|i| !is_labeled[i])` rebuild and the `Vec<bool>` mask
//! that used to be scattered through the driver loop.
//!
//! ## Ordering contract
//!
//! Both sides of the partition have a documented, test-pinned order,
//! because downstream stages depend on it:
//!
//! * [`Pool::unlabeled`] is **ascending by id**. The driver iterates it
//!   to draw per-sample RNG values, to subsample the density reference
//!   set, and to break top-k ties toward the lower position — all three
//!   observe the iteration order, so it must equal the order the old
//!   mask-filter rebuild produced. Labeling a batch therefore compacts
//!   the sorted vector in place (one `O(|U|)` sweep, no allocation)
//!   instead of swap-removing, which would scramble it.
//! * [`Pool::labeled`] is **labeling order**: the initial random set in
//!   draw order, then each selected batch in selection order. Model
//!   fitting consumes the labeled set in this order, and training is
//!   order-sensitive (SGD shuffles from it deterministically).
//!
//! The partition invariants (disjoint, exhaustive, order as documented)
//! are property-tested against a naive mask-filter oracle in
//! `tests/pool_props.rs`.

/// Stable identifier of a pool sample: its index in the sample vector
/// the session was built with. Ids never move or get reused; only the
/// labeled/unlabeled side a given id is on changes.
pub type SampleId = usize;

/// Incrementally maintained labeled/unlabeled partition over a fixed id
/// space `0..len`.
///
/// ```
/// use histal_core::pool::Pool;
/// let mut pool = Pool::new(5);
/// pool.label_batch(&[3, 1]);
/// assert_eq!(pool.labeled(), &[3, 1]);        // labeling order
/// assert_eq!(pool.unlabeled(), &[0, 2, 4]);   // ascending by id
/// assert!(pool.is_labeled(3));
/// ```
#[derive(Debug, Clone)]
pub struct Pool {
    /// `mask[id]` ⇔ `id` is labeled.
    mask: Vec<bool>,
    /// Unlabeled ids, ascending.
    unlabeled: Vec<SampleId>,
    /// Labeled ids, in labeling order.
    labeled: Vec<SampleId>,
}

impl Pool {
    /// A pool of `n` samples, all unlabeled.
    pub fn new(n: usize) -> Self {
        Self {
            mask: vec![false; n],
            unlabeled: (0..n).collect(),
            labeled: Vec::new(),
        }
    }

    /// Number of labeled samples.
    pub fn n_labeled(&self) -> usize {
        self.labeled.len()
    }

    /// Number of unlabeled samples.
    pub fn n_unlabeled(&self) -> usize {
        self.unlabeled.len()
    }

    /// Whether `id` is on the labeled side.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn is_labeled(&self, id: SampleId) -> bool {
        self.mask[id]
    }

    /// The unlabeled ids, ascending. See the module docs for why the
    /// order is load-bearing.
    pub fn unlabeled(&self) -> &[SampleId] {
        &self.unlabeled
    }

    /// The labeled ids, in labeling order (initial set first, then each
    /// annotated batch in selection order).
    pub fn labeled(&self) -> &[SampleId] {
        &self.labeled
    }

    /// Move `ids` to the labeled side, appending them to
    /// [`Pool::labeled`] in the given order. The unlabeled side is
    /// compacted with a single in-place sweep, preserving ascending
    /// order without rebuilding or reallocating.
    ///
    /// # Panics
    /// Panics if any id is out of range or already labeled (a sample
    /// cannot be annotated twice).
    pub fn label_batch(&mut self, ids: &[SampleId]) {
        for &id in ids {
            assert!(!self.mask[id], "sample {id} labeled twice");
            self.mask[id] = true;
            self.labeled.push(id);
        }
        let mask = &self.mask;
        self.unlabeled.retain(|&id| !mask[id]);
    }

    /// Move one id to the labeled side.
    pub fn label(&mut self, id: SampleId) {
        self.label_batch(std::slice::from_ref(&id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_unlabeled() {
        let pool = Pool::new(4);
        assert_eq!(pool.n_labeled(), 0);
        assert_eq!(pool.unlabeled(), &[0, 1, 2, 3]);
        assert!(!pool.is_labeled(2));
    }

    #[test]
    fn label_batch_keeps_both_orders() {
        let mut pool = Pool::new(6);
        pool.label_batch(&[4, 0]);
        pool.label_batch(&[2]);
        assert_eq!(pool.labeled(), &[4, 0, 2]);
        assert_eq!(pool.unlabeled(), &[1, 3, 5]);
        assert_eq!(pool.n_unlabeled(), 3);
    }

    #[test]
    fn empty_pool() {
        let mut pool = Pool::new(0);
        assert_eq!(pool.n_unlabeled(), 0);
        pool.label_batch(&[]);
        assert!(pool.unlabeled().is_empty());
    }

    #[test]
    #[should_panic(expected = "labeled twice")]
    fn double_label_panics() {
        let mut pool = Pool::new(3);
        pool.label(1);
        pool.label(1);
    }
}
