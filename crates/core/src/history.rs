//! Storage for historical evaluation sequences.
//!
//! `H_t(x) = [φ_1(x), …, φ_t(x)]` for every pool sample `x`. The paper's
//! efficiency analysis (Table 2) notes that strategies only ever read the
//! last `l` scores, so each sample keeps a fixed ring of `l` slots and
//! memory is `O(l · N)`. A session derives `l` from what its stages read
//! (the history policy's window, the Table 6 diagnostics' window and a
//! learned selector's feature and predictor windows), or sets it to the
//! run's round count when it returns the whole history; nobody sets it.
//!
//! With [`HistoryStore::with_rolling`] the store additionally maintains a
//! [`RollingStats`] tracker per sample — window sum, exponentially
//! weighted sum and variance, updated in O(1) per append — so the
//! WSHS/FHS/HUS folds cost constant time per sample per round instead of
//! rescanning the window (see [`crate::strategy::HistoryPolicy`]).

use histal_tseries::RollingStats;

/// `n` rings of `len` slots in one flat array: sample `id` owns
/// `slots[id * len..][..len]` and its next entry goes to slot
/// `pushed[id] % len`, over the oldest once the ring is full. Slots are
/// reused in place, so a ring of `Vec`s stops allocating once filled.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    len: usize,
    slots: Vec<T>,
    pushed: Vec<usize>,
}

impl<T: Clone + Default> Ring<T> {
    /// `n` empty rings of `len` slots.
    pub(crate) fn new(n: usize, len: usize) -> Self {
        Self {
            len,
            slots: vec![T::default(); n * len],
            pushed: vec![0; n],
        }
    }

    /// The slot for sample `id`'s next entry, which becomes its newest.
    /// Panics if `id` is out of range or the rings have no slots.
    pub(crate) fn push(&mut self, id: usize) -> &mut T {
        let pos = self.pushed[id] % self.len;
        self.pushed[id] += 1;
        &mut self.slots[id * self.len + pos]
    }

    /// Sample `id`'s retained entries, oldest first, as at most two slices.
    pub(crate) fn get(&self, id: usize) -> (&[T], &[T]) {
        let ring = &self.slots[id * self.len..(id + 1) * self.len];
        let pushed = self.pushed[id];
        if pushed <= self.len {
            (&ring[..pushed], &[])
        } else {
            let (back, front) = ring.split_at(pushed % self.len);
            (front, back)
        }
    }
}

/// Per-sample historical evaluation sequences, indexed by pool position:
/// the last `l` scores of each sample (the O(l·N) mode of Table 2).
#[derive(Debug, Clone)]
pub struct HistoryStore {
    seqs: Ring<f64>,
    /// Per-sample rolling trackers (empty unless rolling is enabled).
    rolling: Vec<RollingStats>,
}

impl HistoryStore {
    /// A store for `n_samples` sequences, each retaining its last `l`
    /// scores.
    pub fn new(n_samples: usize, l: usize) -> Self {
        Self {
            seqs: Ring::new(n_samples, l),
            rolling: Vec::new(),
        }
    }

    /// Enable O(1) rolling statistics over the last `window` scores of
    /// every sample. Once a sample has `window` scores, each append
    /// reads the one leaving the window, so the store must retain at
    /// least `window` scores unless fewer are ever appended.
    pub fn with_rolling(mut self, window: usize) -> Self {
        self.rolling = vec![RollingStats::new(window); self.seqs.pushed.len()];
        self
    }

    /// Append this iteration's score for sample `id`. Panics if `id` is
    /// out of range or the store retains nothing.
    pub fn append(&mut self, id: usize, score: f64) {
        if let Some(stats) = self.rolling.get_mut(id) {
            let (front, back) = self.seqs.get(id);
            let evicted = front.iter().chain(back).nth_back(stats.window() - 1);
            stats.push(score, evicted.copied());
        }
        *self.seqs.push(id) = score;
    }

    /// The retained sequence for sample `id` (oldest first).
    pub fn seq(&self, id: usize) -> HistorySeq<'_> {
        let (front, back) = self.seqs.get(id);
        HistorySeq { front, back }
    }

    /// The rolling tracker for sample `id`, if rolling statistics were
    /// enabled with [`Self::with_rolling`].
    pub fn rolling(&self, id: usize) -> Option<&RollingStats> {
        self.rolling.get(id)
    }

    /// Every retained sequence, indexed by sample id.
    pub(crate) fn sequences(&self) -> Vec<Vec<f64>> {
        (0..self.seqs.pushed.len())
            .map(|id| self.seq(id).to_vec())
            .collect()
    }
}

/// Borrowed view of one sample's retained sequence, oldest first.
///
/// The backing ring may wrap, so the view is at most two slices;
/// iterate with `HistorySeq::iter` or materialize with
/// `HistorySeq::copy_into` / [`HistorySeq::to_vec`].
#[derive(Debug, Clone, Copy)]
pub struct HistorySeq<'a> {
    front: &'a [f64],
    back: &'a [f64],
}

impl<'a> HistorySeq<'a> {
    /// Iterate oldest → newest.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = f64> + 'a {
        self.front.iter().chain(self.back.iter()).copied()
    }

    /// Replace `buf`'s contents with the sequence (reusable scratch).
    pub(crate) fn copy_into(&self, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend_from_slice(self.front);
        buf.extend_from_slice(self.back);
    }

    /// The sequence as an owned `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut h = HistoryStore::new(3, 4);
        h.append(1, 0.5);
        h.append(1, 0.7);
        assert_eq!(h.seq(1).to_vec(), [0.5, 0.7]);
        assert!(h.seq(0).to_vec().is_empty());
    }

    #[test]
    fn full_ring_keeps_the_latest_oldest_first() {
        let mut h = HistoryStore::new(2, 3);
        for i in 0..7 {
            h.append(0, i as f64);
            assert_eq!(h.seq(0).to_vec().len(), (i + 1).min(3));
        }
        let seq = h.seq(0);
        assert_eq!(seq.to_vec(), vec![4.0, 5.0, 6.0]);
        let rev: Vec<f64> = seq.iter().rev().collect();
        assert_eq!(rev, vec![6.0, 5.0, 4.0]);
        // The neighbouring ring is untouched.
        assert!(h.seq(1).to_vec().is_empty());
    }

    #[test]
    fn ring_of_vecs_reuses_its_slots() {
        let mut r: Ring<Vec<f64>> = Ring::new(1, 2);
        r.push(0).clone_from(&vec![0.9, 0.1]);
        let first_slot = r.get(0).0[0].as_ptr();
        r.push(0).clone_from(&vec![0.2, 0.8]);
        r.push(0).clone_from(&vec![0.5, 0.5]);
        // The third entry overwrote the first in its own allocation.
        assert_eq!(r.get(0).1[0].as_ptr(), first_slot);
        let (front, back) = r.get(0);
        let seq: Vec<&Vec<f64>> = front.iter().chain(back).collect();
        assert_eq!(seq, [&vec![0.2, 0.8], &vec![0.5, 0.5]]);
    }

    #[test]
    fn sequences_are_indexed_by_sample() {
        let mut h = HistoryStore::new(3, 2);
        h.append(0, 1.0);
        h.append(2, 2.0);
        assert_eq!(h.sequences(), vec![vec![1.0], vec![], vec![2.0]]);
    }

    #[test]
    fn rolling_tracks_its_window_through_a_wrapped_ring() {
        let mut h = HistoryStore::new(1, 2).with_rolling(2);
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.append(0, v);
        }
        let r = h.rolling(0).expect("rolling enabled");
        assert_eq!(r.window(), 2);
        assert_eq!(r.current(), 4.0);
        assert!((r.uniform_sum() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rolling_disabled_by_default() {
        let mut h = HistoryStore::new(2, 1);
        h.append(0, 1.0);
        assert!(h.rolling(0).is_none());
    }

    #[test]
    #[should_panic]
    fn out_of_range_append_panics() {
        let mut h = HistoryStore::new(1, 1);
        h.append(5, 0.0);
    }
}
