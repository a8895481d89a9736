//! Storage for historical evaluation sequences.
//!
//! `H_t(x) = [φ_1(x), …, φ_t(x)]` for every pool sample `x`. The paper's
//! efficiency analysis (Table 2) notes that strategies only ever read the
//! last `l` scores, so the store can optionally truncate each sequence to
//! a maximum retained length, bounding memory at `O(l · N)`. Sequences
//! are `VecDeque`-backed, so that truncation is an O(1) `pop_front`.
//!
//! With [`HistoryStore::with_rolling`] the store additionally maintains a
//! [`RollingStats`] tracker per sample — window sum, exponentially
//! weighted sum and variance, updated in O(1) per append — so the
//! WSHS/FHS/HUS folds cost constant time per sample per round instead of
//! rescanning the window (see [`crate::strategy::HistoryPolicy`]).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use histal_tseries::RollingStats;

/// Per-sample historical evaluation sequences, indexed by pool position.
/// With a retention cap only the last `max_len` scores are kept (the
/// O(l·N) mode of Table 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryStore {
    seqs: Vec<VecDeque<f64>>,
    /// Maximum retained sequence length; `None` keeps everything.
    max_len: Option<usize>,
    /// Effective rolling-statistics window; `None` disables the trackers.
    #[serde(default)]
    rolling_window: Option<usize>,
    /// Per-sample rolling trackers (empty unless rolling is enabled).
    #[serde(default)]
    rolling: Vec<RollingStats>,
}

impl HistoryStore {
    /// A store for `n_samples` sequences with unbounded retention.
    pub fn new(n_samples: usize) -> Self {
        Self {
            seqs: vec![VecDeque::new(); n_samples],
            max_len: None,
            rolling_window: None,
            rolling: Vec::new(),
        }
    }

    /// A store that retains only the last `max_len` scores per sample —
    /// the `O(l·N)` space mode of Table 2.
    pub fn with_max_len(n_samples: usize, max_len: usize) -> Self {
        assert!(max_len > 0, "retention window must be positive");
        Self {
            seqs: vec![VecDeque::new(); n_samples],
            max_len: Some(max_len),
            rolling_window: None,
            rolling: Vec::new(),
        }
    }

    /// Enable O(1) rolling statistics over the last `window` scores of
    /// every sample. The effective window is clamped to the retention cap
    /// (a capped store never holds more than `max_len` scores, so the
    /// from-scratch fold never sees more either).
    pub fn with_rolling(mut self, window: usize) -> Self {
        assert!(window > 0, "rolling window must be positive");
        let eff = self.max_len.map_or(window, |cap| window.min(cap));
        self.rolling_window = Some(eff);
        self.rolling = vec![RollingStats::new(eff); self.seqs.len()];
        self
    }

    /// Append this iteration's score for sample `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn append(&mut self, id: usize, score: f64) {
        if let Some(window) = self.rolling_window {
            let seq = &self.seqs[id];
            let evicted = (seq.len() >= window).then(|| seq[seq.len() - window]);
            self.rolling[id].push(score, evicted);
        }
        let seq = &mut self.seqs[id];
        seq.push_back(score);
        if let Some(cap) = self.max_len {
            if seq.len() > cap {
                seq.pop_front();
            }
        }
    }

    /// The retained sequence for sample `id` (oldest first).
    pub fn seq(&self, id: usize) -> HistorySeq<'_> {
        let (front, back) = self.seqs[id].as_slices();
        HistorySeq { front, back }
    }

    /// The rolling tracker for sample `id`, if rolling statistics were
    /// enabled with [`Self::with_rolling`].
    pub fn rolling(&self, id: usize) -> Option<&RollingStats> {
        self.rolling.get(id)
    }

    /// All non-empty sequences, cloned — training corpus for the LHS
    /// next-score predictor.
    pub(crate) fn non_empty_sequences(&self) -> Vec<Vec<f64>> {
        self.seqs
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.iter().copied().collect())
            .collect()
    }

    /// Consume the store, returning every sequence indexed by sample id.
    pub(crate) fn into_sequences(self) -> Vec<Vec<f64>> {
        self.seqs
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect()
    }
}

/// Borrowed view of one sample's retained sequence, oldest first.
///
/// The backing ring buffer may wrap, so the view is at most two slices;
/// iterate with `HistorySeq::iter` or materialize with
/// `HistorySeq::copy_into` / [`HistorySeq::to_vec`].
#[derive(Debug, Clone, Copy)]
pub struct HistorySeq<'a> {
    front: &'a [f64],
    back: &'a [f64],
}

impl<'a> HistorySeq<'a> {
    /// Number of retained scores.
    pub(crate) fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

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
        let mut out = Vec::with_capacity(self.len());
        self.copy_into(&mut out);
        out
    }
}

impl PartialEq<[f64]> for HistorySeq<'_> {
    fn eq(&self, other: &[f64]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<[f64; N]> for HistorySeq<'_> {
    fn eq(&self, other: &[f64; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<&[f64]> for HistorySeq<'_> {
    fn eq(&self, other: &&[f64]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<f64>> for HistorySeq<'_> {
    fn eq(&self, other: &Vec<f64>) -> bool {
        *self == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut h = HistoryStore::new(3);
        h.append(1, 0.5);
        h.append(1, 0.7);
        assert_eq!(h.seq(1), [0.5, 0.7]);
        assert_eq!(h.seq(0).len(), 0);
    }

    #[test]
    fn retention_caps_length_keeping_latest() {
        let mut h = HistoryStore::with_max_len(1, 3);
        for i in 0..5 {
            h.append(0, i as f64);
        }
        assert_eq!(h.seq(0), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut h = HistoryStore::new(1);
        for i in 0..100 {
            h.append(0, i as f64);
        }
        assert_eq!(h.seq(0).len(), 100);
    }

    #[test]
    fn non_empty_sequences_skips_empty() {
        let mut h = HistoryStore::new(3);
        h.append(0, 1.0);
        h.append(2, 2.0);
        let seqs = h.non_empty_sequences();
        assert_eq!(seqs.len(), 2);
    }

    #[test]
    fn rolling_tracks_capped_window() {
        // Retention cap 2 < requested window 5 → effective window 2.
        let mut h = HistoryStore::with_max_len(1, 2).with_rolling(5);
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
        let mut h = HistoryStore::new(2);
        h.append(0, 1.0);
        assert!(h.rolling(0).is_none());
    }

    #[test]
    fn wrapped_ring_reads_in_order() {
        let mut h = HistoryStore::with_max_len(1, 3);
        for i in 0..7 {
            h.append(0, i as f64);
        }
        let seq = h.seq(0);
        assert_eq!(seq.to_vec(), vec![4.0, 5.0, 6.0]);
        let rev: Vec<f64> = seq.iter().rev().collect();
        assert_eq!(rev, vec![6.0, 5.0, 4.0]);
    }

    #[test]
    fn serializes_as_plain_sequences() {
        let mut h = HistoryStore::with_max_len(1, 2);
        for i in 0..4 {
            h.append(0, i as f64);
        }
        let json = serde_json::to_string(&h).expect("serializes");
        assert!(
            json.contains("[[2.0,3.0]]") || json.contains("[[2,3]]"),
            "VecDeque must serialize as a plain sequence: {json}"
        );
        let back: HistoryStore = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back.seq(0), [2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_append_panics() {
        let mut h = HistoryStore::new(1);
        h.append(5, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_retention_panics() {
        let _ = HistoryStore::with_max_len(1, 0);
    }
}
