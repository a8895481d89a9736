//! Small numeric helpers: percentiles, interval unions and digests.

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Total length of the union of half-open intervals `[start, end)`.
/// Overlapping intervals (eval work on several threads at once) count
/// once, which keeps a parent's self time from going negative.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// FNV-1a, 64-bit: the digest every workload prints for its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest as a number.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        // Two threads' eval spans overlapping inside one run.
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(20, 30), (0, 10), (5, 8)]), 20);
        // Touching intervals merge; empty ones add nothing.
        assert_eq!(union_len(&[(0, 5), (5, 9), (12, 12)]), 9);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let mut a = Fnv::default();
        a.write_u64(1);
        let mut b = Fnv::default();
        b.write_u64(256);
        assert_ne!(a, b);
    }
}
