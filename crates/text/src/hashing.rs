//! The signed feature-hashing trick.
//!
//! The paper's text models embed an open vocabulary (Table 3 reports 9k–21k
//! types per dataset) into a fixed-width parameter matrix. We reproduce that
//! with feature hashing: token → FNV-1a 64-bit hash → bucket index, with a
//! second bit of the hash providing a ±1 sign that keeps the inner products
//! unbiased (Weinberger et al., 2009).

use crate::sparse::SparseVec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a byte string. Deterministic across runs and platforms,
/// which keeps experiments reproducible (unlike `DefaultHasher`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes string features into a fixed number of signed buckets.
///
/// ```
/// use histal_text::FeatureHasher;
/// let hasher = FeatureHasher::new(1 << 16);
/// let v = hasher.hash_bag_normalized(["great", "movie", "great"]);
/// assert!((v.norm() - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct FeatureHasher {
    n_buckets: u32,
    /// Mixed into the hash so different feature *namespaces* (e.g. unigram
    /// vs. bigram vs. CRF emission template) do not collide systematically.
    namespace_salt: u64,
}

impl FeatureHasher {
    /// Create a hasher with `n_buckets` output dimensions.
    ///
    /// # Panics
    /// Panics if `n_buckets == 0`.
    pub fn new(n_buckets: u32) -> Self {
        Self::with_namespace(n_buckets, 0)
    }

    /// Create a hasher whose outputs are decorrelated from hashers with a
    /// different `namespace` value.
    pub(crate) fn with_namespace(n_buckets: u32, namespace: u64) -> Self {
        assert!(n_buckets > 0, "feature hasher needs at least one bucket");
        Self {
            n_buckets,
            namespace_salt: namespace.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Bucket index and sign for one feature string.
    pub fn bucket(&self, feature: &str) -> (u32, f32) {
        let h = fnv1a(feature.as_bytes()) ^ self.namespace_salt;
        let idx = (h % self.n_buckets as u64) as u32;
        // Use a high bit (independent of the low bits used for the index)
        // for the sign.
        let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        (idx, sign)
    }

    /// Hash a bag of features into a sparse vector, summing signed
    /// collisions. `value` is the weight each feature contributes (1.0 for
    /// plain counts).
    pub fn hash_bag<'a, I>(&self, features: I) -> SparseVec
    where
        I: IntoIterator<Item = &'a str>,
    {
        let pairs: Vec<(u32, f32)> = features.into_iter().map(|f| self.bucket(f)).collect();
        SparseVec::from_pairs(pairs)
    }

    /// Hash a bag and L2-normalize the result, a cheap stand-in for the
    /// length normalization TextCNN gets from pooling.
    pub fn hash_bag_normalized<'a, I>(&self, features: I) -> SparseVec
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut v = self.hash_bag(features);
        let n = v.norm();
        if n > 0.0 {
            v.scale((1.0 / n) as f32);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        // Reference vectors for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn bucket_is_deterministic_and_in_range() {
        let h = FeatureHasher::new(128);
        let (i1, s1) = h.bucket("hello");
        let (i2, s2) = h.bucket("hello");
        assert_eq!((i1, s1), (i2, s2));
        assert!(i1 < 128);
        assert!(s1 == 1.0 || s1 == -1.0);
    }

    #[test]
    fn namespaces_decorrelate() {
        let a = FeatureHasher::with_namespace(1 << 16, 1);
        let b = FeatureHasher::with_namespace(1 << 16, 2);
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let same = words
            .iter()
            .filter(|w| a.bucket(w).0 == b.bucket(w).0)
            .count();
        assert!(
            same < words.len(),
            "all buckets identical across namespaces"
        );
    }

    #[test]
    fn hash_bag_counts_duplicates() {
        let h = FeatureHasher::new(1 << 12);
        let v = h.hash_bag(["x", "x", "y"]);
        // "x" appears twice: its bucket must carry weight ±2.
        let (xi, xs) = h.bucket("x");
        let found = v.iter().find(|&(i, _)| i == xi).expect("x bucket present");
        assert!((found.1 - 2.0 * xs).abs() < 1e-6);
    }

    #[test]
    fn normalized_bag_has_unit_norm() {
        let h = FeatureHasher::new(1 << 12);
        let v = h.hash_bag_normalized(["a", "b", "c"]);
        assert!((v.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_bag_is_empty_vec() {
        let h = FeatureHasher::new(16);
        assert!(h.hash_bag(std::iter::empty()).is_empty());
        assert!(h.hash_bag_normalized(std::iter::empty()).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = FeatureHasher::new(0);
    }
}
