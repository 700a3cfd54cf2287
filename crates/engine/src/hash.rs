//! Fast hashing for integer-keyed group-by and joins.
//!
//! Group-by and stratified sampling share the same random-access pattern
//! keyed by the grouping/stratification columns (paper §7.1); a fast
//! integer hasher keeps the per-tuple cost where the paper's JIT engine has
//! it. Hand-rolled Fx-style hasher to avoid an external dependency.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Fx-style 64-bit hasher.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Maximum number of grouping / stratification key columns.
pub const MAX_KEY_COLS: usize = 4;

/// A compact, copyable composite group key of up to [`MAX_KEY_COLS`] i64
/// parts. Unused slots are zero so the derived `Eq`/`Ord` over the full
/// array are consistent with [`GroupKey::parts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    vals: [i64; MAX_KEY_COLS],
    len: u8,
}

/// Hashes the live parts only: one multiply-rotate round per key column
/// (a one-column key is a single round, not the six a derive over the
/// padded array, its length prefix and `len` would spend). Keys equal
/// under `Eq` have equal parts, so `Hash` stays consistent with it.
impl Hash for GroupKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &part in self.parts() {
            state.write_i64(part);
        }
    }
}

impl GroupKey {
    /// Build from key parts; panics if more than [`MAX_KEY_COLS`] parts.
    #[inline]
    pub fn new(parts: &[i64]) -> Self {
        assert!(parts.len() <= MAX_KEY_COLS, "too many key columns");
        let mut vals = [0i64; MAX_KEY_COLS];
        vals[..parts.len()].copy_from_slice(parts);
        Self {
            vals,
            len: parts.len() as u8,
        }
    }

    /// Key parts.
    #[inline]
    pub fn parts(&self) -> &[i64] {
        &self.vals[..self.len as usize]
    }

    /// Number of key parts.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty (keyless) key, used for global aggregation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn group_key_roundtrip() {
        let k = GroupKey::new(&[1, -2, 3]);
        assert_eq!(k.parts(), &[1, -2, 3]);
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
    }

    #[test]
    fn group_key_equality_ignores_slack() {
        let a = GroupKey::new(&[5]);
        let b = GroupKey::new(&[5]);
        assert_eq!(a, b);
        let c = GroupKey::new(&[5, 0]);
        // Same padded array but different length ⇒ different key.
        assert_ne!(a, c);
    }

    #[test]
    fn hash_covers_exactly_the_live_parts() {
        let bh = FxBuildHasher::default();
        let mut one_round = FxHasher::default();
        one_round.write_i64(5);
        assert_eq!(bh.hash_one(GroupKey::new(&[5])), one_round.finish());
        // Unequal keys sharing a padded array still hash apart.
        assert_ne!(
            bh.hash_one(GroupKey::new(&[5])),
            bh.hash_one(GroupKey::new(&[5, 0]))
        );
        assert_eq!(
            bh.hash_one(GroupKey::new(&[1, -2, 3])),
            bh.hash_one(GroupKey::new(&[1, -2, 3]))
        );
    }

    #[test]
    fn empty_key_for_global_agg() {
        let k = GroupKey::new(&[]);
        assert!(k.is_empty());
        assert_eq!(k, GroupKey::new(&[]));
    }

    #[test]
    #[should_panic(expected = "too many key columns")]
    fn too_many_parts_panics() {
        let _ = GroupKey::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn hasher_distributes_small_ints() {
        // Sanity: hashing 0..1000 into 64 buckets should not collapse into
        // a few buckets.
        let bh = FxBuildHasher::default();
        let mut buckets = vec![0usize; 64];
        for i in 0..1000i64 {
            let h = bh.hash_one(GroupKey::new(&[i]));
            buckets[(h % 64) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 100, "bucket skew too high: {max}");
    }
}
