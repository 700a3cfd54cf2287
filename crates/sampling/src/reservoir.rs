//! Single-reservoir sampling with mergeable state.
//!
//! A [`Reservoir`] holds up to `k` sampled items plus the running *weight*
//! `w` — the number of elements considered so far (each qualifying input
//! element has importance weight one, paper §5.1). The `(R, w)` pair is the
//! complete state needed both to continue sampling and to merge reservoirs
//! later without touching the original input.

use crate::rng::Lehmer64;

/// A fixed-capacity uniform reservoir sample with Algorithm-R admission.
///
/// Invariants (checked by property tests):
/// - `len() == min(capacity, weight)` — until the reservoir fills, every
///   considered element is retained.
/// - `weight()` equals exactly the number of `offer` calls (plus weights
///   carried in via merging).
///
/// ```
/// use laqy_sampling::{Lehmer64, Reservoir};
///
/// let mut rng = Lehmer64::new(42);
/// let mut reservoir = Reservoir::new(8);
/// for item in 0..1000 {
///     reservoir.offer(item, &mut rng);
/// }
/// assert_eq!(reservoir.len(), 8);        // k retained...
/// assert_eq!(reservoir.weight(), 1000);  // ...representing 1000 considered
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir<T> {
    capacity: usize,
    /// Sampled items. Kept behind a `Vec` (pointer + len + cap) so the
    /// admission-control state a stratified sampler touches per tuple stays
    /// small, mirroring the paper's decoupling of admission state from
    /// reservoir storage (§4.1, §6.3).
    items: Vec<T>,
    /// Number of elements considered so far (running sum of unit importance
    /// weights).
    weight: u64,
}

impl<T> Reservoir<T> {
    /// Create an empty reservoir with capacity `k`. `k` must be nonzero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be nonzero");
        Self {
            capacity,
            items: Vec::new(),
            weight: 0,
        }
    }

    /// Reconstruct a reservoir from parts (used by merging and by sample
    /// stores that deserialize state). `items.len()` must not exceed
    /// `capacity`, and `weight` must be at least `items.len()`.
    pub fn from_parts(capacity: usize, items: Vec<T>, weight: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be nonzero");
        assert!(items.len() <= capacity, "more items than capacity");
        assert!(
            weight >= items.len() as u64,
            "weight smaller than item count"
        );
        Self {
            capacity,
            items,
            weight,
        }
    }

    /// Maximum number of retained items.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of retained items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of elements considered so far.
    #[inline]
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Sampled items.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consume the reservoir, returning its items.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Consider one element for inclusion (Algorithm R).
    ///
    /// While the reservoir is not full the element is always retained. Once
    /// full, the element replaces a uniformly random slot with probability
    /// `capacity / weight`.
    #[inline]
    pub fn offer(&mut self, item: T, rng: &mut Lehmer64) {
        self.weight += 1;
        if self.items.len() < self.capacity {
            // Reserve the full capacity on first use so admission never
            // reallocates mid-stream.
            if self.items.is_empty() {
                self.items.reserve_exact(self.capacity);
            }
            self.items.push(item);
        } else {
            let j = rng.next_below(self.weight);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Approximate heap footprint in bytes (items only), used by budgeted
    /// sample stores.
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_capacity_keeps_everything() {
        let mut rng = Lehmer64::new(1);
        let mut r = Reservoir::new(10);
        for i in 0..7 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.len(), 7);
        assert_eq!(r.weight(), 7);
        assert_eq!(r.items(), &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn at_capacity_len_is_bounded() {
        let mut rng = Lehmer64::new(2);
        let mut r = Reservoir::new(5);
        for i in 0..1000 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.weight(), 1000);
        // All retained items must come from the offered stream.
        for &x in r.items() {
            assert!((0..1000).contains(&x));
        }
    }

    #[test]
    fn retained_items_are_distinct_positions() {
        // Offering distinct values must never duplicate a value: each slot
        // replacement overwrites, and each stream element is offered once.
        let mut rng = Lehmer64::new(3);
        let mut r = Reservoir::new(8);
        for i in 0..500 {
            r.offer(i, &mut rng);
        }
        let mut v = r.items().to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        // Every stream element should end up in the reservoir with
        // probability k/n. Run many trials and chi-square the inclusion
        // counts of a few tracked positions (early, middle, late).
        let k = 10;
        let n = 200;
        let trials = 4000;
        let mut counts = [0usize; 3];
        let tracked = [0usize, n / 2, n - 1];
        for t in 0..trials {
            let mut rng = Lehmer64::new(1000 + t as u64);
            let mut r = Reservoir::new(k);
            for i in 0..n {
                r.offer(i, &mut rng);
            }
            for (ci, &pos) in tracked.iter().enumerate() {
                if r.items().contains(&pos) {
                    counts[ci] += 1;
                }
            }
        }
        // p = k/n = 0.05; sigma = sqrt(trials * p * (1 - p)) ~ 13.8.
        let expected = trials as f64 * k as f64 / n as f64; // 200
        let p = k as f64 / n as f64;
        let sigma = (trials as f64 * p * (1.0 - p)).sqrt();
        for (ci, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 4.5 * sigma,
                "position {} inclusion count {} too far from expected {} (sigma {:.1})",
                tracked[ci],
                c,
                expected,
                sigma
            );
        }
    }

    #[test]
    fn from_parts_roundtrip() {
        let r = Reservoir::from_parts(4, vec![1, 2, 3], 17);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.len(), 3);
        assert_eq!(r.weight(), 17);
    }

    #[test]
    #[should_panic(expected = "more items than capacity")]
    fn from_parts_rejects_overfull() {
        let _ = Reservoir::from_parts(2, vec![1, 2, 3], 3);
    }

    #[test]
    #[should_panic(expected = "weight smaller than item count")]
    fn from_parts_rejects_bad_weight() {
        let _ = Reservoir::from_parts(4, vec![1, 2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _: Reservoir<i32> = Reservoir::new(0);
    }
}
