//! Reservoir merging — paper **Algorithm 2**, generalized k-way.
//!
//! Independent reservoirs `{R_i, w_i}` over pairwise-disjoint inputs merge
//! into `{Rm, Σ w_i}`, statistically equivalent to having run a single
//! reservoir over the union of the original inputs, without touching the
//! original data. The cases follow the paper:
//!
//! - *only a single reservoir defined*: the defined one is the merge result
//!   (`DefinedReservoir`), downsampled uniformly if it exceeds the output
//!   capacity;
//! - *a reservoir array not full*: its items are its complete considered
//!   population, so they are simply offered into the merge of the others
//!   with plain reservoir sampling (`ReservoirSampling`);
//! - *several full reservoirs*: `ProportionalSampling` — a uniform
//!   `k`-subset of the `Σ w_i` union tuples contains `C_i` tuples from
//!   source `i`, with the `C_i` jointly multivariate-hypergeometric, and
//!   conditioned on `C_i` those tuples are a uniform subset of input `i` —
//!   which a uniform `C_i`-subset of `R_i`'s items also is. So: draw the
//!   per-source counts by sequential without-replacement draws at source
//!   granularity, then take uniform subsets of each reservoir's items.
//!   Because the counts are driven by the represented weights rather than
//!   the reservoir sizes, this degrades gracefully to `ScaledPropSampling`
//!   when the `k_i` differ.
//!
//! A drawn count must never exceed its source's retained items, or the
//! merge would have to over-draw from another source and bias the
//! composition. The merged size of the full sources is therefore capped at
//! `min(capacity, min_i |R_i|)`: for the common equal-`k` merge this is the
//! full `k`; for unequal sizes the merge shrinks to the smallest side's
//! support — trading support for unbiasedness exactly as the paper trades
//! support in under-supported strata (§5.2.3).
//!
//! One slice-level routine, [`merge_sources`], implements all of it; the
//! [`Reservoir`] entry points here and the stratified k-way merge
//! ([`crate::stratified_merge`]) both write through it, the latter
//! straight into its output arena.

use crate::reservoir::Reservoir;
use crate::rng::Lehmer64;

/// One merge input: a reservoir's retained items and state, by reference.
pub(crate) struct Source<'a, T> {
    pub items: &'a [T],
    pub weight: u64,
    /// The owning reservoir's capacity (decides "not full").
    pub capacity: usize,
}

impl<'a, T> Source<'a, T> {
    fn of(r: &'a Reservoir<T>) -> Self {
        Self {
            items: r.items(),
            weight: r.weight(),
            capacity: r.capacity(),
        }
    }

    /// Not full and every considered element retained: the items *are*
    /// the input.
    fn is_population(&self) -> bool {
        self.items.len() < self.capacity && self.weight == self.items.len() as u64
    }
}

/// Buffers [`merge_sources`] reuses across calls, so a merge over
/// thousands of strata allocates them once.
#[derive(Default)]
pub(crate) struct MergeScratch {
    remaining: Vec<u64>,
    take: Vec<usize>,
    idx: Vec<u32>,
}

/// Merge `sources` into at most `capacity` items appended to `out`,
/// returning the merged weight `Σ w_i`.
pub(crate) fn merge_sources<T: Clone>(
    sources: &[Source<'_, T>],
    capacity: usize,
    rng: &mut Lehmer64,
    out: &mut Vec<T>,
    scratch: &mut MergeScratch,
) -> u64 {
    let base = out.len();
    let full = || sources.iter().filter(|s| !s.is_population());
    let k = full()
        .map(|s| s.items.len())
        .min()
        .map_or(0, |m| m.min(capacity));
    let mut weight: u64 = full().map(|s| s.weight).sum();
    if full().count() == 1 {
        let s = full().next().expect("one full source");
        uniform_subset(s.items, k, rng, out, &mut scratch.idx);
    } else if k > 0 {
        // Sequential multi-source hypergeometric draw of how many of the
        // k merged slots each source contributes.
        scratch.remaining.clear();
        scratch.remaining.extend(full().map(|s| s.weight));
        scratch.take.clear();
        scratch.take.resize(scratch.remaining.len(), 0);
        for drawn in 0..k as u64 {
            let mut x = rng.next_below(weight - drawn);
            for (t, rem) in scratch.take.iter_mut().zip(scratch.remaining.iter_mut()) {
                if x < *rem {
                    *t += 1;
                    *rem -= 1;
                    break;
                }
                x -= *rem;
            }
        }
        for (s, &t) in full().zip(&scratch.take) {
            uniform_subset(s.items, t, rng, out, &mut scratch.idx);
        }
    }
    // Complete populations continue Algorithm R over the merged prefix.
    for s in sources.iter().filter(|s| s.is_population()) {
        for item in s.items {
            weight += 1;
            if out.len() - base < capacity {
                out.push(item.clone());
            } else {
                let j = rng.next_below(weight) as usize;
                if j < capacity {
                    out[base + j] = item.clone();
                }
            }
        }
    }
    weight
}

/// Append a uniform `count`-subset of `src` to `out` (partial Fisher–Yates
/// over the index scratch array).
fn uniform_subset<T: Clone>(
    src: &[T],
    count: usize,
    rng: &mut Lehmer64,
    out: &mut Vec<T>,
    idx: &mut Vec<u32>,
) {
    debug_assert!(count <= src.len());
    if count == src.len() {
        out.extend_from_slice(src);
        return;
    }
    idx.clear();
    idx.extend(0..src.len() as u32);
    for i in 0..count {
        idx.swap(i, i + rng.next_index(src.len() - i));
        out.push(src[idx[i] as usize].clone());
    }
}

fn merge_to_reservoir<T: Clone>(
    sources: &[Source<'_, T>],
    capacity: usize,
    rng: &mut Lehmer64,
) -> Reservoir<T> {
    let mut items = Vec::with_capacity(capacity.min(sources.iter().map(|s| s.items.len()).sum()));
    let weight = merge_sources(
        sources,
        capacity,
        rng,
        &mut items,
        &mut MergeScratch::default(),
    );
    Reservoir::from_parts(capacity, items, weight)
}

/// Merge two optional reservoirs into one with capacity
/// `max(k1, k2)` (or the defined reservoir's capacity when only one input is
/// defined). See [`merge_reservoirs_with_capacity`] to control the output
/// capacity explicitly.
///
/// Panics if both inputs are `None` — a merge of two undefined reservoirs
/// has no meaningful result and indicates a planning bug upstream.
pub fn merge_reservoirs<T: Clone>(
    r1: Option<&Reservoir<T>>,
    r2: Option<&Reservoir<T>>,
    rng: &mut Lehmer64,
) -> Reservoir<T> {
    let capacity = r1.into_iter().chain(r2).map(|r| r.capacity()).max();
    merge_reservoirs_with_capacity(
        r1,
        r2,
        capacity.expect("merge of two undefined reservoirs"),
        rng,
    )
}

/// Merge two optional reservoirs into one with the given output capacity.
pub fn merge_reservoirs_with_capacity<T: Clone>(
    r1: Option<&Reservoir<T>>,
    r2: Option<&Reservoir<T>>,
    capacity: usize,
    rng: &mut Lehmer64,
) -> Reservoir<T> {
    let sources: Vec<Source<'_, T>> = r1.into_iter().chain(r2).map(Source::of).collect();
    assert!(!sources.is_empty(), "merge of two undefined reservoirs");
    merge_to_reservoir(&sources, capacity, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_reservoir(k: usize, data: std::ops::Range<i64>, seed: u64) -> Reservoir<i64> {
        let mut rng = Lehmer64::new(seed);
        let mut r = Reservoir::new(k);
        for i in data {
            r.offer(i, &mut rng);
        }
        r
    }

    #[test]
    fn merged_weight_is_sum_of_weights() {
        let mut rng = Lehmer64::new(1);
        let a = full_reservoir(10, 0..500, 2);
        let b = full_reservoir(10, 500..1300, 3);
        let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
        assert_eq!(m.weight(), 1300);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn single_defined_reservoir_is_identity() {
        let mut rng = Lehmer64::new(4);
        let a = full_reservoir(8, 0..100, 5);
        let m = merge_reservoirs(Some(&a), None, &mut rng);
        assert_eq!(m, a);
        let m2 = merge_reservoirs(None, Some(&a), &mut rng);
        assert_eq!(m2, a);
    }

    #[test]
    #[should_panic(expected = "undefined reservoirs")]
    fn both_undefined_panics() {
        let mut rng = Lehmer64::new(6);
        let _: Reservoir<i64> = merge_reservoirs(None, None, &mut rng);
    }

    #[test]
    fn not_full_side_streams_into_other() {
        let mut rng = Lehmer64::new(7);
        let a = full_reservoir(10, 0..1000, 8); // full
        let b = full_reservoir(10, 1000..1004, 9); // 4 items, population
        let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
        assert_eq!(m.weight(), 1004);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn two_small_populations_concatenate() {
        let mut rng = Lehmer64::new(10);
        let a = full_reservoir(10, 0..3, 11);
        let b = full_reservoir(10, 3..6, 12);
        let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
        assert_eq!(m.weight(), 6);
        let mut items = m.into_items();
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn merged_items_come_from_inputs_without_duplicates() {
        let mut rng = Lehmer64::new(13);
        let a = full_reservoir(20, 0..5000, 14);
        let b = full_reservoir(20, 5000..9000, 15);
        let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
        let mut items = m.items().to_vec();
        let before = items.len();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), before, "merge must not duplicate items");
        for &x in &items {
            assert!(a.items().contains(&x) || b.items().contains(&x));
        }
    }

    #[test]
    fn proportional_representation_tracks_weights() {
        // R1 represents 9000 tuples, R2 represents 1000: after many merges
        // roughly 90% of merged items should come from R1's input domain.
        let trials = 1500;
        let mut from_a = 0usize;
        let mut total = 0usize;
        for t in 0..trials {
            let a = full_reservoir(20, 0..9000, 100 + t);
            let b = full_reservoir(20, 9000..10_000, 5000 + t);
            let mut rng = Lehmer64::new(9000 + t);
            let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
            from_a += m.items().iter().filter(|&&x| x < 9000).count();
            total += m.len();
        }
        let frac = from_a as f64 / total as f64;
        assert!(
            (frac - 0.9).abs() < 0.03,
            "fraction from R1 {frac} should track w1/(w1+w2) = 0.9"
        );
    }

    #[test]
    fn scaled_prop_sampling_handles_unequal_k() {
        // k1=30 over 3000 tuples, k2=10 over 3000 tuples. Both represent the
        // same input size, so each side should contribute ~half of the
        // merged sample despite unequal reservoir sizes.
        let trials = 1500;
        let mut from_a = 0usize;
        let mut total = 0usize;
        for t in 0..trials {
            let a = full_reservoir(30, 0..3000, 200 + t);
            let b = full_reservoir(10, 3000..6000, 7000 + t);
            let mut rng = Lehmer64::new(40_000 + t);
            let m = merge_reservoirs_with_capacity(Some(&a), Some(&b), 20, &mut rng);
            assert_eq!(m.weight(), 6000);
            // Effective size caps at the smaller side's support (10) so the
            // composition stays unbiased.
            assert_eq!(m.len(), 10);
            from_a += m.items().iter().filter(|&&x| x < 3000).count();
            total += m.len();
        }
        let frac = from_a as f64 / total as f64;
        assert!(
            (frac - 0.5).abs() < 0.03,
            "unequal-k merge should weight by represented input, got {frac}"
        );
    }

    #[test]
    fn merge_equals_full_resample_statistically() {
        // Key property from §5.1: merging two reservoirs over disjoint
        // inputs is statistically equivalent to one reservoir over the
        // union. Compare per-element inclusion frequency of a merged sample
        // against the analytic k/n.
        let k = 10;
        let n = 400; // 0..300 in R1, 300..400 in R2
        let trials = 6000;
        let mut incl_first = 0usize; // element 0 (in R1's domain)
        let mut incl_late = 0usize; // element 399 (in R2's domain)
        for t in 0..trials {
            let a = full_reservoir(k, 0..300, 3 * t + 1);
            let b = full_reservoir(k, 300..400, 3 * t + 2);
            let mut rng = Lehmer64::new(3 * t + 3);
            let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
            if m.items().contains(&0) {
                incl_first += 1;
            }
            if m.items().contains(&399) {
                incl_late += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64; // 150
        for c in [incl_first, incl_late] {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "merged inclusion {c} deviates {dev:.3} from full-resample expectation {expected}"
            );
        }
    }

    #[test]
    fn shrinking_resize_preserves_weight() {
        let mut rng = Lehmer64::new(50);
        let a = full_reservoir(20, 0..100, 51);
        let m = merge_reservoirs_with_capacity(Some(&a), None, 5, &mut rng);
        assert_eq!(m.len(), 5);
        assert_eq!(m.weight(), 100);
        assert_eq!(m.capacity(), 5);
    }
}
