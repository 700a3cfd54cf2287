//! Stratified sample merging — paper **Algorithm 3**, generalized k-way.
//!
//! Merging stratified samples is a group-by over the union of their
//! strata keys whose aggregation function is reservoir merging
//! (Algorithm 2): strata present in several inputs merge proportionally;
//! strata present in only one input pass through via the
//! `DefinedReservoir` case. §5.1's merge argument is associative, so the
//! same construction extends from two inputs to `k` — the coverage
//! planner leans on this to combine several stored samples plus several
//! Δ fragments.
//!
//! The primitive is [`StratifiedSampler::absorb`]: one sample takes
//! another in *in place*, one linear pass over the incoming strata. A Δ
//! stratum that is its own complete population — the usual case, a Δ-scan
//! rarely fills a reservoir — simply continues Algorithm R into the
//! stored stratum's slots, so a Δ-merge costs work proportional to the Δ,
//! allocates nothing and leaves every stratum the Δ does not touch alone.
//! The merge functions pick the input to merge into and fold the others
//! over it.

use crate::merge::{merge_sources, MergeScratch, Source};
use crate::rng::Lehmer64;
use crate::stratified::{StratifiedSampler, StratumKey};

impl<K: StratumKey, T: Clone + Default> StratifiedSampler<K, T> {
    /// Merge `other` into this sample in place (Algorithm 3; the capacity
    /// stays this sample's). Strata only `other` holds are appended, in its
    /// order, with their tuples bit-identical; shared strata merge as in
    /// [`crate::merge_reservoirs`].
    ///
    /// Statistical validity requires the two underlying populations to be
    /// disjoint (the §5.1 non-overlap requirement).
    pub fn absorb(&mut self, other: &Self, rng: &mut Lehmer64) {
        let k = self.capacity;
        // Find the shared strata first, so the ones only `other` holds are
        // appended into exactly-sized storage.
        let hits: Vec<Option<usize>> = other.keys().map(|key| self.index_of(key)).collect();
        self.open(hits.iter().filter(|hit| hit.is_none()).count());
        let mut scratch = MergeScratch::default();
        let mut merged: Vec<T> = Vec::new();
        for ((key, items, weight), hit) in other.iter().zip(hits) {
            let i = hit.unwrap_or_else(|| self.stratum_index(key));
            if items.len() < other.capacity && weight == items.len() as u64 {
                // `items` is the stratum's whole population: Algorithm R
                // simply goes on over it.
                self.offer_all_at(i, items, rng);
                continue;
            }
            let sources = [
                Source {
                    items: self.items_at(i),
                    weight: self.weights[i],
                    capacity: k,
                },
                Source {
                    items,
                    weight,
                    capacity: other.capacity,
                },
            ];
            merged.clear();
            self.weights[i] = merge_sources(&sources, k, rng, &mut merged, &mut scratch);
            self.set_items(i, &merged);
        }
    }
}

/// Merge two stratified samples into one whose per-stratum reservoirs
/// are Algorithm-2 merges. The output capacity is the maximum of the two
/// input capacities (`ScaledPropSampling` reconciles unequal sizes).
pub fn merge_stratified<K: StratumKey, T: Clone + Default>(
    a: StratifiedSampler<K, T>,
    b: StratifiedSampler<K, T>,
    rng: &mut Lehmer64,
) -> StratifiedSampler<K, T> {
    merge_stratified_k(vec![a, b], rng)
}

/// Position of the input [`merge_stratified_k`] folds the others into,
/// given each input's
/// `(capacity, strata)`: the largest capacity (the output's), then the
/// most strata (the fewest appends), then the first. The merged sample's
/// strata start with this input's, in its order.
pub fn merge_base(sizes: impl Iterator<Item = (usize, usize)>) -> usize {
    let mut best = None;
    for (i, size) in sizes.enumerate() {
        if best.is_none_or(|(_, largest)| size > largest) {
            best = Some((i, size));
        }
    }
    best.expect("merge of zero stratified samples").0
}

/// `(capacity, strata)` of a merge input.
fn size<K: StratumKey, T>(s: &StratifiedSampler<K, T>) -> (usize, usize) {
    (s.capacity(), s.num_strata())
}

/// Merge `k` stratified samples into one — the k-way Algorithm 3, reusing
/// the largest input's storage: the others are [absorbed] into it in input
/// order. Strata held by a single input come out bit-identical. The key
/// order (the largest input's, then first-seen) and the result are
/// deterministic given the inputs and the RNG seed.
///
/// Statistical validity requires the inputs' underlying populations to be
/// pairwise disjoint (the §5.1 non-overlap requirement) — the coverage
/// planner guarantees this by construction.
///
/// Panics if `inputs` is empty.
///
/// [absorbed]: StratifiedSampler::absorb
pub fn merge_stratified_k<K: StratumKey, T: Clone + Default>(
    mut inputs: Vec<StratifiedSampler<K, T>>,
    rng: &mut Lehmer64,
) -> StratifiedSampler<K, T> {
    let mut out = inputs.remove(merge_base(inputs.iter().map(size)));
    for other in &inputs {
        out.absorb(other, rng);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: i64, n: i64, k: usize, seed: u64, offset: i64) -> StratifiedSampler<i64, i64> {
        let mut rng = Lehmer64::new(seed);
        let mut s = StratifiedSampler::new(k);
        for i in 0..n {
            s.offer(i % keys, offset + i, &mut rng);
        }
        s
    }

    #[test]
    fn union_of_strata_keys() {
        let mut rng = Lehmer64::new(1);
        let a = build(3, 300, 4, 2, 0); // strata 0,1,2
        let mut b = StratifiedSampler::new(4);
        let mut rng_b = Lehmer64::new(3);
        for i in 0..100 {
            b.offer(2 + (i % 3), 10_000 + i, &mut rng_b); // strata 2,3,4
        }
        let m = merge_stratified(a, b, &mut rng);
        assert_eq!(m.num_strata(), 5);
        assert_eq!(m.total_weight(), 400);
    }

    #[test]
    fn disjoint_strata_pass_through_unchanged() {
        let mut rng = Lehmer64::new(4);
        let a = build(2, 200, 5, 5, 0);
        let mut b = StratifiedSampler::new(5);
        let mut rng_b = Lehmer64::new(6);
        for i in 0..50 {
            b.offer(100 + (i % 2), i, &mut rng_b);
        }
        let a_items0: Vec<i64> = a.stratum(&0).unwrap().0.to_vec();
        let m = merge_stratified(a, b, &mut rng);
        let (items0, w0) = m.stratum(&0).unwrap();
        assert_eq!(items0, a_items0.as_slice());
        assert_eq!(w0, 100);
    }

    #[test]
    fn shared_strata_merge_weights() {
        let mut rng = Lehmer64::new(7);
        let a = build(4, 400, 3, 8, 0);
        let b = build(4, 800, 3, 9, 100_000);
        let m = merge_stratified(a, b, &mut rng);
        assert_eq!(m.num_strata(), 4);
        for key in 0..4 {
            let (_, w) = m.stratum(&key).unwrap();
            assert_eq!(w, 100 + 200, "per-stratum weights must add");
        }
    }

    #[test]
    fn unequal_capacities_take_max() {
        let mut rng = Lehmer64::new(10);
        let a = build(2, 1000, 8, 11, 0);
        let b = build(2, 1000, 4, 12, 50_000);
        let m = merge_stratified(a, b, &mut rng);
        assert_eq!(m.capacity(), 8);
        assert_eq!(m.total_weight(), 2000);
    }

    #[test]
    fn merged_stratum_tracks_proportions() {
        // Stratum 0: A considered 9000, B considered 1000 — merged stratum
        // should hold ~90% A items.
        let trials = 800;
        let mut from_a = 0usize;
        let mut total = 0usize;
        for t in 0..trials {
            let mut a = StratifiedSampler::new(10);
            let mut rng_a = Lehmer64::new(20 + t);
            for i in 0..9000 {
                a.offer(0i64, i, &mut rng_a);
            }
            let mut b = StratifiedSampler::new(10);
            let mut rng_b = Lehmer64::new(5000 + t);
            for i in 0..1000 {
                b.offer(0i64, 100_000 + i, &mut rng_b);
            }
            let mut rng = Lehmer64::new(90_000 + t);
            let m = merge_stratified(a, b, &mut rng);
            let (items, w) = m.stratum(&0).unwrap();
            assert_eq!(w, 10_000);
            from_a += items.iter().filter(|&&x| x < 100_000).count();
            total += items.len();
        }
        let frac = from_a as f64 / total as f64;
        assert!(
            (frac - 0.9).abs() < 0.03,
            "stratum merge should track weights, got {frac}"
        );
    }

    #[test]
    fn k_way_strata_union_and_weights() {
        let mut rng = Lehmer64::new(20);
        let parts = vec![
            build(2, 200, 4, 21, 0),       // strata 0,1
            build(3, 300, 4, 22, 10_000),  // strata 0,1,2
            build(4, 400, 4, 23, 100_000), // strata 0..4
        ];
        let m = merge_stratified_k(parts, &mut rng);
        assert_eq!(m.num_strata(), 4);
        assert_eq!(m.total_weight(), 900);
        // Stratum 0 saw 100 + 100 + 100 considered elements.
        let (_, w0) = m.stratum(&0).unwrap();
        assert_eq!(w0, 300);
        // Stratum 3 exists only in the third input.
        let (_, w3) = m.stratum(&3).unwrap();
        assert_eq!(w3, 100);
    }

    #[test]
    fn k_way_passes_single_owner_strata_through() {
        // Stratum 0 is shared by all three inputs, 1 by two, and 5, 6, 7
        // are each held by exactly one input.
        let mut rng = Lehmer64::new(30);
        let mut parts = [
            build(2, 400, 4, 31, 0),
            build(2, 300, 4, 32, 10_000),
            build(1, 100, 4, 33, 20_000),
        ];
        for (i, p) in parts.iter_mut().enumerate() {
            let mut rng_p = Lehmer64::new(40 + i as u64);
            for j in 0..(3 + 40 * i as i64) {
                p.offer(5 + i as i64, 30_000 + j, &mut rng_p);
            }
        }
        let m = merge_stratified_k(parts.to_vec(), &mut rng);
        let order: Vec<i64> = m.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(order, vec![0, 1, 5, 6, 7], "first-seen key order");
        for (i, p) in parts.iter().enumerate() {
            let key = 5 + i as i64;
            assert_eq!(m.stratum(&key), p.stratum(&key), "pass-through {key}");
        }
        assert_eq!(m.stratum(&0).unwrap().1, 200 + 150 + 100);
        assert_eq!(m.stratum(&1).unwrap().1, 200 + 150);
        assert_eq!(
            m.total_weight(),
            parts.iter().map(|p| p.total_weight()).sum()
        );
    }

    #[test]
    fn k_way_matches_chained_pairwise_statistically() {
        // A 3-way merge and a left-fold of pairwise merges are both valid
        // samples of the same union; their per-source compositions must
        // agree in distribution.
        let trials = 600;
        let mut kway_from_a = 0usize;
        let mut chain_from_a = 0usize;
        let mut kway_total = 0usize;
        let mut chain_total = 0usize;
        for t in 0..trials {
            let mk = || {
                vec![
                    build(1, 6000, 10, 50 + t, 0),
                    build(1, 3000, 10, 5000 + t, 100_000),
                    build(1, 1000, 10, 9000 + t, 200_000),
                ]
            };
            let mut rng1 = Lehmer64::new(70_000 + t);
            let m1 = merge_stratified_k(mk(), &mut rng1);
            let mut rng2 = Lehmer64::new(80_000 + t);
            let mut parts = mk().into_iter();
            let first = parts.next().unwrap();
            let m2 = parts.fold(first, |acc, s| merge_stratified(acc, s, &mut rng2));
            for (m, from_a, total) in [
                (&m1, &mut kway_from_a, &mut kway_total),
                (&m2, &mut chain_from_a, &mut chain_total),
            ] {
                let (items, w) = m.stratum(&0).unwrap();
                assert_eq!(w, 10_000);
                *from_a += items.iter().filter(|&&x| x < 100_000).count();
                *total += items.len();
            }
        }
        let kway = kway_from_a as f64 / kway_total as f64;
        let chain = chain_from_a as f64 / chain_total as f64;
        assert!(
            (kway - 0.6).abs() < 0.04,
            "k-way source-A share {kway} should be ~0.6"
        );
        assert!(
            (kway - chain).abs() < 0.05,
            "k-way ({kway}) and chained pairwise ({chain}) merges must agree in distribution"
        );
    }
}
