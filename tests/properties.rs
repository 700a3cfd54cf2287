//! Property-based tests over the core invariants: interval algebra laws
//! (the soundness basis of Δ-predicate computation), reservoir/merge state
//! invariants, and estimator exactness on population samples.

use laqy::{Interval, IntervalSet, Predicates, Sample, SampleSchema, SlotKind};
use laqy_engine::{AggSpec, GroupKey};
use laqy_sampling::{merge_reservoirs, Lehmer64, Reservoir, StratifiedSampler};
use proptest::prelude::*;

/// Strategy: an arbitrary closed interval within a tame domain.
fn interval() -> impl Strategy<Value = Interval> {
    (-1000i64..1000, 0i64..500).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

/// Strategy: an interval set of up to 5 arbitrary intervals (normalized).
fn interval_set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(interval(), 0..5).prop_map(IntervalSet::from_intervals)
}

proptest! {
    #[test]
    fn normalization_is_canonical(set in interval_set()) {
        // Parts are sorted, disjoint, and non-adjacent.
        let parts = set.intervals();
        for w in parts.windows(2) {
            prop_assert!(w[0].hi + 1 < w[1].lo, "parts must be separated: {w:?}");
        }
        // Re-normalizing is a fixpoint.
        let again = IntervalSet::from_intervals(parts.to_vec());
        prop_assert_eq!(set.clone(), again);
    }

    #[test]
    fn measure_is_additive_over_difference(a in interval_set(), b in interval_set()) {
        // |A| = |A \ B| + |A ∩ B|
        let diff = a.difference(&b);
        let inter = a.intersect(&b);
        prop_assert_eq!(a.measure(), diff.measure() + inter.measure());
    }

    #[test]
    fn delta_laws_hold(query in interval_set(), stored in interval_set()) {
        // Δ = query \ stored never overlaps the stored coverage, and
        // Δ ∪ (query ∩ stored) reconstructs the query exactly — the two
        // properties that make merging unbiased (no double sampling, no
        // gaps).
        let delta = query.difference(&stored);
        prop_assert!(!delta.overlaps(&stored));
        prop_assert_eq!(delta.union(&query.intersect(&stored)), query);
    }

    #[test]
    fn subsumes_iff_difference_empty(a in interval_set(), b in interval_set()) {
        prop_assert_eq!(a.subsumes(&b), b.difference(&a).is_empty());
    }

    #[test]
    fn union_is_commutative_and_idempotent(a in interval_set(), b in interval_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn contains_agrees_with_membership_scan(set in interval_set(), v in -1200i64..1200) {
        let by_scan = set.intervals().iter().any(|iv| iv.contains(v));
        prop_assert_eq!(set.contains(v), by_scan);
    }

    #[test]
    fn intersection_is_lower_bound(a in interval_set(), b in interval_set()) {
        let i = a.intersect(&b);
        prop_assert!(a.subsumes(&i));
        prop_assert!(b.subsumes(&i));
        prop_assert!(i.measure() <= a.measure().min(b.measure()));
    }
}

proptest! {
    #[test]
    fn reservoir_len_and_weight_invariants(
        k in 1usize..50,
        n in 0usize..500,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Lehmer64::new(seed);
        let mut r = Reservoir::new(k);
        for i in 0..n {
            r.offer(i as i64, &mut rng);
        }
        prop_assert_eq!(r.weight(), n as u64);
        prop_assert_eq!(r.len(), k.min(n));
        // Retained items are distinct stream elements.
        let mut items = r.items().to_vec();
        items.sort_unstable();
        items.dedup();
        prop_assert_eq!(items.len(), k.min(n));
    }

    #[test]
    fn merge_weight_is_sum_and_len_bounded(
        k1 in 1usize..30,
        k2 in 1usize..30,
        n1 in 0usize..300,
        n2 in 0usize..300,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Lehmer64::new(seed);
        let mut a = Reservoir::new(k1);
        for i in 0..n1 {
            a.offer(i as i64, &mut rng);
        }
        let mut b = Reservoir::new(k2);
        for i in 0..n2 {
            b.offer(1_000_000 + i as i64, &mut rng);
        }
        let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
        prop_assert_eq!(m.weight(), (n1 + n2) as u64);
        prop_assert!(m.len() <= m.capacity());
        prop_assert!(m.len() as u64 <= m.weight());
        // Every merged item comes from one of the inputs, no duplicates.
        let mut items = m.items().to_vec();
        items.sort_unstable();
        let before = items.len();
        items.dedup();
        prop_assert_eq!(items.len(), before);
        for &x in &items {
            prop_assert!(a.items().contains(&x) || b.items().contains(&x));
        }
    }

    #[test]
    fn merge_of_populations_is_lossless(
        n1 in 0usize..20,
        n2 in 0usize..20,
        seed in 0u64..100_000,
    ) {
        // Both inputs below capacity: the merge must retain everything.
        let k = 64;
        let mut rng = Lehmer64::new(seed);
        let mut a = Reservoir::new(k);
        for i in 0..n1 {
            a.offer(i as i64, &mut rng);
        }
        let mut b = Reservoir::new(k);
        for i in 0..n2 {
            b.offer(100 + i as i64, &mut rng);
        }
        let m = merge_reservoirs(Some(&a), Some(&b), &mut rng);
        prop_assert_eq!(m.len(), n1 + n2);
    }

    #[test]
    fn stratified_sampler_conserves_weight(
        strata in 1i64..20,
        n in 0usize..500,
        k in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Lehmer64::new(seed);
        let mut s: StratifiedSampler<i64, i64> = StratifiedSampler::new(k);
        for i in 0..n {
            s.offer(i as i64 % strata, i as i64, &mut rng);
        }
        prop_assert_eq!(s.total_weight(), n as u64);
        prop_assert!(s.num_strata() as i64 <= strata);
        for (_, items, weight) in s.iter() {
            prop_assert_eq!(items.len(), (weight as usize).min(k));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn estimator_is_exact_on_population_samples(
        groups in 1i64..6,
        per in 1i64..40,
        vals in prop::collection::vec(0i64..1000, 1..240),
    ) {
        // Build a "sample" that retains the whole population; SUM/COUNT/AVG
        // estimates must then equal the exact values with zero CI.
        let schema = SampleSchema::new(vec![("v".into(), SlotKind::Int)]);
        let mut rng = Lehmer64::new(1);
        let mut s = Sample::new(&schema, (per as usize).max(vals.len()) + 1);
        let mut exact: std::collections::HashMap<i64, (f64, u64)> = Default::default();
        for (i, &v) in vals.iter().enumerate() {
            let g = i as i64 % groups;
            s.offer(GroupKey::new(&[g]), &[v], &mut rng);
            let e = exact.entry(g).or_insert((0.0, 0));
            e.0 += v as f64;
            e.1 += 1;
        }
        let ests = laqy::estimate(
            &s,
            &schema,
            &[AggSpec::sum("v"), AggSpec::count(), AggSpec::avg("v")],
            &laqy::EstimateOptions::default(),
        ).unwrap();
        for g in &ests {
            let (sum, count) = exact[&g.key[0]];
            prop_assert!((g.values[0].value - sum).abs() < 1e-9);
            prop_assert_eq!(g.values[0].ci_half_width, 0.0);
            prop_assert!((g.values[1].value - count as f64).abs() < 1e-9);
            prop_assert!((g.values[2].value - sum / count as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tightening_on_population_equals_filtered_exact(
        cut in 0i64..1000,
        vals in prop::collection::vec(0i64..1000, 1..200),
    ) {
        let schema = SampleSchema::new(vec![("v".into(), SlotKind::Int)]);
        let mut rng = Lehmer64::new(2);
        let mut s = Sample::new(&schema, vals.len() + 1);
        for &v in &vals {
            s.offer(GroupKey::new(&[0]), &[v], &mut rng);
        }
        let tighten = Predicates::on("v", IntervalSet::of(Interval::new(0, cut)));
        let opts = laqy::EstimateOptions {
            tighten: Some(&tighten),
        };
        let ests = laqy::estimate(&s, &schema, &[AggSpec::count()], &opts).unwrap();
        let expected = vals.iter().filter(|&&v| v <= cut).count() as f64;
        prop_assert!((ests.get(0).values[0].value - expected).abs() < 1e-9);
    }
}
