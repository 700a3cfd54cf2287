//! Stress tests for several query families sharing one sample store.
//!
//! The concurrent-service battery (see `concurrent_service.rs`) runs one
//! q1 family. This suite re-runs those invariants with four families on
//! the one store behind its one lock: q1 at four reservoir capacities `k`,
//! whose descriptor fingerprints differ, hammered by 8 client threads at
//! once. On top of the original invariants — CLT-bounded estimates, no
//! duplicate descriptors, oracle-replay coverage equality, exactly-once
//! Δ-scans — it checks that families never cross-wire:
//!
//! - the byte budget holds for the whole store under concurrent insertion
//!   by four families (or the store is down to its one-sample floor);
//! - two families dedup their in-flight scans independently in the one
//!   registry;
//! - two clients per family coverage-planning over fragmented families
//!   neither deadlock nor double-claim a residual fragment.
//!
//! The `k`s are literals, so the workload is the same on every commit.

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;
use std::time::Duration;

use laqy::{
    save_store, ApproxResult, Interval, IntervalSet, LaqyService, ReuseClass, SampleStore,
    SessionConfig,
};
use laqy_engine::{Catalog, QueryResult, Value};
use laqy_workload::{generate, q1, SsbConfig};

/// The four families' reservoir capacities.
const KS: [usize; 4] = [16, 24, 32, 40];

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 10;

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.005, // 30k fact rows
        seed: 0xC0C0,
    })
}

fn config(budget: Option<usize>) -> SessionConfig {
    SessionConfig {
        threads: 1, // client threads are the parallelism under test
        seed: 0x5EED,
        store_budget_bytes: budget,
        ..Default::default()
    }
}

/// Deterministic, heavily overlapping range for client `t`, query `j`.
fn range_for(n: i64, t: usize, j: usize) -> Interval {
    let lo = ((t * 3 + j * 5) % 8) as i64 * n / 10;
    let hi = (lo + n / 4 + ((t + j) % 3) as i64 * n / 10).min(n - 1);
    Interval::new(lo, hi)
}

/// Every estimate must sit within a generous multiple of its 95% CI of
/// the exact value (6σ-ish; double-counted merges blow this).
fn assert_within_clt_bound(range: Interval, result: &ApproxResult, exact: &QueryResult) {
    for g in &result.groups {
        let est = &g.values[0];
        if est.support == 0 || !est.ci_half_width.is_finite() || est.ci_half_width <= 0.0 {
            continue;
        }
        let Some(truth) = exact.row_by_key(&[Value::Int(g.key[0])]) else {
            continue;
        };
        let err = (est.value - truth.values[0]).abs();
        assert!(
            err <= 6.0 * est.ci_half_width + 1e-6,
            "estimate for group {:?} on range {range:?} off by {err}, \
             CI half-width {} (reuse {:?})",
            g.key,
            est.ci_half_width,
            result.stats.reuse,
        );
    }
}

/// Union of stored `lo_intkey` coverage for one k-family.
fn family_coverage(store: &SampleStore, k: usize) -> IntervalSet {
    let mut union = IntervalSet::empty();
    for (_, d) in store.descriptors() {
        if d.k == k {
            union = union.union(d.predicates.get("lo_intkey").expect("q1 range column"));
        }
    }
    union
}

/// Hammer one service from `THREADS` clients, thread `t` querying the
/// family `ks[t % ks.len()]`; returns every (k, range, result).
fn hammer(service: &LaqyService, n: i64, ks: &[usize]) -> Vec<(usize, Interval, ApproxResult)> {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = service.clone();
                let barrier = &barrier;
                let k = ks[t % ks.len()];
                scope.spawn(move || {
                    barrier.wait();
                    (0..QUERIES_PER_THREAD)
                        .map(|j| {
                            let range = range_for(n, t, j);
                            let result = service.run(&q1(range, k)).expect("query");
                            (k, range, result)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

#[test]
fn sharded_stress_preserves_store_invariants_per_family() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = KS;
    let service = LaqyService::with_config(cat.clone(), config(None));

    let outcomes = hammer(&service, n, &ks);
    assert_eq!(outcomes.len(), THREADS * QUERIES_PER_THREAD);
    assert_eq!(
        service.stats().queries,
        (THREADS * QUERIES_PER_THREAD) as u64
    );

    // Exact oracle per distinct range (truth is k-independent).
    let mut exact: HashMap<(i64, i64), QueryResult> = HashMap::new();
    for (k, range, _) in &outcomes {
        exact
            .entry((range.lo, range.hi))
            .or_insert_with(|| service.run_exact(&q1(*range, *k)).expect("exact oracle").0);
    }
    for (_, range, result) in &outcomes {
        assert!(result.stats.reuse.is_some());
        assert!(!result.groups.is_empty(), "no estimates for {range:?}");
        assert_within_clt_bound(*range, result, &exact[&(range.lo, range.hi)]);
    }

    // No duplicate descriptors anywhere in the store: competing absorbs
    // must serialize, within a family and across families.
    let store = service.store();
    let mut seen = HashSet::new();
    for (_, d) in store.descriptors() {
        let signature = format!("{}|{:?}", d.fingerprint(), d.predicates);
        assert!(seen.insert(signature), "duplicate stored descriptor: {d:?}");
    }

    // Per-family coverage matches a single-threaded oracle replay of the
    // same query multiset: sharing the store must not lose or cross-wire
    // coverage.
    let replay = LaqyService::with_config(cat, config(None));
    let mut requested: HashMap<usize, IntervalSet> = HashMap::new();
    for t in 0..THREADS {
        let k = ks[t % ks.len()];
        for j in 0..QUERIES_PER_THREAD {
            let range = range_for(n, t, j);
            replay.run(&q1(range, k)).expect("replay query");
            let entry = requested.entry(k).or_insert_with(IntervalSet::empty);
            *entry = entry.union(&IntervalSet::of(range));
        }
    }
    let replay_store = replay.store();
    for &k in &ks {
        assert_eq!(
            family_coverage(&store, k),
            family_coverage(&replay_store, k),
            "family k={k} coverage diverges from oracle replay"
        );
        assert_eq!(
            family_coverage(&store, k),
            requested[&k],
            "family k={k} coverage is not the union of its requests"
        );
    }
}

#[test]
fn global_byte_budget_holds_across_families() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = KS;

    // Size the budget off one materialized sample so roughly three fit —
    // while four families insert into the one store.
    let probe = LaqyService::with_config(cat.clone(), config(None));
    probe.run(&q1(range_for(n, 0, 0), ks[0])).unwrap();
    let one = probe.store().total_bytes();
    assert!(one > 0);
    let budget = one * 3;

    let service = LaqyService::with_config(cat, config(Some(budget)));
    let outcomes = hammer(&service, n, &ks);
    for (_, range, result) in &outcomes {
        assert!(!result.groups.is_empty(), "no estimates for {range:?}");
    }

    // The budget is the whole store's, and eviction floors at one sample
    // for the whole store: either the total fits or one sample is left.
    let store = service.store();
    assert!(
        store.total_bytes() <= budget || store.len() == 1,
        "budget {budget} exceeded ({} bytes) by {} samples",
        store.total_bytes(),
        store.len()
    );
    let mut seen = HashSet::new();
    for (_, d) in store.descriptors() {
        let signature = format!("{}|{:?}", d.fingerprint(), d.predicates);
        assert!(seen.insert(signature), "duplicate stored descriptor: {d:?}");
    }
}

#[test]
fn families_on_distinct_shards_dedup_independently() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = [KS[0], KS[1]];
    let service = LaqyService::with_config(cat, config(None));

    // Warm both families over the first half.
    for &k in &ks {
        service.run(&q1(Interval::new(0, n / 2), k)).unwrap();
    }
    assert_eq!(service.stats().online_runs, 2);

    // Four clients — two per family — miss on the same uncovered interval
    // at once. Each family's Δ must run exactly once, deduped in the one
    // registry under its own key, with no cross-family interference.
    service.set_sampling_hold(Some(Duration::from_millis(300)));
    let before = service.stats();
    let barrier = Barrier::new(4);
    let reuse: Vec<(usize, ReuseClass)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let service = service.clone();
                let barrier = &barrier;
                let k = ks[i % 2];
                scope.spawn(move || {
                    barrier.wait();
                    let target = q1(Interval::new(0, 3 * n / 4), k);
                    (k, service.run(&target).expect("query").stats.reuse.unwrap())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    service.set_sampling_hold(None);

    let after = service.stats();
    assert_eq!(
        after.delta_scans - before.delta_scans,
        2,
        "each family's uncovered interval must be Δ-scanned exactly once"
    );
    assert_eq!(
        after.merges_deduped - before.merges_deduped,
        2,
        "each family's second client must piggyback on the in-flight scan"
    );
    assert_eq!(after.partial_merges - before.partial_merges, 2);
    assert_eq!(after.full_hits - before.full_hits, 2);
    for &k in &ks {
        let mut family: Vec<_> = reuse
            .iter()
            .filter(|(rk, _)| *rk == k)
            .map(|(_, r)| *r)
            .collect();
        family.sort_by_key(|r| r.label());
        assert_eq!(family, vec![ReuseClass::Full, ReuseClass::Partial]);
    }

    let store = service.store();
    assert_eq!(store.len(), 2, "one consolidated sample per family");
    for &k in &ks {
        assert_eq!(
            family_coverage(&store, k),
            IntervalSet::of(Interval::new(0, 3 * n / 4))
        );
    }
}

/// One snapshot holding two deliberately fragmented families: for each
/// `k`, two disjoint stored samples covering `[0, 2n/5]` and
/// `[n/2, 9n/10]`, built in scratch services and re-inserted raw so
/// absorption cannot consolidate them.
fn fragmented_families_snapshot(cat: &Catalog, n: i64, ks: &[usize]) -> Vec<u8> {
    let mut store = SampleStore::new();
    for &k in ks {
        for range in [
            Interval::new(0, 2 * n / 5),
            Interval::new(n / 2, 9 * n / 10),
        ] {
            let scratch = LaqyService::with_config(cat.clone(), config(None));
            scratch.run(&q1(range, k)).expect("fragment query");
            let guard = scratch.store();
            let (_, stored) = guard.iter().next().expect("fragment materialized");
            store.insert_raw(
                stored.descriptor.clone(),
                stored.schema.clone(),
                stored.sample.clone(),
                stored.watermark,
            );
        }
    }
    save_store(&store)
}

#[test]
fn cross_shard_coverage_planning_race_neither_deadlocks_nor_double_claims() {
    // The regression the canonical lock order exists for: two clients per
    // family, two families, all four planning coverage at once over
    // fragmented stores. Fragment claims and absorbs of both families
    // interleave on the one registry and the one store lock — a cyclic
    // acquisition order would deadlock here, and a broken per-fragment
    // registry would scan a residual fragment twice.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = [KS[0], KS[1]];
    let service = LaqyService::with_config(cat.clone(), config(None));
    service
        .import_samples(&fragmented_families_snapshot(&cat, n, &ks))
        .expect("snapshot imports");
    assert_eq!(service.store().len(), 4, "two fragments per family");

    service.set_sampling_hold(Some(Duration::from_millis(300)));
    let before = service.stats();
    let barrier = Barrier::new(4);
    let reuse: Vec<(usize, ReuseClass)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let service = service.clone();
                let barrier = &barrier;
                let k = ks[i % 2];
                scope.spawn(move || {
                    barrier.wait();
                    let target = q1(Interval::new(0, n - 1), k);
                    (k, service.run(&target).expect("query").stats.reuse.unwrap())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    service.set_sampling_hold(None);

    let after = service.stats();
    // Exactly-once per family: each family's plan has one residual (the
    // query minus the one fragment it reuses), scanned by the winning
    // client.
    assert_eq!(
        after.delta_scans - before.delta_scans,
        2,
        "each family's residual must be Δ-scanned exactly once"
    );
    assert_eq!(after.fragments_scanned - before.fragments_scanned, 2);
    assert_eq!(
        after.fragments_deduped - before.fragments_deduped,
        2,
        "each family's waiter must dedup against the in-flight fragment"
    );
    assert_eq!(
        after.fragments_reused - before.fragments_reused,
        2,
        "each winning merge reuses one of its family's fragments"
    );
    assert_eq!(after.partial_merges - before.partial_merges, 2);
    assert_eq!(after.full_hits - before.full_hits, 2);
    for &k in &ks {
        let mut family: Vec<_> = reuse
            .iter()
            .filter(|(rk, _)| *rk == k)
            .map(|(_, r)| *r)
            .collect();
        family.sort_by_key(|r| r.label());
        assert_eq!(family, vec![ReuseClass::Full, ReuseClass::Partial]);
    }

    // Each family consolidated to one full-coverage sample.
    let store = service.store();
    assert_eq!(store.len(), 2, "fragments consolidated away");
    for &k in &ks {
        assert_eq!(
            family_coverage(&store, k),
            IntervalSet::of(Interval::new(0, n - 1))
        );
    }
}
