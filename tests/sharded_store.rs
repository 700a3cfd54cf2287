//! Stress tests for the descriptor-hash-sharded sample store.
//!
//! The PR-1 concurrent-service battery (see `concurrent_service.rs`)
//! exercised one shared store behind one lock. This suite re-runs those
//! invariants with the workload deliberately spread across *shards*:
//! several q1 families (same plan, different reservoir capacity `k`)
//! whose descriptor fingerprints route to different home shards, hammered
//! by 8 client threads at once. On top of the original invariants —
//! CLT-bounded estimates, no duplicate descriptors, oracle-replay
//! coverage equality, exactly-once Δ-scans — it checks the sharding
//! contract itself:
//!
//! - routing is deterministic and predicate-independent (all samples of
//!   one family co-locate on one shard, across store instances);
//! - the *global* byte budget holds under concurrent insertion into
//!   different shards (or every shard is down to its one-sample floor);
//! - families on distinct shards dedup their in-flight scans
//!   independently and never contend on each other's locks;
//! - two clients coverage-planning over fragmented families on distinct
//!   shards — with fragment claims spread across registry shards —
//!   neither deadlock (canonical lock order) nor double-claim a
//!   residual fragment.

use std::collections::{HashMap, HashSet};
use std::sync::Barrier;
use std::time::Duration;

use laqy::{
    save_store, ApproxResult, Interval, IntervalSet, LaqyService, ReuseClass, SampleStore,
    SessionConfig, ShardedStore, STORE_SHARDS,
};
use laqy_engine::{Catalog, QueryResult, Value};
use laqy_workload::{generate, q1, SsbConfig};

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

/// Home shard of the q1 family with reservoir capacity `k`, resolved by
/// materializing one sample in a scratch service and routing its stored
/// descriptor through a probe store with the full shard count.
fn family_shard(cat: &Catalog, n: i64, k: usize) -> usize {
    let probe = ShardedStore::new(STORE_SHARDS, None);
    let scratch = LaqyService::with_config(cat.clone(), config(None));
    scratch.run(&q1(Interval::new(0, n / 10), k)).unwrap();
    let store = scratch.store();
    let (_, d) = store.descriptors().next().expect("sample materialized");
    probe.shard_for(d)
}

/// `count` q1 reservoir capacities whose families land on pairwise
/// distinct home shards — so the workload provably crosses shards.
fn shard_distinct_ks(cat: &Catalog, n: i64, count: usize) -> Vec<usize> {
    let mut ks = Vec::new();
    let mut shards = HashSet::new();
    for k in (16..16 + 8 * STORE_SHARDS).step_by(8) {
        if shards.insert(family_shard(cat, n, k)) {
            ks.push(k);
            if ks.len() == count {
                return ks;
            }
        }
    }
    panic!("could not find {count} shard-distinct k values");
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
fn routing_is_deterministic_and_predicate_independent() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let k = 24;

    // Two samples of the same family with *different* predicates must
    // share a home shard (the fingerprint excludes predicates), on any
    // store instance with the same shard count. Materialize them in
    // separate services so coverage planning cannot consolidate them.
    let mut descriptors = Vec::new();
    for range in [Interval::new(0, n / 10), Interval::new(n / 2, 7 * n / 10)] {
        let scratch = LaqyService::with_config(cat.clone(), config(None));
        scratch.run(&q1(range, k)).unwrap();
        let store = scratch.store();
        let (_, d) = store.descriptors().next().expect("sample materialized");
        descriptors.push(d.clone());
    }
    assert_ne!(
        descriptors[0].predicates, descriptors[1].predicates,
        "the two samples must differ in predicate coverage"
    );

    let a = ShardedStore::new(STORE_SHARDS, None);
    let b = ShardedStore::new(STORE_SHARDS, None);
    let home = a.shard_for(&descriptors[0]);
    for d in &descriptors {
        assert_eq!(a.shard_for(d), home, "family split across shards: {d:?}");
        assert_eq!(a.shard_for(d), b.shard_for(d), "routing not deterministic");
    }

    // A single-shard store (the bench baseline) routes everything to 0.
    let single = ShardedStore::new(1, None);
    for d in &descriptors {
        assert_eq!(single.shard_for(d), 0);
    }
}

#[test]
fn sharded_stress_preserves_store_invariants_per_family() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = shard_distinct_ks(&cat, n, 4);
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

    // No duplicate descriptors anywhere in the sharded store: competing
    // absorbs within a shard must still serialize, and families must not
    // leak copies onto foreign shards.
    let store = service.store();
    let mut seen = HashSet::new();
    for (_, d) in store.descriptors() {
        let signature = format!("{}|{:?}", d.fingerprint(), d.predicates);
        assert!(seen.insert(signature), "duplicate stored descriptor: {d:?}");
    }

    // Per-family coverage matches a single-threaded oracle replay of the
    // same query multiset: sharding must not lose or cross-wire coverage.
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
fn global_byte_budget_holds_across_shards() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = shard_distinct_ks(&cat, n, 4);

    // Size the budget off one materialized sample so roughly three fit —
    // while four families insert into four different shards.
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

    // The budget is global across shards. Eviction floors at one sample
    // *per shard*, so either the total fits or every occupied shard is
    // down to its floor.
    let store = service.store();
    if store.total_bytes() > budget {
        let router = ShardedStore::new(STORE_SHARDS, None);
        let mut per_shard: HashMap<usize, usize> = HashMap::new();
        for (_, d) in store.descriptors() {
            *per_shard.entry(router.shard_for(d)).or_default() += 1;
        }
        for (shard, count) in per_shard {
            assert!(
                count <= 1,
                "budget {budget} exceeded ({} bytes) with shard {shard} above \
                 its one-sample eviction floor ({count} samples)",
                store.total_bytes()
            );
        }
    }
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
    let ks = shard_distinct_ks(&cat, n, 2);
    let service = LaqyService::with_config(cat, config(None));

    // Warm both families over the first half.
    for &k in &ks {
        service.run(&q1(Interval::new(0, n / 2), k)).unwrap();
    }
    assert_eq!(service.stats().online_runs, 2);

    // Four clients — two per family — miss on the same uncovered interval
    // at once. Each family's Δ must run exactly once, deduped on its own
    // shard's registry, with no cross-family interference.
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
    // family, two families on distinct home shards, all four planning
    // coverage at once over fragmented stores. Fragment claims hash
    // across registry shards, absorbs take different store shards — a
    // cyclic acquisition order would deadlock here, and a broken
    // per-fragment registry would scan a residual fragment twice.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let ks = shard_distinct_ks(&cat, n, 2);
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
    // Exactly-once per family: each family has one residual fragment (its
    // gaps share the one varying column), scanned by the winning client.
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
        4,
        "each winning merge must reuse both of its family's fragments"
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

    // Each family consolidated to one full-coverage sample on its shard.
    let store = service.store();
    assert_eq!(store.len(), 2, "fragments consolidated away");
    for &k in &ks {
        assert_eq!(
            family_coverage(&store, k),
            IntervalSet::of(Interval::new(0, n - 1))
        );
    }
}
