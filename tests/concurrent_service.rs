//! Stress tests for the concurrent shared-store [`LaqyService`].
//!
//! Many client threads hammer one service with overlapping exploratory
//! ranges, then the shared store is checked for the invariants the
//! concurrency design must preserve:
//!
//! - no duplicate sample descriptors (competing absorbs/merges must not
//!   materialize the same coverage twice);
//! - the byte budget is respected under concurrent insertion;
//! - every estimate stays within its CLT error bound of the exact answer
//!   (a wrong merge or a double-counted Δ would blow the bound);
//! - final store coverage matches a single-threaded oracle replay of the
//!   same query multiset;
//! - two clients concurrently missing on the same uncovered interval
//!   perform the Δ-sampling scan exactly once (the in-flight dedup).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use laqy::{
    estimate, save_store, ApproxResult, EstimateOptions, Interval, IntervalSet, LaqyService,
    Predicates, ReuseClass, SampleStore, SessionConfig,
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

/// Every estimate must sit within a generous multiple of its 95% CI of
/// the exact value. 6σ-ish: over thousands of checks a correct estimator
/// never trips this, while double-counted merge tuples do.
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

/// Run the standard overlapping workload from `THREADS` clients against
/// one service; returns every (range, result) pair.
fn hammer(service: &LaqyService, n: i64, k: usize) -> Vec<(Interval, ApproxResult)> {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = service.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (0..QUERIES_PER_THREAD)
                        .map(|j| {
                            let range = range_for(n, t, j);
                            let result = service.run(&q1(range, k)).expect("query");
                            (range, result)
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

/// Union of stored `lo_intkey` coverage across all samples in the store.
fn stored_coverage(service: &LaqyService) -> IntervalSet {
    let store = service.store();
    let mut union = IntervalSet::empty();
    for (_, d) in store.descriptors() {
        union = union.union(d.predicates.get("lo_intkey").expect("q1 range column"));
    }
    union
}

#[test]
fn stress_overlapping_clients_preserve_store_invariants() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let service = LaqyService::with_config(cat.clone(), config(None));
    let k = 24;

    let outcomes = hammer(&service, n, k);
    assert_eq!(outcomes.len(), THREADS * QUERIES_PER_THREAD);
    let stats = service.stats();
    assert_eq!(stats.queries, (THREADS * QUERIES_PER_THREAD) as u64);

    // Exact oracle per distinct range.
    let mut exact: HashMap<(i64, i64), QueryResult> = HashMap::new();
    for (range, _) in &outcomes {
        exact
            .entry((range.lo, range.hi))
            .or_insert_with(|| service.run_exact(&q1(*range, k)).expect("exact oracle").0);
    }
    for (range, result) in &outcomes {
        assert!(result.stats.reuse.is_some());
        assert!(!result.groups.is_empty(), "no estimates for {range:?}");
        assert_within_clt_bound(*range, result, &exact[&(range.lo, range.hi)]);
    }

    // No duplicate descriptors: identical coverage stored twice means two
    // competing writers both won.
    let store = service.store();
    let mut seen = HashSet::new();
    for (_, d) in store.descriptors() {
        let signature = format!("{}|{:?}", d.fingerprint(), d.predicates);
        assert!(seen.insert(signature), "duplicate stored descriptor: {d:?}");
    }
    drop(store);

    // Single-threaded oracle replay of the same multiset ends with the
    // same coverage: the union of all query ranges, independent of
    // interleaving.
    let replay = LaqyService::with_config(cat, config(None));
    let mut requested = IntervalSet::empty();
    for t in 0..THREADS {
        for j in 0..QUERIES_PER_THREAD {
            let range = range_for(n, t, j);
            replay.run(&q1(range, k)).expect("replay query");
            requested = requested.union(&IntervalSet::of(range));
        }
    }
    let replay_coverage = {
        let store = replay.store();
        let mut union = IntervalSet::empty();
        for (_, d) in store.descriptors() {
            union = union.union(d.predicates.get("lo_intkey").unwrap());
        }
        union
    };
    let concurrent_coverage = stored_coverage(&service);
    assert_eq!(concurrent_coverage, replay_coverage);
    assert_eq!(concurrent_coverage, requested);
}

#[test]
fn byte_budget_holds_under_concurrent_insertion() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let k = 24;

    // Size the budget off one materialized sample so roughly three fit.
    let probe = LaqyService::with_config(cat.clone(), config(None));
    probe.run(&q1(range_for(n, 0, 0), k)).unwrap();
    let one = probe.store().total_bytes();
    assert!(one > 0);
    let budget = one * 3;

    let service = LaqyService::with_config(cat, config(Some(budget)));
    let outcomes = hammer(&service, n, k);
    for (range, result) in &outcomes {
        assert!(!result.groups.is_empty(), "no estimates for {range:?}");
    }

    let store = service.store();
    assert!(
        store.total_bytes() <= budget || store.len() <= 1,
        "budget {budget} exceeded: {} bytes across {} samples",
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
fn persistent_pool_preserves_exactly_once_delta_scans() {
    // Same in-flight dedup invariant as
    // `identical_partial_misses_scan_the_delta_exactly_once`, but with
    // intra-query parallelism enabled so every Δ-scan runs on the
    // persistent worker pool. The pool must neither double-run a scan
    // nor spawn fresh workers per service: repeated service
    // construction reuses the one process-wide pool.
    use laqy_engine::parallel::{pool_size, pool_workers_spawned, DEFAULT_MORSEL_ROWS};

    // Needs a fact table spanning several morsels, else every fold takes
    // the serial fast path and the pool is never exercised.
    let cat = generate(&SsbConfig {
        scale_factor: 0.02, // ~120k fact rows ≈ 2 morsels
        seed: 0xC0C1,
    });
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    assert!(
        n as usize > DEFAULT_MORSEL_ROWS,
        "catalog too small to reach the worker pool"
    );
    let k = 24;
    let pooled_config = || SessionConfig {
        threads: 2,
        ..config(None)
    };

    for round in 0..3 {
        let service = LaqyService::with_config(cat.clone(), pooled_config());
        service.run(&q1(Interval::new(0, n / 2), k)).unwrap();

        service.set_sampling_hold(Some(Duration::from_millis(300)));
        let target = q1(Interval::new(0, 3 * n / 4), k);
        let before = service.stats();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let service = service.clone();
                let (barrier, target) = (&barrier, &target);
                scope.spawn(move || {
                    barrier.wait();
                    service.run(target).expect("query");
                });
            }
        });
        service.set_sampling_hold(None);

        let after = service.stats();
        assert_eq!(
            after.delta_scans - before.delta_scans,
            1,
            "round {round}: Δ-scan must run exactly once on the pool"
        );
        assert_eq!(
            after.merges_deduped - before.merges_deduped,
            1,
            "round {round}: second client must dedup against the in-flight scan"
        );
        assert_eq!(
            stored_coverage(&service),
            IntervalSet::of(Interval::new(0, 3 * n / 4)),
            "round {round}: coverage stored exactly once"
        );
    }

    // Three services (plus everything else this test binary ran) used
    // parallelism, yet the process holds exactly one pool's worth of
    // workers: construction never leaks threads.
    let size = pool_size();
    assert_eq!(
        pool_workers_spawned(),
        size,
        "repeated service construction must reuse the persistent pool"
    );
}

#[test]
fn identical_partial_misses_scan_the_delta_exactly_once() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let service = LaqyService::with_config(cat, config(None));
    let k = 24;

    // Materialize coverage of the first half.
    service.run(&q1(Interval::new(0, n / 2), k)).unwrap();
    assert_eq!(service.stats().online_runs, 1);

    // Both clients miss on the same uncovered interval (n/2, 3n/4]. The
    // sampling hold keeps the first client inside the Δ scan long enough
    // that the second must hit the in-flight registry.
    service.set_sampling_hold(Some(Duration::from_millis(300)));
    let target = q1(Interval::new(0, 3 * n / 4), k);
    let before = service.stats();
    let barrier = Barrier::new(2);
    let reuse: Vec<ReuseClass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                let (barrier, target) = (&barrier, &target);
                scope.spawn(move || {
                    barrier.wait();
                    service.run(target).expect("query").stats.reuse.unwrap()
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
        1,
        "the uncovered interval must be Δ-scanned exactly once"
    );
    assert_eq!(
        after.merges_deduped - before.merges_deduped,
        1,
        "the second client must piggyback on the in-flight merge"
    );
    assert_eq!(after.partial_merges - before.partial_merges, 1);
    // The piggybacking client re-plans against the now-extended coverage.
    assert_eq!(after.full_hits - before.full_hits, 1);
    let mut reuse = reuse;
    reuse.sort_by_key(|r| r.label());
    assert_eq!(reuse, vec![ReuseClass::Full, ReuseClass::Partial]);

    // Coverage is the union, stored once.
    assert_eq!(
        stored_coverage(&service),
        IntervalSet::of(Interval::new(0, 3 * n / 4))
    );
    assert_eq!(service.store().len(), 1);
}

/// Materialize a deliberately fragmented Q1-family snapshot: two disjoint
/// stored samples covering `[0, 2n/5]` and `[n/2, 9n/10]`. Each fragment
/// comes from a scratch service and is re-inserted raw, so absorption
/// cannot consolidate them into one wide sample.
fn fragmented_snapshot(cat: &Catalog, n: i64, k: usize) -> Vec<u8> {
    let mut store = SampleStore::new();
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
    save_store(&store)
}

#[test]
fn concurrent_coverage_misses_scan_each_fragment_exactly_once() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let k = 24;
    let service = LaqyService::with_config(cat.clone(), config(None));
    service
        .import_samples(&fragmented_snapshot(&cat, n, k))
        .expect("snapshot imports");
    assert_eq!(service.store().len(), 2, "store must start fragmented");

    // Both clients plan the same coverage reuse: the stored fragment
    // covering more of the query plus one residual Δ over the rest (the
    // other fragment included: a plan merges one stored sample). The
    // sampling hold keeps the owner inside that scan long enough that the
    // second client must hit the per-fragment in-flight registry.
    service.set_sampling_hold(Some(Duration::from_millis(300)));
    let target = q1(Interval::new(0, n - 1), k);
    let before = service.stats();
    let barrier = Barrier::new(2);
    let reuse: Vec<ReuseClass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                let (barrier, target) = (&barrier, &target);
                scope.spawn(move || {
                    barrier.wait();
                    service.run(target).expect("query").stats.reuse.unwrap()
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
        1,
        "the residual fragment must be Δ-scanned exactly once"
    );
    assert_eq!(after.fragments_scanned - before.fragments_scanned, 1);
    assert_eq!(
        after.fragments_deduped - before.fragments_deduped,
        1,
        "the waiter must dedup against the in-flight fragment scan"
    );
    assert_eq!(
        after.merges_deduped - before.merges_deduped,
        1,
        "the waiting client piggybacks on the in-flight merge once"
    );
    assert_eq!(
        after.fragments_reused - before.fragments_reused,
        1,
        "the winning merge reuses one stored fragment"
    );
    assert_eq!(after.partial_merges - before.partial_merges, 1);
    // The piggybacking client re-plans against the consolidated coverage.
    assert_eq!(after.full_hits - before.full_hits, 1);
    let mut reuse = reuse;
    reuse.sort_by_key(|r| r.label());
    assert_eq!(reuse, vec![ReuseClass::Full, ReuseClass::Partial]);

    // Consolidation reproduces the single-sample end state: full coverage
    // stored once, the fragment it was not merged with replaced.
    assert_eq!(
        stored_coverage(&service),
        IntervalSet::of(Interval::new(0, n - 1))
    );
    assert_eq!(service.store().len(), 1, "fragments consolidated away");
}

#[test]
fn clients_racing_the_first_hit_after_a_write_share_one_image() {
    // The first full hits after a write arrive together. There is one
    // representation to share — the stored sample as the write step left
    // it — so they must all answer as `estimate()` does over that sample,
    // and none of them may build anything: the store's bytes and the
    // sample a hit reads are the ones the write left.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let k = 32;
    let service = LaqyService::with_config(
        cat,
        SessionConfig {
            seed: 0x5EED,
            ..Default::default() // engine threads from LAQY_THREADS / cores
        },
    );
    let hit = q1(Interval::new(n / 8, n / 4), k);
    // Round 0 samples online, round 1 Δ-merges: two different write steps.
    let writes = [
        (0, n / 2 - 1, ReuseClass::Online),
        (0, n - 1, ReuseClass::Partial),
    ];
    for (round, (lo, hi, class)) in writes.into_iter().enumerate() {
        let written = service.run(&q1(Interval::new(lo, hi), k)).expect("write");
        assert_eq!(written.stats.reuse, Some(class));
        let at_rest = service.store();
        let sample = Arc::clone(&at_rest.iter_samples().next().expect("stored").sample);

        let barrier = Barrier::new(THREADS);
        let answers: Vec<ApproxResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let service = service.clone();
                    let (barrier, hit) = (&barrier, &hit);
                    scope.spawn(move || {
                        barrier.wait();
                        service.run(hit).expect("hit")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });

        let store = service.store();
        assert_eq!(store.len(), 1, "round {round}: one sample stored");
        let stored = store.iter_samples().next().unwrap();
        assert!(
            Arc::ptr_eq(&stored.sample, &sample),
            "round {round}: hits read the sample the write left"
        );
        assert_eq!(
            store.total_bytes(),
            at_rest.total_bytes(),
            "round {round}: {THREADS} racing hits built nothing"
        );
        let tighten = Predicates::on("lo_intkey", IntervalSet::of(hit.range));
        let opts = EstimateOptions {
            tighten: Some(&tighten),
        };
        let oracle = estimate(&stored.sample, &stored.schema, &hit.plan.aggs, &opts).unwrap();
        for answer in &answers {
            assert_eq!(answer.stats.reuse, Some(ReuseClass::Full));
            assert_eq!(answer.groups, oracle, "round {round}");
        }
    }
}
