//! Seeded chaos suite for the concurrent shared-store service
//! (`--cfg laqy_faults` builds only).
//!
//! Sweeps ≥32 deterministic fault seeds over the 8-thread stress
//! workload, injecting worker panics, I/O-shaped morsel failures, and
//! artificial morsel latency. The invariant under every schedule: each
//! query returns a valid estimate, a degraded answer with a widened CI,
//! or a *typed* `LaqyError` — never a hang, an escaped panic, or a
//! corrupted store. Schedules are replayable: whether trigger `n` of a
//! point fires is a pure function of `(seed, point, n)`, so a failure at
//! seed 17 reproduces at seed 17.

#![cfg(laqy_faults)]

use std::sync::Barrier;
use std::time::Duration;

use laqy::{Interval, LaqyError, LaqyService, QueryBudget, SessionConfig};
use laqy_engine::Catalog;
use laqy_faults::{FaultKind, FaultPlan};
use laqy_sync::Mutex;
use laqy_workload::{generate, q1, SsbConfig};

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 4;
const SEEDS: u64 = 32;

/// The fault plan is process-global: every chaos test serializes on
/// this lock so one schedule never bleeds into another test.
static CHAOS_LOCK: Mutex<()> = Mutex::named("chaos.service.lock", ());

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.005, // 30k fact rows
        seed: 0xC0C0,
    })
}

fn service(cat: &Catalog, seed: u64) -> LaqyService {
    LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            seed,
            ..Default::default() // thread count from LAQY_THREADS / cores
        },
    )
}

/// Deterministic, heavily overlapping range for client `t`, query `j`
/// (same shape as the tier-1 stress suite, so chaos replays that
/// workload under fault schedules).
fn range_for(n: i64, t: usize, j: usize) -> Interval {
    let lo = ((t * 3 + j * 5) % 8) as i64 * n / 10;
    let hi = (lo + n / 4 + ((t + j) % 3) as i64 * n / 10).min(n - 1);
    Interval::new(lo, hi)
}

#[test]
fn fault_seed_sweep_yields_answers_or_typed_errors() {
    let _guard = CHAOS_LOCK.lock();
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;

    for seed in 0..SEEDS {
        laqy_faults::install(
            FaultPlan::new(seed)
                .fail_prob("pool.morsel", FaultKind::Panic, 0.02)
                .fail_prob("pool.morsel", FaultKind::Io, 0.02)
                .fail_prob(
                    "pool.morsel",
                    FaultKind::Latency(Duration::from_micros(200)),
                    0.05,
                ),
        );
        let service = service(&cat, 0x5EED ^ seed);
        let barrier = Barrier::new(THREADS);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let service = service.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..QUERIES_PER_THREAD)
                            .map(|j| service.run(&q1(range_for(n, t, j), 24)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        let (mut answers, mut typed_errors) = (0u64, 0u64);
        for thread_outcome in outcomes {
            // A `join` Err means a panic escaped the per-morsel isolation
            // into a client thread — exactly what must never happen.
            let results = thread_outcome
                .unwrap_or_else(|_| panic!("seed {seed}: worker panic escaped isolation"));
            for r in results {
                match r {
                    Ok(result) => {
                        answers += 1;
                        for g in &result.groups {
                            for v in g.values {
                                assert!(
                                    v.value.is_finite(),
                                    "seed {seed}: non-finite estimate {v:?}"
                                );
                            }
                        }
                    }
                    Err(LaqyError::Injected(_)) | Err(LaqyError::WorkerPanic(_)) => {
                        typed_errors += 1
                    }
                    Err(other) => panic!("seed {seed}: unexpected error class: {other}"),
                }
            }
        }
        assert_eq!(
            answers + typed_errors,
            (THREADS * QUERIES_PER_THREAD) as u64,
            "seed {seed}: every query must answer or fail typed"
        );
        let stats = service.stats();
        assert_eq!(stats.queries, (THREADS * QUERIES_PER_THREAD) as u64);
        assert_eq!(
            stats.faults_injected, typed_errors,
            "seed {seed}: the service counter tracks fault-failed queries"
        );

        // The store must stay usable after the storm: with faults off,
        // a clean query over the full range answers from it.
        laqy_faults::clear();
        let r = service
            .run(&q1(Interval::new(0, n - 1), 24))
            .expect("post-chaos query");
        assert!(r
            .groups
            .iter()
            .all(|g| g.values.iter().all(|v| v.value.is_finite())));
    }
    laqy_faults::clear();
}

#[test]
fn latency_injection_keeps_online_scans_exactly_once() {
    let _guard = CHAOS_LOCK.lock();
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;

    // Stretch every morsel by 20ms: the in-flight owner's scan stays
    // open long enough that all other clients must hit the dedup path.
    laqy_faults::install(FaultPlan::new(7).fail_every(
        "pool.morsel",
        FaultKind::Latency(Duration::from_millis(20)),
        1,
    ));
    let service = service(&cat, 0xDE_D00);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let service = service.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    service.run(&q1(Interval::new(0, n / 2), 24)).unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    laqy_faults::clear();

    let stats = service.stats();
    assert_eq!(stats.queries, THREADS as u64);
    // Exactly-once Δ/online accounting: one client scanned, everyone
    // else answered by full reuse — either by piggybacking on the
    // in-flight scan or by planning against the absorbed sample.
    assert_eq!(stats.online_scans, 1);
    assert_eq!(stats.full_hits, (THREADS - 1) as u64);
    assert!(stats.online_deduped <= (THREADS - 1) as u64);
}

#[test]
fn deadline_under_latency_injection_degrades_instead_of_hanging() {
    let _guard = CHAOS_LOCK.lock();
    // A multi-morsel synthetic table (the SSB sf=0.005 fact fits in one
    // morsel, which a deadline can never split), scanned serially so the
    // second morsel's admission happens after the first's injected sleep.
    let n: i64 = 200_000;
    let mut cat = Catalog::new();
    cat.register(
        laqy_engine::Table::new(
            "t",
            vec![
                ("key".into(), laqy_engine::Column::Int64((0..n).collect())),
                (
                    "g".into(),
                    laqy_engine::Column::Int64((0..n).map(|i| i % 4).collect()),
                ),
                (
                    "v".into(),
                    laqy_engine::Column::Int64((0..n).map(|i| i % 100).collect()),
                ),
            ],
        )
        .unwrap(),
    );
    let query = laqy::ApproxQuery {
        plan: laqy_engine::QueryPlan {
            fact: "t".into(),
            predicate: laqy_engine::Predicate::True,
            joins: vec![],
            group_by: vec![laqy_engine::ColRef::fact("g")],
            aggs: vec![
                laqy_engine::AggSpec::sum("v"),
                laqy_engine::AggSpec::count(),
            ],
        },
        range_column: "key".into(),
        range: Interval::new(0, n - 1),
        k: 64,
    };

    // Every morsel sleeps far past the deadline: the first admission
    // after expiry must finalize a degraded answer, not keep scanning.
    laqy_faults::install(FaultPlan::new(3).fail_every(
        "pool.morsel",
        FaultKind::Latency(Duration::from_millis(30)),
        1,
    ));
    let service = LaqyService::with_config(
        cat,
        SessionConfig {
            threads: 1,
            seed: 0xBEEF,
            ..Default::default()
        },
    );
    let result = service
        .run_with_budget(
            &query,
            QueryBudget::with_deadline(Duration::from_millis(10)),
        )
        .expect("degraded answer, not an error");
    laqy_faults::clear();

    let deg = result
        .stats
        .degraded
        .expect("the injected latency must trip the deadline");
    assert!(deg.coverage < 1.0);
    assert!(deg.ci_inflation > 1.0);
    assert_eq!(service.stats().degraded_answers, 1);
    // A degraded sample never enters the shared store.
    assert!(service.store().is_empty());
}
