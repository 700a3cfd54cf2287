//! Bounded-exhaustive model checking of the concurrent service protocols.
//!
//! Compile and run with `RUSTFLAGS="--cfg laqy_check" cargo test -p laqy
//! --test model_service`. Under that cfg every `laqy_sync` primitive the
//! service uses routes through the loom-lite scheduler, so these tests
//! execute the *real* claim/absorb/release and optimistic-revalidation
//! code (not a hand-copied model of it) under every interleaving within
//! the preemption bound, and check algebraic oracles that must hold on
//! all of them:
//!
//! - estimates stay unbiased-by-construction: the HT total weight of any
//!   answer equals the true row count of its predicate range, no matter
//!   where the scheduler preempts between classification, Δ-scan, merge,
//!   and revalidation;
//! - the in-flight registry never loses or double-runs a Δ-scan;
//! - concurrent eviction can cost reuse but never correctness.
//!
//! The engine pool is deliberately held at `threads: 1`: its workers use
//! the sanctioned raw-`std::sync` path in `engine::parallel`, which the
//! model scheduler cannot see, so sampling runs inline on the scheduled
//! client threads.

#![cfg(laqy_check)]

use laqy::{ApproxQuery, Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};
use laqy_sync::model::{model_with, ModelOptions};
use laqy_sync::thread;

const ROWS: i64 = 240;
const GROUPS: i64 = 3;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        Table::new(
            "t",
            vec![
                ("key".into(), Column::Int64((0..ROWS).collect())),
                (
                    "g".into(),
                    Column::Int64((0..ROWS).map(|i| i % GROUPS).collect()),
                ),
                (
                    "v".into(),
                    Column::Int64((0..ROWS).map(|i| i % 10).collect()),
                ),
            ],
        )
        .unwrap(),
    );
    cat
}

fn service() -> LaqyService {
    LaqyService::with_config(
        catalog(),
        SessionConfig {
            threads: 1,
            ..Default::default()
        },
    )
}

fn query(lo: i64, hi: i64) -> ApproxQuery {
    query_k(lo, hi, 16)
}

fn query_k(lo: i64, hi: i64, k: usize) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "t".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::sum("v"), AggSpec::count()],
        },
        range_column: "key".into(),
        range: Interval::new(lo, hi),
        k,
    }
}

/// HT estimation invariant: the COUNT estimate is the sum of stratum
/// weights, so summed over all groups it reconstructs the *exact* row
/// count of the range whenever coverage equals the query range (which
/// every resolution path here ends in — merge, online, or full reuse).
/// This is the paper's statistical-equivalence claim reduced to an exact
/// integer identity; it holds on *every* interleaving or the merge
/// lost/duplicated strata weight.
fn assert_weight_identity(result: &laqy::ApproxResult, lo: i64, hi: i64) {
    let total_count: f64 = result.groups.iter().map(|g| g.values[1].value).sum();
    let true_rows = (hi - lo + 1) as f64;
    assert!(
        (total_count - true_rows).abs() < 1e-6,
        "total HT count {total_count} != true row count {true_rows} for [{lo}, {hi}]"
    );
}

/// Two clients race the same Δ over a warm sample: the in-flight registry
/// must hand the Δ-scan to exactly one of them, and both answers must be
/// exact-weight correct regardless of who wins or when the merge lands.
#[test]
fn concurrent_delta_claims_never_lose_or_double_scan() {
    let report = model_with(
        ModelOptions {
            preemption_bound: 2,
            max_interleavings: 1500,
        },
        || {
            let svc = service();
            // Warm the store outside the race: [0, 119] is materialized.
            svc.run(&query(0, 119)).unwrap();
            let svc_b = svc.clone();
            let t = thread::spawn(move || {
                let r = svc_b.run(&query(0, 179)).unwrap();
                assert_weight_identity(&r, 0, 179);
            });
            let r = svc.run(&query(0, 179)).unwrap();
            assert_weight_identity(&r, 0, 179);
            t.join().unwrap();

            let stats = svc.stats();
            assert_eq!(stats.queries, 3);
            // The warm-up Δ plus however the race resolved: every Δ-scan
            // that ran was claimed, and claimed scans are never repeated
            // for the same fragment while in flight.
            assert!(
                stats.delta_scans + stats.online_runs + stats.merges_deduped >= 2,
                "racing clients must each resolve via scan, dedup-wait, or online: {stats:?}"
            );
            // A deduped client waited for the winner instead of re-scanning.
            assert!(
                stats.delta_scans <= stats.queries,
                "more Δ-scans than queries means a lost claim re-ran: {stats:?}"
            );

            // Quiescent store is coherent: one more identical query is a
            // pure reuse hit with the same exact weight identity.
            let r = svc.run(&query(0, 179)).unwrap();
            assert_weight_identity(&r, 0, 179);
        },
    );
    eprintln!("claims model: {report:?}");
    assert!(
        report.interleavings >= 200,
        "expected hundreds of interleavings, got {report:?}"
    );
}

// Two q1 families whose descriptor fingerprints differ only in k: they
// share the one store and the one in-flight registry.
const K_A: usize = 16;
const K_B: usize = 24;

/// Claim/absorb/release of two families on one store: one client
/// Δ-extends a warm family (registry claim → Δ-scan → absorb → release)
/// while a second client's online run absorbs a different family. Under
/// every interleaving, neither absorb may be lost or merged into the
/// other family — both answers and the quiescent store stay exact-weight
/// correct.
#[test]
fn family_claim_absorb_release_is_isolated_per_family() {
    let report = model_with(
        ModelOptions {
            preemption_bound: 2,
            max_interleavings: 1500,
        },
        || {
            let svc = service();
            // Warm family A outside the race: its Δ path claims, scans,
            // absorbs, and releases.
            svc.run(&query_k(0, 119, K_A)).unwrap();
            let svc_b = svc.clone();
            let t = thread::spawn(move || {
                let r = svc_b.run(&query_k(0, 179, K_B)).unwrap();
                assert_weight_identity(&r, 0, 179);
            });
            let r = svc.run(&query_k(0, 179, K_A)).unwrap();
            assert_weight_identity(&r, 0, 179);
            t.join().unwrap();

            // Quiescent coherence per family: both families answer their
            // own coverage exactly from their own sample (an absorb merged
            // into the other family would break the weight identity).
            for k in [K_A, K_B] {
                let r = svc.run(&query_k(0, 179, k)).unwrap();
                assert_weight_identity(&r, 0, 179);
                assert_eq!(r.stats.reuse, Some(ReuseClass::Full), "k={k}");
            }
            let stats = svc.stats();
            assert_eq!(stats.queries, 5);
            assert!(
                stats.delta_scans <= stats.queries,
                "a lost claim re-ran a Δ-scan: {stats:?}"
            );
        },
    );
    eprintln!("family claim model: {report:?}");
    assert!(
        report.interleavings >= 200,
        "expected hundreds of interleavings, got {report:?}"
    );
}

/// Whole-store operations (snapshot, clear) race two families' clients
/// absorbing into the one store. Any interleaving that acquired the
/// service's locks in conflicting orders would deadlock the model (the
/// scheduler would hang the blocked interleaving); every interleaving must
/// instead complete with exact-weight answers on whatever store state the
/// race left behind.
#[test]
fn whole_store_ops_race_two_families_absorbing() {
    let report = model_with(
        ModelOptions {
            preemption_bound: 2,
            max_interleavings: 1500,
        },
        || {
            let svc = service();
            svc.run(&query_k(0, 119, K_A)).unwrap();
            let sweeper = svc.clone();
            let t = thread::spawn(move || {
                // A snapshot under the read guard…
                let bytes = sweeper.export_samples();
                assert!(!bytes.is_empty());
                // …then a clear under the write guard.
                sweeper.clear_samples();
            });
            // Meanwhile clients of two families absorb.
            let r = svc.run(&query_k(0, 179, K_B)).unwrap();
            assert_weight_identity(&r, 0, 179);
            let r = svc.run(&query_k(0, 179, K_A)).unwrap();
            assert_weight_identity(&r, 0, 179);
            t.join().unwrap();

            // Whatever survived the clear, both families still answer
            // coherently (re-sampling what was swept away).
            let r = svc.run(&query_k(0, 179, K_A)).unwrap();
            assert_weight_identity(&r, 0, 179);
            let r = svc.run(&query_k(0, 179, K_B)).unwrap();
            assert_weight_identity(&r, 0, 179);
            assert_eq!(svc.stats().queries, 5);
        },
    );
    eprintln!("whole-store model: {report:?}");
    assert!(
        report.interleavings >= 200,
        "expected hundreds of interleavings, got {report:?}"
    );
}

/// Rows appended by the racing ingest, all inside the query range.
const APPEND: i64 = 60;

fn append_batch() -> Vec<(String, Column)> {
    vec![
        ("key".into(), Column::Int64((ROWS..ROWS + APPEND).collect())),
        (
            "g".into(),
            Column::Int64((ROWS..ROWS + APPEND).map(|i| i % GROUPS).collect()),
        ),
        (
            "v".into(),
            Column::Int64((ROWS..ROWS + APPEND).map(|i| i % 10).collect()),
        ),
    ]
}

/// A streaming append (catalog publish + incremental sample absorb) and a
/// full store eviction race a client query. The query pins an epoch by
/// cloning the catalog, so its exact COUNT must equal the row count of
/// *some* published version — exactly `ROWS` or exactly `ROWS + APPEND`,
/// never a torn in-between (a scan spanning the publish) and never a
/// double-count (a stale sample merged past its watermark). The absorb
/// takes the store lock after the ingest lock is released, so no
/// interleaving with the evictor's whole-store clear may deadlock.
#[test]
fn ingest_races_query_epoch_pin_and_store_eviction() {
    let report = model_with(
        ModelOptions {
            // Exhaustive at bound 2 takes ≈ 3 200 interleavings; a cap
            // below that can stop before the schedules that tear the
            // epoch pin or invert `laqy.catalog` and `laqy.wal`.
            preemption_bound: 2,
            max_interleavings: 20_000,
        },
        || {
            let svc = service();
            // Warm a sample whose predicate spans the final watermark, so
            // the appended rows land inside the stored family and the
            // absorb path really runs during the race.
            svc.run(&query(0, ROWS + APPEND - 1)).unwrap();
            let ingester = svc.clone();
            let t_ingest = thread::spawn(move || {
                let w = ingester.ingest("t", append_batch()).unwrap();
                assert_eq!(w, (ROWS + APPEND) as u64);
            });
            let evictor = svc.clone();
            let t_evict = thread::spawn(move || {
                evictor.clear_samples();
            });
            let r = svc.run(&query(0, ROWS + APPEND - 1)).unwrap();
            let total: f64 = r.groups.iter().map(|g| g.values[1].value).sum();
            assert!(
                total == ROWS as f64 || total == (ROWS + APPEND) as f64,
                "torn epoch: COUNT {total} matches neither pre- nor post-append row count"
            );
            t_ingest.join().unwrap();
            t_evict.join().unwrap();

            // Quiescent: whatever the eviction left behind, the final
            // watermark answers exactly — an absorbed sample reuses, a
            // swept one re-samples, and both reconstruct the true count.
            let r = svc.run(&query(0, ROWS + APPEND - 1)).unwrap();
            assert_weight_identity(&r, 0, ROWS + APPEND - 1);
            let stats = svc.stats();
            assert_eq!(stats.queries, 3);
            assert_eq!(stats.ingest_batches, 1);
            assert_eq!(stats.ingest_rows, APPEND as u64);
        },
    );
    eprintln!("ingest race model: {report:?}");
    assert!(
        report.complete && report.interleavings >= 200,
        "expected an exhaustive search over hundreds of interleavings, got {report:?}"
    );
}

/// `APPEND` rows whose keys start at `from`.
fn append_batch_at(from: i64) -> Vec<(String, Column)> {
    vec![
        ("key".into(), Column::Int64((from..from + APPEND).collect())),
        (
            "g".into(),
            Column::Int64((from..from + APPEND).map(|i| i % GROUPS).collect()),
        ),
        (
            "v".into(),
            Column::Int64((from..from + APPEND).map(|i| i % 10).collect()),
        ),
    ]
}

/// Two ingests race a query. Each publishes under `laqy.wal` and absorbs
/// after releasing it, so the absorbs may run in either order; each
/// offers a sample only the rows past its watermark, so neither loses
/// nor double-counts a row. The query pins
/// one of the three published versions and counts it exactly; once both
/// ingests return, the stored sample sits at the final watermark and
/// answers it as a full hit, exactly.
#[test]
fn racing_ingests_absorb_every_row_once() {
    const FINAL: i64 = ROWS + 2 * APPEND;
    let report = model_with(
        ModelOptions {
            preemption_bound: 2,
            max_interleavings: 40_000,
        },
        || {
            let svc = service();
            // A sample whose box spans the final watermark, so both
            // batches land inside it and both absorbs have work to do.
            svc.run(&query(0, FINAL - 1)).unwrap();
            let ingests: Vec<_> = [ROWS, ROWS + APPEND]
                .into_iter()
                .map(|from| {
                    let ingester = svc.clone();
                    thread::spawn(move || {
                        let w = ingester.ingest("t", append_batch_at(from)).unwrap();
                        assert!(w == (ROWS + APPEND) as u64 || w == FINAL as u64, "{w}");
                    })
                })
                .collect();
            let r = svc.run(&query(0, FINAL - 1)).unwrap();
            let total: f64 = r.groups.iter().map(|g| g.values[1].value).sum();
            assert!(
                [ROWS, ROWS + APPEND, FINAL].contains(&(total as i64)) && total.fract() == 0.0,
                "COUNT {total} matches no published version"
            );
            for t in ingests {
                t.join().unwrap();
            }

            {
                let store = svc.store();
                assert_eq!(store.len(), 1);
                for (id, stored) in store.iter() {
                    assert_eq!(stored.watermark, FINAL as u64, "{id:?} caught up");
                    assert_eq!(stored.sample.total_weight(), FINAL as u64, "{id:?}");
                }
            }
            let r = svc.run(&query(0, FINAL - 1)).unwrap();
            assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
            assert_weight_identity(&r, 0, FINAL - 1);
            let stats = svc.stats();
            assert_eq!(stats.ingest_batches, 2);
            assert_eq!(stats.ingest_rows, 2 * APPEND as u64);
        },
    );
    eprintln!("racing ingests model: {report:?}");
    assert!(
        report.complete && report.interleavings >= 200,
        "expected an exhaustive search over hundreds of interleavings, got {report:?}"
    );
}

/// A client's coverage plan races a concurrent full eviction. Optimistic
/// revalidation must detect the vanished sample under the write lock and
/// degrade (retry, then online) — never merge against freed state, never
/// deadlock, and never return a biased answer.
#[test]
fn revalidation_survives_concurrent_eviction() {
    let report = model_with(
        ModelOptions {
            // The evictor thread has few scheduling points, so bound 2
            // explores exhaustively below the hundreds-of-interleavings
            // bar; bound 3 covers strictly more schedules. Exhaustive at
            // bound 3 takes ≈ 600 interleavings; a cap below that
            // can stop before the merge that follows a clear.
            preemption_bound: 3,
            max_interleavings: 20_000,
        },
        || {
            let svc = service();
            svc.run(&query(0, 119)).unwrap();
            let evictor = svc.clone();
            let t = thread::spawn(move || {
                evictor.clear_samples();
            });
            let r = svc.run(&query(0, 199)).unwrap();
            assert_weight_identity(&r, 0, 199);
            t.join().unwrap();

            // Whatever the store holds now, it must answer coherently.
            let r = svc.run(&query(0, 199)).unwrap();
            assert_weight_identity(&r, 0, 199);
            assert_eq!(svc.stats().queries, 3);
        },
    );
    eprintln!("eviction model: {report:?}");
    assert!(
        report.complete && report.interleavings >= 200,
        "expected an exhaustive search over hundreds of interleavings, got {report:?}"
    );
}

/// `query_k` over a plan with a fixed fact predicate (every row passes it).
/// The predicate is part of the sampler's input identity, so ingest's
/// `absorb_appended` leaves this family's samples stale and the next plan
/// over one carries its `TailFragment`. `k` is above every stratum's
/// population (100 rows once the batch lands), so a sample holds its whole
/// population and every answer counts its window exactly, tightened or
/// not.
fn gated_query(lo: i64, hi: i64) -> ApproxQuery {
    let mut q = query_k(lo, hi, 128);
    q.plan.predicate = Predicate::between("v", 0, 9);
    q
}

/// Two clients with different windows over one stale stored sample: each
/// plan reuses the sample, Δ-scans its own residual and the sample's one
/// append tail, so the claims overlap in part — `{R_a, T}` and
/// `{R_b, T}`. A client claims both keys or none and waits owning
/// nothing, so whichever claims the tail first runs to its merge and the
/// other re-plans after it. Every interleaving must terminate — the
/// scheduler reports an all-blocked one as a deadlock — with exact-weight
/// answers, the tail caught up once.
#[test]
fn clients_sharing_one_stale_tail_with_different_windows_never_wait_on_each_other() {
    const HI: i64 = ROWS + APPEND - 1;
    let report = model_with(
        ModelOptions {
            preemption_bound: 2,
            max_interleavings: 1500,
        },
        || {
            // One sample over [100, HI], stale once the batch lands.
            let svc = service();
            svc.run(&gated_query(100, HI)).unwrap();
            svc.ingest("t", append_batch()).unwrap();
            let stale = svc.store();
            assert_eq!(stale.len(), 1);
            assert!(stale.iter_samples().all(|s| s.watermark == ROWS as u64));

            let svc_b = svc.clone();
            let t = thread::spawn(move || {
                let r = svc_b.run(&gated_query(50, HI)).unwrap();
                assert_weight_identity(&r, 50, HI);
            });
            let r = svc.run(&gated_query(0, HI)).unwrap();
            assert_weight_identity(&r, 0, HI);
            t.join().unwrap();

            // The tail was caught up exactly once: the quiescent store
            // answers the wider window as a plain full hit.
            let r = svc.run(&gated_query(0, HI)).unwrap();
            assert_weight_identity(&r, 0, HI);
            assert_eq!(r.stats.reuse, Some(laqy::ReuseClass::Full));
            assert_eq!(svc.stats().queries, 4);
        },
    );
    eprintln!("shared-tail model: {report:?}");
    assert!(
        report.complete && report.interleavings >= 200,
        "expected an exhaustive search over hundreds of interleavings, got {report:?}"
    );
}
