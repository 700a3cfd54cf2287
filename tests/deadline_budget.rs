//! Deadline- and row-budget-bounded degraded answers (normal build).
//!
//! The contract: a budgeted query returns *something* — a full-fidelity
//! estimate when the budget suffices, otherwise a degraded answer
//! finalized from the partial reservoir with extrapolated extensive
//! aggregates and widened confidence intervals — and a degraded sample
//! never pollutes the shared store's coverage metadata.

use std::time::{Duration, Instant};

use laqy::{
    ApproxQuery, DegradeReason, Interval, LaqyService, QueryBudget, ReuseClass, SessionConfig,
};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table, Value};

/// Rows chosen to span several 64Ki-row morsels, so budgets can split a
/// scan mid-flight.
const N: i64 = 200_000;

fn catalog(n: i64) -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        Table::new(
            "t",
            vec![
                ("key".into(), Column::Int64((0..n).collect())),
                ("g".into(), Column::Int64((0..n).map(|i| i % 4).collect())),
                ("v".into(), Column::Int64((0..n).map(|i| i % 100).collect())),
            ],
        )
        .unwrap(),
    );
    cat
}

fn query(lo: i64, hi: i64) -> ApproxQuery {
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
        k: 64,
    }
}

fn service(n: i64) -> LaqyService {
    LaqyService::with_config(
        catalog(n),
        SessionConfig {
            threads: 1,
            seed: 0xB0D9E7,
            ..Default::default()
        },
    )
}

#[test]
fn row_cap_degrades_and_extrapolates_within_widened_ci() {
    let service = service(N);
    let q = query(0, N - 1);
    let (exact, _) = service.run_exact(&q).unwrap();

    // Cap below the table size: the scan stops after ~2 morsels.
    let result = service
        .run_with_budget(&q, QueryBudget::with_row_cap(70_000))
        .unwrap();
    let deg = result.stats.degraded.expect("row cap must trip");
    assert_eq!(deg.reason, DegradeReason::RowBudgetExhausted);
    assert!(deg.coverage > 0.0 && deg.coverage < 1.0);
    assert!(deg.ci_inflation > 1.0);

    // Extensive aggregates are extrapolated to the full region; the
    // widened CI must still cover the exact answer generously (the key
    // column is a shuffled-exchangeable identity here, so the scanned
    // prefix is representative).
    for g in &result.groups {
        let est = &g.values[0];
        if est.support == 0 || !est.ci_half_width.is_finite() || est.ci_half_width <= 0.0 {
            continue;
        }
        let truth = exact.row_by_key(&[Value::Int(g.key[0])]).unwrap();
        let err = (est.value - truth.values[0]).abs();
        assert!(
            err <= 6.0 * est.ci_half_width,
            "group {:?}: extrapolated estimate off by {err}, widened CI {}",
            g.key,
            est.ci_half_width
        );
    }

    // The partial sample never enters the store, and the service counted
    // the degraded answer.
    assert!(service.store().is_empty());
    assert_eq!(service.stats().degraded_answers, 1);

    // The same query unbudgeted absorbs as usual.
    let full = service.run(&q).unwrap();
    assert!(full.stats.degraded.is_none());
    assert_eq!(service.store().len(), 1);
    assert_eq!(service.stats().degraded_answers, 1);
}

#[test]
fn coverage_reuse_under_budget_degrades_without_polluting_the_store() {
    let service = service(N);
    // Warm the first half: one stored sample.
    service.run(&query(0, N / 2 - 1)).unwrap();
    assert_eq!(service.store().len(), 1);

    // Full-range query under a row cap: partial reuse of the stored
    // half plus a budget-cut Δ-scan of the rest.
    let result = service
        .run_with_budget(&query(0, N - 1), QueryBudget::with_row_cap(70_000))
        .unwrap();
    assert_eq!(result.stats.reuse, Some(ReuseClass::Partial));
    let deg = result.stats.degraded.expect("the Δ-scan must degrade");
    // Blended coverage: the reused half at full fidelity, the Δ half
    // partial — strictly between the Δ-only and full coverage.
    assert!(deg.coverage > 0.4 && deg.coverage < 1.0);

    // No consolidation, no new fragment sample: the store still holds
    // exactly the warm first-half sample.
    let store = service.store();
    assert_eq!(store.len(), 1);
    let (_, d) = store.descriptors().next().unwrap();
    assert_eq!(
        d.predicates.get("key").unwrap(),
        &laqy::IntervalSet::of(Interval::new(0, N / 2 - 1))
    );
    drop(store);
    assert_eq!(service.stats().degraded_answers, 1);
}

#[test]
fn unbounded_budget_is_the_plain_path() {
    let service = service(N);
    let result = service
        .run_with_budget(&query(0, N - 1), QueryBudget::unbounded())
        .unwrap();
    assert!(result.stats.degraded.is_none());
    assert_eq!(service.stats().degraded_answers, 0);
    assert_eq!(service.store().len(), 1);
}

#[test]
fn deadline_answers_within_twice_the_budget() {
    // Grow the table until the unbudgeted scan is slow enough that an
    // eighth of it is a meaningful deadline on this machine. Deadline
    // checks are cooperative — once per morsel at admission — so the
    // overshoot past expiry is bounded by one morsel's scan time; the 2×
    // bound below therefore also needs enough morsels (≥12) that a
    // single morsel fits comfortably inside a t_full/8 budget.
    let mut n: i64 = N;
    loop {
        let service = service(n);
        let q = query(0, n - 1);
        let t0 = Instant::now();
        let full = service.run_online_oblivious(&q).unwrap();
        let t_full = t0.elapsed();
        assert!(full.stats.degraded.is_none());
        if (t_full < Duration::from_millis(40) || n < (12 << 16)) && n < (1 << 23) {
            n *= 2;
            continue;
        }

        let budget = t_full / 8 + Duration::from_millis(3);
        let t1 = Instant::now();
        let degraded = service
            .run_with_budget(&q, QueryBudget::with_deadline(budget))
            .unwrap();
        let t_deg = t1.elapsed();

        let deg = degraded
            .stats
            .degraded
            .expect("an eighth of the full scan time must trip the deadline");
        assert_eq!(deg.reason, DegradeReason::DeadlineExceeded);
        assert!(deg.coverage < 1.0);
        // The degraded answer lands within 2× the budget (the overshoot
        // is bounded by one morsel past expiry plus finalization)...
        assert!(
            t_deg <= budget * 2,
            "degraded run took {t_deg:?} against a {budget:?} budget"
        );
        // ...while the unbudgeted scan takes at least 5× the budget, so
        // the deadline is doing real work, not slack.
        assert!(
            t_full >= budget * 5,
            "unbudgeted run {t_full:?} is not ≥5× the {budget:?} budget"
        );
        break;
    }
}

/// A zero deadline on a cold store: the online plan has no stored sample
/// to answer from, so its one Δ still starts, degrades at its first morsel
/// and answers with nothing — counted as the online run and scan it is,
/// never as a Δ-scan, and not stored.
#[test]
fn a_zero_deadline_on_a_cold_store_is_a_degraded_online_run() {
    let service = service(N);
    let result = service
        .run_with_budget(&query(0, N - 1), QueryBudget::with_deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(result.groups.len(), 0);
    let deg = result.stats.degraded.expect("a zero deadline degrades");
    assert_eq!(deg.reason, DegradeReason::DeadlineExceeded);
    assert_eq!(deg.coverage, 1e-4);
    assert_eq!(result.stats.reuse, Some(ReuseClass::Online));
    assert_eq!(result.stats.fragments_scanned, 0);
    assert!(service.store().is_empty());
    let stats = service.stats();
    let online = (
        stats.online_runs,
        stats.online_scans,
        stats.degraded_answers,
    );
    assert_eq!(online, (1, 1, 1));
    assert_eq!((stats.delta_scans, stats.fragments_scanned), (0, 0));
}
