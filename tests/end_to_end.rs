//! Cross-crate integration tests: the full LAQy flow over generated SSB
//! data, checking reuse classification, estimate accuracy against exact
//! answers, and the statistical equivalence of merged samples.

use laqy::{ApproxQuery, Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_engine::{AggSpec, Catalog, ColRef, Predicate, QueryPlan, Value};
use laqy_workload::{generate, q1, q2, strat, SsbConfig};

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.005, // 30k fact rows
        seed: 0xE2E,
    })
}

fn session(cat: &Catalog, seed: u64) -> LaqyService {
    LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed,
            ..Default::default()
        },
    )
}

fn n_rows(cat: &Catalog) -> i64 {
    cat.table("lineorder").unwrap().num_rows() as i64
}

#[test]
fn reuse_classes_follow_algorithm_one() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 1);

    // Cold store: online.
    let r = s.run(&q1(Interval::new(0, n / 2), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));

    // Extending the range: partial (delta) reuse.
    let r = s.run(&q1(Interval::new(0, 3 * n / 4), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
    assert!(r.stats.effective_selectivity > 0.0 && r.stats.effective_selectivity < 1.0);

    // Zooming back inside the covered range: full reuse, no scan.
    let r = s.run(&q1(Interval::new(n / 8, n / 4), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    assert_eq!(r.stats.scanned_rows, 0);
    assert_eq!(r.stats.effective_selectivity, 0.0);

    // A disjoint region: online again (store may extend coverage later).
    // Coverage after the queries above is [0, 3n/4).
    let r = s.run(&q1(Interval::new(7 * n / 8, n - 1), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
}

#[test]
fn estimates_track_exact_answers_q1() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 2);
    let query = q1(Interval::new(0, (0.6 * n as f64) as i64), 512);

    let approx = s.run(&query).unwrap();
    let (exact, _) = s.run_exact(&query).unwrap();

    assert_eq!(
        approx.groups.len(),
        exact.rows.len(),
        "group sets must match"
    );
    let (mut total_est, mut total_exact) = (0.0, 0.0);
    for g in &approx.groups {
        let truth = exact
            .row_by_key(&[Value::Int(g.key[0])])
            .expect("group present in exact result");
        total_est += g.values[0].value;
        total_exact += truth.values[0];
    }
    let rel = (total_est - total_exact).abs() / total_exact;
    assert!(rel < 0.05, "aggregate relative error {rel} too high");
}

#[test]
fn merged_sample_estimates_match_fresh_online_estimates() {
    // The paper's core claim: partial reuse must not degrade accuracy.
    let cat = catalog();
    let n = n_rows(&cat);
    let target = q1(Interval::new(0, (0.7 * n as f64) as i64), 256);

    // Exact ground truth.
    let (exact, _) = session(&cat, 0).run_exact(&target).unwrap();
    let truth_total: f64 = exact.rows.iter().map(|r| r.values[0]).sum();

    let mut err_online = 0.0;
    let mut err_merged = 0.0;
    let trials = 10;
    for t in 0..trials {
        // Fresh online.
        let s = session(&cat, 100 + t);
        let r = s.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
        let total: f64 = r.groups.iter().map(|g| g.values[0].value).sum();
        err_online += (total - truth_total).abs() / truth_total;

        // Warm up with a prefix range, forcing delta + merge.
        let s = session(&cat, 200 + t);
        s.run(&q1(Interval::new(0, (0.4 * n as f64) as i64), 256))
            .unwrap();
        let r = s.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
        let total: f64 = r.groups.iter().map(|g| g.values[0].value).sum();
        err_merged += (total - truth_total).abs() / truth_total;
    }
    let (avg_online, avg_merged) = (err_online / trials as f64, err_merged / trials as f64);
    assert!(avg_online < 0.05, "online error {avg_online}");
    assert!(avg_merged < 0.05, "merged error {avg_merged}");
    // Merged accuracy must be in the same ballpark as fresh sampling.
    assert!(
        avg_merged < avg_online * 3.0 + 0.01,
        "merging degraded accuracy: online {avg_online}, merged {avg_merged}"
    );
}

#[test]
fn q2_join_pipeline_matches_exact_groups() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 3);
    let query = q2(Interval::new(0, n - 1), 512);

    let approx = s.run(&query).unwrap();
    let (exact, _) = s.run_exact(&query).unwrap();
    // Full range + large k ⇒ every joined group appears.
    assert_eq!(approx.groups.len(), exact.rows.len());

    // Spot-check totals.
    let total_est: f64 = approx.groups.iter().map(|g| g.values[0].value).sum();
    let total_exact: f64 = exact.rows.iter().map(|r| r.values[0]).sum();
    let rel = (total_est - total_exact).abs() / total_exact;
    assert!(rel < 0.1, "Q2 aggregate relative error {rel}");
}

#[test]
fn full_reuse_after_join_heavy_query_skips_scan() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 4);
    s.run(&q2(Interval::new(0, n / 2), 64)).unwrap();
    let r = s.run(&q2(Interval::new(n / 8, n / 4), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    assert_eq!(r.stats.scanned_rows, 0);
}

#[test]
fn different_templates_do_not_share_samples() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 5);
    s.run(&q1(Interval::new(0, n - 1), 64)).unwrap();
    // Q2 has a different sampler input (join subtree) — no reuse.
    let r = s.run(&q2(Interval::new(0, n / 2), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
    // Different k also prevents reuse.
    let r = s.run(&q1(Interval::new(0, n / 2), 128)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
}

#[test]
fn strat_template_produces_table1_strata() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 6);
    for (cols, expected) in [(1usize, 50usize), (2, 450), (3, 4950)] {
        let r = s
            .run(&strat(cols, "lo_intkey", Interval::new(0, n - 1), 8))
            .unwrap();
        // 30k rows cover all 450 2-col combos, and most 3-col combos.
        if cols < 3 {
            assert_eq!(r.groups.len(), expected);
        } else {
            assert!(r.groups.len() > expected * 9 / 10);
        }
    }
}

#[test]
fn online_oblivious_baseline_never_reuses() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 7);
    for _ in 0..3 {
        let r = s
            .run_online_oblivious(&q1(Interval::new(0, n / 2), 64))
            .unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
    }
    assert_eq!(s.store().len(), 0, "oblivious runs must not store samples");
}

#[test]
fn repeated_identical_query_is_free_after_first() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = session(&cat, 8);
    let query = q1(Interval::new(n / 4, n / 2), 64);
    let first = s.run(&query).unwrap();
    assert_eq!(first.stats.reuse, Some(ReuseClass::Online));
    let second = s.run(&query).unwrap();
    assert_eq!(second.stats.reuse, Some(ReuseClass::Full));
    assert_eq!(second.stats.scanned_rows, 0);
}

#[test]
fn zero_width_range_is_handled() {
    let cat = catalog();
    let s = session(&cat, 9);
    let r = s.run(&q1(Interval::new(5, 5), 16)).unwrap();
    // One matching row lands in exactly one stratum.
    let total: f64 = r
        .groups
        .iter()
        .map(|g| g.values[1].value) // COUNT
        .sum();
    assert_eq!(total, 1.0);
}

/// Nine aggregate inputs plus the range column: one payload column more
/// than a sampled row holds.
const TOO_WIDE_SQL: &str = "SELECT lo_orderdate, SUM(lo_quantity), SUM(lo_extendedprice), \
     SUM(lo_orderkey), SUM(lo_discount), SUM(lo_revenue), SUM(lo_suppkey), SUM(lo_tax), \
     SUM(lo_partkey), SUM(lo_custkey) FROM lineorder WHERE lo_intkey BETWEEN 0 AND 100 \
     GROUP BY lo_orderdate";

#[test]
fn too_wide_a_payload_is_unsupported_not_a_panic() {
    let cat = catalog();
    let s = session(&cat, 11);
    let query = laqy::approx_query(&cat, TOO_WIDE_SQL, 32).expect("the SQL plans");
    let err = s.run(&query).expect_err("ten payload columns");
    assert!(matches!(err, laqy::LaqyError::Unsupported(_)), "{err}");
    // The service is unharmed: the next query answers.
    let r = s.run(&q1(Interval::new(0, 99), 16)).unwrap();
    assert!(!r.groups.is_empty());
}

#[test]
fn k_larger_than_input_keeps_population_and_is_exact() {
    let cat = catalog();
    let s = session(&cat, 10);
    let query = q1(Interval::new(0, 499), 100_000);
    let approx = s.run(&query).unwrap();
    let (exact, _) = s.run_exact(&query).unwrap();
    for g in &approx.groups {
        let truth = exact.row_by_key(&[Value::Int(g.key[0])]).unwrap();
        assert!(
            (g.values[0].value - truth.values[0]).abs() < 1e-6,
            "population sample must be exact"
        );
        assert_eq!(g.values[0].ci_half_width, 0.0);
    }
}

#[test]
fn store_budget_eviction_degrades_to_online_not_wrong_answers() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed: 11,
            store_budget_bytes: Some(1), // evict everything immediately
            ..Default::default()
        },
    );
    let query = q1(Interval::new(0, n / 2), 64);
    let r1 = s.run(&query).unwrap();
    assert_eq!(r1.stats.reuse, Some(ReuseClass::Online));
    // With a 1-byte budget at most one sample survives; answers stay valid.
    let r2 = s.run(&query).unwrap();
    assert!(r2.groups.len() == r1.groups.len());
}

#[test]
fn custom_plan_with_fixed_predicate_is_part_of_identity() {
    let cat = catalog();
    let n = n_rows(&cat);
    let make = |quantity_cap: i64| ApproxQuery {
        plan: QueryPlan {
            fact: "lineorder".into(),
            predicate: Predicate::between("lo_quantity", 1, quantity_cap),
            joins: vec![],
            group_by: vec![ColRef::fact("lo_discount")],
            aggs: vec![AggSpec::sum("lo_revenue")],
        },
        range_column: "lo_intkey".into(),
        range: Interval::new(0, n / 2),
        k: 32,
    };
    let s = session(&cat, 12);
    s.run(&make(25)).unwrap();
    // Same range but different fixed predicate ⇒ different sampler input
    // ⇒ no reuse.
    let r = s.run(&make(40)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
    // Identical fixed predicate ⇒ full reuse.
    let r = s.run(&make(25)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
}

#[test]
fn full_ssb_benchmark_approximates_exact_results() {
    // Run all thirteen SSB queries (Q1.1–Q4.3) approximately — wrapping
    // each plan as an ApproxQuery over the full lo_intkey domain with a
    // generous k — and compare against exact execution.
    let cat = catalog();
    let n = n_rows(&cat);
    let session = session(&cat, 77);
    for (name, plan) in laqy_workload::all_queries() {
        let query = ApproxQuery {
            plan,
            range_column: "lo_intkey".into(),
            range: Interval::new(0, n - 1),
            k: 4096,
        };
        let approx = session
            .run(&query)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (exact, _) = session
            .run_exact(&query)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            approx.groups.len(),
            exact.rows.len(),
            "{name}: group cardinality"
        );
        let est_total: f64 = approx.groups.iter().map(|g| g.values[0].value).sum();
        let exact_total: f64 = exact.rows.iter().map(|r| r.values[0]).sum();
        if exact_total > 0.0 {
            let rel = (est_total - exact_total).abs() / exact_total;
            assert!(rel < 0.1, "{name}: relative error {rel}");
        }
    }
}
