//! Statistical validation of the paper's central guarantee: lazy sampling
//! accelerates AQP **without loss of approximation guarantees**. These
//! tests measure estimator bias and CI coverage over repeated seeds, for
//! fresh online samples and for merged (partial-reuse) samples alike.

use laqy::{save_store, Interval, LaqyService, ReuseClass, SampleStore, SessionConfig};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table, Value};
use laqy_workload::{generate, q1, SsbConfig};

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.003, // 18k fact rows
        seed: 0x57A7,
    })
}

fn session(cat: &Catalog, seed: u64) -> LaqyService {
    LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 1,
            seed,
            ..Default::default()
        },
    )
}

/// Aggregate SUM(lo_revenue) over all lo_orderdate groups, exactly.
fn exact_total(cat: &Catalog, query: &laqy::ApproxQuery) -> f64 {
    let (exact, _) = session(cat, 0).run_exact(query).unwrap();
    exact.rows.iter().map(|r| r.values[0]).sum()
}

#[test]
fn merged_sample_total_is_unbiased_across_seeds() {
    // Mean of the merged-sample estimate over many seeds must sit close to
    // the exact total — bias would indicate the merge distorts inclusion
    // probabilities.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let target = q1(Interval::new(0, (0.7 * n as f64) as i64), 12);
    let truth = exact_total(&cat, &target);

    let trials = 30;
    let mut sum_est = 0.0;
    for t in 0..trials {
        let s = session(&cat, 5_000 + t);
        // Warm coverage of the first 40% so the target query merges.
        s.run(&q1(Interval::new(0, (0.4 * n as f64) as i64), 12))
            .unwrap();
        let r = s.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
        sum_est += r.groups.iter().map(|g| g.values[0].value).sum::<f64>();
    }
    let mean = sum_est / trials as f64;
    let bias = (mean - truth).abs() / truth;
    assert!(
        bias < 0.02,
        "merged-sample mean estimate {mean} vs exact {truth}: bias {bias}"
    );
}

#[test]
fn per_group_ci_coverage_is_near_nominal_for_merged_samples() {
    // 95% CIs should cover the exact per-group value at a rate near 95%
    // (small-m CLT intervals run a bit below nominal; 85% is a sturdy
    // floor that still catches broken variance accounting).
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let target = q1(Interval::new(0, (0.7 * n as f64) as i64), 16);
    let (exact, _) = session(&cat, 0).run_exact(&target).unwrap();

    let trials = 15;
    let (mut covered, mut total) = (0usize, 0usize);
    for t in 0..trials {
        let s = session(&cat, 9_000 + t);
        s.run(&q1(Interval::new(0, (0.4 * n as f64) as i64), 16))
            .unwrap();
        let r = s.run(&target).unwrap();
        for g in &r.groups {
            let Some(truth) = exact.row_by_key(&[Value::Int(g.key[0])]) else {
                continue;
            };
            let est = &g.values[0];
            if est.support == 0 || est.ci_half_width.is_nan() {
                continue;
            }
            total += 1;
            if (est.value - truth.values[0]).abs() <= est.ci_half_width {
                covered += 1;
            }
        }
    }
    let coverage = covered as f64 / total as f64;
    assert!(
        coverage > 0.85,
        "CI coverage {coverage:.3} too low ({covered}/{total})"
    );
}

#[test]
fn concurrent_merge_matches_full_resample_error_distribution() {
    // Regression for the concurrent path: a partial-reuse sample assembled
    // through `LaqyService` under client concurrency (warm coverage +
    // Δ-merge raced by two clients) must be statistically equivalent to a
    // fresh full resample at the same reservoir budget — same group count,
    // same sum-estimate error regime. A lost or double-merged Δ would skew
    // the error distribution even when every individual estimate stays
    // plausible.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let k = 12;
    let warm = q1(Interval::new(0, (0.4 * n as f64) as i64), k);
    let target = q1(Interval::new(0, (0.7 * n as f64) as i64), k);
    let (exact, _) = session(&cat, 0).run_exact(&target).unwrap();
    let truth: f64 = exact.rows.iter().map(|r| r.values[0]).sum();
    let exact_groups = exact.rows.len();

    let trials = 20;
    let (mut merged_errs, mut resample_errs) = (Vec::new(), Vec::new());
    for t in 0..trials {
        // (a) Merged sample, produced by two concurrent clients racing the
        // same partially-covered query against one shared store.
        let service = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 1,
                seed: 40_000 + t,
                ..Default::default()
            },
        );
        service.run(&warm).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let service = service.clone();
                let target = &target;
                scope.spawn(move || service.run(target).unwrap());
            }
        });
        assert!(
            service.stats().partial_merges >= 1,
            "the target query must extend coverage via a Δ-merge"
        );
        // Estimate deterministically off the merged store content.
        let r = service.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
        assert_eq!(r.groups.len(), exact_groups, "merged sample lost a group");
        let est: f64 = r.groups.iter().map(|g| g.values[0].value).sum();
        merged_errs.push(((est - truth) / truth).abs());

        // (b) Full resample of the same range at the same seed budget.
        let s = session(&cat, 40_000 + t);
        let r = s.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
        assert_eq!(r.groups.len(), exact_groups, "resample lost a group");
        let est: f64 = r.groups.iter().map(|g| g.values[0].value).sum();
        resample_errs.push(((est - truth) / truth).abs());
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (merged, resample) = (mean(&merged_errs), mean(&resample_errs));
    assert!(
        merged < 0.05,
        "concurrent-merge mean error too high: {merged}"
    );
    assert!(resample < 0.05, "resample mean error too high: {resample}");
    // Same error regime: neither path systematically worse. The floor term
    // keeps the ratio meaningful when both errors are tiny.
    let floor = 0.002;
    assert!(
        merged <= 2.5 * resample.max(floor) && resample <= 2.5 * merged.max(floor),
        "error distributions diverge: merged {merged} vs resample {resample}"
    );
}

/// The full SSB catalog with `lineorder` truncated to its first
/// `base_rows` storage rows (dimensions untouched), plus the held-back
/// tail as `batches` equal append batches in storage order.
#[allow(clippy::type_complexity)]
fn truncated_catalog(
    cat: &Catalog,
    base_rows: usize,
    batches: usize,
) -> (Catalog, Vec<Vec<(String, Column)>>) {
    let fact = cat.table("lineorder").unwrap();
    let n = fact.num_rows();
    let mut truncated = Catalog::new();
    for name in cat.table_names() {
        if name == "lineorder" {
            continue;
        }
        truncated.register((**cat.table(name).unwrap()).clone());
    }
    let slice_rows = |lo: usize, hi: usize| -> Vec<(String, Column)> {
        fact.columns()
            .map(|(name, col)| (name.to_string(), col.take(lo..hi)))
            .collect()
    };
    truncated.register(Table::new("lineorder", slice_rows(0, base_rows)).unwrap());
    let stride = (n - base_rows).div_ceil(batches);
    let tail: Vec<_> = (0..batches)
        .map(|b| slice_rows(base_rows + b * stride, n.min(base_rows + (b + 1) * stride)))
        .collect();
    (truncated, tail)
}

#[test]
fn incremental_absorb_matches_from_scratch_sample_at_final_watermark() {
    // The streaming-ingest guarantee: a stored sample that absorbs an
    // append stream batch-by-batch (continuing Algorithm R past its
    // original watermark) must be statistically equivalent to a fresh
    // online sample drawn against the final table — same groups, unbiased
    // total, same error regime. A wrong inclusion probability for late
    // rows would bias the absorbed estimator even when each individual
    // answer looks plausible.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows();
    let k = 12;
    // lo_intkey is a shuffled permutation of [0, n), so the full-domain
    // range covers every row regardless of when it arrives.
    let target = q1(Interval::new(0, n as i64 - 1), k);
    let (exact, _) = session(&cat, 0).run_exact(&target).unwrap();
    let truth: f64 = exact.rows.iter().map(|r| r.values[0]).sum();
    let exact_groups = exact.rows.len();
    let base_rows = (0.6 * n as f64) as usize;

    let trials = 20;
    let (mut absorbed_ests, mut scratch_ests) = (Vec::new(), Vec::new());
    for t in 0..trials {
        // (a) Incremental: sample the truncated table, then ingest the
        // held-back tail in four batches, absorbing each into the stored
        // sample; the final answer is pure reuse of the absorbed sample.
        let (truncated, tail) = truncated_catalog(&cat, base_rows, 4);
        let service = LaqyService::with_config(
            truncated,
            SessionConfig {
                threads: 1,
                seed: 80_000 + t,
                ..Default::default()
            },
        );
        let warm = service.run(&target).unwrap();
        assert_eq!(warm.stats.reuse, Some(ReuseClass::Online));
        for batch in tail {
            service.ingest("lineorder", batch).unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.ingest_batches, 4);
        assert_eq!(stats.ingest_rows, (n - base_rows) as u64);
        assert_eq!(
            stats.absorbed_rows,
            (n - base_rows) as u64,
            "every appended row lies inside the stored sample's predicate"
        );
        let r = service.run(&target).unwrap();
        assert_eq!(
            r.stats.reuse,
            Some(ReuseClass::Full),
            "absorption must carry the sample to the final watermark"
        );
        assert_eq!(r.groups.len(), exact_groups, "absorbed sample lost a group");
        absorbed_ests.push(r.groups.iter().map(|g| g.values[0].value).sum::<f64>());

        // (b) From-scratch online sample of the final table at a matched
        // seed budget.
        let s = session(&cat, 80_000 + t);
        let r = s.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
        assert_eq!(r.groups.len(), exact_groups, "scratch sample lost a group");
        scratch_ests.push(r.groups.iter().map(|g| g.values[0].value).sum::<f64>());
    }

    // Both estimators unbiased: across-seed mean within 2% of exact.
    for (label, ests) in [("absorbed", &absorbed_ests), ("scratch", &scratch_ests)] {
        let mean = ests.iter().sum::<f64>() / ests.len() as f64;
        let bias = (mean - truth).abs() / truth;
        assert!(
            bias < 0.02,
            "{label} mean estimate {mean} vs exact {truth}: bias {bias}"
        );
    }
    // Same error regime: absorbing must not inflate variance relative to
    // sampling the final table in one pass.
    let spread = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    };
    let (absorbed_sd, scratch_sd) = (spread(&absorbed_ests), spread(&scratch_ests));
    let floor = 0.002 * truth.abs();
    assert!(
        absorbed_sd <= 2.5 * scratch_sd.max(floor) && scratch_sd <= 2.5 * absorbed_sd.max(floor),
        "error distributions diverge: absorbed {absorbed_sd} vs scratch {scratch_sd}"
    );
}

/// Serialize a store holding `m` disjoint Q1-family fragments, each an
/// equal slice of `[0, covered_hi]` separated by uncovered gaps. Built
/// through scratch services and re-inserted raw so absorption cannot
/// consolidate adjacent fragments.
fn fragmented_snapshot(cat: &Catalog, m: usize, covered_hi: i64, k: usize, seed: u64) -> Vec<u8> {
    let mut store = SampleStore::new();
    let stride = covered_hi / m as i64;
    let width = (stride as f64 * 0.8).round() as i64;
    for i in 0..m {
        let lo = i as i64 * stride;
        let scratch = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 1,
                seed: seed + i as u64,
                ..Default::default()
            },
        );
        scratch
            .run(&q1(Interval::new(lo, lo + width - 1), k))
            .unwrap();
        let guard = scratch.store();
        let (_, stored) = guard.iter().next().unwrap();
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
fn coverage_planned_merge_matches_full_resample_of_the_union() {
    // The tentpole guarantee: a lazy sample assembled by the coverage
    // planner from ≥3 disjoint stored fragments plus residual Δ-scans
    // must be statistically equivalent to a full online resample of the
    // whole query region — same groups, per-group reservoir cardinality
    // within the budget, and an unbiased total whose mean across seeds
    // lands inside a CLT interval.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let k = 12;
    let target = q1(Interval::new(0, (0.9 * n as f64) as i64), k);
    let (exact, _) = session(&cat, 0).run_exact(&target).unwrap();
    let truth: f64 = exact.rows.iter().map(|r| r.values[0]).sum();
    let exact_groups = exact.rows.len();

    let trials = 20;
    let (mut planned_ests, mut resample_ests) = (Vec::new(), Vec::new());
    for t in 0..trials {
        // (a) Coverage-planned: 3 disjoint fragments merged k-way, plus
        // Δ-scans of the gaps and tail.
        let snapshot = fragmented_snapshot(&cat, 3, (0.75 * n as f64) as i64, k, 60_000 + 10 * t);
        let service = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 1,
                seed: 70_000 + t,
                ..Default::default()
            },
        );
        service.import_samples(&snapshot).unwrap();
        let r = service.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
        assert_eq!(
            r.stats.fragments_reused, 3,
            "plan must merge all three stored fragments"
        );
        // All gaps share the one varying column, so the residual region
        // collapses into a single multi-interval fragment — scanned once.
        assert!(
            r.stats.fragments_scanned >= 1,
            "gaps between fragments must be Δ-scanned"
        );
        assert!(
            r.stats.effective_selectivity < 0.45,
            "coverage plan should scan only the residual, got {}",
            r.stats.effective_selectivity
        );
        assert_eq!(r.groups.len(), exact_groups, "planned merge lost a group");
        for g in &r.groups {
            let support = g.values[0].support;
            assert!(
                support >= 1 && support <= k,
                "per-group cardinality out of reservoir bounds: {support}"
            );
        }
        planned_ests.push(r.groups.iter().map(|g| g.values[0].value).sum::<f64>());

        // (b) Full online resample of the same union at a matched seed.
        let s = session(&cat, 70_000 + t);
        let r = s.run(&target).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
        assert_eq!(r.groups.len(), exact_groups, "resample lost a group");
        resample_ests.push(r.groups.iter().map(|g| g.values[0].value).sum::<f64>());
    }

    // Mean-within-CI: the across-seed mean of each estimator must sit
    // inside a 3σ CLT interval around the exact total (σ estimated from
    // the trials themselves).
    for (label, ests) in [("planned", &planned_ests), ("resample", &resample_ests)] {
        let mean = ests.iter().sum::<f64>() / ests.len() as f64;
        let var = ests.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (ests.len() - 1) as f64;
        let se = (var / ests.len() as f64).sqrt();
        assert!(
            (mean - truth).abs() <= 3.0 * se.max(0.002 * truth.abs()),
            "{label} mean {mean} vs exact {truth} outside 3σ ({se})"
        );
    }
    // Same error regime: the planner's merge must not inflate variance
    // relative to a fresh resample of the union.
    let spread = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    };
    let (planned_sd, resample_sd) = (spread(&planned_ests), spread(&resample_ests));
    assert!(
        planned_sd <= 3.0 * resample_sd.max(0.002 * truth.abs()),
        "planned-merge spread {planned_sd} far exceeds resample spread {resample_sd}"
    );
}

#[test]
fn estimate_variance_shrinks_with_k() {
    // CI half-width should shrink roughly as 1/sqrt(k): quadrupling k
    // should roughly halve the interval.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let mean_ci = |k: usize| -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for t in 0..5 {
            let s = session(&cat, 20_000 + t);
            let r = s.run(&q1(Interval::new(0, n - 1), k)).unwrap();
            for g in &r.groups {
                let est = &g.values[0];
                if est.support > 0 && est.ci_half_width.is_finite() && est.ci_half_width > 0.0 {
                    total += est.ci_half_width;
                    count += 1;
                }
            }
        }
        total / count as f64
    };
    let ci_small = mean_ci(4);
    let ci_large = mean_ci(16);
    let ratio = ci_small / ci_large;
    assert!(
        ratio > 1.4 && ratio < 3.0,
        "4x k should roughly halve CI width: ratio {ratio}"
    );
}

#[test]
fn fused_aggregation_equals_filter_then_aggregate_on_ssb() {
    // The vectorized fused filter+aggregate path (chunk bitmasks feeding
    // the group-by directly) must return exactly what the classic
    // pipeline — row-at-a-time filter to a selection vector, then
    // aggregate over it — returns on SSB data. All SSB measures are
    // integer-valued, and both paths fold f64 accumulators in ascending
    // row order, so equality is bitwise, not approximate.
    use laqy_engine::ops::aggregate::bind_table_cols;
    use laqy_engine::ops::{group_by, reference, BoundCol, ExactAggFactory, Inputs};
    use laqy_engine::{execute_exact, AggInput, AggKind};

    let cat = catalog();
    let fact = cat.table("lineorder").unwrap();
    let n = fact.num_rows();

    // SSB Q1.1-style predicate plus a clustered range so zone maps
    // produce a mix of Skip / TakeAll / Scan verdicts.
    let pred = Predicate::between("lo_discount", 1, 3)
        .and(Predicate::between("lo_quantity", 1, 24))
        .and(Predicate::between("lo_intkey", 0, (n as i64 * 3) / 4));

    let specs = vec![
        AggSpec::sum("lo_revenue"),
        AggSpec::count(),
        AggSpec::sum_product("lo_extendedprice", "lo_discount"),
        AggSpec {
            kind: AggKind::Min,
            input: AggInput::Col("lo_revenue".into()),
        },
        AggSpec {
            kind: AggKind::Max,
            input: AggInput::Col("lo_revenue".into()),
        },
        AggSpec::avg("lo_revenue"),
    ];

    // Reference: per-row evaluator, selection vector, selection-bound
    // aggregation.
    let compiled = pred.compile(fact).unwrap();
    let sel = reference::eval_rows(&compiled, 0..n);
    assert!(!sel.is_empty(), "predicate should select some rows");
    let agg_inputs: Vec<_> = specs.iter().map(|s| s.input.clone()).collect();

    for keyless in [false, true] {
        let plan = QueryPlan {
            fact: "lineorder".into(),
            predicate: pred.clone(),
            joins: vec![],
            group_by: if keyless {
                vec![]
            } else {
                vec![ColRef::fact("lo_orderdate")]
            },
            aggs: specs.clone(),
        };
        let fused = execute_exact(&cat, &plan, 1).unwrap().0;

        let key_cols: Vec<BoundCol> = if keyless {
            vec![]
        } else {
            vec![BoundCol::new(
                fact.column("lo_orderdate").unwrap(),
                Some(&sel),
            )]
        };
        let inputs = Inputs::bind(&agg_inputs, bind_table_cols(fact, Some(&sel))).unwrap();
        let expected = group_by(&key_cols, &inputs, sel.len(), &ExactAggFactory::new(&specs));

        assert_eq!(fused.rows.len(), expected.len());
        let key_col = fact.column("lo_orderdate").unwrap();
        for (key, agg) in &expected.map {
            let decoded: Vec<Value> = key.parts().iter().map(|&p| key_col.decode_key(p)).collect();
            let row = fused.row_by_key(&decoded).unwrap();
            assert_eq!(row.values, agg.finalize(), "group {decoded:?}");
        }

        // Parallel morsels through the fused path agree with serial.
        let fused8 = execute_exact(&cat, &plan, 8).unwrap().0;
        assert_eq!(fused.rows.len(), fused8.rows.len());
        for row in &fused.rows {
            let other = fused8.row_by_key(&row.key).unwrap();
            assert_eq!(row.values, other.values);
        }
    }
}

#[test]
fn repeated_full_reuse_returns_identical_answers() {
    // Determinism: full reuse is a pure function of the stored sample.
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let s = session(&cat, 31);
    let query = q1(Interval::new(0, n / 2), 32);
    s.run(&query).unwrap();
    let a = s.run(&query).unwrap();
    let b = s.run(&query).unwrap();
    assert_eq!(a.stats.reuse, Some(ReuseClass::Full));
    assert_eq!(a.groups, b.groups);
}
