//! Differential tests: the engine's vectorized operators against a naive
//! row-at-a-time reference interpreter, over randomized tables.

use laqy_engine::{
    execute_exact, AggSpec, Catalog, ColRef, Column, JoinSpec, Predicate, QueryPlan, Value,
};
use laqy_sampling::Lehmer64;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small randomized fact table plus one dimension.
fn build_catalog(seed: u64, rows: usize, dim_rows: usize) -> Catalog {
    let mut rng = Lehmer64::new(seed);
    let mut cat = Catalog::new();
    let fact = laqy_engine::Table::new(
        "f",
        vec![
            ("id".into(), Column::Int64((0..rows as i64).collect())),
            (
                "g".into(),
                Column::Int32((0..rows).map(|_| rng.next_below(5) as i32).collect()),
            ),
            (
                "v".into(),
                Column::Int64((0..rows).map(|_| rng.next_below(100) as i64).collect()),
            ),
            (
                "w".into(),
                Column::Float64((0..rows).map(|_| rng.next_f64() * 10.0).collect()),
            ),
            (
                "fk".into(),
                Column::Int64(
                    (0..rows)
                        .map(|_| rng.next_below(dim_rows as u64 + 2) as i64)
                        .collect(),
                ),
            ),
        ],
    )
    .unwrap();
    cat.register(fact);
    let dim = laqy_engine::Table::new(
        "d",
        vec![
            ("key".into(), Column::Int64((0..dim_rows as i64).collect())),
            (
                "cat".into(),
                Column::Int32((0..dim_rows).map(|i| (i % 3) as i32).collect()),
            ),
        ],
    )
    .unwrap();
    cat.register(dim);
    cat
}

/// Reference evaluation: single-table filter + group-by SUM/COUNT.
fn reference_single(cat: &Catalog, lo: i64, hi: i64) -> BTreeMap<i64, (f64, f64)> {
    let f = cat.table("f").unwrap();
    let (id, g, v) = (
        f.column("id").unwrap(),
        f.column("g").unwrap(),
        f.column("v").unwrap(),
    );
    let mut out: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
    for r in 0..f.num_rows() {
        let idv = id.i64_at(r);
        if idv >= lo && idv <= hi {
            let e = out.entry(g.i64_at(r)).or_insert((0.0, 0.0));
            e.0 += v.i64_at(r) as f64;
            e.1 += 1.0;
        }
    }
    out
}

/// Reference evaluation: join f.fk = d.key, group by d.cat, SUM(f.v).
fn reference_join(cat: &Catalog, lo: i64, hi: i64) -> BTreeMap<i64, f64> {
    let f = cat.table("f").unwrap();
    let d = cat.table("d").unwrap();
    let (id, v, fk) = (
        f.column("id").unwrap(),
        f.column("v").unwrap(),
        f.column("fk").unwrap(),
    );
    let dkey = d.column("key").unwrap();
    let dcat = d.column("cat").unwrap();
    let mut out: BTreeMap<i64, f64> = BTreeMap::new();
    for r in 0..f.num_rows() {
        let idv = id.i64_at(r);
        if idv < lo || idv > hi {
            continue;
        }
        let k = fk.i64_at(r);
        for dr in 0..d.num_rows() {
            if dkey.i64_at(dr) == k {
                *out.entry(dcat.i64_at(dr)).or_insert(0.0) += v.i64_at(r) as f64;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn engine_group_by_matches_reference(
        seed in 0u64..10_000,
        rows in 1usize..400,
        lo in 0i64..200,
        w in 0i64..300,
        threads in 1usize..4,
    ) {
        let cat = build_catalog(seed, rows, 7);
        let hi = lo + w;
        let plan = QueryPlan {
            fact: "f".into(),
            predicate: Predicate::between("id", lo, hi),
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::sum("v"), AggSpec::count()],
        };
        let result = execute_exact(&cat, &plan, threads).unwrap().0;
        let reference = reference_single(&cat, lo, hi);
        prop_assert_eq!(result.rows.len(), reference.len());
        for row in &result.rows {
            let key = row.key[0].as_i64().unwrap();
            let (sum, count) = reference[&key];
            prop_assert!((row.values[0] - sum).abs() < 1e-9);
            prop_assert!((row.values[1] - count).abs() < 1e-9);
        }
    }

    #[test]
    fn engine_join_matches_reference(
        seed in 0u64..10_000,
        rows in 1usize..300,
        dim_rows in 1usize..20,
        lo in 0i64..100,
        w in 0i64..300,
    ) {
        let cat = build_catalog(seed, rows, dim_rows);
        let hi = lo + w;
        let plan = QueryPlan {
            fact: "f".into(),
            predicate: Predicate::between("id", lo, hi),
            joins: vec![JoinSpec {
                dim_table: "d".into(),
                dim_key: "key".into(),
                fact_key: "fk".into(),
                predicate: Predicate::True,
            }],
            group_by: vec![ColRef::dim("d", "cat")],
            aggs: vec![AggSpec::sum("v")],
        };
        let result = execute_exact(&cat, &plan, 2).unwrap().0;
        let reference = reference_join(&cat, lo, hi);
        prop_assert_eq!(result.rows.len(), reference.len());
        for row in &result.rows {
            let key = row.key[0].as_i64().unwrap();
            prop_assert!((row.values[0] - reference[&key]).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_product_matches_reference(
        seed in 0u64..10_000,
        rows in 1usize..200,
    ) {
        let cat = build_catalog(seed, rows, 5);
        let plan = QueryPlan {
            fact: "f".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::sum_product("v", "w")],
        };
        let result = execute_exact(&cat, &plan, 1).unwrap().0;
        // Reference.
        let f = cat.table("f").unwrap();
        let (g, v, w) = (
            f.column("g").unwrap(),
            f.column("v").unwrap(),
            f.column("w").unwrap(),
        );
        let mut expected: BTreeMap<i64, f64> = BTreeMap::new();
        for r in 0..f.num_rows() {
            *expected.entry(g.i64_at(r)).or_insert(0.0) +=
                v.i64_at(r) as f64 * w.f64_at(r);
        }
        for row in &result.rows {
            let key = row.key[0].as_i64().unwrap();
            prop_assert!((row.values[0] - expected[&key]).abs() < 1e-6);
        }
    }
}

#[test]
fn min_max_avg_agree_with_reference() {
    let cat = build_catalog(77, 500, 5);
    let plan = QueryPlan {
        fact: "f".into(),
        predicate: Predicate::True,
        joins: vec![],
        group_by: vec![ColRef::fact("g")],
        aggs: vec![
            AggSpec {
                kind: laqy_engine::AggKind::Min,
                input: laqy_engine::AggInput::Col("v".into()),
            },
            AggSpec {
                kind: laqy_engine::AggKind::Max,
                input: laqy_engine::AggInput::Col("v".into()),
            },
            AggSpec::avg("v"),
        ],
    };
    let result = execute_exact(&cat, &plan, 3).unwrap().0;
    let f = cat.table("f").unwrap();
    let (g, v) = (f.column("g").unwrap(), f.column("v").unwrap());
    for row in &result.rows {
        let key = row.key[0].as_i64().unwrap();
        let vals: Vec<f64> = (0..f.num_rows())
            .filter(|&r| g.i64_at(r) == key)
            .map(|r| v.i64_at(r) as f64)
            .collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        assert_eq!(row.values[0], min);
        assert_eq!(row.values[1], max);
        assert!((row.values[2] - avg).abs() < 1e-9);
    }
}

#[test]
fn dict_group_keys_decode_in_results() {
    let mut cat = Catalog::new();
    cat.register(
        laqy_engine::Table::new(
            "f",
            vec![
                ("id".into(), Column::Int64((0..10).collect())),
                (
                    "tag".into(),
                    laqy_engine::dict_column((0..10).map(|i| if i < 4 { "a" } else { "b" })),
                ),
            ],
        )
        .unwrap(),
    );
    let plan = QueryPlan {
        fact: "f".into(),
        predicate: Predicate::True,
        joins: vec![],
        group_by: vec![ColRef::fact("tag")],
        aggs: vec![AggSpec::count()],
    };
    let result = execute_exact(&cat, &plan, 1).unwrap().0;
    let a = result.row_by_key(&[Value::Str("a".into())]).unwrap();
    assert_eq!(a.values[0], 4.0);
    let b = result.row_by_key(&[Value::Str("b".into())]).unwrap();
    assert_eq!(b.values[0], 6.0);
}
