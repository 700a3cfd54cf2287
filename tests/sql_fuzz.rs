//! SQL front-end robustness: arbitrary input must never panic, and
//! generated-valid statements must round-trip through plan + execution
//! with results matching directly-constructed plans.

use laqy_engine::sql::{parse, plan, tokenize};
use laqy_engine::{execute_exact, AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        laqy_engine::Table::new(
            "f",
            vec![
                ("id".into(), Column::Int64((0..500).collect())),
                ("g".into(), Column::Int64((0..500).map(|i| i % 6).collect())),
                ("v".into(), Column::Int64((0..500).map(|i| i * 3).collect())),
            ],
        )
        .unwrap(),
    );
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn tokenizer_never_panics(input in ".*") {
        let _ = tokenize(&input);
    }

    #[test]
    fn parser_never_panics(input in ".*") {
        let _ = parse(&input);
    }

    #[test]
    fn parser_never_panics_on_sqlish_soup(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "BETWEEN", "IN",
                "SUM", "COUNT", "(", ")", ",", "*", "=", "<", ">=", "t", "a", "b",
                "'x'", "42", "-7", "3.5", ".",
            ]),
            0..24,
        )
    ) {
        let input = words.join(" ");
        let _ = parse(&input);
        let _ = plan(&catalog(), &input);
    }

    #[test]
    fn planner_never_panics_on_valid_parse_invalid_schema(
        tbl in "[a-z]{1,6}",
        col in "[a-z]{1,6}",
    ) {
        let sql = format!("SELECT SUM({col}) FROM {tbl} WHERE {col} BETWEEN 0 AND 9");
        let _ = plan(&catalog(), &sql);
    }

    #[test]
    fn generated_valid_queries_roundtrip(
        lo in 0i64..400,
        w in 0i64..200,
        use_group in any::<bool>(),
    ) {
        let cat = catalog();
        let hi = lo + w;
        let sql = if use_group {
            format!("SELECT g, SUM(v), COUNT(*) FROM f WHERE id BETWEEN {lo} AND {hi} GROUP BY g")
        } else {
            format!("SELECT SUM(v), COUNT(*) FROM f WHERE id BETWEEN {lo} AND {hi}")
        };
        let planned = plan(&cat, &sql).unwrap();
        let direct = QueryPlan {
            fact: "f".into(),
            predicate: Predicate::between("id", lo, hi),
            joins: vec![],
            group_by: if use_group { vec![ColRef::fact("g")] } else { vec![] },
            aggs: vec![AggSpec::sum("v"), AggSpec::count()],
        };
        let a = execute_exact(&cat, &planned, 1).unwrap().0;
        let b = execute_exact(&cat, &direct, 1).unwrap().0;
        prop_assert_eq!(a, b);
    }
}
