//! The paper's query templates (§7, Workload) as [`ApproxQuery`] builders.
//!
//! - **Strat**: isolated stratified sampling over `lineorder`, grouping on
//!   1–3 QCS columns, with an optional selectivity-controlling predicate on
//!   the QVS column (`lo_intkey`) or on the QCS column (`lo_quantity`).
//! - **Q1**: scan-heavy — the sampler is pushed down to the `lineorder`
//!   scan; `GROUP BY lo_orderdate`.
//! - **Q2**: join-heavy — `lineorder ⋈ date ⋈ supplier ⋈ part` with fixed
//!   dimension predicates (`s_region = 'AMERICA'`,
//!   `p_category = 'MFGR#12'`); the sampler sits above the joins, grouping
//!   on `(d_year, p_brand1)`.

use laqy::{ApproxQuery, Interval};
use laqy_engine::{AggSpec, ColRef, JoinSpec, Predicate, QueryPlan};

/// QCS column sets from Table 1: 1 → {lo_quantity} (50 strata),
/// 2 → +lo_tax (450), 3 → +lo_discount (4950).
pub fn qcs_columns(n: usize) -> Vec<&'static str> {
    match n {
        1 => vec!["lo_quantity"],
        2 => vec!["lo_quantity", "lo_tax"],
        3 => vec!["lo_quantity", "lo_tax", "lo_discount"],
        _ => panic!("QCS column count must be 1..=3"),
    }
}

/// The `Strat` template: stratified aggregation over `lineorder` with
/// `qcs_cols` grouping columns. `range` applies to `range_column`
/// (`lo_intkey` for QVS-selectivity experiments, `lo_quantity` for
/// QCS-selectivity experiments).
pub fn strat(qcs_cols: usize, range_column: &str, range: Interval, k: usize) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "lineorder".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: qcs_columns(qcs_cols)
                .into_iter()
                .map(ColRef::fact)
                .collect(),
            aggs: vec![AggSpec::sum("lo_revenue"), AggSpec::count()],
        },
        range_column: range_column.into(),
        range,
        k,
    }
}

/// The Q1 template: sampler pushed down to the scan.
///
/// ```sql
/// SELECT lo_orderdate, SUM(lo_revenue), COUNT(*) FROM lineorder
/// WHERE lo_intkey BETWEEN lower AND upper
/// GROUP BY lo_orderdate
/// ```
pub fn q1(range: Interval, k: usize) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "lineorder".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("lo_orderdate")],
            aggs: vec![AggSpec::sum("lo_revenue"), AggSpec::count()],
        },
        range_column: "lo_intkey".into(),
        range,
        k,
    }
}

/// The Q2 template: sampler above the star join.
///
/// ```sql
/// SELECT d_year, p_brand1, SUM(lo_revenue) FROM lineorder, date, supplier, part
/// WHERE lo_intkey BETWEEN lower AND upper
///   AND s_region = 'AMERICA' AND p_category = 'MFGR#12' AND (JOIN)
/// GROUP BY d_year, p_brand1
/// ```
pub fn q2(range: Interval, k: usize) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "lineorder".into(),
            predicate: Predicate::True,
            joins: vec![
                JoinSpec {
                    dim_table: "date".into(),
                    dim_key: "d_datekey".into(),
                    fact_key: "lo_orderdate".into(),
                    predicate: Predicate::True,
                },
                JoinSpec {
                    dim_table: "supplier".into(),
                    dim_key: "s_suppkey".into(),
                    fact_key: "lo_suppkey".into(),
                    predicate: Predicate::eq_str("s_region", "AMERICA"),
                },
                JoinSpec {
                    dim_table: "part".into(),
                    dim_key: "p_partkey".into(),
                    fact_key: "lo_partkey".into(),
                    predicate: Predicate::eq_str("p_category", "MFGR#12"),
                },
            ],
            group_by: vec![
                ColRef::dim("date", "d_year"),
                ColRef::dim("part", "p_brand1"),
            ],
            aggs: vec![AggSpec::sum("lo_revenue"), AggSpec::count()],
        },
        range_column: "lo_intkey".into(),
        range,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::{generate, SsbConfig};
    use laqy::LaqyService;

    #[test]
    fn qcs_mappings_match_table1() {
        assert_eq!(qcs_columns(1), vec!["lo_quantity"]);
    }

    #[test]
    #[should_panic(expected = "1..=3")]
    fn qcs_out_of_range_panics() {
        let _ = qcs_columns(4);
    }

    #[test]
    fn q1_runs_end_to_end() {
        let catalog = generate(&SsbConfig::tiny());
        let session = LaqyService::new(catalog);
        let q = q1(Interval::new(0, 2999), 64);
        let result = session.run(&q).unwrap();
        assert!(!result.groups.is_empty());
        // Grouping on lo_orderdate: strata bounded by the date dimension.
        assert!(result.groups.len() <= crate::ssb::domains::DATE_DAYS);
    }

    #[test]
    fn q2_runs_end_to_end() {
        let catalog = generate(&SsbConfig::tiny());
        let session = LaqyService::new(catalog);
        let q = q2(Interval::new(0, 5999), 64);
        let result = session.run(&q).unwrap();
        assert!(!result.groups.is_empty());
        let keys = session.decode_keys(&q, &result).unwrap();
        // d_year decodes to 1992..=1998; p_brand1 to MFGR#12xx strings.
        for key in &keys {
            let year = key[0].as_i64().unwrap();
            assert!((1992..=1998).contains(&year));
            match &key[1] {
                laqy_engine::Value::Str(s) => assert!(s.starts_with("MFGR#12")),
                other => panic!("expected brand string, got {other:?}"),
            }
        }
    }

    #[test]
    fn strat_template_stratifies_on_qcs() {
        let catalog = generate(&SsbConfig::tiny());
        let session = LaqyService::new(catalog);
        let q = strat(2, "lo_intkey", Interval::new(0, 5999), 16);
        let result = session.run(&q).unwrap();
        assert_eq!(result.groups.len(), 450);
    }
}
