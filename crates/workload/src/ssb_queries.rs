//! The thirteen Star Schema Benchmark queries (Q1.1–Q4.3) as engine
//! plans.
//!
//! These exercise the exact execution path across the full benchmark
//! (flight 1: date-filtered scans with `sum(lo_extendedprice *
//! lo_discount)`; flights 2–4: progressively wider star joins), and give
//! approximate sessions realistic whole-benchmark workloads beyond the
//! paper's Q1/Q2 templates. Predicate values follow the SSB spec where our
//! generated domains allow; dictionary values use this generator's
//! spellings (e.g. `NATION_07`, `CITY_07_3`).

use laqy_engine::{AggSpec, ColRef, JoinSpec, Predicate, QueryPlan};

fn join_date() -> JoinSpec {
    JoinSpec {
        dim_table: "date".into(),
        dim_key: "d_datekey".into(),
        fact_key: "lo_orderdate".into(),
        predicate: Predicate::True,
    }
}

fn join_date_filtered(predicate: Predicate) -> JoinSpec {
    JoinSpec {
        predicate,
        ..join_date()
    }
}

fn join_supplier(predicate: Predicate) -> JoinSpec {
    JoinSpec {
        dim_table: "supplier".into(),
        dim_key: "s_suppkey".into(),
        fact_key: "lo_suppkey".into(),
        predicate,
    }
}

fn join_part(predicate: Predicate) -> JoinSpec {
    JoinSpec {
        dim_table: "part".into(),
        dim_key: "p_partkey".into(),
        fact_key: "lo_partkey".into(),
        predicate,
    }
}

fn join_customer(predicate: Predicate) -> JoinSpec {
    JoinSpec {
        dim_table: "customer".into(),
        dim_key: "c_custkey".into(),
        fact_key: "lo_custkey".into(),
        predicate,
    }
}

/// Q1.1: revenue from one year with mid-range discount and low quantity.
pub fn q1_1() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::between("lo_discount", 1, 3).and(Predicate::between(
            "lo_quantity",
            1,
            24,
        )),
        joins: vec![join_date_filtered(Predicate::between("d_year", 1993, 1993))],
        group_by: vec![],
        aggs: vec![AggSpec::sum_product("lo_extendedprice", "lo_discount")],
    }
}

/// Q1.2: one month, tighter discount/quantity bands.
pub fn q1_2() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::between("lo_discount", 4, 6).and(Predicate::between(
            "lo_quantity",
            26,
            35,
        )),
        joins: vec![join_date_filtered(Predicate::between(
            "d_yearmonthnum",
            199401,
            199401,
        ))],
        group_by: vec![],
        aggs: vec![AggSpec::sum_product("lo_extendedprice", "lo_discount")],
    }
}

/// Q1.3: one week approximated by one month slice (our date dim has no
/// week column; the shape — a very selective date filter — is preserved).
pub fn q1_3() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::between("lo_discount", 5, 7).and(Predicate::between(
            "lo_quantity",
            26,
            35,
        )),
        joins: vec![join_date_filtered(Predicate::between(
            "d_yearmonthnum",
            199402,
            199402,
        ))],
        group_by: vec![],
        aggs: vec![AggSpec::sum_product("lo_extendedprice", "lo_discount")],
    }
}

/// Q2.1: revenue by year and brand for one part category and region.
pub fn q2_1() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_date(),
            join_part(Predicate::eq_str("p_category", "MFGR#12")),
            join_supplier(Predicate::eq_str("s_region", "AMERICA")),
        ],
        group_by: vec![
            ColRef::dim("date", "d_year"),
            ColRef::dim("part", "p_brand1"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q2.2: a brand range in ASIA.
pub fn q2_2() -> QueryPlan {
    let brands: Vec<Predicate> = (21..=28)
        .map(|b| Predicate::eq_str("p_brand1", format!("MFGR#22{b:02}")))
        .collect();
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_date(),
            join_part(Predicate::Or(brands)),
            join_supplier(Predicate::eq_str("s_region", "ASIA")),
        ],
        group_by: vec![
            ColRef::dim("date", "d_year"),
            ColRef::dim("part", "p_brand1"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q2.3: a single brand in EUROPE.
pub fn q2_3() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_date(),
            join_part(Predicate::eq_str("p_brand1", "MFGR#2221")),
            join_supplier(Predicate::eq_str("s_region", "EUROPE")),
        ],
        group_by: vec![
            ColRef::dim("date", "d_year"),
            ColRef::dim("part", "p_brand1"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q3.1: customer/supplier nation traffic within a region over 1992–1997.
pub fn q3_1() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_customer(Predicate::eq_str("c_region", "ASIA")),
            join_supplier(Predicate::eq_str("s_region", "ASIA")),
            join_date_filtered(Predicate::between("d_year", 1992, 1997)),
        ],
        group_by: vec![
            ColRef::dim("customer", "c_nation"),
            ColRef::dim("supplier", "s_nation"),
            ColRef::dim("date", "d_year"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q3.2: city-level within one nation.
pub fn q3_2() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_customer(Predicate::eq_str("c_nation", "NATION_07")),
            join_supplier(Predicate::eq_str("s_nation", "NATION_07")),
            join_date_filtered(Predicate::between("d_year", 1992, 1997)),
        ],
        group_by: vec![
            ColRef::dim("customer", "c_city"),
            ColRef::dim("supplier", "s_city"),
            ColRef::dim("date", "d_year"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q3.3: two specific cities.
pub fn q3_3() -> QueryPlan {
    let city_pair = |col: &str| {
        Predicate::Or(vec![
            Predicate::eq_str(col, "CITY_07_1"),
            Predicate::eq_str(col, "CITY_07_5"),
        ])
    };
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_customer(city_pair("c_city")),
            join_supplier(city_pair("s_city")),
            join_date_filtered(Predicate::between("d_year", 1992, 1997)),
        ],
        group_by: vec![
            ColRef::dim("customer", "c_city"),
            ColRef::dim("supplier", "s_city"),
            ColRef::dim("date", "d_year"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q3.4: the two cities in one month.
pub fn q3_4() -> QueryPlan {
    let mut plan = q3_3();
    plan.joins[2] = join_date_filtered(Predicate::between("d_yearmonthnum", 199712, 199712));
    plan
}

/// Q4.1: profit by year and customer nation for two manufacturers in the
/// AMERICA region. (Our lineorder lacks `lo_supplycost`; profit is
/// approximated by revenue, preserving the aggregation/join shape.)
pub fn q4_1() -> QueryPlan {
    let mfgrs = Predicate::Or(vec![
        Predicate::eq_str("p_mfgr", "MFGR#1"),
        Predicate::eq_str("p_mfgr", "MFGR#2"),
    ]);
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_date(),
            join_customer(Predicate::eq_str("c_region", "AMERICA")),
            join_supplier(Predicate::eq_str("s_region", "AMERICA")),
            join_part(mfgrs),
        ],
        group_by: vec![
            ColRef::dim("date", "d_year"),
            ColRef::dim("customer", "c_nation"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// Q4.2: drill into two years, grouping by supplier nation and category.
pub fn q4_2() -> QueryPlan {
    let mut plan = q4_1();
    plan.joins[0] = join_date_filtered(Predicate::between("d_year", 1997, 1998));
    plan.group_by = vec![
        ColRef::dim("date", "d_year"),
        ColRef::dim("supplier", "s_nation"),
        ColRef::dim("part", "p_category"),
    ];
    plan
}

/// Q4.3: drill into one nation and category, grouping by city and brand.
pub fn q4_3() -> QueryPlan {
    QueryPlan {
        fact: "lineorder".into(),
        predicate: Predicate::True,
        joins: vec![
            join_date_filtered(Predicate::between("d_year", 1997, 1998)),
            join_customer(Predicate::eq_str("c_region", "AMERICA")),
            join_supplier(Predicate::eq_str("s_nation", "NATION_02")),
            join_part(Predicate::eq_str("p_category", "MFGR#14")),
        ],
        group_by: vec![
            ColRef::dim("date", "d_year"),
            ColRef::dim("supplier", "s_city"),
            ColRef::dim("part", "p_brand1"),
        ],
        aggs: vec![AggSpec::sum("lo_revenue")],
    }
}

/// All thirteen queries with their names, in flight order.
pub fn all_queries() -> Vec<(&'static str, QueryPlan)> {
    vec![
        ("Q1.1", q1_1()),
        ("Q1.2", q1_2()),
        ("Q1.3", q1_3()),
        ("Q2.1", q2_1()),
        ("Q2.2", q2_2()),
        ("Q2.3", q2_3()),
        ("Q3.1", q3_1()),
        ("Q3.2", q3_2()),
        ("Q3.3", q3_3()),
        ("Q3.4", q3_4()),
        ("Q4.1", q4_1()),
        ("Q4.2", q4_2()),
        ("Q4.3", q4_3()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::{generate, SsbConfig};
    use laqy_engine::{execute_exact, validate_plan};

    #[test]
    fn all_queries_validate_and_run() {
        let catalog = generate(&SsbConfig {
            scale_factor: 0.005,
            seed: 0x55B,
        });
        for (name, plan) in all_queries() {
            validate_plan(&catalog, &plan).unwrap_or_else(|e| panic!("{name}: {e}"));
            let result = execute_exact(&catalog, &plan, 2)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .0;
            // Flight 1 is a global aggregate; the rest group.
            if name.starts_with("Q1") {
                assert_eq!(result.rows.len(), 1, "{name}");
            }
            // Non-negative revenue everywhere.
            for row in &result.rows {
                assert!(row.values[0] >= 0.0, "{name}: negative aggregate");
            }
        }
    }

    #[test]
    fn flight1_filters_reduce_results() {
        let catalog = generate(&SsbConfig {
            scale_factor: 0.005,
            seed: 0x55B,
        });
        // Q1.1 (one year) should see more revenue than Q1.2 (one month).
        let r11 = execute_exact(&catalog, &q1_1(), 2).unwrap().0.rows[0].values[0];
        let r12 = execute_exact(&catalog, &q1_2(), 2).unwrap().0.rows[0].values[0];
        assert!(r11 > 0.0);
        assert!(
            r11 > r12,
            "year slice {r11} should exceed month slice {r12}"
        );
    }

    #[test]
    fn q2_groups_are_year_brand_pairs() {
        let catalog = generate(&SsbConfig {
            scale_factor: 0.005,
            seed: 0x55B,
        });
        let result = execute_exact(&catalog, &q2_1(), 2).unwrap().0;
        assert!(!result.rows.is_empty());
        // ≤ 7 years × 40 brands in the category.
        assert!(result.rows.len() <= 7 * 40);
    }

    #[test]
    fn q3_nation_filter_limits_groups() {
        let catalog = generate(&SsbConfig {
            scale_factor: 0.005,
            seed: 0x55B,
        });
        let result = execute_exact(&catalog, &q3_2(), 2).unwrap().0;
        // ≤ 10 cities × 10 cities × 6 years.
        assert!(result.rows.len() <= 600);
    }
}
