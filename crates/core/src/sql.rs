//! SQL entry point for approximate queries.
//!
//! Builds on the engine's SQL front-end: the statement is planned as
//! usual, then the predicate LAQy relaxes over — a `BETWEEN` range on a
//! fact column — is lifted out of the plan into the
//! [`ApproxQuery`]'s explored range, leaving the remaining conjuncts as
//! the sampler's fixed input identity. This mirrors how the paper's
//! optimizer marks the logical sampler and its Query Predicate
//! (Figure 7, step 1).

use laqy_engine::sql::{plan, SqlError};
use laqy_engine::{Catalog, Predicate};

use crate::executor::{ApproxQuery, LaqyError};
use crate::interval::Interval;

/// Build an [`ApproxQuery`] from SQL, auto-detecting the explored range:
/// the statement must contain exactly one `BETWEEN` conjunct on a fact
/// column, which becomes the query's range.
pub fn approx_query(catalog: &Catalog, sql: &str, k: usize) -> Result<ApproxQuery, LaqyError> {
    let mut query_plan = plan(catalog, sql).map_err(sql_err)?;

    // Flatten the fact predicate into conjuncts and pull out the range.
    let conjuncts = flatten(std::mem::replace(
        &mut query_plan.predicate,
        Predicate::True,
    ));
    let mut range: Option<(String, Interval)> = None;
    let mut rest: Vec<Predicate> = Vec::new();
    for c in conjuncts {
        match &c {
            Predicate::Between { column, lo, hi } if range.is_none() => {
                range = Some((column.clone(), Interval::new(*lo, *hi)));
            }
            Predicate::Between { column, .. } if range.as_ref().map(|(c, _)| c) != Some(column) => {
                // A BETWEEN on a second column: which range is explored is
                // ambiguous.
                return Err(LaqyError::Unsupported(format!(
                    "multiple BETWEEN predicates; exactly one column's range can be \
                     explored (candidates include `{column}`)"
                )));
            }
            _ => rest.push(c),
        }
    }
    let Some((column, interval)) = range else {
        return Err(LaqyError::Unsupported(
            "no BETWEEN range predicate found to approximate over".to_string(),
        ));
    };
    query_plan.predicate = rest.into_iter().fold(Predicate::True, |acc, p| acc.and(p));

    Ok(ApproxQuery {
        plan: query_plan,
        range_column: column,
        range: interval,
        k,
    })
}

fn flatten(p: Predicate) -> Vec<Predicate> {
    match p {
        Predicate::True => vec![],
        Predicate::And(parts) => parts.into_iter().flat_map(flatten).collect(),
        other => vec![other],
    }
}

fn sql_err(e: SqlError) -> LaqyError {
    LaqyError::Unsupported(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::{Column, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                vec![
                    ("key".into(), Column::Int64((0..100).collect())),
                    ("g".into(), Column::Int64((0..100).map(|i| i % 3).collect())),
                    ("q".into(), Column::Int64((0..100).map(|i| i % 7).collect())),
                    ("v".into(), Column::Int64((0..100).collect())),
                ],
            )
            .unwrap(),
        );
        cat
    }

    #[test]
    fn detects_single_between_as_range() {
        let cat = catalog();
        let q = approx_query(
            &cat,
            "SELECT g, SUM(v) FROM t WHERE key BETWEEN 10 AND 40 GROUP BY g",
            64,
        )
        .unwrap();
        assert_eq!(q.range_column, "key");
        assert_eq!(q.range, Interval::new(10, 40));
        assert_eq!(q.plan.predicate, Predicate::True);
        assert_eq!(q.k, 64);
    }

    #[test]
    fn keeps_other_conjuncts_as_fixed_predicate() {
        let cat = catalog();
        let q = approx_query(
            &cat,
            "SELECT g, SUM(v) FROM t WHERE key BETWEEN 0 AND 9 AND q = 2 GROUP BY g",
            32,
        )
        .unwrap();
        assert_eq!(q.range, Interval::new(0, 9));
        assert_eq!(
            q.plan.predicate,
            Predicate::EqInt {
                column: "q".into(),
                value: 2
            }
        );
    }

    #[test]
    fn betweens_on_two_columns_are_refused() {
        let cat = catalog();
        let sql =
            "SELECT g, SUM(v) FROM t WHERE key BETWEEN 0 AND 9 AND q BETWEEN 1 AND 3 GROUP BY g";
        assert!(approx_query(&cat, sql, 8).is_err());
    }

    #[test]
    fn missing_range_is_an_error() {
        let cat = catalog();
        assert!(approx_query(&cat, "SELECT g, SUM(v) FROM t GROUP BY g", 8).is_err());
        assert!(approx_query(&cat, "SELECT g, SUM(v) FROM t WHERE q = 1 GROUP BY g", 8).is_err());
    }

    #[test]
    fn end_to_end_via_service() {
        let cat = catalog();
        let service = crate::LaqyService::new(cat.clone());
        let q = approx_query(
            &cat,
            "SELECT g, SUM(v), COUNT(*) FROM t WHERE key BETWEEN 0 AND 59 GROUP BY g",
            1000,
        )
        .unwrap();
        let r = service.run(&q).unwrap();
        assert_eq!(r.groups.len(), 3);
        // k=1000 retains the population ⇒ exact counts.
        let total: f64 = r.groups.iter().map(|g| g.values[1].value).sum();
        assert_eq!(total, 60.0);
    }

    #[test]
    fn bad_sql_surfaces_as_error() {
        let cat = catalog();
        assert!(approx_query(&cat, "SELEKT oops", 8).is_err());
    }
}
