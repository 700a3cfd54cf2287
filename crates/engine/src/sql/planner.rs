//! Plan a parsed SELECT against a catalog.

use super::parser::{
    AggItem, CompareOp, Condition, SelectItem, SelectStmt, SqlAggFn, SqlExpr, SqlValue,
};
use super::SqlError;
use crate::expr::{AggInput, AggKind, AggSpec, Predicate};
use crate::plan::{ColRef, JoinSpec, QueryPlan};
use crate::table::Catalog;

/// Parse and plan a SQL string in one step.
pub fn plan(catalog: &Catalog, sql: &str) -> Result<QueryPlan, SqlError> {
    plan_statement(catalog, &super::parser::parse(sql)?)
}

/// Resolve a parsed statement into a [`QueryPlan`]. The first FROM table
/// is the fact; the rest must each be joined to the fact by exactly one
/// column equality.
pub fn plan_statement(catalog: &Catalog, stmt: &SelectStmt) -> Result<QueryPlan, SqlError> {
    if stmt.from.is_empty() {
        return Err(SqlError::Plan {
            message: "FROM list is empty".into(),
        });
    }
    let fact_name = stmt.from[0].clone();
    let dims: Vec<String> = stmt.from[1..].to_vec();
    for t in std::iter::once(&fact_name).chain(dims.iter()) {
        catalog.table(t).map_err(|e| SqlError::Plan {
            message: e.to_string(),
        })?;
    }

    let resolver = Resolver {
        catalog,
        fact: &fact_name,
        dims: &dims,
    };

    // First pass: collect join conditions per dimension.
    let mut joins: Vec<JoinSpec> = Vec::new();
    for cond in &stmt.conditions {
        if let Condition::EqColumns { left, right } = cond {
            let l = resolver.owner(left)?;
            let r = resolver.owner(right)?;
            let (fact_key, dim_table, dim_key) = match (l, r) {
                (Owner::Fact(fk), Owner::Dim(d, dk)) => (fk, d, dk),
                (Owner::Dim(d, dk), Owner::Fact(fk)) => (fk, d, dk),
                (Owner::Fact(_), Owner::Fact(_)) => {
                    return Err(SqlError::Plan {
                        message: "fact-to-fact column equality is not supported".into(),
                    })
                }
                (Owner::Dim(a, _), Owner::Dim(b, _)) => {
                    return Err(SqlError::Plan {
                        message: format!("dimension-to-dimension join `{a}` = `{b}` not supported"),
                    })
                }
            };
            if joins.iter().any(|j| j.dim_table == dim_table) {
                return Err(SqlError::Plan {
                    message: format!("table `{dim_table}` joined more than once"),
                });
            }
            joins.push(JoinSpec {
                dim_table,
                dim_key,
                fact_key,
                predicate: Predicate::True,
            });
        }
    }
    // Keep join order aligned with the FROM list.
    joins.sort_by_key(|j| dims.iter().position(|d| *d == j.dim_table));
    for d in &dims {
        if !joins.iter().any(|j| &j.dim_table == d) {
            return Err(SqlError::Plan {
                message: format!("table `{d}` appears in FROM but has no join condition"),
            });
        }
    }

    // Second pass: route value predicates to their owning table.
    let mut fact_pred = Predicate::True;
    for cond in &stmt.conditions {
        let (col, pred) = match cond {
            Condition::EqColumns { .. } => continue,
            Condition::Between { col, lo, hi } => (col, make_between(col, *lo, *hi, &resolver)?),
            Condition::EqValue { col, value } => {
                let name = column_name(col);
                let p = match value {
                    SqlValue::Int(v) => Predicate::EqInt {
                        column: name,
                        value: *v,
                    },
                    SqlValue::Str(s) => Predicate::EqStr {
                        column: name,
                        value: s.clone(),
                    },
                };
                (col, p)
            }
            Condition::InList { col, values } => (
                col,
                Predicate::InInt {
                    column: column_name(col),
                    values: values.clone(),
                },
            ),
            Condition::Compare { col, op, value } => {
                let (lo, hi) = match op {
                    CompareOp::Lt => (i64::MIN, value - 1),
                    CompareOp::Le => (i64::MIN, *value),
                    CompareOp::Gt => (value + 1, i64::MAX),
                    CompareOp::Ge => (*value, i64::MAX),
                };
                (col, Predicate::between(column_name(col), lo, hi))
            }
        };
        match resolver.owner(col)? {
            Owner::Fact(_) => fact_pred = fact_pred.and(pred),
            Owner::Dim(d, _) => {
                let join = joins
                    .iter_mut()
                    .find(|j| j.dim_table == d)
                    .expect("join validated above");
                join.predicate = std::mem::replace(&mut join.predicate, Predicate::True).and(pred);
            }
        }
    }

    // Group-by columns.
    let mut group_by = Vec::new();
    for g in &stmt.group_by {
        group_by.push(resolver.col_ref(g)?);
    }

    // SELECT items: aggregates become AggSpecs; plain columns must appear
    // in GROUP BY.
    let mut aggs = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Column(c) => {
                let cr = resolver.col_ref(c)?;
                if !group_by.contains(&cr) {
                    return Err(SqlError::Plan {
                        message: format!(
                            "column `{}` in SELECT must appear in GROUP BY",
                            column_name(c)
                        ),
                    });
                }
            }
            SelectItem::Agg(agg) => aggs.push(make_agg(agg, &resolver)?),
        }
    }
    if aggs.is_empty() && group_by.is_empty() {
        return Err(SqlError::Plan {
            message: "query needs aggregates or GROUP BY columns".into(),
        });
    }

    Ok(QueryPlan {
        fact: fact_name,
        predicate: fact_pred,
        joins,
        group_by,
        aggs,
    })
}

fn make_between(
    col: &SqlExpr,
    lo: i64,
    hi: i64,
    resolver: &Resolver<'_>,
) -> Result<Predicate, SqlError> {
    resolver.owner(col)?; // validate existence
    if lo > hi {
        return Err(SqlError::Plan {
            message: format!("BETWEEN bounds out of order: {lo} > {hi}"),
        });
    }
    Ok(Predicate::between(column_name(col), lo, hi))
}

fn make_agg(agg: &AggItem, resolver: &Resolver<'_>) -> Result<AggSpec, SqlError> {
    let kind = match agg.func {
        SqlAggFn::Sum => AggKind::Sum,
        SqlAggFn::Count => AggKind::Count,
        SqlAggFn::Avg => AggKind::Avg,
        SqlAggFn::Min => AggKind::Min,
        SqlAggFn::Max => AggKind::Max,
    };
    let input = match (&agg.input, kind) {
        (SqlExpr::Star, AggKind::Count) => AggInput::None,
        (SqlExpr::Star, _) => {
            return Err(SqlError::Plan {
                message: "`*` is only valid inside COUNT".into(),
            })
        }
        (c @ SqlExpr::Col { .. }, AggKind::Count) => {
            resolver.owner(c)?;
            // COUNT(col) over non-null columns equals COUNT(*) here.
            AggInput::None
        }
        (c @ SqlExpr::Col { .. }, _) => {
            resolver.owner(c)?;
            AggInput::Col(column_name(c))
        }
        (SqlExpr::Mul(a, b), _) => {
            resolver.owner(a)?;
            resolver.owner(b)?;
            AggInput::Mul(column_name(a), column_name(b))
        }
    };
    Ok(AggSpec { kind, input })
}

fn column_name(expr: &SqlExpr) -> String {
    match expr {
        SqlExpr::Col { column, .. } => column.clone(),
        SqlExpr::Mul(a, _) => column_name(a),
        SqlExpr::Star => "*".to_string(),
    }
}

enum Owner {
    Fact(String),
    Dim(String, String),
}

struct Resolver<'a> {
    catalog: &'a Catalog,
    fact: &'a str,
    dims: &'a [String],
}

impl Resolver<'_> {
    /// Find the owning table of a column reference, honouring an explicit
    /// qualifier; unqualified names search the fact, then dims in FROM
    /// order.
    fn owner(&self, expr: &SqlExpr) -> Result<Owner, SqlError> {
        let SqlExpr::Col { table, column } = expr else {
            return Err(SqlError::Plan {
                message: format!("expected a column reference, found {expr:?}"),
            });
        };
        if let Some(t) = table {
            let tbl = self.catalog.table(t).map_err(|e| SqlError::Plan {
                message: e.to_string(),
            })?;
            if !tbl.has_column(column) {
                return Err(SqlError::Plan {
                    message: format!("table `{t}` has no column `{column}`"),
                });
            }
            return if t == self.fact {
                Ok(Owner::Fact(column.clone()))
            } else if self.dims.contains(t) {
                Ok(Owner::Dim(t.clone(), column.clone()))
            } else {
                Err(SqlError::Plan {
                    message: format!("table `{t}` is not in the FROM list"),
                })
            };
        }
        let fact = self.catalog.table(self.fact).expect("fact validated");
        if fact.has_column(column) {
            return Ok(Owner::Fact(column.clone()));
        }
        for d in self.dims {
            let dim = self.catalog.table(d).expect("dims validated");
            if dim.has_column(column) {
                return Ok(Owner::Dim(d.clone(), column.clone()));
            }
        }
        Err(SqlError::Plan {
            message: format!("column `{column}` not found in any FROM table"),
        })
    }

    fn col_ref(&self, expr: &SqlExpr) -> Result<ColRef, SqlError> {
        match self.owner(expr)? {
            Owner::Fact(c) => Ok(ColRef::fact(c)),
            Owner::Dim(t, c) => Ok(ColRef::dim(t, c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, Column};
    use crate::plan::execute_exact;
    use crate::table::Table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "fact",
                vec![
                    ("id".into(), Column::Int64((0..100).collect())),
                    ("g".into(), Column::Int64((0..100).map(|i| i % 4).collect())),
                    ("v".into(), Column::Int64((0..100).map(|i| i * 2).collect())),
                    (
                        "w".into(),
                        Column::Float64((0..100).map(|i| i as f64).collect()),
                    ),
                    (
                        "dk".into(),
                        Column::Int64((0..100).map(|i| i % 5).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "dim",
                vec![
                    ("key".into(), Column::Int64((0..5).collect())),
                    ("name".into(), dict_column(["a", "b", "c", "d", "e"])),
                ],
            )
            .unwrap(),
        );
        cat
    }

    #[test]
    fn plans_and_executes_single_table() {
        let cat = catalog();
        let p = plan(
            &cat,
            "SELECT g, SUM(v), COUNT(*) FROM fact WHERE id BETWEEN 0 AND 49 GROUP BY g",
        )
        .unwrap();
        assert_eq!(p.fact, "fact");
        assert!(p.joins.is_empty());
        let result = execute_exact(&cat, &p, 1).unwrap().0;
        assert_eq!(result.rows.len(), 4);
        let total: f64 = result.rows.iter().map(|r| r.values[1]).sum();
        assert_eq!(total, 50.0);
    }

    #[test]
    fn plans_join_with_dim_predicate() {
        let cat = catalog();
        let p = plan(
            &cat,
            "SELECT name, COUNT(*) FROM fact, dim \
             WHERE dk = key AND name = 'a' GROUP BY name",
        )
        .unwrap();
        assert_eq!(p.joins.len(), 1);
        assert_eq!(p.joins[0].fact_key, "dk");
        assert_eq!(p.joins[0].dim_key, "key");
        assert_eq!(p.joins[0].predicate, Predicate::eq_str("name", "a"));
        let result = execute_exact(&cat, &p, 1).unwrap().0;
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].values[0], 20.0);
    }

    #[test]
    fn comparison_operators_become_ranges() {
        let cat = catalog();
        let p = plan(&cat, "SELECT COUNT(*) FROM fact WHERE id >= 90").unwrap();
        let result = execute_exact(&cat, &p, 1).unwrap().0;
        assert_eq!(result.rows[0].values[0], 10.0);
        let p = plan(&cat, "SELECT COUNT(*) FROM fact WHERE id < 10").unwrap();
        let result = execute_exact(&cat, &p, 1).unwrap().0;
        assert_eq!(result.rows[0].values[0], 10.0);
    }

    #[test]
    fn sum_of_product_plans() {
        let cat = catalog();
        let p = plan(&cat, "SELECT SUM(v * w) FROM fact").unwrap();
        assert_eq!(p.aggs[0].input, AggInput::Mul("v".into(), "w".into()));
    }

    #[test]
    fn select_column_must_be_grouped() {
        let cat = catalog();
        assert!(plan(&cat, "SELECT g, v FROM fact GROUP BY g").is_err());
        assert!(plan(&cat, "SELECT g FROM fact GROUP BY g").is_ok());
    }

    #[test]
    fn unjoined_from_table_rejected() {
        let cat = catalog();
        let err = plan(&cat, "SELECT COUNT(*) FROM fact, dim").unwrap_err();
        assert!(err.to_string().contains("no join condition"), "{err}");
    }

    #[test]
    fn unknown_column_rejected() {
        let cat = catalog();
        assert!(plan(&cat, "SELECT SUM(nope) FROM fact").is_err());
        assert!(plan(&cat, "SELECT COUNT(*) FROM fact WHERE nope = 1").is_err());
    }

    #[test]
    fn unknown_table_rejected() {
        let cat = catalog();
        assert!(plan(&cat, "SELECT COUNT(*) FROM missing").is_err());
    }

    #[test]
    fn qualified_resolution_and_bad_qualifier() {
        let cat = catalog();
        assert!(plan(
            &cat,
            "SELECT dim.name, COUNT(*) FROM fact, dim WHERE dk = dim.key GROUP BY dim.name"
        )
        .is_ok());
        assert!(plan(&cat, "SELECT other.g FROM fact GROUP BY other.g").is_err());
    }

    #[test]
    fn between_bounds_validated() {
        let cat = catalog();
        assert!(plan(&cat, "SELECT COUNT(*) FROM fact WHERE id BETWEEN 9 AND 3").is_err());
    }

    #[test]
    fn in_list_plans() {
        let cat = catalog();
        let p = plan(&cat, "SELECT COUNT(*) FROM fact WHERE g IN (1, 3)").unwrap();
        let result = execute_exact(&cat, &p, 1).unwrap().0;
        assert_eq!(result.rows[0].values[0], 50.0);
    }

    #[test]
    fn count_column_equals_count_star() {
        let cat = catalog();
        let p = plan(&cat, "SELECT COUNT(v) FROM fact").unwrap();
        assert_eq!(p.aggs[0].input, AggInput::None);
    }
}
