//! Predicates and aggregate input expressions.
//!
//! The predicate language covers the paper's query templates (`BETWEEN`
//! ranges for selectivity control, dictionary equality for dimension
//! filters, conjunctions/disjunctions) with vectorized evaluation into
//! selection vectors.

use crate::column::StoredColumn;
use crate::error::Result;
use crate::table::Table;

/// A boolean predicate over one table's rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Matches no row.
    False,
    /// `column BETWEEN lo AND hi` (inclusive) on an integer-comparable
    /// column.
    Between {
        /// Column name.
        column: String,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `column = value` on an integer-comparable column.
    EqInt {
        /// Column name.
        column: String,
        /// Value to match.
        value: i64,
    },
    /// `column = 'value'` on a dictionary column.
    EqStr {
        /// Column name.
        column: String,
        /// String to match (resolved to a dictionary code at eval time).
        value: String,
    },
    /// `column IN (values)` on an integer-comparable column.
    InInt {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<i64>,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for a `BETWEEN`.
    pub fn between(column: impl Into<String>, lo: i64, hi: i64) -> Self {
        Predicate::Between {
            column: column.into(),
            lo,
            hi,
        }
    }

    /// Convenience constructor for dictionary equality.
    pub fn eq_str(column: impl Into<String>, value: impl Into<String>) -> Self {
        Predicate::EqStr {
            column: column.into(),
            value: value.into(),
        }
    }

    /// Conjunction of two predicates, flattening nested `And`s and
    /// dropping `True`s.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut a)) => {
                a.insert(0, p);
                Predicate::And(a)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Resolve column references against a table, producing an evaluable
    /// form. Fails fast on unknown columns, type mismatches, and unknown
    /// dictionary values. The compiled form borrows both the table's
    /// columns and this predicate's column names (the names key zone-map
    /// lookups during pruned scans).
    pub fn compile<'a>(&'a self, table: &'a Table) -> Result<Compiled<'a>> {
        Ok(match self {
            Predicate::True => Compiled::True,
            Predicate::False => Compiled::False,
            Predicate::Between { column, lo, hi } => {
                let col = table.column(column)?;
                col.check_int(column)?;
                Compiled::Between {
                    column,
                    col,
                    lo: *lo,
                    hi: *hi,
                }
            }
            Predicate::EqInt { column, value } => {
                let col = table.column(column)?;
                col.check_int(column)?;
                Compiled::Between {
                    column,
                    col,
                    lo: *value,
                    hi: *value,
                }
            }
            Predicate::EqStr { column, value } => {
                let col = table.column(column)?;
                let code = col.dict_code(column, value)? as i64;
                Compiled::Between {
                    column,
                    col,
                    lo: code,
                    hi: code,
                }
            }
            Predicate::InInt { column, values } => {
                let col = table.column(column)?;
                col.check_int(column)?;
                // Sort + dedup once at compile time so membership checks
                // are O(log k) binary searches rather than O(k) scans.
                let mut values = values.clone();
                values.sort_unstable();
                values.dedup();
                Compiled::In {
                    column,
                    col,
                    values,
                }
            }
            Predicate::And(ps) => Compiled::And(
                ps.iter()
                    .map(|p| p.compile(table))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Predicate::Or(ps) => Compiled::Or(
                ps.iter()
                    .map(|p| p.compile(table))
                    .collect::<Result<Vec<_>>>()?,
            ),
            Predicate::Not(p) => Compiled::Not(Box::new(p.compile(table)?)),
        })
    }
}

/// A predicate with column references resolved, ready for row evaluation.
pub enum Compiled<'a> {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Inclusive range check (equality is a width-zero range).
    Between {
        /// Source column name (keys zone-map lookups).
        column: &'a str,
        /// Resolved column.
        col: &'a StoredColumn,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Membership check.
    In {
        /// Source column name (keys zone-map lookups).
        column: &'a str,
        /// Resolved column.
        col: &'a StoredColumn,
        /// Accepted values, sorted ascending and deduplicated
        /// ([`Predicate::compile`] normalizes them) so evaluation can
        /// binary-search.
        values: Vec<i64>,
    },
    /// Conjunction.
    And(Vec<Compiled<'a>>),
    /// Disjunction.
    Or(Vec<Compiled<'a>>),
    /// Negation.
    Not(Box<Compiled<'a>>),
}

impl Compiled<'_> {
    /// Evaluate the predicate for a single row.
    #[inline]
    pub fn matches(&self, row: usize) -> bool {
        match self {
            Compiled::True => true,
            Compiled::False => false,
            Compiled::Between { col, lo, hi, .. } => {
                let v = col.i64_at(row);
                v >= *lo && v <= *hi
            }
            Compiled::In { col, values, .. } => values.binary_search(&col.i64_at(row)).is_ok(),
            Compiled::And(ps) => ps.iter().all(|p| p.matches(row)),
            Compiled::Or(ps) => ps.iter().any(|p| p.matches(row)),
            Compiled::Not(p) => !p.matches(row),
        }
    }
}

/// The input to an aggregate function: a column or a product of two
/// columns (e.g. SSB's `sum(lo_extendedprice * lo_discount)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggInput {
    /// A plain column reference.
    Col(String),
    /// Elementwise product of two columns.
    Mul(String, String),
    /// No input (COUNT(*)).
    None,
}

/// Aggregate function kinds supported by the exact execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of the input.
    Sum,
    /// Row count.
    Count,
    /// Minimum of the input.
    Min,
    /// Maximum of the input.
    Max,
    /// Arithmetic mean of the input.
    Avg,
}

/// A named aggregate specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Function kind.
    pub kind: AggKind,
    /// Input expression.
    pub input: AggInput,
}

impl AggSpec {
    /// `SUM(column)`.
    pub fn sum(column: impl Into<String>) -> Self {
        Self {
            kind: AggKind::Sum,
            input: AggInput::Col(column.into()),
        }
    }

    /// `COUNT(*)`.
    pub fn count() -> Self {
        Self {
            kind: AggKind::Count,
            input: AggInput::None,
        }
    }

    /// `AVG(column)`.
    pub fn avg(column: impl Into<String>) -> Self {
        Self {
            kind: AggKind::Avg,
            input: AggInput::Col(column.into()),
        }
    }

    /// `SUM(a * b)`.
    pub fn sum_product(a: impl Into<String>, b: impl Into<String>) -> Self {
        Self {
            kind: AggKind::Sum,
            input: AggInput::Mul(a.into(), b.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, Column};

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("x".into(), Column::Int64(vec![1, 5, 10, 15, 20])),
                ("y".into(), Column::Int32(vec![2, 4, 6, 8, 10])),
                ("region".into(), dict_column(["A", "B", "A", "C", "B"])),
            ],
        )
        .unwrap()
    }

    fn rows_matching(t: &Table, p: &Predicate) -> Vec<usize> {
        let c = p.compile(t).unwrap();
        (0..t.num_rows()).filter(|&r| c.matches(r)).collect()
    }

    #[test]
    fn between_inclusive_bounds() {
        let t = table();
        assert_eq!(
            rows_matching(&t, &Predicate::between("x", 5, 15)),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn eq_str_uses_dictionary() {
        let t = table();
        assert_eq!(
            rows_matching(&t, &Predicate::eq_str("region", "A")),
            vec![0, 2]
        );
    }

    #[test]
    fn eq_str_unknown_value_errors() {
        let t = table();
        assert!(Predicate::eq_str("region", "ZZZ").compile(&t).is_err());
    }

    #[test]
    fn and_or_not() {
        let t = table();
        let p = Predicate::between("x", 1, 15).and(Predicate::eq_str("region", "A"));
        assert_eq!(rows_matching(&t, &p), vec![0, 2]);

        let p = Predicate::Or(vec![
            Predicate::EqInt {
                column: "x".into(),
                value: 1,
            },
            Predicate::EqInt {
                column: "x".into(),
                value: 20,
            },
        ]);
        assert_eq!(rows_matching(&t, &p), vec![0, 4]);

        let p = Predicate::Not(Box::new(Predicate::between("x", 0, 10)));
        assert_eq!(rows_matching(&t, &p), vec![3, 4]);
    }

    #[test]
    fn in_membership() {
        let t = table();
        let p = Predicate::InInt {
            column: "y".into(),
            values: vec![4, 10],
        };
        assert_eq!(rows_matching(&t, &p), vec![1, 4]);
    }

    #[test]
    fn and_flattening_drops_true() {
        let p = Predicate::True.and(Predicate::between("x", 0, 1));
        assert_eq!(p, Predicate::between("x", 0, 1));
        let q = Predicate::between("x", 0, 1)
            .and(Predicate::between("y", 2, 3))
            .and(Predicate::between("x", 4, 5));
        match q {
            Predicate::And(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn unknown_column_fails_compile() {
        let t = table();
        assert!(Predicate::between("missing", 0, 1).compile(&t).is_err());
    }

    #[test]
    fn float_column_rejected() {
        let t = Table::new("f", vec![("v".into(), Column::Float64(vec![1.0]))]).unwrap();
        assert!(Predicate::between("v", 0, 1).compile(&t).is_err());
    }
}
