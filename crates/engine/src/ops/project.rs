//! Projection / materialization: gather selected rows of selected columns
//! into a new table.
//!
//! Used to materialize intermediate results (e.g. a filtered or joined
//! view) as a first-class [`Table`] — the "subquery result" form a logical
//! sampler may consume (paper §4.2: "the input relation T can be a base
//! table or a subquery result").

use crate::column::{Column, StoredColumn};
use crate::error::Result;
use crate::table::Table;

/// Gather `rows` of `column` into a new flat column of the same type.
pub fn gather(column: &StoredColumn, rows: &[u32]) -> Column {
    column.take(rows.iter().map(|&r| r as usize))
}

/// Materialize a projection of `table`: the named columns, restricted to
/// `rows` (in order, duplicates allowed — e.g. the fact side of a join).
pub fn materialize(
    name: impl Into<String>,
    table: &Table,
    columns: &[&str],
    rows: &[u32],
) -> Result<Table> {
    let cols = columns
        .iter()
        .map(|c| Ok(((*c).to_string(), gather(table.column(c)?, rows))))
        .collect::<Result<Vec<_>>>()?;
    Table::new(name, cols)
}

/// Materialize a multi-source projection: `(output name, source table,
/// source column, row ids)` per output column; all row vectors must have
/// equal length. This is how a joined view (fact rows + per-dimension
/// rows) becomes a flat table.
pub fn materialize_view(
    name: impl Into<String>,
    columns: &[(&str, &Table, &str, &[u32])],
) -> Result<Table> {
    let cols = columns
        .iter()
        .map(|(out, table, col, rows)| Ok(((*out).to_string(), gather(table.column(col)?, rows))))
        .collect::<Result<Vec<_>>>()?;
    Table::new(name, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::dict_column;
    use crate::expr::Predicate;
    use crate::ops::filter::PreparedScan;
    use crate::ops::join::{build_join_map, star_probe};
    use crate::types::Value;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("a".into(), Column::Int64((0..10).collect())),
                (
                    "b".into(),
                    Column::Float64((0..10).map(|i| i as f64).collect()),
                ),
                (
                    "c".into(),
                    dict_column((0..10).map(|i| if i % 2 == 0 { "x" } else { "y" })),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn gather_each_type() {
        let t = table();
        let rows = [1u32, 3, 3, 7];
        let a = gather(t.column("a").unwrap(), &rows);
        assert_eq!(a.i64_at(0), 1);
        assert_eq!(a.i64_at(2), 3, "duplicates allowed");
        let b = gather(t.column("b").unwrap(), &rows);
        assert_eq!(b.f64_at(3), 7.0);
        let c = gather(t.column("c").unwrap(), &rows);
        assert_eq!(c.value(0), Value::Str("y".into()));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn materialize_filtered_subset() {
        let t = table();
        let p = Predicate::between("a", 2, 5);
        let sel = PreparedScan::new(&t, &p)
            .unwrap()
            .scan_pruned(0..10, &mut Default::default());
        let m = materialize("sub", &t, &["a", "c"], &sel).unwrap();
        assert_eq!(m.num_rows(), 4);
        assert_eq!(m.num_columns(), 2);
        assert_eq!(m.column("a").unwrap().i64_at(0), 2);
        assert!(m.column("b").is_err());
    }

    #[test]
    fn materialize_join_view() {
        let fact = Table::new(
            "f",
            vec![
                ("fk".into(), Column::Int64(vec![0, 1, 0, 2])),
                ("v".into(), Column::Int64(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
        let dim = Table::new(
            "d",
            vec![
                ("key".into(), Column::Int64(vec![0, 1, 2])),
                ("label".into(), dict_column(["zero", "one", "two"])),
            ],
        )
        .unwrap();
        let map = build_join_map(&dim, "key", &Predicate::True).unwrap();
        let out = star_probe(&fact, &[0, 1, 2, 3], &[(&map, "fk")]).unwrap();
        let view = materialize_view(
            "joined",
            &[
                ("v", &fact, "v", &out.fact_rows),
                ("label", &dim, "label", &out.dim_rows[0]),
            ],
        )
        .unwrap();
        assert_eq!(view.num_rows(), 4);
        assert_eq!(
            view.column("label").unwrap().value(0),
            Value::Str("zero".into())
        );
        assert_eq!(
            view.column("label").unwrap().value(2),
            Value::Str("zero".into())
        );
        assert_eq!(view.column("v").unwrap().i64_at(3), 40);
    }

    #[test]
    fn empty_selection_gives_empty_table() {
        let t = table();
        let m = materialize("empty", &t, &["a"], &[]).unwrap();
        assert_eq!(m.num_rows(), 0);
    }
}
