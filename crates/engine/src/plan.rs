//! Declarative star-schema query plans and the exact (non-approximate)
//! executor.
//!
//! This is the baseline execution path the paper compares against
//! ("GroupBy" / exact execution in Figures 8 and 12–15): parallel filtered
//! scan over the fact table, optional star joins against pre-built
//! dimension hash maps, then hash aggregation with partial-merge.

use crate::error::{EngineError, Result};
use crate::expr::{AggInput, AggSpec, Predicate};
use crate::hash::{GroupKey, MAX_KEY_COLS};
use crate::ops::aggregate::{
    group_by, group_by_masked, group_by_range, BoundCol, ExactAgg, ExactAggFactory, GroupTable,
    Inputs,
};
use crate::ops::filter::{PreparedScan, ScanEvent};
use crate::ops::join::{
    build_join_map, star_probe, too_many_joins, JoinMap, StarJoinOutput, MAX_JOINS,
};
use crate::parallel::{parallel_fold, DEFAULT_MORSEL_ROWS};
use crate::synopsis::PruneCounts;
use crate::table::{Catalog, Table};
use crate::types::Value;

/// One dimension join in a star plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinSpec {
    /// Dimension table name.
    pub dim_table: String,
    /// Join key column in the dimension table.
    pub dim_key: String,
    /// Foreign key column in the fact table.
    pub fact_key: String,
    /// Predicate applied to the dimension before building the join map.
    pub predicate: Predicate,
}

/// A column reference: `table = None` addresses the fact table, otherwise a
/// joined dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    /// Owning table (`None` = fact).
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Reference a fact-table column.
    pub fn fact(column: impl Into<String>) -> Self {
        Self {
            table: None,
            column: column.into(),
        }
    }

    /// Reference a dimension column.
    pub fn dim(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

/// A star-schema aggregation plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Fact table name.
    pub fact: String,
    /// Predicate on the fact table (pushed to the scan).
    pub predicate: Predicate,
    /// Star joins (empty for single-table plans).
    pub joins: Vec<JoinSpec>,
    /// Grouping columns (≤ [`MAX_KEY_COLS`]).
    pub group_by: Vec<ColRef>,
    /// Aggregates to compute.
    pub aggs: Vec<AggSpec>,
}

/// One output row of a grouped query.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedRow {
    /// Decoded group-key values, in `group_by` order.
    pub key: Vec<Value>,
    /// Aggregate values, in `aggs` order.
    pub values: Vec<f64>,
}

/// Result of a grouped query, sorted by key for deterministic comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output rows.
    pub rows: Vec<GroupedRow>,
}

impl QueryResult {
    /// Find a row by raw integer key parts (dict columns use codes).
    pub fn row_by_key(&self, key: &[Value]) -> Option<&GroupedRow> {
        self.rows.iter().find(|r| r.key == key)
    }
}

/// Everything resolved and pre-built for repeated execution of one plan
/// shape: dimension join maps are built once and shared across queries,
/// matching how the paper's engine reuses build sides across a sequence.
pub struct PreparedJoins {
    maps: Vec<JoinMap>,
    fact_keys: Vec<String>,
    dim_tables: Vec<String>,
}

impl PreparedJoins {
    /// Build all dimension join maps for a plan.
    pub fn build(catalog: &Catalog, plan: &QueryPlan) -> Result<Self> {
        let mut maps = Vec::with_capacity(plan.joins.len());
        let mut fact_keys = Vec::with_capacity(plan.joins.len());
        let mut dim_tables = Vec::with_capacity(plan.joins.len());
        for j in &plan.joins {
            let dim = catalog.table(&j.dim_table)?;
            maps.push(build_join_map(dim, &j.dim_key, &j.predicate)?);
            fact_keys.push(j.fact_key.clone());
            dim_tables.push(j.dim_table.clone());
        }
        Ok(Self {
            maps,
            fact_keys,
            dim_tables,
        })
    }

    /// `(map, fact key column)` pairs for probing.
    pub fn probes(&self) -> Vec<(&JoinMap, &str)> {
        self.maps
            .iter()
            .zip(self.fact_keys.iter())
            .map(|(m, k)| (m, k.as_str()))
            .collect()
    }

    /// Index of a dimension table in the join list.
    pub fn dim_index(&self, table: &str) -> Option<usize> {
        self.dim_tables.iter().position(|t| t == table)
    }
}

/// Validate a plan against a catalog (columns exist, group-key width and
/// join count within what execution holds).
pub fn validate_plan(catalog: &Catalog, plan: &QueryPlan) -> Result<()> {
    let fact = catalog.table(&plan.fact)?;
    if plan.group_by.len() > MAX_KEY_COLS {
        return Err(EngineError::InvalidPlan(format!(
            "at most {MAX_KEY_COLS} group-by columns supported"
        )));
    }
    if plan.joins.len() > MAX_JOINS {
        return Err(too_many_joins(plan.joins.len()));
    }
    if plan.group_by.is_empty() && plan.aggs.is_empty() {
        return Err(EngineError::InvalidPlan(
            "plan needs group-by columns or aggregates".into(),
        ));
    }
    plan.predicate.compile(fact).map(|_| ())?;
    for j in &plan.joins {
        let dim = catalog.table(&j.dim_table)?;
        dim.column(&j.dim_key)?;
        fact.column(&j.fact_key)?;
        j.predicate.compile(dim).map(|_| ())?;
    }
    for c in &plan.group_by {
        resolve_table(catalog, plan, c)?.column(&c.column)?;
    }
    for a in &plan.aggs {
        for name in agg_input_columns(&a.input) {
            resolve_by_name(catalog, plan, name)?;
        }
    }
    Ok(())
}

fn agg_input_columns(input: &AggInput) -> Vec<&str> {
    match input {
        AggInput::Col(c) => vec![c],
        AggInput::Mul(a, b) => vec![a, b],
        AggInput::None => vec![],
    }
}

fn resolve_table<'a>(catalog: &'a Catalog, plan: &QueryPlan, c: &ColRef) -> Result<&'a Table> {
    match &c.table {
        None => Ok(catalog.table(&plan.fact)?),
        Some(t) => {
            if !plan.joins.iter().any(|j| &j.dim_table == t) {
                return Err(EngineError::InvalidPlan(format!(
                    "column `{}` references un-joined table `{t}`",
                    c.column
                )));
            }
            Ok(catalog.table(t)?)
        }
    }
}

/// Resolve an unqualified column name: the fact table wins, then joined
/// dimensions in join order. Returns the join index (`None` = the fact
/// table) and the owning table.
pub fn resolve_by_name<'a>(
    catalog: &'a Catalog,
    plan: &QueryPlan,
    name: &str,
) -> Result<(Option<usize>, &'a Table)> {
    let fact = catalog.table(&plan.fact)?;
    if fact.has_column(name) {
        return Ok((None, fact));
    }
    for (i, j) in plan.joins.iter().enumerate() {
        let dim = catalog.table(&j.dim_table)?;
        if dim.has_column(name) {
            return Ok((Some(i), dim));
        }
    }
    Err(EngineError::UnknownColumn {
        table: plan.fact.clone(),
        column: name.to_string(),
    })
}

/// Execute a plan exactly, in parallel — the paper's GroupBy baseline —
/// also reporting the zone-map verdicts its scan met.
///
/// Every morsel of the fact table is one [`PreparedScan::walk`]. A
/// single-table plan folds the walk's chunk masks and `TakeAll` ranges
/// straight into the hash group-by: no selection vector exists, and a
/// keyless `COUNT(*)` (the scan floor) adds up popcounts. A join plan
/// decodes the walk to row ids, probes the star and groups the joined
/// rows; a failure there folds into the morsel's partial and is returned
/// after the fold.
pub fn execute_exact(
    catalog: &Catalog,
    plan: &QueryPlan,
    threads: usize,
) -> Result<(QueryResult, PruneCounts)> {
    validate_plan(catalog, plan)?;
    let joins = PreparedJoins::build(catalog, plan)?;
    let fact = catalog.table(&plan.fact)?;
    let factory = ExactAggFactory::new(&plan.aggs);
    let agg_inputs: Vec<AggInput> = plan.aggs.iter().map(|a| a.input.clone()).collect();
    let scan = PreparedScan::new(fact, &plan.predicate)?;
    let fused = plan
        .joins
        .is_empty()
        .then(|| bind(catalog, plan, &joins, &agg_inputs, None))
        .transpose()?;
    let partials = parallel_fold(
        fact.num_rows(),
        DEFAULT_MORSEL_ROWS,
        threads,
        || (GroupTable::new(), PruneCounts::default(), None),
        |(acc, counts, error), range| match &fused {
            Some((keys, inputs)) => scan.walk(range, counts, |ev| match ev {
                ScanEvent::TakeAll(rows) => group_by_range(keys, inputs, rows, acc, &factory),
                ScanEvent::Chunk(rows, mask) => {
                    group_by_masked(keys, inputs, rows.start, rows.len(), mask, acc, &factory)
                }
            }),
            None if error.is_none() => {
                let sel = scan.scan_pruned(range, counts);
                let joined = star_probe(fact, &sel, &joins.probes()).and_then(|out| {
                    let (keys, inputs) = bind(catalog, plan, &joins, &agg_inputs, Some(&out))?;
                    Ok(group_by(&keys, &inputs, out.fact_rows.len(), &factory))
                });
                match joined {
                    Ok(partial) => acc.merge(partial),
                    Err(e) => *error = Some(e),
                }
            }
            None => {}
        },
    );
    let mut merged = GroupTable::new();
    let mut counts = PruneCounts::default();
    for (p, c, error) in partials {
        if let Some(e) = error {
            return Err(e);
        }
        merged.merge(p);
        counts.accumulate(&c);
    }
    Ok((finalize_result(catalog, plan, merged)?, counts))
}

/// Bind the plan's group keys and aggregate inputs: to physical rows
/// (`rows: None`, the fused single-table walk) or to a star probe's
/// aligned fact and dimension rows.
fn bind<'a>(
    catalog: &'a Catalog,
    plan: &QueryPlan,
    joins: &PreparedJoins,
    agg_inputs: &[AggInput],
    rows: Option<&'a StarJoinOutput>,
) -> Result<(Vec<BoundCol<'a>>, Inputs<'a>)> {
    let rows_of = |dim: Option<usize>| {
        rows.map(|out| match dim {
            None => out.fact_rows.as_slice(),
            Some(i) => out.dim_rows[i].as_slice(),
        })
    };
    let mut keys = Vec::with_capacity(plan.group_by.len());
    for c in &plan.group_by {
        // `resolve_table` rejects a key on a table the plan does not join.
        let col = resolve_table(catalog, plan, c)?.column(&c.column)?;
        let dim = c.table.as_deref().and_then(|t| joins.dim_index(t));
        keys.push(BoundCol::new(col, rows_of(dim)));
    }
    let inputs = Inputs::bind(agg_inputs, |name| {
        let (dim, table) = resolve_by_name(catalog, plan, name)?;
        Ok(BoundCol::new(table.column(name)?, rows_of(dim)))
    })?;
    Ok((keys, inputs))
}

fn finalize_result(catalog: &Catalog, plan: &QueryPlan, table: GroupTable) -> Result<QueryResult> {
    // Decoders map raw i64 key parts back to values (dict codes → strings).
    let key_cols: Vec<&crate::column::StoredColumn> = plan
        .group_by
        .iter()
        .map(|c| resolve_table(catalog, plan, c).and_then(|t| t.column(&c.column)))
        .collect::<Result<_>>()?;

    let mut entries: Vec<(GroupKey, ExactAgg)> = table.map.into_iter().collect();
    entries.sort_by_key(|(k, _)| *k);
    let rows = entries
        .into_iter()
        .map(|(k, agg)| GroupedRow {
            key: k
                .parts()
                .iter()
                .zip(key_cols.iter())
                .map(|(&part, col)| col.decode_key(part))
                .collect(),
            values: agg.finalize(),
        })
        .collect();
    Ok(QueryResult { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, Column};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "fact",
                vec![
                    ("id".into(), Column::Int64((0..1000).collect())),
                    (
                        "g".into(),
                        Column::Int32((0..1000).map(|i| i % 4).collect()),
                    ),
                    (
                        "dkey".into(),
                        Column::Int64((0..1000).map(|i| i % 10).collect()),
                    ),
                    (
                        "v".into(),
                        Column::Int64((0..1000).map(|i| i * 2).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "dim",
                vec![
                    ("key".into(), Column::Int64((0..10).collect())),
                    (
                        "cat".into(),
                        dict_column((0..10).map(|i| if i < 5 { "low" } else { "high" })),
                    ),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn simple_plan() -> QueryPlan {
        QueryPlan {
            fact: "fact".into(),
            predicate: Predicate::between("id", 0, 499),
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::sum("v"), AggSpec::count()],
        }
    }

    #[test]
    fn exact_group_by_matches_reference() {
        let cat = catalog();
        let res = execute_exact(&cat, &simple_plan(), 4).unwrap().0;
        assert_eq!(res.rows.len(), 4);
        // Reference: group g over ids 0..500, sum of 2*id.
        for row in &res.rows {
            let g = row.key[0].as_i64().unwrap();
            let expected_sum: i64 = (0..500).filter(|i| i % 4 == g).map(|i| i * 2).sum();
            let expected_count = (0..500).filter(|i| i % 4 == g).count();
            assert_eq!(row.values[0], expected_sum as f64);
            assert_eq!(row.values[1], expected_count as f64);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let cat = catalog();
        let serial = execute_exact(&cat, &simple_plan(), 1).unwrap().0;
        let parallel = execute_exact(&cat, &simple_plan(), 8).unwrap().0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn join_plan_with_dim_group_key() {
        let cat = catalog();
        let plan = QueryPlan {
            fact: "fact".into(),
            predicate: Predicate::True,
            joins: vec![JoinSpec {
                dim_table: "dim".into(),
                dim_key: "key".into(),
                fact_key: "dkey".into(),
                predicate: Predicate::True,
            }],
            group_by: vec![ColRef::dim("dim", "cat")],
            aggs: vec![AggSpec::count()],
        };
        let res = execute_exact(&cat, &plan, 4).unwrap().0;
        assert_eq!(res.rows.len(), 2);
        // dkey = id % 10: 5 of 10 values are "low" → 500 rows each.
        for row in &res.rows {
            assert_eq!(row.values[0], 500.0);
            assert!(matches!(&row.key[0], Value::Str(s) if s == "low" || s == "high"));
        }
    }

    #[test]
    fn join_with_dim_predicate_filters_fact() {
        let cat = catalog();
        let plan = QueryPlan {
            fact: "fact".into(),
            predicate: Predicate::True,
            joins: vec![JoinSpec {
                dim_table: "dim".into(),
                dim_key: "key".into(),
                fact_key: "dkey".into(),
                predicate: Predicate::eq_str("cat", "low"),
            }],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::count()],
        };
        let res = execute_exact(&cat, &plan, 2).unwrap().0;
        let total: f64 = res.rows.iter().map(|r| r.values[0]).sum();
        assert_eq!(total, 500.0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let cat = catalog();
        let mut plan = simple_plan();
        plan.group_by = vec![ColRef::fact("missing")];
        assert!(validate_plan(&cat, &plan).is_err());

        let mut plan = simple_plan();
        plan.group_by = vec![ColRef::dim("dim", "cat")];
        // dim is not joined in simple_plan.
        assert!(validate_plan(&cat, &plan).is_err());

        let mut plan = simple_plan();
        plan.group_by.clear();
        plan.aggs.clear();
        assert!(validate_plan(&cat, &plan).is_err());
    }

    #[test]
    fn keyless_count_is_the_scan_floor() {
        // The scan floor is a keyless COUNT(*): the fused walk's
        // popcounts, with the verdicts the decoding walk meets.
        let cat = catalog();
        let floor = |predicate: Predicate| {
            let plan = QueryPlan {
                fact: "fact".into(),
                predicate,
                joins: vec![],
                group_by: vec![],
                aggs: vec![AggSpec::count()],
            };
            let (res, counts) = execute_exact(&cat, &plan, 4).unwrap();
            (res.rows.first().map_or(0.0, |r| r.values[0]), counts)
        };
        let fact = cat.table("fact").unwrap();
        for (p, n) in [
            (Predicate::between("id", 100, 299), 200.0),
            (Predicate::True, 1000.0),
            (Predicate::False, 0.0),
        ] {
            let mut counts = PruneCounts::default();
            let sel = PreparedScan::new(fact, &p)
                .unwrap()
                .scan_pruned(0..fact.num_rows(), &mut counts);
            assert_eq!(floor(p), (n, counts));
            assert_eq!(sel.len() as f64, n);
        }
    }

    #[test]
    fn more_joins_than_the_probe_holds_are_rejected() {
        let cat = catalog();
        let join = JoinSpec {
            dim_table: "dim".into(),
            dim_key: "key".into(),
            fact_key: "dkey".into(),
            predicate: Predicate::True,
        };
        let mut plan = simple_plan();
        plan.joins = vec![join; MAX_JOINS + 1];
        assert!(matches!(
            validate_plan(&cat, &plan),
            Err(EngineError::InvalidPlan(_))
        ));
        assert!(execute_exact(&cat, &plan, 1).is_err());
        plan.joins.truncate(MAX_JOINS);
        assert_eq!(
            execute_exact(&cat, &plan, 1).unwrap().0,
            execute_exact(&cat, &simple_plan(), 1).unwrap().0
        );
    }

    #[test]
    fn keyless_plan_returns_single_row() {
        let cat = catalog();
        let plan = QueryPlan {
            fact: "fact".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![],
            aggs: vec![AggSpec::sum("v")],
        };
        let res = execute_exact(&cat, &plan, 4).unwrap().0;
        assert_eq!(res.rows.len(), 1);
        assert_eq!(
            res.rows[0].values[0],
            (0..1000i64).map(|i| i * 2).sum::<i64>() as f64
        );
    }

    #[test]
    fn keyless_plan_with_no_matching_rows_is_empty() {
        // The fused path must create the keyless group lazily: a query
        // matching nothing returns no rows, same as the historical
        // selection-vector path.
        let cat = catalog();
        let plan = QueryPlan {
            fact: "fact".into(),
            predicate: Predicate::False,
            joins: vec![],
            group_by: vec![],
            aggs: vec![AggSpec::sum("v"), AggSpec::count()],
        };
        let res = execute_exact(&cat, &plan, 2).unwrap().0;
        assert!(res.rows.is_empty());
    }

    #[test]
    fn fused_single_table_equals_join_machinery_reference() {
        // Same logical query once through the fused single-table path and
        // once forced through the selection-vector path via a join.
        let cat = catalog();
        let fused = execute_exact(&cat, &simple_plan(), 2).unwrap().0;
        let mut joined = simple_plan();
        joined.joins = vec![JoinSpec {
            dim_table: "dim".into(),
            dim_key: "key".into(),
            fact_key: "dkey".into(),
            predicate: Predicate::True,
        }];
        let via_join = execute_exact(&cat, &joined, 2).unwrap().0;
        assert_eq!(fused, via_join);
    }
}
