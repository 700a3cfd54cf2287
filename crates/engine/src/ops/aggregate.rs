//! Hash aggregation: the exact group-by, and the bound-column views
//! (`BoundCol`, `Inputs`) every consumer of a selection reads through.
//!
//! The paper hosts stratified sampling in this group-by as a reservoir
//! aggregation function (§6.2). Here the sampler keeps its own dense strata
//! instead (`laqy::sampler_ops`) and shares only [`BoundCol`] and
//! [`GroupKey`] with the group-by — the same random-access pattern keyed by
//! the grouping columns, without a per-group allocation.

use std::ops::Range;

use crate::column::{ResolvedCol, StoredColumn};
use crate::error::Result;
use crate::expr::{AggInput, AggKind, AggSpec};
use crate::hash::{FxHashMap, GroupKey};
use crate::kernel::for_each_masked;
use crate::table::Table;

/// A resolved column bound to a logical row mapping: `rows[i]` gives the
/// physical row for logical position `i`; `None` means identity (dense
/// scan). Join outputs bind fact and dimension columns through their
/// respective aligned row vectors.
#[derive(Clone, Copy)]
pub struct BoundCol<'a> {
    col: ResolvedCol<'a>,
    rows: Option<&'a [u32]>,
}

impl<'a> BoundCol<'a> {
    /// Bind a column to a row-id vector.
    pub fn new(col: &'a StoredColumn, rows: Option<&'a [u32]>) -> Self {
        Self::bind(ResolvedCol::from_column(col), rows)
    }

    /// Bind a column resolved once to a row-id vector.
    pub fn bind(col: ResolvedCol<'a>, rows: Option<&'a [u32]>) -> Self {
        Self { col, rows }
    }

    #[inline(always)]
    fn physical(&self, i: usize) -> usize {
        match self.rows {
            Some(rows) => rows[i] as usize,
            None => i,
        }
    }

    /// Integer value at logical position `i`.
    #[inline(always)]
    pub fn i64(&self, i: usize) -> i64 {
        self.col.i64(self.physical(i))
    }

    /// Append the integer values at logical positions `0..n` to `out`,
    /// through the column's typed view (one dispatch for the batch).
    pub fn gather_i64(&self, n: usize, out: &mut Vec<i64>) {
        match self.rows {
            Some(rows) => self
                .col
                .for_each_i64(rows[..n].iter().map(|&r| r as usize), |v| out.push(v)),
            None => self.col.for_each_i64(0..n, |v| out.push(v)),
        }
    }

    /// Float value at logical position `i`.
    #[inline(always)]
    pub fn f64(&self, i: usize) -> f64 {
        self.col.f64(self.physical(i))
    }
}

/// The bound aggregate-input expressions an aggregator reads from.
pub struct Inputs<'a> {
    exprs: Vec<BoundExpr<'a>>,
}

enum BoundExpr<'a> {
    Col(BoundCol<'a>),
    Mul(BoundCol<'a>, BoundCol<'a>),
    None,
}

impl<'a> Inputs<'a> {
    /// Bind aggregate inputs against a source: `resolve(name)` must return
    /// the bound column for a given column name.
    pub fn bind(
        specs: &[AggInput],
        mut resolve: impl FnMut(&str) -> Result<BoundCol<'a>>,
    ) -> Result<Self> {
        let mut exprs = Vec::with_capacity(specs.len());
        for spec in specs {
            exprs.push(match spec {
                AggInput::Col(c) => BoundExpr::Col(resolve(c)?),
                AggInput::Mul(a, b) => BoundExpr::Mul(resolve(a)?, resolve(b)?),
                AggInput::None => BoundExpr::None,
            });
        }
        Ok(Self { exprs })
    }

    /// Number of input expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// True if no inputs are bound.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// Float value of input expression `pos` at logical position `i`.
    /// `AggInput::None` reads as 1.0 (COUNT increments).
    #[inline(always)]
    pub fn f64(&self, pos: usize, i: usize) -> f64 {
        match &self.exprs[pos] {
            BoundExpr::Col(c) => c.f64(i),
            BoundExpr::Mul(a, b) => a.f64(i) * b.f64(i),
            BoundExpr::None => 1.0,
        }
    }

    /// Integer value of input expression `pos` at logical position `i`.
    #[inline(always)]
    pub fn i64(&self, pos: usize, i: usize) -> i64 {
        match &self.exprs[pos] {
            BoundExpr::Col(c) => c.i64(i),
            BoundExpr::Mul(a, b) => a.i64(i) * b.i64(i),
            BoundExpr::None => 1,
        }
    }
}

/// The group-by result.
#[derive(Default)]
pub struct GroupTable {
    /// Group key → aggregation state.
    pub map: FxHashMap<GroupKey, ExactAgg>,
}

impl GroupTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no groups.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merge another partial table into this one (exchange-operator step of
    /// the parallel plan).
    pub fn merge(&mut self, other: GroupTable) {
        for (k, v) in other.map {
            match self.map.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().merge(v),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
    }
}

/// Hash group-by over `len` logical rows: key columns are read per row to
/// form a [`GroupKey`]; each group's aggregator folds the row in.
pub fn group_by(
    keys: &[BoundCol<'_>],
    inputs: &Inputs<'_>,
    len: usize,
    factory: &ExactAggFactory,
) -> GroupTable {
    let mut table = GroupTable::new();
    group_by_range(keys, inputs, 0..len, &mut table, factory);
    table
}

/// Fused filter+aggregate over one chunk: fold every row selected by
/// `mask` (bit `i` ↔ physical row `base + i`; bits at and beyond `len`
/// clear) into `table` without materializing a selection vector. `keys`
/// and `inputs` must be bound with an identity row mapping (`rows: None`)
/// since the mask addresses physical rows. The keyless group is created
/// lazily — a chunk with no matching rows adds nothing, exactly like
/// [`group_by`] over an empty selection.
pub fn group_by_masked(
    keys: &[BoundCol<'_>],
    inputs: &Inputs<'_>,
    base: usize,
    len: usize,
    mask: &[u64],
    table: &mut GroupTable,
    factory: &ExactAggFactory,
) {
    if keys.is_empty() {
        let any = mask[..len.div_ceil(64)].iter().any(|&w| w != 0);
        if any {
            table
                .map
                .entry(GroupKey::new(&[]))
                .or_insert_with(|| factory.create())
                .update_masked(inputs, base, len, mask);
        }
        return;
    }
    for_each_masked(base, len, mask, |i| {
        fold_row(keys, inputs, i, table, factory)
    });
}

/// Aggregate over a dense range of positions: physical rows of a zone-map
/// `TakeAll` block under an identity binding (no mask, no selection
/// vector), or logical positions `0..len` of a bound selection
/// ([`group_by`]).
pub fn group_by_range(
    keys: &[BoundCol<'_>],
    inputs: &Inputs<'_>,
    rows: Range<usize>,
    table: &mut GroupTable,
    factory: &ExactAggFactory,
) {
    if rows.is_empty() {
        return;
    }
    if keys.is_empty() {
        table
            .map
            .entry(GroupKey::new(&[]))
            .or_insert_with(|| factory.create())
            .update_dense(inputs, rows);
        return;
    }
    for i in rows {
        fold_row(keys, inputs, i, table, factory);
    }
}

/// Fold position `i` into its group: read the key columns, find or create
/// the group, update it.
#[inline(always)]
fn fold_row(
    keys: &[BoundCol<'_>],
    inputs: &Inputs<'_>,
    i: usize,
    table: &mut GroupTable,
    factory: &ExactAggFactory,
) {
    let mut key_buf = [0i64; crate::hash::MAX_KEY_COLS];
    for (j, k) in keys.iter().enumerate() {
        key_buf[j] = k.i64(i);
    }
    table
        .map
        .entry(GroupKey::new(&key_buf[..keys.len()]))
        .or_insert_with(|| factory.create())
        .update(inputs, i);
}

/// Per-group exact aggregation state covering SUM / COUNT / MIN / MAX /
/// AVG.
///
/// The masked/dense entry points exist for the fused filter+aggregate
/// path: rows selected by a chunk bitmask (or a whole `TakeAll` range)
/// fold straight into the state without a selection vector in between,
/// visiting rows in ascending order exactly as filter-then-update would.
#[derive(Debug, Clone)]
pub struct ExactAgg {
    accs: Vec<Acc>,
}

#[derive(Debug, Clone, Copy)]
enum Acc {
    Sum(f64),
    Count(u64),
    Min(f64),
    Max(f64),
    Avg { sum: f64, n: u64 },
}

impl ExactAgg {
    /// Finalized per-spec values.
    pub fn finalize(&self) -> Vec<f64> {
        self.accs
            .iter()
            .map(|a| match a {
                Acc::Sum(s) => *s,
                Acc::Count(c) => *c as f64,
                Acc::Min(m) => *m,
                Acc::Max(m) => *m,
                Acc::Avg { sum, n } => {
                    if *n == 0 {
                        f64::NAN
                    } else {
                        sum / *n as f64
                    }
                }
            })
            .collect()
    }
}

impl ExactAgg {
    /// Fold logical row `i` of `inputs` into the state.
    #[inline]
    pub fn update(&mut self, inputs: &Inputs<'_>, i: usize) {
        for (pos, acc) in self.accs.iter_mut().enumerate() {
            match acc {
                Acc::Sum(s) => *s += inputs.f64(pos, i),
                Acc::Count(c) => *c += 1,
                Acc::Min(m) => *m = m.min(inputs.f64(pos, i)),
                Acc::Max(m) => *m = m.max(inputs.f64(pos, i)),
                Acc::Avg { sum, n } => {
                    *sum += inputs.f64(pos, i);
                    *n += 1;
                }
            }
        }
    }

    /// Fold every physical row selected by `mask` over `base .. base +
    /// len` (bit `i` of the mask words is row `base + i`; bits at and
    /// beyond `len` must be clear).
    pub fn update_masked(&mut self, inputs: &Inputs<'_>, base: usize, len: usize, mask: &[u64]) {
        // One masked walk per accumulator, as `update_dense` loops: each
        // still folds in ascending row order, and a COUNT is the popcount
        // without touching column data.
        let n: u64 = mask[..len.div_ceil(64)]
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        for (pos, acc) in self.accs.iter_mut().enumerate() {
            match acc {
                Acc::Sum(s) => for_each_masked(base, len, mask, |i| *s += inputs.f64(pos, i)),
                Acc::Count(c) => *c += n,
                Acc::Min(m) => for_each_masked(base, len, mask, |i| *m = m.min(inputs.f64(pos, i))),
                Acc::Max(m) => for_each_masked(base, len, mask, |i| *m = m.max(inputs.f64(pos, i))),
                Acc::Avg { sum, n: count } => {
                    for_each_masked(base, len, mask, |i| *sum += inputs.f64(pos, i));
                    *count += n;
                }
            }
        }
    }

    /// Fold every position of a dense range: the physical rows of a
    /// zone-map `TakeAll` block, or the logical positions `0..len` of a
    /// bound selection ([`group_by`]).
    pub fn update_dense(&mut self, inputs: &Inputs<'_>, rows: Range<usize>) {
        // Per-accumulator loops over the dense range: each accumulator
        // still folds values in ascending row order (the same f64 add
        // sequence as row-at-a-time), but the inner loop is a single
        // branch-free slice walk LLVM can vectorize where the operation
        // allows.
        for (pos, acc) in self.accs.iter_mut().enumerate() {
            match acc {
                Acc::Sum(s) => {
                    for i in rows.clone() {
                        *s += inputs.f64(pos, i);
                    }
                }
                Acc::Count(c) => *c += rows.len() as u64,
                Acc::Min(m) => {
                    for i in rows.clone() {
                        *m = m.min(inputs.f64(pos, i));
                    }
                }
                Acc::Max(m) => {
                    for i in rows.clone() {
                        *m = m.max(inputs.f64(pos, i));
                    }
                }
                Acc::Avg { sum, n } => {
                    for i in rows.clone() {
                        *sum += inputs.f64(pos, i);
                    }
                    *n += rows.len() as u64;
                }
            }
        }
    }

    /// Merge another partial state (parallel execution / exchange).
    pub fn merge(&mut self, other: Self) {
        for (a, b) in self.accs.iter_mut().zip(other.accs) {
            match (a, b) {
                (Acc::Sum(x), Acc::Sum(y)) => *x += y,
                (Acc::Count(x), Acc::Count(y)) => *x += y,
                (Acc::Min(x), Acc::Min(y)) => *x = x.min(y),
                (Acc::Max(x), Acc::Max(y)) => *x = x.max(y),
                (Acc::Avg { sum: xs, n: xn }, Acc::Avg { sum: ys, n: yn }) => {
                    *xs += ys;
                    *xn += yn;
                }
                _ => unreachable!("mismatched aggregate states"),
            }
        }
    }
}

/// Factory for [`ExactAgg`], configured from [`AggSpec`] kinds; the input
/// expression at position `i` feeds accumulator `i`.
pub struct ExactAggFactory {
    kinds: Vec<AggKind>,
}

impl ExactAggFactory {
    /// Build from aggregate specs.
    pub fn new(specs: &[AggSpec]) -> Self {
        Self {
            kinds: specs.iter().map(|s| s.kind).collect(),
        }
    }
}

impl ExactAggFactory {
    /// Create a fresh state for a new group.
    pub fn create(&self) -> ExactAgg {
        ExactAgg {
            accs: self
                .kinds
                .iter()
                .map(|k| match k {
                    AggKind::Sum => Acc::Sum(0.0),
                    AggKind::Count => Acc::Count(0),
                    AggKind::Min => Acc::Min(f64::INFINITY),
                    AggKind::Max => Acc::Max(f64::NEG_INFINITY),
                    AggKind::Avg => Acc::Avg { sum: 0.0, n: 0 },
                })
                .collect(),
        }
    }
}

/// Bind the named columns of `table` through an optional row mapping —
/// the common resolver used when all inputs come from one table.
pub fn bind_table_cols<'a>(
    table: &'a Table,
    rows: Option<&'a [u32]>,
) -> impl FnMut(&str) -> Result<BoundCol<'a>> {
    move |name: &str| Ok(BoundCol::new(table.column(name)?, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::AggSpec;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("g".into(), Column::Int64(vec![1, 2, 1, 2, 1])),
                ("v".into(), Column::Int64(vec![10, 20, 30, 40, 50])),
                ("w".into(), Column::Float64(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            ],
        )
        .unwrap()
    }

    fn run_exact(t: &Table, specs: &[AggSpec], rows: Option<&[u32]>) -> GroupTable {
        let key = BoundCol::new(t.column("g").unwrap(), rows);
        let inputs = Inputs::bind(
            &specs.iter().map(|s| s.input.clone()).collect::<Vec<_>>(),
            bind_table_cols(t, rows),
        )
        .unwrap();
        let len = rows.map(|r| r.len()).unwrap_or(t.num_rows());
        group_by(&[key], &inputs, len, &ExactAggFactory::new(specs))
    }

    fn group_value(gt: &GroupTable, key: i64, pos: usize) -> f64 {
        gt.map.get(&GroupKey::new(&[key])).unwrap().finalize()[pos]
    }

    #[test]
    fn sum_and_count_per_group() {
        let t = table();
        let gt = run_exact(&t, &[AggSpec::sum("v"), AggSpec::count()], None);
        assert_eq!(gt.len(), 2);
        assert_eq!(group_value(&gt, 1, 0), 90.0);
        assert_eq!(group_value(&gt, 2, 0), 60.0);
        assert_eq!(group_value(&gt, 1, 1), 3.0);
    }

    #[test]
    fn min_max_avg() {
        let t = table();
        let specs = [
            AggSpec {
                kind: AggKind::Min,
                input: AggInput::Col("v".into()),
            },
            AggSpec {
                kind: AggKind::Max,
                input: AggInput::Col("v".into()),
            },
            AggSpec::avg("v"),
        ];
        let gt = run_exact(&t, &specs, None);
        assert_eq!(group_value(&gt, 1, 0), 10.0);
        assert_eq!(group_value(&gt, 1, 1), 50.0);
        assert_eq!(group_value(&gt, 1, 2), 30.0);
    }

    #[test]
    fn sum_of_product() {
        let t = table();
        let gt = run_exact(&t, &[AggSpec::sum_product("v", "w")], None);
        // Group 1: 10*1 + 30*3 + 50*5 = 350
        assert_eq!(group_value(&gt, 1, 0), 350.0);
        // Group 2: 20*2 + 40*4 = 200
        assert_eq!(group_value(&gt, 2, 0), 200.0);
    }

    #[test]
    fn selection_vector_restricts_rows() {
        let t = table();
        let rows = [0u32, 1, 2];
        let gt = run_exact(&t, &[AggSpec::sum("v")], Some(&rows));
        assert_eq!(group_value(&gt, 1, 0), 40.0);
        assert_eq!(group_value(&gt, 2, 0), 20.0);
    }

    #[test]
    fn partial_merge_equals_single_pass() {
        let t = table();
        let all = run_exact(&t, &[AggSpec::sum("v"), AggSpec::count()], None);
        let mut left = run_exact(&t, &[AggSpec::sum("v"), AggSpec::count()], Some(&[0, 1]));
        let right = run_exact(&t, &[AggSpec::sum("v"), AggSpec::count()], Some(&[2, 3, 4]));
        left.merge(right);
        assert_eq!(left.len(), all.len());
        for (k, v) in &all.map {
            assert_eq!(left.map.get(k).unwrap().finalize(), v.finalize());
        }
    }

    #[test]
    fn keyless_group_by_is_global_aggregate() {
        let t = table();
        let inputs = Inputs::bind(&[AggInput::Col("v".into())], bind_table_cols(&t, None)).unwrap();
        let gt = group_by(
            &[],
            &inputs,
            t.num_rows(),
            &ExactAggFactory::new(&[AggSpec::sum("v")]),
        );
        assert_eq!(gt.len(), 1);
        assert_eq!(
            gt.map.get(&GroupKey::new(&[])).unwrap().finalize()[0],
            150.0
        );
    }

    #[test]
    fn avg_of_empty_group_is_nan() {
        let f = ExactAggFactory::new(&[AggSpec::avg("v")]);
        let agg = f.create();
        assert!(agg.finalize()[0].is_nan());
    }
}
