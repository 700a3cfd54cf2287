//! Per-block zone maps (small materialized aggregates) for scan pruning.
//!
//! A [`TableSynopsis`] stores, for every integer-comparable column of a
//! table, the min/max of each fixed-size block of rows. At scan time the
//! compiled predicate is evaluated against a block's bounds first,
//! classifying the whole block as
//!
//! - [`Verdict::Skip`] — no row can match: the block is never read;
//! - [`Verdict::TakeAll`] — every row matches: the selection vector is
//!   emitted directly without per-row evaluation;
//! - [`Verdict::Scan`] — the bounds straddle the predicate: rows are
//!   evaluated as before.
//!
//! This is what makes Δ-scan cost track the *uncovered* interval rather
//! than the table size (the paper's Figure 9 "effective selectivity"
//! claim, realized at the storage layer): on a clustered key column, a Δ
//! covering 10% of the value domain touches ~10% of the blocks.
//!
//! Invariants (see DESIGN.md, "Scan pruning and the worker pool"):
//!
//! - Bounds are over [`StoredColumn::i64_at`]'s integer view, the same view
//!   compiled predicates evaluate — dictionary columns are mapped by
//!   *code*, so equality (a width-zero code range) prunes soundly, but
//!   arbitrary code ranges are only meaningful for the verdict, never
//!   reported back as values.
//! - Columns without an integer view (Float64) get no zone map; any
//!   predicate clause over such a column yields [`Verdict::Scan`].
//! - Verdicts are *conservative*: `Skip` is returned only when provably
//!   empty, `TakeAll` only when provably full, so pruned scans are
//!   semantically invisible (property-tested in
//!   `crates/engine/tests/pruning_model.rs`).

use std::ops::Range;

use crate::column::{Rows, StoredColumn};
use crate::expr::Compiled;

/// Default zone-map block size: one block per default scan morsel, so the
/// morsel driver can consult one verdict per morsel.
pub use crate::parallel::DEFAULT_MORSEL_ROWS as DEFAULT_ZONE_ROWS;

/// Per-block min/max bounds for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnZoneMap {
    /// Per-block minimum of the column's integer view.
    pub mins: Vec<i64>,
    /// Per-block maximum of the column's integer view.
    pub maxs: Vec<i64>,
}

/// Whole-block classification of a predicate against zone-map bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No row in the block can satisfy the predicate.
    Skip,
    /// Every row in the block satisfies the predicate.
    TakeAll,
    /// Undecidable from bounds alone; evaluate per row.
    Scan,
}

impl Verdict {
    fn not(self) -> Verdict {
        match self {
            Verdict::Skip => Verdict::TakeAll,
            Verdict::TakeAll => Verdict::Skip,
            Verdict::Scan => Verdict::Scan,
        }
    }
}

/// Counters describing how a pruned scan treated its blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounts {
    /// Blocks skipped entirely (zone map proved no row matches).
    pub skipped: u64,
    /// Blocks fast-pathed (zone map proved every row matches).
    pub fast_pathed: u64,
    /// Blocks scanned row by row.
    pub scanned: u64,
}

impl PruneCounts {
    /// Total blocks considered.
    pub fn total(&self) -> u64 {
        self.skipped + self.fast_pathed + self.scanned
    }

    /// Fold another scan's counters into this one.
    pub fn accumulate(&mut self, other: &PruneCounts) {
        self.skipped += other.skipped;
        self.fast_pathed += other.fast_pathed;
        self.scanned += other.scanned;
    }
}

/// Zone maps over every integer-comparable column of one table. Built at
/// table construction and *extended* on append ([`TableSynopsis::extend`]):
/// complete blocks keep their bounds and the open block's bounds are
/// continued with the appended rows alone (O(appended rows + blocks),
/// never O(rows)).
#[derive(Debug, Clone)]
pub struct TableSynopsis {
    block_rows: usize,
    rows: usize,
    columns: Vec<(String, ColumnZoneMap)>,
}

impl TableSynopsis {
    /// Build zone maps at `block_rows` granularity over the given columns.
    /// Float columns get none (predicates cannot reference them).
    pub fn build(columns: &[(String, StoredColumn)], block_rows: usize) -> Self {
        assert!(block_rows > 0, "zone-map block size must be nonzero");
        let empty = Self {
            block_rows,
            rows: 0,
            columns: Vec::new(),
        };
        empty.extend(columns)
    }

    /// Incrementally extend this synopsis to cover `columns`, which must
    /// be the table's columns *after* an append (same schema, row count ≥
    /// the count this synopsis was built over). Bounds of every complete
    /// old block are reused verbatim; the old open block's bounds are
    /// *continued* over the appended rows — min and max fold the same
    /// either way, so the result equals a from-scratch build — and new
    /// blocks are folded fresh. No stored row is re-read.
    pub fn extend(&self, columns: &[(String, StoredColumn)]) -> TableSynopsis {
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        assert!(rows >= self.rows, "extend never shrinks a table");
        let block_rows = self.block_rows;
        let blocks = rows.div_ceil(block_rows);
        let mut maps = Vec::new();
        for (name, col) in columns {
            if matches!(col, StoredColumn::Float64(_)) {
                continue;
            }
            // A column unseen by the old synopsis has nothing to continue:
            // its bounds are folded from row 0.
            let (old, old_rows) = match self.column(name) {
                Some(old) => (Some(old), self.rows),
                None => (None, 0),
            };
            let kept = old_rows / block_rows;
            let mut zone = ColumnZoneMap {
                mins: Vec::with_capacity(blocks),
                maxs: Vec::with_capacity(blocks),
            };
            if let Some(old) = old {
                zone.mins.extend_from_slice(&old.mins[..kept]);
                zone.maxs.extend_from_slice(&old.maxs[..kept]);
            }
            for block in kept..blocks {
                let start = block * block_rows;
                let end = (start + block_rows).min(rows);
                // Only the old open block starts below `old_rows`.
                let (min, max) = match old {
                    Some(old) if start < old_rows => {
                        fold_bounds(col, old_rows..end, (old.mins[block], old.maxs[block]))
                    }
                    _ => fold_bounds(col, start..end, (i64::MAX, i64::MIN)),
                };
                zone.mins.push(min);
                zone.maxs.push(max);
            }
            maps.push((name.clone(), zone));
        }
        Self {
            block_rows,
            rows,
            columns: maps,
        }
    }

    /// Number of blocks covering the table.
    pub fn num_blocks(&self) -> usize {
        self.rows.div_ceil(self.block_rows)
    }

    /// Number of rows in block `block` (the last block may be short).
    pub fn rows_in_block(&self, block: usize) -> usize {
        let start = block * self.block_rows;
        self.rows.saturating_sub(start).min(self.block_rows)
    }

    /// The zone map for `column`, if one was built.
    pub fn column(&self, column: &str) -> Option<&ColumnZoneMap> {
        self.columns
            .iter()
            .find(|(n, _)| n == column)
            .map(|(_, z)| z)
    }

    /// Split `range` into `(block index, sub-range)` pieces aligned to the
    /// zone-map grid, so misaligned scan ranges still get per-block
    /// verdicts.
    pub fn blocks_of(&self, range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
        let block_rows = self.block_rows;
        let mut start = range.start;
        let end = range.end;
        std::iter::from_fn(move || {
            if start >= end {
                return None;
            }
            let block = start / block_rows;
            let block_end = ((block + 1) * block_rows).min(end);
            let piece = (block, start..block_end);
            start = block_end;
            Some(piece)
        })
    }

    /// Classify `compiled` against block `block`'s bounds.
    pub fn verdict(&self, compiled: &Compiled<'_>, block: usize) -> Verdict {
        match compiled {
            Compiled::True => Verdict::TakeAll,
            Compiled::False => Verdict::Skip,
            Compiled::Between { column, lo, hi, .. } => match self.bounds(column, block) {
                Some((min, max)) => {
                    if max < *lo || min > *hi {
                        Verdict::Skip
                    } else if min >= *lo && max <= *hi {
                        Verdict::TakeAll
                    } else {
                        Verdict::Scan
                    }
                }
                None => Verdict::Scan,
            },
            Compiled::In { column, values, .. } => match self.bounds(column, block) {
                Some((min, max)) => {
                    // `values` is sorted (compile-time invariant), so the
                    // bounds overlap test is one partition_point probe.
                    let first_ge_min = values.partition_point(|&v| v < min);
                    if values.get(first_ge_min).is_none_or(|&v| v > max) {
                        Verdict::Skip
                    } else if min == max && values.binary_search(&min).is_ok() {
                        Verdict::TakeAll
                    } else {
                        Verdict::Scan
                    }
                }
                None => Verdict::Scan,
            },
            Compiled::And(parts) => {
                let mut all_take = true;
                for p in parts {
                    match self.verdict(p, block) {
                        Verdict::Skip => return Verdict::Skip,
                        Verdict::Scan => all_take = false,
                        Verdict::TakeAll => {}
                    }
                }
                if all_take {
                    Verdict::TakeAll
                } else {
                    Verdict::Scan
                }
            }
            Compiled::Or(parts) => {
                let mut all_skip = !parts.is_empty();
                for p in parts {
                    match self.verdict(p, block) {
                        Verdict::TakeAll => return Verdict::TakeAll,
                        Verdict::Scan => all_skip = false,
                        Verdict::Skip => {}
                    }
                }
                if all_skip {
                    Verdict::Skip
                } else {
                    Verdict::Scan
                }
            }
            Compiled::Not(p) => self.verdict(p, block).not(),
        }
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|(n, z)| n.capacity() + (z.mins.capacity() + z.maxs.capacity()) * 8)
            .sum()
    }

    fn bounds(&self, column: &str, block: usize) -> Option<(i64, i64)> {
        let zone = self.column(column)?;
        Some((*zone.mins.get(block)?, *zone.maxs.get(block)?))
    }
}

/// Fold rows `range` of the integer-view column `col` into `(min, max)`,
/// continuing from `init` (the bounds of the rows before `range` in the
/// same block, or the empty bounds `(i64::MAX, i64::MIN)`).
fn fold_bounds(col: &StoredColumn, range: Range<usize>, init: (i64, i64)) -> (i64, i64) {
    fn fold<T: Copy + Into<i64>>(
        rows: Rows<'_, T>,
        range: Range<usize>,
        (mut min, mut max): (i64, i64),
    ) -> (i64, i64) {
        for run in rows.runs(range) {
            for &v in run {
                let v: i64 = v.into();
                min = min.min(v);
                max = max.max(v);
            }
        }
        (min, max)
    }
    match col {
        StoredColumn::Int32(p) => fold(p.rows(), range, init),
        StoredColumn::Int64(p) => fold(p.rows(), range, init),
        StoredColumn::Dict { codes, .. } => fold(codes.rows(), range, init),
        StoredColumn::Float64(_) => unreachable!("float columns have no zone map"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, Column};
    use crate::expr::Predicate;
    use crate::table::Table;

    fn stored(columns: Vec<(String, Column)>) -> Vec<(String, StoredColumn)> {
        columns.into_iter().map(|(n, c)| (n, c.into())).collect()
    }

    fn columns() -> Vec<(String, Column)> {
        vec![
            // Clustered: block b of 10 rows holds [10b, 10b+9].
            ("key".into(), Column::Int64((0..100).collect())),
            // Constant within the first half, different in the second.
            (
                "half".into(),
                Column::Int32((0..100).map(|i| if i < 50 { 1 } else { 2 }).collect()),
            ),
            (
                "tag".into(),
                dict_column((0..100).map(|i| if i < 50 { "lo" } else { "hi" })),
            ),
            // Floats never get a zone map.
            ("f".into(), Column::Float64(vec![0.5; 100])),
        ]
    }

    fn synopsis() -> (Table, TableSynopsis) {
        let table = Table::new("t", columns()).unwrap();
        let syn = TableSynopsis::build(&stored(columns()), 10);
        (table, syn)
    }

    #[test]
    fn bounds_cover_blocks() {
        let (_, syn) = synopsis();
        assert_eq!(syn.num_blocks(), 10);
        let key = syn.column("key").unwrap();
        assert_eq!(key.mins[3], 30);
        assert_eq!(key.maxs[3], 39);
        assert!(syn.column("f").is_none());
        assert_eq!(syn.rows_in_block(9), 10);
    }

    #[test]
    fn between_verdicts() {
        let (table, syn) = synopsis();
        let p = Predicate::between("key", 25, 44);
        let c = p.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::Skip);
        assert_eq!(syn.verdict(&c, 2), Verdict::Scan); // rows 20..30 straddle 25
        assert_eq!(syn.verdict(&c, 3), Verdict::TakeAll);
        assert_eq!(syn.verdict(&c, 4), Verdict::Scan);
        assert_eq!(syn.verdict(&c, 5), Verdict::Skip);
    }

    #[test]
    fn dict_equality_prunes_by_code() {
        let (table, syn) = synopsis();
        let p = Predicate::eq_str("tag", "hi");
        let c = p.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::Skip);
        assert_eq!(syn.verdict(&c, 9), Verdict::TakeAll);
    }

    #[test]
    fn and_or_not_combine_conservatively() {
        let (table, syn) = synopsis();
        let both = Predicate::between("key", 0, 99).and(Predicate::between("half", 1, 1));
        let c = both.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::TakeAll);
        assert_eq!(syn.verdict(&c, 9), Verdict::Skip);

        let either = Predicate::Or(vec![
            Predicate::between("key", 0, 9),
            Predicate::between("key", 90, 99),
        ]);
        let c = either.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::TakeAll);
        assert_eq!(syn.verdict(&c, 5), Verdict::Skip);

        let neither = Predicate::Not(Box::new(Predicate::between("key", 0, 9)));
        let c = neither.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::Skip);
        assert_eq!(syn.verdict(&c, 1), Verdict::TakeAll);
    }

    #[test]
    fn in_verdicts() {
        let (table, syn) = synopsis();
        let p = Predicate::InInt {
            column: "key".into(),
            values: vec![5, 95],
        };
        let c = p.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::Scan);
        assert_eq!(syn.verdict(&c, 3), Verdict::Skip);
        // Constant block + matching value = TakeAll.
        let p = Predicate::InInt {
            column: "half".into(),
            values: vec![1],
        };
        let c = p.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::TakeAll);
        assert_eq!(syn.verdict(&c, 9), Verdict::Skip);
    }

    #[test]
    fn float_and_true_false() {
        let (table, syn) = synopsis();
        let c = Predicate::True.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::TakeAll);
        let c = Predicate::False.compile(&table).unwrap();
        assert_eq!(syn.verdict(&c, 0), Verdict::Skip);
    }

    #[test]
    fn blocks_of_handles_misaligned_ranges() {
        let (_, syn) = synopsis();
        let pieces: Vec<_> = syn.blocks_of(7..33).collect();
        assert_eq!(
            pieces,
            vec![(0, 7..10), (1, 10..20), (2, 20..30), (3, 30..33)]
        );
        assert!(syn.blocks_of(5..5).next().is_none());
    }

    fn prefix_columns(cols: &[(String, StoredColumn)], rows: usize) -> Vec<(String, StoredColumn)> {
        cols.iter()
            .map(|(n, c)| (n.clone(), c.take(0..rows).into()))
            .collect()
    }

    fn wide_columns() -> Vec<(String, Column)> {
        vec![
            // Descending, so a continued open block must lower its min.
            ("key".into(), Column::Int64((0..200).rev().collect())),
            (
                "half".into(),
                Column::Int32((0..200).map(|i| if i < 50 { 1 } else { 2 }).collect()),
            ),
            (
                "tag".into(),
                dict_column((0..200).map(|i| if i < 97 { "lo" } else { "hi" })),
            ),
            (
                "f".into(),
                Column::Float64((0..200).map(|i| i as f64 * 0.5).collect()),
            ),
        ]
    }

    #[test]
    fn extend_matches_from_scratch() {
        let full = stored(wide_columns());
        // 95 rows: block 9 is open and its bounds are continued on
        // extend; 90 rows: block-aligned, no old bound is touched. Both
        // must match a from-scratch build over the final 200 rows exactly.
        for prefix_rows in [95usize, 90] {
            let old = TableSynopsis::build(&prefix_columns(&full, prefix_rows), 10);
            let extended = old.extend(&full);
            let fresh = TableSynopsis::build(&full, 10);
            assert_eq!(extended.num_blocks(), fresh.num_blocks());
            for name in ["key", "half", "tag"] {
                let (a, b) = (extended.column(name).unwrap(), fresh.column(name).unwrap());
                assert_eq!(a, b, "{name} bounds");
                assert_eq!(a.mins.len(), 20, "{name} blocks");
            }
            assert!(extended.column("f").is_none(), "floats stay zone-map-free");
        }
    }

    #[test]
    fn extend_from_empty_equals_fresh_build() {
        let empty = stored(vec![("a".into(), Column::Int64(vec![]))]);
        let old = TableSynopsis::build(&empty, 10);
        assert_eq!(old.num_blocks(), 0);
        let full = stored(vec![("a".into(), Column::Int64((0..25).collect()))]);
        let ext = old.extend(&full);
        let fresh = TableSynopsis::build(&full, 10);
        assert_eq!(ext.num_blocks(), 3);
        assert_eq!(ext.column("a"), fresh.column("a"));
        assert_eq!(ext.column("a").unwrap().maxs, vec![9, 19, 24]);
    }

    #[test]
    fn counts_accumulate() {
        let mut a = PruneCounts {
            skipped: 1,
            fast_pathed: 2,
            scanned: 3,
        };
        a.accumulate(&PruneCounts {
            skipped: 10,
            fast_pathed: 20,
            scanned: 30,
        });
        assert_eq!(a.skipped, 11);
        assert_eq!(a.total(), 66);
    }
}
