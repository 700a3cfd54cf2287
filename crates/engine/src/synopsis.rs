//! Per-morsel zone maps (small materialized aggregates) for scan pruning.
//!
//! A [`TableSynopsis`] stores, for every integer-comparable column of a
//! table, the min/max (and null count) of each fixed-size block of rows.
//! At scan time the compiled predicate is evaluated against a block's
//! bounds first, classifying the whole block as
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
//! On top of the zone maps sit **pre-aggregate lanes** ([`ColumnLanes`]):
//! per-block sum/min/max for every numeric column, hierarchically
//! coarsened by pairwise halving (level `l` aggregates `2^l` blocks —
//! the FastLane/SlowLane coarsening shape). A `TakeAll` verdict at *any*
//! level whose group columns are constant there yields a
//! [`CoveredSpan`]: an exact partial aggregate over the span with zero
//! scan, leaving per-row work (and sampling variance) only at predicate
//! boundaries — the exact-plus-boundary-sampling hybrid of Liang et
//! al.'s "Combining Aggregation and Sampling (Nearly) Optimally".
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
#[derive(Debug, Clone)]
pub struct ColumnZoneMap {
    /// Per-block minimum of the column's integer view.
    pub mins: Vec<i64>,
    /// Per-block maximum of the column's integer view.
    pub maxs: Vec<i64>,
    /// Per-block null count. Columns are currently non-nullable, so this
    /// is all zeros; it is kept in the format so nullable columns can
    /// prune `IS NULL`-style predicates without a layout change.
    pub nulls: Vec<u32>,
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

/// Per-level pre-aggregates for one column. Vectors are indexed by node:
/// node `i` of level `l` aggregates blocks `i·2^l .. (i+1)·2^l` (the last
/// node may be truncated at the table end).
#[derive(Debug, Clone)]
pub enum LaneValues {
    /// Integer-view column (`Int32`/`Int64`/`Dict` codes): exact sums.
    Int {
        /// Per-node sum of the integer view (exact in `i128`).
        sums: Vec<i128>,
        /// Per-node minimum.
        mins: Vec<i64>,
        /// Per-node maximum.
        maxs: Vec<i64>,
    },
    /// Float column: `f64` aggregates.
    Float {
        /// Per-node sum.
        sums: Vec<f64>,
        /// Per-node minimum.
        mins: Vec<f64>,
        /// Per-node maximum.
        maxs: Vec<f64>,
    },
}

impl LaneValues {
    /// Number of nodes at this level.
    pub fn len(&self) -> usize {
        match self {
            LaneValues::Int { sums, .. } => sums.len(),
            LaneValues::Float { sums, .. } => sums.len(),
        }
    }

    /// Whether the level holds no nodes (empty table).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn heap_bytes(&self) -> usize {
        match self {
            LaneValues::Int { sums, mins, maxs } => {
                sums.capacity() * 16 + mins.capacity() * 8 + maxs.capacity() * 8
            }
            LaneValues::Float { sums, mins, maxs } => {
                (sums.capacity() + mins.capacity() + maxs.capacity()) * 8
            }
        }
    }
}

/// The pre-aggregate lane hierarchy for one column: `levels[0]` is block
/// granularity, `levels[l]` coarsens `2^l` blocks per node.
#[derive(Debug, Clone)]
pub struct ColumnLanes {
    levels: Vec<LaneValues>,
}

impl ColumnLanes {
    /// Number of coarsening levels (≥ 1 for a non-empty table).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The per-node aggregates at `level`.
    pub fn level(&self, level: usize) -> Option<&LaneValues> {
        self.levels.get(level)
    }

    fn heap_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.heap_bytes()).sum()
    }
}

/// A maximal lane-covered region: every row in `rows` provably satisfies
/// the predicate *and* every group column is constant across it, so its
/// aggregate contribution is exact and scan-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveredSpan {
    /// Zone-map blocks covered (contiguous).
    pub blocks: Range<usize>,
    /// Row range covered (clamped to the table's row count).
    pub rows: Range<usize>,
    /// The constant value of each requested group column over the span.
    pub key: Vec<i64>,
}

/// Aggregates of one column over a block range, read from the lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneAgg {
    /// Sum of the column over the range.
    pub sum: f64,
    /// Minimum over the range.
    pub min: f64,
    /// Maximum over the range.
    pub max: f64,
}

/// Zone maps over every integer-comparable column of one table, plus
/// hierarchical pre-aggregate lanes over every column. Built at table
/// construction and *extended* on append ([`TableSynopsis::extend`]):
/// complete blocks keep their level-0 entries, the open block's entry is
/// continued with the appended rows alone, and coarsening levels are
/// re-folded from level 0 (O(appended rows + blocks), never O(rows)).
#[derive(Debug, Clone)]
pub struct TableSynopsis {
    block_rows: usize,
    rows: usize,
    columns: Vec<(String, ColumnZoneMap)>,
    lanes: Vec<(String, ColumnLanes)>,
    /// Lane hierarchy depth (0 for an empty table).
    levels: usize,
}

impl TableSynopsis {
    /// Build zone maps at `block_rows` granularity over the given columns.
    /// Float columns get lanes but no zone map (predicates cannot
    /// reference them).
    pub fn build(columns: &[(String, StoredColumn)], block_rows: usize) -> Self {
        assert!(block_rows > 0, "zone-map block size must be nonzero");
        let empty = Self {
            block_rows,
            rows: 0,
            columns: Vec::new(),
            lanes: Vec::new(),
            levels: 0,
        };
        empty.extend(columns)
    }

    /// Incrementally extend this synopsis to cover `columns`, which must
    /// be the table's columns *after* an append (same schema, row count ≥
    /// the count this synopsis was built over). Level-0 entries of every
    /// complete old block are reused verbatim; the old open block's entry
    /// is *continued* — its `(sum, min, max)` folded on over the appended
    /// rows, the same sequence of operations a from-scratch pass makes, so
    /// the result is identical to the last bit — new blocks are folded
    /// fresh, and the coarsening hierarchy is re-folded from level 0:
    /// O(appended rows + total blocks), no stored row is re-read. New
    /// levels appear automatically when the block count crosses a power
    /// of two.
    pub fn extend(&self, columns: &[(String, StoredColumn)]) -> TableSynopsis {
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        assert!(rows >= self.rows, "extend never shrinks a table");
        let block_rows = self.block_rows;
        let blocks = rows.div_ceil(block_rows);
        let levels = levels_for(blocks);
        let mut maps = Vec::new();
        let mut lanes = Vec::new();
        for (name, col) in columns {
            // A column unseen by the old synopsis (or re-typed) has
            // nothing to continue: its lanes are folded from row 0.
            let (old, old_rows) = match self.lane(name).and_then(|l| l.level(0)) {
                Some(old) if old.is_float() == matches!(col, StoredColumn::Float64(_)) => {
                    (Some(old), self.rows)
                }
                _ => (None, 0),
            };
            let mut level0 = match old {
                Some(old) => old.prefix(old_rows / block_rows, blocks),
                None => LaneValues::with_capacity(col, blocks),
            };
            for block in level0.len()..blocks {
                let start = block * block_rows;
                let end = (start + block_rows).min(rows);
                // Only the old open block starts below `old_rows`.
                let node = match old {
                    Some(old) if start < old_rows => {
                        fold_rows(col, old_rows..end, Some(old.node(block)))
                    }
                    _ => fold_rows(col, start..end, None),
                };
                level0.push(node);
            }
            // Zone bounds are the integer lanes' level-0 bounds: the same
            // view, already folded.
            if let LaneValues::Int { mins, maxs, .. } = &level0 {
                maps.push((
                    name.clone(),
                    ColumnZoneMap {
                        mins: mins.clone(),
                        maxs: maxs.clone(),
                        nulls: vec![0; blocks],
                    },
                ));
            }
            lanes.push((name.clone(), coarsen(level0, levels)));
        }
        Self {
            block_rows,
            rows,
            columns: maps,
            lanes,
            levels,
        }
    }

    /// Rows per zone-map block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
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
        self.verdict_at(compiled, 0, block)
    }

    /// Classify `compiled` against lane node `idx` of `level` (level 0 is
    /// block granularity — [`TableSynopsis::verdict`]). Coarser levels
    /// use the lanes' coarsened bounds, so one verdict can cover `2^l`
    /// blocks at once.
    pub fn verdict_at(&self, compiled: &Compiled<'_>, level: usize, idx: usize) -> Verdict {
        match compiled {
            Compiled::True => Verdict::TakeAll,
            Compiled::False => Verdict::Skip,
            Compiled::Between { column, lo, hi, .. } => match self.bounds_at(column, level, idx) {
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
            Compiled::In { column, values, .. } => match self.bounds_at(column, level, idx) {
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
                    match self.verdict_at(p, level, idx) {
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
                    match self.verdict_at(p, level, idx) {
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
            Compiled::Not(p) => self.verdict_at(p, level, idx).not(),
        }
    }

    /// The lane hierarchy for `column`, if one was built.
    pub fn lane(&self, column: &str) -> Option<&ColumnLanes> {
        self.lanes.iter().find(|(n, _)| n == column).map(|(_, l)| l)
    }

    /// Lane hierarchy depth (0 for an empty table).
    pub fn lane_levels(&self) -> usize {
        self.levels
    }

    /// If `column`'s integer view is constant over lane node `idx` of
    /// `level`, its value — the group-key constancy test behind
    /// [`TableSynopsis::covered_spans`]. Float columns always return
    /// `None` (their integer cast can collapse distinct values).
    pub fn lane_const_i64(&self, column: &str, level: usize, idx: usize) -> Option<i64> {
        match self.lane(column)?.level(level)? {
            LaneValues::Int { mins, maxs, .. } => {
                let (min, max) = (*mins.get(idx)?, *maxs.get(idx)?);
                (min == max).then_some(min)
            }
            LaneValues::Float { .. } => None,
        }
    }

    /// Exact sum/min/max of `column` over a range of blocks, read from
    /// the lanes without touching a row. The walk is segment-tree style:
    /// maximal aligned nodes at the coarsest applicable level, so a span
    /// of `B` blocks costs `O(log B)` lane reads.
    pub fn lane_sum(&self, column: &str, blocks: Range<usize>) -> Option<LaneAgg> {
        let lanes = self.lane(column)?;
        let end = blocks.end.min(self.num_blocks());
        let mut at = blocks.start;
        if at >= end {
            return None;
        }
        let mut sum_i: i128 = 0;
        let mut sum_f: f64 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut is_int = true;
        while at < end {
            // Largest level whose node is aligned at `at` and fits in the
            // remaining range.
            let mut level = 0usize;
            while level + 1 < lanes.num_levels()
                && at.is_multiple_of(1usize << (level + 1))
                && at + (1usize << (level + 1)) <= end
            {
                level += 1;
            }
            let idx = at >> level;
            match lanes.level(level)? {
                LaneValues::Int { sums, mins, maxs } => {
                    sum_i += sums.get(idx)?;
                    min = min.min(*mins.get(idx)? as f64);
                    max = max.max(*maxs.get(idx)? as f64);
                }
                LaneValues::Float { sums, mins, maxs } => {
                    is_int = false;
                    sum_f += sums.get(idx)?;
                    min = min.min(*mins.get(idx)?);
                    max = max.max(*maxs.get(idx)?);
                }
            }
            at += 1usize << level;
        }
        Some(LaneAgg {
            sum: if is_int { sum_i as f64 } else { sum_f },
            min,
            max,
        })
    }

    /// Find every maximal region where `compiled` provably matches all
    /// rows *and* each of `group_cols` is constant, descending the lane
    /// hierarchy from the coarsest level: a clustered predicate over half
    /// the table resolves in a handful of coarse verdicts instead of one
    /// per block. Spans are emitted in block order and never overlap.
    pub fn covered_spans(&self, compiled: &Compiled<'_>, group_cols: &[&str]) -> Vec<CoveredSpan> {
        let mut out = Vec::new();
        if self.levels == 0 {
            return out;
        }
        let top = self.levels - 1;
        let top_nodes = self.num_blocks().div_ceil(1usize << top);
        for idx in 0..top_nodes {
            self.descend_covered(compiled, group_cols, top, idx, &mut out);
        }
        out
    }

    fn descend_covered(
        &self,
        compiled: &Compiled<'_>,
        group_cols: &[&str],
        level: usize,
        idx: usize,
        out: &mut Vec<CoveredSpan>,
    ) {
        let first_block = idx << level;
        if first_block >= self.num_blocks() {
            return;
        }
        match self.verdict_at(compiled, level, idx) {
            Verdict::Skip => {}
            Verdict::TakeAll => {
                let key: Option<Vec<i64>> = group_cols
                    .iter()
                    .map(|c| self.lane_const_i64(c, level, idx))
                    .collect();
                if let Some(key) = key {
                    let last_block = ((idx + 1) << level).min(self.num_blocks());
                    let row_end = (last_block * self.block_rows).min(self.rows);
                    out.push(CoveredSpan {
                        blocks: first_block..last_block,
                        rows: first_block * self.block_rows..row_end,
                        key,
                    });
                } else if level > 0 {
                    // Fully matching but group-varying: a finer node may
                    // still be group-constant.
                    self.descend_covered(compiled, group_cols, level - 1, idx * 2, out);
                    self.descend_covered(compiled, group_cols, level - 1, idx * 2 + 1, out);
                }
            }
            Verdict::Scan => {
                if level > 0 {
                    self.descend_covered(compiled, group_cols, level - 1, idx * 2, out);
                    self.descend_covered(compiled, group_cols, level - 1, idx * 2 + 1, out);
                }
            }
        }
    }

    /// Heap footprint in bytes (zone maps plus lanes).
    pub fn heap_bytes(&self) -> usize {
        let zones: usize = self
            .columns
            .iter()
            .map(|(n, z)| {
                n.capacity()
                    + z.mins.capacity() * 8
                    + z.maxs.capacity() * 8
                    + z.nulls.capacity() * 4
            })
            .sum();
        let lanes: usize = self
            .lanes
            .iter()
            .map(|(n, l)| n.capacity() + l.heap_bytes())
            .sum();
        zones + lanes
    }

    fn bounds(&self, column: &str, block: usize) -> Option<(i64, i64)> {
        let zone = self.column(column)?;
        Some((*zone.mins.get(block)?, *zone.maxs.get(block)?))
    }

    /// Integer-view bounds of lane node `idx` at `level`; level 0 falls
    /// back to the zone map (identical values, but present even for
    /// columns whose lanes are float-typed — there are none today, the
    /// two are built from the same views).
    fn bounds_at(&self, column: &str, level: usize, idx: usize) -> Option<(i64, i64)> {
        if level == 0 {
            return self.bounds(column, idx);
        }
        match self.lane(column)?.level(level)? {
            LaneValues::Int { mins, maxs, .. } => Some((*mins.get(idx)?, *maxs.get(idx)?)),
            LaneValues::Float { .. } => None,
        }
    }
}

/// Coarsening depth for a table of `blocks` zone-map blocks: enough
/// halvings for the coarsest level to be one node.
fn levels_for(blocks: usize) -> usize {
    if blocks == 0 {
        return 0;
    }
    let mut l = 1;
    while (1usize << (l - 1)) < blocks {
        l += 1;
    }
    l
}

/// One level-0 lane entry: the aggregates of one block of one column.
#[derive(Clone, Copy)]
enum LaneNode {
    Int { sum: i128, min: i64, max: i64 },
    Float { sum: f64, min: f64, max: f64 },
}

impl LaneValues {
    /// An empty lane of `col`'s arm with room for `nodes` entries.
    fn with_capacity(col: &StoredColumn, nodes: usize) -> Self {
        if matches!(col, StoredColumn::Float64(_)) {
            LaneValues::Float {
                sums: Vec::with_capacity(nodes),
                mins: Vec::with_capacity(nodes),
                maxs: Vec::with_capacity(nodes),
            }
        } else {
            LaneValues::Int {
                sums: Vec::with_capacity(nodes),
                mins: Vec::with_capacity(nodes),
                maxs: Vec::with_capacity(nodes),
            }
        }
    }

    fn is_float(&self) -> bool {
        matches!(self, LaneValues::Float { .. })
    }

    /// The first `keep` nodes, cloned into vectors with room for `nodes`.
    fn prefix(&self, keep: usize, nodes: usize) -> Self {
        fn cut<T: Copy>(v: &[T], keep: usize, nodes: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(nodes);
            out.extend_from_slice(&v[..keep]);
            out
        }
        match self {
            LaneValues::Int { sums, mins, maxs } => LaneValues::Int {
                sums: cut(sums, keep, nodes),
                mins: cut(mins, keep, nodes),
                maxs: cut(maxs, keep, nodes),
            },
            LaneValues::Float { sums, mins, maxs } => LaneValues::Float {
                sums: cut(sums, keep, nodes),
                mins: cut(mins, keep, nodes),
                maxs: cut(maxs, keep, nodes),
            },
        }
    }

    fn node(&self, idx: usize) -> LaneNode {
        match self {
            LaneValues::Int { sums, mins, maxs } => LaneNode::Int {
                sum: sums[idx],
                min: mins[idx],
                max: maxs[idx],
            },
            LaneValues::Float { sums, mins, maxs } => LaneNode::Float {
                sum: sums[idx],
                min: mins[idx],
                max: maxs[idx],
            },
        }
    }

    fn push(&mut self, node: LaneNode) {
        match (self, node) {
            (LaneValues::Int { sums, mins, maxs }, LaneNode::Int { sum, min, max }) => {
                sums.push(sum);
                mins.push(min);
                maxs.push(max);
            }
            (LaneValues::Float { sums, mins, maxs }, LaneNode::Float { sum, min, max }) => {
                sums.push(sum);
                mins.push(min);
                maxs.push(max);
            }
            _ => unreachable!("lane arm follows the column type"),
        }
    }
}

/// Fold rows `range` of `col` into one lane entry, in row order through
/// the typed view, continuing from `init` (the entry of the rows before
/// `range` in the same block) when there is one. Integer sums are exact
/// in `i128`; a float sum continued this way performs exactly the
/// additions a pass from the block's first row would.
fn fold_rows(col: &StoredColumn, range: Range<usize>, init: Option<LaneNode>) -> LaneNode {
    fn ints<T: Copy + Into<i64>>(
        rows: Rows<'_, T>,
        range: Range<usize>,
        init: Option<LaneNode>,
    ) -> LaneNode {
        let (mut sum, mut min, mut max) = match init {
            Some(LaneNode::Int { sum, min, max }) => (sum, min, max),
            _ => (0i128, i64::MAX, i64::MIN),
        };
        for run in rows.runs(range) {
            for &v in run {
                let v: i64 = v.into();
                sum += v as i128;
                min = min.min(v);
                max = max.max(v);
            }
        }
        LaneNode::Int { sum, min, max }
    }
    match col {
        StoredColumn::Int32(p) => ints(p.rows(), range, init),
        StoredColumn::Int64(p) => ints(p.rows(), range, init),
        StoredColumn::Dict { codes, .. } => ints(codes.rows(), range, init),
        StoredColumn::Float64(p) => {
            let (mut sum, mut min, mut max) = match init {
                Some(LaneNode::Float { sum, min, max }) => (sum, min, max),
                _ => (0.0f64, f64::INFINITY, f64::NEG_INFINITY),
            };
            for run in p.rows().runs(range) {
                for &v in run {
                    sum += v;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            LaneNode::Float { sum, min, max }
        }
    }
}

/// Fold one lane level into the next coarser one by pairwise halving.
fn fold_once(prev: &LaneValues) -> LaneValues {
    match prev {
        LaneValues::Int { sums, mins, maxs } => {
            let n = sums.len().div_ceil(2);
            let mut s2 = Vec::with_capacity(n);
            let mut mn2 = Vec::with_capacity(n);
            let mut mx2 = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = (2 * i, 2 * i + 1);
                if b < sums.len() {
                    s2.push(sums[a] + sums[b]);
                    mn2.push(mins[a].min(mins[b]));
                    mx2.push(maxs[a].max(maxs[b]));
                } else {
                    s2.push(sums[a]);
                    mn2.push(mins[a]);
                    mx2.push(maxs[a]);
                }
            }
            LaneValues::Int {
                sums: s2,
                mins: mn2,
                maxs: mx2,
            }
        }
        LaneValues::Float { sums, mins, maxs } => {
            let n = sums.len().div_ceil(2);
            let mut s2 = Vec::with_capacity(n);
            let mut mn2 = Vec::with_capacity(n);
            let mut mx2 = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = (2 * i, 2 * i + 1);
                if b < sums.len() {
                    s2.push(sums[a] + sums[b]);
                    mn2.push(mins[a].min(mins[b]));
                    mx2.push(maxs[a].max(maxs[b]));
                } else {
                    s2.push(sums[a]);
                    mn2.push(mins[a]);
                    mx2.push(maxs[a]);
                }
            }
            LaneValues::Float {
                sums: s2,
                mins: mn2,
                maxs: mx2,
            }
        }
    }
}

/// Fold a level-0 lane up into the full hierarchy of `levels` levels.
/// Re-folding costs O(total blocks), independent of the row count, so
/// append-time maintenance never rescans existing rows.
fn coarsen(base: LaneValues, levels: usize) -> ColumnLanes {
    let mut lane_levels = Vec::with_capacity(levels);
    if levels == 0 {
        return ColumnLanes {
            levels: lane_levels,
        };
    }
    lane_levels.push(base);
    for _ in 1..levels {
        let next = fold_once(lane_levels.last().expect("level 0 pushed above"));
        lane_levels.push(next);
    }
    ColumnLanes {
        levels: lane_levels,
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
        assert_eq!(key.nulls[3], 0);
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

    #[test]
    fn lane_sums_are_exact_at_every_level() {
        let (_, syn) = synopsis();
        let lanes = syn.lane("key").unwrap();
        // 10 blocks ⇒ levels 0..=4 (coarsest level is one node).
        assert_eq!(syn.lane_levels(), 5);
        assert_eq!(lanes.num_levels(), 5);
        // Level 0, block 3: sum of 30..=39.
        let LaneValues::Int { sums, mins, maxs } = lanes.level(0).unwrap() else {
            panic!("int column must build int lanes");
        };
        assert_eq!(sums[3], (30..40).sum::<i128>());
        assert_eq!((mins[3], maxs[3]), (30, 39));
        // Coarsest level: one node summing the whole column.
        let LaneValues::Int { sums, .. } = lanes.level(4).unwrap() else {
            panic!("int lanes at every level");
        };
        assert_eq!(sums, &vec![(0..100).sum::<i128>()]);
        // Float columns get float lanes.
        let LaneValues::Float { sums, .. } = syn.lane("f").unwrap().level(0).unwrap() else {
            panic!("float column must build float lanes");
        };
        assert!((sums[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn lane_sum_walks_aligned_nodes() {
        let (_, syn) = synopsis();
        // Misaligned span 1..8 (blocks 1,2,3 then 4..8): exact sum of
        // rows 10..80.
        let agg = syn.lane_sum("key", 1..8).unwrap();
        assert_eq!(agg.sum, (10..80).sum::<i64>() as f64);
        assert_eq!((agg.min, agg.max), (10.0, 79.0));
        // Degenerate ranges.
        assert!(syn.lane_sum("key", 3..3).is_none());
        assert!(syn.lane_sum("missing", 0..2).is_none());
        // Range clamped past the table end still sums what exists.
        let all = syn.lane_sum("key", 0..64).unwrap();
        assert_eq!(all.sum, (0..100).sum::<i64>() as f64);
    }

    #[test]
    fn covered_spans_require_predicate_and_group_constancy() {
        let (table, syn) = synopsis();
        // Predicate fully covers rows 0..50 where `half` is constant 1.
        let p = Predicate::between("key", 0, 49);
        let c = p.compile(&table).unwrap();
        let spans = syn.covered_spans(&c, &["half"]);
        let rows: usize = spans.iter().map(|s| s.rows.len()).sum();
        assert_eq!(rows, 50, "all 5 matching blocks are group-constant");
        for s in &spans {
            assert_eq!(s.key, vec![1]);
        }
        // Hierarchical coalescing: blocks 0..4 must arrive as one
        // level-2 span, not five level-0 spans.
        assert!(
            spans.iter().any(|s| s.blocks.len() >= 4),
            "coarse TakeAll nodes must be emitted whole, got {spans:?}"
        );

        // A group column varying inside every block yields no spans.
        let spans = syn.covered_spans(&c, &["key"]);
        assert!(spans.is_empty());

        // No group columns: every fully-matching block is covered.
        let spans = syn.covered_spans(&c, &[]);
        assert_eq!(spans.iter().map(|s| s.rows.len()).sum::<usize>(), 50);

        // Boundary-straddling predicate: the straddled block is NOT
        // covered (it needs a real scan), interior blocks are.
        let p = Predicate::between("key", 5, 49);
        let c = p.compile(&table).unwrap();
        let spans = syn.covered_spans(&c, &["half"]);
        let rows: usize = spans.iter().map(|s| s.rows.len()).sum();
        assert_eq!(rows, 40, "block 0 straddles the predicate boundary");
        assert!(spans.iter().all(|s| s.blocks.start >= 1));
    }

    fn prefix_columns(cols: &[(String, StoredColumn)], rows: usize) -> Vec<(String, StoredColumn)> {
        cols.iter()
            .map(|(n, c)| (n.clone(), c.take(0..rows).into()))
            .collect()
    }

    fn wide_columns() -> Vec<(String, Column)> {
        vec![
            ("key".into(), Column::Int64((0..200).collect())),
            (
                "half".into(),
                Column::Int32((0..200).map(|i| if i < 50 { 1 } else { 2 }).collect()),
            ),
            (
                "tag".into(),
                dict_column((0..200).map(|i| if i < 50 { "lo" } else { "hi" })),
            ),
            (
                "f".into(),
                Column::Float64((0..200).map(|i| i as f64 * 0.5).collect()),
            ),
        ]
    }

    #[test]
    fn extend_matches_from_scratch_at_every_level() {
        let full = stored(wide_columns());
        // 95 rows: block 9 is open and its entry is continued on extend;
        // 90 rows: block-aligned, no old entry is touched. Both must
        // match a from-scratch build over the final 200 rows exactly.
        for prefix_rows in [95usize, 90] {
            let old = TableSynopsis::build(&prefix_columns(&full, prefix_rows), 10);
            let extended = old.extend(&full);
            let fresh = TableSynopsis::build(&full, 10);
            assert_eq!(extended.num_blocks(), fresh.num_blocks());
            assert_eq!(extended.lane_levels(), fresh.lane_levels());
            assert!(
                extended.lane_levels() > old.lane_levels(),
                "crossing a power of two in blocks must add a level"
            );
            for name in ["key", "half", "tag"] {
                let (a, b) = (extended.column(name).unwrap(), fresh.column(name).unwrap());
                assert_eq!(a.mins, b.mins, "{name} mins");
                assert_eq!(a.maxs, b.maxs, "{name} maxs");
            }
            assert!(extended.column("f").is_none(), "floats stay zone-map-free");
            for name in ["key", "half", "tag", "f"] {
                let (la, lb) = (extended.lane(name).unwrap(), fresh.lane(name).unwrap());
                assert_eq!(la.num_levels(), lb.num_levels(), "{name} levels");
                for level in 0..lb.num_levels() {
                    assert_eq!(
                        la.level(level).unwrap().len(),
                        lb.level(level).unwrap().len(),
                        "{name} level {level} width"
                    );
                }
                for range in [0..1, 0..20, 3..17, 9..10, 0..fresh.num_blocks()] {
                    assert_eq!(
                        extended.lane_sum(name, range.clone()),
                        fresh.lane_sum(name, range.clone()),
                        "{name} lane_sum over {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_from_empty_equals_fresh_build() {
        let empty = stored(vec![("a".into(), Column::Int64(vec![]))]);
        let old = TableSynopsis::build(&empty, 10);
        assert_eq!(old.lane_levels(), 0);
        let full = stored(vec![("a".into(), Column::Int64((0..25).collect()))]);
        let ext = old.extend(&full);
        let fresh = TableSynopsis::build(&full, 10);
        assert_eq!(ext.num_blocks(), 3);
        assert_eq!(ext.lane_levels(), fresh.lane_levels());
        assert_eq!(ext.lane_sum("a", 0..3), fresh.lane_sum("a", 0..3));
        let (a, b) = (ext.column("a").unwrap(), fresh.column("a").unwrap());
        assert_eq!(
            (a.mins.clone(), a.maxs.clone()),
            (b.mins.clone(), b.maxs.clone())
        );
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
