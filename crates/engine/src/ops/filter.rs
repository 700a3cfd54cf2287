//! The scan: one zone-map walk every consumer of a filtered table reads.
//!
//! Predicate pushdown below samplers is the engine-level mechanism behind
//! the paper's selectivity-driven savings (Figures 6 and 8): a filtered
//! scan reduces both the tuples reaching a sampler and, when the filter is
//! on a stratification column, the number of strata touched.
//!
//! A [`PreparedScan`] compiles the predicate and flattens it into a
//! [`BatchKernel`] **once** per (query, table) pair; [`PreparedScan::walk`]
//! then walks a morsel's zone-map blocks emitting [`ScanEvent`]s — whole
//! `TakeAll` ranges, or 1024-row chunk bitmasks for `Scan`-verdict blocks.
//! The consumers differ only in what they do with an event: the Δ-sampler
//! and the star join decode it to row ids ([`PreparedScan::scan_pruned`]),
//! the exact group-by folds masks and ranges straight into its groups, and
//! the scan floor — a keyless `COUNT(*)` through the same group-by — adds
//! up popcounts: the paper's baselines pay the scan the sampler pays unless
//! it reads the range index ([`PreparedScan::with_range_index`]) instead.

use std::ops::Range;

use crate::error::Result;
use crate::expr::{Compiled, Predicate};
use crate::index::{JoinedIndex, Marks};
use crate::kernel::{decode_mask, BatchKernel, Mask, CHUNK_ROWS, MASK_WORDS};
use crate::synopsis::{PruneCounts, Verdict};
use crate::table::Table;

/// What a prepared scan found in one piece of the walked range.
pub enum ScanEvent<'m> {
    /// Every row in the range matches (zone-map `TakeAll` verdict); no
    /// mask was materialized.
    TakeAll(Range<usize>),
    /// A `Scan`-verdict chunk of at most [`CHUNK_ROWS`] rows: bit `i` of
    /// the mask corresponds to row `rows.start + i`; bits at and beyond
    /// `rows.len()` are clear.
    Chunk(Range<usize>, &'m Mask),
}

/// A predicate compiled and flattened into batch kernels for one table,
/// reusable across every morsel and residual fragment of a query.
pub struct PreparedScan<'a> {
    table: &'a Table,
    compiled: Compiled<'a>,
    kernel: BatchKernel<'a>,
    floor: usize,
    marks: Option<Marks<'a>>,
}

impl<'a> PreparedScan<'a> {
    /// Compile `predicate` against `table` and flatten it into kernels.
    /// This is the only fallible step; the scans themselves cannot fail.
    pub fn new(table: &'a Table, predicate: &'a Predicate) -> Result<Self> {
        let compiled = predicate.compile(table)?;
        let kernel = BatchKernel::compile(&compiled);
        Ok(Self {
            table,
            compiled,
            kernel,
            floor: 0,
            marks: None,
        })
    }

    /// Read only rows at or past `row_floor`, and those `column`'s range
    /// index covers from it if `prefer(candidates, rows)` (normally
    /// [`crate::index::prefer_index`]); `rows` counts the indexed rows in
    /// `Scan`-verdict blocks, as skipped and taken-whole ones cost the walk
    /// next to nothing. The predicate must be `residual ∧ column ∈
    /// intervals`. Above a star join, `joined` leaves out of the index the
    /// rows its filter drops: a morsel's indexed rows are then the walk's
    /// that the filter retains, and its walked rows the walk's.
    pub fn with_range_index(
        mut self,
        column: &str,
        intervals: &[(i64, i64)],
        residual: &'a Predicate,
        joined: Option<&JoinedIndex>,
        row_floor: usize,
        prefer: impl FnOnce(usize, usize) -> bool,
    ) -> Result<Self> {
        let col = self.table.column(column)?;
        let residual = residual.compile(self.table)?;
        let scanned = |rows: Range<usize>| match self.table.synopsis() {
            Some(syn) => syn
                .blocks_of(rows)
                .filter(|&(block, _)| syn.verdict(&self.compiled, block) == Verdict::Scan)
                .map(|(_, rows)| rows.len())
                .sum(),
            None => rows.len(),
        };
        let price = |candidates, rows| prefer(candidates, scanned(rows));
        let marks = Marks::new(col, column, intervals, row_floor, residual, joined, price);
        (self.floor, self.marks) = (row_floor, marks);
        Ok(self)
    }

    /// Walk `range` consulting zone maps, emitting a [`ScanEvent`] for
    /// every piece that may hold matches. `counts` records one verdict
    /// per zone-map block (chunking within a `Scan` block does not
    /// multiply counts); a table without zone maps counts one `Scan`.
    pub fn walk(
        &self,
        range: Range<usize>,
        counts: &mut PruneCounts,
        mut visit: impl FnMut(ScanEvent<'_>),
    ) {
        let Some(syn) = self.table.synopsis() else {
            counts.scanned += 1;
            self.chunks(range, &mut visit);
            return;
        };
        for (block, sub) in syn.blocks_of(range) {
            match syn.verdict(&self.compiled, block) {
                Verdict::Skip => counts.skipped += 1,
                Verdict::TakeAll => {
                    counts.fast_pathed += 1;
                    visit(ScanEvent::TakeAll(sub));
                }
                Verdict::Scan => {
                    counts.scanned += 1;
                    self.chunks(sub, &mut visit);
                }
            }
        }
    }

    /// Evaluate the kernel over `range` in [`CHUNK_ROWS`]-row chunks,
    /// reusing one stack-allocated mask.
    fn chunks(&self, range: Range<usize>, visit: &mut impl FnMut(ScanEvent<'_>)) {
        let mut mask = [0u64; MASK_WORDS];
        let mut at = range.start;
        while at < range.end {
            let end = (at + CHUNK_ROWS).min(range.end);
            self.kernel.eval_chunk(at, end - at, &mut mask);
            visit(ScanEvent::Chunk(at..end, &mask));
            at = end;
        }
    }

    /// The walk decoded to a selection vector, for consumers that need
    /// row ids. Always identical to the row-at-a-time reference scan's
    /// (verdicts are conservative; kernels are proptested equivalent to
    /// [`Compiled::matches`]) — and to the range index's marks decoded, one
    /// `indexed` count per zone-map block they cover.
    pub fn scan_pruned(&self, range: Range<usize>, counts: &mut PruneCounts) -> Vec<u32> {
        let mut out = Vec::new();
        let mut range = range.start.max(self.floor)..range.end;
        if let Some(marks) = &self.marks {
            let split = range.end.min(marks.rows).max(range.start);
            if let Some(syn) = self.table.synopsis() {
                counts.indexed += syn.blocks_of(range.start..split).count() as u64;
            }
            marks.decode(range.start..split, &mut out);
            range.start = split;
        }
        if !range.is_empty() {
            self.walk(range, counts, |ev| decode(ev, &mut out));
        }
        out
    }

    /// [`PreparedScan::scan_pruned`] leaving out the zone-map blocks whose
    /// `excluded` bit is set; their rows accumulate into `excluded_rows`
    /// and they count no verdict. A mask shorter than the block count
    /// treats missing entries as clear, so `&[]` is the plain pruned scan.
    /// Kept for `benchmark/src/probes.rs`, which times it with `&[]`.
    pub fn scan_pruned_masked(
        &self,
        range: Range<usize>,
        counts: &mut PruneCounts,
        excluded: &[bool],
        excluded_rows: &mut u64,
    ) -> Vec<u32> {
        let Some(syn) = self.table.synopsis().filter(|_| !excluded.is_empty()) else {
            return self.scan_pruned(range, counts);
        };
        let mut out = Vec::new();
        for (block, sub) in syn.blocks_of(range) {
            if excluded.get(block).copied().unwrap_or(false) {
                *excluded_rows += sub.len() as u64;
            } else {
                self.walk(sub, counts, |ev| decode(ev, &mut out));
            }
        }
        out
    }
}

/// Append the row ids one walk event selects to `out`.
fn decode(ev: ScanEvent<'_>, out: &mut Vec<u32>) {
    match ev {
        ScanEvent::TakeAll(rows) => out.extend(rows.map(|r| r as u32)),
        ScanEvent::Chunk(rows, mask) => decode_mask(mask, rows.start, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::dict_column;
    use crate::column::Column;
    use crate::ops::reference;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("x".into(), Column::Int64((0..100).collect())),
                (
                    "y".into(),
                    Column::Int32((0..100).map(|i| i % 10).collect()),
                ),
                (
                    "tag".into(),
                    dict_column((0..100).map(|i| if i % 2 == 0 { "even" } else { "odd" })),
                ),
            ],
        )
        .unwrap()
    }

    /// The pruned walk decoded to row ids.
    fn scan(t: &Table, range: Range<usize>, p: &Predicate) -> Vec<u32> {
        PreparedScan::new(t, p)
            .unwrap()
            .scan_pruned(range, &mut PruneCounts::default())
    }

    /// The row-at-a-time oracle.
    fn reference_rows(t: &Table, range: Range<usize>, p: &Predicate) -> Vec<u32> {
        reference::eval_rows(&p.compile(t).unwrap(), range)
    }

    #[test]
    fn between_fast_path_i64() {
        let t = table();
        let sel = scan(&t, 0..100, &Predicate::between("x", 10, 14));
        assert_eq!(sel, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn between_fast_path_i32_respects_range_offset() {
        let t = table();
        let sel = scan(&t, 50..100, &Predicate::between("y", 0, 1));
        // In rows 50..100, y == 0 or 1 at rows 50, 51, 60, 61, ...
        assert!(sel.iter().all(|&r| (50..100).contains(&(r as usize))));
        assert_eq!(sel.len(), 10);
        assert_eq!(sel[0], 50);
        assert_eq!(sel[1], 51);
    }

    #[test]
    fn conjunction_refines() {
        let t = table();
        let p = Predicate::between("x", 0, 49).and(Predicate::eq_str("tag", "even"));
        let sel = scan(&t, 0..100, &p);
        assert_eq!(sel.len(), 25);
        assert!(sel.iter().all(|&r| r % 2 == 0 && r < 50));
    }

    #[test]
    fn true_and_false_predicates() {
        let t = table();
        assert_eq!(scan(&t, 0..100, &Predicate::True).len(), 100);
        assert!(scan(&t, 0..100, &Predicate::False).is_empty());
    }

    #[test]
    fn kernel_scan_agrees_with_reference() {
        let t = table();
        let p = Predicate::between("x", 23, 71);
        assert_eq!(scan(&t, 0..100, &p), reference_rows(&t, 0..100, &p));
    }

    #[test]
    fn empty_range_yields_empty_selection() {
        let t = table();
        let sel = scan(&t, 40..40, &Predicate::True);
        assert!(sel.is_empty());
    }

    /// A table whose zone maps use a small block size, so pruning is
    /// exercised without 64k-row fixtures.
    fn blocked_table() -> Table {
        Table::with_zone_map_rows(
            "t",
            vec![
                ("x".into(), Column::Int64((0..100).collect())),
                (
                    "tag".into(),
                    dict_column((0..100).map(|i| if i < 50 { "lo" } else { "hi" })),
                ),
            ],
            10,
        )
        .unwrap()
    }

    #[test]
    fn pruned_scan_matches_reference_and_counts_blocks() {
        let t = blocked_table();
        let p = Predicate::between("x", 25, 44);
        let mut counts = PruneCounts::default();
        let pruned = PreparedScan::new(&t, &p)
            .unwrap()
            .scan_pruned(0..100, &mut counts);
        assert_eq!(pruned, reference_rows(&t, 0..100, &p));
        // Blocks [0,1,5..9] skip, block 3 fast-paths, blocks 2 and 4 scan.
        assert_eq!(counts.skipped, 7);
        assert_eq!(counts.fast_pathed, 1);
        assert_eq!(counts.scanned, 2);
    }

    #[test]
    fn pruned_scan_handles_misaligned_ranges() {
        let t = blocked_table();
        let p = Predicate::between("x", 25, 44).and(Predicate::eq_str("tag", "lo"));
        for (lo, hi) in [(0, 100), (7, 93), (23, 31), (44, 45), (60, 60)] {
            let mut counts = PruneCounts::default();
            let pruned = PreparedScan::new(&t, &p)
                .unwrap()
                .scan_pruned(lo..hi, &mut counts);
            assert_eq!(pruned, reference_rows(&t, lo..hi, &p), "{lo}..{hi}");
        }
    }

    #[test]
    fn masked_scan_excludes_covered_blocks_and_counts_rows() {
        let t = blocked_table();
        let p = Predicate::between("x", 10, 59);
        // Blocks 1..6 fully match; exclude 2 and 3.
        let mut covered = vec![false; 10];
        covered[2] = true;
        covered[3] = true;
        let mut counts = PruneCounts::default();
        let mut excluded_rows = 0u64;
        let scan = PreparedScan::new(&t, &p).unwrap();
        let sel = scan.scan_pruned_masked(0..100, &mut counts, &covered, &mut excluded_rows);
        assert_eq!(excluded_rows, 20);
        let expected: Vec<u32> = (10..60).filter(|r| !(20..40).contains(r)).collect();
        assert_eq!(sel, expected);
        // Excluded blocks are neither scanned nor fast-pathed.
        assert_eq!(counts.fast_pathed, 3);
        assert_eq!(counts.total(), 8);

        // An empty (or short) mask degenerates to the plain pruned scan.
        let mut counts2 = PruneCounts::default();
        let mut excluded_rows2 = 0u64;
        let plain = scan.scan_pruned_masked(0..100, &mut counts2, &[], &mut excluded_rows2);
        let mut counts3 = PruneCounts::default();
        assert_eq!(plain, scan.scan_pruned(0..100, &mut counts3));
        assert_eq!((counts2, excluded_rows2), (counts3, 0));
    }

    #[test]
    fn true_predicate_fast_paths_every_block() {
        let t = blocked_table();
        let mut counts = PruneCounts::default();
        let sel = PreparedScan::new(&t, &Predicate::True)
            .unwrap()
            .scan_pruned(0..100, &mut counts);
        assert_eq!(sel.len(), 100);
        assert_eq!(counts.fast_pathed, 10);
        assert_eq!(counts.scanned, 0);
    }
}
