//! Filtering scans producing selection vectors or chunk masks.
//!
//! Predicate pushdown below samplers is the engine-level mechanism behind
//! the paper's selectivity-driven savings (Figures 6 and 8): a filtered
//! scan reduces both the tuples reaching a sampler and, when the filter is
//! on a stratification column, the number of strata touched.
//!
//! Since the vectorized-kernel rework, all production scans go through
//! [`PreparedScan`]: the predicate is compiled and flattened into a
//! [`BatchKernel`] **once** per (query, table) pair, then every morsel
//! walks its zone-map blocks emitting [`ScanEvent`]s — whole `TakeAll`
//! ranges, or 1024-row chunk bitmasks for `Scan`-verdict blocks. Callers
//! that genuinely need row ids (reservoir insertion, joins) decode masks
//! to selection vectors; fused aggregation consumes the masks directly.

use std::ops::Range;

use crate::error::Result;
use crate::expr::{Compiled, Predicate};
use crate::kernel::{count_mask, decode_mask, BatchKernel, Mask, CHUNK_ROWS, MASK_WORDS};
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
/// reusable across every morsel and residual fragment of a query. Fixes
/// the historical cost of re-compiling the predicate once per call.
pub struct PreparedScan<'a> {
    table: &'a Table,
    compiled: Compiled<'a>,
    kernel: BatchKernel<'a>,
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
        })
    }

    /// The compiled predicate (for verdict probes and reference paths).
    pub fn compiled(&self) -> &Compiled<'a> {
        &self.compiled
    }

    /// Walk `range` consulting zone maps, emitting a [`ScanEvent`] for
    /// every piece that may hold matches. `counts` records one verdict
    /// per zone-map block exactly as the historical row-at-a-time scans
    /// did (chunking within a `Scan` block does not multiply counts).
    pub fn walk(
        &self,
        range: Range<usize>,
        counts: &mut PruneCounts,
        visit: impl FnMut(ScanEvent<'_>),
    ) {
        let mut lane_rows = 0;
        self.walk_masked(range, counts, &[], &mut lane_rows, visit);
    }

    /// [`PreparedScan::walk`] with a per-block lane-coverage mask: blocks
    /// whose `covered` bit is set are excluded from the walk (their
    /// aggregate contribution comes exactly from pre-aggregate lanes) and
    /// their row counts accumulate into `lane_rows`. A mask shorter than
    /// the block count treats missing entries as uncovered.
    pub fn walk_masked(
        &self,
        range: Range<usize>,
        counts: &mut PruneCounts,
        covered: &[bool],
        lane_rows: &mut u64,
        mut visit: impl FnMut(ScanEvent<'_>),
    ) {
        let Some(syn) = self.table.synopsis() else {
            counts.scanned += 1;
            self.chunks(range, &mut visit);
            return;
        };
        for (block, sub) in syn.blocks_of(range) {
            if covered.get(block).copied().unwrap_or(false) {
                *lane_rows += sub.len() as u64;
                continue;
            }
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

    /// Exact lower bound on the selection size, from zone-map verdicts
    /// alone: `TakeAll` block sizes are known without reading a row, so
    /// the output `Vec` never reallocates while appending them.
    fn reserve_hint(&self, range: Range<usize>, covered: &[bool]) -> usize {
        let Some(syn) = self.table.synopsis() else {
            return 0;
        };
        let mut hint = 0;
        for (block, sub) in syn.blocks_of(range) {
            if covered.get(block).copied().unwrap_or(false) {
                continue;
            }
            if syn.verdict(&self.compiled, block) == Verdict::TakeAll {
                hint += sub.len();
            }
        }
        hint
    }

    /// Pruned scan decoding to a selection vector (for consumers that
    /// need row ids). The result is always identical to the row-at-a-time
    /// reference scan's (verdicts are conservative; kernels are
    /// proptested equivalent to [`Compiled::matches`]).
    pub fn scan_pruned(&self, range: Range<usize>, counts: &mut PruneCounts) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.reserve_hint(range.clone(), &[]));
        self.walk(range, counts, |ev| match ev {
            ScanEvent::TakeAll(rows) => out.extend(rows.map(|r| r as u32)),
            ScanEvent::Chunk(rows, mask) => decode_mask(mask, rows.start, &mut out),
        });
        out
    }

    /// [`PreparedScan::scan_pruned`] with lane-coverage exclusion (see
    /// [`PreparedScan::walk_masked`]).
    pub fn scan_pruned_masked(
        &self,
        range: Range<usize>,
        counts: &mut PruneCounts,
        covered: &[bool],
        lane_rows: &mut u64,
    ) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.reserve_hint(range.clone(), covered));
        self.walk_masked(range, counts, covered, lane_rows, |ev| match ev {
            ScanEvent::TakeAll(rows) => out.extend(rows.map(|r| r as u32)),
            ScanEvent::Chunk(rows, mask) => decode_mask(mask, rows.start, &mut out),
        });
        out
    }

    /// Count matching rows without materializing a selection vector:
    /// `TakeAll` ranges contribute their length, chunks a popcount.
    pub fn count_pruned(&self, range: Range<usize>, counts: &mut PruneCounts) -> u64 {
        let mut n = 0u64;
        self.walk(range, counts, |ev| match ev {
            ScanEvent::TakeAll(rows) => n += rows.len() as u64,
            ScanEvent::Chunk(_, mask) => n += count_mask(mask),
        });
        n
    }

    /// Unpruned chunked scan over `range` (never consults zone maps).
    pub fn scan_all(&self, range: Range<usize>) -> Vec<u32> {
        let mut out = Vec::new();
        self.chunks(range, &mut |ev| match ev {
            ScanEvent::TakeAll(rows) => out.extend(rows.map(|r| r as u32)),
            ScanEvent::Chunk(rows, mask) => decode_mask(mask, rows.start, &mut out),
        });
        out
    }
}

/// Evaluate `predicate` over `range` of `table`, returning the matching row
/// ids via the batch kernels.
///
/// This is the *unpruned* scan: it never consults the table's zone maps.
/// Production scan paths hold a [`PreparedScan`], which compiles the
/// predicate once and consults the zone maps ([`PreparedScan::scan_pruned`]).
pub fn scan_filter(table: &Table, range: Range<usize>, predicate: &Predicate) -> Result<Vec<u32>> {
    Ok(PreparedScan::new(table, predicate)?.scan_all(range))
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

    #[test]
    fn between_fast_path_i64() {
        let t = table();
        let sel = scan_filter(&t, 0..100, &Predicate::between("x", 10, 14)).unwrap();
        assert_eq!(sel, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn between_fast_path_i32_respects_range_offset() {
        let t = table();
        let sel = scan_filter(&t, 50..100, &Predicate::between("y", 0, 1)).unwrap();
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
        let sel = scan_filter(&t, 0..100, &p).unwrap();
        assert_eq!(sel.len(), 25);
        assert!(sel.iter().all(|&r| r % 2 == 0 && r < 50));
    }

    #[test]
    fn true_and_false_predicates() {
        let t = table();
        assert_eq!(
            scan_filter(&t, 0..100, &Predicate::True).unwrap().len(),
            100
        );
        assert!(scan_filter(&t, 0..100, &Predicate::False)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn kernel_scan_agrees_with_reference() {
        let t = table();
        let p = Predicate::between("x", 23, 71);
        let fast = scan_filter(&t, 0..100, &p).unwrap();
        let slow = {
            let c = p.compile(&t).unwrap();
            reference::eval_rows(&c, 0..100)
        };
        assert_eq!(fast, slow);
    }

    #[test]
    fn empty_range_yields_empty_selection() {
        let t = table();
        let sel = scan_filter(&t, 40..40, &Predicate::True).unwrap();
        assert!(sel.is_empty());
    }

    #[test]
    fn count_pruned_matches_selection_length() {
        let t = blocked_table();
        let p = Predicate::between("x", 25, 44);
        let scan = PreparedScan::new(&t, &p).unwrap();
        let mut c1 = PruneCounts::default();
        let mut c2 = PruneCounts::default();
        assert_eq!(
            scan.count_pruned(0..100, &mut c1),
            scan.scan_pruned(0..100, &mut c2).len() as u64
        );
        assert_eq!(c1, c2);
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
        assert_eq!(pruned, scan_filter(&t, 0..100, &p).unwrap());
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
            assert_eq!(pruned, scan_filter(&t, lo..hi, &p).unwrap(), "{lo}..{hi}");
        }
    }

    #[test]
    fn masked_scan_excludes_covered_blocks_and_counts_rows() {
        let t = blocked_table();
        let p = Predicate::between("x", 10, 59);
        // Blocks 1..6 fully match; mark 2 and 3 as lane-covered.
        let mut covered = vec![false; 10];
        covered[2] = true;
        covered[3] = true;
        let mut counts = PruneCounts::default();
        let mut lane_rows = 0u64;
        let scan = PreparedScan::new(&t, &p).unwrap();
        let sel = scan.scan_pruned_masked(0..100, &mut counts, &covered, &mut lane_rows);
        assert_eq!(lane_rows, 20);
        let expected: Vec<u32> = (10..60).filter(|r| !(20..40).contains(r)).collect();
        assert_eq!(sel, expected);
        // Covered blocks are neither scanned nor fast-pathed.
        assert_eq!(counts.fast_pathed, 3);

        // An all-false (or short) mask degenerates to the plain pruned scan.
        let mut counts2 = PruneCounts::default();
        let mut lane_rows2 = 0u64;
        let plain = scan.scan_pruned_masked(0..100, &mut counts2, &[], &mut lane_rows2);
        let mut counts3 = PruneCounts::default();
        assert_eq!(plain, scan.scan_pruned(0..100, &mut counts3));
        assert_eq!(lane_rows2, 0);
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
