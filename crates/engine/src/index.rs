//! Range indexes, the Δ-sampler's second row source (DESIGN.md, "Index or
//! scan"): per sealed piece of an integer-view column, its row ids sorted by
//! value, built on a sampler's first use into the `OnceLock` the piece
//! carries, so table versions that share the piece share its index.

use std::ops::Range;

use crate::column::{Pieces, StoredColumn};
use crate::expr::Compiled;
use crate::kernel::for_each_masked;

/// Measured costs, in tenths of a ns, of an index candidate and of a row
/// of a `Scan`-verdict block: the Δ cost curve (EXPERIMENTS.md, "Δ cost
/// against uncovered fraction"; SF 0.1, shuffled `lo_intkey`, one thread,
/// 2-core x86, five runs) fits 2.5–3.1 ns a candidate plus 0.08–0.15 ns an
/// indexed row, and 0.85–0.92 ns a walked row at 1 % selected, more as more
/// are (1.1–1.2 at 25 %, 1.4–2.1 at 50 %): the cut-off errs to the scan.
const INDEX_COST_PER_CANDIDATE: usize = 30;
const SCAN_COST_PER_ROW: usize = 10;

/// Whether reading `candidates` from the index costs less than walking
/// `rows` rows: on a shuffled key, below a third of the rows.
pub fn prefer_index(candidates: usize, rows: usize) -> bool {
    candidates.saturating_mul(INDEX_COST_PER_CANDIDATE) < rows.saturating_mul(SCAN_COST_PER_ROW)
}

/// Row ids ordered by (value, id): an LSD radix sort on `value − min` when
/// the span fits in 32 bits (two passes for `lo_intkey`), else `sort_unstable`.
fn sort_by_value<T: Copy + Into<i64>>(values: &[T]) -> Box<[u32]> {
    const RADIX_BITS: u32 = 11; // per pass
    let key = |id: u32| -> i64 { values[id as usize].into() };
    let mut ids: Vec<u32> = (0..values.len() as u32).collect();
    let min = values.iter().map(|&v| v.into()).min().unwrap_or(0);
    let span = values.iter().map(|&v| v.into().abs_diff(min)).max();
    let Ok(span) = u32::try_from(span.unwrap_or(0)) else {
        ids.sort_unstable_by_key(|&id| (key(id), id));
        return ids.into_boxed_slice();
    };
    let mut spare = vec![0u32; ids.len()];
    for shift in (0..u32::BITS - span.leading_zeros()).step_by(RADIX_BITS as usize) {
        let digit = |id: u32| (key(id).abs_diff(min) >> shift) as usize % (1 << RADIX_BITS);
        let mut at = [0usize; 1 << RADIX_BITS];
        ids.iter().for_each(|&id| at[digit(id)] += 1);
        let mut sum = 0;
        for slot in &mut at {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &id in &ids {
            let d = digit(id);
            spare[at[d]] = id;
            at[d] += 1;
        }
        std::mem::swap(&mut ids, &mut spare);
    }
    ids.into_boxed_slice()
}

/// One Δ's rows marked in a bitmap over the indexed prefix `0..rows` of
/// the table, and the rest of the predicate, which a marked row must `keep`.
pub(crate) struct Marks<'a> {
    bits: Vec<u64>,
    pub(crate) rows: usize,
    keep: Compiled<'a>,
}

impl<'a> Marks<'a> {
    /// Mark the rows whose `col` value lies in the disjoint, inclusive
    /// `intervals`, in the sealed pieces reaching past `row_floor`; `None` if
    /// `col` has no integer view or `prefer(candidates, rows)` picks the scan
    /// for `rows`, the indexed rows past the floor. Rows below it go unread.
    pub(crate) fn new(
        col: &StoredColumn,
        intervals: &[(i64, i64)],
        row_floor: usize,
        keep: Compiled<'a>,
        prefer: impl FnOnce(usize, Range<usize>) -> bool,
    ) -> Option<Self> {
        let (bits, rows) = match col {
            StoredColumn::Int32(p) => mark(p, intervals, row_floor, prefer),
            StoredColumn::Int64(p) => mark(p, intervals, row_floor, prefer),
            StoredColumn::Dict { codes, .. } => mark(codes, intervals, row_floor, prefer),
            StoredColumn::Float64(_) => None,
        }?;
        Some(Self { bits, rows, keep })
    }

    /// Append the marked rows of `range` (inside `0..rows`) that `keep`
    /// keeps to `out`, ascending.
    pub(crate) fn decode(&self, range: Range<usize>, out: &mut Vec<u32>) {
        if range.is_empty() {
            return;
        }
        let words = range.start / 64..range.end.div_ceil(64);
        let all = matches!(self.keep, Compiled::True);
        let base = words.start * 64;
        for_each_masked(base, words.len() * 64, &self.bits[words], |row| {
            if range.contains(&row) && (all || self.keep.matches(row)) {
                out.push(row as u32);
            }
        });
    }
}

/// [`Marks::new`] over one typed column: the bitmap and the indexed rows.
fn mark<T: Copy + Into<i64>>(
    pieces: &Pieces<T>,
    intervals: &[(i64, i64)],
    row_floor: usize,
    prefer: impl FnOnce(usize, Range<usize>) -> bool,
) -> Option<(Vec<u64>, usize)> {
    let mut runs: Vec<(usize, &[u32])> = Vec::new();
    let (mut rows, mut candidates) = (0, 0);
    for (start, piece) in pieces.sealed() {
        rows = start + piece.len();
        if rows <= row_floor {
            continue;
        }
        let ids = piece.sorted.get_or_init(|| {
            #[cfg(test)]
            tests::count_build();
            sort_by_value(piece)
        });
        let value = |id: &u32| -> i64 { piece[*id as usize].into() };
        for &(lo, hi) in intervals {
            let from = ids.partition_point(|id| value(id) < lo);
            let to = from + ids[from..].partition_point(|id| value(id) <= hi);
            runs.push((start, &ids[from..to]));
            candidates += to - from;
        }
    }
    if !prefer(candidates, row_floor.min(rows)..rows) {
        return None;
    }
    let mut bits = vec![0u64; rows.div_ceil(64)];
    for (start, run) in runs {
        for row in run.iter().map(|&id| start + id as usize) {
            bits[row / 64] |= 1 << (row % 64);
        }
    }
    Some((bits, rows))
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::column::{Column, STORED_CHUNK_ROWS};
    use crate::expr::Predicate;
    use crate::ops::filter::PreparedScan;
    use crate::synopsis::PruneCounts;
    use crate::table::Table;

    thread_local! {
        /// Index builds this thread ran.
        static BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count_build() {
        BUILDS.with(|b| b.set(b.get() + 1));
    }

    #[test]
    fn radix_and_comparison_sorts_order_by_value_then_row() {
        let narrow: Vec<i32> = (0..5_000).map(|i| (i * 7_919 % 613) - 300).collect();
        let wide: Vec<i64> = (0..5_000i64)
            .map(|i| {
                if i % 3 == 0 {
                    i64::MIN + i
                } else {
                    i64::MAX - i % 17
                }
            })
            .collect();
        let codes: Vec<u32> = vec![7; 100];
        fn check<T: Copy + Into<i64>>(values: &[T]) {
            let mut expected: Vec<u32> = (0..values.len() as u32).collect();
            expected.sort_by_key(|&id| (values[id as usize].into(), id));
            assert_eq!(&*sort_by_value(values), &expected[..]);
        }
        check(&narrow);
        check(&wide);
        check(&codes);
        check::<i64>(&[]);
        check(&[i32::MAX, i32::MIN, 0]);
        check(&[u32::MAX as i64, 0, 5, u32::MAX as i64 + 1]);
    }

    /// A shuffled key over a base piece, three sealed chunks and an open
    /// one.
    fn grown_table() -> Table {
        let key = |rows: std::ops::Range<i64>| -> Vec<(String, Column)> {
            vec![(
                "k".into(),
                Column::Int64(rows.map(|i| i * 7_919 % 100_003).collect()),
            )]
        };
        let base = 10_000i64;
        let mut table = Table::new("t", key(0..base)).unwrap();
        let end = base + 3 * STORED_CHUNK_ROWS as i64 + 500;
        table = table.append_batch(&key(base..end)).unwrap();
        table
    }

    #[test]
    fn concurrent_first_deltas_build_each_piece_once() {
        let table = grown_table();
        let predicate = Predicate::between("k", 100, 900);
        let barrier = std::sync::Barrier::new(2);
        let (selections, builds): (Vec<Vec<u32>>, Vec<usize>) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let rows = PreparedScan::new(&table, &predicate)
                            .unwrap()
                            .with_range_index("k", &[(100, 900)], &Predicate::True, 0, |_, _| true)
                            .unwrap()
                            .scan_pruned(0..table.num_rows(), &mut PruneCounts::default());
                        (rows, BUILDS.with(Cell::get))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).unzip()
        });
        assert_eq!(selections[0], selections[1]);
        assert_eq!(
            builds.iter().sum::<usize>(),
            4,
            "base and three sealed chunks, once each: {builds:?}"
        );
    }

    #[test]
    fn indexes_count_toward_the_heap_and_only_once_built() {
        let table = grown_table();
        let before = table.heap_bytes();
        let predicate = Predicate::between("k", 0, 10);
        let _ = PreparedScan::new(&table, &predicate)
            .unwrap()
            .with_range_index("k", &[(0, 10)], &Predicate::True, 0, |_, _| true)
            .unwrap();
        let indexed = 10_000 + 3 * STORED_CHUNK_ROWS;
        assert_eq!(table.heap_bytes(), before + 4 * indexed);
        // A later version shares the built indexes with its pieces.
        let next = table
            .append_batch(&[("k".into(), Column::Int64(vec![5; 10]))])
            .unwrap();
        assert!(next.heap_bytes() >= 4 * indexed + 8 * next.num_rows());
    }

    #[test]
    fn a_floor_past_the_indexed_rows_builds_nothing() {
        let table = grown_table();
        let floor = 10_000 + 3 * STORED_CHUNK_ROWS;
        let predicate = Predicate::True;
        let scan = PreparedScan::new(&table, &predicate)
            .unwrap()
            .with_range_index("k", &[(0, 100_003)], &Predicate::True, floor, |_, _| true)
            .unwrap();
        let mut counts = PruneCounts::default();
        let rows = scan.scan_pruned(0..table.num_rows(), &mut counts);
        assert_eq!(
            rows,
            (floor as u32..table.num_rows() as u32).collect::<Vec<_>>()
        );
        assert_eq!(counts.indexed, 0);
        let StoredColumn::Int64(pieces) = table.column("k").unwrap() else {
            unreachable!()
        };
        assert!(pieces.sealed().all(|(_, p)| p.sorted.get().is_none()));
    }
}
