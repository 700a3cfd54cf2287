//! Range indexes, the Δ-sampler's second row source (DESIGN.md, "Index or
//! scan"): per sealed piece of an integer-view column, its row ids sorted by
//! value, built on a sampler's first use into the `OnceLock` the piece
//! carries, so table versions that share the piece share its index. Above a
//! star join, a [`JoinedIndex`] keeps per piece the ids of the rows that
//! join, so a Δ marks only those (DESIGN.md, "Join filter").

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::column::{Pieces, StoredColumn};
use crate::expr::Compiled;
use crate::kernel::for_each_masked;
use crate::ops::JoinFilter;
use crate::table::Table;

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

/// Radix digits per pass.
const RADIX_BITS: u32 = 11;

/// Row ids ordered by (value, id): [`radix`] on `value − min` when the span
/// fits in 32 bits, with keys as narrow as the values and ids allow, else
/// `sort_unstable`. A stored sample's range index sorts its rows with it
/// too.
pub fn sort_by_value<T: Copy + Into<i64>>(values: &[T]) -> Box<[u32]> {
    let value = |v: &T| -> i64 { (*v).into() };
    let min = values.iter().map(value).min().unwrap_or(0);
    let max = values.iter().map(value).max().unwrap_or(0);
    let Ok(span) = u32::try_from(max.abs_diff(min)) else {
        let mut ids: Vec<u32> = (0..values.len() as u32).collect();
        ids.sort_unstable_by_key(|&id| (value(&values[id as usize]), id));
        return ids.into_boxed_slice();
    };
    let offsets = values.iter().map(move |v| value(v).abs_diff(min));
    let value_bits = u32::BITS - span.leading_zeros();
    let id_bits = u32::BITS - (values.len().max(1) as u32 - 1).leading_zeros();
    match value_bits.saturating_sub(RADIX_BITS) + id_bits <= u32::BITS {
        true => radix::<u32>(offsets, value_bits, id_bits),
        false => radix::<u64>(offsets, value_bits, id_bits),
    }
}

/// A radix sort key: an offset's bits past the first pass's digit, then
/// the id.
trait Key: Copy + Default {
    fn pack(key: u64) -> Self;
    fn bits(self) -> u64;
}

impl Key for u32 {
    fn pack(key: u64) -> Self {
        key as u32
    }
    fn bits(self) -> u64 {
        self.into()
    }
}

impl Key for u64 {
    fn pack(key: u64) -> Self {
        key
    }
    fn bits(self) -> u64 {
        self
    }
}

/// The ids `0..n` ordered by (offset, id): an LSD radix sort on the offset
/// bits alone, stable, so ties stay in id order. The first pass reads the
/// offsets in id order and scatters packed keys, so no pass gathers a value
/// by id; the last scatters the ids alone. Beside the result's 4 B a row,
/// one key a row (4 B for `lo_intkey` at SF 0.1, else 8 B), two while
/// more than two passes remain.
fn radix<K: Key>(
    offsets: impl ExactSizeIterator<Item = u64> + Clone,
    value_bits: u32,
    id_bits: u32,
) -> Box<[u32]> {
    const MASK: u64 = (1 << RADIX_BITS) - 1;
    let n = offsets.len();
    let passes = value_bits.div_ceil(RADIX_BITS) as usize;
    if passes == 0 {
        return (0..n as u32).collect(); // every value is the minimum
    }
    // Every pass's bucket starts, from one count of all its digits.
    let mut starts = vec![[0usize; 1 << RADIX_BITS]; passes];
    for offset in offsets.clone() {
        for (pass, counts) in starts.iter_mut().enumerate() {
            counts[(offset >> (pass as u32 * RADIX_BITS) & MASK) as usize] += 1;
        }
    }
    let key = |offset: u64, id: u64| K::pack((offset >> RADIX_BITS) << id_bits | id);
    let digit = |key: K, pass: usize| {
        (key.bits() >> (id_bits + (pass as u32 - 1) * RADIX_BITS) & MASK) as usize
    };
    let id = |key: K| (key.bits() & ((1 << id_bits) - 1)) as u32;
    let mut ids = vec![0u32; n];
    let (mut keys, mut spare): (Vec<K>, Vec<K>) = (Vec::new(), Vec::new());
    for (pass, at) in starts.iter_mut().enumerate() {
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        let last = pass + 1 == passes;
        match last {
            true => spare = Vec::new(),
            false => spare.resize(n, K::default()),
        }
        let mut place = |d: usize, key: K, id: u32| {
            match last {
                true => ids[at[d]] = id,
                false => spare[at[d]] = key,
            }
            at[d] += 1;
        };
        match pass {
            0 => (offsets.clone().zip(0u64..))
                .for_each(|(offset, i)| place((offset & MASK) as usize, key(offset, i), i as u32)),
            _ => keys.iter().for_each(|&k| place(digit(k, pass), k, id(k))),
        }
        std::mem::swap(&mut keys, &mut spare);
    }
    ids.into_boxed_slice()
}

/// One column's joined lists: per sealed piece the filter covers whole, in
/// row order, the piece's sorted ids whose rows join, once built.
type Lists = [OnceLock<Arc<[u32]>>];

/// A star's [`JoinFilter`] and the range indexes it keeps: for each
/// integer-view column of the fact table and each sealed piece the filter
/// covers whole, that piece's sorted ids less the rows the filter drops.
/// A list is built on the first Δ that reaches its piece, as the piece's
/// sorted ids are, and an extension of the filter carries it: a sealed
/// piece and its filter bits do not change.
#[derive(Debug, Default)]
pub struct JoinedIndex {
    filter: JoinFilter,
    /// Per column name, one slot per covered piece.
    lists: Vec<(String, Box<Lists>)>,
}

impl JoinedIndex {
    /// `filter` over `fact` (or over any version of it: sealed pieces are
    /// shared), with the lists `carried` built; `filter` must extend
    /// `carried`'s.
    pub fn new(fact: &Table, filter: JoinFilter, carried: Option<&JoinedIndex>) -> Self {
        let covered = |col: &StoredColumn| match col {
            StoredColumn::Int32(p) => covered_pieces(p, filter.rows()),
            StoredColumn::Int64(p) => covered_pieces(p, filter.rows()),
            StoredColumn::Dict { codes, .. } => covered_pieces(codes, filter.rows()),
            StoredColumn::Float64(_) => 0,
        };
        let lists = (fact.columns())
            .filter_map(|(name, col)| {
                let old = carried.and_then(|c| c.lists(name)).unwrap_or_default();
                let slots: Box<Lists> = (0..covered(col))
                    .map(|i| old.get(i).cloned().unwrap_or_default())
                    .collect();
                (!slots.is_empty()).then(|| (name.to_string(), slots))
            })
            .collect();
        Self { filter, lists }
    }

    /// The fact rows that join, over a prefix of the table.
    pub fn filter(&self) -> &JoinFilter {
        &self.filter
    }

    /// `column`'s lists built so far, one per covered piece in row order.
    pub fn built(&self, column: &str) -> impl Iterator<Item = Option<&[u32]>> {
        let lists = self.lists(column).unwrap_or_default();
        lists.iter().map(|slot| slot.get().map(|list| &**list))
    }

    fn lists(&self, column: &str) -> Option<&Lists> {
        let at = self.lists.iter().find(|(name, _)| name == column);
        at.map(|(_, slots)| &**slots)
    }
}

/// Sealed pieces that end within the first `rows` rows.
fn covered_pieces<T: Copy>(pieces: &Pieces<T>, rows: usize) -> usize {
    (pieces.sealed())
        .take_while(|(start, piece)| start + piece.len() <= rows)
        .count()
}

/// One Δ's rows marked in a bitmap over the indexed rows from the floor's
/// word to `rows`, with one summary bit per word that is not zero, and the
/// rest of the predicate, which a marked row must `keep`.
pub(crate) struct Marks<'a> {
    /// Words `first..` of the bitmap over `0..rows`.
    bits: Vec<u64>,
    /// Bit `i` set when `bits[i]` is not zero.
    summary: Vec<u64>,
    first: usize,
    pub(crate) rows: usize,
    keep: Compiled<'a>,
}

impl<'a> Marks<'a> {
    /// Mark the rows whose `col` value lies in the disjoint, inclusive
    /// `intervals`, in the sealed pieces reaching past `row_floor`, less the
    /// rows `joined`'s filter drops; `None` if `col` has no integer view or
    /// `prefer(candidates, rows)` picks the scan for `rows`, the indexed rows
    /// past the floor. Rows below it go unread. A piece the filter covers
    /// whole offers only its joining rows as candidates.
    pub(crate) fn new(
        col: &StoredColumn,
        column: &str,
        intervals: &[(i64, i64)],
        row_floor: usize,
        keep: Compiled<'a>,
        joined: Option<&JoinedIndex>,
        prefer: impl FnOnce(usize, Range<usize>) -> bool,
    ) -> Option<Self> {
        let joins = joined.map(|j| (&j.filter, j.lists(column).unwrap_or_default()));
        let (bits, summary, first, rows) = match col {
            StoredColumn::Int32(p) => mark(p, intervals, row_floor, joins, prefer),
            StoredColumn::Int64(p) => mark(p, intervals, row_floor, joins, prefer),
            StoredColumn::Dict { codes, .. } => mark(codes, intervals, row_floor, joins, prefer),
            StoredColumn::Float64(_) => None,
        }?;
        Some(Self {
            bits,
            summary,
            first,
            rows,
            keep,
        })
    }

    /// Append the marked rows of `range` (inside the floor's word `..rows`)
    /// that `keep` keeps to `out`, ascending: only the words the summary
    /// marks are read.
    pub(crate) fn decode(&self, range: Range<usize>, out: &mut Vec<u32>) {
        if range.is_empty() {
            return;
        }
        let all = matches!(self.keep, Compiled::True);
        let mut visit = |row: usize| {
            if range.contains(&row) && (all || self.keep.matches(row)) {
                out.push(row as u32);
            }
        };
        // The words of `bits` the range touches, and their summary words.
        let (lo, hi) = (
            range.start / 64 - self.first,
            range.end.div_ceil(64) - self.first,
        );
        for s in lo / 64..hi.div_ceil(64) {
            let (from, to) = (lo.max(s * 64) - s * 64, hi.min(s * 64 + 64) - s * 64);
            let mut set = self.summary[s] & (u64::MAX >> (64 - (to - from))) << from;
            while set != 0 {
                let w = s * 64 + set.trailing_zeros() as usize;
                set &= set - 1;
                let base = (self.first + w) * 64;
                for_each_masked(base, 64, &self.bits[w..=w], &mut visit);
            }
        }
    }
}

/// [`Marks::new`] over one typed column: the bitmap from the floor's word,
/// its summary, that word and the indexed rows. The candidates are the ids
/// the runs hold: a covered piece's joined list, else its sorted ids, whose
/// rows the filter (if any) checks one by one.
fn mark<T: Copy + Into<i64>>(
    pieces: &Pieces<T>,
    intervals: &[(i64, i64)],
    row_floor: usize,
    joins: Option<(&JoinFilter, &Lists)>,
    prefer: impl FnOnce(usize, Range<usize>) -> bool,
) -> Option<(Vec<u64>, Vec<u64>, usize, usize)> {
    // Per run: its piece's first row, its ids, the filter its rows meet.
    let mut runs: Vec<(usize, &[u32], Option<&JoinFilter>)> = Vec::new();
    let (mut rows, mut candidates) = (0, 0);
    for (i, (start, piece)) in pieces.sealed().enumerate() {
        rows = start + piece.len();
        if rows <= row_floor {
            continue;
        }
        let sorted = || {
            piece.sorted.get_or_init(|| {
                #[cfg(test)]
                tests::count_build();
                sort_by_value(piece)
            })
        };
        let joined = joins.and_then(|(filter, lists)| {
            let slot = lists.get(i).filter(|_| rows <= filter.rows())?;
            let list = slot.get_or_init(|| {
                let joins = |id: &&u32| filter.keeps(start + **id as usize);
                sorted().iter().filter(joins).copied().collect()
            });
            Some(&**list)
        });
        let (ids, check) = match joined {
            Some(list) => (list, None),
            None => (&**sorted(), joins.map(|(filter, _)| filter)),
        };
        let value = |id: &u32| -> i64 { piece[*id as usize].into() };
        for &(lo, hi) in intervals {
            let from = ids.partition_point(|id| value(id) < lo);
            let to = from + ids[from..].partition_point(|id| value(id) <= hi);
            runs.push((start, &ids[from..to], check));
            candidates += to - from;
        }
    }
    let floor = row_floor.min(rows);
    if !prefer(candidates, floor..rows) {
        return None;
    }
    // Rows below the floor are never decoded: the bitmap starts at its word.
    let first = floor / 64;
    let words = rows.div_ceil(64) - first;
    let (mut bits, mut summary) = (vec![0u64; words], vec![0u64; words.div_ceil(64)]);
    // Fewer candidates than words (a Q2 Δ's joining rows): each mark sets
    // its word's summary bit, so no clear word is ever read. Else (a Q1 Δ)
    // one pass over the words derives the summary, and no mark pays for it.
    let sparse = candidates < words;
    for (start, run, check) in runs {
        for row in run.iter().map(|&id| start + id as usize) {
            if row >= floor && check.is_none_or(|filter| filter.keeps(row)) {
                let word = row / 64 - first;
                bits[word] |= 1 << (row % 64);
                if sparse {
                    summary[word / 64] |= 1 << (word % 64);
                }
            }
        }
    }
    if !sparse {
        for (set, words) in summary.iter_mut().zip(bits.chunks(64)) {
            *set = (words.iter().enumerate()).fold(0, |s, (i, &w)| s | u64::from(w != 0) << i);
        }
    }
    Some((bits, summary, first, rows))
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

    /// `sort_by_value` against a comparison sort by (value, id).
    fn sorts_like_comparison<T: Copy + Into<i64>>(values: &[T]) {
        let mut expected: Vec<u32> = (0..values.len() as u32).collect();
        expected.sort_by_key(|&id| (values[id as usize].into(), id));
        assert_eq!(&*sort_by_value(values), &expected[..]);
    }

    proptest::proptest! {
        /// Random `i32` and `i64` columns, empty and all-equal ones, and
        /// spans just below, at and past 2³² (the comparison fallback).
        #[test]
        fn radix_sort_orders_any_column_by_value_then_row(
            narrow in proptest::collection::vec(proptest::prelude::any::<i32>(), 0..2_000),
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..6_000),
            low in proptest::prelude::any::<i64>(),
            span_pick in 0usize..6,
        ) {
            sorts_like_comparison(&narrow);
            sorts_like_comparison(&narrow.iter().map(|&v| v % 5).collect::<Vec<_>>());
            let span = [0, 1_000, u32::MAX as u64 - 1, u32::MAX as u64, 1 << 32, u64::MAX][span_pick];
            let low = low.min(i64::MAX - span.min(i64::MAX as u64) as i64);
            let low = if span == u64::MAX { i64::MIN } else { low };
            let at = |offset: u64| low.wrapping_add(offset as i64);
            let mut wide: Vec<i64> = raw.iter().map(|&r| at(r % span.saturating_add(1).max(1))).collect();
            if span != u64::MAX && !wide.is_empty() {
                // Both ends held, so the span is exactly `span`.
                let last = wide.len() - 1;
                (wide[0], wide[last]) = (at(0), at(span));
            }
            sorts_like_comparison(&wide);
            sorts_like_comparison(&vec![low; raw.len()]);
        }
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
                            .with_range_index(
                                "k",
                                &[(100, 900)],
                                &Predicate::True,
                                None,
                                0,
                                |_, _| true,
                            )
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
            .with_range_index("k", &[(0, 10)], &Predicate::True, None, 0, |_, _| true)
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
    fn a_tail_deltas_marks_start_at_the_floors_word() {
        let table = grown_table();
        let (n, sealed) = (table.num_rows(), 10_000 + 3 * STORED_CHUNK_ROWS);
        // Inside the last sealed chunk, mid-word.
        let floor = sealed - STORED_CHUNK_ROWS / 2 + 5;
        let interval = [(0, 60_000)];
        let predicate = Predicate::between("k", 0, 60_000);
        let keep = Predicate::True.compile(&table).unwrap();
        let col = table.column("k").unwrap();
        let marks = Marks::new(col, "k", &interval, floor, keep, None, |_, _| true).unwrap();
        assert_eq!(marks.first, floor / 64);
        assert_eq!(marks.bits.len(), sealed.div_ceil(64) - floor / 64);
        assert_eq!(marks.summary.len(), marks.bits.len().div_ceil(64));
        let below = (floor / 64 * 64..floor).filter(|&r| col.i64_at(r) <= 60_000);
        assert!(below.count() > 0, "the floor's word holds rows below it");

        let walked = PreparedScan::new(&table, &predicate)
            .unwrap()
            .scan_pruned(floor..n, &mut PruneCounts::default());
        let indexed = PreparedScan::new(&table, &predicate)
            .unwrap()
            .with_range_index("k", &interval, &Predicate::True, None, floor, |_, _| true)
            .unwrap()
            .scan_pruned(0..n, &mut PruneCounts::default());
        assert_eq!(indexed, walked);
    }

    #[test]
    fn a_floor_past_the_indexed_rows_builds_nothing() {
        let table = grown_table();
        let floor = 10_000 + 3 * STORED_CHUNK_ROWS;
        let predicate = Predicate::True;
        let scan = PreparedScan::new(&table, &predicate)
            .unwrap()
            .with_range_index(
                "k",
                &[(0, 100_003)],
                &Predicate::True,
                None,
                floor,
                |_, _| true,
            )
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
