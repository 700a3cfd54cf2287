//! Property tests: the range index as the Δ-sampler's row source ≡ the
//! row-at-a-time reference scan.
//!
//! `PreparedScan::with_range_index` marks a Δ's rows in the index of each
//! sealed piece (the base piece and every full chunk) and decodes them
//! per morsel; rows past the sealed prefix (the open chunk) are walked.
//! For range columns of every integer view — `Int32` and `Int64` with
//! duplicates and negatives, an `Int64` whose values span more than 2³²
//! (so the comparison-sort fallback builds its index) and dictionary
//! codes — over tables grown by `append_batch` into a base piece, sealed
//! chunks and an open chunk, for empty, point and multi-interval sets
//! with `i64::MIN`/`MAX` edges, residual conjuncts, row floors anywhere
//! (inside the base piece, a sealed chunk, the open chunk, past the end)
//! and unaligned morsel ranges, each morsel's selection must equal
//! `ops::reference::eval_rows` of the whole predicate over the morsel's
//! rows at or past the floor — through the index, through the scan, and
//! through the measured cut-off — and the cut-off must be offered the
//! candidates of every sealed piece that reaches past the floor, exactly.
//!
//! Marks are a bitmap from the floor's word on with one summary bit per
//! word, and a decode reads only the words the summary marks: sparse marks
//! (one row in 4 096) and dense ones (every row), decoded over ranges that
//! start and end mid-word and mid-summary-word from any floor, must equal
//! the walk row for row.
//!
//! Above a star join the index meets the join filter first
//! (`JoinedIndex`): over the same tables, for filters over random
//! prefixes (empty, shorter than the table, every row) and densities,
//! carried from a shorter prefix or built afresh, the indexed rows of each
//! morsel must be the filter-retained selection of the plain index, row for
//! row and in order, the walked rows the plain walk's, and the cut-off must
//! be offered each covered piece's joining candidates alone.

use std::cell::Cell;
use std::ops::Range;

use laqy_engine::index::{prefer_index, JoinedIndex};
use laqy_engine::ops::{reference, JoinFilter, PreparedScan, StarJoinOutput};
use laqy_engine::{dict_column, Column, Predicate, PruneCounts, Table, STORED_CHUNK_ROWS};
use proptest::prelude::*;

const C: usize = STORED_CHUNK_ROWS;

/// splitmix64 of (seed, salt, row): a value that depends on the row
/// only, whichever batch delivers it.
fn at(seed: u64, salt: u64, row: usize) -> u64 {
    let mut z = (seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Values of the wide column: the `i64` extremes and their neighbours,
/// repeated, among values anywhere in between.
const WIDE: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Rows `rows` of the schema: one range column of each integer view and
/// a small residual column.
fn rows_of(seed: u64, rows: Range<usize>) -> Vec<(String, Column)> {
    let v = |salt: u64| rows.clone().map(move |r| at(seed, salt, r));
    vec![
        (
            "i32".into(),
            Column::Int32(v(1).map(|x| (x % 2_001) as i32 - 1_000).collect()),
        ),
        (
            "i64".into(),
            Column::Int64(v(2).map(|x| (x % 60_000) as i64 - 30_000).collect()),
        ),
        (
            "wide".into(),
            Column::Int64(
                v(3).map(|x| match x % 10 {
                    0..=6 => WIDE[(x >> 8) as usize % WIDE.len()],
                    _ => (x >> 1) as i64 * if x & 1 == 0 { 1 } else { -1 },
                })
                .collect(),
            ),
        ),
        (
            "tag".into(),
            dict_column(v(4).map(|x| TAGS[x as usize % TAGS.len()])),
        ),
        (
            "g".into(),
            Column::Int64(v(5).map(|x| (x % 7) as i64).collect()),
        ),
        // One row in 4 096 holds a 1: sparse marks.
        (
            "s".into(),
            Column::Int64(v(6).map(|x| i64::from(x % 4_096 == 0)).collect()),
        ),
    ]
}

/// A table of `base` rows grown by `batches`.
fn grown(seed: u64, base: usize, batches: &[usize], zone_rows: usize) -> Table {
    let mut table = Table::with_zone_map_rows("t", rows_of(seed, 0..base), zone_rows).unwrap();
    let mut rows = base;
    for &added in batches {
        table = table
            .append_batch(&rows_of(seed, rows..rows + added))
            .unwrap();
        rows += added;
    }
    table
}

/// Disjoint, ascending intervals over `column`, in the shape `pick`
/// names, drawn around the values the table holds.
fn intervals(table: &Table, column: &str, pick: u64, seed: u64) -> Vec<(i64, i64)> {
    let col = table.column(column).unwrap();
    let n = table.num_rows().max(1);
    let value = |salt: u64| col.i64_at(at(seed, salt, 0) as usize % n);
    let mut out = match pick {
        0 => vec![],
        1 => {
            let v = value(10);
            vec![(v, v)]
        }
        2 => vec![(i64::MIN, value(11))],
        3 => vec![(value(12), i64::MAX)],
        4 => vec![(i64::MIN, i64::MAX)],
        // Two to four intervals around held values, each a sixteenth of
        // the distance to another held value wide (points on codes).
        _ => (0..2 + at(seed, 13, 0) % 3)
            .map(|i| {
                let (a, b) = (value(20 + 2 * i) as i128, value(21 + 2 * i) as i128);
                let w = (a - b).abs() / 16;
                let clamp = |v: i128| v.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                (clamp(a - w), clamp(a + w))
            })
            .collect(),
    };
    // Sort and merge into the disjoint form an `IntervalSet` holds.
    out.sort_unstable();
    let mut merged: Vec<(i64, i64)> = Vec::new();
    for (lo, hi) in out {
        match merged.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// `column ∈ intervals`, as the executor's range predicate spells it.
fn range_predicate(column: &str, intervals: &[(i64, i64)]) -> Predicate {
    match intervals {
        [] => Predicate::False,
        [(lo, hi)] => Predicate::between(column, *lo, *hi),
        many => Predicate::Or(
            many.iter()
                .map(|&(lo, hi)| Predicate::between(column, lo, hi))
                .collect(),
        ),
    }
}

/// Unaligned morsels covering `0..n`.
fn morsels(n: usize, seed: u64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < n {
        let len = 1 + at(seed, 30 + i, 0) as usize % (2 * C);
        out.push(start..(start + len).min(n));
        start += len;
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_selections_equal_the_reference_scan(
        seed in 0u64..1_000_000,
        base_pick in 0u64..6,
        filler in 2usize..30_000,
        batch_picks in prop::collection::vec((0u64..4, 1usize..2 * C), 0..4),
        zone_pick in 0usize..3,
        column_pick in 0usize..4,
        shape in 0u64..8,
        residual_pick in 0usize..4,
        floor_pick in 0u64..6,
    ) {
        // Lengths on and off the chunk grid, and empty batches.
        let base = [0, 1, C - 1, C][..].get(base_pick as usize).copied().unwrap_or(filler);
        let batches: Vec<usize> = batch_picks
            .iter()
            .map(|&(pick, len)| [0, 1, C][..].get(pick as usize).copied().unwrap_or(len))
            .collect();
        let zone_rows = [64, 4_096, 65_536][zone_pick];
        let table = grown(seed, base, &batches, zone_rows);
        let n = table.num_rows();
        if n == 0 {
            return;
        }
        let sealed = base + (n - base) / C * C;
        let column = ["i32", "i64", "wide", "tag"][column_pick];
        let intervals = intervals(&table, column, shape, seed);
        let residual = [
            Predicate::True,
            Predicate::between("g", 1, 4),
            Predicate::eq_str("tag", "b"),
            Predicate::Not(Box::new(Predicate::between("i32", -500, 500))),
        ][residual_pick]
            .clone();
        let predicate = residual.clone().and(range_predicate(column, &intervals));
        // A tiny table may not hold the tag yet.
        if predicate.compile(&table).is_err() {
            return;
        }
        let floor = match floor_pick {
            0 => 0,
            1 => base / 2,
            2 => base + C / 3,
            3 => sealed + (n - sealed) / 2,
            4 => n,
            _ => at(seed, 40, 0) as usize % (n + 1),
        };
        let compiled = predicate.compile(&table).unwrap();
        let morsels = morsels(n, seed);
        let expected: Vec<Vec<u32>> = morsels
            .iter()
            .map(|m| reference::eval_rows(&compiled, m.start.max(floor)..m.end.max(floor)))
            .collect();

        // The candidates the cut-off is offered: the indexed rows inside
        // the intervals, in every sealed piece that reaches past the floor.
        let col = table.column(column).unwrap();
        let inside = |r: usize| intervals.iter().any(|&(lo, hi)| (lo..=hi).contains(&col.i64_at(r)));
        let first = if floor < base { 0 } else { base + (floor - base) / C * C };
        let candidates = (first.min(sealed)..sealed).filter(|&r| inside(r)).count();

        for source in ["index", "scan", "cut-off"] {
            let offered = Cell::new(None);
            let scan = PreparedScan::new(&table, &predicate)
                .unwrap()
                .with_range_index(column, &intervals, &residual, None, floor, |c, rows| {
                    offered.set(Some(c));
                    match source {
                        "index" => true,
                        "scan" => false,
                        _ => prefer_index(c, rows),
                    }
                })
                .unwrap();
            prop_assert_eq!(offered.get(), Some(candidates), "{}", source);
            let mut counts = PruneCounts::default();
            for (m, want) in morsels.iter().zip(&expected) {
                let got = scan.scan_pruned(m.clone(), &mut counts);
                prop_assert_eq!(&got, want, "{} morsel {:?} floor {}", source, m, floor);
            }
            let reaches_index = floor < sealed;
            match source {
                "index" => prop_assert_eq!(counts.indexed > 0, reaches_index),
                "scan" => prop_assert_eq!(counts.indexed, 0),
                _ => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Marks one row in 4 096 apart (`s = 1`, most summary words clear)
    /// and marks on every row (`g ∈ [0, 6]`), decoded over ranges that
    /// start and end mid-word and mid-summary-word (a summary word spans
    /// 4 096 rows), from any floor: row for row the walk's.
    #[test]
    fn sparse_and_dense_marks_decode_like_the_walk(
        seed in 0u64..1_000_000,
        base in 0usize..40_000,
        batch_picks in prop::collection::vec(1usize..2 * C, 0..3),
        dense in any::<bool>(),
        floor_pick in 0u64..4,
        cuts in prop::collection::vec((0u64..4, any::<u64>()), 0..12),
    ) {
        let table = grown(seed, base, &batch_picks, 4_096);
        let n = table.num_rows();
        let (column, interval) = if dense { ("g", (0, 6)) } else { ("s", (1, 1)) };
        let predicate = Predicate::between(column, interval.0, interval.1);
        let floor = match floor_pick {
            0 => 0,
            1 => (n / 3) | 37,
            2 => (n / 2 / 4_096 * 4_096) + 4_095,
            _ => at(seed, 41, 0) as usize % (n + 1),
        }
        .min(n);
        // Range ends anywhere, one past or before a word or a summary
        // word's edge, or on it.
        let mut ends: Vec<usize> = cuts
            .iter()
            .map(|&(kind, r)| {
                let r = r as usize % (n + 1);
                match kind {
                    0 => r,
                    1 => (r / 64 * 64 + 1).min(n),
                    2 => (r / 4_096 * 4_096).saturating_sub(1),
                    _ => r / 4_096 * 4_096,
                }
            })
            .chain([0, n])
            .collect();
        ends.sort_unstable();
        let scan = |index: bool| {
            PreparedScan::new(&table, &predicate)
                .unwrap()
                .with_range_index(column, &[interval], &Predicate::True, None, floor, |_, _| index)
                .unwrap()
        };
        let (indexed, walked) = (scan(true), scan(false));
        let compiled = predicate.compile(&table).unwrap();
        let mut counts = PruneCounts::default();
        for pair in ends.windows(2) {
            let range = pair[0]..pair[1];
            let want = walked.scan_pruned(range.clone(), &mut PruneCounts::default());
            let got = indexed.scan_pruned(range.clone(), &mut counts);
            prop_assert_eq!(&got, &want, "range {:?} floor {}", range, floor);
            let reference = reference::eval_rows(&compiled, range.start.max(floor)..range.end.max(floor));
            prop_assert_eq!(&got, &reference);
        }
    }
}

/// A filter over rows `0..prefix` setting the rows `keeps` picks.
fn filter_over(prefix: usize, keeps: impl Fn(usize) -> bool) -> JoinFilter {
    let joined = StarJoinOutput {
        fact_rows: (0..prefix)
            .filter(|&r| keeps(r))
            .map(|r| r as u32)
            .collect(),
        dim_rows: vec![],
    };
    let mut filter = JoinFilter::default();
    filter.extend(prefix, &joined);
    filter
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_joined_index_marks_the_rows_the_filter_retains(
        seed in 0u64..1_000_000,
        base_pick in 0u64..6,
        filler in 2usize..30_000,
        batch_picks in prop::collection::vec((0u64..4, 1usize..2 * C), 0..4),
        column_pick in 0usize..4,
        shape in 0u64..8,
        residual_pick in 0usize..2,
        floor_pick in 0u64..4,
        prefix_pick in 0u64..4,
        density in 0u64..9,
        carry in any::<bool>(),
    ) {
        let base = [0, 1, C - 1, C][..].get(base_pick as usize).copied().unwrap_or(filler);
        let batches: Vec<usize> = batch_picks
            .iter()
            .map(|&(pick, len)| [0, 1, C][..].get(pick as usize).copied().unwrap_or(len))
            .collect();
        let table = grown(seed, base, &batches, 4_096);
        let n = table.num_rows();
        if n == 0 {
            return;
        }
        let sealed = base + (n - base) / C * C;
        let column = ["i32", "i64", "wide", "tag"][column_pick];
        let intervals = intervals(&table, column, shape, seed);
        let residual = [Predicate::True, Predicate::between("g", 1, 4)][residual_pick].clone();
        let predicate = residual.clone().and(range_predicate(column, &intervals));
        let floor = match floor_pick {
            0 => 0,
            1 => base / 2,
            2 => base + C / 3,
            _ => at(seed, 40, 0) as usize % (n + 1),
        };
        // Rows join at a density of eighths; the prefix is empty, inside
        // the table, exactly the table or (carried) grown from a shorter one.
        let joins = |r: usize| at(seed, 50, r) % 8 < density;
        let prefix = match prefix_pick {
            0 => 0,
            1 | 2 => at(seed, 51, 0) as usize % (n + 1),
            _ => n,
        };
        let filter = filter_over(prefix, joins);
        let index = if carry {
            let shorter = filter_over(at(seed, 52, 0) as usize % (prefix + 1), joins);
            let old = JoinedIndex::new(&table, shorter, None);
            // Build the shorter filter's lists, then carry them.
            let _ = PreparedScan::new(&table, &predicate)
                .unwrap()
                .with_range_index(column, &intervals, &residual, Some(&old), 0, |_, _| true)
                .unwrap();
            JoinedIndex::new(&table, filter.clone(), Some(&old))
        } else {
            JoinedIndex::new(&table, filter.clone(), None)
        };

        // A covered piece offers its joining candidates, any other piece
        // past the floor all of its own.
        let col = table.column(column).unwrap();
        let inside = |r: usize| intervals.iter().any(|&(lo, hi)| (lo..=hi).contains(&col.i64_at(r)));
        let chunks = (base..sealed).step_by(C).map(|s| s..s + C);
        let pieces: Vec<Range<usize>> = std::iter::once(0..base).chain(chunks).collect();
        let candidates: usize = pieces
            .iter()
            .filter(|p| p.end > floor && !p.is_empty())
            .map(|p| {
                let covered = p.end <= prefix;
                p.clone().filter(|&r| inside(r) && (!covered || joins(r))).count()
            })
            .sum();

        let morsels = morsels(n, seed);
        let plain = PreparedScan::new(&table, &predicate)
            .unwrap()
            .with_range_index(column, &intervals, &residual, None, floor, |_, _| true)
            .unwrap();
        for pinned in [true, false] {
            let offered = Cell::new(None);
            let joined = PreparedScan::new(&table, &predicate)
                .unwrap()
                .with_range_index(column, &intervals, &residual, Some(&index), floor, |c, rows| {
                    offered.set(Some(c));
                    pinned || prefer_index(c, rows)
                })
                .unwrap();
            prop_assert_eq!(offered.get(), Some(candidates));
            let (mut a, mut b) = (PruneCounts::default(), PruneCounts::default());
            for m in &morsels {
                let mut want = plain.scan_pruned(m.clone(), &mut a);
                let got = joined.scan_pruned(m.clone(), &mut b);
                if pinned {
                    // The index rows retained, the walked rows as walked.
                    let split = |rows: &[u32]| rows.partition_point(|&r| (r as usize) < sealed);
                    let (got_indexed, got_walked) = got.split_at(split(&got));
                    let (want_indexed, want_walked) = want.split_at(split(&want));
                    let mut retained = want_indexed.to_vec();
                    filter.retain(&mut retained);
                    prop_assert_eq!(got_indexed, &retained[..], "morsel {:?} floor {}", m, floor);
                    prop_assert_eq!(got_walked, want_walked, "morsel {:?}", m);
                } else {
                    let mut got = got;
                    filter.retain(&mut got);
                    filter.retain(&mut want);
                    prop_assert_eq!(got, want, "morsel {:?} floor {}", m, floor);
                }
            }
            if pinned {
                prop_assert_eq!(a, b);
            }
        }
    }
}

#[test]
fn a_floor_inside_a_piece_leaves_the_rows_below_it_unread() {
    // Every value in the interval, so every row at or past the floor is
    // selected and none below it.
    let table = grown(5, 1_000, &[C, C + 10], 4_096);
    let n = table.num_rows();
    let predicate = Predicate::between("g", 0, 6);
    for floor in [0, 999, 1_000 + C + 7, n - 3] {
        let scan = PreparedScan::new(&table, &predicate)
            .unwrap()
            .with_range_index("g", &[(0, 6)], &Predicate::True, None, floor, |_, _| true)
            .unwrap();
        let rows = scan.scan_pruned(0..n, &mut PruneCounts::default());
        assert_eq!(
            rows,
            (floor as u32..n as u32).collect::<Vec<_>>(),
            "{floor}"
        );
    }
}
