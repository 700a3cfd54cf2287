//! Property tests: vectorized batch kernels ≡ the row-at-a-time
//! reference evaluator.
//!
//! For random tables (Int64 / Int32 / dictionary columns), random
//! predicate trees over every combinator (including `IN` lists wide
//! enough to take the sorted-search kernel and narrow enough to take the
//! dense bitmap), and row counts chosen to straddle both the 64-bit word
//! boundary and the 1024-row chunk boundary, the kernel scans must return
//! exactly what `ops::reference` (per-row `Compiled::matches`) returns —
//! and the fused filter+aggregate execution must equal aggregating the
//! reference selection.

use laqy_engine::kernel::decode_mask;
use laqy_engine::ops::aggregate::bind_table_cols;
use laqy_engine::ops::{group_by, reference, BoundCol, ExactAggFactory, Inputs, PreparedScan};
use laqy_engine::{
    dict_column, execute_exact, AggSpec, BatchKernel, Catalog, Column, Predicate, PruneCounts,
    QueryPlan, Table, CHUNK_ROWS, MASK_WORDS,
};
use proptest::prelude::*;

/// Deterministic splitmix64 for data/predicate generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A table mixing clustered, shuffled, and low-cardinality columns. Row
/// counts are chosen by the properties to land on and off multiples of 64
/// (mask words) and 1024 (kernel chunks).
fn build_table(seed: u64, rows: usize, block: usize) -> Table {
    let mut rng = Rng(seed);
    let clustered: Vec<i64> = (0..rows as i64).collect();
    let noisy: Vec<i64> = (0..rows)
        .map(|i| i as i64 + rng.below(20) as i64 - 10)
        .collect();
    let shuffled: Vec<i32> = (0..rows).map(|_| rng.below(1000) as i32).collect();
    let tags = ["a", "b", "c", "d"];
    let tag_col = dict_column((0..rows).map(|i| tags[(i / block.max(1)) % tags.len()]));
    Table::with_zone_map_rows(
        "t",
        vec![
            ("ck".into(), Column::Int64(clustered)),
            ("nk".into(), Column::Int64(noisy)),
            ("sk".into(), Column::Int32(shuffled)),
            ("tag".into(), tag_col),
        ],
        block,
    )
    .unwrap()
}

/// A random predicate tree exercising every kernel shape: ranges on all
/// three column layouts, narrow `IN` lists (dense-bitmap kernel), wide
/// sparse `IN` lists (sorted-search kernel), and And/Or/Not combines.
fn build_predicate(rng: &mut Rng, rows: i64, tags_present: usize, depth: usize) -> Predicate {
    let leaf = |rng: &mut Rng| -> Predicate {
        match rng.below(7) {
            0 => {
                let lo = rng.below(rows.max(1) as u64) as i64 - 5;
                Predicate::between("ck", lo, lo + rng.below(rows.max(1) as u64) as i64)
            }
            1 => {
                let lo = rng.below(rows.max(1) as u64) as i64 - 10;
                Predicate::between("nk", lo, lo + rng.below(60) as i64)
            }
            2 => {
                let lo = rng.below(1000) as i64;
                Predicate::between("sk", lo, lo + rng.below(300) as i64)
            }
            3 => Predicate::eq_str(
                "tag",
                ["a", "b", "c", "d"][rng.below(tags_present as u64) as usize],
            ),
            4 => Predicate::InInt {
                // Narrow span: compiles to the dense value bitmap.
                column: "sk".into(),
                values: (0..rng.below(6) + 1)
                    .map(|_| rng.below(1000) as i64)
                    .collect(),
            },
            5 => Predicate::InInt {
                // Values spread over a > 4096 span: sorted binary search.
                column: "ck".into(),
                values: (0..rng.below(5) + 1)
                    .map(|_| rng.below(rows.max(1) as u64) as i64 * 97 - 2048)
                    .collect(),
            },
            _ => Predicate::InInt {
                column: "ck".into(),
                values: match rng.below(3) {
                    // Empty list (matches nothing) and contiguous runs
                    // (collapse to a range kernel).
                    0 => Vec::new(),
                    1 => {
                        let base = rng.below(rows.max(1) as u64) as i64;
                        (base..base + 4).collect()
                    }
                    _ => vec![rng.below(rows.max(1) as u64) as i64],
                },
            },
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(6) {
        0 => Predicate::And(
            (0..rng.below(3))
                .map(|_| build_predicate(rng, rows, tags_present, depth - 1))
                .collect(),
        ),
        1 => Predicate::Or(
            (0..rng.below(3))
                .map(|_| build_predicate(rng, rows, tags_present, depth - 1))
                .collect(),
        ),
        2 => Predicate::Not(Box::new(build_predicate(
            rng,
            rows,
            tags_present,
            depth - 1,
        ))),
        _ => leaf(rng),
    }
}

/// Row counts straddling the mask-word (64) and chunk (1024) boundaries:
/// exact multiples, one off either side, and arbitrary fillers.
fn straddling_rows(pick: u64, filler: usize) -> usize {
    match pick {
        0 => 63,
        1 => 64,
        2 => 65,
        3 => 1023,
        4 => 1024,
        5 => 1025,
        6 => 2048,
        7 => 2113, // 2 chunks + a partial word + 1
        _ => filler.max(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unpruned kernel scan ≡ per-row reference, over random sub-ranges
    /// whose endpoints are unaligned to both words and chunks. The kernel
    /// sees full 1024-row chunks here, which the pruned walk (cut at
    /// zone-map block boundaries) never hands it on these tables.
    #[test]
    fn kernel_scan_equals_reference(
        seed in 0u64..100_000,
        pick in 0u64..9,
        filler in 1usize..1500,
        block in 8usize..96,
        depth in 0usize..3,
    ) {
        let rows = straddling_rows(pick, filler);
        let table = build_table(seed, rows, block);
        let mut rng = Rng(seed.rotate_left(23) ^ 0x5EED);
        let tags_present = rows.div_ceil(block).clamp(1, 4);
        let predicate = build_predicate(&mut rng, rows as i64, tags_present, depth);

        let a = rng.below(rows as u64 + 1) as usize;
        let b = rng.below(rows as u64 + 1) as usize;
        let (lo, hi) = (a.min(b), a.max(b));

        let compiled = predicate.compile(&table).unwrap();
        let batch = BatchKernel::compile(&compiled);
        let mut kernel = Vec::new();
        let mut mask = [0u64; MASK_WORDS];
        for base in (lo..hi).step_by(CHUNK_ROWS) {
            batch.eval_chunk(base, CHUNK_ROWS.min(hi - base), &mut mask);
            decode_mask(&mask, base, &mut kernel);
        }
        let expected = reference::eval_rows(&compiled, lo..hi);
        prop_assert_eq!(kernel, expected);
    }

    /// Pruned kernel scan ≡ reference, and the scan floor (a keyless
    /// `COUNT(*)` through the fused group-by) matches the decoded
    /// selection's length with identical verdict counters.
    #[test]
    fn pruned_kernel_scan_and_count_equal_reference(
        seed in 0u64..100_000,
        pick in 0u64..9,
        filler in 1usize..1500,
        block in 8usize..96,
        depth in 0usize..3,
    ) {
        let rows = straddling_rows(pick, filler);
        let table = build_table(seed, rows, block);
        let mut rng = Rng(seed.rotate_left(7) ^ 0xF00D);
        let tags_present = rows.div_ceil(block).clamp(1, 4);
        let predicate = build_predicate(&mut rng, rows as i64, tags_present, depth);

        let compiled = predicate.compile(&table).unwrap();
        let expected = reference::eval_rows(&compiled, 0..rows);

        let scan = PreparedScan::new(&table, &predicate).unwrap();
        let mut counts = PruneCounts::default();
        let pruned = scan.scan_pruned(0..rows, &mut counts);
        prop_assert_eq!(&pruned, &expected);

        drop(scan);
        let mut catalog = Catalog::new();
        catalog.register(table);
        let plan = QueryPlan {
            fact: "t".into(),
            predicate,
            joins: vec![],
            group_by: vec![],
            aggs: vec![AggSpec::count()],
        };
        let (result, count_counts) = execute_exact(&catalog, &plan, 1).unwrap();
        let n = result.rows.first().map_or(0.0, |r| r.values[0]);
        prop_assert_eq!(n, expected.len() as f64);
        prop_assert_eq!(counts, count_counts);
    }

    /// Fused filter+aggregate execution (chunk masks and TakeAll ranges
    /// feeding the group-by directly) ≡ aggregating the reference
    /// selection through the selection-vector path. All inputs are
    /// integer-valued, so f64 accumulation is exact and equality is
    /// bitwise.
    #[test]
    fn fused_aggregate_equals_filter_then_aggregate(
        seed in 0u64..100_000,
        pick in 0u64..9,
        filler in 1usize..1500,
        block in 8usize..96,
        depth in 0usize..2,
        keyless_pick in 0u64..2,
    ) {
        let keyless = keyless_pick == 1;
        let rows = straddling_rows(pick, filler);
        let table = build_table(seed, rows, block);
        let mut rng = Rng(seed.rotate_left(31) ^ 0xA66);
        let tags_present = rows.div_ceil(block).clamp(1, 4);
        let predicate = build_predicate(&mut rng, rows as i64, tags_present, depth);

        let specs = vec![
            AggSpec::sum("ck"),
            AggSpec::count(),
            AggSpec::sum_product("ck", "sk"),
            AggSpec {
                kind: laqy_engine::AggKind::Min,
                input: laqy_engine::AggInput::Col("sk".into()),
            },
            AggSpec {
                kind: laqy_engine::AggKind::Max,
                input: laqy_engine::AggInput::Col("nk".into()),
            },
            AggSpec::avg("ck"),
        ];

        // Reference: row-at-a-time filter, then group-by over the
        // selection vector.
        let compiled = predicate.compile(&table).unwrap();
        let sel = reference::eval_rows(&compiled, 0..rows);
        let key_cols: Vec<BoundCol> = if keyless {
            vec![]
        } else {
            vec![BoundCol::new(table.column("tag").unwrap(), Some(&sel))]
        };
        let agg_inputs: Vec<_> = specs.iter().map(|s| s.input.clone()).collect();
        let inputs = Inputs::bind(&agg_inputs, bind_table_cols(&table, Some(&sel))).unwrap();
        let expected = group_by(&key_cols, &inputs, sel.len(), &ExactAggFactory::new(&specs));

        // Fused: single-table plan through execute_exact.
        let mut catalog = Catalog::new();
        catalog.register(table);
        let plan = QueryPlan {
            fact: "t".into(),
            predicate,
            joins: vec![],
            group_by: if keyless {
                vec![]
            } else {
                vec![laqy_engine::ColRef::fact("tag")]
            },
            aggs: specs,
        };
        let (result, _) = execute_exact(&catalog, &plan, 1).unwrap();

        prop_assert_eq!(result.rows.len(), expected.len());
        let tag = catalog.table("t").unwrap().column("tag").unwrap();
        for (key, agg) in &expected.map {
            let decoded: Vec<_> = key.parts().iter().map(|&p| tag.decode_key(p)).collect();
            let row = result.row_by_key(&decoded).unwrap();
            prop_assert_eq!(&row.values, &agg.finalize());
        }
    }
}
