//! Property tests: zone-map pruning is semantically invisible.
//!
//! For random tables (Int64 / Int32 / dictionary columns, random value
//! distributions), random zone-map block sizes, random scan sub-ranges,
//! and random interval/membership predicate trees, the pruned scan must
//! return exactly the selection the row-at-a-time reference returns, and
//! its per-block verdict counts must account for every block the range
//! touches.

use laqy_engine::ops::{reference, PreparedScan};
use laqy_engine::{dict_column, Column, Predicate, PruneCounts, Table};
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

/// A table mixing clustered, shuffled, and low-cardinality columns so
/// verdicts of all three kinds (skip / take-all / scan) actually occur.
fn build_table(seed: u64, rows: usize, block: usize) -> Table {
    let mut rng = Rng(seed);
    let clustered: Vec<i64> = (0..rows as i64).collect();
    let noisy: Vec<i64> = (0..rows)
        .map(|i| i as i64 + rng.below(20) as i64 - 10)
        .collect();
    let shuffled: Vec<i32> = (0..rows).map(|_| rng.below(1000) as i32).collect();
    let tags = ["a", "b", "c", "d"];
    let tag_col = dict_column((0..rows).map(|i| {
        // Runs of one tag so dictionary zone maps get tight ranges.
        tags[(i / block.max(1)) % tags.len()]
    }));
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

/// A random predicate tree over the table's columns, depth-bounded.
/// `tags_present` bounds dictionary equality to values the table's `tag`
/// column actually contains (compile fails fast on unknown values).
fn build_predicate(rng: &mut Rng, rows: i64, tags_present: usize, depth: usize) -> Predicate {
    let leaf = |rng: &mut Rng| -> Predicate {
        match rng.below(5) {
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
            _ => Predicate::InInt {
                column: "ck".into(),
                values: (0..rng.below(4) + 1)
                    .map(|_| rng.below(rows.max(1) as u64) as i64)
                    .collect(),
            },
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(6) {
        0 => Predicate::And(
            (0..2 + rng.below(2))
                .map(|_| build_predicate(rng, rows, tags_present, depth - 1))
                .collect(),
        ),
        1 => Predicate::Or(
            (0..2 + rng.below(2))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pruned_scan_is_invisible(
        seed in 0u64..100_000,
        rows in 1usize..500,
        block in 1usize..96,
        range_seed in 0u64..10_000,
        depth in 0usize..3,
    ) {
        let table = build_table(seed, rows, block);
        let mut rng = Rng(seed ^ range_seed.rotate_left(17));
        let tags_present = rows.div_ceil(block).clamp(1, 4);
        let predicate = build_predicate(&mut rng, rows as i64, tags_present, depth);

        // Random sub-range (possibly empty, possibly the whole table).
        let a = rng.below(rows as u64 + 1) as usize;
        let b = rng.below(rows as u64 + 1) as usize;
        let (lo, hi) = (a.min(b), a.max(b));

        let reference = reference::eval_rows(&predicate.compile(&table).unwrap(), lo..hi);
        let mut counts = PruneCounts::default();
        let scan = PreparedScan::new(&table, &predicate).unwrap();
        let pruned = scan.scan_pruned(lo..hi, &mut counts);
        prop_assert_eq!(&pruned, &reference);

        // Every block the range touches got exactly one verdict.
        let touched = table
            .synopsis()
            .map(|s| s.blocks_of(lo..hi).count() as u64)
            .unwrap_or(0);
        prop_assert_eq!(counts.total(), touched);

        // Verdicts are sound in aggregate: skipped blocks contributed no
        // rows, so the selection fits inside non-skipped blocks' capacity.
        let capacity = (counts.fast_pathed + counts.scanned) * block as u64;
        prop_assert!(pruned.len() as u64 <= capacity.min((hi - lo) as u64));
    }

    #[test]
    fn full_table_scan_equivalence(
        seed in 0u64..100_000,
        rows in 1usize..300,
        block in 1usize..64,
    ) {
        // True/False and bare equality predicates across the whole table.
        let table = build_table(seed, rows, block);
        for predicate in [
            Predicate::True,
            Predicate::False,
            Predicate::eq_str("tag", "a"),
            Predicate::Not(Box::new(Predicate::between("ck", 0, rows as i64 / 2))),
        ] {
            let reference = reference::eval_rows(&predicate.compile(&table).unwrap(), 0..rows);
            let mut counts = PruneCounts::default();
            let scan = PreparedScan::new(&table, &predicate).unwrap();
            let pruned = scan.scan_pruned(0..rows, &mut counts);
            prop_assert_eq!(pruned, reference);
        }
    }
}
