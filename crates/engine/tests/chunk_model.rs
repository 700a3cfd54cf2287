//! Property tests: a table grown by appends ≡ a flat table of the same
//! rows.
//!
//! A [`Table`] stores each column as a base piece plus shared chunks
//! (`laqy_engine::column`); every reader goes through a typed view with a
//! contiguous-slice fast path and a chunk path. For random schemas (all
//! four column types; dictionary batches that assign their own codes and
//! bring unseen strings), base lengths on and off the 64 / 1024 /
//! chunk-size grids, and append schedules that end exactly on, one short
//! of and one past a chunk boundary (or span several chunks, or add no
//! rows), the grown table must be indistinguishable from `Table::new`
//! over the concatenated flat columns — on kernel masks at every aligned
//! and unaligned base, pruned scans, exact group-by sums (bitwise), star
//! probes, gathers, and the zone maps of every column.

use laqy_engine::ops::{build_join_map, gather, materialize, star_probe, PreparedScan};
use laqy_engine::{
    dict_column, execute_exact, AggInput, AggKind, AggSpec, BatchKernel, Catalog, ColRef, Column,
    Predicate, PruneCounts, QueryPlan, Table, CHUNK_ROWS, MASK_WORDS, STORED_CHUNK_ROWS,
};
use proptest::prelude::*;

const C: usize = STORED_CHUNK_ROWS;

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

/// A value that depends on the seed and the absolute row only, so the
/// same row reads the same whichever batch delivers it.
fn at(seed: u64, salt: u64, row: usize) -> u64 {
    Rng(seed
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ (row as u64).wrapping_mul(0xA24B_AED4_963E_E407))
    .next()
}

const TAGS: [&str; 9] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];

/// Rows `rows` of the schema `seed` picks: always one column of each of
/// the four types, plus up to two optional ones, in a seed-chosen order.
/// Dictionary columns are built per call, so a batch assigns its own
/// codes (first-seen order inside the batch) and later batches bring
/// strings the table has not seen.
fn rows_of(seed: u64, rows: std::ops::Range<usize>) -> Vec<(String, Column)> {
    let mut cols: Vec<(String, Column)> = vec![
        (
            "ck".into(),
            Column::Int64(
                rows.clone()
                    .map(|r| r as i64 + (at(seed, 1, r) % 9) as i64)
                    .collect(),
            ),
        ),
        (
            "sk".into(),
            Column::Int32(
                rows.clone()
                    .map(|r| (at(seed, 2, r) % 1000) as i32 - 100)
                    .collect(),
            ),
        ),
        (
            "g".into(),
            Column::Int64(rows.clone().map(|r| (at(seed, 3, r) % 7) as i64).collect()),
        ),
        (
            "f".into(),
            Column::Float64(
                rows.clone()
                    .map(|r| (at(seed, 4, r) % 100_000) as f64 / 7.0)
                    .collect(),
            ),
        ),
        (
            "tag".into(),
            // The string pool widens with the row, and runs of equal tags
            // make some zone blocks constant.
            dict_column(rows.clone().map(|r| {
                let pool = 2 + r / 6_000;
                TAGS[(at(seed, 5, r / 50) % pool as u64) as usize % TAGS.len()]
            })),
        ),
    ];
    if seed.is_multiple_of(2) {
        cols.push((
            "x".into(),
            Column::Int32(rows.clone().map(|r| (r / 300) as i32).collect()),
        ));
    }
    if seed.is_multiple_of(3) {
        cols.push((
            "y".into(),
            Column::Float64(rows.map(|r| at(seed, 6, r) as f64 * 1e-9).collect()),
        ));
    }
    let shift = (seed / 7) as usize % cols.len();
    cols.rotate_left(shift);
    cols
}

/// Base lengths on and off every grid the layout has.
fn base_rows(pick: u64, filler: usize) -> usize {
    match pick {
        0 => 0,
        1 => 1,
        2 => 63,
        3 => 1024,
        4 => 1025,
        5 => C - 1,
        6 => C,
        7 => C + 1,
        _ => filler,
    }
}

/// Batch sizes for one schedule: sizes relative to the open chunk (fill
/// it exactly, stop one short, run one past), empty batches, small ones,
/// and batches spanning several chunks.
fn schedule(rng: &mut Rng, appends: usize) -> Vec<usize> {
    let mut open = 0usize; // rows in the open chunk
    let mut out = Vec::new();
    let mut total = 0usize;
    for _ in 0..appends {
        let to_boundary = C - open;
        let added = match rng.below(8) {
            0 => 0,
            1 => 1,
            2 => to_boundary,
            3 => to_boundary - 1,
            4 => to_boundary + 1,
            5 if total < 2 * C => 2 * C + rng.below(3_000) as usize,
            _ => 1 + rng.below(3_000) as usize,
        };
        open = (open + added) % C;
        total += added;
        out.push(added);
    }
    out
}

/// The grown table, its flat rebuild, and the row count.
fn grown_and_flat(seed: u64, base: usize, batches: &[usize], zone_rows: usize) -> (Table, Table) {
    let mut flat = rows_of(seed, 0..base);
    let mut grown = Table::with_zone_map_rows("t", rows_of(seed, 0..base), zone_rows).unwrap();
    let mut rows = base;
    for &added in batches {
        let batch = rows_of(seed, rows..rows + added);
        for (name, col) in &mut flat {
            let incoming = &batch.iter().find(|(n, _)| n == name).unwrap().1;
            col.append(name, incoming).unwrap();
        }
        // The batch's column order is the schema's; reverse it to check
        // that columns are matched by name.
        let reversed: Vec<_> = batch.into_iter().rev().collect();
        grown = grown.append_batch(&reversed).unwrap();
        rows += added;
    }
    let flat = Table::with_zone_map_rows("t", flat, zone_rows).unwrap();
    assert_eq!(grown.num_rows(), rows);
    assert_eq!(flat.num_rows(), rows);
    (grown, flat)
}

fn predicates(rng: &mut Rng, rows: usize) -> Vec<Predicate> {
    let n = rows.max(1) as u64;
    let lo = rng.below(n) as i64;
    let tag = TAGS[rng.below(2) as usize];
    vec![
        Predicate::between("ck", lo, lo + rng.below(n) as i64),
        Predicate::between("sk", -50, rng.below(900) as i64),
        Predicate::eq_str("tag", tag),
        Predicate::InInt {
            column: "sk".into(),
            values: (0..5).map(|_| rng.below(900) as i64).collect(),
        },
        Predicate::InInt {
            column: "ck".into(),
            values: (0..4).map(|_| rng.below(n) as i64 * 3).collect(),
        },
        Predicate::Or(vec![
            Predicate::between("ck", lo, lo + 2_000),
            Predicate::Not(Box::new(Predicate::between("g", 1, 5))),
        ]),
        Predicate::between("ck", lo, lo + rng.below(n) as i64).and(Predicate::eq_str("tag", tag)),
        Predicate::True,
    ]
}

fn masks(table: &Table, predicate: &Predicate, bases: &[usize]) -> Vec<[u64; MASK_WORDS]> {
    let compiled = predicate.compile(table).unwrap();
    let kernel = BatchKernel::compile(&compiled);
    let n = table.num_rows();
    bases
        .iter()
        .map(|&base| {
            let mut mask = [0u64; MASK_WORDS];
            kernel.eval_chunk(base, CHUNK_ROWS.min(n - base), &mut mask);
            mask
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn grown_table_equals_flat_rebuild(
        seed in 0u64..1_000_000,
        pick in 0u64..10,
        filler in 2usize..40_000,
        appends in 1usize..7,
        zone_pick in 0u64..4,
    ) {
        let mut rng = Rng(seed.rotate_left(17) ^ 0xC0FFEE);
        let base = base_rows(pick, filler);
        let batches = schedule(&mut rng, appends);
        let zone_rows = [64, 1_000, 4_096, 65_536][zone_pick as usize];
        let (grown, flat) = grown_and_flat(seed, base, &batches, zone_rows);
        let n = grown.num_rows();
        prop_assert_eq!(grown.epoch(), batches.len() as u64);

        // Values and dictionaries, at piece boundaries and at random.
        let mut probe_rows: Vec<usize> = (0..64).map(|_| rng.below(n as u64) as usize).collect();
        for edge in [0, base, base + C, base + 2 * C, n] {
            probe_rows.extend((edge.saturating_sub(2)..edge + 2).filter(|&r| r < n));
        }
        if n == 0 {
            probe_rows.clear();
        }
        for (name, g) in grown.columns() {
            let f = flat.column(name).unwrap();
            prop_assert_eq!(g.len(), f.len());
            prop_assert_eq!(g.data_type(), f.data_type());
            for &r in &probe_rows {
                prop_assert_eq!(g.value(r), f.value(r), "{}[{}]", name, r);
                prop_assert_eq!(g.i64_at(r), f.i64_at(r));
                prop_assert_eq!(g.f64_at(r).to_bits(), f.f64_at(r).to_bits());
            }
        }

        // Kernel masks: every 1024-aligned base (what morsels issue and
        // what the benchmark's probe steps by) and unaligned ones.
        let mut chunk_bases: Vec<usize> = (0..n).step_by(CHUNK_ROWS).collect();
        chunk_bases.extend((0..24).map(|_| rng.below(n as u64) as usize).filter(|&b| b < n));
        for edge in [base, base + C, base + 2 * C] {
            chunk_bases.extend((edge.saturating_sub(1_023)..=edge).step_by(341).filter(|&b| b < n));
        }
        // A tiny table may not hold the probed tag yet; both layouts must
        // then reject the predicate alike.
        let mut preds = predicates(&mut rng, n);
        preds.retain(|p| {
            let compiles = p.compile(&flat).is_ok();
            assert_eq!(p.compile(&grown).is_ok(), compiles, "{p:?}");
            compiles
        });
        for p in &preds {
            prop_assert_eq!(masks(&grown, p, &chunk_bases), masks(&flat, p, &chunk_bases), "{:?}", p);
        }

        // Pruned and block-masked scans over random ranges.
        for p in &preds {
            let (gs, fs) = (PreparedScan::new(&grown, p).unwrap(), PreparedScan::new(&flat, p).unwrap());
            let a = rng.below(n as u64 + 1) as usize;
            let b = rng.below(n as u64 + 1) as usize;
            for range in [0..n, a.min(b)..a.max(b)] {
                let (mut gc, mut fc) = (PruneCounts::default(), PruneCounts::default());
                prop_assert_eq!(gs.scan_pruned(range.clone(), &mut gc), fs.scan_pruned(range.clone(), &mut fc));
                prop_assert_eq!(gc, fc);
                let blocks = n.div_ceil(zone_rows);
                let covered: Vec<bool> = (0..blocks).map(|_| rng.below(4) == 0).collect();
                let (mut gc, mut fc) = (PruneCounts::default(), PruneCounts::default());
                let (mut gl, mut fl) = (0u64, 0u64);
                prop_assert_eq!(
                    gs.scan_pruned_masked(range.clone(), &mut gc, &covered, &mut gl),
                    fs.scan_pruned_masked(range, &mut fc, &covered, &mut fl)
                );
                prop_assert_eq!((gc, gl), (fc, fl));
            }
        }

        // Synopsis: the zone-map bounds of every column, open blocks
        // continued across appends included; floats have none.
        let (gsyn, fsyn) = (grown.synopsis().unwrap(), flat.synopsis().unwrap());
        prop_assert_eq!(gsyn.num_blocks(), fsyn.num_blocks());
        for (name, col) in grown.columns() {
            prop_assert_eq!(gsyn.column(name), fsyn.column(name), "{} zone", name);
            let zoned = col.data_type() != laqy_engine::DataType::Float64;
            prop_assert_eq!(gsyn.column(name).is_some(), zoned, "{} zone presence", name);
        }

        // Star probe and gather/materialize over a selection.
        let selection = PreparedScan::new(&grown, &preds[0]).unwrap().scan_pruned(0..n, &mut PruneCounts::default());
        let dim = Table::new(
            "d",
            vec![
                ("key".into(), Column::Int64((0..5).collect())),
                ("label".into(), dict_column(["p", "q", "r", "s", "t"])),
            ],
        )
        .unwrap();
        let map = build_join_map(&dim, "key", &Predicate::True).unwrap();
        let (gp, fp) = (
            star_probe(&grown, &selection, &[(&map, "g")]).unwrap(),
            star_probe(&flat, &selection, &[(&map, "g")]).unwrap(),
        );
        prop_assert_eq!(&gp.fact_rows, &fp.fact_rows);
        prop_assert_eq!(&gp.dim_rows, &fp.dim_rows);
        let picks: Vec<u32> = probe_rows.iter().map(|&r| r as u32).collect();
        for (name, g) in grown.columns() {
            prop_assert_eq!(
                format!("{:?}", gather(g, &picks)),
                format!("{:?}", gather(flat.column(name).unwrap(), &picks))
            );
            prop_assert_eq!(format!("{:?}", g.take(0..n)), format!("{:?}", flat.column(name).unwrap().take(0..n)));
        }
        let (gm, fm) = (
            materialize("m", &grown, &["f", "tag"], &gp.fact_rows).unwrap(),
            materialize("m", &flat, &["f", "tag"], &fp.fact_rows).unwrap(),
        );
        prop_assert_eq!(gm.num_rows(), fm.num_rows());
        for (name, g) in gm.columns() {
            prop_assert_eq!(format!("{:?}", g.take(0..gm.num_rows())), format!("{:?}", fm.column(name).unwrap().take(0..fm.num_rows())));
        }

        // Exact group-by: f64 sums in row order, compared bitwise, and the
        // verdicts its walk met.
        let aggs = vec![
            AggSpec::sum("f"),
            AggSpec::sum_product("f", "sk"),
            AggSpec::avg("f"),
            AggSpec::count(),
            AggSpec { kind: AggKind::Min, input: AggInput::Col("ck".into()) },
            AggSpec { kind: AggKind::Max, input: AggInput::Col("f".into()) },
        ];
        for (group_by, predicate) in [
            (vec![ColRef::fact("tag")], preds[0].clone()),
            (vec![ColRef::fact("g"), ColRef::fact("tag")], preds[1].clone()),
            (vec![], Predicate::True),
        ] {
            let plan = QueryPlan { fact: "t".into(), predicate, joins: vec![], group_by, aggs: aggs.clone() };
            let run = |table: &Table| {
                let mut catalog = Catalog::new();
                catalog.register(table.clone());
                execute_exact(&catalog, &plan, 1).unwrap()
            };
            let ((g, gc), (f, fc)) = (run(&grown), run(&flat));
            prop_assert_eq!(gc, fc);
            prop_assert_eq!(g.rows.len(), f.rows.len());
            for (gr, fr) in g.rows.iter().zip(&f.rows) {
                prop_assert_eq!(&gr.key, &fr.key);
                prop_assert_eq!(bits(&gr.values), bits(&fr.values), "{:?}", gr.key);
            }
        }
    }
}
