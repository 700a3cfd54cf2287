//! A table grown by appends answers like a flat table of the same rows.
//!
//! `laqy_engine::Table` stores columns as a base piece plus chunks shared
//! between versions; the sampling pipeline reads them through typed views.
//! These tests pin the two properties the layout must not disturb: the
//! same seeded queries return bit-identical answers whichever layout holds
//! the rows, and a stored sample that absorbs ingested batches still
//! carries exactly the weight of the rows its predicate selects.

use laqy::{ApproxQuery, Interval, LaqyService, SessionConfig};
use laqy_engine::{
    AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table, STORED_CHUNK_ROWS,
};

const ROWS: usize = 4 * STORED_CHUNK_ROWS + 1_234;
const DAYS: i64 = 60;

/// Rows `rows` of a Q1-shaped fact table: a shuffled unique range key, a
/// low-cardinality stratification column, and an integer and a float
/// measure.
fn rows_of(rows: std::ops::Range<usize>) -> Vec<(String, Column)> {
    let scramble = |r: usize| (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    vec![
        (
            // 7919 is coprime to ROWS, so the keys are a permutation.
            "key".into(),
            Column::Int64(rows.clone().map(|r| (r * 7919 % ROWS) as i64).collect()),
        ),
        (
            "day".into(),
            Column::Int32(
                rows.clone()
                    .map(|r| (scramble(r) % DAYS as u64) as i32)
                    .collect(),
            ),
        ),
        (
            "revenue".into(),
            Column::Int64(
                rows.clone()
                    .map(|r| 100 + (scramble(r) % 9_000) as i64)
                    .collect(),
            ),
        ),
        (
            "price".into(),
            Column::Float64(rows.map(|r| scramble(r) as f64 / 977.0).collect()),
        ),
    ]
}

fn query(lo: i64, hi: i64) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "t".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("day")],
            aggs: vec![
                AggSpec::sum("revenue"),
                AggSpec::avg("price"),
                AggSpec::count(),
            ],
        },
        range_column: "key".into(),
        range: Interval::new(lo, hi),
        k: 16,
    }
}

fn service(table: Table) -> LaqyService {
    let mut catalog = Catalog::new();
    catalog.register(table);
    LaqyService::with_config(
        catalog,
        SessionConfig {
            threads: 1,
            seed: 42,
            ..Default::default()
        },
    )
}

/// `base` rows at construction, the rest appended in batches that fill,
/// stop short of and spill over chunk boundaries.
fn grown(base: usize) -> Table {
    let mut table = Table::new("t", rows_of(0..base)).unwrap();
    let mut at = base;
    for added in [
        2_000,
        STORED_CHUNK_ROWS - 2_000,
        1,
        STORED_CHUNK_ROWS + 777,
        0,
    ] {
        table = table.append_batch(&rows_of(at..at + added)).unwrap();
        at += added;
    }
    table.append_batch(&rows_of(at..ROWS)).unwrap()
}

#[test]
fn seeded_queries_answer_bit_identically_on_grown_and_flat_tables() {
    let n = ROWS as i64;
    for base in [0, 1_000, STORED_CHUNK_ROWS + 5] {
        // Same seed on both sides, so every RNG stream lines up.
        let flat = service(Table::new("t", rows_of(0..ROWS)).unwrap());
        let grown = service(grown(base));
        // Online run, Δ-merge onto it, then a tightened full hit: every
        // path that reads table columns or the sample built from them.
        for (lo, hi) in [(n / 4, n / 2), (n / 8, 3 * n / 4), (n / 3, n / 3 + 2_000)] {
            let (g, f) = (
                grown.run(&query(lo, hi)).unwrap(),
                flat.run(&query(lo, hi)).unwrap(),
            );
            assert_eq!(g.stats.reuse, f.stats.reuse, "base {base}, [{lo}, {hi}]");
            assert_eq!(g.stats.scanned_rows, f.stats.scanned_rows);
            // `{:?}` of an f64 round-trips, so equal text is equal bits.
            assert_eq!(
                format!("{:?}", g.groups),
                format!("{:?}", f.groups),
                "base {base}, [{lo}, {hi}]"
            );
            assert_eq!(format!("{:?}", g.support), format!("{:?}", f.support));
        }
    }
}

#[test]
fn ingest_keeps_stored_sample_weight_equal_to_the_exact_predicate_count() {
    let base = STORED_CHUNK_ROWS - 500;
    let svc = service(Table::new("t", rows_of(0..base)).unwrap());
    let n = ROWS as i64;
    // Disjoint ranges: the store may keep them as two samples or as one
    // with a two-interval predicate; the identity holds either way.
    svc.run(&query(n / 10, n / 2)).unwrap();
    svc.run(&query(3 * n / 5, 4 * n / 5)).unwrap();
    let mut at = base;
    for added in [300, 200, 1, 2_000, STORED_CHUNK_ROWS + 9, 0, 700] {
        let watermark = svc.ingest("t", rows_of(at..at + added)).unwrap();
        at += added;
        assert_eq!(watermark, at as u64);
        let table = svc.catalog().table("t").unwrap().clone();
        let key = table.column("key").unwrap();
        let store = svc.store();
        assert!(!store.is_empty());
        for (id, stored) in store.iter() {
            assert_eq!(stored.watermark, at as u64, "{id:?} caught up");
            let range = stored.descriptor.predicates.get("key").unwrap();
            let exact = (0..at).filter(|&r| range.contains(key.i64_at(r))).count();
            assert_eq!(
                stored.sample.total_weight(),
                exact as u64,
                "{id:?} after {at} rows: Σ stratum weights must equal the rows its predicate selects"
            );
        }
    }
    assert_eq!(svc.stats().ingest_rows, (at - base) as u64);
}
