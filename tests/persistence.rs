//! Persistence integration: sample stores survive a session restart and
//! keep answering with full/partial reuse — online samples become offline
//! samples.

use laqy::{ApproxQuery, Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};
use laqy_workload::{generate, lineorder_batch, q1, q2, SsbConfig};

const SSB: SsbConfig = SsbConfig {
    scale_factor: 0.003,
    seed: 0x9E,
};

fn catalog() -> Catalog {
    generate(&SSB)
}

fn session(cat: &Catalog, seed: u64) -> LaqyService {
    LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 1,
            seed,
            ..Default::default()
        },
    )
}

#[test]
fn snapshot_roundtrip_preserves_reuse_behaviour() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;

    // Session 1: build coverage of [0, n/2) for both Q1 and Q2 shapes.
    let s1 = session(&cat, 1);
    s1.run(&q1(Interval::new(0, n / 2), 32)).unwrap();
    s1.run(&q2(Interval::new(0, n / 2), 32)).unwrap();
    let snapshot = s1.export_samples();
    assert_eq!(s1.store().len(), 2);

    // Session 2 ("restart"): import and verify all three reuse classes.
    let s2 = session(&cat, 2);
    s2.import_samples(&snapshot).unwrap();
    assert_eq!(s2.store().len(), 2);

    let r = s2.run(&q1(Interval::new(0, n / 4), 32)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    let r = s2.run(&q1(Interval::new(0, 3 * n / 4), 32)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
    let r = s2.run(&q2(Interval::new(n / 8, n / 3), 32)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
}

#[test]
fn snapshot_estimates_match_pre_restart_estimates() {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let query = q1(Interval::new(0, n / 2), 64);

    let s1 = session(&cat, 3);
    s1.run(&query).unwrap();
    // Full-reuse answers are deterministic functions of the stored sample.
    let before = s1.run(&query).unwrap();
    let snapshot = s1.export_samples();

    let s2 = session(&cat, 999); // different executor seed: no resampling happens
    s2.import_samples(&snapshot).unwrap();
    let after = s2.run(&query).unwrap();
    assert_eq!(after.stats.reuse, Some(ReuseClass::Full));
    assert_eq!(
        before.groups, after.groups,
        "estimates must survive restart"
    );
}

#[test]
fn corrupt_snapshot_is_rejected_not_panicking() {
    let cat = catalog();
    let s = session(&cat, 4);
    let mut snapshot = s.export_samples();
    snapshot[0] ^= 0xFF;
    assert!(s.import_samples(&snapshot).is_err());
    // The session keeps working after a failed import.
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    assert!(s.run(&q1(Interval::new(0, n / 2), 16)).is_ok());
}

/// `key` and `g = key % 4` over `keys`.
fn stream_columns(keys: std::ops::Range<i64>) -> Vec<(String, Column)> {
    vec![
        ("key".into(), Column::Int64(keys.clone().collect())),
        ("g".into(), Column::Int64(keys.map(|k| k % 4).collect())),
    ]
}

#[test]
fn restored_samples_never_answer_rows_the_table_does_not_hold() {
    // A snapshot cut after an ingest, restored over the table as it was
    // before the ingest: every restore must drop the sample past the live
    // watermark instead of answering a full hit over 2 500 rows of a
    // 2 000-row table.
    let mut base = Catalog::new();
    base.register(Table::new("t", stream_columns(0..2_000)).unwrap());
    let query = ApproxQuery {
        plan: QueryPlan {
            fact: "t".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::count()],
        },
        range_column: "key".into(),
        range: Interval::new(0, 2_499),
        k: 16,
    };
    let grown = session(&base, 5);
    grown.ingest("t", stream_columns(2_000..2_500)).unwrap();
    grown.run(&query).unwrap();
    let snapshot = grown.export_samples();
    let dir = std::env::temp_dir().join(format!("laqy-phantom-rows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    grown.save_snapshot(&dir.join("snap")).unwrap();

    let imported = session(&base, 6);
    imported.import_samples(&snapshot).unwrap();
    let recovered = session(&base, 7);
    recovered
        .recover_with_wal(&dir.join("snap"), &dir.join("wal"))
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    for restored in [imported, recovered] {
        assert_eq!(
            restored.store().len(),
            0,
            "the sample past the watermark stays"
        );
        let (exact, _) = restored.run_exact(&query).unwrap();
        let answer = restored.run(&query).unwrap();
        assert_ne!(answer.stats.reuse, Some(ReuseClass::Full));
        let total: f64 = answer.groups.iter().map(|g| g.values[0].value).sum();
        let exact_total: f64 = exact.rows.iter().map(|r| r.values[0]).sum();
        assert_eq!((total, exact_total), (2_000.0, 2_000.0));
    }
}

#[test]
fn wal_recovery_keeps_samples_above_a_join() {
    // A Q2 sample joins `date`, `supplier` and `part`. Recovery absorbs
    // only the tables its WAL replay grew, so the sample survives an empty
    // log as a full hit, and a logged `lineorder` batch as a stored sample
    // whose new rows one tail fragment scans.
    const BATCH: usize = 500;
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows();
    let query = q2(Interval::new(0, (n + BATCH) as i64 - 1), 32);
    let live = session(&cat, 8);
    live.run(&query).unwrap();
    let dir = std::env::temp_dir().join(format!("laqy-wal-join-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap = dir.join("snap");
    live.save_snapshot(&snap).unwrap();

    for batches in [0, 1] {
        let wal = dir.join(format!("wal-{batches}"));
        if batches > 0 {
            let writer = session(&cat, 9);
            writer
                .recover_with_wal(&dir.join("no-snapshot"), &wal)
                .unwrap();
            writer
                .ingest("lineorder", lineorder_batch(&SSB, n, BATCH))
                .unwrap();
        }
        let recovered = session(&cat, 10);
        recovered.recover_with_wal(&snap, &wal).unwrap();
        assert_eq!(
            recovered.store().len(),
            1,
            "{batches} batches: sample dropped"
        );
        let r = recovered.run(&query).unwrap();
        if batches == 0 {
            assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
        } else {
            assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
            assert_eq!(r.stats.fragments_reused, 1);
            assert_eq!(r.stats.fragments_scanned, 1);
            assert_eq!(
                r.stats.scanned_rows, BATCH as u64,
                "the tail is the new rows"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `rows` of a table whose keys spread over `0..100_000` (7919 is coprime
/// to 100 000, so the keys of distinct rows differ), with two group
/// columns.
fn scattered_columns(rows: std::ops::Range<i64>) -> Vec<(String, Column)> {
    vec![
        (
            "key".into(),
            Column::Int64(rows.clone().map(|r| r * 7919 % 100_000).collect()),
        ),
        (
            "g".into(),
            Column::Int64(rows.clone().map(|r| r % 4).collect()),
        ),
        ("h".into(), Column::Int64(rows.map(|r| r % 3).collect())),
    ]
}

#[test]
fn racing_ingests_absorb_every_row_once_and_recover_to_the_same_watermark() {
    // Ingest absorbs stored samples after releasing the log's lock, so
    // these ingests' absorbs may interleave in either order; each is
    // bounded by its sample's watermark, so no row is lost or counted
    // twice.
    const BASE: i64 = 2_000;
    const THREADS: i64 = 3;
    const BATCHES: i64 = 4;
    const ROWS: i64 = 250;
    let mut base = Catalog::new();
    base.register(Table::new("t", scattered_columns(0..BASE)).unwrap());
    let query = |group: &str, lo: i64, hi: i64| ApproxQuery {
        plan: QueryPlan {
            fact: "t".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact(group)],
            aggs: vec![AggSpec::count()],
        },
        range_column: "key".into(),
        range: Interval::new(lo, hi),
        k: 16,
    };
    let dir = std::env::temp_dir().join(format!("laqy-racing-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = session(&base, 11);
    live.recover_with_wal(&dir.join("no-snapshot"), &dir.join("wal"))
        .unwrap();
    // Two simple samples (no fixed predicate, so both absorb): one over
    // every key, one over a box inside it, of different families.
    let whole = query("g", 0, 99_999);
    live.run(&whole).unwrap();
    live.run(&query("h", 20_000, 69_999)).unwrap();
    assert_eq!(live.store().len(), 2);

    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (live, start) = (&live, &start);
            scope.spawn(move || {
                start.wait();
                for b in 0..BATCHES {
                    let from = BASE + (t * BATCHES + b) * ROWS;
                    live.ingest("t", scattered_columns(from..from + ROWS))
                        .unwrap();
                }
            });
        }
    });

    let watermark = (BASE + THREADS * BATCHES * ROWS) as u64;
    let table = live.catalog().table("t").unwrap().clone();
    assert_eq!(table.row_watermark(), watermark);
    let key = table.column("key").unwrap();
    {
        let store = live.store();
        assert_eq!(store.len(), 2);
        for (id, stored) in store.iter() {
            assert_eq!(stored.watermark, watermark, "{id:?} caught up");
            let range = stored.descriptor.predicates.get("key").unwrap();
            let inside = (0..watermark as usize)
                .filter(|&r| range.contains(key.i64_at(r)))
                .count();
            assert_eq!(
                stored.sample.total_weight(),
                inside as u64,
                "{id:?}: Σ stratum weights must equal the rows inside its box"
            );
        }
    }
    let r = live.run(&whole).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    assert_eq!(r.stats.scanned_rows, 0);
    let count: f64 = r.groups.iter().map(|g| g.values[0].value).sum();
    assert_eq!(count, watermark as f64);
    let stats = live.stats();
    assert_eq!(stats.wal_appends, (THREADS * BATCHES) as u64);
    assert_eq!(stats.ingest_rows, (THREADS * BATCHES * ROWS) as u64);

    // A copy of the log alone rebuilds the table to the same watermark.
    let copy = dir.join("wal-copy");
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir.join("wal")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let recovered = session(&base, 12);
    let report = recovered
        .recover_with_wal(&dir.join("no-snapshot"), &copy)
        .unwrap();
    assert_eq!(report.wal_records, (THREADS * BATCHES) as u64);
    assert!(!report.wal_torn_tail);
    let t = recovered.catalog().table("t").unwrap().clone();
    assert_eq!(t.row_watermark(), watermark);
    std::fs::remove_dir_all(&dir).unwrap();
}
