//! Persistence integration: sample stores survive a session restart and
//! keep answering with full/partial reuse — online samples become offline
//! samples.

use laqy::{ApproxQuery, Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};
use laqy_workload::{generate, q1, q2, SsbConfig};

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.003,
        seed: 0x9E,
    })
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
    grown.save_snapshot(&dir).unwrap();

    let imported = session(&base, 6);
    imported.import_samples(&snapshot).unwrap();
    let recovered = session(&base, 7);
    recovered.recover_from_dir(&dir).unwrap();
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
