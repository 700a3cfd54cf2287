//! Persistence integration: sample stores survive a session restart and
//! keep answering with full/partial reuse — online samples become offline
//! samples.

use laqy::{Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_engine::Catalog;
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
