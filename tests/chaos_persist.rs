//! Crash-safety regression suite for the snapshot persistence path,
//! driven by the `laqy-faults` registry (`--cfg laqy_faults` builds
//! only).
//!
//! The core invariant: killing a snapshot save at *every* fault point in
//! the write sequence (`create → write_all → sync_file → rename →
//! sync_dir`) must leave the previous good generation loadable. The
//! tmp-then-fsync-then-rename discipline makes each stage either
//! invisible (the target is untouched) or complete (the rename already
//! happened), so recovery never observes a half-written snapshot under
//! its real name.
#![cfg(laqy_faults)]

use std::path::{Path, PathBuf};

use laqy::{Interval, LaqyService, RecoveryReport, ReuseClass, SessionConfig};
use laqy_engine::Catalog;
use laqy_faults::{FaultKind, FaultPlan};
use laqy_sync::Mutex;
use laqy_workload::{generate, q1, SsbConfig};

/// The fault plan is process-global: every chaos test serializes on
/// this lock so one schedule never bleeds into another test.
static CHAOS_LOCK: Mutex<()> = Mutex::named("chaos.persist.lock", ());

/// Every fault point in the atomic-write sequence, in call order.
const WRITE_POINTS: &[&str] = &[
    "persist.create",
    "persist.write_all",
    "persist.sync_file",
    "persist.rename",
    "persist.sync_dir",
];

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.005, // 30k fact rows
        seed: 0xC0C0,
    })
}

fn service(cat: &Catalog) -> LaqyService {
    LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 1,
            seed: 0x5EED,
            ..Default::default()
        },
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laqy-chaos-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recover `service` from the snapshots in `dir`, over an empty log of
/// its own that is removed again.
fn recover(service: &LaqyService, dir: &Path) -> RecoveryReport {
    let wal = dir.with_extension("wal");
    let report = service.recover_with_wal(dir, &wal).unwrap();
    let _ = std::fs::remove_dir_all(&wal);
    report
}

#[test]
fn killing_save_at_every_fault_point_keeps_last_good_generation() {
    let _guard = CHAOS_LOCK.lock();
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;

    for (i, point) in WRITE_POINTS.iter().enumerate() {
        laqy_faults::clear();
        let dir = scratch_dir(&format!("kill-{i}"));
        let service = service(&cat);
        service.run(&q1(Interval::new(0, n / 2), 24)).unwrap();
        let good = service.save_snapshot(&dir).unwrap();
        let good_descriptors = service.store().len();

        // Grow the store, then kill the next save at this fault point.
        service.run(&q1(Interval::new(0, n - 1), 24)).unwrap();
        laqy_faults::install(FaultPlan::new(i as u64).fail_nth(point, FaultKind::Io, 1));
        let err = service
            .save_snapshot(&dir)
            .expect_err("the injected fault must surface as an error");
        assert!(
            err.to_string().contains("injected I/O fault"),
            "{point}: unexpected error {err}"
        );
        laqy_faults::clear();

        // Recovery must land on a complete generation, never on a torn
        // or half-renamed file. Faults up to and including the rename
        // leave the previous generation in place; a fault *after* the
        // rename (`persist.sync_dir`) means the new generation is already
        // complete on disk, and loading it is the correct outcome.
        let fresh = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 1,
                seed: 0xFEED,
                ..Default::default()
            },
        );
        let report = recover(&fresh, &dir);
        let expected = if *point == "persist.sync_dir" {
            good + 1
        } else {
            good
        };
        assert_eq!(report.loaded, Some(expected), "fault at {point}");
        assert!(
            report.discarded.is_empty(),
            "no generation file may be corrupt after a killed save at {point}: {:?}",
            report.discarded
        );
        if expected == good {
            assert_eq!(fresh.store().len(), good_descriptors, "fault at {point}");
        }
        // No stray tmp file may linger under the snapshot name either:
        // a second recovery sees a clean directory.
        let (_, again) = laqy::recover_snapshot(&dir).unwrap();
        assert_eq!(again.tmp_removed, 0, "fault at {point}");

        // The recovered store answers: the warmed range is a full hit.
        let r = fresh.run(&q1(Interval::new(n / 8, n / 4), 24)).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Full), "fault at {point}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn repeated_injected_crashes_never_lose_the_newest_durable_generation() {
    let _guard = CHAOS_LOCK.lock();
    laqy_faults::clear();
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let dir = scratch_dir("repeat");
    let service = service(&cat);

    // Alternate good saves and killed saves; after each kill, recovery
    // must land exactly on the newest successful generation.
    let mut last_good = None;
    for (round, &point) in WRITE_POINTS.iter().enumerate() {
        service
            .run(&q1(Interval::new(0, n / 4 + (round as i64) * n / 8), 24))
            .unwrap();
        if round % 2 == 0 {
            last_good = Some(service.save_snapshot(&dir).unwrap());
        } else {
            laqy_faults::install(FaultPlan::new(round as u64).fail_nth(point, FaultKind::Io, 1));
            assert!(service.save_snapshot(&dir).is_err());
            laqy_faults::clear();
        }
        let (_, report) = laqy::recover_snapshot(&dir).unwrap();
        assert_eq!(report.loaded, last_good, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_counter_advances_when_falling_back_past_corruption() {
    let _guard = CHAOS_LOCK.lock();
    laqy_faults::clear();
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let dir = scratch_dir("fallback");
    let service = service(&cat);
    service.run(&q1(Interval::new(0, n / 2), 24)).unwrap();
    let good = service.save_snapshot(&dir).unwrap();

    // Plant a corrupt newer generation, as if a crash landed mid-write
    // on a filesystem without atomic rename semantics.
    std::fs::write(dir.join(format!("store.snap.{}", good + 1)), b"garbage").unwrap();

    let fresh = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 1,
            seed: 0xFEED,
            ..Default::default()
        },
    );
    assert_eq!(fresh.stats().snapshots_recovered, 0);
    let report = recover(&fresh, &dir);
    assert!(report.fell_back());
    assert_eq!(report.loaded, Some(good));
    assert_eq!(fresh.stats().snapshots_recovered, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
