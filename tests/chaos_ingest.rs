//! Crash-safety regression suite for the streaming-ingest WAL path,
//! driven by the `laqy-faults` registry (`--cfg laqy_faults` builds
//! only).
//!
//! The core invariant: killing an ingest at *every* fault point in the
//! log sequence (`rotate → write → sync`, plus the replay read at
//! recovery) must land recovery on one consistent `(snapshot
//! generation, WAL position)` point — the recovered table watermark is
//! a whole number of batches, no stored sample references rows past it,
//! and a pure-reuse query's exact COUNT equals the watermark. A torn
//! frame may only ever lose the batch being appended, never an
//! acknowledged one.
#![cfg(laqy_faults)]

use std::path::PathBuf;

use laqy::{
    replay_wal, ApproxQuery, Interval, LaqyError, LaqyService, ReuseClass, SessionConfig,
    WalAppender, WalRecord,
};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};
use laqy_faults::{FaultKind, FaultPlan};
use laqy_sync::Mutex;

/// The fault plan is process-global: every chaos test serializes on
/// this lock so one schedule never bleeds into another test.
static CHAOS_LOCK: Mutex<()> = Mutex::named("chaos.ingest.lock", ());

const BASE_ROWS: usize = 2_000;
const BATCH_ROWS: usize = 250;
const MAX_BATCHES: usize = 4;

/// `key` is the clustered row id, `g` a small group column, `v` the
/// summed measure — appended batches continue the `key` sequence.
fn stream_columns(from: usize, rows: usize) -> Vec<(String, Column)> {
    let range = from as i64..(from + rows) as i64;
    vec![
        ("key".into(), Column::Int64(range.clone().collect())),
        (
            "g".into(),
            Column::Int64(range.clone().map(|i| i % 4).collect()),
        ),
        (
            "v".into(),
            Column::Int64(range.map(|i| (i * 7) % 100).collect()),
        ),
    ]
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(Table::new("stream", stream_columns(0, BASE_ROWS)).unwrap());
    cat
}

/// A query whose range covers every row the sweep can ever append, so
/// the warmed sample's predicate admits the whole stream and its COUNT
/// (exact — stratum weights are true row counts) equals the watermark.
fn query() -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "stream".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::sum("v"), AggSpec::count()],
        },
        range_column: "key".into(),
        range: Interval::new(0, (BASE_ROWS + MAX_BATCHES * BATCH_ROWS) as i64 - 1),
        k: 32,
    }
}

fn service(seed: u64) -> LaqyService {
    LaqyService::with_config(
        catalog(),
        SessionConfig {
            threads: 1,
            seed,
            ..Default::default()
        },
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laqy-chaos-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recovery oracle shared by every seed: the watermark is a whole
/// number of batches within the attempted window, the store never
/// references rows past it, and a pure-reuse COUNT equals it exactly.
fn assert_consistent(recovered: &LaqyService, min_batches: usize, max_batches: usize) -> usize {
    let watermark = recovered.catalog().table("stream").unwrap().row_watermark() as usize;
    assert!(
        watermark >= BASE_ROWS
            && (watermark - BASE_ROWS).is_multiple_of(BATCH_ROWS)
            && (BASE_ROWS + min_batches * BATCH_ROWS..=BASE_ROWS + max_batches * BATCH_ROWS)
                .contains(&watermark),
        "recovered watermark {watermark} is not a consistent batch boundary"
    );
    let store = recovered.store();
    for (_, stored) in store.iter() {
        assert!(
            stored.watermark as usize <= watermark,
            "stored sample references rows past the recovered watermark: {} > {watermark}",
            stored.watermark
        );
    }
    let r = recovered.run(&query()).unwrap();
    assert_eq!(
        r.stats.reuse,
        Some(ReuseClass::Full),
        "absorbed sample answers"
    );
    let count: f64 = r.groups.iter().map(|g| g.values[1].value).sum();
    assert_eq!(count, watermark as f64, "exact COUNT equals the watermark");
    watermark
}

#[test]
fn killing_ingest_at_every_wal_fault_point_recovers_consistently() {
    let _guard = CHAOS_LOCK.lock();
    for seed in 0..32u64 {
        laqy_faults::clear();
        let dir = scratch_dir(&format!("sweep-{seed}"));
        let wal_dir = dir.join("wal");
        let snap_dir = dir.join("snap");

        let live = service(0x5EED ^ seed);
        live.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        live.run(&query()).unwrap();
        live.save_snapshot(&snap_dir).unwrap();

        // Four fault kinds, each swept over where in the batch stream the
        // kill lands (`nth` counts fault-point events after install, so
        // the checkpoint frame above is never the victim).
        let kind = seed % 4;
        let nth = 1 + (seed / 4) % MAX_BATCHES as u64;
        let (point, torn_expected) = match kind {
            0 => ("wal.append.write", true),
            1 => ("wal.append.sync", false),
            // Kind 2 kills the replay read at recovery instead of an
            // ingest; kind 3 kills the checkpoint append of a second
            // snapshot after the batches landed.
            2 => ("wal.replay.read", false),
            _ => ("wal.append.write", true),
        };
        if kind <= 1 {
            laqy_faults::install(FaultPlan::new(seed).fail_nth(point, FaultKind::Io, nth));
        }

        let mut acked = 0usize;
        for b in 0..MAX_BATCHES.min(if kind >= 2 { nth as usize } else { MAX_BATCHES }) {
            match live.ingest(
                "stream",
                stream_columns(BASE_ROWS + b * BATCH_ROWS, BATCH_ROWS),
            ) {
                Ok(_) => acked += 1,
                Err(e) => {
                    assert!(
                        matches!(e, LaqyError::WalFailed(_))
                            && e.to_string().contains("injected I/O fault"),
                        "{point}: unexpected ingest error {e}"
                    );
                    break;
                }
            }
        }
        if kind == 3 {
            // The snapshot itself lands; the checkpoint frame tears and
            // the log fails rather than being appended past.
            laqy_faults::install(FaultPlan::new(seed).fail_nth(point, FaultKind::Io, 1));
            let err = live.save_snapshot(&snap_dir).expect_err("checkpoint torn");
            assert!(err.to_string().contains("injected I/O fault"), "{err}");
        }
        laqy_faults::clear();
        drop(live); // the "crash"

        let recovered = service(0xFEED ^ seed);
        if kind == 2 {
            // The kill lands on recovery's own replay read: recovery
            // fails loudly, then a clean retry succeeds.
            laqy_faults::install(FaultPlan::new(seed).fail_nth(point, FaultKind::Io, 1));
            let err = recovered
                .recover_with_wal(&snap_dir, &wal_dir)
                .expect_err("replay read killed");
            assert!(err.to_string().contains("injected I/O fault"), "{err}");
            laqy_faults::clear();
        }
        let report = recovered.recover_with_wal(&snap_dir, &wal_dir).unwrap();

        // An acked batch is never lost; a sync-killed frame may replay
        // one batch past the acked point (the frame reached the file).
        let watermark = assert_consistent(&recovered, acked, acked + 1);
        if kind == 0 {
            assert_eq!(watermark, BASE_ROWS + acked * BATCH_ROWS, "torn frame lost");
        }
        assert_eq!(
            report.wal_torn_tail,
            torn_expected && (kind != 0 || acked < MAX_BATCHES),
            "seed {seed} ({point}, nth {nth}): torn-tail report"
        );

        // The truncated WAL stays usable: further ingest is durable and
        // survives a second recovery.
        let w = recovered
            .ingest("stream", stream_columns(watermark, BATCH_ROWS))
            .unwrap();
        assert_eq!(w as usize, watermark + BATCH_ROWS);
        let again = service(0xF00D ^ seed);
        again.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        assert_eq!(
            again.catalog().table("stream").unwrap().row_watermark(),
            w,
            "seed {seed}: post-recovery ingest must be durable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_log_refuses_every_ingest_until_recovery_reopens_it() {
    // A failed append may have torn the log's tail, so an ingest acked
    // after it could never be replayed. Whether an ingest's append or a
    // snapshot's checkpoint failed, every later ingest is refused, and
    // recovery lands on the last acked watermark.
    let _guard = CHAOS_LOCK.lock();
    for torn in ["append", "checkpoint"] {
        laqy_faults::clear();
        let dir = scratch_dir(&format!("failed-{torn}"));
        let (wal_dir, snap_dir) = (dir.join("wal"), dir.join("snap"));
        let live = service(0xFA1);
        live.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        live.run(&query()).unwrap();
        let acked = live
            .ingest("stream", stream_columns(BASE_ROWS, BATCH_ROWS))
            .unwrap();
        live.save_snapshot(&snap_dir).unwrap();

        let next = || stream_columns(acked as usize, BATCH_ROWS);
        laqy_faults::install(FaultPlan::new(3).fail_nth("wal.append.write", FaultKind::Io, 1));
        if torn == "append" {
            let err = live.ingest("stream", next()).unwrap_err();
            assert!(matches!(err, LaqyError::WalFailed(_)), "{torn}: {err}");
        } else {
            live.save_snapshot(&snap_dir).expect_err("checkpoint torn");
        }
        laqy_faults::clear();
        for _ in 0..2 {
            let err = live.ingest("stream", next()).unwrap_err();
            assert!(matches!(err, LaqyError::WalFailed(_)), "{torn}: {err}");
        }
        let published = live.catalog().table("stream").unwrap().row_watermark();
        assert_eq!(published, acked, "{torn}: a refused batch is not published");

        let recovered = service(0xFA2);
        let report = recovered.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        assert!(report.wal_torn_tail, "{torn}");
        assert_eq!(
            assert_consistent(&recovered, 1, 1),
            acked as usize,
            "{torn}"
        );
        drop(recovered);

        // Recovery re-opens the log, truncated: ingest is durable again.
        live.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        let w = live.ingest("stream", next()).unwrap();
        let again = service(0xFA3);
        again.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        let replayed = again.catalog().table("stream").unwrap().row_watermark();
        assert_eq!(replayed, w, "{torn}: the ingest after recovery is durable");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_of_unlogged_rows_is_dropped_back_to_the_replayed_watermark() {
    // A snapshot can hold rows its log does not: one cut by a process
    // that ingested without a log, beside a log with fewer batches and a
    // torn tail. Recovery must drop the snapshot's samples rather than
    // serve estimates over rows that no longer exist.
    let _guard = CHAOS_LOCK.lock();
    laqy_faults::clear();
    let dir = scratch_dir("unlogged");
    let wal_dir = dir.join("wal");
    let snap_dir = dir.join("snap");

    // The log: two batches, then a third whose frame tears.
    let logged = service(0xAB5);
    logged
        .recover_with_wal(&dir.join("no-snapshot"), &wal_dir)
        .unwrap();
    logged
        .ingest("stream", stream_columns(BASE_ROWS, BATCH_ROWS))
        .unwrap();
    logged
        .ingest("stream", stream_columns(BASE_ROWS + BATCH_ROWS, BATCH_ROWS))
        .unwrap();
    laqy_faults::install(FaultPlan::new(7).fail_nth("wal.append.write", FaultKind::Io, 1));
    assert!(logged
        .ingest(
            "stream",
            stream_columns(BASE_ROWS + 2 * BATCH_ROWS, BATCH_ROWS)
        )
        .is_err());
    laqy_faults::clear();
    drop(logged);

    // The snapshot: three batches published with no log.
    let unlogged = service(0xAB7);
    unlogged.run(&query()).unwrap();
    for b in 0..3 {
        unlogged
            .ingest(
                "stream",
                stream_columns(BASE_ROWS + b * BATCH_ROWS, BATCH_ROWS),
            )
            .unwrap();
    }
    let published = unlogged.catalog().table("stream").unwrap().row_watermark();
    assert_eq!(published as usize, BASE_ROWS + 3 * BATCH_ROWS);
    unlogged.save_snapshot(&snap_dir).unwrap();
    {
        let store = unlogged.store();
        let (_, s) = store.iter().next().unwrap();
        assert_eq!(s.watermark, published, "snapshot samples outrun the log");
    }
    drop(unlogged);

    let recovered = service(0xAB6);
    let report = recovered.recover_with_wal(&snap_dir, &wal_dir).unwrap();
    assert!(report.wal_torn_tail);
    // Replay rebuilds only the two logged batches...
    let watermark = recovered.catalog().table("stream").unwrap().row_watermark();
    assert_eq!(watermark as usize, BASE_ROWS + 2 * BATCH_ROWS);
    // ...and the outrunning sample is gone, not served stale.
    for (_, s) in recovered.store().iter() {
        assert!(
            s.watermark <= watermark,
            "sample past the replayed watermark survived recovery"
        );
    }
    // The next query re-samples the recovered table and still answers
    // with the exact row count.
    let r = recovered.run(&query()).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
    let count: f64 = r.groups.iter().map(|g| g.values[1].value).sum();
    assert_eq!(count, watermark as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_segment_rotation_leaves_the_previous_segment_intact() {
    // Rotation crash-safety, driven at the appender directly (reaching
    // the 16 MiB threshold through the service would need megarow
    // batches): a kill at `wal.rotate.create` loses only the record
    // being appended, and a retry rotates cleanly.
    let _guard = CHAOS_LOCK.lock();
    laqy_faults::clear();
    let dir = scratch_dir("rotate");

    // ~9 MiB per record: the second append must rotate first.
    let big = |from: i64| WalRecord::Batch {
        table: "stream".into(),
        base_rows: from as u64,
        columns: vec![("key".into(), Column::Int64(vec![from; 1_200_000]))],
    };
    let mut wal = WalAppender::open(&dir).unwrap();
    wal.append(&big(0)).unwrap();
    laqy_faults::install(FaultPlan::new(11).fail_nth("wal.rotate.create", FaultKind::Io, 1));
    let err = wal.append(&big(1)).expect_err("rotation killed");
    assert!(err.to_string().contains("injected I/O fault"), "{err}");
    laqy_faults::clear();

    // The first segment is untouched and replays cleanly to one record.
    let (records, report) = replay_wal(&dir).unwrap();
    assert_eq!(records.len(), 1);
    assert!(
        !report.torn_tail,
        "rotation dies before any byte is written"
    );

    // Re-opening at the measured end and retrying rotates for real.
    let mut wal = WalAppender::open_at(&dir, report.end).unwrap();
    let pos = wal.append(&big(1)).unwrap();
    assert!(
        pos.segment > report.end.segment,
        "retry opened the next segment"
    );
    let (records, report) = replay_wal(&dir).unwrap();
    assert_eq!(records.len(), 2);
    assert!(!report.torn_tail);
    let _ = std::fs::remove_dir_all(&dir);
}
