//! Per-layer metrics derived from what the public API already returns:
//! per-query [`ExecStats`] and the service's cumulative [`ServiceStats`].

use laqy::{ExecStats, ReuseClass, ServiceStats};

use crate::report::Metrics;
use crate::stats::{self, Floors};

/// One timed query: latency at the caller plus the engine's own account.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Wall time of the call as the caller saw it, ms.
    pub ms: f64,
    /// The executor's phase timings and counters for the same call.
    pub stats: ExecStats,
}

fn class_p50(queries: &[Timed], class: ReuseClass) -> (f64, usize) {
    let ms: Vec<f64> = queries
        .iter()
        .filter(|q| q.stats.reuse == Some(class))
        .map(|q| q.ms)
        .collect();
    let n = ms.len();
    (
        stats::p50(&stats::sorted(ms), Floors::Relaxed).unwrap_or(0.0),
        n,
    )
}

/// `executor.*`: latency by reuse class, the north-star proportionality
/// (Δ time per million scanned rows) and where the caller's wall time
/// went. `unexplained_share` is caller wall minus the four instrumented
/// phases (ROADMAP item 2's reconciliation); above 10 % is a finding to
/// report, not a failure.
pub fn executor_metrics(queries: &[Timed], notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let (hit, n_hit) = class_p50(queries, ReuseClass::Full);
    let (delta, n_delta) = class_p50(queries, ReuseClass::Partial);
    let (online, n_online) = class_p50(queries, ReuseClass::Online);
    m.set("executor.hit_p50_ms", hit);
    m.set("executor.delta_p50_ms", delta);
    m.set("executor.online_p50_ms", online);
    notes.push(format!(
        "executor p50 sample counts: hit n={n_hit}, delta n={n_delta}, online n={n_online}"
    ));

    let (delta_ms, delta_rows) = queries
        .iter()
        .filter(|q| q.stats.reuse == Some(ReuseClass::Partial))
        .fold((0.0, 0u64), |(ms, rows), q| {
            (ms + q.ms, rows + q.stats.scanned_rows)
        });
    m.set(
        "executor.delta_ms_per_mrow",
        if delta_rows == 0 {
            0.0
        } else {
            delta_ms / (delta_rows as f64 / 1e6)
        },
    );

    let wall: f64 = queries
        .iter()
        .map(|q| q.ms)
        .sum::<f64>()
        .max(f64::MIN_POSITIVE);
    let phase = |f: fn(&ExecStats) -> std::time::Duration| {
        queries
            .iter()
            .map(|q| f(&q.stats).as_secs_f64() * 1e3)
            .sum::<f64>()
            / wall
    };
    let shares = [
        ("executor.scan_share", phase(|s| s.scan)),
        ("executor.processing_share", phase(|s| s.processing)),
        ("executor.merge_share", phase(|s| s.merge)),
        ("executor.estimate_share", phase(|s| s.estimate)),
    ];
    let explained: f64 = shares.iter().map(|(_, v)| v).sum();
    for (name, v) in shares {
        m.set(name, v);
    }
    m.set("executor.unexplained_share", 1.0 - explained);
    m
}

/// The counters of `after` minus those of `before`, for the fields the
/// benchmark reads: the work of the measured section alone, without the
/// set-up's warm-up queries.
pub fn since(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: after.queries - before.queries,
        full_hits: after.full_hits - before.full_hits,
        partial_merges: after.partial_merges - before.partial_merges,
        online_runs: after.online_runs - before.online_runs,
        delta_scans: after.delta_scans - before.delta_scans,
        online_scans: after.online_scans - before.online_scans,
        merge_retries: after.merge_retries - before.merge_retries,
        lock_wait_nanos: after.lock_wait_nanos - before.lock_wait_nanos,
        morsels_skipped: after.morsels_skipped - before.morsels_skipped,
        morsels_fast_pathed: after.morsels_fast_pathed - before.morsels_fast_pathed,
        morsels_scanned: after.morsels_scanned - before.morsels_scanned,
        degraded_answers: after.degraded_answers - before.degraded_answers,
        ingest_batches: after.ingest_batches - before.ingest_batches,
        ingest_rows: after.ingest_rows - before.ingest_rows,
        absorbed_samples: after.absorbed_samples - before.absorbed_samples,
        absorbed_rows: after.absorbed_rows - before.absorbed_rows,
        wal_appends: after.wal_appends - before.wal_appends,
        ..after.clone()
    }
}

/// One line with the reuse mix and the other counts that must repeat
/// exactly between runs of one seed on the single-client workloads.
pub fn counts_line(s: &ServiceStats) -> String {
    format!(
        "service counts: queries={} full_hits={} partial_merges={} online_runs={} \
         degraded={} delta_scans={} online_scans={} merge_retries={} ingest_batches={} \
         ingest_rows={} absorbed_samples={} absorbed_rows={} wal_appends={} \
         morsels(skipped/fast/scanned)={}/{}/{}",
        s.queries,
        s.full_hits,
        s.partial_merges,
        s.online_runs,
        s.degraded_answers,
        s.delta_scans,
        s.online_scans,
        s.merge_retries,
        s.ingest_batches,
        s.ingest_rows,
        s.absorbed_samples,
        s.absorbed_rows,
        s.wal_appends,
        s.morsels_skipped,
        s.morsels_fast_pathed,
        s.morsels_scanned,
    )
}

/// `service.*` reuse mix, `synopsis.*` morsel verdict shares,
/// `store.lock_wait_share` and `wal.appends` from the service counters
/// of the measured section (see [`since`]). `busy_ms` is the summed
/// caller-side latency of every op the service ran in it (the
/// denominator of the lock-wait share).
pub fn service_metrics(s: &ServiceStats, busy_ms: f64) -> Metrics {
    let mut m = Metrics::default();
    let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    m.set("service.full_hit_share", share(s.full_hits, s.queries));
    m.set("service.partial_share", share(s.partial_merges, s.queries));
    m.set("service.online_share", share(s.online_runs, s.queries));
    m.set(
        "service.degraded_share",
        share(s.degraded_answers, s.queries),
    );
    let morsels = s.morsels_skipped + s.morsels_fast_pathed + s.morsels_scanned;
    m.set("synopsis.skipped_share", share(s.morsels_skipped, morsels));
    m.set(
        "synopsis.fast_path_share",
        share(s.morsels_fast_pathed, morsels),
    );
    m.set(
        "store.lock_wait_share",
        if busy_ms > 0.0 {
            s.lock_wait_nanos as f64 / 1e6 / busy_ms
        } else {
            0.0
        },
    );
    m.set("wal.appends", s.wal_appends as f64);
    m
}

/// `trace.overhead_share`: throughput lost to recording spans.
pub fn trace_overhead(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    1.0 - traced_ops_per_s / untraced_ops_per_s
}
