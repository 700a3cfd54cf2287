//! Streaming ingest: incremental sample maintenance vs. invalidation
//! under a mixed append/query workload (`ingest`).
//!
//! The static-table deployments in the other experiments warm a sample
//! once and reuse it forever. A streaming deployment keeps appending:
//! every batch moves the table's row watermark, and a stored sample
//! answers the *current* table only if it either absorbs the appended
//! rows (continuing its reservoir pass — the incremental-maintenance
//! path) or is thrown away and re-drawn (the invalidation baseline).
//!
//! This experiment interleaves append batches into a fixed query stream
//! and sweeps the append cadence. For each cadence it drives the same
//! stream twice from an identical truncated catalog — once absorbing
//! (plain [`LaqyService::ingest`]), once dropping all samples after each
//! batch — and records answers/second and the mean relative error vs.
//! the exact per-watermark answer. The accuracy control: `lo_intkey` is
//! a permutation of `[0, n)`, so the full-domain Q1 total at watermark
//! `w` is exactly the revenue prefix sum of the first `w` storage rows;
//! both modes must track it, and the latency gap is pure re-sampling
//! work the absorb path avoids.

use laqy::{Interval, LaqyService, SessionConfig};
use laqy_engine::{Catalog, Column, Table};
use laqy_workload::q1;

use crate::report::{Figure, Series};

use super::BenchConfig;

/// Share of the fact table resident before the stream starts; the rest
/// arrives as append batches during it.
const BASE_FRACTION: f64 = 0.5;

/// Queries in the driven stream (appends are spread evenly between them).
const STREAM_QUERIES: usize = 20;

/// The catalog with `lineorder` truncated to its base prefix, plus the
/// held-back tail split into `batches` append batches in storage order.
#[allow(clippy::type_complexity)]
fn split_catalog(catalog: &Catalog, batches: usize) -> (Catalog, Vec<Vec<(String, Column)>>) {
    let fact = catalog.table("lineorder").expect("lineorder generated");
    let n = fact.num_rows();
    let base_rows = (BASE_FRACTION * n as f64) as usize;
    let slice_rows = |lo: usize, hi: usize| -> Vec<(String, Column)> {
        fact.columns()
            .map(|(name, col)| (name.to_string(), col.take(lo..hi)))
            .collect()
    };
    let mut base = Catalog::new();
    for name in catalog.table_names() {
        if name == "lineorder" {
            continue;
        }
        base.register((**catalog.table(name).unwrap()).clone());
    }
    base.register(Table::new("lineorder", slice_rows(0, base_rows)).expect("truncated fact"));
    let stride = (n - base_rows).div_ceil(batches.max(1));
    let tail: Vec<_> = (0..batches)
        .map(|b| slice_rows(base_rows + b * stride, n.min(base_rows + (b + 1) * stride)))
        .collect();
    (base, tail)
}

/// The `ingest` experiment: append-cadence sweep of mixed-workload
/// throughput and accuracy, incremental absorb vs. invalidate-on-append.
pub fn ingest(cfg: &BenchConfig, catalog: &Catalog) -> Figure {
    let fact = catalog.table("lineorder").expect("lineorder generated");
    let n = fact.num_rows();
    // Exact full-domain Q1 totals by watermark: prefix sums of revenue.
    let rev = fact.column("lo_revenue").expect("revenue column");
    let mut prefix = vec![0f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + rev.i64_at(i) as f64;
    }
    let query = q1(Interval::new(0, n as i64 - 1), cfg.k);

    let mut absorb_qps = Vec::new();
    let mut invalidate_qps = Vec::new();
    let mut absorb_err = Vec::new();
    let mut invalidate_err = Vec::new();
    let mut notes = vec![format!(
        "{n} fact rows, {BASE_FRACTION} resident at stream start; {STREAM_QUERIES}-query \
         stream, appends spread evenly; identical batches in both modes",
    )];

    for batches in [0usize, 1, 2, 4, 8] {
        let mut row = format!("appends={batches}:");
        for invalidate in [false, true] {
            let (base, tail) = split_catalog(catalog, batches);
            let service = LaqyService::with_config(
                base,
                SessionConfig {
                    threads: cfg.threads,
                    seed: cfg.seed,
                    ..Default::default()
                },
            );
            // Warm the stored family outside the timed stream.
            service.run(&query).expect("warm query");
            let mut resident = (BASE_FRACTION * n as f64) as usize;
            let mut pending = tail.into_iter();
            let mut err_sum = 0.0;
            let t = std::time::Instant::now();
            for qi in 0..STREAM_QUERIES {
                // Evenly spaced append slots: batch b lands before query
                // ceil(b * STREAM_QUERIES / batches).
                while batches > 0
                    && resident < n
                    && (batches * (qi + 1)).div_ceil(STREAM_QUERIES) > (batches - pending.len())
                {
                    let batch = pending.next().expect("pending batch");
                    resident += batch.first().map(|(_, c)| c.len()).unwrap_or(0);
                    service.ingest("lineorder", batch).expect("append batch");
                    if invalidate {
                        service.clear_samples();
                    }
                }
                let r = service.run(&query).expect("stream query");
                let est: f64 = r.groups.iter().map(|g| g.values[0].value).sum();
                let truth = prefix[resident];
                err_sum += (est - truth).abs() / truth.abs().max(1e-9);
            }
            let wall = t.elapsed().as_secs_f64();
            let qps = STREAM_QUERIES as f64 / wall;
            let mean_err = err_sum / STREAM_QUERIES as f64;
            let stats = service.stats();
            let (label, qps_series, err_series) = if invalidate {
                ("invalidate", &mut invalidate_qps, &mut invalidate_err)
            } else {
                ("absorb", &mut absorb_qps, &mut absorb_err)
            };
            qps_series.push((batches as f64, qps));
            err_series.push((batches as f64, mean_err));
            row.push_str(&format!(
                " {label} {qps:.1} q/s, rel err {mean_err:.4}, {} full + {} online, \
                 {} rows absorbed;",
                stats.full_hits, stats.online_runs, stats.absorbed_rows,
            ));
        }
        notes.push(row);
    }

    let mut fig = Figure::new(
        "ingest",
        "Streaming ingest: incremental sample absorb vs. invalidate-on-append",
        "append batches interleaved into the query stream",
        "answers/second / mean relative error — per series",
    )
    .with_series(Series::new("absorb answers/s", absorb_qps))
    .with_series(Series::new("invalidate answers/s", invalidate_qps))
    .with_series(Series::new("absorb rel err", absorb_err))
    .with_series(Series::new("invalidate rel err", invalidate_err));
    for note in notes {
        fig = fig.with_note(note);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_experiment_runs_small() {
        let cfg = BenchConfig {
            sf: 0.005,
            k: 16,
            threads: 2,
            ..Default::default()
        };
        let catalog = cfg.catalog();
        let fig = ingest(&cfg, &catalog);
        assert_eq!(fig.series.len(), 4);
        for s in &fig.series {
            assert_eq!(s.points.len(), 5, "series {} missing sweep points", s.label);
            assert!(s.points.iter().all(|&(_, y)| y.is_finite() && y >= 0.0));
        }
        // Both modes stay accurate across every cadence...
        for s in &fig.series[2..] {
            assert!(
                s.points.iter().all(|&(_, err)| err < 0.1),
                "{}: {:?}",
                s.label,
                s.points
            );
        }
        // ...and the absorb path keeps answering from the store while the
        // invalidation baseline re-samples after every append (visible in
        // the per-cadence notes emitted above).
        assert_eq!(fig.notes.len(), 6);
    }
}
