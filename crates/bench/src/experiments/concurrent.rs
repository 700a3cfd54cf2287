//! Multi-client throughput: the shared-store [`LaqyService`] deployment.
//!
//! N client threads split one exploratory query sequence round-robin and
//! run their shares concurrently. Two configurations are compared at each
//! client count:
//!
//! - **shared store** — all clients clone one `LaqyService`, so samples
//!   materialized by any client are reused by all, and concurrent misses
//!   on the same range dedup to a single sampling scan;
//! - **private stores** — each client runs an isolated service (its own
//!   sample store), i.e. reuse never crosses clients.
//!
//! The paper evaluates single-client sequences; this experiment shows the
//! reuse benefit compounding across clients, which is where an AQP
//! middleware actually runs (many analysts, one store).

use laqy::{ApproxQuery, LaqyService, ServiceStats, SessionConfig};
use laqy_engine::Catalog;
use laqy_workload::q1;

use crate::report::{Figure, Series};

use super::sequence::{sequence, SequenceKind};
use super::BenchConfig;

/// Run `queries`, split round-robin over `clients` threads, where client
/// `c` gets a service handle from `make(c)`. Returns wall seconds and the
/// summed service counters.
fn drive(
    clients: usize,
    queries: &[ApproxQuery],
    make: impl Fn(usize) -> LaqyService,
) -> (f64, ServiceStats) {
    let services: Vec<LaqyService> = (0..clients).map(&make).collect();
    let t = std::time::Instant::now();
    std::thread::scope(|scope| {
        for (c, service) in services.iter().enumerate() {
            let shard: Vec<&ApproxQuery> = queries.iter().skip(c).step_by(clients).collect();
            scope.spawn(move || {
                for q in shard {
                    service.run(q).expect("bench query");
                }
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    // Distinct services → sum; clones of one service → every handle
    // reports the same totals, so divide back down.
    let mut stats = ServiceStats::default();
    for s in &services {
        let snap = s.stats();
        if snap.queries == queries.len() as u64 {
            return (wall, snap); // shared: one handle already has it all
        }
        stats.queries += snap.queries;
        stats.delta_scans += snap.delta_scans;
        stats.online_scans += snap.online_scans;
        stats.merges_deduped += snap.merges_deduped;
        stats.online_deduped += snap.online_deduped;
        stats.full_hits += snap.full_hits;
        stats.partial_merges += snap.partial_merges;
        stats.online_runs += snap.online_runs;
        stats.merge_retries += snap.merge_retries;
        stats.lock_wait_nanos += snap.lock_wait_nanos;
        stats.support_fallbacks += snap.support_fallbacks;
        stats.morsels_skipped += snap.morsels_skipped;
        stats.morsels_fast_pathed += snap.morsels_fast_pathed;
        stats.morsels_scanned += snap.morsels_scanned;
        stats.morsels_indexed += snap.morsels_indexed;
    }
    (wall, stats)
}

/// The multi-client throughput experiment (`concurrent`).
pub fn concurrent(cfg: &BenchConfig, catalog: &Catalog) -> Figure {
    let queries: Vec<ApproxQuery> = sequence(cfg, catalog, SequenceKind::Long)
        .iter()
        .map(|iv| q1(*iv, cfg.k))
        .collect();
    let config = || SessionConfig {
        threads: 1, // clients are the parallelism; keep queries single-threaded
        seed: cfg.seed,
        ..Default::default()
    };

    let mut shared_qps = Vec::new();
    let mut private_qps = Vec::new();
    let mut notes = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let shared_service = LaqyService::with_config(catalog.clone(), config());
        let (wall_shared, stats) = drive(clients, &queries, |_| shared_service.clone());
        let (wall_private, _) = drive(clients, &queries, |_| {
            LaqyService::with_config(catalog.clone(), config())
        });
        let n = queries.len() as f64;
        shared_qps.push((clients as f64, n / wall_shared));
        private_qps.push((clients as f64, n / wall_private));
        notes.push(format!(
            "{clients} clients (shared): {} full + {} partial + {} online; \
             scans {} performed / {} deduped, {} merge retries, \
             lock wait {:.1} ms",
            stats.full_hits,
            stats.partial_merges,
            stats.online_runs,
            stats.scans_performed(),
            stats.scans_deduped(),
            stats.merge_retries,
            stats.lock_wait_nanos as f64 / 1e6,
        ));
    }

    let mut fig = Figure::new(
        "concurrent",
        "Multi-client throughput: one shared sample store vs. per-client private stores",
        "client threads",
        "queries/second (50-query exploratory sequence, Q1)",
    )
    .with_series(Series::new("shared store (LaqyService)", shared_qps))
    .with_series(Series::new("private stores", private_qps));
    for n in notes {
        fig = fig.with_note(n);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_experiment_runs_small() {
        let cfg = BenchConfig {
            sf: 0.002,
            k: 8,
            threads: 1,
            ..Default::default()
        };
        let catalog = cfg.catalog();
        let fig = concurrent(&cfg, &catalog);
        assert_eq!(fig.series.len(), 2);
        // Four client counts probed per series.
        assert_eq!(fig.series[0].points.len(), 4);
        assert!(fig.series[0].points.iter().all(|&(_, qps)| qps > 0.0));
        assert_eq!(fig.notes.len(), 4);
    }
}
