//! Sharded-store scalability.
//!
//! Many client threads hammer one [`LaqyService`] with queries from
//! several descriptor families (same plan, different reservoir capacity
//! `k`), so the families' fingerprints route across the store's shards.
//! Two store layouts are compared at each client count:
//!
//! - **sharded** — the default [`STORE_SHARDS`]-way descriptor-hash
//!   sharded store: families contend only within their home shard;
//! - **single lock** — `store_shards: 1`, the pre-sharding layout where
//!   every query serializes on one store lock.
//!
//! The sharded layout must win at high client counts (the acceptance
//! criterion is ≥16 threads).

use laqy::{ApproxQuery, Interval, LaqyService, SessionConfig, STORE_SHARDS};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};

use crate::report::{Figure, Series};

use super::BenchConfig;

/// Queries each client issues per drive.
const QUERIES_PER_CLIENT: usize = 6;

/// Client-thread counts swept (acceptance band: 8–48).
const CLIENTS: [usize; 4] = [8, 16, 32, 48];

/// Synthetic fact table sized like the SSB catalog at this scale factor,
/// its eight groups scattered over the rows.
fn build_table(cfg: &BenchConfig) -> Table {
    let rows = ((6_000_000.0 * cfg.sf) as usize).max(20_000);
    let grp: Vec<i64> = (0..rows)
        .map(|i| (i as i64).wrapping_mul(0x9E37_79B9) & 7)
        .collect();
    let val: Vec<i64> = (0..rows).map(|i| (i as i64 * 37) % 1000).collect();
    Table::new(
        "fact",
        vec![
            ("key".into(), Column::Int64((0..rows as i64).collect())),
            ("grp".into(), Column::Int64(grp)),
            ("val".into(), Column::Int64(val)),
        ],
    )
    .expect("bench table")
}

fn query(lo: i64, hi: i64, k: usize) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "fact".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("grp")],
            aggs: vec![AggSpec::sum("val"), AggSpec::count()],
        },
        range_column: "key".into(),
        range: Interval::new(lo, hi),
        k,
    }
}

/// Client `c`'s query `j`: an expanding exploratory frontier with a
/// client-specific phase, so every step Δ-extends the client's own
/// family — a write-lock absorb on the family's home shard per query.
fn range_for(n: i64, c: usize, j: usize) -> Interval {
    let step = n / (QUERIES_PER_CLIENT as i64 + 3);
    Interval::new(
        0,
        ((j as i64 + 1) * step + (c % 4) as i64 * step / 4).min(n - 1),
    )
}

/// Drive `clients` threads against one shared service; client `c` runs
/// its own `k = base_k + 8 * c` descriptor family, so families spread
/// across all shards and every absorb is a write. Returns answers/second.
fn drive(service: &LaqyService, n: i64, base_k: usize, clients: usize) -> f64 {
    let t = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let service = service.clone();
            scope.spawn(move || {
                let k = base_k + 8 * c;
                for j in 0..QUERIES_PER_CLIENT {
                    let range = range_for(n, c, j);
                    service
                        .run(&query(range.lo, range.hi, k))
                        .expect("bench query");
                }
            });
        }
    });
    (clients * QUERIES_PER_CLIENT) as f64 / t.elapsed().as_secs_f64()
}

/// The `sharding` experiment: answers/sec at 8–48 client threads,
/// sharded vs. single-lock store.
pub fn sharding(cfg: &BenchConfig, _catalog: &Catalog) -> Figure {
    let mut series = Vec::new();
    let mut notes = Vec::new();
    let table = build_table(cfg);
    let n = table.num_rows() as i64;
    for (layout, shards) in [("sharded", STORE_SHARDS), ("single lock", 1)] {
        let mut points = Vec::new();
        for &clients in &CLIENTS {
            let mut catalog = Catalog::new();
            catalog.register(table.clone());
            let service = LaqyService::with_config(
                catalog,
                SessionConfig {
                    threads: 1, // clients are the parallelism under test
                    seed: cfg.seed,
                    store_shards: shards,
                    ..Default::default()
                },
            );
            let qps = drive(&service, n, cfg.k, clients);
            points.push((clients as f64, qps));
            let stats = service.stats();
            notes.push(format!(
                "{layout}, {clients} clients: {:.0} answers/s; \
                 {} full + {} partial + {} online, lock wait {:.1} ms",
                qps,
                stats.full_hits,
                stats.partial_merges,
                stats.online_runs,
                stats.lock_wait_nanos as f64 / 1e6,
            ));
        }
        series.push(Series::new(layout, points));
    }

    let mut fig = Figure::new(
        "sharding",
        "Sharded store scalability: answers/sec by client count, \
         sharded vs. single-lock store",
        "client threads",
        "answers/second",
    );
    for s in series {
        fig = fig.with_series(s);
    }
    for n in notes {
        fig = fig.with_note(n);
    }
    fig
}
