//! Zone-map pruning effectiveness on Δ-scans (Figure-9 analog).
//!
//! A lazy Δ-scan touches only the uncovered slice of the explored range
//! column. This experiment sweeps the uncovered fraction from 0.0 to 1.0
//! — the Δ interval sits at the top of the value domain, as when an
//! exploratory sequence widens an already-covered range — and measures,
//! per fraction, how many scan morsels the per-morsel zone maps skip,
//! fast-path, or fall through to per-row evaluation, plus the pruned vs.
//! unpruned Δ-scan wall time.
//!
//! Two range columns contrast storage orders: `lo_orderkey` is clustered
//! (storage order = key order, each morsel spans a narrow key interval)
//! and `lo_intkey` is deliberately shuffled (every morsel spans the whole
//! domain, so zone maps can never prune — the paper's worst case for any
//! min/max synopsis). Pruning claims hold only for the clustered column;
//! the shuffled one bounds the overhead of consulting the maps in vain.

use laqy_engine::kernel::count_mask;
use laqy_engine::parallel::{parallel_fold, DEFAULT_MORSEL_ROWS};
use laqy_engine::{
    execute_exact, AggSpec, BatchKernel, Catalog, Predicate, PruneCounts, QueryPlan, Table,
    CHUNK_ROWS, MASK_WORDS,
};

use crate::report::{Figure, Series};
use crate::time_best;

use super::BenchConfig;

/// Reference Δ-scan that never consults zone maps: a parallel morsel
/// fold of the batch kernel over every chunk, counting each mask.
fn unpruned_count(table: &Table, predicate: &Predicate, threads: usize) -> usize {
    let compiled = predicate.compile(table).expect("predicate validated");
    let kernel = BatchKernel::compile(&compiled);
    let partials = parallel_fold(
        table.num_rows(),
        DEFAULT_MORSEL_ROWS,
        threads,
        || 0usize,
        |acc, range| {
            let mut mask = [0u64; MASK_WORDS];
            for base in range.clone().step_by(CHUNK_ROWS) {
                kernel.eval_chunk(base, CHUNK_ROWS.min(range.end - base), &mut mask);
                *acc += count_mask(&mask) as usize;
            }
        },
    );
    partials.into_iter().sum()
}

/// The pruned Δ-scan: the scan floor, a keyless `COUNT(*)` whose walk
/// consults the zone maps. Returns the count and the walk's verdicts.
fn pruned_count(catalog: &Catalog, predicate: &Predicate, threads: usize) -> (usize, PruneCounts) {
    let plan = QueryPlan {
        fact: "lineorder".into(),
        predicate: predicate.clone(),
        joins: vec![],
        group_by: vec![],
        aggs: vec![AggSpec::count()],
    };
    let (result, counts) = execute_exact(catalog, &plan, threads).expect("pruned scan");
    let rows = result.rows.first().map_or(0.0, |r| r.values[0]);
    (rows as usize, counts)
}

/// The `pruning` experiment: uncovered-fraction sweep of Δ-scan morsel
/// verdicts and wall time, clustered vs. shuffled key column.
pub fn pruning(cfg: &BenchConfig, catalog: &Catalog) -> Figure {
    let table = catalog.table("lineorder").expect("lineorder generated");
    let n = table.num_rows() as i64;
    let blocks = table.synopsis().map(|s| s.num_blocks()).unwrap_or(0).max(1);
    let fractions: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();

    let mut skip_clustered = Vec::new();
    let mut skip_shuffled = Vec::new();
    let mut ms_pruned_clustered = Vec::new();
    let mut ms_unpruned_clustered = Vec::new();
    let mut ms_pruned_shuffled = Vec::new();
    let mut notes = vec![format!(
        "{} fact rows, {} morsels of {} rows; Δ = top `f` fraction of the key domain",
        n, blocks, DEFAULT_MORSEL_ROWS
    )];

    for &f in &fractions {
        // Uncovered interval: the top `f` fraction of the [0, n) domain.
        // f = 0 yields an empty BETWEEN (lo > hi) — a fully covered query
        // whose Δ-scan should be pruned to nothing.
        let lo = ((1.0 - f) * n as f64).round() as i64;
        for (column, clustered) in [("lo_orderkey", true), ("lo_intkey", false)] {
            let pred = Predicate::between(column, lo, n - 1);
            let ((rows, counts), pruned_time) =
                time_best(|| pruned_count(catalog, &pred, cfg.threads));
            let skip_pct = 100.0 * counts.skipped as f64 / counts.total().max(1) as f64;
            if clustered {
                let (ref_rows, unpruned_time) =
                    time_best(|| unpruned_count(table, &pred, cfg.threads));
                assert_eq!(rows, ref_rows, "pruning changed the Δ-scan result");
                skip_clustered.push((f, skip_pct));
                ms_pruned_clustered.push((f, pruned_time.as_secs_f64() * 1e3));
                ms_unpruned_clustered.push((f, unpruned_time.as_secs_f64() * 1e3));
                if (f - 0.1).abs() < 1e-9 {
                    notes.push(format!(
                        "acceptance @ Δ=10% of domain (clustered): {}/{} morsels skipped \
                         ({:.1}%), {} fast-pathed, {} scanned; pruned {:.2} ms vs \
                         unpruned {:.2} ms ({:.2}x)",
                        counts.skipped,
                        counts.total(),
                        skip_pct,
                        counts.fast_pathed,
                        counts.scanned,
                        pruned_time.as_secs_f64() * 1e3,
                        unpruned_time.as_secs_f64() * 1e3,
                        unpruned_time.as_secs_f64() / pruned_time.as_secs_f64().max(1e-9),
                    ));
                }
            } else {
                skip_shuffled.push((f, skip_pct));
                ms_pruned_shuffled.push((f, pruned_time.as_secs_f64() * 1e3));
            }
        }
    }

    let mut fig = Figure::new(
        "pruning",
        "Zone-map pruning of Δ-scans: uncovered-fraction sweep, clustered vs. shuffled key",
        "uncovered fraction of key domain (Δ size)",
        "morsels skipped (%) / Δ-scan wall time (ms) — per series",
    )
    .with_series(Series::new(
        "skipped % (clustered lo_orderkey)",
        skip_clustered,
    ))
    .with_series(Series::new("skipped % (shuffled lo_intkey)", skip_shuffled))
    .with_series(Series::new("pruned ms (clustered)", ms_pruned_clustered))
    .with_series(Series::new(
        "unpruned ms (clustered)",
        ms_unpruned_clustered,
    ))
    .with_series(Series::new("pruned ms (shuffled)", ms_pruned_shuffled));
    for note in notes {
        fig = fig.with_note(note);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_experiment_runs_small() {
        let cfg = BenchConfig {
            sf: 0.005,
            threads: 2,
            ..Default::default()
        };
        let catalog = cfg.catalog();
        let fig = pruning(&cfg, &catalog);
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(
                s.points.len(),
                11,
                "series {} missing sweep points",
                s.label
            );
        }
        // f = 0 (empty Δ) prunes every morsel on both columns.
        assert_eq!(fig.series[0].points[0], (0.0, 100.0));
        assert_eq!(fig.series[1].points[0], (0.0, 100.0));
        // f = 1 (full domain) can never skip anything.
        assert_eq!(fig.series[0].points[10].1, 0.0);
        assert_eq!(fig.series[1].points[10].1, 0.0);
    }

    #[test]
    fn clustered_skips_where_shuffled_cannot() {
        // Enough rows for several morsels so partial coverage is visible.
        let cfg = BenchConfig {
            sf: 0.05,
            threads: 2,
            ..Default::default()
        };
        let catalog = cfg.catalog();
        let table = catalog.table("lineorder").unwrap();
        let n = table.num_rows() as i64;
        let blocks = table.synopsis().unwrap().num_blocks();
        assert!(blocks >= 4, "need several morsels, got {blocks}");
        // Δ = top 10% of the domain.
        let pred = |col: &str| Predicate::between(col, (n as f64 * 0.9) as i64, n - 1);
        let (_, clustered) = pruned_count(&catalog, &pred("lo_orderkey"), 2);
        let (_, shuffled) = pruned_count(&catalog, &pred("lo_intkey"), 2);
        // Clustered: all but the top ~10% of morsels skip.
        assert!(
            clustered.skipped as f64 >= 0.8 * blocks as f64,
            "expected >=80% skipped, got {}/{blocks}",
            clustered.skipped
        );
        // Shuffled: every morsel straddles the interval; nothing skips.
        assert_eq!(shuffled.skipped, 0);
        assert_eq!(shuffled.scanned as usize, blocks);
    }
}
