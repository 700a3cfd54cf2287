//! Vectorized batch-kernel throughput: row-at-a-time vs. vectorized vs.
//! fused scans (acceptance figure for the bitmask kernels).
//!
//! Three single-threaded strategies answer the same keyless
//! SUM(lo_revenue), COUNT over a BETWEEN predicate:
//!
//! - **row-at-a-time** — the pre-kernel pipeline: the `ops::reference`
//!   per-row evaluator materializes a selection vector, then aggregation
//!   runs over it. This is the oracle the proptests compare against.
//! - **vectorized** — the batch kernel evaluates 1024-row chunks into
//!   64-bit-word bitmasks (with zone-map pruning), the masks are decoded
//!   to a selection vector, and the same selection-bound aggregation
//!   runs.
//! - **fused** — chunk masks and zone-map `TakeAll` ranges feed the
//!   aggregate accumulators directly; no selection vector ever exists.
//!
//! Skipping the selection vector pays only if the masked fold is as
//! tight as the dense one: both fold one accumulator at a time over the
//! chunk or range. A masked fold that updates every accumulator row by
//! row runs *behind* vectorized on these keyless plans.
//!
//! The sweep crosses selectivity (0.1% .. 99%) with column layout:
//! `lo_orderkey` is clustered (zone maps prune and fast-path whole
//! morsels, so the kernels mostly see dense ranges) and `lo_intkey` is
//! shuffled (every morsel is a genuine Scan verdict — the kernels' worst
//! case and the honest measure of mask evaluation itself). Throughput is
//! reported in million rows/s of input scanned; all three strategies must
//! return identical aggregates, which the experiment asserts per point.

use laqy_engine::ops::aggregate::bind_table_cols;
use laqy_engine::ops::{group_by, reference, ExactAggFactory, Inputs, PreparedScan};
use laqy_engine::{execute_exact, AggSpec, Catalog, Predicate, PruneCounts, QueryPlan, Table};

use crate::report::{Figure, Series};
use crate::time_best;

use super::BenchConfig;

/// Selectivity sweep points: fraction of the key domain selected.
const SELECTIVITIES: [f64; 7] = [0.001, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99];

/// The moderate-selectivity point quoted in the acceptance note.
const MODERATE: f64 = 0.3;

fn specs() -> Vec<AggSpec> {
    vec![AggSpec::sum("lo_revenue"), AggSpec::count()]
}

/// Keyless aggregation over a materialized selection vector (shared tail
/// of the row-at-a-time and vectorized strategies).
fn aggregate_selection(table: &Table, sel: &[u32], specs: &[AggSpec]) -> Vec<f64> {
    let agg_inputs: Vec<_> = specs.iter().map(|s| s.input.clone()).collect();
    let inputs =
        Inputs::bind(&agg_inputs, bind_table_cols(table, Some(sel))).expect("columns exist");
    let gt = group_by(&[], &inputs, sel.len(), &ExactAggFactory::new(specs));
    gt.map
        .values()
        .next()
        .map(|a| a.finalize())
        .unwrap_or_default()
}

/// Strategy 1: per-row reference evaluator, then selection aggregation.
fn row_at_a_time(table: &Table, pred: &Predicate) -> Vec<f64> {
    let specs = specs();
    let compiled = pred.compile(table).expect("predicate validated");
    let sel = reference::eval_rows(&compiled, 0..table.num_rows());
    aggregate_selection(table, &sel, &specs)
}

/// Strategy 2: batch-kernel filter (with zone-map pruning) decoded to a
/// selection vector, then the same selection aggregation.
fn vectorized(table: &Table, pred: &Predicate) -> Vec<f64> {
    let specs = specs();
    let scan = PreparedScan::new(table, pred).expect("predicate validated");
    let mut counts = PruneCounts::default();
    let sel = scan.scan_pruned(0..table.num_rows(), &mut counts);
    aggregate_selection(table, &sel, &specs)
}

/// Strategy 3: fused filter+aggregate — the exact executor's walk, whose
/// masks and dense ranges feed the accumulators; no selection vector.
fn fused(catalog: &Catalog, pred: &Predicate) -> Vec<f64> {
    let plan = QueryPlan {
        fact: "lineorder".into(),
        predicate: pred.clone(),
        joins: vec![],
        group_by: vec![],
        aggs: specs(),
    };
    let (result, _) = execute_exact(catalog, &plan, 1).expect("predicate validated");
    result
        .rows
        .first()
        .map(|r| r.values.clone())
        .unwrap_or_default()
}

/// The `kernels` experiment: single-thread scan throughput of the three
/// strategies across a selectivity sweep, clustered vs. shuffled key.
pub fn kernels(_cfg: &BenchConfig, catalog: &Catalog) -> Figure {
    let table = catalog.table("lineorder").expect("lineorder generated");
    let n = table.num_rows();
    let mrows = |d: std::time::Duration| n as f64 / d.as_secs_f64().max(1e-9) / 1e6;

    let mut series: Vec<Series> = Vec::new();
    let mut notes = vec![format!(
        "{n} fact rows, single thread; SUM(lo_revenue), COUNT over BETWEEN"
    )];

    for (column, layout) in [("lo_orderkey", "clustered"), ("lo_intkey", "shuffled")] {
        let mut pts_row = Vec::new();
        let mut pts_vec = Vec::new();
        let mut pts_fused = Vec::new();
        for &sel in &SELECTIVITIES {
            // BETWEEN over the bottom `sel` fraction of the [0, n) key
            // domain; both columns are permutations of it, so actual
            // selectivity matches on either layout.
            let hi = ((sel * n as f64).round() as i64 - 1).max(0);
            let pred = Predicate::between(column, 0, hi);

            let (a_row, t_row) = time_best(|| row_at_a_time(table, &pred));
            let (a_vec, t_vec) = time_best(|| vectorized(table, &pred));
            let (a_fused, t_fused) = time_best(|| fused(catalog, &pred));
            assert_eq!(a_row, a_vec, "vectorized diverged at sel={sel} ({layout})");
            assert_eq!(a_row, a_fused, "fused diverged at sel={sel} ({layout})");

            pts_row.push((sel, mrows(t_row)));
            pts_vec.push((sel, mrows(t_vec)));
            pts_fused.push((sel, mrows(t_fused)));
            if (sel - MODERATE).abs() < 1e-9 {
                notes.push(format!(
                    "acceptance @ {:.0}% selectivity ({layout} {column}): row-at-a-time \
                     {:.1} Mrows/s, vectorized {:.1} Mrows/s, fused {:.1} Mrows/s \
                     (fused/row speedup {:.2}x)",
                    MODERATE * 100.0,
                    mrows(t_row),
                    mrows(t_vec),
                    mrows(t_fused),
                    t_row.as_secs_f64() / t_fused.as_secs_f64().max(1e-9),
                ));
            }
        }
        series.push(Series::new(format!("row-at-a-time ({layout})"), pts_row));
        series.push(Series::new(format!("vectorized ({layout})"), pts_vec));
        series.push(Series::new(format!("fused ({layout})"), pts_fused));
    }

    let mut fig = Figure::new(
        "kernels",
        "Batch-kernel scan throughput: row-at-a-time vs. vectorized vs. fused",
        "selectivity (fraction of rows selected)",
        "throughput (million input rows/s, single thread)",
    );
    for s in series {
        fig = fig.with_series(s);
    }
    for note in notes {
        fig = fig.with_note(note);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_experiment_runs_small() {
        let cfg = BenchConfig {
            sf: 0.005,
            threads: 1,
            ..Default::default()
        };
        let catalog = cfg.catalog();
        let fig = kernels(&cfg, &catalog);
        // 3 strategies x 2 layouts, full sweep each.
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(
                s.points.len(),
                SELECTIVITIES.len(),
                "series {} missing sweep points",
                s.label
            );
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "non-positive throughput in {}",
                s.label
            );
        }
        // One headline note per layout plus the setup line.
        assert_eq!(fig.notes.len(), 3);
    }
}
