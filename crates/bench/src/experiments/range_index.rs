//! Δ cost against uncovered fraction through both of the sampler's row
//! sources: the zone-map scan and the range index (`laqy_engine::index`).
//!
//! One thread, the shuffled `lo_intkey` (no zone-map block prunes), the
//! Δ the top `f` of the key domain. Per point and source, the Q1 Δ-sampler
//! without the executor around it: the *scan* side — preparing the scan
//! (for the index, marking the candidates) and every morsel's
//! `scan_pruned` — and the *processing* side, stratified admission of
//! each morsel's selection on `lo_orderdate`. Both sources must select
//! the same rows in the same order, which the experiment asserts per
//! point. A third run per point lets the sampler's cut-off
//! (`index::prefer_index`) pick the source, as the executor does. The
//! notes give the per-candidate index cost, the per-row scan cost and one
//! cold index build: the measurements that cut-off is built from.

use std::time::{Duration, Instant};

use laqy_engine::index::prefer_index;
use laqy_engine::ops::PreparedScan;
use laqy_engine::parallel::DEFAULT_MORSEL_ROWS;
use laqy_engine::{Catalog, GroupKey, Predicate, PruneCounts, Table};
use laqy_sampling::{Lehmer64, StratifiedSampler};

use crate::report::{Figure, Series};

use super::BenchConfig;

/// Uncovered fractions of the key domain.
const FRACTIONS: [f64; 7] = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.0];

/// Timed repetitions per point; the fastest is kept.
const REPEATS: usize = 7;

/// One Δ through one row source.
struct Run {
    rows: Vec<u32>,
    scan: Duration,
    processing: Duration,
    /// Whether the index was the row source.
    indexed: bool,
}

impl Run {
    fn total(&self) -> Duration {
        self.scan + self.processing
    }
}

/// One Δ over `lo_intkey ∈ [lo, hi]`, the row source picked by `prefer`,
/// admitted into a `k`-row stratified sampler sized for `strata` strata.
fn delta(
    table: &Table,
    (lo, hi): (i64, i64),
    (k, strata): (usize, usize),
    prefer: fn(usize, usize) -> bool,
) -> Run {
    let predicate = Predicate::between("lo_intkey", lo, hi);
    let dates = table.column("lo_orderdate").expect("lo_orderdate");
    let t = Instant::now();
    let scan = PreparedScan::new(table, &predicate)
        .and_then(|s| {
            s.with_range_index("lo_intkey", &[(lo, hi)], &Predicate::True, None, 0, prefer)
        })
        .expect("Δ predicate");
    let mut run = Run {
        rows: Vec::new(),
        scan: t.elapsed(),
        processing: Duration::ZERO,
        indexed: false,
    };
    let mut sampler = StratifiedSampler::<GroupKey, u32>::with_strata_hint(k, strata);
    let mut rng = Lehmer64::new(7);
    let mut counts = PruneCounts::default();
    let n = table.num_rows();
    for start in (0..n).step_by(DEFAULT_MORSEL_ROWS) {
        let t = Instant::now();
        let sel = scan.scan_pruned(start..(start + DEFAULT_MORSEL_ROWS).min(n), &mut counts);
        let t_admit = Instant::now();
        run.scan += t_admit - t;
        for &row in &sel {
            sampler.offer(GroupKey::new(&[dates.i64_at(row as usize)]), row, &mut rng);
        }
        run.processing += t_admit.elapsed();
        run.rows.extend(sel);
    }
    run.indexed = counts.indexed > 0;
    run
}

/// The fastest of [`REPEATS`] runs of [`delta`].
fn best(
    table: &Table,
    range: (i64, i64),
    sampler: (usize, usize),
    prefer: fn(usize, usize) -> bool,
) -> Run {
    (0..REPEATS)
        .map(|_| delta(table, range, sampler, prefer))
        .min_by_key(Run::total)
        .expect("at least one run")
}

/// The `range_index` experiment: Δ scan and processing time against the
/// uncovered fraction through the index, through the scan, and through
/// the source the cut-off picks.
pub fn range_index(cfg: &BenchConfig, catalog: &Catalog) -> Figure {
    let lineorder = catalog.table("lineorder").expect("lineorder generated");
    let n = lineorder.num_rows();
    // A table of its own, so the first Δ below builds the index cold
    // whatever ran on the shared catalog before.
    let columns = ["lo_intkey", "lo_orderdate"].map(|c| {
        (
            c.to_string(),
            lineorder.column(c).expect("column").take(0..n),
        )
    });
    let table = Table::new("lineorder", columns.into()).expect("table");
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // Admission is sized for every date, as a Δ's sampler is sized for
    // the stored sample it extends.
    let dates = table.column("lo_orderdate").expect("lo_orderdate");
    let strata = (0..n)
        .map(|r| dates.i64_at(r))
        .collect::<std::collections::HashSet<_>>()
        .len();
    let sampler = (cfg.k, strata);

    let t = Instant::now();
    let _ = delta(&table, (0, -1), sampler, |_, _| true);
    let build = t.elapsed();

    let mut series: [Vec<(f64, f64)>; 5] = Default::default();
    // (candidates, index-side ns) per point.
    let mut index_points = Vec::new();
    let mut notes = vec![format!(
        "{n} fact rows, one thread, Δ = top f of the shuffled lo_intkey domain; \
         one cold index build {:.1} ms",
        ms(build)
    )];
    for &f in &FRACTIONS {
        let lo = ((1.0 - f) * n as f64).round() as i64;
        let range = (lo, n as i64 - 1);
        let by_index = best(&table, range, sampler, |_, _| true);
        let by_scan = best(&table, range, sampler, |_, _| false);
        let chosen = best(&table, range, sampler, prefer_index);
        assert_eq!(
            by_index.rows, by_scan.rows,
            "the row sources disagree at f = {f}"
        );
        let candidates = by_index.rows.len();
        index_points.push((candidates as f64, by_index.scan.as_nanos() as f64));
        for (points, t) in series.iter_mut().zip([
            by_index.scan,
            by_index.total(),
            by_scan.scan,
            by_scan.total(),
            chosen.total(),
        ]) {
            points.push((f, ms(t)));
        }
        notes.push(format!(
            "f = {f}: {candidates} candidates; index {:.2} ns/candidate, scan {:.2} ns/row; \
             the cut-off picks the {}",
            by_index.scan.as_nanos() as f64 / candidates.max(1) as f64,
            by_scan.scan.as_nanos() as f64 / n.max(1) as f64,
            if chosen.indexed { "index" } else { "scan" },
        ));
    }
    // The index side as a line in its candidates (1 % to 50 %): a slope
    // per candidate, and an intercept that grows with the indexed rows
    // (the bitmap's words).
    let (c0, t0) = index_points[0];
    let (c1, t1) = index_points[FRACTIONS.len() - 2];
    let slope = (t1 - t0) / (c1 - c0).max(1.0);
    notes.push(format!(
        "index side ≈ {slope:.2} ns per candidate + {:.3} ns per indexed row; \
         scan side at 1 %: {:.2} ns per row",
        (t0 - slope * c0) / n as f64,
        series[2][0].1 * 1e6 / n as f64,
    ));
    let chosen = &series[4];
    let full = chosen.last().map_or(0.0, |&(_, t)| t);
    let worst = chosen
        .iter()
        .map(|&(f, t)| t / (f * full).max(1e-9))
        .fold(0.0, f64::max);
    notes.push(format!(
        "chosen source against linear (f × its 100 % time): at most {worst:.2}×"
    ));

    let labels = [
        "index: scan side",
        "index: scan + processing",
        "scan: scan side",
        "scan: scan + processing",
        "chosen: scan + processing",
    ];
    let mut fig = Figure::new(
        "range_index",
        "Δ cost against uncovered fraction: range index vs. zone-map scan",
        "uncovered fraction of the key domain (Δ size)",
        "Δ time (ms, one thread) — per series",
    );
    for (label, points) in labels.into_iter().zip(series) {
        fig = fig.with_series(Series::new(label, points));
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
    fn range_index_experiment_runs_small() {
        let cfg = BenchConfig {
            sf: 0.005,
            threads: 1,
            ..Default::default()
        };
        let fig = range_index(&cfg, &cfg.catalog());
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.points.len(), FRACTIONS.len(), "{}", s.label);
        }
    }
}
