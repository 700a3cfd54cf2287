//! Figures 6 and 8: the cost of predicate (un)predictability, and
//! stratified sampling vs. exact GroupBy.

use laqy::{Interval, LaqyService, SessionConfig};
use laqy_engine::Catalog;
use laqy_workload::strat;

use crate::experiments::micro::StratInput;
use crate::report::{Figure, Series};
use crate::time_best;

use super::BenchConfig;

const SELECTIVITIES: [f64; 7] = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];

/// Figure 6: sampling time under three predicate-handling strategies.
///
/// 1. *Predictable predicate, column in QVS*: push the filter down, keep a
///    2-column QCS (450 strata) — cheap but predicate-specific.
/// 2. *Unpredictable predicate, column added to QCS*: no pushdown, 3-column
///    QCS (4950 strata) over the full input — reusable for any predicate
///    value but pays the full stratification cost every time (the paper
///    measures 19–24× worst-case, 6.7–11× average slowdown vs. 1).
/// 3. *Predictable predicate on a QCS column*: push the filter down *and*
///    stratify on it — strata and tuples both shrink with selectivity.
pub fn fig6(cfg: &BenchConfig, catalog: &Catalog) -> Figure {
    let input = StratInput::from_catalog(catalog);
    let n = input.len();
    let mut qvs_pushdown = Vec::new();
    let mut qcs_no_pushdown = Vec::new();
    let mut qcs_pushdown = Vec::new();
    for sel in SELECTIVITIES {
        let key_cut = (n as f64 * sel) as i64;
        let (_, d) =
            time_best(|| input.build(n, 2, cfg.k_micro, cfg.seed, |r| input.intkey(r) < key_cut));
        qvs_pushdown.push((sel, d.as_secs_f64()));

        let (_, d) = time_best(|| input.build(n, 3, cfg.k_micro, cfg.seed, |_| true));
        qcs_no_pushdown.push((sel, d.as_secs_f64()));

        let q_cut = ((50.0 * sel).round() as i64).max(1);
        let (_, d) =
            time_best(|| input.build(n, 3, cfg.k_micro, cfg.seed, |r| input.quantity(r) <= q_cut));
        qcs_pushdown.push((sel, d.as_secs_f64()));
    }
    // Measured slowdown of the all-or-none strategy (2) vs. the
    // predicate-specific one (1).
    let ratios: Vec<f64> = qvs_pushdown
        .iter()
        .zip(&qcs_no_pushdown)
        .map(|(a, b)| b.1 / a.1.max(1e-9))
        .collect();
    let max_ratio = ratios.iter().cloned().fold(0.0, f64::max);
    let avg_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    Figure::new(
        "fig6",
        "Sampling time for various selectivities",
        "selectivity",
        "seconds (single-threaded build)",
    )
    .with_series(Series::new("pred on QVS, pushdown (450 strata)", qvs_pushdown))
    .with_series(Series::new(
        "pred col added to QCS, no pushdown (4950 strata)",
        qcs_no_pushdown,
    ))
    .with_series(Series::new(
        "pred on QCS col, pushdown (450-4950 strata)",
        qcs_pushdown,
    ))
    .with_note(format!(
        "measured all-or-none slowdown: max {max_ratio:.1}x, avg {avg_ratio:.1}x (paper: 19-24x max, 6.7-11x avg)"
    ))
}

/// Which fig8 panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig8Variant {
    /// (a) selectivity on a QCS column.
    QcsSelectivity,
    /// (b) selectivity on the QVS column.
    QvsSelectivity,
    /// (c) low selectivity (0–2 %) on the QVS column.
    LowSelectivity,
}

/// Figure 8: stratified sampling vs. exact GroupBy through the full engine
/// pipeline (parallel), for 1-column (50 strata) and 3-column (4950
/// strata) QCSs.
pub fn fig8(cfg: &BenchConfig, catalog: &Catalog, variant: Fig8Variant) -> Figure {
    let n = catalog
        .table("lineorder")
        .expect("lineorder generated")
        .num_rows() as i64;
    let (id, title, sels): (&str, &str, Vec<f64>) = match variant {
        Fig8Variant::QcsSelectivity => (
            "fig8a",
            "Selectivity on the QCS column: Strat vs GroupBy",
            SELECTIVITIES.to_vec(),
        ),
        Fig8Variant::QvsSelectivity => (
            "fig8b",
            "Selectivity on the QVS column: Strat vs GroupBy",
            SELECTIVITIES.to_vec(),
        ),
        Fig8Variant::LowSelectivity => (
            "fig8c",
            "Low selectivity on the QVS column: Strat vs GroupBy",
            vec![0.001, 0.0025, 0.005, 0.01, 0.02],
        ),
    };
    let mut fig = Figure::new(id, title, "selectivity", "seconds");
    for (cols, strata) in [(1usize, 50), (3, 4950)] {
        let mut strat_pts = Vec::new();
        let mut group_pts = Vec::new();
        for &sel in &sels {
            let (range_col, range) = match variant {
                Fig8Variant::QcsSelectivity => (
                    "lo_quantity",
                    Interval::new(1, ((50.0 * sel).round() as i64).max(1)),
                ),
                _ => (
                    "lo_intkey",
                    Interval::new(0, ((n as f64 * sel) as i64 - 1).max(0)),
                ),
            };
            let query = strat(cols, range_col, range, cfg.k);
            let session = LaqyService::with_config(
                catalog.clone(),
                SessionConfig {
                    threads: cfg.threads,
                    seed: cfg.seed,
                    ..Default::default()
                },
            );
            let online = session
                .run_online_oblivious(&query)
                .expect("fig8 online run");
            strat_pts.push((sel, online.stats.total.as_secs_f64()));
            let (_, exact_stats) = session.run_exact(&query).expect("fig8 exact run");
            group_pts.push((sel, exact_stats.total.as_secs_f64()));
        }
        fig.series
            .push(Series::new(format!("Strat |QCS|={strata}"), strat_pts));
        fig.series
            .push(Series::new(format!("GroupBy |QCS|={strata}"), group_pts));
    }
    fig.notes.push(
        "paper: both share the random-access pattern driven by |QCS|; Strat adds reservoir maintenance on top"
            .into(),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_workload::{generate, SsbConfig};

    fn tiny() -> (BenchConfig, Catalog) {
        let cfg = BenchConfig {
            sf: 0.001,
            k: 8,
            k_micro: 16,
            threads: 2,
            ..Default::default()
        };
        let catalog = generate(&SsbConfig {
            scale_factor: cfg.sf,
            seed: cfg.seed,
        });
        (cfg, catalog)
    }

    #[test]
    fn fig6_reports_three_strategies() {
        let (cfg, catalog) = tiny();
        let fig = fig6(&cfg, &catalog);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), SELECTIVITIES.len());
        }
        assert!(fig.notes[0].contains("slowdown"));
    }

    #[test]
    fn fig8_variants_produce_four_series() {
        let (cfg, catalog) = tiny();
        for v in [
            Fig8Variant::QcsSelectivity,
            Fig8Variant::QvsSelectivity,
            Fig8Variant::LowSelectivity,
        ] {
            let fig = fig8(&cfg, &catalog, v);
            assert_eq!(fig.series.len(), 4, "{v:?}");
            for s in &fig.series {
                assert!(!s.points.is_empty());
                assert!(s.points.iter().all(|p| p.1 >= 0.0));
            }
        }
    }
}
