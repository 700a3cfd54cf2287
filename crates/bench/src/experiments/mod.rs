//! Experiment implementations, one per paper table/figure.

pub mod deadline;
pub mod micro;
pub mod pruning;
pub mod range_index;
pub mod sequence;
pub mod strategy;

pub use deadline::deadline;
pub use micro::{fig3, fig4};
pub use pruning::pruning;
pub use range_index::range_index;
pub use sequence::{
    ablation, fig10, fig11, fig12_13, fig14_15, fig9, headline, rate_sensitivity, seed_sensitivity,
    table1, SequenceKind,
};
pub use strategy::{fig6, fig8};

use laqy_engine::Catalog;
use laqy_workload::{generate, SsbConfig};

use crate::report::Figure;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// SSB scale factor (paper: 1000; laptop default: 0.05 ≈ 300k fact
    /// rows).
    pub sf: f64,
    /// Reservoir capacity for the sequence experiments. Sized so the
    /// total sample stays a small fraction of the laptop-scale input, as
    /// the paper's k=2000 is of its 6B-tuple input.
    pub k: usize,
    /// Reservoir capacity for the microbenchmarks (paper: 2000).
    pub k_micro: usize,
    /// Worker threads.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            sf: 0.05,
            k: 32,
            k_micro: 2000,
            threads: laqy_engine::parallel::default_threads(),
            seed: 0xBEEF,
        }
    }
}

impl BenchConfig {
    /// Generate the SSB catalog for this configuration.
    pub fn catalog(&self) -> Catalog {
        generate(&SsbConfig {
            scale_factor: self.sf,
            seed: self.seed,
        })
    }
}

/// All experiment names, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig6",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9a",
    "fig9b",
    "fig10",
    "fig11",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14a",
    "fig14b",
    "fig15a",
    "fig15b",
    "headline",
    "ablation",
    "seeds",
    "rates",
    "deadline",
    "pruning",
    "range_index",
];

/// Run one experiment by name against a pre-generated catalog.
pub fn run_experiment(name: &str, cfg: &BenchConfig, catalog: &Catalog) -> Option<Figure> {
    Some(match name {
        "table1" => table1(catalog),
        "fig3" => fig3(cfg, catalog),
        "fig4" => fig4(cfg, catalog),
        "fig6" => fig6(cfg, catalog),
        "fig8a" => fig8(cfg, catalog, strategy::Fig8Variant::QcsSelectivity),
        "fig8b" => fig8(cfg, catalog, strategy::Fig8Variant::QvsSelectivity),
        "fig8c" => fig8(cfg, catalog, strategy::Fig8Variant::LowSelectivity),
        "fig9a" => fig9(cfg, catalog, SequenceKind::Long),
        "fig9b" => fig9(cfg, catalog, SequenceKind::Short),
        "fig10" => fig10(cfg, catalog),
        "fig11" => fig11(cfg, catalog),
        "fig12a" => fig12_13(cfg, catalog, SequenceKind::Long, sequence::Template::Q1),
        "fig12b" => fig12_13(cfg, catalog, SequenceKind::Long, sequence::Template::Q2),
        "fig13a" => fig12_13(cfg, catalog, SequenceKind::Short, sequence::Template::Q1),
        "fig13b" => fig12_13(cfg, catalog, SequenceKind::Short, sequence::Template::Q2),
        "fig14a" => fig14_15(cfg, catalog, SequenceKind::Long, sequence::Template::Q1),
        "fig14b" => fig14_15(cfg, catalog, SequenceKind::Long, sequence::Template::Q2),
        "fig15a" => fig14_15(cfg, catalog, SequenceKind::Short, sequence::Template::Q1),
        "fig15b" => fig14_15(cfg, catalog, SequenceKind::Short, sequence::Template::Q2),
        "headline" => headline(cfg, catalog),
        "ablation" => ablation(cfg, catalog),
        "seeds" => seed_sensitivity(cfg, catalog),
        "rates" => rate_sensitivity(cfg, catalog),
        "deadline" => deadline(cfg, catalog),
        "pruning" => pruning::pruning(cfg, catalog),
        "range_index" => range_index(cfg, catalog),
        _ => return None,
    })
}
