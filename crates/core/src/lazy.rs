//! The lazy sampling planner — paper **Algorithm 1**, generalized from
//! one stored sample to a coverage plan over several (Figure 7).
//!
//! Given a query's logical sampler `S` (expressed as a
//! [`SampleDescriptor`]) and the sample store, produce the lazy sampler
//! plan. The original algorithm dispatches on a single stored sample;
//! because reservoir merging (§5.1) is associative, the same dispatch
//! extends to a *set* of pairwise-disjoint stored samples plus the
//! residual region of the query box:
//!
//! ```text
//! {S'_1..S'_m}, Δ ← plan_coverage(store, S)      (greedy set cover; the
//!                                                 Δ residual is a union of
//!                                                 per-column interval boxes)
//! if m = 1 and Δ = ∅:      S_lazy ← S'_1                  (full reuse: offline)
//! else if m ≥ 1:           S_Δi   ← DeltaSample(Δ_i)  ∀ fragments Δ_i
//!                          S_lazy ← SampleMerge_k(S'_1..S'_m, S_Δ1..S_Δn)
//!                                                         (coverage reuse: lazy)
//! else:                    S_lazy ← S                     (no reuse: online)
//! ```
//!
//! `m` is capped at [`MAX_COVERAGE_SAMPLES`]; `m = 1` is the paper's
//! single-sample Algorithm 1. [`ReuseMode::FullMatchOnly`] is the
//! strict-matching ablation: it demotes any coverage plan to online.

use crate::descriptor::SampleDescriptor;
use crate::store::{CoveragePlan, SampleId, SampleStore};

/// Default cap on how many stored samples one coverage plan may merge.
/// Beyond a handful the per-sample clone + merge cost outweighs the
/// residual-measure reduction.
pub const MAX_COVERAGE_SAMPLES: usize = 4;

/// How aggressively stored samples are reused — the axis the paper's
/// contribution moves along (Figure 2's design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseMode {
    /// LAQy with coverage planning: full reuse, multi-sample coverage
    /// (k-way Δ + merge) reuse, or online.
    #[default]
    Lazy,
    /// Taster-style all-or-none caching: a stored sample is used only when
    /// it fully subsumes the query; otherwise full online sampling (the
    /// "strict sample matching" baseline of §2, Issue #1).
    FullMatchOnly,
}

/// The execution plan for one logical sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LazyPlan {
    /// Use the stored sample as-is (tightening to the query predicate at
    /// estimation time). No scan, no sampling.
    FullReuse {
        /// The stored sample.
        id: SampleId,
    },
    /// Merge a set of stored samples with Δ samples of the residual
    /// fragments and of stale samples' append tails — the coverage-planning
    /// generalization of the paper's partial reuse (one sample, one Δ
    /// interval is the `samples.len() == 1`, `fragments.len() <= 1`
    /// special case).
    CoverageReuse(CoveragePlan),
    /// Full online sampling over the query predicate.
    Online,
}

impl LazyPlan {
    /// Fraction of the query's predicate region that must actually be
    /// scanned and sampled, relative to the full query box — 0.0 for full
    /// reuse, 1.0 for online (Figure 9's "effective selectivity").
    ///
    /// Computed from the total measure of *all* Δ fragment boxes over the
    /// query's box measure, so it is correct for multi-column predicates
    /// (the old formula divided along the single varying column only).
    pub fn uncovered_fraction(&self, query: &SampleDescriptor) -> f64 {
        match self {
            LazyPlan::FullReuse { .. } => 0.0,
            LazyPlan::Online => 1.0,
            LazyPlan::CoverageReuse(plan) => {
                let query_m = query.predicates.box_measure();
                if query_m == 0 {
                    return 0.0;
                }
                plan.residual_measure() as f64 / query_m as f64
            }
        }
    }
}

/// Plan the lazy sampler for a query (generalized Algorithm 1).
/// `watermark` is the fact table's row watermark at planning time (the
/// pinned epoch's): samples drawn below it must have their append tails
/// Δ-scanned, so a stale sample can never serve bare full reuse.
pub fn plan_lazy(store: &SampleStore, query: &SampleDescriptor, watermark: u64) -> LazyPlan {
    let plan = store.plan_coverage_at(query, watermark);
    if plan.samples.is_empty() {
        return LazyPlan::Online;
    }
    if plan.samples.len() == 1 && plan.fragments.is_empty() && plan.tails.is_empty() {
        return LazyPlan::FullReuse {
            id: plan.samples[0],
        };
    }
    LazyPlan::CoverageReuse(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Predicates;
    use crate::interval::{Interval, IntervalSet};
    use crate::sampler_ops::{Sample, SampleSchema, SlotKind};
    use laqy_engine::GroupKey;
    use laqy_sampling::Lehmer64;

    fn desc(lo: i64, hi: i64) -> SampleDescriptor {
        SampleDescriptor::new(
            "t",
            vec!["g".into()],
            vec!["x".into()],
            Predicates::on("x", IntervalSet::of(Interval::new(lo, hi))),
            4,
        )
    }

    fn sample_over(lo: i64, hi: i64) -> Sample {
        let mut rng = Lehmer64::new(1);
        let mut s = Sample::new(&schema(), 4);
        for i in lo..=hi {
            s.offer(GroupKey::new(&[0]), &[i], &mut rng);
        }
        s
    }

    fn schema() -> SampleSchema {
        SampleSchema::new(vec![("x".into(), SlotKind::Int)])
    }

    fn store_with(lo: i64, hi: i64) -> SampleStore {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(1);
        store.absorb(desc(lo, hi), schema(), sample_over(lo, hi), 0, &mut rng);
        store
    }

    #[test]
    fn empty_store_plans_online() {
        let store = SampleStore::new();
        let plan = plan_lazy(&store, &desc(0, 9), 0);
        assert_eq!(plan, LazyPlan::Online);
        assert_eq!(plan.uncovered_fraction(&desc(0, 9)), 1.0);
    }

    #[test]
    fn subsuming_sample_plans_full_reuse() {
        let store = store_with(0, 99);
        let plan = plan_lazy(&store, &desc(10, 20), 0);
        assert!(matches!(plan, LazyPlan::FullReuse { .. }));
        assert_eq!(plan.uncovered_fraction(&desc(10, 20)), 0.0);
    }

    #[test]
    fn stale_subsuming_sample_plans_coverage_with_tail() {
        // The stored sample was drawn at watermark 0; the table has since
        // grown to 500 rows. Full reuse would silently ignore the appended
        // rows, so the plan must carry the tail.
        let store = store_with(0, 99);
        let plan = plan_lazy(&store, &desc(10, 20), 500);
        match &plan {
            LazyPlan::CoverageReuse(CoveragePlan {
                samples,
                fragments,
                tails,
                ..
            }) => {
                assert_eq!(samples.len(), 1);
                assert!(fragments.is_empty());
                assert_eq!(tails.len(), 1);
                assert_eq!(tails[0].from_row, 0);
            }
            other => panic!("expected coverage reuse with tail, got {other:?}"),
        }
    }

    #[test]
    fn overlapping_sample_plans_coverage() {
        let store = store_with(0, 99);
        let q = desc(50, 149);
        let plan = plan_lazy(&store, &q, 0);
        match &plan {
            LazyPlan::CoverageReuse(CoveragePlan {
                samples,
                fragments,
                tails,
                ..
            }) => {
                assert_eq!(samples.len(), 1);
                assert_eq!(fragments.len(), 1);
                assert!(tails.is_empty());
                assert_eq!(
                    fragments[0].get("x").unwrap(),
                    &IntervalSet::of(Interval::new(100, 149))
                );
            }
            other => panic!("expected coverage reuse, got {other:?}"),
        }
        // Uncovered fraction: 50 of 100 points.
        assert!((plan.uncovered_fraction(&q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sample_plans_online() {
        let store = store_with(0, 99);
        assert_eq!(plan_lazy(&store, &desc(500, 599), 0), LazyPlan::Online);
    }

    #[test]
    fn fragmented_store_plans_multi_sample_coverage() {
        // Two disjoint stored samples, 40% each: coverage planning merges
        // both and reports ≤ 0.2 uncovered.
        let mut store = SampleStore::new();
        store.insert_raw(desc(0, 399), schema(), sample_over(0, 399), 0);
        store.insert_raw(desc(600, 999), schema(), sample_over(600, 999), 0);
        let q = desc(0, 999);

        let plan = plan_lazy(&store, &q, 0);
        match &plan {
            LazyPlan::CoverageReuse(CoveragePlan {
                samples, fragments, ..
            }) => {
                assert_eq!(samples.len(), 2);
                assert_eq!(fragments.len(), 1);
            }
            other => panic!("expected coverage reuse, got {other:?}"),
        }
        assert!(plan.uncovered_fraction(&q) <= 0.2 + 1e-12);
    }

    #[test]
    fn uncovered_fraction_uses_all_delta_dimensions() {
        // Multi-column residual: query box 100×10 = 1000 points, fragments
        // covering 460 of them ⇒ 0.46 — the old single-varying-column
        // formula cannot express this.
        let mut q = desc(0, 99);
        q.predicates = Predicates::on("x", IntervalSet::of(Interval::new(0, 99)))
            .with("y", IntervalSet::of(Interval::new(0, 9)));
        let plan = LazyPlan::CoverageReuse(CoveragePlan {
            samples: vec![],
            fragments: vec![
                Predicates::on("x", IntervalSet::of(Interval::new(0, 39)))
                    .with("y", IntervalSet::of(Interval::new(0, 9))),
                Predicates::on("x", IntervalSet::of(Interval::new(40, 99)))
                    .with("y", IntervalSet::of(Interval::new(0, 0))),
            ],
            tails: vec![],
            watermark: 0,
        });
        assert!((plan.uncovered_fraction(&q) - 0.46).abs() < 1e-12);
    }
}
