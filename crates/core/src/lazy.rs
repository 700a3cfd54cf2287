//! The lazy sampling planner — paper **Algorithm 1**, generalized from
//! one stored sample to a coverage plan over several (Figure 7).
//!
//! Given a query's logical sampler `S` (expressed as a
//! [`SampleDescriptor`]) and the sample store, produce the lazy sampler
//! plan. The original algorithm dispatches on a single stored sample;
//! because reservoir merging (§5.1) is associative, the same dispatch
//! extends to a *set* of pairwise-disjoint stored samples plus the
//! residual of the query's interval set on its range column:
//!
//! ```text
//! {S'_1..S'_m}, Δ ← plan_lazy(store, S)          (greedy set cover; Δ is
//!                                                 the query's set minus the
//!                                                 selected samples' sets)
//! if m = 1 and Δ = ∅:      S_lazy ← S'_1                  (full reuse: offline)
//! else:                    S_Δ    ← DeltaSample(Δ)
//!                          S_lazy ← SampleMerge_k(S'_1..S'_m, S_Δ)
//!                                    (m ≥ 1: coverage reuse, lazy;
//!                                     m = 0: Δ = S's set, online)
//! ```
//!
//! Every arm is one [`CoveragePlan`]: a full hit selects one fresh sample
//! and leaves nothing to scan ([`CoveragePlan::hit`]); online sampling
//! selects none, and its residual is the query's set
//! (`CoveragePlan::online`). `m` is capped at [`MAX_COVERAGE_SAMPLES`];
//! `m = 1` is the paper's single-sample Algorithm 1.
//! [`ReuseMode::FullMatchOnly`] is the strict-matching ablation: it runs
//! the online plan for anything but a hit.

use crate::descriptor::SampleDescriptor;
use crate::interval::IntervalSet;
use crate::store::{SampleId, SampleStore};

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

/// The lazy sampler plan — the coverage-planning generalization of
/// Algorithm 1's one stored sample and one Δ interval: a *set* of stored
/// samples (pairwise disjoint in population, §5.1's merge precondition)
/// plus the residual of the query's set on its range column. The residual
/// is Δ-scanned once; the lazy sample is the k-way reservoir merge of the
/// selected samples and the residual's sample. With no sample selected
/// (m = 0) the residual is the query's set and the plan is online
/// sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveragePlan {
    /// Selected stored samples, pairwise disjoint in population.
    pub samples: Vec<SampleId>,
    /// The query's set on its range column minus every selected sample's
    /// set: what is left to Δ-scan. Empty means nothing is.
    pub residual: IntervalSet,
    /// Un-absorbed append tails of the selected samples: for each selected
    /// sample drawn at a watermark below the table's, the rows
    /// `[from_row, table watermark)` within its population are not yet
    /// represented and must be Δ-scanned (with the row floor pushed down)
    /// before the k-way merge. Row-disjoint from the sample itself, so the
    /// merge precondition still holds.
    pub tails: Vec<TailFragment>,
    /// The table row watermark the plan was made against: what `tails` are
    /// measured up to, and what every Δ sample of this plan is drawn at.
    pub watermark: u64,
}

/// One selected sample's un-absorbed append tail (see
/// [`CoveragePlan::tails`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailFragment {
    /// The stale selected sample.
    pub id: SampleId,
    /// First base row the sample does not represent (its watermark).
    pub from_row: u64,
    /// The sample's whole set on the range column: scanning the tail over
    /// it (not just the query's) lets the tail sample be absorbed back
    /// into the stored sample, advancing its watermark.
    pub set: IntervalSet,
}

impl CoveragePlan {
    /// The plan that reuses no stored sample (m = 0): online sampling, one
    /// Δ over the query's whole set at `watermark`.
    pub(crate) fn online(query: &SampleDescriptor, watermark: u64) -> Self {
        CoveragePlan {
            samples: Vec::new(),
            residual: query.predicates.set.clone(),
            tails: Vec::new(),
            watermark,
        }
    }

    /// The stored sample a full hit answers from: the plan's one selected
    /// sample when nothing is left to scan.
    pub fn hit(&self) -> Option<SampleId> {
        match self.samples[..] {
            [id] if self.residual.is_empty() && self.tails.is_empty() => Some(id),
            _ => None,
        }
    }

    /// The plan's Δ-scan parts in order — the residual unless it is empty,
    /// then every tail — each as its set on the range column and the first
    /// row it scans.
    pub fn parts(&self) -> impl Iterator<Item = (&IntervalSet, u64)> {
        let residual = (!self.residual.is_empty()).then_some((&self.residual, 0));
        let tails = self.tails.iter().map(|t| (&t.set, t.from_row));
        residual.into_iter().chain(tails)
    }

    /// Fraction of the query's set that must actually be scanned and
    /// sampled — 0.0 for a hit, 1.0 for online (Figure 9's "effective
    /// selectivity").
    pub fn uncovered_fraction(&self, query: &SampleDescriptor) -> f64 {
        let query_m = query.predicates.set.measure();
        if query_m == 0 {
            return 0.0;
        }
        self.residual.measure() as f64 / query_m as f64
    }
}

/// Plan the lazy sampler for a query against a table at row watermark
/// `watermark` (generalized Algorithm 1).
///
/// Greedy weighted set cover over the query's set: repeatedly select the
/// candidate sample removing the largest residual measure, keeping the
/// selected set pairwise disjoint in population (§5.1's merge
/// precondition), until [`MAX_COVERAGE_SAMPLES`] are chosen or no
/// candidate still covers any residual. The residual left is disjoint
/// from every selected sample's population — so one Δ-scan of it
/// followed by a k-way merge never double-samples a row. Selecting
/// nothing leaves the online plan.
///
/// Candidates must match the query's characteristics (range column
/// included); merge candidates additionally need QVS equality (a
/// superset-QVS sample has a different tuple layout, so it can serve full
/// reuse but cannot be merged with the residual's sample).
///
/// Samples drawn below `watermark` are stale: they never serve bare full
/// reuse, and each one selected contributes a [`TailFragment`] — the
/// appended rows of its own population it has not absorbed — so the
/// executor Δ-scans the tail (row floor pushed down) and the merge still
/// covers every base row up to the watermark. Passing `0` is the
/// static-table case (no sample can be stale).
pub fn plan_lazy(store: &SampleStore, query: &SampleDescriptor, watermark: u64) -> CoveragePlan {
    let mut plan = CoveragePlan::online(query, watermark);
    if plan.residual.is_empty() {
        return plan;
    }
    // Full subsumption short-circuits: no merge happens, so a
    // superset-QVS sample qualifies — but only when the sample is
    // fresh; a stale subsuming sample must go through the greedy path
    // so its append tail gets scanned and merged in.
    let hit = store.iter().find(|(_, stored)| {
        stored.descriptor.matches_characteristics(query)
            && stored.descriptor.predicates.subsumes(&query.predicates)
            && stored.watermark >= watermark
    });
    if let Some((id, _)) = hit {
        plan.samples.push(id);
        plan.residual = IntervalSet::empty();
        return plan;
    }
    // (id, population set, coverage within the query, drawn-at watermark).
    let mut candidates: Vec<(SampleId, &IntervalSet, IntervalSet, u64)> = Vec::new();
    for (id, stored) in store.iter() {
        let d = &stored.descriptor;
        if !d.matches_characteristics(query) || d.qvs != query.qvs {
            continue;
        }
        let cov = query.predicates.set.intersect(&d.predicates.set);
        if !cov.is_empty() {
            candidates.push((id, &d.predicates.set, cov, stored.watermark));
        }
    }
    let mut selected: Vec<(SampleId, &IntervalSet, u64)> = Vec::new();
    while selected.len() < MAX_COVERAGE_SAMPLES && !plan.residual.is_empty() {
        let mut best: Option<(usize, u64)> = None;
        for (i, (id, raw, cov, _)) in candidates.iter().enumerate() {
            // Populations of merged samples must be pairwise disjoint.
            if selected
                .iter()
                .any(|(sid, sel_raw, _)| sid == id || raw.overlaps(sel_raw))
            {
                continue;
            }
            let gain = plan.residual.intersect(cov).measure();
            if gain > 0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let Some((i, _)) = best else {
            break;
        };
        let (id, raw, cov, w) = &candidates[i];
        selected.push((*id, raw, *w));
        plan.residual = plan.residual.difference(cov);
    }
    plan.tails = (selected.iter())
        .filter(|(_, _, w)| *w < watermark)
        .map(|(id, raw, w)| TailFragment {
            id: *id,
            from_row: *w,
            set: (*raw).clone(),
        })
        .collect();
    plan.samples = selected.into_iter().map(|(id, _, _)| id).collect();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Predicates;
    use crate::interval::Interval;
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
        assert_eq!(plan, CoveragePlan::online(&desc(0, 9), 0));
        assert_eq!(plan.residual, desc(0, 9).predicates.set);
        assert_eq!(plan.hit(), None);
    }

    #[test]
    fn subsuming_sample_plans_full_reuse() {
        let store = store_with(0, 99);
        let plan = plan_lazy(&store, &desc(10, 20), 0);
        let (id, _) = store.iter().next().unwrap();
        assert_eq!(plan.hit(), Some(id));
    }

    #[test]
    fn stale_subsuming_sample_plans_coverage_with_tail() {
        // The stored sample was drawn at watermark 0; the table has since
        // grown to 500 rows. Full reuse would silently ignore the appended
        // rows, so the plan must carry the tail.
        let store = store_with(0, 99);
        let plan = plan_lazy(&store, &desc(10, 20), 500);
        assert_eq!(plan.hit(), None);
        assert_eq!(plan.samples.len(), 1);
        assert!(plan.residual.is_empty());
        assert_eq!(plan.tails.len(), 1);
        assert_eq!(plan.tails[0].from_row, 0);
    }

    #[test]
    fn overlapping_sample_plans_coverage() {
        let store = store_with(0, 99);
        let q = desc(50, 149);
        let plan = plan_lazy(&store, &q, 0);
        assert_eq!(plan.samples.len(), 1);
        assert!(plan.tails.is_empty());
        assert_eq!(plan.residual, IntervalSet::of(Interval::new(100, 149)));
        // Uncovered fraction: 50 of 100 points.
        assert!((plan.uncovered_fraction(&q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sample_plans_online() {
        let store = store_with(0, 99);
        let q = desc(500, 599);
        assert_eq!(plan_lazy(&store, &q, 0), CoveragePlan::online(&q, 0));
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
        assert_eq!(plan.samples.len(), 2);
        assert_eq!(plan.residual, IntervalSet::of(Interval::new(400, 599)));
        assert!(plan.uncovered_fraction(&q) <= 0.2 + 1e-12);
    }

    #[test]
    fn uncovered_fraction_is_zero_for_a_hit_and_one_online() {
        let store = store_with(0, 99);
        let hit = desc(10, 20);
        assert_eq!(plan_lazy(&store, &hit, 0).uncovered_fraction(&hit), 0.0);
        let partial = desc(50, 149);
        let fraction = plan_lazy(&store, &partial, 0).uncovered_fraction(&partial);
        assert!(0.0 < fraction && fraction < 1.0, "{fraction}");
        let online = desc(500, 599);
        assert_eq!(
            plan_lazy(&store, &online, 0).uncovered_fraction(&online),
            1.0
        );
    }
}
