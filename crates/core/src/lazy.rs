//! The lazy sampling planner — paper **Algorithm 1**, as one coverage
//! plan type (Figure 7).
//!
//! Given a query's logical sampler `S` (expressed as a
//! [`SampleDescriptor`]) and the sample store, produce the lazy sampler
//! plan: at most one stored sample `S'` plus the residual `Δ` of the
//! query's interval set on its range column.
//!
//! ```text
//! S', Δ ← plan_lazy(store, S)        (S' the candidate covering most of
//!                                     the query; Δ = S's set − S''s set)
//! if S' and Δ = ∅:   S_lazy ← S'                      (full reuse: offline)
//! else:              S_Δ    ← DeltaSample(Δ)
//!                    S_lazy ← SampleMerge(S', S_Δ)    (S': partial reuse, lazy;
//!                                                      no S': Δ = S's set, online)
//! ```
//!
//! One sample is all a plan can use: [`SampleStore::absorb`] keeps every
//! two stored samples of one family overlapping on the range column, and
//! merging two overlapping samples would count their shared rows twice.
//! Every arm is one [`CoveragePlan`]: a full hit selects a fresh sample
//! and leaves nothing to scan ([`CoveragePlan::hit`]); online sampling
//! selects none, and its residual is the query's set
//! (`CoveragePlan::online`). [`ReuseMode::FullMatchOnly`] is the
//! strict-matching ablation: it runs the online plan for anything but a
//! hit.

use crate::descriptor::SampleDescriptor;
use crate::interval::IntervalSet;
use crate::store::{SampleId, SampleStore};

/// How aggressively stored samples are reused — the axis the paper's
/// contribution moves along (Figure 2's design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReuseMode {
    /// LAQy: full reuse, partial reuse (Δ + merge), or online.
    #[default]
    Lazy,
    /// Taster-style all-or-none caching: a stored sample is used only when
    /// it fully subsumes the query; otherwise full online sampling (the
    /// "strict sample matching" baseline of §2, Issue #1).
    FullMatchOnly,
}

/// The lazy sampler plan — Algorithm 1's one stored sample and one Δ:
/// at most one stored sample plus the residual of the query's set on its
/// range column, and the sample's append tail when it is stale. The
/// residual is Δ-scanned once; the lazy sample is the reservoir merge of
/// the stored sample and the Δ samples. With no sample selected the
/// residual is the query's set and the plan is online sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveragePlan {
    /// The stored sample the plan reuses, if any.
    pub sample: Option<SampleId>,
    /// The query's set on its range column minus the selected sample's
    /// set: what is left to Δ-scan. Empty means nothing is.
    pub residual: IntervalSet,
    /// The selected sample's un-absorbed append tail: when it was drawn
    /// at a watermark below the table's, the rows `[from_row, table
    /// watermark)` within its population are not yet represented and must
    /// be Δ-scanned (with the row floor pushed down) before the merge.
    /// Row-disjoint from the sample itself, so the merge precondition
    /// still holds.
    pub tail: Option<TailFragment>,
    /// The table row watermark the plan was made against: what `tail` is
    /// measured up to, and what every Δ sample of this plan is drawn at.
    pub watermark: u64,
}

/// The selected sample's un-absorbed append tail (see
/// [`CoveragePlan::tail`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailFragment {
    /// First base row the sample does not represent (its watermark).
    pub from_row: u64,
    /// The sample's whole set on the range column: scanning the tail over
    /// it (not just the query's) lets the tail sample be absorbed back
    /// into the stored sample, advancing its watermark.
    pub set: IntervalSet,
}

impl CoveragePlan {
    /// The plan that reuses no stored sample: online sampling, one Δ over
    /// the query's whole set at `watermark`.
    pub(crate) fn online(query: &SampleDescriptor, watermark: u64) -> Self {
        CoveragePlan {
            sample: None,
            residual: query.predicates.set.clone(),
            tail: None,
            watermark,
        }
    }

    /// The stored sample a full hit answers from: the plan's sample when
    /// nothing is left to scan.
    pub fn hit(&self) -> Option<SampleId> {
        self.sample
            .filter(|_| self.residual.is_empty() && self.tail.is_none())
    }

    /// The plan's Δ-scan parts in order — the residual unless it is empty,
    /// then the tail — each as its set on the range column and the first
    /// row it scans.
    pub fn parts(&self) -> impl Iterator<Item = (&IntervalSet, u64)> {
        let residual = (!self.residual.is_empty()).then_some((&self.residual, 0));
        let tail = self.tail.as_ref().map(|t| (&t.set, t.from_row));
        residual.into_iter().chain(tail)
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
/// `watermark` (Algorithm 1).
///
/// A fresh sample whose set subsumes the query's is a full hit. Otherwise
/// the plan reuses the candidate covering the largest measure of the
/// query's set (the first one on a tie) and Δ-scans the rest; with no
/// candidate covering any of it, the plan is online sampling.
///
/// Candidates must match the query's characteristics (range column
/// included); merge candidates additionally need QVS equality (a
/// superset-QVS sample has a different tuple layout, so it can serve full
/// reuse but cannot be merged with the residual's sample).
///
/// A sample drawn below `watermark` is stale: it never serves bare full
/// reuse, and once selected contributes a [`TailFragment`] — the appended
/// rows of its own population it has not absorbed — so the executor
/// Δ-scans the tail (row floor pushed down) and the merge still covers
/// every base row up to the watermark. Passing `0` is the static-table
/// case (no sample can be stale).
pub fn plan_lazy(store: &SampleStore, query: &SampleDescriptor, watermark: u64) -> CoveragePlan {
    let mut plan = CoveragePlan::online(query, watermark);
    if plan.residual.is_empty() {
        return plan;
    }
    // Full subsumption short-circuits: no merge happens, so a
    // superset-QVS sample qualifies — but only when the sample is
    // fresh; a stale subsuming sample must be merged with its append
    // tail.
    let hit = store.iter().find(|(_, stored)| {
        stored.descriptor.matches_characteristics(query)
            && stored.descriptor.predicates.subsumes(&query.predicates)
            && stored.watermark >= watermark
    });
    if let Some((id, _)) = hit {
        plan.sample = Some(id);
        plan.residual = IntervalSet::empty();
        return plan;
    }
    // The candidate covering most of the query's set: (id, its stored
    // sample, that coverage).
    let mut best = None;
    let mut best_gain = 0;
    for (id, stored) in store.iter() {
        let d = &stored.descriptor;
        if !d.matches_characteristics(query) || d.qvs != query.qvs {
            continue;
        }
        let cov = query.predicates.set.intersect(&d.predicates.set);
        let gain = cov.measure();
        if gain > best_gain {
            (best, best_gain) = (Some((id, stored, cov)), gain);
        }
    }
    if let Some((id, stored, cov)) = best {
        plan.sample = Some(id);
        plan.residual = plan.residual.difference(&cov);
        plan.tail = (stored.watermark < watermark).then(|| TailFragment {
            from_row: stored.watermark,
            set: stored.descriptor.predicates.set.clone(),
        });
    }
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
        assert!(plan.sample.is_some());
        assert!(plan.residual.is_empty());
        assert_eq!(plan.tail.map(|t| t.from_row), Some(0));
    }

    #[test]
    fn overlapping_sample_plans_coverage() {
        let store = store_with(0, 99);
        let q = desc(50, 149);
        let plan = plan_lazy(&store, &q, 0);
        assert!(plan.sample.is_some());
        assert!(plan.tail.is_none());
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
