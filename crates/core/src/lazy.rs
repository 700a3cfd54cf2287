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
//! {S'_1..S'_m}, Δ ← plan_lazy(store, S)          (greedy set cover; the
//!                                                 Δ residual is a union of
//!                                                 per-column interval boxes)
//! if m = 1 and Δ = ∅:      S_lazy ← S'_1                  (full reuse: offline)
//! else:                    S_Δi   ← DeltaSample(Δ_i)  ∀ fragments Δ_i
//!                          S_lazy ← SampleMerge_k(S'_1..S'_m, S_Δ1..S_Δn)
//!                                    (m ≥ 1: coverage reuse, lazy;
//!                                     m = 0: Δ = S's box, online)
//! ```
//!
//! Every arm is one [`CoveragePlan`]: a full hit selects one fresh sample
//! and leaves nothing to scan ([`CoveragePlan::hit`]); online sampling
//! selects none, and its one fragment is the query box
//! (`CoveragePlan::online`). `m` is capped at [`MAX_COVERAGE_SAMPLES`];
//! `m = 1` is the paper's single-sample Algorithm 1.
//! [`ReuseMode::FullMatchOnly`] is the strict-matching ablation: it runs
//! the online plan for anything but a hit.

use crate::descriptor::{Predicates, SampleDescriptor};
use crate::store::{SampleId, SampleStore};

/// Default cap on how many stored samples one coverage plan may merge.
/// Beyond a handful the per-sample clone + merge cost outweighs the
/// residual-measure reduction.
pub const MAX_COVERAGE_SAMPLES: usize = 4;

/// Fragment-count guard: greedy selection stops before a candidate whose
/// subtraction would shatter the residual into more boxes than separate
/// Δ-scans are worth.
const MAX_COVERAGE_FRAGMENTS: usize = 16;

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
/// plus the residual uncovered region of the query box as a union of
/// pairwise-disjoint per-column interval boxes. Each fragment is Δ-scanned
/// once; the lazy sample is the k-way reservoir merge of the selected
/// samples and the fragment samples. With no sample selected (m = 0) the
/// one fragment is the query box and the plan is online sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveragePlan {
    /// Selected stored samples, pairwise disjoint in population.
    pub samples: Vec<SampleId>,
    /// Residual uncovered region: pairwise-disjoint predicate boxes, each
    /// disjoint from every selected sample's population. Every box
    /// constrains exactly the query's constrained columns.
    pub fragments: Vec<Predicates>,
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
    /// The sample's full population predicates: scanning the tail over
    /// them (not just the query box) lets the tail sample be absorbed
    /// back into the stored sample, advancing its watermark.
    pub predicates: Predicates,
}

impl CoveragePlan {
    /// The plan that reuses no stored sample (m = 0): online sampling, one
    /// Δ over the whole query box at `watermark`.
    pub(crate) fn online(query: &SampleDescriptor, watermark: u64) -> Self {
        CoveragePlan {
            samples: Vec::new(),
            fragments: vec![query.predicates.clone()],
            tails: Vec::new(),
            watermark,
        }
    }

    /// The stored sample a full hit answers from: the plan's one selected
    /// sample when nothing is left to scan.
    pub fn hit(&self) -> Option<SampleId> {
        match self.samples[..] {
            [id] if self.fragments.is_empty() && self.tails.is_empty() => Some(id),
            _ => None,
        }
    }

    /// Total residual measure (sum of fragment box measures).
    pub fn residual_measure(&self) -> u128 {
        self.fragments.iter().map(|f| f.box_measure()).sum()
    }

    /// Fraction of the query's predicate region that must actually be
    /// scanned and sampled, relative to the full query box — 0.0 for a
    /// hit, 1.0 for online (Figure 9's "effective selectivity").
    ///
    /// Computed from the total measure of *all* Δ fragment boxes over the
    /// query's box measure, so it is correct for multi-column predicates
    /// (the old formula divided along the single varying column only).
    pub fn uncovered_fraction(&self, query: &SampleDescriptor) -> f64 {
        let query_m = query.predicates.box_measure();
        if query_m == 0 {
            return 0.0;
        }
        self.residual_measure() as f64 / query_m as f64
    }
}

/// Plan the lazy sampler for a query against a table at row watermark
/// `watermark` (generalized Algorithm 1).
///
/// Greedy weighted set cover over the query box: repeatedly select the
/// candidate sample removing the largest residual measure, keeping the
/// selected set pairwise disjoint in population (§5.1's merge
/// precondition), until [`MAX_COVERAGE_SAMPLES`] are chosen or no
/// candidate still covers any residual. Returns the selection plus
/// the residual as pairwise-disjoint boxes, each disjoint from every
/// selected sample's population — so one Δ-scan per fragment followed
/// by a k-way merge never double-samples a row. Selecting nothing leaves
/// the online plan.
///
/// Candidates must match the query's characteristics; merge candidates
/// additionally need QVS equality (a superset-QVS sample has a
/// different tuple layout, so it can serve full reuse but cannot be
/// merged with fragment samples) and must not constrain columns the
/// query leaves free (their residual would be unbounded).
///
/// Samples drawn below `watermark` are stale: they never serve bare full
/// reuse, and each one selected contributes a [`TailFragment`] — the
/// appended rows of its own population it has not absorbed — so the
/// executor Δ-scans the tail (row floor pushed down) and the merge still
/// covers every base row up to the watermark. Passing `0` is the
/// static-table case (no sample can be stale).
pub fn plan_lazy(store: &SampleStore, query: &SampleDescriptor, watermark: u64) -> CoveragePlan {
    if query.predicates.is_unsatisfiable() {
        return CoveragePlan::online(query, watermark);
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
        return CoveragePlan {
            samples: vec![id],
            fragments: Vec::new(),
            tails: Vec::new(),
            watermark,
        };
    }
    let mut plan = CoveragePlan::online(query, watermark);
    // (id, raw population predicates, coverage box within the query,
    // drawn-at watermark).
    let mut candidates: Vec<(SampleId, &Predicates, Predicates, u64)> = Vec::new();
    for (id, stored) in store.iter() {
        let d = &stored.descriptor;
        if !d.matches_characteristics(query) || d.qvs != query.qvs {
            continue;
        }
        if !d
            .predicates
            .columns()
            .all(|c| query.predicates.get(c).is_some())
        {
            continue;
        }
        let Some(cov) = query.predicates.intersect(&d.predicates) else {
            continue;
        };
        candidates.push((id, &d.predicates, cov, stored.watermark));
    }
    let mut selected: Vec<(SampleId, &Predicates, u64)> = Vec::new();
    while selected.len() < MAX_COVERAGE_SAMPLES && !plan.fragments.is_empty() {
        let mut best: Option<(usize, u128)> = None;
        for (i, (id, raw, cov, _)) in candidates.iter().enumerate() {
            if selected.iter().any(|(sid, _, _)| sid == id) {
                continue;
            }
            // Populations of merged samples must be pairwise disjoint.
            if selected
                .iter()
                .any(|(_, sel_raw, _)| raw.intersect(sel_raw).is_some())
            {
                continue;
            }
            let gain: u128 = (plan.fragments.iter())
                .filter_map(|f| f.intersect(cov))
                .map(|x| x.box_measure())
                .sum();
            if gain == 0 {
                continue;
            }
            if best.map(|(_, g)| gain > g).unwrap_or(true) {
                best = Some((i, gain));
            }
        }
        let Some((i, _)) = best else {
            break;
        };
        let (id, raw, cov, w) = &candidates[i];
        let next: Vec<Predicates> = (plan.fragments.iter())
            .flat_map(|f| f.subtract(cov))
            .collect();
        if next.len() > MAX_COVERAGE_FRAGMENTS {
            break;
        }
        selected.push((*id, raw, *w));
        plan.fragments = next;
    }
    plan.tails = (selected.iter())
        .filter(|(_, _, w)| *w < watermark)
        .map(|(id, raw, w)| TailFragment {
            id: *id,
            from_row: *w,
            predicates: (*raw).clone(),
        })
        .collect();
    plan.samples = selected.into_iter().map(|(id, _, _)| id).collect();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(plan, CoveragePlan::online(&desc(0, 9), 0));
        assert_eq!(plan.fragments, vec![desc(0, 9).predicates]);
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
        assert!(plan.fragments.is_empty());
        assert_eq!(plan.tails.len(), 1);
        assert_eq!(plan.tails[0].from_row, 0);
    }

    #[test]
    fn overlapping_sample_plans_coverage() {
        let store = store_with(0, 99);
        let q = desc(50, 149);
        let plan = plan_lazy(&store, &q, 0);
        assert_eq!(plan.samples.len(), 1);
        assert_eq!(plan.fragments.len(), 1);
        assert!(plan.tails.is_empty());
        assert_eq!(
            plan.fragments[0].get("x").unwrap(),
            &IntervalSet::of(Interval::new(100, 149))
        );
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
        assert_eq!(plan.fragments.len(), 1);
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

    #[test]
    fn uncovered_fraction_uses_all_delta_dimensions() {
        // Multi-column residual: query box 100×10 = 1000 points, fragments
        // covering 460 of them ⇒ 0.46 — the old single-varying-column
        // formula cannot express this.
        let mut q = desc(0, 99);
        q.predicates = Predicates::on("x", IntervalSet::of(Interval::new(0, 99)))
            .with("y", IntervalSet::of(Interval::new(0, 9)));
        let plan = CoveragePlan {
            samples: vec![],
            fragments: vec![
                Predicates::on("x", IntervalSet::of(Interval::new(0, 39)))
                    .with("y", IntervalSet::of(Interval::new(0, 9))),
                Predicates::on("x", IntervalSet::of(Interval::new(40, 99)))
                    .with("y", IntervalSet::of(Interval::new(0, 0))),
            ],
            tails: vec![],
            watermark: 0,
        };
        assert!((plan.uncovered_fraction(&q) - 0.46).abs() < 1e-12);
    }
}
