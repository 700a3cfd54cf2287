//! Model-based property tests for the sample store: random sequences of
//! queries are driven through the planner and write step the service runs
//! ([`plan_lazy`] → fetch / [`SampleStore::absorb_coverage`]) and checked
//! against a simple reference model (a coverage `IntervalSet` per sample
//! family).
//!
//! The invariants under test are the ones Algorithm 1's correctness rests
//! on, over the shapes of its one plan type:
//! - a hit (one sample, nothing to scan) is planned iff some stored
//!   sample's coverage subsumes the query range;
//! - a plan that selects samples has a residual equal to `query −
//!   coverage` of the selected samples, strictly smaller than the query;
//! - a plan that selects none (online) has the query as its residual, and
//!   no stored same-family sample overlaps the query;
//! - stored weights always equal the number of tuples absorbed into the
//!   family region (no tuple is ever double-counted by a merge) — Σ
//!   stratum weights == covered measure after every write;
//! - a tightened estimate from a stored sample is a walk's, whether or not
//!   the sample holds a range index, built before or since its last write.

use std::collections::{HashMap, HashSet};

use laqy::{
    estimate, plan_lazy, CoveragePlan, EstimateOptions, Interval, IntervalSet, Predicates, Sample,
    SampleDescriptor, SampleId, SampleSchema, SampleStore, SlotKind, StoreWriteGuard,
    MAX_COVERAGE_SAMPLES,
};
use laqy_engine::{AggSpec, GroupKey};
use laqy_sampling::Lehmer64;
use proptest::prelude::*;

const K: usize = 4;

fn descriptor(set: IntervalSet) -> SampleDescriptor {
    SampleDescriptor::new(
        "t",
        vec!["g".into()],
        vec!["x".into()],
        Predicates::on("x", set),
        K,
    )
}

fn schema() -> SampleSchema {
    SampleSchema::new(vec![("x".into(), SlotKind::Int)])
}

/// Build a sample whose tuples are exactly the integers of `set` (one
/// stratum), so weights are checkable against interval measures.
fn sample_for(set: &IntervalSet, rng: &mut Lehmer64) -> Sample {
    let mut s = Sample::new(&schema(), K);
    for iv in set.intervals() {
        for x in iv.lo..=iv.hi {
            s.offer(GroupKey::new(&[0]), &[x], rng);
        }
    }
    s
}

fn interval() -> impl Strategy<Value = Interval> {
    (0i64..300, 0i64..80).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

/// A set of one or two intervals.
fn set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(interval(), 1..3).prop_map(IntervalSet::from_intervals)
}

fn coverage(store: &SampleStore, id: SampleId) -> IntervalSet {
    let stored = store.peek(id).expect("sample is stored");
    stored.descriptor.predicates.get("x").unwrap().clone()
}

/// What one query did to the store.
struct Driven {
    /// The plan it ran.
    plan: CoveragePlan,
    /// The sample it read (full reuse) or that holds what it wrote.
    subject: SampleId,
    /// Planned samples the write step took out of the store (their union
    /// went back in).
    consolidated: Vec<SampleId>,
    /// The coverage the write step handed to `absorb` (empty on a hit).
    absorbed: IntervalSet,
}

/// Drive one query exactly as the service does: plan, then a hit touches
/// the sample (fetch); any other plan — online included — Δ-scans its
/// residual and runs the store's coverage write step.
fn drive(store: &mut SampleStore, q: &IntervalSet, rng: &mut Lehmer64) -> Driven {
    let desc = descriptor(q.clone());
    let plan = plan_lazy(store, &desc, 0);
    let mut absorbed = IntervalSet::empty();
    let mut consolidated = Vec::new();
    let subject = match plan.hit() {
        Some(id) => {
            store.get(id);
            id
        }
        None => {
            prop_assert!(plan.tails.is_empty(), "static table: nothing is stale");
            absorbed = q.clone();
            for id in &plan.samples {
                absorbed = absorbed.union(&coverage(store, *id));
            }
            let scans = (plan.parts().enumerate())
                .map(|(part, (set, _))| (part, sample_for(set, rng), true))
                .collect();
            let merged = store.absorb_coverage(&desc, &schema(), &plan, scans, true, rng);
            // The lazy sample covers the planned samples and the query,
            // every integer exactly once.
            let merged = merged.expect("every planned sample is stored");
            prop_assert_eq!(merged.sample.total_weight(), absorbed.measure());
            // One predicate column: the merged region is always one set,
            // so the planned samples were consolidated.
            prop_assert!(merged.union.is_some());
            for id in &plan.samples {
                prop_assert!(store.peek(*id).is_none());
            }
            consolidated = plan.samples.clone();
            let holder = store
                .descriptors()
                .find(|(_, d)| d.predicates.get("x").unwrap().subsumes(&absorbed));
            holder.expect("the union is stored").0
        }
    };
    // Whatever arm ran, the store now answers the query as a full hit.
    let hit = plan_lazy(store, &descriptor(q.clone()), 0).hit().is_some();
    prop_assert!(hit);
    Driven {
        plan,
        subject,
        consolidated,
        absorbed,
    }
}

/// Every tightened estimate of `sample` over `set`, up to and past the one
/// that builds its range index, is bit for bit one walk over a copy (a
/// copy never carries the index).
fn check_tightened(sample: &Sample, set: &IntervalSet) {
    let tighten = Predicates::on("x", set.clone());
    let opts = EstimateOptions {
        tighten: Some(&tighten),
        ..Default::default()
    };
    let aggs = [AggSpec::sum("x"), AggSpec::count(), AggSpec::avg("x")];
    // Every group's key and matching rows, and each estimate's value and
    // half-width bits and support, in one list.
    let answer = |s: &Sample| {
        let mut bits = Vec::new();
        for g in &estimate(s, &schema(), &aggs, &opts).unwrap() {
            bits.extend(g.key.iter().map(|&part| part as u64));
            bits.push(g.matching as u64);
            for a in g.values {
                bits.extend([
                    a.value.to_bits(),
                    a.ci_half_width.to_bits(),
                    a.support as u64,
                ]);
            }
        }
        bits
    };
    let walked = answer(&sample.clone());
    let mut estimates = 0;
    while sample.range_index_bytes().is_none() {
        prop_assert_eq!(answer(sample), walked.clone());
        estimates += 1;
        prop_assert!(
            estimates <= 64,
            "no range index after {estimates} estimates"
        );
    }
    prop_assert_eq!(answer(sample), walked);
}

/// A plan for `qset` agrees with the stored coverages it was made from.
fn check_plan(store: &SampleStore, qset: &IntervalSet) {
    let plan = plan_lazy(store, &descriptor(qset.clone()), 0);
    if let Some(id) = plan.hit() {
        prop_assert!(coverage(store, id).subsumes(qset));
    } else if plan.samples.is_empty() {
        // Online: the query is the residual, and no stored sample may
        // subsume or usefully overlap it.
        prop_assert_eq!(&plan.residual, qset);
        for (_, d) in store.descriptors() {
            let set = d.predicates.get("x").unwrap();
            prop_assert!(!set.subsumes(qset));
            prop_assert!(!set.overlaps(qset));
        }
    } else {
        let mut selected = IntervalSet::empty();
        for id in &plan.samples {
            let set = coverage(store, *id);
            prop_assert!(!set.overlaps(&selected), "selected populations overlap");
            selected = selected.union(&set);
        }
        prop_assert_eq!(&plan.residual, &qset.difference(&selected));
        prop_assert!(plan.residual.measure() < qset.measure());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn plans_agree_with_coverage_model(
        ops in prop::collection::vec(interval(), 1..12),
        queries in prop::collection::vec(interval(), 1..8),
    ) {
        let mut rng = Lehmer64::new(7);
        let mut store = SampleStore::new();

        // Drive the store exactly as the service would: plan, then reuse,
        // or Δ-scan + coverage write, according to the plan's shape. The
        // model tracks total covered ground.
        let mut model_coverage = IntervalSet::empty();
        for iv in &ops {
            let q = IntervalSet::of(*iv);
            let plan = drive(&mut store, &q, &mut rng).plan;
            if plan.hit().is_some() {
                // Model: already covered.
                prop_assert!(model_coverage.subsumes(&q));
            } else if plan.samples.is_empty() {
                prop_assert!(!q.overlaps(&model_coverage));
            } else {
                // The selected samples' coverage may be a subset of the
                // union model when several families split coverage; but
                // single-family workloads keep them equal.
                prop_assert!(!plan.residual.overlaps(&model_coverage) || store.len() > 1);
            }
            model_coverage = model_coverage.union(&q);
        }

        // The union of stored coverages must equal the model's coverage.
        let mut stored_union = IntervalSet::empty();
        for (_, d) in store.descriptors() {
            stored_union = stored_union.union(d.predicates.get("x").unwrap());
        }
        prop_assert_eq!(&stored_union, &model_coverage);

        // Total stored weight equals covered ground: every integer was
        // absorbed exactly once (no double sampling from merges).
        let total_weight: u64 = store.iter_samples().map(|s| s.sample.total_weight()).sum();
        prop_assert_eq!(total_weight, model_coverage.measure());

        // Plans for arbitrary queries agree with the model.
        for q in &queries {
            check_plan(&store, &IntervalSet::of(*q));
        }
    }
}

// Coverage-planner model: for arbitrary fragmented stores (raw-inserted,
// possibly overlapping sets on the range column) and arbitrary query
// sets, `plan_lazy` must produce a plan that exactly tiles the query's
// set:
//
// - at most `MAX_COVERAGE_SAMPLES` selected samples, with
//   pairwise-disjoint populations;
// - the residual disjoint from every selected sample's population and
//   inside the query;
// - measures add up: |query| = Σ|selected ∩ query| + |residual| — the
//   plan neither double-covers nor drops any part of the query;
// - the residual is exactly `query − ⋃ selected`, so an empty residual
//   means the selection alone covers the query.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn coverage_plans_tile_the_query_region(
        stored in prop::collection::vec(set(), 1..10),
        queries in prop::collection::vec(set(), 1..8),
    ) {
        let mut rng = Lehmer64::new(23);
        let mut store = SampleStore::new();
        for set in &stored {
            let s = sample_for(set, &mut rng);
            store.insert_raw(descriptor(set.clone()), schema(), s, 0);
        }

        for q in &queries {
            let plan = plan_lazy(&store, &descriptor(q.clone()), 0);
            prop_assert!(plan.samples.len() <= MAX_COVERAGE_SAMPLES);

            let selected: Vec<IntervalSet> =
                plan.samples.iter().map(|id| coverage(&store, *id)).collect();
            // Selected populations pairwise disjoint (merging two
            // overlapping samples would double-count their shared rows).
            for i in 0..selected.len() {
                for j in i + 1..selected.len() {
                    prop_assert!(!selected[i].overlaps(&selected[j]));
                }
            }
            // The residual avoids every selected population and lives
            // inside the query.
            for s in &selected {
                prop_assert!(!plan.residual.overlaps(s));
            }
            prop_assert!(q.subsumes(&plan.residual));
            // Exact tiling: covered + residual measures sum to the
            // query's measure.
            let covered: u64 = selected.iter().map(|s| s.intersect(q).measure()).sum();
            prop_assert_eq!(covered + plan.residual.measure(), q.measure());
            // And the residual is the query minus the selection, as sets.
            let union = (selected.iter()).fold(IntervalSet::empty(), |u, s| u.union(s));
            prop_assert_eq!(&plan.residual, &q.difference(&union));
            if plan.residual.is_empty() {
                prop_assert_eq!(covered, q.measure());
            }
        }
    }
}

// Second model: arbitrary interleavings of query-driven fetch / coverage
// write / online absorb, raw insertion (snapshot restore), and explicit
// eviction, optionally under a byte budget — the service's: the store
// behind its lock, written through a `StoreWriteGuard` that evicts
// least-recently-used samples when it drops. Each op runs under one write
// guard. The reference model
// tracks, after every single operation:
//
// - the just-written sample is never evicted by its own write;
// - the byte budget holds (down to a single protected sample);
// - samples leave the store only as the write step allows — planned
//   samples consolidated into their union, samples the absorbed coverage
//   subsumes replaced by it — or as budget evictions, which remove exactly
//   the least-recently-used samples;
// - every surviving sample's total weight equals its coverage measure
//   (no interleaving of merges and evictions double-counts or loses a
//   tuple);
// - nothing is ever stored that was not requested.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn interleavings_with_eviction_preserve_model(
        ops in prop::collection::vec((0u8..4, 0i64..300, 0i64..80, 0u64..8), 1..20),
        budgeted in any::<bool>(),
    ) {
        let mut rng = Lehmer64::new(11);
        // Two full reservoirs fit: the coverage write step consolidates the
        // samples it touches, so only a budget this tight keeps eviction
        // choosing between several candidates.
        let full = IntervalSet::of(Interval::new(0, 299));
        let mut scratch = SampleStore::new();
        scratch.insert_raw(
            descriptor(full.clone()),
            schema(),
            sample_for(&full, &mut Lehmer64::new(1)),
            0,
        );
        let budget = scratch.total_bytes() * 2;
        let store = laqy_sync::RwLock::new(SampleStore::new());
        let write = || StoreWriteGuard::new(store.write(), budgeted.then_some(budget));
        let mut requested = IntervalSet::empty();
        // Front = most recently used; mirrors the store's LRU stamps.
        let mut mru: Vec<SampleId> = Vec::new();

        for (kind, lo, w, pick) in &ops {
            let q = IntervalSet::of(Interval::new(*lo, lo + w));
            let evictions_before = store.read().evictions();
            let before: HashMap<SampleId, IntervalSet> = store
                .read()
                .descriptors()
                .map(|(id, d)| (id, d.predicates.get("x").unwrap().clone()))
                .collect();
            // The sample this op writes or touches: the newest LRU stamp
            // when the op's guard enforces the budget.
            let mut subject: Option<SampleId> = None;
            // Samples the op's write step itself takes out of the store.
            let mut superseded: Vec<SampleId> = Vec::new();
            match kind {
                // Query-driven, exactly as the service behaves.
                0 | 1 => {
                    requested = requested.union(&q);
                    let driven = drive(&mut write(), &q, &mut rng);
                    subject = Some(driven.subject);
                    superseded = driven.consolidated;
                    // A new sample replaces every stored one it subsumes;
                    // a write merged into a stored (disjoint) sample
                    // replaces every other one its union subsumes. A hit
                    // writes nothing.
                    let hit = driven.plan.hit().is_some();
                    let cover = match before.contains_key(&driven.subject) {
                        true => coverage(&store.read(), driven.subject),
                        false => driven.absorbed.clone(),
                    };
                    if !hit {
                        superseded.extend(
                            before
                                .iter()
                                .filter(|(id, set)| **id != driven.subject && cover.subsumes(set))
                                .map(|(id, _)| *id),
                        );
                    }
                }
                // Raw insertion (snapshot restore): bypasses merge/replace,
                // may duplicate coverage across samples.
                2 => {
                    requested = requested.union(&q);
                    let s = sample_for(&q, &mut rng);
                    subject = Some(write().insert_raw(descriptor(q.clone()), schema(), s, 0));
                }
                // Explicit eviction of an arbitrary stored sample.
                _ => {
                    if !mru.is_empty() {
                        let victim = mru[(*pick as usize) % mru.len()];
                        let mut store = write();
                        prop_assert!(store.remove(victim));
                        prop_assert!(store.peek(victim).is_none());
                        mru.retain(|i| *i != victim);
                    }
                }
            }
            let store = store.read();
            for id in &superseded {
                prop_assert!(store.peek(*id).is_none());
            }
            mru.retain(|i| !superseded.contains(i));
            if let Some(id) = subject {
                mru.retain(|i| *i != id);
                mru.insert(0, id);
                // Not evicted by its own write's budget enforcement.
                prop_assert!(store.peek(id).is_some());
            }

            if budgeted {
                prop_assert!(
                    store.total_bytes() <= budget || store.len() <= 1,
                    "budget violated: {} bytes across {} samples",
                    store.total_bytes(),
                    store.len()
                );
            } else {
                prop_assert_eq!(store.evictions(), 0);
            }

            // Budget evictions must take exactly the least-recently-used
            // samples (never the subject).
            let alive: HashSet<SampleId> = store.descriptors().map(|(i, _)| i).collect();
            let gone: Vec<SampleId> =
                mru.iter().copied().filter(|i| !alive.contains(i)).collect();
            prop_assert_eq!(gone.len() as u64, store.evictions() - evictions_before);
            let mut expected: Vec<SampleId> = mru
                .iter()
                .rev()
                .copied()
                .filter(|i| Some(*i) != subject)
                .take(gone.len())
                .collect();
            expected.sort();
            let mut gone_sorted = gone;
            gone_sorted.sort();
            prop_assert_eq!(gone_sorted, expected);
            mru.retain(|i| alive.contains(i));

            // Weight conservation per sample, under any interleaving; the
            // index built here must not outlive the sample's next write.
            let apart = IntervalSet::from_intervals(vec![
                Interval::new(*lo, lo + w / 2),
                Interval::new(lo + w / 2 + 5, lo + w + 40),
            ]);
            for s in store.iter_samples() {
                let cover = s.descriptor.predicates.get("x").unwrap();
                prop_assert_eq!(s.sample.total_weight(), cover.measure());
                check_tightened(&s.sample, &q);
                check_tightened(&s.sample, &apart);
            }
            // Nothing stored that was never requested.
            let mut union = IntervalSet::empty();
            for (_, d) in store.descriptors() {
                union = union.union(d.predicates.get("x").unwrap());
            }
            prop_assert!(requested.subsumes(&union));
        }

        // Surviving coverage still plans consistently.
        let store = store.read();
        for (_, lo, w, _) in &ops {
            check_plan(&store, &IntervalSet::of(Interval::new(*lo, lo + w)));
        }
    }
}
