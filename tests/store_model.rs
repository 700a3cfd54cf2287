//! Model-based property tests for the sample store: random sequences of
//! queries are driven through the planner and write step the service runs
//! ([`plan_lazy`] → fetch / [`SampleStore::absorb_coverage`]) and checked
//! against a simple reference model (a coverage `IntervalSet` per sample
//! family).
//!
//! The invariants under test are the ones Algorithm 1's correctness rests
//! on, over the shapes of its one plan type:
//! - any two stored samples of one family overlap on the range column,
//!   whatever sequence of write steps built the store, so a plan never has
//!   a second sample to merge;
//! - a hit (one sample, nothing to scan) is planned iff some stored
//!   sample's coverage subsumes the query range;
//! - a plan that selects a sample has a residual equal to `query −
//!   coverage` of that sample, strictly smaller than the query;
//! - a plan that selects none (online) has the query as its residual, and
//!   no stored same-family sample overlaps the query;
//! - stored weights always equal the number of tuples absorbed into the
//!   family region (no tuple is ever double-counted by a merge) — Σ
//!   stratum weights == covered measure after every write;
//! - a tightened estimate from a stored sample is a walk's, whether or not
//!   the sample holds a range index, built before or since its last write
//!   or patched by an ingest's offers.

use std::collections::{HashMap, HashSet};

use laqy::{
    estimate, plan_lazy, CoveragePlan, EstimateOptions, Interval, IntervalSet, Predicates, Sample,
    SampleDescriptor, SampleId, SampleSchema, SampleStore, SlotKind, StoreWriteGuard,
};
use laqy_engine::{AggSpec, Column, GroupKey, Table};
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
    /// The planned sample the write step took out of the store (the union
    /// went back in).
    consolidated: Option<SampleId>,
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
    let mut consolidated = None;
    let subject = match plan.hit() {
        Some(id) => {
            store.get(id);
            id
        }
        None => {
            prop_assert!(plan.tail.is_none(), "static table: nothing is stale");
            absorbed = q.clone();
            if let Some(id) = plan.sample {
                absorbed = absorbed.union(&coverage(store, id));
            }
            let scans = (plan.parts().enumerate())
                .map(|(part, (set, _))| (part, sample_for(set, rng), true))
                .collect();
            let merged = store.absorb_coverage(&desc, &schema(), &plan, scans, true, rng);
            // The lazy sample covers the planned sample and the query,
            // every integer exactly once.
            let merged = merged.expect("the planned sample is stored");
            prop_assert_eq!(merged.sample.total_weight(), absorbed.measure());
            // One predicate column: the merged region is always one set,
            // so the planned sample was consolidated.
            prop_assert!(merged.union.is_some());
            if let Some(id) = plan.sample {
                prop_assert!(store.peek(id).is_none());
            }
            consolidated = plan.sample;
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
/// that builds its range index, is bit for bit one walk over a copy that
/// carries no index.
fn check_tightened(sample: &Sample, set: &IntervalSet) {
    let tighten = Predicates::on("x", set.clone());
    let opts = EstimateOptions {
        tighten: Some(&tighten),
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
    let walked = answer(&sample.without_range_index());
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
    match (plan.hit(), plan.sample) {
        (Some(id), _) => prop_assert!(coverage(store, id).subsumes(qset)),
        (None, None) => {
            // Online: the query is the residual, and no stored sample may
            // subsume or usefully overlap it.
            prop_assert_eq!(&plan.residual, qset);
            for (_, d) in store.descriptors() {
                let set = d.predicates.get("x").unwrap();
                prop_assert!(!set.subsumes(qset));
                prop_assert!(!set.overlaps(qset));
            }
        }
        (None, Some(id)) => {
            let selected = coverage(store, id);
            prop_assert_eq!(&plan.residual, &qset.difference(&selected));
            prop_assert!(plan.residual.measure() < qset.measure());
        }
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
            } else if plan.sample.is_none() {
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

// Coverage-planner model: for arbitrary stores, fragmented ones included
// (raw-inserted, disjoint or overlapping sets on the range column, as a
// hand-made snapshot may hold), and arbitrary query sets, `plan_lazy`
// must produce a plan that exactly tiles the query's set:
//
// - at most one selected sample, and none unless one covers part of the
//   query: the one covering the largest measure of it;
// - the residual disjoint from the selected sample's population and
//   inside the query;
// - measures add up: |query| = |selected ∩ query| + |residual| — the
//   plan neither double-covers nor drops any part of the query;
// - the residual is exactly `query − selected`, so an empty residual
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
            let best = (store.descriptors())
                .map(|(_, d)| d.predicates.set.intersect(q).measure())
                .max()
                .unwrap_or(0);
            let selected = plan.sample.map_or_else(IntervalSet::empty, |id| coverage(&store, id));
            // The plan takes the best candidate there is, if any.
            prop_assert_eq!(plan.sample.is_some(), best > 0);
            prop_assert_eq!(selected.intersect(q).measure(), best);
            // The residual avoids the selected population and lives inside
            // the query.
            prop_assert!(!plan.residual.overlaps(&selected));
            prop_assert!(q.subsumes(&plan.residual));
            // Exact tiling: covered + residual measures sum to the
            // query's measure.
            let covered = selected.intersect(q).measure();
            prop_assert_eq!(covered + plan.residual.measure(), q.measure());
            // And the residual is the query minus the selection, as sets.
            prop_assert_eq!(&plan.residual, &q.difference(&selected));
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
//   the least-recently-used samples; a write step consolidates at most the
//   one sample its plan selected;
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
                    superseded = driven.consolidated.into_iter().collect();
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

// Third model: the store's invariant under every write the product makes.
// Random sequences of `absorb`, coverage write steps (consolidating, with
// cut-short scans, with tails, and stale plans revalidated as the service
// does before its write), `absorb_tail`, ingest's `absorb_appended`,
// eviction (explicit and under a byte budget) and `drop_beyond`, over two
// families of one table — one that ingest catches up in place and one a
// fixed predicate keeps stale, so plans carry tails. After every op:
//
// - any two stored samples of one family overlap on the range column;
// - `plan_lazy` agrees, for every probe query, with the greedy k-way cover
//   the planner used to run (`greedy_cover`), and that cover never selects
//   more than one sample;
// - every stored sample's tightened estimates over the probes are a walk's,
//   so a range index built after one op and patched by a later ingest's
//   `absorb_appended` answers as a walk does.

/// Row `i`'s range-column value; every row is in group 0.
fn x_of(row: u64) -> i64 {
    (row * 7 % 300) as i64
}

/// Table `t` at row watermark `rows`.
fn table(rows: u64) -> Table {
    let x = (0..rows).map(x_of).collect();
    let g = vec![0; rows as usize];
    let columns = vec![
        ("x".into(), Column::Int64(x)),
        ("g".into(), Column::Int64(g)),
    ];
    Table::new("t", columns).unwrap()
}

/// Family 0 is the bare table (ingest absorbs it in place); family 1
/// carries a fixed predicate (ingest leaves it stale).
fn family(fam: u8, set: IntervalSet) -> SampleDescriptor {
    let mut d = descriptor(set);
    d.input = ["t[True]", "t[gated]"][usize::from(fam)].into();
    d
}

/// A sample of the rows `from..to` whose value lies in `set`.
fn rows_sample(set: &IntervalSet, from: u64, to: u64, rng: &mut Lehmer64) -> Sample {
    let mut s = Sample::new(&schema(), K);
    for row in from..to {
        let x = x_of(row);
        if set.contains(x) {
            s.offer(GroupKey::new(&[0]), &[x], rng);
        }
    }
    s
}

/// Any two stored samples of one family overlap on the range column.
fn check_families_overlap(store: &SampleStore) {
    let all: Vec<&SampleDescriptor> = store.descriptors().map(|(_, d)| d).collect();
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            if a.matches_characteristics(b) && b.matches_characteristics(a) {
                let (sa, sb) = (&a.predicates.set, &b.predicates.set);
                prop_assert!(sa.overlaps(sb), "one family, disjoint: {sa:?} and {sb:?}");
            }
        }
    }
}

/// The planner as it was before it took at most one sample: a greedy
/// cover of up to four pairwise-disjoint same-family samples, each stale
/// one with its tail `(sample, from_row, set)`. Kept as the reference
/// `plan_lazy` must agree with.
fn greedy_cover(
    store: &SampleStore,
    query: &SampleDescriptor,
    watermark: u64,
) -> (
    Vec<SampleId>,
    IntervalSet,
    Vec<(SampleId, u64, IntervalSet)>,
) {
    let mut residual = query.predicates.set.clone();
    if residual.is_empty() {
        return (Vec::new(), residual, Vec::new());
    }
    let hit = store.iter().find(|(_, stored)| {
        stored.descriptor.matches_characteristics(query)
            && stored.descriptor.predicates.subsumes(&query.predicates)
            && stored.watermark >= watermark
    });
    if let Some((id, _)) = hit {
        return (vec![id], IntervalSet::empty(), Vec::new());
    }
    let mut candidates = Vec::new();
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
    while selected.len() < 4 && !residual.is_empty() {
        let mut best: Option<(usize, u64)> = None;
        for (i, (id, raw, cov, _)) in candidates.iter().enumerate() {
            if (selected.iter()).any(|(sid, sel_raw, _)| sid == id || raw.overlaps(sel_raw)) {
                continue;
            }
            let gain = residual.intersect(cov).measure();
            if gain > 0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let Some((i, _)) = best else {
            break;
        };
        let (id, raw, cov, w) = &candidates[i];
        selected.push((*id, raw, *w));
        residual = residual.difference(cov);
    }
    let tails = (selected.iter())
        .filter(|(_, _, w)| *w < watermark)
        .map(|(id, raw, w)| (*id, *w, (*raw).clone()))
        .collect();
    (
        selected.into_iter().map(|(id, _, _)| id).collect(),
        residual,
        tails,
    )
}

/// `plan_lazy` for `query` is the greedy cover's, and that selects at
/// most one sample.
fn check_plan_is_the_greedy_cover(store: &SampleStore, query: &SampleDescriptor, watermark: u64) {
    let plan = plan_lazy(store, query, watermark);
    let (samples, residual, tails) = greedy_cover(store, query, watermark);
    prop_assert!(samples.len() <= 1, "the cover selected {samples:?}");
    prop_assert_eq!(plan.sample, samples.first().copied());
    prop_assert_eq!(&plan.residual, &residual);
    let tail = (plan.sample.zip(plan.tail)).map(|(id, t)| (id, t.from_row, t.set));
    prop_assert_eq!(tail, tails.into_iter().next());
}

/// A plan on its way to its write step: the plan, the planned sample's
/// set and watermark as planning saw them, and its scans.
struct Pending {
    query: SampleDescriptor,
    plan: CoveragePlan,
    snapshot: Option<(IntervalSet, u64)>,
    scans: Vec<(usize, Sample, bool)>,
}

/// Plan `query` at `watermark` and scan every part, each clean unless
/// `mask` cuts it short.
fn plan_and_scan(
    store: &SampleStore,
    query: SampleDescriptor,
    watermark: u64,
    mask: u64,
    rng: &mut Lehmer64,
) -> Pending {
    let plan = plan_lazy(store, &query, watermark);
    let snapshot = (plan.sample.and_then(|id| store.peek(id)))
        .map(|s| (s.descriptor.predicates.set.clone(), s.watermark));
    let scans = (plan.parts().enumerate())
        .map(|(part, (set, floor))| {
            let sample = rows_sample(set, floor, watermark, rng);
            (part, sample, mask >> part & 3 != 0)
        })
        .collect();
    Pending {
        query,
        plan,
        snapshot,
        scans,
    }
}

/// The write step of `pending`, merged only if its planned sample is
/// still as planning saw it (the service's revalidation). A hit writes
/// nothing.
fn write_step(store: &mut SampleStore, pending: Pending, rng: &mut Lehmer64) {
    let Pending {
        query,
        plan,
        snapshot,
        scans,
    } = pending;
    if plan.hit().is_some() {
        return;
    }
    let now = (plan.sample.and_then(|id| store.peek(id)))
        .map(|s| (s.descriptor.predicates.set.clone(), s.watermark));
    let valid = now == snapshot;
    store.absorb_coverage(&query, &schema(), &plan, scans, valid, rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn every_write_keeps_one_familys_samples_overlapping(
        ops in prop::collection::vec((0u8..16, 0u8..2, 0i64..300, 0i64..150, any::<u64>()), 1..48),
        probes in prop::collection::vec((0u8..2, set()), 1..6),
        budgeted in any::<bool>(),
    ) {
        let mut rng = Lehmer64::new(31);
        let mut rows = 300u64;
        let full = IntervalSet::of(Interval::new(0, 299));
        let budget = {
            let mut one = SampleStore::new();
            one.insert_raw(descriptor(full.clone()), schema(), sample_for(&full, &mut rng), 0);
            one.total_bytes() * 3
        };
        let store = laqy_sync::RwLock::new(SampleStore::new());
        let write = || StoreWriteGuard::new(store.write(), budgeted.then_some(budget));
        let mut pending: Option<Pending> = None;
        for (kind, fam, lo, w, a) in ops {
            let set = IntervalSet::of(Interval::new(lo, lo + w));
            let query = family(fam, set.clone());
            match kind {
                // A sample built outside any plan comes to rest.
                0 | 1 => {
                    let sample = rows_sample(&set, 0, rows, &mut rng);
                    write().absorb(query, schema(), sample, rows, &mut rng);
                }
                // A query planned and written at once.
                2..=6 => {
                    let planned = plan_and_scan(&store.read(), query, rows, a, &mut rng);
                    write_step(&mut write(), planned, &mut rng);
                }
                // A query planned now and written later, maybe stale by then.
                7 | 8 => pending = Some(plan_and_scan(&store.read(), query, rows, a, &mut rng)),
                9 | 10 => {
                    if let Some(planned) = pending.take() {
                        write_step(&mut write(), planned, &mut rng);
                    }
                }
                // A stale sample's tail caught up on its own.
                11 => {
                    let mut store = write();
                    let ids: Vec<SampleId> = store.iter().map(|(id, _)| id).collect();
                    if let Some(&id) = ids.get(a as usize % ids.len().max(1)) {
                        let s = store.peek(id).unwrap();
                        let (from, set) = (s.watermark, s.descriptor.predicates.set.clone());
                        if from < rows {
                            let tail = rows_sample(&set, from, rows, &mut rng);
                            prop_assert!(store.absorb_tail(id, &tail, from, rows, &mut rng));
                        }
                    }
                }
                // Ingest: the table grows and the bare family absorbs it.
                12 | 13 => {
                    rows += 20 + a % 60;
                    write().absorb_appended(&table(rows), &mut rng);
                }
                // Explicit eviction.
                14 => {
                    let mut store = write();
                    let ids: Vec<SampleId> = store.iter().map(|(id, _)| id).collect();
                    if let Some(&id) = ids.get(a as usize % ids.len().max(1)) {
                        prop_assert!(store.remove(id));
                    }
                }
                // Restore against a shorter table.
                _ => {
                    write().drop_beyond("t", rows - a % 100);
                }
            }
            let store = store.read();
            check_families_overlap(&store);
            for (fam, set) in &probes {
                check_plan_is_the_greedy_cover(&store, &family(*fam, set.clone()), rows);
            }
            for s in store.iter_samples() {
                for (_, set) in &probes {
                    check_tightened(&s.sample, set);
                }
            }
        }
    }
}
