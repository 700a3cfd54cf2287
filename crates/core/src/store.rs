//! The sample store: sample lifetime management, coverage planning and
//! the coverage write step (paper §6, "sample lifetime management module
//! that captures the generated samples to allow reuse on subsequent
//! queries").
//!
//! The store owns materialized stratified samples together with their
//! [`SampleDescriptor`]s. [`crate::lazy::plan_lazy`] plans a query against
//! them (Algorithm 1), and [`SampleStore::absorb_coverage`] is the matching
//! write step: it decides whether a finished plan replaces its sample and
//! how each Δ sample comes to rest. Every sample covers one interval set
//! on its range column, so a merge's coverage is the union of its inputs'
//! sets, and any two stored samples of one family overlap
//! ([`SampleStore::absorb`]). An optional byte budget with LRU eviction,
//! enforced by [`StoreWriteGuard`] after each write step, hooks this store
//! into Taster-style storage management (paper §8). The service holds one
//! store behind one lock: every query family shares it.

use std::sync::Arc;

use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::RwLockWriteGuard;

use laqy_engine::ops::ResolvedCol;
use laqy_engine::{GroupKey, MAX_KEY_COLS};
use laqy_sampling::Lehmer64;

use crate::descriptor::{Predicates, SampleDescriptor};
use crate::interval::IntervalSet;
use crate::lazy::CoveragePlan;
use crate::sampler_ops::{Part, Sample, SampleSchema};

/// Stable identity of a stored sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SampleId(u64);

/// A materialized sample with its descriptor and payload schema.
pub struct StoredSample {
    /// Identity and coverage.
    pub descriptor: SampleDescriptor,
    /// Payload tuple layout.
    pub schema: SampleSchema,
    /// The stratified sample itself. Shared, so a query that just merged
    /// it can estimate from it after releasing the store lock and a store
    /// snapshot copies a pointer; mutation (append absorb) is
    /// copy-on-write and replaces are a pointer swap.
    pub sample: Arc<Sample>,
    /// Row watermark this sample was drawn at: it fully represents its
    /// predicate set over base rows `0..watermark`. Appended rows land
    /// past the watermark; [`SampleStore::absorb_appended`] offers them to
    /// the reservoirs (advancing the watermark), and the coverage planner
    /// treats any remaining gap as a tail.
    pub watermark: u64,
    // Atomic so the concurrent service's read path (classification +
    // full-reuse lookup under a shared `RwLock` read guard) can refresh
    // the LRU stamp without taking the write lock.
    last_used: AtomicU64,
    bytes: usize,
}

impl StoredSample {
    /// A sample come to rest in the store. Every way in goes through here,
    /// so every stored sample has been settled.
    fn new(
        descriptor: SampleDescriptor,
        schema: SampleSchema,
        sample: Arc<Sample>,
        watermark: u64,
        last_used: u64,
    ) -> Self {
        let mut stored = StoredSample {
            descriptor,
            schema,
            sample,
            watermark,
            last_used: AtomicU64::new(last_used),
            bytes: 0,
        };
        stored.settle();
        stored
    }

    /// Settle the sample after an insert or merge (release growth slack,
    /// extend the key order: samples come to rest here; one a query still
    /// shares is left as it is, already at rest) and re-measure it.
    fn settle(&mut self) {
        if let Some(sample) = Arc::get_mut(&mut self.sample) {
            sample.settle();
        }
        self.bytes = self.sample.heap_bytes();
    }

    /// Algorithm-3 merge `other` (which must cover a disjoint population)
    /// into the sample, in place unless a reader still shares it.
    fn merge_in(&mut self, other: &Sample, rng: &mut Lehmer64) {
        Arc::make_mut(&mut self.sample).absorb(other, rng);
    }

    /// Heap bytes the sample occupies (the unit of budget accounting).
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A coverage plan's lazy sample, as [`SampleStore::absorb_coverage`]
/// returns it.
pub struct Merged {
    /// The merge of the planned sample and every Δ.
    pub sample: Arc<Sample>,
    /// When the merge replaced the planned sample: the union of its and
    /// the residual's sets, which every row of `sample` lies inside.
    pub union: Option<Predicates>,
    /// Δ payload rows the write step read.
    pub payload_rows: usize,
}

/// Whether the write step of `plan` can replace its sample by its merge
/// with the Δ, given each scan's `clean` flag: the residual was scanned to
/// completion and nothing was stale. Only then may a Δ's payload wait for
/// the merge to pick the rows it keeps.
pub(crate) fn consolidates(
    plan: &CoveragePlan,
    mut clean: impl ExactSizeIterator<Item = bool>,
) -> bool {
    plan.tail.is_none() && clean.len() == plan.parts().count() && clean.all(|clean| clean)
}

/// Outcome of one [`SampleStore::absorb_appended`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsorbReport {
    /// Samples whose reservoirs absorbed the appended rows in place.
    pub samples_absorbed: u64,
    /// Appended rows offered to reservoirs (post-predicate-filter).
    pub rows_absorbed: u64,
    /// Samples dropped because the appended table joins into their
    /// population (join output for already-sampled rows may have changed).
    pub samples_invalidated: u64,
}

/// The sample store.
pub struct SampleStore {
    samples: Vec<(SampleId, StoredSample)>,
    next_id: u64,
    // Atomic for the same reason as `StoredSample::last_used`: shared
    // readers advance the logical clock without exclusive access.
    clock: AtomicU64,
    evictions: u64,
}

impl SampleStore {
    /// Empty store. Its byte budget, if any, is the [`StoreWriteGuard`]'s.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            next_id: 0,
            clock: AtomicU64::new(0),
            evictions: 0,
        }
    }

    /// Allocate the next id.
    fn alloc_id(&mut self) -> SampleId {
        let id = SampleId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total payload bytes held.
    pub fn total_bytes(&self) -> usize {
        self.samples.iter().map(|(_, s)| s.bytes).sum()
    }

    /// Number of budget-driven evictions so far (see
    /// [`StoreWriteGuard`]).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate over stored samples (insertion order). Unlike
    /// [`SampleStore::get`], this does not touch LRU recency — it is for
    /// inspection (REPL `.samples`, tests), not for reuse.
    pub fn iter(&self) -> impl Iterator<Item = (SampleId, &StoredSample)> {
        self.samples.iter().map(|(id, s)| (*id, s))
    }

    /// Access a stored sample, updating its LRU stamp. Shared access
    /// suffices: the touch is a relaxed atomic store, so concurrent
    /// readers (the service's full-reuse path) never need the write lock.
    pub fn get(&self, id: SampleId) -> Option<&StoredSample> {
        let clock = self.tick();
        self.samples.iter().find(|(i, _)| *i == id).map(|(_, s)| {
            s.last_used.store(clock, Ordering::Relaxed);
            s
        })
    }

    /// Advance and read the logical LRU clock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Access without touching the LRU stamp.
    pub fn peek(&self, id: SampleId) -> Option<&StoredSample> {
        self.samples.iter().find(|(i, _)| *i == id).map(|(_, s)| s)
    }

    /// Iterate stored descriptors.
    pub fn descriptors(&self) -> impl Iterator<Item = (SampleId, &SampleDescriptor)> {
        self.samples.iter().map(|(id, s)| (*id, &s.descriptor))
    }

    /// Iterate stored samples in full (snapshot/persistence use).
    pub fn iter_samples(&self) -> impl Iterator<Item = &StoredSample> {
        self.samples.iter().map(|(_, s)| s)
    }

    /// Insert a sample verbatim, bypassing merge/replace logic (snapshot
    /// restore). `watermark` is the base-row watermark the sample was
    /// drawn at.
    pub fn insert_raw(
        &mut self,
        descriptor: SampleDescriptor,
        schema: SampleSchema,
        sample: impl Into<Arc<Sample>>,
        watermark: u64,
    ) -> SampleId {
        let clock = self.tick();
        let id = self.alloc_id();
        let stored = StoredSample::new(descriptor, schema, sample.into(), watermark, clock);
        self.samples.push((id, stored));
        id
    }

    /// An owned copy of the store: ids, LRU stamps and the eviction count
    /// kept, each sample shared rather than copied.
    pub fn snapshot(&self) -> SampleStore {
        let samples = self.samples.iter().map(|(id, s)| {
            let stored = StoredSample {
                descriptor: s.descriptor.clone(),
                schema: s.schema.clone(),
                sample: Arc::clone(&s.sample),
                watermark: s.watermark,
                last_used: AtomicU64::new(s.last_used.load(Ordering::Relaxed)),
                bytes: s.bytes,
            };
            (*id, stored)
        });
        SampleStore {
            samples: samples.collect(),
            next_id: self.next_id,
            clock: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            evictions: self.evictions,
        }
    }

    /// Replace every sample with `loaded`'s (snapshot restore, sample
    /// import), each inserted verbatim under a fresh id.
    pub(crate) fn replace_from(&mut self, loaded: SampleStore) {
        self.clear();
        for (_, s) in loaded.samples {
            self.insert_raw(s.descriptor, s.schema, s.sample, s.watermark);
        }
    }

    /// Evict the least-recently-used sample, if more than one is held.
    /// Returns whether a sample was dropped. This is the single-step
    /// primitive behind the [`StoreWriteGuard`]'s byte budget.
    fn evict_one_lru(&mut self) -> bool {
        if self.samples.len() <= 1 {
            return false;
        }
        let victim = self
            .samples
            .iter()
            .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
            .map(|(i, _)| *i);
        match victim {
            Some(v) => {
                self.remove(v);
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Insert a freshly built sample, combining it with the first stored
    /// same-characteristics sample whose set it does not overlap (valid
    /// union coverage — §5's non-overlap requirement). `watermark` is the
    /// row watermark the new sample was scanned at; a merge takes the
    /// conservative minimum of both sides' watermarks. Returns the id
    /// holding the data afterwards.
    ///
    /// This keeps the store's invariant: any two stored samples of one
    /// family overlap on the range column. An incoming sample either
    /// merges into one it does not overlap or overlaps every one of its
    /// family, and every other write only removes samples or leaves sets
    /// as they are. So a plan never has two samples to merge
    /// ([`crate::lazy::plan_lazy`]). Only [`Self::insert_raw`] bypasses
    /// it.
    pub fn absorb(
        &mut self,
        descriptor: SampleDescriptor,
        schema: SampleSchema,
        sample: impl Into<Arc<Sample>>,
        watermark: u64,
        rng: &mut Lehmer64,
    ) -> SampleId {
        let sample: Arc<Sample> = sample.into();
        let clock = self.tick();
        let same_shape = |a: &SampleDescriptor, b: &SampleDescriptor| {
            a.matches_characteristics(b) && b.matches_characteristics(a)
        };
        // Try to merge with an existing disjoint sample of the same shape.
        let target = self.samples.iter().position(|(_, s)| {
            same_shape(&s.descriptor, &descriptor)
                && !s
                    .descriptor
                    .predicates
                    .set
                    .overlaps(&descriptor.predicates.set)
        });
        if let Some(pos) = target {
            let (id, stored) = &mut self.samples[pos];
            stored.merge_in(&sample, rng);
            let set = &mut stored.descriptor.predicates.set;
            *set = set.union(&descriptor.predicates.set);
            stored.watermark = stored.watermark.min(watermark);
            stored.last_used.store(clock, Ordering::Relaxed);
            stored.settle();
            // The union may now cover another stored sample: drop it, as
            // an insert would, so no descriptor is stored twice.
            let (id, union) = (*id, stored.descriptor.clone());
            self.samples.retain(|(other, s)| {
                *other == id
                    || !(same_shape(&s.descriptor, &union)
                        && union.predicates.subsumes(&s.descriptor.predicates))
            });
            return id;
        }
        // Replace any stored sample this one subsumes.
        self.samples.retain(|(_, s)| {
            !(same_shape(&s.descriptor, &descriptor)
                && descriptor.predicates.subsumes(&s.descriptor.predicates))
        });
        let id = self.alloc_id();
        let stored = StoredSample::new(descriptor, schema, sample, watermark, clock);
        self.samples.push((id, stored));
        id
    }

    /// Merge a tail Δ sample — rows `[from_row, new_watermark)` of the
    /// stored sample's own population — into sample `id`, advancing its
    /// watermark to `new_watermark`. The two sides are row-disjoint by
    /// construction, so the weighted merge precondition holds and the
    /// result is distributed like a from-scratch sample at the new
    /// watermark. Returns `false` if the sample vanished or its watermark
    /// no longer equals `from_row` — the guard that makes concurrent
    /// clients' tail scans idempotent: a second absorb of the same tail
    /// (or of a tail overlapping rows another client already caught up)
    /// is rejected instead of double-counting rows.
    pub fn absorb_tail(
        &mut self,
        id: SampleId,
        tail_sample: &Sample,
        from_row: u64,
        new_watermark: u64,
        rng: &mut Lehmer64,
    ) -> bool {
        let clock = self.tick();
        let Some((_, stored)) = self.samples.iter_mut().find(|(i, _)| *i == id) else {
            return false;
        };
        if stored.watermark != from_row || new_watermark <= from_row {
            return false;
        }
        stored.merge_in(tail_sample, rng);
        stored.watermark = stored.watermark.max(new_watermark);
        stored.last_used.store(clock, Ordering::Relaxed);
        stored.settle();
        true
    }

    /// The write step of a coverage plan (Figure 7 step 4): bring the
    /// plan's Δ samples to rest and, when `merge` is set, return the merge
    /// of the planned stored sample with every Δ — the lazy sample `query`
    /// is answered from.
    ///
    /// `scans` holds one `(part, sample, clean)` per Δ-scan that ran, in
    /// scan order; `part` indexes [`CoveragePlan::parts`] (the residual,
    /// then the tail), and `clean` is false for a scan the budget cut
    /// short. The policy:
    ///
    /// - When every part of a tail-free plan was scanned cleanly
    ///   (`consolidates`), the planned sample leaves the store, the Δs are
    ///   merged into the largest input *in place* — a Δ whose payload was
    ///   not read yet ([`Part::Unread`]) is read for the rows the merge
    ///   keeps alone — and the result replaces it under the union
    ///   descriptor (shared with the caller, not copied), which
    ///   [`Merged::union`] reports.
    /// - Otherwise the merge is made on a copy and each clean scan is
    ///   absorbed on its own — the tail back into the planned sample (the
    ///   `from_row` guard of [`SampleStore::absorb_tail`] rejects a
    ///   replayed or overlapping tail instead of double-counting it), then
    ///   the residual under its own set: a union replacement would drop
    ///   the sample's watermark bookkeeping mid catch-up, and a sample of a
    ///   cut-short scan would overclaim coverage, so unclean scans take
    ///   part in the returned merge only, moved into it rather than
    ///   copied. Every Δ is read in full here.
    ///
    /// With `merge` unset (the caller's plan went stale) only the second
    /// half runs: the scan work is kept, nothing is merged. Returns `None`
    /// then, and when the planned sample is no longer stored.
    pub fn absorb_coverage(
        &mut self,
        query: &SampleDescriptor,
        schema: &SampleSchema,
        plan: &CoveragePlan,
        scans: Vec<(usize, impl Into<Part<'static>>, bool)>,
        merge: bool,
        rng: &mut Lehmer64,
    ) -> Option<Merged> {
        let scans: Vec<(usize, Part<'_>, bool)> = (scans.into_iter())
            .map(|(part, sample, clean)| (part, sample.into(), clean))
            .collect();
        // `Some(None)`: an online plan, with no stored sample to merge.
        let stored = match (merge, plan.sample) {
            (false, _) => None,
            (true, None) => Some(None),
            (true, Some(id)) => self.get(id).map(Some),
        };
        let union = match stored {
            Some(stored) if consolidates(plan, scans.iter().map(|(_, _, clean)| *clean)) => {
                let set = stored.map(|s| &s.descriptor.predicates.set);
                Some(set.map_or_else(|| plan.residual.clone(), |set| plan.residual.union(set)))
            }
            _ => None,
        };
        let at = |set: IntervalSet| SampleDescriptor {
            predicates: Predicates::on(query.predicates.column.clone(), set),
            ..query.clone()
        };
        if let Some(union) = union {
            let stored = plan.sample.and_then(|id| self.take(id));
            let mut inputs: Vec<Part<'_>> = stored
                .map(|s| Arc::unwrap_or_clone(s.sample).into())
                .into_iter()
                .collect();
            inputs.extend(scans.into_iter().map(|(_, part, _)| part));
            let (mut merged, payload_rows) = Sample::combine(inputs, rng);
            // Shared with the caller from here on, so `settle` cannot
            // reach it.
            merged.settle();
            let merged = Arc::new(merged);
            let shared = Arc::clone(&merged);
            let union = at(union);
            let predicates = union.predicates.clone();
            self.absorb(union, schema.clone(), shared, plan.watermark, rng);
            return Some(Merged {
                sample: merged,
                union: Some(predicates),
                payload_rows,
            });
        }
        // Each Δ comes to rest on its own: read what was not read yet. The
        // merge borrows the clean scans, `kept` for the store, and takes over
        // the unclean ones; `order` lists both in scan order (a kept scan by
        // its index), so the merge draws alike.
        let (mut payload_rows, mut kept, mut order) = (0, Vec::new(), Vec::new());
        for (part, sample, clean) in scans {
            payload_rows += sample.payload_rows();
            let sample = sample.into_sample();
            if clean {
                order.push(Ok(kept.len()));
                kept.push((part, sample));
            } else {
                order.push(Err(sample));
            }
        }
        let merged = stored.map(|stored| {
            let scans = order.into_iter().map(|scan| match scan {
                Ok(kept_at) => Part::from(&kept[kept_at].1),
                Err(unclean) => Part::from(unclean),
            });
            let inputs = stored
                .map(|s| Part::from(&*s.sample))
                .into_iter()
                .chain(scans);
            Merged {
                sample: Arc::new(Sample::combine(inputs.collect(), rng).0),
                union: None,
                payload_rows,
            }
        });
        // The tail is the plan's last part: it goes back into the planned
        // sample before the residual comes to rest.
        for (part, sample) in kept.into_iter().rev() {
            match (&plan.tail, plan.sample) {
                (Some(tail), Some(id)) if part + 1 == plan.parts().count() => {
                    self.absorb_tail(id, &sample, tail.from_row, plan.watermark, rng);
                }
                _ => {
                    let descriptor = at(plan.residual.clone());
                    self.absorb(descriptor, schema.clone(), sample, plan.watermark, rng);
                }
            }
        }
        merged
    }

    /// Incremental sample maintenance on append: offer the appended tail
    /// rows of `table` to every stored sample whose population is the bare
    /// table (input `"{table}[True]"` — no joins, no fixed predicate), as
    /// if the original reservoir pass had simply kept running. Continuing
    /// Algorithm R over new rows is distributionally identical to a
    /// from-scratch sample at the new watermark, so absorbed samples stay
    /// valid without eviction. Samples whose population *joins through*
    /// the appended table are invalidated instead (their join output for
    /// already-sampled rows may have changed); samples over the table with
    /// extra fixed predicates keep their stale watermark and are caught up
    /// lazily via coverage-plan tails.
    pub fn absorb_appended(
        &mut self,
        table: &laqy_engine::Table,
        rng: &mut Lehmer64,
    ) -> AbsorbReport {
        let new_w = table.row_watermark();
        let simple = format!("{}[True]", table.name());
        let join_token = format!("⋈{}(", table.name());
        let before = self.samples.len();
        self.samples
            .retain(|(_, s)| !s.descriptor.input.contains(&join_token));
        let mut report = AbsorbReport {
            samples_invalidated: (before - self.samples.len()) as u64,
            ..AbsorbReport::default()
        };
        let clock = self.tick();
        for (_, stored) in &mut self.samples {
            if stored.descriptor.input != simple || stored.watermark >= new_w {
                continue;
            }
            // Resolve every column the absorb loop touches to its typed
            // view up front; a miss (schema drift) leaves the sample stale
            // rather than corrupting it — the planner's tails
            // still apply.
            let resolve = |c: &str| table.column(c).map(ResolvedCol::from_column);
            let predicates = &stored.descriptor.predicates;
            let Ok(range_col) = resolve(&predicates.column) else {
                continue;
            };
            let Ok(key_cols) = stored
                .descriptor
                .qcs
                .iter()
                .map(|c| resolve(c))
                .collect::<laqy_engine::Result<Vec<_>>>()
            else {
                continue;
            };
            let Ok(val_cols) = stored
                .schema
                .column_names()
                .iter()
                .enumerate()
                .map(|(slot, c)| Ok((resolve(c)?, stored.schema.kind(slot))))
                .collect::<laqy_engine::Result<Vec<_>>>()
            else {
                continue;
            };
            // A row's payload is read only if Algorithm R admits it.
            let val_cols = &val_cols;
            let rows = (stored.watermark as usize..new_w as usize)
                .filter(|&row| predicates.set.contains(range_col.i64(row)))
                .map(|row| {
                    let mut key = [0; MAX_KEY_COLS];
                    for (part, col) in key.iter_mut().zip(&key_cols) {
                        *part = col.i64(row);
                    }
                    let payload = move |vals: &mut [i64]| {
                        for (val, (col, kind)) in vals.iter_mut().zip(val_cols) {
                            *val = kind.read(col, row);
                        }
                    };
                    (GroupKey::new(&key[..key_cols.len()]), payload)
                });
            let sample = Arc::make_mut(&mut stored.sample);
            report.rows_absorbed += sample.offer_appended(rows, rng);
            stored.watermark = new_w;
            stored.last_used.store(clock, Ordering::Relaxed);
            stored.settle();
            report.samples_absorbed += 1;
        }
        report
    }

    /// Drop every sample whose fact table is `table` and whose watermark
    /// exceeds `watermark` — the restore guard: a sample drawn against a
    /// longer table than the live one would reference rows that do not
    /// exist. A watermark counts fact rows, so samples over other fact
    /// tables (including joins *through* `table` as a dimension) are
    /// untouched. Returns the number dropped.
    pub fn drop_beyond(&mut self, table: &str, watermark: u64) -> u64 {
        let fact = format!("{table}[");
        let before = self.samples.len();
        self.samples
            .retain(|(_, s)| s.watermark <= watermark || !s.descriptor.input.starts_with(&fact));
        (before - self.samples.len()) as u64
    }

    /// Drop a sample.
    pub fn remove(&mut self, id: SampleId) -> bool {
        self.take(id).is_some()
    }

    /// Remove a sample and hand it over.
    fn take(&mut self, id: SampleId) -> Option<StoredSample> {
        let pos = self.samples.iter().position(|(i, _)| *i == id)?;
        Some(self.samples.remove(pos).1)
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

impl Default for SampleStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Exclusive access to the service's store under its byte budget.
/// Dereferences to the [`SampleStore`]; when it drops — after the whole
/// write step — it evicts least-recently-used samples while the store
/// holds more than the budget. The store keeps at least one sample, so a
/// single oversized sample is held rather than thrashed, and the sample
/// the step just wrote or touched holds the newest LRU stamp, so it goes
/// last.
pub struct StoreWriteGuard<'a> {
    store: RwLockWriteGuard<'a, SampleStore>,
    budget_bytes: Option<usize>,
}

impl<'a> StoreWriteGuard<'a> {
    /// Guard a write-locked store, enforcing `budget_bytes` (if any) when
    /// the guard drops.
    pub fn new(store: RwLockWriteGuard<'a, SampleStore>, budget_bytes: Option<usize>) -> Self {
        Self {
            store,
            budget_bytes,
        }
    }
}

impl std::ops::Deref for StoreWriteGuard<'_> {
    type Target = SampleStore;
    fn deref(&self) -> &SampleStore {
        &self.store
    }
}

impl std::ops::DerefMut for StoreWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut SampleStore {
        &mut self.store
    }
}

impl Drop for StoreWriteGuard<'_> {
    fn drop(&mut self) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while self.store.total_bytes() > budget && self.store.evict_one_lru() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::lazy::plan_lazy;
    use crate::sampler_ops::SlotKind;
    use laqy_sampling::Lehmer64;

    fn iv(lo: i64, hi: i64) -> IntervalSet {
        IntervalSet::of(Interval::new(lo, hi))
    }

    fn desc(lo: i64, hi: i64) -> SampleDescriptor {
        SampleDescriptor::new(
            "lineorder",
            vec!["lo_orderdate".into()],
            vec!["lo_intkey".into(), "lo_revenue".into()],
            Predicates::on("lo_intkey", iv(lo, hi)),
            8,
        )
    }

    fn schema() -> SampleSchema {
        SampleSchema::new(vec![
            ("lo_intkey".into(), SlotKind::Int),
            ("lo_revenue".into(), SlotKind::Int),
        ])
    }

    /// Build a toy stratified sample: strata 0..strata, `per` tuples each,
    /// intkey values drawn from [lo, hi].
    fn toy_sample(strata: i64, per: i64, lo: i64) -> Sample {
        let mut rng = Lehmer64::new(1);
        let mut s = Sample::new(&schema(), 8);
        for g in 0..strata {
            for i in 0..per {
                s.offer(GroupKey::new(&[g]), &[lo + i, 100 + i], &mut rng);
            }
        }
        s
    }

    /// What the store charges for one `toy_sample(2, 10, _)`.
    fn toy_bytes() -> usize {
        let mut store = SampleStore::new();
        let id = store.insert_raw(desc(0, 9), schema(), toy_sample(2, 10, 0), 0);
        store.peek(id).unwrap().bytes()
    }

    #[test]
    fn characteristics_mismatch_prevents_reuse() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(4);
        store.absorb(desc(0, 99), schema(), toy_sample(2, 10, 0), 0, &mut rng);
        assert!(plan_lazy(&store, &desc(10, 20), 0).sample.is_some());
        // Different QCS.
        let mut q = desc(10, 20);
        q.qcs = vec!["lo_quantity".into()];
        assert!(plan_lazy(&store, &q, 0).sample.is_none());
        // Different k.
        let mut q = desc(10, 20);
        q.k = 16;
        assert!(plan_lazy(&store, &q, 0).sample.is_none());
        // QVS requiring a column the sample lacks.
        let mut q = desc(10, 20);
        q.qvs = vec!["lo_tax".into()];
        assert!(plan_lazy(&store, &q, 0).sample.is_none());
    }

    #[test]
    fn absorb_coverage_consolidates_a_single_column_union_in_place() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(5);
        let id = store.absorb(desc(0, 99), schema(), toy_sample(2, 30, 0), 0, &mut rng);
        let query = desc(0, 199);
        let plan = plan_lazy(&store, &query, 0);
        assert_eq!(plan.sample, Some(id));
        assert_eq!(plan.residual, iv(100, 199));
        let scans = vec![(0, toy_sample(2, 30, 100), true)];
        let merged = store
            .absorb_coverage(&query, &schema(), &plan, scans, true, &mut rng)
            .expect("planned sample is stored");
        assert_eq!(merged.sample.total_weight(), 120);
        // The planned sample left the store; the union replaced it and is
        // the very sample the caller estimates from.
        assert!(store.peek(id).is_none());
        assert_eq!(store.len(), 1);
        let (_, s) = store.iter().next().unwrap();
        assert_eq!(s.descriptor.predicates, query.predicates);
        assert_eq!(merged.union.as_ref(), Some(&query.predicates));
        assert!(Arc::ptr_eq(&s.sample, &merged.sample));
        let full = plan_lazy(&store, &desc(0, 150), 0);
        assert!(full.residual.is_empty() && full.tail.is_none());
    }

    #[test]
    fn absorb_coverage_keeps_unclean_and_unmerged_scans_out_of_the_store() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(6);
        let id = store.absorb(desc(0, 99), schema(), toy_sample(2, 30, 0), 0, &mut rng);
        let query = desc(0, 199);
        let plan = plan_lazy(&store, &query, 0);
        assert_eq!(plan.residual, iv(100, 199));
        let scans = |clean| vec![(0, toy_sample(2, 30, 100), clean)];
        // A cut-short scan takes part in the answer's merge but is not
        // stored, and the plan is not consolidated.
        let merged = store
            .absorb_coverage(&query, &schema(), &plan, scans(false), true, &mut rng)
            .unwrap();
        assert_eq!(merged.sample.total_weight(), 120);
        assert_eq!(merged.union, None, "its rows span no stored set");
        let kept = store.peek(id).expect("no consolidation on a degraded plan");
        assert_eq!(kept.sample.total_weight(), 60);
        assert_eq!(kept.descriptor.predicates, desc(0, 99).predicates);
        // Without `merge` the clean scan comes to rest on its own (here:
        // unioned into the stored sample) and nothing is returned.
        let mut other = SampleStore::new();
        let oid = other.absorb(desc(0, 99), schema(), toy_sample(2, 30, 0), 0, &mut rng);
        assert!(other
            .absorb_coverage(&query, &schema(), &plan, scans(true), false, &mut rng)
            .is_none());
        let kept = other.peek(oid).unwrap();
        assert_eq!(kept.sample.total_weight(), 120);
        assert_eq!(kept.descriptor.predicates, query.predicates);
        // A vanished planned sample: same, whatever `merge` says.
        let mut gone = SampleStore::new();
        assert!(gone
            .absorb_coverage(&query, &schema(), &plan, scans(true), true, &mut rng)
            .is_none());
        let kept: u64 = gone.iter_samples().map(|s| s.sample.total_weight()).sum();
        assert_eq!(kept, 60);
    }

    #[test]
    fn absorb_merges_disjoint_same_shape() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(7);
        let a = store.absorb(desc(0, 99), schema(), toy_sample(2, 10, 0), 0, &mut rng);
        let b = store.absorb(
            desc(150, 199),
            schema(),
            toy_sample(2, 10, 150),
            0,
            &mut rng,
        );
        assert_eq!(a, b, "disjoint same-shape samples merge in place");
        assert_eq!(store.len(), 1);
        let d = store.peek(a).unwrap();
        let set = d.descriptor.predicates.get("lo_intkey").unwrap();
        assert_eq!(set.intervals().len(), 2);
    }

    #[test]
    fn a_merge_whose_union_covers_a_stored_sample_replaces_it() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(8);
        store.absorb(desc(0, 199), schema(), toy_sample(2, 20, 0), 0, &mut rng);
        // Subsumed by the stored sample, not disjoint from it: stored too.
        let narrow = store.absorb(desc(0, 99), schema(), toy_sample(2, 10, 0), 0, &mut rng);
        assert_eq!(store.len(), 2);
        // Disjoint from the narrow sample: merged into it, and the union
        // is `[0, 199]`, which the wide sample holds already.
        let merged = store.absorb(
            desc(100, 199),
            schema(),
            toy_sample(2, 10, 100),
            0,
            &mut rng,
        );
        assert_eq!(merged, narrow);
        let stored: Vec<_> = store.descriptors().map(|(id, d)| (id, d.clone())).collect();
        assert_eq!(
            stored,
            vec![(narrow, desc(0, 199))],
            "no descriptor stored twice"
        );
    }

    #[test]
    fn absorb_replaces_subsumed_samples() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(8);
        store.absorb(desc(10, 20), schema(), toy_sample(2, 5, 10), 0, &mut rng);
        // Overlapping (not disjoint) and subsuming ⇒ replaces.
        store.absorb(desc(0, 99), schema(), toy_sample(2, 20, 0), 0, &mut rng);
        assert_eq!(store.len(), 1);
        let (_, d) = store.descriptors().next().unwrap();
        assert_eq!(d.predicates.get("lo_intkey").unwrap(), &iv(0, 99));
    }

    /// `SampleStore` behind the lock the service holds it in.
    fn locked() -> laqy_sync::RwLock<SampleStore> {
        laqy_sync::RwLock::new(SampleStore::new())
    }

    #[test]
    fn budget_evicts_lru() {
        let mut rng = Lehmer64::new(9);
        // Each toy sample: an arena of 2 strata × 8 slots of 16-byte rows
        // plus the per-stratum arrays, the key index and the key order, as
        // allocated.
        let one = toy_bytes();
        assert!(one >= 2 * 8 * 16);
        let store = locked();
        let mut absorb = |d: SampleDescriptor, lo: i64| {
            let s = toy_sample(2, 10, lo);
            StoreWriteGuard::new(store.write(), Some(one * 2)).absorb(d, schema(), s, 0, &mut rng)
        };
        let a = absorb(desc(0, 9), 0);
        // A different shape so it cannot merge with `a`.
        let mut qb = desc(2000, 2009);
        qb.qcs = vec!["lo_discount".into()];
        let b = absorb(qb, 2000);
        // Touch `a` so the next insertion evicts `b`.
        store.read().get(a);
        let mut q = desc(4000, 4009);
        q.qcs = vec!["lo_quantity".into()]; // different shape: no merge
        let c = absorb(q, 4000);
        let store = store.read();
        assert_eq!(store.len(), 2);
        assert!(store.peek(a).is_some(), "recently used sample must survive");
        assert!(store.peek(b).is_none(), "least recently used sample goes");
        assert!(store.peek(c).is_some(), "the write the guard made stays");
        assert_eq!(store.evictions(), 1);
    }

    #[test]
    fn coverage_plan_full_subsumption_leaves_no_residual() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(11);
        let id = store.absorb(desc(0, 999), schema(), toy_sample(2, 10, 0), 0, &mut rng);
        let plan = plan_lazy(&store, &desc(100, 200), 0);
        assert_eq!(plan.sample, Some(id));
        assert!(plan.residual.is_empty());
    }

    #[test]
    fn coverage_plan_reuses_the_candidate_covering_most() {
        // Two overlapping stored samples (only a raw insert stores them
        // side by side): the plan reuses the one covering more of the
        // query, and the residual avoids its population.
        let mut store = SampleStore::new();
        store.insert_raw(desc(0, 599), schema(), toy_sample(2, 10, 0), 0);
        store.insert_raw(desc(400, 899), schema(), toy_sample(2, 10, 400), 0);
        let plan = plan_lazy(&store, &desc(0, 999), 0);
        let sel = plan.sample.expect("a candidate covers the query");
        let sel_preds = store.peek(sel).unwrap().descriptor.predicates.clone();
        assert_eq!(sel_preds.get("lo_intkey").unwrap(), &iv(0, 599));
        assert_eq!(plan.residual, iv(600, 999));
    }

    #[test]
    fn coverage_plan_excludes_superset_qvs_from_merges() {
        let mut store = SampleStore::new();
        // Superset-QVS sample: may serve full reuse, but has a different
        // tuple layout so it cannot be merged with a Δ.
        let mut wide = desc(0, 399);
        wide.qvs.push("lo_tax".into());
        store.insert_raw(wide.clone(), schema(), toy_sample(2, 10, 0), 0);
        let plan = plan_lazy(&store, &desc(0, 999), 0);
        assert!(plan.sample.is_none(), "superset QVS cannot merge");
        assert_eq!(plan.residual, iv(0, 999));
        // Full subsumption still allowed.
        let full = plan_lazy(&store, &desc(100, 200), 0);
        assert!(full.sample.is_some());
        assert!(full.residual.is_empty());
    }

    #[test]
    fn a_sample_over_another_range_column_is_never_planned() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(12);
        let mut d = desc(0, 999);
        d.predicates = Predicates::on("lo_orderkey", iv(0, 999));
        let other = store.absorb(d, schema(), toy_sample(2, 10, 0), 0, &mut rng);
        // The same set on another column covers none of the query's rows:
        // neither a hit nor a merge candidate.
        let plan = plan_lazy(&store, &desc(0, 999), 0);
        assert!(plan.sample.is_none());
        assert_eq!(plan.residual, iv(0, 999));
        assert!(plan_lazy(&store, &desc(100, 200), 0).sample.is_none());
        // Nor does a sample over the query's column merge into it.
        let own = store.absorb(
            desc(2000, 2999),
            schema(),
            toy_sample(2, 10, 0),
            0,
            &mut rng,
        );
        assert_ne!(own, other);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn unsatisfiable_query_is_none() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(10);
        store.absorb(desc(0, 99), schema(), toy_sample(2, 10, 0), 0, &mut rng);
        let mut q = desc(0, 0);
        q.predicates = Predicates::on("lo_intkey", IntervalSet::empty());
        assert!(plan_lazy(&store, &q, 0).sample.is_none());
    }

    /// A descriptor with a distinct fingerprint (different QCS).
    fn desc_shaped(shape: usize, lo: i64, hi: i64) -> SampleDescriptor {
        let mut d = desc(lo, hi);
        d.qcs = vec![format!("qcs_{shape}")];
        d
    }

    #[test]
    fn snapshot_preserves_ids_stamps_and_contents() {
        let mut store = SampleStore::new();
        let ids: Vec<SampleId> = (0..6)
            .map(|s| store.insert_raw(desc_shaped(s, 0, 99), schema(), toy_sample(2, 10, 0), 0))
            .collect();
        let unique: std::collections::HashSet<SampleId> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "ids never collide");
        store.get(ids[2]);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 6);
        for id in ids {
            let (s, original) = (snap.peek(id).expect("ids kept"), store.peek(id).unwrap());
            assert_eq!(s.sample.total_weight(), 20);
            assert!(
                Arc::ptr_eq(&s.sample, &original.sample),
                "shared, not copied"
            );
            let stamp = |s: &StoredSample| s.last_used.load(Ordering::Relaxed);
            assert_eq!(stamp(s), stamp(original), "LRU stamps kept");
        }
    }

    #[test]
    fn replace_from_restores_every_sample_under_fresh_ids() {
        let mut store = SampleStore::new();
        let old = store.insert_raw(desc(0, 99), schema(), toy_sample(2, 10, 0), 0);
        let mut flat = SampleStore::new();
        for s in 0..8 {
            flat.insert_raw(desc_shaped(s, 0, 99), schema(), toy_sample(2, 10, 0), 0);
        }
        store.replace_from(flat);
        assert_eq!(store.len(), 8);
        assert!(store.peek(old).is_none(), "the old contents are gone");
        for s in 0..8 {
            let d = desc_shaped(s, 0, 99);
            let plan = plan_lazy(&store, &d, 0);
            assert!(plan.hit().is_some_and(|id| id != old), "restored: {plan:?}");
        }
    }

    #[test]
    fn budget_holds_across_guard_drops_down_to_one_sample() {
        // insert_raw keeps the samples as separate entries, and a budget
        // of two samples holds once each guard drops, whatever family the
        // samples belong to.
        let one = toy_bytes();
        let store = locked();
        let write = || StoreWriteGuard::new(store.write(), Some(one * 2));
        for s in 0..6 {
            let d = desc_shaped(s % 2, s as i64 * 100, s as i64 * 100 + 99);
            write().insert_raw(d, schema(), toy_sample(2, 10, 0), 0);
            let store = store.read();
            assert!(
                store.total_bytes() <= one * 2,
                "budget holds once the guard drops"
            );
        }
        assert_eq!(store.read().evictions(), 4, "overflow evicts");

        // The floor is one sample for the whole store: a sample over the
        // budget on its own is held, and the next write evicts it.
        let tight = || StoreWriteGuard::new(store.write(), Some(one / 2));
        let big = tight().insert_raw(desc_shaped(7, 0, 99), schema(), toy_sample(2, 10, 0), 0);
        assert_eq!(store.read().len(), 1);
        let next = tight().insert_raw(desc_shaped(8, 0, 99), schema(), toy_sample(2, 10, 0), 0);
        let store = store.read();
        assert!(store.peek(big).is_none() && store.peek(next).is_some());
        assert_eq!(store.len(), 1);
    }

    /// A live table matching `desc_live` descriptors: the input identity
    /// of a no-join, no-fixed-predicate sampler over it is
    /// `"lineorder[True]"`.
    fn live_table(rows: i64) -> laqy_engine::Table {
        laqy_engine::Table::new(
            "lineorder",
            vec![
                (
                    "lo_intkey".into(),
                    laqy_engine::Column::Int64((0..rows).collect()),
                ),
                (
                    "lo_orderdate".into(),
                    laqy_engine::Column::Int64((0..rows).map(|i| i % 3).collect()),
                ),
                (
                    "lo_revenue".into(),
                    laqy_engine::Column::Int64((0..rows).map(|i| 100 + i).collect()),
                ),
            ],
        )
        .unwrap()
    }

    fn desc_live(lo: i64, hi: i64) -> SampleDescriptor {
        let mut d = desc(lo, hi);
        d.input = "lineorder[True]".into();
        d
    }

    #[test]
    fn absorb_appended_catches_up_simple_samples() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(21);
        // Drawn at watermark 30; the table has since grown to 50 rows.
        let id = store.insert_raw(desc_live(0, 99), schema(), toy_sample(3, 20, 0), 30);
        // A sample over the table with an extra fixed predicate cannot be
        // row-filtered here: it stays stale (tail fragments catch it up).
        let mut gated = desc_live(200, 299);
        gated.input = "lineorder[Between { column: \"lo_discount\" }]".into();
        let gated_id = store.insert_raw(gated, schema(), toy_sample(2, 5, 200), 30);
        let report = store.absorb_appended(&live_table(50), &mut rng);
        assert_eq!(report.samples_absorbed, 1);
        // Rows 30..50 all satisfy lo_intkey ∈ [0, 99].
        assert_eq!(report.rows_absorbed, 20);
        assert_eq!(report.samples_invalidated, 0);
        let s = store.peek(id).unwrap();
        assert_eq!(s.watermark, 50);
        assert_eq!(s.sample.total_weight(), 60 + 20, "tail rows offered");
        assert_eq!(store.peek(gated_id).unwrap().watermark, 30);
        // Idempotent: a second pass at the same watermark is a no-op.
        let again = store.absorb_appended(&live_table(50), &mut rng);
        assert_eq!(again.samples_absorbed, 0);
        assert_eq!(again.rows_absorbed, 0);
    }

    #[test]
    fn absorb_appended_filters_by_predicates() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(22);
        // Only rows with lo_intkey ∈ [40, 44] belong to this population.
        let id = store.insert_raw(desc_live(40, 44), schema(), toy_sample(3, 4, 40), 30);
        let report = store.absorb_appended(&live_table(50), &mut rng);
        assert_eq!(report.rows_absorbed, 5);
        assert_eq!(store.peek(id).unwrap().watermark, 50);
    }

    #[test]
    fn absorb_appended_invalidates_join_dim_samples() {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(23);
        // This sample joins *through* the appended table: appended rows can
        // change the join output of already-sampled fact rows, so the
        // sample cannot be maintained incrementally.
        let mut joined = desc(0, 99);
        joined.input = "orders[True]⋈lineorder(o_key=lo_key)[True]".into();
        let jid = store.insert_raw(joined, schema(), toy_sample(2, 5, 0), 30);
        let report = store.absorb_appended(&live_table(50), &mut rng);
        assert_eq!(report.samples_invalidated, 1);
        assert!(store.peek(jid).is_none());
    }

    #[test]
    fn plan_lazy_emits_tail_for_stale_sample() {
        let mut store = SampleStore::new();
        let id = store.insert_raw(desc_live(0, 99), schema(), toy_sample(3, 20, 0), 30);
        // Fresh at its own watermark: plain full reuse, no tail.
        let fresh = plan_lazy(&store, &desc_live(0, 99), 30);
        assert_eq!(fresh.sample, Some(id));
        assert!(fresh.tail.is_none() && fresh.residual.is_empty());
        // The table has grown: the sample is still selected, the region is
        // fully covered, but its un-absorbed tail must be Δ-scanned.
        let stale = plan_lazy(&store, &desc_live(0, 99), 50);
        assert_eq!(stale.sample, Some(id));
        assert!(stale.residual.is_empty());
        let tail = stale.tail.expect("the stale sample's tail");
        assert_eq!((tail.from_row, tail.set), (30, iv(0, 99)));
        // absorb_tail advances the watermark, after which the same plan is
        // tail-free full reuse again.
        let mut rng = Lehmer64::new(24);
        assert!(store.absorb_tail(id, &toy_sample(3, 2, 30), 30, 50, &mut rng));
        assert_eq!(store.peek(id).unwrap().watermark, 50);
        let caught_up = plan_lazy(&store, &desc_live(0, 99), 50);
        assert_eq!(caught_up.sample, Some(id));
        assert!(caught_up.tail.is_none());
        // A concurrent client replaying the same tail is rejected — the
        // from_row guard makes tail absorption idempotent.
        assert!(!store.absorb_tail(id, &toy_sample(3, 2, 30), 30, 50, &mut rng));
        assert_eq!(store.peek(id).unwrap().watermark, 50);
    }

    #[test]
    fn drop_beyond_removes_samples_past_the_recovered_watermark() {
        let mut store = SampleStore::new();
        let keep = store.insert_raw(desc_live(0, 99), schema(), toy_sample(3, 20, 0), 30);
        let drop = store.insert_raw(desc_live(100, 199), schema(), toy_sample(3, 20, 0), 80);
        // A sample over a different table is untouched regardless of its
        // watermark.
        let mut foreign = desc(0, 99);
        foreign.input = "orders[True]".into();
        let other = store.insert_raw(foreign, schema(), toy_sample(3, 20, 0), 500);
        // Nor is one joining `lineorder` as a dimension: its watermark
        // counts its own fact table's rows.
        let mut joined = desc(0, 99);
        joined.input = "orders[True]⋈lineorder(o_key=lo_key)[True]".into();
        let through = store.insert_raw(joined, schema(), toy_sample(3, 20, 0), 500);
        assert_eq!(store.drop_beyond("lineorder", 50), 1);
        assert!(store.peek(keep).is_some());
        assert!(store.peek(drop).is_none());
        assert!(store.peek(other).is_some());
        assert!(store.peek(through).is_some());
    }
}
