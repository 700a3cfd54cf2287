//! Sampled-row payloads, the stored sample, and the admission path
//! (paper §4.1, §6.2).
//!
//! The paper implements stratified sampling as a group-by whose aggregation
//! function is a reservoir. Here the group-by *is* the sampler, and what it
//! samples is **fact row ids**: every scan worker owns one [`RowSample`]
//! and one RNG ([`Admission`]), and each morsel's selected rows — straight
//! off the fact scan or above a star join — continue Algorithm R directly
//! into it. No per-morsel hash table is built, nothing is merged until
//! different workers' samples are combined (Algorithm 3), and no payload is
//! read until the scan is over: a [`Delta`] then gathers the retained
//! rows' payload, one typed column at a time (late materialisation), into a
//! [`Sample`] whose rows are as wide as its schema — or, merged into a
//! stored sample, only the payload of the rows the merge keeps. A scan
//! therefore costs what it admits, not `strata × k` tuples, and a stored
//! sample what it holds. DESIGN.md, "Sample layout and the admission
//! path", "One stored representation" and "The lazy union merge", has the
//! layout and the cost model.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use laqy_engine::index::sort_by_value;
use laqy_engine::ops::{BoundCol, ResolvedCol, StarJoinOutput};
use laqy_engine::{GroupKey, StoredColumn, MAX_KEY_COLS};
use laqy_sampling::{merge_base, Lehmer64, Placed, StratifiedSampler};
use laqy_sync::atomic::{AtomicU64, Ordering};

use crate::interval::Interval;

/// Maximum payload columns carried per sampled row.
pub const MAX_SAMPLE_COLS: usize = 8;

/// How a payload slot is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Integer (also dictionary codes).
    Int,
    /// Float, stored as raw bits.
    Float,
}

impl SlotKind {
    /// Numeric view of a raw slot value of this kind.
    #[inline]
    pub(crate) fn numeric(self, raw: i64) -> f64 {
        match self {
            SlotKind::Int => raw as f64,
            SlotKind::Float => f64::from_bits(raw as u64),
        }
    }

    /// Row `row` of `col` as a payload slot value (floats bit-cast).
    pub(crate) fn read(self, col: &ResolvedCol<'_>, row: usize) -> i64 {
        match self {
            SlotKind::Int => col.i64(row),
            SlotKind::Float => col.f64(row).to_bits() as i64,
        }
    }

    /// [`Self::read`] of each of `rows`, in order, handed to `f`: one
    /// typed pass over the column.
    fn read_each(
        self,
        col: &ResolvedCol<'_>,
        rows: impl Iterator<Item = usize>,
        mut f: impl FnMut(i64),
    ) {
        match self {
            SlotKind::Int => col.for_each_i64(rows, f),
            SlotKind::Float => col.for_each_f64(rows, |v| f(v.to_bits() as i64)),
        }
    }
}

/// The widest row as a value of its own — all [`MAX_SAMPLE_COLS`] slots,
/// 64 B — for code that drives a [`StratifiedSampler`] directly. A
/// [`Sample`]'s rows are only as wide as its schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleTuple {
    vals: [i64; MAX_SAMPLE_COLS],
}

impl SampleTuple {
    /// Construct from a prefix of slot values; remaining slots are zero.
    pub fn from_slice(prefix: &[i64]) -> Self {
        Self { vals: row(prefix) }
    }
}

/// A row of `W` slots holding `vals` and zeros after them.
fn row<const W: usize>(vals: &[i64]) -> [i64; W] {
    assert!(vals.len() <= W, "too many slots");
    let mut row = [0i64; W];
    row[..vals.len()].copy_from_slice(vals);
    row
}

/// Schema of sampled tuples: which column occupies which slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSchema {
    columns: Vec<(String, SlotKind)>,
}

impl SampleSchema {
    /// Build from `(column, kind)` pairs; at most [`MAX_SAMPLE_COLS`].
    pub fn new(columns: Vec<(String, SlotKind)>) -> Self {
        assert!(
            columns.len() <= MAX_SAMPLE_COLS,
            "too many sample payload columns"
        );
        Self { columns }
    }

    /// Slot index of a column.
    pub fn slot(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|(c, _)| c == column)
    }

    /// Kind of a slot.
    pub fn kind(&self, slot: usize) -> SlotKind {
        self.columns[slot].1
    }

    /// Number of payload columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column names in slot order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(c, _)| c.as_str()).collect()
    }
}

/// The sampler instantiated at rows of `W` slots.
pub(crate) type Sampler<const W: usize> = StratifiedSampler<GroupKey, [i64; W]>;

/// The one sampler at each row width a schema can round up to.
#[derive(Debug, Clone)]
pub(crate) enum Rows {
    W1(Sampler<1>),
    W2(Sampler<2>),
    W4(Sampler<4>),
    W8(Sampler<8>),
}

/// `$body` with `$s` bound to the sampler in `$rows` (a `&` or `&mut`
/// [`Rows`]): one match outside the loop, a monomorphised body inside.
macro_rules! each_width {
    ($rows:expr, $s:ident => $body:expr) => {
        match $rows {
            $crate::sampler_ops::Rows::W1($s) => $body,
            $crate::sampler_ops::Rows::W2($s) => $body,
            $crate::sampler_ops::Rows::W4($s) => $body,
            $crate::sampler_ops::Rows::W8($s) => $body,
        }
    };
}
pub(crate) use each_width;

/// A stratified sample, strata keyed by the QCS values, of rows exactly as
/// wide as their schema rounds up to ([`row_width`]; 16 B for either query
/// template). Beside the strata's index (first-offer) order it keeps their
/// group-key order, which every estimate walks, as the sampler's layout
/// order: at rest the arena holds the strata in the order a walk reads
/// them (DESIGN.md, "One stored representation").
///
/// The kept order lists the first strata in group-key order. Strata are
/// only ever appended, never removed or re-keyed, so it stays valid;
/// [`Sample::settle`] extends it over the strata appended since.
///
/// A sample that keeps answering tightened estimates also gets a
/// [`RangeIndex`] ([`Sample::range_index`]). Offers of appended rows
/// ([`Sample::offer_appended`]) patch it; every other change of its rows
/// drops it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub(crate) rows: Rows,
    /// Payload slots a row carries: its schema's width.
    slots: usize,
    range: RangeCache,
}

impl Sample {
    /// Empty sample of `schema`'s rows with per-stratum capacity `k`.
    pub fn new(schema: &SampleSchema, k: usize) -> Self {
        Self::with_strata_hint(schema.len(), k, 0)
    }

    /// Empty sample of `slots`-slot rows with room for `strata_hint` strata.
    pub(crate) fn with_strata_hint(slots: usize, k: usize, strata_hint: usize) -> Self {
        let rows = match row_width(slots) {
            1 => Rows::W1(Sampler::with_strata_hint(k, strata_hint)),
            2 => Rows::W2(Sampler::with_strata_hint(k, strata_hint)),
            4 => Rows::W4(Sampler::with_strata_hint(k, strata_hint)),
            _ => Rows::W8(Sampler::with_strata_hint(k, strata_hint)),
        };
        Sample {
            rows,
            slots,
            range: RangeCache::default(),
        }
    }

    /// The rows, to be changed: the range index and the rows walked
    /// toward it are dropped first. Every change of a sample's rows but
    /// [`Self::offer_appended`]'s goes through here.
    fn rows_mut(&mut self) -> &mut Rows {
        self.range = RangeCache::default();
        &mut self.rows
    }

    /// Per-stratum reservoir capacity.
    pub fn capacity(&self) -> usize {
        each_width!(&self.rows, s => s.capacity())
    }

    /// Number of strata.
    pub fn num_strata(&self) -> usize {
        each_width!(&self.rows, s => s.num_strata())
    }

    /// Elements considered across all strata.
    pub fn total_weight(&self) -> u64 {
        each_width!(&self.rows, s => s.total_weight())
    }

    /// Rows retained across all strata.
    pub(crate) fn total_items(&self) -> usize {
        each_width!(&self.rows, s => s.total_items())
    }

    /// Exact heap footprint in bytes, the key order's included.
    pub fn heap_bytes(&self) -> usize {
        each_width!(&self.rows, s => s.heap_bytes())
    }

    /// Consider one row, `vals` its payload slots, for its stratum
    /// (Algorithm R per stratum).
    pub fn offer(&mut self, key: GroupKey, vals: &[i64], rng: &mut Lehmer64) {
        assert_eq!(vals.len(), self.slots, "one value per payload slot");
        each_width!(self.rows_mut(), s => s.offer_with(key, rng, || row(vals)))
    }

    /// Set one stratum to the rows of `slots` values each in `vals`, standing
    /// for `weight` considered rows (snapshot restore).
    pub(crate) fn insert_rows(&mut self, key: GroupKey, vals: &[i64], weight: u64) {
        let slots = self.slots;
        assert!(
            slots > 0 && vals.len().is_multiple_of(slots),
            "whole rows of payload"
        );
        each_width!(self.rows_mut(), s => {
            let rows: Vec<_> = vals.chunks_exact(slots).map(row).collect();
            s.insert_items(key, &rows, weight)
        })
    }

    /// Merge `other`, a sample of the same schema over a disjoint population,
    /// in place (Algorithm 3: the sampler's `absorb`, appending new strata
    /// where the key order puts them).
    pub fn absorb(&mut self, other: &Sample, rng: &mut Lehmer64) {
        match (self.rows_mut(), &other.rows) {
            (Rows::W1(s), Rows::W1(o)) => s.absorb_in_key_order(o, rng),
            (Rows::W2(s), Rows::W2(o)) => s.absorb_in_key_order(o, rng),
            (Rows::W4(s), Rows::W4(o)) => s.absorb_in_key_order(o, rng),
            (Rows::W8(s), Rows::W8(o)) => s.absorb_in_key_order(o, rng),
            _ => panic!("samples of different row widths do not merge"),
        }
    }

    /// [`Self::absorb`] of `delta` read: the same draws, run on its row
    /// ids, then the payload of the rows the merge keeps gathered into the
    /// slots they took. Returns how many rows that is.
    pub(crate) fn absorb_delta(&mut self, delta: &Delta, rng: &mut Lehmer64) -> usize {
        assert_eq!(
            delta.columns.len(),
            self.slots,
            "one column per payload slot"
        );
        each_width!(self.rows_mut(), s => {
            let placed = s.absorb_positions_in_key_order(&delta.rows, rng);
            delta.fill(s.slots_mut(), &placed);
            placed.len()
        })
    }

    /// The k-way merge of `inputs` (`merge_stratified_k` over samples): the
    /// others absorbed, in input order, into the input [`merge_base`]
    /// picks — copied only if borrowed, read first if a [`Delta`] — whose
    /// key order the result keeps. Returns it and the payload rows read.
    pub fn combine(mut inputs: Vec<Part<'_>>, rng: &mut Lehmer64) -> (Sample, usize) {
        let base = inputs.remove(merge_base(inputs.iter().map(Part::size)));
        let mut read = base.payload_rows();
        let mut out = base.into_sample();
        for other in &inputs {
            match other {
                Part::Read(sample) => out.absorb(sample, rng),
                Part::Unread(delta) => read += out.absorb_delta(delta, rng),
            }
        }
        (out, read)
    }

    /// Offer `rows` — each a stratum key and a closure that writes the
    /// row's payload slots, called only if Algorithm R admits it — as
    /// [`Self::offer`] would, draw for draw. Returns how many were offered.
    ///
    /// The range index, if the sample has one, is patched to the rows as
    /// they are now, not dropped: the entries of every overwritten slot go
    /// and the new values' come in ([`RangeIndex::patch`]), and the rows
    /// walked toward an index are kept. Only a change of the walk's word
    /// layout — a stratum growing into another 64-bit word, a new
    /// stratum's first row among them — drops both, as any other change
    /// does.
    pub(crate) fn offer_appended<F: FnOnce(&mut [i64])>(
        &mut self,
        rows: impl IntoIterator<Item = (GroupKey, F)>,
        rng: &mut Lehmer64,
    ) -> u64 {
        let index = self.range.index.get().and_then(Option::as_deref);
        let mut writes = Appended {
            slot: index.map(|index| index.slot),
            written: Vec::new(),
            relaid: false,
        };
        let slots = self.slots;
        let offered = each_width!(&mut self.rows, s => {
            let mut offered = 0;
            for (key, read) in rows {
                writes.record(s.offer_placed(key, rng, || read_row(slots, read)));
                offered += 1;
            }
            offered
        });
        if writes.relaid {
            self.range = RangeCache::default();
        } else if let Some(Some(index)) = self.range.index.get_mut() {
            each_width!(&self.rows, s => {
                Arc::make_mut(index).patch(s, &mut writes.written)
            });
        }
        offered
    }

    /// Come to rest: release growth slack, extend the key order over the
    /// strata appended since and lay the arena out along it — re-laid only
    /// if a stratum was relocated or appended since the last settle — so a
    /// walk in key order reads it front to back. No row and no stratum's
    /// place in key order moves, so the range index holds.
    pub fn settle(&mut self) {
        each_width!(&mut self.rows, s => s.settle());
    }

    /// Every stratum's index in group-key order: the kept order, extended
    /// for this call alone if the sample grew since it came to rest.
    pub(crate) fn key_order(&self) -> Cow<'_, [u32]> {
        each_width!(&self.rows, s => s.key_order())
    }

    /// Iterate over `(key, rows, weight)` for every stratum, in index
    /// (first-offer) order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, SampleRows<'_>, u64)> {
        (0..self.num_strata()).map(|i| {
            each_width!(&self.rows, s => {
                let (key, rows, weight) = s.stratum_at(i);
                (key, SampleRows::of(rows, self.slots), weight)
            })
        })
    }

    /// The range index over payload slot `slot`, for a tightened estimate
    /// on it. Rent or buy: until the tightened walks since the sample last
    /// changed have tested [`RANGE_INDEX_BUILD_WALKS`] times its rows —
    /// about one build's cost — this counts the caller's walk and returns
    /// `None`; then it builds the index, on the calling thread, and returns
    /// it from then on. `None` for any other slot once an index exists.
    pub(crate) fn range_index(&self, slot: usize) -> Option<&RangeIndex> {
        if self.range.index.get().is_none() {
            let rows = self.total_items() as u64;
            let walked = self.range.walked.fetch_add(rows, Ordering::Relaxed) + rows;
            if walked < RANGE_INDEX_BUILD_WALKS * rows {
                return None;
            }
        }
        self.build_range_index(slot)
    }

    /// The range index, built over `slot` unless one exists.
    fn build_range_index(&self, slot: usize) -> Option<&RangeIndex> {
        let build = || {
            let order = self.key_order();
            each_width!(&self.rows, s => RangeIndex::build(s, &order, slot)).map(Arc::new)
        };
        let index = self.range.index.get_or_init(build).as_deref();
        index.filter(|index| index.slot == slot)
    }

    /// Heap bytes of the range index, if the sample holds one. It is not
    /// part of [`Self::heap_bytes`]: nothing charges it to a budget, and
    /// copies of the sample share it.
    pub fn range_index_bytes(&self) -> Option<usize> {
        let index = self.range.index.get()?.as_ref()?;
        Some(index.values.capacity() * 8 + (index.bits.capacity() + index.firsts.capacity()) * 4)
    }

    /// Rows the tightened walks since the sample last changed have tested
    /// toward building its range index.
    pub fn rows_walked(&self) -> u64 {
        self.range.walked.load(Ordering::Relaxed)
    }

    /// A copy with no range index and no rows walked toward one: its
    /// tightened estimates walk its rows until they pay for an index of
    /// their own. What an answer read off an index is checked against.
    pub fn without_range_index(&self) -> Sample {
        Sample {
            rows: self.rows.clone(),
            slots: self.slots,
            range: RangeCache::default(),
        }
    }
}

/// A row of `W` slots whose first `slots` `read` writes, zeros after them.
fn read_row<const W: usize>(slots: usize, read: impl FnOnce(&mut [i64])) -> [i64; W] {
    let mut row = [0i64; W];
    read(&mut row[..slots]);
    row
}

/// The writes of [`Sample::offer_appended`], as its range index follows
/// them.
struct Appended {
    /// The index's payload slot; `None`: no index, nothing recorded.
    slot: Option<usize>,
    /// Every admitted row's write, in offer order.
    written: Vec<Written>,
    /// A stratum grew into another 64-bit word of the walk's bitset (a new
    /// stratum into its first): the index's bits no longer hold.
    relaid: bool,
}

/// Where one admitted row went: its stratum (index order), the offset in
/// it and, for a replacement, the overwritten row's value in the index's
/// slot.
struct Written {
    stratum: usize,
    offset: usize,
    replaced: Option<i64>,
}

impl Appended {
    fn record<const W: usize>(&mut self, placed: Option<Placed<[i64; W]>>) {
        let Some(placed) = placed else { return };
        // A fill at a word's first offset is the stratum's next word; a
        // new stratum's first row is one at offset 0.
        self.relaid |= placed.replaced.is_none() && placed.offset.is_multiple_of(64);
        if let Some(slot) = self.slot.filter(|_| !self.relaid) {
            self.written.push(Written {
                stratum: placed.stratum,
                offset: placed.offset,
                replaced: placed.replaced.map(|row| row[slot]),
            });
        }
    }
}

/// How many of a sample's walks a [`RangeIndex`] build costs: the
/// tightened walks since a sample's rows last changed — an ingest's
/// offers, which patch the index, do not count as a change — test this
/// many times its rows before it gets one. The ratio of two timings on
/// the `serve_hot` sample (2 557 strata, 81 824 rows, `k` = 32, a 5 %
/// window; 2-core x86 box, p50s of seven runs): a build 0.96–1.75 ms, a
/// tightened walk 211–355 µs, 4.5–5 walks a build in every run.
pub(crate) const RANGE_INDEX_BUILD_WALKS: u64 = 5;

/// A sample's range index, and the rows its tightened walks tested since
/// it last changed. Neither is persisted or charged. A clone shares the
/// index — a copy holds the same rows — so a copy made to change the
/// sample while a reader holds it patches the index
/// ([`Sample::offer_appended`], copying it first) or drops it, as the
/// sample itself would.
#[derive(Debug, Default)]
struct RangeCache {
    /// `None` inside: the sample has too many strata to index.
    index: OnceLock<Option<Arc<RangeIndex>>>,
    walked: AtomicU64,
}

impl Clone for RangeCache {
    fn clone(&self) -> Self {
        Self {
            index: self.index.clone(),
            walked: AtomicU64::new(self.walked.load(Ordering::Relaxed)),
        }
    }
}

/// Every retained row's value in one payload slot, ascending, beside the
/// row's bit in the flat hit bitset of a walk in key order — stratum after
/// non-empty stratum, each a whole number of 64-bit words (the words a
/// walk packs it into), the row's bit at its position in the stratum. A
/// tightening finds the rows inside each of its intervals as one run (two
/// `partition_point`s) and sets their bits, so its cost is the rows that
/// match, not the rows retained; the bits are those a walk sets.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct RangeIndex {
    slot: usize,
    values: Vec<i64>,
    /// Aligned with `values`.
    bits: Vec<u32>,
    /// Each stratum's first bit, in index order.
    firsts: Vec<u32>,
    /// Words of the bitset.
    words: usize,
}

impl RangeIndex {
    /// The index over `slot` of `s`'s strata walked in `order`, its rows
    /// radix-sorted ([`sort_by_value`]); `None` if its bitset would pass
    /// `u32` bit addresses.
    fn build<const W: usize>(s: &Sampler<W>, order: &[u32], slot: usize) -> Option<Self> {
        let mut values = Vec::with_capacity(s.total_items());
        let mut bits = Vec::with_capacity(s.total_items());
        let mut firsts = vec![0; s.num_strata()];
        let mut first_bit = 0;
        for &i in order {
            let (_, items, _) = s.stratum_at(i as usize);
            let end = u32::try_from(first_bit + items.len().div_ceil(64) * 64).ok()?;
            values.extend(items.iter().map(|row| row[slot]));
            bits.extend(first_bit as u32..first_bit as u32 + items.len() as u32);
            firsts[i as usize] = first_bit as u32;
            first_bit = end as usize;
        }
        let sorted = sort_by_value(&values);
        Some(RangeIndex {
            slot,
            values: sorted.iter().map(|&i| values[i as usize]).collect(),
            bits: sorted.iter().map(|&i| bits[i as usize]).collect(),
            firsts,
            words: first_bit / 64,
        })
    }

    /// Follow `written`, the writes offers made to `s` since this index
    /// last held, none of which changed the word layout of its walk (no
    /// stratum is new, none grew into another word, so every stratum's
    /// first bit holds): the entry of every slot a replacement overwrote
    /// goes, and the value every written slot holds now comes in, each
    /// found by value and bit. The entries stay sorted by (value, bit),
    /// the order a build sorts them in, so the patched index is a
    /// rebuild's. In place, unless fills need room past the entries'
    /// capacity.
    fn patch<const W: usize>(&mut self, s: &Sampler<W>, written: &mut Vec<Written>) {
        if written.is_empty() {
            return;
        }
        // A slot written twice keeps its first write: the one whose
        // replaced value is the slot's entry here.
        written.sort_by_key(|w| (w.stratum, w.offset));
        written.dedup_by_key(|w| (w.stratum, w.offset));
        let bit = |w: &Written| self.firsts[w.stratum] + w.offset as u32;
        let mut gone: Vec<(i64, u32)> = (written.iter())
            .filter_map(|w| Some((w.replaced?, bit(w))))
            .collect();
        let mut new: Vec<(i64, u32)> = (written.iter())
            .map(|w| (s.stratum_at(w.stratum).1[w.offset][self.slot], bit(w)))
            .collect();
        gone.sort_unstable();
        new.sort_unstable();
        let gone_at = self.ranks(&gone);
        let present = |(&at, &(value, bit)): (&usize, &(i64, u32))| {
            self.values.get(at) == Some(&value) && self.bits[at] == bit
        };
        debug_assert!(
            gone_at.iter().zip(&gone).all(present),
            "an entry to drop is missing"
        );
        self.splice(&gone_at, &new);
    }

    /// The position of `entry` in, or where it would go into, the entries
    /// from `from` on, none of which sort before `from`: a gallop from
    /// `from`, then a binary search, so a sorted run of lookups reads
    /// entries near the last one's.
    fn rank_from(&self, from: usize, entry: (i64, u32)) -> usize {
        let before = |at: usize| (self.values[at], self.bits[at]) < entry;
        let len = self.values.len();
        let (mut lo, mut step) = (from, 1);
        while lo + step <= len && before(lo + step - 1) {
            lo += step;
            step *= 2;
        }
        let mut hi = (lo + step - 1).min(len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match before(mid) {
                true => lo = mid + 1,
                false => hi = mid,
            }
        }
        lo
    }

    /// The positions of `entries`, sorted, in the entries.
    fn ranks(&self, entries: &[(i64, u32)]) -> Vec<usize> {
        let mut at = 0;
        (entries.iter())
            .map(|&entry| {
                at = self.rank_from(at, entry);
                at
            })
            .collect()
    }

    /// Replace the entries at positions `gone` (ascending) by `new`
    /// (sorted, none present), moving every kept entry at most once.
    /// Between two changes the kept entries form a run that shifts by the
    /// entries inserted before it less those dropped before it. Runs that
    /// shift down move first, front to back, then runs that shift up, back
    /// to front: no run's destination holds entries still to move, so the
    /// new entries' slots are free once all have moved.
    fn splice(&mut self, gone: &[usize], new: &[(i64, u32)]) {
        let len = self.values.len();
        let ranks = self.ranks(new);
        let mut runs: Vec<(Range<usize>, isize)> = Vec::with_capacity(gone.len() + new.len() + 1);
        let mut slots = Vec::with_capacity(new.len());
        let (mut g, mut r, mut shift, mut from) = (0, 0, 0isize, 0);
        loop {
            let (next_gone, next_new) = (gone.get(g), ranks.get(r));
            let at = *next_gone.unwrap_or(&len).min(next_new.unwrap_or(&len));
            runs.push((from..at, shift));
            match (next_gone, next_new) {
                (None, None) => break,
                // An insertion before the entry at `at` goes where it
                // would have shifted to.
                (_, Some(&rank)) if rank == at => {
                    slots.push(at.wrapping_add_signed(shift));
                    (shift, r, from) = (shift + 1, r + 1, at);
                }
                _ => (shift, g, from) = (shift - 1, g + 1, at + 1),
            }
        }
        let out = len - gone.len() + new.len();
        self.values.resize(out.max(len), 0);
        self.bits.resize(out.max(len), 0);
        let down = runs.iter().filter(|(_, shift)| *shift < 0);
        let up = runs.iter().rev().filter(|(_, shift)| *shift > 0);
        for (run, shift) in down.chain(up) {
            let to = run.start.wrapping_add_signed(*shift);
            self.values.copy_within(run.clone(), to);
            self.bits.copy_within(run.clone(), to);
        }
        for (&at, &entry) in slots.iter().zip(new) {
            (self.values[at], self.bits[at]) = entry;
        }
        self.values.truncate(out);
        self.bits.truncate(out);
    }

    /// Words of the walk's flat bitset.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Set in `hits`, the walk's flat bitset, the bit of every row whose
    /// value lies in one of `intervals`.
    pub(crate) fn hit_bits(&self, intervals: &[Interval], hits: &mut [u64]) {
        for iv in intervals {
            let from = self.values.partition_point(|&v| v < iv.lo);
            let to = from + self.values[from..].partition_point(|&v| v <= iv.hi);
            for &bit in &self.bits[from..to] {
                hits[bit as usize / 64] |= 1 << (bit % 64);
            }
        }
    }
}

/// Slots a row of `slots` payload slots occupies: the smallest of 1, 2, 4
/// and 8 that holds them. Derived from the schema here and nowhere else.
pub(crate) fn row_width(slots: usize) -> usize {
    assert!(slots <= MAX_SAMPLE_COLS, "too many sample payload columns");
    slots.max(1).next_power_of_two()
}

/// One stratum's retained rows, each the schema's payload slots (slots
/// past them are zero, so `==` compares what the schema carries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRows<'a> {
    vals: &'a [i64],
    width: usize,
    slots: usize,
}

impl<'a> SampleRows<'a> {
    fn of<const W: usize>(rows: &'a [[i64; W]], slots: usize) -> Self {
        SampleRows {
            vals: rows.as_flattened(),
            width: W,
            slots,
        }
    }

    /// Rows retained.
    pub fn len(&self) -> usize {
        self.vals.len() / self.width
    }

    /// True if the stratum retains nothing.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The rows, in the order the sampler retained them.
    pub fn iter(&self) -> impl Iterator<Item = &'a [i64]> {
        let slots = self.slots;
        self.vals.chunks_exact(self.width).map(move |r| &r[..slots])
    }
}

/// A stratified sample of fact row ids: what a scan admits into. At 4 B
/// an item a stratum is 128 B at `k = 32`, so a Δ-scan's few thousand
/// strata stay cache-resident while they are offered to.
pub(crate) type RowSample = StratifiedSampler<GroupKey, u32>;

/// One scan worker's admission state: the row-id sample its morsels fold
/// into and the RNG driving Algorithm R. The RNG is per worker, not per
/// stratum, so at one thread the sample depends only on the order rows
/// arrive in — never on how the scan was cut into morsels.
pub(crate) struct Admission {
    rows: RowSample,
    rng: Lehmer64,
    /// The current morsel's stratum keys, one column after another: part
    /// `c` of row `i` of `n` is `keys[c·n + i]`.
    keys: Vec<i64>,
}

impl Admission {
    /// Empty sample with per-stratum capacity `k` and room for
    /// `strata_hint` strata' admission state.
    pub fn new(k: usize, seed: u64, strata_hint: usize) -> Self {
        Self {
            rows: RowSample::with_strata_hint(k, strata_hint),
            rng: Lehmer64::new(seed),
            keys: Vec::new(),
        }
    }

    /// Offer `fact_rows`, in order. `keys` are the stratum-key columns,
    /// bound so that logical position `i` is `fact_rows[i]`'s row in the
    /// table the column lives in.
    pub fn admit<'k>(&mut self, keys: impl IntoIterator<Item = BoundCol<'k>>, fact_rows: &[u32]) {
        self.keys.clear();
        let mut width = 0;
        for col in keys {
            col.gather_i64(fact_rows.len(), &mut self.keys);
            width += 1;
        }
        // A key of compile-time width is built with plain moves.
        match width {
            0 => self.offer_rows::<0>(fact_rows),
            1 => self.offer_rows::<1>(fact_rows),
            2 => self.offer_rows::<2>(fact_rows),
            3 => self.offer_rows::<3>(fact_rows),
            MAX_KEY_COLS => self.offer_rows::<MAX_KEY_COLS>(fact_rows),
            n => panic!("{n} stratum-key columns exceed {MAX_KEY_COLS}"),
        }
    }

    fn offer_rows<const N: usize>(&mut self, fact_rows: &[u32]) {
        let n = fact_rows.len();
        let cols: [&[i64]; N] = std::array::from_fn(|c| &self.keys[c * n..(c + 1) * n]);
        for (i, &row) in fact_rows.iter().enumerate() {
            let key: [i64; N] = std::array::from_fn(|c| cols[c][i]);
            self.rows.offer(GroupKey::new(&key), row, &mut self.rng);
        }
    }

    /// The row ids retained so far.
    pub fn into_rows(self) -> RowSample {
        self.rows
    }
}

/// The row ids `rows` retains, stratum after stratum in iteration order:
/// the rows whose payload a [`Delta`] reads.
pub(crate) fn retained_rows(rows: &RowSample) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows.total_items());
    for (_, items, _) in rows.iter() {
        out.extend_from_slice(items);
    }
    out
}

/// A scan's sample before its payload is read: the fact row ids it
/// retains and where each payload slot reads them. [`Delta::read`] gathers
/// every retained row's payload, [`Sample::absorb_delta`] only that of the
/// rows a merge keeps; either way each column is read in one typed pass.
/// The RNG took no part in what a row holds, so both give the sample
/// row-building admission would have built.
pub struct Delta {
    rows: RowSample,
    /// Per payload slot: the column as the scanned table version holds it
    /// (its pieces shared, not copied), the joined dimension whose rows
    /// index it (`None`: the fact table) and the slot's kind.
    columns: Vec<(StoredColumn, Option<usize>, SlotKind)>,
    /// The retained rows ([`retained_rows`]) and, aligned with them, their
    /// rows in each joined dimension.
    retained: StarJoinOutput,
}

impl Delta {
    /// `rows` with the payload `columns` read at `retained`'s rows.
    pub(crate) fn new(
        rows: RowSample,
        columns: Vec<(StoredColumn, Option<usize>, SlotKind)>,
        retained: StarJoinOutput,
    ) -> Self {
        assert_eq!(
            retained.fact_rows.len(),
            rows.total_items(),
            "one row per item"
        );
        Delta {
            rows,
            columns,
            retained,
        }
    }

    /// Rows retained: the payload rows [`Self::read`] reads.
    pub(crate) fn len(&self) -> usize {
        self.retained.fact_rows.len()
    }

    /// The sample of the retained rows' payload: the same strata in the
    /// same order with the same weights, each owning exactly the rows it
    /// retains, each row as wide as the columns round up to.
    pub(crate) fn read(self) -> Sample {
        let mut sample = Sample::with_strata_hint(self.columns.len(), self.rows.capacity(), 0);
        each_width!(sample.rows_mut(), s => {
            let payload = self.payload();
            *s = self.rows.with_items(payload);
        });
        sample
    }

    /// Every retained row's payload, in retained order.
    fn payload<const W: usize>(&self) -> Vec<[i64; W]> {
        let mut payload = vec![[0; W]; self.len()];
        for (slot, col, at, kind) in self.sources() {
            let mut row = 0;
            kind.read_each(&col, at.iter().map(|&r| r as usize), |v| {
                payload[row][slot] = v;
                row += 1;
            });
        }
        payload
    }

    /// Write the payload of each `(slot, j)` of `placed` — the `j`-th
    /// retained row — into `arena[slot]`. Each column's rows are listed
    /// first, so its typed pass is a plain loop over two arrays.
    fn fill<const W: usize>(&self, arena: &mut [[i64; W]], placed: &[(usize, usize)]) {
        let slots: Vec<usize> = placed.iter().map(|&(slot, _)| slot).collect();
        let mut rows = Vec::with_capacity(placed.len());
        for (slot, col, at, kind) in self.sources() {
            rows.clear();
            rows.extend(placed.iter().map(|&(_, j)| at[j] as usize));
            let mut i = 0;
            kind.read_each(&col, rows.iter().copied(), |v| {
                arena[slots[i]][slot] = v;
                i += 1;
            });
        }
    }

    /// Per payload slot: the slot, its column, the rows of the column's
    /// table aligned with the retained rows, and the slot's kind.
    fn sources(&self) -> impl Iterator<Item = (usize, ResolvedCol<'_>, &[u32], SlotKind)> {
        self.columns
            .iter()
            .enumerate()
            .map(|(slot, (col, dim, kind))| {
                let at = dim.map_or(&self.retained.fact_rows, |d| &self.retained.dim_rows[d]);
                (slot, ResolvedCol::from_column(col), &at[..], *kind)
            })
    }
}

/// One input of [`Sample::combine`].
pub enum Part<'a> {
    /// A sample, owned or borrowed.
    Read(Cow<'a, Sample>),
    /// A scan's sample whose payload is read only for the rows the merge
    /// keeps.
    Unread(Delta),
}

impl Part<'_> {
    /// `(capacity, strata)`, what [`merge_base`] picks by.
    fn size(&self) -> (usize, usize) {
        match self {
            Part::Read(s) => (s.capacity(), s.num_strata()),
            Part::Unread(d) => (d.rows.capacity(), d.rows.num_strata()),
        }
    }

    /// Payload rows [`Self::into_sample`] reads.
    pub(crate) fn payload_rows(&self) -> usize {
        match self {
            Part::Read(_) => 0,
            Part::Unread(d) => d.len(),
        }
    }

    /// The sample, its payload read if it was not.
    pub(crate) fn into_sample(self) -> Sample {
        match self {
            Part::Read(s) => s.into_owned(),
            Part::Unread(d) => d.read(),
        }
    }
}

impl From<Sample> for Part<'_> {
    fn from(sample: Sample) -> Self {
        Part::Read(Cow::Owned(sample))
    }
}

impl<'a> From<&'a Sample> for Part<'a> {
    fn from(sample: &'a Sample) -> Self {
        Part::Read(Cow::Borrowed(sample))
    }
}

/// A sample of 64 B tuples: the representation every stored sample had
/// before rows became width-exact, kept as the oracle the [`Sample`] is
/// tested against.
#[cfg(test)]
pub(crate) type TupleSample = StratifiedSampler<GroupKey, SampleTuple>;

/// The admission this module replaced, kept as the oracle row-id admission
/// is tested against: offer logical rows `0..rows` of the bound columns
/// straight into a sample of tuples, building a tuple whenever one is
/// admitted.
#[cfg(test)]
pub(crate) fn admit_tuples(
    sample: &mut TupleSample,
    rng: &mut Lehmer64,
    keys: &[BoundCol<'_>],
    payload: &[(BoundCol<'_>, SlotKind)],
    rows: usize,
) {
    let mut key = [0i64; MAX_KEY_COLS];
    for i in 0..rows {
        for (part, col) in key.iter_mut().zip(keys) {
            *part = col.i64(i);
        }
        sample.offer_with(GroupKey::new(&key[..keys.len()]), rng, || {
            let mut vals = [0i64; MAX_SAMPLE_COLS];
            for (v, (col, kind)) in vals.iter_mut().zip(payload) {
                *v = match kind {
                    SlotKind::Int => col.i64(i),
                    SlotKind::Float => col.f64(i).to_bits() as i64,
                };
            }
            SampleTuple { vals }
        });
    }
}

/// Every stratum as `(key, rows, weight)`, in index order, a row being its
/// first `slots` slots: what a width-exact sample and its 64 B oracle are
/// compared by.
#[cfg(test)]
pub(crate) type Contents = Vec<(GroupKey, Vec<Vec<i64>>, u64)>;

#[cfg(test)]
impl Sample {
    /// This sample with its range index over `slot` built now, whatever
    /// its walks have cost so far.
    pub(crate) fn indexed(self, slot: usize) -> Self {
        assert!(
            self.build_range_index(slot).is_some(),
            "indexed over {slot}"
        );
        self
    }

    /// The range index the sample holds, if any.
    pub(crate) fn held_range_index(&self) -> Option<&RangeIndex> {
        self.range.index.get()?.as_deref()
    }

    /// A fresh build of the range index the sample holds, over its rows
    /// as they are now.
    pub(crate) fn rebuilt_range_index(&self) -> Option<RangeIndex> {
        let slot = self.held_range_index()?.slot;
        let order = self.key_order();
        each_width!(&self.rows, s => RangeIndex::build(s, &order, slot))
    }

    /// Slots a row occupies, as the instantiation holding it says.
    pub(crate) fn row_width(&self) -> usize {
        fn width_of<const W: usize>(_: &Sampler<W>) -> usize {
            W
        }
        each_width!(&self.rows, s => width_of(s))
    }

    /// The oracle as a sample: its 64 B tuples become rows of the widest
    /// instantiation, carrying `slots` payload slots.
    pub(crate) fn of_tuples(oracle: TupleSample, slots: usize) -> Sample {
        let items = oracle
            .iter()
            .flat_map(|(_, items, _)| items.iter().map(|t| t.vals));
        let items: Vec<[i64; MAX_SAMPLE_COLS]> = items.collect();
        Sample {
            rows: Rows::W8(oracle.with_items(items)),
            slots,
            range: RangeCache::default(),
        }
    }

    /// This sample's [`Contents`].
    pub(crate) fn contents(&self) -> Contents {
        let rows = |rows: SampleRows<'_>| rows.iter().map(<[i64]>::to_vec).collect();
        self.iter().map(|(key, r, w)| (*key, rows(r), w)).collect()
    }
}

/// The oracle's [`Contents`] at `slots` payload slots.
#[cfg(test)]
pub(crate) fn tuple_contents(oracle: &TupleSample, slots: usize) -> Contents {
    let rows = |items: &[SampleTuple]| items.iter().map(|t| t.vals[..slots].to_vec()).collect();
    oracle
        .iter()
        .map(|(key, items, w)| (*key, rows(items), w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{Predicates, SampleDescriptor};
    use crate::estimate::{estimate, EstimateOptions, Groups};
    use crate::interval::{Interval, IntervalSet};
    use crate::store::SampleStore;
    use laqy_engine::{AggInput, AggKind, AggSpec, Column, Table};
    use laqy_sampling::merge_stratified_k;
    use proptest::prelude::*;

    fn schema() -> SampleSchema {
        SampleSchema::new(vec![
            ("v".to_string(), SlotKind::Int),
            ("w".to_string(), SlotKind::Float),
        ])
    }

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                (
                    "g".into(),
                    Column::Int64((0..1000).map(|i| i % 5).collect()),
                ),
                ("v".into(), Column::Int64((0..1000).collect())),
                (
                    "w".into(),
                    Column::Float64((0..1000).map(|i| i as f64 * 0.5).collect()),
                ),
            ],
        )
        .unwrap()
    }

    /// Admit `t`'s rows in the given batches of row ids, then read `v` and
    /// `w` of what was retained.
    fn admit_batches(t: &Table, k: usize, keyed: bool, batches: &[&[u32]]) -> Sample {
        let mut admission = Admission::new(k, 42, 0);
        for rows in batches {
            let keys: Vec<BoundCol<'_>> = keyed
                .then(|| BoundCol::new(t.column("g").unwrap(), Some(rows)))
                .into_iter()
                .collect();
            admission.admit(keys, rows);
        }
        let columns = [("v", SlotKind::Int), ("w", SlotKind::Float)];
        fact_delta(admission.into_rows(), t, &columns).read()
    }

    /// `rows` with payload `columns` of the fact table `t`.
    fn fact_delta(rows: RowSample, t: &Table, columns: &[(&str, SlotKind)]) -> Delta {
        let retained = StarJoinOutput {
            fact_rows: retained_rows(&rows),
            dim_rows: Vec::new(),
        };
        let column =
            |&(name, kind): &(&str, SlotKind)| (t.column(name).unwrap().clone(), None, kind);
        Delta::new(rows, columns.iter().map(column).collect(), retained)
    }

    fn all_rows(t: &Table) -> Vec<u32> {
        (0..t.num_rows() as u32).collect()
    }

    #[test]
    fn admission_routes_rows_to_strata() {
        let t = table();
        let s = admit_batches(&t, 8, true, &[&all_rows(&t)]);
        assert_eq!(s.num_strata(), 5);
        assert_eq!(s.total_weight(), 1000);
        assert_eq!(s.row_width(), 2, "two payload slots, 16 B a row");
        for g in 0..5 {
            let (_, rows, w) = s.iter().find(|(key, _, _)| key.parts() == [g]).unwrap();
            assert_eq!(w, 200);
            assert_eq!(rows.len(), 8);
            for row in rows.iter() {
                // v % 5 must equal the stratum key; w must be v * 0.5.
                assert_eq!(row[0] % 5, g);
                assert_eq!(f64::from_bits(row[1] as u64), row[0] as f64 * 0.5);
            }
        }
    }

    #[test]
    fn capacity_bounds_retained_tuples() {
        let t = table();
        let all = all_rows(&t);
        assert_eq!(admit_batches(&t, 2, true, &[&all]).total_items(), 10);
        // Each stratum has only 200 tuples < k ⇒ everything retained.
        assert_eq!(admit_batches(&t, 500, true, &[&all]).total_items(), 1000);
    }

    #[test]
    fn batches_continue_one_reservoir_pass() {
        // Two selection-vector batches are the same Algorithm R stream as
        // one pass: identical strata, weights and tuples.
        let t = table();
        let all = all_rows(&t);
        let split = admit_batches(&t, 16, true, &[&all[..500], &all[500..]]);
        let whole = admit_batches(&t, 16, true, &[&all]);
        assert_eq!(
            split.iter().collect::<Vec<_>>(),
            whole.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn keyless_admission_is_a_simple_reservoir() {
        let t = table();
        let s = admit_batches(&t, 32, false, &[&all_rows(&t)]);
        assert_eq!(s.num_strata(), 1);
        let (_, rows, w) = s.iter().next().unwrap();
        assert_eq!(w, 1000);
        assert_eq!(rows.len(), 32);
    }

    /// A stored sample occupies what it holds at its schema's width. A
    /// Q1-shaped one — two payload slots, one key part, strata filled and
    /// then merged into — is at most `n · 16 + s · C` bytes for `n` rows in
    /// `s` strata, where 64 B tuples alone took `n · 64`. `C` = 40 B key +
    /// 24 B of weight, count and slot range + 4 B of key order + at most
    /// four 8 B index slots (load ≥ 1/4 right after the index doubled)
    /// = 100 B.
    #[test]
    fn a_stored_q1_shaped_sample_occupies_what_it_holds() {
        const C: usize = 100;
        let (rows, strata, k) = (18_000usize, 2_000i64, 4usize);
        let t = Table::new(
            "t",
            vec![
                (
                    "g".into(),
                    Column::Int64((0..rows as i64).map(|i| i * 7 % strata).collect()),
                ),
                ("v".into(), Column::Int64((0..rows as i64).collect())),
                ("w".into(), Column::Float64(vec![0.5; rows])),
            ],
        )
        .unwrap();
        let all = all_rows(&t);
        // Six rows a stratum fill it (the online sample), then a Δ of three
        // more a stratum is absorbed into it.
        let online = admit_batches(&t, k, true, &[&all[..12_000]]);
        let delta = admit_batches(&t, k, true, &[&all[12_000..]]);
        let (merged, _) = Sample::combine(vec![online.into(), delta.into()], &mut Lehmer64::new(3));
        let descriptor = SampleDescriptor::new(
            "t[True]",
            vec!["g".into()],
            vec!["v".into(), "w".into()],
            Predicates::on("v", IntervalSet::of(Interval::new(0, rows as i64))),
            k,
        );
        let mut store = SampleStore::new();
        let id = store.insert_raw(descriptor, schema(), merged, 0);
        let stored = store.peek(id).unwrap();
        let (s, n) = (stored.sample.num_strata(), stored.sample.total_items());
        assert_eq!((s, n), (2_000, 8_000), "every stratum full");
        assert_eq!(stored.bytes(), stored.sample.heap_bytes());
        assert!(
            stored.bytes() <= n * 16 + s * C,
            "{} B for {n} rows in {s} strata",
            stored.bytes()
        );
        assert!(stored.bytes() < n * 64, "under what 64 B tuples took alone");
    }

    #[test]
    fn key_order_is_extended_by_the_strata_appended_since() {
        let keys = |s: &Sample| -> Vec<i64> {
            let strata: Vec<_> = s.iter().map(|(key, _, _)| key.parts()[0]).collect();
            s.key_order().iter().map(|&i| strata[i as usize]).collect()
        };
        let mut rng = Lehmer64::new(1);
        let mut s = Sample::new(&schema(), 2);
        for key in [5, 3, 9] {
            s.offer(GroupKey::new(&[key]), &[key, 0], &mut rng);
        }
        assert!(matches!(s.key_order(), Cow::Owned(_)), "never at rest yet");
        s.settle();
        assert!(matches!(s.key_order(), Cow::Borrowed(_)));
        assert_eq!(*s.key_order(), [1, 0, 2]);
        // Appended strata interleave with the kept ones; an offer to a
        // stratum that exists appends nothing.
        for key in [1, 7, 3, 10] {
            s.offer(GroupKey::new(&[key]), &[key, 0], &mut rng);
        }
        assert_eq!(keys(&s), vec![1, 3, 5, 7, 9, 10]);
        assert!(matches!(s.key_order(), Cow::Owned(_)), "extended per call");
        s.settle();
        assert!(matches!(s.key_order(), Cow::Borrowed(_)));
        assert_eq!(keys(&s), vec![1, 3, 5, 7, 9, 10]);
    }

    /// Where each stratum's rows start in the arena, by stratum index.
    fn addresses(s: &Sample) -> Vec<usize> {
        let at = |i| each_width!(&s.rows, r => r.stratum_at(i).1.as_ptr() as usize);
        (0..s.num_strata()).map(at).collect()
    }

    /// `s` with its arena re-laid along `layout`, its key order kept.
    fn relaid(s: &Sample, layout: Vec<u32>) -> Sample {
        let (mut out, order) = (s.clone(), s.key_order().into_owned());
        each_width!(out.rows_mut(), r => {
            r.lay_out_along(layout);
            r.settle();
            r.lay_out_along(order);
        });
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A settled sample lies in the arena in its key order, whatever
        /// order its strata were offered, appended, relocated and merged
        /// in; and where strata lie changes nothing read from them: every
        /// stratum, the heap footprint, the snapshot bytes and every
        /// estimate are bit-identical under any layout.
        #[test]
        fn a_sample_at_rest_lies_in_key_order_and_its_layout_changes_no_read(
            offers in prop::collection::vec((0i64..40, 0i64..1000), 1..200),
            delta in prop::collection::vec((0i64..60, 0i64..1000), 0..60),
            inserts in prop::collection::vec((0i64..60, 0usize..4), 0..6),
            k in 1usize..6,
            seed in 0u64..1_000,
        ) {
            let mut rng = Lehmer64::new(seed);
            let row = |v: i64| [v, (v as f64 * 0.25).to_bits() as i64];
            let mut s = Sample::new(&schema(), k);
            for &(key, v) in &offers {
                s.offer(GroupKey::new(&[key]), &row(v), &mut rng);
            }
            s.settle();
            let mut d = Sample::new(&schema(), k);
            for &(key, v) in &delta {
                d.offer(GroupKey::new(&[key]), &row(v), &mut rng);
            }
            s.absorb(&d, &mut rng);
            for &(key, n) in &inserts {
                let rows: Vec<i64> = (0..n.min(k) as i64).flat_map(row).collect();
                s.insert_rows(GroupKey::new(&[key]), &rows, n as u64 + 1);
            }
            s.settle();
            let at = addresses(&s);
            let walked: Vec<usize> = s.key_order().iter().map(|&i| at[i as usize]).collect();
            prop_assert!(walked.is_sorted(), "strata out of key order: {walked:?}");

            let mut layout: Vec<u32> = (0..s.num_strata() as u32).collect();
            for i in (1..layout.len()).rev() {
                layout.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let other = relaid(&s, layout);
            prop_assert_eq!(other.contents(), s.contents());
            prop_assert_eq!(other.heap_bytes(), s.heap_bytes());
            let snapshot = |sample: &Sample| {
                let descriptor = SampleDescriptor::new(
                    "t[True]",
                    vec!["g".into()],
                    vec!["v".into(), "w".into()],
                    Predicates::on("v", IntervalSet::of(Interval::new(0, 999))),
                    k,
                );
                let mut store = SampleStore::new();
                store.insert_raw(descriptor, schema(), sample.clone(), 1000);
                crate::persist::save_store(&store)
            };
            prop_assert_eq!(snapshot(&other), snapshot(&s));
            let max = AggSpec { kind: AggKind::Max, input: AggInput::Col("w".into()) };
            let aggs = [AggSpec::sum("w"), AggSpec::count(), AggSpec::avg("v"), max];
            let narrow = Predicates::on("v", IntervalSet::of(Interval::new(100, 700)));
            for tighten in [None, Some(&narrow)] {
                let opts = EstimateOptions { tighten };
                let expected = estimate(&s, &schema(), &aggs, &opts).unwrap();
                let groups = estimate(&other, &schema(), &aggs, &opts).unwrap();
                prop_assert_eq!(bits(&groups), bits(&expected));
            }
        }
    }

    /// Fact columns `g1`, `g2` (stratum keys), `fk` (a dimension row), `v`
    /// and `w` (payload); the dimension's payload column is `p`.
    fn star(rows: usize, strata: i64, dim_rows: usize) -> (Table, Table) {
        let n = rows as i64;
        let fact = Table::new(
            "f",
            vec![
                (
                    "g1".into(),
                    Column::Int64((0..n).map(|i| i * 31 % strata).collect()),
                ),
                (
                    "g2".into(),
                    Column::Int32((0..n).map(|i| (i % 2) as i32).collect()),
                ),
                (
                    "fk".into(),
                    Column::Int64((0..n).map(|i| i * 17 % dim_rows as i64).collect()),
                ),
                (
                    "v".into(),
                    Column::Int64((0..n).map(|i| i * i - 40).collect()),
                ),
                (
                    "w".into(),
                    Column::Float64((0..n).map(|i| -(i as f64) * 0.25).collect()),
                ),
            ],
        )
        .unwrap();
        let dim = Table::new(
            "d",
            vec![(
                "p".into(),
                Column::Float64((0..dim_rows).map(|i| i as f64 + 0.5).collect()),
            )],
        )
        .unwrap();
        (fact, dim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Row-id admission + materialisation ≡ direct tuple admission: fed
        /// the same batches under the same seeds — one worker or two merged
        /// by Algorithm 3 *before* any payload is read — both build the same
        /// `(key, rows, weight)` sequence in the same order, fact and
        /// dimension payload columns alike.
        #[test]
        fn row_id_admission_matches_tuple_admission(
            k in 1usize..9,
            strata in 1i64..30,
            key_cols in 0usize..3,
            batches in prop::collection::vec(prop::collection::vec(0u32..400, 0..120), 1..6),
            workers in 1usize..3,
            seed in 0u64..1_000,
        ) {
            let (fact, dim) = star(400, strata, 23);
            let fk = ResolvedCol::from_column(fact.column("fk").unwrap());
            let dim_rows_of = |rows: &[u32]| -> Vec<u32> {
                rows.iter().map(|&r| fk.i64(r as usize) as u32).collect()
            };
            let key_names = &["g1", "g2"][..key_cols];

            let mut direct: Vec<(TupleSample, Lehmer64)> = (0..workers)
                .map(|w| (TupleSample::new(k), Lehmer64::new(seed + w as u64)))
                .collect();
            let mut by_row: Vec<Admission> = (0..workers)
                .map(|w| Admission::new(k, seed + w as u64, 0))
                .collect();
            for (b, rows) in batches.iter().enumerate() {
                let at_dim = dim_rows_of(rows);
                let keys: Vec<BoundCol<'_>> = key_names
                    .iter()
                    .map(|c| BoundCol::new(fact.column(c).unwrap(), Some(rows)))
                    .collect();
                let payload = [
                    (BoundCol::new(fact.column("v").unwrap(), Some(rows)), SlotKind::Int),
                    (BoundCol::new(fact.column("w").unwrap(), Some(rows)), SlotKind::Float),
                    (BoundCol::new(dim.column("p").unwrap(), Some(&at_dim)), SlotKind::Float),
                ];
                let (sample, rng) = &mut direct[b % workers];
                admit_tuples(sample, rng, &keys, &payload, rows.len());
                by_row[b % workers].admit(keys.iter().copied(), rows);
            }

            let direct = merge_stratified_k(
                direct.into_iter().map(|(s, _)| s).collect(),
                &mut Lehmer64::new(seed ^ 0xF00D),
            );
            let rows = merge_stratified_k(
                by_row.into_iter().map(Admission::into_rows).collect(),
                &mut Lehmer64::new(seed ^ 0xF00D),
            );
            let survivors = retained_rows(&rows);
            let at_dim = dim_rows_of(&survivors);
            let col = |t: &Table, name: &str| t.column(name).unwrap().clone();
            let columns = vec![
                (col(&fact, "v"), None, SlotKind::Int),
                (col(&fact, "w"), None, SlotKind::Float),
                (col(&dim, "p"), Some(0), SlotKind::Float),
            ];
            let retained = StarJoinOutput { fact_rows: survivors, dim_rows: vec![at_dim] };
            let mut late = Delta::new(rows, columns, retained).read();
            prop_assert_eq!(late.contents(), tuple_contents(&direct, 3));
            // Exact-fit strata of 32 B rows (three slots round up to four):
            // the arena holds the retained rows and nothing else (128 B: the
            // key index's 16-slot minimum).
            late.settle();
            prop_assert_eq!(late.row_width(), 4);
            let rest = 32 * late.total_items();
            prop_assert!(late.heap_bytes() >= rest);
            prop_assert!(late.heap_bytes() - rest <= 128 + late.num_strata() * 100);
        }
    }

    /// Rows of the oracle table: stratum keys `g` over `strata`, then
    /// [`MAX_SAMPLE_COLS`] payload columns `c0`, `c1`, …: `c0` an integer in
    /// `0..100` the tightenings cut, odd ones floats (negatives and `-0.0`
    /// among them), even ones integers.
    fn wide_columns(from: i64, rows: i64, strata: i64) -> Vec<(String, Column)> {
        let mut cols = vec![(
            "g".to_string(),
            Column::Int64((from..from + rows).map(|i| i * 31 % strata).collect()),
        )];
        for c in 0..MAX_SAMPLE_COLS as i64 {
            let ids = from..from + rows;
            let col = if c % 2 == 1 {
                Column::Float64(ids.map(|i| (i * (c + 3) % 17) as f64 * -0.75).collect())
            } else {
                Column::Int64(ids.map(|i| (i * 7 + c) % 100 - c * 10).collect())
            };
            cols.push((format!("c{c}"), col));
        }
        cols
    }

    fn wide_schema(slots: usize) -> SampleSchema {
        let kind = |c| {
            if c % 2 == 1 {
                SlotKind::Float
            } else {
                SlotKind::Int
            }
        };
        SampleSchema::new((0..slots).map(|c| (format!("c{c}"), kind(c))).collect())
    }

    /// Row `row` of `t` as `slots` payload slot values.
    fn wide_row(t: &Table, schema: &SampleSchema, row: usize) -> Vec<i64> {
        let name = |c| format!("c{c}");
        (0..schema.len())
            .map(|c| {
                let col = ResolvedCol::from_column(t.column(&name(c)).unwrap());
                schema.kind(c).read(&col, row)
            })
            .collect()
    }

    /// Every kind of aggregate over the first and last slot, their
    /// product, and `COUNT(*)`-style `None`.
    fn wide_aggs(slots: usize) -> Vec<AggSpec> {
        let last = format!("c{}", slots - 1);
        let inputs = [
            AggInput::Col("c0".into()),
            AggInput::Col(last.clone()),
            AggInput::None,
            AggInput::Mul("c0".into(), last),
        ];
        let kinds = [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ];
        let spec = |kind| {
            inputs.iter().map(move |input| AggSpec {
                kind,
                input: input.clone(),
            })
        };
        kinds.into_iter().flat_map(spec).collect()
    }

    /// One row per group and aggregate: the key, the value and half-width
    /// bit patterns and the support. `==` on these is bit identity, `NaN`s
    /// included.
    fn bits(groups: &Groups) -> Vec<(&[i64], u64, u64, usize)> {
        let rows = groups.iter().flat_map(|g| {
            let row = |a: &crate::AggEstimate| (a.value.to_bits(), a.ci_half_width.to_bits());
            (g.values.iter()).map(move |a| (g.key, row(a).0, row(a).1, a.support))
        });
        rows.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The width-exact sample is the 64 B one, for every schema width:
        /// the same operations on a [`Sample`] and on the oracle — scan
        /// admission and a [`Delta`] read, the k-way merge (one Δ's payload
        /// read only for the rows it keeps), offers and
        /// `insert_items` (empty strata among them) to strata old and new
        /// after the sample came to rest, ingest absorb through the store —
        /// leave the same `(key, rows, weight)` sequence, and every estimate
        /// over it (no / `Range` / `Sets` tightening; `Col` over int and
        /// float slots, `Mul`, `None`; before and after the key order is
        /// extended) is the oracle's bit for bit, groups in key order.
        #[test]
        fn width_exact_samples_match_the_64_byte_oracle(
            slots in 1usize..MAX_SAMPLE_COLS + 1,
            k in 1usize..9,
            strata in 1i64..12,
            batches in prop::collection::vec(prop::collection::vec(0u32..300, 0..80), 2..5),
            offers in prop::collection::vec((0i64..16, 0usize..300), 0..40),
            inserts in prop::collection::vec((0i64..20, 0usize..5, 0u64..4), 0..6),
            cuts in (0i64..100, 0i64..100, 0i64..100),
            seed in 0u64..1_000,
        ) {
            let t = Table::new("t", wide_columns(0, 300, strata)).unwrap();
            let schema = wide_schema(slots);
            let scanned = |seed: u64, batches: &[Vec<u32>]| {
                let mut admission = Admission::new(k, seed, 0);
                let (mut oracle, mut rng) = (TupleSample::new(k), Lehmer64::new(seed));
                for rows in batches {
                    let bound = |name: &str| BoundCol::new(t.column(name).unwrap(), Some(rows));
                    let keys = [bound("g")];
                    let payload: Vec<_> =
                        (0..slots).map(|c| (bound(&format!("c{c}")), schema.kind(c))).collect();
                    admit_tuples(&mut oracle, &mut rng, &keys, &payload, rows.len());
                    admission.admit(keys, rows);
                }
                let names: Vec<String> = (0..slots).map(|c| format!("c{c}")).collect();
                let columns: Vec<_> = (0..slots).map(|c| (names[c].as_str(), schema.kind(c))).collect();
                (fact_delta(admission.into_rows(), &t, &columns), oracle)
            };
            let half = batches.len() / 2;
            let (a, oa) = scanned(seed, &batches[..half]);
            let (b, ob) = scanned(seed ^ 1, &batches[half..]);
            let a = a.read();
            prop_assert_eq!(a.row_width(), slots.next_power_of_two());
            // The second scan's payload is read only for the rows the merge
            // keeps, unless it is the larger and the merge goes into it.
            let read = b.len();
            let (mut sample, rows_read) =
                Sample::combine(vec![a.into(), Part::Unread(b)], &mut Lehmer64::new(seed ^ 2));
            prop_assert!(rows_read <= read);
            let mut oracle = merge_stratified_k(vec![oa, ob], &mut Lehmer64::new(seed ^ 2));
            sample.settle();

            let (mut rng, mut oracle_rng) = (Lehmer64::new(seed ^ 3), Lehmer64::new(seed ^ 3));
            for &(key, row) in &offers {
                let vals = wide_row(&t, &schema, row);
                sample.offer(GroupKey::new(&[key]), &vals, &mut rng);
                oracle.offer(GroupKey::new(&[key]), SampleTuple::from_slice(&vals), &mut oracle_rng);
            }
            for &(key, n, extra) in &inserts {
                let rows: Vec<Vec<i64>> = (0..n.min(k)).map(|r| wide_row(&t, &schema, r * 13)).collect();
                let weight = rows.len() as u64 + extra;
                let key = GroupKey::new(&[key + 10]);
                sample.insert_rows(key, &rows.concat(), weight);
                let tuples: Vec<_> = rows.iter().map(|r| SampleTuple::from_slice(r)).collect();
                oracle.insert_items(key, &tuples, weight);
            }
            prop_assert_eq!(sample.contents(), tuple_contents(&oracle, slots));

            // Ingest absorb: the store offers appended rows to the sample
            // it holds, in row order.
            let descriptor = SampleDescriptor::new(
                "t[True]",
                vec!["g".into()],
                schema.column_names().into_iter().map(String::from).collect(),
                Predicates::on("c0", IntervalSet::of(Interval::new(0, 99))),
                k,
            );
            let mut store = SampleStore::new();
            let id = store.insert_raw(descriptor, schema.clone(), sample.clone(), 300);
            let grown = t.append_batch(&wide_columns(300, 60, strata)).unwrap();
            let report = store.absorb_appended(&grown, &mut Lehmer64::new(seed ^ 4));
            prop_assert_eq!(report.rows_absorbed, 60);
            let mut ingested = oracle.clone();
            let mut ingest_rng = Lehmer64::new(seed ^ 4);
            for row in 300..360 {
                let key = GroupKey::new(&[grown.column("g").unwrap().i64_at(row)]);
                let vals = wide_row(&grown, &schema, row);
                ingested.offer(key, SampleTuple::from_slice(&vals), &mut ingest_rng);
            }
            let absorbed = &store.peek(id).unwrap().sample;
            prop_assert_eq!(absorbed.contents(), tuple_contents(&ingested, slots));

            // Estimates: `sample` grew since it came to rest (its key order
            // is extended per call), the stored one rests (its own order).
            let (lo, mid, hi) = {
                let mut c = [cuts.0, cuts.1, cuts.2];
                c.sort_unstable();
                (c[0], c[1], c[2])
            };
            let tightenings = [
                None,
                Some(Predicates::on("c0", IntervalSet::of(Interval::new(lo, hi)))),
                Some(Predicates::on(
                    "c0",
                    IntervalSet::from_intervals(vec![Interval::new(lo, mid), Interval::new(hi, 120)]),
                )),
            ];
            let aggs = wide_aggs(slots);
            for (sample, oracle) in [(&sample, &oracle), (&**absorbed, &ingested)] {
                let wide = Sample::of_tuples(oracle.clone(), slots);
                for tighten in &tightenings {
                    let opts = EstimateOptions {
                        tighten: tighten.as_ref(),
                    };
                    let groups = estimate(sample, &schema, &aggs, &opts).unwrap();
                    let expected = estimate(&wide, &schema, &aggs, &opts).unwrap();
                    prop_assert_eq!(bits(&groups), bits(&expected));
                    prop_assert!((1..groups.len()).all(|i| groups.get(i - 1).key < groups.get(i).key));
                }
            }
        }
    }

    /// Every tightened estimate of `s` over `v ∈ [150, 850]`, as bits.
    fn tightened(s: &Sample) -> Vec<(Vec<i64>, u64, u64, usize)> {
        let narrow = Predicates::on("v", IntervalSet::of(Interval::new(150, 850)));
        let opts = EstimateOptions {
            tighten: Some(&narrow),
        };
        let aggs = [AggSpec::sum("w"), AggSpec::count(), AggSpec::avg("v")];
        let groups = estimate(s, &schema(), &aggs, &opts).unwrap();
        let owned =
            |(key, value, half, support): (&[i64], _, _, _)| (key.to_vec(), value, half, support);
        bits(&groups).into_iter().map(owned).collect()
    }

    /// Every change of a sample's rows but an ingest's offers drops its
    /// range index: after each way in — an offer, a snapshot insert, a
    /// merge, a lazy merge of a Δ — the sample holds no index and no
    /// walked rows, and a tightened estimate is that of a walk over a copy.
    /// Coming to rest moves no row and keeps it. A copy shares the index,
    /// and it is a rebuild of the copy, before and after the change.
    #[test]
    fn every_change_of_the_rows_drops_the_range_index() {
        let t = table();
        let all = all_rows(&t);
        let base = admit_batches(&t, 8, true, &[&all[..600]]);
        let other = admit_batches(&t, 8, true, &[&all[600..800]]);
        let rng = || Lehmer64::new(5);
        type Change<'a> = (&'a str, &'a dyn Fn(&mut Sample));
        let changes: [Change<'_>; 4] = [
            ("offer", &|s| {
                s.offer(GroupKey::new(&[9]), &[700, 0], &mut rng())
            }),
            ("insert_rows", &|s| {
                s.insert_rows(GroupKey::new(&[2]), &[160, 0, 170, 0], 9)
            }),
            ("absorb", &|s| s.absorb(&other, &mut rng())),
            ("absorb_delta", &|s| {
                let rows = &all[800..];
                let mut admission = Admission::new(8, 6, 0);
                admission.admit([BoundCol::new(t.column("g").unwrap(), Some(rows))], rows);
                let columns = [("v", SlotKind::Int), ("w", SlotKind::Float)];
                s.absorb_delta(&fact_delta(admission.into_rows(), &t, &columns), &mut rng());
            }),
        ];
        for (name, change) in changes {
            let mut s = base.clone().indexed(0);
            assert_eq!(
                tightened(&s),
                tightened(&base.without_range_index()),
                "{name}: indexed ≡ walked"
            );
            let copy = s.clone();
            assert!(
                copy.range_index_bytes().is_some(),
                "a copy shares the index"
            );
            assert_eq!(copy.held_range_index(), copy.rebuilt_range_index().as_ref());
            change(&mut s);
            assert_eq!(s.range_index_bytes(), None, "{name} kept the index");
            assert_eq!(s.rows_walked(), 0, "{name} kept the walked rows");
            assert_eq!(tightened(&s), tightened(&s.without_range_index()), "{name}");
            assert_eq!(
                copy.held_range_index(),
                copy.rebuilt_range_index().as_ref(),
                "{name} changed the copy's index"
            );
        }
        let mut s = base.clone().indexed(0);
        s.settle();
        assert!(s.range_index_bytes().is_some(), "settle dropped the index");
        assert_eq!(s.held_range_index(), s.rebuilt_range_index().as_ref());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Ingest offers patch the range index into a rebuild of it: from
        /// strata restored in one piece (so the first fill relocates them;
        /// some empty, some full), batches of offers fill some strata and
        /// overflow others, at `k` = 1, 8, 32, 65 and 130 (above 64 a
        /// stratum spans several words). After every batch the sample is
        /// the one plain offers make, draw for draw; it holds an index iff
        /// the batch kept every stratum's word count (a new stratum, which
        /// sorts first, and a stratum's first row in a new word each drop
        /// it); the index is a rebuild, entry for entry; and a tightened
        /// estimate is a walk's over a copy, bit for bit. A batch applied
        /// to a copy while a clone is held (a reader still holding the
        /// stored sample) leaves the held clone's index a rebuild of it.
        #[test]
        fn a_patched_range_index_is_a_rebuild(
            k in prop::sample::select(vec![1usize, 8, 32, 65, 130]),
            restored in prop::collection::vec(0usize..140, 1..6),
            batches in prop::collection::vec(
                (prop::collection::vec((0usize..64, 0i64..1000), 0..400), 0u8..4),
                1..6,
            ),
            seed in 0u64..1_000,
        ) {
            let mut rng = Lehmer64::new(seed);
            let mut s = Sample::new(&schema(), k);
            for (g, &n) in restored.iter().enumerate() {
                let n = n.min(k);
                let vals: Vec<i64> = (0..n).flat_map(|j| [(g * 389 + j * 97) as i64 % 1000, 0]).collect();
                s.insert_rows(GroupKey::new(&[g as i64]), &vals, (n + g) as u64);
            }
            s.settle();
            let mut s = Arc::new(s.indexed(0));
            for (b, (offers, flags)) in batches.iter().enumerate() {
                let mut rows: Vec<(GroupKey, i64)> = (offers.iter())
                    .map(|&(r, x)| (GroupKey::new(&[(r % restored.len()) as i64]), x))
                    .collect();
                if flags & 1 != 0 {
                    rows.insert(rows.len() / 2, (GroupKey::new(&[-1 - b as i64]), 500));
                }
                let held = (flags & 2 != 0).then(|| Arc::clone(&s));
                let words = |s: &Sample| -> Vec<usize> {
                    s.iter().map(|(_, rows, _)| rows.len().div_ceil(64)).collect()
                };
                let before = words(&s);
                let mut plain = s.without_range_index();
                let mut plain_rng = rng.clone();
                for &(key, x) in &rows {
                    plain.offer(key, &[x, 0], &mut plain_rng);
                }
                let sample = Arc::make_mut(&mut s);
                let payload = |&(key, x): &(GroupKey, i64)| {
                    (key, move |vals: &mut [i64]| vals.copy_from_slice(&[x, 0]))
                };
                let offered = sample.offer_appended(rows.iter().map(payload), &mut rng);
                prop_assert_eq!(offered, rows.len() as u64);
                sample.settle();
                prop_assert_eq!(s.contents(), plain.contents());
                prop_assert_eq!(rng.next_u64(), plain_rng.next_u64());
                let kept = before == words(&s)[..before.len()] && s.num_strata() == before.len();
                prop_assert_eq!(s.range_index_bytes().is_some(), kept);
                prop_assert_eq!(s.held_range_index(), s.rebuilt_range_index().as_ref());
                prop_assert_eq!(tightened(&s), tightened(&s.without_range_index()));
                if let Some(held) = held {
                    prop_assert!(held.range_index_bytes().is_some());
                    prop_assert_eq!(held.held_range_index(), held.rebuilt_range_index().as_ref());
                }
                if !kept {
                    s = Arc::new(Arc::unwrap_or_clone(s).indexed(0));
                }
            }
        }
    }

    #[test]
    fn schema_slots() {
        let s = schema();
        assert_eq!(s.slot("v"), Some(0));
        assert_eq!(s.slot("w"), Some(1));
        assert_eq!(s.slot("missing"), None);
        assert_eq!(s.kind(1), SlotKind::Float);
        assert_eq!(s.column_names(), vec!["v", "w"]);
    }

    #[test]
    fn tuple_prefix_is_zero_padded() {
        let t = SampleTuple::from_slice(&[3, -4]);
        assert_eq!(t.vals, [3, -4, 0, 0, 0, 0, 0, 0]);
    }
}
