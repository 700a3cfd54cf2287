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
//! read until the scan is over: [`materialise`] then gathers the retained
//! rows' payload, one typed column at a time (late materialisation), into a
//! [`Sample`] whose rows are as wide as its schema. A scan therefore costs
//! what it admits, not `strata × k` tuples, and a stored sample what it
//! holds. DESIGN.md, "Sample layout and the admission path" and "One
//! stored representation", has the layout and the cost model.

use std::borrow::Cow;

use laqy_engine::ops::{BoundCol, ResolvedCol};
use laqy_engine::{GroupKey, MAX_KEY_COLS};
use laqy_sampling::{merge_base, Lehmer64, StratifiedSampler};

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
/// group-key order, which every estimate walks (DESIGN.md, "One stored
/// representation").
#[derive(Debug, Clone)]
pub struct Sample {
    pub(crate) rows: Rows,
    /// Payload slots a row carries: its schema's width.
    slots: usize,
    /// Indices of the first `order.len()` strata in group-key order. Strata
    /// are only ever appended, never removed or re-keyed, so it stays valid;
    /// [`Sample::settle`] extends it over the strata appended since.
    order: Vec<u32>,
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
            order: Vec::new(),
        }
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

    /// Exact heap footprint in bytes: the sampler's and the key order's.
    pub fn heap_bytes(&self) -> usize {
        let order = self.order.capacity() * std::mem::size_of::<u32>();
        each_width!(&self.rows, s => s.heap_bytes()) + order
    }

    /// Consider one row, `vals` its payload slots, for its stratum
    /// (Algorithm R per stratum).
    pub fn offer(&mut self, key: GroupKey, vals: &[i64], rng: &mut Lehmer64) {
        assert_eq!(vals.len(), self.slots, "one value per payload slot");
        each_width!(&mut self.rows, s => s.offer_with(key, rng, || row(vals)))
    }

    /// Set one stratum to the rows of `slots` values each in `vals`, standing
    /// for `weight` considered rows (snapshot restore).
    pub(crate) fn insert_rows(&mut self, key: GroupKey, vals: &[i64], weight: u64) {
        let slots = self.slots;
        assert!(
            slots > 0 && vals.len().is_multiple_of(slots),
            "whole rows of payload"
        );
        each_width!(&mut self.rows, s => {
            let rows: Vec<_> = vals.chunks_exact(slots).map(row).collect();
            s.insert_items(key, &rows, weight)
        })
    }

    /// Merge `other`, a sample of the same schema over a disjoint population,
    /// in place (Algorithm 3: the sampler's `absorb`, appending new strata).
    pub fn absorb(&mut self, other: &Sample, rng: &mut Lehmer64) {
        match (&mut self.rows, &other.rows) {
            (Rows::W1(s), Rows::W1(o)) => s.absorb(o, rng),
            (Rows::W2(s), Rows::W2(o)) => s.absorb(o, rng),
            (Rows::W4(s), Rows::W4(o)) => s.absorb(o, rng),
            (Rows::W8(s), Rows::W8(o)) => s.absorb(o, rng),
            _ => panic!("samples of different row widths do not merge"),
        }
    }

    /// The k-way merge of `inputs` (`merge_stratified_k` over samples): the
    /// others absorbed, in input order, into the input [`merge_base`]
    /// picks — copied only if borrowed — whose key order the result keeps.
    pub fn combine(mut inputs: Vec<Cow<'_, Sample>>, rng: &mut Lehmer64) -> Sample {
        let sizes = inputs.iter().map(|s| (s.capacity(), s.num_strata()));
        let mut out = inputs.remove(merge_base(sizes)).into_owned();
        for other in &inputs {
            out.absorb(other, rng);
        }
        out
    }

    /// Come to rest: release growth slack, close relocation holes (the arena
    /// ends up contiguous, in index order), and extend the key order.
    pub fn settle(&mut self) {
        each_width!(&mut self.rows, s => s.shrink_to_fit());
        if self.order.len() < self.num_strata() {
            self.order = self.extended_order();
        }
    }

    /// Every stratum's index in group-key order: the kept order, extended
    /// for this call alone if the sample grew since it came to rest.
    pub(crate) fn key_order(&self) -> Cow<'_, [u32]> {
        if self.order.len() == self.num_strata() {
            Cow::Borrowed(&self.order)
        } else {
            Cow::Owned(self.extended_order())
        }
    }

    /// The kept key order with the strata appended since merged in: only
    /// the new tail is sorted.
    fn extended_order(&self) -> Vec<u32> {
        let keys: Vec<&[i64]> =
            each_width!(&self.rows, s => s.iter().map(|(key, _, _)| key.parts()).collect());
        let key = |i: u32| keys[i as usize];
        let mut tail: Vec<u32> = (self.order.len() as u32..keys.len() as u32).collect();
        tail.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let mut tail = tail.into_iter().peekable();
        let mut order = Vec::with_capacity(keys.len());
        for &kept in &self.order {
            while let Some(new) = tail.next_if(|&new| key(new) < key(kept)) {
                order.push(new);
            }
            order.push(kept);
        }
        order.extend(tail);
        order
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
    pub fn admit(&mut self, keys: &[BoundCol<'_>], fact_rows: &[u32]) {
        self.keys.clear();
        for col in keys {
            col.gather_i64(fact_rows.len(), &mut self.keys);
        }
        // A key of compile-time width is built with plain moves.
        match keys.len() {
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
/// the survivors whose payload [`materialise`] reads.
pub(crate) fn retained_rows(rows: &RowSample) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows.total_items());
    for (_, items, _) in rows.iter() {
        out.extend_from_slice(items);
    }
    out
}

/// Turn a sample of row ids into the sample of those rows' payload: the
/// same strata in the same order with the same weights, each owning
/// exactly the rows it retains, each row as wide as `slots` rounds up to.
/// `columns` yields, per payload slot, the column, the survivors' rows *in
/// that column's table* (aligned with [`retained_rows`]) and the slot's
/// kind; each column is read once, in one typed pass. The RNG took no part
/// in what a row holds, so this is the sample row-building admission would
/// have built.
pub(crate) fn materialise<'a>(
    rows: RowSample,
    slots: usize,
    columns: impl Iterator<Item = (ResolvedCol<'a>, &'a [u32], SlotKind)>,
) -> Sample {
    let mut sample = Sample::with_strata_hint(slots, rows.capacity(), 0);
    each_width!(&mut sample.rows, s => *s = fill(rows, columns));
    sample
}

/// [`materialise`] into rows of `W` slots.
fn fill<'a, const W: usize>(
    rows: RowSample,
    columns: impl Iterator<Item = (ResolvedCol<'a>, &'a [u32], SlotKind)>,
) -> Sampler<W> {
    let mut payload = vec![[0i64; W]; rows.total_items()];
    for (slot, (col, at, kind)) in columns.enumerate() {
        assert_eq!(at.len(), payload.len(), "one row per survivor");
        let mut survivor = 0;
        kind.read_each(&col, at.iter().map(|&r| r as usize), |v| {
            payload[survivor][slot] = v;
            survivor += 1;
        });
    }
    rows.with_items(payload)
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
    /// Rows retained across all strata.
    pub(crate) fn total_items(&self) -> usize {
        each_width!(&self.rows, s => s.total_items())
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
            order: Vec::new(),
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
    use crate::estimate::{estimate, EstimateOptions, GroupEstimate};
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
            admission.admit(&keys, rows);
        }
        let rows = admission.into_rows();
        let survivors = retained_rows(&rows);
        let column = |name: &str, kind| {
            let col = ResolvedCol::from_column(t.column(name).unwrap());
            (col, &survivors[..], kind)
        };
        let columns = [column("v", SlotKind::Int), column("w", SlotKind::Float)];
        materialise(rows, 2, columns.into_iter())
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
        let merged = Sample::combine(
            vec![Cow::Owned(online), Cow::Owned(delta)],
            &mut Lehmer64::new(3),
        );
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
        assert_eq!(s.order, vec![1, 0, 2]);
        // Appended strata interleave with the kept ones; an offer to a
        // stratum that exists appends nothing.
        for key in [1, 7, 3, 10] {
            s.offer(GroupKey::new(&[key]), &[key, 0], &mut rng);
        }
        assert_eq!(keys(&s), vec![1, 3, 5, 7, 9, 10]);
        assert_eq!(s.order, vec![1, 0, 2], "the kept order is not touched");
        s.settle();
        assert!(matches!(s.key_order(), Cow::Borrowed(_)));
        assert_eq!(keys(&s), vec![1, 3, 5, 7, 9, 10]);
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
                by_row[b % workers].admit(&keys, rows);
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
            fn col<'a>(t: &'a Table, name: &str) -> ResolvedCol<'a> {
                ResolvedCol::from_column(t.column(name).unwrap())
            }
            let columns = [
                (col(&fact, "v"), &survivors[..], SlotKind::Int),
                (col(&fact, "w"), &survivors[..], SlotKind::Float),
                (col(&dim, "p"), &at_dim[..], SlotKind::Float),
            ];
            let mut late = materialise(rows, 3, columns.into_iter());
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
    fn bits(groups: &[GroupEstimate]) -> Vec<(&[i64], u64, u64, usize)> {
        let rows = groups.iter().flat_map(|g| {
            let row = |a: &crate::AggEstimate| (a.value.to_bits(), a.ci_half_width.to_bits());
            (g.values.iter()).map(move |a| (g.key.as_slice(), row(a).0, row(a).1, a.support))
        });
        rows.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The width-exact sample is the 64 B one, for every schema width:
        /// the same operations on a [`Sample`] and on the oracle — scan
        /// admission and `materialise`, the k-way merge, offers and
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
                    admission.admit(&keys, rows);
                }
                let rows = admission.into_rows();
                let survivors = retained_rows(&rows);
                let columns = (0..slots).map(|c| {
                    let col = ResolvedCol::from_column(t.column(&format!("c{c}")).unwrap());
                    (col, &survivors[..], schema.kind(c))
                });
                (materialise(rows, slots, columns), oracle)
            };
            let half = batches.len() / 2;
            let (a, oa) = scanned(seed, &batches[..half]);
            let (b, ob) = scanned(seed ^ 1, &batches[half..]);
            prop_assert_eq!(a.row_width(), slots.next_power_of_two());
            let mut sample = Sample::combine(vec![Cow::Owned(a), Cow::Owned(b)], &mut Lehmer64::new(seed ^ 2));
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
                        ..Default::default()
                    };
                    let groups = estimate(sample, &schema, &aggs, &opts).unwrap();
                    let expected = estimate(&wide, &schema, &aggs, &opts).unwrap();
                    prop_assert_eq!(bits(&groups), bits(&expected));
                    prop_assert!(groups.windows(2).all(|w| w[0].key < w[1].key));
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
