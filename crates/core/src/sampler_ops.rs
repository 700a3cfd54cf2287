//! Sampled-tuple payloads and the admission path (paper §4.1, §6.2).
//!
//! The paper implements stratified sampling as a group-by whose aggregation
//! function is a reservoir. Here the group-by *is* the sampler, and what it
//! samples is **fact row ids**: every scan worker owns one [`RowSample`]
//! and one RNG ([`Admission`]), and each morsel's selected rows — straight
//! off the fact scan or above a star join — continue Algorithm R directly
//! into it. No per-morsel hash table is built, nothing is merged until
//! different workers' samples are combined (Algorithm 3), and no payload is
//! read until the scan is over: [`materialise`] then gathers the retained
//! rows' tuples, one typed column at a time (late materialisation). A scan
//! therefore costs what it admits, not `strata × k` tuples. DESIGN.md,
//! "Sample layout and the admission path", has the layout and the cost
//! model.

use laqy_engine::ops::{BoundCol, ResolvedCol};
use laqy_engine::{GroupKey, MAX_KEY_COLS};
use laqy_sampling::{Lehmer64, StratifiedSampler};

/// Maximum payload columns carried per sampled tuple.
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

/// A fixed-width sampled tuple: the QVS payload of one input row. Floats
/// are stored bit-cast so the tuple stays `Copy` and branch-free to move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleTuple {
    vals: [i64; MAX_SAMPLE_COLS],
}

impl SampleTuple {
    /// Construct from raw slot values (floats pre-encoded with `to_bits`).
    pub fn new(vals: [i64; MAX_SAMPLE_COLS]) -> Self {
        Self { vals }
    }

    /// Construct from a prefix of slot values; remaining slots are zero.
    pub fn from_slice(prefix: &[i64]) -> Self {
        assert!(prefix.len() <= MAX_SAMPLE_COLS, "too many slots");
        let mut vals = [0i64; MAX_SAMPLE_COLS];
        vals[..prefix.len()].copy_from_slice(prefix);
        Self { vals }
    }

    /// Raw integer slot.
    #[inline]
    pub fn int(&self, slot: usize) -> i64 {
        self.vals[slot]
    }

    /// Float slot (bit-cast back).
    #[inline]
    pub fn float(&self, slot: usize) -> f64 {
        f64::from_bits(self.vals[slot] as u64)
    }

    /// Numeric view of a slot under its declared kind.
    #[inline]
    pub fn numeric(&self, slot: usize, kind: SlotKind) -> f64 {
        kind.numeric(self.vals[slot])
    }
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

/// A stratified sample of [`SampleTuple`]s, strata keyed by the QCS
/// values.
pub type Sample = StratifiedSampler<GroupKey, SampleTuple>;

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

/// Turn a sample of row ids into the sample of those rows' tuples: the
/// same strata in the same order with the same weights, each owning
/// exactly the tuples it retains. `columns` yields, per payload slot, the
/// column, the survivors' rows *in that column's table* (aligned with
/// [`retained_rows`]) and the slot's kind; each column is read once, in one
/// typed pass. The RNG took no part in what a tuple holds, so this is the
/// sample tuple-building admission would have built.
pub(crate) fn materialise<'a>(
    rows: RowSample,
    columns: impl Iterator<Item = (ResolvedCol<'a>, &'a [u32], SlotKind)>,
) -> Sample {
    let mut tuples = vec![SampleTuple::default(); rows.total_items()];
    for (slot, (col, at, kind)) in columns.enumerate() {
        assert_eq!(at.len(), tuples.len(), "one row per survivor");
        let mut survivor = 0;
        kind.read_each(&col, at.iter().map(|&r| r as usize), |v| {
            tuples[survivor].vals[slot] = v;
            survivor += 1;
        });
    }
    rows.with_items(tuples)
}

/// The admission this module replaced, kept as the oracle row-id admission
/// is tested against: offer logical rows `0..rows` of the bound columns
/// straight into a sample of tuples, building a tuple whenever one is
/// admitted.
#[cfg(test)]
pub(crate) fn admit_tuples(
    sample: &mut Sample,
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

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::{Column, Table};
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
        materialise(
            rows,
            [column("v", SlotKind::Int), column("w", SlotKind::Float)].into_iter(),
        )
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
        for g in 0..5 {
            let (items, w) = s.stratum(&GroupKey::new(&[g])).unwrap();
            assert_eq!(w, 200);
            assert_eq!(items.len(), 8);
            for t in items {
                // v % 5 must equal the stratum key; w must be v * 0.5.
                assert_eq!(t.int(0) % 5, g);
                assert_eq!(t.float(1), t.int(0) as f64 * 0.5);
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
        let (items, w) = s.stratum(&GroupKey::new(&[])).unwrap();
        assert_eq!(w, 1000);
        assert_eq!(items.len(), 32);
    }

    /// A Δ-sample costs what it admits (the north star, applied to the
    /// sample's own bytes): `s` strata retaining `n` tuples occupy at most
    /// `n · 64 + s · C` bytes, where the dense layout allocated `s · k · 64`.
    /// `C` = 40 B key + 24 B of weight, count and slot range + at most
    /// four 8 B index slots (load ≥ 1/4 right after the index doubled)
    /// = 96 B.
    #[test]
    fn a_sample_occupies_what_it_retains() {
        const C: usize = 96;
        let (rows, strata, k) = (6_000usize, 2_000i64, 32usize);
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
        let mut sample = admit_batches(&t, k, true, &[&all_rows(&t)]);
        sample.shrink_to_fit();
        let (s, n) = (sample.num_strata(), sample.total_items());
        assert_eq!((s, n), (2_000, 6_000), "three rows a stratum, none full");
        assert!(
            sample.heap_bytes() <= n * 64 + s * C,
            "{} B for {n} tuples in {s} strata",
            sample.heap_bytes()
        );
        assert!(
            sample.heap_bytes() * 4 < s * k * 64,
            "under a quarter of the dense arena alone"
        );
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
        /// `(key, items, weight)` sequence in the same order, fact and
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

            let mut direct: Vec<(Sample, Lehmer64)> = (0..workers)
                .map(|w| (Sample::new(k), Lehmer64::new(seed + w as u64)))
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
            let mut late = materialise(
                rows,
                [
                    (col(&fact, "v"), &survivors[..], SlotKind::Int),
                    (col(&fact, "w"), &survivors[..], SlotKind::Float),
                    (col(&dim, "p"), &at_dim[..], SlotKind::Float),
                ]
                .into_iter(),
            );
            prop_assert_eq!(
                late.iter().collect::<Vec<_>>(),
                direct.iter().collect::<Vec<_>>()
            );
            // Exact-fit strata: the arena holds the retained tuples and
            // nothing else (128 B: the key index's 16-slot minimum).
            late.shrink_to_fit();
            let rest = std::mem::size_of::<SampleTuple>() * late.total_items();
            prop_assert!(late.heap_bytes() >= rest);
            prop_assert!(late.heap_bytes() - rest <= 128 + late.num_strata() * 96);
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
    fn tuple_numeric_views() {
        let t = SampleTuple {
            vals: [3, (2.5f64).to_bits() as i64, 0, 0, 0, 0, 0, 0],
        };
        assert_eq!(t.numeric(0, SlotKind::Int), 3.0);
        assert_eq!(t.numeric(1, SlotKind::Float), 2.5);
    }
}
