//! Sampled-tuple payloads and the admission path (paper §4.1, §6.2).
//!
//! The paper implements stratified sampling as a group-by whose aggregation
//! function is a reservoir. Here the group-by *is* the sampler: every
//! scan worker owns one [`Sample`] and one RNG ([`Admission`]), and each
//! morsel's selected rows — straight off the fact scan or above a star
//! join — continue Algorithm R directly into it. No per-morsel hash table
//! is built and nothing is merged until different workers' samples are
//! combined (Algorithm 3). DESIGN.md, "Sample layout and the admission
//! path", has the layout and the cost model.

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

/// One scan worker's admission state: the sample its morsels fold into and
/// the RNG driving Algorithm R. The RNG is per worker, not per stratum, so
/// at one thread the sample depends only on the order rows arrive in —
/// never on how the scan was cut into morsels.
pub(crate) struct Admission {
    sample: Sample,
    rng: Lehmer64,
}

impl Admission {
    /// Empty sample with per-stratum capacity `k`.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            sample: Sample::new(k),
            rng: Lehmer64::new(seed),
        }
    }

    /// Offer logical rows `0..rows` of the bound columns: `keys` form the
    /// stratum key, `payload` the tuple (built only when admitted).
    pub fn admit(
        &mut self,
        keys: &[BoundCol<'_>],
        payload: &[(BoundCol<'_>, SlotKind)],
        rows: usize,
    ) {
        let mut key = [0i64; MAX_KEY_COLS];
        for i in 0..rows {
            for (part, col) in key.iter_mut().zip(keys) {
                *part = col.i64(i);
            }
            self.sample
                .offer_with(GroupKey::new(&key[..keys.len()]), &mut self.rng, || {
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

    /// The sample built so far.
    pub fn into_sample(self) -> Sample {
        self.sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::{Column, Table};

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

    /// Admit `t`'s rows in the given batches of row ids (`None` = one dense
    /// batch over the whole table).
    fn admit_batches(t: &Table, k: usize, keyed: bool, batches: &[Option<&[u32]>]) -> Sample {
        let mut admission = Admission::new(k, 42);
        for rows in batches {
            let keys: Vec<BoundCol<'_>> = keyed
                .then(|| BoundCol::new(t.column("g").unwrap(), *rows))
                .into_iter()
                .collect();
            let payload = [
                (BoundCol::new(t.column("v").unwrap(), *rows), SlotKind::Int),
                (
                    BoundCol::new(t.column("w").unwrap(), *rows),
                    SlotKind::Float,
                ),
            ];
            let n = rows.map_or(t.num_rows(), |r| r.len());
            admission.admit(&keys, &payload, n);
        }
        admission.into_sample()
    }

    #[test]
    fn admission_routes_rows_to_strata() {
        let s = admit_batches(&table(), 8, true, &[None]);
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
        assert_eq!(admit_batches(&table(), 2, true, &[None]).total_items(), 10);
        // Each stratum has only 200 tuples < k ⇒ everything retained.
        assert_eq!(
            admit_batches(&table(), 500, true, &[None]).total_items(),
            1000
        );
    }

    #[test]
    fn batches_continue_one_reservoir_pass() {
        // Two selection-vector batches are the same Algorithm R stream as
        // one dense pass: identical strata, weights and tuples.
        let t = table();
        let first: Vec<u32> = (0..500).collect();
        let second: Vec<u32> = (500..1000).collect();
        let split = admit_batches(&t, 16, true, &[Some(&first), Some(&second)]);
        let whole = admit_batches(&t, 16, true, &[None]);
        assert_eq!(
            split.iter().collect::<Vec<_>>(),
            whole.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn keyless_admission_is_a_simple_reservoir() {
        let s = admit_batches(&table(), 32, false, &[None]);
        assert_eq!(s.num_strata(), 1);
        let (items, w) = s.stratum(&GroupKey::new(&[])).unwrap();
        assert_eq!(w, 1000);
        assert_eq!(items.len(), 32);
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
