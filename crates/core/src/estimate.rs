//! Aggregate estimation from stratified samples, with error bounds.
//!
//! Each stratum `{R, w}` retains `|R|` tuples representing `w` considered
//! tuples, so every retained tuple stands for `w / |R|` input tuples
//! (Horvitz–Thompson scaling). Estimates support *tightening* (paper
//! §5.2.1): a stricter predicate is applied to the sampled tuples
//! themselves, and the scaling keeps the estimator unbiased. Confidence
//! intervals are CLT-based with a finite-population correction; they are
//! the "approximation guarantees" the evaluation keeps intact while
//! accelerating sampling.
//!
//! Every estimate runs in two phases over the sample's strata in key
//! order (`Estimator::estimate`). *Gather* marks each stratum's matching
//! rows in one flat hit bitset — walking every row, or, once a sample's
//! tightened walks have cost about one build, reading the rows inside the
//! tightening off the sample's range index (`Sample::range_index`), so a
//! hit costs the rows it selects — and lays each stratum's key, matching
//! count and shape out in columns. *Fold* then takes one aggregate at a time: its input's
//! moments over every stratum's hit rows, each folded and finalized into
//! the answer. Both ways of marking set the same bits and the fold runs
//! the per-stratum estimator's expressions in the same order, so an
//! answer is the same bit for bit either way (DESIGN.md, "The estimator:
//! two phases and a range index").

use std::iter::{repeat, Map, Repeat, Zip};
use std::ops::Range;

use laqy_engine::{AggInput, AggKind, AggSpec, GroupKey};

use crate::descriptor::Predicates;
use crate::interval::{Interval, IntervalSet};
use crate::sampler_ops::{each_width, RangeIndex, Sample, SampleSchema, SlotKind};

/// Estimation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// An aggregate or predicate references a column absent from the
    /// sample payload.
    UnknownColumn(String),
    /// A tightening predicate references a float payload column; interval
    /// predicates are integer-valued.
    NonIntegerPredicate(String),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::UnknownColumn(c) => write!(f, "column `{c}` not in sample payload"),
            EstimateError::NonIntegerPredicate(c) => {
                write!(f, "tightening predicate on non-integer column `{c}`")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// One estimated aggregate value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggEstimate {
    /// Point estimate.
    pub value: f64,
    /// Half-width of the confidence interval (`NaN` for MIN/MAX, which are
    /// biased sample extrema).
    pub ci_half_width: f64,
    /// Sampled tuples contributing to this estimate.
    pub support: usize,
}

/// Every output group's estimates, in group-key order, in three flat
/// buffers: `key_width` key parts, `aggs` estimates and one matching-row
/// count a group. However many groups it holds, it is three allocations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Groups {
    key_width: usize,
    aggs: usize,
    keys: Vec<i64>,
    values: Vec<AggEstimate>,
    matching: Vec<usize>,
}

/// One group of [`Groups`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Group<'a> {
    /// Raw integer group-key parts (decode against source columns).
    pub key: &'a [i64],
    /// One estimate per requested aggregate.
    pub values: &'a [AggEstimate],
    /// Retained rows of the group's stratum that match the query.
    pub matching: usize,
}

impl Groups {
    /// No groups, with room for `groups` groups of `aggs` estimates each.
    pub fn with_capacity(groups: usize, aggs: usize) -> Self {
        Self {
            aggs,
            values: Vec::with_capacity(groups * aggs),
            matching: Vec::with_capacity(groups),
            ..Self::default()
        }
    }

    /// Append a group: its key, its `aggs` estimates and `mq`, its
    /// matching-row count. The first group fixes the key width.
    pub fn push(&mut self, key: &[i64], values: impl IntoIterator<Item = AggEstimate>, mq: usize) {
        self.push_key(key, mq);
        self.values.extend(values);
        let n = self.len();
        let whole = self.keys.len() == n * self.key_width && self.values.len() == n * self.aggs;
        assert!(
            whole,
            "every group has the answer's key width and `aggs` estimates"
        );
    }

    /// Append a group's key and matching-row count, its estimates to be
    /// written.
    fn push_key(&mut self, key: &[i64], mq: usize) {
        if self.is_empty() {
            self.key_width = key.len();
            self.keys.reserve(key.len() * self.matching.capacity());
        }
        self.keys.extend_from_slice(key);
        self.matching.push(mq);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.matching.len()
    }

    /// True if the answer has no group.
    pub fn is_empty(&self) -> bool {
        self.matching.is_empty()
    }

    /// The `i`-th group in key order; panics past the last.
    pub fn get(&self, i: usize) -> Group<'_> {
        let (kw, aggs) = (self.key_width, self.aggs);
        Group {
            key: &self.keys[i * kw..][..kw],
            values: &self.values[i * aggs..][..aggs],
            matching: self.matching[i],
        }
    }

    /// Every group's matching-row count, in key order.
    pub(crate) fn matching(&self) -> &[usize] {
        &self.matching
    }

    /// The groups in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Group<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every group's estimates, group after group.
    pub(crate) fn values_mut(&mut self) -> &mut [AggEstimate] {
        &mut self.values
    }
}

impl<'a> IntoIterator for &'a Groups {
    type Item = Group<'a>;
    // A closure's type cannot be named here; a function pointer's can.
    type IntoIter =
        Map<Zip<Repeat<&'a Groups>, Range<usize>>, fn((&'a Groups, usize)) -> Group<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        repeat(self)
            .zip(0..self.len())
            .map(|(groups, i)| groups.get(i))
    }
}

/// Normal quantile every confidence interval is drawn at (≈ 95 %).
const Z: f64 = 1.96;

/// Estimation parameters.
#[derive(Debug, Clone, Default)]
pub struct EstimateOptions<'a> {
    /// Stricter predicate applied to sampled tuples (tightening, §5.2.1).
    pub tighten: Option<&'a Predicates>,
}

/// Pre-resolved aggregate input: slot positions into the sample payload.
enum ResolvedInput {
    Col(usize, SlotKind),
    Mul((usize, SlotKind), (usize, SlotKind)),
    One,
}

fn resolve_slot(schema: &SampleSchema, col: &str) -> Result<(usize, SlotKind), EstimateError> {
    let slot = schema
        .slot(col)
        .ok_or_else(|| EstimateError::UnknownColumn(col.to_string()))?;
    Ok((slot, schema.kind(slot)))
}

fn resolve_input(schema: &SampleSchema, input: &AggInput) -> Result<ResolvedInput, EstimateError> {
    Ok(match input {
        AggInput::Col(c) => {
            let (s, k) = resolve_slot(schema, c)?;
            ResolvedInput::Col(s, k)
        }
        AggInput::Mul(a, b) => {
            ResolvedInput::Mul(resolve_slot(schema, a)?, resolve_slot(schema, b)?)
        }
        AggInput::None => ResolvedInput::One,
    })
}

/// Compiled tightening filter over payload slots.
enum Tighten {
    /// One column, one interval — a narrower query reusing a sample: two
    /// compares per tuple.
    Range { slot: usize, iv: Interval },
    /// Any other interval set on the range column.
    Set { slot: usize, set: IntervalSet },
}

impl Tighten {
    fn compile(schema: &SampleSchema, preds: &Predicates) -> Result<Self, EstimateError> {
        let (slot, kind) = resolve_slot(schema, &preds.column)?;
        if kind != SlotKind::Int {
            return Err(EstimateError::NonIntegerPredicate(preds.column.clone()));
        }
        Ok(match preds.set.intervals() {
            &[iv] => Tighten::Range { slot, iv },
            _ => Tighten::Set {
                slot,
                set: preds.set.clone(),
            },
        })
    }

    fn slot(&self) -> usize {
        match *self {
            Tighten::Range { slot, .. } | Tighten::Set { slot, .. } => slot,
        }
    }

    fn intervals(&self) -> &[Interval] {
        match self {
            Tighten::Range { iv, .. } => std::slice::from_ref(iv),
            Tighten::Set { set, .. } => set.intervals(),
        }
    }
}

/// Per-group, per-aggregate accumulation across strata. Strata are sampled
/// independently, so variances add.
#[derive(Clone, Copy)]
struct EstAcc {
    kind: AggKind,
    /// The running estimate of the total (SUM, COUNT, AVG's numerator) or
    /// the extremum so far (MIN, MAX).
    value: f64,
    var: f64,
    /// AVG's denominator: the estimated matching row count.
    n_est: f64,
    support: usize,
}

impl EstAcc {
    fn new(kind: AggKind) -> Self {
        let value = match kind {
            AggKind::Min => f64::INFINITY,
            AggKind::Max => f64::NEG_INFINITY,
            AggKind::Sum | AggKind::Count | AggKind::Avg => 0.0,
        };
        EstAcc {
            kind,
            value,
            var: 0.0,
            n_est: 0.0,
            support: 0,
        }
    }

    /// The per-stratum estimator: fold a stratum of `shape`, `mq` of
    /// whose retained tuples match the tightening, fed `mo`, the moments
    /// of this aggregate's input over them. A fresh accumulator adds to
    /// `+0.0`, which turns a `-0.0` term into `+0.0`.
    fn fold(&mut self, shape: &Shape, mq: usize, mo: &Moments) {
        let Shape { m, w, scale, fpc } = *shape;
        // Var(w·ȳ) = w² · s²_y / m · fpc, s²_y the sample variance of y
        // over all m items (non-matching are 0).
        let sum_var = || {
            let mean_y = mo.s1 / m;
            let var_y = if m > 1.0 {
                ((mo.s2 - m * mean_y * mean_y) / (m - 1.0)).max(0.0)
            } else {
                0.0
            };
            w * w * var_y / m * fpc
        };
        match self.kind {
            AggKind::Sum => {
                self.value += scale * mo.s1;
                self.var += sum_var();
            }
            AggKind::Count => {
                let p = mq as f64 / m;
                self.value += w * p;
                let var_p = if m > 1.0 {
                    p * (1.0 - p) * m / (m - 1.0)
                } else {
                    0.0
                };
                self.var += w * w * var_p / m * fpc;
            }
            AggKind::Avg => {
                self.value += scale * mo.s1;
                self.var += sum_var();
                self.n_est += w * mq as f64 / m;
            }
            AggKind::Min if mq > 0 => self.value = self.value.min(mo.lo),
            AggKind::Max if mq > 0 => self.value = self.value.max(mo.hi),
            AggKind::Min | AggKind::Max => {}
        }
        self.support += mq;
    }

    fn finalize(&self) -> AggEstimate {
        let half_width = Z * self.var.max(0.0).sqrt();
        let (value, ci_half_width) = match self.kind {
            AggKind::Sum | AggKind::Count => (self.value, half_width),
            // Ratio estimate sum/n; the CI scales the sum CI by 1/n.
            AggKind::Avg if self.n_est > 0.0 => (self.value / self.n_est, half_width / self.n_est),
            // Biased sample extrema: no interval.
            AggKind::Min | AggKind::Max if self.support > 0 => (self.value, f64::NAN),
            AggKind::Avg | AggKind::Min | AggKind::Max => (f64::NAN, f64::NAN),
        };
        AggEstimate {
            value,
            ci_half_width,
            support: self.support,
        }
    }
}

/// A stratum as every aggregate's fold reads it: `m > 0` retained of `w`
/// considered tuples, each standing for `scale = w / m`, and the
/// finite-population correction `fpc`.
#[derive(Clone, Copy)]
struct Shape {
    m: f64,
    w: f64,
    scale: f64,
    fpc: f64,
}

impl Shape {
    fn of(len: usize, weight: u64) -> Self {
        let m = len as f64;
        let w = weight as f64;
        Shape {
            m,
            w,
            scale: w / m,
            // The reservoir holds m of w tuples.
            fpc: (1.0 - m / w).max(0.0),
        }
    }
}

/// One aggregate input's sums over a stratum's matching tuples: sum, sum
/// of squares and extrema of the zero-extended variable `y_i` (`x_i` if
/// matching else 0).
#[derive(Clone, Copy)]
struct Moments {
    s1: f64,
    s2: f64,
    lo: f64,
    hi: f64,
}

impl Moments {
    /// Moments of the constant input `1` over `mq` matching tuples.
    fn ones(mq: usize) -> Self {
        Moments {
            s1: mq as f64,
            s2: mq as f64,
            lo: 1.0,
            hi: 1.0,
        }
    }

    /// Moments of `x(i)` over the rows `i` whose bit is set in `bits`, in
    /// row order. Bit for bit what a loop over *every* row that masks the
    /// non-matching ones to `y = 0` computes: the terms that loop adds for
    /// a non-matching tuple are `+0.0`, and neither sum can be `-0.0`
    /// (both start at `+0.0`), so skipping them is the identity.
    #[inline]
    fn over_bits(bits: &[u64], x: impl Fn(usize) -> f64) -> Self {
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let x = x(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
                s1 += x;
                s2 += x * x;
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        Moments { s1, s2, lo, hi }
    }

    /// Moments of `input` over each stratum's rows set in its bits (`mq`
    /// of them), pushed to `column` stratum after stratum. The slot kind
    /// is resolved outside the loop.
    fn column<'r, const W: usize>(
        column: &mut Vec<Moments>,
        input: &ResolvedInput,
        strata: impl Iterator<Item = (&'r [[i64; W]], &'r [u64], usize)>,
    ) {
        fn over<'r, const W: usize>(
            column: &mut Vec<Moments>,
            strata: impl Iterator<Item = (&'r [[i64; W]], &'r [u64], usize)>,
            x: impl Fn(&[i64; W]) -> f64,
        ) {
            column.extend(strata.map(|(rows, bits, _)| Moments::over_bits(bits, |i| x(&rows[i]))));
        }
        match *input {
            ResolvedInput::One => column.extend(strata.map(|(_, _, mq)| Moments::ones(mq))),
            ResolvedInput::Col(s, SlotKind::Int) => over(column, strata, |row| row[s] as f64),
            ResolvedInput::Col(s, SlotKind::Float) => {
                over(column, strata, |row| f64::from_bits(row[s] as u64))
            }
            ResolvedInput::Mul((a, ka), (b, kb)) => over(column, strata, |row| {
                ka.numeric(row[a]) * kb.numeric(row[b])
            }),
        }
    }
}

/// Append to `bits` the hit bitset of a stratum's `rows` under `tighten`
/// (bit `i` = row `i` matches), 64 rows a word, the last one zero-padded.
/// The walk: each word is packed from one 64-row chunk of the stratum.
fn hit_bits<const W: usize>(bits: &mut Vec<u64>, tighten: Option<&Tighten>, rows: &[[i64; W]]) {
    /// Row `j`'s bit lands at `j`: the chunk is walked last row first,
    /// each step shifting the word by one, so no row takes a shift by its
    /// own position.
    #[inline]
    fn pack<const W: usize>(chunk: &[[i64; W]], hit: impl Fn(&[i64; W]) -> bool) -> u64 {
        (chunk.iter().rev()).fold(0, |word, row| word << 1 | u64::from(hit(row)))
    }
    let chunks = rows.chunks(64);
    match tighten {
        None => bits.extend(chunks.map(|chunk| u64::MAX >> (64 - chunk.len()))),
        Some(&Tighten::Range { slot, iv }) => {
            assert!(slot < W, "tightening slot outside the row");
            // `lo ≤ v ≤ hi` as one unsigned compare (`lo ≤ hi` always).
            let span = iv.hi.wrapping_sub(iv.lo) as u64;
            let hit = |row: &[i64; W]| row[slot].wrapping_sub(iv.lo) as u64 <= span;
            bits.extend(chunks.map(|chunk| pack(chunk, hit)));
        }
        Some(Tighten::Set { slot, set }) => {
            bits.extend(chunks.map(|chunk| pack(chunk, |row| set.contains(row[*slot]))))
        }
    }
}

/// An estimate resolved against a schema up front — each aggregate's
/// input, the tightening filter, one fresh accumulator per aggregate —
/// ready to estimate from any sample of that schema's rows.
pub(crate) struct Estimator {
    inputs: Vec<ResolvedInput>,
    tighten: Option<Tighten>,
    fresh: Vec<EstAcc>,
}

impl Estimator {
    pub(crate) fn compile(
        schema: &SampleSchema,
        aggs: &[AggSpec],
        tighten: Option<&Predicates>,
    ) -> Result<Self, EstimateError> {
        Ok(Estimator {
            inputs: aggs
                .iter()
                .map(|a| resolve_input(schema, &a.input))
                .collect::<Result<_, _>>()?,
            tighten: tighten.map(|p| Tighten::compile(schema, p)).transpose()?,
            fresh: aggs.iter().map(|a| EstAcc::new(a.kind)).collect(),
        })
    }

    /// Estimate from `sample`, where it rests, its strata read in the
    /// group-key order it keeps. Output groups are the non-empty strata
    /// themselves (QCS = GROUP BY, every query template), written straight
    /// into the answer's flat buffers (no sort, no per-group allocation).
    pub(crate) fn estimate(&self, sample: &Sample) -> Groups {
        let order = sample.key_order();
        let index = (self.tighten.as_ref()).and_then(|t| Some((t, sample.range_index(t.slot())?)));
        each_width!(&sample.rows, s => {
            let strata = (order.iter().map(|&i| s.stratum_at(i as usize)))
                .filter(|(_, rows, _)| !rows.is_empty());
            let words = s.total_items() / 64 + order.len();
            self.fold(strata, index, (order.len(), words))
        })
    }

    /// The estimate over `strata` (`key`, `rows`, `weight`), at most
    /// `strata_bound` of them packing into at most `words_bound` words of
    /// hit bits, in two phases.
    ///
    /// **Gather**: the flat hit bitset of every stratum — stratum after
    /// stratum, `⌈rows/64⌉` words each — is read off the sample's range
    /// index when it has one for the tightening, else walked stratum by
    /// stratum in the one pass that sends each stratum's key and
    /// matching-row count to the answer, and its shape and hit rows to
    /// two columns.
    ///
    /// **Fold**: one aggregate at a time, its input's moments over every
    /// stratum's hit rows are gathered into a column, then each folded into
    /// a fresh accumulator and finalized into the answer.
    fn fold<'k, const W: usize>(
        &self,
        strata: impl Iterator<Item = (&'k GroupKey, &'k [[i64; W]], u64)>,
        index: Option<(&Tighten, &RangeIndex)>,
        (strata_bound, words_bound): (usize, usize),
    ) -> Groups {
        let mut bits = Vec::with_capacity(words_bound);
        if let Some((tighten, index)) = index {
            bits.resize(index.words(), 0);
            index.hit_bits(tighten.intervals(), &mut bits);
        }
        let aggs = self.fresh.len();
        let mut groups = Groups::with_capacity(strata_bound, aggs);
        let mut shapes = Vec::with_capacity(strata_bound);
        // Each stratum's rows and the range of its words in `bits`.
        let mut hits = Vec::with_capacity(strata_bound);
        let mut words = 0..0;
        for (key, rows, weight) in strata {
            words = words.end..words.end + rows.len().div_ceil(64);
            if index.is_none() {
                hit_bits(&mut bits, self.tighten.as_ref(), rows);
            }
            let mq = bits[words.clone()].iter().map(|w| w.count_ones() as usize);
            groups.push_key(key.parts(), mq.sum());
            shapes.push(Shape::of(rows.len(), weight));
            hits.push((rows, words.clone()));
        }

        let n = groups.len();
        groups.values.resize(n * aggs, AggEstimate::default());
        let mut moments = Vec::with_capacity(n);
        for (a, (input, fresh)) in self.inputs.iter().zip(&self.fresh).enumerate() {
            moments.clear();
            let hits = hits.iter().zip(&groups.matching);
            Moments::column(
                &mut moments,
                input,
                hits.map(|((rows, words), &mq)| (*rows, &bits[words.clone()], mq)),
            );
            for (i, (mo, shape)) in moments.iter().zip(&shapes).enumerate() {
                let mut acc = *fresh;
                acc.fold(shape, groups.matching[i], mo);
                groups.values[i * aggs + a] = acc.finalize();
            }
        }
        groups
    }
}

/// Estimate aggregates over a stratified sample. Groups come out in key
/// order; strata holding no tuples contribute nothing.
pub fn estimate(
    sample: &Sample,
    schema: &SampleSchema,
    aggs: &[AggSpec],
    opts: &EstimateOptions<'_>,
) -> Result<Groups, EstimateError> {
    Ok(Estimator::compile(schema, aggs, opts.tighten)?.estimate(sample))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler_ops::RANGE_INDEX_BUILD_WALKS;
    use laqy_engine::GroupKey;
    use laqy_sampling::Lehmer64;
    use proptest::prelude::*;

    fn schema() -> SampleSchema {
        SampleSchema::new(vec![
            ("x".into(), SlotKind::Int),
            ("v".into(), SlotKind::Float),
        ])
    }

    /// Full-population "sample": k large enough to retain everything, so
    /// estimates must be exact.
    fn full_sample(groups: i64, per: i64) -> Sample {
        let mut rng = Lehmer64::new(1);
        let mut s = Sample::new(&schema(), (per as usize) + 1);
        for g in 0..groups {
            for i in 0..per {
                let x = g * per + i;
                let tuple = [x, (x as f64 * 0.5).to_bits() as i64];
                s.offer(GroupKey::new(&[g]), &tuple, &mut rng);
            }
        }
        s
    }

    #[test]
    fn exact_when_sample_is_population() {
        let s = full_sample(3, 100);
        let ests = estimate(
            &s,
            &schema(),
            &[AggSpec::sum("v"), AggSpec::count(), AggSpec::avg("v")],
            &EstimateOptions::default(),
        )
        .unwrap();
        assert_eq!(ests.len(), 3);
        for e in &ests {
            let g = e.key[0];
            let exact_sum: f64 = (0..100).map(|i| (g * 100 + i) as f64 * 0.5).sum();
            assert!((e.values[0].value - exact_sum).abs() < 1e-9);
            assert_eq!(
                e.values[0].ci_half_width, 0.0,
                "population sample has no error"
            );
            assert_eq!(e.values[1].value, 100.0);
            assert!((e.values[2].value - exact_sum / 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tightening_restricts_rows_exactly_on_population() {
        let s = full_sample(2, 100);
        let tighten = Predicates::on("x", IntervalSet::of(Interval::new(0, 49)));
        let opts = EstimateOptions {
            tighten: Some(&tighten),
        };
        let ests = estimate(&s, &schema(), &[AggSpec::count()], &opts).unwrap();
        // Group 0 has x in 0..100 → 50 match; group 1 has x in 100..200 → 0.
        let g0 = ests.iter().find(|e| e.key[0] == 0).unwrap();
        assert_eq!(g0.values[0].value, 50.0);
        let g1 = ests.iter().find(|e| e.key[0] == 1).unwrap();
        assert_eq!(g1.values[0].value, 0.0);
        assert_eq!(g1.values[0].support, 0);
    }

    #[test]
    fn sampled_estimates_are_close_and_covered_by_ci() {
        // k = 200 of 10_000 per stratum; the CI should cover the truth in
        // the vast majority of seeds.
        let per = 10_000i64;
        let k = 200usize;
        let mut covered = 0;
        let trials = 50;
        for seed in 0..trials {
            let mut rng = Lehmer64::new(100 + seed);
            let mut s = Sample::new(&schema(), k);
            for i in 0..per {
                let tuple = [i, (i as f64).to_bits() as i64];
                s.offer(GroupKey::new(&[0]), &tuple, &mut rng);
            }
            let ests = estimate(
                &s,
                &schema(),
                &[AggSpec::sum("v")],
                &EstimateOptions::default(),
            )
            .unwrap();
            let est = &ests.get(0).values[0];
            let exact: f64 = (0..per).map(|i| i as f64).sum();
            if (est.value - exact).abs() <= est.ci_half_width {
                covered += 1;
            }
            // Point estimate should be in the right ballpark regardless.
            assert!((est.value - exact).abs() / exact < 0.25);
        }
        // 95% CI over 50 trials: expect ≥ 40 covered.
        assert!(covered >= 40, "CI coverage too low: {covered}/{trials}");
    }

    #[test]
    fn count_estimate_unbiased_under_sampling() {
        let per = 5_000i64;
        let mut total = 0.0;
        let trials = 40;
        for seed in 0..trials {
            let mut rng = Lehmer64::new(300 + seed);
            let mut s = Sample::new(&schema(), 100);
            for i in 0..per {
                s.offer(GroupKey::new(&[0]), &[i, 0], &mut rng);
            }
            let tighten = Predicates::on("x", IntervalSet::of(Interval::new(0, 999)));
            let opts = EstimateOptions {
                tighten: Some(&tighten),
            };
            let ests = estimate(&s, &schema(), &[AggSpec::count()], &opts).unwrap();
            total += ests.get(0).values[0].value;
        }
        let mean = total / trials as f64;
        assert!(
            (mean - 1000.0).abs() < 150.0,
            "mean count estimate {mean} should be near 1000"
        );
    }

    #[test]
    fn min_max_report_sample_extrema() {
        let s = full_sample(1, 50);
        let specs = [
            AggSpec {
                kind: AggKind::Min,
                input: AggInput::Col("x".into()),
            },
            AggSpec {
                kind: AggKind::Max,
                input: AggInput::Col("x".into()),
            },
        ];
        let ests = estimate(&s, &schema(), &specs, &EstimateOptions::default()).unwrap();
        assert_eq!(ests.get(0).values[0].value, 0.0);
        assert_eq!(ests.get(0).values[1].value, 49.0);
        assert!(ests.get(0).values[0].ci_half_width.is_nan());
    }

    #[test]
    fn errors_on_unknown_column() {
        let s = full_sample(1, 10);
        let err = estimate(
            &s,
            &schema(),
            &[AggSpec::sum("missing")],
            &EstimateOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, EstimateError::UnknownColumn("missing".into()));
    }

    #[test]
    fn errors_on_float_predicate() {
        let s = full_sample(1, 10);
        let tighten = Predicates::on("v", IntervalSet::of(Interval::new(0, 1)));
        let opts = EstimateOptions {
            tighten: Some(&tighten),
        };
        let err = estimate(&s, &schema(), &[AggSpec::count()], &opts).unwrap_err();
        assert_eq!(err, EstimateError::NonIntegerPredicate("v".into()));
    }

    /// A random sample over `(g, h)` strata: some strata full (weight ≫ k),
    /// some complete populations.
    fn random_sample(k: usize, g: i64, h: i64, per: i64, seed: u64) -> Sample {
        let mut rng = Lehmer64::new(seed);
        let mut s = Sample::new(&schema(), k);
        for _ in 0..g * h * per {
            let x = rng.next_below(1_000) as i64;
            let v = (rng.next_below(10_000) as f64 / 7.0).to_bits() as i64;
            // Skewed routing: low strata see many more tuples.
            let stratum = (rng.next_below((g * h) as u64) * rng.next_below(3) / 2) as i64;
            s.offer(
                GroupKey::new(&[stratum / h, stratum % h]),
                &[x, v],
                &mut rng,
            );
        }
        s
    }

    fn all_aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::sum("v"),
            AggSpec::count(),
            AggSpec {
                kind: AggKind::Min,
                input: AggInput::Col("x".into()),
            },
            AggSpec {
                kind: AggKind::Max,
                input: AggInput::Col("v".into()),
            },
            AggSpec::avg("v"),
            AggSpec::sum_product("x", "v"),
        ]
    }

    /// `cuts` as a tightening on `x`: none for no cuts, one interval for
    /// 1–2, several beyond.
    fn tightening(mut cuts: Vec<i64>) -> Option<Predicates> {
        cuts.sort_unstable();
        cuts.dedup();
        let set = IntervalSet::from_intervals(
            cuts.chunks(2)
                .map(|c| Interval::new(c[0], *c.last().unwrap()))
                .collect(),
        );
        (!cuts.is_empty()).then(|| Predicates::on("x", set))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A group's matching rows are counted once, whatever the query
        /// aggregates: a no-aggregate estimate's groups carry the rows of
        /// each non-empty stratum that match the tightening (counted here
        /// row by row), every aggregate of a full estimate reports them as
        /// its support, and both answers classify alike.
        #[test]
        fn support_check_counts_what_the_estimate_counts(
            k in 1usize..40,
            g in 1i64..5,
            h in 1i64..5,
            per in 1i64..30,
            seed in 0u64..10_000,
            cuts in prop::collection::vec(0i64..1_000, 0..5),
            min_rows in 1usize..12,
        ) {
            let sample = random_sample(k, g, h, per, seed);
            let tighten = tightening(cuts);
            let hit = |x: i64| tighten.as_ref().is_none_or(|t| t.get("x").unwrap().contains(x));
            let mut counted: Vec<(Vec<i64>, usize)> = sample
                .iter()
                .filter(|(_, rows, _)| !rows.is_empty())
                .map(|(key, rows, _)| (key.parts().to_vec(), rows.iter().filter(|r| hit(r[0])).count()))
                .collect();
            counted.sort_unstable();
            let opts = EstimateOptions { tighten: tighten.as_ref() };
            let bare = estimate(&sample, &schema(), &[], &opts).unwrap();
            let full = estimate(&sample, &schema(), &all_aggs(), &opts).unwrap();
            let matching = |groups: &Groups| groups.iter().map(|g| (g.key.to_vec(), g.matching)).collect::<Vec<_>>();
            prop_assert_eq!(matching(&bare), counted.clone());
            prop_assert_eq!(matching(&full), counted);
            prop_assert!(full.iter().all(|g| g.values.iter().all(|v| v.support == g.matching)));
            let policy = crate::SupportPolicy { min_rows_per_stratum: min_rows, ..Default::default() };
            let report = |groups| crate::executor::support_from_groups(groups, &policy);
            prop_assert_eq!(report(&bare), report(&full));
        }
    }

    /// FNV-1a over every group's key, and every aggregate's value and
    /// half-width bit patterns and support.
    fn digest(groups: &Groups) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for g in groups {
            g.key.iter().for_each(|&part| eat(part as u64));
            for a in g.values {
                eat(a.value.to_bits());
                eat(a.ci_half_width.to_bits());
                eat(a.support as u64);
            }
        }
        h
    }

    /// `estimate()` over three seeded samples (12 strata of k = 5 and of
    /// k = 32, all sampled; 4 complete populations) for no / `Range` /
    /// `Sets` tightening, all five kinds over `Col`, `Mul` and `None`
    /// inputs: one digest per (sample, tightening), as computed at the
    /// commit before the estimator became one walk (4b70d7e) — every answer
    /// bit is pinned to the three paths it replaced.
    #[test]
    fn answers_are_bit_identical_to_the_three_path_estimator() {
        let kinds = [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ];
        let inputs = [
            AggInput::Col("x".into()),
            AggInput::Col("v".into()),
            AggInput::None,
            AggInput::Mul("x".into(), "v".into()),
        ];
        let aggs: Vec<AggSpec> = kinds
            .iter()
            .flat_map(|&kind| {
                inputs.iter().map(move |input| AggSpec {
                    kind,
                    input: input.clone(),
                })
            })
            .collect();
        let tightenings = [
            None,
            Some(Predicates::on(
                "x",
                IntervalSet::of(Interval::new(100, 449)),
            )),
            Some(Predicates::on(
                "x",
                IntervalSet::from_intervals(vec![
                    Interval::new(0, 99),
                    Interval::new(300, 520),
                    Interval::new(900, 999),
                ]),
            )),
        ];
        let samples = [
            random_sample(5, 4, 3, 40, 11),
            random_sample(32, 3, 4, 120, 12),
            random_sample(70, 2, 2, 30, 13),
        ];
        let digests = |samples: &[Sample]| {
            let mut digests = Vec::new();
            for sample in samples {
                for tighten in &tightenings {
                    let opts = EstimateOptions {
                        tighten: tighten.as_ref(),
                    };
                    digests.push(digest(&estimate(sample, &schema(), &aggs, &opts).unwrap()));
                }
            }
            digests
        };
        let at_the_parent: [u64; 9] = [
            0x9d3015647aeffe7d,
            0x423cc61a41a4ce77,
            0xc086210966a579cf,
            0x156550f02530b454,
            0x4be49304f7da6ad2,
            0x2c4c036269fde1ec,
            0x709428f0a5fb357e,
            0x06750f0248381071,
            0x0b977ebe980002f6,
        ];
        assert_eq!(digests(&samples), at_the_parent);
        // Every tightened answer again, its hits read off a range index.
        let indexed = samples.map(|sample| sample.indexed(0));
        assert_eq!(digests(&indexed), at_the_parent);
        assert!(indexed.iter().all(|s| s.range_index_bytes().is_some()));
    }

    /// The flat hit bitset of `sample` under `tighten` in key order, as
    /// the walk packs it and as its range index sets it.
    fn walked_and_indexed_bits(sample: &Sample, tighten: &Tighten) -> (Vec<u64>, Vec<u64>) {
        let order = sample.key_order();
        let mut walked = Vec::new();
        each_width!(&sample.rows, s => for &i in order.iter() {
            hit_bits(&mut walked, Some(tighten), s.stratum_at(i as usize).1);
        });
        let index = sample.range_index(tighten.slot()).expect("indexed");
        let mut indexed = vec![0; walked.len()];
        index.hit_bits(tighten.intervals(), &mut indexed);
        (walked, indexed)
    }

    /// A value of `x`: mostly small, sometimes an extreme of `i64`.
    fn x_value() -> impl Strategy<Value = i64> {
        (0u8..12, -60i64..60).prop_map(|(pick, x)| match pick {
            0 => i64::MIN,
            1 => i64::MIN + 1,
            2 => i64::MAX - 1,
            3 => i64::MAX,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The range index is the walk: for random samples (`k` up to 130,
        /// so a stratum spans several words; empty strata among them) and
        /// any tightening — one interval or several, bounds at the extremes
        /// of `i64` — the bits it sets are the bits the walk packs.
        #[test]
        fn the_range_index_sets_the_bits_the_walk_packs(
            k in 1usize..131,
            offers in prop::collection::vec((0i64..12, x_value()), 0..600),
            empty in prop::collection::vec(0i64..20, 0..4),
            cuts in prop::collection::vec(x_value(), 1..7),
            seed in 0u64..1_000,
        ) {
            let mut rng = Lehmer64::new(seed);
            let mut sample = Sample::new(&schema(), k);
            for &(g, x) in &offers {
                sample.offer(GroupKey::new(&[g]), &[x, 0], &mut rng);
            }
            for &g in &empty {
                sample.insert_rows(GroupKey::new(&[g + 100]), &[], 3);
            }
            let sample = sample.indexed(0);
            let tighten = Tighten::compile(&schema(), &tightening(cuts).unwrap()).unwrap();
            let (walked, indexed) = walked_and_indexed_bits(&sample, &tighten);
            prop_assert_eq!(walked, indexed);
        }
    }

    /// Rent or buy: a sample's tightened estimates walk it until their
    /// rows add up to [`RANGE_INDEX_BUILD_WALKS`] walks, the next one
    /// builds its range index, and estimates with no tightening count
    /// nothing toward it.
    #[test]
    fn the_range_index_is_built_once_the_walks_cost_a_build() {
        let sample = random_sample(32, 3, 4, 120, 12);
        let rows = sample.total_items() as u64;
        let narrow = Predicates::on("x", IntervalSet::of(Interval::new(100, 449)));
        let tightened = EstimateOptions {
            tighten: Some(&narrow),
        };
        let untightened = EstimateOptions::default();
        let run = |opts| digest(&estimate(&sample, &schema(), &all_aggs(), opts).unwrap());
        let walked = run(&tightened);
        for walks in 2..RANGE_INDEX_BUILD_WALKS {
            run(&untightened);
            assert_eq!(run(&tightened), walked);
            assert_eq!(sample.rows_walked(), walks * rows);
            assert_eq!(sample.range_index_bytes(), None);
        }
        assert_eq!(run(&tightened), walked);
        assert_eq!(
            sample.range_index_bytes(),
            Some(rows as usize * 12 + sample.num_strata() * 4)
        );
        assert_eq!(run(&tightened), walked);
        assert_eq!(sample.rows_walked(), RANGE_INDEX_BUILD_WALKS * rows);
    }

    #[test]
    fn sum_of_product_input() {
        let s = full_sample(1, 10);
        let ests = estimate(
            &s,
            &schema(),
            &[AggSpec::sum_product("x", "v")],
            &EstimateOptions::default(),
        )
        .unwrap();
        let exact: f64 = (0..10).map(|i| i as f64 * (i as f64 * 0.5)).sum();
        assert!((ests.get(0).values[0].value - exact).abs() < 1e-9);
    }
}
