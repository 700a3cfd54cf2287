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

use std::ops::Range;

use laqy_engine::{AggInput, AggKind, AggSpec, GroupKey};

use crate::descriptor::Predicates;
use crate::interval::IntervalSet;
use crate::sampler_ops::{Sample, SampleSchema, SampleTuple, SlotKind};

/// Estimation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// An aggregate or predicate references a column absent from the
    /// sample payload.
    UnknownColumn(String),
    /// A tightening predicate references a float payload column; interval
    /// predicates are integer-valued.
    NonIntegerPredicate(String),
    /// A grouping position exceeds the stratification key width.
    BadGroupPosition(usize),
    /// Exact lane mass cannot blend into a product-input aggregate (the
    /// lanes hold per-column sums, not per-row products); callers must not
    /// enable hybrid estimation for `SUM(a*b)` plans.
    ExactProductInput,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::UnknownColumn(c) => write!(f, "column `{c}` not in sample payload"),
            EstimateError::NonIntegerPredicate(c) => {
                write!(f, "tightening predicate on non-integer column `{c}`")
            }
            EstimateError::BadGroupPosition(p) => write!(f, "group position {p} out of range"),
            EstimateError::ExactProductInput => {
                write!(
                    f,
                    "exact lane mass cannot blend into a product-input aggregate"
                )
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// One estimated aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct AggEstimate {
    /// Point estimate.
    pub value: f64,
    /// Half-width of the confidence interval (`NaN` for MIN/MAX, which are
    /// biased sample extrema).
    pub ci_half_width: f64,
    /// Sampled tuples contributing to this estimate.
    pub support: usize,
}

/// Estimates for one output group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEstimate {
    /// Raw integer group-key parts (decode against source columns).
    pub key: Vec<i64>,
    /// One estimate per requested aggregate.
    pub values: Vec<AggEstimate>,
}

/// Estimation parameters.
#[derive(Debug, Clone)]
pub struct EstimateOptions<'a> {
    /// Stricter predicate applied to sampled tuples (tightening, §5.2.1).
    pub tighten: Option<&'a Predicates>,
    /// Positions within the stratification key that form the output group;
    /// `None` groups by the full key.
    pub group_positions: Option<&'a [usize]>,
    /// Normal quantile for the confidence interval (1.96 ≈ 95 %).
    pub z: f64,
    /// Exact aggregate mass from lane-covered spans, blended in with zero
    /// variance (hybrid estimation). The sample must *exclude* the covered
    /// rows, or they would be double counted. Already predicate-restricted
    /// by construction, so tightening does not apply to it.
    pub exact: Option<&'a ExactMass>,
}

impl Default for EstimateOptions<'_> {
    fn default() -> Self {
        Self {
            tighten: None,
            group_positions: None,
            z: 1.96,
            exact: None,
        }
    }
}

/// Per-payload-slot exact aggregates of one group's covered rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactSlot {
    /// Sum of the slot's column over the covered rows.
    pub sum: f64,
    /// Minimum over the covered rows.
    pub min: f64,
    /// Maximum over the covered rows.
    pub max: f64,
}

/// One group's exact covered mass.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactGroup {
    /// Covered row count (exact COUNT contribution).
    pub rows: u64,
    /// One aggregate triple per sample payload slot, in slot order.
    pub slots: Vec<ExactSlot>,
}

/// Exact, scan-free aggregate mass read from pre-aggregate lanes over
/// predicate-covered, group-constant block spans. Keys live in the same
/// raw-`i64` space as [`GroupEstimate::key`] (the stratification key).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExactMass {
    groups: Vec<(Vec<i64>, ExactGroup)>,
}

impl ExactMass {
    /// Empty mass (contributes nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any covered rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|(_, g)| g.rows == 0)
    }

    /// Total covered rows across all groups.
    pub fn rows(&self) -> u64 {
        self.groups.iter().map(|(_, g)| g.rows).sum()
    }

    /// Fold one covered span's aggregates into the group keyed by `key`.
    /// Slot vectors must agree in length across calls for the same key.
    pub fn add(&mut self, key: &[i64], rows: u64, slots: Vec<ExactSlot>) {
        if rows == 0 {
            return;
        }
        match self.groups.iter_mut().find(|(k, _)| k == key) {
            Some((_, g)) => {
                debug_assert_eq!(g.slots.len(), slots.len());
                g.rows += rows;
                for (acc, s) in g.slots.iter_mut().zip(&slots) {
                    acc.sum += s.sum;
                    acc.min = acc.min.min(s.min);
                    acc.max = acc.max.max(s.max);
                }
            }
            None => self.groups.push((key.to_vec(), ExactGroup { rows, slots })),
        }
    }

    /// Fold another mass into this one (fragments accumulate).
    pub fn merge(&mut self, other: &ExactMass) {
        for (key, g) in &other.groups {
            self.add(key, g.rows, g.slots.clone());
        }
    }

    /// Iterate over `(key, group)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[i64], &ExactGroup)> {
        self.groups.iter().map(|(k, g)| (k.as_slice(), g))
    }
}

/// Pre-resolved aggregate input: slot positions into the sample payload.
enum ResolvedInput {
    Col(usize, SlotKind),
    Mul((usize, SlotKind), (usize, SlotKind)),
    One,
}

impl ResolvedInput {
    #[inline]
    fn eval(&self, t: &SampleTuple) -> f64 {
        match self {
            ResolvedInput::Col(s, k) => t.numeric(*s, *k),
            ResolvedInput::Mul((a, ka), (b, kb)) => t.numeric(*a, *ka) * t.numeric(*b, *kb),
            ResolvedInput::One => 1.0,
        }
    }
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
    Range { slot: usize, lo: i64, hi: i64 },
    /// Any conjunction of per-column interval sets.
    Sets(Vec<(usize, IntervalSet)>),
}

impl Tighten {
    fn compile(schema: &SampleSchema, preds: &Predicates) -> Result<Self, EstimateError> {
        let mut checks = Vec::new();
        for col in preds.columns() {
            let (slot, kind) = resolve_slot(schema, col)?;
            if kind != SlotKind::Int {
                return Err(EstimateError::NonIntegerPredicate(col.to_string()));
            }
            checks.push((slot, preds.get(col).unwrap().clone()));
        }
        if let [(slot, set)] = checks.as_slice() {
            if let [iv] = set.intervals() {
                return Ok(Tighten::Range {
                    slot: *slot,
                    lo: iv.lo,
                    hi: iv.hi,
                });
            }
        }
        Ok(Tighten::Sets(checks))
    }
}

/// Per-group, per-aggregate accumulation across strata. Strata are sampled
/// independently, so variances add.
#[derive(Clone, Copy)]
enum EstAcc {
    Sum {
        est: f64,
        var: f64,
        support: usize,
    },
    Count {
        est: f64,
        var: f64,
        support: usize,
    },
    Avg {
        sum: f64,
        var: f64,
        n_est: f64,
        support: usize,
    },
    Min {
        val: f64,
        support: usize,
    },
    Max {
        val: f64,
        support: usize,
    },
}

impl EstAcc {
    fn new(kind: AggKind) -> Self {
        match kind {
            AggKind::Sum => EstAcc::Sum {
                est: 0.0,
                var: 0.0,
                support: 0,
            },
            AggKind::Count => EstAcc::Count {
                est: 0.0,
                var: 0.0,
                support: 0,
            },
            AggKind::Avg => EstAcc::Avg {
                sum: 0.0,
                var: 0.0,
                n_est: 0.0,
                support: 0,
            },
            AggKind::Min => EstAcc::Min {
                val: f64::INFINITY,
                support: 0,
            },
            AggKind::Max => EstAcc::Max {
                val: f64::NEG_INFINITY,
                support: 0,
            },
        }
    }

    fn finalize(&self, z: f64) -> AggEstimate {
        match self {
            EstAcc::Sum { est, var, support } | EstAcc::Count { est, var, support } => {
                AggEstimate {
                    value: *est,
                    ci_half_width: z * var.max(0.0).sqrt(),
                    support: *support,
                }
            }
            EstAcc::Avg {
                sum,
                var,
                n_est,
                support,
            } => {
                // Ratio estimate sum/n; the CI scales the sum CI by 1/n.
                let value = if *n_est > 0.0 { sum / n_est } else { f64::NAN };
                let ci = if *n_est > 0.0 {
                    z * var.max(0.0).sqrt() / n_est
                } else {
                    f64::NAN
                };
                AggEstimate {
                    value,
                    ci_half_width: ci,
                    support: *support,
                }
            }
            EstAcc::Min { val, support } => AggEstimate {
                value: if *support == 0 { f64::NAN } else { *val },
                ci_half_width: f64::NAN,
                support: *support,
            },
            EstAcc::Max { val, support } => AggEstimate {
                value: if *support == 0 { f64::NAN } else { *val },
                ci_half_width: f64::NAN,
                support: *support,
            },
        }
    }
}

/// One aggregate input's sums over a stratum's matching tuples: sum, sum
/// of squares and extrema of the zero-extended variable `y_i` (`x_i` if
/// matching else 0).
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

    /// Moments of `x` over `items`, of which those flagged in `hits`
    /// match. A tightened sample matches unpredictably, so non-matching
    /// tuples are masked (selects), not branched around.
    #[inline]
    fn of(items: &[SampleTuple], hits: &[bool], x: impl Fn(&SampleTuple) -> f64) -> Self {
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (t, &hit) in items.iter().zip(hits) {
            let x = x(t);
            let y = if hit { x } else { 0.0 };
            s1 += y;
            s2 += y * y;
            lo = if hit { lo.min(x) } else { lo };
            hi = if hit { hi.max(x) } else { hi };
        }
        Moments { s1, s2, lo, hi }
    }

    /// Moments of `x(i)` over the rows `i` whose bit is set in `bits`, in
    /// row order. Bit for bit what [`Moments::of`] computes over the same
    /// rows: the terms it adds for a non-matching tuple are `+0.0`, and
    /// neither sum can be `-0.0` (both start at `+0.0`), so skipping them
    /// is the identity.
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
}

impl ResolvedInput {
    /// Moments over `items`, of which the `mq` flagged in `hits` match.
    /// The slot kind is resolved outside the tuple loop.
    fn moments(&self, items: &[SampleTuple], hits: &[bool], mq: usize) -> Moments {
        match *self {
            ResolvedInput::One => Moments::ones(mq),
            ResolvedInput::Col(s, SlotKind::Int) => Moments::of(items, hits, |t| t.int(s) as f64),
            ResolvedInput::Col(s, SlotKind::Float) => Moments::of(items, hits, |t| t.float(s)),
            ResolvedInput::Mul(..) => Moments::of(items, hits, |t| self.eval(t)),
        }
    }
}

/// Fold stratum `{items, weight}` (`items` non-empty) into `accs`. The
/// tightening filter runs once per tuple (into the `hits` scratch), not
/// once per aggregate, and no tuple is copied.
fn fold_tuples(
    accs: &mut [EstAcc],
    hits: &mut Vec<bool>,
    inputs: &[ResolvedInput],
    tighten: Option<&Tighten>,
    items: &[SampleTuple],
    weight: u64,
) {
    hits.clear();
    match tighten {
        None => hits.resize(items.len(), true),
        Some(Tighten::Range { slot, lo, hi }) => {
            hits.extend(items.iter().map(|t| (*lo..=*hi).contains(&t.int(*slot))))
        }
        Some(Tighten::Sets(checks)) => hits.extend(
            items
                .iter()
                .map(|t| checks.iter().all(|(slot, set)| set.contains(t.int(*slot)))),
        ),
    }
    let mq = hits.iter().filter(|&&hit| hit).count();
    fold_stratum(accs, inputs, items.len(), weight, mq, |input| {
        input.moments(items, hits, mq)
    });
}

/// The per-stratum estimator: fold a stratum of `len > 0` retained tuples
/// standing for `weight` considered ones, `mq` of which match the
/// tightening, into `accs` — one accumulator per aggregate, each fed the
/// `moments` of its input over the matching tuples. Where those moments
/// come from (sample tuples, an at-rest image) is the caller's business.
fn fold_stratum(
    accs: &mut [EstAcc],
    inputs: &[ResolvedInput],
    len: usize,
    weight: u64,
    mq: usize,
    moments: impl Fn(&ResolvedInput) -> Moments,
) {
    let m = len as f64;
    let w = weight as f64;
    let scale = w / m;
    // Finite-population correction: the reservoir holds m of w tuples.
    let fpc = (1.0 - m / w).max(0.0);
    for (acc, input) in accs.iter_mut().zip(inputs) {
        let mo = moments(input);
        let mean_y = mo.s1 / m;
        // Sample variance of y over all m items (non-matching are 0).
        let var_y = if m > 1.0 {
            ((mo.s2 - m * mean_y * mean_y) / (m - 1.0)).max(0.0)
        } else {
            0.0
        };
        let sum_est = scale * mo.s1;
        // Var(w·ȳ) = w² · s²_y / m · fpc
        let sum_var = w * w * var_y / m * fpc;
        match acc {
            EstAcc::Sum { est, var, support } => {
                *est += sum_est;
                *var += sum_var;
                *support += mq;
            }
            EstAcc::Count { est, var, support } => {
                let p = mq as f64 / m;
                *est += w * p;
                let var_p = if m > 1.0 {
                    p * (1.0 - p) * m / (m - 1.0)
                } else {
                    0.0
                };
                *var += w * w * var_p / m * fpc;
                *support += mq;
            }
            EstAcc::Avg {
                sum,
                var,
                n_est,
                support,
            } => {
                *sum += sum_est;
                *var += sum_var;
                *n_est += w * mq as f64 / m;
                *support += mq;
            }
            EstAcc::Min { val, support } => {
                if mq > 0 {
                    *val = val.min(mo.lo);
                    *support += mq;
                }
            }
            EstAcc::Max { val, support } => {
                if mq > 0 {
                    *val = val.max(mo.hi);
                    *support += mq;
                }
            }
        }
    }
}

/// Project a stratification key onto the output group key.
fn project(parts: &[i64], positions: Option<&[usize]>) -> Result<Vec<i64>, EstimateError> {
    match positions {
        None => Ok(parts.to_vec()),
        Some(positions) => positions
            .iter()
            .map(|&p| {
                parts
                    .get(p)
                    .copied()
                    .ok_or(EstimateError::BadGroupPosition(p))
            })
            .collect(),
    }
}

/// Indices of `strata` (`(key, items, weight)` triples) in group-key
/// order. The sort compares the first key part inline and the rest only
/// on ties.
fn key_order(strata: &[(&GroupKey, &[SampleTuple], u64)]) -> impl Iterator<Item = usize> {
    let mut order: Vec<(i64, u32)> = strata
        .iter()
        .enumerate()
        .map(|(i, (key, _, _))| (key.parts().first().copied().unwrap_or(0), i as u32))
        .collect();
    order.sort_unstable_by(|a, b| {
        let parts = |i: u32| strata[i as usize].0.parts();
        a.0.cmp(&b.0).then_with(|| parts(a.1).cmp(parts(b.1)))
    });
    order.into_iter().map(|(_, i)| i as usize)
}

/// What both estimate paths resolve against the schema up front: each
/// aggregate's input, the tightening filter, and one fresh accumulator
/// per aggregate.
type Compiled = (Vec<ResolvedInput>, Option<Tighten>, Vec<EstAcc>);

fn compile(
    schema: &SampleSchema,
    aggs: &[AggSpec],
    tighten: Option<&Predicates>,
) -> Result<Compiled, EstimateError> {
    let inputs = aggs
        .iter()
        .map(|a| resolve_input(schema, &a.input))
        .collect::<Result<_, _>>()?;
    let tighten = tighten.map(|p| Tighten::compile(schema, p)).transpose()?;
    let fresh = aggs.iter().map(|a| EstAcc::new(a.kind)).collect();
    Ok((inputs, tighten, fresh))
}

/// Estimate aggregates over a stratified sample. Groups come out in key
/// order; strata holding no tuples contribute nothing.
pub fn estimate(
    sample: &Sample,
    schema: &SampleSchema,
    aggs: &[AggSpec],
    opts: &EstimateOptions<'_>,
) -> Result<Vec<GroupEstimate>, EstimateError> {
    let (inputs, tighten, fresh) = compile(schema, aggs, opts.tighten)?;
    let mut hits = Vec::new();
    let strata = sample.iter().filter(|(_, items, _)| !items.is_empty());

    if opts.group_positions.is_none() && opts.exact.is_none() {
        // Output groups are the strata themselves (QCS = GROUP BY, every
        // query template): one linear pass, no regrouping.
        // Strata are folded in arena order (sequential reads) and
        // emitted in key order.
        let strata: Vec<_> = strata.collect();
        let mut accs = fresh.clone();
        let mut groups: Vec<Option<GroupEstimate>> = strata
            .iter()
            .map(|&(key, items, weight)| {
                accs.copy_from_slice(&fresh);
                fold_tuples(
                    &mut accs,
                    &mut hits,
                    &inputs,
                    tighten.as_ref(),
                    items,
                    weight,
                );
                Some(GroupEstimate {
                    key: key.parts().to_vec(),
                    values: accs.iter().map(|a| a.finalize(opts.z)).collect(),
                })
            })
            .collect();
        return Ok(key_order(&strata)
            .filter_map(|i| groups[i].take())
            .collect());
    }

    let mut groups: laqy_engine::FxHashMap<Vec<i64>, Vec<EstAcc>> =
        laqy_engine::FxHashMap::default();
    for (key, items, weight) in strata {
        let accs = groups
            .entry(project(key.parts(), opts.group_positions)?)
            .or_insert_with(|| fresh.clone());
        fold_tuples(accs, &mut hits, &inputs, tighten.as_ref(), items, weight);
    }

    // Hybrid blending: covered spans contribute exact partial aggregates
    // with zero variance. COUNT mass is the covered row count; SUM/AVG/
    // MIN/MAX mass is read from the per-slot lane aggregates. Groups that
    // exist only in the covered region are created here (their estimates
    // are fully exact).
    if let Some(exact) = opts.exact {
        for (key, mass) in exact.iter() {
            if mass.rows == 0 {
                continue;
            }
            let accs = groups
                .entry(project(key, opts.group_positions)?)
                .or_insert_with(|| fresh.clone());
            for (agg_idx, acc) in accs.iter_mut().enumerate() {
                let (x_sum, x_min, x_max) = match &inputs[agg_idx] {
                    ResolvedInput::Col(s, _) => {
                        let slot = mass
                            .slots
                            .get(*s)
                            .copied()
                            .ok_or(EstimateError::BadGroupPosition(*s))?;
                        (slot.sum, slot.min, slot.max)
                    }
                    ResolvedInput::One => (mass.rows as f64, 1.0, 1.0),
                    ResolvedInput::Mul(..) => return Err(EstimateError::ExactProductInput),
                };
                let rows = mass.rows as usize;
                match acc {
                    EstAcc::Sum { est, support, .. } => {
                        *est += x_sum;
                        *support += rows;
                    }
                    EstAcc::Count { est, support, .. } => {
                        *est += mass.rows as f64;
                        *support += rows;
                    }
                    EstAcc::Avg {
                        sum,
                        n_est,
                        support,
                        ..
                    } => {
                        *sum += x_sum;
                        *n_est += mass.rows as f64;
                        *support += rows;
                    }
                    EstAcc::Min { val, support } => {
                        *val = val.min(x_min);
                        *support += rows;
                    }
                    EstAcc::Max { val, support } => {
                        *val = val.max(x_max);
                        *support += rows;
                    }
                }
            }
        }
    }

    let mut out: Vec<GroupEstimate> = groups
        .into_iter()
        .map(|(key, accs)| GroupEstimate {
            key,
            values: accs.iter().map(|a| a.finalize(opts.z)).collect(),
        })
        .collect();
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

/// One stratum of a [`SampleImage`]: its rows of every packed column.
struct ImageStratum {
    key: GroupKey,
    weight: u64,
    rows: Range<usize>,
}

/// The at-rest image of a sample: what a full hit reads instead of the
/// tuple arena. Non-empty strata laid out in group-key order (a hit emits
/// groups as it folds them), and one packed `i64` column per slot the
/// schema has — not [`MAX_SAMPLE_COLS`](crate::MAX_SAMPLE_COLS) — with a
/// stratum's tuples kept in arena order, so folding the matching ones in
/// row order adds the same terms in the same order as [`estimate`] and
/// every answer is bit-identical to it. Derived and never persisted: the
/// store builds it on the first full hit after a write and drops it on
/// the next write (DESIGN.md, "At-rest image").
pub struct SampleImage {
    strata: Vec<ImageStratum>,
    cols: Vec<Vec<i64>>,
    /// `(num_strata, total_items, total_weight)` of the sample this was
    /// built from: a stale image is a bug, and this makes it a loud one.
    built_from: (usize, usize, u64),
}

impl SampleImage {
    /// Lay out `sample`, whose tuples carry `schema`'s slots: one pass
    /// over the arena, strata visited in key order.
    pub fn build(sample: &Sample, schema: &SampleSchema) -> Self {
        let strata: Vec<_> = sample
            .iter()
            .filter(|(_, items, _)| !items.is_empty())
            .collect();
        let items: usize = strata.iter().map(|(_, items, _)| items.len()).sum();
        let mut image = SampleImage {
            strata: Vec::with_capacity(strata.len()),
            cols: (0..schema.len())
                .map(|_| Vec::with_capacity(items))
                .collect(),
            built_from: Self::identity(sample),
        };
        let mut offset = 0;
        for i in key_order(&strata) {
            let (key, items, weight) = strata[i];
            image.strata.push(ImageStratum {
                key: *key,
                weight,
                rows: offset..offset + items.len(),
            });
            offset += items.len();
            for (slot, col) in image.cols.iter_mut().enumerate() {
                col.extend(items.iter().map(|t| t.int(slot)));
            }
        }
        image
    }

    fn identity(sample: &Sample) -> (usize, usize, u64) {
        (
            sample.num_strata(),
            sample.total_items(),
            sample.total_weight(),
        )
    }

    /// Whether this image was built from a sample with `sample`'s strata,
    /// item and weight totals — every write to a sample moves at least
    /// one of them or replaces the sample.
    pub(crate) fn is_of(&self, sample: &Sample) -> bool {
        self.built_from == Self::identity(sample)
    }

    /// Upper bound on [`Self::heap_bytes`] of an image of `sample` under
    /// `schema` (exact when no stratum is empty), from the strata count,
    /// the item count and the schema width alone: what the store charges
    /// a sample for its image whether or not it has been built.
    pub(crate) fn footprint(sample: &Sample, schema: &SampleSchema) -> usize {
        use std::mem::size_of;
        sample.num_strata() * size_of::<ImageStratum>()
            + sample.total_items() * schema.len() * size_of::<i64>()
    }

    /// Heap bytes the image occupies.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.strata.capacity() * size_of::<ImageStratum>()
            + self
                .cols
                .iter()
                .map(|c| c.capacity() * size_of::<i64>())
                .sum::<usize>()
    }

    /// What [`estimate`] answers for the sample this image was built
    /// from, under `tighten` and `z` with groups = strata (no projection,
    /// no exact mass), bit for bit. `schema` must be the one it was built
    /// with.
    pub fn estimate(
        &self,
        schema: &SampleSchema,
        aggs: &[AggSpec],
        tighten: Option<&Predicates>,
        z: f64,
    ) -> Result<Vec<GroupEstimate>, EstimateError> {
        debug_assert_eq!(schema.len(), self.cols.len());
        let (inputs, tighten, fresh) = compile(schema, aggs, tighten)?;
        let mut accs = fresh.clone();
        let mut bits = Vec::new();
        Ok(self
            .strata
            .iter()
            .map(|s| {
                let mq = self.hit_bits(&mut bits, tighten.as_ref(), s.rows.clone());
                accs.copy_from_slice(&fresh);
                fold_stratum(&mut accs, &inputs, s.rows.len(), s.weight, mq, |input| {
                    self.moments(input, s.rows.clone(), &bits, mq)
                });
                GroupEstimate {
                    key: s.key.parts().to_vec(),
                    values: accs.iter().map(|a| a.finalize(z)).collect(),
                }
            })
            .collect())
    }

    /// Fill `bits` with the hit bitset of `rows` under `tighten` (bit `i`
    /// = row `rows.start + i` matches), 64 rows a word; returns its
    /// popcount.
    fn hit_bits(
        &self,
        bits: &mut Vec<u64>,
        tighten: Option<&Tighten>,
        rows: Range<usize>,
    ) -> usize {
        match tighten {
            None => pack_bits(bits, rows.len(), |_| true),
            Some(Tighten::Range { slot, lo, hi }) => {
                let col = &self.cols[*slot][rows];
                pack_bits(bits, col.len(), |i| (*lo..=*hi).contains(&col[i]))
            }
            Some(Tighten::Sets(checks)) => pack_bits(bits, rows.len(), |i| {
                checks
                    .iter()
                    .all(|(slot, set)| set.contains(self.cols[*slot][rows.start + i]))
            }),
        }
    }

    /// Moments of `input` over the rows of `rows` set in `bits` (`mq` of
    /// them).
    fn moments(
        &self,
        input: &ResolvedInput,
        rows: Range<usize>,
        bits: &[u64],
        mq: usize,
    ) -> Moments {
        let col = |slot: usize| &self.cols[slot][rows.clone()];
        match *input {
            ResolvedInput::One => Moments::ones(mq),
            ResolvedInput::Col(s, SlotKind::Int) => {
                let col = col(s);
                Moments::over_bits(bits, |i| col[i] as f64)
            }
            ResolvedInput::Col(s, SlotKind::Float) => {
                let col = col(s);
                Moments::over_bits(bits, |i| f64::from_bits(col[i] as u64))
            }
            ResolvedInput::Mul((a, ka), (b, kb)) => {
                let (a, b) = (col(a), col(b));
                Moments::over_bits(bits, |i| ka.numeric(a[i]) * kb.numeric(b[i]))
            }
        }
    }
}

/// Fill `bits` with `hit(0..len)`, 64 rows a word (the last one
/// zero-padded); returns how many hit.
#[inline]
fn pack_bits(bits: &mut Vec<u64>, len: usize, hit: impl Fn(usize) -> bool) -> usize {
    bits.clear();
    let mut hits = 0;
    for base in (0..len).step_by(64) {
        let word =
            (base..len.min(base + 64)).fold(0u64, |word, i| word | (hit(i) as u64) << (i - base));
        hits += word.count_ones() as usize;
        bits.push(word);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{Interval, IntervalSet};
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
        let mut s = Sample::new((per as usize) + 1);
        for g in 0..groups {
            for i in 0..per {
                let x = g * per + i;
                let tuple = SampleTuple::from_slice(&[x, (x as f64 * 0.5).to_bits() as i64]);
                s.offer(GroupKey::new(&[g]), tuple, &mut rng);
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
            ..Default::default()
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
            let mut s = Sample::new(k);
            for i in 0..per {
                let tuple = SampleTuple::from_slice(&[i, (i as f64).to_bits() as i64]);
                s.offer(GroupKey::new(&[0]), tuple, &mut rng);
            }
            let ests = estimate(
                &s,
                &schema(),
                &[AggSpec::sum("v")],
                &EstimateOptions::default(),
            )
            .unwrap();
            let est = &ests[0].values[0];
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
            let mut s = Sample::new(100);
            for i in 0..per {
                s.offer(
                    GroupKey::new(&[0]),
                    SampleTuple::from_slice(&[i, 0]),
                    &mut rng,
                );
            }
            let tighten = Predicates::on("x", IntervalSet::of(Interval::new(0, 999)));
            let opts = EstimateOptions {
                tighten: Some(&tighten),
                ..Default::default()
            };
            let ests = estimate(&s, &schema(), &[AggSpec::count()], &opts).unwrap();
            total += ests[0].values[0].value;
        }
        let mean = total / trials as f64;
        assert!(
            (mean - 1000.0).abs() < 150.0,
            "mean count estimate {mean} should be near 1000"
        );
    }

    #[test]
    fn group_projection_aggregates_across_strata() {
        // Strata keyed by (g, h); group output by position 0 only.
        let mut rng = Lehmer64::new(9);
        let mut s = Sample::new(1000);
        for g in 0..2i64 {
            for h in 0..3i64 {
                for i in 0..10 {
                    s.offer(
                        GroupKey::new(&[g, h]),
                        SampleTuple::from_slice(&[i, (1.0f64).to_bits() as i64]),
                        &mut rng,
                    );
                }
            }
        }
        let positions = [0usize];
        let opts = EstimateOptions {
            group_positions: Some(&positions),
            ..Default::default()
        };
        let ests = estimate(&s, &schema(), &[AggSpec::count()], &opts).unwrap();
        assert_eq!(ests.len(), 2);
        for e in &ests {
            assert_eq!(e.values[0].value, 30.0);
        }
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
        assert_eq!(ests[0].values[0].value, 0.0);
        assert_eq!(ests[0].values[1].value, 49.0);
        assert!(ests[0].values[0].ci_half_width.is_nan());
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
            ..Default::default()
        };
        let err = estimate(&s, &schema(), &[AggSpec::count()], &opts).unwrap_err();
        assert_eq!(err, EstimateError::NonIntegerPredicate("v".into()));
    }

    #[test]
    fn exact_mass_blends_with_zero_variance() {
        // Sampled stratum: group 0, population sample (exact, CI 0).
        let s = full_sample(1, 100);
        // Covered mass: 200 more rows of group 0 with known sums, and a
        // group 1 that exists only in the covered region.
        let mut exact = ExactMass::new();
        exact.add(
            &[0],
            200,
            vec![
                ExactSlot {
                    sum: 1_000.0,
                    min: 1.0,
                    max: 9.0,
                },
                ExactSlot {
                    sum: 500.0,
                    min: 0.5,
                    max: 4.5,
                },
            ],
        );
        exact.add(
            &[1],
            50,
            vec![
                ExactSlot {
                    sum: 100.0,
                    min: 2.0,
                    max: 2.0,
                },
                ExactSlot {
                    sum: 75.0,
                    min: 1.5,
                    max: 1.5,
                },
            ],
        );
        let opts = EstimateOptions {
            exact: Some(&exact),
            ..Default::default()
        };
        let ests = estimate(
            &s,
            &schema(),
            &[
                AggSpec::sum("v"),
                AggSpec::count(),
                AggSpec::avg("v"),
                AggSpec {
                    kind: AggKind::Min,
                    input: AggInput::Col("x".into()),
                },
                AggSpec {
                    kind: AggKind::Max,
                    input: AggInput::Col("x".into()),
                },
            ],
            &opts,
        )
        .unwrap();
        assert_eq!(ests.len(), 2);
        let sampled_sum: f64 = (0..100).map(|i| i as f64 * 0.5).sum();
        let g0 = &ests[0];
        assert_eq!(g0.key, vec![0]);
        assert!((g0.values[0].value - (sampled_sum + 500.0)).abs() < 1e-9);
        assert_eq!(g0.values[0].ci_half_width, 0.0, "exact mass adds no CI");
        assert_eq!(g0.values[1].value, 300.0, "count blends covered rows");
        assert!((g0.values[2].value - (sampled_sum + 500.0) / 300.0).abs() < 1e-9);
        assert_eq!(g0.values[3].value, 0.0, "sampled min 0 < covered min 1");
        assert_eq!(g0.values[4].value, 99.0);
        // Covered-only group: fully exact estimates.
        let g1 = &ests[1];
        assert_eq!(g1.key, vec![1]);
        assert_eq!(g1.values[0].value, 75.0);
        assert_eq!(g1.values[1].value, 50.0);
        assert_eq!(g1.values[0].ci_half_width, 0.0);
        assert_eq!(g1.values[1].support, 50);
    }

    #[test]
    fn exact_mass_merges_and_rejects_products() {
        let mut a = ExactMass::new();
        a.add(
            &[3],
            10,
            vec![ExactSlot {
                sum: 5.0,
                min: 0.0,
                max: 1.0,
            }],
        );
        let mut b = ExactMass::new();
        b.add(
            &[3],
            2,
            vec![ExactSlot {
                sum: 7.0,
                min: -1.0,
                max: 3.0,
            }],
        );
        b.add(
            &[4],
            0,
            vec![ExactSlot {
                sum: 9.0,
                min: 9.0,
                max: 9.0,
            }],
        );
        a.merge(&b);
        assert_eq!(a.rows(), 12, "zero-row spans contribute nothing");
        let (_, g) = a.iter().next().unwrap();
        assert_eq!(g.slots[0].sum, 12.0);
        assert_eq!(g.slots[0].min, -1.0);
        assert_eq!(g.slots[0].max, 3.0);

        // A product-input aggregate cannot take exact mass.
        let s = full_sample(1, 10);
        let mut exact = ExactMass::new();
        exact.add(
            &[0],
            1,
            vec![
                ExactSlot {
                    sum: 1.0,
                    min: 1.0,
                    max: 1.0,
                },
                ExactSlot {
                    sum: 1.0,
                    min: 1.0,
                    max: 1.0,
                },
            ],
        );
        let opts = EstimateOptions {
            exact: Some(&exact),
            ..Default::default()
        };
        let err = estimate(&s, &schema(), &[AggSpec::sum_product("x", "v")], &opts).unwrap_err();
        assert_eq!(err, EstimateError::ExactProductInput);
    }

    /// A random sample over `(g, h)` strata: some strata full (weight ≫ k),
    /// some complete populations.
    fn random_sample(k: usize, g: i64, h: i64, per: i64, seed: u64) -> Sample {
        let mut rng = Lehmer64::new(seed);
        let mut s = Sample::new(k);
        for _ in 0..g * h * per {
            let x = rng.next_below(1_000) as i64;
            let v = (rng.next_below(10_000) as f64 / 7.0).to_bits() as i64;
            // Skewed routing: low strata see many more tuples.
            let stratum = (rng.next_below((g * h) as u64) * rng.next_below(3) / 2) as i64;
            s.offer(
                GroupKey::new(&[stratum / h, stratum % h]),
                SampleTuple::from_slice(&[x, v]),
                &mut rng,
            );
        }
        s
    }

    fn close(a: f64, b: f64) -> bool {
        (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn linear_path_agrees_with_the_general_path(
            k in 1usize..12,
            g in 1i64..5,
            h in 1i64..5,
            per in 1i64..30,
            seed in 0u64..10_000,
            cuts in prop::collection::vec(0i64..1_000, 0..5),
        ) {
            let sample = random_sample(k, g, h, per, seed);
            // 0 cuts: no tightening; 1–2: one interval; more: several.
            let mut cuts = cuts;
            cuts.sort_unstable();
            cuts.dedup();
            let set = IntervalSet::from_intervals(
                cuts.chunks(2).map(|c| Interval::new(c[0], *c.last().unwrap())).collect(),
            );
            let tighten = Predicates::on("x", set);
            let tighten = (!cuts.is_empty()).then_some(&tighten);
            let aggs = all_aggs();
            let linear = estimate(
                &sample,
                &schema(),
                &aggs,
                &EstimateOptions { tighten, ..Default::default() },
            )
            .unwrap();
            prop_assert!(linear.windows(2).all(|w| w[0].key < w[1].key), "key order");

            // The identity projection regroups strata onto themselves.
            let general = estimate(
                &sample,
                &schema(),
                &aggs,
                &EstimateOptions { tighten, group_positions: Some(&[0, 1]), ..Default::default() },
            )
            .unwrap();
            prop_assert_eq!(linear.len(), general.len());
            for (l, r) in linear.iter().zip(&general) {
                prop_assert_eq!(&l.key, &r.key);
                for (a, b) in l.values.iter().zip(&r.values) {
                    prop_assert!(close(a.value, b.value), "{} vs {}", a.value, b.value);
                    prop_assert!(close(a.ci_half_width, b.ci_half_width));
                    prop_assert_eq!(a.support, b.support);
                }
            }

            // A real projection must equal regrouping the linear answer by
            // hand: sums, counts and variances add, extrema combine.
            let projected = estimate(
                &sample,
                &schema(),
                &aggs,
                &EstimateOptions { tighten, group_positions: Some(&[0]), ..Default::default() },
            )
            .unwrap();
            for p in &projected {
                let parts: Vec<&GroupEstimate> =
                    linear.iter().filter(|l| l.key[0] == p.key[0]).collect();
                prop_assert!(!parts.is_empty());
                for agg in [0, 1, 5] {
                    let value: f64 = parts.iter().map(|l| l.values[agg].value).sum();
                    let var: f64 = parts.iter().map(|l| l.values[agg].ci_half_width.powi(2)).sum();
                    prop_assert!(close(p.values[agg].value, value));
                    prop_assert!(
                        (p.values[agg].ci_half_width - var.sqrt()).abs()
                            <= 1e-9 * var.sqrt().max(1.0)
                    );
                }
                let supported = |agg: usize| parts.iter().filter(move |l| l.values[agg].support > 0);
                let min = supported(2).map(|l| l.values[2].value).fold(f64::INFINITY, f64::min);
                let max = supported(3).map(|l| l.values[3].value).fold(f64::NEG_INFINITY, f64::max);
                if supported(2).count() > 0 {
                    prop_assert_eq!(p.values[2].value, min);
                    prop_assert_eq!(p.values[3].value, max);
                }
            }

            // Exact lane mass (the general path again) adds to the linear
            // answer group by group, with no variance of its own.
            let mut exact = ExactMass::new();
            let slot = |sum: f64| ExactSlot { sum, min: 2.0, max: 3.0 };
            exact.add(&[0, 0], 40, vec![slot(100.0), slot(250.0)]);
            exact.add(&[g, h], 7, vec![slot(14.0), slot(21.0)]);
            let blended = estimate(
                &sample,
                &schema(),
                &aggs[..2],
                &EstimateOptions { tighten, exact: Some(&exact), ..Default::default() },
            )
            .unwrap();
            let lookup = |key: &[i64]| linear.iter().find(|l| l.key == key);
            for b in &blended {
                let (sum, rows) = match b.key.as_slice() {
                    [0, 0] => (250.0, 40.0),
                    key if key == [g, h] => (21.0, 7.0),
                    _ => (0.0, 0.0),
                };
                let base = lookup(&b.key);
                let base_of = |agg: usize| base.map_or((0.0, 0.0), |l| {
                    (l.values[agg].value, l.values[agg].ci_half_width)
                });
                prop_assert!(close(b.values[0].value, base_of(0).0 + sum));
                prop_assert!(close(b.values[0].ci_half_width, base_of(0).1));
                prop_assert!(close(b.values[1].value, base_of(1).0 + rows));
                prop_assert!(close(b.values[1].ci_half_width, base_of(1).1));
            }
            prop_assert!(blended.iter().any(|b| b.key == [g, h]), "covered-only group");
        }
    }

    /// One row per group and aggregate, value and half-width as bit
    /// patterns: `==` on these is bit identity, `NaN` half-widths
    /// (MIN/MAX) included.
    fn bits(groups: &[GroupEstimate]) -> Vec<(&[i64], u64, u64, usize)> {
        let of = |a: &AggEstimate| (a.value.to_bits(), a.ci_half_width.to_bits(), a.support);
        let rows = groups.iter().flat_map(|g| {
            let row = move |a| {
                let (value, half_width, support) = of(a);
                (g.key.as_slice(), value, half_width, support)
            };
            g.values.iter().map(row)
        });
        rows.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn image_agrees_with_estimate_bit_for_bit(
            k in prop::sample::select(vec![1usize, 7, 32, 64, 65, 200]),
            key_parts in 1usize..4,
            strata in 0i64..9,
            seed in 0u64..10_000,
            mode in 0u8..4,
            cuts in prop::collection::vec(0i64..100, 1..7),
        ) {
            let schema = SampleSchema::new(vec![
                ("x".into(), SlotKind::Int),
                ("y".into(), SlotKind::Int),
                ("v".into(), SlotKind::Float),
            ]);
            // Strata of 0..3k offers each (some below k, some sampled), in
            // a first-offer order that is not key order; float payloads
            // include negatives and both zeros.
            let floats = [-0.0, 0.0, -2.5, 1.0 / 3.0, 7.0, -1e9, 1e-3];
            let mut rng = Lehmer64::new(seed);
            let mut sample = Sample::new(k);
            for _ in 0..strata * k as i64 * 3 / 2 {
                let g = (rng.next_below(strata as u64) * rng.next_below(3) / 2) as i64;
                let key = [-g, g % 2, 5][..key_parts].to_vec();
                let v: f64 = floats[rng.next_below(floats.len() as u64) as usize];
                let tuple = [
                    rng.next_below(100) as i64,
                    rng.next_below(100) as i64 - 50,
                    v.to_bits() as i64,
                ];
                sample.offer(GroupKey::new(&key), SampleTuple::from_slice(&tuple), &mut rng);
            }

            let mut cuts = cuts;
            cuts.sort_unstable();
            cuts.dedup();
            let range = IntervalSet::of(Interval::new(cuts[0], *cuts.last().unwrap()));
            let several = IntervalSet::from_intervals(
                cuts.chunks(2).map(|c| Interval::new(c[0], *c.last().unwrap())).collect(),
            );
            let tighten = match mode {
                0 => None,
                1 => Some(Predicates::on("x", range)),
                2 => Some(Predicates::on("x", several)),
                _ => Some(Predicates::on("x", range).with("y", Interval::new(-50, cuts[0] - 50))),
            };
            let inputs = [
                AggInput::Col("x".into()),
                AggInput::Col("v".into()),
                AggInput::Mul("y".into(), "v".into()),
                AggInput::None,
            ];
            let kinds = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max];
            let aggs: Vec<AggSpec> = kinds
                .iter()
                .flat_map(|&kind| inputs.iter().map(move |input| AggSpec { kind, input: input.clone() }))
                .collect();

            let opts = EstimateOptions { tighten: tighten.as_ref(), ..Default::default() };
            let oracle = estimate(&sample, &schema, &aggs, &opts).unwrap();
            let image = SampleImage::build(&sample, &schema);
            prop_assert!(image.is_of(&sample));
            prop_assert!(image.heap_bytes() <= SampleImage::footprint(&sample, &schema));
            let folded = image.estimate(&schema, &aggs, tighten.as_ref(), opts.z).unwrap();
            prop_assert_eq!(bits(&folded), bits(&oracle));
            prop_assert_eq!(oracle.len(), sample.num_strata());
        }
    }

    #[test]
    fn image_rejects_what_estimate_rejects() {
        let s = full_sample(1, 10);
        let image = SampleImage::build(&s, &schema());
        let err = image
            .estimate(&schema(), &[AggSpec::sum("missing")], None, 1.96)
            .unwrap_err();
        assert_eq!(err, EstimateError::UnknownColumn("missing".into()));
        let tighten = Predicates::on("v", IntervalSet::of(Interval::new(0, 1)));
        let err = image
            .estimate(&schema(), &[AggSpec::count()], Some(&tighten), 1.96)
            .unwrap_err();
        assert_eq!(err, EstimateError::NonIntegerPredicate("v".into()));
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
        assert!((ests[0].values[0].value - exact).abs() < 1e-9);
    }
}
