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

use laqy_engine::{AggInput, AggKind, AggSpec, GroupKey};

use crate::descriptor::Predicates;
use crate::interval::IntervalSet;
use crate::sampler_ops::{each_width, Sample, SampleSchema, SlotKind};

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
    /// Normal quantile for the confidence interval (1.96 ≈ 95 %).
    pub z: f64,
}

impl Default for EstimateOptions<'_> {
    fn default() -> Self {
        Self {
            tighten: None,
            z: 1.96,
        }
    }
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
    Range { slot: usize, lo: i64, hi: i64 },
    /// Any conjunction of per-column interval sets.
    Sets(Vec<(usize, IntervalSet)>),
}

impl Tighten {
    fn compile(schema: &SampleSchema, preds: &Predicates) -> Result<Self, EstimateError> {
        let mut checks = Vec::new();
        for (col, set) in preds.iter() {
            let (slot, kind) = resolve_slot(schema, col)?;
            if kind != SlotKind::Int {
                return Err(EstimateError::NonIntegerPredicate(col.to_string()));
            }
            checks.push((slot, set.clone()));
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

    fn finalize(&self, z: f64) -> AggEstimate {
        let half_width = z * self.var.max(0.0).sqrt();
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

    /// Moments of `input` over the rows of `rows` set in `bits` (`mq` of
    /// them). The slot kind is resolved outside the row loop.
    fn for_input<const W: usize>(
        input: &ResolvedInput,
        rows: &[[i64; W]],
        bits: &[u64],
        mq: usize,
    ) -> Self {
        match *input {
            ResolvedInput::One => Moments::ones(mq),
            ResolvedInput::Col(s, SlotKind::Int) => Moments::over_bits(bits, |i| rows[i][s] as f64),
            ResolvedInput::Col(s, SlotKind::Float) => {
                Moments::over_bits(bits, |i| f64::from_bits(rows[i][s] as u64))
            }
            ResolvedInput::Mul((a, ka), (b, kb)) => {
                Moments::over_bits(bits, |i| ka.numeric(rows[i][a]) * kb.numeric(rows[i][b]))
            }
        }
    }
}

/// Fill `bits` with the hit bitset of a stratum's `rows` under `tighten`
/// (bit `i` = row `i` matches), 64 rows a word, the last one zero-padded;
/// returns its popcount. The one place a tightening meets rows: each word
/// is packed from one 64-row chunk of the stratum.
fn hit_bits<const W: usize>(
    bits: &mut Vec<u64>,
    tighten: Option<&Tighten>,
    rows: &[[i64; W]],
) -> usize {
    #[inline]
    fn pack<const W: usize>(chunk: &[[i64; W]], hit: impl Fn(&[i64; W]) -> bool) -> u64 {
        (chunk.iter().enumerate()).fold(0, |word, (j, row)| word | u64::from(hit(row)) << j)
    }
    bits.clear();
    let chunks = rows.chunks(64);
    match tighten {
        None => bits.extend(chunks.map(|chunk| u64::MAX >> (64 - chunk.len()))),
        Some(&Tighten::Range { slot, lo, hi }) => {
            assert!(slot < W, "tightening slot outside the row");
            // `lo ≤ v ≤ hi` as one unsigned compare (`lo ≤ hi` always).
            let span = hi.wrapping_sub(lo) as u64;
            let hit = |row: &[i64; W]| row[slot].wrapping_sub(lo) as u64 <= span;
            bits.extend(chunks.map(|chunk| pack(chunk, hit)));
        }
        Some(Tighten::Sets(checks)) => bits.extend(chunks.map(|chunk| {
            pack(chunk, |row| {
                checks.iter().all(|(slot, set)| set.contains(row[*slot]))
            })
        })),
    }
    bits.iter().map(|word| word.count_ones() as usize).sum()
}

/// How many retained rows of each stratum of `sample` match `tighten`,
/// in the sample's stratum order (a stratum retaining nothing counts 0):
/// what a support check classifies.
pub(crate) fn matching_rows(
    sample: &Sample,
    schema: &SampleSchema,
    tighten: Option<&Predicates>,
) -> Result<Vec<(GroupKey, usize)>, EstimateError> {
    let tighten = tighten.map(|p| Tighten::compile(schema, p)).transpose()?;
    let mut bits = Vec::new();
    Ok(each_width!(&sample.rows, s => s
        .iter()
        .map(|(key, rows, _)| (*key, hit_bits(&mut bits, tighten.as_ref(), rows)))
        .collect()))
}

/// The per-stratum estimator: fold a stratum of `len > 0` retained tuples
/// standing for `weight` considered ones, `mq` of which match the
/// tightening, into `accs` — one accumulator per aggregate, each fed the
/// `moments` of its input over the matching tuples.
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
        match acc.kind {
            AggKind::Sum => {
                acc.value += sum_est;
                acc.var += sum_var;
            }
            AggKind::Count => {
                let p = mq as f64 / m;
                acc.value += w * p;
                let var_p = if m > 1.0 {
                    p * (1.0 - p) * m / (m - 1.0)
                } else {
                    0.0
                };
                acc.var += w * w * var_p / m * fpc;
            }
            AggKind::Avg => {
                acc.value += sum_est;
                acc.var += sum_var;
                acc.n_est += w * mq as f64 / m;
            }
            AggKind::Min if mq > 0 => acc.value = acc.value.min(mo.lo),
            AggKind::Max if mq > 0 => acc.value = acc.value.max(mo.hi),
            AggKind::Min | AggKind::Max => {}
        }
        acc.support += mq;
    }
}

/// An estimate resolved against a schema up front — each aggregate's
/// input, the tightening filter, one fresh accumulator per aggregate —
/// ready to walk any sample of that schema's rows.
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

    /// The estimator's one walk: every non-empty stratum of `strata`
    /// (`key`, `rows`, `weight`), in the order given, is tightened once
    /// into a hit bitset — not once per aggregate — and folded into fresh
    /// accumulators, which `emit` receives. Output groups are the strata
    /// themselves (QCS = GROUP BY, every query template).
    fn walk<'k, const W: usize>(
        &self,
        strata: impl Iterator<Item = (&'k GroupKey, &'k [[i64; W]], u64)>,
        mut emit: impl FnMut(&'k GroupKey, &mut [EstAcc]),
    ) {
        let mut accs = self.fresh.clone();
        let mut bits = Vec::new();
        for (key, rows, weight) in strata.filter(|(_, rows, _)| !rows.is_empty()) {
            let mq = hit_bits(&mut bits, self.tighten.as_ref(), rows);
            accs.copy_from_slice(&self.fresh);
            fold_stratum(&mut accs, &self.inputs, rows.len(), weight, mq, |input| {
                Moments::for_input(input, rows, &bits, mq)
            });
            emit(key, &mut accs);
        }
    }

    /// Estimate from `sample`, where it rests: its strata walked in the
    /// group-key order it keeps, each finished group pushed straight into
    /// the answer (no collect, no sort).
    pub(crate) fn estimate(&self, sample: &Sample, z: f64) -> Vec<GroupEstimate> {
        let mut groups = Vec::with_capacity(sample.num_strata());
        let order = sample.key_order();
        let indices = order.iter().map(|&i| i as usize);
        each_width!(&sample.rows, s => self.walk(indices.map(|i| s.stratum_at(i)), |key, accs| {
            groups.push(group_estimate(key.parts(), accs, z))
        }));
        groups
    }
}

/// The answer row of the group keyed `key` whose aggregates folded to
/// `accs`.
fn group_estimate(key: &[i64], accs: &[EstAcc], z: f64) -> GroupEstimate {
    GroupEstimate {
        key: key.to_vec(),
        values: accs.iter().map(|a| a.finalize(z)).collect(),
    }
}

/// Estimate aggregates over a stratified sample. Groups come out in key
/// order; strata holding no tuples contribute nothing.
pub fn estimate(
    sample: &Sample,
    schema: &SampleSchema,
    aggs: &[AggSpec],
    opts: &EstimateOptions<'_>,
) -> Result<Vec<GroupEstimate>, EstimateError> {
    Ok(Estimator::compile(schema, aggs, opts.tighten)?.estimate(sample, opts.z))
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
            let mut s = Sample::new(&schema(), 100);
            for i in 0..per {
                s.offer(GroupKey::new(&[0]), &[i, 0], &mut rng);
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
            let policy = crate::SupportPolicy { min_rows_per_stratum: min_rows, ..Default::default() };
            let checked = crate::check_support(&sample, &schema(), tighten.as_ref(), &policy).unwrap();
            let groups = estimate(
                &sample,
                &schema(),
                &all_aggs(),
                &EstimateOptions { tighten: tighten.as_ref(), ..Default::default() },
            )
            .unwrap();
            prop_assert_eq!(checked, crate::executor::support_from_groups(&groups, &policy));
        }
    }

    /// FNV-1a over every group's key, and every aggregate's value and
    /// half-width bit patterns and support.
    fn digest(groups: &[GroupEstimate]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for g in groups {
            g.key.iter().for_each(|&part| eat(part as u64));
            for a in &g.values {
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
        let mut digests = Vec::new();
        for sample in &samples {
            for tighten in &tightenings {
                let opts = EstimateOptions {
                    tighten: tighten.as_ref(),
                    ..Default::default()
                };
                digests.push(digest(&estimate(sample, &schema(), &aggs, &opts).unwrap()));
            }
        }
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
        assert_eq!(digests, at_the_parent);
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
