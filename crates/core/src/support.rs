//! Sample-support policies (paper §5.2).
//!
//! Tightening a predicate on a stored sample (§5.2.1) is admissible only if
//! enough sampled tuples survive the stricter predicate to honour the
//! requested error guarantees. This module checks per-stratum support,
//! implements the conservative fallback (§5.2.3: strata with insufficient
//! support are re-sampled online with the filter pushed down), and exposes
//! the oversampling factor α that trades space for reusability under
//! stricter predicates.

use laqy_engine::GroupKey;

/// Support requirements and the oversampling knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupportPolicy {
    /// Minimum matching tuples a stratum must retain for its estimate to
    /// count as supported.
    pub min_rows_per_stratum: usize,
    /// Oversampling factor α ≥ 1: reservoirs are sized `α · k` so stricter
    /// predicates still leave enough support (§5.2.3). Tuning is out of the
    /// paper's scope; exposed as a plain multiplier.
    pub oversampling_alpha: f64,
    /// Conservative mode: if true, under-supported strata demand an online
    /// fallback; if false, estimates are reported with the available
    /// (wider) error bounds.
    pub conservative: bool,
}

impl Default for SupportPolicy {
    fn default() -> Self {
        Self {
            min_rows_per_stratum: 30,
            oversampling_alpha: 1.0,
            conservative: false,
        }
    }
}

impl SupportPolicy {
    /// Effective reservoir capacity after oversampling.
    pub fn effective_k(&self, k: usize) -> usize {
        ((k as f64 * self.oversampling_alpha).ceil() as usize).max(1)
    }
}

/// Outcome of a support check over a tightened sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportReport {
    /// Strata whose matching tuple count meets the policy.
    pub supported: usize,
    /// Strata keys that fall short (candidates for the online fallback).
    pub under_supported: Vec<GroupKey>,
    /// Strata with zero matching tuples. May be a true empty region or a
    /// sampling artifact — only an online probe can tell (§5.2.3).
    pub empty: Vec<GroupKey>,
}

impl SupportReport {
    /// True if every stratum meets the policy.
    pub fn fully_supported(&self) -> bool {
        self.under_supported.is_empty() && self.empty.is_empty()
    }

    /// Compare each stratum's matching-tuple count against the policy:
    /// `matching[i]` is stratum `i`'s, `key(i)` its key. Strata come in
    /// key order, so both lists are filled sorted, each allocated once at
    /// the size a first pass over the counts finds.
    pub(crate) fn classify(
        matching: &[usize],
        key: impl Fn(usize) -> GroupKey,
        policy: &SupportPolicy,
    ) -> Self {
        let min = policy.min_rows_per_stratum;
        let empty = matching.iter().filter(|&&m| m == 0).count();
        let under = matching.iter().filter(|&&m| m > 0 && m < min).count();
        let mut report = SupportReport {
            supported: matching.len() - empty - under,
            under_supported: Vec::with_capacity(under),
            empty: Vec::with_capacity(empty),
        };
        for (i, &m) in matching.iter().enumerate() {
            if m == 0 {
                report.empty.push(key(i));
            } else if m < min {
                report.under_supported.push(key(i));
            }
        }
        debug_assert!(report.under_supported.is_sorted() && report.empty.is_sorted());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Predicates;
    use crate::estimate::{estimate, EstimateError, EstimateOptions};
    use crate::executor::support_from_groups;
    use crate::interval::{Interval, IntervalSet};
    use crate::sampler_ops::{Sample, SampleSchema, SlotKind};
    use laqy_sampling::Lehmer64;

    /// The support of `sample` under `tighten`, classified from the
    /// matching rows of a no-aggregate estimate's groups.
    fn check_support(
        sample: &Sample,
        schema: &SampleSchema,
        tighten: Option<&Predicates>,
        policy: &SupportPolicy,
    ) -> Result<SupportReport, EstimateError> {
        let opts = EstimateOptions {
            tighten,
            ..Default::default()
        };
        Ok(support_from_groups(
            &estimate(sample, schema, &[], &opts)?,
            policy,
        ))
    }

    fn schema() -> SampleSchema {
        SampleSchema::new(vec![("x".into(), SlotKind::Int)])
    }

    fn sample(per_stratum: &[(i64, std::ops::Range<i64>)]) -> Sample {
        let mut rng = Lehmer64::new(1);
        let mut s = Sample::new(&schema(), 10_000);
        for (g, range) in per_stratum {
            for x in range.clone() {
                s.offer(GroupKey::new(&[*g]), &[x], &mut rng);
            }
        }
        s
    }

    #[test]
    fn all_supported_without_tightening() {
        let s = sample(&[(0, 0..100), (1, 0..100)]);
        let r = check_support(&s, &schema(), None, &SupportPolicy::default()).unwrap();
        assert!(r.fully_supported());
        assert_eq!(r.supported, 2);
    }

    #[test]
    fn tightening_exposes_under_supported_strata() {
        // Stratum 0 has x in 0..100 (50 match [0,49]); stratum 1 has x in
        // 200..300 (0 match); stratum 2 has x in 40..60 (10 match → under
        // the default 30).
        let s = sample(&[(0, 0..100), (1, 200..300), (2, 40..60)]);
        let tighten = Predicates::on("x", IntervalSet::of(Interval::new(0, 49)));
        let r = check_support(&s, &schema(), Some(&tighten), &SupportPolicy::default()).unwrap();
        assert_eq!(r.supported, 1);
        assert_eq!(r.under_supported, vec![GroupKey::new(&[2])]);
        assert_eq!(r.empty, vec![GroupKey::new(&[1])]);
        assert!(!r.fully_supported());
    }

    #[test]
    fn policy_threshold_is_respected() {
        let s = sample(&[(0, 0..10)]);
        let strict = SupportPolicy {
            min_rows_per_stratum: 11,
            ..Default::default()
        };
        let r = check_support(&s, &schema(), None, &strict).unwrap();
        assert_eq!(r.under_supported.len(), 1);
        let lax = SupportPolicy {
            min_rows_per_stratum: 10,
            ..Default::default()
        };
        let r = check_support(&s, &schema(), None, &lax).unwrap();
        assert!(r.fully_supported());
    }

    #[test]
    fn oversampling_scales_k() {
        let p = SupportPolicy {
            oversampling_alpha: 2.5,
            ..Default::default()
        };
        assert_eq!(p.effective_k(100), 250);
        assert_eq!(p.effective_k(0), 1);
        let unit = SupportPolicy::default();
        assert_eq!(unit.effective_k(64), 64);
    }

    #[test]
    fn unknown_tighten_column_errors() {
        let s = sample(&[(0, 0..10)]);
        let tighten = Predicates::on("nope", IntervalSet::of(Interval::new(0, 1)));
        assert!(check_support(&s, &schema(), Some(&tighten), &SupportPolicy::default()).is_err());
    }

    #[test]
    fn strata_in_key_order_classify_into_sorted_lists_of_exact_size() {
        // Two-part keys in key order, every class present: the lists come
        // out as sorting them would leave them, allocated once at size.
        let mut rng = Lehmer64::new(3);
        let keys: Vec<GroupKey> = (0..500)
            .map(|i| GroupKey::new(&[i / 7, i % 7 - 3]))
            .collect();
        let counts: Vec<usize> = keys.iter().map(|_| rng.next_below(45) as usize).collect();
        let report = SupportReport::classify(&counts, |i| keys[i], &SupportPolicy::default());
        let matching: Vec<(GroupKey, usize)> = keys.iter().copied().zip(counts).collect();
        let class = |f: fn(usize) -> bool| -> Vec<GroupKey> {
            let mut keys: Vec<_> = matching
                .iter()
                .filter(|(_, m)| f(*m))
                .map(|(k, _)| *k)
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(report.empty, class(|m| m == 0));
        assert_eq!(report.under_supported, class(|m| m > 0 && m < 30));
        assert_eq!(
            report.supported,
            matching.iter().filter(|(_, m)| *m >= 30).count()
        );
        assert_eq!(report.empty.capacity(), report.empty.len());
        assert_eq!(
            report.under_supported.capacity(),
            report.under_supported.len()
        );
    }
}
