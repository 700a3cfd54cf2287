//! Sample-support policies (paper §5.2).
//!
//! Tightening a predicate on a stored sample (§5.2.1) is admissible only if
//! enough sampled tuples survive the stricter predicate to honour the
//! requested error guarantees. This module counts per-stratum support and
//! holds the policy: the floor a stratum must reach, the conservative
//! switch under which a reused answer short of support is re-sampled
//! online over the query's whole range (§5.2.3, run by
//! [`crate::service`]), and the oversampling factor α that trades space
//! for reusability under stricter predicates.

use laqy_engine::GroupKey;

use crate::estimate::Groups;

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
    /// Conservative mode: if true, a reused answer with any short stratum
    /// is answered instead by online sampling of the query's range, and
    /// that sample is stored; if false, estimates are reported with the
    /// available (wider) error bounds.
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

/// Outcome of a support check over a tightened sample: how many strata
/// meet the policy, fall short, or match nothing, and the floor they were
/// classified against. Strata and output groups coincide, so the short
/// strata's keys are read back from the answer's [`Groups`] only when
/// asked for: a report allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportReport {
    /// Strata whose matching tuple count meets the policy.
    pub supported: usize,
    /// Strata that fall short of the policy but match some tuples.
    under_supported: usize,
    /// Strata with zero matching tuples. May be a true empty region or a
    /// sampling artifact — only an online re-sample can tell (§5.2.3).
    empty: usize,
    /// The policy's `min_rows_per_stratum` the counts were made with.
    min_rows: usize,
}

impl SupportReport {
    /// True if every stratum meets the policy.
    pub fn fully_supported(&self) -> bool {
        self.under_supported == 0 && self.empty == 0
    }

    /// Strata that fall short of the policy but match some tuples.
    pub fn under_supported_len(&self) -> usize {
        self.under_supported
    }

    /// Strata with zero matching tuples.
    pub fn empty_len(&self) -> usize {
        self.empty
    }

    /// Keys of the under-supported strata in key order, read from
    /// `groups`: the answer this report was made for.
    pub fn under_supported_keys<'a>(
        &self,
        groups: &'a Groups,
    ) -> impl Iterator<Item = GroupKey> + 'a {
        let min = self.min_rows;
        keys_where(groups, move |m| m > 0 && m < min)
    }

    /// Keys of the empty strata in key order, read from `groups`: the
    /// answer this report was made for.
    pub fn empty_keys<'a>(&self, groups: &'a Groups) -> impl Iterator<Item = GroupKey> + 'a {
        keys_where(groups, |m| m == 0)
    }

    /// Compare each stratum's matching-tuple count against the policy:
    /// `matching[i]` is the count of the answer's group `i`.
    pub(crate) fn classify(matching: &[usize], policy: &SupportPolicy) -> Self {
        let min_rows = policy.min_rows_per_stratum;
        let mut report = SupportReport {
            supported: 0,
            under_supported: 0,
            empty: 0,
            min_rows,
        };
        for &m in matching {
            match m {
                0 => report.empty += 1,
                m if m < min_rows => report.under_supported += 1,
                _ => report.supported += 1,
            }
        }
        report
    }
}

/// The keys of the groups whose matching count passes `class`, in the
/// groups' (key) order.
fn keys_where<'a>(
    groups: &'a Groups,
    class: impl Fn(usize) -> bool + 'a,
) -> impl Iterator<Item = GroupKey> + 'a {
    (groups.iter())
        .filter(move |g| class(g.matching))
        .map(|g| GroupKey::new(g.key))
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
    use proptest::prelude::*;

    /// The support of `sample` under `tighten`, classified from the
    /// matching rows of a no-aggregate estimate's groups, and the groups.
    fn check_support(
        sample: &Sample,
        schema: &SampleSchema,
        tighten: Option<&Predicates>,
        policy: &SupportPolicy,
    ) -> Result<(SupportReport, Groups), EstimateError> {
        let opts = EstimateOptions {
            tighten,
            ..Default::default()
        };
        let groups = estimate(sample, schema, &[], &opts)?;
        Ok((support_from_groups(&groups, policy), groups))
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
        let (r, _) = check_support(&s, &schema(), None, &SupportPolicy::default()).unwrap();
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
        let (r, groups) =
            check_support(&s, &schema(), Some(&tighten), &SupportPolicy::default()).unwrap();
        assert_eq!(r.supported, 1);
        let under: Vec<_> = r.under_supported_keys(&groups).collect();
        assert_eq!(under, vec![GroupKey::new(&[2])]);
        let empty: Vec<_> = r.empty_keys(&groups).collect();
        assert_eq!(empty, vec![GroupKey::new(&[1])]);
        assert!(!r.fully_supported());
    }

    #[test]
    fn policy_threshold_is_respected() {
        let s = sample(&[(0, 0..10)]);
        let strict = SupportPolicy {
            min_rows_per_stratum: 11,
            ..Default::default()
        };
        let (r, _) = check_support(&s, &schema(), None, &strict).unwrap();
        assert_eq!(r.under_supported_len(), 1);
        let lax = SupportPolicy {
            min_rows_per_stratum: 10,
            ..Default::default()
        };
        let (r, _) = check_support(&s, &schema(), None, &lax).unwrap();
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

    proptest! {
        /// The counts and both key iterators equal a reference
        /// classification of random matching counts — empty, below the
        /// floor and at or above it — over two-part keys in key order.
        #[test]
        fn classify_agrees_with_a_reference_classification(
            min_rows in 1usize..40,
            strata in prop::collection::vec((0u8..3, 0usize..1_000), 0..300),
        ) {
            let policy = SupportPolicy { min_rows_per_stratum: min_rows, ..Default::default() };
            let matching: Vec<(GroupKey, usize)> = (strata.iter().enumerate())
                .map(|(i, &(class, r))| {
                    let i = i as i64;
                    let m = match class {
                        0 => 0,
                        1 if min_rows > 1 => 1 + r % (min_rows - 1),
                        _ => min_rows + r % 3,
                    };
                    (GroupKey::new(&[i / 7, i % 7 - 3]), m)
                })
                .collect();
            let mut groups = Groups::default();
            for (key, m) in &matching {
                groups.push(key.parts(), std::iter::empty(), *m);
            }
            let report = SupportReport::classify(groups.matching(), &policy);
            let class = |f: &dyn Fn(usize) -> bool| -> Vec<GroupKey> {
                let mut keys: Vec<_> = (matching.iter())
                    .filter(|(_, m)| f(*m))
                    .map(|(k, _)| *k)
                    .collect();
                keys.sort();
                keys
            };
            let empty = class(&|m| m == 0);
            let under = class(&|m| m > 0 && m < min_rows);
            let supported = class(&|m| m >= min_rows);
            prop_assert_eq!(report.empty_keys(&groups).collect::<Vec<_>>(), empty.clone());
            prop_assert_eq!(report.under_supported_keys(&groups).collect::<Vec<_>>(), under.clone());
            prop_assert_eq!(report.empty_len(), empty.len());
            prop_assert_eq!(report.under_supported_len(), under.len());
            prop_assert_eq!(report.supported, supported.len());
            prop_assert_eq!(report.fully_supported(), empty.is_empty() && under.is_empty());
        }
    }
}
