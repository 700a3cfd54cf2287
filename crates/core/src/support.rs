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

/// Outcome of a support check over a tightened sample: counts, plus the
/// position of each short stratum in the answer's [`Groups`] (strata and
/// output groups coincide). Keys are read from those groups only when
/// asked for — the §5.2.3 fallback is the one reader — so a hit pays
/// 4 bytes a short stratum, not a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportReport {
    /// Strata whose matching tuple count meets the policy.
    pub supported: usize,
    /// Positions of the strata that fall short (candidates for the online
    /// fallback), ascending.
    under_supported: Vec<u32>,
    /// Positions of the strata with zero matching tuples, ascending. May
    /// be a true empty region or a sampling artifact — only an online
    /// probe can tell (§5.2.3).
    empty: Vec<u32>,
}

impl SupportReport {
    /// True if every stratum meets the policy.
    pub fn fully_supported(&self) -> bool {
        self.under_supported.is_empty() && self.empty.is_empty()
    }

    /// Strata that fall short of the policy but match some tuples.
    pub fn under_supported_len(&self) -> usize {
        self.under_supported.len()
    }

    /// Strata with zero matching tuples.
    pub fn empty_len(&self) -> usize {
        self.empty.len()
    }

    /// Keys of the under-supported strata in key order, read from
    /// `groups`: the answer this report was made for.
    pub fn under_supported_keys<'a>(
        &'a self,
        groups: &'a Groups,
    ) -> impl ExactSizeIterator<Item = GroupKey> + 'a {
        Self::keys(&self.under_supported, groups)
    }

    /// Keys of the empty strata in key order, read from `groups`: the
    /// answer this report was made for.
    pub fn empty_keys<'a>(
        &'a self,
        groups: &'a Groups,
    ) -> impl ExactSizeIterator<Item = GroupKey> + 'a {
        Self::keys(&self.empty, groups)
    }

    fn keys<'a>(
        positions: &'a [u32],
        groups: &'a Groups,
    ) -> impl ExactSizeIterator<Item = GroupKey> + 'a {
        positions
            .iter()
            .map(|&i| GroupKey::new(groups.get(i as usize).key))
    }

    /// Every stratum validated (the §5.2.3 probe confirmed the short ones).
    pub(crate) fn mark_supported(&mut self) {
        self.supported += self.under_supported.len() + self.empty.len();
        self.under_supported.clear();
        self.empty.clear();
    }

    /// Compare each stratum's matching-tuple count against the policy:
    /// `matching[i]` is the count of the answer's group `i`. One pass; both
    /// position lists come out ascending, and stay unallocated when no
    /// stratum is short.
    pub(crate) fn classify(matching: &[usize], policy: &SupportPolicy) -> Self {
        let min = policy.min_rows_per_stratum;
        let mut report = SupportReport {
            supported: 0,
            under_supported: Vec::new(),
            empty: Vec::new(),
        };
        for (i, &m) in matching.iter().enumerate() {
            match m {
                0 => report.empty.push(i as u32),
                m if m < min => report.under_supported.push(i as u32),
                _ => report.supported += 1,
            }
        }
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

    #[test]
    fn strata_in_key_order_classify_into_sorted_lists() {
        // Two-part keys in key order, every class present: the keys come
        // out as sorting them would leave them. With no short stratum the
        // position lists allocate nothing.
        let mut rng = Lehmer64::new(3);
        let keys: Vec<GroupKey> = (0..500)
            .map(|i| GroupKey::new(&[i / 7, i % 7 - 3]))
            .collect();
        let counts: Vec<usize> = keys.iter().map(|_| rng.next_below(45) as usize).collect();
        let mut groups = Groups::default();
        for (key, &m) in keys.iter().zip(&counts) {
            groups.push(key.parts(), std::iter::empty(), m);
        }
        let report = SupportReport::classify(groups.matching(), &SupportPolicy::default());
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
        assert_eq!(
            report.empty_keys(&groups).collect::<Vec<_>>(),
            class(|m| m == 0)
        );
        assert_eq!(
            report.under_supported_keys(&groups).collect::<Vec<_>>(),
            class(|m| m > 0 && m < 30)
        );
        assert_eq!(
            report.supported,
            matching.iter().filter(|(_, m)| *m >= 30).count()
        );
        let supported = SupportReport::classify(&[30, 31, 400], &SupportPolicy::default());
        assert_eq!(supported.supported, 3);
        assert_eq!(supported.empty.capacity(), 0);
        assert_eq!(supported.under_supported.capacity(), 0);
    }
}
