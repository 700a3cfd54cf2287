//! Sample descriptors: the metadata that makes a materialized sample
//! *malleable and reusable* (paper §5).
//!
//! For each sample LAQy records the **Query Input** (the logical sampler
//! input — base table or join subtree with its fixed predicates), the
//! **QCS** (stratification columns), the **QVS** (payload/value columns),
//! the **Query Predicate** (one interval set on the column a sequence
//! explores, §5.2.2), and the reservoir capacity `k`. Matching these
//! descriptors is what Algorithm 1 dispatches on. Every coverage
//! operation — subsumption, Δ, union — is then [`IntervalSet`] algebra on
//! that one column.

use crate::interval::IntervalSet;

/// A sample's Query Predicate: the interval set it covers on one column,
/// the query's range column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicates {
    /// The constrained column.
    pub column: String,
    /// Its coverage.
    pub set: IntervalSet,
}

impl Predicates {
    /// Coverage `set` on `column`.
    pub fn on(column: impl Into<String>, set: impl Into<IntervalSet>) -> Self {
        Self {
            column: column.into(),
            set: set.into(),
        }
    }

    /// The constraint on `column`: `Some` only for the predicate's own.
    pub fn get(&self, column: &str) -> Option<&IntervalSet> {
        (self.column == column).then_some(&self.set)
    }

    /// True if every row matching `other` also matches `self`: both
    /// constrain the same column and `self`'s set holds `other`'s.
    pub fn subsumes(&self, other: &Predicates) -> bool {
        self.column == other.column && self.set.subsumes(&other.set)
    }
}

/// The identity and coverage of one materialized sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleDescriptor {
    /// Logical sampler input: a canonical string naming the base relation
    /// or join subtree (with its fixed predicates) the sampler consumed.
    pub input: String,
    /// Query Column Set — stratification key columns (sorted).
    pub qcs: Vec<String>,
    /// Query Value Set — payload columns carried per sampled tuple
    /// (sorted).
    pub qvs: Vec<String>,
    /// Predicate coverage of the sample.
    pub predicates: Predicates,
    /// Per-stratum reservoir capacity.
    pub k: usize,
}

impl SampleDescriptor {
    /// Build a descriptor, normalizing column order.
    pub fn new(
        input: impl Into<String>,
        mut qcs: Vec<String>,
        mut qvs: Vec<String>,
        predicates: Predicates,
        k: usize,
    ) -> Self {
        qcs.sort();
        qvs.sort();
        Self {
            input: input.into(),
            qcs,
            qvs,
            predicates,
            k,
        }
    }

    /// Sample-characteristics fingerprint: two descriptors with the same
    /// fingerprint differ at most in predicate coverage, which is exactly
    /// the axis Algorithm 1 relaxes.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        // A star plan's input runs to hundreds of bytes: size it once.
        let (qcs, qvs) = (self.qcs.join(","), self.qvs.join(","));
        let mut fp = String::with_capacity(self.input.len() + qcs.len() + qvs.len() + 32);
        let _ = write!(fp, "{}|qcs={qcs}|qvs={qvs}|k={}", self.input, self.k);
        fp
    }

    /// True if a sample with descriptor `self` has the input, range
    /// column, QCS, QVS and k required by a query with descriptor `query`
    /// (coverage on that column is judged separately). The sample's QVS
    /// may be a superset of the query's.
    pub fn matches_characteristics(&self, query: &SampleDescriptor) -> bool {
        self.input == query.input
            && self.predicates.column == query.predicates.column
            && self.qcs == query.qcs
            && self.k == query.k
            && query.qvs.iter().all(|c| self.qvs.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn iv(lo: i64, hi: i64) -> IntervalSet {
        IntervalSet::of(Interval::new(lo, hi))
    }

    #[test]
    fn subsumption_is_on_one_column() {
        let sample = Predicates::on("x", iv(0, 100));
        let query = Predicates::on("x", iv(10, 20));
        assert!(sample.subsumes(&query));
        assert!(!query.subsumes(&sample));
        // The same set on another column covers none of the query's rows.
        assert!(!Predicates::on("y", iv(0, 100)).subsumes(&query));
        assert_eq!(sample.get("x"), Some(&iv(0, 100)));
        assert_eq!(sample.get("y"), None);
    }

    #[test]
    fn descriptor_fingerprint_and_matching() {
        let d1 = SampleDescriptor::new(
            "lineorder",
            vec!["lo_orderdate".into()],
            vec!["lo_revenue".into(), "lo_intkey".into()],
            Predicates::on("lo_intkey", iv(0, 999)),
            1000,
        );
        let d2 = SampleDescriptor::new(
            "lineorder",
            vec!["lo_orderdate".into()],
            vec!["lo_intkey".into()],
            Predicates::on("lo_intkey", iv(500, 1500)),
            1000,
        );
        // Same input/qcs/k; d1's QVS superset of d2's ⇒ d1 can serve d2.
        assert!(d1.matches_characteristics(&d2));
        // But not the reverse.
        assert!(!d2.matches_characteristics(&d1));
        assert_ne!(d1.fingerprint(), d2.fingerprint());
        for d in [&d1, &d2] {
            let (qcs, qvs) = (d.qcs.join(","), d.qvs.join(","));
            let spelled = format!("{}|qcs={qcs}|qvs={qvs}|k={}", d.input, d.k);
            assert_eq!(
                d.fingerprint(),
                spelled,
                "in-flight claim keys embed these bytes"
            );
        }

        let d3 = SampleDescriptor::new(
            "lineorder",
            vec!["lo_quantity".into()],
            vec!["lo_revenue".into()],
            Predicates::on("lo_intkey", iv(0, 999)),
            1000,
        );
        assert!(!d1.matches_characteristics(&d3));
        // A sample over another range column serves no query over this one.
        let mut d4 = d1.clone();
        d4.predicates = Predicates::on("lo_orderkey", iv(0, 999));
        assert!(!d4.matches_characteristics(&d2));
        assert_eq!(d4.fingerprint(), d1.fingerprint());
    }
}
