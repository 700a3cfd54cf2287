//! Sample descriptors: the metadata that makes a materialized sample
//! *malleable and reusable* (paper §5).
//!
//! For each sample LAQy records the **Query Input** (the logical sampler
//! input — base table or join subtree with its fixed predicates), the
//! **QCS** (stratification columns), the **QVS** (payload/value columns),
//! the **Query Predicate** (per-column interval coverage), and the
//! reservoir capacity `k`. Matching these descriptors is what Algorithm 1
//! dispatches on.

use std::collections::BTreeMap;

use crate::interval::IntervalSet;

/// Per-column predicate coverage: a conjunction of interval constraints.
/// Columns absent from the map are unconstrained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicates {
    map: BTreeMap<String, IntervalSet>,
}

impl Predicates {
    /// No constraints (covers everything).
    pub fn none() -> Self {
        Self::default()
    }

    /// Single-column constraint.
    pub fn on(column: impl Into<String>, set: impl Into<IntervalSet>) -> Self {
        let mut map = BTreeMap::new();
        map.insert(column.into(), set.into());
        Self { map }
    }

    /// Add/replace a column constraint (builder style).
    pub fn with(mut self, column: impl Into<String>, set: impl Into<IntervalSet>) -> Self {
        self.map.insert(column.into(), set.into());
        self
    }

    /// The constraint on a column, if any.
    pub fn get(&self, column: &str) -> Option<&IntervalSet> {
        self.map.get(column)
    }

    /// Constrained columns in sorted order.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(|s| s.as_str())
    }

    /// `(column, constraint)` pairs in sorted column order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &IntervalSet)> {
        self.map.iter().map(|(col, set)| (col.as_str(), set))
    }

    /// Number of constrained columns.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no column is constrained.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if any constrained column has an empty coverage set (the
    /// predicate matches nothing).
    pub fn is_unsatisfiable(&self) -> bool {
        self.map.values().any(|s| s.is_empty())
    }

    /// True if every row matching `other` also matches `self`: for each
    /// column `self` constrains, `other` must constrain it at least as
    /// tightly.
    pub fn subsumes(&self, other: &Predicates) -> bool {
        self.map.iter().all(|(col, mine)| {
            other
                .get(col)
                .map(|theirs| mine.subsumes(theirs))
                .unwrap_or(false)
        })
    }

    /// True if some row can match both predicate sets (per-column
    /// intersections are all non-empty).
    pub fn overlaps(&self, other: &Predicates) -> bool {
        self.map.iter().all(|(col, mine)| {
            other
                .get(col)
                .map(|theirs| mine.overlaps(theirs))
                .unwrap_or(true)
        })
    }

    /// Conjunction (intersection) of two predicate boxes: each column
    /// takes the intersection of its constraints; columns constrained by
    /// only one side carry over unchanged. `None` if the result is empty
    /// (some shared column has no common point, or a side is already
    /// unsatisfiable).
    pub fn intersect(&self, other: &Predicates) -> Option<Predicates> {
        if self.is_unsatisfiable() || other.is_unsatisfiable() {
            return None;
        }
        let mut map = self.map.clone();
        for (col, theirs) in &other.map {
            let merged = match map.get(col) {
                Some(mine) => {
                    let m = mine.intersect(theirs);
                    if m.is_empty() {
                        return None;
                    }
                    m
                }
                None => theirs.clone(),
            };
            map.insert(col.clone(), merged);
        }
        Some(Predicates { map })
    }

    /// Measure of the conjunction box: the product of per-column
    /// interval-set measures over the constrained columns (`u128` so that
    /// multi-column products cannot overflow). The empty conjunction has
    /// measure 1 — callers compare boxes constrained on the same column
    /// set relative to a common query universe, where the ratio of
    /// measures is the uncovered fraction regardless of the unconstrained
    /// dimensions' extents.
    pub fn box_measure(&self) -> u128 {
        self.map.values().map(|s| s.measure() as u128).product()
    }

    /// Subtract the box `other` from the box `self`, returning
    /// pairwise-disjoint boxes that cover exactly `self \ other` — the
    /// generalization of [`Predicates::delta_against`] to several varying
    /// columns. The classic sequential-splitting decomposition: the piece
    /// for column `i` constrains earlier columns to `self ∩ other`, column
    /// `i` to `self − other`, and later columns to `self`'s extent.
    ///
    /// Columns `other` leaves unconstrained cover their full extent, so
    /// they never yield a remainder slice. Columns `other` constrains but
    /// `self` does not would make the remainder unbounded — callers must
    /// restrict both boxes to a common universe first (debug-asserted).
    pub fn subtract(&self, other: &Predicates) -> Vec<Predicates> {
        debug_assert!(
            other.map.keys().all(|c| self.map.contains_key(c)),
            "subtract requires other's columns ⊆ self's columns"
        );
        let Some(common) = self.intersect(other) else {
            // Disjoint boxes: nothing is removed.
            return vec![self.clone()];
        };
        let mut out = Vec::new();
        for col in self.map.keys() {
            let Some(theirs) = other.get(col) else {
                continue;
            };
            let diff = self.map[col].difference(theirs);
            if diff.is_empty() {
                continue;
            }
            let mut piece = BTreeMap::new();
            let mut before = true;
            for (c, s) in &self.map {
                if c == col {
                    piece.insert(c.clone(), diff.clone());
                    before = false;
                } else if before {
                    let both = common.get(c).expect("intersection has self's columns");
                    piece.insert(c.clone(), both.clone());
                } else {
                    piece.insert(c.clone(), s.clone());
                }
            }
            out.push(Predicates { map: piece });
        }
        out
    }

    /// Compute the **Δ predicate** of `self` (the query) against `other`
    /// (the stored sample) — paper §5.2.2.
    ///
    /// The decomposition is valid only when the two predicates differ on
    /// exactly one column (all other constraints identical): then
    /// `rows(query) \ rows(sample)` factors as the same conjunction with
    /// the differing column restricted to `query_set − sample_set`. If the
    /// predicates differ on several columns the uncovered region is not a
    /// conjunctive box, so partial reuse is declined (`None`) and the
    /// caller falls back to online sampling.
    ///
    /// Returns `Some((delta, varying_column))`; `delta` is empty when the
    /// sample already subsumes the query.
    pub fn delta_against(&self, other: &Predicates) -> Option<(Predicates, String)> {
        // The sample must not constrain columns the query leaves free
        // (otherwise the sample misses rows everywhere in that dimension).
        let mut varying: Option<&str> = None;
        for (col, sample_set) in &other.map {
            let Some(query_set) = self.get(col) else {
                // Query is unconstrained on a column the sample filtered:
                // the uncovered region spans the whole other dimension;
                // only recoverable if this is the single varying column and
                // the query's "set" were the full domain — unknown here, so
                // decline.
                return None;
            };
            if !sample_set.subsumes(query_set) {
                match varying {
                    None => varying = Some(col),
                    Some(_) => return None, // differs on ≥ 2 columns
                }
            }
        }
        // Columns constrained by the query but not the sample tighten the
        // query relative to coverage — fine (handled as tightening), not a
        // coverage gap.
        let varying = match varying {
            Some(v) => v.to_string(),
            None => {
                // Fully subsumed: empty delta on an arbitrary (first) column.
                let col = self
                    .map
                    .keys()
                    .next()
                    .cloned()
                    .unwrap_or_else(|| "<none>".to_string());
                return Some((
                    Predicates {
                        map: BTreeMap::new(),
                    },
                    col,
                ));
            }
        };
        // All *other* shared constraints must be identical for the union
        // coverage of (sample ∪ delta) to stay a conjunctive box.
        for (col, sample_set) in &other.map {
            if col != &varying && self.get(col) != Some(sample_set) {
                return None;
            }
        }
        let query_set = self.get(&varying).expect("varying column is constrained");
        let sample_set = other.get(&varying).expect("varying column in sample");
        let delta_set = query_set.difference(sample_set);
        let mut delta = self.clone();
        delta.map.insert(varying.clone(), delta_set);
        Some((delta, varying))
    }

    /// Union coverage along one column (used after merging a Δ sample into
    /// a stored sample: the merged sample covers both predicates).
    pub fn union_on(&self, column: &str, other: &Predicates) -> Predicates {
        let mut out = self.clone();
        let merged = match (self.get(column), other.get(column)) {
            (Some(a), Some(b)) => a.union(b),
            (Some(a), None) => a.clone(),
            (None, Some(b)) => b.clone(),
            (None, None) => return out,
        };
        out.map.insert(column.to_string(), merged);
        out
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

    /// True if a sample with descriptor `self` has the QCS/QVS/input/k
    /// required by a query with descriptor `query` (predicates are judged
    /// separately). The sample's QVS may be a superset of the query's.
    pub fn matches_characteristics(&self, query: &SampleDescriptor) -> bool {
        self.input == query.input
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
    fn subsumption_per_column() {
        let sample = Predicates::on("x", iv(0, 100));
        let query = Predicates::on("x", iv(10, 20));
        assert!(sample.subsumes(&query));
        assert!(!query.subsumes(&sample));
        // Query additionally constrained on y: still subsumed (stricter).
        let query2 = Predicates::on("x", iv(10, 20)).with("y", iv(0, 5));
        assert!(sample.subsumes(&query2));
        // Sample constrained on y but query not ⇒ not subsumed.
        let sample2 = Predicates::on("x", iv(0, 100)).with("y", iv(0, 5));
        assert!(!sample2.subsumes(&query));
    }

    #[test]
    fn overlap_detection() {
        let a = Predicates::on("x", iv(0, 10));
        let b = Predicates::on("x", iv(5, 20));
        let c = Predicates::on("x", iv(11, 20));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        // Different columns: conjunction can still be satisfied.
        let d = Predicates::on("y", iv(0, 1));
        assert!(a.overlaps(&d));
    }

    #[test]
    fn delta_single_varying_column() {
        let sample = Predicates::on("x", iv(0, 49));
        let query = Predicates::on("x", iv(0, 99));
        let (delta, varying) = query.delta_against(&sample).unwrap();
        assert_eq!(varying, "x");
        assert_eq!(delta.get("x").unwrap(), &iv(50, 99));
    }

    #[test]
    fn delta_empty_when_subsumed() {
        let sample = Predicates::on("x", iv(0, 100));
        let query = Predicates::on("x", iv(25, 75));
        let (delta, _) = query.delta_against(&sample).unwrap();
        assert!(delta.is_empty() || delta.get("x").map(|s| s.is_empty()).unwrap_or(true));
    }

    #[test]
    fn delta_declined_for_two_varying_columns() {
        let sample = Predicates::on("x", iv(0, 10)).with("y", iv(0, 10));
        let query = Predicates::on("x", iv(0, 20)).with("y", iv(0, 20));
        assert!(query.delta_against(&sample).is_none());
    }

    #[test]
    fn delta_declined_when_other_columns_differ() {
        // x varies; y differs (query tighter on y). The union coverage
        // would not be a box, so decline.
        let sample = Predicates::on("x", iv(0, 10)).with("y", iv(0, 10));
        let query = Predicates::on("x", iv(0, 20)).with("y", iv(0, 5));
        assert!(query.delta_against(&sample).is_none());
    }

    #[test]
    fn delta_declined_when_query_unconstrained_on_sample_column() {
        let sample = Predicates::on("x", iv(0, 10));
        let query = Predicates::none();
        assert!(query.delta_against(&sample).is_none());
    }

    #[test]
    fn delta_with_identical_fixed_columns() {
        let sample = Predicates::on("x", iv(0, 10)).with("region", iv(3, 3));
        let query = Predicates::on("x", iv(5, 30)).with("region", iv(3, 3));
        let (delta, varying) = query.delta_against(&sample).unwrap();
        assert_eq!(varying, "x");
        assert_eq!(delta.get("x").unwrap(), &iv(11, 30));
        assert_eq!(delta.get("region").unwrap(), &iv(3, 3));
    }

    #[test]
    fn intersect_takes_per_column_meets() {
        let a = Predicates::on("x", iv(0, 10)).with("y", iv(0, 5));
        let b = Predicates::on("x", iv(5, 20)).with("z", iv(1, 2));
        let m = a.intersect(&b).unwrap();
        assert_eq!(m.get("x").unwrap(), &iv(5, 10));
        assert_eq!(m.get("y").unwrap(), &iv(0, 5));
        assert_eq!(m.get("z").unwrap(), &iv(1, 2));
        // Empty meet on a shared column ⇒ None.
        let c = Predicates::on("x", iv(50, 60));
        assert!(a.intersect(&c).is_none());
        assert!(a
            .intersect(&Predicates::on("x", IntervalSet::empty()))
            .is_none());
    }

    #[test]
    fn box_measure_is_product_of_widths() {
        let b = Predicates::on("x", iv(0, 9)).with("y", iv(0, 4));
        assert_eq!(b.box_measure(), 50);
        assert_eq!(Predicates::none().box_measure(), 1);
        // Large single-column sets do not overflow the product.
        let wide = Predicates::on("x", iv(0, i64::MAX - 1)).with("y", iv(0, i64::MAX - 1));
        assert!(wide.box_measure() > u64::MAX as u128);
    }

    #[test]
    fn subtract_splits_into_disjoint_boxes() {
        // [0,9]×[0,9] minus its centre [3,6]×[3,6]: an L-shaped frame of
        // two slices (x-split first since columns iterate in order).
        let a = Predicates::on("x", iv(0, 9)).with("y", iv(0, 9));
        let b = Predicates::on("x", iv(3, 6)).with("y", iv(3, 6));
        let pieces = a.subtract(&b);
        assert_eq!(pieces.len(), 2);
        // Measures add up: 100 − 16 = 84.
        let total: u128 = pieces.iter().map(|p| p.box_measure()).sum();
        assert_eq!(total, 84);
        // Pieces are pairwise disjoint and disjoint from `b`.
        for (i, p) in pieces.iter().enumerate() {
            assert!(p.intersect(&b).is_none(), "piece {i} overlaps subtrahend");
            for q in pieces.iter().skip(i + 1) {
                assert!(p.intersect(q).is_none(), "pieces overlap");
            }
        }
    }

    #[test]
    fn subtract_disjoint_returns_self() {
        let a = Predicates::on("x", iv(0, 9));
        let b = Predicates::on("x", iv(20, 30));
        assert_eq!(a.subtract(&b), vec![a.clone()]);
    }

    #[test]
    fn subtract_subsumed_returns_empty() {
        let a = Predicates::on("x", iv(2, 5)).with("y", iv(1, 3));
        let b = Predicates::on("x", iv(0, 10)).with("y", iv(0, 5));
        assert!(a.subtract(&b).is_empty());
        // A column `other` leaves unconstrained covers its full extent.
        let c = Predicates::on("x", iv(0, 10));
        assert!(a.subtract(&c).is_empty());
    }

    #[test]
    fn subtract_matches_single_column_difference() {
        let a = Predicates::on("x", iv(0, 99));
        let b = Predicates::on("x", iv(0, 49));
        let pieces = a.subtract(&b);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].get("x").unwrap(), &iv(50, 99));
    }

    #[test]
    fn union_on_extends_coverage() {
        let a = Predicates::on("x", iv(0, 10));
        let b = Predicates::on("x", iv(11, 20));
        let u = a.union_on("x", &b);
        assert_eq!(u.get("x").unwrap(), &iv(0, 20));
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
            Predicates::none(),
            1000,
        );
        assert!(!d1.matches_characteristics(&d3));
    }

    #[test]
    fn unsatisfiable_predicates() {
        let p = Predicates::on("x", IntervalSet::empty());
        assert!(p.is_unsatisfiable());
        assert!(!Predicates::on("x", iv(0, 1)).is_unsatisfiable());
    }
}
