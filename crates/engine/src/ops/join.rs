//! Hash joins for star-schema plans.
//!
//! Dimension tables build compact key → row maps (optionally pre-filtered
//! by a dimension predicate); the fact side probes all maps per tuple,
//! most selective first, and keeps only fully-matching rows; a
//! [`JoinFilter`] remembers which fact rows join, and with what dimension
//! rows, so a later probe of them reads no key. The paper's Q2 places
//! the sampler above this operator, so the join's random-access cost is
//! what a reduced Δ input saves (Figures 12b/14b).

use crate::column::ResolvedCol;
use crate::error::{EngineError, Result};
use crate::expr::Predicate;
use crate::hash::FxHashMap;
use crate::ops::filter::PreparedScan;
use crate::synopsis::PruneCounts;
use crate::table::Table;

/// Most dimensions one star probe joins: the probe keeps a fact row's
/// matched dimension rows in a fixed array of this length.
pub const MAX_JOINS: usize = 8;

/// A build-side hash map from join key to dimension row id. Dimension
/// keys are unique: construction fails on a repeated key.
#[derive(Debug, Clone)]
pub struct JoinMap {
    map: FxHashMap<i64, u32>,
    /// Rows of the dimension the map was built from.
    dim_rows: usize,
}

impl JoinMap {
    /// Probe one key.
    #[inline]
    pub fn get(&self, key: i64) -> Option<u32> {
        self.map.get(&key).copied()
    }

    /// Share of the dimension's rows the map kept: the share of fact rows
    /// a probe is expected to let through.
    pub fn pass_share(&self) -> f64 {
        self.map.len() as f64 / self.dim_rows.max(1) as f64
    }
}

/// Build a join map over the dimension rows matching `predicate`, found
/// by the same pruned walk every fact scan takes. Two qualifying rows
/// with one key are an error: a fact row would join both.
pub fn build_join_map(dim: &Table, key_column: &str, predicate: &Predicate) -> Result<JoinMap> {
    let rows = PreparedScan::new(dim, predicate)?
        .scan_pruned(0..dim.num_rows(), &mut PruneCounts::default());
    let key_col = dim.column(key_column)?;
    key_col.check_int(key_column)?;
    let key = ResolvedCol::from_column(key_col);
    let mut map = FxHashMap::default();
    map.reserve(rows.len());
    for r in rows {
        let k = key.i64(r as usize);
        if map.insert(k, r).is_some() {
            return Err(EngineError::DuplicateKey {
                table: dim.name().to_string(),
                key: k,
            });
        }
    }
    Ok(JoinMap {
        map,
        dim_rows: dim.num_rows(),
    })
}

/// Output of a star-schema probe: aligned row-id vectors for the fact table
/// and each joined dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarJoinOutput {
    /// Fact rows that matched every dimension.
    pub fact_rows: Vec<u32>,
    /// Matched dimension rows, one vector per probe, aligned with
    /// `fact_rows`.
    pub dim_rows: Vec<Vec<u32>>,
}

impl StarJoinOutput {
    /// No rows yet, for a star of `joins` probes.
    pub fn new(joins: usize) -> Self {
        Self {
            fact_rows: Vec::new(),
            dim_rows: vec![Vec::new(); joins],
        }
    }

    /// Drop every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.fact_rows.clear();
        self.dim_rows.iter_mut().for_each(Vec::clear);
    }

    /// Append fact row `row` and its dimension rows, in probe order.
    #[inline]
    fn push(&mut self, row: u32, dims: &[u32]) {
        self.fact_rows.push(row);
        for (out, &d) in self.dim_rows.iter_mut().zip(dims) {
            out.push(d);
        }
    }
}

/// A star probe prepared once for a fact table: the maps, their fact key
/// columns resolved, and the order the maps are tried in. A Δ prepares one
/// and every morsel probes through it.
pub struct StarProbe<'a> {
    maps: Vec<&'a JoinMap>,
    keys: Vec<ResolvedCol<'a>>,
    order: Vec<usize>,
}

impl<'a> StarProbe<'a> {
    /// `probes` (`(map, fact key column)` pairs) against `fact`, tried in
    /// ascending [`JoinMap::pass_share`], so most rows fail at their first
    /// probe; the output is the same in any order. More than
    /// [`MAX_JOINS`] probes is an error.
    pub fn new(fact: &'a Table, probes: &[(&'a JoinMap, &str)]) -> Result<Self> {
        let share = |i: usize| probes[i].0.pass_share();
        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by(|&a, &b| share(a).total_cmp(&share(b)));
        Self::in_order(fact, probes, order)
    }

    /// [`StarProbe::new`], trying the maps in `order` (a permutation of
    /// the probe indices). `dim_rows` stays aligned with `probes`, whatever
    /// the order.
    pub fn in_order(
        fact: &'a Table,
        probes: &[(&'a JoinMap, &str)],
        order: Vec<usize>,
    ) -> Result<Self> {
        if probes.len() > MAX_JOINS {
            return Err(too_many_joins(probes.len()));
        }
        let mut keys = Vec::with_capacity(probes.len());
        for (_, col) in probes {
            let c = fact.column(col)?;
            c.check_int(col)?;
            keys.push(ResolvedCol::from_column(c));
        }
        let maps = probes.iter().map(|&(map, _)| map).collect();
        Ok(Self { maps, keys, order })
    }

    /// Probes per row.
    pub fn joins(&self) -> usize {
        self.maps.len()
    }

    /// Append the rows of `selection` that match every map to `out`, in
    /// selection order, with their dimension rows.
    pub fn probe(&self, selection: impl IntoIterator<Item = u32>, out: &mut StarJoinOutput) {
        let (maps, keys, order) = (&self.maps[..], &self.keys[..], &self.order[..]);
        'rows: for r in selection {
            let mut matched = [0u32; MAX_JOINS];
            for &i in order {
                match maps[i].get(keys[i].i64(r as usize)) {
                    Some(d) => matched[i] = d,
                    None => continue 'rows,
                }
            }
            out.push(r, &matched);
        }
    }
}

/// Probe a selection of fact rows against a set of `(map, fact key column)`
/// pairs: [`StarProbe::new`] and one [`StarProbe::probe`]. Rows must match
/// every map to survive. More than [`MAX_JOINS`] probes is an error.
pub fn star_probe(
    fact: &Table,
    selection: &[u32],
    probes: &[(&JoinMap, &str)],
) -> Result<StarJoinOutput> {
    let mut out = StarJoinOutput::new(probes.len());
    StarProbe::new(fact, probes)?.probe(selection.iter().copied(), &mut out);
    Ok(out)
}

/// One bit per row of a fact-table prefix `0..rows`, set when the row
/// joins every map of a star: exact while the dimensions stay the same.
/// Beside the bits, a join index: each joining row's dimension rows, by
/// rank (the joining rows before it), so a probe of a row inside the
/// prefix reads no fact key and probes no map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinFilter {
    bits: Vec<u64>,
    /// Per word of `bits`, the set bits before it.
    ranks: Vec<u32>,
    /// Per joining row in rank order, its dimension rows in probe order:
    /// `width` apiece.
    dims: Vec<u32>,
    width: usize,
    rows: usize,
}

impl JoinFilter {
    /// Fact rows the filter covers: `0..rows`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cover `0..rows`, adding `joined`: the rows past the old prefix that
    /// join, ascending, with their dimension rows (a probe's output).
    pub fn extend(&mut self, rows: usize, joined: &StarJoinOutput) {
        let from = self.rows;
        if self.dims.is_empty() {
            self.width = joined.dim_rows.len();
        }
        assert_eq!(joined.dim_rows.len(), self.width, "a star's probes");
        assert!(joined
            .dim_rows
            .iter()
            .all(|d| d.len() == joined.fact_rows.len()));
        self.rows = from.max(rows);
        self.bits.resize(self.rows.div_ceil(64), 0);
        let mut next = from;
        for (i, &r) in joined.fact_rows.iter().enumerate() {
            let r = r as usize;
            // Ranks follow row order, so the rows must come ascending.
            assert!(
                next <= r && r < self.rows,
                "row {r} outside {next}..{}",
                self.rows
            );
            next = r + 1;
            self.bits[r / 64] |= 1 << (r % 64);
            self.dims.extend(joined.dim_rows.iter().map(|d| d[i]));
        }
        // Ranks change from the word holding the old prefix's end on.
        let first = from / 64;
        self.ranks.truncate(first);
        let mut rank = match first {
            0 => 0,
            w => self.ranks[w - 1] + self.bits[w - 1].count_ones(),
        };
        for word in &self.bits[first..] {
            self.ranks.push(rank);
            rank += word.count_ones();
        }
    }

    /// Whether `row` may join: its bit, or past the prefix, yes.
    #[inline]
    pub(crate) fn keeps(&self, row: usize) -> bool {
        row >= self.rows || self.bits[row / 64] >> (row % 64) & 1 == 1
    }

    /// Drop the selected rows known to join nothing; rows past the prefix
    /// stay for the probe to decide.
    pub fn retain(&self, selection: &mut Vec<u32>) {
        selection.retain(|&r| self.keeps(r as usize));
    }

    /// [`StarProbe::probe`] of `selection`, appended to `out`: a row inside
    /// the prefix reads its dimension rows from the join index, or is
    /// dropped when its bit is clear, and a row past the prefix is probed.
    /// The rows, their order and their dimension rows are the probe's.
    /// `probe` must be over the maps the filter was built from.
    pub fn probe(&self, probe: &StarProbe<'_>, selection: &[u32], out: &mut StarJoinOutput) {
        assert!(self.dims.is_empty() || self.width == probe.joins());
        for &r in selection {
            let row = r as usize;
            if row >= self.rows {
                probe.probe([r], out);
                continue;
            }
            let (word, bit) = (self.bits[row / 64], row % 64);
            if word >> bit & 1 == 1 {
                let below = (word & ((1 << bit) - 1)).count_ones();
                let rank = (self.ranks[row / 64] + below) as usize;
                out.push(r, &self.dims[rank * self.width..][..self.width]);
            }
        }
    }
}

/// The error for a plan joining `n` > [`MAX_JOINS`] dimensions.
pub(crate) fn too_many_joins(n: usize) -> EngineError {
    EngineError::InvalidPlan(format!(
        "{n} joins exceed the {MAX_JOINS} a star probe holds"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, Column};

    fn dim() -> Table {
        Table::new(
            "d",
            vec![
                ("key".into(), Column::Int64(vec![10, 20, 30, 40])),
                ("region".into(), dict_column(["A", "B", "A", "C"])),
            ],
        )
        .unwrap()
    }

    fn fact() -> Table {
        Table::new(
            "f",
            vec![
                ("fk".into(), Column::Int64(vec![10, 20, 99, 30, 40, 10])),
                ("v".into(), Column::Int64(vec![1, 2, 3, 4, 5, 6])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_map_full() {
        let m = build_join_map(&dim(), "key", &Predicate::True).unwrap();
        assert_eq!(m.pass_share(), 1.0);
        assert_eq!(m.get(20), Some(1));
        assert_eq!(m.get(99), None);
    }

    #[test]
    fn build_map_with_dimension_predicate() {
        let m = build_join_map(&dim(), "key", &Predicate::eq_str("region", "A")).unwrap();
        assert_eq!(m.pass_share(), 0.5);
        assert!(m.get(10).is_some());
        assert!(m.get(20).is_none());
    }

    #[test]
    fn probe_keeps_only_matches() {
        let d = dim();
        let f = fact();
        let m = build_join_map(&d, "key", &Predicate::True).unwrap();
        let sel: Vec<u32> = (0..f.num_rows() as u32).collect();
        let out = star_probe(&f, &sel, &[(&m, "fk")]).unwrap();
        // Row 2 (fk=99) drops out.
        assert_eq!(out.fact_rows, vec![0, 1, 3, 4, 5]);
        assert_eq!(out.dim_rows[0], vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn probe_with_filtered_dimension() {
        let d = dim();
        let f = fact();
        let m = build_join_map(&d, "key", &Predicate::eq_str("region", "A")).unwrap();
        let sel: Vec<u32> = (0..f.num_rows() as u32).collect();
        let out = star_probe(&f, &sel, &[(&m, "fk")]).unwrap();
        assert_eq!(out.fact_rows, vec![0, 3, 5]);
    }

    #[test]
    fn multi_dimension_probe_requires_all() {
        let d1 = dim();
        let d2 = Table::new("d2", vec![("key".into(), Column::Int64(vec![1, 2]))]).unwrap();
        let f = Table::new(
            "f",
            vec![
                ("fk1".into(), Column::Int64(vec![10, 20, 30])),
                ("fk2".into(), Column::Int64(vec![1, 9, 2])),
            ],
        )
        .unwrap();
        let m1 = build_join_map(&d1, "key", &Predicate::True).unwrap();
        let m2 = build_join_map(&d2, "key", &Predicate::True).unwrap();
        let out = star_probe(&f, &[0, 1, 2], &[(&m1, "fk1"), (&m2, "fk2")]).unwrap();
        // Row 1 fails d2 (fk2=9).
        assert_eq!(out.fact_rows, vec![0, 2]);
        assert_eq!(out.dim_rows[1], vec![0, 1]);
    }

    #[test]
    fn probe_rejects_more_dimensions_than_it_holds() {
        let d = dim();
        let f = fact();
        let m = build_join_map(&d, "key", &Predicate::True).unwrap();
        let probes = vec![(&m, "fk"); MAX_JOINS + 1];
        assert!(star_probe(&f, &[0], &probes).is_err());
        let out = star_probe(&f, &[0, 2], &probes[..MAX_JOINS]).unwrap();
        assert_eq!(out.fact_rows, vec![0]);
    }

    #[test]
    fn a_repeated_dimension_key_is_an_error() {
        let d = Table::new("d", vec![("key".into(), Column::Int64(vec![1, 2, 1]))]).unwrap();
        let err = build_join_map(&d, "key", &Predicate::True).unwrap_err();
        assert!(
            matches!(err, EngineError::DuplicateKey { key: 1, .. }),
            "{err}"
        );
        // A repeat the dimension predicate filters out is no repeat.
        let keep = Predicate::between("key", 2, 2);
        assert_eq!(
            build_join_map(&d, "key", &keep).unwrap().pass_share(),
            1.0 / 3.0
        );
    }

    #[test]
    fn a_filter_keeps_joining_rows_and_rows_past_its_prefix() {
        let mut filter = JoinFilter::default();
        let joined = StarJoinOutput {
            fact_rows: vec![3, 65],
            dim_rows: vec![],
        };
        filter.extend(70, &joined);
        let mut sel: Vec<u32> = vec![0, 3, 64, 65, 69, 70, 200];
        filter.retain(&mut sel);
        assert_eq!(sel, vec![3, 65, 70, 200]);
    }

    #[test]
    fn probe_empty_selection() {
        let d = dim();
        let f = fact();
        let m = build_join_map(&d, "key", &Predicate::True).unwrap();
        let out = star_probe(&f, &[], &[(&m, "fk")]).unwrap();
        assert!(out.fact_rows.is_empty());
    }
}
