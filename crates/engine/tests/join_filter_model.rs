//! Property tests: the join filter and the selectivity-ordered star probe
//! ≡ probing every dimension in plan order.
//!
//! Over random star schemas — one to four dimensions, each with unique
//! keys in shuffled order, possibly empty, behind a random dimension
//! predicate, and a fact table grown by `append_batch` whose foreign keys
//! also miss every dimension — three things must hold:
//!
//! 1. a `JoinFilter` built morsel by morsel (any morsel size) sets exactly
//!    the bits of the fact rows plan-order probing keeps;
//! 2. `StarProbe::in_order` returns the same `fact_rows` and `dim_rows`
//!    under every probe order, and so does `star_probe`'s own order;
//! 3. a filter built over the table before an append and extended over
//!    the appended rows equals one built afresh, and a selection it
//!    filters probes to the same output as the unfiltered selection;
//! 4. the join index's probe (`JoinFilter::probe`: dimension rows by rank
//!    inside the prefix, the maps past it) of any sorted selection — one
//!    that crosses the prefix included — equals `star_probe`'s, for the
//!    filter built over any prefix and for one carried over an append.

use std::ops::Range;

use laqy_engine::ops::{
    build_join_map, star_probe, JoinFilter, JoinMap, StarJoinOutput, StarProbe,
};
use laqy_engine::{Column, Predicate, Table};
use proptest::prelude::*;

/// splitmix64 of (seed, salt, row): a value that depends on the row
/// only, whichever batch delivers it.
fn at(seed: u64, salt: u64, row: usize) -> u64 {
    let mut z = (seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Most rows a dimension holds; foreign keys range over twice as many
/// keys, so many of them dangle.
const DIM_ROWS: usize = 40;

/// A dimension: unique keys, a small tag column and the plan's predicate
/// over it.
#[derive(Debug, Clone)]
struct Dim {
    keys: Vec<i64>,
    tags: Vec<i64>,
    predicate: Predicate,
}

impl Dim {
    fn table(&self, name: &str) -> Table {
        let columns = vec![
            ("key".into(), Column::Int64(self.keys.clone())),
            ("tag".into(), Column::Int64(self.tags.clone())),
        ];
        Table::new(name, columns).unwrap()
    }
}

fn dims() -> impl Strategy<Value = Vec<Dim>> {
    let dim = (0..DIM_ROWS + 1, 0u8..4, 0i64..4, any::<u64>());
    let dim = dim.prop_map(|(rows, pick, v, seed)| {
        // Unique keys, shuffled by sorting on a per-row hash.
        let mut keys: Vec<i64> = (0..rows as i64).map(|i| 2 * i + v % 2).collect();
        keys.sort_by_key(|&k| at(seed, 7, k as usize));
        let predicate = match pick {
            0 => Predicate::True,
            1 => Predicate::EqInt {
                column: "tag".into(),
                value: v,
            },
            2 => Predicate::between("tag", v, 3),
            _ => Predicate::between("tag", 0, v),
        };
        Dim {
            keys,
            tags: (0..rows).map(|r| (at(seed, 8, r) % 4) as i64).collect(),
            predicate,
        }
    });
    prop::collection::vec(dim, 1..5)
}

/// Fact rows `rows`: one foreign key per dimension.
fn fact_rows(seed: u64, dims: usize, rows: Range<usize>) -> Vec<(String, Column)> {
    (0..dims)
        .map(|d| {
            let keys = rows
                .clone()
                .map(|r| (at(seed, d as u64, r) % (4 * DIM_ROWS as u64)) as i64);
            (format!("fk{d}"), Column::Int64(keys.collect()))
        })
        .collect()
}

/// The fact table before and after appending `batches` to `base` rows.
fn fact_versions(seed: u64, dims: usize, base: usize, batches: &[usize]) -> (Table, Table) {
    let before = Table::new("f", fact_rows(seed, dims, 0..base)).unwrap();
    let mut after = before.clone();
    let mut rows = base;
    for &added in batches {
        after = after
            .append_batch(&fact_rows(seed, dims, rows..rows + added))
            .unwrap();
        rows += added;
    }
    (before, after)
}

/// The filter over `fact`'s rows `from..`, extending `filter`, built one
/// `morsel` of rows at a time through `star_probe`.
fn extended(
    mut filter: JoinFilter,
    fact: &Table,
    probes: &[(&JoinMap, &str)],
    morsel: usize,
) -> JoinFilter {
    let (from, n) = (filter.rows(), fact.num_rows());
    let mut joined = StarJoinOutput::new(probes.len());
    for start in (from..n).step_by(morsel) {
        let rows: Vec<u32> = (start as u32..n.min(start + morsel) as u32).collect();
        let out = star_probe(fact, &rows, probes).unwrap();
        joined.fact_rows.extend(out.fact_rows);
        for (all, dim) in joined.dim_rows.iter_mut().zip(out.dim_rows) {
            all.extend(dim);
        }
    }
    filter.extend(n, &joined);
    filter
}

/// `selection` probed against `probes` in `order`.
fn probe_in(
    fact: &Table,
    selection: &[u32],
    probes: &[(&JoinMap, &str)],
    order: &[usize],
) -> StarJoinOutput {
    let mut out = StarJoinOutput::new(probes.len());
    let probe = StarProbe::in_order(fact, probes, order.to_vec()).unwrap();
    probe.probe(selection.iter().copied(), &mut out);
    out
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_join_filter_keeps_exactly_the_rows_that_join(
        dims in dims(),
        seed in any::<u64>(),
        base in 0usize..1_500,
        batches in prop::collection::vec(1usize..700, 0..3),
        morsel in 1usize..1_000,
        pick in any::<u64>(),
    ) {
        let tables: Vec<Table> =
            dims.iter().enumerate().map(|(d, dim)| dim.table(&format!("d{d}"))).collect();
        let maps: Vec<JoinMap> = dims
            .iter()
            .zip(&tables)
            .map(|(dim, t)| build_join_map(t, "key", &dim.predicate).unwrap())
            .collect();
        let fk: Vec<String> = (0..dims.len()).map(|d| format!("fk{d}")).collect();
        let probes: Vec<(&JoinMap, &str)> =
            maps.iter().zip(&fk).map(|(m, k)| (m, k.as_str())).collect();
        let (before, after) = fact_versions(seed, dims.len(), base, &batches);
        let n = after.num_rows();
        let all: Vec<u32> = (0..n as u32).collect();
        let plan_order: Vec<usize> = (0..dims.len()).collect();
        let reference = probe_in(&after, &all, &probes, &plan_order);

        // 1. The set bits are the rows plan-order probing keeps.
        let fresh = extended(JoinFilter::default(), &after, &probes, morsel);
        prop_assert_eq!(fresh.rows(), n);
        let mut kept = all.clone();
        fresh.retain(&mut kept);
        prop_assert_eq!(&kept, &reference.fact_rows);

        // 2. Every probe order, and the selectivity order, agree.
        for order in permutations(dims.len()) {
            let out = probe_in(&after, &all, &probes, &order);
            prop_assert_eq!(&out.fact_rows, &reference.fact_rows, "order {:?}", order);
            prop_assert_eq!(&out.dim_rows, &reference.dim_rows, "order {:?}", order);
        }
        let ordered = star_probe(&after, &all, &probes).unwrap();
        prop_assert_eq!(&ordered.fact_rows, &reference.fact_rows);
        prop_assert_eq!(&ordered.dim_rows, &reference.dim_rows);

        // 3. A prefix filter extended over the appended rows is the
        // fresh filter; before that, it filters a selection down to what
        // the probe keeps anyway.
        let prefix = extended(JoinFilter::default(), &before, &probes, morsel);
        let selection: Vec<u32> = all.iter().copied().filter(|&r| !at(pick, 9, r as usize).is_multiple_of(3)).collect();
        let mut filtered = selection.clone();
        prefix.retain(&mut filtered);
        let probed = star_probe(&after, &filtered, &probes).unwrap();
        let unfiltered = star_probe(&after, &selection, &probes).unwrap();
        prop_assert_eq!(&probed.fact_rows, &unfiltered.fact_rows);
        prop_assert_eq!(&probed.dim_rows, &unfiltered.dim_rows);
        prop_assert_eq!(extended(prefix, &after, &probes, morsel), fresh);
    }

    #[test]
    fn the_join_index_probes_like_the_maps(
        dims in dims(),
        seed in any::<u64>(),
        base in 0usize..1_500,
        batches in prop::collection::vec(1usize..700, 0..3),
        morsel in 1usize..1_000,
        prefix_pick in any::<u64>(),
        pick in any::<u64>(),
        density in 1u64..9,
    ) {
        let tables: Vec<Table> =
            dims.iter().enumerate().map(|(d, dim)| dim.table(&format!("d{d}"))).collect();
        let maps: Vec<JoinMap> = dims
            .iter()
            .zip(&tables)
            .map(|(dim, t)| build_join_map(t, "key", &dim.predicate).unwrap())
            .collect();
        let fk: Vec<String> = (0..dims.len()).map(|d| format!("fk{d}")).collect();
        let probes: Vec<(&JoinMap, &str)> =
            maps.iter().zip(&fk).map(|(m, k)| (m, k.as_str())).collect();
        let (before, after) = fact_versions(seed, dims.len(), base, &batches);
        let n = after.num_rows();
        let probe = StarProbe::new(&after, &probes).unwrap();
        // A selection sorted as a scan's, of a density of eighths, and the
        // table's last rows, which lie past any shorter prefix.
        let selection: Vec<u32> = (0..n as u32)
            .filter(|&r| at(pick, 9, r as usize) % 8 < density || r as usize + 3 >= n)
            .collect();
        let reference = star_probe(&after, &selection, &probes).unwrap();
        let through = |filter: &JoinFilter| {
            let mut out = StarJoinOutput::new(probes.len());
            filter.probe(&probe, &selection, &mut out);
            out
        };

        // Built over a prefix of the grown table: shorter than the table,
        // the table, or nothing.
        let prefix = match prefix_pick % 4 {
            0 => 0,
            1 => n,
            _ => (prefix_pick >> 2) as usize % (n + 1),
        };
        let inside: Vec<u32> = (0..prefix as u32).collect();
        let mut over_prefix = JoinFilter::default();
        over_prefix.extend(prefix, &star_probe(&after, &inside, &probes).unwrap());
        prop_assert_eq!(through(&over_prefix), reference.clone(), "prefix {}", prefix);

        // Built over the table before the append, as it stands and carried
        // over the appended rows morsel by morsel.
        let short = extended(JoinFilter::default(), &before, &probes, morsel);
        prop_assert_eq!(through(&short), reference.clone());
        let carried = extended(short, &after, &probes, morsel);
        prop_assert_eq!(carried.rows(), n);
        prop_assert_eq!(through(&carried), reference);
    }
}
