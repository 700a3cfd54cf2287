//! The join memo: per join shape, a star plan's join maps and a
//! [`JoinFilter`] over its fact table with the range indexes it keeps
//! ([`JoinedIndex`]), shared by every scan of that shape, so a Δ marks and
//! probes only the rows that join. DESIGN.md "Join filter" gives the key,
//! when an entry holds, how its prefix is extended and the lock.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use laqy_engine::index::JoinedIndex;
use laqy_engine::ops::{JoinFilter, StarJoinOutput, StarProbe};
use laqy_engine::parallel::{isolate_unwind, parallel_fold, DEFAULT_MORSEL_ROWS};
use laqy_engine::plan::PreparedJoins;
use laqy_engine::{Catalog, QueryPlan, Table};
use laqy_sync::{classes, Mutex};

use crate::budget::CancelToken;
use crate::executor::Result;

/// Join shapes the memo keeps; the least recently used goes first.
const JOIN_SHAPES: usize = 8;

/// A plan's join shape and the dimension versions it reads in one catalog
/// epoch, resolved once per query: what the memo looks a [`Star`] up by.
pub(crate) struct JoinShape {
    /// A hash of the fact table's name and the plan's joins.
    fingerprint: u64,
    /// The joined dimension tables, in join order.
    dims: Vec<Arc<Table>>,
}

impl JoinShape {
    /// `plan`'s shape against `catalog`.
    pub fn of(catalog: &Catalog, plan: &QueryPlan) -> Result<Self> {
        let mut hasher = std::hash::DefaultHasher::new();
        (&plan.fact, &plan.joins).hash(&mut hasher);
        let dims = (plan.joins.iter())
            .map(|j| catalog.table(&j.dim_table).map(Arc::clone))
            .collect::<laqy_engine::Result<Vec<_>>>()?;
        Ok(JoinShape {
            fingerprint: hasher.finish(),
            dims,
        })
    }
}

/// A join shape's maps against one set of dimension versions (`dims`), and
/// the fact rows that join over a prefix of the fact table at `fact_epoch`
/// with, per range column, the sealed pieces' ids of those rows.
pub(crate) struct Star {
    pub joins: Arc<PreparedJoins>,
    pub index: JoinedIndex,
    /// The [`JoinShape`]'s fingerprint.
    fingerprint: u64,
    dims: Vec<Arc<Table>>,
    fact_epoch: u64,
}

/// Join shapes' [`Star`]s, least recently used first. The lock is held to
/// look up or swap an `Arc`, never across a build: two racing builds produce
/// equal filters (and lists), so the last write may win.
pub(crate) struct JoinMemo(Mutex<Vec<Arc<Star>>>);

impl JoinMemo {
    pub fn new() -> Self {
        Self(Mutex::named(classes::JOIN_MEMO, Vec::new()))
    }

    /// `plan`'s star against `catalog`, whose shape is `shape`: the memo's
    /// entry while it holds, extended over the rows appended since, or else
    /// built here. An entry holds while it has the shape's fingerprint and
    /// its dimension versions are the shape's own (`Arc::ptr_eq`). What the
    /// budget cuts short or a morsel fails installs nothing, and the scan
    /// probes the rows the filter does not cover.
    pub fn star(
        &self,
        shape: &JoinShape,
        catalog: &Catalog,
        plan: &QueryPlan,
        threads: usize,
        token: &CancelToken,
    ) -> Result<Arc<Star>> {
        let fact = catalog.table(&plan.fact)?;
        let same_dim = |(a, b): (&Arc<Table>, &Arc<Table>)| Arc::ptr_eq(a, b);
        let same = |s: &Arc<Star>| s.fingerprint == shape.fingerprint;
        // A joinless plan has nothing to filter and leaves the memo alone.
        let joined = !plan.joins.is_empty();
        let lookup = || {
            let mut shapes = self.0.lock();
            let at = shapes.iter().position(same)?;
            let star = shapes.remove(at);
            shapes.push(Arc::clone(&star));
            Some(star)
        };
        let cached = joined.then(lookup).flatten();
        let valid = cached.filter(|s| s.dims.iter().zip(&shape.dims).all(same_dim));
        let (joins, mut filter, carried) = match valid {
            // The rows of an earlier version of the fact table are a prefix.
            Some(s) if s.index.filter().rows() >= fact.num_rows() => return Ok(s),
            Some(s) if fact.epoch() >= s.fact_epoch => {
                let filter = s.index.filter().clone();
                (Arc::clone(&s.joins), filter, Some(s))
            }
            _ => {
                #[cfg(test)]
                tests::count_build();
                let joins = PreparedJoins::build(catalog, plan)?;
                (Arc::new(joins), JoinFilter::default(), None)
            }
        };
        let installed = joined
            && joining_rows(fact, &joins, filter.rows(), threads, token)
                .map(|joined| filter.extend(fact.num_rows(), &joined))
                .is_some();
        // An extension carries the lists of the pieces it covered already.
        let index = JoinedIndex::new(fact, filter, carried.as_deref().map(|s| &s.index));
        let star = Arc::new(Star {
            joins,
            index,
            fingerprint: shape.fingerprint,
            dims: shape.dims.clone(),
            fact_epoch: fact.epoch(),
        });
        if installed {
            let mut shapes = self.0.lock();
            shapes.retain(|s| !same(s));
            if shapes.len() == JOIN_SHAPES {
                shapes.remove(0);
            }
            shapes.push(Arc::clone(&star));
        }
        Ok(star)
    }
}

/// The fact rows from `from` on that join every map, ascending, with their
/// dimension rows: one isolated morsel at a time on the pool; `None` once
/// `token` expires or a morsel fails.
fn joining_rows(
    fact: &Table,
    joins: &PreparedJoins,
    from: usize,
    threads: usize,
    token: &CancelToken,
) -> Option<StarJoinOutput> {
    let probes = joins.probes();
    let probe = StarProbe::new(fact, &probes).ok()?;
    // Per worker, each morsel's rows and its probe output.
    let partials = parallel_fold(
        fact.num_rows(),
        DEFAULT_MORSEL_ROWS,
        threads,
        || Some(Vec::new()),
        |acc: &mut Option<Vec<(Range<usize>, StarJoinOutput)>>, range| {
            let range = range.start.max(from)..range.end;
            let Some(morsels) = acc.as_mut().filter(|_| !range.is_empty()) else {
                return;
            };
            let mut out = StarJoinOutput::new(probes.len());
            let rows = range.start as u32..range.end as u32;
            match isolate_unwind(|| probe.probe(rows, &mut out)) {
                Ok(()) if !token.expired() => morsels.push((range, out)),
                _ => *acc = None,
            }
        },
    );
    let mut morsels = partials.into_iter().collect::<Option<Vec<_>>>()?.concat();
    #[cfg(test)]
    tests::count_probed(morsels.iter().map(|(rows, _)| rows.len()).sum());
    // Workers pull morsels in any order; the join index wants row order.
    morsels.sort_unstable_by_key(|(rows, _)| rows.start);
    let mut joined = StarJoinOutput::new(probes.len());
    for (_, out) in morsels {
        joined.fact_rows.extend(out.fact_rows);
        for (all, dim) in joined.dim_rows.iter_mut().zip(out.dim_rows) {
            all.extend(dim);
        }
    }
    Some(joined)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::time::Duration;

    use laqy_engine::{
        AggSpec, ColRef, Column, EngineError, JoinSpec, Predicate, STORED_CHUNK_ROWS,
    };

    use super::*;
    use crate::budget::QueryBudget;
    use crate::executor::{payload_schema, ApproxQuery, LaqyError, LaqyExecutor, Scope};
    use crate::interval::{Interval, IntervalSet};
    use crate::service::{LaqyService, SessionConfig};
    use crate::stats::ReuseClass;
    use crate::support::SupportPolicy;

    thread_local! {
        static BUILDS: Cell<usize> = const { Cell::new(0) };
        /// Fact rows the builds and extensions on this thread probed.
        static PROBED: Cell<usize> = const { Cell::new(0) };
        /// The candidates the last Δ on this thread offered the cut-off.
        static OFFERED: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// `plan`'s star in `memo` against `catalog`, on two threads.
    fn star_of(memo: &JoinMemo, catalog: &Catalog, plan: &QueryPlan) -> Result<Arc<Star>> {
        let shape = JoinShape::of(catalog, plan)?;
        memo.star(&shape, catalog, plan, 2, &CancelToken::unbounded())
    }

    /// Count one build of a star's maps and filter on this thread.
    pub(super) fn count_build() {
        BUILDS.with(|b| b.set(b.get() + 1));
    }

    /// Count `rows` fact rows one build or extension probed.
    pub(super) fn count_probed(rows: usize) {
        PROBED.with(|p| p.set(p.get() + rows));
    }

    const ROWS: i64 = 20_000;

    /// Fact rows `keys`: the range key, two foreign keys (`fk1` reaches
    /// five keys past `d1`) and a payload.
    fn fact(keys: Range<i64>) -> Vec<(String, Column)> {
        let col = |f: fn(i64) -> i64| Column::Int64(keys.clone().map(f).collect());
        vec![
            ("key".into(), col(|i| i)),
            ("fk1".into(), col(|i| i % 50)),
            ("fk2".into(), col(|i| i * 7 % 30)),
            ("v".into(), col(|i| i % 100)),
        ]
    }

    fn dim(keys: Range<i64>) -> Vec<(String, Column)> {
        let col = |f: fn(i64) -> i64| Column::Int64(keys.clone().map(f).collect());
        vec![("dk".into(), col(|k| k)), ("dg".into(), col(|k| k % 5))]
    }

    fn service() -> LaqyService {
        let mut catalog = Catalog::new();
        for (name, columns) in [("t", fact(0..ROWS)), ("d1", dim(0..45)), ("d2", dim(0..30))] {
            catalog.register(Table::new(name, columns).unwrap());
        }
        let config = SessionConfig {
            threads: 2,
            ..Default::default()
        };
        LaqyService::with_config(catalog, config)
    }

    /// The sampler above `t ⋈ d1 ⋈ d2`, a predicate on `d1`.
    fn query(lo: i64, hi: i64) -> ApproxQuery {
        let join = |dim: &str, fact_key: &str, predicate| JoinSpec {
            dim_table: dim.into(),
            dim_key: "dk".into(),
            fact_key: fact_key.into(),
            predicate,
        };
        ApproxQuery {
            plan: QueryPlan {
                fact: "t".into(),
                predicate: Predicate::True,
                joins: vec![
                    join("d1", "fk1", Predicate::between("dg", 1, 3)),
                    join("d2", "fk2", Predicate::True),
                ],
                group_by: vec![ColRef::dim("d1", "dg")],
                aggs: vec![AggSpec::sum("v"), AggSpec::count()],
            },
            range_column: "key".into(),
            range: Interval::new(lo, hi),
            k: 16,
        }
    }

    /// `COUNT(*)` of the join over `[lo, hi]`, run exactly.
    fn joined(service: &LaqyService, lo: i64, hi: i64) -> u64 {
        let (result, _) = service.run_exact(&query(lo, hi)).unwrap();
        result.rows.iter().map(|r| r.values[1]).sum::<f64>() as u64
    }

    /// Whether fact row `i` joins: `fk1 = i % 50` names a `d1` key (below
    /// `d1_keys`) whose `dg` passes the predicate; every `fk2` joins.
    fn joins(i: i64, d1_keys: i64) -> bool {
        i % 50 < d1_keys && (1..=3).contains(&(i % 50 % 5))
    }

    /// One Δ over `[lo, hi]` against `catalog` through `memo`'s stars, the
    /// index pinned: the candidates it offered the cut-off.
    fn delta(memo: &Arc<JoinMemo>, catalog: &Catalog, lo: i64, hi: i64) -> usize {
        let mut exec = LaqyExecutor::new(1, SupportPolicy::default(), 5);
        exec.joins = Arc::clone(memo);
        exec.prefer_index = |candidates, _| {
            OFFERED.set(Some(candidates));
            true
        };
        let query = query(lo, hi);
        let schema = payload_schema(catalog, &query).unwrap();
        let shape = JoinShape::of(catalog, &query.plan).unwrap();
        let scope = Scope {
            catalog,
            query: &query,
            schema: &schema,
            shape: &shape,
            strata_hint: 0,
        };
        let ranges = IntervalSet::of(Interval::new(lo, hi));
        exec.sample_pipeline(scope, &ranges, 0).unwrap();
        OFFERED.take().expect("the Δ read the range index")
    }

    #[test]
    fn joined_lists_are_built_once_per_piece_carried_over_fact_appends_and_rebuilt_after_a_dimension_append(
    ) {
        const C: i64 = STORED_CHUNK_ROWS as i64;
        let service = service();
        let memo = Arc::new(JoinMemo::new());
        let star = |catalog: &Catalog| star_of(&memo, catalog, &query(0, 0).plan).unwrap();
        let lists = |star: &Star| -> Vec<Option<*const u32>> {
            star.index
                .built("key")
                .map(|l| l.map(<[u32]>::as_ptr))
                .collect()
        };
        let builds = || BUILDS.with(Cell::get);
        let at_start = builds();

        // One piece, its list built by the first Δ that reaches it: the
        // base piece's ids by key (the row id), less the rows that do not
        // join.
        let catalog = service.catalog().clone();
        let first = star(&catalog);
        assert_eq!(lists(&first), vec![None]);
        delta(&memo, &catalog, 0, 4_999);
        let base = lists(&first)[0].expect("the Δ built the base piece's list");
        delta(&memo, &catalog, 5_000, 9_999);
        assert_eq!(lists(&first), vec![Some(base)], "a second Δ builds nothing");
        let expected: Vec<u32> = (0..ROWS)
            .filter(|&i| joins(i, 45))
            .map(|i| i as u32)
            .collect();
        assert_eq!(
            first.index.built("key").next().flatten(),
            Some(&expected[..])
        );

        // Two sealed chunks and an open one: the extended star carries the
        // base piece's list, and builds the chunks' on a Δ's first use.
        service.ingest("t", fact(ROWS..ROWS + 2 * C + 100)).unwrap();
        let catalog = service.catalog().clone();
        let extended = star(&catalog);
        assert!(!Arc::ptr_eq(&first, &extended));
        assert_eq!(lists(&extended), vec![Some(base), None, None]);
        delta(&memo, &catalog, 0, ROWS + 2 * C + 99);
        let grown = lists(&extended);
        assert_eq!(grown[0], Some(base), "a fact append rebuilds no list");
        assert!(grown.iter().all(Option::is_some));
        assert_eq!(builds(), at_start + 1);

        // Keys 45..50 of `d1` now join (46..48 pass its predicate): a new
        // star, whose lists are built again.
        service.ingest("d1", dim(45..50)).unwrap();
        let catalog = service.catalog().clone();
        delta(&memo, &catalog, 0, 99);
        assert_eq!(builds(), at_start + 2);
        let rebuilt = star(&catalog);
        assert_ne!(lists(&rebuilt)[0], Some(base));
        let expected: Vec<u32> = (0..ROWS)
            .filter(|&i| joins(i, 50))
            .map(|i| i as u32)
            .collect();
        assert_eq!(
            rebuilt.index.built("key").next().flatten(),
            Some(&expected[..])
        );
        // `extended` is alive, so no allocation of its lists was reused.
        drop(extended);
    }

    #[test]
    fn the_join_index_is_built_once_extended_over_new_rows_alone_and_dropped_with_a_dimension() {
        const C: usize = STORED_CHUNK_ROWS;
        let service = service();
        let memo = JoinMemo::new();
        let star = |catalog: &Catalog| star_of(&memo, catalog, &query(0, 0).plan).unwrap();
        let counts = || (BUILDS.with(Cell::get), PROBED.with(Cell::get));
        let (builds, probed) = counts();
        // The join index answers every row as the maps do.
        let probes_like_the_maps = |catalog: &Catalog, star: &Star| {
            let fact = catalog.table("t").unwrap();
            let probes = star.joins.probes();
            let all: Vec<u32> = (0..fact.num_rows() as u32).collect();
            let mut out = StarJoinOutput::new(probes.len());
            let probe = StarProbe::new(fact, &probes).unwrap();
            star.index.filter().probe(&probe, &all, &mut out);
            assert_eq!(
                out,
                laqy_engine::ops::star_probe(fact, &all, &probes).unwrap()
            );
            assert_eq!(star.index.filter().rows(), fact.num_rows());
        };

        let rows = ROWS as usize;
        let catalog = service.catalog().clone();
        let first = star(&catalog);
        assert_eq!(counts(), (builds + 1, probed + rows));
        probes_like_the_maps(&catalog, &first);
        assert!(Arc::ptr_eq(&first, &star(&catalog)));
        assert_eq!(counts(), (builds + 1, probed + rows), "built once");

        // A fact append: only the new rows are probed, and the old ranks
        // and dimension rows are carried.
        service
            .ingest("t", fact(ROWS..ROWS + C as i64 + 100))
            .unwrap();
        let catalog = service.catalog().clone();
        let extended = star(&catalog);
        assert_eq!(counts(), (builds + 1, probed + rows + C + 100));
        probes_like_the_maps(&catalog, &extended);

        // A dimension append drops the join index with the star: every row
        // is probed again, against the new dimension.
        service.ingest("d1", dim(45..50)).unwrap();
        let catalog = service.catalog().clone();
        let rebuilt = star(&catalog);
        assert_eq!(counts(), (builds + 2, probed + 2 * (rows + C + 100)));
        probes_like_the_maps(&catalog, &rebuilt);
        assert_ne!(rebuilt.index.filter(), extended.index.filter());
    }

    #[test]
    fn a_q2_delta_is_offered_its_joining_uncovered_rows_alone() {
        const C: i64 = STORED_CHUNK_ROWS as i64;
        let service = service();
        // The base piece, a sealed chunk and an open one, which is walked.
        service.ingest("t", fact(ROWS..ROWS + C + 500)).unwrap();
        let catalog = service.catalog().clone();
        let memo = Arc::new(JoinMemo::new());
        let sealed = ROWS + C;
        for (lo, hi) in [(1_000, 2_999), (ROWS - 100, ROWS + 99), (0, sealed + 499)] {
            let offered = delta(&memo, &catalog, lo, hi);
            assert_eq!(
                offered as u64,
                joined(&service, lo, hi.min(sealed - 1)),
                "[{lo}, {hi}]"
            );
            let rows = (lo..=hi.min(sealed - 1)).filter(|&i| joins(i, 45)).count();
            assert_eq!(offered, rows, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn a_join_filter_survives_fact_appends_and_is_rebuilt_after_a_dimension_append() {
        let service = service();
        let builds = || BUILDS.with(Cell::get);
        let at_start = builds();
        service.run(&query(0, 4_999)).unwrap();
        assert_eq!(builds(), at_start + 1, "the first scan builds the star");
        let delta = service.run(&query(0, 9_999)).unwrap().stats;
        assert_eq!(delta.reuse, Some(ReuseClass::Partial));
        assert_eq!(delta.sampled_input_rows, joined(&service, 5_000, 9_999));

        // The Δ reaches rows past the filter's prefix: it extends it.
        service.ingest("t", fact(ROWS..ROWS + 4_000)).unwrap();
        let delta = service.run(&query(0, ROWS + 3_999)).unwrap().stats;
        assert_eq!(delta.reuse, Some(ReuseClass::Partial));
        assert_eq!(
            delta.sampled_input_rows,
            joined(&service, 10_000, ROWS + 3_999)
        );
        assert_eq!(builds(), at_start + 1, "a fact append rebuilds nothing");

        // Keys 45..50 of `d1` now join (46..48 pass its predicate).
        service.ingest("d1", dim(45..50)).unwrap();
        let online = service.run(&query(0, ROWS + 3_999)).unwrap().stats;
        assert_eq!(
            online.reuse,
            Some(ReuseClass::Online),
            "the append dropped the sample"
        );
        assert_eq!(online.sampled_input_rows, joined(&service, 0, ROWS + 3_999));
        assert_eq!(
            builds(),
            at_start + 2,
            "a dimension append rebuilds the star once"
        );
    }

    #[test]
    fn a_scan_pinned_before_an_append_reuses_the_longer_filter() {
        let service = service();
        let before = service.catalog().clone();
        service.ingest("t", fact(ROWS..ROWS + 1_000)).unwrap();
        let after = service.catalog().clone();
        let (memo, plan) = (JoinMemo::new(), query(0, 0).plan);
        let builds = || BUILDS.with(Cell::get);
        let at_start = builds();
        let longer = star_of(&memo, &after, &plan).unwrap();
        assert_eq!(longer.index.filter().rows(), (ROWS + 1_000) as usize);
        let earlier = star_of(&memo, &before, &plan).unwrap();
        assert!(
            Arc::ptr_eq(&longer, &earlier),
            "the earlier version's rows are a prefix"
        );
        assert!(Arc::ptr_eq(
            &longer,
            &star_of(&memo, &after, &plan).unwrap()
        ));
        assert_eq!(builds(), at_start + 1);
    }

    #[test]
    fn a_build_the_budget_cuts_short_installs_nothing() {
        let service = service();
        let builds = || BUILDS.with(Cell::get);
        let at_start = builds();
        let expired = QueryBudget::with_deadline(Duration::ZERO);
        let cut = service.run_with_budget(&query(0, 4_999), expired).unwrap();
        assert!(cut.stats.degraded.is_some());
        let online = service.run(&query(0, 4_999)).unwrap().stats;
        assert_eq!(online.sampled_input_rows, joined(&service, 0, 4_999));
        assert_eq!(builds(), at_start + 2, "the cut build was not kept");
    }

    #[test]
    fn a_repeated_dimension_key_fails_the_query_with_a_typed_error() {
        let service = service();
        service.run(&query(0, 4_999)).unwrap();
        service.ingest("d2", dim(3..4)).unwrap();
        let duplicate = |r: crate::executor::Result<_>| {
            matches!(
                r,
                Err(LaqyError::Engine(EngineError::DuplicateKey { key: 3, .. }))
            )
        };
        assert!(duplicate(service.run(&query(0, 9_999)).map(|_| ())));
        assert!(duplicate(service.run_exact(&query(0, 9_999)).map(|_| ())));
    }
}
