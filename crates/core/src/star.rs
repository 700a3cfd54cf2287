//! The join memo: per join shape, a star plan's join maps and a
//! [`JoinFilter`] over its fact table, shared by every scan of that shape,
//! so a Δ probes only the rows that join. DESIGN.md "Join filter" gives
//! the key, when an entry holds, how its prefix is extended and the lock.

use std::sync::Arc;

use laqy_engine::ops::{star_probe, JoinFilter};
use laqy_engine::parallel::{isolate_unwind, parallel_fold, DEFAULT_MORSEL_ROWS};
use laqy_engine::plan::PreparedJoins;
use laqy_engine::{Catalog, JoinSpec, QueryPlan, Table};
use laqy_sync::{classes, Mutex};

use crate::budget::CancelToken;
use crate::executor::Result;

/// Join shapes the memo keeps; the least recently used goes first.
const JOIN_SHAPES: usize = 8;

/// A join shape's maps against one set of dimension versions (`dims`), and
/// the fact rows that join over a prefix of the fact table at `fact_epoch`.
pub(crate) struct Star {
    pub joins: Arc<PreparedJoins>,
    pub filter: JoinFilter,
    /// The fact table and the plan's joins.
    shape: (String, Vec<JoinSpec>),
    dims: Vec<Arc<Table>>,
    fact_epoch: u64,
}

/// Join shapes' [`Star`]s, least recently used first. The lock is held to
/// look up or swap an `Arc`, never across a build: two racing builds produce
/// equal filters, so the last write may win.
pub(crate) struct JoinMemo(Mutex<Vec<Arc<Star>>>);

impl JoinMemo {
    pub fn new() -> Self {
        Self(Mutex::named(classes::JOIN_MEMO, Vec::new()))
    }

    /// `plan`'s star against `catalog`: the memo's entry while it holds,
    /// extended over the rows appended since, or else built here. What the
    /// budget cuts short or a morsel fails installs nothing, and the scan
    /// probes the rows the filter does not cover.
    pub fn star(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        threads: usize,
        token: &CancelToken,
    ) -> Result<Arc<Star>> {
        let fact = catalog.table(&plan.fact)?;
        let dims = (plan.joins.iter())
            .map(|j| catalog.table(&j.dim_table).map(Arc::clone))
            .collect::<laqy_engine::Result<Vec<_>>>()?;
        let same_dim = |(a, b): (&Arc<Table>, &Arc<Table>)| Arc::ptr_eq(a, b);
        let same = |s: &Arc<Star>| s.shape.0 == plan.fact && s.shape.1 == plan.joins;
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
        let (joins, mut filter) = match cached.filter(|s| s.dims.iter().zip(&dims).all(same_dim)) {
            // The rows of an earlier version of the fact table are a prefix.
            Some(s) if s.filter.rows() >= fact.num_rows() => return Ok(s),
            Some(s) if fact.epoch() >= s.fact_epoch => (Arc::clone(&s.joins), s.filter.clone()),
            _ => {
                #[cfg(test)]
                tests::count_build();
                let joins = PreparedJoins::build(catalog, plan)?;
                (Arc::new(joins), JoinFilter::default())
            }
        };
        let installed = joined
            && joining_rows(fact, &joins, filter.rows(), threads, token)
                .map(|rows| filter.extend(fact.num_rows(), rows))
                .is_some();
        let star = Arc::new(Star {
            joins,
            filter,
            shape: (plan.fact.clone(), plan.joins.clone()),
            dims,
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

/// The fact rows from `from` on that join every map, one isolated morsel
/// at a time on the pool; `None` once `token` expires or a morsel fails.
fn joining_rows(
    fact: &Table,
    joins: &PreparedJoins,
    from: usize,
    threads: usize,
    token: &CancelToken,
) -> Option<Vec<u32>> {
    let probes = joins.probes();
    let partials = parallel_fold(
        fact.num_rows(),
        DEFAULT_MORSEL_ROWS,
        threads,
        || Some(Vec::new()),
        |acc: &mut Option<Vec<u32>>, range| {
            let range = range.start.max(from)..range.end;
            let Some(rows) = acc.as_mut().filter(|_| !range.is_empty()) else {
                return;
            };
            let sel: Vec<u32> = (range.start as u32..range.end as u32).collect();
            match isolate_unwind(|| star_probe(fact, &sel, &probes)) {
                Ok(Ok(out)) if !token.expired() => rows.extend(out.fact_rows),
                _ => *acc = None,
            }
        },
    );
    let partials: Option<Vec<Vec<u32>>> = partials.into_iter().collect();
    partials.map(|rows| rows.concat())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::ops::Range;
    use std::time::Duration;

    use laqy_engine::{AggSpec, ColRef, Column, EngineError, JoinSpec, Predicate};

    use super::*;
    use crate::budget::QueryBudget;
    use crate::executor::{ApproxQuery, LaqyError};
    use crate::interval::Interval;
    use crate::service::{LaqyService, SessionConfig};
    use crate::stats::ReuseClass;

    thread_local! {
        static BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    /// Count one build of a star's maps and filter on this thread.
    pub(super) fn count_build() {
        BUILDS.with(|b| b.set(b.get() + 1));
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
        let (memo, plan, token) = (JoinMemo::new(), query(0, 0).plan, CancelToken::unbounded());
        let builds = || BUILDS.with(Cell::get);
        let at_start = builds();
        let longer = memo.star(&after, &plan, 2, &token).unwrap();
        assert_eq!(longer.filter.rows(), (ROWS + 1_000) as usize);
        let earlier = memo.star(&before, &plan, 2, &token).unwrap();
        assert!(
            Arc::ptr_eq(&longer, &earlier),
            "the earlier version's rows are a prefix"
        );
        assert!(Arc::ptr_eq(
            &longer,
            &memo.star(&after, &plan, 2, &token).unwrap()
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
