//! # laqy
//!
//! A reproduction of **LAQy: Efficient and Reusable Query Approximations
//! via Lazy Sampling** (SIGMOD 2023). LAQy bridges offline and online
//! sampling-based approximate query processing by *relaxing* sample
//! matching: a materialized sample that only partially covers a query's
//! predicate is still reused — only the uncovered **Δ range** is sampled
//! online (with the predicate pushed down, so its cost is proportional to
//! the uncovered selectivity), and the two reservoirs are merged into a
//! sample statistically equivalent to a full resample.
//!
//! Layering:
//!
//! - [`interval`] / [`descriptor`] — predicate algebra and the sample
//!   metadata (Query Input, QCS, QVS, Query Predicate, k) that makes
//!   samples malleable;
//! - [`store`] — sample lifetime management, coverage planning (greedy
//!   set cover over stored samples) and the coverage write step that
//!   brings a plan's Δ samples to rest (with optional byte-budgeted LRU
//!   eviction);
//! - [`lazy`] — Algorithm 1, the lazy sampling planner, generalized to
//!   multi-sample, multi-fragment coverage reuse;
//! - [`sampler_ops`] — the stored sample (rows as wide as their schema,
//!   strata kept in key order beside first-offer order) and the admission
//!   path (every scan worker continues Algorithm R into one dense sample);
//! - [`executor`] — the scan, sample and estimate kernels of Figure 7's
//!   flow for both sampler placements (pushed to scan, and above star
//!   joins);
//! - [`service`] — the flow itself, as named stages (plan → fetch / scan →
//!   merge → estimate → finish) against a shared store: a `Send + Sync`
//!   handle many client threads clone, with an in-flight registry
//!   deduplicating concurrent Δ/online scans, plus the streaming-ingest
//!   path (epoch-pinned appends with incremental sample absorption);
//! - [`bounded`] — error-target execution (escalating `k`) on that handle;
//! - [`persist`] / [`wal`] — crash-safe store snapshots and the ingest
//!   write-ahead log; together they recover base rows and stored samples
//!   to one consistent `(snapshot generation, WAL position)` point;
//! - [`mod@estimate`] / [`support`] — Horvitz–Thompson estimation with CLT
//!   error bounds, tightening, and sample-support policies.
//!
//! ```
//! use laqy::{ApproxQuery, Interval, LaqyService};
//! use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Table::new("t", vec![
//!     ("key".into(), Column::Int64((0..10_000).collect())),
//!     ("grp".into(), Column::Int64((0..10_000).map(|i| i % 7).collect())),
//!     ("val".into(), Column::Int64((0..10_000).map(|i| i % 100).collect())),
//! ]).unwrap());
//! let service = LaqyService::new(catalog);
//! let query = ApproxQuery {
//!     plan: QueryPlan {
//!         fact: "t".into(),
//!         predicate: Predicate::True,
//!         joins: vec![],
//!         group_by: vec![ColRef::fact("grp")],
//!         aggs: vec![AggSpec::sum("val"), AggSpec::count()],
//!     },
//!     range_column: "key".into(),
//!     range: Interval::new(0, 4_999),
//!     k: 256,
//! };
//! let result = service.run(&query).unwrap();
//! assert_eq!(result.groups.len(), 7);
//! ```
//!
//! For concurrent clients, hand out clones of the [`LaqyService`]: all
//! clones share one catalog, one sample store, and one set of counters,
//! so samples materialized by one client are reused by the others.
//!
//! ```
//! use laqy::{ApproxQuery, Interval, LaqyService};
//! use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Table::new("t", vec![
//!     ("key".into(), Column::Int64((0..10_000).collect())),
//!     ("grp".into(), Column::Int64((0..10_000).map(|i| i % 7).collect())),
//!     ("val".into(), Column::Int64((0..10_000).map(|i| i % 100).collect())),
//! ]).unwrap());
//! let service = LaqyService::new(catalog);
//! let query = |lo, hi| ApproxQuery {
//!     plan: QueryPlan {
//!         fact: "t".into(),
//!         predicate: Predicate::True,
//!         joins: vec![],
//!         group_by: vec![ColRef::fact("grp")],
//!         aggs: vec![AggSpec::sum("val"), AggSpec::count()],
//!     },
//!     range_column: "key".into(),
//!     range: Interval::new(lo, hi),
//!     k: 256,
//! };
//! service.run(&query(0, 5_999)).unwrap(); // warm the shared store
//! let workers: Vec<_> = (0..4i64).map(|w| {
//!     let service = service.clone(); // cheap: Arc handle
//!     std::thread::spawn(move || service.run(&query(0, 4_999 + w)).unwrap())
//! }).collect();
//! for w in workers {
//!     assert_eq!(w.join().unwrap().groups.len(), 7);
//! }
//! // One shared store: every client reused the warm sample.
//! assert_eq!(service.stats().full_hits, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod budget;
pub mod descriptor;
pub mod estimate;
pub mod executor;
pub mod interval;
pub mod lazy;
pub mod persist;
pub mod sampler_ops;
pub mod service;
pub mod sql;
pub mod stats;
pub mod store;
pub mod support;
pub mod wal;

pub use bounded::{run_bounded, BoundedResult, ErrorTarget};
pub use budget::{CancelToken, Degradation, DegradeReason, QueryBudget};
pub use descriptor::{Predicates, SampleDescriptor};
pub use estimate::{estimate, AggEstimate, EstimateError, EstimateOptions, GroupEstimate};
pub use executor::{
    input_identity, range_predicate, ApproxQuery, ApproxResult, LaqyError, LaqyExecutor, Result,
};
pub use interval::{Interval, IntervalSet};
pub use lazy::{plan_lazy, plan_lazy_capped, LazyPlan, ReuseMode, MAX_COVERAGE_SAMPLES};
pub use persist::{
    load_from_file, load_store, recover_snapshot, save_snapshot, save_store, save_to_file,
    PersistError, RecoveryReport, KEEP_GENERATIONS, MAX_SNAPSHOT_BYTES,
};
pub use sampler_ops::{Sample, SampleRows, SampleSchema, SampleTuple, SlotKind, MAX_SAMPLE_COLS};
pub use service::{LaqyService, SessionConfig};
pub use sql::{approx_query, approx_query_on};
pub use stats::{ExecStats, ReuseClass, ServiceStats};
pub use store::{
    AbsorbReport, CoveragePlan, SampleId, SampleStore, ShardWriteGuard, ShardedStore, StoredSample,
    TailFragment, STORE_SHARDS,
};
pub use support::{check_support, SupportPolicy, SupportReport};
pub use wal::{
    replay as replay_wal, WalAppender, WalPosition, WalRecord, WalReplayReport,
    MAX_WAL_SEGMENT_BYTES, WAL_SEGMENT_PREFIX,
};
