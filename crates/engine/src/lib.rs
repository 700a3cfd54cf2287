//! # laqy-engine
//!
//! A vectorized, in-memory, columnar analytical engine — the execution
//! substrate for the LAQy reproduction. It stands in for Proteus, the JIT
//! code-generating engine the paper integrates with: what the evaluation
//! depends on is the *relative cost structure* of operators (bandwidth-bound
//! sequential scans, random-access hash group-by/stratification keyed by
//! |QCS|, join-dominated pipelines), which a morsel-parallel vectorized
//! engine reproduces.
//!
//! Key integration point for LAQy (paper §6.2): a selection — a scan's
//! matching row ids or a star join's aligned per-table row ids — is read
//! through [`ops::BoundCol`]s and keyed by [`GroupKey`], by the exact hash
//! group-by here and by the stratified sampler in the `laqy` crate alike.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod error;
pub mod expr;
pub mod hash;
pub mod io;
pub mod kernel;
pub mod ops;
// The worker pool's lifetime-erased task submission is the single
// sanctioned `unsafe` site in the workspace (enforced by `xtask lint`).
#[allow(unsafe_code)]
pub mod parallel;
pub mod plan;
pub mod sql;
pub mod synopsis;
pub mod table;
pub mod types;

pub use column::{dict_column, Column, StoredColumn, STORED_CHUNK_ROWS};
pub use error::{EngineError, Result};
pub use expr::{AggInput, AggKind, AggSpec, Predicate};
pub use hash::{FxBuildHasher, FxHashMap, GroupKey, MAX_KEY_COLS};
pub use io::{load_csv, load_csv_file, CsvSchema};
pub use kernel::{BatchKernel, Mask, CHUNK_ROWS, MASK_WORDS};
pub use plan::{
    execute_exact, resolve_by_name, validate_plan, ColRef, GroupedRow, JoinSpec, PreparedJoins,
    QueryPlan, QueryResult,
};
pub use synopsis::{PruneCounts, TableSynopsis, Verdict};
pub use table::{Catalog, Table};
pub use types::{DataType, Value};
