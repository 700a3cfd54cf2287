//! # laqy-workload
//!
//! Workload substrate for the LAQy reproduction: a Star Schema Benchmark
//! data generator with the paper's added `lo_intkey` selectivity-control
//! column ([`ssb`]), the exploratory query-sequence generators driving the
//! reuse evaluation ([`sequences`]), the paper's query templates Strat,
//! Q1, and Q2 ([`queries`]), and the zipf-skewed multi-tenant serving mix
//! ([`serving`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queries;
pub mod sequences;
pub mod serving;
pub mod ssb;
pub mod ssb_queries;

pub use queries::{q1, q2, qcs_columns, strat};
pub use sequences::{long_running, selectivity, short_running, ExploreConfig};
pub use serving::{op_stream, q1_sql, MixConfig, Op};
pub use ssb::{generate, lineorder_batch, SsbConfig, REGIONS};
pub use ssb_queries::all_queries;
