//! # laqy-benchmark
//!
//! The repository's repeatable, layered benchmark. It drives the system
//! only through public functions (`LaqyService::{run, run_exact,
//! run_online_oblivious, ingest}`, `laqy_server::{Server::start,
//! Client::request}` and the per-layer functions the probes call), times
//! them from outside, and claims no gain. See `README.md` beside this
//! crate for the workloads, the metrics and the noise policy, and
//! `BENCHMARK.json` at the repository root for the machine-readable
//! contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod e2e;
pub mod env;
pub mod explore;
pub mod json;
pub mod layers;
pub mod ops;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod run;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
