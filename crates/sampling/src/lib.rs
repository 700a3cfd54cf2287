//! # laqy-sampling
//!
//! Reservoir-based sampling primitives for the LAQy reproduction:
//!
//! - [`rng`]: low-overhead, inlineable random number generators. The hot
//!   sampling paths use a 128-bit multiplicative Lehmer generator, the same
//!   family the paper inlines into generated code to keep RNG state in
//!   registers (paper §6.2, citing Park & Miller).
//! - [`reservoir`]: single-reservoir sampling with Algorithm R admission and
//!   a running *weight* (the number of considered elements), the state that
//!   makes reservoirs mergeable (paper §5.1).
//! - [`merge`]: reservoir merging (paper Algorithm 2) — merging `{R1, w1}`
//!   and `{R2, w2}` yields `{Rm, w1 + w2}`, statistically equivalent to a
//!   full resample of the combined input. §5.1's argument is associative,
//!   so the module also provides a k-way merge used by the coverage
//!   planner to combine several stored samples and Δ fragments at once.
//! - [`stratified`]: stratified reservoir sampling — strata keyed by the
//!   Query Column Set values, held in one dense layout: parallel per-stratum
//!   arrays plus a single payload arena (paper §4.1).
//! - [`stratified_merge`]: stratified sample merging (paper Algorithm 3) —
//!   a group-by over strata keys whose aggregation function is Algorithm 2,
//!   run as linear passes over that layout.
//!
//! All sampling is deterministic given a seed, which the paper also relies on
//! for repeatable experiments (§7, Workload).

#![forbid(unsafe_code)]
pub mod merge;
pub mod reservoir;
pub mod rng;
pub mod stratified;
pub mod stratified_merge;

pub use merge::{merge_reservoirs, merge_reservoirs_with_capacity};
pub use reservoir::Reservoir;
pub use rng::{Lehmer64, MinStd, SplitMix64};
pub use stratified::{Placed, StratifiedSampler, StratumKey};
pub use stratified_merge::{merge_base, merge_stratified, merge_stratified_k};
