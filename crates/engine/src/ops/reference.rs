//! Row-at-a-time reference evaluator — the oracle the vectorized kernels
//! are property-tested against.
//!
//! This module is intentionally naive: one `Compiled::matches` tree walk
//! per row, no chunking, no masks. It exists so `kernel`-vs-reference
//! equivalence proptests (`crates/engine/tests/kernel_model.rs`) have an
//! independent implementation to compare with, and so the bench suite can
//! measure the speedup honestly.
//!
//! The `xtask lint` rule `row-at-a-time` confines per-row `matches` /
//! `i64_at` scan loops under `crates/engine/src/ops/` to this file:
//! everywhere else must go through the batch kernels or a typed
//! `ResolvedCol` view.

use std::ops::Range;

use crate::expr::Compiled;

/// Evaluate `compiled` row by row over `range`, returning matching ids.
pub fn eval_rows(compiled: &Compiled<'_>, range: Range<usize>) -> Vec<u32> {
    range
        .filter(|&r| compiled.matches(r))
        .map(|r| r as u32)
        .collect()
}
