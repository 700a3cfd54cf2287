//! The accuracy oracle: audited answers against exact execution.
//!
//! Speed without the error guarantee is not a result, so every run
//! compares a fixed, seeded subset of its approximate answers with
//! `run_exact` on an identical catalog and reports two end-to-end
//! numbers: the share of `SUM(lo_revenue)` group estimates whose reported
//! 95 % interval contains the exact value (`ci_cover_share`, end to end)
//! and their median relative error (`oracle.rel_err_p50`, per layer: it
//! is exactly 0 on `explore_q2` at this scale and swings by 10 % between
//! seeds on `serve_ingest`, so it cannot carry a bound).

use std::collections::HashMap;

use laqy_engine::{QueryResult, Value};

use crate::stats;

/// Index of `SUM(lo_revenue)` in the aggregate list of Q1, Q2 and
/// `q1_sql`.
pub const SUM_REVENUE: usize = 0;

/// A broken answer path (double-counted merge, wrong scale factor, lost
/// rows) shows up beyond these; what the committed sizes measure stays
/// inside them — including the serving workloads, whose narrow queries
/// tighten wide stored samples down to a few rows per stratum (median
/// error ≈ 0.6, coverage ≈ 0.7: a finding the README reports, not a
/// benchmark failure). Crossing either flips `correct` to false.
pub const MAX_REL_ERR_P50: f64 = 0.9;
/// See [`MAX_REL_ERR_P50`].
pub const MIN_CI_COVER_SHARE: f64 = 0.5;

/// One approximate group estimate of `SUM(lo_revenue)`.
#[derive(Debug, Clone)]
pub struct GroupAnswer {
    /// Decoded group key.
    pub key: Vec<Value>,
    /// Point estimate.
    pub value: f64,
    /// Reported 95 % half-width.
    pub ci_half_width: f64,
}

/// Accumulated audit of group estimates against exact values.
#[derive(Debug, Default)]
pub struct Audit {
    rel_errs: Vec<f64>,
    covered: u64,
    answers: u64,
}

fn key_text(key: &[Value]) -> String {
    key.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\u{1f}")
}

impl Audit {
    /// Compare one approximate answer with its exact counterpart. A group
    /// the approximate answer misses counts as a 100 % error outside its
    /// interval; so does a non-zero estimate for a group that does not
    /// exist.
    pub fn add(&mut self, approx: &[GroupAnswer], exact: &QueryResult) {
        self.answers += 1;
        let mut by_key: HashMap<String, &GroupAnswer> =
            approx.iter().map(|g| (key_text(&g.key), g)).collect();
        for row in &exact.rows {
            let truth = row.values[SUM_REVENUE];
            match by_key.remove(&key_text(&row.key)) {
                Some(g) => {
                    let miss = (g.value - truth).abs();
                    self.rel_errs
                        .push(miss / truth.abs().max(f64::MIN_POSITIVE));
                    self.covered += u64::from(miss <= g.ci_half_width);
                }
                None => self.rel_errs.push(1.0),
            }
        }
        self.rel_errs
            .extend(by_key.values().filter(|g| g.value != 0.0).map(|_| 1.0));
    }

    /// Answers audited.
    pub fn answers(&self) -> u64 {
        self.answers
    }

    /// Group estimates compared.
    pub fn groups(&self) -> usize {
        self.rel_errs.len()
    }

    /// Median relative error over every compared group estimate.
    pub fn rel_err_p50(&self) -> f64 {
        stats::median(&self.rel_errs)
    }

    /// Share of compared group estimates inside their 95 % interval.
    pub fn ci_cover_share(&self) -> f64 {
        self.covered as f64 / self.rel_errs.len() as f64
    }

    /// Violations of the sanity gates, as messages.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.rel_errs.is_empty() {
            out.push("audit compared no group estimates".to_string());
            return out;
        }
        if self.rel_err_p50() > MAX_REL_ERR_P50 {
            out.push(format!(
                "median relative error {:.3} above {MAX_REL_ERR_P50}",
                self.rel_err_p50()
            ));
        }
        if self.ci_cover_share() < MIN_CI_COVER_SHARE {
            out.push(format!(
                "interval coverage {:.3} below {MIN_CI_COVER_SHARE}",
                self.ci_cover_share()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::GroupedRow;

    fn exact(rows: &[(i64, f64)]) -> QueryResult {
        QueryResult {
            rows: rows
                .iter()
                .map(|&(k, v)| GroupedRow {
                    key: vec![Value::Int(k)],
                    values: vec![v, 1.0],
                })
                .collect(),
        }
    }

    fn answer(k: i64, value: f64, ci: f64) -> GroupAnswer {
        GroupAnswer {
            key: vec![Value::Int(k)],
            value,
            ci_half_width: ci,
        }
    }

    #[test]
    fn counts_coverage_misses_and_phantoms() {
        let mut audit = Audit::default();
        audit.add(
            &[
                answer(1, 110.0, 20.0), // inside its interval, 10 % off
                answer(2, 150.0, 10.0), // outside, 25 % off
                answer(9, 5.0, 1.0),    // group that does not exist
                answer(8, 0.0, 0.0),    // empty estimate for a missing group: ignored
            ],
            &exact(&[(1, 100.0), (2, 200.0), (3, 50.0)]), // group 3 missed
        );
        assert_eq!(audit.groups(), 4);
        assert_eq!(audit.answers(), 1);
        assert!((audit.ci_cover_share() - 0.25).abs() < 1e-12);
        // sorted errors: 0.1, 0.25, 1, 1 → median 0.625
        assert!((audit.rel_err_p50() - 0.625).abs() < 1e-12);
        assert_eq!(
            audit.violations().len(),
            1,
            "coverage 0.25 is below the gate"
        );
    }

    #[test]
    fn an_empty_audit_is_a_violation() {
        assert_eq!(Audit::default().violations().len(), 1);
    }
}
