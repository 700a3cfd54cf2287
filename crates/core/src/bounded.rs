//! Error-bounded approximate queries.
//!
//! LAQy's lineage (BlinkDB) frames AQP as "queries with bounded errors":
//! the user states an error target instead of a reservoir capacity. This
//! module provides that contract on top of the shared service: run at the
//! query's `k`, measure the realized confidence intervals, and — since the
//! CLT half-width shrinks as `1/√k` — escalate `k` quadratically until the
//! worst per-group relative error meets the target (or a cap is hit).
//!
//! Escalated runs use a larger reservoir capacity, which is part of the
//! sample's identity, so they build a new sample family; subsequent
//! queries with the same target then reuse *those* samples lazily — the
//! escalation cost is paid once per exploration, not per query.

use crate::executor::{ApproxQuery, ApproxResult, Result};
use crate::service::LaqyService;

/// An error target for bounded-error execution.
#[derive(Debug, Clone, Copy)]
pub struct ErrorTarget {
    /// Maximum acceptable relative 95 % CI half-width (`ci / |value|`),
    /// taken as the worst case over output groups.
    pub max_relative_error: f64,
    /// Which aggregate (position in `plan.aggs`) the target constrains.
    pub agg_position: usize,
    /// Upper bound on the escalated reservoir capacity.
    pub max_k: usize,
}

impl ErrorTarget {
    /// Target the first aggregate with the given relative error and a
    /// 64× escalation headroom.
    pub fn relative(max_relative_error: f64) -> Self {
        Self {
            max_relative_error,
            agg_position: 0,
            max_k: usize::MAX,
        }
    }
}

/// Outcome of a bounded-error execution.
#[derive(Debug)]
pub struct BoundedResult {
    /// The final (accepted or best-effort) result.
    pub result: ApproxResult,
    /// Reservoir capacity that produced it.
    pub k_used: usize,
    /// Worst observed relative CI half-width.
    pub worst_relative_error: f64,
    /// True if the target was met.
    pub met: bool,
    /// Number of executions performed (1 = first try sufficed).
    pub attempts: usize,
}

/// Worst per-group relative error of one aggregate; `None` when no group
/// has a nonzero estimate (nothing to normalize by).
pub fn worst_relative_error(result: &ApproxResult, agg_position: usize) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for g in &result.groups {
        let Some(est) = g.values.get(agg_position) else {
            continue;
        };
        if est.value == 0.0 || est.support == 0 || est.ci_half_width.is_nan() {
            continue;
        }
        let rel = est.ci_half_width / est.value.abs();
        worst = Some(worst.map_or(rel, |w: f64| w.max(rel)));
    }
    worst
}

/// Run a query under an error target, escalating `k` as needed.
pub fn run_bounded(
    service: &LaqyService,
    query: &ApproxQuery,
    target: &ErrorTarget,
) -> Result<BoundedResult> {
    const MAX_ATTEMPTS: usize = 4;
    let mut k = query.k.max(1);
    let mut attempts = 0;
    loop {
        attempts += 1;
        let mut q = query.clone();
        q.k = k;
        let result = service.run(&q)?;
        let worst = worst_relative_error(&result, target.agg_position).unwrap_or(0.0);
        let met = worst <= target.max_relative_error;
        if met || attempts >= MAX_ATTEMPTS || k >= target.max_k {
            return Ok(BoundedResult {
                result,
                k_used: k,
                worst_relative_error: worst,
                met,
                attempts,
            });
        }
        // CI ∝ 1/√k ⇒ required k scales with (worst/target)². Apply a
        // safety margin and clamp the per-step growth.
        let ratio = worst / target.max_relative_error;
        let factor = (ratio * ratio * 1.2).clamp(2.0, 64.0);
        k = ((k as f64 * factor).ceil() as usize).min(target.max_k.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};

    fn catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        let mut rng = laqy_sampling::Lehmer64::new(5);
        cat.register(
            Table::new(
                "t",
                vec![
                    ("key".into(), Column::Int64((0..n).collect())),
                    ("g".into(), Column::Int64((0..n).map(|i| i % 4).collect())),
                    (
                        "v".into(),
                        Column::Int64((0..n).map(|_| 1 + rng.next_below(100) as i64).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn query(n: i64, k: usize) -> ApproxQuery {
        ApproxQuery {
            plan: QueryPlan {
                fact: "t".into(),
                predicate: Predicate::True,
                joins: vec![],
                group_by: vec![ColRef::fact("g")],
                aggs: vec![AggSpec::sum("v")],
            },
            range_column: "key".into(),
            range: Interval::new(0, n - 1),
            k,
        }
    }

    #[test]
    fn tight_target_escalates_k() {
        let n = 40_000;
        let service = LaqyService::new(catalog(n));
        let out = run_bounded(&service, &query(n, 16), &ErrorTarget::relative(0.02)).unwrap();
        assert!(out.met, "target should be reachable: {out:?}");
        assert!(out.attempts > 1, "k=16 cannot meet 2% on 10k-row groups");
        assert!(out.k_used > 16);
        assert!(out.worst_relative_error <= 0.02);
    }

    #[test]
    fn loose_target_met_first_try() {
        let n = 10_000;
        let service = LaqyService::new(catalog(n));
        let out = run_bounded(&service, &query(n, 512), &ErrorTarget::relative(0.5)).unwrap();
        assert!(out.met);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.k_used, 512);
    }

    #[test]
    fn k_cap_limits_escalation() {
        let n = 40_000;
        let service = LaqyService::new(catalog(n));
        let target = ErrorTarget {
            max_relative_error: 1e-6, // unreachable
            agg_position: 0,
            max_k: 64,
        };
        let out = run_bounded(&service, &query(n, 16), &target).unwrap();
        assert!(!out.met);
        assert!(out.k_used <= 64);
    }

    #[test]
    fn population_sample_has_zero_error() {
        let n = 1_000;
        let service = LaqyService::new(catalog(n));
        let out = run_bounded(&service, &query(n, 10_000), &ErrorTarget::relative(0.0)).unwrap();
        assert!(out.met);
        assert_eq!(out.worst_relative_error, 0.0);
    }

    #[test]
    fn repeated_bounded_queries_reuse_escalated_samples() {
        let n = 40_000;
        let service = LaqyService::new(catalog(n));
        let target = ErrorTarget::relative(0.02);
        let first = run_bounded(&service, &query(n, 16), &target).unwrap();
        assert!(first.attempts > 1);
        // Second identical query: the escalated sample is in the store, so
        // one attempt at the escalated k... but the caller passes k=16
        // again; the first attempt misses the target, and the escalation
        // path hits the stored high-k sample fully.
        let second = run_bounded(&service, &query(n, first.k_used), &target).unwrap();
        assert!(second.met);
        assert_eq!(second.attempts, 1);
        assert_eq!(
            second.result.stats.reuse,
            Some(crate::stats::ReuseClass::Full)
        );
    }

    #[test]
    fn worst_relative_error_ignores_empty_groups() {
        let r = ApproxResult {
            groups: vec![],
            stats: Default::default(),
            support: crate::support::SupportReport {
                supported: 0,
                under_supported: vec![],
                empty: vec![],
            },
        };
        assert_eq!(worst_relative_error(&r, 0), None);
    }
}
