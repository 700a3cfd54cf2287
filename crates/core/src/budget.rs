//! Query budgets and deadline-bounded degraded answers.
//!
//! A serving AQP system must *always* answer within its latency contract.
//! The lazy Δ-pipeline gives LAQy a natural degradation knob: the
//! reservoir merged so far is a valid (if wider-CI) estimator at any
//! point during the scan, so when the budget expires mid-scan the
//! executor finalizes the partial sample instead of erroring.
//!
//! A [`QueryBudget`] states the contract (wall-clock deadline and/or a
//! scanned-row cap). [`QueryBudget::start`] anchors it into a
//! [`CancelToken`] — a cheap, shareable cooperative cancellation flag the
//! executor's morsel loop checks once per morsel via
//! [`CancelToken::admit`]. Expiry is *sticky*: once tripped, every later
//! check fails, so all workers drain promptly.
//!
//! A degraded answer carries a [`Degradation`] in its
//! [`ExecStats`](crate::stats::ExecStats): the reason, the fraction of
//! the intended scan that completed, and the CI inflation applied.
//! Extensive aggregates (`Sum`, `Count`) are extrapolated by `1/c` and
//! their confidence intervals widened by `1/(c·√c)`; intensive ones
//! (`Avg`) keep their value with CIs widened by `1/√c`. This treats the
//! scanned prefix as exchangeable with the unscanned remainder — exact
//! for shuffled data, a documented approximation for clustered layouts.
//!
//! This module is the only place deadline arithmetic against
//! `Instant::now` is allowed (`cargo run -p xtask -- lint` enforces it),
//! so the "is there time left?" question always has one answer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use laqy_engine::{AggKind, AggSpec};
use laqy_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::estimate::Groups;

/// Resource limits for one query. `Default` is unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock allowance, measured from [`QueryBudget::start`].
    pub deadline: Option<Duration>,
    /// Maximum rows the sampling scan may visit.
    pub max_scanned_rows: Option<u64>,
}

impl QueryBudget {
    /// An explicitly unbounded budget.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A wall-clock-only budget.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            max_scanned_rows: None,
        }
    }

    /// A row-cap-only budget.
    pub fn with_row_cap(rows: u64) -> Self {
        Self {
            deadline: None,
            max_scanned_rows: Some(rows),
        }
    }

    /// True when no limit is set.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.max_scanned_rows.is_none()
    }

    /// The tightest combination of two budgets: the smaller of each set
    /// limit, keeping a limit that only one side sets. The serving layer
    /// uses this to fold a per-request deadline into the tenant's
    /// default contract — a client can only ever *tighten* its tenant's
    /// budget, never relax it.
    pub fn intersect(self, other: QueryBudget) -> QueryBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        QueryBudget {
            deadline: tighter(self.deadline, other.deadline),
            max_scanned_rows: tighter(self.max_scanned_rows, other.max_scanned_rows),
        }
    }

    /// Charge time already spent (e.g. queued at admission) against the
    /// wall-clock allowance, flooring at [`MIN_ALLOWANCE`] so a request
    /// admitted after a long queue wait still runs — it degrades (wide
    /// CIs from a partial scan) instead of erroring, which is the
    /// serving layer's "degrade before shed" contract. A budget with no
    /// deadline is unaffected.
    pub fn after_wait(self, waited: Duration) -> QueryBudget {
        QueryBudget {
            deadline: self
                .deadline
                .map(|d| d.saturating_sub(waited).max(MIN_ALLOWANCE)),
            max_scanned_rows: self.max_scanned_rows,
        }
    }

    /// Anchor the budget at the current instant, producing the token the
    /// executor checks per morsel.
    pub fn start(&self) -> CancelToken {
        if self.is_unbounded() {
            return CancelToken { inner: None };
        }
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                deadline: self.deadline.map(|d| Instant::now() + d),
                row_cap: self.max_scanned_rows,
                charged: AtomicU64::new(0),
                expired: AtomicBool::new(false),
                by_rows: AtomicBool::new(false),
            })),
        }
    }
}

struct TokenInner {
    deadline: Option<Instant>,
    row_cap: Option<u64>,
    charged: AtomicU64,
    /// Sticky: set on the first failed admission, read by every later one.
    expired: AtomicBool,
    /// Whether the row cap (rather than the deadline) tripped first.
    by_rows: AtomicBool,
}

/// Cooperative cancellation handle derived from a [`QueryBudget`].
/// Cloning shares the same expiry state across worker threads; the
/// unbounded token is a no-allocation no-op.
#[derive(Clone)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// A token that never expires (the default executor budget).
    pub fn unbounded() -> Self {
        Self { inner: None }
    }

    /// Admit one unit of work charging `rows` scanned rows. Returns
    /// `None` to proceed, or the [`DegradeReason`] once the budget is
    /// exhausted. Expiry is sticky across all clones.
    pub fn admit(&self, rows: u64) -> Option<DegradeReason> {
        let inner = self.inner.as_ref()?;
        if inner.expired.load(Ordering::Relaxed) {
            return Some(self.reason(inner));
        }
        if let Some(cap) = inner.row_cap {
            let before = inner.charged.fetch_add(rows, Ordering::Relaxed);
            if before >= cap {
                inner.by_rows.store(true, Ordering::Relaxed);
                inner.expired.store(true, Ordering::Relaxed);
                return Some(DegradeReason::RowBudgetExhausted);
            }
        } else {
            inner.charged.fetch_add(rows, Ordering::Relaxed);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.expired.store(true, Ordering::Relaxed);
                return Some(DegradeReason::DeadlineExceeded);
            }
        }
        None
    }

    /// True once any admission has failed (or the deadline has passed).
    /// Used to skip whole pipeline stages (remaining coverage
    /// fragments) without charging work.
    pub fn expired(&self) -> bool {
        let Some(inner) = self.inner.as_ref() else {
            return false;
        };
        if inner.expired.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                inner.expired.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// True when this token can never expire.
    pub fn is_unbounded(&self) -> bool {
        self.inner.is_none()
    }

    fn reason(&self, inner: &TokenInner) -> DegradeReason {
        if inner.by_rows.load(Ordering::Relaxed) {
            DegradeReason::RowBudgetExhausted
        } else {
            DegradeReason::DeadlineExceeded
        }
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "CancelToken(unbounded)"),
            Some(i) => f
                .debug_struct("CancelToken")
                .field("expired", &i.expired.load(Ordering::Relaxed))
                .field("charged", &i.charged.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

/// Why an answer was degraded rather than exact-coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline expired mid-scan.
    DeadlineExceeded,
    /// The scanned-row cap was reached mid-scan.
    RowBudgetExhausted,
    /// The budget expired before one or more parts of a coverage plan
    /// (its residual or a tail) could be scanned at all; their rows
    /// contribute nothing.
    FragmentSkipped,
}

impl DegradeReason {
    /// Short label for stats lines and harness output.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeReason::DeadlineExceeded => "deadline-exceeded",
            DegradeReason::RowBudgetExhausted => "row-budget-exhausted",
            DegradeReason::FragmentSkipped => "fragment-skipped",
        }
    }
}

/// Smallest wall-clock allowance [`QueryBudget::after_wait`] leaves a
/// request: enough to admit at least the first morsel, so the answer is
/// a degraded estimate rather than an empty one.
pub const MIN_ALLOWANCE: Duration = Duration::from_millis(1);

/// Lower clamp on coverage when widening: below this the partial sample
/// carries essentially no information and the inflation factor stops
/// being meaningful, so it saturates instead of diverging.
pub const MIN_COVERAGE: f64 = 1e-4;

/// How a degraded answer differs from the full-coverage one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// What cut the scan short.
    pub reason: DegradeReason,
    /// Fraction of the intended scan that completed, in
    /// `[`[`MIN_COVERAGE`]`, 1]`.
    pub coverage: f64,
    /// The factor applied to extensive (`Sum`/`Count`) CI half-widths:
    /// `1/(c·√c)`. Intensive aggregates used `√(ci_inflation · c)`,
    /// i.e. `1/√c`.
    pub ci_inflation: f64,
}

impl Degradation {
    /// Build a degradation record from a completed-scan fraction.
    pub fn at_coverage(reason: DegradeReason, coverage: f64) -> Self {
        let c = coverage.clamp(MIN_COVERAGE, 1.0);
        Self {
            reason,
            coverage: c,
            ci_inflation: 1.0 / (c * c.sqrt()),
        }
    }

    /// Fold another pipeline's degradation into this one, keeping the
    /// most severe (lowest-coverage) record.
    pub fn merge(self, other: Degradation) -> Degradation {
        if other.coverage < self.coverage {
            other
        } else {
            self
        }
    }
}

/// Extrapolate per-group estimates computed from a partial scan to the
/// full intended region and widen their confidence intervals (see the
/// module docs for the model and its assumptions). `Min`/`Max` values
/// are left untouched — a partial extremum cannot be extrapolated, only
/// flagged via the attached [`Degradation`].
pub fn apply_degradation(groups: &mut Groups, aggs: &[AggSpec], deg: &Degradation) {
    let c = deg.coverage.clamp(MIN_COVERAGE, 1.0);
    let extensive_scale = 1.0 / c;
    let extensive_ci = deg.ci_inflation;
    let intensive_ci = 1.0 / c.sqrt();
    // One estimate per aggregate, group after group.
    for (est, spec) in groups.values_mut().iter_mut().zip(aggs.iter().cycle()) {
        match spec.kind {
            AggKind::Sum | AggKind::Count => {
                est.value *= extensive_scale;
                est.ci_half_width *= extensive_ci;
            }
            AggKind::Avg => {
                est.ci_half_width *= intensive_ci;
            }
            AggKind::Min | AggKind::Max => {}
        }
    }
}

/// Blend per-fragment Δ-scan coverage into one query-level degradation
/// record for a coverage-reuse query. The reused stored samples cover
/// `1 - effective` of the query region at full fidelity; the Δ fraction
/// (`effective`) is covered at the mean per-fragment coverage, where a
/// fragment skipped outright (budget already expired) contributes zero.
/// Returns `None` when nothing was degraded or skipped.
pub fn blended_degradation(
    inner: Option<Degradation>,
    fragment_coverage: f64,
    total_fragments: usize,
    skipped: u64,
    effective: f64,
) -> Option<Degradation> {
    if inner.is_none() && skipped == 0 {
        return None;
    }
    let c_delta = if total_fragments == 0 {
        1.0
    } else {
        fragment_coverage / total_fragments as f64
    };
    let blended = (1.0 - effective) + effective * c_delta;
    let reason = if skipped > 0 {
        DegradeReason::FragmentSkipped
    } else {
        inner
            .map(|d| d.reason)
            .unwrap_or(DegradeReason::FragmentSkipped)
    };
    Some(Degradation::at_coverage(reason, blended))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::AggEstimate;

    #[test]
    fn unbounded_token_never_expires() {
        let t = QueryBudget::unbounded().start();
        assert!(t.is_unbounded());
        for _ in 0..1000 {
            assert_eq!(t.admit(1 << 20), None);
        }
        assert!(!t.expired());
    }

    #[test]
    fn row_cap_trips_and_sticks() {
        let t = QueryBudget::with_row_cap(100).start();
        assert_eq!(t.admit(60), None);
        assert_eq!(t.admit(60), None); // 120 charged, cap checked before add
        assert_eq!(t.admit(1), Some(DegradeReason::RowBudgetExhausted));
        // Sticky: clones observe the expiry too.
        let clone = t.clone();
        assert!(clone.expired());
        assert_eq!(clone.admit(0), Some(DegradeReason::RowBudgetExhausted));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let t = QueryBudget::with_deadline(Duration::from_millis(1)).start();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(t.admit(1), Some(DegradeReason::DeadlineExceeded));
        assert!(t.expired());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let t = QueryBudget::with_deadline(Duration::from_secs(3600)).start();
        assert_eq!(t.admit(1), None);
        assert!(!t.expired());
    }

    #[test]
    fn intersect_keeps_the_tighter_limit_per_axis() {
        let a = QueryBudget {
            deadline: Some(Duration::from_millis(100)),
            max_scanned_rows: None,
        };
        let b = QueryBudget {
            deadline: Some(Duration::from_millis(40)),
            max_scanned_rows: Some(1000),
        };
        let t = a.intersect(b);
        assert_eq!(t.deadline, Some(Duration::from_millis(40)));
        assert_eq!(t.max_scanned_rows, Some(1000));
        // Symmetric, and unbounded is the identity.
        assert_eq!(b.intersect(a), t);
        assert_eq!(a.intersect(QueryBudget::unbounded()), a);
        assert_eq!(QueryBudget::unbounded().intersect(b), b);
    }

    #[test]
    fn after_wait_charges_queue_time_and_floors() {
        let b = QueryBudget::with_deadline(Duration::from_millis(50));
        let shortened = b.after_wait(Duration::from_millis(20));
        assert_eq!(shortened.deadline, Some(Duration::from_millis(30)));
        // A wait past the allowance floors at MIN_ALLOWANCE instead of
        // zeroing out: the request degrades, it does not error.
        let floored = b.after_wait(Duration::from_secs(5));
        assert_eq!(floored.deadline, Some(MIN_ALLOWANCE));
        // No deadline -> nothing to charge; the row cap is untouched.
        let rows = QueryBudget::with_row_cap(99).after_wait(Duration::from_secs(1));
        assert_eq!(rows.deadline, None);
        assert_eq!(rows.max_scanned_rows, Some(99));
    }

    #[test]
    fn degradation_math() {
        let d = Degradation::at_coverage(DegradeReason::DeadlineExceeded, 0.25);
        assert_eq!(d.coverage, 0.25);
        assert!((d.ci_inflation - 8.0).abs() < 1e-12); // 1/(0.25 * 0.5)
                                                       // Coverage clamps instead of diverging.
        let z = Degradation::at_coverage(DegradeReason::DeadlineExceeded, 0.0);
        assert_eq!(z.coverage, MIN_COVERAGE);
        assert!(z.ci_inflation.is_finite());
        // Merge keeps the most severe record.
        let worse = Degradation::at_coverage(DegradeReason::FragmentSkipped, 0.1);
        assert_eq!(d.merge(worse).reason, DegradeReason::FragmentSkipped);
        assert_eq!(worse.merge(d).coverage, 0.1);
    }

    #[test]
    fn apply_degradation_scales_by_kind() {
        let est = |value, ci_half_width| AggEstimate {
            value,
            ci_half_width,
            support: 5,
        };
        // Two groups: every group's estimates are scaled, not the first's.
        let mut groups = Groups::with_capacity(2, 3);
        for key in [0, 1] {
            groups.push(&[key], [est(100.0, 10.0), est(40.0, 4.0), est(2.5, 0.5)], 5);
        }
        let aggs = vec![AggSpec::sum("v"), AggSpec::count(), AggSpec::avg("v")];
        let deg = Degradation::at_coverage(DegradeReason::DeadlineExceeded, 0.25);
        apply_degradation(&mut groups, &aggs, &deg);
        for g in &groups {
            let v = g.values;
            assert_eq!(v[0].value, 400.0); // sum × 1/c
            assert_eq!(v[0].ci_half_width, 80.0); // × 1/(c√c)
            assert_eq!(v[1].value, 160.0); // count × 1/c
            assert_eq!(v[2].value, 2.5); // avg unchanged
            assert_eq!(v[2].ci_half_width, 1.0); // × 1/√c
        }
    }
}
