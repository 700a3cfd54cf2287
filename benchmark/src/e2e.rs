//! Rounds, and the end-to-end metrics computed from them the same way
//! for every workload.
//!
//! The box this runs on shares its memory system with neighbours: on a
//! good hour identical work takes 3.1 to 3.6 s, on a bad one 12-ms units
//! of a spin loop run 25 to 45 % slow seven times out of eight. The interference
//! only ever adds time, and it comes and goes within milliseconds, so a
//! run makes several rounds over the same list, each on a fresh set-up,
//! and takes every op's latency as its fastest over the rounds: the
//! sample closest to what the code itself costs.

use crate::env::peak_rss_mb;
use crate::oracle::Audit;
use crate::report::Report;
use crate::stats::{self, Floors};

/// One round: a fresh set-up and one pass over the op list.
#[derive(Debug, Clone)]
pub struct Round {
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Per client, per op in list order: the latency at the caller in
    /// ms, or `None` when the op did not get its expected typed success.
    pub clients: Vec<Vec<Option<f64>>>,
}

/// What the rounds of a run say once each op is reduced to its fastest
/// sample.
#[derive(Debug, Clone)]
pub struct Steady {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Fastest latency of every query op, ms.
    pub query_ms: Vec<f64>,
    /// Fastest latency of every ingest op, ms.
    pub ingest_ms: Vec<f64>,
    /// Seconds one pass keeps its slowest client waiting: the sum of
    /// that client's fastest op latencies.
    pub pass_s: f64,
    /// Ops attempted over all rounds.
    pub attempted: u64,
    /// Ops that failed over all rounds.
    pub failed: u64,
    /// Rounds behind each value.
    pub rounds: usize,
}

impl Steady {
    /// Reduce `rounds` over one op list; `is_query[c][i]` tells a query
    /// op from an ingest.
    pub fn of(rounds: &[Round], is_query: &[Vec<bool>]) -> Steady {
        assert!(!rounds.is_empty(), "a run needs at least one round");
        let (mut query_ms, mut ingest_ms) = (Vec::new(), Vec::new());
        let mut pass_s = 0.0f64;
        for (c, kinds) in is_query.iter().enumerate() {
            let mut client_ms = 0.0;
            for (i, &query) in kinds.iter().enumerate() {
                let samples = rounds.iter().filter_map(|r| r.clients[c][i]);
                let Some(ms) = samples.min_by(f64::total_cmp) else {
                    continue;
                };
                client_ms += ms;
                if query { &mut query_ms } else { &mut ingest_ms }.push(ms);
            }
            pass_s = pass_s.max(client_ms / 1e3);
        }
        let outcomes = || rounds.iter().flat_map(|r| r.clients.iter().flatten());
        Steady {
            setup_s: stats::median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            query_ms,
            ingest_ms,
            pass_s,
            attempted: outcomes().count() as u64,
            failed: outcomes().filter(|o| o.is_none()).count() as u64,
            rounds: rounds.len(),
        }
    }

    /// Ops with the expected typed success per second of a pass.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.rounds as f64 / self.pass_s
    }
}

/// Everything measured by the rounds of one run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The rounds, in order.
    pub rounds: Vec<Round>,
    /// Their reduction to one value per op.
    pub steady: Steady,
    /// `VmHWM` when the last pass ended: data generation and every pass,
    /// but not the oracle's own catalogs.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Call right after the last pass (it reads the memory high-water
    /// mark); `is_query[c][i]` tells a query op from an ingest.
    pub fn after_last_pass(rounds: Vec<Round>, is_query: &[Vec<bool>]) -> Measured {
        Measured {
            steady: Steady::of(&rounds, is_query),
            peak_rss_mb: peak_rss_mb(),
            rounds,
        }
    }

    /// Ops per second by the clock: ops of one pass over the median wall
    /// time of a pass, recording of spans included (the tracing overhead
    /// compares it between an untraced and a traced set of rounds).
    pub fn wall_ops_per_s(&self) -> f64 {
        let walls: Vec<f64> = self.rounds.iter().map(|r| r.wall_s).collect();
        let per_pass = self.steady.attempted as f64 / self.rounds.len() as f64;
        per_pass / stats::median(&walls)
    }
}

/// Fill `report` with the end-to-end metrics and the notes that state
/// their sample counts. A percentile refused by the sample floors is a
/// violation (the committed sizes are chosen so that it cannot happen).
pub fn fill(report: &mut Report, measured: &Measured, audit: &Audit, floors: Floors) {
    let Measured {
        rounds,
        steady,
        peak_rss_mb,
    } = measured;
    report.attempted = steady.attempted;
    report.failed = steady.failed;
    let ok = steady.attempted - steady.failed;
    let n = steady.query_ms.len();
    let sorted = stats::sorted(steady.query_ms.clone());
    // p90, not p50: a hit costs a tenth of a delta-scan, and where hits
    // are half the mix (`explore_q2`) the median flips between the two
    // modes from seed to seed. p90 sits in the slow mode on every
    // workload. p50 and p99 are per-layer metrics of the traced run.
    match stats::tail(&sorted, 0.9, floors) {
        Some(v) => report.metrics.set("query_p90_ms", v),
        None => {
            report
                .violations
                .push(format!("query_p90_ms: n={n} is below the sample floor"));
            report
                .metrics
                .set("query_p90_ms", sorted.last().copied().unwrap_or(0.0));
        }
    }
    report.metrics.set("setup_s", steady.setup_s);
    report.metrics.set("ops_per_s", steady.ops_per_s());
    report
        .metrics
        .set("ok_share", ok as f64 / steady.attempted.max(1) as f64);
    report.violations.extend(audit.violations());
    if audit.groups() > 0 {
        report.metrics.set("ci_cover_share", audit.ci_cover_share());
    }
    report.notes.push(format!(
        "{} rounds; set-ups (s): {:?}; pass walls (s): {:?}; steady pass: {:.3} s",
        rounds.len(),
        rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>(),
        rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        steady.pass_s,
    ));
    report.notes.push(format!(
        "{} ops attempted over the rounds, {} failed; peak RSS after the last pass {:.1} MB",
        steady.attempted, steady.failed, peak_rss_mb
    ));
    let at = |q: f64| stats::tail(&sorted, q, Floors::Relaxed).unwrap_or(0.0);
    report.notes.push(format!(
        "query latency (each query's fastest of the rounds): n={n}; p90 is order statistic {} \
         ({} samples beyond it); p50={:.4} p75={:.4} p90={:.4} p95={:.4} p99={:.4} ms",
        (n as f64 * 0.9).ceil() as usize,
        n - (n as f64 * 0.9).ceil() as usize,
        at(0.5),
        at(0.75),
        at(0.9),
        at(0.95),
        at(0.99),
    ));
    report.notes.push(format!(
        "audit: {} answers, {} group estimates compared with run_exact; rel_err_p50 = {}",
        audit.answers(),
        audit.groups(),
        if audit.groups() > 0 {
            audit.rel_err_p50()
        } else {
            f64::NAN
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_s: f64, clients: Vec<Vec<Option<f64>>>) -> Round {
        Round {
            setup_s,
            wall_s: 1.0,
            clients,
        }
    }

    #[test]
    fn each_op_is_its_fastest_over_the_rounds() {
        let rounds = [
            round(
                1.0,
                vec![vec![Some(10.0), Some(2.0)], vec![Some(30.0), Some(1.0)]],
            ),
            round(
                3.0,
                vec![vec![Some(50.0), Some(4.0)], vec![Some(10.0), Some(1.0)]],
            ),
            round(
                2.0,
                vec![vec![Some(12.0), None], vec![Some(20.0), Some(1.0)]],
            ),
        ];
        let steady = Steady::of(&rounds, &[vec![true, false], vec![true, true]]);
        assert_eq!(steady.setup_s, 2.0);
        assert_eq!(steady.query_ms, [10.0, 10.0, 1.0]);
        // The failed sample is left out.
        assert_eq!(steady.ingest_ms, [2.0]);
        assert_eq!((steady.attempted, steady.failed), (12, 1));
        // Client 0 waits 12 ms per pass, client 1 only 11.
        assert!((steady.pass_s - 0.012).abs() < 1e-12);
        assert!((steady.ops_per_s() - 11.0 / 3.0 / 0.012).abs() < 1e-9);
    }
}
