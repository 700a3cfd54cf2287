//! The in-process exploration workloads (`explore_q1`, `explore_q2`):
//! one driver thread calling `LaqyService::run` through the paper's
//! query sequences, the store cleared between sessions.

use std::time::Instant;

use laqy::{ApproxQuery, ApproxResult, LaqyService, SessionConfig};
use laqy_engine::Catalog;
use laqy_workload::{generate, SsbConfig};

use crate::layers::Timed;
use crate::ops::{explore_ops, ExploreOps, Template};
use crate::oracle::{Audit, GroupAnswer, SUM_REVENUE};
use crate::spec::{Scale, DATA_SEED, ENGINE_THREADS};
use crate::trace::{Recorder, Span};

/// Generate the fixed SSB catalog at the scale's SF.
pub fn generate_catalog(scale: &Scale) -> Catalog {
    generate(&SsbConfig {
        scale_factor: scale.sf,
        seed: DATA_SEED,
    })
}

/// A service over `catalog` with the benchmark's fixed configuration.
pub fn service(catalog: Catalog) -> LaqyService {
    LaqyService::with_config(
        catalog,
        SessionConfig {
            threads: ENGINE_THREADS,
            ..SessionConfig::default()
        },
    )
}

/// Set-up of an exploration run: data generation, service start and one
/// untimed warm-up session (so lazy initialisation — worker pool, join
/// maps, allocator arenas — is paid before the clock starts). The
/// warm-up session is the same for every `--seed`, so `setup_s` measures
/// the system and not which sequence a seed happened to draw. Returns
/// the service with an empty store and the seconds it took.
pub fn setup(template: Template, scale: &Scale) -> (LaqyService, f64) {
    let t = Instant::now();
    let svc = service(generate_catalog(scale));
    let warm_up = explore_ops(
        template,
        DATA_SEED,
        &Scale {
            q1_sessions: 1,
            q2_sessions: 1,
            ..scale.clone()
        },
    );
    for &range in warm_up.sessions.iter().flatten() {
        let _ = svc.run(&template.query(range, scale.k));
    }
    svc.clear_samples();
    (svc, t.elapsed().as_secs_f64())
}

/// What one pass over the op list produced.
pub struct Pass {
    /// Wall time from the first op to the last, seconds.
    pub wall_s: f64,
    /// Every query in list order; `None` for one that returned an error
    /// or a degraded answer.
    pub queries: Vec<Option<Timed>>,
    /// The audited `(query, answer)` pairs.
    pub audited: Vec<(ApproxQuery, ApproxResult)>,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
}

impl Pass {
    /// The queries that succeeded, in list order.
    pub fn succeeded(&self) -> Vec<Timed> {
        self.queries.iter().flatten().cloned().collect()
    }

    /// Each query's latency at the caller, ms (`None` where it failed).
    pub fn latencies(&self) -> Vec<Option<f64>> {
        self.queries
            .iter()
            .map(|q| q.as_ref().map(|t| t.ms))
            .collect()
    }
}

/// Run the whole op list once. `audit_at` holds ascending positions (in
/// flattened list order) whose answers are kept for the oracle.
pub fn run_pass(
    svc: &LaqyService,
    ops: &ExploreOps,
    scale: &Scale,
    audit_at: &[usize],
    mut rec: Recorder,
) -> Pass {
    let mut queries = Vec::with_capacity(ops.len());
    let mut audited = Vec::with_capacity(audit_at.len());
    let mut next_audit = audit_at.iter().copied().peekable();
    let mut position = 0usize;
    let started = Instant::now();
    for session in &ops.sessions {
        svc.clear_samples();
        for &range in session {
            let t0 = Instant::now();
            let query = ops.template.query(range, scale.k);
            let t1 = Instant::now();
            let outcome = svc.run(&query);
            let t2 = Instant::now();
            queries.push(match outcome {
                Ok(result) if result.stats.degraded.is_none() => {
                    let timed = Timed {
                        ms: (t2 - t1).as_secs_f64() * 1e3,
                        stats: result.stats.clone(),
                    };
                    if next_audit.next_if_eq(&position).is_some() {
                        audited.push((query, result));
                    }
                    Some(timed)
                }
                _ => None,
            });
            rec.record_op(position as u32, "service.run", [t0, t1, t2, Instant::now()]);
            position += 1;
        }
    }
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        queries,
        audited,
        spans: rec.into_spans(),
    }
}

/// Audit kept answers against `run_exact` on the same (static) catalog.
pub fn audit(svc: &LaqyService, audited: &[(ApproxQuery, ApproxResult)]) -> Result<Audit, String> {
    let mut audit = Audit::default();
    for (query, result) in audited {
        let keys = svc
            .decode_keys(query, result)
            .map_err(|e| format!("decode_keys failed: {e}"))?;
        let approx: Vec<GroupAnswer> = keys
            .into_iter()
            .zip(&result.groups)
            .map(|(key, g)| GroupAnswer {
                key,
                value: g.values[SUM_REVENUE].value,
                ci_half_width: g.values[SUM_REVENUE].ci_half_width,
            })
            .collect();
        let (exact, _) = svc
            .run_exact(query)
            .map_err(|e| format!("run_exact failed: {e}"))?;
        audit.add(&approx, &exact);
    }
    Ok(audit)
}
