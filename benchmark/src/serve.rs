//! The serving workloads (`serve_hot`, `serve_ingest`): closed-loop
//! clients over real loopback sockets against an in-process
//! `laqy_server::Server`, measured at `Client::request` as a user of the
//! wire would see it.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use laqy::{ApproxQuery, ApproxResult, LaqyError, LaqyService, QueryBudget};
use laqy_engine::{Catalog, Column, Value};
use laqy_server::{Answer, Client, Request, Response, Server, ServerConfig, TenantState};
use laqy_workload::serving::q1_sql;

use crate::explore::{generate_catalog, service};
use crate::layers::Timed;
use crate::ops::{ServeOps, WireOp};
use crate::oracle::{Audit, GroupAnswer, SUM_REVENUE};
use crate::spec::{Scale, ENGINE_THREADS};
use crate::trace::{Recorder, Span};

/// The single tenant every client talks to.
pub const TENANT: &str = "bench";
/// Per-query allowance: far above any latency at the committed sizes,
/// so no answer degrades (a degraded answer counts as not ok).
pub const ALLOWANCE: Duration = Duration::from_secs(5);
/// Client socket timeout; a stall past it is an I/O failure, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server with its one tenant resolved.
pub struct Served {
    server: Server,
    /// The tenant's state (service, counters, data dirs).
    pub tenant: Arc<TenantState>,
    /// The base catalog the server was started over.
    pub catalog: Catalog,
}

impl Served {
    /// The bound loopback address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Graceful shutdown: drain, snapshot, join the accept thread.
    pub fn shutdown(self) {
        let report = self.server.shutdown();
        debug_assert!(report.idle, "no client is connected at shutdown");
    }
}

/// Plan, run and decode one SQL query the way the server's request
/// handler does, in-process.
pub fn run_sql(
    svc: &LaqyService,
    sql: &str,
    k: usize,
) -> Result<(ApproxQuery, ApproxResult, Vec<Vec<Value>>), LaqyError> {
    let query = laqy::approx_query(&svc.catalog(), sql, k)?;
    let result = svc.run_with_budget(&query, QueryBudget::with_deadline(ALLOWANCE))?;
    let keys = svc.decode_keys(&query, &result)?;
    Ok((query, result, keys))
}

/// Warm a service's store by replaying every query of the op list once
/// (ingests are skipped: warm-up must not change the data).
fn warm(svc: &LaqyService, ops: &ServeOps, scale: &Scale) -> Result<(), String> {
    for (_, _, lo, hi) in ops.queries() {
        run_sql(svc, &q1_sql(lo, hi), scale.k).map_err(|e| format!("warm-up query failed: {e}"))?;
    }
    Ok(())
}

/// Set-up of a serving run: data generation, server start (with a WAL
/// under `data_dir` when given) and store warm-up by replaying the
/// list's queries once against the tenant's service. Returns the running
/// server and the seconds it took.
pub fn setup(
    ops: &ServeOps,
    scale: &Scale,
    data_dir: Option<&Path>,
) -> Result<(Served, f64), String> {
    let t = Instant::now();
    let catalog = generate_catalog(scale);
    let server = Server::start(
        catalog.clone(),
        ServerConfig {
            threads: ENGINE_THREADS,
            default_allowance: ALLOWANCE,
            data_dir: data_dir.map(Path::to_path_buf),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start failed: {e}"))?;
    let tenant = server
        .registry()
        .get_or_create(TENANT)
        .map_err(|e| format!("tenant setup failed: {}", e.message()))?;
    warm(&tenant.service, ops, scale)?;
    Ok((
        Served {
            server,
            tenant,
            catalog,
        },
        t.elapsed().as_secs_f64(),
    ))
}

/// What one client observed over its op list.
#[derive(Default)]
pub struct ClientRun {
    /// Per op in list order: the latency of the answered query or the
    /// acknowledged ingest in ms, `None` without the expected typed
    /// success.
    pub ops: Vec<Option<f64>>,
    /// What the first few unexpected outcomes were.
    pub failures: Vec<String>,
    /// Audited `(sql, answer)` pairs.
    pub audited: Vec<(String, Answer)>,
    /// Rows in acknowledged ingest batches.
    pub acked_rows: u64,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
}

/// What one pass of all clients produced.
pub struct Pass {
    /// Wall time from the common start to the last client's end.
    pub wall_s: f64,
    /// Per-client results.
    pub clients: Vec<ClientRun>,
}

impl Pass {
    /// Each client's op latencies in list order (`None` where one failed).
    pub fn latencies(&self) -> Vec<Vec<Option<f64>>> {
        self.clients.iter().map(|c| c.ops.clone()).collect()
    }
}

fn query_request(sql: String, scale: &Scale) -> Request {
    Request::Query {
        tenant: TENANT.to_string(),
        sql,
        k: scale.k as u32,
        timeout_ms: 0,
    }
}

fn run_client(
    addr: std::net::SocketAddr,
    ops: &[WireOp],
    scale: &Scale,
    audit_at: &[usize],
    mut rec: Recorder,
    start: &Barrier,
) -> (ClientRun, Instant) {
    let mut run = ClientRun::default();
    let note_failure = |run: &mut ClientRun, what: String| {
        if run.failures.len() < 4 {
            run.failures.push(what);
        }
        None
    };
    let mut conn = Client::connect(addr, IO_TIMEOUT).ok();
    let mut next_audit = audit_at.iter().copied().peekable();
    start.wait();
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        let (request, sql, rows) = match op {
            WireOp::Query { lo, hi } => {
                let sql = q1_sql(*lo, *hi);
                (query_request(sql.clone(), scale), Some(sql), 0)
            }
            WireOp::Ingest { rows, .. } => (
                Request::Ingest {
                    tenant: TENANT.to_string(),
                    table: "lineorder".to_string(),
                    columns: op.batch(scale).expect("ingest ops carry a batch"),
                },
                None,
                *rows as u64,
            ),
        };
        if conn.is_none() {
            conn = Client::connect(addr, IO_TIMEOUT).ok();
        }
        let t1 = Instant::now();
        let response = match conn.as_mut() {
            Some(c) => c.request(&request),
            None => Err(std::io::Error::other("connect failed")),
        };
        let t2 = Instant::now();
        let ms = (t2 - t1).as_secs_f64() * 1e3;
        let outcome = match (response, sql) {
            (Ok(Response::Answer(answer)), Some(sql)) if answer.degraded.is_none() => {
                if next_audit.next_if_eq(&i).is_some() {
                    run.audited.push((sql, answer));
                }
                Some(ms)
            }
            (Ok(Response::IngestAck { .. }), None) => {
                run.acked_rows += rows;
                Some(ms)
            }
            (Ok(other), _) => note_failure(&mut run, format!("op {i}: unexpected {other:?}")),
            (Err(e), _) => {
                // Timeout or reset: reconnect for the next op.
                conn = None;
                note_failure(&mut run, format!("op {i}: I/O error {e}"))
            }
        };
        run.ops.push(outcome);
        rec.record_op(i as u32, "client.request", [t0, t1, t2, Instant::now()]);
    }
    run.spans = rec.into_spans();
    (run, Instant::now())
}

/// Run every client's list once, all clients released together. With
/// `trace_origin` set, each client records spans against that origin.
/// `audit_at[c]` holds ascending positions in client `c`'s list.
pub fn run_pass(
    addr: std::net::SocketAddr,
    ops: &ServeOps,
    scale: &Scale,
    audit_at: &[Vec<usize>],
    trace_origin: Option<Instant>,
) -> Pass {
    // Clients plus this thread, which reads the clock at the release.
    let start = Barrier::new(ops.clients.len() + 1);
    let (started, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .clients
            .iter()
            .zip(audit_at)
            .map(|(list, audit)| {
                let rec = trace_origin.map_or_else(Recorder::off, Recorder::on);
                let start = &start;
                scope.spawn(move || run_client(addr, list, scale, audit, rec, start))
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let results: Vec<(ClientRun, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client thread panicked"))
            .collect();
        (started, results)
    });
    let ended = results.iter().map(|(_, t)| *t).max().unwrap_or(started);
    Pass {
        wall_s: (ended - started).as_secs_f64(),
        clients: results.into_iter().map(|(run, _)| run).collect(),
    }
}

/// Split flat audit positions over the query ops into per-client
/// position lists.
pub fn audit_positions(ops: &ServeOps, seed: u64, n: usize) -> Vec<Vec<usize>> {
    let queries: Vec<(usize, usize)> = ops.queries().map(|(c, i, _, _)| (c, i)).collect();
    let mut per_client = vec![Vec::new(); ops.clients.len()];
    for p in crate::ops::audit_positions(seed, queries.len(), n) {
        let (c, i) = queries[p];
        per_client[c].push(i);
    }
    per_client
}

/// Median round trip of `n` pings on a fresh, otherwise idle connection:
/// the floor under every wire op.
pub fn ping_rtt_ms(addr: std::net::SocketAddr, n: usize) -> Result<f64, String> {
    let mut c = Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("ping connect: {e}"))?;
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        match c.request(&Request::Ping) {
            Ok(Response::Pong) => ms.push(t.elapsed().as_secs_f64() * 1e3),
            other => return Err(format!("ping got {other:?}")),
        }
    }
    Ok(crate::stats::median(&ms))
}

/// Ask the audited queries again over the wire, one after the other
/// (`serve_ingest`'s probe after the last ack).
pub fn probe_answers(
    addr: std::net::SocketAddr,
    ops: &ServeOps,
    scale: &Scale,
    audit_at: &[Vec<usize>],
) -> Result<Vec<(String, Answer)>, String> {
    let mut c = Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("probe connect: {e}"))?;
    let mut out = Vec::new();
    for (list, positions) in ops.clients.iter().zip(audit_at) {
        for &i in positions {
            let WireOp::Query { lo, hi } = list[i] else {
                return Err(format!("audit position {i} is not a query"));
            };
            let sql = q1_sql(lo, hi);
            match c.request(&query_request(sql.clone(), scale)) {
                Ok(Response::Answer(a)) if a.degraded.is_none() => out.push((sql, a)),
                other => return Err(format!("probe query got {other:?}")),
            }
        }
    }
    Ok(out)
}

/// Audit wire answers against `run_exact` on `oracle`'s catalog.
pub fn audit(
    oracle: &LaqyService,
    scale: &Scale,
    answers: &[(String, Answer)],
) -> Result<Audit, String> {
    let mut audit = Audit::default();
    for (sql, answer) in answers {
        let query = laqy::approx_query(&oracle.catalog(), sql, scale.k)
            .map_err(|e| format!("oracle plan failed: {e}"))?;
        let (exact, _) = oracle
            .run_exact(&query)
            .map_err(|e| format!("run_exact failed: {e}"))?;
        let approx: Vec<GroupAnswer> = answer
            .groups
            .iter()
            .map(|g| GroupAnswer {
                key: g.key.clone(),
                value: g.values[SUM_REVENUE].value,
                ci_half_width: g.values[SUM_REVENUE].ci_half_width,
            })
            .collect();
        audit.add(&approx, &exact);
    }
    Ok(audit)
}

/// The catalog an independent observer expects after every ingest of the
/// list was acknowledged: the base plus all batches (row order does not
/// matter to exact aggregates, so the batches are appended as one).
pub fn grown_catalog(base: &Catalog, ops: &ServeOps, scale: &Scale) -> Result<Catalog, String> {
    let mut all: Option<Vec<(String, Column)>> = None;
    for batch in ops
        .clients
        .iter()
        .flatten()
        .filter_map(|op| op.batch(scale))
    {
        match all.as_mut() {
            None => all = Some(batch),
            Some(columns) => {
                for ((name, col), (_, more)) in columns.iter_mut().zip(&batch) {
                    col.append(name, more).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    let mut catalog = base.clone();
    if let Some(columns) = all {
        let table = base.table("lineorder").map_err(|e| e.to_string())?;
        catalog.register(table.append_batch(&columns).map_err(|e| e.to_string())?);
    }
    Ok(catalog)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Durability check. While the server is still running and undrained —
/// the state a crash right after the last ack would leave — copy the
/// tenant's directory, recover a fresh service from the copy alone and
/// require the recovered row watermark to equal the base rows plus every
/// acknowledged batch. Returns the recovery time in ms.
pub fn verify_durability(served: &Served, scratch: &Path, acked_rows: u64) -> Result<f64, String> {
    let Some((snap, wal)) = &served.tenant.dirs else {
        return Err("tenant has no data directory".to_string());
    };
    let (snap_copy, wal_copy): (PathBuf, PathBuf) = (scratch.join("snap"), scratch.join("wal"));
    copy_dir(snap, &snap_copy).map_err(|e| format!("copy snapshot dir: {e}"))?;
    copy_dir(wal, &wal_copy).map_err(|e| format!("copy wal dir: {e}"))?;
    let base_rows = served
        .catalog
        .table("lineorder")
        .map_err(|e| e.to_string())?
        .row_watermark();
    let recovered = service(served.catalog.clone());
    let t = Instant::now();
    recovered
        .recover_with_wal(&snap_copy, &wal_copy)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let watermark = recovered
        .catalog()
        .table("lineorder")
        .map_err(|e| e.to_string())?
        .row_watermark();
    if watermark != base_rows + acked_rows {
        return Err(format!(
            "recovered watermark {watermark} != base {base_rows} + acked {acked_rows}"
        ));
    }
    Ok(ms)
}

/// Replay the op list in-process on a fresh, equally warmed service:
/// the clients' lists interleaved round-robin on one thread, queries
/// through [`run_sql`], ingests through `LaqyService::ingest` (no WAL).
/// Gives the engine-side view of the same work (`executor.*`) and the
/// in-process p50 that `wire.overhead_ms` subtracts.
pub fn replay_in_process(
    catalog: &Catalog,
    ops: &ServeOps,
    scale: &Scale,
) -> Result<(LaqyService, Vec<Timed>), String> {
    let svc = service(catalog.clone());
    warm(&svc, ops, scale)?;
    let longest = ops.clients.iter().map(Vec::len).max().unwrap_or(0);
    let mut queries = Vec::new();
    for i in 0..longest {
        for list in &ops.clients {
            match list.get(i) {
                Some(WireOp::Query { lo, hi }) => {
                    let sql = q1_sql(*lo, *hi);
                    let t = Instant::now();
                    let (_, result, _) = run_sql(&svc, &sql, scale.k)
                        .map_err(|e| format!("in-process replay query failed: {e}"))?;
                    queries.push(Timed {
                        ms: t.elapsed().as_secs_f64() * 1e3,
                        stats: result.stats,
                    });
                }
                Some(op @ WireOp::Ingest { .. }) => {
                    let batch = op.batch(scale).expect("ingest ops carry a batch");
                    svc.ingest("lineorder", batch)
                        .map_err(|e| format!("in-process replay ingest failed: {e}"))?;
                }
                None => {}
            }
        }
    }
    Ok((svc, queries))
}
