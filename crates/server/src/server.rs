//! The TCP serving front-end: a blocking accept loop handing each
//! connection to its own thread, over the engine's thread-per-core
//! morsel pool.
//!
//! Every request follows the overload pipeline:
//!
//! 1. **Connection cap** — past `max_connections` the socket gets a
//!    best-effort `Overloaded` and is closed; memory stays bounded.
//! 2. **Admission** — the tenant's [`Gate`](crate::admission::Gate)
//!    grants a permit, queues (bounded), or sheds with a typed
//!    `Overloaded { retry_after_ms }`. The request never ran.
//! 3. **Budget** — the tenant's default [`QueryBudget`] is intersected
//!    with the request's own `timeout_ms` (clients can only tighten),
//!    then charged for the time spent queued. An admitted query always
//!    runs; overload makes it *degrade* (partial scan, widened CIs)
//!    before anything is shed.
//! 4. **Slow clients** — reads that stall mid-frame and writes that
//!    exceed `write_timeout` drop the connection; an idle client
//!    between frames is kept.
//!
//! Drain is explicit and ordered: stop admitting (accept loop, tenant
//! creation, every gate), wait for in-flight permits, then snapshot each
//! WAL-backed tenant (fsync + WAL checkpoint). Acked ingests are
//! WAL-durable *before* the ack, so even a kill mid-drain loses
//! nothing that was acknowledged.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laqy::executor::{key_columns, LaqyError};
use laqy::{Groups, QueryBudget};
use laqy_engine::{Catalog, StoredColumn};
use laqy_faults::points;
use laqy_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::admission::Admission;
use crate::protocol::{
    begin_frame, configure_stream, put_answer, put_key_part, read_frame, write_frame, AnswerAgg,
    DegradedInfo, ErrorCode, FrameRead, Request, Response, TenantSnapshot, MAX_FRAME_BYTES,
};
use crate::tenant::{queue_wait_cap, TenantRegistry, TenantState};

/// Serving-layer knobs. `Default` is sized for tests (small permit
/// counts so overload is easy to provoke); production callers set their
/// own.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Concurrent queries/ingests per tenant.
    pub tenant_permits: usize,
    /// Bounded admission queue depth per tenant; beyond it requests
    /// are shed immediately.
    pub tenant_queue: usize,
    /// Longest a request may wait in the admission queue (also capped
    /// by `default_allowance` — see [`queue_wait_cap`]).
    pub admission_max_wait: Duration,
    /// Back-off hint attached to `Overloaded` responses.
    pub retry_after: Duration,
    /// Accepted-connection cap across all tenants.
    pub max_connections: usize,
    /// Lazily-created tenant cap.
    pub max_tenants: usize,
    /// Default per-query wall-clock allowance (the tenant contract).
    pub default_allowance: Duration,
    /// Socket read timeout; doubles as the idle-poll interval for the
    /// stop flag.
    pub read_timeout: Duration,
    /// Socket write timeout; a stalled client write past this drops
    /// the connection.
    pub write_timeout: Duration,
    /// Longest drain waits per tenant for in-flight work.
    pub drain_wait: Duration,
    /// Engine worker threads per tenant service.
    pub threads: usize,
    /// Base RNG seed; perturbed per tenant name.
    pub seed: u64,
    /// When set, tenants persist under `<data_dir>/<tenant>/{snap,wal}`
    /// and ingests are WAL-durable before the ack.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            tenant_permits: 2,
            tenant_queue: 8,
            admission_max_wait: Duration::from_secs(2),
            retry_after: Duration::from_millis(50),
            max_connections: 64,
            max_tenants: 16,
            default_allowance: Duration::from_millis(500),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(2),
            drain_wait: Duration::from_secs(5),
            threads: laqy::SessionConfig::default().threads,
            seed: 0xA17,
            data_dir: None,
        }
    }
}

/// What a finished drain observed, for operators and the chaos suite.
#[derive(Debug)]
pub struct DrainReport {
    /// Tenants that existed at drain time.
    pub tenants: usize,
    /// Whether every gate went idle within `drain_wait` (false means
    /// in-flight work was abandoned at the timeout; the WAL still
    /// covers every acked ingest).
    pub idle: bool,
    /// Per-tenant snapshot outcome (tenant name, generation or error).
    /// Only WAL-backed tenants appear.
    pub snapshots: Vec<(String, Result<u64, String>)>,
}

struct Shared {
    registry: TenantRegistry,
    config: Arc<ServerConfig>,
    stopping: AtomicBool,
    connections: AtomicUsize,
}

/// A running serving instance. Dropping it without
/// [`Server::shutdown`] leaves the accept thread running until the
/// process exits; tests and the binary always drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `catalog` under `config`.
    pub fn start(catalog: Catalog, config: ServerConfig) -> std::io::Result<Server> {
        let config = Arc::new(config);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: TenantRegistry::new(catalog, Arc::clone(&config)),
            config,
            stopping: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("laqy-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (the ephemeral port when `addr` ended in `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The tenant registry (tests inspect per-tenant state through it).
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// Graceful drain: close admissions everywhere, wait for in-flight
    /// permits, snapshot every WAL-backed tenant. Idempotent; a second
    /// call re-snapshots (harmless — snapshots are generation-numbered
    /// and atomic).
    pub fn drain(&self) -> DrainReport {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // The accept thread may be parked in accept(); a throwaway
        // connection wakes it to observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        // Closing the registry stops tenant creation and returns the
        // tenant list in one atomic step: a racing request can no
        // longer create a tenant whose gate this loop would miss.
        let tenants = self.shared.registry.close();
        for t in &tenants {
            t.gate.drain();
        }
        let mut idle = true;
        for t in &tenants {
            idle &= t.gate.await_idle(self.shared.config.drain_wait);
        }
        let mut snapshots = Vec::new();
        for t in &tenants {
            if let Some((snap, _wal)) = &t.dirs {
                let outcome = t.service.save_snapshot(snap).map_err(|e| e.to_string());
                snapshots.push((t.name.clone(), outcome));
            }
        }
        DrainReport {
            tenants: tenants.len(),
            idle,
            snapshots,
        }
    }

    /// Drain, then join the accept thread.
    pub fn shutdown(mut self) -> DrainReport {
        let report = self.drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        report
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conn_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        // Chaos point: an Io kind here drops the accepted connection on
        // the floor — the client sees a reset, never a hang.
        if laqy_faults::point(points::NET_ACCEPT).is_err() {
            continue;
        }
        let slot = ConnSlot::claim(&shared);
        let Some(slot) = slot else {
            shed_connection(stream, &shared.config);
            continue;
        };
        conn_id += 1;
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("laqy-conn-{conn_id}"))
            .spawn(move || serve_connection(stream, conn_shared, slot));
        if spawned.is_err() {
            // Spawn failure is overload too; the slot frees on drop and
            // the stream closes.
            continue;
        }
    }
}

/// Best-effort `Overloaded` for a connection rejected at the cap. The
/// write may fail (the peer is a stranger); either way the socket
/// closes and nothing is retained.
fn shed_connection(mut stream: TcpStream, config: &ServerConfig) {
    let _ = configure_stream(&stream, config.read_timeout, config.write_timeout);
    let mut outbox = Vec::new();
    begin_frame(&mut outbox);
    Response::Overloaded {
        retry_after_ms: config.retry_after.as_millis() as u32,
    }
    .encode_into(&mut outbox);
    let _ = write_frame(&mut stream, &mut outbox);
}

/// RAII connection-cap slot.
struct ConnSlot {
    shared: Arc<Shared>,
}

impl ConnSlot {
    fn claim(shared: &Arc<Shared>) -> Option<ConnSlot> {
        let prev = shared.connections.fetch_add(1, Ordering::SeqCst);
        if prev >= shared.config.max_connections {
            shared.connections.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(ConnSlot {
            shared: Arc::clone(shared),
        })
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn serve_connection(mut stream: TcpStream, shared: Arc<Shared>, _slot: ConnSlot) {
    let config = &shared.config;
    if configure_stream(&stream, config.read_timeout, config.write_timeout).is_err() {
        return;
    }
    // The connection's two frame buffers, reused by every request: the
    // request payload is read into `inbox`, the response is encoded into
    // `outbox` once and written from there.
    let (mut inbox, mut outbox) = (Vec::new(), Vec::new());
    loop {
        match read_frame(&mut stream, &mut inbox) {
            Ok(FrameRead::Idle) => {
                // Idle clients are kept — unless the server is leaving.
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame) => {
                let t_recv = Instant::now();
                // Sampled before dispatch: a request already in flight
                // when drain flips the flag keeps its connection; only
                // requests *processed* while draining close it below.
                let draining = shared.stopping.load(Ordering::SeqCst);
                begin_frame(&mut outbox);
                match Request::decode(&inbox) {
                    Ok(request) => dispatch(&shared, request, t_recv, &mut outbox),
                    Err(e) => Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    }
                    .encode_into(&mut outbox),
                }
                if write_frame(&mut stream, &mut outbox).is_err() {
                    // Slow, gone, or chaos-injected: drop the connection.
                    return;
                }
                // A drained request has been answered (with a typed
                // `Draining` for real work); closing here lets
                // connection threads wind down instead of living for as
                // long as the client keeps sending frames.
                if draining {
                    return;
                }
            }
            // Slow client (stalled mid-frame), oversized frame, injected
            // read fault, or a real socket error: drop the connection.
            Err(_) => return,
        }
    }
}

/// Run `request` and append its response payload to `out`.
fn dispatch(shared: &Arc<Shared>, request: Request, t_recv: Instant, out: &mut Vec<u8>) {
    match request {
        Request::Ping => Response::Pong.encode_into(out),
        // Stats is a read-only probe: it must never allocate a tenant
        // (service, dirs, WAL) or consume a `max_tenants` slot. A
        // never-served tenant reports all-zero counters.
        Request::Stats { tenant } => match shared.registry.lookup(&tenant) {
            Ok(Some(t)) => Response::StatsReply(t.counters.snapshot()),
            Ok(None) => Response::StatsReply(TenantSnapshot::default()),
            Err(e) => Response::Error {
                code: e.code(),
                message: e.message(),
            },
        }
        .encode_into(out),
        Request::Query {
            tenant,
            sql,
            k,
            timeout_ms,
        } => with_admission(shared, &tenant, t_recv, out, |t, budget, out| {
            let budget = requested_budget(timeout_ms, budget);
            let start = out.len();
            let failure = match run_query(t, &sql, k as usize, budget, out) {
                Ok(degraded) if out.len() - start <= MAX_FRAME_BYTES => {
                    return t.counters.note_answer(degraded);
                }
                // The client's frame reader would refuse this answer.
                Ok(_) => {
                    let (bytes, cap) = (out.len() - start, MAX_FRAME_BYTES);
                    out.truncate(start);
                    let message =
                        format!("answer of {bytes} bytes exceeds the {cap}-byte frame cap");
                    Response::Error {
                        code: ErrorCode::Failed,
                        message,
                    }
                }
                Err(e) => error_response(&e),
            };
            t.counters.note_error();
            failure.encode_into(out);
        }),
        Request::Ingest {
            tenant,
            table,
            columns,
        } => with_admission(shared, &tenant, t_recv, out, |t, _budget, out| {
            match t.service.ingest(&table, columns) {
                Ok(watermark) => {
                    t.counters.note_ingest_ack();
                    Response::IngestAck { watermark }
                }
                Err(e) => {
                    t.counters.note_error();
                    error_response(&e)
                }
            }
            .encode_into(out)
        }),
    }
}

/// Resolve the tenant, pass its gate, and run `body` holding the
/// permit, with the queue wait already charged against the budget
/// handed in. `body` appends the response to `out`; a request that
/// never ran gets its typed refusal appended here.
fn with_admission(
    shared: &Arc<Shared>,
    tenant: &str,
    t_recv: Instant,
    out: &mut Vec<u8>,
    body: impl FnOnce(&TenantState, QueryBudget, &mut Vec<u8>),
) {
    let t = match shared.registry.get_or_create(tenant) {
        Ok(t) => t,
        Err(e) => {
            return Response::Error {
                code: e.code(),
                message: e.message(),
            }
            .encode_into(out)
        }
    };
    match t.gate.admit(queue_wait_cap(&shared.config)) {
        Admission::Shed => {
            t.counters.note_shed();
            Response::Overloaded {
                retry_after_ms: shared.config.retry_after.as_millis() as u32,
            }
            .encode_into(out)
        }
        Admission::Draining => {
            t.counters.note_rejected_draining();
            Response::Error {
                code: ErrorCode::Draining,
                message: "server is draining; admissions are closed".to_string(),
            }
            .encode_into(out)
        }
        Admission::Granted(permit) => {
            // Everything since the frame arrived — decode plus queue
            // wait — is charged against the allowance: an admitted
            // request degrades rather than overstaying its contract.
            let budget = t.default_budget.after_wait(t_recv.elapsed());
            body(&t, budget, out);
            drop(permit);
        }
    };
}

/// Fold the client's own `timeout_ms` (0 = tenant default) into the
/// already-wait-charged tenant budget. Intersection means a client can
/// only tighten its contract, never relax it.
fn requested_budget(timeout_ms: u32, tenant_budget: QueryBudget) -> QueryBudget {
    if timeout_ms == 0 {
        return tenant_budget;
    }
    tenant_budget.intersect(QueryBudget::with_deadline(Duration::from_millis(
        timeout_ms as u64,
    )))
}

/// Plan and run `sql`, appending the answer payload to `out` straight
/// from the engine's group buffer and the query's key columns; `Ok`
/// says whether the answer is degraded. Nothing is appended on `Err`.
fn run_query(
    t: &TenantState,
    sql: &str,
    k: usize,
    budget: QueryBudget,
    out: &mut Vec<u8>,
) -> Result<bool, LaqyError> {
    let query = laqy::approx_query(&t.service.catalog(), sql, k)?;
    let result = t.service.run_with_budget(&query, budget)?;
    let degraded = result.stats.degraded.as_ref().map(|d| DegradedInfo {
        coverage: d.coverage,
        ci_inflation: d.ci_inflation,
    });
    let catalog = t.service.catalog();
    let cols = key_columns(&catalog, &query)?;
    put_groups(out, degraded.as_ref(), &cols, &result.groups);
    Ok(degraded.is_some())
}

/// The answer payload for `groups`, their key parts decoded against
/// `cols`: the bytes `Response::Answer` would encode to, without a
/// `Value`, a `String` or a vector per group.
fn put_groups(
    out: &mut Vec<u8>,
    degraded: Option<&DegradedInfo>,
    cols: &[&StoredColumn],
    groups: &Groups,
) {
    put_answer(
        out,
        degraded,
        groups.iter().map(|g| {
            let aggs = g.values.iter().map(|v| AnswerAgg {
                value: v.value,
                ci_half_width: v.ci_half_width,
                support: v.support as u64,
            });
            (g.key.iter().zip(cols), aggs)
        }),
        |buf, (&part, col)| put_key_part(buf, col, part),
    );
}

/// Map an engine failure onto the wire. Every failure class a request
/// can hit has a typed code — a client never sees a hang or a torn
/// frame for an engine-side problem.
fn error_response(e: &LaqyError) -> Response {
    let code = match e {
        LaqyError::Unsupported(_) => ErrorCode::BadRequest,
        LaqyError::WorkerPanic(_) => ErrorCode::WorkerPanic,
        LaqyError::Injected(_) => ErrorCode::Injected,
        _ => ErrorCode::Failed,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Answer, AnswerGroup};
    use laqy::estimate::AggEstimate;
    use laqy_engine::Column;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// A key column of each kind the engine groups by: `Int64`, `Float64`
    /// (parts are the value's bits) and a dictionary of `dict` entries.
    fn key_column(kind: u8, dict: Vec<String>) -> StoredColumn {
        StoredColumn::from(match kind {
            0 => Column::Int64(Vec::new()),
            1 => Column::Float64(Vec::new()),
            _ => Column::Dict {
                codes: Vec::new(),
                dict: Arc::new(dict),
            },
        })
    }

    proptest! {
        #[test]
        fn direct_answer_bytes_equal_the_response_encoding(
            degraded in (0u8..2, any::<u64>(), any::<u64>()),
            cols in prop::collection::vec(
                (0u8..3, prop::collection::vec("[a-zA-Z0-9#]{0,12}", 0..5)),
                0..4,
            ),
            // (key part bits, dict code) per column; a code past the
            // dictionary (or negative) decodes to `Null`.
            shape in prop::collection::vec(
                (
                    prop::collection::vec((any::<u64>(), -1i64..7), 4..5),
                    // (value bits, half-width bits, support); `any` bits
                    // cover NaN half-widths (MIN/MAX) and their payloads.
                    prop::collection::vec((any::<u64>(), any::<u64>(), 0usize..1_000_000), 3..4),
                ),
                0..24,
            ),
            aggs in 0usize..4,
        ) {
            let degraded = (degraded.0 == 1).then(|| DegradedInfo {
                coverage: f64::from_bits(degraded.1),
                ci_inflation: f64::from_bits(degraded.2),
            });
            let cols: Vec<StoredColumn> =
                cols.into_iter().map(|(kind, dict)| key_column(kind, dict)).collect();
            let cols: Vec<&StoredColumn> = cols.iter().collect();
            let mut groups = Groups::with_capacity(shape.len(), aggs);
            for (parts, values) in &shape {
                let key: Vec<i64> = parts
                    .iter()
                    .zip(&cols)
                    .map(|(&(bits, code), col)| match col {
                        StoredColumn::Dict { .. } => code,
                        _ => bits as i64,
                    })
                    .collect();
                let values = values[..aggs].iter().map(|&(value, half, support)| AggEstimate {
                    value: f64::from_bits(value),
                    ci_half_width: f64::from_bits(half),
                    support,
                });
                groups.push(&key, values, 0);
            }

            let mut direct = Vec::new();
            put_groups(&mut direct, degraded.as_ref(), &cols, &groups);

            let materialised = Response::Answer(Answer {
                degraded,
                groups: groups
                    .iter()
                    .map(|g| AnswerGroup {
                        key: g.key.iter().zip(&cols).map(|(&part, col)| col.decode_key(part)).collect(),
                        values: g
                            .values
                            .iter()
                            .map(|v| AnswerAgg {
                                value: v.value,
                                ci_half_width: v.ci_half_width,
                                support: v.support as u64,
                            })
                            .collect(),
                    })
                    .collect(),
            });
            prop_assert_eq!(direct, materialised.encode());
        }
    }
}
