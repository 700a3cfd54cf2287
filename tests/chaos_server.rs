//! Chaos suite for the serving layer, driven by the `laqy-faults`
//! registry (`--cfg laqy_faults` builds only). Three invariants, each
//! swept over 32 seeds, plus two single-shot checks — `net.write`
//! fires once per frame, and the client fails closed after a `net.read`
//! fault:
//!
//! - **No hangs under wire faults.** With `net.read` / `net.write` /
//!   `net.accept` / `net.latency` faults live on both sides of the
//!   socket, every client operation resolves — a typed response or an
//!   I/O error — and once the plan is cleared the same server answers
//!   cleanly. (The proof of "no hang" is the test returning: every
//!   client request is bounded by its I/O timeout.)
//! - **Kill-mid-drain loses nothing acked.** A persist-path fault
//!   injected into drain's snapshot may tear the snapshot, but every
//!   WAL-durable acked ingest survives recovery on a fresh server over
//!   the same data directory.
//! - **A worker panic is a typed error, not a blast radius.** A morsel
//!   panic in one tenant's query surfaces as `WorkerPanic` on that
//!   request; the other tenant — and the panicking tenant's next
//!   request — answer normally.
//!
//! One more single-shot check: after an injected WAL append fault (a
//! torn write or a failed fsync), the tenant's next ingest re-opens the
//! log without touching its store and is acked durably.
#![cfg(laqy_faults)]

use std::time::Duration;

use laqy_faults::{FaultKind, FaultPlan};
use laqy_server::protocol::{ErrorCode, Request, Response};
use laqy_server::{Client, Server, ServerConfig};
use laqy_sync::Mutex;
use laqy_workload::ssb::SsbConfig;

/// The fault plan is process-global: every chaos test serializes on
/// this lock so one schedule never bleeds into another test.
static CHAOS_LOCK: Mutex<()> = Mutex::named("chaos.server.lock", ());

const SEEDS: u64 = 32;
/// Bounds every request even when a fault eats the response.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

fn start(config: ServerConfig) -> Server {
    let catalog = laqy_workload::generate(&SsbConfig::tiny());
    Server::start(catalog, config).expect("server binds")
}

fn q1(tenant: &str, lo: i64, hi: i64) -> Request {
    Request::Query {
        tenant: tenant.to_string(),
        sql: laqy_workload::q1_sql(lo, hi),
        k: 64,
        timeout_ms: 0,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("laqy-chaos-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn wire_faults_yield_typed_outcomes_or_io_errors_never_hangs() {
    let _guard = CHAOS_LOCK.lock();
    for seed in 0..SEEDS {
        laqy_faults::clear();
        let server = start(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let addr = server.addr();

        // Rotate the faulted surface with the seed; probabilities are
        // high enough that most seeds hit at least one injection.
        let plan = match seed % 4 {
            0 => FaultPlan::new(seed).fail_prob("net.read", FaultKind::Io, 0.2),
            1 => FaultPlan::new(seed).fail_prob("net.write", FaultKind::Io, 0.2),
            2 => FaultPlan::new(seed).fail_prob("net.accept", FaultKind::Io, 0.5),
            _ => FaultPlan::new(seed).fail_prob(
                "net.latency",
                FaultKind::Latency(Duration::from_millis(10)),
                0.3,
            ),
        };
        laqy_faults::install(plan);

        let mut typed = 0u32;
        let mut io_errors = 0u32;
        let mut client = Client::connect(addr, IO_TIMEOUT).expect("connect");
        for i in 0..12 {
            let lo = (i % 6) * 500;
            match client.request(&q1("chaos", lo, lo + 499)) {
                Ok(Response::Answer(_))
                | Ok(Response::Overloaded { .. })
                | Ok(Response::Error { .. }) => typed += 1,
                Ok(other) => panic!("seed {seed}: unexpected response {other:?}"),
                Err(_) => {
                    // A faulted read/write tears the connection; the
                    // only legal client-visible shape is an I/O error.
                    io_errors += 1;
                    client = Client::connect(addr, IO_TIMEOUT).expect("reconnect");
                }
            }
        }
        assert_eq!(typed + io_errors, 12, "seed {seed}: every op resolved");

        // Cleared plan: the same server answers a fresh client cleanly.
        laqy_faults::clear();
        let mut clean = Client::connect(addr, IO_TIMEOUT).expect("post-chaos connect");
        let resp = clean
            .request(&q1("chaos", 0, 999))
            .expect("post-chaos query");
        assert!(
            matches!(resp, Response::Answer(_)),
            "seed {seed}: post-chaos query must answer: {resp:?}"
        );
        server.shutdown();
    }
    laqy_faults::clear();
}

#[test]
fn net_write_fires_once_per_frame() {
    let _guard = CHAOS_LOCK.lock();
    laqy_faults::clear();
    let server = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("connect");
    // A zero-length stall on every trigger turns the injected-fault
    // counter into a trigger counter for the point.
    laqy_faults::install(FaultPlan::new(1).fail_every(
        "net.write",
        FaultKind::Latency(Duration::ZERO),
        1,
    ));
    for _ in 0..10 {
        let resp = client.request(&Request::Ping).expect("ping");
        assert!(matches!(resp, Response::Pong), "{resp:?}");
    }
    // Ten request frames + ten response frames: a schedule's "n-th
    // write" is the n-th frame, not a syscall inside one.
    assert_eq!(laqy_faults::injected_count(), 20);
    laqy_faults::clear();
    server.shutdown();
}

#[test]
fn client_fails_closed_after_an_injected_read_fault() {
    let _guard = CHAOS_LOCK.lock();
    laqy_faults::clear();
    let server = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("connect");
    let resp = client.request(&Request::Ping).expect("clean ping");
    assert!(matches!(resp, Response::Pong), "{resp:?}");

    // Every read faults, on both sides of the socket: the request dies
    // somewhere inside a frame.
    laqy_faults::install(FaultPlan::new(1).fail_every("net.read", FaultKind::Io, 1));
    client
        .request(&q1("chaos", 0, 499))
        .expect_err("read fault surfaces as an I/O error");
    laqy_faults::clear();

    // The stream's offset is unknown now. With the faults gone, the
    // client must refuse to reuse it rather than read a length prefix
    // from wherever it stopped...
    let dead = client.request(&Request::Ping).expect_err("fails closed");
    assert_eq!(dead.kind(), std::io::ErrorKind::NotConnected, "{dead}");
    // ...and a reconnect is all it takes.
    let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("reconnect");
    let resp = client.request(&q1("chaos", 0, 499)).expect("query");
    assert!(matches!(resp, Response::Answer(_)), "{resp:?}");
    server.shutdown();
}

#[test]
fn kill_mid_drain_never_loses_an_acked_ingest() {
    let _guard = CHAOS_LOCK.lock();
    const PERSIST_POINTS: [&str; 5] = [
        "persist.create",
        "persist.write_all",
        "persist.sync_file",
        "persist.rename",
        "persist.sync_dir",
    ];
    let base_rows = SsbConfig::tiny().lineorder_rows();
    for seed in 0..SEEDS {
        laqy_faults::clear();
        let dir = temp_dir(&format!("drain-{seed}"));
        let config = ServerConfig {
            threads: 2,
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = start(config.clone());
        let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("connect");

        // Two acked batches; the ack means WAL-durable.
        let mut acked_watermark = 0u64;
        for b in 0..2usize {
            let columns =
                laqy_workload::lineorder_batch(&SsbConfig::tiny(), base_rows + b * 64, 64);
            let ack = client
                .request(&Request::Ingest {
                    tenant: "durable".to_string(),
                    table: "lineorder".to_string(),
                    columns,
                })
                .expect("ingest");
            let Response::IngestAck { watermark } = ack else {
                panic!("seed {seed}: expected ack, got {ack:?}");
            };
            acked_watermark = watermark;
        }
        assert_eq!(acked_watermark, base_rows as u64 + 128);

        // The kill lands inside drain's snapshot: sweep which persist
        // fault point dies, and how deep into the write sequence.
        let point = PERSIST_POINTS[(seed % 5) as usize];
        let nth = 1 + seed / 5 % 3;
        laqy_faults::install(FaultPlan::new(seed).fail_nth(point, FaultKind::Io, nth));
        let report = server.drain();
        assert!(report.idle, "seed {seed}: drain waited out in-flight work");
        laqy_faults::clear();
        // Whether or not the snapshot tore, drain must report a typed
        // outcome per tenant rather than panic or hang.
        assert_eq!(report.snapshots.len(), 1, "seed {seed}: {report:?}");
        server.shutdown();

        // Recovery over the same directory: the acked ingest is intact
        // (from the snapshot if it landed, else from WAL replay).
        let revived = start(config);
        let tenant = revived
            .registry()
            .get_or_create("durable")
            .expect("recovers");
        let recovered = tenant
            .service
            .catalog()
            .table("lineorder")
            .expect("table")
            .num_rows() as u64;
        assert!(
            recovered >= acked_watermark,
            "seed {seed} ({point}, nth {nth}): acked ingest lost: \
             recovered {recovered} < acked {acked_watermark}"
        );
        // And the revived tenant still answers over the wire.
        let mut client = Client::connect(revived.addr(), IO_TIMEOUT).expect("reconnect");
        let resp = client.request(&q1("durable", 0, 999)).expect("query");
        assert!(matches!(resp, Response::Answer(_)), "seed {seed}: {resp:?}");
        revived.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    laqy_faults::clear();
}

#[test]
fn the_ingest_after_a_failed_append_reopens_the_log_and_survives_a_restart() {
    let _guard = CHAOS_LOCK.lock();
    // A failed write tears the log's tail; a failed fsync leaves a whole
    // record behind. Either way the refused batch is cut from the log.
    for point in ["wal.append.write", "wal.append.sync"] {
        laqy_faults::clear();
        let dir = temp_dir("reopen");
        let config = ServerConfig {
            threads: 2,
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = start(config.clone());
        let tenant = server.registry().get_or_create("relog").expect("tenant");
        let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("connect");
        let ingest = |from: u64, rows: usize| {
            let columns = laqy_workload::lineorder_batch(&SsbConfig::tiny(), from as usize, rows);
            Request::Ingest {
                tenant: "relog".to_string(),
                table: "lineorder".to_string(),
                columns,
            }
        };
        let query = q1("relog", 0, 999);
        let stored = client.request(&query).expect("query");
        assert!(matches!(stored, Response::Answer(_)), "{point}: {stored:?}");
        let base_rows = SsbConfig::tiny().lineorder_rows() as u64;
        let first = client.request(&ingest(base_rows, 64)).expect("ingest");
        let Response::IngestAck { watermark } = first else {
            panic!("{point}: expected an ack, got {first:?}");
        };

        // One append fails: that ingest is refused.
        laqy_faults::install(FaultPlan::new(1).fail_nth(point, FaultKind::Io, 1));
        let refused = client.request(&ingest(watermark, 64)).expect("ingest");
        laqy_faults::clear();
        assert!(
            matches!(
                &refused,
                Response::Error {
                    code: ErrorCode::Failed,
                    ..
                }
            ),
            "{point}: {refused:?}"
        );
        // The tenant's next ingest re-opens the log and is acked. It is
        // shorter than the refused one, so a refused record left in the
        // log would show as extra rows after the restart.
        let next = client.request(&ingest(watermark, 32)).expect("ingest");
        let Response::IngestAck { watermark: acked } = next else {
            panic!("{point}: the ingest after a failed append is refused: {next:?}");
        };
        assert_eq!(acked, watermark + 32, "{point}");
        // The re-open left the store alone: the sample stored before the
        // fault absorbed the acked batch and still answers as a full hit.
        let store = tenant.service.store();
        assert_eq!(store.len(), 1, "{point}");
        assert!(store.iter().all(|(_, s)| s.watermark == acked), "{point}");
        drop(store);
        let hits = tenant.service.stats().full_hits;
        let again = client.request(&query).expect("query");
        assert!(matches!(again, Response::Answer(_)), "{point}: {again:?}");
        assert_eq!(tenant.service.stats().full_hits, hits + 1, "{point}");
        drop(tenant);
        server.shutdown();

        // Durably, and with the refused batch cut: a restart over the same
        // directory replays exactly the acked ingests.
        let revived = start(config);
        let tenant = revived.registry().get_or_create("relog").expect("recovers");
        let recovered = tenant
            .service
            .catalog()
            .table("lineorder")
            .unwrap()
            .row_watermark();
        assert_eq!(
            recovered, acked,
            "{point}: the acked ingest survives the restart"
        );
        drop(tenant);
        revived.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn morsel_panic_is_a_typed_error_scoped_to_one_request() {
    let _guard = CHAOS_LOCK.lock();
    for seed in 0..SEEDS {
        laqy_faults::clear();
        let server = start(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("connect");

        // Warm both tenants so the panic hits a query morsel, not
        // tenant creation.
        for tenant in ["victim", "bystander"] {
            let resp = client.request(&q1(tenant, 0, 999)).expect("warm query");
            assert!(matches!(resp, Response::Answer(_)), "seed {seed}: {resp:?}");
        }

        // The first morsel of the victim's next query panics its
        // worker (small windows may scan a single morsel, so a deeper
        // nth could miss); the seed varies which window gets hit.
        let lo = 1_000 + (seed as i64 % 4) * 1_000;
        laqy_faults::install(FaultPlan::new(seed).fail_nth("pool.morsel", FaultKind::Panic, 1));
        let resp = client
            .request(&q1("victim", lo, lo + 999))
            .expect("typed response");
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::WorkerPanic,
                    ..
                }
            ),
            "seed {seed} (window {lo}): a worker panic must surface typed: {resp:?}"
        );
        laqy_faults::clear();

        // The bystander tenant answers, and so does the victim's next
        // request — the panic was scoped to one query.
        for tenant in ["bystander", "victim"] {
            let resp = client.request(&q1(tenant, 0, 999)).expect("query");
            assert!(
                matches!(resp, Response::Answer(_)),
                "seed {seed}: {tenant} must recover: {resp:?}"
            );
        }
        server.shutdown();
    }
    laqy_faults::clear();
}
