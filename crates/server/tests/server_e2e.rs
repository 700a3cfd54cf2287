//! End-to-end serving tests over a real TCP socket: the protocol's
//! typed-outcome contract, budget propagation, overload shedding, the
//! connection cap, and drain-then-recover zero-loss.

use std::sync::Arc;
use std::time::Duration;

use laqy_server::protocol::{ErrorCode, Request, Response, TenantSnapshot};
use laqy_server::{Client, Server, ServerConfig};
use laqy_workload::ssb::SsbConfig;

const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> Server {
    let catalog = laqy_workload::generate(&SsbConfig::tiny());
    Server::start(catalog, config).expect("server binds")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), IO_TIMEOUT).expect("client connects")
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
    let dir = std::env::temp_dir().join(format!("laqy-server-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn ping_query_ingest_stats_roundtrip() {
    let server = start(test_config());
    let mut client = connect(&server);

    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));

    let answer = client.request(&q1("acme", 0, 2999)).expect("query");
    let Response::Answer(a) = answer else {
        panic!("expected an answer, got {answer:?}");
    };
    assert!(!a.groups.is_empty(), "Q1 over tiny SSB has groups");
    for g in &a.groups {
        assert_eq!(g.values.len(), 2, "SUM + COUNT");
    }

    // Ingest advances the tenant's watermark past the base table.
    let base_rows = SsbConfig::tiny().lineorder_rows();
    let columns = laqy_workload::lineorder_batch(&SsbConfig::tiny(), base_rows, 32);
    let ack = client
        .request(&Request::Ingest {
            tenant: "acme".to_string(),
            table: "lineorder".to_string(),
            columns,
        })
        .expect("ingest");
    let Response::IngestAck { watermark } = ack else {
        panic!("expected an ack, got {ack:?}");
    };
    assert_eq!(watermark, base_rows as u64 + 32);

    let stats = client
        .request(&Request::Stats {
            tenant: "acme".to_string(),
        })
        .expect("stats");
    let Response::StatsReply(s) = stats else {
        panic!("expected stats, got {stats:?}");
    };
    assert_eq!(s.answers, 1);
    assert_eq!(s.ingest_acks, 1);
    assert_eq!(s.shed, 0);
    assert_eq!(s.errors, 0);

    server.shutdown();
}

#[test]
fn failures_are_typed_never_hangs() {
    let server = start(test_config());
    let mut client = connect(&server);

    // SQL the approximate planner rejects.
    let bad_sql = client
        .request(&Request::Query {
            tenant: "t".to_string(),
            sql: "SELECT lo_orderdate FROM lineorder GROUP BY lo_orderdate".to_string(),
            k: 64,
            timeout_ms: 0,
        })
        .expect("typed response");
    assert!(
        matches!(
            bad_sql,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{bad_sql:?}"
    );

    // A tenant name that would escape the data directory.
    let bad_tenant = client
        .request(&q1("../evil", 0, 9))
        .expect("typed response");
    assert!(
        matches!(
            bad_tenant,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{bad_tenant:?}"
    );

    // Ingest into a table that does not exist.
    let bad_table = client
        .request(&Request::Ingest {
            tenant: "t".to_string(),
            table: "nope".to_string(),
            columns: vec![("x".to_string(), laqy_engine::Column::Int64(vec![1]))],
        })
        .expect("typed response");
    assert!(
        matches!(
            bad_table,
            Response::Error {
                code: ErrorCode::Failed,
                ..
            }
        ),
        "{bad_table:?}"
    );

    // The connection survived every typed failure.
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn hostile_dict_codes_are_typed_bad_request() {
    let server = start(test_config());
    let mut client = connect(&server);
    // Code 9 has no entry in the frame's own 1-string dictionary: a
    // crafted ingest that used to index out of bounds in the engine's
    // dictionary merge. The contract is a typed BadRequest and a live
    // server, never a panic.
    let resp = client
        .request(&Request::Ingest {
            tenant: "t".to_string(),
            table: "lineorder".to_string(),
            columns: vec![(
                "c".to_string(),
                laqy_engine::Column::Dict {
                    codes: vec![9],
                    dict: Arc::new(vec!["v".to_string()]),
                },
            )],
        })
        .expect("typed response");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
    // The connection and the server both survived.
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn too_wide_a_payload_is_a_typed_bad_request() {
    let server = start(test_config());
    let mut client = connect(&server);
    // Nine aggregate inputs plus the range column: one payload column more
    // than a sampled row holds. This used to panic the connection's thread
    // while building the sample schema, dropping the client.
    let sql = "SELECT lo_orderdate, SUM(lo_quantity), SUM(lo_extendedprice), \
               SUM(lo_orderkey), SUM(lo_discount), SUM(lo_revenue), SUM(lo_suppkey), \
               SUM(lo_tax), SUM(lo_partkey), SUM(lo_custkey) FROM lineorder \
               WHERE lo_intkey BETWEEN 0 AND 100 GROUP BY lo_orderdate";
    let resp = client
        .request(&Request::Query {
            tenant: "t".to_string(),
            sql: sql.to_string(),
            k: 64,
            timeout_ms: 0,
        })
        .expect("typed response");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
    // The same connection answers its next query.
    let next = client.request(&q1("t", 0, 2999)).expect("query");
    assert!(matches!(next, Response::Answer(_)), "{next:?}");
    server.shutdown();
}

#[test]
fn stats_probe_never_creates_a_tenant() {
    let server = start(test_config());
    let mut client = connect(&server);
    let resp = client
        .request(&Request::Stats {
            tenant: "ghost".to_string(),
        })
        .expect("stats");
    assert_eq!(resp, Response::StatsReply(TenantSnapshot::default()));
    assert_eq!(
        server.registry().list().len(),
        0,
        "a read-only probe must not consume a tenant slot"
    );
    server.shutdown();
}

#[test]
fn connections_wind_down_after_drain() {
    // A long read timeout keeps the drain-time idle poll from closing
    // the connection before our post-drain request lands, so the typed
    // Draining answer is deterministic.
    let server = start(ServerConfig {
        read_timeout: Duration::from_secs(5),
        ..test_config()
    });
    let mut client = connect(&server);
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.drain();
    // The in-flight connection gets one typed Draining answer (the
    // tenant is new, so this also exercises the registry's creation
    // latch), then the server closes the connection...
    let resp = client.request(&q1("fresh", 0, 9)).expect("typed");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Draining,
                ..
            }
        ),
        "{resp:?}"
    );
    // ...so a client that keeps sending cannot pin a serving thread:
    // the next request fails instead of being answered forever.
    let followup = client.request(&Request::Ping);
    assert!(
        followup.is_err(),
        "connection must close after drain, got {followup:?}"
    );
    server.shutdown();
}

#[test]
fn tiny_timeout_degrades_instead_of_erroring() {
    let server = start(test_config());
    let mut client = connect(&server);
    // 1 ms against ~6k rows: the budget may expire mid-scan, but the
    // contract is an *answer* (possibly degraded), never an error.
    let resp = client
        .request(&Request::Query {
            tenant: "t".to_string(),
            sql: laqy_workload::q1_sql(0, 5_999),
            k: 64,
            timeout_ms: 1,
        })
        .expect("typed response");
    let Response::Answer(a) = resp else {
        panic!("degrade-before-shed violated: {resp:?}");
    };
    if let Some(d) = a.degraded {
        assert!(d.coverage > 0.0 && d.coverage <= 1.0);
        assert!(d.ci_inflation >= 1.0);
    }
    server.shutdown();
}

#[test]
fn exhausted_gate_sheds_with_retry_hint() {
    let config = ServerConfig {
        tenant_permits: 1,
        tenant_queue: 0,
        admission_max_wait: Duration::from_millis(50),
        retry_after: Duration::from_millis(120),
        ..test_config()
    };
    let server = start(config);
    // Hold the tenant's only permit from inside the process, so the
    // wire request deterministically finds the gate full.
    let tenant = server.registry().get_or_create("busy").expect("tenant");
    let held = tenant.gate.admit(Duration::from_secs(1));
    assert!(matches!(held, laqy_server::Admission::Granted(_)));

    let mut client = connect(&server);
    let resp = client.request(&q1("busy", 0, 99)).expect("typed response");
    assert!(
        matches!(
            resp,
            Response::Overloaded {
                retry_after_ms: 120
            }
        ),
        "queue 0 + held permit must shed: {resp:?}"
    );
    // The shed is visible in the tenant's counters.
    assert_eq!(tenant.counters.snapshot().shed, 1);

    drop(held);
    // With the permit released the same query is admitted.
    let resp = client.request(&q1("busy", 0, 99)).expect("query");
    assert!(matches!(resp, Response::Answer(_)), "{resp:?}");
    server.shutdown();
}

#[test]
fn connection_cap_sheds_new_connections() {
    let config = ServerConfig {
        max_connections: 1,
        ..test_config()
    };
    let server = start(config);
    let mut first = connect(&server);
    assert!(matches!(
        first.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    // The second connection is accepted, told Overloaded, and closed
    // without reading a request.
    let mut second = connect(&server);
    let resp = second.request(&Request::Ping);
    match resp {
        Ok(Response::Overloaded { .. }) => {}
        Ok(other) => panic!("expected Overloaded at the cap, got {other:?}"),
        // The server may close before our request write lands; that
        // surfaces as an I/O error, which is also a non-hang outcome.
        Err(_) => {}
    }
    // The first connection is unaffected.
    assert!(matches!(
        first.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn drain_rejects_new_work_and_recovery_keeps_acked_ingest() {
    let dir = temp_dir("drain");
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        // Keep the drain-time idle poll from racing the post-drain
        // request below (see connections_wind_down_after_drain).
        read_timeout: Duration::from_secs(5),
        ..test_config()
    };
    let server = start(config.clone());
    let mut client = connect(&server);

    let base_rows = SsbConfig::tiny().lineorder_rows();
    let columns = laqy_workload::lineorder_batch(&SsbConfig::tiny(), base_rows, 64);
    let ack = client
        .request(&Request::Ingest {
            tenant: "durable".to_string(),
            table: "lineorder".to_string(),
            columns,
        })
        .expect("ingest");
    let Response::IngestAck { watermark } = ack else {
        panic!("expected ack, got {ack:?}");
    };

    let report = server.drain();
    assert_eq!(report.tenants, 1);
    assert!(report.idle, "no in-flight work to wait for");
    assert_eq!(report.snapshots.len(), 1);
    assert!(report.snapshots[0].1.is_ok(), "{report:?}");

    // Post-drain requests get a typed Draining error, not a hang.
    let resp = client.request(&q1("durable", 0, 99)).expect("typed");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Draining,
                ..
            }
        ),
        "{resp:?}"
    );
    server.shutdown();

    // A fresh server over the same data dir recovers the acked ingest:
    // the tenant's watermark matches what was acknowledged.
    let revived = start(config);
    let tenant = revived
        .registry()
        .get_or_create("durable")
        .expect("recovers");
    let recovered_rows = tenant
        .service
        .catalog()
        .table("lineorder")
        .expect("table")
        .num_rows() as u64;
    assert_eq!(recovered_rows, watermark, "acked ingest must survive");
    // And the recovered tenant still answers over the wire.
    let mut client = connect(&revived);
    let resp = client.request(&q1("durable", 0, 99)).expect("query");
    assert!(matches!(resp, Response::Answer(_)), "{resp:?}");
    revived.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Median round trip of `n` copies of `request` on `client`, in ms.
fn median_rtt_ms(client: &mut Client, request: &Request, n: usize) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            client.request(request).expect("response");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[n / 2]
}

#[test]
fn ping_and_full_hit_round_trips_are_off_the_delayed_ack_timer() {
    // Two writes per frame on a socket without TCP_NODELAY park the
    // second write behind the peer's delayed ACK: ~44 ms per frame,
    // ~88 ms per ping. One write per frame + NODELAY on both ends puts
    // a loopback round trip in the tens of microseconds; 5 ms leaves
    // two orders of magnitude for a loaded box.
    let server = start(test_config());
    let mut client = connect(&server);
    let ping = median_rtt_ms(&mut client, &Request::Ping, 200);
    assert!(ping < 5.0, "median ping round trip {ping:.2} ms");

    // Same for a query: after one warm-up the window is a full hit, so
    // what is left is wire + plan + estimate (a narrow window keeps the
    // estimate well under a millisecond in a debug build too).
    let hit = q1("rtt", 0, 299);
    let warm = client.request(&hit).expect("warm-up");
    assert!(matches!(warm, Response::Answer(_)), "{warm:?}");
    let query = median_rtt_ms(&mut client, &hit, 200);
    assert!(query < 5.0, "median full-hit round trip {query:.2} ms");
    server.shutdown();
}

#[test]
fn header_only_peer_is_dropped_at_the_read_timeout() {
    use std::io::{Read, Write};
    // A peer that announces a maximum-size frame and never sends a
    // payload byte is a slow client: dropped once `read_timeout` passes
    // mid-frame (what it could pin meanwhile is bounded by the frame
    // reader's unit tests), without disturbing anyone else.
    let server = start(test_config());
    let mut hostile = std::net::TcpStream::connect(server.addr()).expect("connect");
    hostile
        .set_read_timeout(Some(IO_TIMEOUT))
        .expect("read timeout");
    let announced = laqy_server::protocol::MAX_FRAME_BYTES as u32;
    hostile.write_all(&announced.to_le_bytes()).expect("header");
    let sent = std::time::Instant::now();
    let mut byte = [0u8; 1];
    assert_eq!(hostile.read(&mut byte).expect("closed, not reset"), 0);
    let waited = sent.elapsed();
    let read_timeout = test_config().read_timeout;
    assert!(
        waited >= read_timeout / 2 && waited < read_timeout * 10,
        "dropped after {waited:?} with a {read_timeout:?} read timeout"
    );

    let mut client = connect(&server);
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.shutdown();
}

#[test]
fn an_answer_over_the_frame_cap_is_a_typed_error_on_a_live_connection() {
    use laqy_engine::{Catalog, Column, Table};
    use laqy_server::protocol::MAX_FRAME_BYTES;
    // One group a row, unique keys: an answer group is its two counts,
    // one `Int` key part (9 B) and one estimate (24 B), 41 B in all.
    let n = (MAX_FRAME_BYTES / 41 + 1_000) as i64;
    let mut catalog = Catalog::new();
    catalog.register(
        Table::new(
            "t",
            vec![
                ("key".into(), Column::Int64((0..n).collect())),
                ("g".into(), Column::Int64((0..n).collect())),
                ("v".into(), Column::Int64((0..n).map(|i| i % 100).collect())),
            ],
        )
        .expect("table"),
    );
    let server = Server::start(
        catalog,
        ServerConfig {
            default_allowance: Duration::from_secs(120),
            ..test_config()
        },
    )
    .expect("server binds");
    let mut client = Client::connect(server.addr(), Duration::from_secs(120)).expect("connects");
    let resp = client
        .request(&Request::Query {
            tenant: "t".to_string(),
            sql: format!("SELECT g, SUM(v) FROM t WHERE key BETWEEN 0 AND {n} GROUP BY g"),
            k: 1,
            timeout_ms: 0,
        })
        .expect("a typed response, not a dropped connection");
    let Response::Error { code, message } = resp else {
        panic!("expected an error, got {resp:?}");
    };
    assert_eq!(code, ErrorCode::Failed);
    assert!(
        message.contains(&format!("exceeds the {MAX_FRAME_BYTES}-byte frame cap")),
        "{message}"
    );
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    let Response::StatsReply(stats) = client
        .request(&Request::Stats {
            tenant: "t".to_string(),
        })
        .expect("stats")
    else {
        panic!("expected stats");
    };
    assert_eq!((stats.answers, stats.errors), (0, 1));
    server.shutdown();
}
