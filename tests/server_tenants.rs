//! Per-tenant isolation under load: 8 concurrent wire clients split
//! across 2 tenants — 7 hammering a deliberately tiny admission gate
//! ("noisy"), 1 pacing itself on its own tenant ("quiet").
//!
//! The isolation contract under test:
//!
//! - the noisy tenant sheds (its gate is sized to overflow), and every
//!   shed is a typed `Overloaded`, never a hang or a torn frame;
//! - the quiet tenant rides through *untouched*: zero sheds, zero
//!   errors, every query answered — a neighbor's overload is invisible;
//! - a noisy-tenant ingest never changes the quiet tenant's data;
//! - under mixed query and ingest traffic on two tenants, every op gets
//!   exactly one outcome: an answer, a shed, an ingest ack or an error.

use std::time::Duration;

use laqy_server::protocol::{Request, Response};
use laqy_server::{Client, Server, ServerConfig};
use laqy_workload::serving::{op_stream, MixConfig, Op};
use laqy_workload::ssb::SsbConfig;

const IO_TIMEOUT: Duration = Duration::from_secs(10);
const NOISY_CLIENTS: usize = 7;
const OPS_PER_CLIENT: usize = 30;

fn start_contended() -> Server {
    let catalog = laqy_workload::generate(&SsbConfig::tiny());
    Server::start(
        catalog,
        ServerConfig {
            // One permit and a one-deep queue: seven closed-loop
            // clients on one tenant must overflow it.
            tenant_permits: 1,
            tenant_queue: 1,
            admission_max_wait: Duration::from_millis(25),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds")
}

fn query(tenant: &str, lo: i64, hi: i64) -> Request {
    Request::Query {
        tenant: tenant.to_string(),
        sql: laqy_workload::q1_sql(lo, hi),
        k: 64,
        timeout_ms: 0,
    }
}

#[derive(Default)]
struct Outcomes {
    answers: u64,
    sheds: u64,
    ingest_acks: u64,
    errors: u64,
    io_errors: u64,
}

/// Send `requests` in a closed loop, tallying each response.
fn drive(addr: std::net::SocketAddr, requests: impl IntoIterator<Item = Request>) -> Outcomes {
    let mut out = Outcomes::default();
    let mut client = Client::connect(addr, IO_TIMEOUT).expect("connect");
    for request in requests {
        match client.request(&request) {
            Ok(Response::Answer(_)) => out.answers += 1,
            Ok(Response::Overloaded { .. }) => out.sheds += 1,
            Ok(Response::IngestAck { .. }) => out.ingest_acks += 1,
            Ok(Response::Error { .. }) => out.errors += 1,
            Ok(other) => panic!("unexpected response {other:?}"),
            Err(_) => {
                out.io_errors += 1;
                client = Client::connect(addr, IO_TIMEOUT).expect("reconnect");
            }
        }
    }
    out
}

fn run_client(addr: std::net::SocketAddr, tenant: &str, seed: usize) -> Outcomes {
    drive(
        addr,
        (0..OPS_PER_CLIENT).map(|i| {
            let lo = ((seed * 7 + i * 13) % 50) as i64 * 100;
            query(tenant, lo, lo + 499)
        }),
    )
}

#[test]
fn noisy_tenant_sheds_quiet_tenant_rides_through() {
    let server = start_contended();
    let addr = server.addr();

    let (noisy, quiet) = std::thread::scope(|scope| {
        let noisy_handles: Vec<_> = (0..NOISY_CLIENTS)
            .map(|c| scope.spawn(move || run_client(addr, "noisy", c)))
            .collect();
        let quiet_handle = scope.spawn(move || run_client(addr, "quiet", 99));
        let mut noisy = Outcomes::default();
        for h in noisy_handles {
            let o = h.join().expect("noisy client finished");
            noisy.answers += o.answers;
            noisy.sheds += o.sheds;
            noisy.errors += o.errors;
            noisy.io_errors += o.io_errors;
        }
        (noisy, quiet_handle.join().expect("quiet client finished"))
    });

    // Every operation resolved to a typed outcome (no hangs: the
    // clients all returned, and nothing hit an I/O timeout).
    let noisy_total = noisy.answers + noisy.sheds + noisy.errors;
    assert_eq!(noisy_total, (NOISY_CLIENTS * OPS_PER_CLIENT) as u64);
    assert_eq!(noisy.io_errors, 0, "no connection-level failures");

    // The overloaded tenant actually shed, and still made progress.
    assert!(noisy.sheds > 0, "7 clients on a 1+1 gate must shed");
    assert!(noisy.answers > 0, "shedding is not starvation");
    assert_eq!(noisy.errors, 0, "overload is Overloaded, not Error");

    // The quiet tenant never observed its neighbor's overload.
    assert_eq!(quiet.answers, OPS_PER_CLIENT as u64, "every query answered");
    assert_eq!(quiet.sheds, 0, "a neighbor's full queue is invisible");
    assert_eq!(quiet.errors, 0);
    assert_eq!(quiet.io_errors, 0);

    // Server-side counters tell the same story.
    let noisy_stats = server
        .registry()
        .get_or_create("noisy")
        .expect("tenant")
        .counters
        .snapshot();
    assert_eq!(noisy_stats.shed, noisy.sheds);
    let quiet_stats = server
        .registry()
        .get_or_create("quiet")
        .expect("tenant")
        .counters
        .snapshot();
    assert_eq!(quiet_stats.shed, 0);
    assert_eq!(quiet_stats.answers, OPS_PER_CLIENT as u64);

    server.shutdown();
}

#[test]
fn noisy_ingest_is_invisible_to_the_quiet_tenant() {
    let server = start_contended();
    let mut client = Client::connect(server.addr(), IO_TIMEOUT).expect("connect");

    // Touch both tenants, then ingest into noisy only.
    for tenant in ["noisy", "quiet"] {
        let resp = client.request(&query(tenant, 0, 999)).expect("query");
        assert!(matches!(resp, Response::Answer(_)), "{resp:?}");
    }
    let base_rows = SsbConfig::tiny().lineorder_rows();
    let ack = client
        .request(&Request::Ingest {
            tenant: "noisy".to_string(),
            table: "lineorder".to_string(),
            columns: laqy_workload::lineorder_batch(&SsbConfig::tiny(), base_rows, 128),
        })
        .expect("ingest");
    assert!(matches!(ack, Response::IngestAck { .. }), "{ack:?}");

    let rows = |tenant: &str| {
        server
            .registry()
            .get_or_create(tenant)
            .expect("tenant")
            .service
            .catalog()
            .table("lineorder")
            .expect("table")
            .num_rows()
    };
    assert_eq!(rows("noisy"), base_rows + 128, "ingest landed in noisy");
    assert_eq!(rows("quiet"), base_rows, "quiet tenant is untouched");

    server.shutdown();
}

#[test]
fn mixed_query_and_ingest_traffic_gives_every_op_one_outcome() {
    // Three closed-loop clients per tenant on a one-permit, one-deep
    // gate: queries and ingests queue behind each other, and some shed.
    const CLIENTS_PER_TENANT: usize = 3;
    const INGEST_ROWS: usize = 64;
    let server = start_contended();
    let addr = server.addr();
    let ssb = SsbConfig::tiny();
    let base_rows = ssb.lineorder_rows();
    let mix = MixConfig {
        ingest_every: 5,
        ingest_rows: INGEST_ROWS,
        ..MixConfig::for_rows(base_rows)
    };

    let outcomes: Vec<Outcomes> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2 * CLIENTS_PER_TENANT)
            .map(|c| {
                let (ssb, mix) = (&ssb, &mix);
                scope.spawn(move || {
                    let tenant = format!("mixed-{}", c % 2);
                    // Disjoint row ids per client keep ingested keys
                    // unique within a tenant.
                    let mut next_row = base_rows + c * OPS_PER_CLIENT * INGEST_ROWS;
                    let requests = op_stream(mix, 0x10AD ^ c as u64, OPS_PER_CLIENT)
                        .into_iter()
                        .map(|op| match op {
                            Op::Query { lo, hi } => query(&tenant, lo, hi),
                            Op::Ingest { rows } => {
                                next_row += rows;
                                Request::Ingest {
                                    tenant: tenant.clone(),
                                    table: "lineorder".to_string(),
                                    columns: laqy_workload::lineorder_batch(
                                        ssb,
                                        next_row - rows,
                                        rows,
                                    ),
                                }
                            }
                        })
                        .collect::<Vec<_>>();
                    drive(addr, requests)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client finished"))
            .collect()
    });

    let mut total = Outcomes::default();
    for o in &outcomes {
        total.answers += o.answers;
        total.sheds += o.sheds;
        total.ingest_acks += o.ingest_acks;
        total.errors += o.errors;
        total.io_errors += o.io_errors;
    }
    let ops = (2 * CLIENTS_PER_TENANT * OPS_PER_CLIENT) as u64;
    assert_eq!(total.io_errors, 0, "no connection-level failures");
    assert_eq!(
        total.answers + total.sheds + total.ingest_acks + total.errors,
        ops,
        "every op has exactly one outcome"
    );
    assert!(total.answers > 0 && total.ingest_acks > 0);

    // The server counted the same outcomes the clients saw.
    let (mut answers, mut sheds, mut acks, mut errors) = (0, 0, 0, 0);
    for tenant in ["mixed-0", "mixed-1"] {
        let snap = server
            .registry()
            .get_or_create(tenant)
            .expect("tenant")
            .counters
            .snapshot();
        answers += snap.answers;
        sheds += snap.shed;
        acks += snap.ingest_acks;
        errors += snap.errors;
    }
    assert_eq!(
        (answers, sheds, acks, errors),
        (total.answers, total.sheds, total.ingest_acks, total.errors)
    );

    server.shutdown();
}
