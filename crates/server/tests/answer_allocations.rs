//! A full hit's answer costs the server the same allocations whatever its
//! group count: the `0x82` payload is encoded straight from the engine's
//! group buffer and the key columns, with no key value, string or vector
//! built per group.
//!
//! A counting global allocator tallies every allocation and reallocation
//! in the process. This file holds one test, so while it measures, the
//! only other threads are the server's; the client reads raw frames into
//! a buffer sized up front, so its own allocations do not depend on the
//! answer either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use laqy_engine::{Catalog, Column, Table};
use laqy_server::{Request, Server, ServerConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// tally is an atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows per group: above the default support floor, so a hit is fully
/// supported and its support report one count.
const ROWS_PER_GROUP: i64 = 40;

/// A table of `groups` dictionary-keyed groups of [`ROWS_PER_GROUP`] rows.
fn catalog(groups: i64) -> Catalog {
    let n = groups * ROWS_PER_GROUP;
    let names = (0..groups).map(|g| format!("group-{g:05}")).collect();
    let mut cat = Catalog::new();
    cat.register(
        Table::new(
            "t",
            vec![
                ("key".into(), Column::Int64((0..n).collect())),
                (
                    "g".into(),
                    Column::Dict {
                        codes: (0..n).map(|i| (i % groups) as u32).collect(),
                        dict: Arc::new(names),
                    },
                ),
                ("v".into(), Column::Int64((0..n).map(|i| i % 100).collect())),
            ],
        )
        .unwrap(),
    );
    cat
}

/// One request/response round trip over raw frames; the response payload
/// lands in `inbox`, whose capacity the caller sized.
fn round_trip(stream: &mut TcpStream, request: &[u8], inbox: &mut Vec<u8>) {
    stream.write_all(request).unwrap();
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header) as usize;
    assert!(len <= inbox.capacity(), "the inbox holds the response");
    inbox.resize(len, 0);
    stream.read_exact(inbox).unwrap();
}

fn frame(request: &Request) -> Vec<u8> {
    let payload = request.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Process-wide allocations of one full-hit query answering `groups`
/// groups, followed by a ping: once the pong is back, the server has
/// finished every step of the query's request.
fn hit_allocations(groups: i64) -> u64 {
    let config = ServerConfig {
        threads: 1,
        read_timeout: Duration::from_secs(30),
        default_allowance: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = Server::start(catalog(groups), config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let sql = format!(
        "SELECT g, SUM(v), COUNT(*) FROM t WHERE key BETWEEN 0 AND {} GROUP BY g",
        groups * ROWS_PER_GROUP - 1
    );
    let query = frame(&Request::Query {
        tenant: "acme".to_string(),
        sql,
        k: 64,
        timeout_ms: 0,
    });
    let ping = frame(&Request::Ping);
    let mut inbox = Vec::with_capacity(1 << 20);
    // An online run stores the sample; a first hit sizes the server's
    // connection buffers.
    for _ in 0..2 {
        round_trip(&mut stream, &query, &mut inbox);
        round_trip(&mut stream, &ping, &mut inbox);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    round_trip(&mut stream, &query, &mut inbox);
    let answer_bytes = inbox.len();
    round_trip(&mut stream, &ping, &mut inbox);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(inbox, [0x81], "pong");
    // Every group's dictionary string rode the answer.
    assert!(answer_bytes > groups as usize * "group-00000".len());
    let tenant = server.registry().get_or_create("acme").unwrap();
    assert_eq!(tenant.service.stats().full_hits, 2);
    drop(stream);
    server.shutdown();
    allocations
}

#[test]
fn a_full_hit_answer_allocates_the_same_whatever_its_group_count() {
    let small = hit_allocations(200);
    let large = hit_allocations(2_000);
    assert!(
        large <= small,
        "answering 2 000 groups made {large} allocations, 200 groups {small}"
    );
}
