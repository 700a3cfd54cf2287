//! An answer costs the same allocations whatever its group count, on both
//! ends of the wire. The server encodes the `0x82` payload straight from
//! the engine's group buffer and the key columns, with no key value,
//! string or vector built per group; the client decodes it into one flat
//! buffer of key parts and one of estimates.
//!
//! A counting global allocator tallies every allocation and reallocation.
//! The server test reads the process-wide tally: while it measures, the
//! only other threads are the server's, and the client reads raw frames
//! into a buffer sized up front, so its own allocations do not depend on
//! the answer either. The decode test counts its own thread's allocations
//! apart, so they never reach that tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use laqy_engine::{Catalog, Column, Table, Value};
use laqy_server::protocol::{Answer, AnswerAgg, AnswerGroup};
use laqy_server::{Request, Response, Server, ServerConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations, once it counts its own: then they are
    /// left out of [`ALLOCATIONS`].
    static OWN: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    let own = OWN.try_with(|own| own.get().map(|n| own.set(Some(n + 1))));
    if own.ok().flatten().is_none() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// tally is an atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract for `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
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

fn own_allocations() -> u64 {
    OWN.with(|own| own.get().expect("this thread counts its own"))
}

/// Allocations of decoding an answer of `groups` Int-keyed groups and
/// dropping it, made on this thread.
fn decode_allocations(groups: i64) -> u64 {
    let agg = AnswerAgg {
        value: 1.5,
        ci_half_width: 0.25,
        support: 40,
    };
    let answer = Answer {
        degraded: None,
        groups: (0..groups)
            .map(|g| AnswerGroup {
                key: vec![Value::Int(g)],
                values: vec![agg; 2],
            })
            .collect(),
    };
    let bytes = Response::Answer(answer.clone()).encode();
    let before = own_allocations();
    let decoded = Response::decode(&bytes).unwrap();
    let Response::Answer(decoded) = decoded else {
        panic!("{decoded:?}")
    };
    let same = decoded == answer;
    drop(decoded);
    let allocations = own_allocations() - before;
    assert!(same, "the answer round-trips");
    allocations
}

#[test]
fn a_decoded_answer_allocates_the_same_whatever_its_group_count() {
    OWN.with(|own| own.set(Some(0)));
    let small = decode_allocations(200);
    let large = decode_allocations(2_000);
    assert!(
        large <= small,
        "decoding 2 000 groups made {large} allocations, 200 groups {small}"
    );
}
