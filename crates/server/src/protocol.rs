//! The length-framed wire protocol.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes, capped at
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile length prefix can never
//! drive an allocation bomb. The payload is a tag byte plus fields in a
//! fixed order — no self-describing envelope, no external serializer.
//!
//! Queries ride the wire as SQL text and are planned server-side
//! through [`laqy::approx_query`], so the protocol stays stable while
//! the plan representation evolves. Ingest batches carry
//! [`Column`]-typed vectors, mirroring
//! [`LaqyService::ingest`](laqy::LaqyService::ingest), in the one column
//! layout of [`laqy::codec`], the byte codec every payload here is read
//! through. This module holds only what is wire-only: values, answer
//! groups, frames, requests and responses.
//!
//! A frame is built once, in its connection's reused write buffer, and
//! handed to the socket in a single write; every socket runs with
//! `TCP_NODELAY` (see [`configure_stream`]). The frame reader and writer
//! are the protocol's fault surface: the writer hits `net.latency` and
//! `net.write` once per frame, the reader `net.latency` once per frame
//! and `net.read` before each read (points from
//! [`laqy_faults::points`]), so a chaos schedule can drop a frame or
//! tear a request mid-read deterministically by seed.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use laqy::codec::{put_batch, put_str, BufMut, CodecError, Reader};
use laqy_engine::{Column, StoredColumn, Value, MAX_KEY_COLS};
use laqy_faults::points;

pub use crate::tenant::TenantSnapshot;

/// Hard cap on one frame's payload, requests and responses alike, on
/// both ends: the reader refuses a longer length prefix, so the server
/// answers an over-cap response with a typed error and the client refuses
/// to send an over-cap request. Large enough for any realistic ingest
/// batch at bench scale, small enough that a garbage length prefix cannot
/// exhaust memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Typed decode failure: the peer sent bytes that are not a protocol
/// message. Always answered with [`ErrorCode::BadRequest`] (when a
/// response can still be written) and the connection is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError(e.0)
    }
}

/// One client request.
///
/// No `PartialEq`: the engine's `Column` deliberately does not
/// implement it (float payloads), so request equality in tests goes
/// through the canonical encoding instead.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// An approximate SQL query against one tenant's store.
    Query {
        /// Tenant namespace the query runs in.
        tenant: String,
        /// SQL text with exactly one `BETWEEN` range (see
        /// [`laqy::approx_query`]).
        sql: String,
        /// Reservoir capacity per stratum.
        k: u32,
        /// Per-request wall-clock allowance in milliseconds; `0` means
        /// "tenant default". The server only ever *tightens* the
        /// tenant's budget with this.
        timeout_ms: u32,
    },
    /// Append a batch of rows to one tenant's table. Acked only after
    /// the batch is WAL-durable (when the tenant has a data dir).
    Ingest {
        /// Tenant namespace the batch lands in.
        tenant: String,
        /// Target table name.
        table: String,
        /// The batch: exactly the table's columns, matched by name.
        columns: Vec<(String, Column)>,
    },
    /// Fetch the tenant's serving counters.
    Stats {
        /// Tenant to report on.
        tenant: String,
    },
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A (possibly degraded) approximate answer.
    Answer(Answer),
    /// The ingest batch is applied (and durable when WAL-backed); the
    /// tenant table's new row watermark.
    IngestAck {
        /// Rows in the table after this batch.
        watermark: u64,
    },
    /// Load shed: the tenant's queue and permits are exhausted (or the
    /// server is at its connection cap). Retry after the hint — the
    /// request was *not* executed.
    Overloaded {
        /// Client back-off hint in milliseconds.
        retry_after_ms: u32,
    },
    /// A typed failure; the request was not (or only partially) served.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Stats`].
    StatsReply(TenantSnapshot),
}

/// Machine-readable failure classes a client can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed frame, unknown tenant name shape, or SQL the
    /// approximate planner rejects.
    BadRequest = 1,
    /// The server is draining: admissions are closed for good. Do not
    /// retry against this instance.
    Draining = 2,
    /// The tenant cap is reached and this request named a new tenant.
    TenantLimit = 3,
    /// The engine failed the query/ingest (typed `LaqyError`).
    Failed = 4,
    /// A worker panic was caught and isolated; only this request failed.
    WorkerPanic = 5,
    /// An injected chaos fault surfaced (only in `--cfg laqy_faults`
    /// builds).
    Injected = 6,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Draining,
            3 => ErrorCode::TenantLimit,
            4 => ErrorCode::Failed,
            5 => ErrorCode::WorkerPanic,
            6 => ErrorCode::Injected,
            other => return Err(WireError(format!("unknown error code {other}"))),
        })
    }
}

/// A decoded approximate answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Present when the budget expired mid-scan: the answer is
    /// extrapolated from the covered fraction with widened CIs.
    pub degraded: Option<DegradedInfo>,
    /// One row per output group.
    pub groups: AnswerGroups,
}

/// An answer's groups, flat: the client's mirror of the engine's
/// `Groups` — every group's key parts in one buffer, its estimates in
/// another, each group as wide as the first. A decoded answer is a
/// handful of allocations however many groups it has.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnswerGroups {
    len: usize,
    key_width: usize,
    aggs: usize,
    keys: Vec<Value>,
    values: Vec<AnswerAgg>,
}

impl AnswerGroups {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the answer has no group.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th group's key and estimates, borrowed in place; panics
    /// past the last group.
    pub fn get(&self, i: usize) -> (&[Value], &[AnswerAgg]) {
        assert!(i < self.len, "group {i} of {}", self.len);
        let (kw, aggs) = (self.key_width, self.aggs);
        (&self.keys[i * kw..][..kw], &self.values[i * aggs..][..aggs])
    }

    /// The groups in answer order, each copied out as an owned
    /// [`AnswerGroup`] — so every group yielded allocates; [`Self::get`]
    /// reads one in place.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AnswerGroup> + '_ {
        (0..self.len).map(|i| {
            let (key, values) = self.get(i);
            AnswerGroup {
                key: key.to_vec(),
                values: values.to_vec(),
            }
        })
    }
}

impl<'a> IntoIterator for &'a AnswerGroups {
    type Item = AnswerGroup;
    type IntoIter = Box<dyn ExactSizeIterator<Item = AnswerGroup> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// Panics if the groups differ in key width or aggregate count.
impl FromIterator<AnswerGroup> for AnswerGroups {
    fn from_iter<I: IntoIterator<Item = AnswerGroup>>(groups: I) -> Self {
        let mut out = AnswerGroups::default();
        for g in groups {
            if out.len == 0 {
                (out.key_width, out.aggs) = (g.key.len(), g.values.len());
            }
            let shaped = (g.key.len(), g.values.len()) == (out.key_width, out.aggs);
            assert!(shaped, "every group has the first one's shape");
            out.keys.extend(g.key);
            out.values.extend(g.values);
            out.len += 1;
        }
        out
    }
}

/// Degradation metadata attached to a partial-coverage answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedInfo {
    /// Fraction of the intended scan that completed, in `(0, 1]`.
    pub coverage: f64,
    /// Factor applied to extensive-aggregate CI half-widths.
    pub ci_inflation: f64,
}

/// One output group: decoded key values plus per-aggregate estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerGroup {
    /// Decoded group-key values (dictionary columns decode to strings).
    pub key: Vec<Value>,
    /// One estimate per aggregate in the query's select list.
    pub values: Vec<AnswerAgg>,
}

/// One aggregate estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerAgg {
    /// Point estimate.
    pub value: f64,
    /// CI half-width (`NaN` for MIN/MAX).
    pub ci_half_width: f64,
    /// Sampled tuples supporting the estimate.
    pub support: u64,
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Bytes of length prefix ahead of every payload.
pub(crate) const HEADER_BYTES: usize = 4;

/// Least encoded size of one answer group: its key and value counts.
const MIN_GROUP_BYTES: usize = 4 + 4;

/// Least the frame reader grows its buffer by. Past the first step it
/// grows by what has already arrived, so the buffer never holds more
/// than twice the bytes the peer actually sent plus one step — whatever
/// length the 4-byte prefix announced.
const READ_STEP: usize = 64 << 10;

/// Capacity a connection's buffer keeps between frames; one frame above
/// this is given back to the allocator before the next, so a single
/// large ingest does not pin its size for the connection's lifetime.
const RETAIN_BYTES: usize = 1 << 20;

/// The socket options every protocol connection runs with, on both
/// ends. `TCP_NODELAY` because the protocol is strict request/response
/// with one write per frame: there is never a second small segment for
/// Nagle to coalesce, only a peer's delayed ACK (40 ms) to wait behind.
/// The timeouts are the no-hang contract: a stalled peer is an `Err`.
pub(crate) fn configure_stream(
    stream: &TcpStream,
    read_timeout: Duration,
    write_timeout: Duration,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(write_timeout))
}

/// Outcome of one framed read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameRead {
    /// A complete payload, left in the buffer handed to [`read_frame`].
    Frame,
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The read timed out with *zero* bytes of the next frame received:
    /// an idle (not slow) connection. A timeout mid-frame is an error —
    /// that is the slow-client guard.
    Idle,
}

/// One `read` into `dst`, classified.
enum ReadStep {
    Got(usize),
    Eof,
    TimedOut,
}

fn read_step(stream: &mut impl Read, dst: &mut [u8]) -> std::io::Result<ReadStep> {
    loop {
        laqy_faults::io_point(points::NET_READ)?;
        match stream.read(dst) {
            Ok(0) => return Ok(ReadStep::Eof),
            Ok(n) => return Ok(ReadStep::Got(n)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(ReadStep::TimedOut)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Read one frame's payload into `buf`, replacing what it held; its
/// capacity is reused from frame to frame. Distinguishes idle peers (no
/// bytes of the next frame yet) from slow peers (a frame started but
/// stalled): the former is [`FrameRead::Idle`], the latter a `TimedOut`
/// error, so the connection loop can keep idle clients and drop slow
/// ones. The buffer grows as payload bytes arrive (see [`READ_STEP`]),
/// never from the length prefix alone.
pub(crate) fn read_frame(stream: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<FrameRead> {
    laqy_faults::io_point(points::NET_LATENCY)?;
    buf.clear();
    buf.shrink_to(RETAIN_BYTES);
    let mut header = [0u8; HEADER_BYTES];
    let mut got = 0usize;
    while got < HEADER_BYTES {
        match read_step(stream, &mut header[got..])? {
            ReadStep::Got(n) => got += n,
            ReadStep::Eof if got == 0 => return Ok(FrameRead::Eof),
            ReadStep::TimedOut if got == 0 => return Ok(FrameRead::Idle),
            ReadStep::Eof => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-header",
                ))
            }
            ReadStep::TimedOut => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "slow client: frame header stalled",
                ))
            }
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut filled = 0usize;
    while filled < len {
        if filled == buf.len() {
            let grown = len.min(filled + filled.max(READ_STEP));
            buf.reserve_exact(grown - filled);
            buf.resize(grown, 0);
        }
        match read_step(stream, &mut buf[filled..])? {
            ReadStep::Got(n) => filled += n,
            ReadStep::Eof => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            ReadStep::TimedOut => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "slow client: frame body stalled",
                ))
            }
        }
    }
    Ok(FrameRead::Frame)
}

/// Start a frame in `buf`: drop what it held (keeping its capacity) and
/// leave room for the length prefix [`write_frame`] fills in. The
/// payload is whatever the caller appends next.
pub(crate) fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(RETAIN_BYTES);
    buf.extend_from_slice(&[0; HEADER_BYTES]);
}

/// Write one frame started with [`begin_frame`]: patch the length
/// prefix in place and hand prefix + payload to the socket in a single
/// `write_all`, so a frame is never two segments with a delayed ACK
/// between them. One `net.latency` and one `net.write` point per frame.
pub(crate) fn write_frame(stream: &mut impl Write, frame: &mut [u8]) -> std::io::Result<()> {
    laqy_faults::io_point(points::NET_LATENCY)?;
    laqy_faults::io_point(points::NET_WRITE)?;
    let len = (frame.len() - HEADER_BYTES) as u32;
    frame[..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    stream.write_all(frame)?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(x) => {
            buf.put_u8(1);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
    }
}

/// Append group-key part `part` of `col` as the value
/// `StoredColumn::decode_key` decodes it to, a dictionary string borrowed
/// instead of copied (a code outside the dictionary is `Null`).
pub(crate) fn put_key_part(buf: &mut Vec<u8>, col: &StoredColumn, part: i64) {
    match col {
        StoredColumn::Dict { dict, .. } => match dict.get(part as usize) {
            Some(s) => {
                buf.put_u8(3);
                put_str(buf, s);
            }
            None => put_value(buf, &Value::Null),
        },
        _ => put_value(buf, &col.decode_key(part)),
    }
}

fn value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Float(r.f64()?),
        3 => Value::Str(r.str()?),
        t => return Err(WireError(format!("unknown value tag {t}"))),
    })
}

/// An answer's groups, into flat buffers: group 0's shape, which every
/// other group must have, sizes them once for as many groups as the rest
/// of the payload can hold.
fn answer_groups(r: &mut Reader<'_>) -> Result<AnswerGroups, WireError> {
    let len = r.len(MIN_GROUP_BYTES)?;
    let mut out = AnswerGroups {
        len,
        ..AnswerGroups::default()
    };
    let ragged = |g, n, what, first| format!("group {g} has {n} {what}, group 0 has {first}");
    for g in 0..len {
        let kn = r.len(1)?;
        if g > 0 && kn != out.key_width {
            return Err(WireError(ragged(g, kn, "key parts", out.key_width)));
        }
        for _ in 0..kn {
            out.keys.push(value(r)?);
        }
        let vn = r.len(24)?;
        if g > 0 && vn != out.aggs {
            return Err(WireError(ragged(g, vn, "aggregates", out.aggs)));
        }
        for _ in 0..vn {
            out.values.push(AnswerAgg {
                value: r.f64()?,
                ci_half_width: r.f64()?,
                support: r.u64()?,
            });
        }
        if g == 0 {
            (out.key_width, out.aggs) = (kn, vn);
            // A value can be one byte on the wire and 32 in memory:
            // reserve no more than an answer key holds.
            let fit = (len - 1).min(r.remaining() / (MIN_GROUP_BYTES + kn + 24 * vn));
            out.keys.reserve(fit * kn.min(MAX_KEY_COLS));
            out.values.reserve(fit * vn);
        }
    }
    Ok(out)
}

impl Request {
    /// Encode into a fresh frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the frame payload to `buf` (a connection's reused write
    /// buffer, after [`begin_frame`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => buf.put_u8(0x01),
            Request::Query {
                tenant,
                sql,
                k,
                timeout_ms,
            } => {
                buf.put_u8(0x02);
                put_str(buf, tenant);
                put_str(buf, sql);
                buf.put_u32_le(*k);
                buf.put_u32_le(*timeout_ms);
            }
            Request::Ingest {
                tenant,
                table,
                columns,
            } => {
                buf.put_u8(0x03);
                put_str(buf, tenant);
                put_str(buf, table);
                put_batch(buf, columns);
            }
            Request::Stats { tenant } => {
                buf.put_u8(0x04);
                put_str(buf, tenant);
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0x01 => Request::Ping,
            0x02 => Request::Query {
                tenant: r.str()?,
                sql: r.str()?,
                k: r.u32()?,
                timeout_ms: r.u32()?,
            },
            0x03 => Request::Ingest {
                tenant: r.str()?,
                table: r.str()?,
                columns: r.batch()?,
            },
            0x04 => Request::Stats { tenant: r.str()? },
            t => return Err(WireError(format!("unknown request tag {t:#x}"))),
        };
        r.done()?;
        Ok(req)
    }
}

/// Append an answer payload to `buf`: the one encoder of the `0x82`
/// message. `Response::Answer` feeds it the decoded [`AnswerGroup`]s'
/// values; the server feeds it the engine's raw key parts and their
/// columns, with `put_part` writing each part.
pub(crate) fn put_answer<K, A>(
    buf: &mut Vec<u8>,
    degraded: Option<&DegradedInfo>,
    groups: impl ExactSizeIterator<Item = (K, A)>,
    put_part: impl Fn(&mut Vec<u8>, K::Item),
) where
    K: ExactSizeIterator,
    A: ExactSizeIterator<Item = AnswerAgg>,
{
    buf.put_u8(0x82);
    match degraded {
        None => buf.put_u8(0),
        Some(d) => {
            buf.put_u8(1);
            buf.put_f64_le(d.coverage);
            buf.put_f64_le(d.ci_inflation);
        }
    }
    buf.put_u32_le(groups.len() as u32);
    for (key, aggs) in groups {
        buf.put_u32_le(key.len() as u32);
        for part in key {
            put_part(buf, part);
        }
        buf.put_u32_le(aggs.len() as u32);
        for e in aggs {
            buf.put_f64_le(e.value);
            buf.put_f64_le(e.ci_half_width);
            buf.put_u64_le(e.support);
        }
    }
}

impl Response {
    /// Encode into a fresh frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the frame payload to `buf` (a connection's reused write
    /// buffer, after [`begin_frame`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Pong => buf.put_u8(0x81),
            Response::Answer(a) => put_answer(
                buf,
                a.degraded.as_ref(),
                (0..a.groups.len()).map(|i| {
                    let (key, values) = a.groups.get(i);
                    (key.iter(), values.iter().copied())
                }),
                put_value,
            ),
            Response::IngestAck { watermark } => {
                buf.put_u8(0x83);
                buf.put_u64_le(*watermark);
            }
            Response::Overloaded { retry_after_ms } => {
                buf.put_u8(0x84);
                buf.put_u32_le(*retry_after_ms);
            }
            Response::Error { code, message } => {
                buf.put_u8(0x85);
                buf.put_u8(*code as u8);
                put_str(buf, message);
            }
            Response::StatsReply(s) => {
                buf.put_u8(0x86);
                for v in s.values() {
                    buf.put_u64_le(v);
                }
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0x81 => Response::Pong,
            0x82 => {
                let degraded = match r.u8()? {
                    0 => None,
                    1 => Some(DegradedInfo {
                        coverage: r.f64()?,
                        ci_inflation: r.f64()?,
                    }),
                    t => return Err(WireError(format!("unknown degraded tag {t}"))),
                };
                let groups = answer_groups(&mut r)?;
                Response::Answer(Answer { degraded, groups })
            }
            0x83 => Response::IngestAck {
                watermark: r.u64()?,
            },
            0x84 => Response::Overloaded {
                retry_after_ms: r.u32()?,
            },
            0x85 => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                message: r.str()?,
            },
            0x86 => {
                let mut values = [0; TenantSnapshot::FIELDS];
                for v in &mut values {
                    *v = r.u64()?;
                }
                Response::StatsReply(TenantSnapshot::from_values(values))
            }
            t => return Err(WireError(format!("unknown response tag {t:#x}"))),
        };
        r.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip_req(req: Request) {
        // `Request` has no `PartialEq` (see the type docs); a decode
        // followed by a re-encode must reproduce the canonical bytes.
        let bytes = req.encode();
        let reencoded = Request::decode(&bytes).expect("decodes").encode();
        assert_eq!(reencoded, bytes);
    }

    /// Every counter set to its 1-based position in the field list.
    fn numbered_snapshot() -> TenantSnapshot {
        TenantSnapshot::from_values(std::array::from_fn(|i| i as u64 + 1))
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).expect("decodes"), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Query {
            tenant: "acme".into(),
            sql: "SELECT g, SUM(v) FROM t WHERE key BETWEEN 1 AND 9 GROUP BY g".into(),
            k: 64,
            timeout_ms: 250,
        });
        roundtrip_req(Request::Ingest {
            tenant: "acme".into(),
            table: "t".into(),
            columns: vec![
                ("a".into(), Column::Int32(vec![1, -2, 3])),
                ("b".into(), Column::Int64(vec![i64::MIN, 0, i64::MAX])),
                ("c".into(), Column::Float64(vec![0.5, -1.25])),
                (
                    "d".into(),
                    Column::Dict {
                        codes: vec![0, 1, 0],
                        dict: Arc::new(vec!["x".into(), "y".into()]),
                    },
                ),
            ],
        });
        roundtrip_req(Request::Stats {
            tenant: "acme".into(),
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Answer(Answer {
            degraded: Some(DegradedInfo {
                coverage: 0.25,
                ci_inflation: 8.0,
            }),
            groups: [AnswerGroup {
                key: vec![Value::Int(7), Value::Str("MFGR#12".into()), Value::Null],
                values: vec![AnswerAgg {
                    value: 123.5,
                    ci_half_width: 4.5,
                    support: 42,
                }],
            }]
            .into_iter()
            .collect(),
        }));
        roundtrip_resp(Response::IngestAck { watermark: 9001 });
        roundtrip_resp(Response::Overloaded {
            retry_after_ms: 100,
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Draining,
            message: "server draining".into(),
        });
        roundtrip_resp(Response::StatsReply(numbered_snapshot()));
    }

    #[test]
    fn out_of_range_dict_code_is_rejected_at_decode() {
        // A remote peer can put any u32 in the codes vector; decode
        // must refuse codes the frame's own dictionary cannot resolve
        // before they reach the engine's dictionary-merge remap.
        let req = Request::Ingest {
            tenant: "t".into(),
            table: "t".into(),
            columns: vec![(
                "d".into(),
                Column::Dict {
                    codes: vec![0, 3],
                    dict: Arc::new(vec!["only".into()]),
                },
            )],
        };
        let err = Request::decode(&req.encode()).expect_err("code 3 vs 1-entry dict");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn corrupt_payloads_fail_typed_never_panic() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Response::decode(&[0x85, 99, 0, 0, 0, 0]).is_err());
        // Truncated string length.
        assert!(Request::decode(&[0x04, 10, 0, 0, 0, b'a']).is_err());
        // A length prefix far past the payload is rejected before any
        // allocation.
        let mut bomb = vec![0x03];
        put_str(&mut bomb, "t");
        put_str(&mut bomb, "t");
        bomb.put_u32_le(u32::MAX);
        assert!(Request::decode(&bomb).is_err());
        // Trailing garbage after a valid message is rejected.
        let mut padded = Request::Ping.encode();
        padded.push(0);
        assert!(Request::decode(&padded).is_err());
    }

    #[test]
    fn counts_their_bytes_cannot_hold_are_rejected_before_reserving() {
        // Ten ingest columns and ten answer groups announced, twenty
        // bytes left: a column entry takes at least nine, a group eight,
        // so the count itself is refused — nothing is reserved for it.
        let mut ingest = vec![0x03];
        put_str(&mut ingest, "t");
        put_str(&mut ingest, "t");
        ingest.put_u32_le(10);
        ingest.extend_from_slice(&[0; 20]);
        let mut answer = vec![0x82, 0];
        answer.put_u32_le(10);
        answer.extend_from_slice(&[0; 20]);
        for err in [
            Request::decode(&ingest).map(drop),
            Response::decode(&answer).map(drop),
        ] {
            let err = err.expect_err("count past the payload");
            assert!(err.0.contains("exceeds remaining payload"), "{err}");
        }
        // 90 000 groups announced, eight bytes each of room, and group 0
        // wide: 20 000 null key parts and 30 000 aggregates, then nothing.
        // Reserved for the count alone that would be terabytes; reserved
        // from group 0's shape it is one group's worth, and the missing
        // group 1 is a typed error.
        let (kn, vn) = (20_000, 30_000);
        let mut wide = vec![0x82, 0];
        wide.put_u32_le(90_000);
        wide.put_u32_le(kn);
        wide.resize(wide.len() + kn as usize, 0);
        wide.put_u32_le(vn);
        wide.resize(wide.len() + 24 * vn as usize, 0);
        assert!(wide.len() > 90_000 * MIN_GROUP_BYTES, "the count fits");
        let err = Response::decode(&wide).expect_err("group 1 is missing");
        assert!(err.0.contains("truncated payload"), "{err}");
    }

    /// An answer payload of one group per `(key parts, aggregates)`.
    fn answer_of(shapes: &[(usize, usize)]) -> Vec<u8> {
        let mut buf = vec![0x82, 0];
        buf.put_u32_le(shapes.len() as u32);
        for &(kn, vn) in shapes {
            buf.put_u32_le(kn as u32);
            (0..kn).for_each(|i| put_value(&mut buf, &Value::Int(i as i64)));
            buf.put_u32_le(vn as u32);
            buf.resize(buf.len() + 24 * vn, 0);
        }
        buf
    }

    #[test]
    fn ragged_answers_are_refused_typed() {
        let even = Response::decode(&answer_of(&[(2, 1), (2, 1), (2, 1)])).expect("decodes");
        let Response::Answer(a) = even else {
            panic!("{even:?}")
        };
        assert_eq!(a.groups.len(), 3);
        assert_eq!(a.groups.get(2).0, [Value::Int(0), Value::Int(1)]);
        for (shapes, what) in [
            (
                &[(2, 1), (2, 1), (1, 1)],
                "group 2 has 1 key parts, group 0 has 2",
            ),
            (
                &[(1, 2), (1, 3), (1, 2)],
                "group 1 has 3 aggregates, group 0 has 2",
            ),
        ] {
            let err = Response::decode(&answer_of(shapes)).expect_err("ragged");
            assert!(err.0.contains(what), "{err}");
        }
    }

    /// A Q1 answer over tiny SSB, encoded as the server sends it.
    fn q1_answer() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let catalog = laqy_workload::generate(&laqy_workload::SsbConfig::tiny());
            let svc = laqy::LaqyService::new(catalog);
            let sql = laqy_workload::q1_sql(0, 2999);
            let query = laqy::approx_query(&svc.catalog(), &sql, 64).expect("plans");
            let result = svc.run(&query).expect("runs");
            let keys = svc.decode_keys(&query, &result).expect("decodes");
            let groups = keys
                .into_iter()
                .zip(&result.groups)
                .map(|(key, g)| AnswerGroup {
                    key,
                    values: (g.values.iter())
                        .map(|v| AnswerAgg {
                            value: v.value,
                            ci_half_width: v.ci_half_width,
                            support: v.support as u64,
                        })
                        .collect(),
                });
            let answer = Answer {
                degraded: None,
                groups: groups.collect(),
            };
            assert!(answer.groups.len() > 100, "{} groups", answer.groups.len());
            Response::Answer(answer).encode()
        })
    }

    proptest::proptest! {
        /// Up to three bytes flipped, then maybe a cut (`cut % (len + 1)`,
        /// when `cut` is odd): a typed error, or an answer whose encoding
        /// is the bytes that were decoded.
        #[test]
        fn a_cut_or_flipped_answer_decodes_typed_or_to_its_own_bytes(
            flips in proptest::collection::vec((0usize..usize::MAX, 1u8..255), 0..4),
            cut in 0usize..usize::MAX,
        ) {
            let mut bytes = q1_answer().to_vec();
            for (at, mask) in flips {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            if cut % 2 == 1 {
                bytes.truncate(cut / 2 % (bytes.len() + 1));
            }
            if let Ok(resp) = Response::decode(&bytes) {
                proptest::prop_assert_eq!(resp.encode(), bytes);
            }
        }
    }

    /// A `Write` that counts calls and accepts at most `cap` bytes per
    /// call (a socket under back-pressure).
    struct CountingWriter {
        wire: Vec<u8>,
        writes: usize,
        cap: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.cap);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that hands out `data` at most `chunk` bytes per call,
    /// then reads as a stalled socket (`stall`) or a closed one.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
        stall: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, dst: &mut [u8]) -> std::io::Result<usize> {
            if self.data.is_empty() && self.stall {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.chunk.min(dst.len()).min(self.data.len());
            dst[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// `payload` framed through `frame` the way a connection frames it.
    fn write_payload(out: &mut impl Write, frame: &mut Vec<u8>, payload: &[u8]) {
        begin_frame(frame);
        frame.extend_from_slice(payload);
        write_frame(out, frame).expect("write");
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_payload(&mut wire, &mut Vec::new(), payload);
        wire
    }

    #[test]
    fn framing_roundtrips_over_a_buffer() {
        let payload = Request::Query {
            tenant: "t0".into(),
            sql: "SELECT 1".into(),
            k: 8,
            timeout_ms: 0,
        }
        .encode();
        let mut cursor = std::io::Cursor::new(framed(&payload));
        let mut got = Vec::new();
        assert_eq!(
            read_frame(&mut cursor, &mut got).expect("read"),
            FrameRead::Frame
        );
        assert_eq!(got, payload);
        // A second read on the drained buffer is a clean EOF.
        assert_eq!(
            read_frame(&mut cursor, &mut got).expect("eof"),
            FrameRead::Eof
        );
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        let err = read_frame(&mut cursor, &mut Vec::new()).expect_err("cap enforced");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_frame_is_one_write_and_survives_short_writes_and_one_byte_reads() {
        for len in [0usize, 1, 1 << 20] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut expected = (len as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(&payload);

            // Prefix and payload reach the socket in a single `write`:
            // two writes are what parks the second behind a delayed ACK.
            let mut whole = CountingWriter {
                wire: Vec::new(),
                writes: 0,
                cap: usize::MAX,
            };
            write_payload(&mut whole, &mut Vec::new(), &payload);
            assert_eq!(whole.writes, 1, "{len}-byte payload");
            assert_eq!(whole.wire, expected);

            // A socket that takes 7 bytes at a time still gets it all.
            let mut short = CountingWriter {
                wire: Vec::new(),
                writes: 0,
                cap: 7,
            };
            write_payload(&mut short, &mut Vec::new(), &payload);
            assert_eq!(short.writes, expected.len().div_ceil(7));
            assert_eq!(short.wire, expected);

            // And a reader fed one byte per `read` reassembles it.
            let mut trickle = Trickle {
                data: &expected,
                chunk: 1,
                stall: false,
            };
            let mut got = Vec::new();
            assert_eq!(
                read_frame(&mut trickle, &mut got).expect("read"),
                FrameRead::Frame
            );
            assert_eq!(got, payload);
            assert_eq!(
                read_frame(&mut trickle, &mut got).expect("eof"),
                FrameRead::Eof
            );
        }
    }

    #[test]
    fn idle_slow_and_torn_peers_stay_distinct() {
        let wire = framed(b"0123456789");
        let read = |sent: usize, stall: bool| {
            let mut peer = Trickle {
                data: &wire[..sent],
                chunk: usize::MAX,
                stall,
            };
            read_frame(&mut peer, &mut Vec::new())
        };
        // Nothing of the next frame yet: idle (kept) or closed (clean).
        assert_eq!(read(0, true).expect("idle"), FrameRead::Idle);
        assert_eq!(read(0, false).expect("eof"), FrameRead::Eof);
        // A frame that started and stalled is the slow-client error; one
        // that started and ended is a torn frame.
        for sent in [2, 4, 9] {
            let slow = read(sent, true).expect_err("slow client");
            assert_eq!(slow.kind(), std::io::ErrorKind::TimedOut, "{sent} bytes");
            let torn = read(sent, false).expect_err("torn frame");
            assert_eq!(
                torn.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "{sent} bytes"
            );
        }
    }

    #[test]
    fn read_buffer_grows_with_bytes_received_not_with_the_announced_length() {
        // The 1 GiB pin: `max_connections` peers that each send only a
        // header announcing MAX_FRAME_BYTES. Nothing may be allocated
        // for payload that has not arrived.
        let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        let mut buf = Vec::new();
        let mut header_only = Trickle {
            data: &wire,
            chunk: usize::MAX,
            stall: true,
        };
        let err = read_frame(&mut header_only, &mut buf).expect_err("stalled body");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(buf.capacity() <= READ_STEP, "{} bytes", buf.capacity());

        // With part of the payload sent, at most twice that plus a step.
        let received = 300 << 10;
        wire.resize(HEADER_BYTES + received, 7);
        let mut partial = Trickle {
            data: &wire,
            chunk: 1500,
            stall: true,
        };
        let err = read_frame(&mut partial, &mut buf).expect_err("stalled body");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(
            buf.capacity() <= 2 * received + READ_STEP,
            "{} bytes for {received} received",
            buf.capacity()
        );
    }

    #[test]
    fn reused_buffers_never_leak_a_longer_frames_tail() {
        let long: Vec<u8> = (0..2 * RETAIN_BYTES).map(|i| (i % 253) as u8 | 1).collect();
        let short = Request::Ping.encode();

        // Write side: the short frame's bytes are those of a fresh buffer.
        let mut frame = Vec::new();
        let mut wire = Vec::new();
        write_payload(&mut wire, &mut frame, &long);
        let long_wire_len = wire.len();
        write_payload(&mut wire, &mut frame, &short);
        assert_eq!(wire[long_wire_len..], framed(&short));

        // Read side: the payload is exactly the short frame's.
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut cursor, &mut buf).expect("long"),
            FrameRead::Frame
        );
        assert_eq!(buf, long);
        assert_eq!(
            read_frame(&mut cursor, &mut buf).expect("short"),
            FrameRead::Frame
        );
        assert_eq!(buf, short);

        // And neither buffer pins the large frame's size afterwards.
        assert!(frame.capacity() <= RETAIN_BYTES, "{}", frame.capacity());
        assert!(buf.capacity() <= RETAIN_BYTES, "{}", buf.capacity());
    }

    fn every_request() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Query {
                tenant: "t".into(),
                sql: "q".into(),
                k: 8,
                timeout_ms: 250,
            },
            Request::Ingest {
                tenant: "t".into(),
                table: "l".into(),
                columns: vec![
                    ("a".into(), Column::Int32(vec![-2])),
                    ("b".into(), Column::Int64(vec![1])),
                    ("c".into(), Column::Float64(vec![0.5])),
                    (
                        "d".into(),
                        Column::Dict {
                            codes: vec![0],
                            dict: Arc::new(vec!["x".into()]),
                        },
                    ),
                ],
            },
            Request::Stats { tenant: "t".into() },
        ]
    }

    fn every_response() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Answer(Answer {
                degraded: Some(DegradedInfo {
                    coverage: 0.25,
                    ci_inflation: 8.0,
                }),
                groups: [AnswerGroup {
                    key: vec![
                        Value::Int(7),
                        Value::Str("M".into()),
                        Value::Null,
                        Value::Float(1.5),
                    ],
                    values: vec![AnswerAgg {
                        value: 123.5,
                        ci_half_width: f64::NAN,
                        support: 42,
                    }],
                }]
                .into_iter()
                .collect(),
            }),
            Response::Answer(Answer {
                degraded: None,
                groups: AnswerGroups::default(),
            }),
            Response::IngestAck { watermark: 9001 },
            Response::Overloaded {
                retry_after_ms: 100,
            },
            Response::Error {
                code: ErrorCode::Draining,
                message: "no".into(),
            },
            Response::StatsReply(numbered_snapshot()),
        ]
    }

    #[test]
    fn encode_into_appends_exactly_what_encode_returns() {
        let prefix = b"already here";
        let check = |fresh: Vec<u8>, append: &dyn Fn(&mut Vec<u8>)| {
            let mut buf = prefix.to_vec();
            append(&mut buf);
            assert_eq!(buf[..prefix.len()], prefix[..]);
            assert_eq!(buf[prefix.len()..], fresh[..]);
        };
        for req in every_request() {
            check(req.encode(), &|buf| req.encode_into(buf));
        }
        for resp in every_response() {
            check(resp.encode(), &|buf| resp.encode_into(buf));
        }
    }

    #[test]
    fn golden_frames_pin_the_wire_format() {
        // Length prefix + payload per message type, as emitted before
        // the frame path was rebuilt: an old peer and a new one must
        // keep reading each other's bytes.
        let hex = |frame: Vec<u8>| -> String { frame.iter().map(|b| format!("{b:02x}")).collect() };
        let requests: Vec<String> = every_request()
            .iter()
            .map(|r| hex(framed(&r.encode())))
            .collect();
        assert_eq!(
            requests,
            [
                "0100000001",
                "13000000020100000074010000007108000000fa000000",
                "58000000030100000074010000006c0400000001000000610101000000feffffff\
                 01000000620201000000010000000000000001000000630301000000000000000000\
                 e03f0100000064040100000001000000780100000000000000",
                "06000000040100000074",
            ]
        );
        let responses: Vec<String> = every_response()
            .iter()
            .map(|r| hex(framed(&r.encode())))
            .collect();
        assert_eq!(
            responses,
            [
                "0100000081",
                "4f0000008201000000000000d03f0000000000002040010000000400000001070000\
                 000000000003010000004d0002000000000000f83f010000000000000000e05e4000\
                 0000000000f87f2a00000000000000",
                "06000000820000000000",
                "09000000832923000000000000",
                "050000008464000000",
                "080000008502020000006e6f",
                "3100000086010000000000000002000000000000000300000000000000040000000000\
                 000005000000000000000600000000000000",
            ]
        );
    }
}
