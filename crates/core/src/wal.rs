//! Write-ahead log for streaming ingest.
//!
//! Base tables live only in memory; what survives a crash is the sample
//! store snapshot (see [`crate::persist`]) plus this log. Every ingest
//! batch is appended — and fsynced — *before* it is applied to the
//! in-memory table or absorbed into any stored sample, so a stored
//! sample's row watermark can never run ahead of what the log can
//! reconstruct. Recovery rebuilds the base catalog deterministically,
//! replays the log to the last intact record, and the pair
//! `(snapshot generation, WAL position)` names the consistent point the
//! process restarts from.
//!
//! Record framing (little-endian, written with [`BufMut`] and read
//! through [`Reader`]; `str` and `batch` are [`crate::codec`]'s):
//!
//! ```text
//! u32 payload length (≤ MAX_WAL_RECORD_BYTES) | u64 CRC-64 of payload | payload
//! payload: u8 tag
//!   tag 3 Batch:      str table | u64 base_rows | batch
//!   tag 2 Checkpoint: u64 snapshot generation | u32 n | n × (str table, u64 watermark)
//! ```
//!
//! The CRC is CRC-64/XZ (ECMA-182, reflected), computed eight bytes a
//! step (slicing-by-8). The appender encodes each record once, straight
//! after a reserved header, and patches the length and CRC in place.
//!
//! Tag 1, a batch in an older column layout, fails replay with a typed
//! `bad record tag 1` error rather than being misparsed. The appender
//! refuses a record replay would read as torn (over the length cap).
//!
//! The `base_rows` field makes replay idempotent and gap-detecting: a
//! batch applies only when the live table is exactly that long, so
//! replaying a log over an already-caught-up catalog is a no-op and a
//! missing segment fails loudly instead of silently skewing rows.
//!
//! Segments (`wal.seg.<N>`) rotate at [`MAX_WAL_SEGMENT_BYTES`] and are
//! never pruned: appended base rows exist *only* here, so every segment
//! remains part of the recovery path. Torn tails — a crash mid-append —
//! are detected by the length/CRC frame and replay stops cleanly at the
//! last intact record. Fault points (`wal.append.write`,
//! `wal.append.sync`, `wal.rotate.create`, `wal.replay.read`) let chaos
//! builds kill the writer at each stage.

use std::io::Write;
use std::path::{Path, PathBuf};

use laqy_engine::Column;

use crate::codec::{batch_len, put_batch, put_str, BufMut, Reader};
use crate::persist::PersistError;

/// File-name prefix for log segments in a WAL directory: `wal.seg.<N>`.
pub const WAL_SEGMENT_PREFIX: &str = "wal.seg.";

/// Rotation threshold: a record that would push a segment past this many
/// bytes opens the next segment first.
pub const MAX_WAL_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

/// Hard cap on one record's payload, on both ends: replay reads a longer
/// length prefix as a torn tail (a corrupt prefix must not drive a giant
/// allocation), so the appender refuses to write one.
pub const MAX_WAL_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Payload tags of [`WalRecord::Batch`] and [`WalRecord::Checkpoint`].
const BATCH_TAG: u8 = 3;
const CHECKPOINT_TAG: u8 = 2;

/// Bytes of framing per record (`u32` length + `u64` CRC).
const FRAME_HEADER_BYTES: usize = 12;

/// One durable position in the log: `(segment, byte offset)` of a record
/// boundary. Ordered lexicographically, so later appends compare greater.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalPosition {
    /// Segment number (1-based, `wal.seg.<segment>`).
    pub segment: u64,
    /// Byte offset within the segment.
    pub offset: u64,
}

/// One logical record in the log.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// An ingest batch for `table`, valid only when the table holds
    /// exactly `base_rows` rows (idempotence + gap detection).
    Batch {
        /// Target table name.
        table: String,
        /// Row count the table must have for this batch to apply.
        base_rows: u64,
        /// The appended columns, matched to the table schema by name.
        columns: Vec<(String, Column)>,
    },
    /// A snapshot was durably written: generation number plus the row
    /// watermark of every table at that instant. Replay after loading
    /// snapshot generation `g` still applies *all* batches (they are
    /// idempotent); the checkpoint records the consistent pairing for
    /// reporting and invariant checks.
    Checkpoint {
        /// Snapshot generation written by [`crate::persist::save_snapshot`].
        generation: u64,
        /// `(table, row watermark)` at checkpoint time.
        watermarks: Vec<(String, u64)>,
    },
}

/// What [`replay`] found in a WAL directory.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalReplayReport {
    /// Intact records decoded, in order.
    pub records: u64,
    /// True when a torn tail (half-written final record) was discarded.
    pub torn_tail: bool,
    /// Position one past the last intact record — where the next append
    /// would land after recovery.
    pub end: WalPosition,
}

// ---- CRC-64 (ECMA-182 reflected, the CRC-64/XZ parameters) ----

/// Reflected ECMA-182 polynomial.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `[0]` is the bytewise table (the CRC of one byte),
/// and `[j][b]` is the CRC of byte `b` followed by `j` zero bytes, so one
/// step folds eight input bytes with eight lookups.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// CRC-64/XZ of `bytes`: eight bytes a step through the slicing tables,
/// then the tail a byte at a time. The same checksum as the bytewise
/// loop, so logs written by either read back under the other.
fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = u64::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let at = |shift: u32| ((x >> shift) & 0xFF) as usize;
        crc = t[7][at(0)]
            ^ t[6][at(8)]
            ^ t[5][at(16)]
            ^ t[4][at(24)]
            ^ t[3][at(32)]
            ^ t[2][at(40)]
            ^ t[1][at(48)]
            ^ t[0][at(56)];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---- encoding ----

/// Bytes [`put_record`] appends for `record`: the frame's length field,
/// known before a byte is encoded.
fn record_len(record: &WalRecord) -> usize {
    let str_len = |s: &str| 4 + s.len();
    1 + match record {
        WalRecord::Batch { table, columns, .. } => str_len(table) + 8 + batch_len(columns),
        WalRecord::Checkpoint { watermarks, .. } => {
            let entries: usize = watermarks.iter().map(|(t, _)| str_len(t) + 8).sum();
            8 + 4 + entries
        }
    }
}

/// Append one record's payload (the frame around it is the appender's).
fn put_record(buf: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Batch {
            table,
            base_rows,
            columns,
        } => {
            buf.put_u8(BATCH_TAG);
            put_str(buf, table);
            buf.put_u64_le(*base_rows);
            put_batch(buf, columns);
        }
        WalRecord::Checkpoint {
            generation,
            watermarks,
        } => {
            buf.put_u8(CHECKPOINT_TAG);
            buf.put_u64_le(*generation);
            buf.put_u32_le(watermarks.len() as u32);
            for (table, w) in watermarks {
                put_str(buf, table);
                buf.put_u64_le(*w);
            }
        }
    }
}

/// Decode one record's payload. The frame CRC has already vouched for
/// the bytes, so any failure here is real corruption, not a torn tail.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, PersistError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        BATCH_TAG => WalRecord::Batch {
            table: r.str()?,
            base_rows: r.u64()?,
            columns: r.batch()?,
        },
        CHECKPOINT_TAG => {
            let generation = r.u64()?;
            // A table name's length plus its watermark.
            let n = r.len(4 + 8)?;
            let watermarks = (0..n)
                .map(|_| Ok((r.str()?, r.u64()?)))
                .collect::<Result<_, PersistError>>()?;
            WalRecord::Checkpoint {
                generation,
                watermarks,
            }
        }
        other => return Err(PersistError::Corrupt(format!("bad record tag {other}"))),
    };
    r.done()?;
    Ok(record)
}

/// The payload of the next intact frame in `r`: `None` when the length
/// prefix, the payload or its CRC is torn.
fn next_frame<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u32().ok()?;
    let crc = r.u64().ok()?;
    if len > MAX_WAL_RECORD_BYTES {
        return None;
    }
    let payload = r.take(len as usize).ok()?;
    (crc64(payload) == crc).then_some(payload)
}

fn segment_path(dir: &Path, segment: u64) -> PathBuf {
    dir.join(format!("{WAL_SEGMENT_PREFIX}{segment}"))
}

fn segment_of(name: &str) -> Option<u64> {
    name.strip_prefix(WAL_SEGMENT_PREFIX)?.parse().ok()
}

/// All segment numbers present in `dir`, sorted ascending.
fn list_segments(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seg) = entry.file_name().to_str().and_then(segment_of) {
            segs.push(seg);
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// The append half of the log: owns the live segment file handle and the
/// running `(segment, offset)` position. After a failed append it keeps
/// the position that append started at — the end of the last acked
/// record — and the next append first cuts the log back to it.
#[derive(Debug)]
pub struct WalAppender {
    dir: PathBuf,
    segment: u64,
    offset: u64,
    file: std::fs::File,
    failed: Option<WalPosition>,
}

impl WalAppender {
    /// Open (or create) the log in `dir`, positioning after the newest
    /// segment's last byte. Call [`replay`] *first* during recovery: a
    /// torn tail at the end of the newest segment is overwritten by the
    /// next append only after replay has measured the intact prefix.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let segment = list_segments(&dir)?.last().copied().unwrap_or(1);
        let path = segment_path(&dir, segment);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)?;
        let offset = file.metadata()?.len();
        Ok(Self {
            dir,
            segment,
            offset,
            file,
            failed: None,
        })
    }

    /// Open the log cut back to `end` — the intact prefix [`replay`]
    /// measured, or the end of the last acked record after a failed
    /// append. The cut is durable: `end`'s segment is truncated to it and
    /// every later one emptied, so neither a torn tail nor a whole record
    /// whose fsync failed is appended past or replayed.
    pub fn open_at(dir: impl AsRef<Path>, end: WalPosition) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for seg in list_segments(dir)?
            .into_iter()
            .filter(|&s| s >= end.segment)
        {
            let keep = if seg == end.segment { end.offset } else { 0 };
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(segment_path(dir, seg))?;
            if file.metadata()?.len() > keep {
                file.set_len(keep)?;
                file.sync_all()?;
            }
        }
        Self::open(dir)
    }

    /// Position the *next* append will start at.
    pub fn position(&self) -> WalPosition {
        WalPosition {
            segment: self.segment,
            offset: self.offset,
        }
    }

    /// Append one record, fsync it, and return the position it starts at.
    /// Rotates to a fresh segment first when the record would push the
    /// live one past [`MAX_WAL_SEGMENT_BYTES`]. On an injected
    /// `wal.append.write` fault, half the frame reaches the file — a torn
    /// tail — before the error returns.
    /// A payload over [`MAX_WAL_RECORD_BYTES`] is [`PersistError::TooLarge`]
    /// before a byte is written: replay would read it as a torn tail.
    /// After any other error, the next append first re-opens the log cut
    /// back to where the failed one started ([`Self::open_at`]), and fails
    /// while that fails.
    pub fn append(&mut self, record: &WalRecord) -> Result<WalPosition, PersistError> {
        let len = record_len(record);
        if len > MAX_WAL_RECORD_BYTES as usize {
            let cap = MAX_WAL_RECORD_BYTES;
            let msg = format!("record of {len} bytes exceeds the {cap}-byte cap");
            return Err(PersistError::TooLarge(msg));
        }
        // One buffer, sized once: the header's bytes reserved, the payload
        // encoded straight after them, then its length and CRC patched in.
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + len);
        frame.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
        put_record(&mut frame, record);
        debug_assert_eq!(frame.len(), FRAME_HEADER_BYTES + len, "record_len");
        let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc64(payload).to_le_bytes());

        if let Some(acked) = self.failed {
            *self = Self::open_at(&self.dir, acked)?;
        }
        let acked = self.position();
        self.write_frame(&frame)
            .inspect_err(|_| self.failed = Some(acked))
    }

    fn write_frame(&mut self, frame: &[u8]) -> Result<WalPosition, PersistError> {
        if self.offset > 0 && self.offset + frame.len() as u64 > MAX_WAL_SEGMENT_BYTES {
            laqy_faults::io_point("wal.rotate.create")?;
            let next = self.segment + 1;
            self.file = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(segment_path(&self.dir, next))?;
            self.segment = next;
            self.offset = 0;
        }

        if let Err(e) = laqy_faults::point("wal.append.write") {
            // Simulate a crash mid-append: half the frame lands. Replay
            // detects the torn tail via the length/CRC frame.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            return Err(PersistError::Io(e.into()));
        }
        self.file.write_all(frame)?;
        laqy_faults::io_point("wal.append.sync")?;
        self.file.sync_data()?;
        let at = self.position();
        self.offset += frame.len() as u64;
        Ok(at)
    }
}

/// Replay every intact record in `dir`, in append order. A missing
/// directory replays to nothing; a torn tail stops replay cleanly (and
/// is reported); corruption *behind* an intact CRC is an error.
pub fn replay(dir: impl AsRef<Path>) -> Result<(Vec<WalRecord>, WalReplayReport), PersistError> {
    let dir = dir.as_ref();
    let mut report = WalReplayReport::default();
    let mut records = Vec::new();
    if !dir.exists() {
        return Ok((records, report));
    }
    // An empty log ends at the start of its first segment.
    report.end = WalPosition {
        segment: 1,
        offset: 0,
    };
    for seg in list_segments(dir)? {
        laqy_faults::io_point("wal.replay.read")?;
        let bytes = std::fs::read(segment_path(dir, seg))?;
        let mut r = Reader::new(&bytes);
        let mut intact = 0u64;
        while r.remaining() > 0 {
            let Some(payload) = next_frame(&mut r) else {
                report.torn_tail = true;
                break;
            };
            records.push(decode_record(payload)?);
            intact = (bytes.len() - r.remaining()) as u64;
            report.records += 1;
        }
        report.end = WalPosition {
            segment: seg,
            offset: intact,
        };
        if report.torn_tail {
            // Nothing after a torn record is trustworthy; segments past
            // this one (if any) were created after the corruption point
            // only in impossible histories, so stop here.
            break;
        }
    }
    Ok((records, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// CRC-64/XZ a byte a step, each byte shifted through the polynomial
    /// bit by bit: the reference the sliced CRC must equal on every
    /// input, sharing none of its tables.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = u64::MAX;
        for &b in bytes {
            crc ^= b as u64;
            for _ in 0..8 {
                crc = (crc >> 1) ^ if crc & 1 == 1 { CRC64_POLY } else { 0 };
            }
        }
        !crc
    }

    /// One record's payload bytes.
    fn encode(record: &WalRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        put_record(&mut buf, record);
        buf
    }

    #[test]
    fn crc64_gives_the_crc64_xz_check_value() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The sliced CRC equals the bytewise one over lengths 0–4 096 at
        /// every start offset mod 8, so each slicing table and the
        /// bytewise tail are checked: a log written by either replays
        /// under the other.
        #[test]
        fn sliced_crc64_equals_the_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 4104..4105),
            len in 0usize..4097,
            offset in 0usize..8,
        ) {
            let slice = &bytes[offset..offset + len];
            prop_assert_eq!(crc64(slice), crc64_bytewise(slice));
        }
    }

    #[test]
    fn a_frame_is_length_crc_and_payload_as_the_log_always_wrote_it() {
        let dict_batch = WalRecord::Batch {
            table: "part".into(),
            base_rows: 3,
            columns: vec![
                (
                    "p_mfgr".into(),
                    Column::Dict {
                        codes: vec![0, 1, 1],
                        dict: Arc::new(vec!["MFGR#1".into(), "MFGR#22".into()]),
                    },
                ),
                ("p_size".into(), Column::Int32(vec![4, -5, 6])),
            ],
        };
        let checkpoint = WalRecord::Checkpoint {
            generation: 9,
            watermarks: vec![("lineorder".into(), 12), ("part".into(), 3)],
        };
        let records = [batch(0, 1000), dict_batch, checkpoint];
        let dir = scratch_dir("frame_bytes");
        let mut wal = WalAppender::open(&dir).unwrap();
        let mut expected = Vec::new();
        for record in &records {
            let payload = encode(record);
            assert_eq!(payload.len(), record_len(record));
            expected.put_u32_le(payload.len() as u32);
            expected.put_u64_le(crc64_bytewise(&payload));
            expected.extend_from_slice(&payload);
            wal.append(record).unwrap();
        }
        drop(wal);
        assert_eq!(std::fs::read(segment_path(&dir, 1)).unwrap(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laqy_wal_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn batch(base: u64, n: i64) -> WalRecord {
        WalRecord::Batch {
            table: "lineorder".into(),
            base_rows: base,
            columns: vec![
                ("k".into(), Column::Int64((0..n).collect())),
                (
                    "v".into(),
                    Column::Float64((0..n).map(|i| i as f64 * 0.5).collect()),
                ),
            ],
        }
    }

    fn assert_columns_eq(a: &Column, b: &Column) {
        match (a, b) {
            (Column::Int64(x), Column::Int64(y)) => assert_eq!(x, y),
            (Column::Int32(x), Column::Int32(y)) => assert_eq!(x, y),
            (Column::Float64(x), Column::Float64(y)) => assert_eq!(x, y),
            (
                Column::Dict {
                    codes: xc,
                    dict: xd,
                },
                Column::Dict {
                    codes: yc,
                    dict: yd,
                },
            ) => {
                assert_eq!(xc, yc);
                assert_eq!(xd, yd);
            }
            other => panic!("column type mismatch: {other:?}"),
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let mut wal = WalAppender::open(&dir).unwrap();
        assert_eq!(
            wal.position(),
            WalPosition {
                segment: 1,
                offset: 0
            }
        );
        wal.append(&batch(0, 10)).unwrap();
        wal.append(&batch(10, 5)).unwrap();
        wal.append(&WalRecord::Checkpoint {
            generation: 3,
            watermarks: vec![("lineorder".into(), 15)],
        })
        .unwrap();
        let end = wal.position();
        drop(wal);

        let (records, report) = replay(&dir).unwrap();
        assert_eq!(report.records, 3);
        assert!(!report.torn_tail);
        assert_eq!(report.end, end);
        match &records[0] {
            WalRecord::Batch {
                table,
                base_rows,
                columns,
            } => {
                assert_eq!(table, "lineorder");
                assert_eq!(*base_rows, 0);
                assert_columns_eq(&columns[0].1, &Column::Int64((0..10).collect()));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        match &records[2] {
            WalRecord::Checkpoint {
                generation,
                watermarks,
            } => {
                assert_eq!(*generation, 3);
                assert_eq!(watermarks, &[("lineorder".into(), 15)]);
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dict_columns_roundtrip() {
        let rec = WalRecord::Batch {
            table: "part".into(),
            base_rows: 7,
            columns: vec![(
                "p_mfgr".into(),
                Column::Dict {
                    codes: vec![0, 1, 1, 0, 2],
                    dict: Arc::new(vec!["MFGR#1".into(), "MFGR#2".into(), "MFGR#3".into()]),
                },
            )],
        };
        let decoded = decode_record(&encode(&rec)).unwrap();
        match (&rec, &decoded) {
            (
                WalRecord::Batch { columns: a, .. },
                WalRecord::Batch {
                    table,
                    base_rows,
                    columns: b,
                },
            ) => {
                assert_eq!(table, "part");
                assert_eq!(*base_rows, 7);
                assert_columns_eq(&a[0].1, &b[0].1);
            }
            other => panic!("mismatch: {other:?}"),
        }
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = scratch_dir("reopen");
        let mut wal = WalAppender::open(&dir).unwrap();
        wal.append(&batch(0, 4)).unwrap();
        let end = wal.position();
        drop(wal);
        let mut wal = WalAppender::open(&dir).unwrap();
        assert_eq!(wal.position(), end);
        wal.append(&batch(4, 4)).unwrap();
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert!(!report.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_at_cuts_every_record_past_the_end() {
        let dir = scratch_dir("reopen-at");
        let mut wal = WalAppender::open(&dir).unwrap();
        wal.append(&batch(0, 4)).unwrap();
        let acked = wal.position();
        // A whole record past `acked` (its fsync "failed"), then a segment
        // the failed append rotated into, holding half a frame.
        wal.append(&batch(4, 4)).unwrap();
        drop(wal);
        let frame = encode(&batch(8, 4));
        std::fs::write(segment_path(&dir, 2), &frame[..frame.len() / 2]).unwrap();

        let mut wal = WalAppender::open_at(&dir, acked).unwrap();
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 1, "only the acked record survives");
        assert!(!report.torn_tail);
        wal.append(&batch(4, 4)).unwrap();
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert!(!report.torn_tail);
        assert!(matches!(records[1], WalRecord::Batch { base_rows: 4, .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let dir = scratch_dir("torn");
        let mut wal = WalAppender::open(&dir).unwrap();
        wal.append(&batch(0, 8)).unwrap();
        let intact_end = wal.position();
        wal.append(&batch(8, 8)).unwrap();
        drop(wal);
        // Tear the second record: chop bytes off the segment tail.
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 1);
        assert!(report.torn_tail);
        assert_eq!(report.end, intact_end);

        // open_at truncates the tear; the next append lands cleanly.
        let mut wal = WalAppender::open_at(&dir, report.end).unwrap();
        assert_eq!(wal.position(), intact_end);
        wal.append(&batch(8, 3)).unwrap();
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert!(!report.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_crc_stops_replay() {
        let dir = scratch_dir("crc");
        let mut wal = WalAppender::open(&dir).unwrap();
        wal.append(&batch(0, 8)).unwrap();
        wal.append(&batch(8, 8)).unwrap();
        drop(wal);
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Flipping a payload byte breaks that record's CRC: replay keeps
        // everything before it and reports the rest torn.
        let (records, report) = replay(&dir).unwrap();
        assert!(records.len() < 2);
        assert!(report.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spills_to_new_segments_and_replays_in_order() {
        let dir = scratch_dir("rotate");
        let mut wal = WalAppender::open(&dir).unwrap();
        // Each batch is ~32 KiB; force rotation with a tiny threshold by
        // writing until segment 1 alone cannot hold them. The public
        // threshold is large, so emulate by appending enough data.
        let rows = (MAX_WAL_SEGMENT_BYTES / (2 * 8)) as i64 / 4;
        for i in 0..6u64 {
            wal.append(&batch(i * rows as u64, rows)).unwrap();
        }
        assert!(wal.position().segment > 1, "rotation happened");
        drop(wal);
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 6);
        assert!(!report.torn_tail);
        // Replay preserves append order across segment boundaries.
        for (i, r) in records.iter().enumerate() {
            match r {
                WalRecord::Batch { base_rows, .. } => {
                    assert_eq!(*base_rows, i as u64 * rows as u64);
                }
                other => panic!("expected batch, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_replays_empty() {
        let dir = scratch_dir("absent");
        let (records, report) = replay(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, WalReplayReport::default());
    }

    /// A batch record as the previous layout wrote it: tag 1, and an
    /// `Int64` column as tag 1 with its values.
    fn old_layout_batch() -> Vec<u8> {
        let mut payload = vec![1];
        put_str(&mut payload, "lineorder");
        payload.put_u64_le(0);
        payload.put_u32_le(1);
        put_str(&mut payload, "k");
        payload.put_u8(1);
        payload.put_u32_le(2);
        payload.put_i64_le(7);
        payload.put_i64_le(8);
        payload
    }

    #[test]
    fn a_batch_in_the_old_layout_is_a_typed_error_not_a_misparse() {
        let payload = old_layout_batch();
        let err = decode_record(&payload).expect_err("old tag");
        assert_eq!(err.to_string(), "corrupt snapshot: bad record tag 1");
        // Framed with an intact CRC, it fails replay rather than reading
        // as a torn tail that would silently end the log there.
        let dir = scratch_dir("old_layout");
        let mut wal = WalAppender::open(&dir).unwrap();
        wal.append(&batch(0, 4)).unwrap();
        drop(wal);
        let mut frame = Vec::new();
        frame.put_u32_le(payload.len() as u32);
        frame.put_u64_le(crc64(&payload));
        frame.extend_from_slice(&payload);
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame);
        std::fs::write(&path, &bytes).unwrap();
        let err = replay(&dir).expect_err("old record in the log");
        assert!(
            matches!(&err, PersistError::Corrupt(m) if m == "bad record tag 1"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_never_panics() {
        let dir = scratch_dir("fuzz");
        let mut wal = WalAppender::open(&dir).unwrap();
        wal.append(&batch(0, 6)).unwrap();
        wal.append(&WalRecord::Checkpoint {
            generation: 1,
            watermarks: vec![("t".into(), 6)],
        })
        .unwrap();
        drop(wal);
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let _ = replay(&dir); // must not panic
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
