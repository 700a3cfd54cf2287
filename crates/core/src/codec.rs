//! The one byte codec behind every format the system writes and reads
//! back: store snapshots ([`crate::persist`]), ingest WAL records
//! ([`crate::wal`]) and the server's wire frames. Writers append
//! little-endian fields with [`BufMut`]; readers go through [`Reader`],
//! whose every read is bounds-checked and whose [`Reader::len`] is the one
//! guard between a count read from the bytes and an allocation sized by
//! it, so a decoder on it returns a [`CodecError`] on any input, never a
//! panic. Typed columns have one layout ([`put_column`], [`Reader::column`]):
//!
//! ```text
//! u8 tag | tag 1 Int32: u32 n | n × i32      tag 3 Float64: u32 n | n × f64
//!        | tag 2 Int64: u32 n | n × i64      tag 4 Dict: u32 d | d × str | u32 n | n × u32 (< d)
//! str: u32 byte length | UTF-8 bytes
//! ```
//!
//! A batch ([`put_batch`], [`Reader::batch`]) is `u32 count | (str name,
//! column)*`: an ingest request on the wire and a WAL batch record carry
//! the same bytes.

use std::sync::Arc;

pub use bytes::BufMut;
use laqy_engine::Column;

use crate::persist::PersistError;

/// Least encoded size of one batch entry: the name's length, the column
/// tag and the column's row (or dictionary) count.
const MIN_BATCH_ENTRY_BYTES: usize = 4 + 1 + 4;

/// Bytes that are not what their format says: a short read, a count the
/// rest cannot hold, an unknown tag, trailing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Corrupt(e.0)
    }
}

/// Append `s` as `u32 byte length | UTF-8 bytes`.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Append `col` in the one column layout (see the module docs).
pub fn put_column(buf: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int32(v) => put_fixed(buf, Some(1), v, i32::to_le_bytes),
        Column::Int64(v) => put_fixed(buf, Some(2), v, i64::to_le_bytes),
        Column::Float64(v) => put_fixed(buf, Some(3), v, f64::to_le_bytes),
        Column::Dict { codes, dict } => {
            buf.put_u8(4);
            buf.put_u32_le(dict.len() as u32);
            dict.iter().for_each(|s| put_str(buf, s));
            put_fixed(buf, None, codes, u32::to_le_bytes);
        }
    }
}

/// Append `tag` if any, `v`'s length, and its elements, `N` bytes each:
/// the bytes grown once, then filled a chunk an element.
#[inline]
fn put_fixed<const N: usize, T: Copy>(
    buf: &mut Vec<u8>,
    tag: Option<u8>,
    v: &[T],
    to: impl Fn(T) -> [u8; N],
) {
    buf.extend(tag);
    buf.put_u32_le(v.len() as u32);
    let start = buf.len();
    buf.resize(start + v.len() * N, 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(N).zip(v) {
        dst.copy_from_slice(&to(x));
    }
}

/// Append a batch of named columns: `u32 count | (str name, column)*`.
pub fn put_batch(buf: &mut Vec<u8>, columns: &[(String, Column)]) {
    buf.put_u32_le(columns.len() as u32);
    for (name, col) in columns {
        put_str(buf, name);
        put_column(buf, col);
    }
}

/// Bytes [`put_column`] appends for `col`.
fn column_len(col: &Column) -> usize {
    1 + 4
        + match col {
            Column::Int32(v) => 4 * v.len(),
            Column::Int64(v) => 8 * v.len(),
            Column::Float64(v) => 8 * v.len(),
            Column::Dict { codes, dict } => {
                dict.iter().map(|s| 4 + s.len()).sum::<usize>() + 4 + 4 * codes.len()
            }
        }
}

/// Bytes [`put_batch`] appends for `columns`, so a writer can size its
/// buffer once.
pub(crate) fn batch_len(columns: &[(String, Column)]) -> usize {
    let entry = |(name, col): &(String, Column)| 4 + name.len() + column_len(col);
    4 + columns.iter().map(entry).sum::<usize>()
}

/// Bounds-checked cursor over a byte buffer: every read returns what the
/// format says is there or a [`CodecError`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some(s) = self.buf.get(self.at..).and_then(|rest| rest.get(..n)) else {
            return Err(self.truncated(n));
        };
        self.at += n;
        Ok(s)
    }

    #[cold]
    fn truncated(&self, n: usize) -> CodecError {
        let (at, len) = (self.at, self.buf.len());
        let msg = format!("truncated payload: wanted {n} bytes at offset {at}, have {len}");
        CodecError(msg)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_le_bytes)
    }

    /// A little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` count of elements that each take at least `unit` encoded
    /// bytes. A count the remaining bytes cannot hold is refused, so a
    /// corrupt count never drives a huge allocation: reserving `n`
    /// elements is bounded by `remaining / unit` of them. Pass the
    /// element's least encoded size, or cap what is reserved.
    #[inline]
    pub fn len(&mut self, unit: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(unit.max(1)) > self.remaining() {
            return Err(CodecError(format!("length {n} exceeds remaining payload")));
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| CodecError("non-UTF-8 string".into()))
    }

    /// A `u32` count, then that many elements of `N` bytes: one bounds check.
    fn fixed<const N: usize, T>(
        &mut self,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.len(N)?;
        let each = |b: &[u8]| from(b.try_into().expect("N bytes"));
        Ok(self.take(n * N)?.chunks_exact(N).map(each).collect())
    }

    /// A column in the one layout (see the module docs). Every dictionary
    /// code must resolve in the dictionary that came with it: an
    /// out-of-range code would otherwise reach the engine's
    /// dictionary-merge remap and index out of bounds.
    pub fn column(&mut self) -> Result<Column, CodecError> {
        Ok(match self.u8()? {
            1 => Column::Int32(self.fixed(i32::from_le_bytes)?),
            2 => Column::Int64(self.fixed(i64::from_le_bytes)?),
            3 => Column::Float64(self.fixed(f64::from_le_bytes)?),
            4 => {
                let dn = self.len(4)?;
                let dict = (0..dn).map(|_| self.str()).collect::<Result<_, _>>()?;
                let codes = self.fixed(u32::from_le_bytes)?;
                if let Some(c) = codes.iter().find(|&&c| c as usize >= dn) {
                    let msg = format!("dict code {c} out of range for dictionary of {dn} entries");
                    return Err(CodecError(msg));
                }
                let dict = Arc::new(dict);
                Column::Dict { codes, dict }
            }
            t => return Err(CodecError(format!("unknown column tag {t}"))),
        })
    }

    /// A batch of named columns, as [`put_batch`] wrote it.
    pub fn batch(&mut self) -> Result<Vec<(String, Column)>, CodecError> {
        let n = self.len(MIN_BATCH_ENTRY_BYTES)?;
        (0..n).map(|_| Ok((self.str()?, self.column()?))).collect()
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Succeeds only when every byte was read.
    pub fn done(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!("{n} trailing bytes after message"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<(String, Column)> {
        vec![
            ("a".into(), Column::Int32(vec![1, -2, i32::MIN])),
            ("b".into(), Column::Int64(vec![i64::MIN, 0, i64::MAX])),
            ("c".into(), Column::Float64(vec![0.5, -1.25, f64::NAN])),
            (
                "d".into(),
                Column::Dict {
                    codes: vec![0, 1, 0],
                    dict: Arc::new(vec!["x".into(), "y".into()]),
                },
            ),
        ]
    }

    #[test]
    fn a_batch_reads_back_to_its_own_bytes() {
        let mut bytes = Vec::new();
        put_batch(&mut bytes, &columns());
        assert_eq!(bytes.len(), batch_len(&columns()));
        let mut r = Reader::new(&bytes);
        let decoded = r.batch().expect("decodes");
        r.done().expect("every byte read");
        let mut again = Vec::new();
        put_batch(&mut again, &decoded);
        assert_eq!(again, bytes);
    }

    #[test]
    fn every_prefix_and_every_flip_is_typed_never_a_panic() {
        let mut bytes = Vec::new();
        put_batch(&mut bytes, &columns());
        for cut in 0..bytes.len() {
            assert!(Reader::new(&bytes[..cut]).batch().is_err(), "cut at {cut}");
        }
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[at] ^= mask;
                let _ = Reader::new(&b).batch();
            }
        }
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left_and_codes_against_their_dictionary() {
        // Four billion Int64 values announced, none present.
        let mut bomb = vec![2];
        bomb.put_u32_le(u32::MAX);
        let err = Reader::new(&bomb)
            .column()
            .expect_err("count past the bytes");
        assert!(err.0.contains("exceeds remaining payload"), "{err}");
        let mut dict = Vec::new();
        put_column(
            &mut dict,
            &Column::Dict {
                codes: vec![0, 3],
                dict: Arc::new(vec!["only".into()]),
            },
        );
        let err = Reader::new(&dict).column().expect_err("code 3 of 1");
        assert!(err.0.contains("out of range"), "{err}");
        let err = Reader::new(&[9]).column().expect_err("tag 9");
        assert_eq!(err.0, "unknown column tag 9");
        let err = Reader::new(&[1, 2]).done().expect_err("unread bytes");
        assert_eq!(err.0, "2 trailing bytes after message");
    }
}
