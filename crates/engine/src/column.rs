//! Typed in-memory columns (binary column layout, as in the paper's
//! experimental setup).
//!
//! Two types share one read surface. [`Column`] is the flat, `Vec`-backed
//! form batches, the wire, the WAL and table construction use.
//! [`StoredColumn`] is what a [`Table`](crate::table::Table) holds: a
//! **base piece** (the constructing `Vec`, moved behind an `Arc` without a
//! copy) followed by fixed-size **chunks** of [`STORED_CHUNK_ROWS`] rows,
//! shared by `Arc` between table versions, the last one open. Appending
//! copies the open chunk only, so the next version costs O(batch + one
//! chunk) and every earlier version keeps reading its own pieces
//! (DESIGN.md, "Table storage: base piece + shared chunks").

use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use crate::error::{EngineError, Result};
use crate::kernel::CHUNK_ROWS;
use crate::parallel::DEFAULT_MORSEL_ROWS;
use crate::types::{DataType, Value};

/// A typed column of values.
#[derive(Debug, Clone)]
pub enum Column {
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Dict {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Shared dictionary (sorted construction is not required).
        dict: Arc<Vec<String>>,
    },
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int32(v) => v.len(),
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical type of this column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int32(_) => DataType::Int32,
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Dict { .. } => DataType::Dict,
        }
    }

    /// Scalar value at `row` (boundary/result use only).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int32(v) => Value::Int(v[row] as i64),
            Column::Int64(v) => Value::Int(v[row]),
            Column::Float64(v) => Value::Float(v[row]),
            Column::Dict { codes, dict } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// Integer view of the value at `row`: Int32 widens, Dict yields its
    /// code, Float64 is rejected at resolve time (see [`Column::check_int`]).
    #[inline]
    pub fn i64_at(&self, row: usize) -> i64 {
        match self {
            Column::Int32(v) => v[row] as i64,
            Column::Int64(v) => v[row],
            Column::Float64(v) => v[row] as i64,
            Column::Dict { codes, .. } => codes[row] as i64,
        }
    }

    /// Float view of the value at `row`.
    #[inline]
    pub fn f64_at(&self, row: usize) -> f64 {
        match self {
            Column::Int32(v) => v[row] as f64,
            Column::Int64(v) => v[row] as f64,
            Column::Float64(v) => v[row],
            Column::Dict { codes, .. } => codes[row] as f64,
        }
    }

    /// Validate that the column has an integer-comparable representation
    /// (Int32/Int64/Dict) for predicate evaluation.
    pub fn check_int(&self, name: &str) -> Result<()> {
        match self {
            Column::Float64(_) => Err(EngineError::TypeMismatch {
                column: name.to_string(),
                expected: "integer-comparable",
                actual: self.data_type().name(),
            }),
            _ => Ok(()),
        }
    }

    /// Look up a string in a dictionary column, returning its code.
    pub fn dict_code(&self, name: &str, value: &str) -> Result<u32> {
        match self {
            Column::Dict { dict, .. } => dict_position(name, dict, value),
            _ => Err(EngineError::TypeMismatch {
                column: name.to_string(),
                expected: "Dict",
                actual: self.data_type().name(),
            }),
        }
    }

    /// Decode an integer key produced by [`Column::i64_at`] back into a
    /// result value (dict codes decode to their strings).
    pub fn decode_key(&self, key: i64) -> Value {
        match self {
            Column::Dict { dict, .. } => decode_dict_key(dict, key),
            Column::Float64(_) => Value::Float(f64::from_bits(key as u64)),
            _ => Value::Int(key),
        }
    }

    /// Append `other`'s rows to this column. Both columns must share a
    /// physical type; `name` is only used for error reporting. Dictionary
    /// columns merge their dictionaries: codes already present keep their
    /// value, unseen strings are assigned fresh codes at the end of the
    /// dictionary, and the incoming codes are remapped accordingly (so
    /// existing rows, zone maps, and stored sample strata stay valid).
    pub fn append(&mut self, name: &str, other: &Column) -> Result<()> {
        match (&mut *self, other) {
            (Column::Int32(a), Column::Int32(b)) => a.extend_from_slice(b),
            (Column::Int64(a), Column::Int64(b)) => a.extend_from_slice(b),
            (Column::Float64(a), Column::Float64(b)) => a.extend_from_slice(b),
            (
                Column::Dict { codes, dict },
                Column::Dict {
                    codes: other_codes,
                    dict: other_dict,
                },
            ) => {
                let (remapped, merged) = merge_dict(name, dict, other_codes, other_dict)?;
                codes.extend(remapped);
                *dict = merged;
            }
            (a, b) => {
                return Err(EngineError::TypeMismatch {
                    column: name.to_string(),
                    expected: a.data_type().name(),
                    actual: b.data_type().name(),
                })
            }
        }
        Ok(())
    }
}

/// Build a dictionary column from string-ish values, constructing the
/// dictionary in first-seen order.
pub fn dict_column<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Column {
    let mut dict: Vec<String> = Vec::new();
    let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut codes = Vec::new();
    for v in values {
        let s = v.as_ref();
        let code = match index.get(s) {
            Some(&c) => c,
            None => {
                let c = dict.len() as u32;
                dict.push(s.to_string());
                index.insert(s.to_string(), c);
                c
            }
        };
        codes.push(code);
    }
    Column::Dict {
        codes,
        dict: Arc::new(dict),
    }
}

/// The code of `value` in `dict`.
fn dict_position(name: &str, dict: &[String], value: &str) -> Result<u32> {
    dict.iter()
        .position(|s| s == value)
        .map(|p| p as u32)
        .ok_or_else(|| EngineError::UnknownDictValue {
            column: name.to_string(),
            value: value.to_string(),
        })
}

/// The string a dictionary code stands for (`Null` when out of range).
fn decode_dict_key(dict: &[String], key: i64) -> Value {
    dict.get(key as usize)
        .map(|s| Value::Str(s.clone()))
        .unwrap_or(Value::Null)
}

/// Map a batch's dictionary codes onto `dict`: codes already present keep
/// their value, unseen strings get fresh codes at the end (first-seen
/// order). Returns the remapped codes and the merged dictionary (`dict`
/// itself when the batch brought no new string). A code with no entry in
/// the incoming dictionary (corrupt or hostile batch) is a typed error
/// raised before anything is built, never an index panic mid-append.
fn merge_dict(
    name: &str,
    dict: &Arc<Vec<String>>,
    codes: &[u32],
    incoming: &[String],
) -> Result<(Vec<u32>, Arc<Vec<String>>)> {
    if let Some(&bad) = codes.iter().find(|&&c| c as usize >= incoming.len()) {
        return Err(EngineError::CorruptDictCodes {
            column: name.to_string(),
            code: bad,
            dict_len: incoming.len(),
        });
    }
    let index: std::collections::HashMap<&str, u32> = dict
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i as u32))
        .collect();
    let mut extended: Vec<String> = Vec::new();
    let remap: Vec<u32> = incoming
        .iter()
        .map(|s| match index.get(s.as_str()) {
            Some(&c) => c,
            None => {
                extended.push(s.clone());
                (dict.len() + extended.len() - 1) as u32
            }
        })
        .collect();
    let merged = if extended.is_empty() {
        Arc::clone(dict)
    } else {
        let mut merged = (**dict).clone();
        merged.extend(extended);
        Arc::new(merged)
    };
    Ok((codes.iter().map(|&c| remap[c as usize]).collect(), merged))
}

/// Rows per shared chunk of a [`StoredColumn`]. An append copies at most
/// one open chunk per column, so this bounds the copy-on-write cost of a
/// table version; readers past the base piece pay one shift and one mask
/// per row whatever the value. Chosen by measurement (DESIGN.md, "Table
/// storage: base piece + shared chunks"): a 2000-row append on the
/// 600 k-row `lineorder` takes 0.15 / 0.21 / 0.27 / 0.57 ms at 8 / 16 /
/// 32 / 64 Ki rows, reads of a grown table do not tell them apart, and
/// 16 Ki halves the piece boundaries and chunk pointers of 8 Ki while
/// keeping the worst append (a nearly full open chunk) near 0.5 ms.
pub const STORED_CHUNK_ROWS: usize = 1 << 14;

const CHUNK_SHIFT: u32 = STORED_CHUNK_ROWS.trailing_zeros();
const CHUNK_MASK: usize = STORED_CHUNK_ROWS - 1;

// Chunks nest inside scan morsels and hold whole kernel chunks, so a
// table grown from empty never straddles a piece inside one kernel call.
const _: () = assert!(
    STORED_CHUNK_ROWS.is_power_of_two()
        && STORED_CHUNK_ROWS.is_multiple_of(CHUNK_ROWS)
        && DEFAULT_MORSEL_ROWS.is_multiple_of(STORED_CHUNK_ROWS)
);

/// An immutable piece of a stored column and, once built, its range index.
#[derive(Debug)]
pub(crate) struct Piece<T> {
    values: Vec<T>,
    pub(crate) sorted: OnceLock<Box<[u32]>>,
}

impl<T> Piece<T> {
    fn new(values: Vec<T>) -> Arc<Self> {
        let sorted = OnceLock::new();
        Arc::new(Self { values, sorted })
    }
}

impl<T> Deref for Piece<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.values
    }
}

/// The values of one stored column: a base piece of any length, then
/// chunks of exactly [`STORED_CHUNK_ROWS`] rows except the last (open)
/// one. Every piece is immutable once shared; versions differ only in
/// their open chunk and the chunks after it.
#[derive(Debug, Clone)]
pub struct Pieces<T> {
    base: Arc<Piece<T>>,
    chunks: Vec<Arc<Piece<T>>>,
}

impl<T: Copy> Pieces<T> {
    /// Move `base` behind an `Arc`; no value is copied.
    fn new(base: Vec<T>) -> Self {
        Self {
            base: Piece::new(base),
            chunks: Vec::new(),
        }
    }

    /// The pieces no version writes again, each with its first row: the
    /// base piece and every full chunk. Only the open chunk follows them.
    pub(crate) fn sealed(&self) -> impl Iterator<Item = (usize, &Piece<T>)> {
        let full = self.chunks[..(self.len() - self.base.len()) / STORED_CHUNK_ROWS].iter();
        let at = |i| self.base.len() + i * STORED_CHUNK_ROWS;
        std::iter::once((0, &*self.base)).chain(full.enumerate().map(move |(i, c)| (at(i), &**c)))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The borrowed view readers hold.
    #[inline]
    pub fn rows(&self) -> Rows<'_, T> {
        Rows {
            base: &self.base,
            chunks: &self.chunks,
        }
    }

    /// The next version: these rows followed by `rows`. Shares the base
    /// piece and every sealed chunk; copies the open chunk (fewer than
    /// [`STORED_CHUNK_ROWS`] rows) and allocates chunks for the overflow.
    fn appended(&self, mut rows: &[T]) -> Self {
        let mut chunks = self.chunks.clone();
        if let Some(open) = chunks.last_mut() {
            let take = rows.len().min(STORED_CHUNK_ROWS - open.len());
            if take > 0 {
                let mut grown = Vec::with_capacity(open.len() + take);
                grown.extend_from_slice(open);
                grown.extend_from_slice(&rows[..take]);
                *open = Piece::new(grown);
                rows = &rows[take..];
            }
        }
        for chunk in rows.chunks(STORED_CHUNK_ROWS) {
            chunks.push(Piece::new(chunk.to_vec()));
        }
        Self {
            base: Arc::clone(&self.base),
            chunks,
        }
    }

    /// Values, chunk pointers and the range indexes built so far.
    fn heap_bytes(&self) -> usize {
        let pieces = std::iter::once(&self.base).chain(&self.chunks);
        let piece = |p: &Arc<Piece<T>>| {
            p.capacity() * std::mem::size_of::<T>() + p.sorted.get().map_or(0, |s| 4 * s.len())
        };
        pieces.map(piece).sum::<usize>()
            + self.chunks.capacity() * std::mem::size_of::<Arc<Piece<T>>>()
    }

    /// `(bytes, sealed)`: the bytes of this version's pieces that are not
    /// the very allocation `parent` holds at the same position, and whether
    /// `parent`'s base piece and every sealed chunk are among the shared.
    #[cfg(test)]
    fn sharing(&self, parent: &Self) -> (usize, bool) {
        let mut sealed = Arc::ptr_eq(&self.base, &parent.base);
        let mut rows = if sealed { 0 } else { self.base.len() };
        for (i, chunk) in self.chunks.iter().enumerate() {
            let shared = parent.chunks.get(i).is_some_and(|p| Arc::ptr_eq(p, chunk));
            if !shared {
                rows += chunk.len();
                sealed &= parent
                    .chunks
                    .get(i)
                    .is_none_or(|p| p.len() < STORED_CHUNK_ROWS);
            }
        }
        (rows * std::mem::size_of::<T>(), sealed)
    }
}

/// A borrowed, typed view of a stored column's rows: what kernels,
/// [`ResolvedCol`] and the synopsis read through. Rows inside the base piece — every row of a table that was
/// never appended to — cost the one compare a slice bounds check makes.
pub struct Rows<'a, T> {
    base: &'a [T],
    chunks: &'a [Arc<Piece<T>>],
}

impl<T> Clone for Rows<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Rows<'_, T> {}

impl<'a, T: Copy> Rows<'a, T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        let sealed = self.chunks.len().saturating_sub(1) * STORED_CHUNK_ROWS;
        self.base.len() + sealed + self.chunks.last().map_or(0, |c| c.len())
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    #[inline(always)]
    pub fn get(&self, row: usize) -> T {
        match self.base.get(row) {
            Some(&v) => v,
            None => {
                let at = row - self.base.len();
                self.chunks[at >> CHUNK_SHIFT][at & CHUNK_MASK]
            }
        }
    }

    /// The piece holding `row` and `row`'s offset inside it.
    #[inline]
    fn locate(&self, row: usize) -> (&'a [T], usize) {
        if row < self.base.len() {
            (self.base, row)
        } else {
            let at = row - self.base.len();
            (&self.chunks[at >> CHUNK_SHIFT][..], at & CHUNK_MASK)
        }
    }

    /// The maximal contiguous slices covering `range`, in row order.
    pub fn runs(&self, range: Range<usize>) -> impl Iterator<Item = &'a [T]> + '_ {
        assert!(range.end <= self.len(), "rows {range:?} out of range");
        let mut at = range.start;
        std::iter::from_fn(move || {
            if at >= range.end {
                return None;
            }
            let (piece, offset) = self.locate(at);
            let take = (piece.len() - offset).min(range.end - at);
            at += take;
            Some(&piece[offset..offset + take])
        })
    }
}

impl<'a, T: Copy + Default> Rows<'a, T> {
    /// Run `f` over rows `base .. base + len` (`len` ≤ [`CHUNK_ROWS`]) as
    /// one slice: borrowed when they lie inside one piece, staged through
    /// a stack buffer when they straddle two (once per piece boundary).
    #[inline]
    pub(crate) fn with_chunk<R>(&self, base: usize, len: usize, f: impl FnOnce(&[T]) -> R) -> R {
        let end = base + len;
        if end <= self.base.len() {
            return f(&self.base[base..end]);
        }
        let staged;
        let slice = match self.within_chunk(base, len) {
            Some(slice) => slice,
            None => {
                staged = self.staged(base..end);
                &staged[..len]
            }
        };
        f(slice)
    }

    /// Rows `base .. base + len` when one chunk holds them all.
    fn within_chunk(&self, base: usize, len: usize) -> Option<&'a [T]> {
        let at = base.checked_sub(self.base.len())?;
        let offset = at & CHUNK_MASK;
        self.chunks
            .get(at >> CHUNK_SHIFT)?
            .get(offset..offset + len)
    }

    /// Copy `range` (at most [`CHUNK_ROWS`] rows) into a stack buffer.
    fn staged(&self, range: Range<usize>) -> [T; CHUNK_ROWS] {
        let mut buf = [T::default(); CHUNK_ROWS];
        let mut filled = 0;
        for run in self.runs(range) {
            buf[filled..filled + run.len()].copy_from_slice(run);
            filled += run.len();
        }
        buf
    }
}

/// A stored column resolved to its typed rows, read through the integer
/// view of [`StoredColumn::i64_at`] (Int32 widens, Dict yields its code,
/// Float64 truncates) or the float view: the one typed view of a column
/// (group-by keys and inputs, join build and probe, sampler admission,
/// the kernels' generic nodes).
#[derive(Clone, Copy)]
pub enum ResolvedCol<'a> {
    /// 32-bit ints.
    I32(Rows<'a, i32>),
    /// 64-bit ints.
    I64(Rows<'a, i64>),
    /// 64-bit floats.
    F64(Rows<'a, f64>),
    /// Dictionary codes.
    Dict(Rows<'a, u32>),
}

impl<'a> ResolvedCol<'a> {
    /// Resolve from a [`StoredColumn`].
    pub fn from_column(col: &'a StoredColumn) -> Self {
        match col {
            StoredColumn::Int32(p) => ResolvedCol::I32(p.rows()),
            StoredColumn::Int64(p) => ResolvedCol::I64(p.rows()),
            StoredColumn::Float64(p) => ResolvedCol::F64(p.rows()),
            StoredColumn::Dict { codes, .. } => ResolvedCol::Dict(codes.rows()),
        }
    }

    /// Integer view of the value at physical row `row`.
    #[inline(always)]
    pub fn i64(&self, row: usize) -> i64 {
        match self {
            ResolvedCol::I32(v) => v.get(row) as i64,
            ResolvedCol::I64(v) => v.get(row),
            ResolvedCol::F64(v) => v.get(row) as i64,
            ResolvedCol::Dict(v) => v.get(row) as i64,
        }
    }

    /// Float view of the value at physical row `row`.
    #[inline(always)]
    pub fn f64(&self, row: usize) -> f64 {
        match self {
            ResolvedCol::I32(v) => v.get(row) as f64,
            ResolvedCol::I64(v) => v.get(row) as f64,
            ResolvedCol::F64(v) => v.get(row),
            ResolvedCol::Dict(v) => v.get(row) as f64,
        }
    }

    /// Call `f` with the integer view of each of `rows`, in order: the
    /// type dispatch happens once for the batch, not once per row.
    #[inline]
    pub fn for_each_i64(&self, rows: impl Iterator<Item = usize>, mut f: impl FnMut(i64)) {
        match self {
            ResolvedCol::I32(v) => rows.for_each(|r| f(v.get(r) as i64)),
            ResolvedCol::I64(v) => rows.for_each(|r| f(v.get(r))),
            ResolvedCol::F64(v) => rows.for_each(|r| f(v.get(r) as i64)),
            ResolvedCol::Dict(v) => rows.for_each(|r| f(v.get(r) as i64)),
        }
    }

    /// [`Self::for_each_i64`] over the float view.
    #[inline]
    pub fn for_each_f64(&self, rows: impl Iterator<Item = usize>, mut f: impl FnMut(f64)) {
        match self {
            ResolvedCol::I32(v) => rows.for_each(|r| f(v.get(r) as f64)),
            ResolvedCol::I64(v) => rows.for_each(|r| f(v.get(r) as f64)),
            ResolvedCol::F64(v) => rows.for_each(|r| f(v.get(r))),
            ResolvedCol::Dict(v) => rows.for_each(|r| f(v.get(r) as f64)),
        }
    }
}

/// A table's stored form of one column: the same four physical types as
/// [`Column`], each held as [`Pieces`]. Built from a flat column without
/// copying it and grown only through [`Table::append_batch`]; everything
/// else is the read surface [`Column`] has.
///
/// [`Table::append_batch`]: crate::table::Table::append_batch
#[derive(Debug, Clone)]
pub enum StoredColumn {
    /// 32-bit integers.
    Int32(Pieces<i32>),
    /// 64-bit integers.
    Int64(Pieces<i64>),
    /// 64-bit floats.
    Float64(Pieces<f64>),
    /// Dictionary-encoded strings: codes index into `dict`.
    Dict {
        /// Per-row dictionary codes.
        codes: Pieces<u32>,
        /// The dictionary, shared between versions until a batch extends it.
        dict: Arc<Vec<String>>,
    },
}

impl From<Column> for StoredColumn {
    fn from(col: Column) -> Self {
        match col {
            Column::Int32(v) => StoredColumn::Int32(Pieces::new(v)),
            Column::Int64(v) => StoredColumn::Int64(Pieces::new(v)),
            Column::Float64(v) => StoredColumn::Float64(Pieces::new(v)),
            Column::Dict { codes, dict } => StoredColumn::Dict {
                codes: Pieces::new(codes),
                dict,
            },
        }
    }
}

/// An append that can no longer fail: a batch column checked against the
/// stored column it extends ([`StoredColumn::check_append`]), not yet
/// applied. Building it allocates no chunk and shares none.
pub(crate) enum PendingAppend<'a> {
    Int32(&'a Pieces<i32>, &'a [i32]),
    Int64(&'a Pieces<i64>, &'a [i64]),
    Float64(&'a Pieces<f64>, &'a [f64]),
    /// The batch's codes remapped onto the merged dictionary.
    Dict(&'a Pieces<u32>, Vec<u32>, Arc<Vec<String>>),
}

impl PendingAppend<'_> {
    /// The next version of the column, the batch at its tail. The column
    /// the append was checked against is untouched and shares every piece
    /// but its open chunk with the result.
    pub(crate) fn finish(self) -> StoredColumn {
        match self {
            PendingAppend::Int32(p, v) => StoredColumn::Int32(p.appended(v)),
            PendingAppend::Int64(p, v) => StoredColumn::Int64(p.appended(v)),
            PendingAppend::Float64(p, v) => StoredColumn::Float64(p.appended(v)),
            PendingAppend::Dict(p, codes, dict) => StoredColumn::Dict {
                codes: p.appended(&codes),
                dict,
            },
        }
    }
}

impl StoredColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            StoredColumn::Int32(p) => p.len(),
            StoredColumn::Int64(p) => p.len(),
            StoredColumn::Float64(p) => p.len(),
            StoredColumn::Dict { codes, .. } => codes.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical type of this column.
    pub fn data_type(&self) -> DataType {
        match self {
            StoredColumn::Int32(_) => DataType::Int32,
            StoredColumn::Int64(_) => DataType::Int64,
            StoredColumn::Float64(_) => DataType::Float64,
            StoredColumn::Dict { .. } => DataType::Dict,
        }
    }

    /// Scalar value at `row` (boundary/result use only).
    pub fn value(&self, row: usize) -> Value {
        match self {
            StoredColumn::Int32(p) => Value::Int(p.rows().get(row) as i64),
            StoredColumn::Int64(p) => Value::Int(p.rows().get(row)),
            StoredColumn::Float64(p) => Value::Float(p.rows().get(row)),
            StoredColumn::Dict { codes, dict } => {
                Value::Str(dict[codes.rows().get(row) as usize].clone())
            }
        }
    }

    /// Integer view of the value at `row`: Int32 widens, Dict yields its
    /// code, Float64 is rejected at resolve time (see
    /// [`StoredColumn::check_int`]).
    #[inline]
    pub fn i64_at(&self, row: usize) -> i64 {
        match self {
            StoredColumn::Int32(p) => p.rows().get(row) as i64,
            StoredColumn::Int64(p) => p.rows().get(row),
            StoredColumn::Float64(p) => p.rows().get(row) as i64,
            StoredColumn::Dict { codes, .. } => codes.rows().get(row) as i64,
        }
    }

    /// Float view of the value at `row`.
    #[inline]
    pub fn f64_at(&self, row: usize) -> f64 {
        match self {
            StoredColumn::Int32(p) => p.rows().get(row) as f64,
            StoredColumn::Int64(p) => p.rows().get(row) as f64,
            StoredColumn::Float64(p) => p.rows().get(row),
            StoredColumn::Dict { codes, .. } => codes.rows().get(row) as f64,
        }
    }

    /// Validate that the column has an integer-comparable representation
    /// (Int32/Int64/Dict) for predicate evaluation.
    pub fn check_int(&self, name: &str) -> Result<()> {
        match self {
            StoredColumn::Float64(_) => Err(EngineError::TypeMismatch {
                column: name.to_string(),
                expected: "integer-comparable",
                actual: self.data_type().name(),
            }),
            _ => Ok(()),
        }
    }

    /// Look up a string in a dictionary column, returning its code.
    pub fn dict_code(&self, name: &str, value: &str) -> Result<u32> {
        match self {
            StoredColumn::Dict { dict, .. } => dict_position(name, dict, value),
            _ => Err(EngineError::TypeMismatch {
                column: name.to_string(),
                expected: "Dict",
                actual: self.data_type().name(),
            }),
        }
    }

    /// Decode an integer key produced by [`StoredColumn::i64_at`] back
    /// into a result value (dict codes decode to their strings).
    pub fn decode_key(&self, key: i64) -> Value {
        match self {
            StoredColumn::Dict { dict, .. } => decode_dict_key(dict, key),
            StoredColumn::Float64(_) => Value::Float(f64::from_bits(key as u64)),
            _ => Value::Int(key),
        }
    }

    /// The given rows, in the given order (duplicates allowed), as a flat
    /// [`Column`] of the same type — `lo..hi` for a slice, a selection
    /// vector for a gather.
    pub fn take(&self, rows: impl IntoIterator<Item = usize>) -> Column {
        fn pick<T: Copy>(p: &Pieces<T>, rows: impl IntoIterator<Item = usize>) -> Vec<T> {
            let view = p.rows();
            rows.into_iter().map(|r| view.get(r)).collect()
        }
        match self {
            StoredColumn::Int32(p) => Column::Int32(pick(p, rows)),
            StoredColumn::Int64(p) => Column::Int64(pick(p, rows)),
            StoredColumn::Float64(p) => Column::Float64(pick(p, rows)),
            StoredColumn::Dict { codes, dict } => Column::Dict {
                codes: pick(codes, rows),
                dict: Arc::clone(dict),
            },
        }
    }

    /// Check that `batch` can extend this column: same physical type, and
    /// for dictionaries every code has an entry (codes are remapped onto
    /// this column's dictionary as in [`Column::append`]). `name` is only
    /// used for error reporting.
    pub(crate) fn check_append<'a>(
        &'a self,
        name: &str,
        batch: &'a Column,
    ) -> Result<PendingAppend<'a>> {
        Ok(match (self, batch) {
            (StoredColumn::Int32(p), Column::Int32(v)) => PendingAppend::Int32(p, v),
            (StoredColumn::Int64(p), Column::Int64(v)) => PendingAppend::Int64(p, v),
            (StoredColumn::Float64(p), Column::Float64(v)) => PendingAppend::Float64(p, v),
            (
                StoredColumn::Dict { codes, dict },
                Column::Dict {
                    codes: incoming_codes,
                    dict: incoming,
                },
            ) => {
                let (remapped, merged) = merge_dict(name, dict, incoming_codes, incoming)?;
                PendingAppend::Dict(codes, remapped, merged)
            }
            (a, b) => {
                return Err(EngineError::TypeMismatch {
                    column: name.to_string(),
                    expected: a.data_type().name(),
                    actual: b.data_type().name(),
                })
            }
        })
    }

    /// [`Pieces::sharing`] of this column against the same column of the
    /// version it was appended to.
    #[cfg(test)]
    pub(crate) fn sharing(&self, parent: &StoredColumn) -> (usize, bool) {
        match (self, parent) {
            (StoredColumn::Int32(a), StoredColumn::Int32(b)) => a.sharing(b),
            (StoredColumn::Int64(a), StoredColumn::Int64(b)) => a.sharing(b),
            (StoredColumn::Float64(a), StoredColumn::Float64(b)) => a.sharing(b),
            (StoredColumn::Dict { codes: a, .. }, StoredColumn::Dict { codes: b, .. }) => {
                a.sharing(b)
            }
            _ => panic!("versions of one column share its type"),
        }
    }

    /// Heap footprint in bytes, counting shared pieces in full.
    pub fn heap_bytes(&self) -> usize {
        match self {
            StoredColumn::Int32(p) => p.heap_bytes(),
            StoredColumn::Int64(p) => p.heap_bytes(),
            StoredColumn::Float64(p) => p.heap_bytes(),
            StoredColumn::Dict { codes, dict } => {
                codes.heap_bytes() + dict.iter().map(|s| s.capacity() + 24).sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_type() {
        let c = Column::Int32(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int32);
        assert!(!c.is_empty());
    }

    #[test]
    fn integer_views_widen() {
        let c = Column::Int32(vec![5, -7]);
        assert_eq!(c.i64_at(1), -7);
        assert_eq!(c.f64_at(0), 5.0);
    }

    #[test]
    fn dict_roundtrip() {
        let c = dict_column(["AMERICA", "ASIA", "AMERICA", "EUROPE"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(2), Value::Str("AMERICA".into()));
        let code = c.dict_code("region", "ASIA").unwrap();
        assert_eq!(c.i64_at(1), code as i64);
        assert_eq!(c.decode_key(code as i64), Value::Str("ASIA".into()));
    }

    #[test]
    fn dict_unknown_value_is_error() {
        let c = dict_column(["A", "B"]);
        let err = c.dict_code("col", "Z").unwrap_err();
        assert!(matches!(err, EngineError::UnknownDictValue { .. }));
    }

    #[test]
    fn float_rejected_for_int_predicates() {
        let c = Column::Float64(vec![1.0]);
        assert!(c.check_int("f").is_err());
        assert!(Column::Int64(vec![1]).check_int("i").is_ok());
    }

    #[test]
    fn decode_key_for_plain_ints() {
        let c = Column::Int64(vec![1]);
        assert_eq!(c.decode_key(42), Value::Int(42));
    }

    #[test]
    fn append_extends_numeric_columns() {
        let mut c = Column::Int64(vec![1, 2]);
        c.append("a", &Column::Int64(vec![3])).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.i64_at(2), 3);
        let mut f = Column::Float64(vec![0.5]);
        f.append("f", &Column::Float64(vec![1.5])).unwrap();
        assert_eq!(f.f64_at(1), 1.5);
    }

    #[test]
    fn append_remaps_dictionary_codes() {
        let mut c = dict_column(["AMERICA", "ASIA"]);
        // The batch's dictionary assigns different codes to the same
        // strings, plus one unseen value.
        let batch = dict_column(["EUROPE", "ASIA", "AMERICA"]);
        c.append("region", &batch).unwrap();
        assert_eq!(c.len(), 5);
        // Existing codes are untouched...
        assert_eq!(c.value(0), Value::Str("AMERICA".into()));
        assert_eq!(c.dict_code("region", "AMERICA").unwrap(), 0);
        assert_eq!(c.dict_code("region", "ASIA").unwrap(), 1);
        // ...appended rows decode correctly, and the new string got a
        // fresh code at the end of the dictionary.
        assert_eq!(c.value(2), Value::Str("EUROPE".into()));
        assert_eq!(c.value(3), Value::Str("ASIA".into()));
        assert_eq!(c.value(4), Value::Str("AMERICA".into()));
        assert_eq!(c.dict_code("region", "EUROPE").unwrap(), 2);
    }

    #[test]
    fn append_rejects_out_of_range_dict_codes() {
        let mut c = dict_column(["A", "B"]);
        // Code 7 has no entry in the batch's one-string dictionary —
        // a corrupt (or hostile, when it arrived over the wire) batch
        // must be a typed error, never a panic.
        let bad = Column::Dict {
            codes: vec![0, 7],
            dict: Arc::new(vec!["A".into()]),
        };
        let err = c.append("region", &bad).unwrap_err();
        assert!(matches!(err, EngineError::CorruptDictCodes { code: 7, .. }));
        assert_eq!(c.len(), 2, "failed append leaves the column unchanged");
    }

    #[test]
    fn append_rejects_type_mismatch() {
        let mut c = Column::Int64(vec![1]);
        let err = c.append("a", &Column::Int32(vec![2])).unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }));
        assert_eq!(c.len(), 1, "failed append leaves the column unchanged");
    }

    /// `base` rows at construction, then `batches` appended one by one.
    fn grown(base: usize, batches: &[usize]) -> Pieces<i64> {
        let mut pieces = Pieces::new((0..base as i64).collect());
        let mut at = base as i64;
        for &n in batches {
            let rows: Vec<i64> = (at..at + n as i64).collect();
            pieces = pieces.appended(&rows);
            at += n as i64;
        }
        pieces
    }

    #[test]
    fn pieces_hold_rows_in_order_across_every_boundary() {
        let c = STORED_CHUNK_ROWS;
        for (base, batches) in [
            (0, vec![1, c - 1, 1]),
            (5, vec![c, c, 3]),
            (1000, vec![c - 1, 2, 0, 2 * c + 7]),
            (c + 3, vec![7]),
        ] {
            let pieces = grown(base, &batches);
            let n = base + batches.iter().sum::<usize>();
            let rows = pieces.rows();
            assert_eq!(rows.len(), n);
            assert!((0..n).all(|r| rows.get(r) == r as i64));
            // Every chunk but the last is sealed at exactly `c` rows.
            let (last, sealed) = pieces.chunks.split_last().unwrap();
            assert!(sealed.iter().all(|chunk| chunk.len() == c));
            assert!((1..=c).contains(&last.len()));
            // Runs tile any range with maximal slices.
            let runs: Vec<&[i64]> = rows.runs(base.saturating_sub(2)..n).collect();
            assert!(runs.len() <= pieces.chunks.len() + 1);
            let flat: Vec<i64> = runs.concat();
            assert_eq!(
                flat,
                (base.saturating_sub(2) as i64..n as i64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn with_chunk_borrows_inside_a_piece_and_stages_across_two() {
        let c = STORED_CHUNK_ROWS;
        let pieces = grown(1000, &[c + 2000]);
        let rows = pieces.rows();
        let first =
            |base: usize, len: usize| rows.with_chunk(base, len, |s| (s.as_ptr(), s.to_vec()));
        // Inside the base piece and inside one chunk: the very memory.
        assert_eq!(first(0, 1000).0, pieces.base.as_ptr());
        assert_eq!(first(1000, 1024).0, pieces.chunks[0].as_ptr());
        assert_eq!(first(1000 + c, 500).0, pieces.chunks[1].as_ptr());
        // Straddling base → chunk 0 and chunk 0 → chunk 1: a staged copy
        // with the same values.
        for base in [488, 999, 1000 + c - 1, 1000 + c - 1023] {
            let (ptr, values) = first(base, 1024);
            assert_eq!(
                values,
                (base as i64..base as i64 + 1024).collect::<Vec<_>>()
            );
            assert!(pieces
                .chunks
                .iter()
                .all(|chunk| !chunk.as_ptr_range().contains(&ptr)));
        }
        // Empty tails are fine wherever they start.
        assert!(rows.with_chunk(rows.len(), 0, |s| s.is_empty()));
    }

    #[test]
    fn stored_column_reads_like_the_flat_column_it_was_built_from() {
        let flat = [
            Column::Int32(vec![3, -1, 7]),
            Column::Int64(vec![1 << 40, 0, -5]),
            Column::Float64(vec![0.5, -2.25, 1e9]),
            dict_column(["x", "y", "x"]),
        ];
        for col in flat {
            let stored = StoredColumn::from(col.clone());
            assert_eq!(stored.len(), col.len());
            assert_eq!(stored.data_type(), col.data_type());
            assert_eq!(stored.check_int("c").is_ok(), col.check_int("c").is_ok());
            assert_eq!(stored.dict_code("c", "y"), col.dict_code("c", "y"));
            for r in 0..3 {
                assert_eq!(stored.value(r), col.value(r));
                assert_eq!(stored.i64_at(r), col.i64_at(r));
                assert_eq!(stored.f64_at(r), col.f64_at(r));
                assert_eq!(
                    format!("{:?}", stored.decode_key(col.i64_at(r))),
                    format!("{:?}", col.decode_key(col.i64_at(r)))
                );
            }
            // `take` is both the slice and the gather.
            let picked = stored.take([2, 0, 2]);
            assert_eq!(picked.len(), 3);
            assert_eq!(
                (picked.value(0), picked.value(1)),
                (col.value(2), col.value(0))
            );
            assert_eq!(format!("{:?}", stored.take(0..3)), format!("{col:?}"));
        }
    }
}
