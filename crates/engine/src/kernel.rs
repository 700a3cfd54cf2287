//! Vectorized batch kernels: chunked bitmask predicate evaluation.
//!
//! A [`BatchKernel`] is a [`Compiled`] predicate flattened into typed,
//! monomorphized loops that evaluate [`CHUNK_ROWS`] rows at a time into a
//! 64-bit-word bitmask ([`Mask`]). Range checks run branch-free over a
//! contiguous slice of the column (`(v >= lo) & (v <= hi)`, written so
//! LLVM autovectorizes) — borrowed straight from the stored piece that
//! holds the chunk, staged through a stack buffer only where a chunk
//! straddles two pieces (`Rows::with_chunk`). `IN` lists use a dense value
//! bitmap when the value domain is small and sorted-slice binary search
//! otherwise, and `And`/`Or`/`Not` combine whole mask words instead of
//! short-circuiting per row.
//!
//! Invariants:
//!
//! - Every evaluation leaves mask bits at and beyond the chunk length
//!   cleared, so popcounts and word-level combines never see ghost rows.
//! - Bit `i` of word `i / 64` corresponds to row `base + i`: decode order
//!   is strictly ascending, which keeps fused `f64` accumulation
//!   bitwise-identical to filtering first and folding row by row.
//! - Kernel results are proptest-compared against the row-at-a-time
//!   reference evaluator (`ops::reference`), the only module where
//!   per-row `matches` scan loops are permitted (`xtask lint`
//!   rule `row-at-a-time`).

use crate::column::{ResolvedCol, Rows, StoredColumn};
use crate::expr::Compiled;

/// Rows evaluated per kernel invocation.
pub const CHUNK_ROWS: usize = 1024;

/// 64-bit words in one chunk mask.
pub const MASK_WORDS: usize = CHUNK_ROWS / 64;

/// A chunk's match bitmask: bit `b` of `mask[w]` is row `base + 64*w + b`.
pub type Mask = [u64; MASK_WORDS];

/// Largest `max − min + 1` span an `IN` list compiles to a dense bitmap;
/// wider domains binary-search the sorted value slice instead.
const IN_BITMAP_MAX_SPAN: i64 = 4096;

/// One node of the flattened kernel tree.
enum Node<'a> {
    /// Constant verdict (True/False predicates, statically-empty ranges).
    Const(bool),
    /// Monomorphized inclusive range over `i64` storage.
    RangeI64 {
        data: Rows<'a, i64>,
        lo: i64,
        hi: i64,
    },
    /// Monomorphized inclusive range over `i32` storage, bounds pre-clamped.
    RangeI32 {
        data: Rows<'a, i32>,
        lo: i32,
        hi: i32,
    },
    /// Monomorphized inclusive range over dictionary codes, bounds pre-clamped.
    RangeDict {
        codes: Rows<'a, u32>,
        lo: u32,
        hi: u32,
    },
    /// Range over the column's integer view (Float64 fallback only).
    RangeGeneric {
        view: ResolvedCol<'a>,
        lo: i64,
        hi: i64,
    },
    /// Membership via binary search on a sorted, deduplicated value slice.
    InSorted {
        view: ResolvedCol<'a>,
        values: Vec<i64>,
    },
    /// Membership via a dense bitmap over `[min, min + span)`.
    InBitmap {
        view: ResolvedCol<'a>,
        min: i64,
        span: i64,
        bits: Vec<u64>,
    },
    /// Word-level conjunction (empty = all rows match, as in `matches`).
    And(Vec<Node<'a>>),
    /// Word-level disjunction (empty = no row matches, as in `matches`).
    Or(Vec<Node<'a>>),
    /// Word-level negation (tail bits re-cleared after the flip).
    Not(Box<Node<'a>>),
}

/// A compiled predicate flattened into chunked batch kernels. Built once
/// per (predicate, table) pair and reused across every morsel and chunk.
pub struct BatchKernel<'a> {
    node: Node<'a>,
}

impl<'a> BatchKernel<'a> {
    /// Flatten a compiled predicate into batch form. Never fails: every
    /// `Compiled` shape has a kernel (unexpected layouts degrade to the
    /// generic integer view, matching `Compiled::matches` semantics).
    pub fn compile(compiled: &Compiled<'a>) -> Self {
        Self {
            node: compile_node(compiled),
        }
    }

    /// Evaluate rows `base .. base + len` (`len` ≤ [`CHUNK_ROWS`]) into
    /// `out`. Bits at and beyond `len` are cleared.
    pub fn eval_chunk(&self, base: usize, len: usize, out: &mut Mask) {
        debug_assert!(
            len <= CHUNK_ROWS,
            "chunk of {len} rows exceeds {CHUNK_ROWS}"
        );
        self.node.eval(base, len, out);
    }
}

fn compile_node<'a>(compiled: &Compiled<'a>) -> Node<'a> {
    match compiled {
        Compiled::True => Node::Const(true),
        Compiled::False => Node::Const(false),
        Compiled::Between { col, lo, hi, .. } => compile_range(col, *lo, *hi),
        Compiled::In { col, values, .. } => compile_in(col, values),
        Compiled::And(parts) => Node::And(parts.iter().map(compile_node).collect()),
        Compiled::Or(parts) => Node::Or(parts.iter().map(compile_node).collect()),
        Compiled::Not(p) => Node::Not(Box::new(compile_node(p))),
    }
}

/// Clamp an `i64` range onto a narrower column type, degenerating to
/// `Const(false)` when the intersection is empty.
fn compile_range<'a>(col: &'a StoredColumn, lo: i64, hi: i64) -> Node<'a> {
    if lo > hi {
        return Node::Const(false);
    }
    match col {
        StoredColumn::Int64(data) => Node::RangeI64 {
            data: data.rows(),
            lo,
            hi,
        },
        StoredColumn::Int32(data) => {
            if hi < i32::MIN as i64 || lo > i32::MAX as i64 {
                Node::Const(false)
            } else {
                Node::RangeI32 {
                    data: data.rows(),
                    lo: lo.max(i32::MIN as i64) as i32,
                    hi: hi.min(i32::MAX as i64) as i32,
                }
            }
        }
        StoredColumn::Dict { codes, .. } => {
            if hi < 0 || lo > u32::MAX as i64 {
                Node::Const(false)
            } else {
                Node::RangeDict {
                    codes: codes.rows(),
                    lo: lo.max(0) as u32,
                    hi: hi.min(u32::MAX as i64) as u32,
                }
            }
        }
        StoredColumn::Float64(_) => Node::RangeGeneric {
            view: ResolvedCol::from_column(col),
            lo,
            hi,
        },
    }
}

fn compile_in<'a>(col: &'a StoredColumn, values: &[i64]) -> Node<'a> {
    // `Predicate::compile` sorts and deduplicates, but a hand-built
    // `Compiled::In` may not have — normalizing here is a one-time cost.
    let mut values = values.to_vec();
    values.sort_unstable();
    values.dedup();
    let (Some(&min), Some(&max)) = (values.first(), values.last()) else {
        return Node::Const(false);
    };
    let span = max - min + 1;
    if span == values.len() as i64 {
        // Contiguous run (covers the single-value case): a plain range.
        return compile_range(col, min, max);
    }
    let view = ResolvedCol::from_column(col);
    if span <= IN_BITMAP_MAX_SPAN {
        let mut bits = vec![0u64; (span as usize).div_ceil(64)];
        for &v in &values {
            let d = (v - min) as usize;
            bits[d / 64] |= 1 << (d % 64);
        }
        Node::InBitmap {
            view,
            min,
            span,
            bits,
        }
    } else {
        Node::InSorted { view, values }
    }
}

impl Node<'_> {
    fn eval(&self, base: usize, len: usize, out: &mut Mask) {
        match self {
            Node::Const(true) => fill_ones(out, len),
            Node::Const(false) => *out = [0; MASK_WORDS],
            Node::RangeI64 { data, lo, hi } => {
                data.with_chunk(base, len, |d| {
                    build_words(d, out, |v| (v >= *lo) & (v <= *hi))
                });
            }
            Node::RangeI32 { data, lo, hi } => {
                data.with_chunk(base, len, |d| {
                    build_words(d, out, |v| (v >= *lo) & (v <= *hi))
                });
            }
            Node::RangeDict { codes, lo, hi } => {
                codes.with_chunk(base, len, |d| {
                    build_words(d, out, |v| (v >= *lo) & (v <= *hi))
                });
            }
            Node::RangeGeneric { view, lo, hi } => {
                eval_view(view, base, len, out, |v| (v >= *lo) & (v <= *hi));
            }
            Node::InSorted { view, values } => {
                eval_view(view, base, len, out, |v| values.binary_search(&v).is_ok());
            }
            Node::InBitmap {
                view,
                min,
                span,
                bits,
            } => {
                eval_view(view, base, len, out, |v| {
                    let d = v.wrapping_sub(*min);
                    // One bounds check guards the bitmap read; the index
                    // is clamped so the lookup itself stays branch-free.
                    let inside = (d as u64) < (*span as u64);
                    let idx = if inside { d as usize } else { 0 };
                    inside & ((bits[idx / 64] >> (idx % 64)) & 1 == 1)
                });
            }
            Node::And(parts) => match parts.split_first() {
                None => fill_ones(out, len),
                Some((first, rest)) => {
                    first.eval(base, len, out);
                    let mut tmp = [0u64; MASK_WORDS];
                    for p in rest {
                        if out.iter().all(|&w| w == 0) {
                            return;
                        }
                        p.eval(base, len, &mut tmp);
                        for (o, t) in out.iter_mut().zip(tmp.iter()) {
                            *o &= t;
                        }
                    }
                }
            },
            Node::Or(parts) => {
                *out = [0; MASK_WORDS];
                let mut tmp = [0u64; MASK_WORDS];
                for p in parts {
                    p.eval(base, len, &mut tmp);
                    for (o, t) in out.iter_mut().zip(tmp.iter()) {
                        *o |= t;
                    }
                }
            }
            Node::Not(p) => {
                p.eval(base, len, out);
                for w in out.iter_mut() {
                    *w = !*w;
                }
                clear_tail(out, len);
            }
        }
    }
}

/// Dispatch a generic `i64`-view check to a typed loop (the widening cast
/// is hoisted into the monomorphized closure, not re-matched per row).
fn eval_view(
    view: &ResolvedCol<'_>,
    base: usize,
    len: usize,
    out: &mut Mask,
    f: impl Fn(i64) -> bool,
) {
    match view {
        ResolvedCol::I32(r) => r.with_chunk(base, len, |d| build_words(d, out, |v| f(v as i64))),
        ResolvedCol::I64(r) => r.with_chunk(base, len, |d| build_words(d, out, f)),
        ResolvedCol::F64(r) => r.with_chunk(base, len, |d| build_words(d, out, |v| f(v as i64))),
        ResolvedCol::Dict(r) => r.with_chunk(base, len, |d| build_words(d, out, |v| f(v as i64))),
    }
}

/// Pack a per-value check over a contiguous slice into mask words, 64 rows
/// per word. Bits at and beyond `data.len()` are cleared. The inner loop
/// is a branch-free shift-or that LLVM autovectorizes for the range
/// kernels.
#[inline]
fn build_words<T: Copy>(data: &[T], out: &mut Mask, f: impl Fn(T) -> bool) {
    let mut w = 0;
    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        let mut word = 0u64;
        for (b, &v) in chunk.iter().enumerate() {
            word |= (f(v) as u64) << b;
        }
        out[w] = word;
        w += 1;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = 0u64;
        for (b, &v) in rem.iter().enumerate() {
            word |= (f(v) as u64) << b;
        }
        out[w] = word;
        w += 1;
    }
    for slot in &mut out[w..] {
        *slot = 0;
    }
}

/// Set the first `len` bits, clear the rest.
fn fill_ones(out: &mut Mask, len: usize) {
    *out = [u64::MAX; MASK_WORDS];
    clear_tail(out, len);
}

/// Clear every bit at and beyond `len`.
fn clear_tail(out: &mut Mask, len: usize) {
    let full = len / 64;
    if full < MASK_WORDS {
        let rem = len % 64;
        out[full] &= if rem == 0 { 0 } else { u64::MAX >> (64 - rem) };
        for w in &mut out[full + 1..] {
            *w = 0;
        }
    }
}

/// Number of set bits in a chunk mask.
#[inline]
pub fn count_mask(mask: &Mask) -> u64 {
    mask.iter().map(|w| w.count_ones() as u64).sum()
}

/// Decode a chunk mask into row ids appended to `out` (ascending), with
/// the exact capacity reserved up front from the popcount.
pub fn decode_mask(mask: &Mask, base: usize, out: &mut Vec<u32>) {
    out.reserve(count_mask(mask) as usize);
    for (w, &word) in mask.iter().enumerate() {
        let word_base = (base + w * 64) as u32;
        let mut m = word;
        while m != 0 {
            out.push(word_base + m.trailing_zeros());
            m &= m - 1;
        }
    }
}

/// Invoke `f` with each selected physical row, ascending. Full words
/// (`u64::MAX`) take a dense inner loop so fully-matching chunks cost no
/// bit manipulation; partial words iterate set bits via `trailing_zeros`.
/// `mask` may be any word slice whose bits at and beyond `len` are clear.
#[inline]
pub fn for_each_masked(base: usize, len: usize, mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask[..len.div_ceil(64)].iter().enumerate() {
        if word == 0 {
            continue;
        }
        let start = base + w * 64;
        if word == u64::MAX {
            for i in start..start + 64 {
                f(i);
            }
        } else {
            let mut m = word;
            while m != 0 {
                f(start + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, Column};
    use crate::expr::Predicate;
    use crate::table::Table;

    fn table(rows: usize) -> Table {
        Table::new(
            "t",
            vec![
                ("x".into(), Column::Int64((0..rows as i64).collect())),
                (
                    "y".into(),
                    Column::Int32((0..rows).map(|i| (i % 97) as i32).collect()),
                ),
                (
                    "tag".into(),
                    dict_column((0..rows).map(|i| if i % 3 == 0 { "a" } else { "b" })),
                ),
            ],
        )
        .unwrap()
    }

    /// Evaluate a kernel over the whole table and decode to row ids.
    fn kernel_rows(t: &Table, p: &Predicate) -> Vec<u32> {
        let compiled = p.compile(t).unwrap();
        let kernel = BatchKernel::compile(&compiled);
        let mut mask = [0u64; MASK_WORDS];
        let mut out = Vec::new();
        let n = t.num_rows();
        let mut at = 0;
        while at < n {
            let end = (at + CHUNK_ROWS).min(n);
            kernel.eval_chunk(at, end - at, &mut mask);
            decode_mask(&mask, at, &mut out);
            at = end;
        }
        out
    }

    fn reference_rows(t: &Table, p: &Predicate) -> Vec<u32> {
        let compiled = p.compile(t).unwrap();
        (0..t.num_rows() as u32)
            .filter(|&r| compiled.matches(r as usize))
            .collect()
    }

    fn assert_equiv(t: &Table, p: &Predicate) {
        assert_eq!(kernel_rows(t, p), reference_rows(t, p), "{p:?}");
    }

    #[test]
    fn ranges_match_reference_at_odd_lengths() {
        // 1500 rows: crosses the 1024-row chunk boundary and ends mid-word.
        let t = table(1500);
        assert_equiv(&t, &Predicate::between("x", 100, 1200));
        assert_equiv(&t, &Predicate::between("y", 10, 40));
        assert_equiv(&t, &Predicate::eq_str("tag", "a"));
        assert_equiv(&t, &Predicate::True);
        assert_equiv(&t, &Predicate::False);
    }

    #[test]
    fn combinators_match_reference() {
        let t = table(1500);
        let p = Predicate::between("x", 0, 999).and(Predicate::between("y", 5, 60));
        assert_equiv(&t, &p);
        assert_equiv(
            &t,
            &Predicate::Or(vec![
                Predicate::between("x", 0, 10),
                Predicate::eq_str("tag", "a"),
            ]),
        );
        assert_equiv(
            &t,
            &Predicate::Not(Box::new(Predicate::between("y", 3, 90))),
        );
        assert_equiv(&t, &Predicate::And(vec![]));
        assert_equiv(&t, &Predicate::Or(vec![]));
    }

    #[test]
    fn in_list_strategies_match_reference() {
        let t = table(1500);
        // Dense bitmap: narrow span.
        assert_equiv(
            &t,
            &Predicate::InInt {
                column: "y".into(),
                values: vec![3, 5, 8, 13, 21],
            },
        );
        // Contiguous run collapses to a range.
        assert_equiv(
            &t,
            &Predicate::InInt {
                column: "y".into(),
                values: vec![10, 11, 12, 13],
            },
        );
        // Wide span: sorted binary search.
        assert_equiv(
            &t,
            &Predicate::InInt {
                column: "x".into(),
                values: vec![0, 700, 1400, 1_000_000],
            },
        );
        // Empty list matches nothing.
        assert_equiv(
            &t,
            &Predicate::InInt {
                column: "x".into(),
                values: vec![],
            },
        );
    }

    #[test]
    fn type_clamped_ranges() {
        let t = table(200);
        // Bounds outside i32 / code domains must clamp, not wrap.
        assert_equiv(&t, &Predicate::between("y", -5_000_000_000, 50));
        assert_equiv(&t, &Predicate::between("y", 50, 5_000_000_000));
        assert_equiv(&t, &Predicate::between("tag", -3, 0));
        assert_equiv(&t, &Predicate::between("x", 10, 5)); // empty range
    }

    #[test]
    fn tail_bits_stay_clear() {
        let t = table(70); // one full word + 6 rows
        let compiled = Predicate::True.compile(&t).unwrap();
        let kernel = BatchKernel::compile(&compiled);
        let mut mask = [0u64; MASK_WORDS];
        kernel.eval_chunk(0, 70, &mut mask);
        assert_eq!(count_mask(&mask), 70);
        // Not must also re-clear the tail.
        let not_false = Predicate::Not(Box::new(Predicate::False));
        let compiled = not_false.compile(&t).unwrap();
        BatchKernel::compile(&compiled).eval_chunk(0, 70, &mut mask);
        assert_eq!(count_mask(&mask), 70);
    }

    #[test]
    fn for_each_masked_visits_ascending_with_dense_runs() {
        let mut mask = [0u64; MASK_WORDS];
        fill_ones(&mut mask, 130);
        mask[0] &= !(1 << 3);
        let mut seen = Vec::new();
        for_each_masked(1000, 130, &mask, |i| seen.push(i));
        assert_eq!(seen.len(), 129);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(!seen.contains(&1003));
        assert_eq!(*seen.last().unwrap(), 1129);
    }
}
