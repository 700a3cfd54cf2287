//! A full hit costs its answer: the allocations one `LaqyService::run`
//! makes on a hit do not grow with the number of groups it answers.
//!
//! A counting global allocator tallies, per thread, every allocation and
//! reallocation; a hit runs on the calling thread (no scan, so no pool
//! worker), so the calling thread's tally is the hit's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use laqy::{ApproxQuery, Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the tally may be gone while the thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// tally is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Rows per stratum: more than the default support floor (30), so every
/// stratum of a hit is supported and the support report stays one count.
const ROWS_PER_STRATUM: i64 = 40;

/// A table of `strata` groups of [`ROWS_PER_STRATUM`] rows each.
fn catalog(strata: i64) -> Catalog {
    let n = strata * ROWS_PER_STRATUM;
    let mut cat = Catalog::new();
    cat.register(
        Table::new(
            "t",
            vec![
                ("key".into(), Column::Int64((0..n).collect())),
                (
                    "g".into(),
                    Column::Int64((0..n).map(|i| i % strata).collect()),
                ),
                ("v".into(), Column::Int64((0..n).map(|i| i % 100).collect())),
            ],
        )
        .unwrap(),
    );
    cat
}

fn query(strata: i64) -> ApproxQuery {
    ApproxQuery {
        plan: QueryPlan {
            fact: "t".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("g")],
            aggs: vec![AggSpec::sum("v"), AggSpec::count(), AggSpec::avg("v")],
        },
        range_column: "key".into(),
        range: Interval::new(0, strata * ROWS_PER_STRATUM - 1),
        k: 64,
    }
}

/// Allocations of a full hit answering `strata` groups, after an online
/// run stored the sample and a first hit warmed whatever a hit caches.
fn hit_allocations(strata: i64) -> u64 {
    let config = SessionConfig {
        threads: 1,
        ..Default::default()
    };
    let service = LaqyService::with_config(catalog(strata), config);
    let q = query(strata);
    assert_eq!(
        service.run(&q).unwrap().stats.reuse,
        Some(ReuseClass::Online)
    );
    service.run(&q).unwrap();
    let mut groups = 0;
    let n = allocations(|| {
        let result = service.run(&q).unwrap();
        assert_eq!(result.stats.reuse, Some(ReuseClass::Full));
        assert!(result.support.fully_supported());
        groups = result.groups.len();
        // Dropped here: freeing the answer is part of the hit.
    });
    assert_eq!(groups, strata as usize);
    n
}

#[test]
fn a_full_hit_allocates_the_same_whatever_its_group_count() {
    let small = hit_allocations(200);
    let large = hit_allocations(2_000);
    assert!(
        large <= small,
        "a hit over 2 000 groups made {large} allocations, over 200 groups {small}"
    );
}
