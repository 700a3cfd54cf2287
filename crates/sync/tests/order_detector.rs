//! Lock-order deadlock detector tests (debug, non-model builds — the
//! detector is compiled out under `laqy_check`, where the scheduler's
//! own deadlock detection takes over).
#![cfg(all(debug_assertions, not(laqy_check)))]

use std::sync::Arc;

use laqy_sync::{Condvar, Mutex, RwLock};

/// Consistent A-then-B ordering across many threads never trips the
/// detector.
#[test]
fn consistent_order_is_silent() {
    let a = Arc::new(Mutex::named("od.ok.a", 0u32));
    let b = Arc::new(Mutex::named("od.ok.b", 0u32));
    let hs: Vec<_> = (0..4)
        .map(|_| {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let ga = a.lock();
                    let mut gb = b.lock();
                    *gb += *ga;
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(*b.lock(), 0);
}

/// An inverted acquisition order is caught *deterministically*, even on
/// a single thread and even though no deadlock actually happened — the
/// cycle in the order graph is the bug.
#[test]
#[should_panic(expected = "lock-order cycle")]
fn sequential_inversion_panics_with_cycle() {
    let x = Mutex::named("od.inv.x", ());
    let y = Mutex::named("od.inv.y", ());
    {
        let _gx = x.lock();
        let _gy = y.lock(); // records od.inv.x -> od.inv.y
    }
    let _gy = y.lock();
    let _gx = x.lock(); // od.inv.y -> od.inv.x closes the cycle
}

/// Mixed lock kinds participate in the same graph: RwLock writes and
/// mutexes order against each other.
#[test]
#[should_panic(expected = "lock-order cycle")]
fn rwlock_and_mutex_share_the_graph() {
    let m = Mutex::named("od.mix.m", ());
    let l = RwLock::named("od.mix.l", ());
    {
        let _gm = m.lock();
        let _gl = l.write();
    }
    let _gl = l.read();
    let _gm = m.lock();
}

/// Each member of an indexed lock pool is a class of its own, so a walk
/// that takes the pool descending after another took it ascending closes
/// a cycle. The static `lock-order` pass collapses a pool to one node and
/// cannot see this; only this detector does.
#[test]
#[should_panic(expected = "lock-order cycle")]
fn descending_pool_walk_panics() {
    let pool: Vec<RwLock<()>> = ["od.pool0", "od.pool1"]
        .iter()
        .map(|name| RwLock::named(name, ()))
        .collect();
    {
        let _g0 = pool[0].write();
        let _g1 = pool[1].write(); // pool0 -> pool1, the canonical order
    }
    let _g1 = pool[1].read();
    let _g0 = pool[0].read(); // pool1 -> pool0 closes the cycle
}

/// Re-locking the same mutex on the same thread is a guaranteed
/// self-deadlock and panics immediately.
#[test]
#[should_panic(expected = "recursive acquisition")]
fn recursive_lock_panics() {
    let m = Mutex::named("od.rec.m", ());
    let _g1 = m.lock();
    let _g2 = m.lock();
}

/// `Condvar::wait` releases the mutex: reacquiring other locks while
/// parked is not an inversion, and the record is restored afterwards.
#[test]
fn condvar_wait_pauses_the_record() {
    let pair = Arc::new((Mutex::named("od.cv.m", false), Condvar::new()));
    let p2 = pair.clone();
    let h = std::thread::spawn(move || {
        let (m, cv) = &*p2;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
    });
    {
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
    }
    h.join().unwrap();
    // After the waiter returned, its thread holds nothing: a fresh
    // consistent acquisition still works.
    let (m, _) = &*pair;
    assert!(*m.lock());
}
