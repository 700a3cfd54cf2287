//! Basic explorer sanity: exploration counts, determinism, and lock
//! semantics. Only built under `--cfg laqy_check`.
#![cfg(laqy_check)]

use std::sync::Arc;

use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::model::{model, model_with, ModelOptions};
use laqy_sync::{thread, Condvar, Mutex, RwLock};

#[test]
fn single_thread_runs_once() {
    let r = model(|| {
        let m = Mutex::new(0u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    });
    assert_eq!(r.interleavings, 1, "no concurrency, nothing to explore");
    assert!(r.complete);
}

#[test]
fn two_counter_threads_explore_many_interleavings() {
    let r = model(|| {
        let m = Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    for _ in 0..2 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4, "mutex increments must not be lost");
    });
    assert!(
        r.interleavings >= 10,
        "expected many schedules, got {}",
        r.interleavings
    );
    assert!(r.complete);
}

#[test]
fn mutex_protects_read_modify_write() {
    // Non-atomic read-modify-write with the lock held across both
    // halves and a scheduling point between them: the other thread runs
    // while the lock is held, blocks on it, and must be woken by the
    // unlock.
    let r = model(|| {
        let m = Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    let mut g = m.lock();
                    let v = *g;
                    thread::yield_now();
                    *g = v + 1;
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 2);
    });
    assert!(r.complete);
}

#[test]
fn rwlock_readers_do_not_exclude_each_other() {
    // Both readers hold the read lock at once: each waits, read guard
    // held, until the other has arrived. Readers that excluded each
    // other would leave every thread blocked.
    let r = model(|| {
        let l = Arc::new(RwLock::new(5u32));
        let arrived = Arc::new((Mutex::new(0u32), Condvar::new()));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let (l, arrived) = (l.clone(), arrived.clone());
                thread::spawn(move || {
                    let g = l.read();
                    let (m, cv) = &*arrived;
                    let mut n = m.lock();
                    *n += 1;
                    cv.notify_all();
                    while *n < 2 {
                        cv.wait(&mut n);
                    }
                    *g
                })
            })
            .collect();
        for h in hs {
            assert_eq!(h.join().unwrap(), 5);
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    });
    assert!(r.complete);
}

#[test]
fn condvar_handoff_completes() {
    // Classic producer/consumer handshake: must terminate (no lost
    // wakeup) under every interleaving.
    model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = thread::spawn(move || {
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
    });
}

#[test]
fn preemption_bound_caps_exploration() {
    let shallow = model_with(
        ModelOptions {
            preemption_bound: 0,
            max_interleavings: 20_000,
        },
        || {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = a.clone();
            let h = thread::spawn(move || {
                a2.fetch_add(1, Ordering::Relaxed);
            });
            a.fetch_add(1, Ordering::Relaxed);
            h.join().unwrap();
        },
    );
    let deep = model(|| {
        let a = Arc::new(AtomicU64::new(0));
        let a2 = a.clone();
        let h = thread::spawn(move || {
            a2.fetch_add(1, Ordering::Relaxed);
        });
        a.fetch_add(1, Ordering::Relaxed);
        h.join().unwrap();
    });
    assert!(
        shallow.interleavings < deep.interleavings,
        "bound 0 ({}) should explore fewer schedules than bound 2 ({})",
        shallow.interleavings,
        deep.interleavings
    );
}

#[test]
fn outside_model_primitives_pass_through() {
    // No model context: behaves like plain std.
    let m = Mutex::new(1u8);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 2);
    let l = RwLock::new(3u8);
    assert_eq!(*l.read(), 3);
    let h = thread::spawn(|| 9u8);
    assert_eq!(h.join().unwrap(), 9);
}
