//! Model check of the completion latch used by
//! `crates/engine/src/parallel.rs`: `parallel_fold` submits task units to
//! the persistent worker pool and blocks on a countdown latch (a mutex +
//! condvar) until every unit has run, which is what makes the pool's
//! lifetime-erased task submission sound. The engine's pool cannot run
//! inside the model directly (it spawns OS threads lazily at first use,
//! outside the scheduler), so the latch is mirrored here shape-for-shape
//! and fed by one modelled worker. That worker's queue stands in for the
//! engine's mpsc channel; its stop flag exists only so the model's worker
//! thread can end — the engine's pool lives for the whole process and
//! never shuts down. Only built under `--cfg laqy_check`.
#![cfg(laqy_check)]

use std::collections::VecDeque;
use std::sync::Arc;

use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::model::model;
use laqy_sync::{thread, Condvar, Mutex};

/// A task queue and a stop flag under one mutex, standing in for the
/// engine's mpsc channel.
struct MiniPool {
    queue: Mutex<(VecDeque<u64>, bool)>,
    cv: Condvar,
}

impl MiniPool {
    fn new() -> Self {
        Self {
            queue: Mutex::named("pool.queue", (VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn submit(&self, task: u64) {
        self.queue.lock().0.push_back(task);
        self.cv.notify_all();
    }

    fn stop(&self) {
        self.queue.lock().1 = true;
        self.cv.notify_all();
    }

    /// Worker loop: run tasks until stopped *and* the queue is empty.
    /// Counts the latch down once per task, like `parallel_fold`'s
    /// wrapped tasks do.
    fn worker(&self, ran: &AtomicU64, latch: &MiniLatch) {
        loop {
            let task = {
                let mut g = self.queue.lock();
                loop {
                    if let Some(t) = g.0.pop_front() {
                        break Some(t);
                    }
                    if g.1 {
                        break None;
                    }
                    self.cv.wait(&mut g);
                }
            };
            match task {
                Some(t) => {
                    ran.fetch_add(t, Ordering::Relaxed);
                    latch.count_down();
                }
                None => return,
            }
        }
    }
}

/// Mirror of the engine's `Latch`.
struct MiniLatch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl MiniLatch {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::named("pool.latch", n),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut g = self.remaining.lock();
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.remaining.lock();
        while *g != 0 {
            self.cv.wait(&mut g);
        }
    }

    fn remaining(&self) -> usize {
        *self.remaining.lock()
    }
}

/// Two submitters fan in through the latch: `latch.wait()` returning
/// means both tasks actually ran — the `parallel_fold` completion
/// invariant ("the scope's borrows end only after every task finished").
#[test]
fn latch_reaches_zero_exactly_when_all_tasks_ran() {
    let r = model(|| {
        let pool = Arc::new(MiniPool::new());
        let ran = Arc::new(AtomicU64::new(0));
        let latch = Arc::new(MiniLatch::new(2));

        let (p2, r2, l2) = (pool.clone(), ran.clone(), latch.clone());
        let worker = thread::spawn(move || p2.worker(&r2, &l2));

        let hs: Vec<_> = (0..2)
            .map(|i| {
                let p = pool.clone();
                thread::spawn(move || {
                    p.submit(1 + i);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        latch.wait();
        // Both tasks have run by the time the latch opens: their side
        // effects are visible and the count is settled at zero.
        assert_eq!(
            ran.load(Ordering::Relaxed),
            3,
            "latch opened before both tasks ran"
        );
        assert_eq!(latch.remaining(), 0, "latch must be settled after wait");

        pool.stop();
        worker.join().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 3, "task ran twice");
    });
    assert!(
        r.interleavings >= 100,
        "expected a real search space, got {}",
        r.interleavings
    );
}
