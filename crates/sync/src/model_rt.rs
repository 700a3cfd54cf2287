//! Loom-lite deterministic scheduler (`--cfg laqy_check` builds only).
//!
//! The model runtime replaces every primitive in this crate with an
//! instrumented version that yields to a cooperative scheduler before
//! each *visible operation* (lock/unlock, condvar wait/notify, atomic
//! access, spawn/join). Inside [`model::model`] exactly one thread runs
//! at a time; whenever two or more threads are runnable the scheduler
//! records a *decision point* and, across repeated executions of the
//! closure, performs a depth-first search over all decision sequences
//! within a preemption bound. Each execution is fully deterministic, so
//! a failure (panic, deadlock, violated oracle) is replayable.
//!
//! Happens-before is tracked with per-thread vector clocks advanced on
//! every visible operation and joined through lock and spawn edges; the
//! clocks are reported in deadlock diagnostics so the blocking structure
//! is readable.
//!
//! Outside a `model` closure — or on threads the model does not know
//! about — every primitive degrades to plain `std::sync` behaviour, so
//! ordinary unit tests still run under the cfg.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
    RwLock as StdRwLock,
};

fn lock_st<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panic payload used to tear threads down when an execution aborts
/// (another thread failed, or a deadlock was detected). Recognised and
/// swallowed at each model thread's root.
struct ModelAbort;

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Blocked acquiring lock object.
    Lock(usize),
    /// Blocked in a condvar wait on object.
    Cond(usize),
    /// Blocked joining thread.
    Join(usize),
    Finished,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Hold {
    Unlocked,
    Write(usize),
    Read(usize),
}

struct ObjState {
    name: Option<&'static str>,
    hold: Hold,
    /// Vector clock released into the object by the last holder.
    clock: Vec<u64>,
}

struct ThreadState {
    status: Status,
    clock: Vec<u64>,
    name: String,
}

/// One scheduling decision: which of the enabled threads ran.
struct Decision {
    enabled: Vec<usize>,
    chosen: usize,
    /// Preemption count *before* this decision, for bound accounting
    /// during backtracking.
    preempt_before: usize,
    /// Whether the thread that created the decision was itself enabled
    /// (then `enabled[0]` is "keep running" and any other choice is a
    /// preemption).
    current_enabled: bool,
}

struct ExecState {
    threads: Vec<ThreadState>,
    objects: Vec<ObjState>,
    current: usize,
    replay: Vec<usize>,
    decisions: Vec<Decision>,
    preemptions: usize,
    failure: Option<String>,
    aborted: bool,
    finished: usize,
}

struct Execution {
    serial: u64,
    state: StdMutex<ExecState>,
    /// Threads park here waiting for the scheduling token.
    cv: StdCondvar,
    /// `model()` parks here waiting for all threads to finish.
    done_cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Clone)]
struct Ctx {
    exec: Arc<Execution>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn clock_join(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (i, v) in from.iter().enumerate() {
        if into[i] < *v {
            into[i] = *v;
        }
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Raise the abort sentinel — unless this thread is already unwinding,
/// in which case raising would double-panic straight into an abort; the
/// caller then falls through to real (uninstrumented) behaviour.
fn abort_unwind() {
    if !std::thread::panicking() {
        std::panic::panic_any(ModelAbort);
    }
}

impl Execution {
    fn new(serial: u64, replay: Vec<usize>) -> Self {
        Self {
            serial,
            state: StdMutex::new(ExecState {
                threads: Vec::new(),
                objects: Vec::new(),
                current: 0,
                replay,
                decisions: Vec::new(),
                preemptions: 0,
                failure: None,
                aborted: false,
                finished: 0,
            }),
            cv: StdCondvar::new(),
            done_cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        }
    }

    fn enabled_list(st: &ExecState, prefer: Option<usize>) -> Vec<usize> {
        let mut v: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if let Some(p) = prefer {
            if let Some(pos) = v.iter().position(|&t| t == p) {
                v.remove(pos);
                v.insert(0, p);
            }
        }
        v
    }

    fn fail(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborted = true;
        self.cv.notify_all();
        self.done_cv.notify_all();
    }

    fn deadlock_report(st: &ExecState) -> String {
        let mut msg = String::from("deadlock detected: every live thread is blocked\n");
        for (i, t) in st.threads.iter().enumerate() {
            let what = match t.status {
                Status::Lock(o) | Status::Cond(o) => {
                    let kind = if matches!(t.status, Status::Lock(_)) {
                        "lock"
                    } else {
                        "condvar"
                    };
                    format!(
                        "blocked on {kind} {}",
                        st.objects[o].name.unwrap_or("<anonymous>")
                    )
                }
                Status::Join(t2) => format!("blocked joining thread {t2}"),
                Status::Runnable => "runnable".to_string(),
                Status::Finished => continue,
            };
            msg.push_str(&format!(
                "  thread {i} ({}): {what} [clock {:?}]\n",
                t.name, t.clock
            ));
        }
        msg
    }

    /// Pick the next thread to run. Called with the state locked by the
    /// thread that held the token; `current_enabled` says whether that
    /// thread is still runnable.
    fn choose_next(&self, st: &mut ExecState, me: usize, current_enabled: bool) {
        let enabled = Self::enabled_list(st, current_enabled.then_some(me));
        match enabled.len() {
            0 => {
                if st.finished == st.threads.len() {
                    self.done_cv.notify_all();
                } else {
                    self.fail(st, Self::deadlock_report(st));
                }
            }
            1 => {
                st.current = enabled[0];
                self.cv.notify_all();
            }
            _ => {
                let depth = st.decisions.len();
                let chosen = if depth < st.replay.len() {
                    let c = st.replay[depth];
                    if c >= enabled.len() {
                        self.fail(
                            st,
                            format!(
                                "internal: nondeterministic replay (choice {c} of {} enabled \
                                 at depth {depth})",
                                enabled.len()
                            ),
                        );
                        return;
                    }
                    c
                } else {
                    0
                };
                let next = enabled[chosen];
                st.decisions.push(Decision {
                    enabled: enabled.clone(),
                    chosen,
                    preempt_before: st.preemptions,
                    current_enabled,
                });
                if current_enabled && next != me {
                    st.preemptions += 1;
                }
                st.current = next;
                self.cv.notify_all();
            }
        }
    }

    /// Park until this thread holds the token (and is runnable).
    /// Returns `false` when the execution aborted instead.
    fn block_until_scheduled<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, ExecState>,
        me: usize,
    ) -> (StdMutexGuard<'a, ExecState>, bool) {
        loop {
            if g.aborted {
                return (g, false);
            }
            if g.current == me && g.threads[me].status == Status::Runnable {
                return (g, true);
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A visible operation is about to happen: advance this thread's
    /// clock, offer the scheduler a decision point, and wait to be
    /// rescheduled if another thread was chosen.
    fn op_point(&self, me: usize) {
        let g = lock_st(&self.state);
        if g.aborted {
            drop(g);
            abort_unwind();
            return;
        }
        let mut g = g;
        debug_assert_eq!(g.current, me, "op from a thread without the token");
        if g.threads[me].clock.len() <= me {
            g.threads[me].clock.resize(me + 1, 0);
        }
        g.threads[me].clock[me] += 1;
        self.choose_next(&mut g, me, true);
        if g.current != me || g.aborted {
            let (g, ok) = self.block_until_scheduled(g, me);
            drop(g);
            if !ok {
                abort_unwind();
            }
        }
    }

    fn can_acquire(hold: &Hold, exclusive: bool) -> bool {
        match (hold, exclusive) {
            (Hold::Unlocked, _) => true,
            (Hold::Read(_), false) => true,
            _ => false,
        }
    }

    /// Logically acquire `obj`. Blocks (cooperatively) until granted.
    fn lock_obj(&self, me: usize, obj: usize, exclusive: bool) {
        self.op_point(me);
        let mut g = lock_st(&self.state);
        loop {
            if g.aborted {
                drop(g);
                abort_unwind();
                return;
            }
            if Self::can_acquire(&g.objects[obj].hold, exclusive) {
                g.objects[obj].hold = match (&g.objects[obj].hold, exclusive) {
                    (_, true) => Hold::Write(me),
                    (Hold::Read(n), false) => Hold::Read(n + 1),
                    (_, false) => Hold::Read(1),
                };
                // Happens-before: everything the previous holder did is
                // now visible to us.
                let released = g.objects[obj].clock.clone();
                clock_join(&mut g.threads[me].clock, &released);
                return;
            }
            g.threads[me].status = Status::Lock(obj);
            self.choose_next(&mut g, me, false);
            let (g2, ok) = self.block_until_scheduled(g, me);
            g = g2;
            if !ok {
                drop(g);
                abort_unwind();
                return;
            }
        }
    }

    /// Logically release `obj` and wake its waiters. Not itself a
    /// decision point: the release becomes visible at the next visible
    /// operation of any thread.
    fn unlock_obj(&self, me: usize, obj: usize, exclusive: bool) {
        let mut g = lock_st(&self.state);
        if g.aborted {
            return;
        }
        let next = match (&g.objects[obj].hold, exclusive) {
            (Hold::Write(t), true) if *t == me => Hold::Unlocked,
            (Hold::Read(1), false) => Hold::Unlocked,
            (Hold::Read(n), false) => Hold::Read(n - 1),
            // Defensive: releasing something we never logically held
            // (possible after an abort passthrough) is a no-op.
            _ => return,
        };
        g.objects[obj].hold = next;
        let clock = g.threads[me].clock.clone();
        clock_join(&mut g.objects[obj].clock, &clock);
        if Self::can_acquire(&g.objects[obj].hold, true)
            || matches!(g.objects[obj].hold, Hold::Read(_))
        {
            for t in g.threads.iter_mut() {
                if t.status == Status::Lock(obj) {
                    t.status = Status::Runnable;
                }
            }
        }
    }

    /// Condvar wait: atomically release the mutex object and block on
    /// the condvar object; once notified and rescheduled, reacquire.
    fn cond_wait(&self, me: usize, cv_obj: usize, mutex_obj: usize) {
        self.op_point(me);
        {
            let mut g = lock_st(&self.state);
            if g.aborted {
                drop(g);
                abort_unwind();
                return;
            }
            // Inline release of the mutex (already have the state lock).
            if let Hold::Write(t) = g.objects[mutex_obj].hold {
                if t == me {
                    g.objects[mutex_obj].hold = Hold::Unlocked;
                    let clock = g.threads[me].clock.clone();
                    clock_join(&mut g.objects[mutex_obj].clock, &clock);
                    for t in g.threads.iter_mut() {
                        if t.status == Status::Lock(mutex_obj) {
                            t.status = Status::Runnable;
                        }
                    }
                }
            }
            g.threads[me].status = Status::Cond(cv_obj);
            self.choose_next(&mut g, me, false);
            let (g2, ok) = self.block_until_scheduled(g, me);
            drop(g2);
            if !ok {
                abort_unwind();
                return;
            }
        }
        self.lock_obj(me, mutex_obj, true);
    }

    fn notify(&self, me: usize, cv_obj: usize, all: bool) {
        self.op_point(me);
        let mut g = lock_st(&self.state);
        if g.aborted {
            drop(g);
            abort_unwind();
            return;
        }
        let clock = g.threads[me].clock.clone();
        clock_join(&mut g.objects[cv_obj].clock, &clock);
        for t in g.threads.iter_mut() {
            if t.status == Status::Cond(cv_obj) {
                t.status = Status::Runnable;
                clock_join(&mut t.clock, &clock);
                if !all {
                    break;
                }
            }
        }
    }

    fn join_thread(&self, me: usize, target: usize) {
        self.op_point(me);
        let mut g = lock_st(&self.state);
        if g.aborted {
            drop(g);
            abort_unwind();
            return;
        }
        if g.threads[target].status != Status::Finished {
            g.threads[me].status = Status::Join(target);
            self.choose_next(&mut g, me, false);
            let (g2, ok) = self.block_until_scheduled(g, me);
            g = g2;
            if !ok {
                drop(g);
                abort_unwind();
                return;
            }
        }
        let finished_clock = g.threads[target].clock.clone();
        clock_join(&mut g.threads[me].clock, &finished_clock);
    }

    fn finish_thread(&self, me: usize, user_panic: Option<String>) {
        let mut g = lock_st(&self.state);
        if let Some(msg) = user_panic {
            self.fail(&mut g, msg);
        }
        g.threads[me].status = Status::Finished;
        g.finished += 1;
        if g.finished == g.threads.len() {
            self.cv.notify_all();
            self.done_cv.notify_all();
            return;
        }
        if g.aborted {
            self.cv.notify_all();
            self.done_cv.notify_all();
            return;
        }
        for t in g.threads.iter_mut() {
            if t.status == Status::Join(me) {
                t.status = Status::Runnable;
            }
        }
        self.choose_next(&mut g, me, false);
    }

    /// Register an object lazily (objects are usually recreated for
    /// every execution of the closure).
    fn register_object(&self, name: Option<&'static str>) -> usize {
        let mut g = lock_st(&self.state);
        g.objects.push(ObjState {
            name,
            hold: Hold::Unlocked,
            clock: Vec::new(),
        });
        g.objects.len() - 1
    }
}

// ---------------------------------------------------------------------------
// Per-instance lazy object ids
// ---------------------------------------------------------------------------

/// Maps a primitive instance to its object id within the *current*
/// execution. Primitives are usually created fresh inside the model
/// closure, so the id is cached against the execution serial.
struct ObjId {
    cell: StdMutex<(u64, usize)>,
}

impl ObjId {
    const fn new() -> Self {
        Self {
            cell: StdMutex::new((0, 0)),
        }
    }

    fn get(&self, exec: &Execution, name: Option<&'static str>) -> usize {
        let mut c = lock_st(&self.cell);
        if c.0 == exec.serial {
            return c.1;
        }
        let id = exec.register_object(name);
        *c = (exec.serial, id);
        id
    }
}

// ---------------------------------------------------------------------------
// Public primitives
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock (model-checked under `laqy_check`).
pub struct Mutex<T> {
    name: Option<&'static str>,
    oid: ObjId,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create an anonymous mutex.
    pub const fn new(value: T) -> Self {
        Self {
            name: None,
            oid: ObjId::new(),
            inner: StdMutex::new(value),
        }
    }

    /// Create a named mutex (the name appears in deadlock reports).
    pub const fn named(name: &'static str, value: T) -> Self {
        Self {
            name: Some(name),
            oid: ObjId::new(),
            inner: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let owner = match ctx() {
            Some(c) => {
                let obj = self.oid.get(&c.exec, self.name);
                c.exec.lock_obj(c.tid, obj, true);
                Some((c, obj))
            }
            None => None,
        };
        // The logical protocol guarantees the real lock is free by the
        // time it is granted, so this cannot block (model threads run
        // one at a time); in passthrough mode it blocks for real.
        MutexGuard {
            mutex: self,
            owner,
            inner: Some(lock_st(&self.inner)),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    owner: Option<(Ctx, usize)>,
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the logical one so the next
        // scheduled thread finds it free.
        self.inner = None;
        if let Some((c, obj)) = self.owner.take() {
            c.exec.unlock_obj(c.tid, obj, true);
        }
    }
}

/// A reader-writer lock (model-checked under `laqy_check`).
pub struct RwLock<T> {
    name: Option<&'static str>,
    oid: ObjId,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Create an anonymous rwlock.
    pub const fn new(value: T) -> Self {
        Self {
            name: None,
            oid: ObjId::new(),
            inner: StdRwLock::new(value),
        }
    }

    /// Create a named rwlock (the name appears in deadlock reports).
    pub const fn named(name: &'static str, value: T) -> Self {
        Self {
            name: Some(name),
            oid: ObjId::new(),
            inner: StdRwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let owner = match ctx() {
            Some(c) => {
                let obj = self.oid.get(&c.exec, self.name);
                c.exec.lock_obj(c.tid, obj, false);
                Some((c, obj))
            }
            None => None,
        };
        RwLockReadGuard {
            owner,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let owner = match ctx() {
            Some(c) => {
                let obj = self.oid.get(&c.exec, self.name);
                c.exec.lock_obj(c.tid, obj, true);
                Some((c, obj))
            }
            None => None,
        };
        RwLockWriteGuard {
            owner,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    owner: Option<(Ctx, usize)>,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((c, obj)) = self.owner.take() {
            c.exec.unlock_obj(c.tid, obj, false);
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    owner: Option<(Ctx, usize)>,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((c, obj)) = self.owner.take() {
            c.exec.unlock_obj(c.tid, obj, true);
        }
    }
}

/// A condition variable paired with [`Mutex`].
pub struct Condvar {
    name: Option<&'static str>,
    oid: ObjId,
    inner: StdCondvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self {
            name: None,
            oid: ObjId::new(),
            inner: StdCondvar::new(),
        }
    }

    /// Create a named condition variable.
    pub const fn named(name: &'static str) -> Self {
        Self {
            name: Some(name),
            oid: ObjId::new(),
            inner: StdCondvar::new(),
        }
    }

    /// Atomically release the mutex and block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match &guard.owner {
            Some((c, mutex_obj)) => {
                let c = c.clone();
                let mutex_obj = *mutex_obj;
                let cv_obj = self.oid.get(&c.exec, self.name);
                // Drop the real lock while logically blocked; the model
                // serialises access so nobody touches it unscheduled.
                guard.inner = None;
                c.exec.cond_wait(c.tid, cv_obj, mutex_obj);
                guard.inner = Some(lock_st(&guard.mutex.inner));
            }
            None => {
                let inner = guard.inner.take().expect("guard taken during wait");
                guard.inner = Some(
                    self.inner
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner),
                );
            }
        }
    }

    /// Like [`Condvar::wait`] but with a timeout (the model treats it as
    /// an untimed wait — model executions are logical, not timed).
    /// Returns `true` if a passthrough wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        match &guard.owner {
            Some(_) => {
                self.wait(guard);
                false
            }
            None => {
                let inner = guard.inner.take().expect("guard taken during wait");
                let (inner, result) = self
                    .inner
                    .wait_timeout(inner, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
                guard.inner = Some(inner);
                result.timed_out()
            }
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        if let Some(c) = ctx() {
            let cv_obj = self.oid.get(&c.exec, self.name);
            c.exec.notify(c.tid, cv_obj, false);
        }
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if let Some(c) = ctx() {
            let cv_obj = self.oid.get(&c.exec, self.name);
            c.exec.notify(c.tid, cv_obj, true);
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics: every access is a visible scheduling point, so
/// the explorer interleaves around loads and read-modify-writes (this is
/// how seeded lost-update bugs are caught). All accesses are performed
/// `SeqCst` on the real atomic regardless of the requested ordering —
/// the model serialises threads anyway.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::{ctx, StdOrdering};

    fn touch() {
        if let Some(c) = ctx() {
            c.exec.op_point(c.tid);
        }
    }

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$doc])*
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Create a new atomic.
                pub const fn new(v: $prim) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// Load the value (scheduling point).
                pub fn load(&self, _order: Ordering) -> $prim {
                    touch();
                    self.inner.load(StdOrdering::SeqCst)
                }

                /// Store a value (scheduling point).
                pub fn store(&self, v: $prim, _order: Ordering) {
                    touch();
                    self.inner.store(v, StdOrdering::SeqCst)
                }

                /// Swap the value (scheduling point).
                pub fn swap(&self, v: $prim, _order: Ordering) -> $prim {
                    touch();
                    self.inner.swap(v, StdOrdering::SeqCst)
                }

                /// Compare-and-exchange (scheduling point).
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$prim, $prim> {
                    touch();
                    self.inner.compare_exchange(
                        current,
                        new,
                        StdOrdering::SeqCst,
                        StdOrdering::SeqCst,
                    )
                }

                /// Mutable access (requires exclusive ownership).
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                /// Consume and return the value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    self.inner.fmt(f)
                }
            }
        };
    }

    model_atomic!(
        /// Model-checked `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    model_atomic!(
        /// Model-checked `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    model_atomic!(
        /// Model-checked `AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );

    macro_rules! model_atomic_arith {
        ($name:ident, $prim:ty) => {
            impl $name {
                /// Add, returning the previous value (scheduling point).
                pub fn fetch_add(&self, v: $prim, _order: Ordering) -> $prim {
                    touch();
                    self.inner.fetch_add(v, StdOrdering::SeqCst)
                }

                /// Subtract, returning the previous value (scheduling point).
                pub fn fetch_sub(&self, v: $prim, _order: Ordering) -> $prim {
                    touch();
                    self.inner.fetch_sub(v, StdOrdering::SeqCst)
                }
            }
        };
    }

    model_atomic_arith!(AtomicU64, u64);
    model_atomic_arith!(AtomicUsize, usize);
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Model-aware thread spawning.
pub mod thread {
    use super::*;

    enum Inner<T> {
        Native(std::thread::JoinHandle<T>),
        Model {
            exec: Arc<Execution>,
            tid: usize,
            result: Arc<StdMutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Join handle for [`spawn`].
    pub struct JoinHandle<T> {
        inner: Inner<T>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish, returning its result.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                Inner::Native(h) => h.join(),
                Inner::Model { exec, tid, result } => {
                    let me = ctx().map(|c| c.tid).unwrap_or_else(|| {
                        panic!("model JoinHandle joined from outside the model")
                    });
                    exec.join_thread(me, tid);
                    match lock_st(&result).take() {
                        Some(r) => r,
                        None => {
                            // Aborted before the thread produced a value.
                            abort_unwind();
                            Err(Box::new("model execution aborted"))
                        }
                    }
                }
            }
        }
    }

    /// Spawn a thread. Inside a model closure the thread is registered
    /// with the scheduler and runs cooperatively; outside, it is a plain
    /// OS thread.
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let Some(c) = ctx() else {
            return JoinHandle {
                inner: Inner::Native(std::thread::spawn(f)),
            };
        };
        // Spawning is itself a visible operation.
        c.exec.op_point(c.tid);
        let exec = c.exec.clone();
        let tid = {
            let mut g = lock_st(&exec.state);
            let parent_clock = g.threads[c.tid].clock.clone();
            let tid = g.threads.len();
            g.threads.push(ThreadState {
                status: Status::Runnable,
                // Spawn edge: the child starts with everything the
                // parent has seen.
                clock: parent_clock,
                name: format!("model-{tid}"),
            });
            tid
        };
        let result: Arc<StdMutex<Option<std::thread::Result<T>>>> = Arc::new(StdMutex::new(None));
        let r2 = result.clone();
        let e2 = exec.clone();
        let handle = std::thread::Builder::new()
            .name(format!("laqy-model-{tid}"))
            .spawn(move || {
                CTX.with(|c| {
                    *c.borrow_mut() = Some(Ctx {
                        exec: e2.clone(),
                        tid,
                    })
                });
                let (g, ok) = e2.block_until_scheduled(lock_st(&e2.state), tid);
                drop(g);
                if !ok {
                    e2.finish_thread(tid, None);
                    return;
                }
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        *lock_st(&r2) = Some(Ok(v));
                        e2.finish_thread(tid, None);
                    }
                    Err(p) if p.downcast_ref::<ModelAbort>().is_some() => {
                        e2.finish_thread(tid, None);
                    }
                    Err(p) => {
                        let msg = panic_msg(p.as_ref());
                        *lock_st(&r2) = Some(Err(p));
                        e2.finish_thread(tid, Some(msg));
                    }
                }
            })
            .expect("spawn model thread");
        lock_st(&exec.handles).push(handle);
        JoinHandle {
            inner: Inner::Model { exec, tid, result },
        }
    }

    /// Yield: a pure scheduling point inside the model, a real yield
    /// outside.
    pub fn yield_now() {
        match ctx() {
            Some(c) => c.exec.op_point(c.tid),
            None => std::thread::yield_now(),
        }
    }
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// Bounded-exhaustive interleaving exploration.
pub mod model {
    use super::*;

    /// Exploration limits.
    pub struct ModelOptions {
        /// Maximum number of preemptions (context switches at a point
        /// where the running thread could have continued) per execution.
        pub preemption_bound: usize,
        /// Hard cap on the number of interleavings explored.
        pub max_interleavings: usize,
    }

    impl Default for ModelOptions {
        fn default() -> Self {
            Self {
                preemption_bound: 2,
                max_interleavings: 20_000,
            }
        }
    }

    /// What the explorer did.
    #[derive(Debug)]
    pub struct Report {
        /// Number of distinct interleavings executed.
        pub interleavings: usize,
        /// `false` if exploration stopped at `max_interleavings`.
        pub complete: bool,
        /// Deepest decision sequence seen.
        pub max_decision_depth: usize,
    }

    static MODEL_GATE: StdMutex<()> = StdMutex::new(());
    static EXEC_SERIAL: StdAtomicU64 = StdAtomicU64::new(1);

    /// Run `f` under every interleaving within the default bounds,
    /// panicking (with the offending failure) if any execution fails.
    pub fn model<F>(f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        model_with(ModelOptions::default(), f)
    }

    /// Run `f` under every interleaving within `opts`.
    pub fn model_with<F>(opts: ModelOptions, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        // Model runs are process-global (thread-locals, object serials):
        // serialise them across test threads.
        let _gate = lock_st(&MODEL_GATE);
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut replay: Vec<usize> = Vec::new();
        let mut count = 0usize;
        let mut max_depth = 0usize;
        let mut complete = true;
        loop {
            count += 1;
            let serial = EXEC_SERIAL.fetch_add(1, StdOrdering::Relaxed);
            let exec = Arc::new(Execution::new(serial, std::mem::take(&mut replay)));
            let (decisions, failure) = run_once(&exec, f.clone());
            max_depth = max_depth.max(decisions.len());
            if let Some(msg) = failure {
                panic!(
                    "laqy-sync model: interleaving #{count} failed (replay depth {}):\n{msg}",
                    decisions.len()
                );
            }
            match next_replay(decisions, opts.preemption_bound) {
                Some(r) => replay = r,
                None => break,
            }
            if count >= opts.max_interleavings {
                complete = false;
                break;
            }
        }
        eprintln!(
            "laqy-sync model: explored {count} interleavings ({}, max depth {max_depth})",
            if complete {
                "exhaustive within bound"
            } else {
                "stopped at cap"
            }
        );
        Report {
            interleavings: count,
            complete,
            max_decision_depth: max_depth,
        }
    }

    /// Compute the replay prefix for the next unexplored interleaving:
    /// backtrack to the deepest decision with an untried alternative
    /// that fits the preemption bound.
    fn next_replay(mut ds: Vec<Decision>, bound: usize) -> Option<Vec<usize>> {
        while let Some(d) = ds.pop() {
            let next = d.chosen + 1;
            if next < d.enabled.len() {
                // Every alternative other than "keep running" (index 0
                // when the current thread was enabled) costs one
                // preemption; alternatives share that cost, so one
                // bound check covers them all.
                let cost = usize::from(d.current_enabled && next > 0);
                if d.preempt_before + cost <= bound {
                    let mut r: Vec<usize> = ds.iter().map(|x| x.chosen).collect();
                    r.push(next);
                    return Some(r);
                }
            }
        }
        None
    }

    fn run_once(
        exec: &Arc<Execution>,
        f: Arc<dyn Fn() + Send + Sync>,
    ) -> (Vec<Decision>, Option<String>) {
        {
            let mut g = lock_st(&exec.state);
            g.threads.push(ThreadState {
                status: Status::Runnable,
                clock: vec![0],
                name: "model-0".to_string(),
            });
            g.current = 0;
        }
        let e2 = exec.clone();
        let root = std::thread::Builder::new()
            .name("laqy-model-0".to_string())
            .spawn(move || {
                CTX.with(|c| {
                    *c.borrow_mut() = Some(Ctx {
                        exec: e2.clone(),
                        tid: 0,
                    })
                });
                let (g, ok) = e2.block_until_scheduled(lock_st(&e2.state), 0);
                drop(g);
                if !ok {
                    e2.finish_thread(0, None);
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| f())) {
                    Ok(()) => e2.finish_thread(0, None),
                    Err(p) if p.downcast_ref::<ModelAbort>().is_some() => e2.finish_thread(0, None),
                    Err(p) => e2.finish_thread(0, Some(panic_msg(p.as_ref()))),
                }
            })
            .expect("spawn model root thread");
        lock_st(&exec.handles).push(root);

        // Wait until every registered thread has finished (threads may
        // be registered while we wait, so re-check against the live
        // count each wakeup).
        {
            let mut g = lock_st(&exec.state);
            while g.finished < g.threads.len() {
                g = exec.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Join the real OS threads (list can grow while joining).
        loop {
            let hs: Vec<_> = {
                let mut h = lock_st(&exec.handles);
                h.drain(..).collect()
            };
            if hs.is_empty() {
                break;
            }
            for h in hs {
                let _ = h.join();
            }
        }
        let mut g = lock_st(&exec.state);
        (std::mem::take(&mut g.decisions), g.failure.take())
    }
}
