//! An atomic field's `.store(…)` runs under `fix.alpha`, beside an
//! unrelated `fn store` that takes `fix.beta`, and another path takes
//! `fix.beta` then `fix.alpha`. An atomic operation is no call: there is
//! no `fix.alpha -> fix.beta` edge, so no cycle.

use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::Mutex;

static ALPHA: Mutex<u32> = Mutex::named("fix.alpha", 0);
static BETA: Mutex<u32> = Mutex::named("fix.beta", 0);

pub struct Stamp {
    last_used: AtomicU64,
}

pub fn touch(s: &Stamp) {
    let a = ALPHA.lock();
    s.last_used.store(u64::from(*a), Ordering::Relaxed);
}

pub fn store() -> u32 {
    let b = BETA.lock();
    *b
}

pub fn backward() -> u32 {
    let b = BETA.lock();
    with_alpha(*b)
}

fn with_alpha(x: u32) -> u32 {
    let a = ALPHA.lock();
    *a + x
}
