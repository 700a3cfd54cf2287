//! Deterministic, seeded fault injection for LAQy chaos testing.
//!
//! Production and test code mark interesting failure sites with named
//! *fault points*:
//!
//! ```
//! # fn save() -> Result<(), laqy_faults::FaultError> {
//! laqy_faults::point("persist.write_all")?;
//! # Ok(())
//! # }
//! ```
//!
//! In a normal build `point` is an inlined no-op returning `Ok(())` —
//! no plan lookup, no atomics, nothing to mis-tune in production. Under
//! `--cfg laqy_faults` (chaos builds only) each call consults the
//! process-global [`FaultPlan`] and may inject an error, a panic, or
//! artificial latency.
//!
//! Injection is **replayable**: whether trigger number `n` of point `p`
//! fires is a pure function of `(plan seed, p, n)`. Re-running a chaos
//! suite with the same seed injects the identical fault schedule, so a
//! failure found at seed 17 reproduces at seed 17.
//!
//! The plan is process-global state; chaos suites that install plans
//! must serialize themselves (e.g. behind a test-local mutex) so one
//! test's schedule never bleeds into another's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// Names of the connection-layer fault points the serving crate
/// (`laqy-server`) triggers on every socket operation, so chaos suites
/// can drop, corrupt, or stall the wire deterministically by seed.
///
/// The persistence (`persist.*`, `wal.*`) and worker-pool
/// (`pool.morsel`) points keep their string literals at their call
/// sites; these constants exist because the network points are hit from
/// several files (accept loop, frame reader, frame writer, load
/// generator) and a typo would silently disarm a chaos schedule.
pub mod points {
    /// Hit after `accept` returns a connection, before it is served.
    /// `Io` drops the connection on the floor — the client sees a reset,
    /// never a hang.
    pub const NET_ACCEPT: &str = "net.accept";
    /// Hit before each `read` call the frame reader issues (a frame may
    /// take several: header, then payload as it arrives). `Io` models a
    /// peer vanishing mid-frame (half-written ingest included).
    pub const NET_READ: &str = "net.read";
    /// Hit once per written frame, before its single `write_all` of
    /// length prefix + payload. `Io` drops the whole frame: the peer
    /// sees the connection close, never a prefix without its payload.
    pub const NET_WRITE: &str = "net.write";
    /// Hit once per frame in both directions, ahead of `net.read` /
    /// `net.write`; armed with
    /// [`FaultKind::Latency`](super::FaultKind::Latency) it models a slow
    /// or stalled peer (the write-timeout path). Error kinds armed here
    /// propagate like [`NET_WRITE`].
    pub const NET_LATENCY: &str = "net.latency";
}

/// What an armed fault point injects when its schedule fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Return an I/O-shaped error (`FaultError::Io`). Used at
    /// persistence call sites to simulate failed writes/syncs/renames.
    Io,
    /// Return an allocation-budget error (`FaultError::Alloc`). Used to
    /// simulate memory-pressure rejections on large reservations.
    Alloc,
    /// Panic at the point. Exercises `catch_unwind` isolation: a worker
    /// panic must fail one query, not the pool.
    Panic,
    /// Sleep for the given duration, then succeed. Used to stretch
    /// morsels past deadlines and hold scans open for dedup races.
    Latency(Duration),
}

/// When a rule fires, counted in per-point trigger numbers (1-based).
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Fire exactly on the `n`-th trigger of the point.
    Nth(u64),
    /// Fire on every `n`-th trigger (n, 2n, 3n, …).
    Every(u64),
    /// Fire with probability `p` per trigger, derived deterministically
    /// from `(seed, point, trigger)` — the same plan replays the same
    /// coin flips.
    Prob(f64),
}

#[derive(Debug, Clone)]
struct Rule {
    point: String,
    kind: FaultKind,
    schedule: Schedule,
}

/// A seeded schedule of faults to inject at named points.
///
/// Build one with the fluent constructors and hand it to [`install`]:
///
/// ```
/// use laqy_faults::{FaultKind, FaultPlan};
/// let plan = FaultPlan::new(17)
///     .fail_nth("persist.write_all", FaultKind::Io, 1)
///     .fail_prob("pool.morsel", FaultKind::Panic, 0.05);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan with the given seed. Until rules are added, every
    /// point passes through.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// The seed the plan's probabilistic coin flips derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Inject `kind` exactly on the `n`-th trigger (1-based) of `point`.
    pub fn fail_nth(mut self, point: &str, kind: FaultKind, n: u64) -> Self {
        self.rules.push(Rule {
            point: point.to_string(),
            kind,
            schedule: Schedule::Nth(n.max(1)),
        });
        self
    }

    /// Inject `kind` on every `n`-th trigger of `point`.
    pub fn fail_every(mut self, point: &str, kind: FaultKind, n: u64) -> Self {
        self.rules.push(Rule {
            point: point.to_string(),
            kind,
            schedule: Schedule::Every(n.max(1)),
        });
        self
    }

    /// Inject `kind` with per-trigger probability `p` at `point`,
    /// derived deterministically from the plan seed.
    pub fn fail_prob(mut self, point: &str, kind: FaultKind, p: f64) -> Self {
        self.rules.push(Rule {
            point: point.to_string(),
            kind,
            schedule: Schedule::Prob(p.clamp(0.0, 1.0)),
        });
        self
    }

    /// What trigger number `n` (1-based) of `point` injects under this
    /// plan, if anything. Pure — the replayable schedule in one call;
    /// also what the chaos-build registry consults on every trigger.
    pub fn decide(&self, point: &str, n: u64) -> Option<FaultKind> {
        for rule in &self.rules {
            if rule.point != point {
                continue;
            }
            let fires = match rule.schedule {
                Schedule::Nth(k) => n == k,
                Schedule::Every(k) => n.is_multiple_of(k),
                Schedule::Prob(p) => unit_uniform(self.seed, point, n) < p,
            };
            if fires {
                return Some(rule.kind.clone());
            }
        }
        None
    }
}

/// The error a fault point surfaces when its schedule fires with an
/// error-shaped kind. Callers map it into their own typed error space
/// (`PersistError`, `LaqyError`, …) — it must never escape as a panic
/// or a silent wrong answer.
#[derive(Debug)]
pub enum FaultError {
    /// An injected I/O failure at the named point.
    Io(String),
    /// An injected allocation-budget failure at the named point.
    Alloc(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Io(p) => write!(f, "injected I/O fault at {p}"),
            FaultError::Alloc(p) => write!(f, "injected allocation fault at {p}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<FaultError> for std::io::Error {
    fn from(e: FaultError) -> Self {
        std::io::Error::other(e.to_string())
    }
}

/// FNV-1a over the point name, mixed with seed and trigger count via
/// splitmix64 — a cheap, stable hash so schedules survive refactors
/// that don't rename points.
fn unit_uniform(seed: u64, point: &str, n: u64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in point.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut z = seed ^ h ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 high bits -> [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Hit a fault point. No-op in normal builds; in `--cfg laqy_faults`
/// builds, consults the installed plan and may sleep, panic, or return
/// an injectable error.
#[cfg(not(laqy_faults))]
#[inline(always)]
pub fn point(_name: &str) -> Result<(), FaultError> {
    Ok(())
}

/// Like [`point`] but surfaces injected faults as `std::io::Error`, for
/// persistence call sites already speaking `io::Result`.
#[inline]
pub fn io_point(name: &str) -> std::io::Result<()> {
    point(name).map_err(std::io::Error::from)
}

/// Install a fault plan (chaos builds only; no-op otherwise). Resets
/// all per-point trigger counts and the injected-fault counter so each
/// installed plan replays from trigger 1.
#[cfg(not(laqy_faults))]
pub fn install(_plan: FaultPlan) {}

/// Remove any installed plan (chaos builds only; no-op otherwise).
#[cfg(not(laqy_faults))]
pub fn clear() {}

/// Total faults injected since the last [`install`]/[`clear`]. Always
/// zero in normal builds.
#[cfg(not(laqy_faults))]
pub fn injected_count() -> u64 {
    0
}

#[cfg(laqy_faults)]
mod registry {
    use super::{FaultError, FaultKind, FaultPlan};
    use laqy_sync::atomic::{AtomicU64, Ordering};
    use laqy_sync::Mutex;
    use std::collections::HashMap;

    struct State {
        plan: Option<FaultPlan>,
        triggers: HashMap<String, u64>,
    }

    static STATE: Mutex<Option<State>> = Mutex::named("laqy.faults", None);
    static INJECTED: AtomicU64 = AtomicU64::new(0);

    /// Chaos-build [`super::point`]: bump the per-point trigger count,
    /// ask the plan what (if anything) to inject, and do it.
    pub fn point(name: &str) -> Result<(), FaultError> {
        let decision = {
            let mut guard = STATE.lock();
            let Some(state) = guard.as_mut() else {
                return Ok(());
            };
            let Some(plan) = state.plan.as_ref() else {
                return Ok(());
            };
            let n = state.triggers.entry(name.to_string()).or_insert(0);
            *n += 1;
            plan.decide(name, *n)
        };
        let Some(kind) = decision else {
            return Ok(());
        };
        INJECTED.fetch_add(1, Ordering::Relaxed);
        match kind {
            FaultKind::Io => Err(FaultError::Io(name.to_string())),
            FaultKind::Alloc => Err(FaultError::Alloc(name.to_string())),
            FaultKind::Panic => panic!("injected fault panic at {name}"),
            FaultKind::Latency(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Install a fault plan, resetting trigger counts and the injected
    /// counter so the schedule replays from trigger 1.
    pub fn install(plan: FaultPlan) {
        let mut guard = STATE.lock();
        *guard = Some(State {
            plan: Some(plan),
            triggers: HashMap::new(),
        });
        INJECTED.store(0, Ordering::Relaxed);
    }

    /// Remove any installed plan; points pass through again.
    pub fn clear() {
        let mut guard = STATE.lock();
        *guard = None;
        INJECTED.store(0, Ordering::Relaxed);
    }

    /// Total faults injected since the last install/clear.
    pub fn injected_count() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }
}

#[cfg(laqy_faults)]
pub use registry::{clear, injected_count, install, point};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_is_deterministic_per_seed_point_trigger() {
        for n in 1..100u64 {
            assert_eq!(
                unit_uniform(7, "pool.morsel", n),
                unit_uniform(7, "pool.morsel", n)
            );
        }
        // Different seeds give different streams (overwhelmingly).
        let same = (1..100u64)
            .filter(|&n| unit_uniform(7, "p", n) == unit_uniform(8, "p", n))
            .count();
        assert!(same < 5);
    }

    #[test]
    fn prob_values_are_unit_interval_and_spread() {
        let vals: Vec<f64> = (1..1000u64)
            .map(|n| unit_uniform(0xC0FFEE, "persist.write_all", n))
            .collect();
        assert!(vals.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }

    #[test]
    fn decide_follows_schedules() {
        let plan = FaultPlan::new(1)
            .fail_nth("a", FaultKind::Io, 3)
            .fail_every("b", FaultKind::Alloc, 2);
        assert_eq!(plan.decide("a", 2), None);
        assert_eq!(plan.decide("a", 3), Some(FaultKind::Io));
        assert_eq!(plan.decide("a", 4), None);
        assert_eq!(plan.decide("b", 2), Some(FaultKind::Alloc));
        assert_eq!(plan.decide("b", 3), None);
        assert_eq!(plan.decide("b", 4), Some(FaultKind::Alloc));
        assert_eq!(plan.decide("c", 1), None);
    }

    #[test]
    fn normal_build_point_is_transparent() {
        // In non-chaos builds (the default test configuration) every
        // point passes through and nothing is counted.
        if cfg!(not(laqy_faults)) {
            install(FaultPlan::new(9).fail_nth("x", FaultKind::Io, 1));
            assert!(point("x").is_ok());
            assert_eq!(injected_count(), 0);
            clear();
        }
    }

    #[cfg(laqy_faults)]
    #[test]
    fn chaos_build_injects_and_replays() {
        install(FaultPlan::new(3).fail_nth("x", FaultKind::Io, 2));
        assert!(point("x").is_ok());
        assert!(matches!(point("x"), Err(FaultError::Io(_))));
        assert!(point("x").is_ok());
        assert_eq!(injected_count(), 1);
        // Reinstall resets trigger counts: the schedule replays.
        install(FaultPlan::new(3).fail_nth("x", FaultKind::Io, 2));
        assert!(point("x").is_ok());
        assert!(point("x").is_err());
        clear();
    }
}
