//! The concurrent, shared-store LAQy service.
//!
//! [`LaqyService`] is a cheaply cloneable (`Arc`-based), `Send + Sync`
//! handle wrapping one catalog and one concurrency-safe [`SampleStore`],
//! so many client threads can run approximate queries against a single
//! shared sample store — the multi-tenant AQP-middleware deployment model
//! (VerdictDB-style service, PilotDB-style concurrent ad-hoc workloads).
//! Sample *reuse* (the paper's central asset) compounds across clients:
//! one tenant's Δ-merge widens coverage for everyone.
//!
//! Concurrency design:
//!
//! - **One store, one lock**: the sample store is one [`SampleStore`]
//!   behind one named `laqy_sync::RwLock` (`laqy.store`), shared by every
//!   query family; its byte budget is enforced by a [`StoreWriteGuard`]
//!   when a write step drops it.
//! - **Read path** (classification + full-reuse estimation) runs under
//!   the store's *read* guard. LRU touches are relaxed atomic stores
//!   ([`SampleStore::get`]), so readers never take the write lock.
//! - **Write path** (absorb / Δ-merge / eviction) takes the write lock
//!   only around the in-memory merge — never around the sampling scan,
//!   which is the expensive part and runs lock-free.
//! - **In-flight dedup registry**: a plan claims one registry key for its
//!   residual and one per append tail — an online run's residual is the
//!   query's range, so it claims one key for the whole query — all at
//!   once or none. An attempt that claimed its plan scans every part of
//!   it and releases the keys once the store holds the work. An attempt
//!   that found any key taken claims nothing, waits until its busy keys
//!   are released, and re-plans (typically upgrading to full or
//!   pure-merge reuse). A waiter owns no claim, so no two attempts can
//!   wait on each other, and each part is scanned by exactly one client.
//! - **Optimistic revalidation**: a coverage merge is validated under the
//!   write lock (every selected sample still present with the exact
//!   coverage and watermark it was planned against). If another client's
//!   merge or an eviction invalidated the plan, the clean scans are
//!   absorbed individually — the scan work is kept, never double-counted —
//!   and the query retries, degrading to online sampling after a bounded
//!   number of attempts.
//!
//! The query flow itself is a sequence of named stages — **plan**,
//! **fetch**, **scan**, **merge**, **estimate** and one **finish** every
//! arm goes through — over one per-attempt context; DESIGN.md "Query
//! flow: stages" says what each reads, writes and locks.
//!
//! Lock ordering: an attempt waits for in-flight keys on the registry's
//! condvar, which releases the registry mutex while it blocks, and holds
//! no store or catalog lock there; a query path never holds the store lock
//! and the registry mutex together.
//!
//! Streaming ingest: [`LaqyService::ingest`] appends a batch of rows to
//! a registered table. Each query attempt pins one table epoch by
//! cloning the catalog once up front, so a query concurrent with appends
//! reads a frozen set of rows — never a torn mix of old and new. When a
//! write-ahead log is open ([`LaqyService::recover_with_wal`]), the batch
//! is durably logged and fsynced *before* the new table version is
//! published or any stored sample absorbs the appended rows, so the
//! sample store can never run ahead of what recovery can replay; after an
//! append failed, the next append first cuts the log back to the last
//! acked record. Build, log and publish serialize on the `laqy.wal`
//! mutex, which is taken
//! before the catalog lock (wal → catalog → store, keeping the lock
//! graph acyclic); the sample absorb runs after it is released, under
//! the store's write lock, and is idempotent by watermark.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use laqy_engine::{Catalog, Column, QueryResult, Table, Value};
use laqy_sampling::Lehmer64;
use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::classes;
use laqy_sync::{Condvar, Mutex, RwLock, RwLockReadGuard};

use crate::budget::{apply_degradation, blended_degradation, CancelToken, QueryBudget};
use crate::descriptor::{Predicates, SampleDescriptor};
use crate::estimate::{estimate, EstimateOptions, Estimator, Groups};
use crate::executor::{
    descriptor_for, payload_schema, support_from_groups, ApproxQuery, ApproxResult, CoverageScans,
    LaqyError, LaqyExecutor, Result, Scope,
};
use crate::interval::IntervalSet;
use crate::lazy::{plan_lazy, CoveragePlan, ReuseMode};
use crate::persist::PersistError;
use crate::sampler_ops::SampleSchema;
use crate::star::{JoinMemo, JoinShape};
use crate::stats::{Counters, ExecStats, ReuseClass, ServiceStats};
use crate::store::{Merged, SampleId, SampleStore, StoreWriteGuard};
use crate::support::SupportPolicy;
use crate::wal::{WalAppender, WalRecord};

/// Attempts before a query stops chasing invalidated reuse plans and
/// forces online sampling. Each retry means another client changed the
/// store meanwhile, so contention this deep is already pathological.
const MAX_PLAN_RETRIES: u32 = 16;

struct ServiceInner {
    catalog: RwLock<Catalog>,
    store: RwLock<SampleStore>,
    /// The store's byte budget, enforced by every [`StoreWriteGuard`].
    budget_bytes: Option<usize>,
    /// In-flight dedup registry: the key of every part being scanned, by
    /// the sample fingerprint and the part.
    inflight: Mutex<HashSet<String>>,
    /// Paired with `inflight`: woken whenever a claim releases its keys.
    inflight_released: Condvar,
    counters: Counters,
    threads: usize,
    policy: SupportPolicy,
    mode: ReuseMode,
    seed: AtomicU64,
    /// Fault-injection hook (nanoseconds; 0 = off): owners of an
    /// in-flight sampling operation sleep this long before scanning,
    /// widening the race window so tests can deterministically exercise
    /// the dedup/piggyback path.
    sampling_hold_nanos: AtomicU64,
    /// The ingest write-ahead log. Doubles as the ingest serialization
    /// point: every ingest holds this mutex across log-append and catalog
    /// publish, so batches publish in WAL order; the sample absorb runs
    /// after it is released. `None` when no log was opened: ingest then
    /// publishes without one. A failed log is still `Some` — the appender
    /// refuses or repairs it ([`WalAppender::append`]) — so it can never
    /// pass for an absent one.
    wal: Mutex<Option<WalAppender>>,
    /// Star joins and their join filters, per join shape; every query's
    /// executor shares it, and `clear_samples` leaves it alone.
    joins: Arc<JoinMemo>,
}

/// A shared, thread-safe LAQy query service.
///
/// Clone the handle freely — all clones operate on the same catalog,
/// sample store, and counters. See the crate-level example.
pub struct LaqyService {
    inner: Arc<ServiceInner>,
}

impl Clone for LaqyService {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
    /// Support / oversampling policy.
    pub policy: SupportPolicy,
    /// Base RNG seed (determinism across runs).
    pub seed: u64,
    /// Optional sample-store byte budget (LRU-evicted).
    pub store_budget_bytes: Option<usize>,
    /// Reuse aggressiveness (ablation switch; default lazy/partial reuse).
    pub reuse_mode: ReuseMode,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            threads: laqy_engine::parallel::default_threads(),
            policy: SupportPolicy::default(),
            seed: 0xACE1,
            store_budget_bytes: None,
            reuse_mode: ReuseMode::default(),
        }
    }
}

/// Outcome of one plan-and-execute attempt.
enum Outcome {
    Done(Box<ApproxResult>),
    /// The store changed under us (eviction, competing merge, or an
    /// in-flight wait completed): re-plan from scratch.
    Retry,
}

/// What one plan-and-execute attempt works against, fixed when it starts.
struct Attempt<'q> {
    executor: LaqyExecutor,
    query: &'q ApproxQuery,
    /// One epoch pinned for the whole attempt: every scan runs against
    /// this clone's frozen table versions (cheap `Arc` clones), so a
    /// concurrent ingest can never tear the query across epochs.
    pinned: Catalog,
    /// The payload layout the query's samples carry, resolved once
    /// against the pinned epoch.
    schema: SampleSchema,
    /// The query's join shape in the pinned epoch.
    shape: JoinShape,
    descriptor: SampleDescriptor,
    /// The pinned fact table's row watermark.
    watermark: u64,
    /// The query predicate a reused sample is tightened to.
    tighten: Predicates,
    /// When the query (not this attempt) started.
    t_start: Instant,
    /// Strata of the stored sample the plan selected (0 until a coverage
    /// plan is made, or without one): what this attempt's Δ-scans size
    /// their samplers for.
    strata_hint: usize,
}

impl Attempt<'_> {
    /// The tightening an estimate from a sample whose rows all lie inside
    /// `bounds` needs: none when they are the query's own predicates,
    /// since every row would match and the walk packs the same hit bits
    /// with or without it.
    fn tightening(&self, bounds: Option<&Predicates>) -> Option<&Predicates> {
        (bounds != Some(&self.tighten)).then_some(&self.tighten)
    }

    /// The executor, and what its pipelines run against.
    fn pipeline(&mut self) -> (&mut LaqyExecutor, Scope<'_>) {
        let scope = Scope {
            catalog: &self.pinned,
            query: self.query,
            schema: &self.schema,
            shape: &self.shape,
            strata_hint: self.strata_hint,
        };
        (&mut self.executor, scope)
    }
}

/// The arm an answer came from: what [`LaqyService::finish`] stamps and
/// counts.
#[derive(Clone, Copy)]
enum Arm {
    Full,
    Coverage,
    Online,
    /// Online sampling that bypasses the store (the baseline): counted
    /// nowhere.
    Oblivious,
}

impl Arm {
    /// The arm a plan's answer comes from, read off its shape once: a hit,
    /// a plan that reuses no stored sample (online), or a coverage merge.
    fn of(plan: &CoveragePlan) -> Arm {
        match (plan.hit(), plan.sample.is_none()) {
            (Some(_), _) => Arm::Full,
            (None, true) => Arm::Online,
            (None, false) => Arm::Coverage,
        }
    }
}

/// An arm's estimate on its way into [`LaqyService::finish`].
struct Estimated {
    groups: Groups,
    stats: ExecStats,
}

/// `counter += n` (relaxed: telemetry).
fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl LaqyService {
    /// Create a service with default configuration.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_config(catalog, SessionConfig::default())
    }

    /// Create a service with explicit configuration.
    pub fn with_config(catalog: Catalog, config: SessionConfig) -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                catalog: RwLock::named(classes::CATALOG, catalog),
                store: RwLock::named(classes::STORE, SampleStore::new()),
                budget_bytes: config.store_budget_bytes,
                inflight: Mutex::named(classes::INFLIGHT_REGISTRY, HashSet::new()),
                inflight_released: Condvar::named(classes::INFLIGHT_CV),
                counters: Counters::default(),
                threads: config.threads,
                policy: config.policy,
                mode: config.reuse_mode,
                seed: AtomicU64::new(config.seed),
                sampling_hold_nanos: AtomicU64::new(0),
                wal: Mutex::named(classes::WAL, None),
                joins: Arc::new(JoinMemo::new()),
            }),
        }
    }

    /// Shared read access to the catalog.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.timed(|i| i.catalog.read())
    }

    /// A coherent owned snapshot of the sample store (inspection / tests
    /// / persistence), cut under the store's read guard. Sample ids and
    /// LRU stamps are preserved.
    pub fn store(&self) -> SampleStore {
        self.timed(|i| i.store.read()).snapshot()
    }

    /// Snapshot of the per-service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.counters.snapshot()
    }

    /// Clear all materialized samples (cold-start experiments).
    pub fn clear_samples(&self) {
        self.write_store().clear();
    }

    /// Serialize the sample store (offline-sample persistence).
    pub fn export_samples(&self) -> Vec<u8> {
        crate::persist::save_store(&self.store())
    }

    /// Replace the sample store from a snapshot produced by
    /// [`LaqyService::export_samples`].
    pub fn import_samples(&self, bytes: &[u8]) -> Result<()> {
        let loaded =
            crate::persist::load_store(bytes).map_err(|e| LaqyError::Unsupported(e.to_string()))?;
        self.restore_store(loaded, false);
        Ok(())
    }

    /// Write an atomic, generation-numbered snapshot of the sample store
    /// into `dir` (crash-safe: tmp + fsync + rename + directory fsync;
    /// see [`crate::persist::save_snapshot`]). Returns the generation
    /// written.
    pub fn save_snapshot(
        &self,
        dir: &std::path::Path,
    ) -> std::result::Result<u64, crate::persist::PersistError> {
        // wal → store, the canonical ingest order: holding the WAL mutex
        // across the store snapshot pins the snapshot to a WAL position —
        // no ingest can slip between the store cut and the checkpoint.
        let mut wal = self.timed(|i| i.wal.lock());
        let store = self.store();
        // laqy-lint: allow(guard-blocking-op) -- intentional: the snapshot write is pinned to a frozen WAL position; releasing `laqy.wal` before the fsync would let ingest move the log past the cut.
        let generation = crate::persist::save_snapshot(&store, dir)?;
        if let Some(w) = &mut *wal {
            let watermarks: Vec<(String, u64)> = {
                let catalog = self.catalog();
                catalog
                    .table_names()
                    .iter()
                    .filter_map(|n| {
                        catalog
                            .table(n)
                            .ok()
                            .map(|t| (n.to_string(), t.row_watermark()))
                    })
                    .collect()
            };
            // The snapshot itself is durable even when this append fails.
            // laqy-lint: allow(guard-blocking-op) -- the checkpoint record must be ordered against concurrent ingest appends; `laqy.wal` provides exactly that order.
            w.append(&WalRecord::Checkpoint {
                generation,
                watermarks,
            })?;
            self.inner
                .counters
                .wal_appends
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(generation)
    }

    /// Replace the sample store with `loaded` — the one step behind every
    /// restore (import, recovery). Counts a snapshot recovery that
    /// `fell_back` past a damaged generation, and drops every sample
    /// whose watermark runs past its live table: a snapshot cut from a
    /// longer table than this one would otherwise answer with rows the
    /// table does not hold.
    fn restore_store(&self, loaded: SampleStore, fell_back: bool) {
        self.write_store().replace_from(loaded);
        if fell_back {
            self.inner
                .counters
                .snapshots_recovered
                .fetch_add(1, Ordering::Relaxed);
        }
        let tables = self.pinned_tables();
        let mut store = self.write_store();
        for t in tables {
            store.drop_beyond(t.name(), t.row_watermark());
        }
    }

    /// Append a batch of rows to registered table `table`, returning the
    /// new row watermark. The batch must carry exactly the table's
    /// columns (matched by name, any order) with equal lengths.
    ///
    /// Ordering guarantees. Steps 1–3 run under the `laqy.wal` mutex, so
    /// ingests publish in log order; queries are not serialized — they
    /// keep reading their pinned epoch:
    ///
    /// 1. the next table version is *built* first (pure validation — a
    ///    malformed batch changes nothing);
    /// 2. with a WAL open, the batch is appended and fsynced — if the log
    ///    write fails, the batch is not published and is
    ///    [`LaqyError::WalFailed`]. The next ingest (or snapshot
    ///    checkpoint) first cuts the log back to the last acked record and
    ///    re-opens it ([`WalAppender::append`]), refusing while that
    ///    fails, so a torn tail is never appended past and no batch is
    ///    acked that recovery would not replay. A refused batch
    ///    is never published live; only a crash before that cut can let
    ///    recovery replay a refused record that reached the log whole
    ///    (its fsync failed), so a `WalFailed` batch is indeterminate
    ///    across a crash. A batch whose record is over the WAL's record
    ///    cap is refused before a byte is written, and the WAL stays open;
    /// 3. the new version is published in the catalog (appends never
    ///    mutate the version concurrent readers pinned);
    /// 4. after `laqy.wal` is released, stored samples absorb the appended
    ///    rows via incremental reservoir maintenance
    ///    ([`SampleStore::absorb_appended`]) under the store's write lock,
    ///    and only then does the call return, so a caller reads its own
    ///    writes.
    ///
    /// A late absorb is idempotent, so step 4 needs no log lock. The
    /// absorb offers a sample only the rows `[its watermark, the
    /// published watermark)` and skips a sample already at or past it.
    /// When two ingests' absorbs race, whichever runs first carries the
    /// samples to its version; the other offers only rows past that, or
    /// nothing. No row is lost or offered twice in either order. With a
    /// WAL open, every row an absorb offers is already durable (step 2
    /// ran for it).
    pub fn ingest(&self, table: &str, batch: Vec<(String, Column)>) -> Result<u64> {
        let rows = batch.first().map(|(_, c)| c.len()).unwrap_or(0) as u64;
        let published = {
            let mut wal = self.timed(|i| i.wal.lock());
            let (new_table, base_rows) = {
                let catalog = self.catalog();
                let current = catalog.table(table)?;
                (current.append_batch(&batch)?, current.num_rows() as u64)
            };
            if let Some(w) = &mut *wal {
                // laqy-lint: allow(guard-blocking-op) -- durable-before-publish: the append+fsync under `laqy.wal` is the ingest serialization point (see the ordering contract in the doc comment).
                let append = w.append(&WalRecord::Batch {
                    table: table.to_string(),
                    base_rows,
                    columns: batch,
                });
                match append {
                    Ok(_) => add(&self.inner.counters.wal_appends, 1),
                    // A record over the cap never reached the log: the WAL stays open.
                    Err(e @ PersistError::TooLarge(_)) => {
                        let msg = format!("wal append failed (wal unchanged): {e}");
                        return Err(LaqyError::Unsupported(msg));
                    }
                    Err(e) => return Err(LaqyError::WalFailed(e.to_string())),
                }
            }
            self.timed(|i| i.catalog.write()).register(new_table)
        };
        self.absorb_published(&published);
        let c = &self.inner.counters;
        c.ingest_batches.fetch_add(1, Ordering::Relaxed);
        c.ingest_rows.fetch_add(rows, Ordering::Relaxed);
        Ok(published.row_watermark())
    }

    /// Crash recovery to one consistent `(snapshot generation, WAL
    /// position)` point: restore the sample store from the newest
    /// loadable snapshot in `snapshot_dir`, replay the WAL in `wal_dir`
    /// on top of the registered tables (idempotently; a torn tail is
    /// discarded and truncated), drop any stored sample whose watermark
    /// runs past the recovered tables (it would reference rows the log
    /// never made durable), catch the survivors up with the tables the
    /// replay grew, and leave the WAL open for further ingest — also after
    /// a failed append. Over an empty snapshot directory and an empty log
    /// this opens a fresh service's log: the one way to open durable
    /// state.
    pub fn recover_with_wal(
        &self,
        snapshot_dir: &std::path::Path,
        wal_dir: &std::path::Path,
    ) -> std::result::Result<crate::persist::RecoveryReport, crate::persist::PersistError> {
        let mut wal = self.timed(|i| i.wal.lock());
        let (loaded, mut report) = crate::persist::recover_snapshot(snapshot_dir)?;
        let (records, replay) = crate::wal::replay(wal_dir)?;
        report.wal_records = replay.records;
        report.wal_torn_tail = replay.torn_tail;
        self.inner
            .counters
            .wal_replays
            .fetch_add(replay.records, Ordering::Relaxed);
        let grown = self.apply_wal_batches(&records)?;
        // Restore against the recovered tables: the snapshot may postdate
        // the last durable batch (its samples were cut from a table state
        // whose rows never hit the log), so samples past each recovered
        // watermark go; the rest absorb forward. Either way the store
        // lands exactly at the recovered `(generation, WAL position)`
        // point. Only a table the replay grew is absorbed: an absorb drops
        // every sample joined through its table, so absorbing an unchanged
        // dimension would drop every sample above a join for nothing.
        self.restore_store(loaded, report.fell_back());
        for t in grown {
            self.absorb_published(&t);
        }
        // laqy-lint: allow(guard-blocking-op) -- recovery must hold `laqy.wal` from replay through appender open: an ingest slipping in between would append at a position the replay never saw.
        *wal = Some(WalAppender::open_at(wal_dir, replay.end)?);
        Ok(report)
    }

    /// Apply replayed WAL batches to the catalog in log order, returning
    /// the last published version of every table they grew. A batch is
    /// applied only when its table holds exactly `base_rows` rows; fewer
    /// is a gap (corrupt log), more means the batch is already reflected
    /// (idempotent replay over a newer snapshot).
    fn apply_wal_batches(
        &self,
        records: &[WalRecord],
    ) -> std::result::Result<Vec<Arc<Table>>, PersistError> {
        let mut grown: Vec<Arc<Table>> = Vec::new();
        for rec in records {
            let WalRecord::Batch {
                table,
                base_rows,
                columns,
            } = rec
            else {
                continue;
            };
            let current = {
                let catalog = self.catalog();
                let t = catalog.table(table).map_err(|e| {
                    PersistError::Corrupt(format!("wal batch for unknown table: {e}"))
                })?;
                Arc::clone(t)
            };
            let have = current.num_rows() as u64;
            if have > *base_rows {
                continue;
            }
            if have < *base_rows {
                return Err(PersistError::Corrupt(format!(
                    "wal gap: table `{table}` holds {have} rows, batch expects {base_rows}"
                )));
            }
            let next = current.append_batch(columns).map_err(|e| {
                PersistError::Corrupt(format!("wal batch failed to apply to `{table}`: {e}"))
            })?;
            let published = self.timed(|i| i.catalog.write()).register(next);
            grown.retain(|t| t.name() != table);
            grown.push(published);
        }
        Ok(grown)
    }

    /// Snapshot the catalog's current table versions (cheap `Arc`
    /// clones) so maintenance loops can run without holding the catalog
    /// lock.
    fn pinned_tables(&self) -> Vec<Arc<Table>> {
        let catalog = self.catalog();
        catalog
            .table_names()
            .iter()
            .filter_map(|n| catalog.table(n).ok().map(Arc::clone))
            .collect()
    }

    /// Offer a newly published table version's appended rows to every
    /// stored sample, folding the absorb telemetry into the service
    /// counters.
    fn absorb_published(&self, table: &Table) {
        let seed = self
            .inner
            .seed
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut rng = Lehmer64::new(seed);
        let report = self.write_store().absorb_appended(table, &mut rng);
        let c = &self.inner.counters;
        c.absorbed_samples
            .fetch_add(report.samples_absorbed, Ordering::Relaxed);
        c.absorbed_rows
            .fetch_add(report.rows_absorbed, Ordering::Relaxed);
    }

    /// Fault-injection hook: make in-flight sampling owners pause before
    /// the scan, widening the window in which concurrent identical
    /// queries dedup against them. `None` disables. Intended for stress
    /// tests and demos; leave unset in production use.
    pub fn set_sampling_hold(&self, hold: Option<Duration>) {
        let nanos = hold.map(|d| d.as_nanos() as u64).unwrap_or(0);
        self.inner
            .sampling_hold_nanos
            .store(nanos, Ordering::Relaxed);
    }

    /// Run a query through the lazy sampling flow against the shared
    /// store, with no resource limits.
    pub fn run(&self, query: &ApproxQuery) -> Result<ApproxResult> {
        self.run_with_budget(query, QueryBudget::unbounded())
    }

    /// Run a query under a [`QueryBudget`]. When the budget expires
    /// mid-scan, the answer is finalized from the partial sample with
    /// extrapolated values and widened confidence intervals — the
    /// degradation record rides in `result.stats.degraded` and the
    /// service's `degraded_answers` counter advances.
    pub fn run_with_budget(
        &self,
        query: &ApproxQuery,
        budget: QueryBudget,
    ) -> Result<ApproxResult> {
        let t_start = Instant::now();
        let c = &self.inner.counters;
        add(&c.queries, 1);
        let token = budget.start();
        let mut attempts = 0u32;
        let result = loop {
            attempts += 1;
            match self.try_run(query, &token, t_start, attempts > MAX_PLAN_RETRIES) {
                Ok(Outcome::Done(result)) => break result,
                Ok(Outcome::Retry) => continue,
                Err(e) => {
                    if matches!(e, LaqyError::Injected(_) | LaqyError::WorkerPanic(_)) {
                        add(&c.faults_injected, 1);
                    }
                    return Err(e);
                }
            }
        };
        c.note_served(&result.stats);
        if result.stats.degraded.is_some() {
            add(&c.degraded_answers, 1);
        }
        Ok(*result)
    }

    /// Run with workload-oblivious online sampling (baseline): samples
    /// the full range, stores nothing, touches no shared state beyond a
    /// catalog read.
    pub fn run_online_oblivious(&self, query: &ApproxQuery) -> Result<ApproxResult> {
        let mut at = self.begin(query, &CancelToken::unbounded(), Instant::now())?;
        let (executor, scope) = at.pipeline();
        let (groups, stats) = executor.run_online(scope)?;
        match self.finish(&mut at, Arm::Oblivious, 1.0, Estimated { groups, stats })? {
            Outcome::Done(result) => Ok(*result),
            Outcome::Retry => Err(LaqyError::Unsupported(
                "an oblivious run has no plan to retry".into(),
            )),
        }
    }

    /// Run exactly (baseline). Returns engine results plus stats.
    pub fn run_exact(&self, query: &ApproxQuery) -> Result<(QueryResult, ExecStats)> {
        let executor = self.executor();
        let catalog = self.catalog();
        executor.run_exact(&catalog, query)
    }

    /// Pure filtered scan timing (floor).
    pub fn scan_floor(&self, query: &ApproxQuery) -> Result<ExecStats> {
        let executor = self.executor();
        let catalog = self.catalog();
        executor.scan_floor(&catalog, query)
    }

    /// Decode estimate group keys into display values.
    pub fn decode_keys(
        &self,
        query: &ApproxQuery,
        result: &ApproxResult,
    ) -> Result<Vec<Vec<Value>>> {
        let executor = self.executor();
        let catalog = self.catalog();
        executor.decode_keys(&catalog, query, &result.groups)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Acquire a lock via `f`, charging the wait to the contention
    /// counter.
    fn timed<'a, G>(&'a self, f: impl FnOnce(&'a ServiceInner) -> G) -> G {
        let t = Instant::now();
        let guard = f(&self.inner);
        self.inner
            .counters
            .lock_wait_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        guard
    }

    /// Write-lock the store; its byte budget is enforced when the guard
    /// drops, after the whole write step.
    fn write_store(&self) -> StoreWriteGuard<'_> {
        StoreWriteGuard::new(self.timed(|i| i.store.write()), self.inner.budget_bytes)
    }

    /// A fresh per-query executor. Seeds advance through a service-wide
    /// atomic so concurrent queries draw distinct, reproducible streams.
    fn executor(&self) -> LaqyExecutor {
        let seed = self
            .inner
            .seed
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut executor = LaqyExecutor::new(self.inner.threads, self.inner.policy, seed);
        executor.joins = Arc::clone(&self.inner.joins);
        executor
    }

    fn hold_for_test(&self) {
        let nanos = self.inner.sampling_hold_nanos.load(Ordering::Relaxed);
        if nanos > 0 {
            std::thread::sleep(Duration::from_nanos(nanos));
        }
    }

    /// Start an attempt: a fresh executor under the query's budget, one
    /// pinned catalog epoch, and the sampler identity derived from it.
    fn begin<'q>(
        &self,
        query: &'q ApproxQuery,
        token: &CancelToken,
        t_start: Instant,
    ) -> Result<Attempt<'q>> {
        let mut executor = self.executor();
        executor.set_budget_token(token.clone());
        let pinned: Catalog = self.catalog().clone();
        let schema = payload_schema(&pinned, query)?;
        let shape = JoinShape::of(&pinned, &query.plan)?;
        let descriptor = descriptor_for(query, &schema);
        let watermark = pinned.table(&query.plan.fact)?.row_watermark();
        Ok(Attempt {
            executor,
            query,
            pinned,
            schema,
            shape,
            descriptor,
            watermark,
            tighten: Predicates::on(query.range_column.clone(), IntervalSet::of(query.range)),
            t_start,
            strata_hint: 0,
        })
    }

    /// One optimistic plan-and-execute attempt: the stages in order.
    fn try_run(
        &self,
        query: &ApproxQuery,
        token: &CancelToken,
        t_start: Instant,
        force_online: bool,
    ) -> Result<Outcome> {
        let mut at = self.begin(query, token, t_start)?;
        let (plan, snapshot) = self.plan(&mut at, force_online);
        self.run_plan(&mut at, &plan, snapshot.as_ref())
    }

    /// Run `plan` through the stages its shape calls for: a hit is
    /// **fetch**ed where it rests, lock-free; every other plan — online
    /// included — is **scan**ned, **merge**d and **estimate**d by
    /// [`Self::run_coverage`]. Either way the answer leaves through
    /// **finish**.
    fn run_plan(
        &self,
        at: &mut Attempt<'_>,
        plan: &CoveragePlan,
        snapshot: Option<&(Predicates, u64)>,
    ) -> Result<Outcome> {
        let arm = Arm::of(plan);
        let effective = plan.uncovered_fraction(&at.descriptor);
        let estimated = match plan.hit() {
            Some(id) => self.fetch(at, id)?,
            None => self.run_coverage(at, arm, plan, snapshot, effective)?,
        };
        match estimated {
            Some(est) => self.finish(at, arm, effective, est),
            None => Ok(Outcome::Retry),
        }
    }

    /// **Plan**: Algorithm 1 against the store, under its read guard. A
    /// forced attempt, and under all-or-none matching
    /// (`ReuseMode::FullMatchOnly`) any plan but a hit, runs the online
    /// plan instead. For any other plan the selected sample's coverage
    /// *and* watermark are snapshotted under the same guard:
    /// [`Self::merge`] revalidates the store against exactly this
    /// snapshot, so a concurrent absorb (which moves a watermark)
    /// invalidates the plan instead of double-counting tail rows.
    fn plan(
        &self,
        at: &mut Attempt<'_>,
        force_online: bool,
    ) -> (CoveragePlan, Option<(Predicates, u64)>) {
        let online = |at: &Attempt<'_>| CoveragePlan::online(&at.descriptor, at.watermark);
        if force_online {
            return (online(at), None);
        }
        let store = self.timed(|i| i.store.read());
        let plan = plan_lazy(&store, &at.descriptor, at.watermark);
        if plan.hit().is_some() {
            return (plan, None);
        }
        if self.inner.mode == ReuseMode::FullMatchOnly {
            return (online(at), None);
        }
        // Were the planned sample somehow missing, the snapshot comes up
        // empty, revalidation fails, and the attempt re-plans instead of
        // panicking on a hot path.
        let selected = plan.sample.and_then(|id| store.peek(id));
        at.strata_hint = selected.map_or(0, |s| s.sample.num_strata());
        let snapshot = selected.map(|s| (s.descriptor.predicates.clone(), s.watermark));
        (plan, snapshot)
    }

    /// **Fetch**: estimate the query from stored sample `id` where it
    /// rests, compiled against its schema under the store's read guard and
    /// walked after releasing it. `None` if the sample vanished since.
    fn fetch(&self, at: &Attempt<'_>, id: SampleId) -> Result<Option<Estimated>> {
        let store = self.timed(|i| i.store.read());
        let started = Instant::now();
        let Some(stored) = store.get(id) else {
            return Ok(None);
        };
        let tighten = at.tightening(Some(&stored.descriptor.predicates));
        let estimator = Estimator::compile(&stored.schema, &at.query.plan.aggs, tighten)?;
        let sample = Arc::clone(&stored.sample);
        drop(store);
        let groups = estimator.estimate(&sample);
        let stats = ExecStats {
            estimate: started.elapsed(),
            ..Default::default()
        };
        Ok(Some(Estimated { groups, stats }))
    }

    /// **Merge**: under the store's write guard, revalidate that
    /// the selected sample still has exactly the coverage *and* the
    /// watermark of the plan-time `snapshot` (a competing merge, eviction,
    /// or tail absorb would otherwise double-count rows or lose the sample
    /// entirely), then run the store's coverage write step. The stored
    /// sample is read in place and the merged sample is shared with the
    /// store, not copied, so the lock is held for the merge itself and
    /// nothing else. A stale plan keeps the clean scan work without
    /// merging (tail absorbs stay safe against whatever invalidated the
    /// plan: the `from_row` guard rejects a tail whose sample moved on) and
    /// returns `None`.
    fn merge(
        &self,
        at: &mut Attempt<'_>,
        plan: &CoveragePlan,
        snapshot: Option<&(Predicates, u64)>,
        scans: CoverageScans,
    ) -> Option<Merged> {
        let mut store = self.write_store();
        let valid = match (plan.sample, snapshot) {
            (None, None) => true,
            (Some(id), Some((predicates, watermark))) => store.peek(id).is_some_and(|s| {
                s.descriptor.predicates == *predicates && s.watermark == *watermark
            }),
            _ => false,
        };
        let scans = (scans.scans.into_iter())
            .map(|s| (s.part, s.sample, s.clean))
            .collect();
        let rng = at.executor.rng_mut();
        store.absorb_coverage(&at.descriptor, &at.schema, plan, scans, valid, rng)
    }

    /// Coverage execution: claim the whole plan, **scan** it, **merge**
    /// with the selected stored sample, **estimate** — for any plan but a
    /// hit; an online plan's one Δ is its whole sample. `None` when the
    /// attempt must re-plan: other clients held part of the plan, or it
    /// went stale.
    fn run_coverage(
        &self,
        at: &mut Attempt<'_>,
        arm: Arm,
        plan: &CoveragePlan,
        snapshot: Option<&(Predicates, u64)>,
        effective: f64,
    ) -> Result<Option<Estimated>> {
        let c = &self.inner.counters;
        // What the run counts, by its arm: an online run counts its scan
        // and its dedup as online, and never a Δ-scan, a fragment or a
        // merge.
        let (scan_counter, dedup_counter, fragments) = match arm {
            Arm::Online => (&c.online_scans, &c.online_deduped, None),
            _ => (
                &c.delta_scans,
                &c.merges_deduped,
                Some((&c.fragments_scanned, &c.fragments_deduped)),
            ),
        };
        let claim = match self.claim(part_keys(&at.descriptor, plan)) {
            Ok(claim) => claim,
            Err(busy) => {
                // Concurrent clients are scanning part of our plan: claim
                // none of it, wait for them, and re-plan (normally
                // upgrading to full or pure-merge reuse).
                if let Some((_, fragments_deduped)) = fragments {
                    add(fragments_deduped, busy.len() as u64);
                }
                add(dedup_counter, 1);
                self.wait_released(&busy);
                return Ok(None);
            }
        };

        // **Scan** every part — lock-free, the expensive part — against
        // the pinned epoch.
        if !claim.keys.is_empty() {
            self.hold_for_test();
        }
        let (executor, scope) = at.pipeline();
        let mut scans = executor.scan_coverage(scope, plan)?;
        let mut stats = std::mem::take(&mut scans.stats);
        let scanned = scans.scans.len() as u64;
        add(scan_counter, scanned);
        if let Some((fragments_scanned, _)) = fragments {
            add(fragments_scanned, scanned);
            stats.fragments_scanned = scanned;
        }
        // Fold the per-scan coverage into one query-level degradation
        // record (None when every scan ran to completion).
        stats.degraded = blended_degradation(
            stats.degraded.take(),
            scans.coverage,
            plan.parts().count(),
            scans.skipped,
            effective,
        );
        let t_merge = Instant::now();
        let merge = self.merge(at, plan, snapshot, scans);
        stats.merge = t_merge.elapsed();
        // The store now holds the scan work: waiters may re-plan.
        drop(claim);
        let Some(merged) = merge else {
            add(&c.merge_retries, 1);
            return Ok(None);
        };
        stats.payload_rows += merged.payload_rows as u64;

        // **Estimate** — lock-free: the merged sample is shared with the
        // store, not borrowed from it.
        let t_est = Instant::now();
        let opts = EstimateOptions {
            tighten: at.tightening(merged.union.as_ref()),
        };
        let groups = estimate(&merged.sample, &at.schema, &at.query.plan.aggs, &opts)?;
        stats.estimate += t_est.elapsed();
        stats.fragments_reused = u64::from(plan.sample.is_some());
        add(&c.fragments_reused, stats.fragments_reused);
        Ok(Some(Estimated { groups, stats }))
    }

    /// **Finish** — the one exit every arm's estimate takes: apply the
    /// degradation record, derive the support report, run the §5.2.3
    /// conservative fallback (a reused answer that is not degraded and
    /// short of support is answered by the online plan instead, whose
    /// sample the store keeps), stamp the arm and the clock, count the
    /// answer.
    fn finish(
        &self,
        at: &mut Attempt<'_>,
        arm: Arm,
        effective: f64,
        est: Estimated,
    ) -> Result<Outcome> {
        let c = &self.inner.counters;
        let policy = &self.inner.policy;
        let Estimated {
            mut groups,
            mut stats,
        } = est;
        let t = Instant::now();
        if let Some(deg) = &stats.degraded {
            apply_degradation(&mut groups, &at.query.plan.aggs, deg);
        }
        // Estimation already counted each stratum's matching rows (strata
        // and output groups coincide: QCS = GROUP BY).
        let support = support_from_groups(&groups, policy);
        stats.estimate += t.elapsed();

        let (class, counter) = match arm {
            Arm::Full => (ReuseClass::Full, Some(&c.full_hits)),
            Arm::Coverage => (ReuseClass::Partial, Some(&c.partial_merges)),
            Arm::Online => (ReuseClass::Online, Some(&c.online_runs)),
            Arm::Oblivious => (ReuseClass::Online, None),
        };
        if matches!(arm, Arm::Full | Arm::Coverage)
            && policy.conservative
            && stats.degraded.is_none()
            && !support.fully_supported()
        {
            add(&c.support_fallbacks, 1);
            let online = CoveragePlan::online(&at.descriptor, at.watermark);
            return self.run_plan(at, &online, None);
        }
        stats.reuse = Some(class);
        stats.effective_selectivity = effective;
        stats.total = at.t_start.elapsed();
        if let Some(counter) = counter {
            add(counter, 1);
        }
        Ok(Outcome::Done(Box::new(ApproxResult {
            groups,
            stats,
            support,
        })))
    }

    /// Claim every key at once, or none: `Err` lists the keys other
    /// attempts hold, and the registry is left as it was.
    fn claim(&self, keys: Vec<String>) -> std::result::Result<Claim<'_>, Vec<String>> {
        let mut registry = self.inner.inflight.lock();
        let busy: Vec<String> = (keys.iter())
            .filter(|key| registry.contains(*key))
            .cloned()
            .collect();
        if !busy.is_empty() {
            return Err(busy);
        }
        registry.extend(keys.iter().cloned());
        Ok(Claim {
            inner: &self.inner,
            keys,
        })
    }

    /// Block until no attempt holds any of `keys` — the one place the
    /// service waits on the registry. The caller owns no claim, so no two
    /// waiters can wait on each other.
    fn wait_released(&self, keys: &[String]) {
        let mut registry = self.inner.inflight.lock();
        while keys.iter().any(|key| registry.contains(key)) {
            self.inner.inflight_released.wait(&mut registry);
        }
    }
}

/// The in-flight registry keys of a plan's parts: one for the residual,
/// by the sample fingerprint and range column, and one for the append
/// tail, by the planned sample and the tail's first row.
fn part_keys(descriptor: &SampleDescriptor, plan: &CoveragePlan) -> Vec<String> {
    let fingerprint = descriptor.fingerprint();
    let column = &descriptor.predicates.column;
    let residual = (!plan.residual.is_empty())
        .then(|| format!("F|{fingerprint}|{column}|{:?}", plan.residual));
    let tail = (plan.sample.zip(plan.tail.as_ref()))
        .map(|(id, t)| format!("T|{fingerprint}|{id:?}|{}", t.from_row));
    residual.into_iter().chain(tail).collect()
}

/// Every in-flight key of one attempt's plan, claimed at once. Dropping
/// it — also on error or panic unwinding, so a waiter never hangs on a
/// dead owner — releases the keys and wakes every waiter.
struct Claim<'a> {
    inner: &'a ServiceInner,
    keys: Vec<String>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut registry = self.inner.inflight.lock();
        for key in &self.keys {
            registry.remove(key);
        }
        self.inner.inflight_released.notify_all();
    }
}

#[allow(dead_code)]
fn _assert_service_is_shareable() {
    fn check<T: Send + Sync + Clone>() {}
    check::<LaqyService>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::{AggSpec, ColRef, Column, Predicate, QueryPlan};

    use crate::interval::Interval;
    use crate::sampler_ops::Sample;
    use std::borrow::Cow;

    fn catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                vec![
                    ("key".into(), Column::Int64((0..n).collect())),
                    ("g".into(), Column::Int64((0..n).map(|i| i % 4).collect())),
                    ("h".into(), Column::Int64((0..n).map(|i| i % 200).collect())),
                    ("v".into(), Column::Int64((0..n).map(|i| i % 100).collect())),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn query(lo: i64, hi: i64) -> ApproxQuery {
        ApproxQuery {
            plan: QueryPlan {
                fact: "t".into(),
                predicate: Predicate::True,
                joins: vec![],
                group_by: vec![ColRef::fact("g")],
                aggs: vec![AggSpec::sum("v"), AggSpec::count()],
            },
            range_column: "key".into(),
            range: Interval::new(lo, hi),
            k: 64,
        }
    }

    /// Rows of the arm table's fact table: several 64Ki-row morsels, so a
    /// row cap can cut a scan short.
    const N: i64 = 200_000;

    fn single_threaded(rows: i64, conservative: bool) -> LaqyService {
        let policy = SupportPolicy {
            conservative,
            ..Default::default()
        };
        LaqyService::with_config(
            catalog(rows),
            SessionConfig {
                threads: 1,
                policy,
                ..Default::default()
            },
        )
    }

    /// `query` with a fixed fact predicate every row passes: part of the
    /// sampler's identity, so ingest leaves this family's samples stale.
    fn gated(lo: i64, hi: i64) -> ApproxQuery {
        let mut q = query(lo, hi);
        q.plan.predicate = Predicate::between("v", 0, 99);
        q
    }

    /// `query` over 200 strata: a family of its own.
    fn many_strata(lo: i64, hi: i64) -> ApproxQuery {
        let mut q = query(lo, hi);
        q.plan.group_by = vec![ColRef::fact("h")];
        q
    }

    /// Store samples of `ranges` side by side (`absorb` would union them).
    fn import_apart(service: &LaqyService, ranges: &[(i64, i64)]) {
        let mut parts = SampleStore::new();
        for &(lo, hi) in ranges {
            let warm = single_threaded(N, false);
            warm.run(&query(lo, hi)).unwrap();
            for s in warm.store().iter_samples() {
                let sample = Arc::clone(&s.sample);
                parts.insert_raw(s.descriptor.clone(), s.schema.clone(), sample, s.watermark);
            }
        }
        service
            .import_samples(&crate::persist::save_store(&parts))
            .unwrap();
    }

    /// One row of the arm table: what to store first, the measured query,
    /// and what `finish` must have stamped and counted for it.
    struct ArmCase {
        name: &'static str,
        conservative: bool,
        setup: fn(&LaqyService),
        run: fn(&LaqyService) -> Result<ApproxResult>,
        reuse: ReuseClass,
        /// Which of `[full_hits, partial_merges, online_runs]` moves.
        counter: Option<usize>,
        selectivity: f64,
        degraded: bool,
        /// `(fragments_reused, fragments_scanned)` of the answer.
        parts: (u64, u64),
    }

    #[test]
    fn every_arm_goes_through_one_finish() {
        let case = |name, reuse, counter, selectivity| ArmCase {
            name,
            conservative: false,
            setup: |_| {},
            run: |s| s.run(&query(0, N / 2 - 1)),
            reuse,
            counter,
            selectivity,
            degraded: false,
            parts: (0, 0),
        };
        let warm_half: fn(&LaqyService) = |s| {
            s.run(&query(0, N / 2 - 1)).unwrap();
        };
        let cases = [
            case("online, absorbed", ReuseClass::Online, Some(2), 1.0),
            ArmCase {
                setup: warm_half,
                run: |s| s.run(&query(0, N - 1)),
                parts: (1, 1),
                ..case("coverage: fragment only", ReuseClass::Partial, Some(1), 0.5)
            },
            ArmCase {
                setup: |s| {
                    s.run(&gated(0, N + 999)).unwrap();
                    s.ingest("t", batch(N, 1000)).unwrap();
                },
                run: |s| s.run(&gated(0, N + 999)),
                parts: (1, 1),
                ..case("coverage: tail only", ReuseClass::Partial, Some(1), 0.0)
            },
            ArmCase {
                // Two fragments side by side: the plan reuses the one
                // covering more of the query and Δ-scans the rest.
                setup: |s| import_apart(s, &[(0, N / 4 - 1), (N / 2, N - 1)]),
                run: |s| s.run(&query(0, N - 1)),
                parts: (1, 1),
                ..case(
                    "coverage: fragmented import",
                    ReuseClass::Partial,
                    Some(1),
                    0.5,
                )
            },
            ArmCase {
                setup: warm_half,
                ..case("full hit", ReuseClass::Full, Some(0), 0.0)
            },
            ArmCase {
                setup: warm_half,
                run: |s| s.run(&query(N / 8, N / 4)),
                ..case("tightened full hit", ReuseClass::Full, Some(0), 0.0)
            },
            ArmCase {
                run: |s| s.run_with_budget(&query(0, N - 1), QueryBudget::with_row_cap(70_000)),
                degraded: true,
                ..case("degraded online", ReuseClass::Online, Some(2), 1.0)
            },
            ArmCase {
                setup: warm_half,
                run: |s| s.run_with_budget(&query(0, N - 1), QueryBudget::with_row_cap(70_000)),
                degraded: true,
                parts: (1, 1),
                ..case("degraded coverage", ReuseClass::Partial, Some(1), 0.5)
            },
            ArmCase {
                run: |s| s.run_online_oblivious(&query(0, N / 2 - 1)),
                ..case("oblivious", ReuseClass::Online, None, 1.0)
            },
            ArmCase {
                conservative: true,
                setup: warm_half,
                run: |s| s.run(&query(1000, 5000)),
                ..case("conservative: fell back", ReuseClass::Online, Some(2), 1.0)
            },
        ];

        let stored = |s: &LaqyService| -> Vec<(Predicates, u64, u64)> {
            let store = s.store();
            let rows = store.iter_samples().map(|s| {
                (
                    s.descriptor.predicates.clone(),
                    s.watermark,
                    s.sample.total_weight(),
                )
            });
            rows.collect()
        };
        let arms = |s: &ServiceStats| [s.full_hits, s.partial_merges, s.online_runs];
        for case in cases {
            let name = case.name;
            let service = single_threaded(N, case.conservative);
            (case.setup)(&service);
            let (before, stored_before) = (service.stats(), stored(&service));
            let result = (case.run)(&service).unwrap_or_else(|e| panic!("{name}: {e}"));
            let after = service.stats();

            assert_eq!(result.stats.reuse, Some(case.reuse), "{name}");
            let selectivity = result.stats.effective_selectivity;
            assert!(
                (selectivity - case.selectivity).abs() < 1e-3,
                "{name}: {selectivity}"
            );
            assert!(result.stats.total >= result.stats.phases_total(), "{name}");
            assert!(!result.groups.is_empty(), "{name}");
            let parts = (
                result.stats.fragments_reused,
                result.stats.fragments_scanned,
            );
            assert_eq!(parts, case.parts, "{name}");
            assert_eq!(result.stats.degraded.is_some(), case.degraded, "{name}");
            if case.degraded {
                assert_eq!(
                    stored(&service),
                    stored_before,
                    "{name}: degraded ⇒ nothing absorbed"
                );
                assert_eq!(
                    after.degraded_answers,
                    before.degraded_answers + 1,
                    "{name}"
                );
            }
            let moved: Vec<u64> = arms(&after)
                .iter()
                .zip(arms(&before))
                .map(|(a, b)| a - b)
                .collect();
            let mut expected = vec![0; 3];
            if let Some(counter) = case.counter {
                expected[counter] = 1;
            }
            assert_eq!(moved, expected, "{name}: exactly the arm's counter moves");
            assert_eq!(
                after.queries,
                after.full_hits + after.partial_merges + after.online_runs,
                "{name}"
            );
            assert_eq!(
                after.support_fallbacks,
                u64::from(case.conservative),
                "{name}"
            );
            if case.conservative {
                // The hit was short of support: the online plan scanned
                // the window, and the store keeps its sample.
                assert!(result.stats.scanned_rows > 0, "{name}: the fallback scans");
                let window = Predicates::on("key", IntervalSet::of(Interval::new(1000, 5000)));
                let added: Vec<_> = (stored(&service).into_iter())
                    .filter(|s| !stored_before.contains(s))
                    .collect();
                assert_eq!(added.len(), 1, "{name}: {added:?}");
                assert_eq!(added[0].0, window, "{name}: the window's sample is stored");
            }
        }
    }

    /// A bare `GROUP BY` (no aggregate: the planner accepts one) is
    /// classified from its groups' matching rows on every arm: the full
    /// hit reports what the online run that stored its sample reported,
    /// not every stratum `empty` for want of an aggregate's support.
    #[test]
    fn a_query_without_aggregates_reports_the_same_support_on_every_arm() {
        let service = single_threaded(N, false);
        let mut q = query(0, 5_000);
        // 200 strata of 25 matching rows each: under the default 30.
        q.plan.group_by = vec![ColRef::fact("h")];
        q.plan.aggs.clear();
        let online = service.run(&q).unwrap();
        let full = service.run(&q).unwrap();
        assert_eq!(online.stats.reuse, Some(ReuseClass::Online));
        assert_eq!(full.stats.reuse, Some(ReuseClass::Full));
        assert_eq!(online.support.under_supported_len(), 200);
        assert_eq!(full.support, online.support);
        assert_eq!(full.groups, online.groups);
    }

    /// The stored sample a full hit on `q` reads *now*, and what
    /// `estimate()` answers `q` from it.
    fn hit_oracle(service: &LaqyService, q: &ApproxQuery) -> (Arc<Sample>, Groups) {
        let catalog = service.catalog().clone();
        let executor = LaqyExecutor::new(1, SupportPolicy::default(), 0);
        let descriptor = executor.descriptor(&catalog, q).unwrap();
        let watermark = catalog.table("t").unwrap().row_watermark();
        let store = service.store();
        let plan = plan_lazy(&store, &descriptor, watermark);
        let Some(id) = plan.hit() else {
            panic!("not a full hit: {plan:?}");
        };
        let stored = store.peek(id).unwrap();
        let tighten = Predicates::on(q.range_column.clone(), IntervalSet::of(q.range));
        let opts = crate::estimate::EstimateOptions {
            tighten: Some(&tighten),
        };
        let groups = crate::estimate::estimate(&stored.sample, &stored.schema, &q.plan.aggs, &opts);
        (Arc::clone(&stored.sample), groups.unwrap())
    }

    #[test]
    fn every_write_step_is_followed_by_a_fresh_image() {
        /// One row: a store holding `before`'s sample, already hit, the
        /// write step, and a query the written sample fully covers.
        struct WriteCase {
            name: &'static str,
            config: fn() -> SessionConfig,
            before: ApproxQuery,
            write: fn(&LaqyService),
            hit: ApproxQuery,
        }
        let one_thread = || SessionConfig {
            threads: 1,
            ..Default::default()
        };
        let case = |name, write, hit| WriteCase {
            name,
            config: one_thread,
            before: query(0, N / 4 - 1),
            write,
            hit,
        };
        let cases = [
            case(
                "absorb: disjoint range merged into the stored sample",
                |s| {
                    let r = s.run(&query(N / 2, N - 1)).unwrap();
                    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
                },
                query(N / 2, N / 2 + N / 8),
            ),
            WriteCase {
                config: || SessionConfig {
                    threads: 1,
                    reuse_mode: ReuseMode::FullMatchOnly,
                    ..Default::default()
                },
                ..case(
                    "absorb: subsuming sample replaces the stored one",
                    |s| {
                        let r = s.run(&query(0, N - 1)).unwrap();
                        assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
                    },
                    query(10, N / 8),
                )
            },
            case(
                "absorb_coverage: planned sample and Δ consolidated in place",
                |s| {
                    let r = s.run(&query(0, N / 2 - 1)).unwrap();
                    assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
                },
                query(10, N / 8),
            ),
            WriteCase {
                before: gated(0, N + 999),
                ..case(
                    "absorb_coverage copy arm + absorb_tail: a stale sample caught up",
                    |s| {
                        s.ingest("t", batch(N, 1000)).unwrap();
                        let r = s.run(&gated(0, N + 999)).unwrap();
                        assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
                        assert_eq!(r.stats.fragments_scanned, 1, "the tail");
                    },
                    gated(N - 5000, N + 500),
                )
            },
            WriteCase {
                before: query(0, N + 999),
                ..case(
                    "absorb_appended: ingest offers the batch to the reservoirs",
                    |s| {
                        s.ingest("t", batch(N, 1000)).unwrap();
                        assert_eq!(s.stats().absorbed_samples, 1);
                    },
                    query(N - 5000, N + 500),
                )
            },
            case(
                "import_samples: the store replaced from a snapshot",
                |s| import_apart(s, &[(N / 2, N - 1)]),
                query(N / 2, N / 2 + N / 8),
            ),
            case(
                "clear_samples, then the same range sampled again",
                |s| {
                    s.clear_samples();
                    let r = s.run(&query(0, N / 4 - 1)).unwrap();
                    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
                },
                query(10, N / 8),
            ),
            WriteCase {
                // Room for one sample, and a second family: writing it
                // evicts the first.
                config: || SessionConfig {
                    threads: 1,
                    store_budget_bytes: Some(1),
                    ..Default::default()
                },
                ..case(
                    "budget eviction: the survivor is the sample just written",
                    |s| {
                        s.run(&many_strata(0, N / 4 - 1)).unwrap();
                        assert_eq!(s.store().len(), 1);
                    },
                    many_strata(10, N / 8),
                )
            },
        ];
        for case in cases {
            let name = case.name;
            let service = LaqyService::with_config(catalog(N), (case.config)());
            service.run(&case.before).unwrap();
            // Hits on the sample the write step is about to change, then
            // on the one it leaves: each answers as `estimate()` over the
            // sample as it rests, and none builds anything — the store's
            // bytes and the sample it holds are what the write left.
            let hit_twice = |q: &ApproxQuery| {
                let (sample, oracle) = hit_oracle(&service, q);
                let at_rest = matches!(sample.key_order(), Cow::Borrowed(_));
                assert!(at_rest, "{name}: the store keeps the key order a hit walks");
                let bytes = service.store().total_bytes();
                for _ in 0..2 {
                    let r = service.run(q).unwrap();
                    assert_eq!(r.stats.reuse, Some(ReuseClass::Full), "{name}");
                    assert_eq!(r.groups, oracle, "{name}");
                }
                assert!(Arc::ptr_eq(&hit_oracle(&service, q).0, &sample), "{name}");
                assert_eq!(
                    service.store().total_bytes(),
                    bytes,
                    "{name}: a hit builds nothing"
                );
            };
            hit_twice(&case.before);
            (case.write)(&service);
            hit_twice(&case.hit);
        }
    }

    /// A stored sample whose value columns are a superset of a query's
    /// (another fingerprint: `COUNT` alone carries only the range column)
    /// answers it as a full hit: every family shares the one store.
    #[test]
    fn a_sample_with_more_value_columns_answers_a_query_needing_fewer() {
        let service = single_threaded(N, false);
        service.run(&query(0, N / 2 - 1)).unwrap();
        let mut count_only = query(10, N / 8);
        count_only.plan.aggs = vec![AggSpec::count()];
        let r = service.run(&count_only).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
        assert_eq!(service.store().len(), 1);
    }

    #[test]
    fn reuse_arms_and_counters_line_up() {
        let service = single_threaded(4000, false);
        let a = service.run(&query(0, 1999)).unwrap();
        assert_eq!(a.stats.reuse, Some(ReuseClass::Online));
        let b = service.run(&query(500, 1500)).unwrap();
        assert_eq!(b.stats.reuse, Some(ReuseClass::Full));
        let c = service.run(&query(0, 2999)).unwrap();
        assert_eq!(c.stats.reuse, Some(ReuseClass::Partial));
        assert_eq!(
            (c.stats.fragments_reused, c.stats.fragments_scanned),
            (1, 1)
        );
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.online_runs, 1);
        assert_eq!(stats.full_hits, 1);
        assert_eq!(stats.partial_merges, 1);
        assert_eq!(stats.delta_scans, 1);
        assert_eq!(stats.merges_deduped, 0);
    }

    #[test]
    fn unknown_table_is_engine_error() {
        let service = LaqyService::new(Catalog::new());
        let err = service.run(&query(0, 10)).unwrap_err();
        assert!(matches!(err, LaqyError::Engine(_)));
        let err = service.run_online_oblivious(&query(0, 10)).unwrap_err();
        assert!(matches!(err, LaqyError::Engine(_)));
    }

    #[test]
    fn clones_share_the_store() {
        let service = LaqyService::with_config(
            catalog(2000),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let other = service.clone();
        service.run(&query(0, 999)).unwrap();
        assert_eq!(other.store().len(), 1);
        let r = other.run(&query(100, 800)).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    }

    #[test]
    fn oblivious_runs_do_not_touch_the_store() {
        let service = LaqyService::with_config(
            catalog(2000),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        service.run_online_oblivious(&query(0, 999)).unwrap();
        assert!(service.store().is_empty());
        assert_eq!(service.stats().online_runs, 0);
    }

    /// One group's key, and its aggregates' value and half-width bits and
    /// support.
    type GroupBits = (Vec<i64>, Vec<(u64, u64, usize)>);

    /// Every group's key, value and half-width bits and support: `==` on
    /// these is bit identity.
    fn answer_bits(groups: &Groups) -> Vec<GroupBits> {
        let agg =
            |a: &crate::AggEstimate| (a.value.to_bits(), a.ci_half_width.to_bits(), a.support);
        let group =
            |g: crate::estimate::Group<'_>| (g.key.to_vec(), g.values.iter().map(agg).collect());
        groups.iter().map(group).collect()
    }

    #[test]
    fn a_sample_estimated_over_its_own_box_needs_no_tightening() {
        // Every row of a stored sample lies inside its box, so tightening
        // to the box sets every hit bit: the walk's answer is the
        // untightened one, bit for bit, whichever write left the sample.
        // The service skips exactly that tightening and keeps one whose
        // query is a key narrower than the box.
        type Write = (&'static str, fn(&LaqyService));
        let writes: [Write; 4] = [
            ("Δ-merge", |s| {
                s.run(&query(0, N / 4 - 1)).unwrap();
                let r = s.run(&query(0, N / 2 - 1)).unwrap();
                assert_eq!(r.stats.reuse, Some(ReuseClass::Partial));
            }),
            ("tail absorb", |s| {
                s.run(&gated(0, N + 999)).unwrap();
                s.ingest("t", batch(N, 1000)).unwrap();
                let r = s.run(&gated(0, N + 999)).unwrap();
                assert_eq!(r.stats.fragments_scanned, 1, "the tail");
            }),
            ("ingest absorb", |s| {
                s.run(&query(0, N + 999)).unwrap();
                s.ingest("t", batch(N, 1000)).unwrap();
                assert_eq!(s.stats().absorbed_samples, 1);
            }),
            ("snapshot restore", |s| {
                s.run(&query(N / 4, N / 2)).unwrap();
                let bytes = s.export_samples();
                s.clear_samples();
                s.import_samples(&bytes).unwrap();
            }),
        ];
        let aggs = [AggSpec::sum("v"), AggSpec::count(), AggSpec::avg("v")];
        for (name, write) in writes {
            let service = single_threaded(N, false);
            write(&service);
            let store = service.store();
            assert_eq!(store.len(), 1, "{name}");
            for stored in store.iter_samples() {
                let bounds = &stored.descriptor.predicates;
                let answer = |tighten| {
                    let opts = EstimateOptions { tighten };
                    answer_bits(&estimate(&stored.sample, &stored.schema, &aggs, &opts).unwrap())
                };
                assert_eq!(answer(Some(bounds)), answer(None), "{name}");
                let [box_] = bounds.get("key").unwrap().intervals() else {
                    panic!("{name}: one interval");
                };
                let token = CancelToken::unbounded();
                let (same, narrower) = (query(box_.lo, box_.hi), query(box_.lo, box_.hi - 1));
                let at = |q| service.begin(q, &token, Instant::now()).unwrap();
                assert_eq!(at(&same).tightening(Some(bounds)), None, "{name}");
                let narrower = at(&narrower);
                assert_eq!(
                    narrower.tightening(Some(bounds)),
                    Some(&narrower.tighten),
                    "{name}"
                );
            }
        }
    }

    /// Column batch continuing `catalog(n)`'s value patterns for rows
    /// `[from, from + rows)`.
    fn batch(from: i64, rows: i64) -> Vec<(String, Column)> {
        vec![
            ("key".into(), Column::Int64((from..from + rows).collect())),
            (
                "g".into(),
                Column::Int64((from..from + rows).map(|i| i % 4).collect()),
            ),
            (
                "h".into(),
                Column::Int64((from..from + rows).map(|i| i % 200).collect()),
            ),
            (
                "v".into(),
                Column::Int64((from..from + rows).map(|i| i % 100).collect()),
            ),
        ]
    }

    #[test]
    fn ingest_publishes_next_epoch_and_absorbs_stored_samples() {
        let service = LaqyService::with_config(
            catalog(2000),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        // Warm the store with a range reaching past the current rows, so
        // appended keys land inside the sample's own population.
        service.run(&query(0, 2499)).unwrap();
        let before = service.store();
        let (_, s) = before.iter().next().unwrap();
        assert_eq!(s.watermark, 2000);

        let old_epoch = service.catalog().table("t").unwrap().epoch();
        assert_eq!(service.ingest("t", batch(2000, 500)).unwrap(), 2500);
        {
            let catalog = service.catalog();
            let t = catalog.table("t").unwrap();
            assert_eq!(t.num_rows(), 2500);
            assert_eq!(t.epoch(), old_epoch + 1);
        }
        // The stored sample absorbed the appended rows in place — no
        // eviction, watermark caught up to the new epoch.
        let after = service.store();
        let (_, s) = after.iter().next().unwrap();
        assert_eq!(s.watermark, 2500);
        let stats = service.stats();
        assert_eq!(stats.ingest_batches, 1);
        assert_eq!(stats.ingest_rows, 500);
        assert_eq!(stats.absorbed_samples, 1);
        assert_eq!(stats.absorbed_rows, 500);
        assert_eq!(stats.wal_appends, 0); // WAL not enabled

        // The caught-up sample still answers queries over its original
        // region as a plain full hit.
        let r = service.run(&query(500, 1500)).unwrap();
        assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    }

    #[test]
    fn ingest_rejects_malformed_batches_without_publishing() {
        let service = LaqyService::new(catalog(100));
        let bad = vec![("key".into(), Column::Int64(vec![1, 2, 3]))];
        assert!(service.ingest("t", bad).is_err());
        assert!(service.ingest("missing", batch(0, 4)).is_err());
        assert_eq!(service.catalog().table("t").unwrap().num_rows(), 100);
        assert_eq!(service.stats().ingest_batches, 0);
    }

    #[test]
    fn wal_recovery_replays_ingest_to_a_consistent_point() {
        let dir = std::env::temp_dir().join(format!("laqy_svc_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_dir = dir.join("wal");
        let snap_dir = dir.join("snap");
        std::fs::create_dir_all(&wal_dir).unwrap();
        std::fs::create_dir_all(&snap_dir).unwrap();

        let service = LaqyService::with_config(
            catalog(2000),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        service.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        service.run(&query(0, 1999)).unwrap();
        service.ingest("t", batch(2000, 300)).unwrap();
        service.save_snapshot(&snap_dir).unwrap();
        service.ingest("t", batch(2300, 200)).unwrap();
        let surviving = service.store();

        // "Crash": a fresh service holding only the pre-ingest base
        // catalog recovers from snapshot + WAL.
        let recovered = LaqyService::with_config(
            catalog(2000),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let report = recovered.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        assert!(report.wal_records >= 2);
        assert!(!report.wal_torn_tail);
        assert_eq!(recovered.catalog().table("t").unwrap().num_rows(), 2500);
        // The recovered store landed on the recovered watermark: samples
        // caught up to row 2500, same as the surviving service.
        let store = recovered.store();
        let (_, r) = store.iter().next().unwrap();
        let (_, s) = surviving.iter().next().unwrap();
        assert_eq!(r.watermark, 2500);
        assert_eq!(r.watermark, s.watermark);
        assert!(recovered.stats().wal_replays >= 2);
        // And the recovered WAL stays usable for further durable ingest.
        recovered.ingest("t", batch(2500, 100)).unwrap();
        assert_eq!(recovered.catalog().table("t").unwrap().num_rows(), 2600);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_ingest_over_the_wal_record_cap_is_refused_and_later_acks_survive() {
        let dir = std::env::temp_dir().join(format!("laqy_svc_wal_cap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal_dir, snap_dir) = (dir.join("wal"), dir.join("snap"));
        let service = LaqyService::new(catalog(100));
        service.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        // Four `Int64` columns: 32 B a row in the record, one row too many.
        let rows = crate::wal::MAX_WAL_RECORD_BYTES as i64 / 32 + 1;
        let err = service.ingest("t", batch(100, rows)).unwrap_err();
        assert!(err.to_string().contains("-byte cap"), "{err}");
        assert_eq!(service.catalog().table("t").unwrap().row_watermark(), 100);
        assert_eq!(service.stats().wal_appends, 0);
        // Nothing reached the log, so the WAL is still on: the next batch
        // is logged, and a recovery replays it.
        assert_eq!(service.ingest("t", batch(100, 50)).unwrap(), 150);
        assert_eq!(service.stats().wal_appends, 1);
        let recovered = LaqyService::new(catalog(100));
        let report = recovered.recover_with_wal(&snap_dir, &wal_dir).unwrap();
        assert_eq!((report.wal_records, report.wal_torn_tail), (1, false));
        assert_eq!(recovered.catalog().table("t").unwrap().num_rows(), 150);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_claim_takes_every_key_or_none_and_a_waiter_wakes_on_release() {
        let service = LaqyService::new(catalog(100));
        let keys = |names: &[&str]| names.iter().map(|k| k.to_string()).collect::<Vec<_>>();
        let held = service.claim(keys(&["b"])).unwrap();
        assert_eq!(service.claim(keys(&["a", "b"])).err(), Some(keys(&["b"])));
        // The busy claim left `a` unclaimed.
        drop(service.claim(keys(&["a"])).unwrap());
        let waiter = {
            let service = service.clone();
            std::thread::spawn(move || service.wait_released(&keys(&["b"])))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "a waiter returned while `b` was held"
        );
        drop(held);
        waiter.join().unwrap();
        assert!(service.claim(keys(&["a", "b"])).is_ok());
    }
}
