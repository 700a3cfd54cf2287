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
//! - **Sharded store**: the sample store is a [`ShardedStore`] — N
//!   independent `SampleStore`s, each behind its own named
//!   `laqy_sync::RwLock`, routed by descriptor fingerprint. Queries with
//!   different fingerprints never contend; all reuse/merge candidates
//!   for one query share its fingerprint and therefore its shard, so the
//!   whole plan→scan→merge→absorb flow is single-shard.
//! - **Read path** (classification + full-reuse estimation) runs under
//!   the home shard's *read* guard. LRU touches are relaxed atomic
//!   stores ([`SampleStore::get`]), so readers never take the write lock.
//! - **Write path** (absorb / Δ-merge / eviction) takes the home shard's
//!   write lock only around the in-memory merge — never around the
//!   sampling scan, which is the expensive part and runs lock-free.
//! - **Per-part in-flight dedup registry**: a coverage plan try-claims
//!   (never blocking) one registry slot per residual fragment and per
//!   append tail; an online miss claims one slot for the whole query. All
//!   of an attempt's slots live in one `Claims` value. When two clients'
//!   plans share parts, each part is scanned by exactly one of them: a
//!   client that could not claim everything scans and absorbs what it did
//!   claim, releases *all* its claims, waits for the others, and re-plans
//!   (typically upgrading to full or pure-merge reuse). `Claims` is
//!   consumed by the one function that waits, so overlapping claim sets
//!   cannot deadlock.
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
//! Lock ordering: registry mutexes, shard locks, and the catalog lock
//! are never held while waiting on an in-flight entry; a query path
//! holds at most one shard lock and one registry mutex at a time, never
//! nested; and whole-store operations (snapshot, clear, restore) lock
//! shards in ascending index order. Each shard lock carries its own
//! static class name, so the `laqy_sync` lock-order detector enforces
//! the canonical order instead of skipping same-name edges.
//!
//! Streaming ingest: [`LaqyService::ingest`] appends a batch of rows to
//! a registered table. Each query attempt pins one table epoch by
//! cloning the catalog once up front, so a query concurrent with appends
//! reads a frozen set of rows — never a torn mix of old and new. When a
//! write-ahead log is enabled ([`LaqyService::enable_wal`]), the batch
//! is durably logged and fsynced *before* the new table version is
//! published or any stored sample absorbs the appended rows, so the
//! sample store can never run ahead of what recovery can replay. The
//! whole ingest flow serializes on the `laqy.wal` mutex; it acquires the
//! catalog and shard locks strictly after it (wal → catalog → shards),
//! which keeps the lock graph acyclic.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use laqy_engine::{Catalog, Column, QueryResult, Table, Value};
use laqy_sampling::Lehmer64;
use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::classes;
use laqy_sync::{Condvar, Mutex, RwLock, RwLockReadGuard};

use crate::budget::{apply_degradation, blended_degradation, CancelToken, QueryBudget};
use crate::descriptor::{Predicates, SampleDescriptor};
use crate::estimate::{estimate, EstimateOptions, Estimator, GroupEstimate};
use crate::executor::{
    descriptor_for, payload_schema, support_from_groups, ApproxQuery, ApproxResult, CoverageScans,
    LaqyError, LaqyExecutor, Result, Scope,
};
use crate::interval::IntervalSet;
use crate::lazy::{plan_lazy_capped, LazyPlan, ReuseMode, MAX_COVERAGE_SAMPLES};
use crate::sampler_ops::{Sample, SampleSchema};
use crate::stats::{Counters, ExecStats, ReuseClass, ServiceStats};
use crate::store::{CoveragePlan, SampleId, SampleStore, ShardedStore, STORE_SHARDS};
use crate::support::{SupportPolicy, SupportReport};
use crate::wal::{WalAppender, WalRecord};

// One static lock-class name per in-flight registry shard, from the
// canonical registry (`laqy_sync::classes`), mirroring the store's
// per-shard lock names: distinct names keep the lock-order detector's
// edges meaningful, and the static analyzer reads the same registry.
const INFLIGHT_LOCK_NAMES: [&str; STORE_SHARDS] = laqy_sync::classes::INFLIGHT_REGISTRY_NAMES;

/// Attempts before a query stops chasing invalidated reuse plans and
/// forces online sampling. Each retry means another client changed the
/// store meanwhile, so contention this deep is already pathological.
const MAX_PLAN_RETRIES: u32 = 16;

/// One in-flight sampling operation; waiters block on `cv` until the
/// owner completes (successfully or not) and then re-plan.
struct Inflight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Self {
            done: Mutex::named(classes::INFLIGHT_DONE, false),
            cv: Condvar::named(classes::INFLIGHT_CV),
        }
    }
}

struct ServiceInner {
    catalog: RwLock<Catalog>,
    store: ShardedStore,
    /// In-flight dedup registry, sharded like the store (one mutex per
    /// registry shard, keys routed by [`ShardedStore::registry_shard`]).
    /// A query's fragment keys embed the fragment predicates, so one
    /// coverage plan's claims spread across registry shards instead of
    /// serializing on one mutex.
    inflight: Vec<Mutex<HashMap<String, Arc<Inflight>>>>,
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
    /// Write-ahead log appender (`None` until
    /// [`LaqyService::enable_wal`]). Doubles as the ingest serialization
    /// point: every ingest holds this mutex across log-append, catalog
    /// publish, and sample absorption, so batches apply in WAL order.
    wal: Mutex<Option<WalAppender>>,
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
    /// Optional sample-store byte budget (LRU-evicted, global across
    /// shards).
    pub store_budget_bytes: Option<usize>,
    /// Reuse aggressiveness (ablation switch; default lazy/partial reuse).
    pub reuse_mode: ReuseMode,
    /// Sample-store shard count, clamped to `1..=`[`STORE_SHARDS`]. One
    /// shard reproduces the single-lock layout (the bench baseline).
    pub store_shards: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            threads: laqy_engine::parallel::default_threads(),
            policy: SupportPolicy::default(),
            seed: 0xACE1,
            store_budget_bytes: None,
            reuse_mode: ReuseMode::default(),
            store_shards: STORE_SHARDS,
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
    descriptor: SampleDescriptor,
    /// The pinned fact table's row watermark.
    watermark: u64,
    /// The query predicate a reused sample is tightened to.
    tighten: Predicates,
    /// When the query (not this attempt) started.
    t_start: Instant,
    /// Strata of the largest stored sample the plan selected (0 until a
    /// coverage plan is made): what this attempt's Δ-scans size their
    /// samplers for.
    strata_hint: usize,
}

impl Attempt<'_> {
    /// The executor, and what its pipelines run against.
    fn pipeline(&mut self) -> (&mut LaqyExecutor, Scope<'_>) {
        let scope = Scope {
            catalog: &self.pinned,
            query: self.query,
            schema: &self.schema,
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

/// An arm's estimate on its way into [`LaqyService::finish`].
struct Estimated {
    groups: Vec<GroupEstimate>,
    stats: ExecStats,
    /// Support of the full-region sample, from the arms that drew one; a
    /// reuse arm's is derived from the groups' tightened counts.
    support: Option<SupportReport>,
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
        let store = ShardedStore::new(config.store_shards, config.store_budget_bytes);
        let registry_shards = store.num_shards();
        Self {
            inner: Arc::new(ServiceInner {
                catalog: RwLock::named(classes::CATALOG, catalog),
                store,
                inflight: (0..registry_shards)
                    .map(|i| Mutex::named(INFLIGHT_LOCK_NAMES[i], HashMap::new()))
                    .collect(),
                counters: Counters::default(),
                threads: config.threads,
                policy: config.policy,
                mode: config.reuse_mode,
                seed: AtomicU64::new(config.seed),
                sampling_hold_nanos: AtomicU64::new(0),
                wal: Mutex::named(classes::WAL, None),
            }),
        }
    }

    /// Register (or replace) a table. Waits for in-progress queries'
    /// catalog reads to drain. Samples built from a replaced table keep
    /// their old contents until evicted or cleared.
    pub fn register_table(&self, table: Table) {
        self.inner.catalog.write().register(table);
    }

    /// Shared read access to the catalog.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.timed(|i| i.catalog.read())
    }

    /// A coherent owned snapshot of the sample store (inspection / tests
    /// / persistence). Sample ids are preserved; shards are locked in
    /// canonical ascending order while the snapshot is cut.
    pub fn store(&self) -> SampleStore {
        self.timed(|i| i.store.snapshot())
    }

    /// Snapshot of the per-service counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner.counters.snapshot()
    }

    /// Clear all materialized samples (cold-start experiments).
    pub fn clear_samples(&self) {
        self.timed(|i| i.store.clear());
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
        // wal → shards, the canonical ingest order: holding the WAL mutex
        // across the store snapshot pins the snapshot to a WAL position —
        // no ingest can slip between the store cut and the checkpoint.
        let mut wal = self.timed(|i| i.wal.lock());
        let store = self.store();
        // laqy-lint: allow(guard-blocking-op) -- intentional: the snapshot write is pinned to a frozen WAL position; releasing `laqy.wal` before the fsync would let ingest move the log past the cut.
        let generation = crate::persist::save_snapshot(&store, dir)?;
        if let Some(w) = wal.as_mut() {
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
            // laqy-lint: allow(guard-blocking-op) -- the checkpoint record must be ordered against concurrent ingest appends; `laqy.wal` provides exactly that order.
            let append = w.append(&WalRecord::Checkpoint {
                generation,
                watermarks,
            });
            if let Err(e) = append {
                // Same discipline as `ingest`: a failed append may have
                // torn the segment tail, and appending past it would make
                // every later record unreachable at replay. Disable the
                // WAL until `enable_wal` re-opens (and truncates) it. The
                // snapshot itself is already durable.
                *wal = None;
                return Err(e);
            }
            self.inner
                .counters
                .wal_appends
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(generation)
    }

    /// Replace the sample store from the newest loadable snapshot
    /// generation in `dir`, falling back past corrupt or truncated tails
    /// (see [`crate::persist::recover_snapshot`]). Advances the
    /// `snapshots_recovered` counter when recovery had to discard a
    /// newer, damaged generation.
    pub fn recover_from_dir(
        &self,
        dir: &std::path::Path,
    ) -> std::result::Result<crate::persist::RecoveryReport, crate::persist::PersistError> {
        let (loaded, report) = crate::persist::recover_snapshot(dir)?;
        self.restore_store(loaded, report.fell_back());
        Ok(report)
    }

    /// Replace the sample store with `loaded` — the one step behind every
    /// restore (import, snapshot recovery, WAL recovery). Counts a
    /// snapshot recovery that `fell_back` past a damaged generation, and
    /// drops every sample whose watermark runs past its live table: a
    /// snapshot cut from a longer table than this one would otherwise
    /// answer with rows the table does not hold.
    fn restore_store(&self, loaded: SampleStore, fell_back: bool) {
        self.timed(|i| i.store.replace_from(loaded));
        if fell_back {
            self.inner
                .counters
                .snapshots_recovered
                .fetch_add(1, Ordering::Relaxed);
        }
        for t in self.pinned_tables() {
            for shard in 0..self.inner.store.num_shards() {
                self.timed(|i| i.store.write_shard(shard))
                    .drop_beyond(t.name(), t.row_watermark());
            }
        }
    }

    /// Append a batch of rows to registered table `table`, returning the
    /// new row watermark. The batch must carry exactly the table's
    /// columns (matched by name, any order) with equal lengths.
    ///
    /// Ordering guarantees, all under the `laqy.wal` mutex (ingests are
    /// serialized; queries are not — they keep reading their pinned
    /// epoch):
    ///
    /// 1. the next table version is *built* first (pure validation — a
    ///    malformed batch changes nothing);
    /// 2. with a WAL enabled, the batch is appended and fsynced — if the
    ///    log write fails, the batch is not published and the WAL is
    ///    disabled until [`LaqyService::enable_wal`] re-opens (and
    ///    truncates) it, so a torn segment tail can never be appended
    ///    past;
    /// 3. the new version is published in the catalog (appends never
    ///    mutate the version concurrent readers pinned);
    /// 4. stored samples absorb the appended rows via incremental
    ///    reservoir maintenance ([`SampleStore::absorb_appended`]), shard
    ///    by shard in ascending lock order.
    pub fn ingest(&self, table: &str, batch: Vec<(String, Column)>) -> Result<u64> {
        let rows = batch.first().map(|(_, c)| c.len()).unwrap_or(0) as u64;
        let mut wal = self.timed(|i| i.wal.lock());
        let (new_table, base_rows) = {
            let catalog = self.catalog();
            let current = catalog.table(table)?;
            (current.append_batch(&batch)?, current.num_rows() as u64)
        };
        if let Some(w) = wal.as_mut() {
            // laqy-lint: allow(guard-blocking-op) -- durable-before-publish: the append+fsync under `laqy.wal` is the ingest serialization point (see the ordering contract in the doc comment).
            let append = w.append(&WalRecord::Batch {
                table: table.to_string(),
                base_rows,
                columns: batch,
            });
            if let Err(e) = append {
                *wal = None;
                return Err(LaqyError::Unsupported(format!(
                    "wal append failed (wal disabled): {e}"
                )));
            }
            self.inner
                .counters
                .wal_appends
                .fetch_add(1, Ordering::Relaxed);
        }
        let published = self.timed(|i| i.catalog.write()).register(new_table);
        self.absorb_published(&published);
        let c = &self.inner.counters;
        c.ingest_batches.fetch_add(1, Ordering::Relaxed);
        c.ingest_rows.fetch_add(rows, Ordering::Relaxed);
        Ok(published.row_watermark())
    }

    /// Enable the ingest write-ahead log rooted at `dir`. Any intact
    /// records already in the log are replayed first — batches apply
    /// idempotently (a batch whose table already holds more than its
    /// `base_rows` is skipped) and stored samples catch up with the tables
    /// the replay grew — then the
    /// appender opens at the end of the last intact record, truncating a
    /// torn tail. Subsequent [`LaqyService::ingest`] calls are durable:
    /// the batch is logged and fsynced before it is published.
    pub fn enable_wal(
        &self,
        dir: &std::path::Path,
    ) -> std::result::Result<crate::wal::WalReplayReport, crate::persist::PersistError> {
        let mut wal = self.timed(|i| i.wal.lock());
        let (records, replay) = crate::wal::replay(dir)?;
        if !records.is_empty() {
            self.inner
                .counters
                .wal_replays
                .fetch_add(records.len() as u64, Ordering::Relaxed);
            for t in self.apply_wal_batches(&records)? {
                self.absorb_published(&t);
            }
        }
        // laqy-lint: allow(guard-blocking-op) -- torn-tail truncation and appender open must be atomic with respect to ingest; `laqy.wal` is held across the open by design.
        *wal = Some(WalAppender::open_at(dir, replay.end)?);
        Ok(replay)
    }

    /// Crash recovery to one consistent `(snapshot generation, WAL
    /// position)` point: restore the sample store from the newest
    /// loadable snapshot in `snapshot_dir`, replay the WAL in `wal_dir`
    /// on top of the registered tables (idempotently; a torn tail is
    /// discarded and truncated), drop any stored sample whose watermark
    /// runs past the recovered tables (it would reference rows the log
    /// never made durable), catch the survivors up with the tables the
    /// replay grew, and leave the WAL enabled for further ingest.
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
    ) -> std::result::Result<Vec<Arc<Table>>, crate::persist::PersistError> {
        use crate::persist::PersistError;
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
    /// shard's stored samples (ascending shard order), folding the
    /// absorb telemetry into the service counters.
    fn absorb_published(&self, table: &Table) {
        let seed = self
            .inner
            .seed
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let mut rng = Lehmer64::new(seed);
        let mut report = crate::store::AbsorbReport::default();
        for shard in 0..self.inner.store.num_shards() {
            let shard_report = self
                .timed(|i| i.store.write_shard(shard))
                .absorb_appended(table, &mut rng);
            report.merge(&shard_report);
        }
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
        let run = executor.run_online(scope)?;
        let est = Estimated {
            groups: run.groups,
            stats: run.stats,
            support: Some(run.support),
        };
        match self.finish(&mut at, Arm::Oblivious, 1.0, est)? {
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

    /// A fresh per-query executor. Seeds advance through a service-wide
    /// atomic so concurrent queries draw distinct, reproducible streams.
    fn executor(&self) -> LaqyExecutor {
        let seed = self
            .inner
            .seed
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        LaqyExecutor::new(self.inner.threads, self.inner.policy, seed)
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
        let descriptor = descriptor_for(query, &schema);
        let watermark = pinned.table(&query.plan.fact)?.row_watermark();
        Ok(Attempt {
            executor,
            query,
            pinned,
            schema,
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
        let effective = plan.uncovered_fraction(&at.descriptor);
        let (arm, estimated) = match plan {
            LazyPlan::FullReuse { id } => (Arm::Full, self.fetch(&at, id)?),
            LazyPlan::CoverageReuse(plan) => {
                let estimated = self.run_coverage(&mut at, &plan, &snapshot, effective)?;
                (Arm::Coverage, estimated)
            }
            LazyPlan::Online => return self.run_online_absorbing(&mut at),
        };
        match estimated {
            Some(est) => self.finish(&mut at, arm, effective, est),
            None => Ok(Outcome::Retry),
        }
    }

    /// **Plan**: Algorithm 1 against the home shard, under its read guard
    /// (every reuse candidate shares the descriptor's fingerprint, so
    /// planning never needs another shard). The reuse mode caps how many
    /// samples a plan may select and, for all-or-none matching, demotes a
    /// coverage plan to online. For a coverage plan the selected samples'
    /// coverage *and* watermarks are snapshotted under the same guard:
    /// [`Self::merge`] revalidates the store against exactly this
    /// snapshot, so a concurrent absorb (which moves a watermark)
    /// invalidates the plan instead of double-counting tail rows.
    fn plan(&self, at: &mut Attempt<'_>, force_online: bool) -> (LazyPlan, Vec<(Predicates, u64)>) {
        if force_online {
            return (LazyPlan::Online, Vec::new());
        }
        let home = self.inner.store.shard_for(&at.descriptor);
        let store = self.timed(|i| i.store.read_shard(home));
        let cap = match self.inner.mode {
            ReuseMode::SingleSample => 1,
            _ => MAX_COVERAGE_SAMPLES,
        };
        match plan_lazy_capped(&store, &at.descriptor, cap, at.watermark) {
            LazyPlan::CoverageReuse(_) if self.inner.mode == ReuseMode::FullMatchOnly => {
                (LazyPlan::Online, Vec::new())
            }
            LazyPlan::CoverageReuse(plan) => {
                // Were a planned sample somehow missing, the snapshot comes
                // up short, revalidation fails, and the attempt re-plans
                // instead of panicking on a hot path.
                let selected = || plan.samples.iter().filter_map(|id| store.peek(*id));
                at.strata_hint = selected().map(|s| s.sample.num_strata()).max().unwrap_or(0);
                let snapshot = selected()
                    .map(|s| (s.descriptor.predicates.clone(), s.watermark))
                    .collect();
                (LazyPlan::CoverageReuse(plan), snapshot)
            }
            other => (other, Vec::new()),
        }
    }

    /// **Fetch**: estimate the query from stored sample `id` where it
    /// rests, compiled against its schema under the shard's read guard and
    /// walked after releasing it. `None` if the sample vanished since.
    fn fetch(&self, at: &Attempt<'_>, id: SampleId) -> Result<Option<Estimated>> {
        let store = self.timed(|i| i.store.read_shard(i.store.shard_for_id(id)));
        let started = Instant::now();
        let Some(stored) = store.get(id) else {
            return Ok(None);
        };
        let estimator = Estimator::compile(&stored.schema, &at.query.plan.aggs, Some(&at.tighten))?;
        let sample = Arc::clone(&stored.sample);
        drop(store);
        let groups = estimator.estimate(&sample, EstimateOptions::default().z);
        let stats = ExecStats {
            estimate: started.elapsed(),
            ..Default::default()
        };
        Ok(Some(Estimated {
            groups,
            stats,
            support: None,
        }))
    }

    /// **Scan**: try-claim every fragment and tail of the plan, then
    /// Δ-scan the ones we own — lock-free, the expensive part — against
    /// the pinned epoch. Keys hash to different registry shards, so
    /// concurrent plans spanning many parts spread their claims instead of
    /// serializing on one mutex.
    fn scan(
        &self,
        at: &mut Attempt<'_>,
        plan: &CoveragePlan,
    ) -> Result<(Claims<'_>, CoverageScans)> {
        let fingerprint = at.descriptor.fingerprint();
        let fragments = plan
            .fragments
            .iter()
            .map(|f| format!("F|{fingerprint}|{f:?}"));
        let tails = plan
            .tails
            .iter()
            .map(|t| format!("T|{fingerprint}|{:?}|{}", t.id, t.from_row));
        let claims = self.claim(fragments.chain(tails));
        if !claims.owned.is_empty() {
            self.hold_for_test();
        }
        let owned = claims.owned.iter().map(|(part, _)| *part);
        let (executor, scope) = at.pipeline();
        let scans = executor.scan_coverage(scope, plan, owned)?;
        let scanned = scans.scans.len() as u64;
        add(&self.inner.counters.delta_scans, scanned);
        add(&self.inner.counters.fragments_scanned, scanned);
        Ok((claims, scans))
    }

    /// **Merge**: under the home shard's write guard, revalidate that
    /// every selected sample still has exactly the coverage *and* the
    /// watermark of the plan-time `snapshot` (a competing merge, eviction,
    /// or tail absorb would otherwise double-count rows or lose the sample
    /// entirely), then run the store's coverage write step. The stored
    /// samples are read in place and the merged sample is shared with the
    /// store, not copied, so the lock is held for the merge itself and
    /// nothing else. A stale plan — or no snapshot at all, when other
    /// clients are still scanning the rest of the plan — keeps the clean
    /// scan work without merging (tail absorbs stay safe against whatever
    /// invalidated the plan: the `from_row` guard rejects a tail whose
    /// sample moved on) and returns `None`.
    fn merge(
        &self,
        at: &mut Attempt<'_>,
        plan: &CoveragePlan,
        snapshot: Option<&[(Predicates, u64)]>,
        scans: CoverageScans,
    ) -> Option<Arc<Sample>> {
        if snapshot.is_none() && !scans.scans.iter().any(|s| s.clean) {
            return None;
        }
        let home = self.inner.store.shard_for(&at.descriptor);
        let mut store = self.timed(|i| i.store.write_shard(home));
        let valid = snapshot.is_some_and(|snapshot| {
            plan.samples.len() == snapshot.len()
                && plan.samples.iter().zip(snapshot).all(|(id, snap)| {
                    store
                        .peek(*id)
                        .is_some_and(|s| s.descriptor.predicates == snap.0 && s.watermark == snap.1)
                })
        });
        let scans = (scans.scans.into_iter())
            .map(|s| (s.part, s.sample, s.clean))
            .collect();
        let rng = at.executor.rng_mut();
        store.absorb_coverage(&at.descriptor, &at.schema, plan, scans, valid, rng)
    }

    /// Coverage execution: **scan** what we can claim, **merge** with the
    /// selected stored samples, **estimate**. `None` when the attempt must
    /// re-plan: other clients own part of the plan, or it went stale.
    fn run_coverage(
        &self,
        at: &mut Attempt<'_>,
        plan: &CoveragePlan,
        snapshot: &[(Predicates, u64)],
        effective: f64,
    ) -> Result<Option<Estimated>> {
        let c = &self.inner.counters;
        let (claims, mut scans) = self.scan(at, plan)?;
        let mut stats = std::mem::take(&mut scans.stats);
        stats.fragments_scanned = scans.scans.len() as u64;

        if !claims.busy.is_empty() {
            // Concurrent clients are scanning the rest of our plan. Keep
            // our own scan work — each clean Δ sample is a valid sample of
            // its box — then release our claims, wait for the others, and
            // re-plan (normally upgrading to full or pure-merge reuse).
            self.merge(at, plan, None, scans);
            add(&c.fragments_deduped, claims.busy.len() as u64);
            add(&c.merges_deduped, 1);
            claims.release_and_wait();
            return Ok(None);
        }

        // Every part is ours: fold the per-scan coverage into one
        // query-level degradation record (None when every scan ran to
        // completion).
        stats.degraded = blended_degradation(
            stats.degraded.take(),
            scans.coverage,
            plan.fragments.len() + plan.tails.len(),
            scans.skipped,
            effective,
        );
        let t_merge = Instant::now();
        let merge = self.merge(at, plan, Some(snapshot), scans);
        stats.merge = t_merge.elapsed();
        // The store now holds the scan work: waiters may re-plan.
        drop(claims);
        let Some(merged) = merge else {
            add(&c.merge_retries, 1);
            return Ok(None);
        };

        // **Estimate** — lock-free: the merged sample is shared with the
        // store, not borrowed from it.
        let t_est = Instant::now();
        let opts = EstimateOptions {
            tighten: Some(&at.tighten),
            ..Default::default()
        };
        let groups = estimate(&merged, &at.schema, &at.query.plan.aggs, &opts)?;
        stats.estimate += t_est.elapsed();
        stats.fragments_reused = plan.samples.len() as u64;
        add(&c.fragments_reused, plan.samples.len() as u64);
        Ok(Some(Estimated {
            groups,
            stats,
            support: None,
        }))
    }

    /// The no-reuse arm: full online sampling, deduplicating identical
    /// concurrent misses, absorbed into the shared store.
    fn run_online_absorbing(&self, at: &mut Attempt<'_>) -> Result<Outcome> {
        let c = &self.inner.counters;
        let key = format!(
            "O|{}|{:?}",
            at.descriptor.fingerprint(),
            at.descriptor.predicates
        );
        let claims = self.claim(std::iter::once(key));
        if !claims.busy.is_empty() {
            add(&c.online_deduped, 1);
            claims.release_and_wait();
            return Ok(Outcome::Retry);
        }
        self.hold_for_test();

        let (executor, scope) = at.pipeline();
        let run = executor.run_online(scope)?;
        add(&c.online_scans, 1);
        // Capture the sample for future reuse (sample-as-you-query: it was
        // needed anyway, so storing it costs only space) — unless the
        // budget cut the scan short: a degraded sample's descriptor would
        // claim coverage the scan never delivered, poisoning every future
        // reuse decision.
        if run.stats.degraded.is_none() {
            let home = self.inner.store.shard_for(&at.descriptor);
            let mut store = self.timed(|i| i.store.write_shard(home));
            store.absorb(
                at.descriptor.clone(),
                at.schema.clone(),
                run.sample,
                at.watermark,
                at.executor.rng_mut(),
            );
        }
        drop(claims);
        let est = Estimated {
            groups: run.groups,
            stats: run.stats,
            support: Some(run.support),
        };
        self.finish(at, Arm::Online, 1.0, est)
    }

    /// **Finish** — the one exit every arm's estimate takes: apply the
    /// degradation record, derive the support report, run the §5.2.3
    /// conservative fallback (re-sample online, filter pushed down, only
    /// the under-supported strata of a reused sample — validating whether
    /// low support reflects the data or a sampling artifact — or, where
    /// that does not apply, answer from a full online run instead), stamp
    /// the arm and the clock, count the answer.
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
            support,
        } = est;
        let t = Instant::now();
        if let Some(deg) = &stats.degraded {
            apply_degradation(&mut groups, &at.query.plan.aggs, deg);
        }
        // Estimation already counted the tightened support per stratum
        // (strata and output groups coincide: QCS = GROUP BY).
        let mut support = support.unwrap_or_else(|| support_from_groups(&groups, policy));
        stats.estimate += t.elapsed();

        let (class, counter) = match arm {
            Arm::Full => (ReuseClass::Full, Some(&c.full_hits)),
            Arm::Coverage => (ReuseClass::Partial, Some(&c.partial_merges)),
            Arm::Online => (ReuseClass::Online, Some(&c.online_runs)),
            Arm::Oblivious => (ReuseClass::Online, None),
        };
        let (executor, scope) = at.pipeline();
        if matches!(arm, Arm::Full | Arm::Coverage)
            && policy.conservative
            && stats.degraded.is_none()
            && !support.fully_supported()
            && !executor.refine_support(scope, &mut groups, &mut support, &mut stats)?
        {
            add(&c.support_fallbacks, 1);
            return self.run_online_absorbing(at);
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

    /// Try-claim — never blocking — the in-flight slot of every key, in
    /// order.
    fn claim(&self, keys: impl Iterator<Item = String>) -> Claims<'_> {
        let mut claims = Claims {
            owned: Vec::new(),
            busy: Vec::new(),
        };
        for (position, key) in keys.enumerate() {
            let shard = self.inner.store.registry_shard(&key);
            let mut registry = self.inner.inflight[shard].lock();
            match registry.get(&key) {
                Some(entry) => claims.busy.push(Arc::clone(entry)),
                None => {
                    registry.insert(key.clone(), Arc::new(Inflight::new()));
                    let guard = InflightGuard {
                        inner: &self.inner,
                        shard,
                        key,
                    };
                    claims.owned.push((position, guard));
                }
            }
        }
        claims
    }
}

/// Every in-flight slot one attempt claimed — fragments, tails, or the
/// online key alike — and the slots it found taken. Dropping it releases
/// the owned slots, waking their waiters.
struct Claims<'a> {
    /// `(position among the claimed keys, guard)` per slot this attempt
    /// owns.
    owned: Vec<(usize, InflightGuard<'a>)>,
    /// Slots other clients own.
    busy: Vec<Arc<Inflight>>,
}

impl Claims<'_> {
    /// Release every owned slot, then block until each busy slot's owner
    /// completes (successfully or not). The one place the service waits on
    /// an in-flight entry, and it consumes the claims to get here: call it
    /// with no registry, store, or catalog lock held, and two clients with
    /// overlapping claim sets can never wait on each other.
    fn release_and_wait(self) {
        drop(self.owned);
        for entry in self.busy {
            let mut done = entry.done.lock();
            while !*done {
                entry.cv.wait(&mut done);
            }
        }
    }
}

/// Releases an in-flight slot on drop, waking all waiters — also on
/// panic or error unwinding, so waiters can never hang on a dead owner.
struct InflightGuard<'a> {
    inner: &'a ServiceInner,
    shard: usize,
    key: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let entry = self.inner.inflight[self.shard].lock().remove(&self.key);
        if let Some(entry) = entry {
            *entry.done.lock() = true;
            entry.cv.notify_all();
        }
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

    /// `query` over 200 strata: a narrow window under-supports more of
    /// them than the per-stratum fallback re-samples.
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
                setup: |s| import_apart(s, &[(0, N / 4 - 1), (N / 2, N - 1)]),
                run: |s| s.run(&query(0, N - 1)),
                parts: (2, 1),
                ..case("coverage: k-way", ReuseClass::Partial, Some(1), 0.25)
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
                ..case("conservative: refined", ReuseClass::Full, Some(0), 0.0)
            },
            ArmCase {
                conservative: true,
                setup: |s| {
                    s.run(&many_strata(0, N / 2 - 1)).unwrap();
                },
                run: |s| s.run(&many_strata(1000, 5000)),
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
            let fell_back = name == "conservative: fell back";
            assert_eq!(after.support_fallbacks, u64::from(fell_back), "{name}");
            if case.conservative {
                assert!(result.stats.scanned_rows > 0, "{name}: the fallback scans");
                // A per-stratum probe validates every thin stratum.
                assert!(fell_back || result.support.fully_supported(), "{name}");
            }
        }
    }

    /// The stored sample a full hit on `q` reads *now*, and what
    /// `estimate()` answers `q` from it.
    fn hit_oracle(service: &LaqyService, q: &ApproxQuery) -> (Arc<Sample>, Vec<GroupEstimate>) {
        let catalog = service.catalog().clone();
        let executor = LaqyExecutor::new(1, SupportPolicy::default(), 0);
        let descriptor = executor.descriptor(&catalog, q).unwrap();
        let watermark = catalog.table("t").unwrap().row_watermark();
        let store = service.store();
        let plan = plan_lazy_capped(&store, &descriptor, MAX_COVERAGE_SAMPLES, watermark);
        let LazyPlan::FullReuse { id } = plan else {
            panic!("not a full hit: {plan:?}");
        };
        let stored = store.peek(id).unwrap();
        let tighten = Predicates::on(q.range_column.clone(), IntervalSet::of(q.range));
        let opts = crate::estimate::EstimateOptions {
            tighten: Some(&tighten),
            ..Default::default()
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
                // One shard with room for one sample: the second family
                // evicts the first.
                config: || SessionConfig {
                    threads: 1,
                    store_budget_bytes: Some(1),
                    store_shards: 1,
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
        service.enable_wal(&wal_dir).unwrap();
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
    fn inflight_guard_releases_on_drop() {
        let service = LaqyService::new(catalog(100));
        let claim = || service.claim(std::iter::once("k".to_string()));
        {
            let first = claim();
            assert_eq!((first.owned.len(), first.busy.len()), (1, 0));
            let second = claim();
            assert_eq!((second.owned.len(), second.busy.len()), (0, 1));
            drop(first);
            // The owner is done: waiting returns at once.
            second.release_and_wait();
        }
        // Slot free again: claiming succeeds.
        assert_eq!(claim().owned.len(), 1);
    }
}
