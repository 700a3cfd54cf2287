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
//! - **Per-fragment in-flight dedup registry**: coverage plans claim one
//!   registry slot *per residual fragment* with non-blocking try-claims.
//!   When two clients' plans share fragments, each fragment is scanned by
//!   exactly one of them: a client that could not claim every fragment
//!   scans and absorbs the fragments it did claim, releases its claims,
//!   waits guard-free for the others, and re-plans (typically upgrading
//!   to full or pure-merge reuse). Claims are never held while waiting,
//!   so overlapping claim sets cannot deadlock. Online misses dedup the
//!   same way on a whole-query key.
//! - **Optimistic revalidation**: a coverage merge is validated under the
//!   write lock (every selected sample still present with the exact
//!   coverage it was planned against). If another client's merge or an
//!   eviction invalidated the plan, the fragment samples are absorbed
//!   individually — the scan work is kept, never double-counted — and
//!   the query retries, degrading to online sampling after a bounded
//!   number of attempts.
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

use laqy_sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use laqy_engine::{Catalog, Column, Predicate, QueryResult, Table, Value};
use laqy_sync::classes;
use laqy_sync::{Condvar, Mutex, RwLock, RwLockReadGuard};

use crate::budget::{apply_degradation, blended_degradation, CancelToken, QueryBudget};
use crate::descriptor::{Predicates, SampleDescriptor};
use crate::executor::{
    support_from_groups, ApproxQuery, ApproxResult, CoveragePlanRef, LaqyError, LaqyExecutor,
    Result, ReuseMode,
};
use crate::interval::IntervalSet;
use crate::lazy::{plan_lazy, plan_lazy_capped, LazyPlan};
use crate::session::SessionConfig;
use crate::stats::{ExecStats, ReuseClass, ServiceStats};
use crate::store::{SampleId, SampleStore, ShardedStore, TailFragment, STORE_SHARDS};
use crate::wal::{WalAppender, WalRecord};
use laqy_sampling::Lehmer64;

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

/// Monotonic service-wide counters (all relaxed; they are telemetry, not
/// synchronization).
#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    full_hits: AtomicU64,
    partial_merges: AtomicU64,
    online_runs: AtomicU64,
    delta_scans: AtomicU64,
    online_scans: AtomicU64,
    merges_deduped: AtomicU64,
    online_deduped: AtomicU64,
    merge_retries: AtomicU64,
    support_fallbacks: AtomicU64,
    lock_wait_nanos: AtomicU64,
    morsels_skipped: AtomicU64,
    morsels_fast_pathed: AtomicU64,
    morsels_scanned: AtomicU64,
    lane_covered_rows: AtomicU64,
    fragments_reused: AtomicU64,
    fragments_scanned: AtomicU64,
    fragments_deduped: AtomicU64,
    degraded_answers: AtomicU64,
    faults_injected: AtomicU64,
    snapshots_recovered: AtomicU64,
    ingest_batches: AtomicU64,
    ingest_rows: AtomicU64,
    absorbed_samples: AtomicU64,
    absorbed_rows: AtomicU64,
    wal_appends: AtomicU64,
    wal_replays: AtomicU64,
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
    policy: crate::support::SupportPolicy,
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

/// Outcome of one plan-and-execute attempt.
enum Attempt {
    Done(Box<ApproxResult>),
    /// The store changed under us (eviction, competing merge, or an
    /// in-flight wait completed): re-plan from scratch.
    Retry,
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
    /// their old contents until evicted or cleared (same caveat as the
    /// single-owner session).
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
        let c = &self.inner.counters;
        ServiceStats {
            queries: c.queries.load(Ordering::Relaxed),
            full_hits: c.full_hits.load(Ordering::Relaxed),
            partial_merges: c.partial_merges.load(Ordering::Relaxed),
            online_runs: c.online_runs.load(Ordering::Relaxed),
            delta_scans: c.delta_scans.load(Ordering::Relaxed),
            online_scans: c.online_scans.load(Ordering::Relaxed),
            merges_deduped: c.merges_deduped.load(Ordering::Relaxed),
            online_deduped: c.online_deduped.load(Ordering::Relaxed),
            merge_retries: c.merge_retries.load(Ordering::Relaxed),
            support_fallbacks: c.support_fallbacks.load(Ordering::Relaxed),
            lock_wait_nanos: c.lock_wait_nanos.load(Ordering::Relaxed),
            morsels_skipped: c.morsels_skipped.load(Ordering::Relaxed),
            morsels_fast_pathed: c.morsels_fast_pathed.load(Ordering::Relaxed),
            morsels_scanned: c.morsels_scanned.load(Ordering::Relaxed),
            lane_covered_rows: c.lane_covered_rows.load(Ordering::Relaxed),
            fragments_reused: c.fragments_reused.load(Ordering::Relaxed),
            fragments_scanned: c.fragments_scanned.load(Ordering::Relaxed),
            fragments_deduped: c.fragments_deduped.load(Ordering::Relaxed),
            degraded_answers: c.degraded_answers.load(Ordering::Relaxed),
            faults_injected: c.faults_injected.load(Ordering::Relaxed),
            snapshots_recovered: c.snapshots_recovered.load(Ordering::Relaxed),
            ingest_batches: c.ingest_batches.load(Ordering::Relaxed),
            ingest_rows: c.ingest_rows.load(Ordering::Relaxed),
            absorbed_samples: c.absorbed_samples.load(Ordering::Relaxed),
            absorbed_rows: c.absorbed_rows.load(Ordering::Relaxed),
            wal_appends: c.wal_appends.load(Ordering::Relaxed),
            wal_replays: c.wal_replays.load(Ordering::Relaxed),
        }
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
        self.timed(|i| i.store.replace_from(loaded));
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
        self.timed(|i| i.store.replace_from(loaded));
        if report.fell_back() {
            self.inner
                .counters
                .snapshots_recovered
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
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
    /// `base_rows` is skipped) and stored samples catch up — then the
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
            self.apply_wal_batches(&records)?;
            for t in self.pinned_tables() {
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
    /// never made durable), catch the survivors up to the recovered
    /// watermarks, and leave the WAL enabled for further ingest.
    pub fn recover_with_wal(
        &self,
        snapshot_dir: &std::path::Path,
        wal_dir: &std::path::Path,
    ) -> std::result::Result<crate::persist::RecoveryReport, crate::persist::PersistError> {
        let mut wal = self.timed(|i| i.wal.lock());
        let (loaded, mut report) = crate::persist::recover_snapshot(snapshot_dir)?;
        self.timed(|i| i.store.replace_from(loaded));
        if report.fell_back() {
            self.inner
                .counters
                .snapshots_recovered
                .fetch_add(1, Ordering::Relaxed);
        }
        let (records, replay) = crate::wal::replay(wal_dir)?;
        report.wal_records = replay.records;
        report.wal_torn_tail = replay.torn_tail;
        self.inner
            .counters
            .wal_replays
            .fetch_add(replay.records, Ordering::Relaxed);
        self.apply_wal_batches(&records)?;
        // The snapshot may postdate the last durable batch (its samples
        // were cut from a table state whose rows never hit the log):
        // drop samples past each recovered watermark, then absorb the
        // rest forward. Either way the store lands exactly at the
        // recovered `(generation, WAL position)` point.
        for t in self.pinned_tables() {
            let w = t.row_watermark();
            for shard in 0..self.inner.store.num_shards() {
                self.timed(|i| i.store.write_shard(shard))
                    .drop_beyond(t.name(), w);
            }
            self.absorb_published(&t);
        }
        // laqy-lint: allow(guard-blocking-op) -- recovery must hold `laqy.wal` from replay through appender open: an ingest slipping in between would append at a position the replay never saw.
        *wal = Some(WalAppender::open_at(wal_dir, replay.end)?);
        Ok(report)
    }

    /// Apply replayed WAL batches to the catalog in log order. A batch
    /// is applied only when its table holds exactly `base_rows` rows;
    /// fewer is a gap (corrupt log), more means the batch is already
    /// reflected (idempotent replay over a newer snapshot).
    fn apply_wal_batches(
        &self,
        records: &[WalRecord],
    ) -> std::result::Result<(), crate::persist::PersistError> {
        use crate::persist::PersistError;
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
            self.timed(|i| i.catalog.write()).register(next);
        }
        Ok(())
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
        self.inner.counters.queries.fetch_add(1, Ordering::Relaxed);
        let token = budget.start();
        let mut attempts = 0u32;
        let result = loop {
            attempts += 1;
            match self.try_run(query, &token, t_start, attempts > MAX_PLAN_RETRIES) {
                Ok(Attempt::Done(result)) => break result,
                Ok(Attempt::Retry) => continue,
                Err(e) => {
                    if matches!(e, LaqyError::Injected(_) | LaqyError::WorkerPanic(_)) {
                        self.inner
                            .counters
                            .faults_injected
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        };
        self.note_prune(&result.stats);
        if result.stats.degraded.is_some() {
            self.inner
                .counters
                .degraded_answers
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(*result)
    }

    /// Run with workload-oblivious online sampling (baseline): samples
    /// the full range, stores nothing, touches no shared state beyond a
    /// catalog read.
    pub fn run_online_oblivious(&self, query: &ApproxQuery) -> Result<ApproxResult> {
        let mut executor = self.executor();
        let catalog = self.catalog();
        executor.run_online(&catalog, query)
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

    /// Fold one finished query's zone-map verdict counters into the
    /// service totals.
    fn note_prune(&self, stats: &ExecStats) {
        let c = &self.inner.counters;
        c.morsels_skipped
            .fetch_add(stats.morsels_skipped, Ordering::Relaxed);
        c.morsels_fast_pathed
            .fetch_add(stats.morsels_fast_pathed, Ordering::Relaxed);
        c.morsels_scanned
            .fetch_add(stats.morsels_scanned, Ordering::Relaxed);
        c.lane_covered_rows
            .fetch_add(stats.lane_covered_rows, Ordering::Relaxed);
    }

    /// A fresh per-query executor. Seeds advance through a service-wide
    /// atomic so concurrent queries draw distinct, reproducible streams.
    fn executor(&self) -> LaqyExecutor {
        let seed = self
            .inner
            .seed
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        LaqyExecutor::new(self.inner.threads, self.inner.policy, seed).with_mode(self.inner.mode)
    }

    fn hold_for_test(&self) {
        let nanos = self.inner.sampling_hold_nanos.load(Ordering::Relaxed);
        if nanos > 0 {
            std::thread::sleep(Duration::from_nanos(nanos));
        }
    }

    /// One optimistic plan-and-execute attempt.
    fn try_run(
        &self,
        query: &ApproxQuery,
        token: &CancelToken,
        t_start: Instant,
        force_online: bool,
    ) -> Result<Attempt> {
        let mut executor = self.executor();
        executor.set_budget_token(token.clone());
        // Pin one epoch for the whole attempt: every scan below runs
        // against this clone's frozen table versions (cheap `Arc`
        // clones), so a concurrent ingest can never tear this query
        // across epochs.
        let pinned: Catalog = self.catalog().clone();
        let descriptor = executor.descriptor(&pinned, query)?;
        let watermark = pinned.table(&query.plan.fact)?.row_watermark();
        let tighten = Predicates::on(query.range_column.clone(), IntervalSet::of(query.range));

        let (mut plan, snapshot) = if force_online {
            (LazyPlan::Online, Vec::new())
        } else {
            // Every reuse candidate shares the descriptor's fingerprint,
            // so planning only ever needs the home shard's read guard.
            let home = self.inner.store.shard_for(&descriptor);
            let store = self.timed(|i| i.store.read_shard(home));
            let plan = match self.inner.mode {
                ReuseMode::SingleSample => plan_lazy_capped(&store, &descriptor, 1, watermark),
                _ => plan_lazy(&store, &descriptor, watermark),
            };
            // Snapshot the selected samples' coverage *and* watermarks
            // under the same read guard the plan was made under:
            // run_coverage revalidates the store against this exact
            // snapshot before merging, so a concurrent absorb (which
            // moves a watermark) invalidates the plan instead of
            // double-counting tail rows.
            let snapshot = if let LazyPlan::CoverageReuse { samples, .. } = &plan {
                // Every planned sample is present under this same read
                // guard; if one were somehow missing the snapshot comes
                // up short, revalidation fails, and the attempt re-plans
                // instead of panicking on a hot path.
                samples
                    .iter()
                    .filter_map(|id| {
                        store
                            .peek(*id)
                            .map(|s| (s.descriptor.predicates.clone(), s.watermark))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            (plan, snapshot)
        };
        if self.inner.mode == ReuseMode::FullMatchOnly {
            if let LazyPlan::CoverageReuse { .. } = plan {
                plan = LazyPlan::Online;
            }
        }
        let effective = plan.uncovered_fraction(&descriptor);

        match plan {
            LazyPlan::FullReuse { id } => {
                let pre = ExecStats {
                    effective_selectivity: 0.0,
                    reuse: Some(ReuseClass::Full),
                    ..Default::default()
                };
                match self.estimate_reused(
                    &mut executor,
                    id,
                    query,
                    &pinned,
                    &tighten,
                    pre,
                    t_start,
                )? {
                    Some(result) => {
                        self.inner
                            .counters
                            .full_hits
                            .fetch_add(1, Ordering::Relaxed);
                        Ok(Attempt::Done(Box::new(result)))
                    }
                    None => Ok(Attempt::Retry),
                }
            }
            LazyPlan::CoverageReuse {
                samples,
                fragments,
                tails,
            } => self.run_coverage(
                &mut executor,
                query,
                &descriptor,
                &pinned,
                watermark,
                samples,
                snapshot,
                fragments,
                tails,
                effective,
                &tighten,
                t_start,
            ),
            LazyPlan::Online => {
                self.run_online_absorbing(&mut executor, query, &descriptor, &pinned, t_start)
            }
        }
    }

    /// Coverage execution: one Δ-scan per residual fragment and per
    /// stale-sample append tail (each deduplicated against concurrent
    /// clients), a k-way merge with the selected stored samples, then
    /// estimation — with optimistic revalidation under the write lock.
    #[allow(clippy::too_many_arguments)]
    fn run_coverage(
        &self,
        executor: &mut LaqyExecutor,
        query: &ApproxQuery,
        descriptor: &SampleDescriptor,
        pinned: &Catalog,
        watermark: u64,
        samples: Vec<SampleId>,
        snapshot: Vec<(Predicates, u64)>,
        fragments: Vec<Predicates>,
        tails: Vec<TailFragment>,
        effective: f64,
        tighten: &Predicates,
        t_start: Instant,
    ) -> Result<Attempt> {
        let c = &self.inner.counters;
        let home = self.inner.store.shard_for(descriptor);
        // Non-blocking try-claim of every fragment and tail. Claims are
        // never held while waiting, so two clients with overlapping claim
        // sets cannot deadlock on each other. Keys hash to different
        // registry shards, so concurrent plans spanning many fragments
        // spread their claims instead of serializing on one mutex.
        let mut owned: Vec<(usize, InflightGuard<'_>)> = Vec::new();
        let mut owned_tails: Vec<(usize, InflightGuard<'_>)> = Vec::new();
        let mut busy: Vec<Arc<Inflight>> = Vec::new();
        for (i, frag) in fragments.iter().enumerate() {
            let key = format!("F|{}|{:?}", descriptor.fingerprint(), frag);
            match self.try_begin_inflight(&key) {
                Claim::Owner(guard) => owned.push((i, guard)),
                Claim::Busy(entry) => busy.push(entry),
            }
        }
        for (i, tail) in tails.iter().enumerate() {
            let key = format!(
                "T|{}|{:?}|{}",
                descriptor.fingerprint(),
                tail.id,
                tail.from_row
            );
            match self.try_begin_inflight(&key) {
                Claim::Owner(guard) => owned_tails.push((i, guard)),
                Claim::Busy(entry) => busy.push(entry),
            }
        }
        if !owned.is_empty() || !owned_tails.is_empty() {
            self.hold_for_test();
        }

        // Scan the fragments and tails we own — lock-free, the expensive
        // part — against the pinned epoch.
        let (_, schema) = executor.payload_schema(pinned, query)?;
        let mut scans = executor.scan_coverage(
            pinned,
            query,
            owned.iter().map(|(i, _)| (*i, &fragments[*i])),
            owned_tails.iter().map(|(i, _)| (*i, &tails[*i])),
        )?;
        let mut stats = std::mem::take(&mut scans.stats);
        let scanned = (scans.fragments.len() + scans.tails.len()) as u64;
        c.delta_scans.fetch_add(scanned, Ordering::Relaxed);
        c.fragments_scanned.fetch_add(scanned, Ordering::Relaxed);
        stats.fragments_scanned = scanned;
        let plan = CoveragePlanRef {
            descriptor,
            schema: &schema,
            watermark,
            samples: &samples,
            fragments: &fragments,
            tails: &tails,
        };

        if !busy.is_empty() {
            // Concurrent clients are scanning the rest of our fragments.
            // Keep our own scan work — each clean fragment sample is a
            // valid sample of its box — then release our claims, wait
            // guard-free for the others, and re-plan (normally upgrading
            // to full or pure-merge reuse).
            if scans.fragments.iter().chain(&scans.tails).any(|s| s.clean) {
                let mut store = self.timed(|i| i.store.write_shard(home));
                scans.absorb_clean(&mut store, executor.rng_mut(), &plan);
            }
            c.fragments_deduped
                .fetch_add(busy.len() as u64, Ordering::Relaxed);
            c.merges_deduped.fetch_add(1, Ordering::Relaxed);
            drop(owned);
            for entry in busy {
                Self::wait_inflight(&entry);
            }
            return Ok(Attempt::Retry);
        }

        // All fragments and tails are ours: fold the per-scan coverage
        // into one query-level degradation record (None when every scan
        // ran to completion).
        stats.degraded = blended_degradation(
            stats.degraded.take(),
            scans.coverage,
            fragments.len() + tails.len(),
            scans.skipped,
            effective,
        );

        // Merge under the write lock, after revalidating that every
        // selected sample still has exactly the coverage *and* the
        // watermark the plan was made against (a competing merge,
        // eviction, or tail absorb would otherwise double-count rows or
        // lose the sample entirely). The stored samples are read in place
        // and the merged sample is shared with the store, not copied, so
        // the lock is held for the merge itself and nothing else.
        let t_merge = Instant::now();
        let merge = {
            let mut store = self.timed(|i| i.store.write_shard(home));
            let valid = samples.len() == snapshot.len()
                && samples.iter().zip(&snapshot).all(|(id, snap)| {
                    store
                        .peek(*id)
                        .is_some_and(|s| s.descriptor.predicates == snap.0 && s.watermark == snap.1)
                });
            if valid {
                scans.merge_and_absorb(
                    &mut store,
                    executor.rng_mut(),
                    &plan,
                    stats.degraded.is_some(),
                )
            } else {
                // Stale plan: keep the (clean) scan work anyway, then
                // re-plan. Tail absorbs stay safe against whatever
                // invalidated the plan — the from_row guard rejects a
                // tail whose sample moved on.
                scans.absorb_clean(&mut store, executor.rng_mut(), &plan);
                None
            }
        };
        stats.merge = t_merge.elapsed();
        let Some(merge) = merge else {
            c.merge_retries.fetch_add(1, Ordering::Relaxed);
            return Ok(Attempt::Retry);
        };

        let t_est = Instant::now();
        let mut groups = merge.estimate(&schema, &query.plan.aggs, tighten)?;
        if let Some(deg) = &stats.degraded {
            apply_degradation(&mut groups, &query.plan.aggs, deg);
        }
        let mut support = support_from_groups(&groups, &self.inner.policy);
        stats.estimate += t_est.elapsed();
        stats.effective_selectivity = effective;
        stats.fragments_reused = samples.len() as u64;
        stats.reuse = Some(ReuseClass::Partial);
        c.fragments_reused
            .fetch_add(samples.len() as u64, Ordering::Relaxed);

        if self.inner.policy.conservative && stats.degraded.is_none() && !support.fully_supported()
        {
            let refined =
                executor.refine_support(pinned, query, &mut groups, &mut support, &mut stats)?;
            if !refined {
                c.support_fallbacks.fetch_add(1, Ordering::Relaxed);
                return self.run_online_absorbing(executor, query, descriptor, pinned, t_start);
            }
        }
        stats.total = t_start.elapsed();
        c.partial_merges.fetch_add(1, Ordering::Relaxed);
        Ok(Attempt::Done(Box::new(ApproxResult {
            groups,
            stats,
            support,
        })))
    }

    /// Estimate a query from stored sample `id` (full or freshly merged
    /// partial reuse), applying the conservative support fallback.
    /// Returns `None` when the sample vanished and the caller must
    /// re-plan.
    #[allow(clippy::too_many_arguments)]
    fn estimate_reused(
        &self,
        executor: &mut LaqyExecutor,
        id: SampleId,
        query: &ApproxQuery,
        pinned: &Catalog,
        tighten: &Predicates,
        mut stats: ExecStats,
        t_start: Instant,
    ) -> Result<Option<ApproxResult>> {
        let estimated = {
            let store = self.timed(|i| i.store.read_shard(i.store.shard_for_id(id)));
            if store.peek(id).is_none() {
                None
            } else {
                Some(executor.estimate_stored(&store, id, query, tighten)?)
            }
        };
        let Some((mut groups, mut support, est_time)) = estimated else {
            return Ok(None);
        };
        stats.estimate += est_time;
        if self.inner.policy.conservative && !support.fully_supported() {
            let refined =
                executor.refine_support(pinned, query, &mut groups, &mut support, &mut stats)?;
            if !refined {
                // Low support not recoverable per-stratum: validate with a
                // full online run, as the single-owner path does.
                self.inner
                    .counters
                    .support_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                let descriptor = executor.descriptor(pinned, query)?;
                return match self.run_online_absorbing(
                    executor,
                    query,
                    &descriptor,
                    pinned,
                    t_start,
                )? {
                    Attempt::Done(result) => Ok(Some(*result)),
                    Attempt::Retry => Ok(None),
                };
            }
        }
        stats.total = t_start.elapsed();
        Ok(Some(ApproxResult {
            groups,
            stats,
            support,
        }))
    }

    /// Full online sampling + absorb into the shared store, deduplicating
    /// identical concurrent misses.
    fn run_online_absorbing(
        &self,
        executor: &mut LaqyExecutor,
        query: &ApproxQuery,
        descriptor: &crate::descriptor::SampleDescriptor,
        pinned: &Catalog,
        t_start: Instant,
    ) -> Result<Attempt> {
        let key = format!("O|{}|{:?}", descriptor.fingerprint(), descriptor.predicates);
        let Some(_guard) = self.begin_inflight(&key) else {
            self.inner
                .counters
                .online_deduped
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Attempt::Retry);
        };
        self.hold_for_test();

        let ranges = IntervalSet::of(query.range);
        let (sample, mut stats, schema, groups, support) = {
            let run = executor.sample_pipeline_hybrid(
                pinned,
                query,
                &ranges,
                &Predicate::True,
                true,
                0,
            )?;
            let (_, schema) = executor.payload_schema(pinned, query)?;
            let t_est = Instant::now();
            // Hybrid estimation: boundary sample plus exact lane mass
            // when harvested; the full-region sample is what the store
            // absorbs and what the support check inspects.
            let opts = crate::estimate::EstimateOptions {
                exact: (!run.exact.is_empty()).then_some(&run.exact),
                ..Default::default()
            };
            let est_sample = run.boundary.as_ref().unwrap_or(&run.sample);
            let mut groups =
                crate::estimate::estimate(est_sample, &schema, &query.plan.aggs, &opts)?;
            if let Some(deg) = &run.stats.degraded {
                apply_degradation(&mut groups, &query.plan.aggs, deg);
            }
            let support =
                crate::support::check_support(&run.sample, &schema, None, &self.inner.policy)?;
            let mut stats = run.stats;
            stats.estimate = t_est.elapsed();
            (run.sample, stats, schema, groups, support)
        };
        self.inner
            .counters
            .online_scans
            .fetch_add(1, Ordering::Relaxed);

        // A degraded sample never enters the shared store: its descriptor
        // would claim coverage the budget cut short, poisoning every
        // future reuse decision.
        if stats.degraded.is_none() {
            let watermark = pinned
                .table(&query.plan.fact)
                .map(|t| t.row_watermark())
                .unwrap_or(0);
            let home = self.inner.store.shard_for(descriptor);
            let mut store = self.timed(|i| i.store.write_shard(home));
            store.absorb(
                descriptor.clone(),
                schema,
                sample,
                watermark,
                executor.rng_mut(),
            );
        }
        self.inner
            .counters
            .online_runs
            .fetch_add(1, Ordering::Relaxed);

        stats.effective_selectivity = 1.0;
        stats.reuse = Some(ReuseClass::Online);
        stats.total = t_start.elapsed();
        Ok(Attempt::Done(Box::new(ApproxResult {
            groups,
            stats,
            support,
        })))
    }

    /// Claim the in-flight sampling slot for `key` without blocking.
    ///
    /// Returns [`Claim::Owner`] with a guard (releases waiters on drop,
    /// including on error paths) if this thread now owns the slot, or
    /// [`Claim::Busy`] with the entry to wait on later — after dropping
    /// any claims of our own, so overlapping claim sets never deadlock.
    fn try_begin_inflight(&self, key: &str) -> Claim<'_> {
        let shard = self.inner.store.registry_shard(key);
        let mut registry = self.inner.inflight[shard].lock();
        match registry.get(key) {
            Some(entry) => Claim::Busy(Arc::clone(entry)),
            None => {
                registry.insert(key.to_string(), Arc::new(Inflight::new()));
                Claim::Owner(InflightGuard {
                    inner: &self.inner,
                    shard,
                    key: key.to_string(),
                })
            }
        }
    }

    /// Block until a concurrent owner's in-flight operation completes.
    /// Must be called guard-free: no registry, store, or catalog lock and
    /// no in-flight claims held.
    fn wait_inflight(entry: &Inflight) {
        let mut done = entry.done.lock();
        while !*done {
            entry.cv.wait(&mut done);
        }
    }

    /// Claim or wait on the in-flight sampling slot for `key`.
    ///
    /// Returns `Some(guard)` if this thread is now the owner, or `None`
    /// after having waited for a concurrent owner to finish. No store,
    /// catalog, or registry lock is held while waiting.
    fn begin_inflight(&self, key: &str) -> Option<InflightGuard<'_>> {
        match self.try_begin_inflight(key) {
            Claim::Owner(guard) => Some(guard),
            Claim::Busy(entry) => {
                Self::wait_inflight(&entry);
                None
            }
        }
    }
}

/// Outcome of a non-blocking in-flight claim
/// ([`LaqyService::try_begin_inflight`]).
enum Claim<'a> {
    /// This thread owns the slot; the guard releases waiters on drop.
    Owner(InflightGuard<'a>),
    /// Another client owns the slot. Wait on the entry with
    /// [`LaqyService::wait_inflight`] — only after releasing claims of
    /// your own.
    Busy(Arc<Inflight>),
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
    use laqy_engine::{AggSpec, ColRef, Column, QueryPlan};

    use crate::interval::Interval;

    fn catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                vec![
                    ("key".into(), Column::Int64((0..n).collect())),
                    ("g".into(), Column::Int64((0..n).map(|i| i % 4).collect())),
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

    #[test]
    fn reuse_arms_and_counters_line_up() {
        let service = LaqyService::with_config(
            catalog(4000),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let a = service.run(&query(0, 1999)).unwrap();
        assert_eq!(a.stats.reuse, Some(ReuseClass::Online));
        let b = service.run(&query(500, 1500)).unwrap();
        assert_eq!(b.stats.reuse, Some(ReuseClass::Full));
        let c = service.run(&query(0, 2999)).unwrap();
        assert_eq!(c.stats.reuse, Some(ReuseClass::Partial));
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.online_runs, 1);
        assert_eq!(stats.full_hits, 1);
        assert_eq!(stats.partial_merges, 1);
        assert_eq!(stats.delta_scans, 1);
        assert_eq!(stats.merges_deduped, 0);
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
        {
            let guard = service.begin_inflight("k");
            assert!(guard.is_some());
        }
        // Slot free again: claiming succeeds instead of waiting.
        assert!(service.begin_inflight("k").is_some());
    }
}
