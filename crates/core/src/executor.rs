//! The LAQy query executor: the scan, sample and estimate kernels of the
//! lazy sampling flow of Figure 7.
//!
//! 1. Derive the logical sampler's [`SampleDescriptor`] from the query.
//! 2. The store plans the reuse ([`crate::lazy`], **Algorithm 1**).
//! 3. Full reuse → estimate straight from the stored sample (tightening to
//!    the query predicate); otherwise push each Δ predicate down the plan,
//!    build only the Δ samples, merge (**Algorithms 2–3**), estimate. With
//!    no stored sample to reuse the one Δ is the query's range — full
//!    online sampling — and the store absorbs it for future queries.
//!
//! [`crate::service`] sequences these steps as named stages against the
//! shared store; this module holds what each stage runs. Two sampler
//! placements from the evaluation are supported: pushed down to the fact
//! scan (query template Q1) and above a star join (Q2) — both fall out of
//! the same pipeline because every morsel's selected rows, whichever
//! tables they index, go through one admission function
//! ([`crate::sampler_ops`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use laqy_engine::ops::{BoundCol, PreparedScan, ResolvedCol, StarJoinOutput, StarProbe};
use laqy_engine::parallel::{parallel_fold, DEFAULT_MORSEL_ROWS};
use laqy_engine::{
    execute_exact, resolve_by_name, AggInput, AggSpec, Catalog, EngineError, Predicate,
    PruneCounts, QueryPlan, QueryResult, StoredColumn,
};
use laqy_sampling::{merge_stratified_k, Lehmer64};
use laqy_sync::atomic::{AtomicU64, Ordering};

use crate::budget::{CancelToken, Degradation, DegradeReason};
use crate::descriptor::{Predicates, SampleDescriptor};
use crate::estimate::{estimate, EstimateError, EstimateOptions, Groups};
use crate::interval::{Interval, IntervalSet};
use crate::lazy::CoveragePlan;
use crate::sampler_ops::{
    retained_rows, Admission, Delta, Part, Sample, SampleSchema, SlotKind, MAX_SAMPLE_COLS,
};
use crate::star::{JoinMemo, JoinShape};
use crate::stats::{ExecStats, ReuseClass};
use crate::store::consolidates;
use crate::support::{SupportPolicy, SupportReport};

/// Errors from the LAQy execution layer.
#[derive(Debug)]
pub enum LaqyError {
    /// Engine-level failure (unknown table/column, type mismatch, ...).
    Engine(EngineError),
    /// Estimation failure (payload/schema mismatch).
    Estimate(EstimateError),
    /// Query shape not supported by the approximation layer.
    Unsupported(String),
    /// A worker panicked inside one morsel of this query's scan; the
    /// panic was isolated (pool and concurrent queries unaffected) and
    /// the query failed with the captured payload.
    WorkerPanic(String),
    /// A `laqy_faults` point injected a failure into this query
    /// (`--cfg laqy_faults` chaos builds only).
    Injected(String),
    /// The ingest write-ahead log failed: this batch's append, or the
    /// re-open of a log an earlier append failed. The batch was not
    /// published; the next ingest tries the re-open again.
    WalFailed(String),
}

impl std::fmt::Display for LaqyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaqyError::Engine(e) => write!(f, "engine error: {e}"),
            LaqyError::Estimate(e) => write!(f, "estimate error: {e}"),
            LaqyError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            LaqyError::WorkerPanic(m) => write!(f, "worker panic (isolated): {m}"),
            LaqyError::Injected(m) => write!(f, "injected fault: {m}"),
            LaqyError::WalFailed(m) => write!(f, "wal failed, ingest refused: {m}"),
        }
    }
}

impl std::error::Error for LaqyError {}

impl From<EngineError> for LaqyError {
    fn from(e: EngineError) -> Self {
        LaqyError::Engine(e)
    }
}

impl From<EstimateError> for LaqyError {
    fn from(e: EstimateError) -> Self {
        LaqyError::Estimate(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, LaqyError>;

/// An approximable query: a star-schema aggregation plan plus the explored
/// range predicate the lazy sampler relaxes over.
#[derive(Debug, Clone)]
pub struct ApproxQuery {
    /// The aggregation plan. `plan.predicate` holds only the *fixed*
    /// fact-side predicates (part of the sampler's input identity); the
    /// explored range below is added on top.
    pub plan: QueryPlan,
    /// Fact column the exploration varies over (the paper's `lo_intkey`).
    pub range_column: String,
    /// This query's range on `range_column` (inclusive).
    pub range: Interval,
    /// Per-stratum reservoir capacity.
    pub k: usize,
}

/// Output of an approximate execution.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Per-group estimates (keys are raw i64 parts; decode via
    /// [`LaqyExecutor::decode_keys`], or against [`key_columns`]).
    pub groups: Groups,
    /// Timing/cardinality breakdown.
    pub stats: ExecStats,
    /// Post-tightening support report.
    pub support: SupportReport,
}

/// The executor. Owns RNG state and configuration; catalog and sample
/// store are passed per call, so the service controls sharing.
pub struct LaqyExecutor {
    threads: usize,
    policy: SupportPolicy,
    rng: Lehmer64,
    seed_counter: u64,
    budget: CancelToken,
    /// Scan morsel size; fixed outside this module's tests.
    morsel_rows: usize,
    /// The sampler's index-or-scan cut-off; tests pin either row source.
    pub(crate) prefer_index: fn(usize, usize) -> bool,
    /// Star joins kept across queries: its own, or the service's.
    pub(crate) joins: Arc<JoinMemo>,
}

impl LaqyExecutor {
    /// Create an executor with `threads` workers and a support policy.
    pub fn new(threads: usize, policy: SupportPolicy, seed: u64) -> Self {
        Self {
            threads,
            policy,
            rng: Lehmer64::new(seed),
            seed_counter: seed,
            budget: CancelToken::unbounded(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            prefer_index: laqy_engine::index::prefer_index,
            joins: Arc::new(JoinMemo::new()),
        }
    }

    /// Attach a started budget token: every sampling pipeline this
    /// executor runs checks it per morsel and finalizes a degraded
    /// answer on expiry (see [`crate::budget`]).
    pub fn set_budget_token(&mut self, token: CancelToken) {
        self.budget = token;
    }

    /// The merge RNG (the service's write path drives merges itself).
    pub(crate) fn rng_mut(&mut self) -> &mut Lehmer64 {
        &mut self.rng
    }

    fn next_seed(&mut self) -> u64 {
        self.seed_counter = self.seed_counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.seed_counter
    }

    /// Derive the logical sampler descriptor for a query (Figure 7 step 1:
    /// the optimizer has placed the sampler; this records its identity).
    pub fn descriptor(&self, catalog: &Catalog, query: &ApproxQuery) -> Result<SampleDescriptor> {
        Ok(descriptor_for(query, &payload_schema(catalog, query)?))
    }

    /// Online sampling over the query's full range, estimated, with the
    /// sample dropped: the workload-oblivious "Online Sampling" baseline.
    pub(crate) fn run_online(&mut self, scope: Scope<'_>) -> Result<(Groups, ExecStats)> {
        let Scope { query, schema, .. } = scope;
        let ranges = IntervalSet::of(query.range);
        let run = self.sample_pipeline(scope, &ranges, 0)?;
        let (sample, mut stats) = run.read();
        let (t_est, opts) = (Instant::now(), EstimateOptions::default());
        let groups = estimate(&sample, schema, &query.plan.aggs, &opts)?;
        stats.estimate = t_est.elapsed();
        Ok((groups, stats))
    }

    /// Exact execution of the same query (the "GroupBy"/exact baseline).
    pub fn run_exact(
        &self,
        catalog: &Catalog,
        query: &ApproxQuery,
    ) -> Result<(QueryResult, ExecStats)> {
        let t = Instant::now();
        let mut plan = query.plan.clone();
        plan.predicate = exact_predicate(query);
        let (result, prune) = execute_exact(catalog, &plan, self.threads)?;
        let stats = ExecStats {
            total: t.elapsed(),
            effective_selectivity: 1.0,
            reuse: Some(ReuseClass::Exact),
            ..prune_stats(prune)
        };
        Ok((result, stats))
    }

    /// Pure filtered scan over the query's predicate — the
    /// memory-bandwidth floor series in Figures 12–15: a keyless
    /// `COUNT(*)` over the fact table, the same walk with a popcount for
    /// its consumer.
    pub fn scan_floor(&self, catalog: &Catalog, query: &ApproxQuery) -> Result<ExecStats> {
        let t = Instant::now();
        let plan = QueryPlan {
            fact: query.plan.fact.clone(),
            predicate: exact_predicate(query),
            joins: vec![],
            group_by: vec![],
            aggs: vec![AggSpec::count()],
        };
        let (result, prune) = execute_exact(catalog, &plan, self.threads)?;
        let rows = result.rows.first().map_or(0.0, |r| r.values[0]);
        Ok(ExecStats {
            total: t.elapsed(),
            scan: t.elapsed(),
            scanned_rows: rows as u64,
            effective_selectivity: 1.0,
            ..prune_stats(prune)
        })
    }

    /// Δ-scan every part of a coverage plan against `catalog`: its
    /// residual, then its tail ([`CoveragePlan::parts`]). A tail scan
    /// pushes its sample's own set down with the row floor at the sample's
    /// watermark. A plan that reuses a stored sample and whose write step
    /// consolidates ([`consolidates`]) leaves each Δ's payload to the
    /// merge, which reads it for the rows it keeps; every other Δ comes to
    /// rest on its own and is read here.
    pub(crate) fn scan_coverage(
        &mut self,
        scope: Scope<'_>,
        plan: &CoveragePlan,
    ) -> Result<CoverageScans> {
        // A plan with no stored sample (online sampling) has no
        // answer without its one Δ: it runs even past the budget, degrading
        // per morsel. Nothing merges into it, so it is read here, before
        // the store's write lock.
        let reuses = plan.sample.is_some();
        let mut out = CoverageScans {
            stats: ExecStats::default(),
            coverage: 0.0,
            skipped: 0,
            scans: Vec::new(),
        };
        let mut runs = Vec::new();
        for (part, (ranges, row_floor)) in plan.parts().enumerate() {
            if reuses && self.budget.expired() {
                out.skipped += 1;
                continue;
            }
            let run = self.sample_pipeline(scope, ranges, row_floor as usize)?;
            out.coverage += run.stats.degraded.map_or(1.0, |d| d.coverage);
            runs.push((part, run));
        }
        let clean = runs.iter().map(|(_, run)| run.stats.degraded.is_none());
        let lazy = reuses && out.skipped == 0 && consolidates(plan, clean);
        for (part, run) in runs {
            let clean = run.stats.degraded.is_none();
            let (sample, stats) = if lazy {
                (Part::Unread(run.delta), run.stats)
            } else {
                let (sample, stats) = run.read();
                (sample.into(), stats)
            };
            out.stats.accumulate(&stats);
            out.scans.push(Scan {
                part,
                sample,
                clean,
            });
        }
        Ok(out)
    }

    /// Build a stratified sample of the query's pipeline restricted to
    /// `ranges` on the range column — the Δ (or full online) sampler with
    /// the predicate pushed down (Figure 7 step 3).
    ///
    /// `row_floor` restricts the scan to fact rows at or past the floor —
    /// the append-tail Δ-scan (rows below the floor are already represented
    /// by a stored sample's reservoirs). Rows come from the range index when
    /// cheaper (`PreparedScan::with_range_index`), with the same sample.
    pub(crate) fn sample_pipeline(
        &mut self,
        scope: Scope<'_>,
        ranges: &IntervalSet,
        row_floor: usize,
    ) -> Result<PipelineRun> {
        let Scope {
            catalog,
            query,
            schema,
            shape,
            strata_hint,
        } = scope;
        // Everything up to the fold decides which rows the Δ reads: scan.
        let t_rows = Instant::now();
        let k = self.policy.effective_k(query.k);
        let payload_cols = schema.column_names();
        let fact = catalog.table(&query.plan.fact)?;
        let residual = &query.plan.predicate;
        let full_pred = residual
            .clone()
            .and(range_predicate(&query.range_column, ranges));
        let intervals: Vec<(i64, i64)> =
            ranges.intervals().iter().map(|iv| (iv.lo, iv.hi)).collect();
        // The star joins' maps and join filter first: the range index marks
        // only the rows that join. Then compile the predicate and flatten it
        // into batch kernels once; every morsel and residual fragment reuses
        // this (validation happens here too — the scans themselves are
        // infallible).
        let star = (self.joins).star(shape, catalog, &query.plan, self.threads, &self.budget)?;
        let (joins, filter) = (&*star.joins, star.index.filter());
        let probe = StarProbe::new(fact, &joins.probes())?;
        let joined = (!query.plan.joins.is_empty()).then_some(&star.index);
        let prepared = PreparedScan::new(fact, &full_pred)?.with_range_index(
            &query.range_column,
            &intervals,
            residual,
            joined,
            row_floor,
            self.prefer_index,
        )?;

        // One seed is drawn and discarded before the worker seed: every
        // admission stream is cut from the seed sequence after it, so
        // dropping the draw would change every answer.
        let _ = self.next_seed();
        // Resolve the stratum-key and payload columns once: the column and
        // the joined dimension whose row ids index it (`None` = the fact
        // table).
        let mut key_cols: Vec<(ResolvedCol<'_>, Option<usize>)> = Vec::new();
        for c in &query.plan.group_by {
            let (col, dim) = match &c.table {
                None => (fact.column(&c.column)?, None),
                Some(t) => {
                    let idx = joins.dim_index(t).ok_or_else(|| {
                        LaqyError::Unsupported(format!(
                            "group-by table `{t}` is not part of the join plan"
                        ))
                    })?;
                    (catalog.table(t)?.column(&c.column)?, Some(idx))
                }
            };
            key_cols.push((ResolvedCol::from_column(col), dim));
        }
        let mut value_cols = Vec::with_capacity(payload_cols.len());
        for (slot, name) in payload_cols.iter().enumerate() {
            let (dim, table) = resolve_by_name(catalog, &query.plan, name)?;
            value_cols.push((table.column(name)?.clone(), dim, schema.kind(slot)));
        }

        struct Partial {
            /// This worker's row-id sample: every morsel it pulls
            /// continues Algorithm R into it.
            admission: Admission,
            /// The star probe's output for the current morsel, its
            /// allocations kept from morsel to morsel.
            probed: StarJoinOutput,
            scan_ns: u64,
            sample_ns: u64,
            scanned: u64,
            sampled_input: u64,
            /// Rows of morsels this worker fully processed (the numerator
            /// of the degraded answer's coverage fraction).
            covered: u64,
            prune: PruneCounts,
            /// Set when the budget expired and this worker stopped
            /// admitting morsels; the fold finalizes a degraded answer.
            degraded: Option<DegradeReason>,
            /// First failure this worker hit; poisons its further
            /// morsels and is re-raised after the fold.
            error: Option<LaqyError>,
        }

        // The plan was validated above, so per-morsel failures are
        // next-to-impossible — but a pool worker must not panic, so any
        // residual error folds into the partial and surfaces as a
        // `Result` after the scan.
        let process = |acc: &mut Partial, range: std::ops::Range<usize>| -> Result<()> {
            let t0 = Instant::now();
            // Vectorized pruned scan through the pre-built kernels; the
            // selection vector is kept because reservoir insertion needs
            // row ids (the sanctioned mask→selection decode).
            acc.scanned += range.len() as u64;
            let sel = prepared.scan_pruned(range, &mut acc.prune);
            // Sampler above a star join: the probe's aligned per-table row
            // ids replace the selection, less the rows the filter drops;
            // the join index answers for the rows it covers.
            if joined.is_some() {
                acc.probed.clear();
                filter.probe(&probe, &sel, &mut acc.probed);
            }
            acc.scan_ns += t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            let probed = &acc.probed;
            let rows_of = |dim: Option<usize>| -> &[u32] {
                match (joined, dim) {
                    (None, _) => &sel,
                    (Some(_), None) => &probed.fact_rows,
                    (Some(_), Some(d)) => &probed.dim_rows[d],
                }
            };
            let rows = rows_of(None);
            let keys = (key_cols.iter()).map(|&(col, dim)| BoundCol::bind(col, Some(rows_of(dim))));
            acc.admission.admit(keys, rows);
            acc.sampled_input += rows.len() as u64;
            acc.sample_ns += t1.elapsed().as_nanos() as u64;
            Ok(())
        };

        // Each worker's RNG stream is seeded off this counter as the
        // worker starts. The tag keeps admission streams off the
        // `seed + n·γ` lattice executors' own (merge) RNGs are seeded on —
        // the service hands consecutive executors seeds one γ apart.
        let worker_seed = AtomicU64::new(self.next_seed() ^ 0xAD31_55A7_C0DE_5EED);
        let token = &self.budget;
        let rows_wall = t_rows.elapsed();
        let t_pipeline = Instant::now();
        let n_rows = fact.num_rows();
        let partials = parallel_fold(
            n_rows,
            self.morsel_rows,
            self.threads,
            || Partial {
                admission: Admission::new(
                    k,
                    worker_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed),
                    strata_hint,
                ),
                probed: StarJoinOutput::new(probe.joins()),
                scan_ns: 0,
                sample_ns: 0,
                scanned: 0,
                sampled_input: 0,
                covered: 0,
                prune: PruneCounts::default(),
                degraded: None,
                error: None,
            },
            |acc, range| {
                if acc.error.is_some() || acc.degraded.is_some() {
                    return;
                }
                // Clamp the morsel to the row floor: morsels entirely below
                // it are already represented by the stored sample this tail
                // scan extends.
                let range = range.start.max(row_floor)..range.end;
                if range.start >= range.end {
                    return;
                }
                // Cooperative cancellation, once per morsel: on budget
                // expiry this worker stops scanning and the fold
                // finalizes whatever the reservoirs hold.
                if let Some(reason) = token.admit(range.len() as u64) {
                    acc.degraded = Some(reason);
                    return;
                }
                let rows = range.len() as u64;
                // Per-morsel panic isolation: the fault point and the
                // scan both run inside it, so an injected (or genuine)
                // worker panic fails this one query as a typed error —
                // never the pool or a concurrent query.
                let outcome = laqy_engine::parallel::isolate_unwind(|| {
                    laqy_faults::point("pool.morsel")
                        .map_err(|e| LaqyError::Injected(e.to_string()))?;
                    process(acc, range)
                });
                match outcome {
                    Ok(Ok(())) => acc.covered += rows,
                    Ok(Err(e)) => acc.error = Some(e),
                    Err(panic_msg) => acc.error = Some(LaqyError::WorkerPanic(panic_msg)),
                }
            },
        );
        let pipeline_wall = t_pipeline.elapsed();

        let mut samples = Vec::with_capacity(partials.len());
        let (mut scan_ns, mut sample_ns, mut scanned, mut sampled_input) = (0u64, 0u64, 0u64, 0u64);
        let mut covered = 0u64;
        let mut degraded: Option<DegradeReason> = None;
        let mut prune = PruneCounts::default();
        for p in partials {
            if let Some(e) = p.error {
                return Err(e);
            }
            samples.push(p.admission.into_rows());
            scan_ns += p.scan_ns;
            sample_ns += p.sample_ns;
            scanned += p.scanned;
            sampled_input += p.sampled_input;
            covered += p.covered;
            degraded = degraded.or(p.degraded);
            prune.accumulate(&p.prune);
        }
        // Workers scanned disjoint row sets, so their row-id samples
        // combine by Algorithm 3 (into the largest, in place) before any
        // payload exists; a lone worker's sample is the result as it
        // stands. From here to the Δ is sampling work too: it is timed and
        // reported as `processing`.
        let t_combine = Instant::now();
        let rows = merge_stratified_k(samples, &mut self.rng);

        // Where the retained rows' payload is read: the fact rows, and the
        // dimension rows of dimension-resident columns through one probe of
        // the survivors (every survivor joined once already, so the probe
        // keeps them all, in order).
        let survivors = retained_rows(&rows);
        let retained = if value_cols.iter().any(|(_, dim, _)| dim.is_some()) {
            let mut probed = StarJoinOutput::new(probe.joins());
            filter.probe(&probe, &survivors, &mut probed);
            if probed.fact_rows != survivors {
                return Err(LaqyError::Unsupported(
                    "a sampled row no longer joins its dimensions".into(),
                ));
            }
            probed
        } else {
            StarJoinOutput {
                fact_rows: survivors,
                dim_rows: Vec::new(),
            }
        };
        let delta = Delta::new(rows, value_cols, retained);
        let combine_wall = t_combine.elapsed();
        // Tearing the row source down is scan time too.
        let t_drop = Instant::now();
        drop((prepared, probe));
        drop(star);
        let rows_wall = rows_wall + t_drop.elapsed();

        // The per-thread phase timers measure CPU time; scale them onto the
        // wall-clock pipeline time so the breakdown sums to what a user
        // observes (Figure 11's stacked bars).
        let cpu_total = (scan_ns + sample_ns).max(1);
        let wall = pipeline_wall.as_secs_f64();
        let stats = ExecStats {
            scan: Duration::from_secs_f64(wall * scan_ns as f64 / cpu_total as f64) + rows_wall,
            processing: Duration::from_secs_f64(wall * sample_ns as f64 / cpu_total as f64)
                + combine_wall,
            scanned_rows: scanned,
            sampled_input_rows: sampled_input,
            morsels_skipped: prune.skipped,
            morsels_fast_pathed: prune.fast_pathed,
            morsels_scanned: prune.scanned,
            morsels_indexed: prune.indexed,
            degraded: degraded.map(|reason| {
                Degradation::at_coverage(
                    reason,
                    covered as f64 / n_rows.saturating_sub(row_floor).max(1) as f64,
                )
            }),
            ..Default::default()
        };
        Ok(PipelineRun { delta, stats })
    }

    /// Decode raw group-key parts into display values using the plan's key
    /// columns (dictionary codes become strings).
    pub fn decode_keys(
        &self,
        catalog: &Catalog,
        query: &ApproxQuery,
        groups: &Groups,
    ) -> Result<Vec<Vec<laqy_engine::Value>>> {
        let cols = key_columns(catalog, query)?;
        Ok(groups
            .iter()
            .map(|g| {
                g.key
                    .iter()
                    .zip(cols.iter())
                    .map(|(&part, col)| col.decode_key(part))
                    .collect()
            })
            .collect())
    }
}

/// The columns `query`'s group-key parts decode against, one per key
/// part, in key order.
pub fn key_columns<'c>(catalog: &'c Catalog, query: &ApproxQuery) -> Result<Vec<&'c StoredColumn>> {
    let cols = query.plan.group_by.iter().map(|c| {
        let table = match &c.table {
            None => catalog.table(&query.plan.fact)?,
            Some(t) => catalog.table(t)?,
        };
        table.column(&c.column)
    });
    Ok(cols.collect::<laqy_engine::Result<_>>()?)
}

/// One Δ-scan (the residual or an append tail) of a coverage plan.
pub(crate) struct Scan {
    /// Which part of the plan: an index into [`CoveragePlan::parts`].
    pub part: usize,
    /// The scan's sample — what the store absorbs — read, or left for the
    /// merge to read.
    pub sample: Part<'static>,
    /// The scan ran to completion. Only clean scans may enter the store: a
    /// degraded sample's descriptor would overclaim coverage.
    pub clean: bool,
}

/// What the Δ-scans of one coverage plan produced.
pub(crate) struct CoverageScans {
    /// Accumulated scan-side timing and cardinalities.
    pub stats: ExecStats,
    /// Σ of per-scan coverage fractions (1.0 for a clean scan).
    pub coverage: f64,
    /// Scans skipped outright because the budget had already expired
    /// (their regions contribute nothing; the CI widening accounts for the
    /// hole).
    pub skipped: u64,
    /// The scans that ran, in plan order.
    pub scans: Vec<Scan>,
}

/// Outcome of one sampling pipeline run.
pub(crate) struct PipelineRun {
    /// Stratified sample over the whole scanned region, its payload not
    /// read yet.
    pub delta: Delta,
    /// Timing/cardinality breakdown.
    pub stats: ExecStats,
}

impl PipelineRun {
    /// The sample with its payload read and at rest (settled, so a store
    /// keeps it as it is and an estimate walks it front to back), the
    /// read charged to `processing`.
    pub fn read(self) -> (Sample, ExecStats) {
        let (t, mut stats) = (Instant::now(), self.stats);
        stats.payload_rows += self.delta.len() as u64;
        let mut sample = self.delta.read();
        sample.settle();
        stats.processing += t.elapsed();
        (sample, stats)
    }
}

/// What every pipeline of one attempt runs against: one catalog epoch,
/// the query, and the payload layout its samples carry — resolved once
/// ([`payload_schema`]), not once per pipeline.
#[derive(Clone, Copy)]
pub(crate) struct Scope<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a ApproxQuery,
    pub schema: &'a SampleSchema,
    /// The query's join shape in `catalog`, which its scans' stars are
    /// looked up by.
    pub shape: &'a JoinShape,
    /// Strata a scan of this attempt should expect: the largest selected
    /// stored sample's count (a Δ-scan stratifies the same population), 0
    /// for a cold start. Sizes each worker's key index once.
    pub strata_hint: usize,
}

/// Payload columns the sample must carry: every aggregate input plus the
/// explored range column (for tightening).
pub(crate) fn payload_schema(catalog: &Catalog, query: &ApproxQuery) -> Result<SampleSchema> {
    let mut cols: Vec<&str> = Vec::new();
    let inputs = query.plan.aggs.iter().flat_map(|a| match &a.input {
        AggInput::Col(c) => vec![c.as_str()],
        AggInput::Mul(x, y) => vec![x.as_str(), y.as_str()],
        AggInput::None => vec![],
    });
    for name in inputs.chain([query.range_column.as_str()]) {
        if !cols.contains(&name) {
            cols.push(name);
        }
    }
    if cols.len() > MAX_SAMPLE_COLS {
        let msg = format!("{} payload columns exceed {MAX_SAMPLE_COLS}", cols.len());
        return Err(LaqyError::Unsupported(msg));
    }
    let mut schema_cols = Vec::with_capacity(cols.len());
    for c in cols {
        let (_, table) = resolve_by_name(catalog, &query.plan, c)?;
        let kind = match table.column(c)?.data_type() {
            laqy_engine::DataType::Float64 => SlotKind::Float,
            _ => SlotKind::Int,
        };
        schema_cols.push((c.to_string(), kind));
    }
    Ok(SampleSchema::new(schema_cols))
}

/// The sampler identity of `query` whose samples carry `schema`.
pub(crate) fn descriptor_for(query: &ApproxQuery, schema: &SampleSchema) -> SampleDescriptor {
    let qcs = query.plan.group_by.iter().map(|c| match &c.table {
        Some(t) => format!("{t}.{}", c.column),
        None => c.column.clone(),
    });
    let qvs = schema.column_names().into_iter().map(String::from);
    SampleDescriptor::new(
        input_identity(&query.plan),
        qcs.collect(),
        qvs.collect(),
        Predicates::on(query.range_column.clone(), IntervalSet::of(query.range)),
        query.k,
    )
}

/// The fact predicate of `query` as an exact plan runs it: the fixed
/// predicates and the explored range.
fn exact_predicate(query: &ApproxQuery) -> Predicate {
    let range = range_predicate(&query.range_column, &IntervalSet::of(query.range));
    query.plan.predicate.clone().and(range)
}

/// Stats carrying one walk's zone-map verdicts.
fn prune_stats(prune: PruneCounts) -> ExecStats {
    ExecStats {
        morsels_skipped: prune.skipped,
        morsels_fast_pathed: prune.fast_pathed,
        morsels_scanned: prune.scanned,
        morsels_indexed: prune.indexed,
        ..Default::default()
    }
}

/// Build a [`SupportReport`] from per-group matching-row counts (valid
/// when output groups coincide with strata, i.e. no group projection).
/// The report names short strata by their position in `groups`.
pub(crate) fn support_from_groups(groups: &Groups, policy: &SupportPolicy) -> SupportReport {
    SupportReport::classify(groups.matching(), policy)
}

/// Canonical identity of the sampler input: fact, fixed predicates, and
/// join subtree (Figure 7's "Query Input").
pub fn input_identity(plan: &QueryPlan) -> String {
    use std::fmt::Write;
    let mut id = String::with_capacity(256);
    let _ = write!(id, "{}[{:?}]", plan.fact, plan.predicate);
    for j in &plan.joins {
        let (dim, fk, pk) = (&j.dim_table, &j.fact_key, &j.dim_key);
        let _ = write!(id, "⋈{dim}({fk}={pk})[{:?}]", j.predicate);
    }
    id
}

/// Engine predicate matching an [`IntervalSet`] on one column.
pub fn range_predicate(column: &str, ranges: &IntervalSet) -> Predicate {
    let mut parts: Vec<Predicate> = ranges
        .intervals()
        .iter()
        .map(|iv| Predicate::between(column, iv.lo, iv.hi))
        .collect();
    match parts.pop() {
        None => Predicate::False,
        Some(single) if parts.is_empty() => single,
        Some(last) => {
            parts.push(last);
            Predicate::Or(parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_engine::ops::star_probe;
    use laqy_engine::plan::PreparedJoins;
    use laqy_engine::{AggSpec, ColRef, Column, GroupKey, Table};

    fn mini_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                vec![
                    ("key".into(), Column::Int64((0..100).collect())),
                    ("g".into(), Column::Int64((0..100).map(|i| i % 4).collect())),
                    ("v".into(), Column::Int64((0..100).collect())),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn mini_query(lo: i64, hi: i64) -> ApproxQuery {
        ApproxQuery {
            plan: QueryPlan {
                fact: "t".into(),
                predicate: Predicate::True,
                joins: vec![],
                group_by: vec![ColRef::fact("g")],
                aggs: vec![AggSpec::sum("v")],
            },
            range_column: "key".into(),
            range: Interval::new(lo, hi),
            k: 16,
        }
    }

    #[test]
    fn range_predicate_shapes() {
        assert_eq!(
            range_predicate("x", &IntervalSet::empty()),
            Predicate::False
        );
        assert_eq!(
            range_predicate("x", &IntervalSet::of(Interval::new(1, 5))),
            Predicate::between("x", 1, 5)
        );
        let two = IntervalSet::from_intervals(vec![Interval::new(0, 1), Interval::new(5, 9)]);
        match range_predicate("x", &two) {
            Predicate::Or(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn input_identity_distinguishes_plans() {
        let q = mini_query(0, 10);
        let id1 = input_identity(&q.plan);
        let mut plan2 = q.plan.clone();
        plan2.predicate = Predicate::between("g", 0, 1);
        assert_ne!(id1, input_identity(&plan2));
        let mut plan3 = q.plan.clone();
        plan3.joins.push(laqy_engine::JoinSpec {
            dim_table: "d".into(),
            dim_key: "k".into(),
            fact_key: "g".into(),
            predicate: Predicate::True,
        });
        assert_ne!(id1, input_identity(&plan3));
    }

    #[test]
    fn descriptor_derivation() {
        let cat = mini_catalog();
        let exec = LaqyExecutor::new(1, SupportPolicy::default(), 1);
        let d = exec.descriptor(&cat, &mini_query(0, 49)).unwrap();
        assert_eq!(d.qcs, vec!["g".to_string()]);
        // Payload: agg input v + range column key, sorted.
        assert_eq!(d.qvs, vec!["key".to_string(), "v".to_string()]);
        assert_eq!(d.k, 16);
        assert_eq!(
            d.predicates.get("key").unwrap(),
            &IntervalSet::of(Interval::new(0, 49))
        );
    }

    #[test]
    fn support_from_groups_classifies() {
        let policy = SupportPolicy {
            min_rows_per_stratum: 5,
            ..Default::default()
        };
        // No aggregates: the counts, not the estimates, are classified.
        let mut groups = Groups::default();
        for (key, matching) in [(0, 10), (1, 2), (2, 0)] {
            groups.push(&[key], std::iter::empty(), matching);
        }
        let report = support_from_groups(&groups, &policy);
        assert_eq!(report.supported, 1);
        let under: Vec<_> = report.under_supported_keys(&groups).collect();
        assert_eq!(under, vec![GroupKey::new(&[1])]);
        let empty: Vec<_> = report.empty_keys(&groups).collect();
        assert_eq!(empty, vec![GroupKey::new(&[2])]);
    }

    /// Rows of the dimension `fk` points into.
    const DIMS: i64 = 40;

    /// `rows` rows over `strata` strata: `key` is a permutation of the row
    /// ids (so a range predicate selects scattered rows), `v` the row id,
    /// `fk` a dimension row.
    fn admission_catalog(rows: i64, strata: i64) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                vec![
                    (
                        "key".into(),
                        Column::Int64((0..rows).map(|i| (i * 7919) % rows).collect()),
                    ),
                    (
                        "g".into(),
                        Column::Int64((0..rows).map(|i| (i * 31) % strata).collect()),
                    ),
                    ("v".into(), Column::Int64((0..rows).collect())),
                    (
                        "fk".into(),
                        Column::Int64((0..rows).map(|i| i % DIMS).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        cat
    }

    /// Sample `query` over `catalog` with the given scan shape.
    fn sample_with(
        catalog: &Catalog,
        query: &ApproxQuery,
        threads: usize,
        morsel_rows: usize,
        seed: u64,
    ) -> Sample {
        let mut exec = LaqyExecutor::new(threads, SupportPolicy::default(), seed);
        exec.morsel_rows = morsel_rows;
        let ranges = IntervalSet::of(query.range);
        let schema = payload_schema(catalog, query).unwrap();
        let shape = JoinShape::of(catalog, &query.plan).unwrap();
        let scope = Scope {
            catalog,
            query,
            schema: &schema,
            shape: &shape,
            strata_hint: 0,
        };
        let run = exec.sample_pipeline(scope, &ranges, 0);
        run.unwrap().delta.read()
    }

    /// The admission path this pipeline replaced, kept as the oracle: one
    /// independently allocated [`Reservoir`] per stratum, fed the selected
    /// rows' `v` in row order.
    fn reference_sample(
        catalog: &Catalog,
        query: &ApproxQuery,
        seed: u64,
    ) -> std::collections::BTreeMap<i64, laqy_sampling::Reservoir<i64>> {
        let t = catalog.table("t").unwrap();
        let col = |name: &str| t.column(name).unwrap();
        let mut rng = Lehmer64::new(seed);
        let mut strata = std::collections::BTreeMap::new();
        for row in 0..t.num_rows() {
            if query.range.contains(col("key").i64_at(row)) {
                strata
                    .entry(col("g").i64_at(row))
                    .or_insert_with(|| laqy_sampling::Reservoir::new(query.k))
                    .offer(col("v").i64_at(row), &mut rng);
            }
        }
        strata
    }

    /// `admission_catalog` plus the dimension `d` its `fk` column joins:
    /// `dk` the key, `dg` a group column, `dw` a float payload column.
    fn star_catalog(rows: i64) -> Catalog {
        let mut cat = admission_catalog(rows, 7);
        cat.register(
            Table::new(
                "d",
                vec![
                    ("dk".into(), Column::Int64((0..DIMS).collect())),
                    (
                        "dg".into(),
                        Column::Int64((0..DIMS).map(|i| i % 5).collect()),
                    ),
                    (
                        "dw".into(),
                        Column::Float64((0..DIMS).map(|i| i as f64 * -1.5).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        cat
    }

    /// A sampler above the join of `star_catalog`, stratified on a
    /// dimension column and carrying the dimension's `dw` as payload.
    fn star_query(range: Interval) -> ApproxQuery {
        ApproxQuery {
            plan: QueryPlan {
                fact: "t".into(),
                predicate: Predicate::True,
                joins: vec![laqy_engine::JoinSpec {
                    dim_table: "d".into(),
                    dim_key: "dk".into(),
                    fact_key: "fk".into(),
                    predicate: Predicate::between("dg", 1, 3),
                }],
                group_by: vec![ColRef::dim("d", "dg"), ColRef::fact("g")],
                aggs: vec![AggSpec::sum("dw"), AggSpec::sum("v")],
            },
            range_column: "key".into(),
            range,
            k: 8,
        }
    }

    #[test]
    fn above_join_sample_matches_tuple_admission() {
        // Sampler above a join, stratified on a dimension column, carrying
        // a dimension-resident payload column: the pipeline admits fact row
        // ids per morsel and reads `dw` once, through one probe of the
        // survivors. The oracle is the admission it replaced — a tuple
        // built from the probe's aligned rows whenever one is admitted —
        // under the same worker seed. The second table has grown by two
        // sealed chunks and an open one since its star was built, so the
        // Δ begins with a filter prefix shorter than the table: the
        // extension probes the new rows and carries the join index.
        let rows = 20_000i64;
        let catalog = star_catalog(rows);
        let mut grown = catalog.clone();
        let end = rows + 2 * laqy_engine::STORED_CHUNK_ROWS as i64 + 700;
        let appended = |f: fn(i64) -> i64| Column::Int64((rows..end).map(f).collect());
        let batch = vec![
            ("key".into(), appended(|i| (i * 7919) % 40_000)),
            ("g".into(), appended(|i| (i * 31) % 7)),
            ("v".into(), appended(|i| i)),
            ("fk".into(), appended(|i| i % DIMS)),
        ];
        grown.register(grown.table("t").unwrap().append_batch(&batch).unwrap());
        let query = star_query(Interval::new(2_000, 15_999));
        let schema = payload_schema(&catalog, &query).unwrap();
        assert_eq!(schema.column_names(), vec!["dw", "v", "key"]);
        let seed = 11u64;
        for (catalog, built_over) in [(&catalog, None), (&grown, Some(&catalog))] {
            let fact = catalog.table("t").unwrap();
            for morsel_rows in [1_024, fact.num_rows()] {
                let mut exec = LaqyExecutor::new(1, SupportPolicy::default(), seed);
                exec.morsel_rows = morsel_rows;
                let token = CancelToken::unbounded();
                if let Some(base) = built_over {
                    let shape = JoinShape::of(base, &query.plan).unwrap();
                    let star = exec.joins.star(&shape, base, &query.plan, 1, &token);
                    assert!(star.unwrap().index.filter().rows() < fact.num_rows());
                }
                let shape = JoinShape::of(catalog, &query.plan).unwrap();
                let scope = Scope {
                    catalog,
                    query: &query,
                    schema: &schema,
                    shape: &shape,
                    strata_hint: 0,
                };
                let ranges = IntervalSet::of(query.range);
                let run = exec.sample_pipeline(scope, &ranges, 0);
                let sample = run.unwrap().delta.read();

                let dim = catalog.table("d").unwrap();
                let sel: Vec<u32> = (0..fact.num_rows() as u32)
                    .filter(|&r| {
                        query
                            .range
                            .contains(fact.column("key").unwrap().i64_at(r as usize))
                    })
                    .collect();
                let joins = PreparedJoins::build(catalog, &query.plan).unwrap();
                let probed = star_probe(fact, &sel, &joins.probes()).unwrap();
                let (at_fact, at_dim) = (&probed.fact_rows[..], &probed.dim_rows[0][..]);
                let keys = [
                    BoundCol::new(dim.column("dg").unwrap(), Some(at_dim)),
                    BoundCol::new(fact.column("g").unwrap(), Some(at_fact)),
                ];
                let payload = [
                    (
                        BoundCol::new(dim.column("dw").unwrap(), Some(at_dim)),
                        SlotKind::Float,
                    ),
                    (
                        BoundCol::new(fact.column("v").unwrap(), Some(at_fact)),
                        SlotKind::Int,
                    ),
                    (
                        BoundCol::new(fact.column("key").unwrap(), Some(at_fact)),
                        SlotKind::Int,
                    ),
                ];
                // The pipeline draws one unused seed, then the worker seed.
                let gamma = 0x9E37_79B9_7F4A_7C15u64;
                let worker_seed =
                    seed.wrapping_add(gamma).wrapping_add(gamma) ^ 0xAD31_55A7_C0DE_5EED;
                let mut oracle = crate::sampler_ops::TupleSample::new(query.k);
                crate::sampler_ops::admit_tuples(
                    &mut oracle,
                    &mut Lehmer64::new(worker_seed),
                    &keys,
                    &payload,
                    at_fact.len(),
                );
                assert!(oracle.iter().any(|(_, items, w)| w > items.len() as u64));
                assert_eq!(
                    sample.contents(),
                    crate::sampler_ops::tuple_contents(&oracle, schema.len()),
                    "{} rows, {morsel_rows}-row morsels",
                    fact.num_rows()
                );
                let star = exec.joins.star(&shape, catalog, &query.plan, 1, &token);
                assert_eq!(star.unwrap().index.filter().rows(), fact.num_rows());
            }
        }
    }

    #[test]
    fn one_thread_sample_is_independent_of_morsel_size() {
        let rows = 150_000;
        let catalog = admission_catalog(rows, 50);
        let query = mini_query(10_000, 99_999);
        let whole = sample_with(&catalog, &query, 1, rows as usize, 7);
        assert_eq!(whole.num_strata(), 50);
        assert_eq!(whole.total_weight(), 90_000);
        for morsel_rows in [4_096, DEFAULT_MORSEL_ROWS] {
            let cut = sample_with(&catalog, &query, 1, morsel_rows, 7);
            assert_eq!(
                cut.iter().collect::<Vec<_>>(),
                whole.iter().collect::<Vec<_>>(),
                "{morsel_rows}-row morsels changed the sample"
            );
        }
        // Same seed, same answer; another seed, another sample.
        let again = sample_with(&catalog, &query, 1, 4_096, 7);
        assert_eq!(
            again.iter().collect::<Vec<_>>(),
            whole.iter().collect::<Vec<_>>()
        );
        let other = sample_with(&catalog, &query, 1, 4_096, 8);
        assert_ne!(
            other.iter().collect::<Vec<_>>(),
            whole.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn admission_matches_reference_weights_and_is_uniform() {
        // Every scan shape must retain min(k, w) tuples of the w selected
        // per stratum, and include each selected row with probability k/w.
        let (rows, strata, seeds) = (960i64, 4i64, 300u64);
        let catalog = admission_catalog(rows, strata);
        let mut query = mini_query(100, 819);
        query.k = 8;
        let t = catalog.table("t").unwrap();
        let v_slot = payload_schema(&catalog, &query).unwrap().slot("v").unwrap();
        // Multi-morsel on one worker, and multi-worker (the fold hands
        // the 60 morsels to 8 task units).
        for threads in [1, 8] {
            let mut included = vec![0u64; rows as usize];
            for seed in 0..seeds {
                let sample = sample_with(&catalog, &query, threads, 16, seed);
                let reference = reference_sample(&catalog, &query, seed);
                assert_eq!(sample.num_strata(), reference.len());
                for (key, items, weight) in sample.iter() {
                    let r = &reference[&key.parts()[0]];
                    assert_eq!(weight, r.weight(), "threads={threads} seed={seed}");
                    assert_eq!(items.len(), r.len(), "threads={threads} seed={seed}");
                    for row in items.iter() {
                        included[row[v_slot] as usize] += 1;
                    }
                }
            }
            let reference = reference_sample(&catalog, &query, 0);
            for (g, r) in &reference {
                // Inclusion counts over the seeds are Binomial(seeds, k/w)
                // per selected row: Pearson's statistic over the stratum's
                // w rows is ≈ χ²(w − 1).
                let w = r.weight() as f64;
                let p = query.k as f64 / w;
                let chi2: f64 = (0..rows as usize)
                    .filter(|&row| {
                        t.column("g").unwrap().i64_at(row) == *g
                            && query.range.contains(t.column("key").unwrap().i64_at(row))
                    })
                    .map(|row| {
                        let expected = seeds as f64 * p;
                        (included[row] as f64 - expected).powi(2) / (expected * (1.0 - p))
                    })
                    .sum();
                let df = w - 1.0;
                assert!(
                    chi2 < df + 5.0 * (2.0 * df).sqrt(),
                    "threads={threads} stratum {g}: χ² {chi2:.1} over {df} df"
                );
                assert!(
                    chi2 > df - 5.0 * (2.0 * df).sqrt(),
                    "threads={threads} stratum {g}: χ² {chi2:.1} suspiciously even"
                );
            }
        }
    }

    /// The sample one pipeline run draws, and its stats, with the row
    /// source pinned by `prefer`.
    fn sample_through(
        catalog: &Catalog,
        query: &ApproxQuery,
        (ranges, row_floor): (&IntervalSet, usize),
        morsel_rows: usize,
        prefer: fn(usize, usize) -> bool,
    ) -> (crate::sampler_ops::Contents, ExecStats) {
        let mut exec = LaqyExecutor::new(1, SupportPolicy::default(), 5);
        exec.morsel_rows = morsel_rows;
        exec.prefer_index = prefer;
        let schema = payload_schema(catalog, query).unwrap();
        let shape = JoinShape::of(catalog, &query.plan).unwrap();
        let scope = Scope {
            catalog,
            query,
            schema: &schema,
            shape: &shape,
            strata_hint: 0,
        };
        let run = exec.sample_pipeline(scope, ranges, row_floor).unwrap();
        (run.delta.read().contents(), run.stats)
    }

    /// Assert that the index and the scan give one Δ the same sample, byte
    /// for byte, and the same cardinalities, and that each path ran.
    fn assert_sources_agree(catalog: &Catalog, query: &ApproxQuery, delta: (&IntervalSet, usize)) {
        for morsel_rows in [16_384, DEFAULT_MORSEL_ROWS] {
            let (indexed, by_index) =
                sample_through(catalog, query, delta, morsel_rows, |_, _| true);
            let (scanned, by_scan) =
                sample_through(catalog, query, delta, morsel_rows, |_, _| false);
            let context = format!("{delta:?}, {morsel_rows}-row morsels");
            assert!(!scanned.is_empty(), "{context}: an empty Δ proves nothing");
            assert_eq!(indexed, scanned, "{context}");
            assert_eq!(
                (by_index.scanned_rows, by_index.sampled_input_rows),
                (by_scan.scanned_rows, by_scan.sampled_input_rows),
                "{context}"
            );
            assert!(by_index.morsels_indexed > 0, "{context}: the index ran");
            assert_eq!(by_scan.morsels_indexed, 0, "{context}: the scan ran");
        }
    }

    #[test]
    fn index_and_scan_give_byte_identical_samples() {
        // Q1-shaped: a shuffled range key, a fact group column, two
        // intervals.
        let catalog = admission_catalog(150_000, 50);
        let query = mini_query(0, 149_999);
        let ranges = IntervalSet::from_intervals(vec![
            Interval::new(9_000, 17_999),
            Interval::new(70_000, 70_999),
        ]);
        assert_sources_agree(&catalog, &query, (&ranges, 0));
        // A fixed predicate on another column: the residual the index
        // leaves to the kernels.
        let mut gated = query.clone();
        gated.plan.predicate = Predicate::between("g", 3, 30);
        assert_sources_agree(&catalog, &gated, (&ranges, 0));
        // Above the join, with a dimension payload column.
        let catalog = star_catalog(60_000);
        let query = star_query(Interval::new(0, 59_999));
        let ranges = IntervalSet::of(Interval::new(20_000, 29_999));
        assert_sources_agree(&catalog, &query, (&ranges, 0));
    }

    #[test]
    fn tail_fragments_agree_with_the_floor_in_a_sealed_or_the_open_chunk() {
        use laqy_engine::STORED_CHUNK_ROWS;
        // 50 000 rows at construction, then three sealed chunks and an
        // open one from one batch.
        let (base, total) = (50_000i64, 50_000 + 3 * STORED_CHUNK_ROWS as i64 + 700);
        let columns = |rows: std::ops::Range<i64>| -> Vec<(String, Column)> {
            vec![
                (
                    "key".into(),
                    Column::Int64(rows.clone().map(|i| (i * 7_919) % total).collect()),
                ),
                (
                    "g".into(),
                    Column::Int64(rows.clone().map(|i| (i * 31) % 40).collect()),
                ),
                ("v".into(), Column::Int64(rows.collect())),
            ]
        };
        let grown = Table::new("t", columns(0..base))
            .unwrap()
            .append_batch(&columns(base..total))
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register(grown);
        let query = mini_query(0, total - 1);
        let ranges = IntervalSet::of(Interval::new(1_000, 20_999));
        let chunk = STORED_CHUNK_ROWS;
        for row_floor in [base as usize + chunk + 123, base as usize + 3 * chunk + 50] {
            let (_, stats) = sample_through(
                &catalog,
                &query,
                (&ranges, row_floor),
                DEFAULT_MORSEL_ROWS,
                |_, _| false,
            );
            assert_eq!(stats.scanned_rows, total as u64 - row_floor as u64);
            if row_floor < base as usize + 3 * chunk {
                assert_sources_agree(&catalog, &query, (&ranges, row_floor));
            } else {
                // Past every sealed piece nothing is indexed: both pins
                // walk the open chunk alike.
                let pinned = |prefer| {
                    sample_through(
                        &catalog,
                        &query,
                        (&ranges, row_floor),
                        DEFAULT_MORSEL_ROWS,
                        prefer,
                    )
                };
                let ((indexed, by_index), (scanned, _)) =
                    (pinned(|_, _| true), pinned(|_, _| false));
                assert!(!scanned.is_empty());
                assert_eq!(indexed, scanned);
                assert_eq!(by_index.morsels_indexed, 0);
            }
        }
    }
}
