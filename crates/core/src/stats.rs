//! Per-query execution statistics.
//!
//! The figure harness reconstructs the paper's time breakdowns (Figure 11:
//! scan vs. processing vs. merge) and per-query/cumulative series
//! (Figures 12–15) from these counters.

use std::time::Duration;

use laqy_sync::atomic::{AtomicU64, Ordering};

use crate::budget::Degradation;

/// Which reuse path a query took (Algorithm 1's three arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseClass {
    /// Stored sample subsumed the query: no scan, no sampling.
    Full,
    /// Δ sample built and merged.
    Partial,
    /// Full online sampling.
    Online,
    /// Exact (non-approximate) execution.
    Exact,
}

impl ReuseClass {
    /// Short label for harness output.
    pub fn label(&self) -> &'static str {
        match self {
            ReuseClass::Full => "full",
            ReuseClass::Partial => "partial",
            ReuseClass::Online => "online",
            ReuseClass::Exact => "exact",
        }
    }
}

/// Timing and cardinality breakdown of one query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Time in the filtered scan (and joins, for sampler-above-join
    /// plans) feeding the sampler.
    pub scan: Duration,
    /// Time spent in sampling / aggregation processing.
    pub processing: Duration,
    /// Time merging the Δ sample with the stored sample.
    pub merge: Duration,
    /// Time spent producing estimates from the (merged) sample.
    pub estimate: Duration,
    /// Wall-clock total.
    pub total: Duration,
    /// Rows the scan had to consider (0 on full reuse).
    pub scanned_rows: u64,
    /// Rows that reached the sampler after filters/joins.
    pub sampled_input_rows: u64,
    /// Effective selectivity actually processed: Δ-range measure divided by
    /// the predicate-domain measure (Figure 9's y-axis).
    pub effective_selectivity: f64,
    /// Morsels the scan skipped outright via zone maps (provably empty
    /// under the pushed-down predicate).
    pub morsels_skipped: u64,
    /// Morsels fast-pathed via zone maps (provably all-matching; emitted
    /// without per-row evaluation).
    pub morsels_fast_pathed: u64,
    /// Morsels that needed per-row predicate evaluation.
    pub morsels_scanned: u64,
    /// Rows whose aggregate contribution came exactly from pre-aggregate
    /// lanes — excluded from the scan *and* from the sampler's input
    /// (hybrid estimation; "rows made free").
    pub lane_covered_rows: u64,
    /// Lane-covered spans (contiguous TakeAll, group-constant block runs)
    /// this query's scans turned into exact mass.
    pub lane_spans: u64,
    /// Stored samples this query's coverage plan merged (0 when the query
    /// ran online or hit a single subsuming sample).
    pub fragments_reused: u64,
    /// Residual coverage fragments Δ-scanned for this query.
    pub fragments_scanned: u64,
    /// Present when the budget expired mid-scan and the answer was
    /// finalized from a partial sample (CI widened accordingly).
    pub degraded: Option<Degradation>,
    /// Which reuse arm ran.
    pub reuse: Option<ReuseClass>,
}

impl ExecStats {
    /// Sum of the instrumented phases (excludes untimed slack).
    pub fn phases_total(&self) -> Duration {
        self.scan + self.processing + self.merge + self.estimate
    }

    /// Accumulate another query's stats (cumulative series).
    pub fn accumulate(&mut self, other: &ExecStats) {
        self.scan += other.scan;
        self.processing += other.processing;
        self.merge += other.merge;
        self.estimate += other.estimate;
        self.total += other.total;
        self.scanned_rows += other.scanned_rows;
        self.sampled_input_rows += other.sampled_input_rows;
        self.effective_selectivity += other.effective_selectivity;
        self.morsels_skipped += other.morsels_skipped;
        self.morsels_fast_pathed += other.morsels_fast_pathed;
        self.morsels_scanned += other.morsels_scanned;
        self.lane_covered_rows += other.lane_covered_rows;
        self.lane_spans += other.lane_spans;
        self.fragments_reused += other.fragments_reused;
        self.fragments_scanned += other.fragments_scanned;
        // Keep the most severe degradation across accumulated pipelines.
        self.degraded = match (self.degraded.take(), other.degraded) {
            (Some(a), Some(b)) => Some(a.merge(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Declares the service's counters once: the public [`ServiceStats`]
/// snapshot, the live `Counters` behind it, and the copy between them.
macro_rules! service_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Cumulative counters of a
        /// [`LaqyService`](crate::service::LaqyService): how the concurrent
        /// workload actually hit the shared store.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ServiceStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// The live counters (all relaxed; they are telemetry, not
        /// synchronization).
        #[derive(Default)]
        pub(crate) struct Counters {
            $(pub $name: AtomicU64,)*
        }

        impl Counters {
            /// Read every counter.
            pub fn snapshot(&self) -> ServiceStats {
                ServiceStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

service_counters! {
    /// Queries accepted by [`run`](crate::service::LaqyService::run).
    queries,
    /// Queries answered by full reuse (no sampling scan at all).
    full_hits,
    /// Queries answered via a successful Δ-merge (partial reuse).
    partial_merges,
    /// Queries that ran full online sampling and absorbed the result.
    online_runs,
    /// Δ sampling scans actually performed.
    delta_scans,
    /// Full online sampling scans actually performed.
    online_scans,
    /// Δ scans *avoided* because an identical uncovered interval was
    /// already being sampled by a concurrent client (piggyback).
    merges_deduped,
    /// Online scans avoided the same way.
    online_deduped,
    /// Δ merges discarded at revalidation (store changed concurrently;
    /// the query re-planned).
    merge_retries,
    /// Reused estimates that failed the conservative support check and
    /// fell back to a full online run (§5.2.3 fallback, service-side).
    support_fallbacks,
    /// Total nanoseconds threads spent waiting to acquire the store and
    /// catalog locks (contention telemetry).
    lock_wait_nanos,
    /// Morsels skipped by zone-map pruning across all served scans.
    morsels_skipped,
    /// Morsels fast-pathed (all-matching, no per-row eval) across all
    /// served scans.
    morsels_fast_pathed,
    /// Morsels that needed per-row evaluation across all served scans.
    morsels_scanned,
    /// Rows answered exactly from pre-aggregate lanes (never scanned or
    /// sampled) across all served queries.
    lane_covered_rows,
    /// Stored samples merged by coverage plans across all queries.
    fragments_reused,
    /// Residual coverage fragments Δ-scanned across all queries.
    fragments_scanned,
    /// Fragment Δ-scans avoided because a concurrent client was already
    /// scanning the identical fragment (per-fragment piggyback).
    fragments_deduped,
    /// Queries answered from a partial sample after their budget expired
    /// (degraded answers with widened CIs).
    degraded_answers,
    /// Faults the `laqy_faults` registry injected into this service's
    /// queries (always 0 outside `--cfg laqy_faults` builds).
    faults_injected,
    /// Snapshot recoveries that had to fall back past a corrupt or
    /// truncated generation.
    snapshots_recovered,
    /// Ingest batches accepted by
    /// [`ingest`](crate::service::LaqyService::ingest).
    ingest_batches,
    /// Rows appended across all ingest batches.
    ingest_rows,
    /// Stored-sample absorb passes that caught a sample up to a newer
    /// row watermark (incremental reservoir maintenance, not eviction).
    absorbed_samples,
    /// Appended rows offered to stored samples' reservoirs by those
    /// absorb passes.
    absorbed_rows,
    /// Ingest batches durably appended to the write-ahead log before
    /// being applied (0 when the WAL is disabled).
    wal_appends,
    /// WAL records replayed during recovery.
    wal_replays,
    /// At-rest images built: full hits that were the first after a write
    /// to their sample (every other full hit reuses the image).
    image_builds,
}

impl ServiceStats {
    /// Sampling scans performed (Δ + online): the work the shared store
    /// could not elide.
    pub fn scans_performed(&self) -> u64 {
        self.delta_scans + self.online_scans
    }

    /// Sampling scans avoided via in-flight dedup.
    pub fn scans_deduped(&self) -> u64 {
        self.merges_deduped + self.online_deduped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_adds_everything() {
        let mut a = ExecStats {
            scan: Duration::from_millis(10),
            processing: Duration::from_millis(5),
            merge: Duration::from_millis(1),
            estimate: Duration::from_millis(2),
            total: Duration::from_millis(20),
            scanned_rows: 100,
            sampled_input_rows: 50,
            effective_selectivity: 0.5,
            morsels_skipped: 7,
            morsels_fast_pathed: 2,
            morsels_scanned: 3,
            lane_covered_rows: 30,
            lane_spans: 4,
            fragments_reused: 2,
            fragments_scanned: 1,
            degraded: None,
            reuse: Some(ReuseClass::Partial),
        };
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.scan, Duration::from_millis(20));
        assert_eq!(a.total, Duration::from_millis(40));
        assert_eq!(a.scanned_rows, 200);
        assert_eq!(a.effective_selectivity, 1.0);
        assert_eq!(a.morsels_skipped, 14);
        assert_eq!(a.morsels_fast_pathed, 4);
        assert_eq!(a.morsels_scanned, 6);
        assert_eq!(a.lane_covered_rows, 60);
        assert_eq!(a.lane_spans, 8);
        assert_eq!(a.fragments_reused, 4);
        assert_eq!(a.fragments_scanned, 2);
    }

    #[test]
    fn phases_total_sums_components() {
        let s = ExecStats {
            scan: Duration::from_millis(3),
            processing: Duration::from_millis(4),
            merge: Duration::from_millis(5),
            estimate: Duration::from_millis(6),
            ..Default::default()
        };
        assert_eq!(s.phases_total(), Duration::from_millis(18));
    }

    #[test]
    fn labels() {
        assert_eq!(ReuseClass::Full.label(), "full");
        assert_eq!(ReuseClass::Partial.label(), "partial");
        assert_eq!(ReuseClass::Online.label(), "online");
        assert_eq!(ReuseClass::Exact.label(), "exact");
    }
}
