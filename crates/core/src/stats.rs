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

/// Declares [`ExecStats`]' additive fields once: the struct, the `+=` of
/// every one of them in [`ExecStats::accumulate`], and — for a field
/// marked `=> counter` — its fold into the service-wide counter of that
/// name after each served query.
macro_rules! exec_stats {
    ($($(#[$doc:meta])* $name:ident: $ty:ty $(=> $counter:ident)?,)*) => {
        /// Timing and cardinality breakdown of one query execution.
        #[derive(Debug, Clone, Default)]
        pub struct ExecStats {
            $($(#[$doc])* pub $name: $ty,)*
            /// Present when the budget expired mid-scan and the answer was
            /// finalized from a partial sample (CI widened accordingly).
            pub degraded: Option<Degradation>,
            /// Which reuse arm ran.
            pub reuse: Option<ReuseClass>,
        }

        impl ExecStats {
            /// Accumulate another query's stats (cumulative series).
            pub fn accumulate(&mut self, other: &ExecStats) {
                $(self.$name += other.$name;)*
                // Keep the most severe degradation across accumulated
                // pipelines.
                self.degraded = match (self.degraded.take(), other.degraded) {
                    (Some(a), Some(b)) => Some(a.merge(b)),
                    (a, b) => a.or(b),
                };
            }

            /// Every additive field by name, as a number: tests iterate
            /// the list the struct was declared from.
            #[cfg(test)]
            fn additive(&self) -> Vec<(&'static str, f64)> {
                use tests::Number;
                vec![$((stringify!($name), self.$name.number()),)*]
            }
        }

        impl Counters {
            /// Fold one served query's scan verdict counts into the
            /// service totals.
            pub fn note_served(&self, stats: &ExecStats) {
                $($(self.$counter.fetch_add(stats.$name, Ordering::Relaxed);)?)*
            }
        }
    };
}

exec_stats! {
    /// Time in the filtered scan (and joins, for sampler-above-join
    /// plans) feeding the sampler.
    scan: Duration,
    /// Time spent in sampling / aggregation processing.
    processing: Duration,
    /// Time merging the Δ sample with the stored sample.
    merge: Duration,
    /// Time spent producing estimates from the (merged) sample.
    estimate: Duration,
    /// Wall-clock total.
    total: Duration,
    /// Rows the scan had to consider (0 on full reuse).
    scanned_rows: u64,
    /// Rows that reached the sampler after filters/joins.
    sampled_input_rows: u64,
    /// Effective selectivity actually processed: Δ-range measure divided by
    /// the predicate-domain measure (Figure 9's y-axis).
    effective_selectivity: f64,
    /// Morsels the scan skipped outright via zone maps (provably empty
    /// under the pushed-down predicate).
    morsels_skipped: u64 => morsels_skipped,
    /// Morsels fast-pathed via zone maps (provably all-matching; emitted
    /// without per-row evaluation).
    morsels_fast_pathed: u64 => morsels_fast_pathed,
    /// Morsels that needed per-row predicate evaluation.
    morsels_scanned: u64 => morsels_scanned,
    /// Stored samples this query's coverage plan merged (0 when the query
    /// ran online or hit a single subsuming sample).
    fragments_reused: u64,
    /// Residual coverage fragments Δ-scanned for this query.
    fragments_scanned: u64,
}

impl ExecStats {
    /// Sum of the instrumented phases (excludes untimed slack).
    pub fn phases_total(&self) -> Duration {
        self.scan + self.processing + self.merge + self.estimate
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

    /// An additive field's value as a number.
    pub(super) trait Number {
        fn number(self) -> f64;
    }
    impl Number for Duration {
        fn number(self) -> f64 {
            self.as_secs_f64()
        }
    }
    impl Number for u64 {
        fn number(self) -> f64 {
            self as f64
        }
    }
    impl Number for f64 {
        fn number(self) -> f64 {
            self
        }
    }

    fn every_field_set() -> ExecStats {
        ExecStats {
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
            fragments_reused: 2,
            fragments_scanned: 1,
            degraded: None,
            reuse: Some(ReuseClass::Partial),
        }
    }

    #[test]
    fn accumulate_adds_everything() {
        let mut a = every_field_set();
        let b = a.clone();
        a.accumulate(&b);
        for ((name, doubled), (_, once)) in a.additive().into_iter().zip(b.additive()) {
            assert!(once != 0.0, "the fixture leaves `{name}` at zero");
            assert_eq!(doubled, 2.0 * once, "{name}");
        }
    }

    #[test]
    fn served_counters_take_their_marked_fields_only() {
        let counters = Counters::default();
        counters.note_served(&every_field_set());
        counters.note_served(&every_field_set());
        let expected = ServiceStats {
            morsels_skipped: 14,
            morsels_fast_pathed: 4,
            morsels_scanned: 6,
            ..Default::default()
        };
        assert_eq!(counters.snapshot(), expected);
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
