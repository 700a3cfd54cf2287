//! Answers pinned bit for bit across a change of sample layout or
//! admission path.
//!
//! The digests below were computed at the commit *before* row-id admission
//! and slot-range strata (PR 23's parent) and must never be regenerated
//! from the tree under test: they are the evidence that a Δ-sample built
//! from admitted row ids and materialised afterwards is the sample the
//! tuple-building admission built — the RNG sees the same offers in the
//! same order — and that snapshot bytes did not move. Each list runs at
//! `threads: 1` (parallel scans are not reproducible, ROADMAP item 1a) and
//! folds, per answer, every group's key, value, half-width (`NaN`s as
//! their bits) and support, the `SupportReport`, the reuse class and the
//! scan cardinalities; then the service counters and the exported store.
//! The counters are hashed by name since a commit whose answers matched
//! the digests then pinned; the answers digests were re-pinned there, on
//! that tree, and nowhere else. Dropping the lane-covered-rows counter
//! from the list re-pinned them once more, the same way, on the tree
//! that still had lanes. The store-bytes digests never moved.

use laqy::{ApproxResult, Interval, IntervalSet, LaqyService, ServiceStats, SessionConfig};
use laqy_sampling::SplitMix64;
use laqy_workload::{
    generate, lineorder_batch, long_running, q1, q2, short_running, ExploreConfig, SsbConfig,
};

const K: usize = 32;
const DATA_SEED: u64 = 0x55B;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn answer(&mut self, r: &ApproxResult) {
        self.word(r.groups.len() as u64);
        for g in &r.groups {
            for &part in &g.key {
                self.word(part as u64);
            }
            for v in &g.values {
                self.word(v.value.to_bits());
                self.word(v.ci_half_width.to_bits());
                self.word(v.support as u64);
            }
        }
        self.word(r.support.supported as u64);
        for keys in [&r.support.under_supported, &r.support.empty] {
            self.word(keys.len() as u64);
            for key in keys {
                for &part in key.parts() {
                    self.word(part as u64);
                }
            }
        }
        self.bytes(format!("{:?}", r.stats.reuse).as_bytes());
        self.word(r.stats.scanned_rows);
        self.word(r.stats.sampled_input_rows);
    }

    /// The counters that count what the queries did, each by name: not
    /// the one that measures time, nor one that counts an internal
    /// structure's rebuilds rather than anything a query asked for.
    fn counters(&mut self, s: ServiceStats) {
        let named = [
            ("queries", s.queries),
            ("full_hits", s.full_hits),
            ("partial_merges", s.partial_merges),
            ("online_runs", s.online_runs),
            ("delta_scans", s.delta_scans),
            ("online_scans", s.online_scans),
            ("merges_deduped", s.merges_deduped),
            ("online_deduped", s.online_deduped),
            ("merge_retries", s.merge_retries),
            ("support_fallbacks", s.support_fallbacks),
            ("morsels_skipped", s.morsels_skipped),
            ("morsels_fast_pathed", s.morsels_fast_pathed),
            ("morsels_scanned", s.morsels_scanned),
            ("fragments_reused", s.fragments_reused),
            ("fragments_scanned", s.fragments_scanned),
            ("fragments_deduped", s.fragments_deduped),
            ("degraded_answers", s.degraded_answers),
            ("faults_injected", s.faults_injected),
            ("snapshots_recovered", s.snapshots_recovered),
            ("ingest_batches", s.ingest_batches),
            ("ingest_rows", s.ingest_rows),
            ("absorbed_samples", s.absorbed_samples),
            ("absorbed_rows", s.absorbed_rows),
            ("wal_appends", s.wal_appends),
            ("wal_replays", s.wal_replays),
        ];
        for (name, value) in named {
            self.bytes(name.as_bytes());
            self.word(value);
        }
    }
}

fn service(sf: f64) -> (LaqyService, Interval) {
    let catalog = generate(&SsbConfig {
        scale_factor: sf,
        seed: DATA_SEED,
    });
    let rows = catalog.table("lineorder").unwrap().num_rows();
    let svc = LaqyService::with_config(
        catalog,
        SessionConfig {
            threads: 1,
            ..SessionConfig::default()
        },
    );
    (svc, Interval::new(0, rows as i64 - 1))
}

/// Full hits a session implies (the benchmark's `implied_full_hits`).
fn implied_full_hits(session: &[Interval]) -> usize {
    let mut covered = IntervalSet::empty();
    let mut hits = 0;
    for &range in session {
        let range = IntervalSet::of(range);
        hits += usize::from(covered.subsumes(&range));
        covered = covered.union(&range);
    }
    hits
}

/// The benchmark's `explore_q1` op list for `seed`: long-running sessions
/// whose implied hit count is the template's usual 20 ± 1.
fn q1_sessions(seed: u64, domain: Interval, count: usize) -> Vec<Vec<Interval>> {
    let mut seeds = SplitMix64::new(seed ^ 0x51_0001);
    std::iter::repeat_with(|| long_running(&ExploreConfig::long_running(domain, seeds.next_u64())))
        .filter(|session| implied_full_hits(session).abs_diff(20) <= 1)
        .take(count)
        .collect()
}

/// Digest of the seed-1 `explore_q1` list at `sf`: every answer, then an
/// ingest the last session's samples absorb and the answers after it, the
/// counters, the exported store — and the same store imported into a second
/// service must answer alike and export the same bytes.
fn explore_q1_digest(sf: f64, sessions: usize) -> (u64, u64) {
    let (svc, domain) = service(sf);
    let mut d = Digest::new();
    let lists = q1_sessions(1, domain, sessions);
    for session in &lists {
        svc.clear_samples();
        for &range in session {
            d.answer(&svc.run(&q1(range, K)).unwrap());
        }
    }
    let exported = svc.export_samples();
    let mut store = Digest::new();
    store.bytes(&exported);

    // A snapshot restores to a store that answers and re-exports alike.
    let (restored, _) = service(sf);
    restored.import_samples(&exported).unwrap();
    assert_eq!(restored.export_samples(), exported, "re-export moved bytes");
    let last = lists.last().unwrap();
    for &range in last.iter().rev().take(5) {
        let a = svc.run(&q1(range, K)).unwrap();
        let b = restored.run(&q1(range, K)).unwrap();
        d.answer(&a);
        d.answer(&b);
    }

    // Stored strata absorb appended rows in place: the batch's keys lie
    // inside the last queried range, so the samples covering it take them.
    let widest = last.iter().max_by_key(|r| r.hi - r.lo).unwrap();
    let batch = lineorder_batch(
        &SsbConfig {
            scale_factor: sf,
            seed: 77,
        },
        widest.lo as usize,
        2_000,
    );
    svc.ingest("lineorder", batch).unwrap();
    for &range in last.iter().rev().take(5) {
        d.answer(&svc.run(&q1(range, K)).unwrap());
    }
    d.counters(svc.stats());
    store.bytes(&svc.export_samples());
    (d.0, store.0)
}

/// Digest of an 80-query Q2 short-running list (4 batches of 20, sampler
/// above the star join) at `sf`.
fn short_q2_digest(sf: f64) -> (u64, u64) {
    let (svc, domain) = service(sf);
    let mut d = Digest::new();
    for range in short_running(&ExploreConfig::short_batch(domain, 1), 4) {
        d.answer(&svc.run(&q2(range, K)).unwrap());
    }
    d.counters(svc.stats());
    let mut store = Digest::new();
    store.bytes(&svc.export_samples());
    (d.0, store.0)
}

#[test]
fn explore_q1_answers_and_snapshot_bytes_are_the_parents() {
    assert_eq!(
        explore_q1_digest(0.02, 4),
        (6452891430104084962, 11531443906033912511),
        "(answers, store bytes) moved"
    );
}

#[test]
fn short_running_q2_answers_and_snapshot_bytes_are_the_parents() {
    assert_eq!(
        short_q2_digest(0.02),
        (11258750995418674339, 333790791842216025),
        "(answers, store bytes) moved"
    );
}

/// The benchmark's own scale: SF 0.1, the full 12-session seed-1 list
/// (600 queries). Minutes in a debug build — run with
/// `cargo test --release --test golden_answers -- --ignored`.
#[test]
#[ignore = "full benchmark scale; run in release"]
fn full_scale_answers_and_snapshot_bytes_are_the_parents() {
    assert_eq!(
        explore_q1_digest(0.1, 12),
        (1034346920562854167, 17657302255739893510),
        "explore_q1 moved"
    );
    assert_eq!(
        short_q2_digest(0.1),
        (4754411026873059164, 1598462428724985659),
        "Q2 moved"
    );
}
