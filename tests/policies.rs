//! Integration tests for the support policies (§5.2), oversampling, the
//! conservative fallback, and the reuse-mode ablation switch.

use laqy::{
    Interval, IntervalSet, LaqyService, Predicates, ReuseClass, ReuseMode, SessionConfig,
    SupportPolicy,
};
use laqy_engine::Catalog;
use laqy_workload::{generate, q1, SsbConfig};

fn catalog() -> Catalog {
    generate(&SsbConfig {
        scale_factor: 0.005,
        seed: 0x90C,
    })
}

fn n_rows(cat: &Catalog) -> i64 {
    cat.table("lineorder").unwrap().num_rows() as i64
}

#[test]
fn full_match_only_mode_never_reports_partial() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed: 1,
            reuse_mode: ReuseMode::FullMatchOnly,
            ..Default::default()
        },
    );
    s.run(&q1(Interval::new(0, n / 2), 64)).unwrap();
    // Overlapping-but-not-subsumed: lazy mode would go partial; this must
    // fall back to full online sampling.
    let r = s.run(&q1(Interval::new(0, 3 * n / 4), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
    // Fully subsumed queries still hit the cache.
    let r = s.run(&q1(Interval::new(0, n / 4), 64)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
}

#[test]
fn lazy_mode_beats_full_match_only_on_overlapping_sequences() {
    let cat = catalog();
    let n = n_rows(&cat);
    // A growing sequence where every step extends the previous range.
    let steps: Vec<Interval> = (1..=8).map(|i| Interval::new(0, n * i / 8 - 1)).collect();
    let run = |mode: ReuseMode| -> (u64, u64) {
        let s = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 2,
                seed: 2,
                reuse_mode: mode,
                ..Default::default()
            },
        );
        let mut scanned = 0;
        let mut sampled = 0;
        for &iv in &steps {
            let r = s.run(&q1(iv, 64)).unwrap();
            scanned += r.stats.scanned_rows;
            sampled += r.stats.sampled_input_rows;
        }
        (scanned, sampled)
    };
    let (_, lazy_sampled) = run(ReuseMode::Lazy);
    let (_, strict_sampled) = run(ReuseMode::FullMatchOnly);
    // Lazy processes each region once (≤ n rows reach the sampler);
    // all-or-none re-samples every extension from scratch.
    assert!(lazy_sampled as i64 <= n);
    assert!(
        strict_sampled > lazy_sampled * 2,
        "partial reuse should cut sampler input: lazy {lazy_sampled}, strict {strict_sampled}"
    );
}

#[test]
fn oversampling_alpha_scales_reservoirs() {
    let cat = catalog();
    let n = n_rows(&cat);
    let run_support = |alpha: f64| -> usize {
        let s = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 2,
                seed: 3,
                policy: SupportPolicy {
                    oversampling_alpha: alpha,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        // 50 strata over 30k rows: ~600 tuples per stratum, so k=8 vs
        // α·k=32 changes what is retained.
        let q = laqy_workload::strat(1, "lo_intkey", Interval::new(0, n - 1), 8);
        let r = s.run(&q).unwrap();
        // Total retained tuples across groups.
        r.groups.iter().map(|g| g.values[0].support).sum()
    };
    let base = run_support(1.0);
    let oversampled = run_support(4.0);
    assert!(
        oversampled > base * 2,
        "alpha=4 should retain more tuples: base {base}, oversampled {oversampled}"
    );
}

#[test]
fn conservative_policy_falls_back_to_online_on_thin_support() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed: 4,
            policy: SupportPolicy {
                min_rows_per_stratum: 1000, // unreachable with k=8
                conservative: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Seed coverage of the full domain.
    s.run(&q1(Interval::new(0, n - 1), 8)).unwrap();
    // A subsumed query would be Full reuse, but support can't meet the
    // policy, so the conservative path re-runs online.
    let r = s.run(&q1(Interval::new(0, n / 4), 8)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));

    // Without the conservative flag the same query is a full reuse with
    // the available (wider) bounds.
    let s = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed: 4,
            policy: SupportPolicy {
                min_rows_per_stratum: 1000,
                conservative: false,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    s.run(&q1(Interval::new(0, n - 1), 8)).unwrap();
    let r = s.run(&q1(Interval::new(0, n / 4), 8)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    assert!(!r.support.fully_supported());
}

#[test]
fn support_report_flags_empty_strata_after_tightening() {
    let cat = catalog();
    let n = n_rows(&cat);
    let s = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed: 5,
            ..Default::default()
        },
    );
    // Cover the whole domain with small reservoirs.
    s.run(&q1(Interval::new(0, n - 1), 4)).unwrap();
    // Tighten to a sliver: most strata retain zero matching tuples.
    let r = s.run(&q1(Interval::new(0, n / 1000), 4)).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Full));
    assert!(
        r.support.empty_len() > 0,
        "sliver predicates should empty most strata"
    );
}

#[test]
fn few_thin_strata_also_fall_back_to_one_online_replan() {
    // 50 strata (1-column QCS): however few strata fall short, a subsumed
    // query under the conservative policy is answered by online sampling
    // of its window (§5.2.3), and the store keeps that sample.
    let cat = catalog();
    let n = n_rows(&cat);
    let s = LaqyService::with_config(
        cat.clone(),
        SessionConfig {
            threads: 2,
            seed: 6,
            policy: SupportPolicy {
                min_rows_per_stratum: 1000, // unreachable with k=8
                conservative: true,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let full = laqy_workload::strat(1, "lo_intkey", Interval::new(0, n - 1), 8);
    s.run(&full).unwrap();
    let window = Interval::new(0, n / 2);
    let narrow = laqy_workload::strat(1, "lo_intkey", window, 8);
    let r = s.run(&narrow).unwrap();
    assert_eq!(r.stats.reuse, Some(ReuseClass::Online));
    let stats = s.stats();
    assert_eq!((stats.full_hits, stats.support_fallbacks), (0, 1));
    // The re-plan scanned the window, and its sample is stored.
    assert!(r.stats.scanned_rows > 0);
    let stored = Predicates::on("lo_intkey", IntervalSet::of(window));
    assert!(
        s.store()
            .iter_samples()
            .any(|x| x.descriptor.predicates == stored),
        "the window's sample is stored"
    );
    // Estimates remain sane: total count across strata ≈ n/2.
    let total: f64 = r.groups.iter().map(|g| g.values[1].value).sum();
    let expected = (n / 2 + 1) as f64;
    assert!(
        (total - expected).abs() / expected < 0.3,
        "total count {total} vs expected {expected}"
    );
}
