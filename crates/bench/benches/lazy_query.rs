//! Criterion benchmarks for the end-to-end lazy sampling paths: full
//! reuse (no scan), partial reuse (Δ sample + merge), and full online
//! sampling — the per-query regimes of Figures 12/13.

use criterion::{criterion_group, criterion_main, Criterion};
use laqy::{Interval, LaqyService, SessionConfig};
use laqy_workload::{generate, q1, SsbConfig};
use std::hint::black_box;

fn catalog() -> laqy_engine::Catalog {
    generate(&SsbConfig {
        scale_factor: 0.02,
        seed: 0xC2,
    })
}

fn bench_lazy_paths(c: &mut Criterion) {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let mut group = c.benchmark_group("lazy_query_q1");
    group.sample_size(10);

    // Full online sampling: fresh session every iteration.
    group.bench_function("online_cold", |b| {
        let query = q1(Interval::new(0, n / 2), 32);
        b.iter(|| {
            let s = LaqyService::with_config(
                cat.clone(),
                SessionConfig {
                    threads: 1,
                    ..Default::default()
                },
            );
            black_box(s.run(&query).unwrap().groups.len())
        })
    });

    // Partial reuse: warm coverage of [0, n/2), query extends to 60%.
    group.bench_function("partial_delta_merge", |b| {
        b.iter_with_setup(
            || {
                let s = LaqyService::with_config(
                    cat.clone(),
                    SessionConfig {
                        threads: 1,
                        ..Default::default()
                    },
                );
                s.run(&q1(Interval::new(0, n / 2), 32)).unwrap();
                s
            },
            |s| {
                let query = q1(Interval::new(0, (n as f64 * 0.6) as i64), 32);
                black_box(s.run(&query).unwrap().groups.len())
            },
        )
    });

    // Full reuse: answer entirely from the stored sample.
    group.bench_function("full_reuse", |b| {
        let s = LaqyService::with_config(
            cat.clone(),
            SessionConfig {
                threads: 1,
                ..Default::default()
            },
        );
        s.run(&q1(Interval::new(0, n - 1), 32)).unwrap();
        let query = q1(Interval::new(n / 4, n / 2), 32);
        b.iter(|| black_box(s.run(&query).unwrap().groups.len()))
    });

    group.finish();
}

criterion_group!(benches, bench_lazy_paths);
criterion_main!(benches);
