//! Criterion benchmarks for the engine operators whose relative costs the
//! evaluation depends on: filtered scans (bandwidth floor), hash group-by
//! (random-access baseline), and stratified sampling through the same
//! group-by (Figure 8's comparison).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use laqy::Interval;
use laqy::{LaqyService, SessionConfig};
use laqy_engine::{scan_count_pruned, Predicate};
use laqy_workload::{generate, strat, SsbConfig};
use std::hint::black_box;

fn catalog() -> laqy_engine::Catalog {
    generate(&SsbConfig {
        scale_factor: 0.02, // 120k fact rows: fast enough for Criterion
        seed: 0xB1,
    })
}

fn bench_scan(c: &mut Criterion) {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows();
    let mut group = c.benchmark_group("scan_filter");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    for sel in [0.01f64, 0.5, 1.0] {
        let pred = Predicate::between("lo_intkey", 0, (n as f64 * sel) as i64 - 1);
        group.bench_with_input(BenchmarkId::from_parameter(sel), &pred, |b, pred| {
            b.iter(|| black_box(scan_count_pruned(&cat, "lineorder", pred, 1).unwrap().0))
        });
    }
    group.finish();
}

/// Figure 8 kernel: exact GroupBy vs stratified sampling over the same
/// keys, 50 vs 4950 strata.
fn bench_strat_vs_groupby(c: &mut Criterion) {
    let cat = catalog();
    let n = cat.table("lineorder").unwrap().num_rows() as i64;
    let mut group = c.benchmark_group("strat_vs_groupby");
    group.sample_size(10);
    for cols in [1usize, 3] {
        let query = strat(cols, "lo_intkey", Interval::new(0, n - 1), 64);
        group.bench_function(BenchmarkId::new("groupby", cols), |b| {
            let session = LaqyService::with_config(
                cat.clone(),
                SessionConfig {
                    threads: 1,
                    ..Default::default()
                },
            );
            b.iter(|| black_box(session.run_exact(&query).unwrap().0.rows.len()))
        });
        group.bench_function(BenchmarkId::new("stratified_sample", cols), |b| {
            let session = LaqyService::with_config(
                cat.clone(),
                SessionConfig {
                    threads: 1,
                    ..Default::default()
                },
            );
            b.iter(|| black_box(session.run_online_oblivious(&query).unwrap().groups.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scan, bench_strat_vs_groupby);
criterion_main!(benches);
