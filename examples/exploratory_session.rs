//! Exploratory analysis over SSB: replay the paper's long-running query
//! sequence (50 progressively-changing range queries, template Q1) and
//! compare LAQy's lazy sampling against workload-oblivious online sampling
//! and exact execution — the scenario behind Figures 12a/14a.
//!
//! ```text
//! cargo run --release --example exploratory_session [scale_factor]
//! ```

use laqy::{Interval, LaqyService, ReuseClass, SessionConfig};
use laqy_workload::{generate, long_running, q1, ExploreConfig, SsbConfig};

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!(
        "generating SSB data at SF {sf} (~{} fact rows)...",
        (6e6 * sf) as u64
    );
    let catalog = generate(&SsbConfig {
        scale_factor: sf,
        seed: 42,
    });
    let n = catalog.table("lineorder").unwrap().num_rows() as i64;
    let domain = Interval::new(0, n - 1);
    let sequence = long_running(&ExploreConfig::long_running(domain, 7));

    let lazy_session = LaqyService::with_config(catalog.clone(), SessionConfig::default());
    let online_session = LaqyService::with_config(catalog, SessionConfig::default());

    println!("\n#  | range sel | reuse   | LAQy       | online     | exact");
    println!("---+-----------+---------+------------+------------+-----------");
    let (mut lazy_total, mut online_total, mut exact_total) = (0.0f64, 0.0f64, 0.0f64);
    let mut reuse_counts = [0usize; 3]; // full, partial, online
    for (i, &range) in sequence.iter().enumerate() {
        let query = q1(range, 128);
        let lazy = lazy_session.run(&query).expect("lazy run");
        let online = online_session
            .run_online_oblivious(&query)
            .expect("online run");
        let (_, exact) = online_session.run_exact(&query).expect("exact run");

        lazy_total += lazy.stats.total.as_secs_f64();
        online_total += online.stats.total.as_secs_f64();
        exact_total += exact.total.as_secs_f64();
        match lazy.stats.reuse.unwrap() {
            ReuseClass::Full => reuse_counts[0] += 1,
            ReuseClass::Partial => reuse_counts[1] += 1,
            _ => reuse_counts[2] += 1,
        }
        println!(
            "{i:>2} | {:>8.4}  | {:7} | {:>9.2?} | {:>9.2?} | {:>9.2?}",
            range.width() as f64 / domain.width() as f64,
            lazy.stats.reuse.unwrap().label(),
            lazy.stats.total,
            online.stats.total,
            exact.total,
        );
    }

    println!(
        "\nreuse classes: {} full, {} partial, {} online",
        reuse_counts[0], reuse_counts[1], reuse_counts[2]
    );
    println!("cumulative: LAQy {lazy_total:.3}s | online sampling {online_total:.3}s | exact {exact_total:.3}s");
    println!(
        "LAQy speedup over online sampling: {:.1}x (paper reports 2.5x-19.3x across workloads)",
        online_total / lazy_total.max(1e-9)
    );
    println!(
        "sample store: {} samples, {:.1} MiB",
        lazy_session.store().len(),
        lazy_session.store().total_bytes() as f64 / (1024.0 * 1024.0)
    );
}
