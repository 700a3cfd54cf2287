//! Linked-dashboard scenario: the sampler sits *above* a star join
//! (template Q2 — `lineorder ⋈ date ⋈ supplier ⋈ part` with fixed
//! dimension filters), and three dashboard panels issue short bursts of
//! range queries over different focus regions — the paper's short-running
//! sequence (§7.3.2: "this could happen if there are multiple linked query
//! dashboards issuing different query patterns").
//!
//! Because the sampler is placed past the joins, a Δ sample saves not just
//! sampling work but the join work feeding it (Figures 13b/15b).
//!
//! ```text
//! cargo run --release --example dashboard_joins [scale_factor]
//! ```

use laqy::{Interval, LaqyService, SessionConfig};
use laqy_workload::{generate, q2, short_running, ExploreConfig, SsbConfig};

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("generating SSB data at SF {sf}...");
    let catalog = generate(&SsbConfig {
        scale_factor: sf,
        seed: 99,
    });
    let n = catalog.table("lineorder").unwrap().num_rows() as i64;
    let domain = Interval::new(0, n - 1);
    // 3 dashboards × 20 queries, each over its own focus region.
    let sequence = short_running(&ExploreConfig::short_batch(domain, 1234), 3);

    let session = LaqyService::with_config(catalog, SessionConfig::default());
    let (mut lazy_total, mut online_total) = (0.0f64, 0.0f64);
    println!("\npanel | query | reuse   | LAQy time  | online time");
    println!("------+-------+---------+------------+------------");
    for (i, &range) in sequence.iter().enumerate() {
        let query = q2(range, 64);
        let lazy = session.run(&query).expect("lazy run");
        // Run the oblivious baseline in a throwaway session so its samples
        // don't pollute the store.
        let online = session
            .run_online_oblivious(&query)
            .expect("online baseline");
        lazy_total += lazy.stats.total.as_secs_f64();
        online_total += online.stats.total.as_secs_f64();
        if i % 5 == 0 || i % 20 == 0 {
            println!(
                "{:>5} | {i:>5} | {:7} | {:>9.2?} | {:>9.2?}{}",
                i / 20 + 1,
                lazy.stats.reuse.unwrap().label(),
                lazy.stats.total,
                online.stats.total,
                if i % 20 == 0 {
                    "   <- new focus region (cold start)"
                } else {
                    ""
                }
            );
        }
    }

    println!(
        "\ncumulative: LAQy {lazy_total:.3}s vs online {online_total:.3}s  ({:.1}x)",
        online_total / lazy_total.max(1e-9)
    );

    // Show a few estimated result rows with their confidence intervals.
    let query = q2(Interval::new(0, n / 2), 64);
    let result = session.run(&query).expect("final query");
    let keys = session.decode_keys(&query, &result).expect("decode");
    println!("\nsample answer for Q2 over the first half of the key domain:");
    println!("d_year | p_brand1  | SUM(lo_revenue) ±95% CI");
    for (g, key) in result.groups.iter().zip(keys.iter()).take(8) {
        println!(
            "{:>6} | {:9} | {:>14.0} ± {:>10.0}",
            key[0], key[1], g.values[0].value, g.values[0].ci_half_width
        );
    }
    println!("... ({} groups total)", result.groups.len());
}
