//! Accuracy validation: LAQy accelerates sampling *without loss of
//! approximation guarantees* — merged (partially reused) samples must be
//! as accurate as freshly built online samples. This example measures
//! relative error and 95 % CI coverage for both, over repeated seeds.
//!
//! ```text
//! cargo run --release --example accuracy_bounds [trials]
//! ```

use laqy::{Interval, LaqyService, SessionConfig};
use laqy_engine::Value;
use laqy_workload::{generate, q1, SsbConfig};

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let catalog = generate(&SsbConfig {
        scale_factor: 0.01,
        seed: 5,
    });
    let n = catalog.table("lineorder").unwrap().num_rows() as i64;
    // The evaluation query: SUM(lo_revenue) per lo_orderdate over [0, 70% n).
    // k=8 per stratum (~23 qualifying rows per date) so sampling is real.
    let target = q1(Interval::new(0, (n as f64 * 0.7) as i64 - 1), 8);

    // Ground truth once.
    let session = LaqyService::new(catalog.clone());
    let (exact, _) = session.run_exact(&target).expect("exact");

    let report = |label: &str, merged_path: bool| {
        let mut rel_err_sum = 0.0f64;
        let (mut covered, mut groups_total) = (0usize, 0usize);
        for t in 0..trials {
            let s = LaqyService::with_config(
                catalog.clone(),
                SessionConfig {
                    seed: 1000 + t as u64,
                    ..Default::default()
                },
            );
            if merged_path {
                // Force the partial-reuse path: sample 0..40% first, so the
                // target query needs a Δ on [40%, 70%) plus a merge.
                let warm = q1(Interval::new(0, (n as f64 * 0.4) as i64 - 1), 8);
                s.run(&warm).expect("warmup");
            }
            let r = s.run(&target).expect("target");
            if merged_path {
                assert_eq!(
                    r.stats.reuse.unwrap().label(),
                    "partial",
                    "warmup should force the merge path"
                );
            }
            for g in &r.groups {
                let est = &g.values[0];
                let truth = exact
                    .row_by_key(&[Value::Int(g.key[0])])
                    .map(|row| row.values[0])
                    .unwrap_or(0.0);
                if truth == 0.0 {
                    continue;
                }
                rel_err_sum += (est.value - truth).abs() / truth;
                if (est.value - truth).abs() <= est.ci_half_width {
                    covered += 1;
                }
                groups_total += 1;
            }
        }
        println!(
            "{label:32} mean |rel err| = {:.4}   95% CI coverage = {:.1}% ({covered}/{groups_total})",
            rel_err_sum / groups_total as f64,
            100.0 * covered as f64 / groups_total as f64
        );
    };

    println!("query: Q1, SUM(lo_revenue) GROUP BY lo_orderdate, {trials} trials\n");
    report("fresh online sample:", false);
    report("partially reused + merged:", true);
    println!(
        "\nBoth paths should show comparable error and coverage near 95% —\n\
         merging preserves the sample's statistical properties (paper §5.1)."
    );
}
