//! Quickstart: approximate a grouped aggregation with LAQy and watch the
//! lazy sampler reuse its work across overlapping queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use laqy::{ApproxQuery, Interval, LaqyService};
use laqy_engine::{AggSpec, Catalog, ColRef, Column, Predicate, QueryPlan, Table};

fn main() {
    // 1. Build a table: one million rows, a shuffled unique key for
    //    selectivity control, seven groups, and a value column.
    let n: i64 = 1_000_000;
    let mut key: Vec<i64> = (0..n).collect();
    // Cheap deterministic shuffle.
    let mut rng = laqy_sampling::Lehmer64::new(7);
    for i in (1..n as usize).rev() {
        key.swap(i, rng.next_index(i + 1));
    }
    let mut catalog = Catalog::new();
    catalog.register(
        Table::new(
            "events",
            vec![
                ("key".into(), Column::Int64(key)),
                ("grp".into(), Column::Int64((0..n).map(|i| i % 7).collect())),
                (
                    "val".into(),
                    Column::Float64((0..n).map(|i| (i % 1000) as f64).collect()),
                ),
            ],
        )
        .expect("aligned columns"),
    );

    let session = LaqyService::new(catalog);
    let query = |lo: i64, hi: i64| ApproxQuery {
        plan: QueryPlan {
            fact: "events".into(),
            predicate: Predicate::True,
            joins: vec![],
            group_by: vec![ColRef::fact("grp")],
            aggs: vec![AggSpec::sum("val"), AggSpec::count()],
        },
        range_column: "key".into(),
        range: Interval::new(lo, hi),
        k: 512,
    };

    // 2. First query: cold store, full online sampling.
    let q = query(0, 399_999);
    let r1 = session.run(&q).expect("query 1");
    println!(
        "query 1 [0, 400k):    reuse = {:7}   total = {:>9.3?}   (sampled {} rows)",
        r1.stats.reuse.unwrap().label(),
        r1.stats.total,
        r1.stats.sampled_input_rows
    );

    // 3. The user zooms out: only the uncovered [400k, 600k) is sampled.
    let q = query(0, 599_999);
    let r2 = session.run(&q).expect("query 2");
    println!(
        "query 2 [0, 600k):    reuse = {:7}   total = {:>9.3?}   (sampled {} rows — the delta)",
        r2.stats.reuse.unwrap().label(),
        r2.stats.total,
        r2.stats.sampled_input_rows
    );

    // 4. The user zooms back in: fully covered, not even a scan is needed.
    let q = query(100_000, 299_999);
    let r3 = session.run(&q).expect("query 3");
    println!(
        "query 3 [100k, 300k): reuse = {:7}   total = {:>9.3?}   (no scan at all)",
        r3.stats.reuse.unwrap().label(),
        r3.stats.total
    );

    // 5. Compare the estimate against the exact answer.
    let (exact, exact_stats) = session.run_exact(&q).expect("exact");
    println!(
        "\nexact execution of query 3 took {:?}\n",
        exact_stats.total
    );
    println!("group | estimate ±95% CI        | exact        | within CI?");
    for g in &r3.groups {
        let grp = g.key[0];
        let est = &g.values[0];
        let exact_sum = exact
            .row_by_key(&[laqy_engine::Value::Int(grp)])
            .map(|r| r.values[0])
            .unwrap_or(f64::NAN);
        println!(
            "{grp:>5} | {:>12.0} ± {:>8.0} | {exact_sum:>12.0} | {}",
            est.value,
            est.ci_half_width,
            if (est.value - exact_sum).abs() <= est.ci_half_width {
                "yes"
            } else {
                "no (CI is 95%, misses happen)"
            }
        );
    }
}
