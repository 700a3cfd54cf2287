//! SQL front-end: write the paper's query templates as SQL and let LAQy
//! approximate them with lazy sampling. The `BETWEEN` range predicate is
//! detected as the explored dimension; consecutive overlapping statements
//! reuse each other's samples.
//!
//! ```text
//! cargo run --release --example sql_session
//! ```

use laqy::{approx_query, LaqyService};
use laqy_workload::{generate, SsbConfig};

fn main() {
    let catalog = generate(&SsbConfig {
        scale_factor: 0.02,
        seed: 3,
    });
    let n = catalog.table("lineorder").unwrap().num_rows() as i64;
    let session = LaqyService::new(catalog.clone());

    // An exploration session written as SQL; ranges grow then zoom in.
    let statements = [
        format!(
            "SELECT lo_orderdate, SUM(lo_revenue), COUNT(*) FROM lineorder \
             WHERE lo_intkey BETWEEN 0 AND {} GROUP BY lo_orderdate",
            n / 4
        ),
        format!(
            "SELECT lo_orderdate, SUM(lo_revenue), COUNT(*) FROM lineorder \
             WHERE lo_intkey BETWEEN 0 AND {} GROUP BY lo_orderdate",
            n / 2
        ),
        format!(
            "SELECT lo_orderdate, SUM(lo_revenue), COUNT(*) FROM lineorder \
             WHERE lo_intkey BETWEEN {} AND {} GROUP BY lo_orderdate",
            n / 8,
            n / 3
        ),
    ];
    println!("scan-heavy exploration (sampler at the lineorder scan):\n");
    for sql in &statements {
        let query = approx_query(&catalog, sql, 64).expect("valid approximate SQL");
        let result = session.run(&query).expect("execution");
        println!(
            "  reuse = {:7}  time = {:>9.2?}  groups = {:4}   {}",
            result.stats.reuse.unwrap().label(),
            result.stats.total,
            result.groups.len(),
            &sql[..sql.find("FROM").unwrap()].trim()
        );
    }

    // The join-heavy template (paper's Q2) as SQL: the sampler sits above
    // the star join; dimension predicates filter the join build sides.
    let q2_sql = format!(
        "SELECT d_year, p_brand1, SUM(lo_revenue) \
         FROM lineorder, date, supplier, part \
         WHERE lo_intkey BETWEEN 0 AND {} \
           AND lo_orderdate = d_datekey AND lo_suppkey = s_suppkey \
           AND lo_partkey = p_partkey \
           AND s_region = 'AMERICA' AND p_category = 'MFGR#12' \
         GROUP BY d_year, p_brand1",
        2 * n / 3
    );
    println!("\njoin-heavy dashboard query (sampler above the star join):\n");
    for _ in 0..2 {
        let query = approx_query(&catalog, &q2_sql, 32).expect("valid Q2 SQL");
        let result = session.run(&query).expect("execution");
        let keys = session.decode_keys(&query, &result).expect("decode");
        println!(
            "  reuse = {:7}  time = {:>9.2?}  groups = {}",
            result.stats.reuse.unwrap().label(),
            result.stats.total,
            result.groups.len()
        );
        let first = result.groups.iter().next();
        if let (Some(g), Some(k)) = (first, keys.first()) {
            println!(
                "    e.g. d_year={} p_brand1={} SUM(lo_revenue) ≈ {:.0} ± {:.0}",
                k[0], k[1], g.values[0].value, g.values[0].ci_half_width
            );
        }
    }
    println!("\nsecond run answered from the stored sample — no scan, no joins, no sampling.");
}
