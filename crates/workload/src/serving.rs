//! Serving-mix generator for closed-loop load against the serving layer.
//!
//! Models a fleet of analysts hammering the serving layer: each client
//! replays a deterministic stream of operations — mostly Q1-shaped
//! range queries whose focus regions follow a Zipf distribution (a few
//! hot regions absorb most traffic, so stored samples get real reuse),
//! with periodic ingest batches mixed in. Streams are pure functions of
//! `(config, seed)`, so a load test replays exactly and two runs are
//! comparable point-for-point.

use laqy_sampling::Lehmer64;

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A Q1-template range query over `lo_intkey ∈ [lo, hi]`.
    Query {
        /// Inclusive range start.
        lo: i64,
        /// Inclusive range end.
        hi: i64,
    },
    /// An append of `rows` fresh lineorder rows.
    Ingest {
        /// Batch size in rows.
        rows: usize,
    },
}

/// Mix parameters.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// `lo_intkey` domain: keys live in `[0, key_space)`.
    pub key_space: i64,
    /// Number of focus regions clients rotate through.
    pub regions: usize,
    /// Zipf exponent over region ranks (0 = uniform; ~1 = strongly
    /// skewed toward a handful of hot regions).
    pub zipf_s: f64,
    /// Query range width, in keys.
    pub window: i64,
    /// Every `ingest_every`-th operation is an ingest (0 = query-only).
    pub ingest_every: usize,
    /// Rows per ingest batch.
    pub ingest_rows: usize,
}

impl MixConfig {
    /// A mix sized for an SSB catalog with `rows` lineorder rows:
    /// 20 regions under moderate skew, 5%-of-domain windows, one
    /// small ingest per 16 operations.
    pub fn for_rows(rows: usize) -> Self {
        let key_space = rows.max(20) as i64;
        Self {
            key_space,
            regions: 20,
            zipf_s: 1.0,
            window: (key_space / 20).max(1),
            ingest_every: 16,
            ingest_rows: (rows / 100).clamp(1, 5_000),
        }
    }
}

/// Cumulative Zipf weights over ranks `1..=n` with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for rank in 1..=n {
        acc += 1.0 / (rank as f64).powf(s);
        cdf.push(acc);
    }
    for w in cdf.iter_mut() {
        *w /= acc;
    }
    cdf
}

/// Generate one client's deterministic operation stream.
pub fn op_stream(cfg: &MixConfig, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Lehmer64::new(seed);
    let cdf = zipf_cdf(cfg.regions.max(1), cfg.zipf_s);
    // Region ranks map onto shuffled (seed-stable) positions so "hot"
    // does not always mean "leftmost keys".
    let mut positions: Vec<usize> = (0..cfg.regions.max(1)).collect();
    for i in (1..positions.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        positions.swap(i, j);
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        if cfg.ingest_every > 0 && (i + 1) % cfg.ingest_every == 0 {
            out.push(Op::Ingest {
                rows: cfg.ingest_rows,
            });
            continue;
        }
        let u = rng.next_f64();
        let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
        let region = positions[rank];
        let span = cfg.key_space.max(1);
        let center = (region as i64 * 2 + 1) * span / (2 * cfg.regions.max(1) as i64);
        // Jitter within half a region width keeps ranges overlapping
        // (reuse) without being identical (Δ-scans stay exercised).
        let half_region = span / (2 * cfg.regions.max(1) as i64);
        let jitter = if half_region > 0 {
            rng.next_range_i64(-half_region, half_region)
        } else {
            0
        };
        let lo = (center + jitter - cfg.window / 2).clamp(0, span - 1);
        let hi = (lo + cfg.window - 1).clamp(lo, span - 1);
        out.push(Op::Query { lo, hi });
    }
    out
}

/// The Q1 template as SQL over an inclusive `lo_intkey` range, for the
/// serving wire (which carries SQL text, planned server-side).
pub fn q1_sql(lo: i64, hi: i64) -> String {
    format!(
        "SELECT lo_orderdate, SUM(lo_revenue), COUNT(*) FROM lineorder \
         WHERE lo_intkey BETWEEN {lo} AND {hi} GROUP BY lo_orderdate"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MixConfig {
        MixConfig::for_rows(6_000)
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        assert_eq!(op_stream(&cfg(), 7, 200), op_stream(&cfg(), 7, 200));
        assert_ne!(op_stream(&cfg(), 7, 200), op_stream(&cfg(), 8, 200));
    }

    #[test]
    fn ranges_stay_inside_the_key_space() {
        let c = cfg();
        for op in op_stream(&c, 3, 500) {
            if let Op::Query { lo, hi } = op {
                assert!(
                    0 <= lo && lo <= hi && hi < c.key_space,
                    "bad range [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn ingest_cadence_is_respected() {
        let c = cfg();
        let ops = op_stream(&c, 5, 160);
        let ingests = ops
            .iter()
            .filter(|o| matches!(o, Op::Ingest { .. }))
            .count();
        assert_eq!(ingests, 160 / c.ingest_every);
        let query_only = MixConfig {
            ingest_every: 0,
            ..c
        };
        assert!(op_stream(&query_only, 5, 160)
            .iter()
            .all(|o| matches!(o, Op::Query { .. })));
    }

    #[test]
    fn zipf_mix_is_skewed_toward_hot_regions() {
        let c = MixConfig {
            zipf_s: 1.2,
            ingest_every: 0,
            ..cfg()
        };
        let ops = op_stream(&c, 11, 4_000);
        // Bucket query midpoints by region; the hottest region must see
        // well over the uniform share (4000 / 20 = 200).
        let mut counts = vec![0usize; c.regions];
        for op in &ops {
            if let Op::Query { lo, hi } = op {
                let mid = (lo + hi) / 2;
                let region =
                    (mid * c.regions as i64 / c.key_space).clamp(0, c.regions as i64 - 1) as usize;
                counts[region] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 600, "expected a hot region under zipf 1.2, max {max}");
    }

    #[test]
    fn q1_sql_plans_as_the_q1_template() {
        let catalog = crate::ssb::generate(&crate::ssb::SsbConfig::tiny());
        let q = laqy::approx_query(&catalog, &q1_sql(100, 900), 64).expect("plans");
        let built = crate::queries::q1(laqy::Interval::new(100, 900), 64);
        assert_eq!(q.range_column, built.range_column);
        assert_eq!(q.range, built.range);
        assert_eq!(q.plan.group_by, built.plan.group_by);
    }
}
