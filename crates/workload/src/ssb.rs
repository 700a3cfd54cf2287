//! Star Schema Benchmark data generator (paper §7, Dataset).
//!
//! Generates `lineorder` plus the `date`, `supplier`, `part`, and
//! `customer` dimensions with the SSB value domains, and — following the
//! paper — adds a **`lo_intkey`** column to `lineorder`: a unique 8-byte
//! integer in `[0, n)`, randomly shuffled, "to enable fine-grained
//! selectivity control without implying a specific data ordering".
//!
//! The scale factor is continuous: `rows(lineorder) = 6,000,000 × SF`
//! (the paper runs SF 1000 ≈ 6 B tuples on a 384 GB server; this
//! laptop-scale build defaults to fractional SF — every evaluation claim
//! reproduced here is a shape claim that is scale-free, see DESIGN.md).
//! Dimension cardinalities scale with SF but keep the SSB *domain*
//! cardinalities fixed (5 regions, 25 categories, 1000 brands, ...), since
//! those domains determine stratification cost.

use std::sync::Arc;

use laqy_engine::{Catalog, Column, Table};
use laqy_sampling::Lehmer64;

/// SSB regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Cardinalities the paper's Table 1 relies on.
pub mod domains {
    /// `lo_quantity` ∈ [1, 50].
    pub const QUANTITY: i64 = 50;
    /// `lo_discount` ∈ [0, 10].
    pub const DISCOUNT: i64 = 11;
    /// `lo_tax` ∈ [0, 8].
    pub const TAX: i64 = 9;
    /// Days in the 7-year SSB date dimension (1992-01-01 .. 1998-12-31,
    /// including the 1992 and 1996 leap days; SSB literature often quotes
    /// 2556 from a non-leap-aware dategen).
    pub const DATE_DAYS: usize = 2557;
    /// Part categories (`MFGR#11` .. `MFGR#55`).
    pub const CATEGORIES: usize = 25;
    /// Part brands (`p_category` × 40).
    pub const BRANDS: usize = 1000;
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SsbConfig {
    /// Scale factor; `lineorder` gets `6,000,000 × SF` rows.
    pub scale_factor: f64,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl SsbConfig {
    /// A scale factor suitable for unit tests (~6k fact rows).
    pub fn tiny() -> Self {
        Self {
            scale_factor: 0.001,
            seed: 0x55B,
        }
    }

    /// Number of `lineorder` rows at this scale factor.
    pub fn lineorder_rows(&self) -> usize {
        ((6_000_000.0 * self.scale_factor).round() as usize).max(1)
    }

    /// Number of supplier rows (SSB: 2,000 × SF, floored for tiny scales).
    pub fn supplier_rows(&self) -> usize {
        ((2_000.0 * self.scale_factor).round() as usize).max(20)
    }

    /// Number of customer rows (SSB: 30,000 × SF, floored).
    pub fn customer_rows(&self) -> usize {
        ((30_000.0 * self.scale_factor).round() as usize).max(50)
    }

    /// Number of part rows. SSB specifies `200,000 × (1 + log2(SF))` for
    /// SF ≥ 1; below 1 this scales linearly with a floor that still covers
    /// every brand.
    pub fn part_rows(&self) -> usize {
        if self.scale_factor >= 1.0 {
            (200_000.0 * (1.0 + self.scale_factor.log2().max(0.0))).round() as usize
        } else {
            ((200_000.0 * self.scale_factor).round() as usize).max(domains::BRANDS)
        }
    }
}

/// Generate the full SSB catalog.
pub fn generate(config: &SsbConfig) -> Catalog {
    let mut rng = Lehmer64::new(config.seed);
    let mut catalog = Catalog::new();

    let date = generate_date();
    let date_keys = date_keys_of(&date);
    catalog.register(date);
    catalog.register(generate_supplier(config, &mut rng));
    catalog.register(generate_part(config, &mut rng));
    catalog.register(generate_customer(config, &mut rng));
    catalog.register(generate_lineorder(config, &date_keys, &mut rng));
    catalog
}

/// Every `d_datekey` of the `date` dimension, in storage order.
fn date_keys_of(date: &Table) -> Vec<i64> {
    let keys = date.column("d_datekey").expect("date has d_datekey");
    (0..date.num_rows()).map(|r| keys.i64_at(r)).collect()
}

/// The `date` dimension: one row per day over 1992–1998.
pub fn generate_date() -> Table {
    let days_per_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut datekey = Vec::with_capacity(domains::DATE_DAYS);
    let mut year = Vec::with_capacity(domains::DATE_DAYS);
    let mut yearmonthnum = Vec::with_capacity(domains::DATE_DAYS);
    let mut month = Vec::with_capacity(domains::DATE_DAYS);
    for y in 1992..=1998i32 {
        let leap = y % 4 == 0;
        for (m, &dm) in days_per_month.iter().enumerate() {
            let dm = if m == 1 && leap { 29 } else { dm };
            for d in 1..=dm {
                datekey.push(y * 10_000 + (m as i32 + 1) * 100 + d);
                year.push(y);
                yearmonthnum.push(y * 100 + m as i32 + 1);
                month.push(m as i32 + 1);
            }
        }
    }
    Table::new(
        "date",
        vec![
            ("d_datekey".into(), Column::Int32(datekey)),
            ("d_year".into(), Column::Int32(year)),
            ("d_yearmonthnum".into(), Column::Int32(yearmonthnum)),
            ("d_month".into(), Column::Int32(month)),
        ],
    )
    .expect("date columns aligned")
}

fn generate_supplier(config: &SsbConfig, rng: &mut Lehmer64) -> Table {
    let n = config.supplier_rows();
    let mut suppkey = Vec::with_capacity(n);
    let mut region_codes = Vec::with_capacity(n);
    let mut nation_codes = Vec::with_capacity(n);
    let mut city_codes = Vec::with_capacity(n);
    for i in 0..n {
        suppkey.push(i as i64 + 1);
        let region = rng.next_index(REGIONS.len());
        region_codes.push(region as u32);
        // 5 nations per region, as in SSB's 25 nations; 10 cities per
        // nation, as in SSB's 250 cities.
        let nation = region * 5 + rng.next_index(5);
        nation_codes.push(nation as u32);
        city_codes.push((nation * 10 + rng.next_index(10)) as u32);
    }
    let nations: Vec<String> = (0..25).map(|i| format!("NATION_{i:02}")).collect();
    let cities: Vec<String> = (0..250)
        .map(|i| format!("CITY_{:02}_{}", i / 10, i % 10))
        .collect();
    Table::new(
        "supplier",
        vec![
            ("s_suppkey".into(), Column::Int64(suppkey)),
            (
                "s_region".into(),
                Column::Dict {
                    codes: region_codes,
                    dict: Arc::new(REGIONS.iter().map(|s| s.to_string()).collect()),
                },
            ),
            (
                "s_nation".into(),
                Column::Dict {
                    codes: nation_codes,
                    dict: Arc::new(nations),
                },
            ),
            (
                "s_city".into(),
                Column::Dict {
                    codes: city_codes,
                    dict: Arc::new(cities),
                },
            ),
        ],
    )
    .expect("supplier columns aligned")
}

fn generate_customer(config: &SsbConfig, rng: &mut Lehmer64) -> Table {
    let n = config.customer_rows();
    let mut custkey = Vec::with_capacity(n);
    let mut region_codes = Vec::with_capacity(n);
    let mut nation_codes = Vec::with_capacity(n);
    let mut city_codes = Vec::with_capacity(n);
    for i in 0..n {
        custkey.push(i as i64 + 1);
        let region = rng.next_index(REGIONS.len());
        region_codes.push(region as u32);
        let nation = region * 5 + rng.next_index(5);
        nation_codes.push(nation as u32);
        city_codes.push((nation * 10 + rng.next_index(10)) as u32);
    }
    let nations: Vec<String> = (0..25).map(|i| format!("NATION_{i:02}")).collect();
    let cities: Vec<String> = (0..250)
        .map(|i| format!("CITY_{:02}_{}", i / 10, i % 10))
        .collect();
    Table::new(
        "customer",
        vec![
            ("c_custkey".into(), Column::Int64(custkey)),
            (
                "c_region".into(),
                Column::Dict {
                    codes: region_codes,
                    dict: Arc::new(REGIONS.iter().map(|s| s.to_string()).collect()),
                },
            ),
            (
                "c_nation".into(),
                Column::Dict {
                    codes: nation_codes,
                    dict: Arc::new(nations),
                },
            ),
            (
                "c_city".into(),
                Column::Dict {
                    codes: city_codes,
                    dict: Arc::new(cities),
                },
            ),
        ],
    )
    .expect("customer columns aligned")
}

fn generate_part(config: &SsbConfig, rng: &mut Lehmer64) -> Table {
    let n = config.part_rows();
    // Dictionaries: 25 categories ("MFGR#11".."MFGR#55"), 1000 brands
    // ("MFGR#1101".."MFGR#5540" style).
    let categories: Vec<String> = (1..=5)
        .flat_map(|m| (1..=5).map(move |c| format!("MFGR#{m}{c}")))
        .collect();
    let brands: Vec<String> = categories
        .iter()
        .flat_map(|cat| (1..=40).map(move |b| format!("{cat}{b:02}")))
        .collect();
    let mfgrs: Vec<String> = (1..=5).map(|m| format!("MFGR#{m}")).collect();
    let mut partkey = Vec::with_capacity(n);
    let mut mfgr_codes = Vec::with_capacity(n);
    let mut cat_codes = Vec::with_capacity(n);
    let mut brand_codes = Vec::with_capacity(n);
    for i in 0..n {
        partkey.push(i as i64 + 1);
        // Ensure every brand appears at least once (round-robin prefix),
        // then uniform.
        let brand = if i < domains::BRANDS {
            i
        } else {
            rng.next_index(domains::BRANDS)
        };
        brand_codes.push(brand as u32);
        cat_codes.push((brand / 40) as u32);
        mfgr_codes.push((brand / 200) as u32);
    }
    Table::new(
        "part",
        vec![
            ("p_partkey".into(), Column::Int64(partkey)),
            (
                "p_mfgr".into(),
                Column::Dict {
                    codes: mfgr_codes,
                    dict: Arc::new(mfgrs),
                },
            ),
            (
                "p_category".into(),
                Column::Dict {
                    codes: cat_codes,
                    dict: Arc::new(categories),
                },
            ),
            (
                "p_brand1".into(),
                Column::Dict {
                    codes: brand_codes,
                    dict: Arc::new(brands),
                },
            ),
        ],
    )
    .expect("part columns aligned")
}

fn generate_lineorder(config: &SsbConfig, date_keys: &[i64], rng: &mut Lehmer64) -> Table {
    let n = config.lineorder_rows();
    Table::new("lineorder", lineorder_columns(config, date_keys, rng, n, 0))
        .expect("lineorder columns aligned")
}

/// A freshly generated `lineorder` append batch: `rows` rows whose
/// `lo_intkey`/`lo_orderkey` ids continue from `start_row`, with every
/// other column drawn from the same distributions as [`generate`]. Ids
/// cover `[start_row, start_row + rows)` — shuffled within the batch for
/// `lo_intkey`, clustered for `lo_orderkey` — so appending the batch to
/// a catalog generated with `start_row` resident fact rows keeps both
/// keys unique across the grown table.
pub fn lineorder_batch(config: &SsbConfig, start_row: usize, rows: usize) -> Vec<(String, Column)> {
    let date_keys = date_keys_of(&generate_date());
    let mut rng = Lehmer64::new(config.seed);
    lineorder_columns(config, &date_keys, &mut rng, rows, start_row as i64)
}

fn lineorder_columns(
    config: &SsbConfig,
    date_keys: &[i64],
    rng: &mut Lehmer64,
    n: usize,
    key_start: i64,
) -> Vec<(String, Column)> {
    let suppliers = config.supplier_rows() as u64;
    let parts = config.part_rows() as u64;
    let customers = config.customer_rows() as u64;

    // lo_intkey: shuffled unique ids (Fisher–Yates).
    let mut intkey: Vec<i64> = (key_start..key_start + n as i64).collect();
    for i in (1..n).rev() {
        let j = rng.next_index(i + 1);
        intkey.swap(i, j);
    }
    // lo_orderkey: the same unique ids in storage order — a *clustered*
    // surrogate key (rows arrive in order-entry sequence, as they would
    // from an append-only load). Range predicates on it are the best case
    // for per-morsel zone-map pruning, giving experiments a clustered
    // counterpart to the deliberately shuffled lo_intkey.
    let orderkey: Vec<i64> = (key_start..key_start + n as i64).collect();

    let mut orderdate = Vec::with_capacity(n);
    let mut quantity = Vec::with_capacity(n);
    let mut discount = Vec::with_capacity(n);
    let mut tax = Vec::with_capacity(n);
    let mut extendedprice = Vec::with_capacity(n);
    let mut revenue = Vec::with_capacity(n);
    let mut suppkey = Vec::with_capacity(n);
    let mut partkey = Vec::with_capacity(n);
    let mut custkey = Vec::with_capacity(n);
    for _ in 0..n {
        orderdate.push(date_keys[rng.next_index(date_keys.len())] as i32);
        let q = 1 + rng.next_below(domains::QUANTITY as u64) as i32;
        quantity.push(q);
        let d = rng.next_below(domains::DISCOUNT as u64) as i32;
        discount.push(d);
        tax.push(rng.next_below(domains::TAX as u64) as i32);
        let price = 90_000 + rng.next_below(20_000) as i64;
        extendedprice.push(price);
        revenue.push(price * q as i64 * (100 - d as i64) / 100);
        suppkey.push(1 + rng.next_below(suppliers) as i64);
        partkey.push(1 + rng.next_below(parts) as i64);
        custkey.push(1 + rng.next_below(customers) as i64);
    }
    vec![
        ("lo_intkey".into(), Column::Int64(intkey)),
        ("lo_orderkey".into(), Column::Int64(orderkey)),
        ("lo_orderdate".into(), Column::Int32(orderdate)),
        ("lo_quantity".into(), Column::Int32(quantity)),
        ("lo_discount".into(), Column::Int32(discount)),
        ("lo_tax".into(), Column::Int32(tax)),
        ("lo_extendedprice".into(), Column::Int64(extendedprice)),
        ("lo_revenue".into(), Column::Int64(revenue)),
        ("lo_suppkey".into(), Column::Int64(suppkey)),
        ("lo_partkey".into(), Column::Int64(partkey)),
        ("lo_custkey".into(), Column::Int64(custkey)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn catalog() -> Catalog {
        generate(&SsbConfig::tiny())
    }

    #[test]
    fn lineorder_has_expected_rows_and_columns() {
        let cat = catalog();
        let lo = cat.table("lineorder").unwrap();
        assert_eq!(lo.num_rows(), 6_000);
        for col in [
            "lo_intkey",
            "lo_orderkey",
            "lo_orderdate",
            "lo_quantity",
            "lo_discount",
            "lo_tax",
            "lo_extendedprice",
            "lo_revenue",
            "lo_suppkey",
            "lo_partkey",
            "lo_custkey",
        ] {
            assert!(lo.has_column(col), "missing column {col}");
        }
    }

    #[test]
    fn intkey_is_a_shuffled_permutation() {
        let cat = catalog();
        let lo = cat.table("lineorder").unwrap();
        let col = lo.column("lo_intkey").unwrap();
        let n = lo.num_rows();
        let mut seen: Vec<i64> = (0..n).map(|i| col.i64_at(i)).collect();
        // Not identity order.
        assert!(seen.windows(2).any(|w| w[0] > w[1]), "intkey not shuffled");
        seen.sort_unstable();
        assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn lineorder_batch_continues_the_key_space() {
        let config = SsbConfig::tiny();
        let cat = generate(&config);
        let lo = cat.table("lineorder").unwrap();
        let n = lo.num_rows();
        let batch = lineorder_batch(&config, n, 500);
        // Same schema, in the same column order, as the generated table.
        assert_eq!(
            batch
                .iter()
                .map(|(name, _)| name.to_string())
                .collect::<Vec<_>>(),
            lo.schema()
                .iter()
                .map(|(name, _)| name.to_string())
                .collect::<Vec<_>>()
        );
        // lo_intkey: a shuffled permutation of the next 500 ids.
        let Column::Int64(intkey) = &batch[0].1 else {
            panic!("lo_intkey is Int64");
        };
        let mut seen = intkey.clone();
        assert!(seen.windows(2).any(|w| w[0] > w[1]), "intkey not shuffled");
        seen.sort_unstable();
        assert_eq!(seen, (n as i64..(n + 500) as i64).collect::<Vec<_>>());
        // lo_orderkey: the same ids, clustered.
        let Column::Int64(orderkey) = &batch[1].1 else {
            panic!("lo_orderkey is Int64");
        };
        assert_eq!(orderkey, &(n as i64..(n + 500) as i64).collect::<Vec<_>>());
        // Deterministic in the config seed.
        let again = lineorder_batch(&config, n, 500);
        let Column::Int64(intkey_again) = &again[0].1 else {
            panic!("lo_intkey is Int64");
        };
        assert_eq!(intkey, intkey_again);
    }

    #[test]
    fn orderkey_is_clustered_identity() {
        let cat = catalog();
        let lo = cat.table("lineorder").unwrap();
        let col = lo.column("lo_orderkey").unwrap();
        for i in 0..lo.num_rows() {
            assert_eq!(col.i64_at(i), i as i64);
        }
    }

    #[test]
    fn table1_domain_cardinalities() {
        // The exact |QCS| sizes from the paper's Table 1.
        let cat = generate(&SsbConfig {
            scale_factor: 0.01,
            seed: 7,
        });
        let lo = cat.table("lineorder").unwrap();
        let distinct = |name: &str| -> usize {
            let c = lo.column(name).unwrap();
            (0..lo.num_rows())
                .map(|i| c.i64_at(i))
                .collect::<HashSet<_>>()
                .len()
        };
        assert_eq!(distinct("lo_quantity"), 50);
        assert_eq!(distinct("lo_tax"), 9);
        assert_eq!(distinct("lo_discount"), 11);
        // Combined QCS cardinalities: 450 and 4950.
        let two: HashSet<(i64, i64)> = {
            let q = lo.column("lo_quantity").unwrap();
            let t = lo.column("lo_tax").unwrap();
            (0..lo.num_rows())
                .map(|i| (q.i64_at(i), t.i64_at(i)))
                .collect()
        };
        assert_eq!(two.len(), 450);
    }

    #[test]
    fn value_ranges_match_ssb() {
        let cat = catalog();
        let lo = cat.table("lineorder").unwrap();
        let (q, d, t) = (
            lo.column("lo_quantity").unwrap(),
            lo.column("lo_discount").unwrap(),
            lo.column("lo_tax").unwrap(),
        );
        for i in 0..lo.num_rows() {
            assert!((1..=50).contains(&q.i64_at(i)));
            assert!((0..=10).contains(&d.i64_at(i)));
            assert!((0..=8).contains(&t.i64_at(i)));
        }
    }

    #[test]
    fn date_dimension_shape() {
        let d = generate_date();
        assert_eq!(d.num_rows(), domains::DATE_DAYS);
        let years: HashSet<i64> = {
            let y = d.column("d_year").unwrap();
            (0..d.num_rows()).map(|i| y.i64_at(i)).collect()
        };
        assert_eq!(years.len(), 7);
    }

    #[test]
    fn foreign_keys_join_cleanly() {
        let cat = catalog();
        let lo = cat.table("lineorder").unwrap();
        let date_keys: HashSet<i64> = {
            let d = cat.table("date").unwrap();
            let c = d.column("d_datekey").unwrap();
            (0..d.num_rows()).map(|i| c.i64_at(i)).collect()
        };
        let od = lo.column("lo_orderdate").unwrap();
        for i in 0..lo.num_rows().min(1000) {
            assert!(date_keys.contains(&od.i64_at(i)));
        }
        let sup = cat.table("supplier").unwrap();
        let sk = lo.column("lo_suppkey").unwrap();
        for i in 0..lo.num_rows().min(1000) {
            let k = sk.i64_at(i);
            assert!(k >= 1 && k <= sup.num_rows() as i64);
        }
    }

    #[test]
    fn part_covers_all_brands_and_categories() {
        let cat = catalog();
        let p = cat.table("part").unwrap();
        let brands: HashSet<i64> = {
            let c = p.column("p_brand1").unwrap();
            (0..p.num_rows()).map(|i| c.i64_at(i)).collect()
        };
        assert_eq!(brands.len(), domains::BRANDS);
        let cats: HashSet<i64> = {
            let c = p.column("p_category").unwrap();
            (0..p.num_rows()).map(|i| c.i64_at(i)).collect()
        };
        assert_eq!(cats.len(), domains::CATEGORIES);
        // The category the paper filters on exists.
        assert!(p
            .column("p_category")
            .unwrap()
            .dict_code("p_category", "MFGR#12")
            .is_ok());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SsbConfig::tiny());
        let b = generate(&SsbConfig::tiny());
        let (la, lb) = (a.table("lineorder").unwrap(), b.table("lineorder").unwrap());
        let (ca, cb) = (
            la.column("lo_intkey").unwrap(),
            lb.column("lo_intkey").unwrap(),
        );
        for i in 0..la.num_rows() {
            assert_eq!(ca.i64_at(i), cb.i64_at(i));
        }
    }

    #[test]
    fn scaling_rules() {
        let c = SsbConfig {
            scale_factor: 1.0,
            seed: 1,
        };
        assert_eq!(c.lineorder_rows(), 6_000_000);
        assert_eq!(c.supplier_rows(), 2_000);
        assert_eq!(c.customer_rows(), 30_000);
        assert_eq!(c.part_rows(), 200_000);
        let c4 = SsbConfig {
            scale_factor: 4.0,
            seed: 1,
        };
        assert_eq!(c4.part_rows(), 600_000);
    }
}
