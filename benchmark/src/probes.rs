//! Layer probes: direct timed calls into each layer's public functions,
//! on inputs taken from the workload's own op list (its range
//! predicates, its template, the store its traced pass left behind).
//!
//! Every probe repeats its call a fixed number of times and reports the
//! median repetition, so one scheduler hiccup does not become the
//! layer's number. Probes time product code only: inputs are built (and
//! cloned, where the call consumes them) outside the timed region, and
//! results pass through `black_box` so the work cannot be optimised out.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use laqy::{
    estimate, plan_lazy, EstimateOptions, Interval, IntervalSet, LaqyExecutor, Predicates,
    SampleStore, SampleTuple, SupportPolicy, WalAppender, WalRecord,
};
use laqy_engine::kernel::count_mask;
use laqy_engine::ops::{build_join_map, star_probe, PreparedScan};
use laqy_engine::{
    BatchKernel, Catalog, Column, GroupKey, Predicate, PruneCounts, Table, CHUNK_ROWS, MASK_WORDS,
};
use laqy_sampling::{merge_stratified, merge_stratified_k, Lehmer64, Reservoir, StratifiedSampler};
use laqy_server::protocol::{AnswerAgg, AnswerGroup};
use laqy_server::{Answer, Gate, Request, Response};
use laqy_workload::serving::q1_sql;
use laqy_workload::{lineorder_batch, SsbConfig};

use crate::explore::service;
use crate::ops::Template;
use crate::report::Metrics;
use crate::spec::{Scale, DATA_SEED, ENGINE_THREADS};
use crate::stats::median;

/// Range predicates sampled from an op list for the probes.
pub const PROBE_RANGES: usize = 16;
/// Rows offered to the sampler probes.
const OFFER_ROWS: usize = 200_000;
/// Repetitions of the probes whose single call is sub-millisecond.
const REPS: usize = 9;

type Sampler = StratifiedSampler<GroupKey, SampleTuple>;

/// What the probes run on.
pub struct Input<'a> {
    /// The base catalog.
    pub catalog: &'a Catalog,
    /// The run's sizes.
    pub scale: &'a Scale,
    /// The workload's query template.
    pub template: Template,
    /// Range predicates from the workload's op list.
    pub ranges: &'a [Interval],
    /// The sample store the traced pass left behind.
    pub store: SampleStore,
    /// A directory the WAL probe may write under.
    pub scratch: &'a Path,
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn between(range: &Interval) -> Predicate {
    Predicate::between("lo_intkey", range.lo, range.hi)
}

fn err(e: impl std::fmt::Display) -> String {
    format!("layer probe failed: {e}")
}

/// Run every probe. Returns the probe-derived per-layer metrics.
pub fn run(input: Input<'_>, notes: &mut Vec<String>) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let table = input.catalog.table("lineorder").map_err(err)?;
    scan_layers(table, input.ranges, &mut m)?;
    join_layer(input.catalog, table, input.scale, input.ranges, &mut m)?;
    let batch = lineorder_batch(
        &SsbConfig {
            scale_factor: input.scale.sf,
            seed: DATA_SEED ^ 0xB,
        },
        0,
        input.scale.ingest_rows,
    );
    table_layer(table, &batch, &mut m)?;
    sampling_layers(table, input.scale, &mut m)?;
    plan_layers(&input, &mut m)?;
    estimate_layer(&input, &mut m, notes)?;
    wal_layer(&input, table, &batch, &mut m)?;
    protocol_layer(&input, &batch, &mut m)?;
    admission_layer(&mut m);
    // Last: it consumes the store.
    absorb_layer(input.store, table, &batch, &mut m)?;
    Ok(m)
}

/// `engine::kernel`, `engine::synopsis`, `engine::ops::filter` on the
/// op list's range predicates over the whole fact table.
fn scan_layers(table: &Table, ranges: &[Interval], m: &mut Metrics) -> Result<(), String> {
    let n = table.num_rows();
    let synopsis = table.synopsis().ok_or("lineorder has no synopsis")?;
    let (mut kernel_rates, mut walk_ns, mut scan_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut selected = 0u64;
    for range in ranges {
        let pred = between(range);
        let compiled = pred.compile(table).map_err(err)?;
        let kernel = BatchKernel::compile(&compiled);
        let mut mask = [0u64; MASK_WORDS];
        let (hits, t) = secs(|| {
            let mut hits = 0u64;
            for base in (0..n).step_by(CHUNK_ROWS) {
                kernel.eval_chunk(base, CHUNK_ROWS.min(n - base), &mut mask);
                hits += count_mask(&mask);
            }
            hits
        });
        selected += hits;
        kernel_rates.push(n as f64 / t);

        const WALKS: usize = 2_000;
        let ((), t) = secs(|| {
            for _ in 0..WALKS {
                for block in 0..synopsis.num_blocks() {
                    black_box(synopsis.verdict(black_box(&compiled), block));
                }
            }
        });
        walk_ns.push(t * 1e9 / (WALKS * synopsis.num_blocks()) as f64);

        let scan = PreparedScan::new(table, &pred).map_err(err)?;
        let (rows, t) = secs(|| {
            let (mut counts, mut lane_rows) = (PruneCounts::default(), 0u64);
            scan.scan_pruned_masked(0..n, &mut counts, &[], &mut lane_rows)
        });
        black_box(rows);
        scan_rates.push(n as f64 / t);
    }
    m.set("kernel.rows_per_s", median(&kernel_rates));
    m.set(
        "kernel.selected_share",
        selected as f64 / (n * ranges.len()) as f64,
    );
    m.set("synopsis.walk_ns_per_block", median(&walk_ns));
    m.set("filter.scan_rows_per_s", median(&scan_rates));
    Ok(())
}

/// `engine::ops::join`: Q2's three build sides, then the star probe over
/// each range's selection.
fn join_layer(
    catalog: &Catalog,
    table: &Table,
    scale: &Scale,
    ranges: &[Interval],
    m: &mut Metrics,
) -> Result<(), String> {
    let plan = Template::Q2.query(Interval::new(0, 0), scale.k).plan;
    let build_all = || {
        plan.joins
            .iter()
            .map(|j| {
                let dim = catalog.table(&j.dim_table)?;
                build_join_map(dim, &j.dim_key, &j.predicate)
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let mut build_ms = Vec::new();
    for _ in 0..REPS {
        let (maps, t) = secs(build_all);
        black_box(maps.map_err(err)?);
        build_ms.push(t * 1e3);
    }
    m.set("join.build_ms", median(&build_ms));

    let maps = build_all().map_err(err)?;
    let probes: Vec<_> = maps
        .iter()
        .zip(&plan.joins)
        .map(|(map, j)| (map, j.fact_key.as_str()))
        .collect();
    let mut rates = Vec::new();
    for range in ranges {
        let pred = between(range);
        let scan = PreparedScan::new(table, &pred).map_err(err)?;
        let selection = scan.scan_pruned(0..table.num_rows(), &mut PruneCounts::default());
        if selection.is_empty() {
            continue;
        }
        let (out, t) = secs(|| star_probe(table, &selection, &probes));
        black_box(out.map_err(err)?);
        rates.push(selection.len() as f64 / t);
    }
    m.set("join.probe_rows_per_s", median(&rates));
    Ok(())
}

/// `engine::table`: one ingest-sized append, synopsis extension included.
fn table_layer(table: &Table, batch: &[(String, Column)], m: &mut Metrics) -> Result<(), String> {
    let rows = batch[0].1.len();
    let mut rates = Vec::new();
    for _ in 0..REPS {
        let (next, t) = secs(|| table.append_batch(batch));
        black_box(next.map_err(err)?);
        rates.push(rows as f64 / t);
    }
    m.set("table.append_rows_per_s", median(&rates));
    Ok(())
}

/// `sampling::stratified` at each template's strata count,
/// `sampling::reservoir`, and `sampling::stratified_merge`.
fn sampling_layers(table: &Table, scale: &Scale, m: &mut Metrics) -> Result<(), String> {
    let n = table.num_rows().min(OFFER_ROWS);
    let column = |name: &str| -> Result<Vec<i64>, String> {
        let c = table.column(name).map_err(err)?;
        Ok((0..n).map(|i| c.i64_at(i)).collect())
    };
    let (dates, parts) = (column("lo_orderdate")?, column("lo_partkey")?);
    let (revenue, intkey) = (column("lo_revenue")?, column("lo_intkey")?);
    // Q1 stratifies on the order date (~2.4 k strata); Q2 on
    // (d_year, p_brand1) within one category: 7 × 40 strata.
    let q1_keys: Vec<GroupKey> = dates.iter().map(|&d| GroupKey::new(&[d])).collect();
    let q2_keys: Vec<GroupKey> = dates
        .iter()
        .zip(&parts)
        .map(|(&d, &p)| GroupKey::new(&[d / 10_000, p % 40]))
        .collect();
    let tuples: Vec<SampleTuple> = revenue
        .iter()
        .zip(&intkey)
        .map(|(&r, &k)| SampleTuple::from_slice(&[r, k]))
        .collect();

    let build = |keys: &[GroupKey], rows: std::ops::Range<usize>, seed: u64| {
        let mut rng = Lehmer64::new(seed);
        let mut s = Sampler::new(scale.k);
        for i in rows {
            s.offer(keys[i], tuples[i], &mut rng);
        }
        s
    };
    for (name, keys) in [
        ("stratified.offer_ns_q1", &q1_keys),
        ("stratified.offer_ns_q2", &q2_keys),
    ] {
        let ns: Vec<f64> = (0..REPS)
            .map(|rep| {
                let (s, t) = secs(|| build(keys, 0..n, rep as u64 + 1));
                black_box(s);
                t * 1e9 / n as f64
            })
            .collect();
        m.set(name, median(&ns));
    }

    let ns: Vec<f64> = (0..REPS)
        .map(|rep| {
            let mut rng = Lehmer64::new(rep as u64 + 1);
            let mut r = Reservoir::new(scale.k);
            let ((), t) = secs(|| {
                for &tuple in &tuples {
                    r.offer(tuple, &mut rng);
                }
            });
            black_box(r);
            t * 1e9 / n as f64
        })
        .collect();
    m.set("reservoir.offer_ns", median(&ns));

    // Four samples over disjoint row quarters, as the coverage planner
    // hands disjoint populations to the merge.
    let quarters: Vec<Sampler> = (0..4)
        .map(|q| build(&q1_keys, q * n / 4..(q + 1) * n / 4, q as u64 + 11))
        .collect();
    let mut rng = Lehmer64::new(0x3E26E);
    let mut pair_us = Vec::new();
    let mut kway_us = Vec::new();
    for _ in 0..REPS {
        let (a, b) = (quarters[0].clone(), quarters[1].clone());
        let (merged, t) = secs(|| merge_stratified(a, b, &mut rng));
        black_box(merged);
        pair_us.push(t * 1e6);
        let inputs = quarters.clone();
        let (merged, t) = secs(|| merge_stratified_k(inputs, &mut rng));
        black_box(merged);
        kway_us.push(t * 1e6);
    }
    m.set("merge.pair_us", median(&pair_us));
    m.set("merge.kway_us", median(&kway_us));
    Ok(())
}

/// `core::sql` and `core::lazy` / `core::store`: SQL → plan, and
/// Algorithm 1 against the store the traced pass left behind.
fn plan_layers(input: &Input<'_>, m: &mut Metrics) -> Result<(), String> {
    let k = input.scale.k;
    let mut sql_us = Vec::new();
    let mut lazy_us = Vec::new();
    let executor = LaqyExecutor::new(ENGINE_THREADS, SupportPolicy::default(), 1);
    let watermark = input
        .catalog
        .table("lineorder")
        .map_err(err)?
        .row_watermark();
    for range in input.ranges {
        let sql = q1_sql(range.lo, range.hi);
        for _ in 0..REPS {
            let (q, t) = secs(|| laqy::approx_query(input.catalog, &sql, k));
            black_box(q.map_err(err)?);
            sql_us.push(t * 1e6);
        }
        let descriptor = executor
            .descriptor(input.catalog, &input.template.query(*range, k))
            .map_err(err)?;
        for _ in 0..REPS {
            let (plan, t) = secs(|| plan_lazy(&input.store, &descriptor, watermark));
            black_box(plan);
            lazy_us.push(t * 1e6);
        }
    }
    m.set("sql.plan_us", median(&sql_us));
    m.set("lazy.plan_us", median(&lazy_us));
    m.set("store.samples", input.store.len() as f64);
    m.set("store.bytes", input.store.total_bytes() as f64);
    Ok(())
}

/// `core::estimate`: a tightened estimate over the largest stored
/// sample — the whole cost of a full hit.
fn estimate_layer(
    input: &Input<'_>,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let Some(stored) = input.store.iter_samples().max_by_key(|s| s.bytes()) else {
        notes.push("estimate probe: the store is empty, reporting 0".to_string());
        m.set("estimate.us_per_answer", 0.0);
        m.set("estimate.groups_per_s", 0.0);
        return Ok(());
    };
    let aggs = input
        .template
        .query(Interval::new(0, 0), input.scale.k)
        .plan
        .aggs;
    // Tighten to the middle half of the sample's own range, as a
    // narrower query reusing it would.
    let hull = stored
        .descriptor
        .predicates
        .get("lo_intkey")
        .map(|set| set.intervals())
        .filter(|ivs| !ivs.is_empty())
        .map(|ivs| Interval::new(ivs[0].lo, ivs[ivs.len() - 1].hi))
        .ok_or("stored sample has no lo_intkey range")?;
    let quarter = (hull.width() / 4) as i64;
    let tighten = Predicates::on(
        "lo_intkey",
        IntervalSet::of(Interval::new(hull.lo + quarter, hull.hi - quarter)),
    );
    let opts = EstimateOptions {
        tighten: Some(&tighten),
        ..EstimateOptions::default()
    };
    let (mut us, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (groups, t) = secs(|| estimate(&stored.sample, &stored.schema, &aggs, &opts));
        let groups = groups.map_err(err)?;
        us.push(t * 1e6);
        rates.push(groups.len() as f64 / t);
    }
    m.set("estimate.us_per_answer", median(&us));
    m.set("estimate.groups_per_s", median(&rates));
    Ok(())
}

/// `core::wal` / `core::persist`: ingest-sized records appended and
/// fsynced one by one, then replayed, then recovered into a fresh
/// service.
fn wal_layer(
    input: &Input<'_>,
    table: &Table,
    batch: &[(String, Column)],
    m: &mut Metrics,
) -> Result<(), String> {
    let (wal_dir, snap_dir) = (
        input.scratch.join("probe-wal"),
        input.scratch.join("probe-snap"),
    );
    std::fs::create_dir_all(&snap_dir).map_err(err)?;
    let rows = batch[0].1.len() as u64;
    let base = table.row_watermark();
    let mut wal = WalAppender::open(&wal_dir).map_err(err)?;
    let start = wal.position();
    let mut fsync_ms = Vec::new();
    for i in 0..REPS as u64 {
        let record = WalRecord::Batch {
            table: "lineorder".to_string(),
            base_rows: base + i * rows,
            columns: batch.to_vec(),
        };
        let (at, t) = secs(|| wal.append(&record));
        at.map_err(err)?;
        fsync_ms.push(t * 1e3);
    }
    let end = wal.position();
    drop(wal);
    let total_rows = REPS as u64 * rows;
    m.set("wal.append_fsync_ms", median(&fsync_ms));
    // One segment holds the probe's records (16 MiB ≫ REPS batches).
    m.set(
        "wal.bytes_per_row",
        if end.segment == start.segment {
            (end.offset - start.offset) as f64 / total_rows as f64
        } else {
            0.0
        },
    );
    let (replayed, t) = secs(|| laqy::replay_wal(&wal_dir));
    let (records, _) = replayed.map_err(err)?;
    if records.len() != REPS {
        return Err(format!(
            "wal probe replayed {} of {REPS} records",
            records.len()
        ));
    }
    m.set("wal.replay_rows_per_s", total_rows as f64 / t);
    let fresh = service(input.catalog.clone());
    let (report, t) = secs(|| fresh.recover_with_wal(&snap_dir, &wal_dir));
    report.map_err(err)?;
    m.set("wal.recover_ms", t * 1e3);
    Ok(())
}

/// `server::protocol`: encode and decode of a real answer (the
/// workload's template over its first range) and of an ingest request.
fn protocol_layer(
    input: &Input<'_>,
    batch: &[(String, Column)],
    m: &mut Metrics,
) -> Result<(), String> {
    let svc = service(input.catalog.clone());
    let range = input.ranges.first().copied().unwrap_or(Interval::new(0, 0));
    let query = input.template.query(range, input.scale.k);
    let result = svc.run(&query).map_err(err)?;
    let keys = svc.decode_keys(&query, &result).map_err(err)?;
    let answer = Response::Answer(Answer {
        degraded: None,
        groups: keys
            .into_iter()
            .zip(&result.groups)
            .map(|(key, g)| AnswerGroup {
                key,
                values: g
                    .values
                    .iter()
                    .map(|v| AnswerAgg {
                        value: v.value,
                        ci_half_width: v.ci_half_width,
                        support: v.support as u64,
                    })
                    .collect(),
            })
            .collect(),
    });
    let ingest = Request::Ingest {
        tenant: "bench".to_string(),
        table: "lineorder".to_string(),
        columns: batch.to_vec(),
    };
    let mb_per_s = |bytes: usize, t: f64| bytes as f64 / 1e6 / t;
    let (mut a_enc, mut a_dec, mut i_enc, mut i_dec) = (vec![], vec![], vec![], vec![]);
    let mut answer_bytes = 0;
    for _ in 0..REPS {
        let (bytes, t) = secs(|| answer.encode());
        a_enc.push(mb_per_s(bytes.len(), t));
        answer_bytes = bytes.len();
        let (decoded, t) = secs(|| Response::decode(&bytes));
        black_box(decoded.map_err(err)?);
        a_dec.push(mb_per_s(bytes.len(), t));
        let (bytes, t) = secs(|| ingest.encode());
        i_enc.push(mb_per_s(bytes.len(), t));
        let (decoded, t) = secs(|| Request::decode(&bytes));
        black_box(decoded.map_err(err)?);
        i_dec.push(mb_per_s(bytes.len(), t));
    }
    m.set("protocol.answer_encode_mb_per_s", median(&a_enc));
    m.set("protocol.answer_decode_mb_per_s", median(&a_dec));
    m.set("protocol.ingest_encode_mb_per_s", median(&i_enc));
    m.set("protocol.ingest_decode_mb_per_s", median(&i_dec));
    m.set("protocol.answer_bytes", answer_bytes as f64);
    Ok(())
}

/// `server::admission`: an uncontended admit + release.
fn admission_layer(m: &mut Metrics) {
    const ADMITS: usize = 100_000;
    let gate = Gate::new(2, 8);
    let ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let ((), t) = secs(|| {
                for _ in 0..ADMITS {
                    black_box(gate.admit(Duration::ZERO));
                }
            });
            t * 1e9 / ADMITS as f64
        })
        .collect();
    m.set("admission.admit_ns", median(&ns));
}

/// `core::store`: stored samples absorbing successive ingest-sized
/// appends (Algorithm-R continuation), per absorbed sample.
fn absorb_layer(
    mut store: SampleStore,
    table: &Table,
    batch: &[(String, Column)],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = Lehmer64::new(0xAB50);
    let mut us = Vec::new();
    let mut grown = table.append_batch(batch).map_err(err)?;
    for _ in 0..REPS {
        let (report, t) = secs(|| store.absorb_appended(&grown, &mut rng));
        if report.samples_absorbed > 0 {
            us.push(t * 1e6 / report.samples_absorbed as f64);
        }
        grown = grown.append_batch(batch).map_err(err)?;
    }
    // Samples above a join are invalidated by an append instead of
    // absorbing it; nothing to time there.
    m.set(
        "store.absorb_us_per_sample",
        if us.is_empty() { 0.0 } else { median(&us) },
    );
    Ok(())
}
