//! Sample-store persistence: a compact, versioned binary snapshot format.
//!
//! The paper's design space (Figure 2) spans from purely online samples to
//! purely offline ones; persisting the sample store is what turns samples
//! materialized "as a side-effect of execution" into offline samples that
//! survive restarts — the Taster-style materialization LAQy builds on.
//! Snapshots capture every stored sample's descriptor (input identity,
//! QCS, QVS, predicate coverage, `k`), payload schema, and per-stratum
//! reservoirs with their weights, so a restored store classifies and
//! merges exactly as the original would.
//!
//! Format (little-endian, versioned; written with [`BufMut`], read
//! through [`crate::codec::Reader`], strings as the codec's `u32 length |
//! UTF-8`):
//!
//! ```text
//! magic "LAQY" | u32 version | u32 sample count
//! per sample (≥ 48 B):
//!   descriptor: str input | u32 n | n × str qcs | u32 n | n × str qvs
//!               | u64 k | u32 n | n × (str col | u32 m | m × (i64 lo, i64 hi))
//!   schema:     u32 n | n × (str name | u8 kind)
//!   u64 row watermark
//!   sampler:    u64 capacity | u32 strata
//!     per stratum (≥ 13 B): u8 key parts | parts × i64 | u64 weight
//!                           | u32 items | items × width × i64
//! ```
//!
//! # Durability
//!
//! On-disk writes are *crash-safe*: [`save_to_file`] never touches the
//! destination directly. It writes a sibling `<name>.tmp`, `sync_all`s
//! it, renames it over the destination, then fsyncs the directory, so a
//! crash at any step leaves either the old snapshot or the new one —
//! never a torn file. [`save_snapshot`]/[`recover_snapshot`] layer
//! *generations* on top (`store.snap.1`, `store.snap.2`, …): each save
//! writes a fresh generation and keeps the previous one as a fallback;
//! recovery scans generations newest-first, skips corrupt or truncated
//! tails, and reports what it discarded in a [`RecoveryReport`]. Every
//! step is wired through `laqy_faults` points (`persist.create`,
//! `persist.write_all`, `persist.sync_file`, `persist.rename`,
//! `persist.sync_dir`) so chaos builds can kill the write at each stage
//! and assert the last-good generation still loads.

use std::io::{Read, Write};
use std::path::Path;

use laqy_engine::GroupKey;

use crate::codec::{put_str, BufMut, Reader};
use crate::descriptor::{Predicates, SampleDescriptor};
use crate::interval::{Interval, IntervalSet};
use crate::sampler_ops::{row_width, Sample, SampleSchema, SlotKind, MAX_SAMPLE_COLS};
use crate::store::SampleStore;

const MAGIC: &[u8; 4] = b"LAQY";
const VERSION: u32 = 2;

/// Hard cap on the snapshot size [`load_from_file`] will read into
/// memory, so a corrupt or adversarial file cannot drive a multi-GB
/// allocation before format validation even starts.
pub const MAX_SNAPSHOT_BYTES: u64 = 256 * 1024 * 1024;

/// File-name prefix for generation-paired snapshots in a snapshot
/// directory: `store.snap.<generation>`.
pub const SNAPSHOT_PREFIX: &str = "store.snap.";

/// How many trailing generations [`save_snapshot`] retains. The newest
/// is the live snapshot; the rest are recovery fallbacks.
pub const KEEP_GENERATIONS: usize = 2;

/// Cap on the payload-arena bytes one [`load_store`] call may allocate
/// across all the samples it restores. A restored stratum owns exactly the
/// tuples it holds, so a sample is charged what its strata hold; the
/// declared capacity is what one stratum grows to at its first offer, so a
/// few corrupt bytes declaring a huge one are refused before they can
/// become a huge allocation later.
const MAX_RESTORED_ARENA_BYTES: u64 = MAX_SNAPSHOT_BYTES;

/// Smallest possible wire footprint of one sample (empty strings, zero
/// columns, zero strata); bounds pre-validation of the sample count.
/// Version 2 added the 8-byte per-sample row watermark.
const MIN_SAMPLE_WIRE_BYTES: usize = 48;

/// Persistence errors.
#[derive(Debug)]
pub enum PersistError {
    /// Snapshot bytes are malformed or truncated.
    Corrupt(String),
    /// Snapshot was written by an unsupported format version.
    Version(u32),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record over its format's cap, refused before a byte was written
    /// (its reader would refuse it).
    TooLarge(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            PersistError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::TooLarge(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialize a sample store to bytes.
pub fn save_store(store: &SampleStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let samples: Vec<_> = store.iter_samples().collect();
    buf.put_u32_le(samples.len() as u32);
    for s in samples {
        write_descriptor(&mut buf, &s.descriptor);
        write_schema(&mut buf, &s.schema);
        buf.put_u64_le(s.watermark);
        write_sampler(&mut buf, &s.sample);
    }
    buf
}

/// Deserialize a sample store from bytes. The restored store is unbounded;
/// a service's byte budget applies once the samples replace its store's,
/// when the [`StoreWriteGuard`](crate::store::StoreWriteGuard) of that
/// write drops.
pub fn load_store(data: &[u8]) -> Result<SampleStore, PersistError> {
    let mut r = Reader::new(data);
    if r.take(MAGIC.len()).ok() != Some(&MAGIC[..]) {
        return Err(PersistError::Corrupt("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::Version(version));
    }
    let count = r.len(MIN_SAMPLE_WIRE_BYTES)?;
    let mut store = SampleStore::new();
    let mut arena_budget = MAX_RESTORED_ARENA_BYTES;
    for _ in 0..count {
        let descriptor = read_descriptor(&mut r)?;
        let schema = read_schema(&mut r)?;
        let watermark = r.u64()?;
        let sampler = read_sampler(&mut r, schema.len(), descriptor.k, &mut arena_budget)?;
        store.insert_raw(descriptor, schema, sampler, watermark);
    }
    r.done()?;
    Ok(store)
}

/// Save a store snapshot to a file, atomically.
///
/// The destination is never written in place: the bytes go to a
/// sibling `<name>.tmp` which is fsynced and renamed over the target,
/// and the directory is fsynced afterwards. A crash (or injected
/// fault) at any step leaves the previous snapshot intact.
pub fn save_to_file(store: &SampleStore, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let bytes = save_store(store);
    write_atomic(path.as_ref(), &bytes)
}

/// Load a store snapshot from a file. Files larger than
/// [`MAX_SNAPSHOT_BYTES`] are rejected before any read.
pub fn load_from_file(path: impl AsRef<Path>) -> Result<SampleStore, PersistError> {
    let path = path.as_ref();
    let len = std::fs::metadata(path)?.len();
    if len > MAX_SNAPSHOT_BYTES {
        return Err(PersistError::Corrupt(format!(
            "snapshot is {len} bytes, over the {MAX_SNAPSHOT_BYTES}-byte cap"
        )));
    }
    let mut f = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    load_store(&bytes)
}

/// Write `bytes` to `path` via tmp-file + fsync + rename + dir-fsync.
/// Each stage hits a `laqy_faults` point first; an injected fault at
/// `persist.write_all` additionally tears the tmp file (half the bytes
/// land) to mimic a mid-write crash. A snapshot over
/// [`MAX_SNAPSHOT_BYTES`], which [`load_from_file`] would refuse, is
/// refused before anything is written.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let (len, cap) = (bytes.len(), MAX_SNAPSHOT_BYTES);
    if len as u64 > cap {
        let msg = format!("snapshot of {len} bytes exceeds the {cap}-byte cap");
        return Err(PersistError::TooLarge(msg));
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| PersistError::Corrupt("snapshot path has no file name".into()))?;
    let tmp = dir.join(format!("{name}.tmp"));

    laqy_faults::io_point("persist.create")?;
    let mut f = std::fs::File::create(&tmp)?;
    if let Err(e) = laqy_faults::point("persist.write_all") {
        // Simulate a torn write: half the payload reaches the tmp file
        // before the "crash". The tmp name means recovery ignores it.
        let _ = f.write_all(&bytes[..bytes.len() / 2]);
        return Err(PersistError::Io(e.into()));
    }
    f.write_all(bytes)?;
    laqy_faults::io_point("persist.sync_file")?;
    f.sync_all()?;
    drop(f);
    laqy_faults::io_point("persist.rename")?;
    std::fs::rename(&tmp, path)?;
    laqy_faults::io_point("persist.sync_dir")?;
    let d = std::fs::File::open(&dir)?;
    d.sync_all()?;
    Ok(())
}

/// What [`recover_snapshot`] found while scanning a snapshot directory.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Generation number of the snapshot that loaded, if any.
    pub loaded: Option<u64>,
    /// Generations that were skipped as corrupt/truncated, newest
    /// first, with the load error that disqualified each.
    pub discarded: Vec<(u64, String)>,
    /// Leftover `*.tmp` files (torn writes) removed from the directory.
    pub tmp_removed: usize,
    /// Intact WAL records replayed on top of the snapshot (0 when
    /// recovery ran without a WAL; see
    /// [`LaqyService::recover_with_wal`](crate::service::LaqyService::recover_with_wal)).
    pub wal_records: u64,
    /// True when the WAL ended in a torn (half-written) record that was
    /// discarded and truncated.
    pub wal_torn_tail: bool,
}

impl RecoveryReport {
    /// True when recovery had to fall back past at least one bad
    /// generation (the signal behind the `snapshots_recovered` counter).
    pub fn fell_back(&self) -> bool {
        !self.discarded.is_empty()
    }
}

/// Parse `store.snap.<N>` file names into generation numbers.
fn generation_of(name: &str) -> Option<u64> {
    name.strip_prefix(SNAPSHOT_PREFIX)?.parse().ok()
}

/// All snapshot generations present in `dir`, unsorted.
fn list_generations(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(generation_of) {
            gens.push(gen);
        }
    }
    Ok(gens)
}

/// Write the next snapshot generation of `store` into `dir`
/// (`store.snap.<N>`, atomically), then prune generations beyond
/// [`KEEP_GENERATIONS`]. Returns the generation written. The directory
/// is created if missing.
pub fn save_snapshot(store: &SampleStore, dir: impl AsRef<Path>) -> Result<u64, PersistError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut gens = list_generations(dir)?;
    let next = gens.iter().max().map_or(1, |g| g + 1);
    write_atomic(
        &dir.join(format!("{SNAPSHOT_PREFIX}{next}")),
        &save_store(store),
    )?;
    // Only prune after the new generation is durably in place; removal
    // is best-effort (a stale fallback is harmless, a missing one not).
    gens.push(next);
    gens.sort_unstable_by(|a, b| b.cmp(a));
    for old in gens.iter().skip(KEEP_GENERATIONS) {
        let _ = std::fs::remove_file(dir.join(format!("{SNAPSHOT_PREFIX}{old}")));
    }
    Ok(next)
}

/// Recover the newest loadable snapshot generation from `dir`.
///
/// Generations are tried newest-first; corrupt or truncated ones are
/// skipped (and reported), torn `*.tmp` files are removed. An empty or
/// absent directory recovers to an empty store. Only when generations
/// exist and *none* loads is this an error.
pub fn recover_snapshot(
    dir: impl AsRef<Path>,
) -> Result<(SampleStore, RecoveryReport), PersistError> {
    let dir = dir.as_ref();
    let mut report = RecoveryReport::default();
    if !dir.exists() {
        return Ok((SampleStore::new(), report));
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_str().is_some_and(|n| n.ends_with(".tmp"))
            && std::fs::remove_file(entry.path()).is_ok()
        {
            report.tmp_removed += 1;
        }
    }
    let mut gens = list_generations(dir)?;
    gens.sort_unstable_by(|a, b| b.cmp(a));
    let had_any = !gens.is_empty();
    for gen in gens {
        match load_from_file(dir.join(format!("{SNAPSHOT_PREFIX}{gen}"))) {
            Ok(store) => {
                report.loaded = Some(gen);
                return Ok((store, report));
            }
            Err(e) => report.discarded.push((gen, e.to_string())),
        }
    }
    if had_any {
        return Err(PersistError::Corrupt(format!(
            "no loadable snapshot generation (discarded {:?})",
            report.discarded
        )));
    }
    Ok((SampleStore::new(), report))
}

// ---- writers ----

fn write_descriptor(buf: &mut Vec<u8>, d: &SampleDescriptor) {
    put_str(buf, &d.input);
    for names in [&d.qcs, &d.qvs] {
        buf.put_u32_le(names.len() as u32);
        names.iter().for_each(|c| put_str(buf, c));
    }
    buf.put_u64_le(d.k as u64);
    // One predicate column: the count is kept so the layout stays the one
    // every snapshot has been written in.
    buf.put_u32_le(1);
    put_str(buf, &d.predicates.column);
    let intervals = d.predicates.set.intervals();
    buf.put_u32_le(intervals.len() as u32);
    for iv in intervals {
        buf.put_i64_le(iv.lo);
        buf.put_i64_le(iv.hi);
    }
}

fn write_schema(buf: &mut Vec<u8>, schema: &SampleSchema) {
    let names = schema.column_names();
    buf.put_u32_le(names.len() as u32);
    for (i, name) in names.iter().enumerate() {
        put_str(buf, name);
        buf.put_u8(match schema.kind(i) {
            SlotKind::Int => 0,
            SlotKind::Float => 1,
        });
    }
}

fn write_sampler(buf: &mut Vec<u8>, sampler: &Sample) {
    buf.put_u64_le(sampler.capacity() as u64);
    buf.put_u32_le(sampler.num_strata() as u32);
    // Canonical order: the in-memory stratum map iterates in hash-table
    // order, which depends on construction history (offer-grown vs
    // restored), so sort by key to make snapshots a pure function of
    // store *contents* — byte-identical across round-trips and safe to
    // compare or deduplicate by hash.
    let mut strata: Vec<_> = sampler.iter().collect();
    strata.sort_unstable_by_key(|(key, _, _)| **key);
    for (key, items, weight) in strata {
        buf.put_u8(key.len() as u8);
        for &p in key.parts() {
            buf.put_i64_le(p);
        }
        buf.put_u64_le(weight);
        buf.put_u32_le(items.len() as u32);
        for &v in items.iter().flatten() {
            buf.put_i64_le(v);
        }
    }
}

// ---- readers ----

fn read_descriptor(r: &mut Reader<'_>) -> Result<SampleDescriptor, PersistError> {
    let input = r.str()?;
    let mut strs = || {
        (0..r.len(4)?)
            .map(|_| r.str())
            .collect::<Result<Vec<_>, _>>()
    };
    let (qcs, qvs) = (strs()?, strs()?);
    let k = r.u64()? as usize;
    let pred_cols = r.u32()?;
    if pred_cols != 1 {
        return Err(PersistError::Corrupt(format!(
            "{pred_cols} predicate columns, not 1"
        )));
    }
    let column = r.str()?;
    let ivs = r.len(16)?;
    let mut intervals = Vec::with_capacity(ivs);
    for _ in 0..ivs {
        let (lo, hi) = (r.i64()?, r.i64()?);
        if lo > hi {
            return Err(PersistError::Corrupt(format!(
                "interval bounds out of order: [{lo}, {hi}]"
            )));
        }
        intervals.push(Interval::new(lo, hi));
    }
    let predicates = Predicates::on(column, IntervalSet::from_intervals(intervals));
    Ok(SampleDescriptor::new(input, qcs, qvs, predicates, k))
}

fn read_schema(r: &mut Reader<'_>) -> Result<SampleSchema, PersistError> {
    let n = r.u32()? as usize;
    if n > MAX_SAMPLE_COLS {
        return Err(PersistError::Corrupt(format!(
            "schema width {n} exceeds maximum {MAX_SAMPLE_COLS}"
        )));
    }
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let kind = match r.u8()? {
            0 => SlotKind::Int,
            1 => SlotKind::Float,
            other => return Err(PersistError::Corrupt(format!("bad slot kind {other}"))),
        };
        cols.push((name, kind));
    }
    Ok(SampleSchema::new(cols))
}

fn read_sampler(
    r: &mut Reader<'_>,
    width: usize,
    expected_k: usize,
    arena_budget: &mut u64,
) -> Result<Sample, PersistError> {
    let capacity = r.u64()? as usize;
    if capacity == 0 {
        return Err(PersistError::Corrupt("zero reservoir capacity".into()));
    }
    if capacity < expected_k {
        return Err(PersistError::Corrupt(format!(
            "sampler capacity {capacity} below descriptor k {expected_k}"
        )));
    }
    if width == 0 {
        // Every payload carries at least the range column.
        return Err(PersistError::Corrupt("zero-width sample schema".into()));
    }
    // Every stratum needs at least key-len(1) + weight(8) + count(4) bytes.
    let strata = r.len(13)?;
    // What one restored row occupies: the row width the schema rounds up
    // to, not the `width` slots it carries on the wire.
    let row_bytes = (row_width(width) * std::mem::size_of::<i64>()) as u64;
    if (capacity as u64)
        .checked_mul(row_bytes)
        .is_none_or(|b| b > *arena_budget)
    {
        return Err(PersistError::Corrupt(format!(
            "a stratum of capacity {capacity} exceeds the restorable sample size"
        )));
    }
    let mut sampler = Sample::with_strata_hint(width, capacity, strata);
    let mut vals = Vec::new();
    for _ in 0..strata {
        let key_len = r.u8()? as usize;
        if key_len > laqy_engine::MAX_KEY_COLS {
            return Err(PersistError::Corrupt(format!("key width {key_len}")));
        }
        let mut parts = [0i64; laqy_engine::MAX_KEY_COLS];
        for p in parts.iter_mut().take(key_len) {
            *p = r.i64()?;
        }
        let key = GroupKey::new(&parts[..key_len]);
        let weight = r.u64()?;
        let count = r.len(width * 8)?;
        if count > capacity {
            return Err(PersistError::Corrupt(format!(
                "stratum holds {count} items over capacity {capacity}"
            )));
        }
        if weight < count as u64 {
            return Err(PersistError::Corrupt(
                "stratum weight below item count".into(),
            ));
        }
        // `count ≤ capacity`, whose bytes fit the budget's `u64`.
        match arena_budget.checked_sub(count as u64 * row_bytes) {
            Some(left) => *arena_budget = left,
            None => {
                return Err(PersistError::Corrupt(format!(
                    "{strata} strata of capacity {capacity} exceed the restorable sample size"
                )));
            }
        }
        let items = r.take(count * width * 8)?.chunks_exact(8);
        vals.clear();
        vals.extend(items.map(|b| i64::from_le_bytes(b.try_into().expect("8 bytes"))));
        sampler.insert_rows(key, &vals, weight);
    }
    Ok(sampler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laqy_sampling::Lehmer64;

    fn schema() -> SampleSchema {
        SampleSchema::new(vec![
            ("x".into(), SlotKind::Int),
            ("v".into(), SlotKind::Float),
        ])
    }

    fn descriptor(lo: i64, hi: i64) -> SampleDescriptor {
        SampleDescriptor::new(
            "lineorder[True]",
            vec!["lo_orderdate".into()],
            vec!["v".into(), "x".into()],
            Predicates::on("x", IntervalSet::of(Interval::new(lo, hi))),
            4,
        )
    }

    fn populated_store() -> SampleStore {
        let mut store = SampleStore::new();
        let mut rng = Lehmer64::new(1);
        for (i, (lo, hi)) in [(0i64, 99i64), (200, 399)].iter().enumerate() {
            let mut s = Sample::new(&schema(), 4);
            for g in 0..3i64 {
                for x in *lo..(*lo + 20) {
                    s.offer(
                        GroupKey::new(&[g, i as i64]),
                        &[x, (x as f64 * 0.5).to_bits() as i64],
                        &mut rng,
                    );
                }
            }
            store.absorb(descriptor(*lo, *hi), schema(), s, 6000 + i as u64, &mut rng);
        }
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = populated_store();
        let bytes = save_store(&store);
        let restored = load_store(&bytes).unwrap();
        assert_eq!(restored.len(), store.len());

        let originals: Vec<_> = store.iter_samples().collect();
        let restoreds: Vec<_> = restored.iter_samples().collect();
        for (o, r) in originals.iter().zip(&restoreds) {
            assert_eq!(o.descriptor, r.descriptor);
            assert_eq!(o.schema, r.schema);
            assert_eq!(o.watermark, r.watermark, "watermark survives the wire");
            assert_eq!(o.sample.num_strata(), r.sample.num_strata());
            assert_eq!(o.sample.total_weight(), r.sample.total_weight());
            for (key, items, weight) in o.sample.iter() {
                let restored = r.sample.iter().find(|(k, _, _)| k == &key);
                let (_, r_items, r_weight) = restored.expect("stratum survives");
                assert_eq!(weight, r_weight);
                assert_eq!(items, r_items);
            }
        }
    }

    #[test]
    fn restored_store_plans_and_merges_like_original() {
        use crate::lazy::plan_lazy;
        let mut store = populated_store();
        let mut restored = load_store(&save_store(&store)).unwrap();
        // A hit, coverage reuse (Δ = [100, 150]), online: the same plan on
        // both sides (ids differ, so compare what they select).
        for (lo, hi, selects) in [(10, 50, 1), (50, 150, 1), (1000, 2000, 0)] {
            let q = descriptor(lo, hi);
            let shape = |store: &SampleStore| {
                let plan = plan_lazy(store, &q, 0);
                let selected = plan.sample.map(|id| store.peek(id).unwrap());
                let selected: Vec<_> = selected.map(|s| s.descriptor.clone()).into_iter().collect();
                (plan.hit().is_some(), selected, plan.residual)
            };
            let expected = shape(&store);
            assert_eq!(expected.0, lo == 10, "only [10, 50] is a hit");
            assert_eq!(expected.1.len(), selects);
            if selects == 0 {
                assert_eq!(expected.2, q.predicates.set, "online: Δ = the query");
            }
            assert_eq!(expected, shape(&restored));
        }
        // And the coverage write step lands both stores in the same place.
        let q = descriptor(50, 150);
        for side in [&mut store, &mut restored] {
            let plan = plan_lazy(side, &q, 0);
            assert!(plan.sample.is_some(), "expected coverage reuse");
            assert!(!plan.residual.is_empty(), "expected coverage reuse");
            let mut rng = Lehmer64::new(9);
            let mut delta = Sample::new(&schema(), 4);
            for x in 100..=150 {
                delta.offer(GroupKey::new(&[0, 0]), &[x, 0], &mut rng);
            }
            let stored: u64 = side.iter_samples().map(|s| s.sample.total_weight()).sum();
            let scans = vec![(0, delta, true)];
            let merged = side.absorb_coverage(&q, &schema(), &plan, scans, true, &mut rng);
            assert_eq!(merged.unwrap().sample.total_weight(), stored + 51);
        }
        let coverage = |store: &SampleStore| -> Vec<SampleDescriptor> {
            store.descriptors().map(|(_, d)| d.clone()).collect()
        };
        assert_eq!(coverage(&store), coverage(&restored));
        assert!(plan_lazy(&restored, &q, 0).hit().is_some());
    }

    #[test]
    fn empty_store_roundtrip() {
        let store = SampleStore::new();
        let restored = load_store(&save_store(&store)).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = save_store(&SampleStore::new());
        bytes[0] = b'X';
        assert!(matches!(load_store(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = save_store(&SampleStore::new());
        bytes[4] = 99;
        assert!(matches!(load_store(&bytes), Err(PersistError::Version(99))));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        // Any prefix of a valid snapshot must fail loudly, never panic.
        let bytes = save_store(&populated_store());
        for cut in 0..bytes.len() {
            let r = load_store(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = save_store(&populated_store());
        bytes.push(0);
        assert!(matches!(load_store(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn file_roundtrip() {
        let store = populated_store();
        let path = std::env::temp_dir().join(format!("laqy_snapshot_{}.bin", std::process::id()));
        save_to_file(&store, &path).unwrap();
        let restored = load_from_file(&path).unwrap();
        assert_eq!(restored.len(), store.len());
        std::fs::remove_file(&path).ok();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("laqy_snap_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn atomic_save_leaves_no_tmp_file() {
        let dir = scratch_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        save_to_file(&populated_store(), &path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("store.bin.tmp").exists());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "stray files: {names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_advance_and_prune() {
        let dir = scratch_dir("gens");
        let store = populated_store();
        assert_eq!(save_snapshot(&store, &dir).unwrap(), 1);
        assert_eq!(save_snapshot(&store, &dir).unwrap(), 2);
        assert_eq!(save_snapshot(&store, &dir).unwrap(), 3);
        let mut gens = list_generations(&dir).unwrap();
        gens.sort_unstable();
        assert_eq!(gens.len(), KEEP_GENERATIONS, "old generations pruned");
        assert_eq!(gens.last(), Some(&3));
        let (restored, report) = recover_snapshot(&dir).unwrap();
        assert_eq!(report.loaded, Some(3));
        assert!(!report.fell_back());
        assert_eq!(restored.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_falls_back_past_corrupt_newest_generation() {
        let dir = scratch_dir("fallback");
        let store = populated_store();
        save_snapshot(&store, &dir).unwrap();
        let gen2 = save_snapshot(&store, &dir).unwrap();
        // Truncate the newest generation mid-file: a torn tail.
        let newest = dir.join(format!("{SNAPSHOT_PREFIX}{gen2}"));
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        // Plus a leftover tmp from a hypothetical crashed writer.
        std::fs::write(dir.join("store.snap.3.tmp"), b"torn").unwrap();

        let (restored, report) = recover_snapshot(&dir).unwrap();
        assert_eq!(report.loaded, Some(gen2 - 1));
        assert_eq!(report.discarded.len(), 1);
        assert_eq!(report.discarded[0].0, gen2);
        assert!(report.fell_back());
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(restored.len(), store.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_of_missing_or_empty_dir_is_an_empty_store() {
        let dir = scratch_dir("absent");
        let (store, report) = recover_snapshot(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(report.loaded, None);
        std::fs::create_dir_all(&dir).unwrap();
        let (store, report) = recover_snapshot(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(report.loaded, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_errors_when_every_generation_is_corrupt() {
        let dir = scratch_dir("allbad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.snap.1"), b"XXXXgarbage").unwrap();
        std::fs::write(dir.join("store.snap.2"), b"").unwrap();
        assert!(matches!(
            recover_snapshot(&dir),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_over_the_cap_is_refused_before_a_byte_is_written() {
        let dir = scratch_dir("write_cap");
        let path = dir.join("store.snap.1");
        // Zeroed pages: untouched, so the over-cap buffer costs no memory.
        let bytes = vec![0u8; MAX_SNAPSHOT_BYTES as usize + 1];
        let err = write_atomic(&path, &bytes).expect_err("over the cap");
        assert!(matches!(err, PersistError::TooLarge(_)), "{err}");
        assert!(!dir.exists(), "nothing was created");
    }

    #[test]
    fn oversized_snapshot_file_rejected_before_read() {
        let dir = scratch_dir("big");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap.1");
        // A sparse file over the cap: cheap to create, must be rejected
        // on metadata alone.
        let f = std::fs::File::create(&path).unwrap();
        f.set_len(MAX_SNAPSHOT_BYTES + 1).unwrap();
        drop(f);
        assert!(matches!(
            load_from_file(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sample_count_rejected_without_allocation() {
        // Forge a header claiming u32::MAX samples over an empty body.
        let mut bytes = Vec::new();
        bytes.put_slice(MAGIC);
        bytes.put_u32_le(VERSION);
        bytes.put_u32_le(u32::MAX);
        assert!(matches!(load_store(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn hostile_capacity_rejected_without_allocation() {
        // A well-formed snapshot whose one-stratum sampler claims the given
        // capacity — what the stratum would grow to at its first offer.
        let forge_strata = |capacity: u64, strata: u32| {
            let mut bytes = Vec::new();
            bytes.put_slice(MAGIC);
            bytes.put_u32_le(VERSION);
            bytes.put_u32_le(1);
            write_descriptor(&mut bytes, &descriptor(0, 9));
            write_schema(&mut bytes, &schema());
            bytes.put_u64_le(0); // watermark
            let sampler_at = bytes.len();
            bytes.put_u64_le(capacity);
            bytes.put_u32_le(strata);
            for key in 0..strata {
                bytes.put_u8(1);
                bytes.put_i64_le(key as i64);
                bytes.put_u64_le(3); // weight
                bytes.put_u32_le(3); // items, two slots each
                for v in 0..6 {
                    bytes.put_i64_le(v);
                }
            }
            (bytes, sampler_at)
        };
        let forge = |capacity: u64| forge_strata(capacity, 1);
        assert_eq!(load_store(&forge(4).0).unwrap().len(), 1);
        for capacity in [1u64 << 40, u64::MAX] {
            assert!(matches!(
                load_store(&forge(capacity).0),
                Err(PersistError::Corrupt(_))
            ));
        }
        // The budget is cumulative over a snapshot's samples: each restored
        // sample is charged the rows its strata hold at the width they
        // occupy (here 3 rows × 16 B, two slots: not the 4 rows the stratum
        // may grow to, nor 64 B tuples), and a capacity the rest of the
        // budget could not hold even once is refused.
        let (bytes, sampler_at) = forge(4);
        let mut budget = 150u64;
        let restored =
            read_sampler(&mut Reader::new(&bytes[sampler_at..]), 2, 4, &mut budget).unwrap();
        assert_eq!(budget, 150 - 48);
        assert_eq!(restored.total_items(), 3);
        assert_eq!(restored.row_width(), 2);
        assert!(read_sampler(&mut Reader::new(&bytes[sampler_at..]), 2, 4, &mut budget).is_ok());
        assert_eq!(budget, 150 - 2 * 48);
        assert!(matches!(
            read_sampler(&mut Reader::new(&bytes[sampler_at..]), 2, 4, &mut budget),
            Err(PersistError::Corrupt(_))
        ));
        // ... and so is a sample whose strata together hold more than is
        // left, though each alone would fit.
        let (bytes, sampler_at) = forge_strata(4, 3);
        assert!(matches!(
            read_sampler(&mut Reader::new(&bytes[sampler_at..]), 2, 4, &mut 100),
            Err(PersistError::Corrupt(_))
        ));
        assert!(read_sampler(&mut Reader::new(&bytes[sampler_at..]), 2, 4, &mut 144).is_ok());
        // No writer produces a zero-width schema; a snapshot claiming one
        // is corrupt, not a sample of empty rows.
        assert!(matches!(
            read_sampler(&mut Reader::new(&bytes[sampler_at..]), 0, 4, &mut (1 << 20)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupted_interval_rejected() {
        // Flip bytes in the middle and ensure errors (not panics). The
        // format has checksums only via structural validation, so some
        // flips may survive; the key property is that nothing panics.
        let bytes = save_store(&populated_store());
        for pos in (8..bytes.len()).step_by(7) {
            let mut b = bytes.clone();
            b[pos] ^= 0xFF;
            let _ = load_store(&b); // must not panic
        }
    }

    #[test]
    fn a_descriptor_over_other_than_one_predicate_column_is_rejected() {
        // Snapshot bytes come from outside the program: a predicate-column
        // count other than the 1 every writer puts is corrupt, not a panic.
        let mut store = SampleStore::new();
        let mut sample = Sample::new(&schema(), 4);
        sample.offer(GroupKey::new(&[0]), &[5, 0], &mut Lehmer64::new(3));
        store.insert_raw(descriptor(0, 9), schema(), sample, 0);
        let valid = save_store(&store);
        let header = MAGIC.len() + 4 + 4;
        let mut one = Vec::new();
        write_descriptor(&mut one, &descriptor(0, 9));
        assert_eq!(&valid[header..header + one.len()], &one[..]);
        // The predicate section: a count, column "x", one interval.
        let pred_at = one.len() - (4 + (4 + 1) + 4 + 16);
        let rest = &valid[header + one.len()..];
        let forge = |count: u32, columns: &[u8]| {
            let mut bytes = valid[..header + pred_at].to_vec();
            bytes.put_u32_le(count);
            bytes.extend_from_slice(columns);
            bytes.extend_from_slice(rest);
            bytes
        };
        let x = &one[pred_at + 4..];
        assert_eq!(forge(1, x), valid);
        assert_eq!(load_store(&forge(1, x)).unwrap().len(), 1);
        let mut two = x.to_vec();
        put_str(&mut two, "y");
        two.put_u32_le(1);
        two.put_i64_le(0);
        two.put_i64_le(9);
        for (count, columns) in [(0, &[][..]), (2, &two[..]), (2, x), (u32::MAX, x)] {
            assert!(
                matches!(
                    load_store(&forge(count, columns)),
                    Err(PersistError::Corrupt(_))
                ),
                "{count} predicate columns"
            );
        }
    }
}
