//! Tables: named collections of equal-length columns.

use std::sync::Arc;

use crate::column::{Column, StoredColumn};
use crate::error::{EngineError, Result};
use crate::synopsis::{TableSynopsis, DEFAULT_ZONE_ROWS};
use crate::types::DataType;

/// An epoch-versioned in-memory table. Each *version* is immutable —
/// scans always see a frozen set of rows — but the table grows through
/// [`Table::append_batch`], which produces the next version with the
/// batch's rows at the tail, the epoch counter bumped, and the per-morsel
/// zone maps extended incrementally (only the appended rows are read; see
/// [`TableSynopsis::extend`]). Versions are
/// persistent values: consecutive ones share their columns' base piece
/// and sealed chunks ([`StoredColumn`]), so the next version costs
/// O(batch + one chunk per column) and a clone is reference-count bumps.
/// Readers pin a version by cloning the catalog's `Arc<Table>`, so
/// concurrent appends can never produce a torn read.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<(String, StoredColumn)>,
    rows: usize,
    synopsis: Arc<TableSynopsis>,
    /// Version counter: 0 at construction, +1 per appended batch.
    epoch: u64,
}

/// `rows + added`, or the typed error when it passes what a `u32` row id
/// can address (selection vectors, join outputs and mask decoding all
/// carry `u32`, so a longer table would silently alias rows).
fn checked_row_count(table: &str, rows: usize, added: usize) -> Result<usize> {
    rows.checked_add(added)
        .filter(|&total| total <= u32::MAX as usize)
        .ok_or_else(|| EngineError::RowLimitExceeded {
            table: table.to_string(),
            rows,
            added,
        })
}

impl Table {
    /// Construct a table; all columns must have equal length. Zone maps
    /// are built at the default scan-morsel granularity. The columns'
    /// vectors become the table's base pieces as they are — nothing is
    /// copied or re-chunked.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Column)>) -> Result<Self> {
        Self::with_zone_map_rows(name, columns, DEFAULT_ZONE_ROWS)
    }

    /// Construct a table with zone maps at `zone_rows` granularity
    /// (tests shrink the block size to exercise pruning on small data).
    pub fn with_zone_map_rows(
        name: impl Into<String>,
        columns: Vec<(String, Column)>,
        zone_rows: usize,
    ) -> Result<Self> {
        let name = name.into();
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        if columns.iter().any(|(_, c)| c.len() != rows) {
            return Err(EngineError::LengthMismatch {
                context: "table construction",
            });
        }
        checked_row_count(&name, rows, 0)?;
        let columns: Vec<(String, StoredColumn)> =
            columns.into_iter().map(|(n, c)| (n, c.into())).collect();
        let synopsis = Arc::new(TableSynopsis::build(&columns, zone_rows));
        Ok(Self {
            name,
            columns,
            rows,
            synopsis,
            epoch: 0,
        })
    }

    /// Append a batch of rows, producing the table's next version. The
    /// batch must carry exactly this table's columns (matched by name,
    /// any order) with equal lengths, and the grown table must stay
    /// addressable by `u32` row ids; dictionary codes are remapped onto
    /// the table's dictionary. Every check runs before anything is built,
    /// so a rejected batch allocates and shares nothing. The new version
    /// shares each column's base piece and sealed chunks with this one and
    /// copies only the open chunk; the synopsis is extended by folding the
    /// appended rows alone, and the epoch advances by one. The receiver
    /// is untouched, so readers holding the old version keep a consistent
    /// snapshot, and two appends to the same version yield independent
    /// siblings.
    pub fn append_batch(&self, batch: &[(String, Column)]) -> Result<Table> {
        let added = batch.first().map(|(_, c)| c.len()).unwrap_or(0);
        if batch.iter().any(|(_, c)| c.len() != added) {
            return Err(EngineError::LengthMismatch {
                context: "append batch",
            });
        }
        if batch.len() != self.columns.len() {
            return Err(EngineError::LengthMismatch {
                context: "append batch schema",
            });
        }
        let rows = checked_row_count(&self.name, self.rows, added)?;
        let pending = self
            .columns
            .iter()
            .map(|(name, col)| {
                let incoming = batch
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, c)| c)
                    .ok_or_else(|| EngineError::UnknownColumn {
                        table: self.name.clone(),
                        column: name.clone(),
                    })?;
                col.check_append(name, incoming)
            })
            .collect::<Result<Vec<_>>>()?;
        let columns: Vec<(String, StoredColumn)> = self
            .columns
            .iter()
            .zip(pending)
            .map(|((name, _), append)| (name.clone(), append.finish()))
            .collect();
        let synopsis = Arc::new(self.synopsis.extend(&columns));
        Ok(Self {
            name: self.name.clone(),
            columns,
            rows,
            synopsis,
            epoch: self.epoch + 1,
        })
    }

    /// Version counter: 0 at construction, +1 per appended batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Row watermark of this version: appended rows always land past it,
    /// so a stored sample drawn at watermark `w` exactly covers rows
    /// `0..w` of every later version.
    pub fn row_watermark(&self) -> u64 {
        self.rows as u64
    }

    /// The table's zone maps. `None` is reserved for a future unloaded /
    /// synopsis-free state; today every table carries one.
    pub fn synopsis(&self) -> Option<&TableSynopsis> {
        Some(&self.synopsis)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&StoredColumn> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// True if the table has the named column.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|(n, _)| n == name)
    }

    /// `(name, type)` pairs describing the schema.
    pub fn schema(&self) -> Vec<(&str, DataType)> {
        self.columns
            .iter()
            .map(|(n, c)| (n.as_str(), c.data_type()))
            .collect()
    }

    /// Iterate columns as `(name, column)`.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &StoredColumn)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Total heap footprint in bytes: columns, the range indexes built so
    /// far, and zone maps.
    pub fn heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|(_, c)| c.heap_bytes())
            .sum::<usize>()
            + self.synopsis.heap_bytes()
    }
}

/// A catalog of shared tables.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<Arc<Table>>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table, replacing any table with the same name.
    pub fn register(&mut self, table: Table) -> Arc<Table> {
        let arc = Arc::new(table);
        self.tables.retain(|t| t.name() != arc.name());
        self.tables.push(arc.clone());
        arc
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{dict_column, STORED_CHUNK_ROWS};
    use crate::types::Value;

    fn sample_table() -> Table {
        Table::new(
            "t",
            vec![
                ("a".into(), Column::Int64(vec![1, 2, 3])),
                ("b".into(), Column::Float64(vec![0.5, 1.5, 2.5])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert!(t.has_column("a"));
        assert!(!t.has_column("z"));
        assert_eq!(t.column("b").unwrap().f64_at(2), 2.5);
        assert!(matches!(
            t.column("z"),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn rejects_ragged_columns() {
        let err = Table::new(
            "bad",
            vec![
                ("a".into(), Column::Int64(vec![1])),
                ("b".into(), Column::Int64(vec![1, 2])),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::LengthMismatch { .. }));
    }

    #[test]
    fn schema_reports_types() {
        let t = sample_table();
        let schema = t.schema();
        assert_eq!(schema[0], ("a", DataType::Int64));
        assert_eq!(schema[1], ("b", DataType::Float64));
    }

    #[test]
    fn catalog_register_and_replace() {
        let mut cat = Catalog::new();
        cat.register(sample_table());
        assert!(cat.table("t").is_ok());
        assert!(cat.table("missing").is_err());
        // Replacing keeps a single entry.
        cat.register(sample_table());
        assert_eq!(cat.table_names(), vec!["t"]);
    }

    #[test]
    fn empty_table_allowed() {
        let t = Table::new("e", vec![]).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.synopsis().unwrap().num_blocks(), 0);
    }

    #[test]
    fn append_batch_advances_epoch_and_extends_synopsis() {
        let t = Table::with_zone_map_rows(
            "z",
            vec![("a".into(), Column::Int64((0..25).collect()))],
            10,
        )
        .unwrap();
        assert_eq!((t.epoch(), t.row_watermark()), (0, 25));
        let t2 = t
            .append_batch(&[("a".into(), Column::Int64((25..40).collect()))])
            .unwrap();
        assert_eq!((t2.epoch(), t2.row_watermark()), (1, 40));
        // The old version is untouched (readers keep their snapshot).
        assert_eq!((t.epoch(), t.num_rows()), (0, 25));
        // Data landed at the tail and the zone maps cover it.
        assert_eq!(t2.column("a").unwrap().i64_at(39), 39);
        let syn = t2.synopsis().unwrap();
        assert_eq!(syn.num_blocks(), 4);
        let zone = syn.column("a").unwrap();
        assert_eq!(
            (zone.mins[2], zone.maxs[2]),
            (20, 29),
            "open block continued"
        );
        assert_eq!((zone.mins[3], zone.maxs[3]), (30, 39));
    }

    /// Everything a reader can observe of one version: identity, every
    /// value, dictionaries, and the synopsis.
    fn observe(t: &Table) -> String {
        let mut out = format!("{} rows={} epoch={}\n", t.name(), t.num_rows(), t.epoch());
        for (name, col) in t.columns() {
            let values: Vec<_> = (0..t.num_rows()).map(|r| col.value(r)).collect();
            out += &format!("{name}: {:?} {values:?}\n", col.data_type());
        }
        let syn = t.synopsis().unwrap();
        for (name, _) in t.columns() {
            out += &format!("{name}: zone {:?}\n", syn.column(name));
        }
        out
    }

    /// A mixed-type table whose rows encode their own position: `base`
    /// rows at construction.
    fn typed_table(base: usize) -> Table {
        Table::with_zone_map_rows("t", typed_rows(0..base), 1000).unwrap()
    }

    fn typed_rows(rows: std::ops::Range<usize>) -> Vec<(String, Column)> {
        vec![
            (
                "a".into(),
                Column::Int64(rows.clone().map(|i| i as i64).collect()),
            ),
            (
                "b".into(),
                Column::Int32(rows.clone().map(|i| (i % 97) as i32).collect()),
            ),
            (
                "f".into(),
                Column::Float64(rows.clone().map(|i| i as f64 * 0.25).collect()),
            ),
            (
                "tag".into(),
                dict_column(rows.map(|i| if i % 3 == 0 { "x" } else { "y" })),
            ),
        ]
    }

    #[test]
    fn append_batch_rejects_bad_shapes() {
        let t = sample_table();
        let before = observe(&t);
        // Ragged batch.
        assert!(matches!(
            t.append_batch(&[
                ("a".into(), Column::Int64(vec![4])),
                ("b".into(), Column::Float64(vec![])),
            ]),
            Err(EngineError::LengthMismatch { .. })
        ));
        // Missing column.
        assert!(matches!(
            t.append_batch(&[("a".into(), Column::Int64(vec![4]))]),
            Err(EngineError::LengthMismatch { .. })
        ));
        // Wrong name.
        assert!(matches!(
            t.append_batch(&[
                ("a".into(), Column::Int64(vec![4])),
                ("z".into(), Column::Float64(vec![4.5])),
            ]),
            Err(EngineError::UnknownColumn { .. })
        ));
        // Wrong type.
        assert!(matches!(
            t.append_batch(&[
                ("a".into(), Column::Int64(vec![4])),
                ("b".into(), Column::Int64(vec![5])),
            ]),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert_eq!(observe(&t), before, "a rejected batch changes nothing");
        // The receiver still takes a well-formed batch.
        let next = t
            .append_batch(&[
                ("a".into(), Column::Int64(vec![4])),
                ("b".into(), Column::Float64(vec![3.5])),
            ])
            .unwrap();
        assert_eq!(next.num_rows(), 4);
        assert_eq!(observe(&t), before);
    }

    #[test]
    fn corrupt_dict_codes_reject_the_whole_batch_untouched() {
        // One append first, so the receiver has an open chunk and a
        // dictionary a half-applied batch could have corrupted.
        let t = typed_table(10).append_batch(&typed_rows(10..15)).unwrap();
        let before = observe(&t);
        let mut batch = typed_rows(15..17);
        // `a`, `b` and `f` are valid and come first; the hostile codes
        // must be caught before any of them is appended.
        batch[3].1 = Column::Dict {
            codes: vec![0, 9],
            dict: Arc::new(vec!["unseen".into()]),
        };
        let err = t.append_batch(&batch).unwrap_err();
        assert!(matches!(err, EngineError::CorruptDictCodes { code: 9, .. }));
        assert_eq!(observe(&t), before);
        assert!(
            t.column("tag").unwrap().dict_code("tag", "unseen").is_err(),
            "the rejected batch's strings never reach the dictionary"
        );
    }

    #[test]
    fn row_count_is_checked_against_u32_row_ids() {
        let max = u32::MAX as usize;
        assert_eq!(checked_row_count("t", 0, 0).unwrap(), 0);
        assert_eq!(checked_row_count("t", max - 5, 5).unwrap(), max);
        assert_eq!(checked_row_count("t", max, 0).unwrap(), max);
        for (rows, added) in [(max, 1), (max - 5, 6), (1, max), (usize::MAX, 1)] {
            assert_eq!(
                checked_row_count("t", rows, added),
                Err(EngineError::RowLimitExceeded {
                    table: "t".into(),
                    rows,
                    added
                })
            );
        }
    }

    #[test]
    fn readers_keep_their_version_while_the_table_grows() {
        let v0 = typed_table(2_500);
        let seen = observe(&v0);
        let mut versions = vec![v0.clone()];
        let mut at = 2_500;
        // Batches that stay inside the open chunk, fill it exactly, and
        // spill over several chunks.
        for added in [
            1,
            700,
            STORED_CHUNK_ROWS - 701,
            0,
            2 * STORED_CHUNK_ROWS + 3,
            5,
        ] {
            let next = versions
                .last()
                .unwrap()
                .append_batch(&typed_rows(at..at + added))
                .unwrap();
            at += added;
            versions.push(next);
        }
        assert_eq!(observe(&v0), seen, "version 0 is frozen");
        for (epoch, v) in versions.iter().enumerate() {
            let rows = v.num_rows();
            // Each version equals a flat table of its own prefix.
            let flat = Table::with_zone_map_rows("t", typed_rows(0..rows), 1000).unwrap();
            assert_eq!(v.epoch(), epoch as u64);
            assert_eq!(
                observe(v).replace(&format!("epoch={epoch}"), "epoch=0"),
                observe(&flat),
                "version {epoch}"
            );
        }
    }

    #[test]
    fn appends_to_one_version_yield_independent_siblings() {
        // The parent has an open chunk both siblings copy and write into.
        let parent = typed_table(100)
            .append_batch(&typed_rows(100..150))
            .unwrap();
        let seen = observe(&parent);
        let left = parent.append_batch(&typed_rows(150..160)).unwrap();
        let mut right_rows = typed_rows(1_000..1_020);
        // Only the right sibling's batch brings a new string.
        right_rows[3].1 = dict_column((0..20).map(|i| if i % 2 == 0 { "z" } else { "x" }));
        let right = parent.append_batch(&right_rows).unwrap();
        assert_eq!(observe(&parent), seen);
        assert_eq!((left.num_rows(), right.num_rows()), (160, 170));
        assert_eq!((left.epoch(), right.epoch()), (2, 2));
        let (la, ra) = (left.column("a").unwrap(), right.column("a").unwrap());
        assert_eq!((la.i64_at(149), ra.i64_at(149)), (149, 149));
        assert_eq!((la.i64_at(150), ra.i64_at(150)), (150, 1_000));
        let (lt, rt) = (left.column("tag").unwrap(), right.column("tag").unwrap());
        assert!(lt.dict_code("tag", "z").is_err(), "left never saw `z`");
        assert!(parent.column("tag").unwrap().dict_code("tag", "z").is_err());
        assert_eq!(rt.value(150), Value::Str("z".into()));
        assert_eq!(rt.value(151), Value::Str("x".into()));
        assert_eq!(lt.value(150), Value::Str("x".into()));
        // Equal to the flat tables of the same rows.
        let mut flat = typed_rows(0..150);
        for ((_, col), (name, more)) in flat.iter_mut().zip(&right_rows) {
            col.append(name, more).unwrap();
        }
        let flat = Table::with_zone_map_rows("t", flat, 1000).unwrap();
        assert_eq!(
            observe(&right).replace("epoch=2", "epoch=0"),
            observe(&flat)
        );
    }

    #[test]
    fn consecutive_versions_share_all_but_one_open_chunk() {
        let mut version = typed_table(3 * STORED_CHUNK_ROWS + 17);
        let mut at = version.num_rows();
        for added in [
            9,
            2_000,
            STORED_CHUNK_ROWS - 2_009,
            2_000,
            3 * STORED_CHUNK_ROWS,
            0,
            2_000,
        ] {
            let next = version.append_batch(&typed_rows(at..at + added)).unwrap();
            at += added;
            for ((name, child), (_, parent)) in next.columns().zip(version.columns()) {
                let width = match child.data_type() {
                    DataType::Int64 | DataType::Float64 => 8,
                    DataType::Int32 | DataType::Dict => 4,
                };
                let (unshared, sealed_shared) = child.sharing(parent);
                assert!(sealed_shared, "{name}: base and sealed chunks are shared");
                assert!(
                    unshared <= (added + STORED_CHUNK_ROWS) * width,
                    "{name}: {unshared} fresh bytes for a {added}-row batch"
                );
            }
            version = next;
        }
        assert_eq!(version.num_rows(), at);
    }

    #[test]
    fn tables_carry_zone_maps() {
        let t = Table::with_zone_map_rows(
            "z",
            vec![("a".into(), Column::Int64((0..25).collect()))],
            10,
        )
        .unwrap();
        let syn = t.synopsis().unwrap();
        assert_eq!(syn.num_blocks(), 3);
        assert_eq!(syn.rows_in_block(2), 5);
        let zone = syn.column("a").unwrap();
        assert_eq!((zone.mins[1], zone.maxs[1]), (10, 19));
        // Zone maps count toward the heap footprint.
        assert!(t.heap_bytes() >= 25 * 8);
    }
}
