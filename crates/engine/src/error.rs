//! Engine error types.

use std::fmt;

/// Errors surfaced at plan-construction and catalog boundaries. Hot paths
/// operate on pre-resolved structures and do not produce errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The named table does not exist in the catalog.
    UnknownTable(String),
    /// The named column does not exist in the table.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// Column that was requested.
        column: String,
    },
    /// An operation was applied to a column of an incompatible type.
    TypeMismatch {
        /// Offending column.
        column: String,
        /// Required type description.
        expected: &'static str,
        /// Actual column type.
        actual: &'static str,
    },
    /// Two columns expected to align (e.g. key/payload) differ in length.
    LengthMismatch {
        /// Where the mismatch was detected.
        context: &'static str,
    },
    /// A dictionary-encoded column was probed with a value absent from its
    /// dictionary.
    UnknownDictValue {
        /// Dictionary column.
        column: String,
        /// Value that was not found.
        value: String,
    },
    /// A dictionary-encoded column carries a code with no dictionary
    /// entry (a corrupt or hostile batch).
    CorruptDictCodes {
        /// Dictionary column.
        column: String,
        /// The out-of-range code.
        code: u32,
        /// Entries in the dictionary the code was checked against.
        dict_len: usize,
    },
    /// A table would grow past what `u32` row ids can address.
    RowLimitExceeded {
        /// Table being built or appended to.
        table: String,
        /// Rows it holds.
        rows: usize,
        /// Rows the rejected batch would add.
        added: usize,
    },
    /// Two qualifying rows of a join's dimension carry one key.
    DuplicateKey {
        /// Dimension table.
        table: String,
        /// The repeated key.
        key: i64,
    },
    /// Plan shape is invalid (e.g. group-by with no keys and no aggregates).
    InvalidPlan(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            EngineError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch on column `{column}`: expected {expected}, found {actual}"
            ),
            EngineError::LengthMismatch { context } => {
                write!(f, "length mismatch in {context}")
            }
            EngineError::UnknownDictValue { column, value } => {
                write!(f, "value `{value}` not in dictionary of column `{column}`")
            }
            EngineError::CorruptDictCodes {
                column,
                code,
                dict_len,
            } => write!(
                f,
                "dict code {code} out of range for column `{column}` ({dict_len} dictionary entries)"
            ),
            EngineError::RowLimitExceeded { table, rows, added } => write!(
                f,
                "table `{table}` holds {rows} rows; {added} more would pass the u32 row-id limit"
            ),
            EngineError::DuplicateKey { table, key } => write!(f, "key {key} repeats in `{table}`"),
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
