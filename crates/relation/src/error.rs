//! Error type shared across the relational substrate.

use crate::value::DataType;
use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RelationError>;

/// Errors raised by table and catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// Row length differs from schema arity.
    ArityMismatch {
        /// Table the row was destined for.
        table: String,
        /// Schema arity.
        expected: usize,
        /// Row length supplied.
        got: usize,
    },
    /// A cell's type differs from the column's declared type.
    TypeMismatch {
        /// Owning table.
        table: String,
        /// Offending column.
        column: String,
        /// Declared type.
        expected: DataType,
        /// Supplied type.
        got: DataType,
    },
    /// Referenced an unknown table.
    UnknownTable(String),
    /// Referenced an unknown column.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// Column that was not found.
        column: String,
    },
    /// A foreign key points at a table/column that does not exist, or a
    /// duplicate table name was registered.
    InvalidSchema(String),
    /// A figure does not fit the width it is stored at (an αDB property
    /// whose codes, counts or offsets exceed `u32`).
    TooLarge(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(f, "table {table}: expected {expected} columns, got {got}"),
            RelationError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(f, "table {table}.{column}: expected {expected}, got {got}"),
            RelationError::UnknownTable(t) => write!(f, "unknown table {t}"),
            RelationError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            RelationError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            RelationError::TooLarge(msg) => write!(f, "too large: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = RelationError::ArityMismatch {
            table: "t".into(),
            expected: 3,
            got: 2,
        };
        assert_eq!(e.to_string(), "table t: expected 3 columns, got 2");
        let e = RelationError::UnknownColumn {
            table: "person".into(),
            column: "agee".into(),
        };
        assert!(e.to_string().contains("person.agee"));
    }
}
