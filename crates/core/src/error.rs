//! Error type for query intent discovery.

use std::fmt;

use squid_relation::RelationError;

/// Errors surfaced by the SQuID online phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SquidError {
    /// No examples were provided.
    EmptyExamples,
    /// No `(entity table, column)` contains all the example values.
    NoMatchingColumn {
        /// The examples that failed to resolve.
        examples: Vec<String>,
    },
    /// The requested projection target does not exist or is not an entity
    /// table known to the αDB.
    UnknownTarget {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// One example did not match any entity in the requested target.
    EntityNotFound {
        /// The unresolved example value.
        example: String,
        /// Target table.
        table: String,
    },
    /// A session operation referenced an example that was never added (or
    /// was already removed).
    UnknownExample {
        /// The example value.
        example: String,
    },
    /// Disambiguation feedback named an entity that is not among the
    /// example's candidate matches.
    InvalidChoice {
        /// The example value.
        example: String,
        /// The rejected primary key.
        pk: i64,
    },
    /// The session id is unknown to the manager (never created, closed, or
    /// evicted after its TTL).
    UnknownSession {
        /// The session id.
        id: u64,
    },
    /// A sequenced mutation skipped ahead of the session's cursor: the
    /// client claims turns the server never saw, so applying it would
    /// silently drop history. (At or below the cursor is a benign retry,
    /// not an error.)
    SequenceGap {
        /// The session id.
        id: u64,
        /// The next sequence number the session would accept.
        expected: u64,
        /// The sequence number the caller sent.
        got: u64,
    },
    /// A session operation whose journal record would be longer than a
    /// record may be; refused before it applies.
    RecordTooLarge {
        /// The record's payload length.
        bytes: usize,
        /// The largest payload a record may carry.
        max: usize,
    },
    /// Underlying relational error.
    Relation(RelationError),
    /// An I/O failure in the durability layer (snapshot save/load, journal
    /// append/replay). Carries the rendered error text: `std::io::Error`
    /// is neither `Clone` nor `Eq`, which this enum requires.
    Io(String),
    /// Durable bytes (snapshot section or journal record) failed
    /// validation — checksum mismatch, truncation, or a value out of
    /// range. The file is damaged; the state it caches must be rebuilt
    /// from its source (generators for snapshots, the valid journal
    /// prefix for sessions).
    Corrupt {
        /// Which section or record failed to decode.
        section: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for SquidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SquidError::EmptyExamples => write!(f, "no example tuples provided"),
            SquidError::NoMatchingColumn { examples } => write!(
                f,
                "no entity-table column contains all examples: {}",
                examples.join(", ")
            ),
            SquidError::UnknownTarget { table, column } => {
                write!(f, "unknown projection target {table}.{column}")
            }
            SquidError::EntityNotFound { example, table } => {
                write!(f, "example {example:?} matches no entity in {table}")
            }
            SquidError::UnknownExample { example } => {
                write!(f, "example {example:?} is not in the session")
            }
            SquidError::InvalidChoice { example, pk } => {
                write!(f, "entity {pk} is not a candidate match for {example:?}")
            }
            SquidError::UnknownSession { id } => {
                write!(f, "unknown or expired session {id}")
            }
            SquidError::SequenceGap { id, expected, got } => {
                write!(
                    f,
                    "session {id}: sequence gap (expected {expected}, got {got})"
                )
            }
            SquidError::RecordTooLarge { bytes, max } => write!(
                f,
                "operation too large: its journal record would be {bytes} bytes (limit {max})"
            ),
            SquidError::Relation(e) => write!(f, "relational error: {e}"),
            SquidError::Io(detail) => write!(f, "i/o error: {detail}"),
            SquidError::Corrupt { section, detail } => {
                write!(f, "corrupt {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for SquidError {}

impl From<RelationError> for SquidError {
    fn from(e: RelationError) -> Self {
        SquidError::Relation(e)
    }
}

impl From<std::io::Error> for SquidError {
    fn from(e: std::io::Error) -> Self {
        SquidError::Io(e.to_string())
    }
}

impl From<squid_relation::FrameError> for SquidError {
    fn from(e: squid_relation::FrameError) -> Self {
        match e {
            squid_relation::FrameError::Io(e) => SquidError::Io(e.to_string()),
            squid_relation::FrameError::Corrupt { section, detail } => {
                SquidError::Corrupt { section, detail }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SquidError::NoMatchingColumn {
            examples: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("a, b"));
        let e = SquidError::EntityNotFound {
            example: "X".into(),
            table: "person".into(),
        };
        assert!(e.to_string().contains("person"));
    }
}
