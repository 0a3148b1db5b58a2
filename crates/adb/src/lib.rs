//! # squid-adb
//!
//! The abduction-ready database (αDB) of the SQuID paper, Section 5: an
//! offline module that walks the schema graph to discover basic and derived
//! semantic properties, precomputes their selectivity statistics, and builds
//! the global inverted column index for entity lookup. Derived relations
//! (like `persontogenre`), which reduce SPJAI queries on the original
//! database to SPJ queries on the αDB, are built from the statistics on
//! first SQL use ([`ADb::query_database`]).

#![warn(missing_docs)]

pub mod build;
pub mod properties;
pub mod snapshot;
pub mod stats;
pub mod test_fixtures;

pub use build::{ADb, BuildStats, EntityProps, HeapBytes, PropId, Property, StatsParts};
pub use properties::{discover_properties, PropKind, PropertyDef, QueryFragments};
pub use stats::{
    posting_row, CategoricalStats, DerivedNumericStats, DerivedStats, FilterFingerprint,
    FilterSetCache, NumericStats, Overflow, PropStats, SharedCacheStats, SharedFilterSetCache,
    ValueRows, DEFAULT_SHARED_CACHE_BYTES, SHARED_CACHE_SHARDS,
};
