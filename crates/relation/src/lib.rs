//! # squid-relation
//!
//! In-memory relational substrate for the SQuID reproduction: typed values,
//! schemas with primary/foreign keys and entity/property/fact role
//! annotations, row tables, and the global inverted column index used for
//! example-to-entity lookup.
//!
//! The paper (Fariha & Meliou, VLDB 2019) runs on PostgreSQL; this crate is
//! the from-scratch stand-in that the query engine (`squid-engine`), the
//! abduction-ready database (`squid-adb`), and SQuID itself (`squid-core`)
//! build upon.
//!
//! ## Storage layout & hot paths
//!
//! The substrate is tuned so that the two costs the paper measures — αDB
//! construction (Figure 18) and online abduction latency (Figure 9) — run
//! over cache-friendly, allocation-free inner loops:
//!
//! * **Dictionary-encoded text** ([`intern::Sym`]): every `Value::Text`
//!   is a `u32` symbol into a global interner — 16 hash-sharded write
//!   dictionaries (parallel ingest threads touching different shards never
//!   contend) over a lock-free segmented id→string table. [`Value`] is a
//!   16-byte `Copy` scalar; text equality, hashing, and group-by are
//!   integer operations, and lexicographic ordering resolves strings only
//!   when two symbols actually differ.
//! * **Columnar tables** ([`table::ColumnVec`]): each [`Table`] stores
//!   its cells once, as per-column typed vectors (`Vec<i64>`, `Vec<f64>`,
//!   symbol `Vec<u32>`, `Vec<bool>`) plus a null bitmap; point reads
//!   rebuild `Copy` [`Value`]s from them. Bulk loads and derived relations
//!   go through the columnar constructor ([`Table::from_columns`] +
//!   [`table::ColumnBuilder`]), which takes the typed columns as they are,
//!   with no per-row arity/type checks. A [`Database`] holds its tables
//!   behind `Arc`, so a clone shares them and a write copies only the
//!   table it touches.
//! * **Compact inverted index** ([`inverted::InvertedIndex`]): postings
//!   are packed 8-byte `(table: u16, column: u16, row: u32)` triples keyed
//!   by folded-string symbols, sorted and deduplicated at build time;
//!   lookups are probe-only and never grow the dictionary.
//! * **Bitmap row sets** ([`rowset::RowSet`]): qualifying-row sets are
//!   dense `Vec<u64>` bitmaps with word-parallel intersect/union/count,
//!   replacing per-element tree-set operations in block intersection and
//!   result handling.
//!
//! ## Batch-kernel scan ABI ([`kernel`])
//!
//! Every column scan — the executor's block scans and semi-join folds, the
//! αDB statistics pass, and the baselines' feature extraction — shares ONE
//! scan ABI: predicates compile to typed [`kernel::Kernel`]s that evaluate
//! **64 rows per call** and return a `u64` match word (bit `b` ⇔ row
//! `batch*64 + b` matches). Each kernel family has one portable
//! implementation; nothing selects among CPU-specific variants. Discovery
//! turns answer filters from the αDB's postings, not from these kernels.
//! The contract:
//!
//! * **Word layout**: batch `i` covers rows `i*64..i*64+64`; words are
//!   exactly [`RowSet`]'s storage unit, so scans emit result bitmaps with
//!   one store per 64 rows ([`RowSet::set_word`] / [`RowSet::from_words`])
//!   and conjunctions AND words, not rows ([`kernel::ScanPlan`]).
//! * **Tail handling**: lane loops stop at the column's end (the
//!   null-bitmap kernel ANDs [`kernel::tail_mask`] instead), so no word
//!   ever carries bits past the table.
//! * **Null words**: null bitmaps participate word-wise (`!nulls.word(b)`
//!   masks), never as per-row branches; [`kernel::scan_ints`] and
//!   [`kernel::scan_floats`] give the αDB's column scans the same
//!   64-rows-at-a-time shape.
//! * **Fallback rules**: typed kernels cover `i64`/`f64` ranges (floats
//!   by plain IEEE compares), symbol equality/membership, and bool
//!   equality. Shapes a typed kernel cannot translate exactly — float
//!   bounds at magnitude `2^53`+ on an Int column (where the scalar
//!   order's int-cell widening is lossy), string ranges, numeric `IN` —
//!   fall back to [`kernel::Kernel::Generic`], which evaluates the
//!   [`kernel::CmpSpec`] per reconstructed `Copy` cell. Either path is
//!   bit-for-bit equal to `Value`'s total order; `tests/kernel_prop.rs`
//!   pins the parity on adversarial columns. No float, cell or operand,
//!   is NaN or −0.0 ([`value::Real`]: a NaN is NULL, −0.0 is 0.0), so
//!   neither path has a rule for them.

#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod fingerprint;
pub mod frame;
pub mod fxhash;
pub mod heap;
pub mod intern;
pub mod inverted;
pub mod kernel;
pub mod rowset;
pub mod schema;
pub mod simd;
pub mod table;
pub mod value;

pub use catalog::{Association, Database};
pub use error::{RelationError, Result};
pub use fingerprint::{db_fingerprint, db_verification_hash};
pub use frame::{ByteReader, ByteWriter, FrameError, FrameResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use intern::Sym;
pub use inverted::{InvertedIndex, Posting};
pub use kernel::{CmpSpec, Kernel, ScanPlan};
pub use rowset::RowSet;
pub use schema::{Column, ForeignKey, SchemaMeta, TableRole, TableSchema};
pub use table::{ColumnBuilder, ColumnData, ColumnVec, NonCanonicalFloat, RowId, Table, NULL_SYM};
pub use value::{DataType, Real, Value};
