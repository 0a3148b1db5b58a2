//! Content fingerprint of a whole [`Database`].
//!
//! Lives in `squid-relation` so both the dataset slate pins
//! (`squid-datasets` re-exports it) and the αDB snapshot loader
//! (`squid-adb` verifies a loaded database against the fingerprint
//! recorded at save time) share one definition. Two variants exist:
//! [`db_fingerprint`] is the byte-wise FNV-1a the slate pins were
//! recorded under (frozen — changing it invalidates every pin), and
//! [`db_verification_hash`] is a word-wise variant of the same traversal
//! for the snapshot loader, where the hash sits on the load critical
//! path and only ever needs to agree with the saving process.

use crate::catalog::Database;
use crate::schema::SchemaMeta;
use crate::table::Table;
use crate::value::Value;

/// Deterministic FNV-1a fingerprint over a database's complete contents:
/// every table (in name order) with its full schema (column names and
/// dtypes, role, primary/foreign keys), the administrator metadata
/// (non-semantic exclusions), and every cell in row order. Two databases
/// fingerprint equal iff they are byte-identical up to string interning
/// (cell *contents* are hashed, not symbol ids) — which also makes the
/// fingerprint stable across a snapshot save/load cycle, where symbol
/// ids are remapped into the loading process's interner.
pub fn db_fingerprint(db: &Database) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for (t, c) in &db.meta.non_semantic {
        eat(t.as_bytes());
        eat(c.as_bytes());
    }
    for table in db.tables() {
        let schema = table.schema();
        eat(table.name().as_bytes());
        eat(&(schema.arity() as u64).to_le_bytes());
        eat(&[schema.role as u8]);
        eat(&(schema.primary_key.map(|i| i as u64 + 1).unwrap_or(0)).to_le_bytes());
        for col in &schema.columns {
            eat(col.name.as_bytes());
            eat(&[col.dtype as u8]);
        }
        for fk in &schema.foreign_keys {
            eat(&(fk.column as u64).to_le_bytes());
            eat(fk.ref_table.as_bytes());
            eat(&(fk.ref_column as u64).to_le_bytes());
        }
        eat(&(table.len() as u64).to_le_bytes());
        for row in 0..table.len() {
            for c in 0..schema.arity() {
                match table.column(c).value_at(row) {
                    Value::Null => eat(&[0]),
                    Value::Int(v) => {
                        eat(&[1]);
                        eat(&v.to_le_bytes());
                    }
                    Value::Float(x) => {
                        eat(&[2]);
                        eat(&x.get().to_bits().to_le_bytes());
                    }
                    Value::Text(s) => {
                        eat(&[3]);
                        eat(s.as_str().as_bytes());
                    }
                    Value::Bool(b) => eat(&[4, b as u8]),
                }
            }
        }
    }
    h
}

/// Content hash of a database's metadata plus `tables` (in the order
/// given) for snapshot verification — the snapshot saves a subset of the
/// αDB database's tables, hence the split arguments; pass
/// `(&db.meta, db.tables())` for a whole [`Database`]. The same
/// content-and-interning stability as [`db_fingerprint`] (cell contents,
/// not symbol ids), but walking the columnar views instead of row-major
/// cells and mixing a word per multiply — an order of magnitude cheaper
/// over a multi-megabyte database, which matters because every snapshot
/// load pays it. Null positions hash through the null bitmap at its
/// canonical `rows.div_ceil(64)` width (the typed storage holds fixed
/// sentinels there, so including it is sound on both sides of a save/load
/// cycle); strings are length-prefixed so concatenation boundaries stay
/// unambiguous. Not pinned anywhere: it only ever needs to agree between
/// the process that saved a snapshot and the process loading it.
pub fn db_verification_hash<'a>(
    meta: &SchemaMeta,
    tables: impl IntoIterator<Item = &'a Table>,
) -> u64 {
    use crate::intern::Sym;
    use crate::table::{ColumnData, NULL_SYM};

    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    fn mix(h: &mut u64, x: u64) {
        *h ^= x;
        *h = h.wrapping_mul(PRIME);
    }
    fn eat(h: &mut u64, bytes: &[u8]) {
        mix(h, bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            mix(h, u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            mix(h, u64::from_le_bytes(last));
        }
    }
    for (t, c) in &meta.non_semantic {
        eat(&mut h, t.as_bytes());
        eat(&mut h, c.as_bytes());
    }
    for table in tables {
        let schema = table.schema();
        eat(&mut h, table.name().as_bytes());
        mix(&mut h, schema.arity() as u64);
        mix(&mut h, schema.role as u64);
        mix(
            &mut h,
            schema.primary_key.map(|i| i as u64 + 1).unwrap_or(0),
        );
        for col in &schema.columns {
            eat(&mut h, col.name.as_bytes());
            mix(&mut h, col.dtype as u64);
        }
        for fk in &schema.foreign_keys {
            mix(&mut h, fk.column as u64);
            eat(&mut h, fk.ref_table.as_bytes());
            mix(&mut h, fk.ref_column as u64);
        }
        let rows = table.len();
        mix(&mut h, rows as u64);
        for c in 0..schema.arity() {
            let cv = table.column(c);
            for w in 0..rows.div_ceil(64) {
                mix(&mut h, cv.nulls().word(w));
            }
            match cv.data() {
                ColumnData::Int(xs) => {
                    mix(&mut h, 1);
                    for &x in xs {
                        mix(&mut h, x as u64);
                    }
                }
                ColumnData::Float(xs) => {
                    mix(&mut h, 2);
                    for &x in xs {
                        mix(&mut h, x.to_bits());
                    }
                }
                ColumnData::Text(xs) => {
                    mix(&mut h, 3);
                    for &sx in xs {
                        if sx == NULL_SYM {
                            mix(&mut h, u64::MAX);
                        } else {
                            eat(&mut h, Sym::from_id(sx).as_str().as_bytes());
                        }
                    }
                }
                ColumnData::Bool(xs) => {
                    mix(&mut h, 4);
                    for &x in xs {
                        mix(&mut h, x as u64);
                    }
                }
            }
        }
    }
    h
}
