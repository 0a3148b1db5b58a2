//! Global inverted column index over all text attributes (paper Section 5,
//! "Entity lookup"). Maps a (case-folded) text value to every `(table,
//! column, row)` where it occurs, so user-provided example strings can be
//! matched to candidate entities in O(1).
//!
//! Hot-path layout: keys are interned symbols of the folded strings and
//! postings are packed 8-byte `(table: u16, column: u16, row: u32)`
//! triples — table names live once in a small catalog instead of a heap
//! `String` per posting. Postings are sorted and deduplicated at build
//! time, so range/equality filtering over them is cache-friendly and
//! branch-predictable.

use crate::catalog::Database;
use crate::fxhash::FxHashMap;
use crate::intern::Sym;
use crate::table::{RowId, Table, NULL_SYM};
use crate::value::DataType;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One occurrence of a text value, packed to 8 bytes.
///
/// `table` is an index into the index's table catalog (see
/// [`InvertedIndex::table_name`]), not a `String` — resolving it is only
/// needed at the API boundary, never in scan loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Posting {
    /// Catalog id of the table containing the value.
    pub table: u16,
    /// Column index within the table.
    pub column: u16,
    /// Row id within the table.
    pub row: u32,
}

/// The global inverted index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvertedIndex {
    map: FxHashMap<Sym, Vec<Posting>>,
    /// Catalog: posting `table` ids → table names (index build order).
    tables: Vec<String>,
}

impl InvertedIndex {
    /// Build over every text column of every table in the database.
    pub fn build(db: &Database) -> Self {
        Self::build_with_workers(db, 1)
    }

    /// [`InvertedIndex::build`] fanned out over `workers` scoped threads.
    ///
    /// The unit of work is one text column: workers steal columns off a
    /// shared counter and accumulate thread-local `sym → postings` maps
    /// that are merged afterwards. The merge is order-insensitive — the
    /// key set is identical however columns were scheduled, and every
    /// postings list is sorted and deduplicated after concatenation — so
    /// the built index (and everything fingerprinted downstream of it) is
    /// byte-identical to the sequential build.
    pub fn build_with_workers(db: &Database, workers: usize) -> Self {
        let tables: Vec<String> = db.tables().map(|t| t.name().to_string()).collect();
        // One work unit per text column, in catalog order.
        let units: Vec<(u16, &Table, u16)> = db
            .tables()
            .enumerate()
            .flat_map(|(ti, table)| {
                let ti = u16::try_from(ti).expect("more than u16::MAX tables");
                table
                    .schema()
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|(_, col)| col.dtype == DataType::Text)
                    .map(move |(ci, _)| {
                        (
                            ti,
                            table,
                            u16::try_from(ci).expect("more than u16::MAX columns"),
                        )
                    })
            })
            .collect();
        let workers = workers.max(1).min(units.len().max(1));
        let mut partials: Vec<FxHashMap<Sym, Vec<Posting>>> = if workers <= 1 {
            let mut map = FxHashMap::default();
            for &(ti, table, ci) in &units {
                Self::index_column(table, ti, ci, &mut map);
            }
            vec![map]
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut local: FxHashMap<Sym, Vec<Posting>> = FxHashMap::default();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(ti, table, ci)) = units.get(i) else {
                                    break;
                                };
                                Self::index_column(table, ti, ci, &mut local);
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("inverted-index worker panicked"))
                    .collect()
            })
        };
        let mut map = partials.pop().unwrap_or_default();
        for partial in partials {
            for (sym, postings) in partial {
                map.entry(sym).or_default().extend(postings);
            }
        }
        // Sort + dedup each postings list once at build time: lookups hand
        // out slices that are ordered by (table, column, row) and free of
        // duplicates (e.g. the same folded value indexed twice for a row).
        // Then trim every list and the map to their lengths: the merge
        // leaves growth slack that depends on which worker indexed what, and
        // the index lives as long as its αDB.
        for postings in map.values_mut() {
            postings.sort_unstable();
            postings.dedup();
            postings.shrink_to_fit();
        }
        map.shrink_to_fit();
        InvertedIndex { map, tables }
    }

    /// Index one text column into `map` (the per-worker unit of work).
    /// Each distinct symbol of the column is folded and interned once, at
    /// its first cell.
    fn index_column(table: &Table, ti: u16, ci: u16, map: &mut FxHashMap<Sym, Vec<Posting>>) {
        let syms = table.column(ci as usize).syms().expect("text column");
        let mut folded_of: FxHashMap<u32, Sym> = FxHashMap::default();
        for (rid, &sym) in syms.iter().enumerate() {
            if sym == NULL_SYM {
                continue;
            }
            let folded = *folded_of.entry(sym).or_insert_with(|| {
                let raw = Sym::from_id(sym);
                match Self::fold(raw.as_str()) {
                    // Identity fold (trim removed nothing): reuse the
                    // cell's own symbol, zero allocations.
                    Cow::Borrowed(b) if b.len() == raw.as_str().len() => raw,
                    other => Sym::intern(&other),
                }
            });
            map.entry(folded).or_default().push(Posting {
                table: ti,
                column: ci,
                row: u32::try_from(rid).expect("more than u32::MAX rows"),
            });
        }
    }

    /// Case folding used for lookups: trimmed, lowercase. Returns a
    /// borrowed `Cow` (zero allocations) when the input is already trimmed
    /// lowercase — the common case on the entity-lookup hot loop, where
    /// values were folded once at build time.
    fn fold(s: &str) -> Cow<'_, str> {
        let trimmed = s.trim();
        // The borrow fast path is ASCII-only: non-ASCII text always goes
        // through `to_lowercase` so Unicode forms with multi-char or
        // titlecase (Lt) mappings fold identically to the old behavior.
        if !trimmed.is_ascii() || trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(trimmed.to_lowercase())
        } else if trimmed.len() == s.len() {
            Cow::Borrowed(s)
        } else {
            Cow::Borrowed(trimmed)
        }
    }

    /// Resolve a posting's catalog id to its table name.
    pub fn table_name(&self, posting: &Posting) -> &str {
        &self.tables[posting.table as usize]
    }

    /// Estimated heap bytes of the symbol map and its postings lists.
    pub fn heap_bytes(&self) -> usize {
        use crate::heap::{map_bytes, vec_bytes};
        map_bytes(&self.map)
            + self.map.values().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.tables)
            + self.tables.iter().map(String::capacity).sum::<usize>()
    }

    /// All occurrences of `value` (case-insensitive exact match).
    ///
    /// Probe-only: never interns `value`, so arbitrary user input cannot
    /// grow the global dictionary.
    pub fn lookup(&self, value: &str) -> &[Posting] {
        Sym::get(&Self::fold(value))
            .and_then(|sym| self.map.get(&sym))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Occurrences of `value` restricted to one `(table, column)`.
    pub fn lookup_in(&self, value: &str, table: &str, column: usize) -> Vec<RowId> {
        let Some(ti) = self.tables.iter().position(|t| t == table) else {
            return Vec::new();
        };
        let ti = ti as u16;
        let ci = column as u16;
        self.lookup(value)
            .iter()
            .filter(|p| p.table == ti && p.column == ci)
            .map(|p| p.row as RowId)
            .collect()
    }

    /// The `(table, column)` pairs that contain *all* of the given values —
    /// the candidate projection attributes for a set of examples.
    pub fn columns_containing_all(&self, values: &[&str]) -> Vec<(String, usize)> {
        let mut candidates: Option<Vec<(u16, u16)>> = None;
        for v in values {
            // Postings are sorted by (table, column, row): distinct
            // (table, column) pairs fall out of a linear dedup pass.
            let mut cols: Vec<(u16, u16)> = Vec::new();
            for p in self.lookup(v) {
                if cols.last() != Some(&(p.table, p.column)) {
                    cols.push((p.table, p.column));
                }
            }
            candidates = Some(match candidates {
                None => cols,
                Some(prev) => prev.into_iter().filter(|c| cols.contains(c)).collect(),
            });
            if matches!(candidates.as_deref(), Some([])) {
                break;
            }
        }
        candidates
            .unwrap_or_default()
            .into_iter()
            .map(|(t, c)| (self.tables[t as usize].clone(), c as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "person",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "movie",
            vec![
                Column::new("id", DataType::Int),
                Column::new("title", DataType::Text),
            ],
        ))
        .unwrap();
        db.insert("person", vec![Value::Int(1), Value::text("Jim Carrey")])
            .unwrap();
        db.insert("person", vec![Value::Int(2), Value::text("Titanic")])
            .unwrap(); // a person named like a movie: ambiguity
        db.insert("movie", vec![Value::Int(1), Value::text("Titanic")])
            .unwrap();
        db.insert("movie", vec![Value::Int(2), Value::text("Titanic")])
            .unwrap(); // remake: same title twice
        db.insert("movie", vec![Value::Int(3), Value::text("The Matrix")])
            .unwrap();
        db
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.lookup("jim carrey").len(), 1);
        assert_eq!(idx.lookup("JIM CARREY").len(), 1);
        assert_eq!(idx.lookup("  Jim Carrey  ").len(), 1);
        assert_eq!(idx.lookup("nobody").len(), 0);
    }

    #[test]
    fn ambiguous_values_return_all_postings() {
        let idx = InvertedIndex::build(&db());
        // "Titanic" occurs as one person and two movies.
        assert_eq!(idx.lookup("Titanic").len(), 3);
        assert_eq!(idx.lookup_in("Titanic", "movie", 1), vec![0, 1]);
        assert_eq!(idx.lookup_in("Titanic", "person", 1), vec![1]);
    }

    #[test]
    fn columns_containing_all_intersects() {
        let idx = InvertedIndex::build(&db());
        let cols = idx.columns_containing_all(&["Titanic", "The Matrix"]);
        assert_eq!(cols, vec![("movie".to_string(), 1)]);
        // No table holds both a person name and a missing value.
        assert!(idx
            .columns_containing_all(&["Jim Carrey", "The Matrix"])
            .is_empty());
    }

    #[test]
    fn empty_input_yields_no_candidates() {
        let idx = InvertedIndex::build(&db());
        assert!(idx.columns_containing_all(&[]).is_empty());
    }

    #[test]
    fn postings_are_packed_sorted_and_deduplicated() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(std::mem::size_of::<Posting>(), 8);
        let ps = idx.lookup("titanic");
        let mut sorted = ps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ps, &sorted[..], "postings sorted and deduped at build");
        // Catalog ids resolve back to table names.
        let names: Vec<&str> = ps.iter().map(|p| idx.table_name(p)).collect();
        assert_eq!(names, vec!["movie", "movie", "person"]);
    }

    #[test]
    fn fold_fast_path_borrows_lowercase_ascii() {
        assert!(matches!(
            InvertedIndex::fold("already folded"),
            Cow::Borrowed("already folded")
        ));
        assert!(matches!(
            InvertedIndex::fold("  padded  "),
            Cow::Borrowed("padded")
        ));
        assert_eq!(InvertedIndex::fold("MiXeD").as_ref(), "mixed");
        assert_eq!(InvertedIndex::fold("ÉCOLE").as_ref(), "école");
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        let db = db();
        let seq = InvertedIndex::build(&db);
        for workers in [2, 3, 8] {
            let par = InvertedIndex::build_with_workers(&db, workers);
            assert_eq!(par.tables, seq.tables, "{workers} workers");
            assert_eq!(par.map.len(), seq.map.len(), "{workers} workers");
            for (sym, postings) in &seq.map {
                assert_eq!(
                    par.map.get(sym).map(|p| p.as_slice()),
                    Some(postings.as_slice()),
                    "{workers} workers, sym {sym:?}"
                );
            }
            assert_eq!(par.heap_bytes(), seq.heap_bytes(), "{workers} workers");
        }
    }

    #[test]
    fn lookup_does_not_grow_the_dictionary() {
        let idx = InvertedIndex::build(&db());
        // Sibling tests intern into the process-global dictionary in
        // parallel, so check the probe's own strings rather than its size.
        assert!(idx.lookup("Absent Probe Value 123").is_empty());
        assert_eq!(Sym::get("Absent Probe Value 123"), None);
        assert_eq!(Sym::get("absent probe value 123"), None);
    }
}
