//! Offline αDB construction: walks the schema graph and computes
//! per-property statistics (paper Section 5, Figure 4's "offline module").
//! The derived relations are built from those statistics on first SQL use
//! ([`ADb::query_database`]).
//!
//! The statistics pass runs grouping → code → arena:
//!
//! * **Grouping.** Each foreign-key column of a fact table is grouped once
//!   per build, by the first property that needs it: a counting sort of
//!   the fact rows by the row their key references (`Grouping`), plus, for
//!   the fact table's other key column, the row each grouped fact row
//!   references, in the grouping's order. Every property of an entity
//!   through one fact table reads the same grouping and walks its arrays
//!   in order; a two-hop property reads the mid table's grouping of the
//!   second fact table as well. Each table's primary key → row map is
//!   likewise built once and shared; the entity's is kept as
//!   [`EntityProps::row_of`].
//! * **Code.** Walking an entity's fact rows, a property codes the value of
//!   each row it reaches the first time any entity reaches that row, and
//!   keeps the code in a per-row array (`RowCodes`). The dictionary is
//!   therefore the active domain, and no `Value` is hashed per
//!   association, except where the fact row holds the value itself (an
//!   attribute of the fact table). A derived-numeric property's cutpoints
//!   are the distinct values of the mid rows some entity reaches, each row
//!   ranked once.
//! * **Arena.** Each entity's codes, or `(code, 1)` runs, go straight into
//!   the property's CSR arena; no entity owns an allocation. The
//!   statistics' assemblers (in [`crate::stats`]) then sort each entity's
//!   group, deduplicate or coalesce it, renumber its codes in value order
//!   and lay out the postings.
//!
//! The properties of every entity table fan out over the build's workers
//! in one pass, and their results are put back in definition order, so
//! the αDB is the same at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use squid_relation::{
    kernel, Column, ColumnBuilder, ColumnVec, DataType, Database, ForeignKey, FxHashMap, FxHashSet,
    InvertedIndex, RelationError, Result, RowId, Sym, Table, TableRole, TableSchema, Value,
};

use crate::properties::{discover_properties, PropKind, PropertyDef};
use crate::stats::{
    code_floats, narrow, CategoricalStats, Coder, Csr, DerivedNumericStats, DerivedStats,
    NumericStats, Overflow, PropStats, NULL_CODE,
};

/// Build-time statistics (Figure 18 reports these for the paper datasets).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Wall-clock build time in milliseconds.
    pub build_millis: u128,
    /// Number of discovered semantic properties.
    pub property_count: usize,
    /// Number of derived relations (built on first SQL use, see
    /// [`ADb::query_database`]).
    pub derived_table_count: usize,
    /// Total rows across the derived relations, counted from the
    /// statistics without building them.
    pub derived_row_count: usize,
    /// Rows in the original database.
    pub original_row_count: usize,
}

/// One semantic property with its precomputed statistics.
#[derive(Debug, Clone)]
pub struct Property {
    /// Structural definition.
    pub def: PropertyDef,
    /// Precomputed statistics.
    pub stats: PropStats,
    /// Name of the property's `(entity_id, value, count)` relation in
    /// [`ADb::query_database`]; `None` for non-derived properties.
    pub derived_table: Option<String>,
    /// `def.id` interned once at build time: candidate-filter emission runs
    /// on every session turn and must not re-hash the id string.
    pub id_sym: Sym,
    /// `def.attr_name` interned once at build time.
    pub attr_sym: Sym,
    /// Prebuilt, value-patchable query fragments (interned semi-join
    /// templates and root-predicate columns) for per-turn query generation.
    pub fragments: crate::properties::QueryFragments,
}

/// All properties and statistics of one entity table.
#[derive(Debug, Clone)]
pub struct EntityProps {
    /// Entity table name.
    pub table: String,
    /// Primary-key column name.
    pub pk_column: String,
    /// Number of entities (|Q*(D)| for the trivial base query).
    pub n: usize,
    /// Discovered properties with statistics.
    pub props: Vec<Property>,
    /// Entity primary-key value → row id (see [`EntityProps::row_of`]).
    pub(crate) pk_rows: IdMap,
}

impl EntityProps {
    /// The row whose primary key is `pk`, if any.
    pub fn row_of(&self, pk: i64) -> Option<RowId> {
        self.pk_rows.get(pk)
    }

    /// Find a property by id (accepts `&str` or an interned `Sym`).
    /// An interned id takes the integer-compare fast path — the per-turn
    /// resolve paths pass `Sym`s and must not re-walk id strings.
    pub fn property<'i>(&self, id: impl Into<PropId<'i>>) -> Option<&Property> {
        match id.into() {
            PropId::Sym(sym) => self.props.iter().find(|p| p.id_sym == sym),
            PropId::Str(id) => self.props.iter().find(|p| p.def.id == id),
        }
    }
}

/// Property-id lookup key: an interned symbol (integer compares) or a raw
/// string (content compares, for callers without a `Sym` in hand).
pub enum PropId<'a> {
    /// Interned id.
    Sym(Sym),
    /// Raw id string.
    Str(&'a str),
}

impl From<Sym> for PropId<'_> {
    fn from(s: Sym) -> Self {
        PropId::Sym(s)
    }
}

impl<'a> From<&'a str> for PropId<'a> {
    fn from(s: &'a str) -> Self {
        PropId::Str(s)
    }
}

impl<'a> From<&'a String> for PropId<'a> {
    fn from(s: &'a String) -> Self {
        PropId::Str(s)
    }
}

/// Estimated heap bytes of an αDB's parts ([`ADb::heap_bytes`]), from
/// `Vec` and map capacities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// The original tables ([`ADb::database`]).
    pub tables: usize,
    /// The inverted column index.
    pub inverted: usize,
    /// Per-property statistics and each entity's key map: the sum of
    /// [`HeapBytes::stats_parts`].
    pub stats: usize,
    /// `stats` by kind of statistics.
    pub stats_parts: StatsParts,
    /// The derived relations of [`ADb::query_database`]: 0 until its first
    /// call (it shares the original tables, counted in `tables`).
    pub derived: usize,
}

/// [`HeapBytes::stats`] split by what holds the bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsParts {
    /// Categorical properties ([`PropStats::Categorical`]).
    pub categorical: usize,
    /// Direct numeric properties ([`PropStats::Numeric`]).
    pub numeric: usize,
    /// Derived counted properties ([`PropStats::Derived`]).
    pub derived: usize,
    /// Derived properties over a numeric attribute
    /// ([`PropStats::DerivedNumeric`]).
    pub derived_numeric: usize,
    /// Each entity table's primary key → row map
    /// ([`EntityProps::row_of`]).
    pub keys: usize,
}

impl StatsParts {
    /// The parts summed: [`HeapBytes::stats`].
    pub fn total(&self) -> usize {
        self.categorical + self.numeric + self.derived + self.derived_numeric + self.keys
    }
}

/// The abduction-ready database.
#[derive(Debug, Clone)]
pub struct ADb {
    /// Global inverted column index for entity lookup.
    pub inverted: InvertedIndex,
    /// Per-entity-table properties and statistics.
    pub entities: FxHashMap<String, EntityProps>,
    /// The original tables the αDB was built over, exactly (shared with
    /// the caller's database, not copied). Abduced
    /// queries in their αDB form run on [`ADb::query_database`], which
    /// adds the derived relations.
    pub database: Database,
    /// The original tables plus the derived relations, built on the first
    /// [`ADb::query_database`] call.
    query_db: OnceLock<Database>,
    /// Build statistics.
    pub build_stats: BuildStats,
    /// Process-unique build generation. The evaluation cache
    /// ([`crate::SharedFilterSetCache`]) tags its shards with this and
    /// drops a shard's entries when accessed for an αDB from a different
    /// build, so cached row bitmaps can never outlive the statistics they
    /// were derived from.
    pub generation: u64,
}

impl ADb {
    /// Build the αDB over `db`. [`ADb::database`] shares `db`'s tables
    /// rather than copying them.
    pub fn build(db: &Database) -> Result<ADb> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Self::build_with_workers(db, workers)
    }

    /// [`ADb::build`] with `workers` threads for the per-property statistics
    /// and the inverted-index scan; 1 disables parallelism. Results are
    /// merged deterministically, so the αDB is the same at any count.
    fn build_with_workers(db: &Database, workers: usize) -> Result<ADb> {
        let start = Instant::now();
        db.validate()?;
        let db = db.clone();
        let inverted = InvertedIndex::build_with_workers(&db, workers);
        // Properties come entity by entity, in the order of the entity
        // tables below.
        let defs = discover_properties(&db);
        let shared = Shared::new(&db);
        let mut entity_tables = Vec::new();
        for entity_name in db.tables_with_role(TableRole::Entity) {
            let table = db.table(entity_name)?;
            let pk_idx = table.schema().primary_key.ok_or_else(|| {
                RelationError::InvalidSchema(format!(
                    "entity table {entity_name} needs a primary key"
                ))
            })?;
            // Every entity keeps its key map as `EntityProps::row_of`.
            shared.key_map(entity_name)?;
            entity_tables.push((entity_name, table, pk_idx));
        }
        let stats = fan_out(workers, &defs, |def| compute_stats(&shared, def));
        let mut key_maps: FxHashMap<&str, IdMap> = shared
            .key_maps
            .into_iter()
            .filter_map(|(table, map)| Some((table, map.into_inner()?)))
            .collect();
        let mut stats = stats.into_iter();
        // Derived-relation names are unique against the base tables and
        // against each other (see `derived_table_name`).
        let mut taken_names: FxHashSet<String> =
            db.tables().map(|t| t.name().to_string()).collect();
        let mut entities: FxHashMap<String, EntityProps> = FxHashMap::default();
        let mut derived_table_count = 0usize;
        let mut derived_row_count = 0usize;
        let mut defs = defs.iter().peekable();
        for (entity_name, table, pk_idx) in entity_tables {
            let pk_column = table.schema().columns[pk_idx].name.clone();
            let mut props = Vec::new();
            while let Some(def) = defs.next_if(|d| d.entity == entity_name) {
                let stats = stats.next().expect("one result per definition")?;
                let derived_table = derived_rows(&stats).map(|rows| {
                    derived_row_count += rows;
                    derived_table_count += 1;
                    derived_table_name(def, &mut taken_names)
                });
                props.push(Property {
                    id_sym: Sym::intern(&def.id),
                    attr_sym: Sym::intern(&def.attr_name),
                    fragments: crate::properties::QueryFragments::build(
                        def,
                        &pk_column,
                        derived_table.as_deref(),
                    ),
                    def: def.clone(),
                    stats,
                    derived_table,
                });
            }
            let pk_rows = key_maps
                .remove(entity_name)
                .expect("built before the fan-out");
            entities.insert(
                entity_name.to_string(),
                EntityProps {
                    table: entity_name.to_string(),
                    pk_column,
                    n: table.len(),
                    props,
                    pk_rows,
                },
            );
        }
        // A definition left over would have been dropped from its entity.
        assert!(
            defs.next().is_none() && stats.next().is_none(),
            "properties come entity by entity, in entity-table order"
        );

        let build_stats = BuildStats {
            build_millis: start.elapsed().as_millis(),
            property_count: entities.values().map(|e| e.props.len()).sum(),
            derived_table_count,
            derived_row_count,
            original_row_count: db.total_rows(),
        };
        Ok(ADb {
            inverted,
            entities,
            database: db,
            query_db: OnceLock::new(),
            build_stats,
            generation: next_generation(),
        })
    }

    /// Properties of one entity table.
    pub fn entity(&self, table: &str) -> Option<&EntityProps> {
        self.entities.get(table)
    }

    /// The database abduced queries execute on: the original tables plus
    /// one `(entity_id, value, count)` relation per derived property (the
    /// paper's `persontogenre`, Example 2.2), named as
    /// [`Property::derived_table`] says. Built from the statistics on the
    /// first call and kept; discovery reads the statistics directly and
    /// never needs it. Concurrent first calls build it once.
    pub fn query_database(&self) -> &Database {
        self.query_db.get_or_init(|| {
            let mut db = self.database.clone();
            for e in self.entities.values() {
                let table = self.database.table(&e.table).expect("entity table");
                let pk_idx = table.schema().primary_key.expect("entity primary key");
                for p in &e.props {
                    if let Some(name) = &p.derived_table {
                        // The statistics hold one typed value column per
                        // property and the build made every name unique.
                        build_derived(name, &p.def.entity, &p.stats, table, pk_idx)
                            .and_then(|t| db.add_table(t))
                            .unwrap_or_else(|err| panic!("derived relation {name}: {err}"));
                    }
                }
            }
            db
        })
    }

    /// Estimated heap bytes of the original tables, the inverted index, the
    /// statistics and (once built) the query database.
    pub fn heap_bytes(&self) -> HeapBytes {
        let mut parts = StatsParts::default();
        for e in self.entities.values() {
            parts.keys += e.pk_rows.heap_bytes();
            for p in &e.props {
                let part = match p.stats {
                    PropStats::Categorical(_) => &mut parts.categorical,
                    PropStats::Numeric(_) => &mut parts.numeric,
                    PropStats::Derived(_) => &mut parts.derived,
                    PropStats::DerivedNumeric(_) => &mut parts.derived_numeric,
                };
                *part += p.stats.heap_bytes();
            }
        }
        HeapBytes {
            tables: self.database.heap_bytes(),
            inverted: self.inverted.heap_bytes(),
            stats: parts.total(),
            stats_parts: parts,
            derived: self.query_db.get().map_or(0, |q| {
                q.tables()
                    .filter(|t| self.database.table(t.name()).is_err())
                    .map(Table::heap_bytes)
                    .sum()
            }),
        }
    }
}

/// Next process-unique αDB generation. Every `ADb` (a generator build or
/// a snapshot load, which builds too) draws from this counter so
/// evaluation caches keyed by generation can never alias across distinct
/// αDB instances.
fn next_generation() -> u64 {
    static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// `pk → row id` lookup specialized to a flat vector when the key space is
/// dense (the generated datasets use 0..n ids, so the dense path is the
/// common case) — one bounds check instead of a hash per fact row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IdMap {
    Dense { offset: i64, slots: Vec<u32> },
    Sparse(FxHashMap<i64, RowId>),
}

const NO_ROW: u32 = u32::MAX;

impl IdMap {
    fn build(pk_col: &squid_relation::ColumnVec, len: usize) -> IdMap {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        kernel::scan_ints(pk_col, len, |_, pk| {
            lo = lo.min(pk);
            hi = hi.max(pk);
        });
        let span = hi.checked_sub(lo).and_then(|s| s.checked_add(1));
        let fits_u32 = len < NO_ROW as usize; // NO_ROW is the empty-slot sentinel
        match span {
            Some(span) if fits_u32 && lo <= hi && (span as u128) <= (4 * len as u128 + 1024) => {
                let mut slots = vec![NO_ROW; span as usize];
                kernel::scan_ints(pk_col, len, |rid, pk| {
                    slots[(pk - lo) as usize] =
                        u32::try_from(rid).expect("row id exceeds dense IdMap range");
                });
                IdMap::Dense { offset: lo, slots }
            }
            _ => {
                let mut map = FxHashMap::default();
                map.reserve(len);
                kernel::scan_ints(pk_col, len, |rid, pk| {
                    map.insert(pk, rid);
                });
                IdMap::Sparse(map)
            }
        }
    }

    #[inline]
    fn get(&self, key: i64) -> Option<RowId> {
        match self {
            IdMap::Dense { offset, slots } => {
                let idx = key.checked_sub(*offset)?;
                match slots.get(usize::try_from(idx).ok()?) {
                    Some(&r) if r != NO_ROW => Some(r as RowId),
                    _ => None,
                }
            }
            IdMap::Sparse(map) => map.get(&key).copied(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            IdMap::Dense { slots, .. } => squid_relation::heap::vec_bytes(slots),
            IdMap::Sparse(map) => squid_relation::heap::map_bytes(map),
        }
    }
}

/// Run `task` over every item on `workers` scoped threads pulling indices
/// from a shared atomic counter (work-stealing without locks: each worker
/// owns its output vector), and return the results in item order.
fn fan_out<I: Sync, T: Send>(workers: usize, items: &[I], task: impl Fn(&I) -> T + Sync) -> Vec<T> {
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let task = &task;
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, task(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stats worker panicked"))
            .collect()
    });
    let mut results: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

fn col(db: &Database, table: &str, column: &str) -> Result<usize> {
    db.table(table)?
        .schema()
        .column_index(column)
        .ok_or_else(|| RelationError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })
}

/// Parts made once per build, by the first property that needs them,
/// each under its key.
type Slots<K, V> = Vec<(K, OnceLock<V>)>;

/// The slot in `slots` whose key `is` accepts.
fn slot<K, V>(slots: &Slots<K, V>, is: impl Fn(&K) -> bool) -> Option<&OnceLock<V>> {
    slots.iter().find(|(k, _)| is(k)).map(|(_, v)| v)
}

/// What the properties of one build share: every table's primary key →
/// row map, every foreign-key column's [`Grouping`] of its fact table, and
/// for each other foreign-key column of that fact table the rows it
/// references, in the grouping's order.
struct Shared<'a> {
    db: &'a Database,
    key_maps: Slots<&'a str, IdMap>,
    groupings: Slots<(&'a str, &'a str), std::result::Result<Grouping, Overflow>>,
    targets: Slots<(&'a str, &'a str, &'a str), Vec<u32>>,
}

impl<'a> Shared<'a> {
    fn new(db: &'a Database) -> Shared<'a> {
        let (mut groupings, mut targets) = (Vec::new(), Vec::new());
        for t in db.tables() {
            let keys = &t.schema().foreign_keys;
            let name = |fk: &ForeignKey| t.schema().columns[fk.column].name.as_str();
            for fk in keys {
                groupings.push(((t.name(), name(fk)), OnceLock::new()));
                for other in keys.iter().filter(|o| o.column != fk.column) {
                    targets.push(((t.name(), name(fk), name(other)), OnceLock::new()));
                }
            }
        }
        Shared {
            db,
            key_maps: db.tables().map(|t| (t.name(), OnceLock::new())).collect(),
            groupings,
            targets,
        }
    }

    /// `table`'s primary key → row map.
    fn key_map(&self, table: &str) -> Result<&IdMap> {
        let t = self.db.table(table)?;
        let pk = t
            .schema()
            .primary_key
            .ok_or_else(|| RelationError::InvalidSchema(format!("{table} needs a primary key")))?;
        let map = slot(&self.key_maps, |&k| k == table).expect("every table has a key map slot");
        Ok(map.get_or_init(|| IdMap::build(t.column(pk), t.len())))
    }

    /// The rows of `fact` grouped by the row of `target` its key column
    /// `column` references.
    fn grouping(&self, fact: &str, column: &str, target: &str) -> Result<&Grouping> {
        let fact_t = self.db.table(fact)?;
        let key = fact_t.column(col(self.db, fact, column)?);
        let keys = self.key_map(target)?;
        let targets = self.db.table(target)?.len();
        slot(&self.groupings, |&(f, c)| (f, c) == (fact, column))
            .ok_or_else(|| not_a_foreign_key(fact, column))?
            .get_or_init(|| {
                // A counting sort; fact rows and referenced rows are `u32`s.
                narrow(fact_t.len() as u64, "fact row")?;
                narrow(targets as u64, "referenced row")?;
                let mut referenced = vec![NO_ROW; fact_t.len()];
                kernel::scan_ints(key, fact_t.len(), |row, k| {
                    if let Some(r) = keys.get(k) {
                        referenced[row] = r as u32;
                    }
                });
                Csr::group_by(&referenced, targets)
            })
            .as_ref()
            .map_err(|overflow| RelationError::TooLarge(format!("{fact}.{column}: {overflow}")))
    }

    /// For each entry of `fact`'s grouping by `column` (over `entity`), the
    /// row of `target` that the fact row's key column `other` references:
    /// `NO_ROW` for a NULL key or one that matches no row.
    fn targets(
        &self,
        (fact, column, entity): (&str, &str, &str),
        other: &str,
        target: &str,
    ) -> Result<&[u32]> {
        let facts = self.grouping(fact, column, entity)?;
        let key = self.key_column(fact, other, target)?;
        let targets = slot(&self.targets, |&(f, c, o)| {
            (f, c, o) == (fact, column, other)
        })
        .ok_or_else(|| not_a_foreign_key(fact, other))?;
        Ok(targets.get_or_init(|| {
            let row = |&r: &u32| key.row(r).map_or(NO_ROW, |t| t as u32);
            facts.entries.iter().map(row).collect()
        }))
    }

    /// `fact`'s key column `column` read through `target`'s key map.
    /// Callers store the rows it references as `u32`s.
    fn key_column(&self, fact: &str, column: &str, target: &str) -> Result<KeyColumn<'_>> {
        let fact_t = self.db.table(fact)?;
        let column = fact_t.column(col(self.db, fact, column)?);
        narrow(self.db.table(target)?.len() as u64, "referenced row")
            .map_err(|overflow| RelationError::TooLarge(format!("{target}: {overflow}")))?;
        Ok(KeyColumn {
            column,
            keys: column.ints(),
            map: self.key_map(target)?,
        })
    }

    /// Value codes of `table`'s column `column`, one per row, made as rows
    /// are reached.
    fn row_codes(&self, table: &str, column: &str) -> Result<RowCodes<'_>> {
        let t = self.db.table(table)?;
        Ok(RowCodes {
            column: t.column(col(self.db, table, column)?),
            codes: vec![UNCODED; t.len()],
        })
    }
}

fn not_a_foreign_key(table: &str, column: &str) -> RelationError {
    RelationError::InvalidSchema(format!("{table}.{column} is not a foreign key"))
}

/// A fact table's rows grouped by the row one of its key columns
/// references: group `r` holds, ascending, the fact rows whose key is row
/// `r`'s primary key. A NULL key, or one that matches no row, is in no
/// group.
type Grouping = Csr<u32>;

/// A fact table's key column read through the referenced table's key map.
struct KeyColumn<'a> {
    column: &'a ColumnVec,
    /// `None` when the column is not an integer column: then no key
    /// matches.
    keys: Option<&'a [i64]>,
    map: &'a IdMap,
}

impl KeyColumn<'_> {
    /// The key of fact row `row` (`None` when NULL).
    #[inline]
    fn key(&self, row: u32) -> Option<i64> {
        let row = row as RowId;
        let keys = self.keys?;
        (!self.column.is_null(row)).then(|| keys[row])
    }

    /// The row fact row `row`'s key references, if any.
    #[inline]
    fn row(&self, row: u32) -> Option<RowId> {
        self.map.get(self.key(row)?)
    }
}

/// A column's rows, each coded the first time a property reaches it, so
/// the dictionary holds the active domain: a row that no entity reaches
/// never enters it.
struct RowCodes<'a> {
    column: &'a ColumnVec,
    /// Per row: its code, `NO_VALUE` for NULL, or `UNCODED`.
    codes: Vec<u32>,
}

const UNCODED: u32 = u32::MAX;
const NO_VALUE: u32 = u32::MAX - 1;

impl RowCodes<'_> {
    /// The code of row `row`'s value (`None` when NULL).
    #[inline]
    fn code(
        &mut self,
        row: RowId,
        coder: &mut Coder,
    ) -> std::result::Result<Option<u32>, Overflow> {
        if self.codes[row] == UNCODED {
            let v = self.column.value_at(row);
            self.codes[row] = if v.is_null() {
                NO_VALUE
            } else {
                coder.code(v)?
            };
        }
        Ok(Some(self.codes[row]).filter(|&c| c != NO_VALUE))
    }
}

/// Compute one property's statistics.
///
/// A fact property starts from its entity's [`Grouping`] of the fact
/// table, shared by every property of that entity through that fact. Each
/// entity's fact rows are read in turn and each value they reach is coded
/// once per referenced row ([`RowCodes`]); the entity's codes, or
/// `(code, 1)` runs, go straight into one arena, which the statistics'
/// assemblers sort, deduplicate or coalesce, and renumber in value order.
/// No entity owns an allocation and no `Value` is hashed per association,
/// except where the fact row itself holds the value (an attribute of the
/// fact table).
fn compute_stats(shared: &Shared<'_>, def: &PropertyDef) -> Result<PropStats> {
    let db = shared.db;
    let entity_table = db.table(&def.entity)?;
    let n = entity_table.len();
    let refuse = |overflow| refuse(def, overflow);
    Ok(match &def.kind {
        PropKind::DirectCategorical { column } => {
            let ci = col(db, &def.entity, column)?;
            PropStats::Categorical(
                CategoricalStats::from_column(entity_table.column(ci), n).map_err(refuse)?,
            )
        }
        PropKind::DirectNumeric { column } => {
            let ci = col(db, &def.entity, column)?;
            PropStats::Numeric(
                NumericStats::from_column(entity_table.column(ci), n).map_err(refuse)?,
            )
        }
        PropKind::FactCategorical {
            fact,
            fact_entity_col,
            fact_prop_col,
            prop_table,
            prop_column,
        } => {
            let facts = shared.grouping(fact, fact_entity_col, &def.entity)?;
            let grouping = (fact.as_str(), fact_entity_col.as_str(), def.entity.as_str());
            let props = shared.targets(grouping, fact_prop_col, prop_table)?;
            let mut values = shared.row_codes(prop_table, prop_column)?;
            let mut coder = Coder::default();
            let visit = |i: usize, out: &mut Vec<u32>| {
                if props[i] != NO_ROW {
                    out.extend(values.code(props[i] as RowId, &mut coder)?);
                }
                Ok(())
            };
            let per_entity = per_entity(facts, visit).map_err(refuse)?;
            PropStats::Categorical(CategoricalStats::assemble(coder, per_entity).map_err(refuse)?)
        }
        PropKind::InlineCategorical {
            fact,
            fact_entity_col,
            column,
        } => {
            let facts = shared.grouping(fact, fact_entity_col, &def.entity)?;
            let fc = db.table(fact)?.column(col(db, fact, column)?);
            let mut coder = Coder::default();
            let visit = |i: usize, out: &mut Vec<u32>| {
                let row = facts.entries[i] as RowId;
                if !fc.is_null(row) {
                    out.push(coder.code(fc.value_at(row))?);
                }
                Ok(())
            };
            let per_entity = per_entity(facts, visit).map_err(refuse)?;
            PropStats::Categorical(CategoricalStats::assemble(coder, per_entity).map_err(refuse)?)
        }
        PropKind::FactAttrCount {
            fact,
            fact_entity_col,
            column,
        } => {
            let facts = shared.grouping(fact, fact_entity_col, &def.entity)?;
            let fc = db.table(fact)?.column(col(db, fact, column)?);
            let mut coder = Coder::default();
            let visit = |i: usize, out: &mut Vec<(u32, u32)>| {
                let row = facts.entries[i] as RowId;
                if !fc.is_null(row) {
                    out.push((coder.code(fc.value_at(row))?, 1));
                }
                Ok(())
            };
            let runs = per_entity(facts, visit).map_err(refuse)?;
            PropStats::Derived(DerivedStats::assemble(coder, runs).map_err(refuse)?)
        }
        PropKind::MidAttrCount {
            fact,
            fact_entity_col,
            fact_mid_col,
            mid_table,
            column,
            numeric,
        } => {
            let facts = shared.grouping(fact, fact_entity_col, &def.entity)?;
            let grouping = (fact.as_str(), fact_entity_col.as_str(), def.entity.as_str());
            let mids = shared.targets(grouping, fact_mid_col, mid_table)?;
            if *numeric {
                // The cutpoints: the distinct values of the mid rows reached.
                let mid_col = db.table(mid_table)?.column(col(db, mid_table, column)?);
                let mut values = vec![None; db.table(mid_table)?.len()];
                for &m in mids.iter().filter(|&&m| m != NO_ROW) {
                    values[m as usize] = mid_col.float_at(m as usize);
                }
                let (cutpoints, ranks) = code_floats(&values).map_err(refuse)?;
                let visit = |i: usize, out: &mut Vec<(u32, u32)>| {
                    match mids[i] {
                        NO_ROW => {}
                        m if ranks[m as usize] == NULL_CODE => {}
                        m => out.push((ranks[m as usize], 1)),
                    }
                    Ok(())
                };
                let runs = per_entity(facts, visit).map_err(refuse)?;
                PropStats::DerivedNumeric(
                    DerivedNumericStats::assemble(cutpoints, runs).map_err(refuse)?,
                )
            } else {
                let mut values = shared.row_codes(mid_table, column)?;
                let mut coder = Coder::default();
                let visit = |i: usize, out: &mut Vec<(u32, u32)>| {
                    if mids[i] != NO_ROW {
                        let code = values.code(mids[i] as RowId, &mut coder)?;
                        out.extend(code.map(|c| (c, 1)));
                    }
                    Ok(())
                };
                let runs = per_entity(facts, visit).map_err(refuse)?;
                PropStats::Derived(DerivedStats::assemble(coder, runs).map_err(refuse)?)
            }
        }
        PropKind::TwoHopCount {
            fact1,
            f1_entity_col,
            f1_mid_col,
            mid_table,
            fact2,
            f2_mid_col,
            f2_prop_col,
            prop_table,
            prop_column,
        } => {
            let facts = shared.grouping(fact1, f1_entity_col, &def.entity)?;
            let grouping = (fact1.as_str(), f1_entity_col.as_str(), def.entity.as_str());
            let mid_rows = shared.targets(grouping, f1_mid_col, mid_table)?;
            let mid = shared.key_column(fact1, f1_mid_col, mid_table)?;
            let mids = shared.grouping(fact2, f2_mid_col, mid_table)?;
            let mid_of_fact2 = shared.key_column(fact2, f2_mid_col, mid_table)?;
            let prop = shared.key_column(fact2, f2_prop_col, prop_table)?;
            // Mid row → the property rows its fact2 rows reach (a movie's
            // genres). Dangling mid keys (fact rows referencing a key with
            // no mid row) still join fact1 to fact2 in the live query, so
            // they must still count: their property rows sit beside the
            // key, in fact2 row order.
            let mut mid_props = Csr::with_groups(mids.groups());
            for m in 0..mids.groups() {
                let rows = mids.group(m);
                let reached = rows.iter().filter_map(|&r| prop.row(r));
                mid_props.entries.extend(reached.map(|p| p as u32));
                mid_props.end_group().map_err(refuse)?;
            }
            let mut dangling: Vec<(i64, u32)> = (0..db.table(fact2)?.len() as u32)
                .filter_map(|r| {
                    let key = mid_of_fact2.key(r)?;
                    if mid_of_fact2.map.get(key).is_some() {
                        return None;
                    }
                    Some((key, prop.row(r)? as u32))
                })
                .collect();
            dangling.sort_by_key(|&(key, _)| key);
            let (dangling_keys, dangling_props): (Vec<i64>, Vec<u32>) =
                dangling.into_iter().unzip();
            let mut values = shared.row_codes(prop_table, prop_column)?;
            let mut coder = Coder::default();
            let visit = |i: usize, out: &mut Vec<(u32, u32)>| {
                let reached = match mid_rows[i] {
                    NO_ROW => {
                        let Some(key) = mid.key(facts.entries[i]) else {
                            return Ok(());
                        };
                        let from = dangling_keys.partition_point(|&k| k < key);
                        let to = dangling_keys.partition_point(|&k| k <= key);
                        &dangling_props[from..to]
                    }
                    m => mid_props.group(m as usize),
                };
                for &p in reached {
                    out.extend(values.code(p as RowId, &mut coder)?.map(|c| (c, 1)));
                }
                Ok(())
            };
            let runs = per_entity(facts, visit).map_err(refuse)?;
            PropStats::Derived(DerivedStats::assemble(coder, runs).map_err(refuse)?)
        }
    })
}

/// One arena group per entity row of `facts`: `visit` appends what each
/// of the entity's fact rows (by its index in the grouping) contributes,
/// one entry per reached value. The statistics' assemblers sort each group
/// and deduplicate or coalesce it.
fn per_entity<T: Copy>(
    facts: &Grouping,
    mut visit: impl FnMut(usize, &mut Vec<T>) -> std::result::Result<(), Overflow>,
) -> std::result::Result<Csr<T>, Overflow> {
    let mut arena = Csr::with_groups(facts.groups());
    let mut i = 0;
    for entity in 0..facts.groups() {
        for _ in facts.group(entity) {
            visit(i, &mut arena.entries)?;
            i += 1;
        }
        arena.end_group()?;
    }
    Ok(arena)
}

/// The build's refusal of a property whose statistics do not fit their
/// `u32`s, naming the property.
fn refuse(def: &PropertyDef, overflow: Overflow) -> RelationError {
    RelationError::TooLarge(format!("property {}: {overflow}", def.id))
}

/// Rows of a property's derived relation, one per `(entity, value)` pair
/// with a positive count; `None` for properties that have none.
fn derived_rows(stats: &PropStats) -> Option<usize> {
    match stats {
        PropStats::Derived(d) => Some(d.association_count()),
        PropStats::DerivedNumeric(d) => Some(d.association_count()),
        PropStats::Categorical(_) | PropStats::Numeric(_) => None,
    }
}

/// The derived-relation name of `def`: its id sanitized to `adb_…`, then
/// suffixed `_2`, `_3`, … until it is not in `taken` (the base tables and
/// every name assigned before it). Sanitizing is not injective
/// (`person~castinfo.movie_year` and `person~castinfo~movie.year` both
/// read `adb_person_castinfo_movie_year`), and the build assigns names in
/// entity-then-definition order, so the suffixes are deterministic.
fn derived_table_name(def: &PropertyDef, taken: &mut FxHashSet<String>) -> String {
    let mut base = String::with_capacity(def.id.len() + 8);
    base.push_str("adb_");
    base.extend(
        def.id
            .chars()
            .map(|ch| if ch.is_ascii_alphanumeric() { ch } else { '_' }),
    );
    let mut name = base.clone();
    let mut suffix = 2;
    while !taken.insert(name.clone()) {
        name = format!("{base}_{suffix}");
        suffix += 1;
    }
    name
}

/// Build the derived relation `name(entity_id, value, count)` of one
/// derived property of `entity` (the paper's `persontogenre`) from its
/// statistics.
///
/// Columnar bulk build: the per-entity count structures stream straight
/// into typed [`ColumnBuilder`]s, which [`Table::from_columns`] takes as
/// the table's columns — no intermediate row vector and no per-row
/// arity/type checks.
fn build_derived(
    name: &str,
    entity: &str,
    stats: &PropStats,
    entity_table: &Table,
    pk_idx: usize,
) -> Result<Table> {
    let rows = derived_rows(stats).expect("only derived properties have a derived relation");
    let value_type = match stats {
        PropStats::Derived(d) => d
            .domain()
            .iter()
            .find_map(Value::data_type)
            .unwrap_or(DataType::Text),
        _ => DataType::Float,
    };
    // Entity pk values gathered once in row order (dtype dispatch hoisted
    // out of the emission loops).
    let pk_vals = kernel::gather(
        entity_table.column(pk_idx),
        &squid_relation::RowSet::full(entity_table.len()),
    );
    let mut ent = ColumnBuilder::with_capacity(DataType::Int, rows);
    let mut val = ColumnBuilder::with_capacity(value_type, rows);
    let mut cnt = ColumnBuilder::with_capacity(DataType::Int, rows);
    match stats {
        PropStats::Derived(d) => {
            for (rid, pk) in pk_vals.iter().enumerate().take(d.entity_count()) {
                for &(code, c) in d.runs_of(rid) {
                    ent.push_value(pk)?;
                    val.push_value(&d.value(code))?;
                    cnt.push_int(i64::from(c));
                }
            }
        }
        PropStats::DerivedNumeric(d) => {
            for (rid, pk) in pk_vals.iter().enumerate().take(d.entity_count()) {
                for &(rank, c) in d.runs_of(rid) {
                    ent.push_value(pk)?;
                    val.push_float(d.cutpoints()[rank as usize]);
                    cnt.push_int(i64::from(c));
                }
            }
        }
        PropStats::Categorical(_) | PropStats::Numeric(_) => unreachable!("checked above"),
    }
    let schema = TableSchema::new(
        name,
        vec![
            Column::new("entity_id", DataType::Int),
            Column::new("value", value_type),
            Column::new("count", DataType::Int),
        ],
    )
    .with_role(TableRole::Fact)
    .with_foreign_key("entity_id", entity, pk_idx);
    Table::from_columns(schema, vec![ent, val, cnt])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::mini_imdb;
    use squid_engine::{Executor, PathStep, Pred, Query, QueryBlock, SemiJoin};

    fn adb() -> ADb {
        ADb::build(&mini_imdb()).unwrap()
    }

    #[test]
    fn builds_and_reports_stats() {
        let a = adb();
        assert!(a.build_stats.property_count > 5);
        assert!(a.build_stats.derived_table_count > 0);
        assert!(a.build_stats.derived_row_count > 0);
        assert_eq!(a.build_stats.original_row_count, mini_imdb().total_rows());
    }

    /// `row_of` answers from the build's one pk map — dense for keys
    /// packed like the generated 0..n ids, sparse once the key span passes
    /// 4n + 1024 — exactly as a scan of the key column does.
    #[test]
    fn row_of_matches_a_scan_of_the_key_column() {
        let n = 50;
        for (stride, dense) in [(1i64, true), (10_000, false)] {
            let mut db = Database::new();
            db.create_table(
                TableSchema::new(
                    "item",
                    vec![
                        squid_relation::Column::new("id", DataType::Int),
                        squid_relation::Column::new("label", DataType::Text),
                    ],
                )
                .with_primary_key("id"),
            )
            .unwrap();
            // Keys descend as row ids ascend, so the two never coincide.
            for i in 0..n {
                let pk = (n - 1 - i) * stride + 7;
                let label = Value::text(format!("item {i}"));
                db.insert("item", vec![Value::Int(pk), label]).unwrap();
            }
            let a = ADb::build(&db).unwrap();
            let e = a.entity("item").unwrap();
            assert_eq!(matches!(e.pk_rows, IdMap::Dense { .. }), dense);
            let table = a.database.table("item").unwrap();
            let mut scanned = 0;
            kernel::scan_ints(table.column(0), table.len(), |rid, pk| {
                assert_eq!(e.row_of(pk), Some(rid), "pk {pk}");
                scanned += 1;
            });
            assert_eq!(scanned, n);
            let last = (n - 1) * stride + 7;
            for miss in [i64::MIN, 6, 7 + stride / 2, last + 1, i64::MAX] {
                if stride > 1 || miss < 7 || miss > last {
                    assert_eq!(e.row_of(miss), None, "pk {miss}");
                }
            }
        }
    }

    #[test]
    fn person_gender_stats() {
        let a = adb();
        let e = a.entity("person").unwrap();
        assert_eq!(e.n, 8);
        assert_eq!(e.pk_column, "id");
        let p = e.property("person.gender").unwrap();
        let PropStats::Categorical(s) = &p.stats else {
            panic!("expected categorical")
        };
        let male = s.code_of(&Value::text("Male")).unwrap();
        assert_eq!(s.selectivity_code(male, e.n), 0.75);
        assert_eq!(s.domain_size(), 2);
    }

    #[test]
    fn two_hop_persontogenre_counts() {
        let a = adb();
        let e = a.entity("person").unwrap();
        let p = e
            .props
            .iter()
            .find(|p| {
                matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre")
            })
            .unwrap();
        let PropStats::Derived(s) = &p.stats else {
            panic!("expected derived")
        };
        // Jim Carrey (row 0, id 1) appears in 5 comedies.
        let jim_row = e.row_of(1).unwrap();
        assert_eq!(s.count_of(jim_row, &Value::text("Comedy")), 5);
        // Stallone (id 4) has 3 action movies, 0 comedies.
        let sly = e.row_of(4).unwrap();
        assert_eq!(s.count_of(sly, &Value::text("Action")), 3);
        assert_eq!(s.count_of(sly, &Value::text("Comedy")), 0);
        // Selectivity of ≥4 comedies: Jim (5), Eddie (4), Robin (4) → 3/8.
        let comedy = s.domain().binary_search(&Value::text("Comedy")).unwrap() as u32;
        assert_eq!(s.selectivity_code(comedy, 4, e.n), 0.375);
        // Selectivity of ≥5 comedies: only Jim → 1/8.
        assert_eq!(s.selectivity_code(comedy, 5, e.n), 0.125);
    }

    #[test]
    fn derived_tables_agree_with_online_counts() {
        let a = adb();
        let e = a.entity("person").unwrap();
        let p = e
            .props
            .iter()
            .find(|p| {
                matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre")
            })
            .unwrap();
        let tname = p.derived_table.as_ref().unwrap();
        // Query the derived relation: persons with >= 4 comedies.
        let q = Query::single(
            QueryBlock::new("person").semi_join(SemiJoin::exists(vec![PathStep::new(
                tname,
                "id",
                "entity_id",
            )
            .filter(Pred::eq("value", "Comedy"))
            .filter(Pred::ge("count", 4))])),
            "name",
        );
        let rs = Executor::new(a.query_database()).execute(&q).unwrap();
        assert_eq!(rs.len(), 3); // Jim Carrey, Eddie Murphy, Robin Williams
    }

    #[test]
    fn adb_query_equivalent_to_original_spjai() {
        // Example 2.2: Q4 on the original database == Q5 on the αDB.
        let a = adb();
        let original = Query::single(
            QueryBlock::new("person").semi_join(SemiJoin::at_least(
                4,
                vec![
                    PathStep::new("castinfo", "id", "person_id"),
                    PathStep::new("movietogenre", "movie_id", "movie_id"),
                    PathStep::new("genre", "genre_id", "id").filter(Pred::eq("name", "Comedy")),
                ],
            )),
            "name",
        );
        let e = a.entity("person").unwrap();
        let p = e
            .props
            .iter()
            .find(|p| {
                matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre")
            })
            .unwrap();
        let tname = p.derived_table.as_ref().unwrap();
        let adb_q = Query::single(
            QueryBlock::new("person").semi_join(SemiJoin::exists(vec![PathStep::new(
                tname,
                "id",
                "entity_id",
            )
            .filter(Pred::eq("value", "Comedy"))
            .filter(Pred::ge("count", 4))])),
            "name",
        );
        let r1 = Executor::new(&a.database).execute(&original).unwrap();
        let r2 = Executor::new(a.query_database()).execute(&adb_q).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn mid_attr_numeric_builds_suffix_stats() {
        let a = adb();
        let e = a.entity("person").unwrap();
        let p = e
            .props
            .iter()
            .find(|p| p.def.attr_name == "movie.year")
            .unwrap();
        let PropStats::DerivedNumeric(s) = &p.stats else {
            panic!("expected derived numeric")
        };
        // Jim Carrey: movies 0-4, years 1994..2002; 3 movies from 1998 on.
        let jim = e.row_of(1).unwrap();
        assert_eq!(s.suffix_count_of(jim, 1998.0), 3);
        assert_eq!(s.suffix_count_of(jim, 1990.0), 5);
    }

    #[test]
    fn fact_attr_role_counts() {
        let a = adb();
        let e = a.entity("person").unwrap();
        let p = e
            .props
            .iter()
            .find(|p| matches!(&p.def.kind, PropKind::FactAttrCount { column, .. } if column == "role"))
            .unwrap();
        let PropStats::Derived(s) = &p.stats else {
            panic!("expected derived")
        };
        let emma = e.row_of(8).unwrap();
        assert_eq!(s.count_of(emma, &Value::text("actress")), 2);
        assert_eq!(s.count_of(emma, &Value::text("actor")), 0);
    }

    #[test]
    fn inverted_index_finds_examples() {
        let a = adb();
        let cols = a
            .inverted
            .columns_containing_all(&["Jim Carrey", "Eddie Murphy"]);
        assert_eq!(cols, vec![("person".to_string(), 1)]);
    }

    #[test]
    fn two_hop_counts_include_dangling_mid_ids() {
        // Row-level referential integrity is not enforced: a castinfo +
        // movietogenre pair can reference a movie id with no movie row.
        // The live abduced query joins fact1 to fact2 directly, so the
        // precomputed counts must include such associations too.
        let mut db = mini_imdb();
        db.insert(
            "castinfo",
            vec![Value::Int(1), Value::Int(999), Value::text("actor")],
        )
        .unwrap();
        db.insert("movietogenre", vec![Value::Int(999), Value::Int(0)])
            .unwrap(); // genre 0 = Comedy
        let a = ADb::build(&db).unwrap();
        let e = a.entity("person").unwrap();
        let p = e
            .props
            .iter()
            .find(|p| {
                matches!(&p.def.kind, PropKind::TwoHopCount { prop_table, .. } if prop_table == "genre")
            })
            .unwrap();
        let PropStats::Derived(s) = &p.stats else {
            panic!("expected derived")
        };
        // Jim Carrey (id 1) had 5 comedies; the dangling movie adds one.
        let jim = e.row_of(1).unwrap();
        assert_eq!(s.count_of(jim, &Value::text("Comedy")), 6);
    }

    /// `person(id, name)`, `movie(id, year)` and a two-FK fact
    /// `castinfo(person_id, movie_id, movie_year TEXT)`: the fact attribute
    /// `person~castinfo.movie_year` and the mid attribute
    /// `person~castinfo~movie.year` sanitize to the same table name, and so
    /// does a base table that already uses it.
    fn colliding_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "person",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Text),
                ],
            )
            .with_primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "movie",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("year", DataType::Int),
                ],
            )
            .with_primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "castinfo",
                vec![
                    Column::new("person_id", DataType::Int),
                    Column::new("movie_id", DataType::Int),
                    Column::new("movie_year", DataType::Text),
                ],
            )
            .with_role(TableRole::Fact)
            .with_foreign_key("person_id", "person", 0)
            .with_foreign_key("movie_id", "movie", 0),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "adb_person_castinfo_movie_year_2",
                vec![Column::new("note", DataType::Text)],
            )
            .with_role(TableRole::Property),
        )
        .unwrap();
        db.meta.exclude("person", "name");
        for (id, name) in [(1, "Ann"), (2, "Bob"), (3, "Cy")] {
            db.insert("person", vec![Value::Int(id), Value::text(name)])
                .unwrap();
        }
        for (id, year) in [(10, 1990), (11, 1990), (12, 2000)] {
            db.insert("movie", vec![Value::Int(id), Value::Int(year)])
                .unwrap();
        }
        // Ann: 1990 twice; Bob: 1990 once and 2000 once; Cy: 2000 once.
        for (p, m, y) in [
            (1, 10, "1990"),
            (1, 11, "1990"),
            (2, 10, "1990"),
            (2, 12, "2000"),
            (3, 12, "2000"),
        ] {
            db.insert(
                "castinfo",
                vec![Value::Int(p), Value::Int(m), Value::text(y)],
            )
            .unwrap();
        }
        db
    }

    /// `stats` is its parts, each kind of statistics and the key maps,
    /// to the byte.
    #[test]
    fn stats_parts_sum_to_stats() {
        let a = adb();
        let heap = a.heap_bytes();
        let parts = heap.stats_parts;
        assert_eq!(parts.total(), heap.stats);
        for (name, part) in [
            ("categorical", parts.categorical),
            ("numeric", parts.numeric),
            ("derived", parts.derived),
            ("derived_numeric", parts.derived_numeric),
            ("keys", parts.keys),
        ] {
            assert!(part > 0, "mini-IMDb has {name} statistics");
        }
        let keys: usize = a.entities.values().map(|e| e.pk_rows.heap_bytes()).sum();
        assert_eq!(parts.keys, keys);
    }

    /// The one narrowing helper takes `u32::MAX` and refuses one more; the
    /// build's refusal names the property.
    #[test]
    fn an_overflowing_property_is_refused_by_name() {
        let def = &discover_properties(&mini_imdb())[0];
        assert_eq!(
            crate::stats::narrow(u64::from(u32::MAX), "association count"),
            Ok(u32::MAX)
        );
        let overflow =
            crate::stats::narrow(u64::from(u32::MAX) + 1, "association count").unwrap_err();
        let refusal = refuse(def, overflow).to_string();
        assert_eq!(
            refusal,
            format!(
                "too large: property {}: association count 4294967296 exceeds the u32 range",
                def.id
            )
        );
    }

    #[test]
    fn colliding_derived_names_get_unique_suffixes() {
        let a = ADb::build(&colliding_db()).unwrap();
        let e = a.entity("person").unwrap();
        let table_of = |id: &str| {
            let p = e.property(id).unwrap_or_else(|| panic!("no property {id}"));
            (p, p.derived_table.clone().unwrap())
        };
        let (fact_attr, fact_table) = table_of("person~castinfo.movie_year");
        let (mid_attr, mid_table) = table_of("person~castinfo~movie.year");
        // Definition order decides who keeps the bare name; the base table
        // holds `_2`, so the loser skips to `_3`.
        let mut names = [fact_table.as_str(), mid_table.as_str()];
        names.sort();
        assert_eq!(
            names,
            [
                "adb_person_castinfo_movie_year",
                "adb_person_castinfo_movie_year_3"
            ]
        );
        assert_eq!(
            a.query_database().tables().count(),
            a.database.tables().count() + a.build_stats.derived_table_count
        );
        // Both αDB forms answer exactly what the original forms answer.
        let rows = |db: &Database, sj: SemiJoin| {
            let q = Query::single(QueryBlock::new("person").semi_join(sj), "name");
            let rs = Executor::new(db).execute(&q).unwrap();
            rs.project(db, "name").unwrap()
        };
        for (p, v, theta, want) in [
            (fact_attr, Value::text("1990"), 2, vec!["Ann"]),
            (fact_attr, Value::text("2000"), 1, vec!["Bob", "Cy"]),
            (mid_attr, Value::float(1990.0), 1, vec!["Ann", "Bob"]),
            (mid_attr, Value::float(2000.0), 1, vec!["Bob", "Cy"]),
        ] {
            let adb_form = p.fragments.adb_semi_join(&v, theta).unwrap();
            let original = p.def.semi_join("id", &v, theta).unwrap();
            let want: Vec<Value> = want.into_iter().map(Value::text).collect();
            assert_eq!(rows(a.query_database(), adb_form), want, "{} {v}", p.def.id);
            assert_eq!(rows(&a.database, original), want, "{} {v}", p.def.id);
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::test_fixtures::{edge_cases, mini_imdb};

    /// Builds at any worker count produce identical statistics, key maps,
    /// derived relations and inverted index.
    #[test]
    fn parallel_build_matches_sequential() {
        for db in [mini_imdb(), edge_cases()] {
            let seq = ADb::build_with_workers(&db, 1).unwrap();
            for workers in [2, 3] {
                let par = ADb::build_with_workers(&db, workers).unwrap();
                assert_eq!(seq.entities.len(), par.entities.len());
                for (name, e_seq) in &seq.entities {
                    let e_par = par.entity(name).unwrap();
                    assert_eq!(e_seq.n, e_par.n, "{name}");
                    assert_eq!(e_seq.pk_rows, e_par.pk_rows, "{name}");
                    assert_eq!(e_seq.props.len(), e_par.props.len(), "{name}");
                    for (a, b) in e_seq.props.iter().zip(&e_par.props) {
                        assert_eq!(a.def, b.def);
                        assert_eq!(a.derived_table, b.derived_table);
                        assert!(a.stats == b.stats, "{} at {workers} workers", a.def.id);
                    }
                }
                // The query databases (originals + derived relations) must be
                // byte-identical: table layout, row order, cells.
                assert_eq!(
                    squid_relation::db_fingerprint(seq.query_database()),
                    squid_relation::db_fingerprint(par.query_database()),
                );
                assert_eq!(
                    seq.query_database()
                        .tables()
                        .map(|t| t.name())
                        .collect::<Vec<_>>(),
                    par.query_database()
                        .tables()
                        .map(|t| t.name())
                        .collect::<Vec<_>>(),
                );
                // The parallel inverted-index build merges deterministically too.
                assert!(seq.inverted == par.inverted);
            }
        }
    }
}
