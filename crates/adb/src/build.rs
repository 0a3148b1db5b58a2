//! Offline αDB construction: walks the schema graph and computes
//! per-property statistics (paper Section 5, Figure 4's "offline module").
//! The derived relations are built from those statistics on first SQL use
//! ([`ADb::query_database`]).

use std::sync::OnceLock;
use std::time::Instant;

use squid_relation::{
    kernel, Column, ColumnBuilder, DataType, Database, FxHashMap, FxHashSet, InvertedIndex,
    RelationError, Result, RowId, Sym, Table, TableRole, TableSchema, Value,
};

use crate::properties::{discover_properties, PropKind, PropertyDef};
use crate::stats::{
    CategoricalStats, DerivedNumericStats, DerivedStats, NumericStats, Overflow, PropStats,
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
        let defs = discover_properties(&db);
        // Derived-relation names are unique against the base tables and
        // against each other (see `derived_table_name`).
        let mut taken_names: FxHashSet<String> =
            db.tables().map(|t| t.name().to_string()).collect();
        let mut entities: FxHashMap<String, EntityProps> = FxHashMap::default();
        let mut derived_table_count = 0usize;
        let mut derived_row_count = 0usize;

        for entity_name in db.tables_with_role(TableRole::Entity) {
            let table = db.table(entity_name)?;
            let pk_idx = table.schema().primary_key.ok_or_else(|| {
                RelationError::InvalidSchema(format!(
                    "entity table {entity_name} needs a primary key"
                ))
            })?;
            let pk_column = table.schema().columns[pk_idx].name.clone();
            let pk_col = table.column(pk_idx);
            // A dense vector when pks are dense: the statistics below fold
            // fact rows through it, and `EntityProps::row_of` keeps it.
            let id_map = IdMap::build(pk_col, table.len());
            let n = table.len();
            // Per-property statistics are independent: fan them out over
            // `workers` scoped threads pulling indices from a
            // shared atomic counter (work-stealing without locks — each
            // worker owns its output vector and results are put back in
            // index order afterwards).
            let entity_defs: Vec<&PropertyDef> =
                defs.iter().filter(|d| d.entity == entity_name).collect();
            let stats_results: Vec<Result<PropStats>> = if workers > 1 && entity_defs.len() > 1 {
                let workers = workers.min(entity_defs.len());
                let next = std::sync::atomic::AtomicUsize::new(0);
                let per_worker: Vec<Vec<(usize, Result<PropStats>)>> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..workers)
                            .map(|_| {
                                let next = &next;
                                let db = &db;
                                let entity_defs = &entity_defs;
                                let id_map = &id_map;
                                scope.spawn(move || {
                                    let mut out = Vec::new();
                                    loop {
                                        let i =
                                            next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                        let Some(def) = entity_defs.get(i) else {
                                            break;
                                        };
                                        out.push((i, compute_stats(db, def, n, id_map)));
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
                let mut results: Vec<(usize, Result<PropStats>)> =
                    per_worker.into_iter().flatten().collect();
                results.sort_unstable_by_key(|&(i, _)| i);
                results.into_iter().map(|(_, r)| r).collect()
            } else {
                entity_defs
                    .iter()
                    .map(|def| compute_stats(&db, def, n, &id_map))
                    .collect()
            };

            let mut props = Vec::new();
            for (def, stats) in entity_defs.into_iter().zip(stats_results) {
                let stats = stats?;
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
            entities.insert(
                entity_name.to_string(),
                EntityProps {
                    table: entity_name.to_string(),
                    pk_column,
                    n,
                    props,
                    pk_rows: id_map,
                },
            );
        }

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

/// Map `pk value → value of a column` for a referenced table. Reads the
/// columnar view; dense pk spaces become a flat vector, and the produced
/// `Value`s are `Copy` scalars — no cloning, no hashing on dense lookups.
fn pk_value_map(db: &Database, table: &str, column: &str) -> Result<ValMap> {
    let t = db.table(table)?;
    let pk = t
        .schema()
        .primary_key
        .ok_or_else(|| RelationError::InvalidSchema(format!("{table} needs a primary key")))?;
    let ci = t
        .schema()
        .column_index(column)
        .ok_or_else(|| RelationError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })?;
    let pk_col = t.column(pk);
    let val_col = t.column(ci);
    match IdMap::build(pk_col, t.len()) {
        IdMap::Dense { offset, slots } => {
            let mut vals = vec![Value::Null; slots.len()];
            for (i, &rid) in slots.iter().enumerate() {
                if rid != NO_ROW {
                    vals[i] = val_col.value_at(rid as RowId);
                }
            }
            Ok(ValMap::Dense {
                offset,
                slots: vals,
            })
        }
        IdMap::Sparse(map) => {
            let mut vals = FxHashMap::default();
            vals.reserve(map.len());
            for (&k, &rid) in &map {
                vals.insert(k, val_col.value_at(rid));
            }
            Ok(ValMap::Sparse(vals))
        }
    }
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

/// `pk → attribute value` with the same dense/sparse specialization
/// (`Value::Null` marks empty dense slots; nulls are not stored).
enum ValMap {
    Dense { offset: i64, slots: Vec<Value> },
    Sparse(FxHashMap<i64, Value>),
}

impl ValMap {
    #[inline]
    fn get(&self, key: i64) -> Option<&Value> {
        match self {
            ValMap::Dense { offset, slots } => {
                let idx = key.checked_sub(*offset)?;
                match slots.get(usize::try_from(idx).ok()?) {
                    Some(v) if !v.is_null() => Some(v),
                    _ => None,
                }
            }
            ValMap::Sparse(map) => map.get(&key),
        }
    }
}

/// Add one association to a per-entity `(value, count)` run. Runs hold an
/// entity's *distinct* associated values — a handful in practice — so a
/// linear probe (symbol-id equality, no hashing) beats a map and keeps
/// the run dense for [`DerivedStats::from_runs`].
#[inline]
fn bump_run(run: &mut Vec<(Value, u64)>, v: Value) {
    match run.iter_mut().find(|e| e.0 == v) {
        Some(e) => e.1 += 1,
        None => run.push((v, 1)),
    }
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

/// Compute one property's statistics. Every scan below goes through the
/// shared batch kernels ([`squid_relation::kernel`]): null filtering is
/// done 64 rows at a time on the columnar null words, join keys come from
/// contiguous `i64` slices, the resulting row sets fold through the dense
/// pk maps, and nothing in the inner loops matches a `Value` enum or
/// touches a `String`.
fn compute_stats(
    db: &Database,
    def: &PropertyDef,
    n: usize,
    pk_to_row: &IdMap,
) -> Result<PropStats> {
    let entity_table = db.table(&def.entity)?;
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
            PropStats::Numeric(NumericStats::from_column(entity_table.column(ci), n))
        }
        PropKind::FactCategorical {
            fact,
            fact_entity_col,
            fact_prop_col,
            prop_table,
            prop_column,
        } => {
            let fact_t = db.table(fact)?;
            let fe = fact_t.column(col(db, fact, fact_entity_col)?);
            let fp = fact_t.column(col(db, fact, fact_prop_col)?);
            let prop_values = pk_value_map(db, prop_table, prop_column)?;
            let mut per_entity: Vec<Vec<Value>> = vec![Vec::new(); n];
            kernel::scan_int_pairs(fe, fp, fact_t.len(), |_, e, p| {
                let (Some(rid), Some(v)) = (pk_to_row.get(e), prop_values.get(p)) else {
                    return;
                };
                if !v.is_null() && !per_entity[rid].contains(v) {
                    per_entity[rid].push(*v);
                }
            });
            PropStats::Categorical(CategoricalStats::from_sets(per_entity).map_err(refuse)?)
        }
        PropKind::InlineCategorical {
            fact,
            fact_entity_col,
            column,
        } => {
            let fact_t = db.table(fact)?;
            let fe = fact_t.column(col(db, fact, fact_entity_col)?);
            let fc = fact_t.column(col(db, fact, column)?);
            let mut per_entity: Vec<Vec<Value>> = vec![Vec::new(); n];
            if let Some(fe_vals) = fe.ints() {
                kernel::scan_non_null_pair(fe, fc, fact_t.len(), |row| {
                    let Some(rid) = pk_to_row.get(fe_vals[row]) else {
                        return;
                    };
                    let v = fc.value_at(row);
                    if !per_entity[rid].contains(&v) {
                        per_entity[rid].push(v);
                    }
                });
            }
            PropStats::Categorical(CategoricalStats::from_sets(per_entity).map_err(refuse)?)
        }
        PropKind::FactAttrCount {
            fact,
            fact_entity_col,
            column,
        } => {
            let fact_t = db.table(fact)?;
            let fe = fact_t.column(col(db, fact, fact_entity_col)?);
            let fc = fact_t.column(col(db, fact, column)?);
            // Raw run accumulation: one push per fact row, no per-entity
            // hash maps; `from_runs` sorts and coalesces once per entity.
            let mut per_entity: Vec<Vec<(Value, u64)>> = vec![Vec::new(); n];
            if let Some(fe_vals) = fe.ints() {
                kernel::scan_non_null_pair(fe, fc, fact_t.len(), |row| {
                    let Some(rid) = pk_to_row.get(fe_vals[row]) else {
                        return;
                    };
                    bump_run(&mut per_entity[rid], fc.value_at(row));
                });
            }
            PropStats::Derived(DerivedStats::from_runs(per_entity).map_err(refuse)?)
        }
        PropKind::MidAttrCount {
            fact,
            fact_entity_col,
            fact_mid_col,
            mid_table,
            column,
            numeric,
        } => {
            let fact_t = db.table(fact)?;
            let fe = fact_t.column(col(db, fact, fact_entity_col)?);
            let fm = fact_t.column(col(db, fact, fact_mid_col)?);
            let mid_values = pk_value_map(db, mid_table, column)?;
            if *numeric {
                // (value, count) multisets per entity: raw pushes into
                // per-entity vectors (no hashing in the fact scan); `build`
                // sorts and coalesces once per entity.
                let mut per_entity: Vec<Vec<(f64, u64)>> = vec![Vec::new(); n];
                kernel::scan_int_pairs(fe, fm, fact_t.len(), |_, e, m| {
                    let (Some(rid), Some(v)) = (pk_to_row.get(e), mid_values.get(m)) else {
                        return;
                    };
                    let Some(x) = v.as_float() else { return };
                    per_entity[rid].push((x, 1));
                });
                PropStats::DerivedNumeric(DerivedNumericStats::build(per_entity).map_err(refuse)?)
            } else {
                let mut per_entity: Vec<Vec<(Value, u64)>> = vec![Vec::new(); n];
                kernel::scan_int_pairs(fe, fm, fact_t.len(), |_, e, m| {
                    let (Some(rid), Some(v)) = (pk_to_row.get(e), mid_values.get(m)) else {
                        return;
                    };
                    if !v.is_null() {
                        bump_run(&mut per_entity[rid], *v);
                    }
                });
                PropStats::Derived(DerivedStats::from_runs(per_entity).map_err(refuse)?)
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
            // mid row → property values (a movie's genres), dense by the
            // mid table's row ids so the fact1 scan does no pk hashing.
            let mid_t = db.table(mid_table)?;
            let mid_pk = mid_t.schema().primary_key.ok_or_else(|| {
                RelationError::InvalidSchema(format!("{mid_table} needs a primary key"))
            })?;
            let mid_ids = IdMap::build(mid_t.column(mid_pk), mid_t.len());
            let fact2_t = db.table(fact2)?;
            let f2m = fact2_t.column(col(db, fact2, f2_mid_col)?);
            let f2p = fact2_t.column(col(db, fact2, f2_prop_col)?);
            let prop_values = pk_value_map(db, prop_table, prop_column)?;
            let mut mid_props: Vec<Vec<Value>> = vec![Vec::new(); mid_t.len()];
            // Dangling mid ids (fact rows referencing a pk with no mid
            // row) still join fact1-to-fact2 in the live query, so they
            // must still count here; they go to a sparse side map.
            let mut dangling: FxHashMap<i64, Vec<Value>> = FxHashMap::default();
            kernel::scan_int_pairs(f2m, f2p, fact2_t.len(), |_, m, p| {
                let Some(v) = prop_values.get(p) else {
                    return;
                };
                if v.is_null() {
                    return;
                }
                match mid_ids.get(m) {
                    Some(mid_row) => mid_props[mid_row].push(*v),
                    None => dangling.entry(m).or_default().push(*v),
                }
            });
            let fact1_t = db.table(fact1)?;
            let f1e = fact1_t.column(col(db, fact1, f1_entity_col)?);
            let f1m = fact1_t.column(col(db, fact1, f1_mid_col)?);
            let mut per_entity: Vec<Vec<(Value, u64)>> = vec![Vec::new(); n];
            kernel::scan_int_pairs(f1e, f1m, fact1_t.len(), |_, e, m| {
                let Some(rid) = pk_to_row.get(e) else {
                    return;
                };
                let props = match mid_ids.get(m) {
                    Some(mid_row) => &mid_props[mid_row],
                    None => match dangling.get(&m) {
                        Some(props) => props,
                        None => return,
                    },
                };
                for v in props {
                    bump_run(&mut per_entity[rid], *v);
                }
            });
            PropStats::Derived(DerivedStats::from_runs(per_entity).map_err(refuse)?)
        }
    })
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
            (mid_attr, Value::Float(1990.0), 1, vec!["Ann", "Bob"]),
            (mid_attr, Value::Float(2000.0), 1, vec!["Bob", "Cy"]),
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
    use crate::test_fixtures::mini_imdb;
    use squid_relation::Value;

    /// Parallel and sequential builds must produce identical statistics.
    #[test]
    fn parallel_build_matches_sequential() {
        let db = mini_imdb();
        let seq = ADb::build_with_workers(&db, 1).unwrap();
        let par = ADb::build_with_workers(&db, 4).unwrap();
        assert_eq!(
            seq.build_stats.property_count,
            par.build_stats.property_count
        );
        assert_eq!(
            seq.build_stats.derived_row_count,
            par.build_stats.derived_row_count
        );
        for (name, e_seq) in &seq.entities {
            let e_par = par.entity(name).unwrap();
            assert_eq!(e_seq.props.len(), e_par.props.len());
            for (a, b) in e_seq.props.iter().zip(&e_par.props) {
                assert_eq!(a.def, b.def);
                assert_eq!(a.derived_table, b.derived_table);
                // Spot-check the postings agree.
                if let (PropStats::Derived(x), PropStats::Derived(y)) = (&a.stats, &b.stats) {
                    assert_eq!(
                        x.postings_ge(&Value::text("Comedy"), 3),
                        y.postings_ge(&Value::text("Comedy"), 3)
                    );
                }
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
