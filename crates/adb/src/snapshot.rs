//! Durable single-file αDB snapshots.
//!
//! The paper assumes the αDB is precomputed offline and resident when
//! queries arrive; this module makes that real for the reproduction: an
//! [`ADb`] can be saved to a versioned, checksummed snapshot file and
//! loaded back in a fraction of the generator-rebuild time, so a fleet
//! process restarts in milliseconds instead of re-running the full
//! statistics pass.
//!
//! ## File format (version 2)
//!
//! ```text
//! +----------------+  8 bytes  magic "SQUIDADB"
//! | magic, version |  4 bytes  format version (u32 le) = 2
//! +----------------+
//! | HEADER  frame  |  verification hash + original build stats
//! | INTERNER frame |  symbol id -> string table (save-time ids)
//! | DATABASE frame |  schemas + columnar tables + null bitmaps
//! | INVERTED frame |  inverted-index catalog + postings
//! | ENTITIES frame |  property defs + per-entity stats arenas
//! +----------------+
//! ```
//!
//! Per property, the ENTITIES frame holds the statistics' arenas as they
//! sit in memory (`crate::stats`, "Postings layout"):
//!
//! | kind | per-entity data | postings |
//! |---|---|---|
//! | categorical | value-set lengths, values | per domain value a `u32` row count then its ascending `u32` rows, or the marker `u32::MAX` then one ⌈n/64⌉-word bitmap |
//! | numeric | non-null bitmap, values | distinct values + prefix counts; `(f64 value, u32 row)` pairs ascending by value |
//! | derived | run lengths, run values, run counts, totals | per domain value a length then its `count << 32 \| row` words, ascending |
//! | derived numeric | run lengths, attribute values, counts | cutpoints; per cutpoint a length then its `count << 32 \| row` words, ascending |
//!
//! Version 1 stored derived postings by row with a separate sorted count
//! array, no rows for derived-numeric cutpoints, and every categorical
//! value as a row list. There is one reader: a version 1 file is refused
//! as [`FrameError::Corrupt`] in the preamble and the caller rebuilds, as
//! for any other unreadable snapshot.
//!
//! Each frame is a CRC-32 protected section (`squid_relation::frame`):
//! tag, length, checksum, payload. All multi-byte integers little-endian.
//!
//! ## Interner remapping
//!
//! Text is dictionary-encoded through a process-global interner, so the
//! `u32` symbol ids inside columns, postings, and stats values are only
//! meaningful to the process that wrote them. The snapshot therefore
//! carries the writer's id→string table; the loader re-interns every
//! string and builds an old-id → new-id remap applied to every symbol it
//! decodes. [`squid_relation::NULL_SYM`] passes through unchanged.
//!
//! ## Trust model
//!
//! A snapshot is a *rebuildable cache*, not the source of truth — the
//! generators (or the original data) can always reproduce it. The loader
//! therefore treats the file as untrusted: every read is bounds-checked,
//! declared counts are capped by the bytes present, CRCs cover every
//! payload, and the reconstructed database is verified against the
//! content hash recorded at save time (`db_verification_hash`, the
//! word-wise variant of `db_fingerprint`). Any mismatch surfaces as
//! [`FrameError::Corrupt`]; corruption can never panic, allocate
//! unboundedly, or hand back silently wrong data.
//!
//! Statistics are persisted as their *final* arenas — θ-ordered
//! postings, per-cutpoint postings, sparse and dense value rows — in bulk
//! little-endian arrays, so loading skips the αDB builder's aggregation
//! and sorting work entirely (that is what makes a snapshot load
//! decisively cheaper than a rebuild; only the normalized-fraction
//! distributions are re-derived, from the postings). Memory safety never
//! leans on those arenas: every row index is bounds-checked against the
//! entity count and every array length against the bytes present. The
//! two invariants evaluation reads its answers off are checked per slice
//! as well: postings ascend strictly (a θ-suffix is a binary search, no
//! row repeats), and a dense bitmap sets no bit past the entity count.
//! Agreement between postings and per-entity data is protected by the
//! section CRC rather than re-derived — except the one invariant that
//! cannot survive a process boundary: derived runs are ordered by
//! process-local symbol id, so the loader re-sorts each entity's run
//! under this process's interner.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use squid_relation::frame::{read_section, write_section, ByteReader, ByteWriter, FrameError};
use squid_relation::{
    db_verification_hash, kernel, Column, ColumnBuilder, ColumnData, Database, ForeignKey,
    FrameResult, InvertedIndex, Posting, RowSet, Sym, Table, TableRole, TableSchema, Value,
    NULL_SYM,
};

use crate::build::{next_generation, ADb, BuildStats, EntityProps, Property};
use crate::properties::{PropKind, PropertyDef, QueryFragments};
use crate::stats::{
    posting_count, posting_row, CategoricalStats, DerivedNumericStats, DerivedStats, NumericStats,
    PropStats, ValueRows,
};
use squid_relation::FxHashMap;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SQUIDADB";
/// Current snapshot format version. Version 2 persists the θ-ordered
/// posting arenas and dense categorical bitmaps; there is one reader, so a
/// version 1 file is `Corrupt` and its owner rebuilds.
pub const SNAPSHOT_VERSION: u32 = 2;

const TAG_HEADER: u32 = 0x5351_0001;
const TAG_INTERNER: u32 = 0x5351_0002;
const TAG_DATABASE: u32 = 0x5351_0003;
const TAG_INVERTED: u32 = 0x5351_0004;
const TAG_ENTITIES: u32 = 0x5351_0005;

/// In a categorical value's row-count slot: the rows follow as one bitmap
/// instead of a list of ids.
const DENSE_ROWS: u32 = u32::MAX;

/// Cap on any one section's declared payload length (1 TiB): a corrupted
/// length field fails fast instead of looping over garbage.
const MAX_SECTION: u64 = 1 << 40;

impl ADb {
    /// Serialize this αDB to `path` as a single snapshot file.
    ///
    /// Crash-safe: the snapshot is written to a sibling temp file, synced,
    /// and atomically renamed over `path`, so a crash mid-save leaves any
    /// previous snapshot intact. Returns the snapshot size in bytes.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> FrameResult<u64> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        let bytes = self.save_snapshot_to(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        drop(w);
        fs::rename(&tmp, path)?;
        Ok(bytes)
    }

    /// Serialize this αDB to an arbitrary writer (see [`ADb::save_snapshot`]).
    pub fn save_snapshot_to<W: Write>(&self, w: &mut W) -> FrameResult<u64> {
        let mut written = 0u64;
        w.write_all(SNAPSHOT_MAGIC)?;
        w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        written += 12;
        for (tag, payload) in [
            (TAG_HEADER, self.encode_header()),
            (TAG_INTERNER, encode_interner()),
            (TAG_DATABASE, encode_database(&self.database)),
            (TAG_INVERTED, encode_inverted(&self.inverted)),
            (TAG_ENTITIES, self.encode_entities()),
        ] {
            write_section(w, tag, &payload)?;
            written += (squid_relation::frame::SECTION_HEADER_BYTES + payload.len()) as u64;
        }
        Ok(written)
    }

    /// Load an αDB from a snapshot file written by [`ADb::save_snapshot`].
    ///
    /// The file is treated as untrusted: any truncation, bit flip, version
    /// or fingerprint mismatch yields [`FrameError::Corrupt`] — callers
    /// degrade to a generator rebuild, never crash.
    pub fn load_snapshot(path: impl AsRef<Path>) -> FrameResult<ADb> {
        let file = File::open(path.as_ref())?;
        let mut r = BufReader::new(file);
        Self::load_snapshot_from(&mut r)
    }

    /// Load an αDB snapshot from an arbitrary reader.
    pub fn load_snapshot_from<R: Read>(r: &mut R) -> FrameResult<ADb> {
        let mut preamble = [0u8; 12];
        r.read_exact(&mut preamble).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                FrameError::corrupt("preamble", "file shorter than magic + version")
            } else {
                FrameError::Io(e)
            }
        })?;
        if &preamble[0..8] != SNAPSHOT_MAGIC {
            return Err(FrameError::corrupt("preamble", "bad magic bytes"));
        }
        let version = u32::from_le_bytes(preamble[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(FrameError::corrupt(
                "preamble",
                format!("unsupported snapshot version {version}"),
            ));
        }

        let header = read_section(r, TAG_HEADER, "header", MAX_SECTION)?;
        let (fingerprint, build_stats) = decode_header(&header)?;
        let interner = read_section(r, TAG_INTERNER, "interner", MAX_SECTION)?;
        let remap = decode_interner(&interner)?;
        let database_bytes = read_section(r, TAG_DATABASE, "database", MAX_SECTION)?;
        let database = decode_database(&database_bytes, &remap)?;
        let inverted_bytes = read_section(r, TAG_INVERTED, "inverted", MAX_SECTION)?;
        let entities_bytes = read_section(r, TAG_ENTITIES, "entities", MAX_SECTION)?;

        // The three remaining jobs are independent (all borrow `database`
        // immutably), so they overlap: fingerprint verification and the
        // inverted-index decode run on scoped threads while this thread
        // decodes the (largest) entities section. Errors are still
        // checked in the original order — fingerprint first — so the
        // corruption surface is unchanged.
        let (fp_ok, inverted, entities) = std::thread::scope(|s| {
            let fp = s.spawn(|| db_verification_hash(&database) == fingerprint);
            let inv = s.spawn(|| decode_inverted(&inverted_bytes, &remap));
            let ents = decode_entities(&entities_bytes, &remap, &database);
            (
                fp.join().expect("fingerprint thread"),
                inv.join().expect("inverted thread"),
                ents,
            )
        });
        if !fp_ok {
            return Err(FrameError::corrupt(
                "fingerprint",
                "reconstructed database does not match the fingerprint recorded at save time",
            ));
        }
        let inverted = inverted?;
        let entities = entities?;

        Ok(ADb {
            inverted,
            entities,
            database,
            build_stats,
            // Fresh process-unique generation: evaluation caches keyed by
            // generation must never alias a loaded αDB with any other.
            generation: next_generation(),
        })
    }

    fn encode_header(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(db_verification_hash(&self.database));
        w.put_u64(self.build_stats.build_millis as u64);
        w.put_u64(self.build_stats.property_count as u64);
        w.put_u64(self.build_stats.derived_table_count as u64);
        w.put_u64(self.build_stats.derived_row_count as u64);
        w.put_u64(self.build_stats.original_row_count as u64);
        w.into_bytes()
    }

    fn encode_entities(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let mut names: Vec<&String> = self.entities.keys().collect();
        names.sort();
        w.put_u64(names.len() as u64);
        for name in names {
            let e = &self.entities[name];
            w.put_str(&e.table);
            w.put_str(&e.pk_column);
            w.put_u64(e.n as u64);
            w.put_u64(e.props.len() as u64);
            for p in &e.props {
                encode_property(&mut w, p);
            }
        }
        w.into_bytes()
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

fn decode_header(bytes: &[u8]) -> FrameResult<(u64, BuildStats)> {
    let mut r = ByteReader::new(bytes, "header");
    let fingerprint = r.get_u64()?;
    let stats = BuildStats {
        build_millis: r.get_u64()? as u128,
        property_count: r.get_u64()? as usize,
        derived_table_count: r.get_u64()? as usize,
        derived_row_count: r.get_u64()? as usize,
        original_row_count: r.get_u64()? as usize,
    };
    r.expect_end()?;
    Ok((fingerprint, stats))
}

// ---------------------------------------------------------------------------
// Interner table + symbol remapping
// ---------------------------------------------------------------------------

/// Old-id (writer process) → new-id (this process) symbol translation.
struct SymRemap {
    table: Vec<u32>,
}

impl SymRemap {
    fn map(&self, old: u32, section: &str) -> FrameResult<u32> {
        if old == NULL_SYM {
            return Ok(NULL_SYM);
        }
        self.table.get(old as usize).copied().ok_or_else(|| {
            FrameError::corrupt(section, format!("symbol id {old} outside interner table"))
        })
    }

    fn sym(&self, old: u32, section: &str) -> FrameResult<Sym> {
        Ok(Sym::from_id(self.map(old, section)?))
    }
}

fn encode_interner() -> Vec<u8> {
    let mut w = ByteWriter::new();
    let n = Sym::dictionary_size();
    w.put_u64(n as u64);
    for id in 0..n {
        w.put_str(Sym::from_id(id as u32).as_str());
    }
    w.into_bytes()
}

fn decode_interner(bytes: &[u8]) -> FrameResult<SymRemap> {
    let mut r = ByteReader::new(bytes, "interner");
    // Each dumped string costs at least its 4-byte length prefix.
    let n = r.get_count(4, "interner entry")?;
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        table.push(Sym::intern(r.get_str_ref()?).id());
    }
    r.expect_end()?;
    Ok(SymRemap { table })
}

// ---------------------------------------------------------------------------
// Value codec (stats payloads)
// ---------------------------------------------------------------------------

fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(x) => {
            w.put_u8(1);
            w.put_i64(*x);
        }
        Value::Float(x) => {
            w.put_u8(2);
            w.put_f64(*x);
        }
        Value::Text(s) => {
            w.put_u8(3);
            w.put_u32(s.id());
        }
        Value::Bool(b) => {
            w.put_u8(4);
            w.put_bool(*b);
        }
    }
}

fn get_value(r: &mut ByteReader<'_>, remap: &SymRemap, section: &str) -> FrameResult<Value> {
    match r.get_u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.get_i64()?)),
        2 => Ok(Value::Float(r.get_f64()?)),
        3 => {
            let old = r.get_u32()?;
            Ok(Value::Text(remap.sym(old, section)?))
        }
        4 => Ok(Value::Bool(r.get_bool()?)),
        t => Err(FrameError::corrupt(
            section,
            format!("invalid value tag {t}"),
        )),
    }
}

/// Width-packed `u64` array: one marker byte (4 or 8) then every element
/// at that width. Count arenas are the bulk of a snapshot and their
/// values almost never exceed `u32`, so most arrays ship at half size.
fn put_u64s_packed(w: &mut ByteWriter, xs: &[u64]) {
    if xs.iter().all(|&x| x <= u32::MAX as u64) {
        w.put_u8(4);
        for &x in xs {
            w.put_u32(x as u32);
        }
    } else {
        w.put_u8(8);
        w.put_u64s(xs);
    }
}

/// Read `n` values written by [`put_u64s_packed`].
fn get_u64s_packed(r: &mut ByteReader<'_>, n: usize, section: &str) -> FrameResult<Vec<u64>> {
    match r.get_u8()? {
        4 => Ok(r.get_u32s(n)?.into_iter().map(u64::from).collect()),
        8 => r.get_u64s(n),
        b => Err(FrameError::corrupt(
            section,
            format!("invalid packed-array width {b}"),
        )),
    }
}

// Homogeneity markers for bulk value arrays: stats runs are almost always
// single-typed, so whole arrays encode as one typed block (one bounds
// check, no per-element tag) with a tagged-per-element fallback.
const VALS_TEXT: u8 = 0;
const VALS_INT: u8 = 1;
const VALS_FLOAT: u8 = 2;
const VALS_BOOL: u8 = 3;
const VALS_MIXED: u8 = 4;

fn put_value_list<'v>(w: &mut ByteWriter, vals: impl Iterator<Item = &'v Value> + Clone) {
    let mut marker = None;
    for v in vals.clone() {
        let k = match v {
            Value::Text(_) => VALS_TEXT,
            Value::Int(_) => VALS_INT,
            Value::Float(_) => VALS_FLOAT,
            Value::Bool(_) => VALS_BOOL,
            Value::Null => VALS_MIXED,
        };
        match marker {
            None => marker = Some(k),
            Some(prev) if prev == k => {}
            Some(_) => marker = Some(VALS_MIXED),
        }
        if marker == Some(VALS_MIXED) {
            break;
        }
    }
    let marker = marker.unwrap_or(VALS_MIXED);
    w.put_u8(marker);
    for v in vals {
        match (marker, v) {
            (VALS_TEXT, Value::Text(s)) => w.put_u32(s.id()),
            (VALS_INT, Value::Int(x)) => w.put_i64(*x),
            (VALS_FLOAT, Value::Float(x)) => w.put_f64(*x),
            (VALS_BOOL, Value::Bool(b)) => w.put_bool(*b),
            (VALS_MIXED, v) => put_value(w, v),
            _ => unreachable!("marker matches every element's type"),
        }
    }
}

/// Read exactly `m` values written by [`put_value_list`].
fn get_value_list(
    r: &mut ByteReader<'_>,
    remap: &SymRemap,
    m: usize,
    section: &str,
) -> FrameResult<Vec<Value>> {
    match r.get_u8()? {
        VALS_TEXT => r
            .get_u32s(m)?
            .into_iter()
            .map(|id| remap.sym(id, section).map(Value::Text))
            .collect(),
        VALS_INT => Ok(r
            .get_u64s(m)?
            .into_iter()
            .map(|x| Value::Int(x as i64))
            .collect()),
        VALS_FLOAT => Ok(r.get_f64s(m)?.into_iter().map(Value::Float).collect()),
        VALS_BOOL => r
            .get_bytes(m)?
            .iter()
            .map(|&b| match b {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(FrameError::corrupt(
                    section,
                    format!("invalid bool byte {b:#04x}"),
                )),
            })
            .collect(),
        VALS_MIXED => {
            // Each tagged value costs at least one byte: cap the
            // allocation before trusting the declared count.
            if m > r.remaining() {
                return Err(FrameError::corrupt(
                    section,
                    format!("{m} tagged values exceed {} remaining bytes", r.remaining()),
                ));
            }
            let mut vals = Vec::with_capacity(m);
            for _ in 0..m {
                vals.push(get_value(r, remap, section)?);
            }
            Ok(vals)
        }
        t => Err(FrameError::corrupt(
            section,
            format!("invalid value-array marker {t}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Database (schemas + columnar tables)
// ---------------------------------------------------------------------------

fn encode_database(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(db.meta.non_semantic.len() as u64);
    for (t, c) in &db.meta.non_semantic {
        w.put_str(t);
        w.put_str(c);
    }
    let tables: Vec<&Table> = db.tables().collect();
    w.put_u64(tables.len() as u64);
    for table in tables {
        encode_table(&mut w, table);
    }
    w.into_bytes()
}

fn encode_table(w: &mut ByteWriter, table: &Table) {
    let schema = table.schema();
    w.put_str(&schema.name);
    w.put_u8(schema.role as u8);
    w.put_u64(schema.primary_key.map(|i| i as u64 + 1).unwrap_or(0));
    w.put_u64(schema.columns.len() as u64);
    for col in &schema.columns {
        w.put_str(&col.name);
        w.put_u8(col.dtype as u8);
    }
    w.put_u64(schema.foreign_keys.len() as u64);
    for fk in &schema.foreign_keys {
        w.put_u64(fk.column as u64);
        w.put_str(&fk.ref_table);
        w.put_u64(fk.ref_column as u64);
    }
    let n = table.len();
    w.put_u64(n as u64);
    for ci in 0..schema.columns.len() {
        let cv = table.column(ci);
        let nulls = cv.nulls();
        w.put_u64(nulls.word_count() as u64);
        for wi in 0..nulls.word_count() {
            w.put_u64(nulls.word(wi));
        }
        match (cv.ints(), cv.floats(), cv.syms(), cv.bools()) {
            (Some(xs), _, _, _) => xs.iter().for_each(|x| w.put_i64(*x)),
            (_, Some(xs), _, _) => xs.iter().for_each(|x| w.put_f64(*x)),
            (_, _, Some(xs), _) => xs.iter().for_each(|x| w.put_u32(*x)),
            (_, _, _, Some(xs)) => xs.iter().for_each(|x| w.put_u8(*x as u8)),
            _ => unreachable!("column data matches its dtype"),
        }
    }
}

fn decode_dtype(b: u8, section: &str) -> FrameResult<squid_relation::DataType> {
    use squid_relation::DataType::*;
    match b {
        0 => Ok(Int),
        1 => Ok(Float),
        2 => Ok(Text),
        3 => Ok(Bool),
        _ => Err(FrameError::corrupt(
            section,
            format!("invalid dtype byte {b}"),
        )),
    }
}

fn decode_role(b: u8, section: &str) -> FrameResult<TableRole> {
    match b {
        0 => Ok(TableRole::Entity),
        1 => Ok(TableRole::Property),
        2 => Ok(TableRole::Fact),
        _ => Err(FrameError::corrupt(
            section,
            format!("invalid role byte {b}"),
        )),
    }
}

fn decode_database(bytes: &[u8], remap: &SymRemap) -> FrameResult<Database> {
    const S: &str = "database";
    let mut r = ByteReader::new(bytes, S);
    let mut db = Database::new();
    let n_meta = r.get_count(8, "non-semantic pair")?;
    for _ in 0..n_meta {
        let t = r.get_str()?;
        let c = r.get_str()?;
        db.meta.non_semantic.push((t, c));
    }
    let n_tables = r.get_count(8, "table")?;
    for _ in 0..n_tables {
        let table = decode_table(&mut r, remap)?;
        db.add_table(table)
            .map_err(|e| FrameError::corrupt(S, format!("table rejected: {e}")))?;
    }
    r.expect_end()?;
    Ok(db)
}

fn decode_table(r: &mut ByteReader<'_>, remap: &SymRemap) -> FrameResult<Table> {
    const S: &str = "database";
    let name = r.get_str()?;
    let role = decode_role(r.get_u8()?, S)?;
    let pk = r.get_u64()?;
    let n_cols = r.get_count(5, "column")?;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let cname = r.get_str()?;
        let dtype = decode_dtype(r.get_u8()?, S)?;
        columns.push(Column::new(cname, dtype));
    }
    if pk > n_cols as u64 {
        return Err(FrameError::corrupt(
            S,
            format!("table {name}: primary key index {pk} out of range"),
        ));
    }
    let n_fks = r.get_count(8, "foreign key")?;
    let mut foreign_keys = Vec::with_capacity(n_fks);
    for _ in 0..n_fks {
        let column = r.get_u64()? as usize;
        let ref_table = r.get_str()?;
        let ref_column = r.get_u64()? as usize;
        if column >= n_cols {
            return Err(FrameError::corrupt(
                S,
                format!("table {name}: foreign key column {column} out of range"),
            ));
        }
        foreign_keys.push(ForeignKey {
            column,
            ref_table,
            ref_column,
        });
    }
    let mut schema = TableSchema::new(name.clone(), columns).with_role(role);
    schema.primary_key = (pk > 0).then(|| pk as usize - 1);
    schema.foreign_keys = foreign_keys;

    let n_rows = r.get_count(1, "row")?;
    let mut builders: Vec<ColumnBuilder> = Vec::with_capacity(schema.columns.len());
    for col in schema.columns.clone() {
        let n_words = r.get_count(8, "null word")?;
        if n_words > n_rows.div_ceil(64) {
            return Err(FrameError::corrupt(
                S,
                format!("table {name}: {n_words} null words for {n_rows} rows"),
            ));
        }
        let words = r.get_u64s(n_words)?;
        // A set bit at or beyond `n_rows` would address a cell that does
        // not exist; reject it here so the bulk fixup loops below can
        // index with every set bit unchecked.
        if let Some(&last) = words.last() {
            if n_words == n_rows.div_ceil(64) && n_rows % 64 != 0 && last >> (n_rows % 64) != 0 {
                return Err(FrameError::corrupt(
                    S,
                    format!("table {name}: null bitmap sets rows beyond {n_rows}"),
                ));
            }
        }
        // `from_words` recomputes the set cardinality by popcount, so a
        // corrupted bitmap cannot desynchronize the length bookkeeping.
        let nulls = RowSet::from_words(words);
        use squid_relation::DataType::*;
        // Whole-column bulk reads into the typed storage, then sparse
        // sentinel fixups at the null positions: one bounds check and one
        // allocation per column, no per-cell branch on the bitmap.
        let data = match col.dtype {
            Int => {
                let raw = r.get_bytes(n_rows.checked_mul(8).ok_or_else(|| {
                    FrameError::corrupt(S, format!("table {name}: int column overflows"))
                })?)?;
                let mut xs: Vec<i64> = raw
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                for row in nulls.iter() {
                    xs[row] = 0;
                }
                ColumnData::Int(xs)
            }
            Float => {
                let raw = r.get_bytes(n_rows.checked_mul(8).ok_or_else(|| {
                    FrameError::corrupt(S, format!("table {name}: float column overflows"))
                })?)?;
                let mut xs: Vec<f64> = raw
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect();
                for row in nulls.iter() {
                    xs[row] = 0.0;
                }
                ColumnData::Float(xs)
            }
            Text => {
                let raw = r.get_bytes(n_rows.checked_mul(4).ok_or_else(|| {
                    FrameError::corrupt(S, format!("table {name}: text column overflows"))
                })?)?;
                let mut xs: Vec<u32> = Vec::with_capacity(n_rows);
                for c in raw.chunks_exact(4) {
                    let old = u32::from_le_bytes(c.try_into().expect("4 bytes"));
                    xs.push(if old == NULL_SYM {
                        NULL_SYM
                    } else {
                        remap.sym(old, S)?.id()
                    });
                }
                for row in nulls.iter() {
                    xs[row] = NULL_SYM;
                }
                ColumnData::Text(xs)
            }
            Bool => {
                let raw = r.get_bytes(n_rows)?;
                let mut xs: Vec<bool> = raw.iter().map(|&v| v != 0).collect();
                for row in nulls.iter() {
                    xs[row] = false;
                }
                ColumnData::Bool(xs)
            }
        };
        builders.push(ColumnBuilder::from_parts(data, nulls));
    }
    Table::from_columns(schema, builders)
        .map_err(|e| FrameError::corrupt(S, format!("table {name} rejected: {e}")))
}

// ---------------------------------------------------------------------------
// Inverted index
// ---------------------------------------------------------------------------

fn encode_inverted(idx: &InvertedIndex) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let catalog = idx.table_catalog();
    w.put_u64(catalog.len() as u64);
    for t in catalog {
        w.put_str(t);
    }
    let mut entries: Vec<(Sym, &[Posting])> = idx.entries().collect();
    entries.sort_by_key(|(s, _)| s.id());
    w.put_u64(entries.len() as u64);
    for (sym, postings) in entries {
        w.put_u32(sym.id());
        w.put_u64(postings.len() as u64);
        for p in postings {
            w.put_u16(p.table);
            w.put_u16(p.column);
            w.put_u32(p.row);
        }
    }
    w.into_bytes()
}

fn decode_inverted(bytes: &[u8], remap: &SymRemap) -> FrameResult<InvertedIndex> {
    const S: &str = "inverted";
    let mut r = ByteReader::new(bytes, S);
    let n_tables = r.get_count(4, "catalog entry")?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(r.get_str()?);
    }
    let n_entries = r.get_count(12, "index entry")?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let sym = remap.sym(r.get_u32()?, S)?;
        let n_postings = r.get_count(8, "posting")?;
        let mut postings = Vec::with_capacity(n_postings);
        for _ in 0..n_postings {
            let table = r.get_u16()?;
            let column = r.get_u16()?;
            let row = r.get_u32()?;
            if table as usize >= n_tables {
                return Err(FrameError::corrupt(
                    S,
                    format!("posting table id {table} outside catalog"),
                ));
            }
            postings.push(Posting { table, column, row });
        }
        entries.push((sym, postings));
    }
    r.expect_end()?;
    Ok(InvertedIndex::from_parts(tables, entries))
}

// ---------------------------------------------------------------------------
// Entities: property definitions + statistics
// ---------------------------------------------------------------------------

fn encode_property(w: &mut ByteWriter, p: &Property) {
    w.put_str(&p.def.id);
    w.put_str(&p.def.entity);
    w.put_str(&p.def.attr_name);
    encode_kind(w, &p.def.kind);
    match &p.derived_table {
        None => w.put_bool(false),
        Some(t) => {
            w.put_bool(true);
            w.put_str(t);
        }
    }
    encode_stats(w, &p.stats);
}

/// Serialize one property's statistics as final arenas (see the module
/// docs): per-entity data plus the postings the constructors computed at
/// build time, so the loader never re-aggregates. Assumes
/// constructor-built stats (true for every [`ADb::build`] output): value
/// counts and fraction distributions are re-derived on load from the
/// persisted postings.
fn encode_stats(w: &mut ByteWriter, stats: &PropStats) {
    fn run_len(len: usize) -> u32 {
        u32::try_from(len).expect("per-entity run exceeds u32 range")
    }
    fn row_id(row: usize) -> u32 {
        u32::try_from(row).expect("entity row exceeds u32 range")
    }
    match stats {
        PropStats::Categorical(s) => {
            w.put_u8(0);
            let n = s.per_entity.len();
            w.put_u64(n as u64);
            for vals in &s.per_entity {
                w.put_u32(run_len(vals.len()));
            }
            put_value_list(w, s.per_entity.iter().flatten());
            let mut dom: Vec<&Value> = s.value_entity_counts.keys().collect();
            dom.sort();
            w.put_u64(dom.len() as u64);
            put_value_list(w, dom.iter().copied());
            // Each value's rows in the encoding they are held in: a row
            // count then (below) that many ascending ids, or `DENSE_ROWS`
            // then one bitmap of ⌈n/64⌉ words.
            let rows: Vec<Option<&ValueRows>> = dom.iter().map(|v| s.rows_with(v)).collect();
            for r in &rows {
                w.put_u32(match r {
                    Some(ValueRows::Sparse(ids)) => run_len(ids.len()),
                    Some(ValueRows::Dense(_)) => DENSE_ROWS,
                    None => 0,
                });
            }
            for r in &rows {
                if let Some(ValueRows::Sparse(ids)) = r {
                    w.put_u32s(ids);
                }
            }
            for r in &rows {
                if let Some(ValueRows::Dense(set)) = r {
                    (0..n.div_ceil(64)).for_each(|i| w.put_u64(set.word(i)));
                }
            }
        }
        PropStats::Numeric(s) => {
            w.put_u8(1);
            let n = s.per_entity.len();
            w.put_u64(n as u64);
            let mut words = vec![0u64; n.div_ceil(64)];
            for (i, v) in s.per_entity.iter().enumerate() {
                if v.is_some() {
                    words[i / 64] |= 1 << (i % 64);
                }
            }
            w.put_u64s(&words);
            for v in &s.per_entity {
                w.put_f64(v.unwrap_or(0.0));
            }
            w.put_u64(s.sorted_values.len() as u64);
            w.put_f64s(&s.sorted_values);
            let prefix: Vec<u64> = s.prefix.iter().map(|&p| p as u64).collect();
            put_u64s_packed(w, &prefix);
            w.put_u64(s.sorted_rows.len() as u64);
            for &(x, row) in &s.sorted_rows {
                w.put_f64(x);
                w.put_u32(row_id(row));
            }
        }
        PropStats::Derived(s) => {
            w.put_u8(2);
            let n = s.entity_count();
            w.put_u64(n as u64);
            for row in 0..n {
                w.put_u32(run_len(s.counts_of(row).len()));
            }
            put_value_list(
                w,
                (0..n).flat_map(|row| s.counts_of(row).iter().map(|(v, _)| v)),
            );
            let counts: Vec<u64> = (0..n)
                .flat_map(|row| s.counts_of(row).iter().map(|&(_, c)| c))
                .collect();
            put_u64s_packed(w, &counts);
            put_u64s_packed(w, &s.entity_totals);
            let mut dom: Vec<&Value> = s.theta_postings.keys().collect();
            dom.sort();
            w.put_u64(dom.len() as u64);
            put_value_list(w, dom.iter().copied());
            for v in &dom {
                w.put_u32(run_len(s.theta_postings[*v].len()));
            }
            for v in &dom {
                w.put_u64s(&s.theta_postings[*v]);
            }
        }
        PropStats::DerivedNumeric(s) => {
            w.put_u8(3);
            let n = s.per_entity.len();
            w.put_u64(n as u64);
            for run in &s.per_entity {
                w.put_u32(run_len(run.len()));
            }
            for run in &s.per_entity {
                for &(x, _) in run {
                    w.put_f64(x);
                }
            }
            let counts: Vec<u64> = s
                .per_entity
                .iter()
                .flat_map(|run| run.iter().map(|&(_, c)| c))
                .collect();
            put_u64s_packed(w, &counts);
            w.put_u64(s.cutpoints.len() as u64);
            w.put_f64s(&s.cutpoints);
            for postings in &s.per_cut_postings {
                w.put_u32(run_len(postings.len()));
            }
            for postings in &s.per_cut_postings {
                w.put_u64s(postings);
            }
        }
    }
}

fn encode_kind(w: &mut ByteWriter, kind: &PropKind) {
    match kind {
        PropKind::DirectCategorical { column } => {
            w.put_u8(0);
            w.put_str(column);
        }
        PropKind::DirectNumeric { column } => {
            w.put_u8(1);
            w.put_str(column);
        }
        PropKind::FactCategorical {
            fact,
            fact_entity_col,
            fact_prop_col,
            prop_table,
            prop_column,
        } => {
            w.put_u8(2);
            w.put_str(fact);
            w.put_str(fact_entity_col);
            w.put_str(fact_prop_col);
            w.put_str(prop_table);
            w.put_str(prop_column);
        }
        PropKind::InlineCategorical {
            fact,
            fact_entity_col,
            column,
        } => {
            w.put_u8(3);
            w.put_str(fact);
            w.put_str(fact_entity_col);
            w.put_str(column);
        }
        PropKind::FactAttrCount {
            fact,
            fact_entity_col,
            column,
        } => {
            w.put_u8(4);
            w.put_str(fact);
            w.put_str(fact_entity_col);
            w.put_str(column);
        }
        PropKind::MidAttrCount {
            fact,
            fact_entity_col,
            fact_mid_col,
            mid_table,
            column,
            numeric,
        } => {
            w.put_u8(5);
            w.put_str(fact);
            w.put_str(fact_entity_col);
            w.put_str(fact_mid_col);
            w.put_str(mid_table);
            w.put_str(column);
            w.put_bool(*numeric);
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
            w.put_u8(6);
            w.put_str(fact1);
            w.put_str(f1_entity_col);
            w.put_str(f1_mid_col);
            w.put_str(mid_table);
            w.put_str(fact2);
            w.put_str(f2_mid_col);
            w.put_str(f2_prop_col);
            w.put_str(prop_table);
            w.put_str(prop_column);
        }
    }
}

fn decode_kind(r: &mut ByteReader<'_>, section: &str) -> FrameResult<PropKind> {
    Ok(match r.get_u8()? {
        0 => PropKind::DirectCategorical {
            column: r.get_str()?,
        },
        1 => PropKind::DirectNumeric {
            column: r.get_str()?,
        },
        2 => PropKind::FactCategorical {
            fact: r.get_str()?,
            fact_entity_col: r.get_str()?,
            fact_prop_col: r.get_str()?,
            prop_table: r.get_str()?,
            prop_column: r.get_str()?,
        },
        3 => PropKind::InlineCategorical {
            fact: r.get_str()?,
            fact_entity_col: r.get_str()?,
            column: r.get_str()?,
        },
        4 => PropKind::FactAttrCount {
            fact: r.get_str()?,
            fact_entity_col: r.get_str()?,
            column: r.get_str()?,
        },
        5 => PropKind::MidAttrCount {
            fact: r.get_str()?,
            fact_entity_col: r.get_str()?,
            fact_mid_col: r.get_str()?,
            mid_table: r.get_str()?,
            column: r.get_str()?,
            numeric: r.get_bool()?,
        },
        6 => PropKind::TwoHopCount {
            fact1: r.get_str()?,
            f1_entity_col: r.get_str()?,
            f1_mid_col: r.get_str()?,
            mid_table: r.get_str()?,
            fact2: r.get_str()?,
            f2_mid_col: r.get_str()?,
            f2_prop_col: r.get_str()?,
            prop_table: r.get_str()?,
            prop_column: r.get_str()?,
        },
        t => {
            return Err(FrameError::corrupt(
                section,
                format!("invalid property kind tag {t}"),
            ))
        }
    })
}

/// Decode one property's statistics from their persisted arenas (the
/// inverse of [`encode_stats`]): per-entity data and the postings computed
/// by the saving process's constructors — no aggregation re-runs here.
/// Every row index is validated against the entity count `n` so a
/// corrupted posting can never index (or allocate) out of bounds
/// downstream, and every posting slice is checked to ascend.
fn decode_stats(r: &mut ByteReader<'_>, remap: &SymRemap, section: &str) -> FrameResult<PropStats> {
    fn check_row(row: u32, n: usize, what: &str, section: &str) -> FrameResult<usize> {
        let row = row as usize;
        if row >= n {
            return Err(FrameError::corrupt(
                section,
                format!("{what} row {row} outside {n} entities"),
            ));
        }
        Ok(row)
    }
    /// One posting slice as evaluation relies on it: strictly ascending
    /// (so a θ-suffix is a binary search and no row repeats), every row
    /// inside the `n` entities.
    fn check_ascending<T: Copy + Ord>(
        postings: &[T],
        row_of: impl Fn(T) -> usize,
        n: usize,
        what: &str,
        section: &str,
    ) -> FrameResult<()> {
        if let Some(&p) = postings.iter().find(|&&p| row_of(p) >= n) {
            return Err(FrameError::corrupt(
                section,
                format!("{what} row {} outside {n} entities", row_of(p)),
            ));
        }
        if postings.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FrameError::corrupt(
                section,
                format!("{what}s are not ascending"),
            ));
        }
        Ok(())
    }
    /// Sum validated run lengths into `n + 1` arena offsets; the total
    /// must fit the `u32` arena addressing.
    fn offsets_from_lens(lens: &[u32], section: &str) -> FrameResult<(Vec<u32>, usize)> {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut total = 0u64;
        offsets.push(0);
        for &l in lens {
            total += l as u64;
            if total > u32::MAX as u64 {
                return Err(FrameError::corrupt(
                    section,
                    "stats arena exceeds u32 range",
                ));
            }
            offsets.push(total as u32);
        }
        Ok((offsets, total as usize))
    }

    Ok(match r.get_u8()? {
        0 => {
            let n = r.get_count(4, "categorical entity")?;
            let lens = r.get_u32s(n)?;
            let (offsets, m) = offsets_from_lens(&lens, section)?;
            let flat = get_value_list(r, remap, m, section)?;
            let per_entity: Vec<Vec<Value>> = offsets
                .windows(2)
                .map(|w| flat[w[0] as usize..w[1] as usize].to_vec())
                .collect();
            let dom = r.get_count(5, "categorical domain value")?;
            let dvals = get_value_list(r, remap, dom, section)?;
            let marks = r.get_u32s(dom)?;
            let sparse_lens: Vec<u32> = marks
                .iter()
                .filter(|&&m| m != DENSE_ROWS)
                .copied()
                .collect();
            let (roffs, rm) = offsets_from_lens(&sparse_lens, section)?;
            let rows_flat = r.get_u32s(rm)?;
            let words_per_set = n.div_ceil(64);
            let dense_words = (dom - sparse_lens.len())
                .checked_mul(words_per_set)
                .ok_or_else(|| FrameError::corrupt(section, "dense bitmaps overflow"))?;
            let words_flat = r.get_u64s(dense_words)?;
            let mut value_entity_counts = FxHashMap::default();
            let mut value_rows = FxHashMap::default();
            value_entity_counts.reserve(dom);
            value_rows.reserve(dom);
            let (mut sparse_seen, mut dense_seen) = (0, 0);
            for (v, mark) in dvals.into_iter().zip(marks) {
                let rows = if mark == DENSE_ROWS {
                    let words = &words_flat[dense_seen * words_per_set..][..words_per_set];
                    dense_seen += 1;
                    if n % 64 != 0 && words.last().is_some_and(|last| last >> (n % 64) != 0) {
                        return Err(FrameError::corrupt(
                            section,
                            format!("categorical bitmap sets rows beyond {n} entities"),
                        ));
                    }
                    ValueRows::Dense(RowSet::from_words(words.to_vec()))
                } else {
                    let ids =
                        &rows_flat[roffs[sparse_seen] as usize..roffs[sparse_seen + 1] as usize];
                    sparse_seen += 1;
                    check_ascending(ids, |id| id as usize, n, "categorical posting", section)?;
                    ValueRows::Sparse(ids.to_vec())
                };
                value_entity_counts.insert(v, rows.len());
                value_rows.insert(v, rows);
            }
            PropStats::Categorical(CategoricalStats {
                value_entity_counts,
                per_entity,
                value_rows,
            })
        }
        1 => {
            let n = r.get_count(8, "numeric entity")?;
            let words = r.get_u64s(n.div_ceil(64))?;
            let vals = r.get_f64s(n)?;
            let per_entity: Vec<Option<f64>> = (0..n)
                .map(|i| (words[i / 64] >> (i % 64) & 1 == 1).then(|| vals[i]))
                .collect();
            let k = r.get_count(12, "numeric distinct value")?;
            let sorted_values = r.get_f64s(k)?;
            let prefix: Vec<usize> = get_u64s_packed(r, k, section)?
                .into_iter()
                .map(|x| x as usize)
                .collect();
            let s = r.get_count(12, "numeric posting")?;
            let mut sorted_rows = Vec::with_capacity(s);
            for _ in 0..s {
                let x = r.get_f64()?;
                let row = check_row(r.get_u32()?, n, "numeric posting", section)?;
                sorted_rows.push((x, row));
            }
            PropStats::Numeric(NumericStats {
                sorted_values,
                prefix,
                per_entity,
                sorted_rows,
            })
        }
        2 => {
            let n = r.get_count(4, "derived entity")?;
            let lens = r.get_u32s(n)?;
            let (offsets, m) = offsets_from_lens(&lens, section)?;
            let vals = get_value_list(r, remap, m, section)?;
            let counts = get_u64s_packed(r, m, section)?;
            let runs: Vec<(Value, u64)> = vals.into_iter().zip(counts).collect();
            let entity_totals = get_u64s_packed(r, n, section)?;
            let dom = r.get_count(5, "derived domain value")?;
            let dvals = get_value_list(r, remap, dom, section)?;
            let plens = r.get_u32s(dom)?;
            let (poffs, pm) = offsets_from_lens(&plens, section)?;
            let pflat = r.get_u64s(pm)?;
            let mut theta_postings = FxHashMap::default();
            let mut value_frac_dists = FxHashMap::default();
            theta_postings.reserve(dom);
            value_frac_dists.reserve(dom);
            for (i, v) in dvals.into_iter().enumerate() {
                let postings = &pflat[poffs[i] as usize..poffs[i + 1] as usize];
                check_ascending(postings, posting_row, n, "derived posting", section)?;
                let mut fd: Vec<f64> = postings
                    .iter()
                    .map(|&p| match entity_totals[posting_row(p)] {
                        0 => 0.0,
                        total => posting_count(p) as f64 / total as f64,
                    })
                    .collect();
                fd.sort_by(f64::total_cmp);
                theta_postings.insert(v, postings.to_vec());
                value_frac_dists.insert(v, fd);
            }
            PropStats::Derived(DerivedStats::from_arenas(
                runs,
                offsets,
                entity_totals,
                theta_postings,
                value_frac_dists,
            ))
        }
        3 => {
            let n = r.get_count(4, "derived-numeric entity")?;
            let lens = r.get_u32s(n)?;
            let (offsets, m) = offsets_from_lens(&lens, section)?;
            let xs = r.get_f64s(m)?;
            let cs = get_u64s_packed(r, m, section)?;
            let flat: Vec<(f64, u64)> = xs.into_iter().zip(cs).collect();
            let per_entity: Vec<Vec<(f64, u64)>> = offsets
                .windows(2)
                .map(|w| flat[w[0] as usize..w[1] as usize].to_vec())
                .collect();
            let k = r.get_count(12, "cutpoint")?;
            let cutpoints = r.get_f64s(k)?;
            let dlens = r.get_u32s(k)?;
            let (doffs, dm) = offsets_from_lens(&dlens, section)?;
            let dflat = r.get_u64s(dm)?;
            let per_cut_postings = doffs
                .windows(2)
                .map(|w| {
                    let postings = &dflat[w[0] as usize..w[1] as usize];
                    check_ascending(postings, posting_row, n, "derived-numeric posting", section)?;
                    Ok(postings.to_vec())
                })
                .collect::<FrameResult<Vec<Vec<u64>>>>()?;
            PropStats::DerivedNumeric(DerivedNumericStats {
                per_entity,
                cutpoints,
                per_cut_postings,
            })
        }
        t => {
            return Err(FrameError::corrupt(
                section,
                format!("invalid stats tag {t}"),
            ))
        }
    })
}

fn decode_entities(
    bytes: &[u8],
    remap: &SymRemap,
    database: &Database,
) -> FrameResult<FxHashMap<String, EntityProps>> {
    const S: &str = "entities";
    let mut r = ByteReader::new(bytes, S);
    let n_entities = r.get_count(8, "entity")?;
    let mut entities: FxHashMap<String, EntityProps> = FxHashMap::default();
    for _ in 0..n_entities {
        let table_name = r.get_str()?;
        let pk_column = r.get_str()?;
        let n = r.get_u64()? as usize;
        let table = database.table(&table_name).map_err(|_| {
            FrameError::corrupt(S, format!("entity table {table_name} not in database"))
        })?;
        if table.len() != n {
            return Err(FrameError::corrupt(
                S,
                format!(
                    "entity {table_name}: recorded {n} rows, table has {}",
                    table.len()
                ),
            ));
        }
        let pk_idx = table
            .schema()
            .primary_key
            .filter(|&i| table.schema().columns[i].name == pk_column)
            .ok_or_else(|| {
                FrameError::corrupt(
                    S,
                    format!("entity {table_name}: primary key {pk_column} mismatch"),
                )
            })?;

        let n_props = r.get_count(8, "property")?;
        let mut props = Vec::with_capacity(n_props);
        for _ in 0..n_props {
            let id = r.get_str()?;
            let entity = r.get_str()?;
            let attr_name = r.get_str()?;
            let kind = decode_kind(&mut r, S)?;
            let derived_table = r.get_bool()?.then(|| r.get_str()).transpose()?;
            if let Some(dt) = &derived_table {
                if database.table(dt).is_err() {
                    return Err(FrameError::corrupt(
                        S,
                        format!("property {id}: derived table {dt} not in database"),
                    ));
                }
            }
            let stats = decode_stats(&mut r, remap, S)?;
            let def = PropertyDef {
                id,
                entity,
                attr_name,
                kind,
            };
            props.push(Property {
                id_sym: Sym::intern(&def.id),
                attr_sym: Sym::intern(&def.attr_name),
                fragments: QueryFragments::build(&def, &pk_column, derived_table.as_deref()),
                stats,
                def,
                derived_table,
            });
        }
        // The pk→row map is rebuilt from the (fingerprint-verified) table,
        // not deserialized: it can never disagree with the data it indexes.
        let mut pk_to_row: FxHashMap<i64, squid_relation::RowId> = FxHashMap::default();
        pk_to_row.reserve(n);
        kernel::scan_ints(table.column(pk_idx), n, |rid, pk| {
            pk_to_row.insert(pk, rid);
        });
        entities.insert(
            table_name.clone(),
            EntityProps {
                table: table_name,
                pk_column,
                n,
                props,
                pk_to_row,
            },
        );
    }
    r.expect_end()?;
    Ok(entities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::mini_imdb;
    use squid_relation::db_fingerprint;
    use squid_relation::frame::failpoint::flip_bit;

    fn adb() -> ADb {
        ADb::build(&mini_imdb()).unwrap()
    }

    fn snapshot_bytes(a: &ADb) -> Vec<u8> {
        let mut buf = Vec::new();
        a.save_snapshot_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let a = adb();
        let bytes = snapshot_bytes(&a);
        let b = ADb::load_snapshot_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(db_fingerprint(&a.database), db_fingerprint(&b.database));
        assert_ne!(
            a.generation, b.generation,
            "loaded αDB gets a fresh generation"
        );
        assert_eq!(a.build_stats.property_count, b.build_stats.property_count);
        // Entity property spaces match def-for-def.
        assert_eq!(a.entities.len(), b.entities.len());
        for (name, ea) in &a.entities {
            let eb = &b.entities[name];
            assert_eq!(ea.pk_column, eb.pk_column);
            assert_eq!(ea.n, eb.n);
            assert_eq!(ea.pk_to_row, eb.pk_to_row);
            assert_eq!(ea.props.len(), eb.props.len());
            for (pa, pb) in ea.props.iter().zip(&eb.props) {
                assert_eq!(pa.def, pb.def);
                assert_eq!(pa.derived_table, pb.derived_table);
            }
        }
        // Inverted index answers identically.
        for probe in ["comedy", "action", "usa", "nobody such"] {
            let la: Vec<_> = a
                .inverted
                .lookup(probe)
                .iter()
                .map(|p| (a.inverted.table_name(p).to_string(), p.column, p.row))
                .collect();
            let lb: Vec<_> = b
                .inverted
                .lookup(probe)
                .iter()
                .map(|p| (b.inverted.table_name(p).to_string(), p.column, p.row))
                .collect();
            assert_eq!(la, lb, "lookup({probe})");
        }
    }

    #[test]
    fn save_to_disk_and_load_back() {
        let a = adb();
        let dir = std::env::temp_dir().join("squid_snapshot_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.snap");
        let bytes = a.save_snapshot(&path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let b = ADb::load_snapshot(&path).unwrap();
        assert_eq!(db_fingerprint(&a.database), db_fingerprint(&b.database));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let a = adb();
        let mut bytes = snapshot_bytes(&a);
        bytes[0] ^= 0xFF;
        let err = ADb::load_snapshot_from(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt { .. }), "{err}");
    }

    /// There is no dual-format reader: a file that announces the previous
    /// format is refused before any section is read, and the caller's
    /// rebuild fallback takes over.
    #[test]
    fn a_version_1_preamble_is_corrupt() {
        let mut bytes = snapshot_bytes(&adb());
        assert_eq!(bytes[8..12], 2u32.to_le_bytes());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        match ADb::load_snapshot_from(&mut bytes.as_slice()) {
            Err(FrameError::Corrupt { section, detail }) => {
                assert_eq!(section, "preamble");
                assert!(detail.contains("version 1"), "{detail}");
            }
            other => panic!("want Corrupt in the preamble, got {:?}", other.map(|_| ())),
        }
    }

    /// A round trip reproduces every statistics arena, not just what the
    /// database fingerprint covers.
    #[test]
    fn round_trip_reproduces_the_statistics_arenas() {
        let a = adb();
        let b = ADb::load_snapshot_from(&mut snapshot_bytes(&a).as_slice()).unwrap();
        for (name, ea) in &a.entities {
            for (pa, pb) in ea.props.iter().zip(&b.entities[name].props) {
                assert!(pa.stats == pb.stats, "{} drifted", pa.def.id);
                assert!(pb.stats.enumerable());
            }
        }
    }

    /// Decode one hand-built statistics payload over Int values (no symbol
    /// table needed).
    fn decode(payload: ByteWriter) -> FrameResult<PropStats> {
        let bytes = payload.into_bytes();
        let mut r = ByteReader::new(&bytes, "entities");
        let stats = decode_stats(&mut r, &SymRemap { table: Vec::new() }, "entities")?;
        r.expect_end()?;
        Ok(stats)
    }

    fn corrupt_detail(result: FrameResult<PropStats>) -> String {
        match result {
            Err(FrameError::Corrupt { detail, .. }) => detail,
            other => panic!("want Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    /// A derived section of 3 entities, entity 0 and 2 associated with
    /// value 7, whose postings for 7 are `postings`.
    fn derived_section(postings: &[u64]) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_u8(2);
        w.put_u64(3);
        w.put_u32s(&[1, 0, 1]);
        put_value_list(&mut w, [Value::Int(7), Value::Int(7)].iter());
        put_u64s_packed(&mut w, &[2, 5]);
        put_u64s_packed(&mut w, &[2, 0, 5]);
        w.put_u64(1);
        put_value_list(&mut w, [Value::Int(7)].iter());
        w.put_u32(postings.len() as u32);
        w.put_u64s(postings);
        w
    }

    /// A categorical section of 70 entities (two bitmap words, six tail
    /// bits) with one domain value encoded as `mark` + `rows` / `words`.
    fn categorical_section(mark: u32, rows: &[u32], words: &[u64]) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u64(70);
        w.put_u32s(&[0; 70]);
        put_value_list(&mut w, [].iter());
        w.put_u64(1);
        put_value_list(&mut w, [Value::Int(7)].iter());
        w.put_u32(mark);
        w.put_u32s(rows);
        w.put_u64s(words);
        w
    }

    #[test]
    fn hand_built_posting_sections_are_checked_slice_by_slice() {
        // As the builder writes them: count 2 on row 0, count 5 on row 2.
        let PropStats::Derived(s) = decode(derived_section(&[2 << 32, 5 << 32 | 2])).unwrap()
        else {
            panic!("derived");
        };
        assert_eq!(s.postings_ge(&Value::Int(7), 3), &[5 << 32 | 2]);
        assert_eq!(s.selectivity(&Value::Int(7), 1, 3), 2.0 / 3.0);
        // A descending count, a repeated posting, a row past the entities.
        let d = corrupt_detail(decode(derived_section(&[5 << 32 | 2, 2 << 32])));
        assert!(d.contains("not ascending"), "{d}");
        let d = corrupt_detail(decode(derived_section(&[2 << 32, 2 << 32])));
        assert!(d.contains("not ascending"), "{d}");
        let d = corrupt_detail(decode(derived_section(&[2 << 32, 5 << 32 | 3])));
        assert!(d.contains("row 3 outside 3 entities"), "{d}");

        // The same three for a derived-numeric cutpoint.
        let cut_section = |postings: &[u64]| {
            let mut w = ByteWriter::new();
            w.put_u8(3);
            w.put_u64(3);
            w.put_u32s(&[1, 0, 1]);
            w.put_f64s(&[2001.0, 2001.0]);
            put_u64s_packed(&mut w, &[2, 5]);
            w.put_u64(1);
            w.put_f64s(&[2001.0]);
            w.put_u32(postings.len() as u32);
            w.put_u64s(postings);
            w
        };
        let PropStats::DerivedNumeric(s) = decode(cut_section(&[2 << 32, 5 << 32 | 2])).unwrap()
        else {
            panic!("derived numeric");
        };
        assert_eq!(s.postings_ge(2001.0, 3), &[5 << 32 | 2]);
        let d = corrupt_detail(decode(cut_section(&[5 << 32 | 2, 2 << 32])));
        assert!(d.contains("not ascending"), "{d}");
        let d = corrupt_detail(decode(cut_section(&[2 << 32, 5 << 32 | 7])));
        assert!(d.contains("row 7 outside 3 entities"), "{d}");

        // Categorical: a sparse list, then a bitmap, as the builder writes
        // them; then rows out of order, a row past the entities, a bitmap
        // with a tail bit set, and a bitmap cut short.
        let PropStats::Categorical(s) = decode(categorical_section(2, &[3, 69], &[])).unwrap()
        else {
            panic!("categorical");
        };
        assert_eq!(
            s.rows_with(&Value::Int(7)),
            Some(&ValueRows::Sparse(vec![3, 69]))
        );
        assert_eq!(s.value_entity_counts[&Value::Int(7)], 2);
        let PropStats::Categorical(s) =
            decode(categorical_section(DENSE_ROWS, &[], &[0b1001, 1 << 5])).unwrap()
        else {
            panic!("categorical");
        };
        assert_eq!(
            s.rows_with(&Value::Int(7)),
            Some(&ValueRows::Dense([0, 3, 69].into_iter().collect()))
        );
        assert_eq!(s.value_entity_counts[&Value::Int(7)], 3);
        let d = corrupt_detail(decode(categorical_section(2, &[69, 3], &[])));
        assert!(d.contains("not ascending"), "{d}");
        let d = corrupt_detail(decode(categorical_section(2, &[3, 70], &[])));
        assert!(d.contains("row 70 outside 70 entities"), "{d}");
        let d = corrupt_detail(decode(categorical_section(DENSE_ROWS, &[], &[1, 1 << 6])));
        assert!(d.contains("beyond 70 entities"), "{d}");
        corrupt_detail(decode(categorical_section(DENSE_ROWS, &[], &[1])));
    }

    #[test]
    fn truncation_at_every_eighth_byte_is_corrupt_never_panic() {
        let a = adb();
        let bytes = snapshot_bytes(&a);
        for cut in (0..bytes.len()).step_by(8) {
            let res = ADb::load_snapshot_from(&mut &bytes[..cut]);
            assert!(
                matches!(res, Err(FrameError::Corrupt { .. })),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn single_bit_flips_are_always_rejected() {
        let a = adb();
        let bytes = snapshot_bytes(&a);
        // Deterministic sample of bit positions across the whole file.
        let total_bits = bytes.len() * 8;
        for i in 0..200 {
            let bit = (i * 7919) % total_bits;
            let mut corrupted = bytes.clone();
            flip_bit(&mut corrupted, bit);
            match ADb::load_snapshot_from(&mut corrupted.as_slice()) {
                Err(FrameError::Corrupt { .. }) => {}
                Err(FrameError::Io(e)) => panic!("bit {bit}: io error {e}, want Corrupt"),
                Ok(_) => panic!("bit {bit} flip loaded successfully"),
            }
        }
    }
}
