//! Durable single-file αDB snapshots.
//!
//! The αDB is a deterministic function of the database (paper Section 5
//! computes it offline for exactly that reason). A snapshot therefore holds
//! its *input*, not its output: the original tables. Loading decodes the
//! tables and runs the build over them, so the statistics and the inverted
//! index are recomputed in the loading process, never read from a file, and
//! the derived relations are built on first SQL use
//! ([`ADb::query_database`]) as after any build. What the snapshot buys is
//! a self-contained αDB source: a fleet process restarts, and a standby
//! bootstraps from its primary, without the dataset generators.
//!
//! ## File format (version 6)
//!
//! ```text
//! +-----------------+  8 bytes  magic "SQUIDADB"
//! | magic, version  |  4 bytes  format version (u32 le) = 6
//! +-----------------+
//! | HEADER   record |  verification hash of the tables
//! | INTERNER record |  symbol id -> string table (save-time ids)
//! | DATABASE record |  the original tables: schemas, columns, null bitmaps
//! +-----------------+
//! ```
//!
//! Each section is one record of the workspace's framing
//! (`squid_relation::frame`: length, CRC-32, payload), and each payload
//! opens with its section tag (`u32`). Nothing follows the DATABASE
//! record. All multi-byte integers are little-endian.
//!
//! The DATABASE section holds [`ADb::database`], which is exactly the
//! original tables. The build has no setting that changes its output (the
//! worker count does not), so none is recorded.
//!
//! Versions 1 and 2 also persisted the inverted index and the statistics
//! arenas; version 3 recorded a switch for materializing the derived
//! relations at build time; version 4 framed its sections with a 16-byte
//! header of its own; version 5 recorded a bound on derived-numeric
//! domains, which version 6 dropped with the bound. There is one reader: an
//! older file is refused as [`FrameError::Corrupt`] in the preamble and the
//! caller rebuilds, as for any other unreadable snapshot.
//!
//! ## Interner remapping
//!
//! Text is dictionary-encoded through a process-global interner, so the
//! `u32` symbol ids inside text columns are only meaningful to the process
//! that wrote them. The snapshot therefore carries the writer's id→string
//! table; the loader re-interns every string and remaps every text cell
//! it decodes. [`squid_relation::NULL_SYM`] passes through unchanged.
//!
//! ## Trust model
//!
//! A snapshot is a *rebuildable cache*, not the source of truth — the
//! generators (or the original data) can always reproduce it. The loader
//! treats the file as untrusted: every read is bounds-checked, declared
//! counts are capped by the bytes present, CRCs cover every payload, and
//! the decoded tables are verified against the content hash recorded at
//! save time (`db_verification_hash`). Any mismatch surfaces as
//! [`FrameError::Corrupt`]; corruption can never panic, allocate
//! unboundedly, or hand back silently wrong data.
//!
//! Float cells must be canonical ([`squid_relation::Real::new`]): a
//! table never stores a NaN or `-0.0`, so a file holding one is refused as
//! [`FrameError::Corrupt`], never decoded into a table no write could
//! make. That covers a crafted file and one written by an older build
//! that stored such cells; its owner rebuilds, as for any unreadable
//! snapshot.
//!
//! The statistics are computed, not read: no posting, count or row id
//! comes from the file, so the invariants evaluation reads its answers off
//! (ascending postings, rows inside the entity count, runs ordered under
//! this process's interner) hold by construction, exactly as after a
//! generator build.
//!
//! ## What a load costs
//!
//! Each phase of [`ADb::load_snapshot_from`] on the IMDb slate, 2-core
//! x86-64 host, file in the page cache, best of 2–3 runs in one process.
//! CRC and verification hash are also inside "decode"; "build" is
//! [`ADb::build`] over the decoded tables, before and after the build
//! groups fact rows per entity and codes values per referenced row:
//!
//! | scale | file | read | CRC | decode | hash | build before | build after |
//! |---|---|---|---|---|---|---|---|
//! | 10× | 15.3 MB | 1.6–2.4 ms | 7.8–8.7 ms | 40–48 ms | 6.9–7.2 ms | 207–236 ms | 106–119 ms |
//! | 100× | 154 MB | 60–62 ms | 79 ms | 592–634 ms | 76–78 ms | 3.56–3.57 s | 1.67–1.72 s |
//!
//! An αDB image (the tables plus the arenas and the inverted index) would
//! hold about `ADb::heap_bytes` — 72.5 MB at 10× and 724 MB at 100×,
//! 4.7× today's file. At the read and CRC rates above (2.5 and 1.9 GB/s)
//! reading and checking it alone would take about 0.66 s at 100×, before
//! any decoding or validation; a rebuild-free load would have to beat a
//! quarter of the 1.7 s build, 0.43 s, to be worth a second format. So the
//! snapshot stays the database.

use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use squid_relation::frame::{next_record, put_record, ByteReader, ByteWriter, FrameError};
use squid_relation::{
    db_verification_hash, Column, ColumnBuilder, ColumnData, DataType, Database, ForeignKey,
    FrameResult, RowSet, Sym, Table, TableRole, TableSchema, NULL_SYM,
};

use crate::build::ADb;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SQUIDADB";
/// Current snapshot format version. Version 6 holds the original tables
/// and their verification hash in three records; there is one reader, so
/// a version 1 to 5 file is `Corrupt` and its owner rebuilds.
pub const SNAPSHOT_VERSION: u32 = 6;

const TAG_HEADER: u32 = 0x5351_0001;
const TAG_INTERNER: u32 = 0x5351_0002;
const TAG_DATABASE: u32 = 0x5351_0003;

/// Cap on any one section's payload length: the record format's own
/// limit, since a snapshot is read whole and its length fields are
/// checked against the bytes present.
const MAX_SECTION: u32 = u32::MAX;

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
        write_snapshot(&self.database, w)
    }

    /// Load an αDB from a snapshot file written by [`ADb::save_snapshot`].
    ///
    /// The file is treated as untrusted: any truncation, bit flip, version
    /// or fingerprint mismatch yields [`FrameError::Corrupt`] — callers
    /// degrade to a generator rebuild, never crash.
    pub fn load_snapshot(path: impl AsRef<Path>) -> FrameResult<ADb> {
        Self::load_snapshot_from(&mut File::open(path.as_ref())?)
    }

    /// Load an αDB snapshot from an arbitrary reader: read it to the end,
    /// decode and verify the tables, and drop the snapshot bytes before
    /// the build, so the load peak holds the tables once.
    pub fn load_snapshot_from<R: Read>(r: &mut R) -> FrameResult<ADb> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let database = decode_snapshot(&bytes)?;
        drop(bytes);
        build_loaded(database)
    }

    /// Load an αDB from snapshot bytes already in memory (a replication
    /// frame's payload): decode the tables, verify them against the
    /// recorded hash, and build the αDB over them.
    pub fn load_snapshot_bytes(bytes: &[u8]) -> FrameResult<ADb> {
        build_loaded(decode_snapshot(bytes)?)
    }
}

/// Write the snapshot of `db` to `w`; returns the bytes written.
fn write_snapshot<W: Write>(db: &Database, w: &mut W) -> FrameResult<u64> {
    w.write_all(SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    let mut header = section(TAG_HEADER);
    header.put_u64(db_verification_hash(&db.meta, db.tables()));
    let mut written = 12;
    for payload in [header.into_bytes(), encode_interner(), encode_database(db)] {
        written += put_record(w, &payload, MAX_SECTION)? as u64;
    }
    Ok(written)
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// A section payload's writer, opened with its tag.
fn section(tag: u32) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.put_u32(tag);
    w
}

/// Read the record at the front of `rest`, demand section tag `tag`, and
/// advance `rest` past it; the reader is positioned after the tag.
fn next_section<'a>(
    rest: &mut &'a [u8],
    tag: u32,
    name: &'static str,
) -> FrameResult<ByteReader<'a>> {
    let (payload, consumed) = next_record(rest, MAX_SECTION)
        .map_err(|e| FrameError::corrupt(name, e.to_string()))?
        .ok_or_else(|| FrameError::corrupt(name, "truncated"))?;
    *rest = &rest[consumed..];
    let mut r = ByteReader::new(payload, name);
    let got = r.get_u32()?;
    if got != tag {
        return Err(FrameError::corrupt(
            name,
            format!("bad section tag {got:#010x}, expected {tag:#010x}"),
        ));
    }
    Ok(r)
}

/// Decode a whole snapshot into its verified tables.
fn decode_snapshot(bytes: &[u8]) -> FrameResult<Database> {
    let mut r = ByteReader::new(bytes, "preamble");
    if r.get_bytes(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err(FrameError::corrupt("preamble", "bad magic bytes"));
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(FrameError::corrupt(
            "preamble",
            format!("unsupported snapshot version {version}"),
        ));
    }
    let mut rest = r.get_bytes(r.remaining())?;
    let hash = decode_header(next_section(&mut rest, TAG_HEADER, "header")?)?;
    let remap = decode_interner(next_section(&mut rest, TAG_INTERNER, "interner")?)?;
    let database = decode_database(next_section(&mut rest, TAG_DATABASE, "database")?, &remap)?;
    if !rest.is_empty() {
        return Err(FrameError::corrupt(
            "database",
            format!("{} bytes follow the last section", rest.len()),
        ));
    }
    if db_verification_hash(&database.meta, database.tables()) != hash {
        return Err(FrameError::corrupt(
            "fingerprint",
            "decoded tables do not match the hash recorded at save time",
        ));
    }
    Ok(database)
}

fn build_loaded(database: Database) -> FrameResult<ADb> {
    ADb::build(&database)
        .map_err(|e| FrameError::corrupt("database", format!("αDB build failed: {e}")))
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

fn decode_header(mut r: ByteReader<'_>) -> FrameResult<u64> {
    let hash = r.get_u64()?;
    r.expect_end()?;
    Ok(hash)
}

// ---------------------------------------------------------------------------
// Interner table + symbol remapping
// ---------------------------------------------------------------------------

/// Old-id (writer process) → new-id (this process) symbol translation.
struct SymRemap {
    table: Vec<u32>,
}

impl SymRemap {
    fn map(&self, old: u32) -> FrameResult<u32> {
        if old == NULL_SYM {
            return Ok(NULL_SYM);
        }
        self.table.get(old as usize).copied().ok_or_else(|| {
            FrameError::corrupt(
                "database",
                format!("symbol id {old} outside interner table"),
            )
        })
    }
}

fn encode_interner() -> Vec<u8> {
    let mut w = section(TAG_INTERNER);
    let n = Sym::dictionary_size();
    w.put_u64(n as u64);
    for id in 0..n {
        w.put_str(Sym::from_id(id as u32).as_str());
    }
    w.into_bytes()
}

fn decode_interner(mut r: ByteReader<'_>) -> FrameResult<SymRemap> {
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
// Database (schemas + columnar tables)
// ---------------------------------------------------------------------------

fn encode_database(db: &Database) -> Vec<u8> {
    let mut w = section(TAG_DATABASE);
    w.put_u64(db.meta.non_semantic.len() as u64);
    for (t, c) in &db.meta.non_semantic {
        w.put_str(t);
        w.put_str(c);
    }
    w.put_u64(db.tables().count() as u64);
    for table in db.tables() {
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
        match cv.data() {
            ColumnData::Int(xs) => xs.iter().for_each(|x| w.put_i64(*x)),
            ColumnData::Float(xs) => xs.iter().for_each(|x| w.put_f64(*x)),
            ColumnData::Text(xs) => xs.iter().for_each(|x| w.put_u32(*x)),
            ColumnData::Bool(xs) => xs.iter().for_each(|x| w.put_u8(*x as u8)),
        }
    }
}

fn decode_dtype(b: u8, section: &str) -> FrameResult<DataType> {
    match b {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Bool),
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

fn decode_database(mut r: ByteReader<'_>, remap: &SymRemap) -> FrameResult<Database> {
    const S: &str = "database";
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
        let width = match col.dtype {
            DataType::Int | DataType::Float => 8,
            DataType::Text => 4,
            DataType::Bool => 1,
        };
        let raw =
            r.get_bytes(n_rows.checked_mul(width).ok_or_else(|| {
                FrameError::corrupt(S, format!("table {name}: column overflows"))
            })?)?;
        // Whole-column bulk reads into the typed storage, then sparse
        // sentinel fixups at the null positions: one bounds check and one
        // allocation per column, no per-cell branch on the bitmap.
        let data = match col.dtype {
            DataType::Int => {
                let mut xs: Vec<i64> = raw
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect();
                nulls.iter().for_each(|row| xs[row] = 0);
                ColumnData::Int(xs)
            }
            DataType::Float => {
                let mut xs: Vec<f64> = raw
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect();
                nulls.iter().for_each(|row| xs[row] = 0.0);
                ColumnData::Float(xs)
            }
            DataType::Text => {
                let mut xs = raw
                    .chunks_exact(4)
                    .map(|c| remap.map(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
                    .collect::<FrameResult<Vec<u32>>>()?;
                nulls.iter().for_each(|row| xs[row] = NULL_SYM);
                ColumnData::Text(xs)
            }
            DataType::Bool => {
                let mut xs: Vec<bool> = raw.iter().map(|&v| v != 0).collect();
                nulls.iter().for_each(|row| xs[row] = false);
                ColumnData::Bool(xs)
            }
        };
        let column = ColumnBuilder::from_parts(data, nulls)
            .map_err(|e| FrameError::corrupt(S, format!("table {name}: {e}")))?;
        builders.push(column);
    }
    Table::from_columns(schema, builders)
        .map_err(|e| FrameError::corrupt(S, format!("table {name} rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{edge_cases, mini_imdb};
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
            assert_eq!(ea.pk_rows, eb.pk_rows);
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

    /// The DATABASE section is the database the build read: every original
    /// table, no derived relation.
    #[test]
    fn the_database_section_holds_the_original_tables_only() {
        let a = adb();
        assert!(a.build_stats.derived_table_count > 0);
        let bytes = snapshot_bytes(&a);
        let mut r = &bytes[12..];
        let header = next_section(&mut r, TAG_HEADER, "header").unwrap();
        let hash = decode_header(header).unwrap();
        let remap =
            decode_interner(next_section(&mut r, TAG_INTERNER, "interner").unwrap()).unwrap();
        let db = decode_database(
            next_section(&mut r, TAG_DATABASE, "database").unwrap(),
            &remap,
        )
        .unwrap();
        assert!(r.is_empty(), "nothing follows the DATABASE section");
        assert_eq!(db_fingerprint(&db), db_fingerprint(&mini_imdb()));
        assert_eq!(hash, db_verification_hash(&db.meta, db.tables()));
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

    /// Patch the version field of a fresh snapshot to `version` and demand
    /// the loader refuse it before reading any section.
    fn assert_version_refused(version: u32) {
        let mut bytes = snapshot_bytes(&adb());
        assert_eq!(bytes[8..12], SNAPSHOT_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match ADb::load_snapshot_from(&mut bytes.as_slice()) {
            Err(FrameError::Corrupt { section, detail }) => {
                assert_eq!(section, "preamble");
                assert!(detail.contains(&format!("version {version}")), "{detail}");
            }
            other => panic!("want Corrupt in the preamble, got {:?}", other.map(|_| ())),
        }
    }

    /// There is no dual-format reader: a file that announces an older
    /// format is refused, and the caller's rebuild fallback takes over.
    #[test]
    fn a_version_1_preamble_is_corrupt() {
        assert_version_refused(1);
    }

    /// Version 2 persisted the statistics arenas; its files are refused
    /// exactly as version 1 files are.
    #[test]
    fn a_version_2_preamble_is_corrupt() {
        assert_version_refused(2);
    }

    /// Version 3 recorded the derived-relation materialization switch in
    /// its header; its files are refused like the older ones.
    #[test]
    fn a_version_3_preamble_is_corrupt() {
        assert_version_refused(3);
    }

    /// Version 4 framed its sections with a 16-byte header of its own
    /// (`tag u32 | len u64 | crc u32`); its files are refused like the
    /// older ones.
    #[test]
    fn a_version_4_preamble_is_corrupt() {
        assert_version_refused(4);
    }

    /// Version 5 recorded a derived-numeric domain bound in its header;
    /// its files are refused like the older ones.
    #[test]
    fn a_version_5_preamble_is_corrupt() {
        assert_version_refused(5);
    }

    /// Each section's payload opens with its tag: records that are valid
    /// on their own but arrive in the wrong order are corrupt.
    #[test]
    fn a_swapped_section_is_corrupt() {
        let bytes = snapshot_bytes(&adb());
        let (_, header_len) = next_record(&bytes[12..], MAX_SECTION).unwrap().unwrap();
        let (_, interner_len) = next_record(&bytes[12 + header_len..], MAX_SECTION)
            .unwrap()
            .unwrap();
        let mut swapped = bytes[..12].to_vec();
        swapped.extend_from_slice(&bytes[12 + header_len..12 + header_len + interner_len]);
        swapped.extend_from_slice(&bytes[12..12 + header_len]);
        swapped.extend_from_slice(&bytes[12 + header_len + interner_len..]);
        match ADb::load_snapshot_from(&mut swapped.as_slice()) {
            Err(FrameError::Corrupt { section, detail }) => {
                assert_eq!(section, "header");
                assert!(detail.contains("bad section tag"), "{detail}");
            }
            other => panic!("want a tag mismatch, got {:?}", other.map(|_| ())),
        }
    }

    /// Tables that decode cleanly but differ from what was saved fail the
    /// hash check (the header record is re-sealed so only the hash can
    /// catch the change).
    #[test]
    fn a_table_hash_mismatch_is_corrupt() {
        let bytes = snapshot_bytes(&adb());
        let (header, consumed) = next_record(&bytes[12..], MAX_SECTION).unwrap().unwrap();
        let mut header = header.to_vec();
        header[4] ^= 1; // the hash's low byte, after the section tag
        let mut resealed = bytes[..12].to_vec();
        put_record(&mut resealed, &header, MAX_SECTION).unwrap();
        resealed.extend_from_slice(&bytes[12 + consumed..]);
        let bytes = resealed;
        match ADb::load_snapshot_from(&mut bytes.as_slice()) {
            Err(FrameError::Corrupt { section, .. }) => assert_eq!(section, "fingerprint"),
            other => panic!("want a fingerprint mismatch, got {:?}", other.map(|_| ())),
        }
    }

    /// The edge-case fixture inserts NaN, `-0.0` and `0.0` years: they
    /// are stored as NULL, `0.0` and `0.0`, and a snapshot round trip
    /// keeps exactly that. (`table::tests::float_cells_are_stored_canonical`
    /// runs the same values through the column builders.)
    #[test]
    fn edge_case_floats_are_stored_canonical_and_survive_a_round_trip() {
        let db = edge_cases();
        let years = |db: &Database| -> Vec<Option<u64>> {
            let movie = db.table("movie").unwrap();
            let col = movie.column(movie.schema().column_index("year").unwrap());
            (0..movie.len())
                .map(|r| col.float_at(r).map(f64::to_bits))
                .collect()
        };
        // Movies 1 (NaN), 50 000 (-0.0), 3 (0.0), 900 000 (NULL), 12, 8.
        let want = vec![
            None,
            Some(0),
            Some(0),
            None,
            Some(2077f64.to_bits()),
            Some(1990.5f64.to_bits()),
        ];
        assert_eq!(years(&db), want, "insert");
        let mut bytes = Vec::new();
        write_snapshot(&db, &mut bytes).unwrap();
        let loaded = ADb::load_snapshot_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(years(&loaded.database), want, "snapshot round trip");
    }

    /// A file whose float cells are not canonical — crafted, or written by
    /// a build that stored a NaN or `-0.0` — is refused, whatever its hash
    /// and CRCs say. The file is a valid snapshot with one float cell of
    /// its database section patched and the record resealed.
    #[test]
    fn a_non_canonical_float_cell_is_corrupt() {
        let schema = TableSchema::new("t", vec![Column::new("x", DataType::Float)]);
        let mut column = ColumnBuilder::new(DataType::Float);
        column.push_float(1.0);
        column.push_float(4321.125);
        let mut db = Database::new();
        db.add_table(Table::from_columns(schema, vec![column]).unwrap())
            .unwrap();
        let mut bytes = Vec::new();
        write_snapshot(&db, &mut bytes).unwrap();
        let (_, header_len) = next_record(&bytes[12..], MAX_SECTION).unwrap().unwrap();
        let (_, interner_len) = next_record(&bytes[12 + header_len..], MAX_SECTION)
            .unwrap()
            .unwrap();
        let at = 12 + header_len + interner_len;
        let (database, _) = next_record(&bytes[at..], MAX_SECTION).unwrap().unwrap();
        let cell = 4321.125f64.to_le_bytes();
        let found: Vec<usize> = (0..database.len() - 7)
            .filter(|&i| database[i..i + 8] == cell)
            .collect();
        assert_eq!(found.len(), 1, "the cell's bytes occur once");
        for x in [-0.0, f64::NAN, -f64::NAN] {
            let mut patched = database.to_vec();
            patched[found[0]..found[0] + 8].copy_from_slice(&x.to_le_bytes());
            let mut resealed = bytes[..at].to_vec();
            put_record(&mut resealed, &patched, MAX_SECTION).unwrap();
            match ADb::load_snapshot_from(&mut resealed.as_slice()) {
                Err(FrameError::Corrupt { section, detail }) => {
                    assert_eq!(section, "database");
                    assert!(detail.contains("float cell 1 is not canonical"), "{detail}");
                }
                other => panic!("{x}: want Corrupt, got {:?}", other.map(|_| ())),
            }
        }
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
