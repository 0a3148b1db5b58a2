//! End-to-end durability invariants over the full generated slates: a
//! snapshot round-trip must be observably identical to the αDB it came
//! from on *every* pinned dataset, any single damaged bit must be rejected
//! with a clean [`FrameError::Corrupt`] (never a panic, never a silently
//! wrong αDB), and a journaled fleet killed at an arbitrary byte must
//! recover to the exact state of a fleet that never crashed.

use std::sync::Arc;

use proptest::prelude::*;
use squid_adb::{ADb, PropStats};
use squid_core::{FsyncPolicy, Journal, SessionManager, SessionOp};
use squid_datasets::{
    generate_dblp, generate_imdb, generate_imdb_variant, DblpConfig, ImdbConfig, ImdbVariant,
};
use squid_relation::frame::failpoint::{flip_bit, FailpointWriter};
use squid_relation::{db_fingerprint, Database, FrameError};

/// The seven pinned slates of `tests/dataset_invariants.rs`, with their
/// recorded fingerprints. A snapshot round-trip must land exactly on the
/// pinned value — proving save → load preserves content through the
/// interner remap, not merely that it is self-consistent.
fn slates() -> Vec<(&'static str, Database, u64)> {
    let var_cfg = ImdbConfig {
        persons: 150,
        movies: 90,
        ..ImdbConfig::tiny()
    };
    vec![
        (
            "imdb-tiny",
            generate_imdb(&ImdbConfig::tiny()),
            0xcaa273adfa2c97bc,
        ),
        (
            "imdb-default",
            generate_imdb(&ImdbConfig::default()),
            0x6697c984f58429eb,
        ),
        (
            "imdb-small",
            generate_imdb_variant(&var_cfg, ImdbVariant::Small),
            0x0696364988d4e282,
        ),
        (
            "imdb-big-sparse",
            generate_imdb_variant(&var_cfg, ImdbVariant::BigSparse),
            0x1f1ccc541cafe640,
        ),
        (
            "imdb-big-dense",
            generate_imdb_variant(&var_cfg, ImdbVariant::BigDense),
            0x344744220393e37a,
        ),
        (
            "dblp-tiny",
            generate_dblp(&DblpConfig::tiny()),
            0xdda4afb8d6c415e0,
        ),
        (
            "dblp-default",
            generate_dblp(&DblpConfig::default()),
            0xb6107de0dffa2eca,
        ),
    ]
}

/// Two example names from the slate's own entity table (`person` for
/// IMDb, `author` for DBLP), so discovery runs on every slate.
fn examples(db: &Database) -> Vec<&'static str> {
    let table = ["person", "author"]
        .into_iter()
        .find_map(|t| db.table(t).ok())
        .expect("an entity table");
    let name = table.schema().column_index("name").expect("a name column");
    (1..3)
        .map(|row| table.column(name).value_at(row).as_text().expect("a name"))
        .collect()
}

/// Save `adb`, load it back, and demand the loaded αDB agree with the
/// built one on the database fingerprint, every property's statistics,
/// the build counts and the SQL discovery abduces from `examples`.
/// Returns how many properties of each statistics kind were compared.
fn assert_round_trip(name: &str, adb: &ADb, examples: &[&str]) -> [usize; 4] {
    let mut buf = Vec::new();
    adb.save_snapshot_to(&mut buf).unwrap();
    let loaded = ADb::load_snapshot_from(&mut buf.as_slice())
        .unwrap_or_else(|e| panic!("{name}: load failed: {e}"));
    // `adb.database` is exactly the slate (the derived relations live in
    // `query_database`, built on first SQL use), so save → load must land
    // on the same content.
    assert_eq!(
        db_fingerprint(&loaded.database),
        db_fingerprint(&adb.database),
        "{name}: content drifted across the snapshot round trip"
    );
    let counts = |a: &ADb| {
        let s = &a.build_stats;
        (
            s.property_count,
            s.derived_table_count,
            s.derived_row_count,
            s.original_row_count,
        )
    };
    assert_eq!(counts(&loaded), counts(adb), "{name}: build counts");
    assert_ne!(
        loaded.generation, adb.generation,
        "{name}: generation must be fresh"
    );
    // The loader rebuilds the statistics, so they come back value for
    // value — θ-ordered postings, derived-numeric θ-lists, sparse and dense
    // value rows.
    let mut kinds = [0usize; 4];
    for (table, built) in &adb.entities {
        let reloaded = &loaded.entities[table];
        assert_eq!(built.props.len(), reloaded.props.len(), "{name}: {table}");
        for (a, b) in built.props.iter().zip(&reloaded.props) {
            assert!(a.stats == b.stats, "{name}: {} drifted", a.def.id);
            kinds[match a.stats {
                PropStats::Categorical(_) => 0,
                PropStats::Numeric(_) => 1,
                PropStats::Derived(_) => 2,
                PropStats::DerivedNumeric(_) => 3,
            }] += 1;
        }
    }
    let sql = |a: &ADb| {
        squid_core::Squid::new(a)
            .discover(examples)
            .map(|d| d.sql())
    };
    let built_sql = sql(adb).unwrap_or_else(|e| panic!("{name}: discovery failed: {e}"));
    assert_eq!(sql(&loaded).unwrap(), built_sql, "{name}: discovery SQL");
    kinds
}

#[test]
fn snapshot_round_trip_is_fingerprint_identical_for_every_slate() {
    let mut kinds = [0usize; 4];
    for (name, db, pinned) in slates() {
        assert_eq!(db_fingerprint(&db), pinned, "{name}: generator drifted");
        let adb = ADb::build(&db).unwrap();
        assert_eq!(db_fingerprint(&adb.database), pinned, "{name}: αDB tables");
        let seen = assert_round_trip(name, &adb, &examples(&db));
        kinds.iter_mut().zip(seen).for_each(|(k, s)| *k += s);
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "a kind went unseen: {kinds:?}"
    );
}

/// A generated table holds no more heap than the same table decoded from a
/// snapshot: `Table::from_columns` trims each pushed column's cells and
/// null bitmap to their length, as the decoder sizes them (IMDb 1×, both
/// after `ADb::build`).
#[test]
fn generated_and_reloaded_tables_hold_equal_heap() {
    let adb = ADb::build(&generate_imdb(&ImdbConfig::default())).unwrap();
    let mut buf = Vec::new();
    adb.save_snapshot_to(&mut buf).unwrap();
    let loaded = ADb::load_snapshot_from(&mut buf.as_slice()).unwrap();
    let per_table = |a: &ADb| -> Vec<(String, usize)> {
        a.database
            .tables()
            .map(|t| (t.name().to_string(), t.heap_bytes()))
            .collect()
    };
    assert_eq!(per_table(&adb), per_table(&loaded));
    assert_eq!(adb.heap_bytes().tables, loaded.heap_bytes().tables);
}

/// Discovery over a snapshot-loaded αDB must abduce the same query as over
/// the αDB it was saved from (the interner remap must be transparent to
/// the whole online phase, not just the fingerprint).
#[test]
fn discovery_is_identical_on_a_reloaded_snapshot() {
    let db = generate_imdb(&ImdbConfig::tiny());
    let adb = ADb::build(&db).unwrap();
    let mut buf = Vec::new();
    adb.save_snapshot_to(&mut buf).unwrap();
    let loaded = ADb::load_snapshot_from(&mut buf.as_slice()).unwrap();

    let examples = ["Person 000012", "Person 000034"];
    let a = squid_core::Squid::new(&adb).discover(&examples).unwrap();
    let b = squid_core::Squid::new(&loaded).discover(&examples).unwrap();
    assert_eq!(a.sql(), b.sql());
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.entity_table, b.entity_table);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single flipped bit anywhere in a snapshot is rejected with
    /// `Corrupt` — never a panic, never an `Ok` αDB built from damaged
    /// bytes.
    #[test]
    fn corrupt_snapshot_bits_are_always_rejected(bit_seed in 0u64..1_000_000) {
        let db = generate_imdb(&ImdbConfig::tiny());
        let adb = ADb::build(&db).unwrap();
        let mut buf = Vec::new();
        adb.save_snapshot_to(&mut buf).unwrap();
        let bit = (bit_seed as usize) % (buf.len() * 8);
        flip_bit(&mut buf, bit);
        let result = std::panic::catch_unwind(move || {
            ADb::load_snapshot_from(&mut buf.as_slice()).map(|_| ())
        });
        let loaded = result.unwrap_or_else(|_| panic!("bit {bit}: load panicked"));
        match loaded {
            Err(FrameError::Corrupt { .. }) => {}
            Err(FrameError::Io(e)) => panic!("bit {bit}: expected Corrupt, got Io: {e}"),
            Ok(()) => panic!("bit {bit}: damaged snapshot loaded successfully"),
        }
    }

    /// A snapshot truncated at any byte is rejected with `Corrupt`.
    #[test]
    fn truncated_snapshots_are_always_rejected(cut_seed in 0u64..1_000_000) {
        let db = generate_imdb(&ImdbConfig::tiny());
        let adb = ADb::build(&db).unwrap();
        let mut buf = Vec::new();
        adb.save_snapshot_to(&mut buf).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        buf.truncate(cut);
        match ADb::load_snapshot_from(&mut buf.as_slice()) {
            Err(FrameError::Corrupt { .. }) => {}
            Err(FrameError::Io(e)) => panic!("cut {cut}: expected Corrupt, got Io: {e}"),
            Ok(_) => panic!("cut {cut}: truncated snapshot loaded successfully"),
        }
    }

    /// Kill the journal writer at an arbitrary byte mid-stream; recovery
    /// must reconstruct exactly the sessions whose records were fully
    /// written — bit-identical to a fleet that only ever executed that
    /// prefix.
    #[test]
    fn journal_killed_at_any_byte_recovers_a_clean_prefix(kill_seed in 0u64..1_000_000) {
        let dir = std::env::temp_dir().join("squid_durability_it");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("kill_{kill_seed}.journal"));
        let _ = std::fs::remove_file(&path);

        let db = squid_adb::test_fixtures::mini_imdb();
        let adb = Arc::new(ADb::build(&db).unwrap());
        let ops: Vec<SessionOp> = vec![
            SessionOp::AddExample("Jim Carrey".into()),
            SessionOp::AddExample("Eddie Murphy".into()),
            SessionOp::PinFilter("gender".into()),
            SessionOp::AddExample("Robin Williams".into()),
            SessionOp::UnpinFilter("gender".into()),
        ];

        // Write the full journal once to learn its length, then replay the
        // same appends through a FailpointWriter that dies at `limit`.
        let full = {
            let m = SessionManager::new(Arc::clone(&adb));
            m.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
            let id = m.create_session();
            for op in &ops {
                m.apply_op(id, op).unwrap();
            }
            m.journal_sync().unwrap();
            std::fs::read(&path).unwrap()
        };
        let limit = (kill_seed as usize) % (full.len() + 1);
        // Simulate the kill: stream the journal bytes through a writer
        // that dies after `limit` bytes — only the torn prefix reaches
        // "disk".
        let torn = {
            use std::io::Write;
            let mut w = FailpointWriter::new(Vec::new(), limit as u64);
            let _ = w.write_all(&full); // errors once the failpoint trips
            w.into_inner()
        };
        prop_assert_eq!(torn.len(), limit);
        std::fs::write(&path, &torn).unwrap();

        let recovered = SessionManager::new(Arc::clone(&adb));
        let stats = recovered.recover(&path, FsyncPolicy::Flush).unwrap();
        prop_assert!(stats.records_failed == 0, "no replayed record may fail");

        // An uncrashed fleet that executed exactly the recovered prefix.
        let replayed: Vec<(u64, u64, SessionOp)> =
            squid_core::read_journal(&path).unwrap().records;
        let reference = SessionManager::new(Arc::clone(&adb));
        for (_, _, op) in &replayed {
            match op {
                SessionOp::Create => { reference.create_session(); }
                SessionOp::End => {}
                other => { reference.apply_op(1, other).unwrap(); }
            }
        }
        prop_assert_eq!(recovered.len(), reference.len());
        if recovered.len() == 1 {
            let a = recovered
                .with_session(1, |s| Ok(s.discovery().map(|d| d.sql())))
                .unwrap();
            let b = reference
                .with_session(1, |s| Ok(s.discovery().map(|d| d.sql())))
                .unwrap();
            prop_assert_eq!(a, b, "recovered fleet diverged from the prefix fleet");
        }
        let _ = std::fs::remove_file(&path);
    }
}
