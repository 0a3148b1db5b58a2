//! Integrity invariants of the generated datasets: referential integrity,
//! distribution sanity, determinism across regeneration, and benchmark
//! suite stability.

use std::collections::HashSet;

use squid_datasets::{
    adult_queries, db_fingerprint, dblp_queries, generate_adult, generate_dblp, generate_imdb,
    generate_imdb_variant, imdb_queries, AdultConfig, DblpConfig, ImdbConfig, ImdbVariant,
};
use squid_relation::{Database, TableRole};

/// Every foreign key value must reference an existing primary key.
fn check_referential_integrity(db: &Database) {
    for table in db.tables() {
        for fk in &table.schema().foreign_keys {
            let target = db.table(&fk.ref_table).unwrap();
            let tpk = target.schema().primary_key.unwrap();
            let keys: HashSet<i64> = target.iter().filter_map(|(_, r)| r[tpk].as_int()).collect();
            for (rid, row) in table.iter() {
                if let Some(v) = row[fk.column].as_int() {
                    assert!(
                        keys.contains(&v),
                        "{}.row{} fk -> {}.{} dangles: {}",
                        table.name(),
                        rid,
                        fk.ref_table,
                        tpk,
                        v
                    );
                }
            }
        }
    }
}

#[test]
fn imdb_referential_integrity() {
    check_referential_integrity(&generate_imdb(&ImdbConfig::tiny()));
}

#[test]
fn imdb_variants_referential_integrity() {
    let cfg = ImdbConfig {
        persons: 150,
        movies: 90,
        ..ImdbConfig::tiny()
    };
    for v in [
        ImdbVariant::Small,
        ImdbVariant::BigSparse,
        ImdbVariant::BigDense,
    ] {
        check_referential_integrity(&generate_imdb_variant(&cfg, v));
    }
}

#[test]
fn dblp_referential_integrity() {
    check_referential_integrity(&generate_dblp(&DblpConfig::tiny()));
}

#[test]
fn imdb_distributions_are_plausible() {
    let db = generate_imdb(&ImdbConfig::tiny());
    let person = db.table("person").unwrap();
    let male = person
        .iter()
        .filter(|(_, r)| r[2].as_text() == Some("Male"))
        .count() as f64
        / person.len() as f64;
    assert!((0.5..0.8).contains(&male), "male fraction {male}");
    let usa = person
        .iter()
        .filter(|(_, r)| r[3].as_text() == Some("USA"))
        .count() as f64
        / person.len() as f64;
    assert!((0.3..0.6).contains(&usa), "USA fraction {usa}");
    // Careers are heavy-tailed: someone has a big one.
    let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for (_, r) in db.table("castinfo").unwrap().iter() {
        *counts.entry(r[0].as_int().unwrap()).or_insert(0) += 1;
    }
    let max_career = counts.values().copied().max().unwrap_or(0);
    assert!(max_career >= 20, "max career {max_career}");
}

#[test]
fn every_movie_has_at_least_one_genre_and_company() {
    let db = generate_imdb(&ImdbConfig::tiny());
    let n = db.table("movie").unwrap().len();
    let with_genre: HashSet<i64> = db
        .table("movietogenre")
        .unwrap()
        .iter()
        .map(|(_, r)| r[0].as_int().unwrap())
        .collect();
    let with_company: HashSet<i64> = db
        .table("movietocompany")
        .unwrap()
        .iter()
        .map(|(_, r)| r[0].as_int().unwrap())
        .collect();
    assert_eq!(with_genre.len(), n);
    assert_eq!(with_company.len(), n);
}

#[test]
fn roles_are_annotated_consistently() {
    for db in [
        generate_imdb(&ImdbConfig::tiny()),
        generate_dblp(&DblpConfig::tiny()),
        generate_adult(&AdultConfig::tiny()),
    ] {
        // Every entity table has a primary key; every fact table has FKs.
        for t in db.tables() {
            match t.schema().role {
                TableRole::Entity | TableRole::Property => {
                    assert!(t.schema().primary_key.is_some(), "{} needs pk", t.name());
                }
                TableRole::Fact => {
                    assert!(
                        !t.schema().foreign_keys.is_empty(),
                        "{} needs fks",
                        t.name()
                    );
                }
            }
        }
    }
}

#[test]
fn benchmark_suites_are_stable_across_regeneration() {
    let cfg = ImdbConfig::tiny();
    let a = imdb_queries(&generate_imdb(&cfg));
    let b = imdb_queries(&generate_imdb(&cfg));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.description, y.description);
        assert_eq!(x.query, y.query);
    }
    let dcfg = DblpConfig::tiny();
    let da = dblp_queries(&generate_dblp(&dcfg));
    let db_ = dblp_queries(&generate_dblp(&dcfg));
    for (x, y) in da.iter().zip(&db_) {
        assert_eq!(x.query, y.query);
    }
}

/// The generated slates are pinned byte-for-byte. The cell stream was
/// verified identical between the per-row `insert` generators and the
/// typed `ColumnBuilder` bulk-load port before recording; the fingerprint
/// also covers schemas (column names/dtypes, roles, keys) and the
/// non-semantic exclusions, so schema/metadata drift fails here too, not
/// just content drift. Regenerating the constants is a deliberate act:
/// print `db_fingerprint` for each slate and update.
#[test]
fn generated_slates_are_byte_identical() {
    let tiny = ImdbConfig::tiny();
    assert_eq!(db_fingerprint(&generate_imdb(&tiny)), 0xcaa273adfa2c97bc);
    assert_eq!(
        db_fingerprint(&generate_imdb(&ImdbConfig::default())),
        0x6697c984f58429eb
    );
    let var_cfg = ImdbConfig {
        persons: 150,
        movies: 90,
        ..ImdbConfig::tiny()
    };
    assert_eq!(
        db_fingerprint(&generate_imdb_variant(&var_cfg, ImdbVariant::Small)),
        0x0696364988d4e282
    );
    assert_eq!(
        db_fingerprint(&generate_imdb_variant(&var_cfg, ImdbVariant::BigSparse)),
        0x1f1ccc541cafe640
    );
    assert_eq!(
        db_fingerprint(&generate_imdb_variant(&var_cfg, ImdbVariant::BigDense)),
        0x344744220393e37a
    );
    assert_eq!(
        db_fingerprint(&generate_dblp(&DblpConfig::tiny())),
        0xdda4afb8d6c415e0
    );
    assert_eq!(
        db_fingerprint(&generate_dblp(&DblpConfig::default())),
        0xb6107de0dffa2eca
    );
}

#[test]
fn different_seeds_produce_different_data() {
    let a = generate_imdb(&ImdbConfig {
        seed: 1,
        ..ImdbConfig::tiny()
    });
    let b = generate_imdb(&ImdbConfig {
        seed: 2,
        ..ImdbConfig::tiny()
    });
    // Same shape, different content.
    assert_eq!(
        a.table("person").unwrap().len(),
        b.table("person").unwrap().len()
    );
    let ga: Vec<_> = (0..20)
        .map(|i| a.table("person").unwrap().cell(i, 2))
        .collect();
    let gb: Vec<_> = (0..20)
        .map(|i| b.table("person").unwrap().cell(i, 2))
        .collect();
    assert_ne!(ga, gb, "different seeds should differ somewhere");
}

#[test]
fn adult_queries_scale_with_data() {
    // The query generator adapts to the database it is given.
    let small = generate_adult(&AdultConfig::tiny());
    let qs = adult_queries(&small, 9, 8);
    assert!(qs.len() >= 6);
    for q in &qs {
        let card = q.cardinality(&small);
        assert!((8..=1500).contains(&card), "{}: {card}", q.id);
    }
}
