//! Quickstart: the paper's Figure 1 / Example 1.1 scenario end to end —
//! interactively, the way SQuID is meant to be used.
//!
//! Builds the tiny CS-academics database, makes it abduction-ready, and
//! drops examples into a [`SquidSession`] one at a time, printing how the
//! abduced query refines after each. A structure-only QBE system would
//! answer `SELECT name FROM academics` (Q1); SQuID finds the shared
//! semantic context `interest = 'data management'` and abduces Q2.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use squid_adb::ADb;
use squid_core::{SquidParams, SquidSession};
use squid_relation::{Column, DataType, Database, TableRole, TableSchema, Value};

fn academics_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "academics",
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
            "research",
            vec![
                Column::new("aid", DataType::Int),
                Column::new("interest", DataType::Text),
            ],
        )
        .with_role(TableRole::Fact)
        .with_foreign_key("aid", "academics", 0),
    )
    .unwrap();
    db.meta.exclude("academics", "name");
    for (id, name) in [
        (100, "Thomas Cormen"),
        (101, "Dan Suciu"),
        (102, "Jiawei Han"),
        (103, "Sam Madden"),
        (104, "James Kurose"),
        (105, "Joseph Hellerstein"),
    ] {
        db.insert("academics", vec![Value::Int(id), Value::text(name)])
            .unwrap();
    }
    for (aid, interest) in [
        (100, "algorithms"),
        (101, "data management"),
        (102, "data mining"),
        (103, "data management"),
        (103, "distributed systems"),
        (104, "computer networks"),
        (105, "data management"),
        (105, "distributed systems"),
    ] {
        db.insert("research", vec![Value::Int(aid), Value::text(interest)])
            .unwrap();
    }
    db
}

fn main() {
    let db = academics_db();
    println!(
        "Database: {} academics, {} research-interest facts\n",
        db.table("academics").unwrap().len(),
        db.table("research").unwrap().len()
    );

    // Offline phase: build the abduction-ready database.
    let adb = ADb::build(&db).expect("αDB build");
    println!(
        "αDB ready: {} semantic properties discovered, {} derived rows\n",
        adb.build_stats.property_count, adb.build_stats.derived_row_count
    );

    // Online phase: an interactive session, Figure 1 style. On a 6-row toy
    // database nothing is statistically rare (the shared interest still
    // covers half the table, ψ = 0.5), so we raise the base prior a notch;
    // at real data sizes the default ρ = 0.1 works (see the benchmarks).
    let params = SquidParams {
        rho: 0.2,
        ..SquidParams::default()
    };
    let mut session = SquidSession::with_params(&adb, params);
    for example in ["Dan Suciu", "Sam Madden", "Joseph Hellerstein"] {
        let delta = session.add_example(example).expect("discovery");
        let d = delta.discovery.as_ref().expect("session has examples");
        println!(
            "+ {example:<18} → {} result tuple(s), {} update in {:?}",
            d.rows.len(),
            if delta.incremental {
                "incremental"
            } else {
                "initial"
            },
            d.elapsed
        );
        for f in &delta.added_filters {
            println!("    filter in:  {f}");
        }
        for f in &delta.removed_filters {
            println!("    filter out: {f}");
        }
    }

    let d = session.discovery().expect("three examples resolved");
    println!("\nCandidate filters and abduction decisions:");
    for s in &d.scored {
        println!(
            "  {} ψ={:.3} prior={:.3} -> {}",
            s.filter.describe(),
            s.filter.selectivity,
            s.prior,
            if s.included { "INCLUDE" } else { "exclude" }
        );
    }
    println!("\nAbduced query:\n{}", d.sql());
    // Run it as SQL in its αDB form when it has one (derived relations
    // replace the aggregation joins); the first call builds them.
    let names = {
        let db = adb.query_database();
        let query = d.adb_query(&adb).unwrap_or_else(|| d.query.clone());
        let rs = squid_engine::Executor::new(db).execute(&query).unwrap();
        rs.project(db, "name").unwrap()
    };
    println!("\nResult ({} tuples):", names.len());
    for n in names {
        println!("  {n}");
    }
}
