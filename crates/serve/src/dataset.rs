//! The bundled datasets by name, and the snapshot-or-build αDB start-up
//! both binaries (`squid`, `squid-serve`) share.

use std::path::Path;
use std::time::Instant;

use squid_adb::ADb;
use squid_datasets::{
    generate_adult, generate_dblp, generate_imdb, AdultConfig, DblpConfig, ImdbConfig,
};
use squid_relation::Database;

/// Generate the dataset called `name` at its default scale.
fn build_dataset(name: &str) -> Option<Database> {
    match name {
        "imdb" => Some(generate_imdb(&ImdbConfig::default())),
        "dblp" => Some(generate_dblp(&DblpConfig::default())),
        "adult" => Some(generate_adult(&AdultConfig::default())),
        // The tiny test fixture: instant αDB builds, which is what lets
        // the chaos harness restart the server many times per run.
        "mini" => Some(squid_adb::test_fixtures::mini_imdb()),
        _ => None,
    }
}

/// Get the αDB: load the snapshot if one exists (its tables, rebuilt into
/// an αDB — falling back to a generator rebuild on corruption, since a
/// snapshot is a cache, never the source of truth), otherwise build and,
/// when a snapshot path was given, save one for the next start. Progress
/// goes to stderr.
pub fn acquire_adb(dataset: &str, snapshot: Option<&Path>) -> Result<ADb, String> {
    let ready = |how: &str, t: Instant, adb: &ADb| {
        eprintln!(
            "αDB {how} in {:?} ({} properties, {} derived rows)",
            t.elapsed(),
            adb.build_stats.property_count,
            adb.build_stats.derived_row_count
        );
    };
    if let Some(path) = snapshot.filter(|p| p.exists()) {
        let t = Instant::now();
        match ADb::load_snapshot(path) {
            Ok(adb) => {
                ready(&format!("loaded from snapshot {}", path.display()), t, &adb);
                return Ok(adb);
            }
            Err(e) => eprintln!(
                "snapshot {} unusable ({e}); rebuilding from generators",
                path.display()
            ),
        }
    }
    let db = build_dataset(dataset).ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    eprintln!("building αDB for {dataset}...");
    let t = Instant::now();
    let adb = ADb::build(&db).map_err(|e| format!("αDB build failed: {e}"))?;
    ready("ready", t, &adb);
    if let Some(path) = snapshot {
        match adb.save_snapshot(path) {
            Ok(bytes) => eprintln!("snapshot saved to {} ({bytes} bytes)", path.display()),
            Err(e) => eprintln!("warning: snapshot save to {} failed: {e}", path.display()),
        }
    }
    Ok(adb)
}
