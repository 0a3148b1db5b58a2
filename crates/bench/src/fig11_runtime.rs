//! Figure 11: execution time of the abduced queries vs the actual
//! benchmark queries. An abduced query runs in its αDB form when it has
//! one, on the derived relations of `ADb::query_database` (built on its
//! first call, outside the timed region), which frequently makes it
//! *faster* than the original. Every execution must succeed and the
//! abduced query must return the rows its SPJAI form returns on the
//! original database; anything else aborts the figure.

use std::time::Instant;

use squid_core::Squid;
use squid_engine::{Executor, Query};
use squid_relation::{Database, RowSet};

use crate::context::{Context, Workload};
use crate::{params_for, sample_examples};

/// Best-of-`repeats` wall time of `q` on `db` in milliseconds, with the
/// rows it returned. A failed execution panics, naming `what`: timing an
/// error would report it as a fast success.
fn time_query(db: &Database, q: &Query, repeats: u32, what: &str) -> (f64, RowSet) {
    let exec = Executor::new(db);
    let mut best = f64::INFINITY;
    let mut rows = RowSet::new();
    for _ in 0..repeats {
        let t = Instant::now();
        let rs = exec
            .execute(q)
            .unwrap_or_else(|e| panic!("{what} failed: {e}"));
        best = best.min(t.elapsed().as_secs_f64());
        rows = rs.rows;
    }
    (best * 1e3, rows)
}

fn run_workload(workload: &Workload, repeats: u32) {
    let squid = Squid::with_params(&workload.adb, params_for(workload.tag));
    let query_db = workload.adb.query_database();
    println!(
        "{:<6} {:>14} {:>14} {:>10}",
        "query", "actual_ms", "squid_ms", "adb_form"
    );
    for q in &workload.queries {
        let (examples, _) = sample_examples(&workload.db, &q.query, 10, 1);
        let refs: Vec<&str> = examples.iter().map(String::as_str).collect();
        let Ok(d) = squid.discover_on(q.query.root(), q.query.projection.as_str(), &refs) else {
            continue;
        };
        let (actual_ms, _) = time_query(&workload.db, &q.query, repeats, &q.id);
        // Run the abduced query in its cheapest executable form, as SQuID
        // would: the αDB SPJ form when available, else the original SPJAI.
        let adb_form = d.adb_query(&workload.adb);
        let (abduced, form) = match &adb_form {
            Some(aq) => (aq, "yes"),
            None => (&d.query, "no"),
        };
        let what = format!("{} abduced ({form} αDB form)", q.id);
        let (squid_ms, rows) = time_query(query_db, abduced, repeats, &what);
        let (_, want) = time_query(&workload.db, &d.query, 1, &what);
        assert!(
            rows == want,
            "{what}: {} rows on the αDB, {} for the SPJAI form on the database",
            rows.len(),
            want.len()
        );
        println!(
            "{:<6} {:>14.3} {:>14.3} {:>10}",
            q.id, actual_ms, squid_ms, form
        );
    }
}

/// Figure 11(a): IMDb; Figure 11(b): DBLP.
pub fn run(ctx: &Context) {
    let repeats = if ctx.config.fast { 3 } else { 7 };
    println!("# Figure 11(a): abduced vs actual query runtime, IMDb");
    run_workload(&ctx.imdb, repeats);
    println!("# Figure 11(b): abduced vs actual query runtime, DBLP");
    run_workload(&ctx.dblp, repeats);
    println!("# expectation: abduced queries rarely slower; αDB-form queries often");
    println!("# faster than the originals thanks to precomputed derived relations.");
}
