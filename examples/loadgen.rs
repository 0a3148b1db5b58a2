//! Self-contained serving demo: boot a `squid-serve` [`Server`] over the
//! IMDb dataset in-process, hammer it with the [`squid_serve::load`]
//! harness over real TCP sockets, and print the throughput/latency
//! report.
//!
//! ```text
//! cargo run --release --example loadgen            # 8 clients x 4 sessions
//! cargo run --release --example loadgen -- 32 8    # 32 clients x 8 sessions
//! ```
//!
//! To drive an already-running server instead, use the binary:
//! `squid-serve --loadgen <addr> < script.txt`.

use std::sync::Arc;

use squid_adb::ADb;
use squid_core::SessionManager;
use squid_datasets::{generate_imdb, imdb_queries, ImdbConfig};
use squid_serve::{run_load, LoadConfig, ServeConfig, Server};

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(8);
    let sessions: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(4);

    eprintln!("building αDB (imdb)...");
    let db = generate_imdb(&ImdbConfig::default());
    let adb = Arc::new(ADb::build(&db).unwrap());

    // A real workload: examples drawn from one of the paper's intent
    // queries, so the adds share filters and the shared cache matters.
    let queries = imdb_queries(&db);
    let q = queries.iter().find(|q| q.id == "IQ15").expect("IQ15");
    let examples = squid_bench_examples(&db, q);

    let manager = Arc::new(SessionManager::new(Arc::clone(&adb)));
    let server = Server::start(manager, ServeConfig::default()).unwrap();
    eprintln!("serving on {}", server.local_addr());

    let script: Vec<String> = examples
        .iter()
        .take(5)
        .map(|e| format!("add {e}"))
        .chain(["sql", "suggest 3", "rows 5"].map(String::from))
        .collect();
    let cfg = LoadConfig {
        clients,
        sessions_per_client: sessions,
        script,
    };
    eprintln!(
        "load: {} clients x {} sessions x {} turns",
        cfg.clients,
        cfg.sessions_per_client,
        cfg.script.len()
    );
    let report = run_load(server.local_addr(), &cfg).unwrap();
    println!("{}", report.summary());

    let metrics = server.metrics();
    println!(
        "server: {} accepted, {} requests, {} turns, {} protocol errors, {} overloaded",
        metrics.accepted,
        metrics.requests,
        metrics.turns,
        metrics.protocol_errors,
        metrics.rejected_overloaded
    );
    let shutdown = server.shutdown();
    println!(
        "shutdown: {} live sessions, journal synced: {}",
        shutdown.live_sessions, shutdown.journal_synced
    );
    if report.errors > 0 {
        std::process::exit(1);
    }
}

/// First 8 distinct example values of a benchmark query's output (the
/// same sampling idea as `squid_bench::sample_examples`, inlined so the
/// example depends only on the serving stack).
fn squid_bench_examples(
    db: &squid_relation::Database,
    q: &squid_datasets::BenchmarkQuery,
) -> Vec<String> {
    let rs = squid_engine::Executor::new(db)
        .execute(&q.query)
        .expect("benchmark query runs");
    let values = rs
        .project(db, q.query.projection.as_str())
        .expect("projection");
    let mut out: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    out.sort();
    out.dedup();
    out.truncate(8);
    out
}
