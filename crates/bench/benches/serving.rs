//! `serving` — what a session turn costs once a real TCP socket sits
//! between the user and the fleet (`squid-serve`, PR 8).
//!
//! * `ping_rt` — empty-protocol round trip: socket + framing + JSON
//!   overhead with zero discovery work. The floor every other number
//!   sits on.
//! * `turn_rt` — one served mutation round trip (an `add`/`remove` pair,
//!   so session state is iteration-invariant): the incremental session
//!   path plus the wire.
//! * `session_replay` — a full served session (create → 5 adds → sql →
//!   close) over a persistent connection: the per-session serving cost.
//! * `fleet` — 8 concurrent [`RetryClient`] threads, each dialling a fresh
//!   connection and replaying one scripted session (create → 8 numbered
//!   or read turns → close): the contended number, workers and admission
//!   control included.
//!
//! Served p50/p99 turn latency under sustained load is measured by the
//! `benchmark/` package's `interactive_*` workloads, not here.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use squid_adb::ADb;
use squid_bench::{params_for, sample_examples};
use squid_core::SessionManager;
use squid_datasets::{generate_imdb, imdb_queries, ImdbConfig};
use squid_serve::{parse_line, Client, RetryClient, ServeConfig, Server};

fn start_server(adb: &Arc<ADb>) -> Server {
    let manager = Arc::new(SessionManager::with_params(
        Arc::clone(adb),
        params_for("imdb"),
    ));
    Server::start(manager, ServeConfig::default()).expect("bind bench server")
}

fn bench_serving(c: &mut Criterion) {
    let cfg = ImdbConfig::default();
    let db = generate_imdb(&cfg);
    let adb = Arc::new(ADb::build(&db).unwrap());
    let queries = imdb_queries(&db);
    let q = queries.iter().find(|q| q.id == "IQ15").unwrap();
    let (examples, _) = sample_examples(&db, &q.query, 10, 3);

    let server = start_server(&adb);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    let mut group = c.benchmark_group("serving");

    group.bench_function("ping_rt", |b| {
        b.iter(|| client.ping().unwrap());
    });

    // One warm session; each iteration adds and removes the same example,
    // so every measured turn runs the incremental path against identical
    // session state.
    let sid = client.create().unwrap();
    for e in &examples[..4] {
        client.add(sid, e).unwrap();
    }
    let extra = &examples[4];
    group.bench_function("turn_rt", |b| {
        b.iter(|| {
            client.add(sid, extra).unwrap();
            client.remove(sid, extra).unwrap();
        });
    });
    client.close(sid).unwrap();

    group.bench_function("session_replay", |b| {
        b.iter(|| {
            let sid = client.create().unwrap();
            for e in &examples[..5] {
                client.add(sid, e).unwrap();
            }
            let sql = client.sql(sid).unwrap();
            client.close(sid).unwrap();
            sql
        });
    });

    let script: Vec<String> = examples[..5]
        .iter()
        .map(|e| format!("add {e}"))
        .chain(["sql", "suggest 2", "rows 5"].map(String::from))
        .collect();
    let fleet_addr = addr.to_string();
    group.bench_function("fleet/8", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut client = RetryClient::new(fleet_addr.as_str());
                            let sid = client.create().unwrap();
                            for line in &script {
                                client.send(parse_line(line, Some(sid)).unwrap()).unwrap();
                            }
                            client.close(sid).unwrap();
                        })
                    })
                    .collect();
                for c in clients {
                    c.join().expect("fleet client panicked");
                }
            })
        });
    });
    group.finish();

    drop(client);
    server.shutdown();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
