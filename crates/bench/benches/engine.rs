//! Criterion benches for query execution — the timing counterpart of
//! Figure 11 (actual vs abduced query runtime, including the αDB form).

use criterion::{criterion_group, criterion_main, Criterion};
use squid_adb::ADb;
use squid_bench::sample_examples;
use squid_core::Squid;
use squid_datasets::{generate_imdb, imdb_queries, ImdbConfig};
use squid_engine::Executor;

fn bench_fig11_actual_vs_abduced(c: &mut Criterion) {
    let cfg = ImdbConfig {
        persons: 1_500,
        movies: 800,
        ..ImdbConfig::default()
    };
    let db = generate_imdb(&cfg);
    let adb = ADb::build(&db).unwrap();
    let queries = imdb_queries(&db);
    let squid = Squid::new(&adb);
    let mut group = c.benchmark_group("fig11_query_runtime");
    for id in ["IQ1", "IQ4", "IQ9", "IQ16"] {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        group.bench_function(format!("{id}/actual"), |b| {
            let exec = Executor::new(&db);
            b.iter(|| exec.execute(std::hint::black_box(&q.query)).unwrap())
        });
        let (examples, _) = sample_examples(&db, &q.query, 10, 1);
        let refs: Vec<&str> = examples.iter().map(String::as_str).collect();
        if let Ok(d) = squid.discover_on(q.query.root(), q.query.projection.as_str(), &refs) {
            let abduced = d.adb_query(&adb).unwrap_or_else(|| d.query.clone());
            group.bench_function(format!("{id}/abduced"), |b| {
                let exec = Executor::new(adb.query_database());
                b.iter(|| exec.execute(std::hint::black_box(&abduced)).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig11_actual_vs_abduced);
criterion_main!(benches);
