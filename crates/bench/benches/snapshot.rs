//! `snapshot` — the durable αDB snapshot's costs at process start.
//!
//! * `rebuild` — `ADb::build` over the default IMDb slate (dataset
//!   generation excluded).
//! * `load` — `ADb::load_snapshot` of the same αDB from a snapshot file:
//!   decode of the original tables + CRC and hash verification + interner
//!   remap, then the same `ADb::build` as `rebuild`. A snapshot stores the
//!   database, not the αDB, so `load` is `rebuild` plus the decode.
//! * `save` — `ADb::save_snapshot_to` into a sink: the marginal cost of
//!   making a build durable.

use criterion::{criterion_group, criterion_main, Criterion};
use squid_adb::ADb;
use squid_datasets::{generate_imdb, ImdbConfig};

fn bench_snapshot(c: &mut Criterion) {
    let db = generate_imdb(&ImdbConfig::default());
    let adb = ADb::build(&db).unwrap();
    let path = std::env::temp_dir().join("squid_bench_snapshot.adb");
    adb.save_snapshot(&path).unwrap();

    let mut group = c.benchmark_group("snapshot");
    group.bench_function("rebuild/imdb", |b| {
        b.iter(|| ADb::build(std::hint::black_box(&db)).unwrap())
    });
    group.bench_function("load/imdb", |b| {
        b.iter(|| ADb::load_snapshot(std::hint::black_box(&path)).unwrap())
    });
    group.bench_function("save/imdb", |b| {
        b.iter(|| adb.save_snapshot_to(&mut std::io::sink()).unwrap())
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
