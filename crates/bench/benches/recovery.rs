//! `recovery` — what journal compaction buys at restart.
//!
//! One session plays a 1000-turn add/remove workload, so the journal
//! holds a thousand mutation records while the live state stays small
//! (the paper's interactive sessions churn examples far more than they
//! accumulate them). Then:
//!
//! * `full_replay` — a fresh manager recovers from the raw journal,
//!   applying every one of those turns to session state, then running
//!   discovery once for the live session.
//! * `compacted` — the same fleet state recovered from the compacted
//!   journal: one snapshot record per live session plus its surviving
//!   state ops, so replay cost is bounded by live state, not history.
//!
//! The ratio between the two is the bound the `--auto-compact` trigger
//! enforces on worst-case restart time.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use squid_adb::{test_fixtures, ADb};
use squid_core::{FsyncPolicy, Journal, SessionManager, SessionOp};

const TURNS: usize = 1_000;
const NAMES: [&str; 3] = ["Jim Carrey", "Eddie Murphy", "Robin Williams"];

fn bench_recovery(c: &mut Criterion) {
    let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
    let dir = std::env::temp_dir();
    let live = dir.join(format!(
        "squid_bench_recovery_{}.journal",
        std::process::id()
    ));
    let full = live.with_extension("journal.full");
    let _ = std::fs::remove_file(&live);

    // Record the workload: alternating add/remove churn, always keeping
    // at least one example so the session never goes empty.
    let manager = SessionManager::new(Arc::clone(&adb));
    manager.attach_journal(Journal::open(&live, FsyncPolicy::Never).unwrap());
    let id = manager.create_session();
    manager
        .apply_op(id, &SessionOp::AddExample(NAMES[0].into()))
        .unwrap();
    for turn in 0..TURNS {
        let name = NAMES[1 + (turn / 2) % 2];
        let op = if turn % 2 == 0 {
            SessionOp::AddExample(name.into())
        } else {
            SessionOp::RemoveExample(name.into())
        };
        manager.apply_op(id, &op).unwrap();
    }
    manager.journal_sync().unwrap();

    // Keep the full-history bytes, then compact in place.
    std::fs::copy(&live, &full).unwrap();
    let stats = manager
        .compact_journal()
        .unwrap()
        .expect("journal attached");
    println!(
        "recovery: {} turn(s) journaled, compaction {} -> {} bytes ({} record(s))",
        TURNS + 2,
        stats.bytes_before,
        stats.bytes_after,
        stats.records_written
    );
    drop(manager);

    let mut group = c.benchmark_group("recovery");
    group.bench_function("full_replay/1000_turns", |b| {
        b.iter(|| {
            let m = SessionManager::new(Arc::clone(&adb));
            let st = m
                .recover(std::hint::black_box(&full), FsyncPolicy::Never)
                .unwrap();
            assert_eq!(st.live_sessions, 1);
            st.records_applied
        })
    });
    group.bench_function("compacted/1000_turns", |b| {
        b.iter(|| {
            let m = SessionManager::new(Arc::clone(&adb));
            let st = m
                .recover(std::hint::black_box(&live), FsyncPolicy::Never)
                .unwrap();
            assert_eq!(st.live_sessions, 1);
            st.records_applied
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&live);
    let _ = std::fs::remove_file(&full);
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
