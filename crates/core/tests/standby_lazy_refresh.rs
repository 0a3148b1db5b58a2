//! A standby applies each replicated record to session state only and runs
//! discovery when a session is first read. These tests hold both halves:
//! applying a stream (and compacting the standby's own journal) never
//! touches the evaluation cache, and a read — including one that races the
//! stream — returns what the primary returned at that point of the stream.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use squid_adb::{test_fixtures, ADb};
use squid_core::{journal, FsyncPolicy, Journal, SessionManager, SessionOp};

/// What a client reading `sql` sees: `None` for an unknown session, then
/// the session's SQL (`None` until it has examples).
type Read = Option<Option<String>>;

fn read_sql(m: &SessionManager, id: u64) -> Read {
    m.with_session(id, |s| Ok(s.discovery().map(|d| d.sql())))
        .ok()
}

fn temp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("squid_standby_lazy_refresh");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{:?}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Run a fixed script of creates, turns (some of which fail and are never
/// journaled) and an end on a journaled primary. Returns the session ids
/// and, for every journal length `n`, what a read of each session returned
/// on the primary once its journal held `n` records.
fn primary_script(primary: &SessionManager) -> (Vec<u64>, Vec<Vec<Read>>) {
    // Round by round, one example per session (the third session's last
    // one matches nothing, so that turn fails and is never journaled).
    let rounds = [
        ["Jim Carrey", "Sylvester Stallone", "Julia Roberts"],
        ["Eddie Murphy", "Julia Roberts", "Emma Stone"],
        ["Robin Williams", "Arnold Schwarzenegger", "Nobody At All"],
    ];
    let ids: Vec<u64> = (0..3).map(|_| primary.create_session()).collect();
    let snapshot = |m: &SessionManager| ids.iter().map(|&id| read_sql(m, id)).collect();
    // Records 0..3 are the creates: each session reads empty from there on.
    let mut expected: Vec<Vec<Read>> = (0..=ids.len())
        .map(|created| {
            (0..ids.len())
                .map(|i| (i < created).then_some(None))
                .collect()
        })
        .collect();
    let mut step = |m: &SessionManager, f: &dyn Fn(&SessionManager)| {
        f(m);
        let n = m.journal_stats().unwrap().tail_records as usize;
        if n == expected.len() {
            expected.push(snapshot(m));
        }
        assert_eq!(n + 1, expected.len(), "one record per successful step");
    };
    for round in &rounds {
        for (name, &id) in round.iter().zip(&ids) {
            step(primary, &|m| {
                let _ = m.apply_op(id, &SessionOp::AddExample((*name).into()));
            });
        }
    }
    step(primary, &|m| {
        let _ = m.apply_op(ids[0], &SessionOp::PinFilter("person:gender".into()));
    });
    step(primary, &|m| {
        let _ = m.apply_op(ids[1], &SessionOp::RemoveExample("Julia Roberts".into()));
    });
    step(primary, &|m| {
        let _ = m.apply_op(ids[1], &SessionOp::BanFilter("movie:genre".into()));
    });
    step(primary, &|m| {
        let target = SessionOp::SetTarget {
            table: "person".into(),
            column: "name".into(),
        };
        let _ = m.apply_op(ids[2], &target);
    });
    step(primary, &|m| {
        m.close_session(ids[2]).unwrap();
    });
    step(primary, &|m| {
        let _ = m.apply_op(ids[0], &SessionOp::UnpinFilter("person:gender".into()));
    });
    primary.journal_sync().unwrap();
    (ids, expected)
}

#[test]
fn a_standby_runs_no_discovery_until_a_session_is_read() {
    let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
    let primary_path = temp("primary");
    let standby_path = temp("standby");
    let _ = std::fs::remove_file(&primary_path);
    let _ = std::fs::remove_file(&standby_path);
    let primary = SessionManager::new(Arc::clone(&adb));
    primary.attach_journal(Journal::open(&primary_path, FsyncPolicy::Flush).unwrap());
    let (ids, _) = primary_script(&primary);

    let standby = SessionManager::new(Arc::clone(&adb));
    standby.attach_journal(Journal::open(&standby_path, FsyncPolicy::Flush).unwrap());
    let records = journal::read_journal(&primary_path).unwrap().records;
    let stats = standby.apply_replicated(&records);
    assert_eq!(stats.records_failed, 0);
    standby
        .compact_journal()
        .unwrap()
        .expect("journal attached");
    let cache = standby.shared_cache_stats().unwrap();
    assert_eq!(
        cache.hits + cache.misses,
        0,
        "replay and compaction must not evaluate: {cache:?}"
    );

    let read = read_sql(&standby, ids[0]);
    assert!(matches!(read, Some(Some(_))), "{read:?}");
    assert_eq!(read, read_sql(&primary, ids[0]));
    assert!(standby.shared_cache_stats().unwrap().misses > 0);
    for &id in &ids {
        assert_eq!(read_sql(&standby, id), read_sql(&primary, id));
    }
    let _ = std::fs::remove_file(&primary_path);
    let _ = std::fs::remove_file(&standby_path);
}

#[test]
fn standby_reads_see_the_primary_at_the_applied_offset() {
    let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
    let primary_path = temp("race_primary");
    let _ = std::fs::remove_file(&primary_path);
    let primary = SessionManager::new(Arc::clone(&adb));
    primary.attach_journal(Journal::open(&primary_path, FsyncPolicy::Flush).unwrap());
    let (ids, expected) = primary_script(&primary);
    let records = journal::read_journal(&primary_path).unwrap().records;
    assert_eq!(records.len() + 1, expected.len());

    // Lock-step: a read after each record (refreshing the sessions the
    // record left stale) equals the primary at that offset.
    let standby = SessionManager::new(Arc::clone(&adb));
    for (n, record) in records.iter().enumerate() {
        standby.apply_replicated(std::slice::from_ref(record));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                read_sql(&standby, id),
                expected[n + 1][i],
                "offset {}",
                n + 1
            );
        }
    }

    // Concurrent: the stream keeps staging records while a reader
    // refreshes the same sessions.
    for _ in 0..100 {
        let standby = SessionManager::new(Arc::clone(&adb));
        let applied = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (i, record) in records.iter().enumerate() {
                    standby.apply_replicated(std::slice::from_ref(record));
                    applied.store(i + 1, Ordering::SeqCst);
                }
            });
            // A read lands between two applied records, or during the one
            // in flight: it must equal the primary at one of those offsets.
            while applied.load(Ordering::SeqCst) < records.len() {
                for (i, &id) in ids.iter().enumerate() {
                    let before = applied.load(Ordering::SeqCst);
                    let read = read_sql(&standby, id);
                    let after = applied.load(Ordering::SeqCst);
                    let last = (after + 1).min(records.len());
                    assert!(
                        (before..=last).any(|n| expected[n][i] == read),
                        "session {id} read {read:?} between offsets {before} and {after}"
                    );
                }
            }
        });
        // Lag 0: every read equals the primary's.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(read_sql(&standby, id), read_sql(&primary, id));
            assert_eq!(read_sql(&standby, id), expected[records.len()][i]);
        }
    }
    let _ = std::fs::remove_file(&primary_path);
}
