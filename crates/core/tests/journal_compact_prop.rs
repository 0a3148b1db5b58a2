//! Property: recovery from a compacted journal is indistinguishable from
//! recovery from the full journal it replaced — same live sessions, same
//! examples, same abduced SQL, same sequence cursors — on random session
//! op sequences (including ops that fail and are therefore never
//! journaled, removed examples, ended sessions, and feedback churn).

use std::sync::Arc;

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb};
use squid_core::{FsyncPolicy, Journal, SessionManager, SessionOp};

const NAMES: &[&str] = &[
    "Jim Carrey",
    "Eddie Murphy",
    "Robin Williams",
    "Julia Roberts",
    "Emma Stone",
    "Sylvester Stallone",
    "Arnold Schwarzenegger",
];

const FILTERS: &[&str] = &["person:gender", "person:age_group", "movie:genre"];

/// A script step: which session (0 or 1) does what.
#[derive(Debug, Clone)]
struct Step {
    session: usize,
    op: SessionOp,
}

fn arb_op() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        (0usize..NAMES.len()).prop_map(|i| SessionOp::AddExample(NAMES[i].into())),
        (0usize..NAMES.len()).prop_map(|i| SessionOp::RemoveExample(NAMES[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::PinFilter(FILTERS[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::BanFilter(FILTERS[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::UnpinFilter(FILTERS[i].into())),
        (0usize..FILTERS.len()).prop_map(|i| SessionOp::UnbanFilter(FILTERS[i].into())),
        Just(SessionOp::SetTarget {
            table: "person".into(),
            column: "name".into(),
        }),
        Just(SessionOp::SetTargetAuto),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0usize..2, arb_op()).prop_map(|(session, op)| Step { session, op })
}

fn adb() -> Arc<ADb> {
    Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

fn temp(tag: &str, case: u32) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("squid_compact_prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{:?}-{case}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Everything observable about a recovered fleet, for equality checks.
fn fingerprint(m: &SessionManager, ids: &[u64]) -> Vec<(u64, u64, String, Option<String>)> {
    ids.iter()
        .map(|&id| {
            let (seq, examples, sql) = m
                .with_session(id, |s| {
                    Ok((
                        s.op_seq(),
                        s.examples().join("|"),
                        s.discovery().map(|d| d.sql()),
                    ))
                })
                .unwrap();
            (id, seq, examples, sql)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compacted_replay_equals_full_replay(
        steps in prop::collection::vec(arb_step(), 1..40),
        end_second in any::<bool>(),
        case in any::<u32>(),
    ) {
        let adb = adb();
        let full_path = temp("full", case);
        let compact_path = temp("compact", case);
        let _ = std::fs::remove_file(&full_path);
        let _ = std::fs::remove_file(&compact_path);

        // Live fleet: two sessions worked by a random script. Failed ops
        // are never journaled, so errors are simply skipped.
        let live = SessionManager::new(Arc::clone(&adb));
        live.attach_journal(Journal::open(&full_path, FsyncPolicy::Flush).unwrap());
        let s = [live.create_session(), live.create_session()];
        for step in &steps {
            let _ = live.apply_op(s[step.session], &step.op);
        }
        if end_second {
            live.end_session(s[1]);
        }
        live.journal_sync().unwrap();

        // Preserve the full journal, then compact the original in place.
        std::fs::copy(&full_path, &compact_path).unwrap();
        let stats = live.compact_journal().unwrap().expect("journal attached");
        prop_assert_eq!(stats.sessions, if end_second { 1 } else { 2 });
        drop(live);

        // Recover once from each journal; the fleets must be identical.
        let from_compact = SessionManager::new(Arc::clone(&adb));
        from_compact.recover(&full_path, FsyncPolicy::Flush).unwrap();
        let from_full = SessionManager::new(Arc::clone(&adb));
        from_full.recover(&compact_path, FsyncPolicy::Flush).unwrap();

        prop_assert_eq!(from_compact.session_ids(), from_full.session_ids());
        let ids = from_compact.session_ids();
        prop_assert_eq!(
            fingerprint(&from_compact, &ids),
            fingerprint(&from_full, &ids),
            "compacted-journal fleet diverged from full-journal fleet"
        );

        let _ = std::fs::remove_file(&full_path);
        let _ = std::fs::remove_file(&compact_path);
    }
}
