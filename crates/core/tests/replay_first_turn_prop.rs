//! Property: replay leaves a session exactly where an uninterrupted run
//! stands, down to the next turn. A journaled random script is recovered
//! into a fresh manager and streamed onto a standby; one more random op
//! then goes to the live manager, the recovered one and the (promoted)
//! standby, and all three must report the same `DiscoveryDelta` — filters
//! in and out, rows gained and lost, SQL and result rows — and the same
//! cursor. Replay stages state only and runs discovery once, at the end of
//! recovery or on a standby's first read, so a turn applied to a session
//! that was never refreshed would diff against the wrong previous result.

mod common;

use common::{adb, arb_op, arb_step};
use proptest::prelude::*;
use squid_core::{journal, DiscoveryDelta, FsyncPolicy, Journal, SessionManager, SessionOp};

/// What a turn reports to its caller, minus timings and cache counters.
type Turn = Result<
    Option<(
        Vec<String>,
        Vec<String>,
        usize,
        usize,
        Option<(String, Vec<usize>)>,
    )>,
    String,
>;

fn turn(m: &SessionManager, id: u64, op: &SessionOp) -> (Turn, u64) {
    let reported = m.apply_op(id, op).map_err(|e| e.to_string()).map(|delta| {
        delta.map(|d: DiscoveryDelta| {
            let result = d
                .discovery
                .as_deref()
                .map(|disc| (disc.sql(), disc.rows.iter().collect::<Vec<_>>()));
            (
                d.added_filters,
                d.removed_filters,
                d.rows_added,
                d.rows_removed,
                result,
            )
        })
    });
    (reported, m.with_session(id, |s| Ok(s.op_seq())).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn first_turn_after_replay_matches_the_uninterrupted_run(
        steps in prop::collection::vec(arb_step(), 1..30),
        next_session in 0usize..2,
        next in arb_op(),
        case in any::<u32>(),
    ) {
        let adb = adb();
        let path = common::temp("squid_first_turn_prop", "live", case);
        let copy = common::temp("squid_first_turn_prop", "copy", case);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);

        let live = SessionManager::new(std::sync::Arc::clone(&adb));
        live.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s = [live.create_session(), live.create_session()];
        for step in &steps {
            let _ = live.apply_op(s[step.session], &step.op);
        }
        live.journal_sync().unwrap();
        std::fs::copy(&path, &copy).unwrap();

        let recovered = SessionManager::new(std::sync::Arc::clone(&adb));
        recovered.recover(&copy, FsyncPolicy::Flush).unwrap();
        let standby = SessionManager::new(std::sync::Arc::clone(&adb));
        let stats = standby.apply_replicated(&journal::read_journal(&path).unwrap().records);
        prop_assert_eq!(stats.records_failed, 0);

        let id = s[next_session];
        let expected = turn(&live, id, &next);
        prop_assert_eq!(&turn(&recovered, id, &next), &expected, "recovered");
        prop_assert_eq!(&turn(&standby, id, &next), &expected, "standby");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);
    }
}
