//! Property: a [`JournalTail`] resumed from *any* byte offset — record
//! boundaries, mid-record, mid-header, past the end — snaps to a valid
//! boundary and yields a record stream whose replay (prefix records +
//! tailed records through `apply_replicated`) is fingerprint-identical
//! to a full journal recovery. With compaction racing the tail, the
//! epoch-guard discipline (re-read [`JournalStats::epoch`] around each
//! poll, restart the stream when it moves) converges to the same state.
//! This is the exact contract the replication sender stands on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb};
use squid_core::{
    scan_records, FsyncPolicy, Journal, JournalTail, SessionManager, SessionOp, TailPoll,
};

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
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0usize..2, arb_op()).prop_map(|(session, op)| Step { session, op })
}

fn adb() -> Arc<ADb> {
    Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

fn temp(tag: &str, case: u32) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("squid_tail_prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{:?}-{case}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Everything observable about a fleet, for equality checks.
fn fingerprint(m: &SessionManager) -> Vec<(u64, u64, String, Option<String>)> {
    let mut ids = m.session_ids();
    ids.sort_unstable();
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

    /// Quiescent file: every resume offset — chosen uniformly over the
    /// whole byte range, so usually mid-record — snaps down to a record
    /// boundary, and prefix + tail replays to the recovered state.
    #[test]
    fn any_resume_offset_replays_to_the_recovered_state(
        steps in prop::collection::vec(arb_step(), 1..40),
        offset_sel in any::<usize>(),
        case in any::<u32>(),
    ) {
        let adb = adb();
        let path = temp("resume", case);
        let _ = std::fs::remove_file(&path);

        let live = SessionManager::new(Arc::clone(&adb));
        live.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s = [live.create_session(), live.create_session()];
        for step in &steps {
            let _ = live.apply_op(s[step.session], &step.op);
        }
        live.journal_sync().unwrap();
        drop(live);

        let bytes = std::fs::read(&path).unwrap();
        let (full_records, valid) = scan_records(&bytes);
        prop_assert_eq!(valid, bytes.len() as u64, "journal must be fully valid");

        // An arbitrary offset, record-aligned or not, even past the end.
        let offset = (offset_sel % (bytes.len() + 2)) as u64;
        let (mut tail, prefix_len) = JournalTail::resume(&path, offset).unwrap();
        let batch = match tail.poll().unwrap() {
            TailPoll::Records(b) => b,
            TailPoll::Truncated => panic!("quiescent file cannot truncate"),
        };

        // The snapped position is a real boundary at or below the ask...
        prop_assert!(batch.start_offset <= offset.min(valid));
        let (prefix_records, prefix_valid) = scan_records(&bytes[..batch.start_offset as usize]);
        prop_assert_eq!(prefix_valid, batch.start_offset, "snap must be a record boundary");
        prop_assert_eq!(prefix_records.len() as u64, prefix_len);

        // ...and prefix + tailed records is exactly the full stream.
        let mut combined = prefix_records.clone();
        combined.extend(batch.records.iter().cloned());
        prop_assert_eq!(&combined, &full_records);
        prop_assert_eq!(batch.end_offset, valid);

        // Replaying that stream the way a standby does lands on the same
        // fleet as a plain recovery.
        let replica = SessionManager::new(Arc::clone(&adb));
        replica.apply_replicated(&prefix_records);
        replica.apply_replicated(&batch.records);
        let recovered = SessionManager::new(Arc::clone(&adb));
        recovered.recover(&path, FsyncPolicy::Flush).unwrap();
        prop_assert_eq!(
            fingerprint(&replica),
            fingerprint(&recovered),
            "tailed replay diverged from recovery"
        );

        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    // Each case spawns a compaction thread; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Compaction racing the tail: a poller that restarts its stream
    /// whenever the journal epoch moves (or the tail reports truncation)
    /// still converges on the recovered state — offsets never lie within
    /// an epoch, and an epoch change is always observable.
    #[test]
    fn tailing_across_concurrent_compaction_converges(
        steps in prop::collection::vec(arb_step(), 8..60),
        start in 0u64..256,
        compact_every in 3usize..8,
        case in any::<u32>(),
    ) {
        let adb = adb();
        let path = temp("race", case);
        let _ = std::fs::remove_file(&path);

        let live = SessionManager::new(Arc::clone(&adb));
        live.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
        let s = [live.create_session(), live.create_session()];

        // Writer: random ops with periodic compactions, racing the tail.
        let done = AtomicBool::new(false);
        let mut acc: Vec<(u64, u64, SessionOp)> = Vec::new();
        std::thread::scope(|scope| {
            let live = &live;
            let done = &done;
            let steps = &steps;
            scope.spawn(move || {
                for (i, step) in steps.iter().enumerate() {
                    let _ = live.apply_op(s[step.session], &step.op);
                    if i % compact_every == compact_every - 1 {
                        let _ = live.compact_journal();
                    }
                }
                let _ = live.journal_sync();
                done.store(true, Ordering::Release);
            });

            // Tailer: the replication sender's epoch-guard discipline.
            let mut epoch = live.journal_stats().unwrap().epoch;
            let mut tail = JournalTail::resume(&path, start)
                .map(|(t, skipped)| {
                    // Records before the resume point count as consumed;
                    // reconstruct them from the file like a SNAP would.
                    let bytes = std::fs::read(&path).unwrap_or_default();
                    let (records, _) = scan_records(&bytes);
                    acc.extend(records.into_iter().take(skipped as usize));
                    t
                })
                .unwrap();
            loop {
                let writer_done = done.load(Ordering::Acquire);
                let before = live.journal_stats().unwrap().epoch;
                let poll = tail.poll().unwrap();
                let after = live.journal_stats().unwrap().epoch;
                let restart = before != epoch || after != before;
                match poll {
                    TailPoll::Records(batch) if !restart => {
                        acc.extend(batch.records);
                        if writer_done && before == after {
                            break;
                        }
                    }
                    // Epoch moved or the file shrank: everything streamed
                    // so far is superseded by the compacted file.
                    _ => {
                        acc.clear();
                        tail = JournalTail::new(&path);
                        epoch = after;
                    }
                }
            }
        });

        let replica = SessionManager::new(Arc::clone(&adb));
        replica.apply_replicated(&acc);
        let recovered = SessionManager::new(Arc::clone(&adb));
        recovered.recover(&path, FsyncPolicy::Flush).unwrap();
        prop_assert_eq!(
            fingerprint(&replica),
            fingerprint(&recovered),
            "epoch-guarded tail replay diverged from recovery"
        );

        let _ = std::fs::remove_file(&path);
    }
}
