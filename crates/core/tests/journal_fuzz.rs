//! Byte-mutation fuzzing of the journal record scanner, which reads bytes
//! off disk and off another node's replication stream. A valid journal
//! with bytes flipped, inserted, deleted and truncated must scan without
//! a panic to a valid prefix that ends on a record boundary (re-scanning
//! just that prefix yields the same records), that keeps every record the
//! mutations left untouched, and that `JournalTail::resume` agrees with.

use proptest::prelude::*;
use squid_core::{scan_records, FsyncPolicy, Journal, JournalTail, SessionOp};
use squid_relation::frame::failpoint::mutate;

fn arb_op() -> impl Strategy<Value = SessionOp> {
    let text = || prop_oneof![Just(""), Just("Jim Carrey"), Just("Zoë \"Z\" \\ ☃")];
    prop_oneof![
        Just(SessionOp::Create),
        Just(SessionOp::End),
        Just(SessionOp::SetTargetAuto),
        text().prop_map(|t| SessionOp::AddExample(t.into())),
        text().prop_map(|t| SessionOp::PinFilter(t.into())),
        text().prop_map(|t| SessionOp::ClearChoice(t.into())),
        (text(), text()).prop_map(|(table, column)| SessionOp::SetTarget {
            table: table.into(),
            column: column.into(),
        }),
        (text(), any::<i64>()).prop_map(|(t, pk)| SessionOp::ChooseEntity {
            example: t.into(),
            pk,
        }),
    ]
}

fn temp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("squid_journal_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.journal", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_journal_bytes_scan_to_a_record_boundary(
        records in prop::collection::vec((0u64..4, 0u64..8, arb_op()), 1..12),
        edits in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let path = temp("scan");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open(&path, FsyncPolicy::Never).unwrap();
        for (session, seq, op) in &records {
            journal.append(*session, *seq, op).unwrap();
        }
        drop(journal);
        let original = std::fs::read(&path).unwrap();
        prop_assert_eq!(scan_records(&original), (records.clone(), original.len() as u64));

        let bytes = mutate(original.clone(), &edits);
        let (scanned, valid) = scan_records(&bytes);
        prop_assert!(valid <= bytes.len() as u64);
        prop_assert_eq!(
            scan_records(&bytes[..valid as usize]),
            (scanned.clone(), valid),
            "the valid prefix must end on a record boundary"
        );
        // Records wholly before the first changed byte survive.
        let unchanged = original.iter().zip(&bytes).take_while(|(a, b)| a == b).count();
        let (kept, _) = scan_records(&original[..unchanged]);
        prop_assert_eq!(&scanned[..kept.len()], &kept[..]);

        // The tail reader frames the same bytes the same way.
        std::fs::write(&path, &bytes).unwrap();
        let (tail, before) = JournalTail::resume(&path, u64::MAX).unwrap();
        prop_assert_eq!((tail.offset(), before), (valid, scanned.len() as u64));
        let _ = std::fs::remove_file(&path);
    }
}
