//! Byte-mutation fuzzing of the snapshot loader, which reads files off
//! disk and αDB frames off a primary's replication stream. A `mini_imdb`
//! snapshot with bytes flipped, inserted, deleted and truncated must load
//! as the same database or fail as `Corrupt` — never panic, never an I/O
//! error. The first arm mutates the file as it lies, so most edits stop at
//! a record's checksum; the second mutates one section's payload and
//! re-seals its record, so the edits reach the section decoders behind
//! the checksum.

use std::sync::OnceLock;

use proptest::prelude::*;
use squid_adb::test_fixtures::mini_imdb;
use squid_adb::ADb;
use squid_relation::frame::failpoint::mutate;
use squid_relation::frame::{next_record, put_record};
use squid_relation::{db_fingerprint, FrameError};

/// The preamble: magic + format version.
const PREAMBLE: usize = 12;

fn snapshot() -> &'static (Vec<u8>, u64) {
    static SNAPSHOT: OnceLock<(Vec<u8>, u64)> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let adb = ADb::build(&mini_imdb()).unwrap();
        let mut bytes = Vec::new();
        adb.save_snapshot_to(&mut bytes).unwrap();
        (bytes, db_fingerprint(&adb.database))
    })
}

/// Load `bytes`: `Ok` must be the saved database, anything else `Corrupt`.
fn check_load(bytes: &[u8]) {
    match ADb::load_snapshot_from(&mut &bytes[..]) {
        Ok(adb) => assert_eq!(db_fingerprint(&adb.database), snapshot().1),
        Err(FrameError::Corrupt { .. }) => {}
        Err(FrameError::Io(e)) => panic!("i/o error {e} from an in-memory load"),
    }
}

/// The three section payloads, in file order.
fn sections(bytes: &[u8]) -> Vec<&[u8]> {
    let mut rest = &bytes[PREAMBLE..];
    let mut out = Vec::new();
    while let Some((payload, consumed)) = next_record(rest, u32::MAX).unwrap() {
        out.push(payload);
        rest = &rest[consumed..];
    }
    assert!(rest.is_empty());
    out
}

#[test]
fn the_unmutated_snapshot_loads() {
    let (bytes, _) = snapshot();
    assert_eq!(sections(bytes).len(), 3);
    check_load(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_snapshot_bytes_load_the_same_database_or_are_corrupt(
        edits in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..4),
    ) {
        check_load(&mutate(snapshot().0.clone(), &edits));
    }

    #[test]
    fn mutated_and_resealed_sections_load_the_same_database_or_are_corrupt(
        pick in 0usize..3,
        edits in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..4),
    ) {
        let (bytes, _) = snapshot();
        let mut file = bytes[..PREAMBLE].to_vec();
        for (i, payload) in sections(bytes).into_iter().enumerate() {
            let payload = if i == pick {
                mutate(payload.to_vec(), &edits)
            } else {
                payload.to_vec()
            };
            put_record(&mut file, &payload, u32::MAX).unwrap();
        }
        check_load(&file);
    }
}
