//! Byte-mutation fuzzing of the decoders that read request lines off the
//! wire: every client line of the wire golden, with bytes flipped,
//! inserted, deleted and truncated, must come back from `parse_request`,
//! `parse_line` and `json::parse` as a value or an error — never a panic.
//! A document `json::parse` accepts re-encodes to one it parses back
//! unchanged.

use proptest::prelude::*;
use squid_relation::frame::failpoint::mutate;
use squid_serve::{json, parse_line, parse_request};

/// Valid request lines: every line the in-tree clients send in the wire
/// golden, which answers every verb.
fn corpus() -> Vec<&'static str> {
    let lines: Vec<&str> = include_str!("golden/wire.txt")
        .lines()
        .filter_map(|l| l.strip_prefix("> "))
        .collect();
    assert!(lines.len() > 20, "the golden holds the request corpus");
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_request_lines_never_panic_the_decoders(
        pick in any::<usize>(),
        edits in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..6),
    ) {
        let corpus = corpus();
        let line = corpus[pick % corpus.len()];
        let bytes = mutate(line.as_bytes().to_vec(), &edits);
        // The server refuses a line that is not UTF-8 before decoding it;
        // the lossy form keeps every mutation on the decoders' input.
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&text);
        let _ = parse_line(&text, Some(1));
        if let Ok(doc) = json::parse(&text) {
            prop_assert_eq!(json::parse(&doc.encode()).ok(), Some(doc));
        }
    }
}
