//! Property tests pinning session/one-shot parity: adding examples
//! one-at-a-time through `SquidSession` — in any order, including an
//! add→remove→re-add round trip — must yield a `Discovery` identical to
//! `Squid::discover` on the full set.

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb};
use squid_core::{Discovery, Squid, SquidParams, SquidSession};

const IMDB_NAMES: &[&str] = &[
    "Jim Carrey",
    "Eddie Murphy",
    "Robin Williams",
    "Sylvester Stallone",
    "Arnold Schwarzenegger",
    "Ewan McGregor",
    "Julia Roberts",
    "Emma Stone",
];

const FIGURE6_NAMES: &[&str] = &[
    "Tom Cruise",
    "Clint Eastwood",
    "Tom Hanks",
    "Julia Roberts",
    "Emma Stone",
    "Julianne Moore",
];

/// Render every observable field of a discovery (scores included) so that
/// equality failures show exactly what drifted.
fn render(adb: &ADb, d: &Discovery) -> String {
    let scored: Vec<String> = d
        .scored
        .iter()
        .map(|s| {
            format!(
                "{} psi={:.12} prior={:.12} inc={} exc={:.12}",
                s.filter.describe(),
                s.filter.selectivity,
                s.prior,
                s.included,
                s.exclude_score
            )
        })
        .collect();
    let rows: Vec<usize> = d.rows.iter().collect();
    format!(
        "{}.{} examples={:?} scored={:?} sql={:?} adb={:?} rows={:?}",
        d.entity_table,
        d.projection_column,
        d.example_rows,
        scored,
        d.sql(),
        d.adb_query(adb).as_ref().map(squid_engine::to_sql),
        rows
    )
}

/// Select a non-empty subset of `names` in a mask-and-rotation order.
fn pick(names: &'static [&'static str], mask: u8, rot: usize) -> Vec<&'static str> {
    let mut chosen: Vec<&'static str> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1u8 << (i % 8)) != 0)
        .map(|(_, n)| *n)
        .collect();
    if chosen.is_empty() {
        chosen.push(names[rot % names.len()]);
    }
    let r = rot % chosen.len();
    chosen.rotate_left(r);
    chosen
}

fn check_parity(adb: &ADb, params: &SquidParams, examples: &[&str], round_trip_idx: usize) {
    let squid = Squid::with_params(adb, params.clone());
    let one_shot = squid.discover(examples).expect("one-shot discovery");

    // One-at-a-time adds.
    let mut session = SquidSession::with_params(adb, params.clone());
    for e in examples {
        session.add_example(e).expect("session add");
    }
    assert_eq!(
        render(adb, session.discovery().expect("session discovery")),
        render(adb, &one_shot),
        "incremental adds diverged from one-shot on {examples:?}"
    );

    // add → remove → re-add round trip of one example.
    let victim = examples[round_trip_idx % examples.len()];
    session.remove_example(victim).expect("session remove");
    if examples.len() > 1 {
        // The intermediate state equals one-shot discovery on the rest.
        let rest: Vec<&str> = {
            let mut rest = examples.to_vec();
            rest.remove(
                examples
                    .iter()
                    .position(|e| e == &victim)
                    .expect("victim present"),
            );
            rest
        };
        let partial = squid.discover(&rest).expect("one-shot on the rest");
        assert_eq!(
            render(adb, session.discovery().expect("post-removal discovery")),
            render(adb, &partial),
            "removal diverged from one-shot on {rest:?}"
        );
    }
    session.add_example(victim).expect("session re-add");
    assert_eq!(
        render(adb, session.discovery().expect("post-round-trip discovery")),
        render(adb, &one_shot),
        "add→remove→re-add diverged from one-shot on {examples:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mini-IMDb: random example subsets in random rotation order, default
    /// and low-τa parameter sets.
    #[test]
    fn imdb_session_matches_one_shot(mask in 1u8..=255, rot in 0usize..8, low_tau in any::<bool>()) {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let params = if low_tau {
            SquidParams { tau_a: 3, ..SquidParams::default() }
        } else {
            SquidParams::default()
        };
        let examples = pick(IMDB_NAMES, mask, rot);
        check_parity(&adb, &params, &examples, rot);
    }

    /// Figure 6: the basic-filter fixture, with disjunctions enabled half
    /// the time (exercises the CatIn fallback path).
    #[test]
    fn figure6_session_matches_one_shot(mask in 1u8..=63, rot in 0usize..6, disj in any::<bool>()) {
        let adb = ADb::build(&test_fixtures::figure6_db()).unwrap();
        let params = SquidParams {
            allow_disjunction: disj,
            ..SquidParams::default()
        };
        let examples = pick(FIGURE6_NAMES, mask, rot);
        check_parity(&adb, &params, &examples, rot.wrapping_add(1));
    }
}
