//! `suggest` ≡ the per-row definition of example recommendation.
//!
//! `recommend_examples` searches signature classes over violator bitmaps
//! (see `squid_core::recommend`); what it must return is defined row by
//! row: probe every contested filter on every result row that is not an
//! example, sum the uncertainties of the violated ones in `scored` order,
//! sort by (score desc, row asc), keep `k`. This file states that
//! definition with the crate's public pieces and holds the two together —
//! whole `Vec<Recommendation>`, score bit patterns included — across
//! random add/remove/pin/ban/unpin/unban sessions on three slates.
//!
//! A ban on a filter Algorithm 1 had included is the case that matters
//! most: the filter stays contested, stops restricting the result, and
//! every row that re-enters violates it.

use std::sync::OnceLock;

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb, EntityProps};
use squid_core::{
    recommend_examples, uncertainty, Discovery, Recommendation, SquidSession,
    DEFAULT_MIN_UNCERTAINTY,
};
use squid_datasets::{generate_imdb, ImdbConfig};

fn recommend_per_row(
    entity: &EntityProps,
    d: &Discovery,
    k: usize,
    min_uncertainty: f64,
) -> Vec<Recommendation> {
    let mut recs = Vec::new();
    for row in &d.rows {
        if d.example_rows.contains(&row) {
            continue;
        }
        let mut score = 0.0;
        let mut discriminates = Vec::new();
        for s in &d.scored {
            let u = uncertainty(s);
            let Some(prop) = entity.property(s.filter.prop_id) else {
                continue;
            };
            if u >= min_uncertainty && !s.filter.matches_row(prop, row) {
                score += u;
                discriminates.push(s.filter.prop_id.as_str().to_string());
            }
        }
        if score > 0.0 {
            recs.push(Recommendation {
                row,
                score,
                discriminates,
            });
        }
    }
    recs.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.row.cmp(&b.row)));
    recs.truncate(k);
    recs
}

fn assert_suggest_matches(adb: &ADb, session: &SquidSession, trail: &[String]) {
    let Some(d) = session.discovery() else {
        assert!(session.suggest(3).is_empty());
        return;
    };
    let entity = adb.entity(&d.entity_table).unwrap();
    for k in [0, 1, 3, d.rows.len() + 1] {
        for min_uncertainty in [0.0, DEFAULT_MIN_UNCERTAINTY, 1.1] {
            let got = recommend_examples(entity, d, k, min_uncertainty);
            let want = recommend_per_row(entity, d, k, min_uncertainty);
            assert_eq!(
                got, want,
                "k={k} min_uncertainty={min_uncertainty} after {trail:?}"
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "after {trail:?}");
            }
        }
        assert_eq!(
            session.suggest(k),
            recommend_per_row(entity, d, k, DEFAULT_MIN_UNCERTAINTY),
            "suggest({k}) after {trail:?}"
        );
    }
}

/// Drive one session through `ops` and compare after every turn that
/// applied. `(verb, arg)`: verbs 0–3 add, 4 removes, 5 pins, 6 bans, 7
/// lifts a pin or a ban; `arg` picks the example or the filter key.
fn check_session(adb: &ADb, names: &[String], ops: &[(u8, u16)]) {
    let mut session = SquidSession::new(adb);
    let mut trail = Vec::new();
    for &(verb, arg) in ops {
        let arg = arg as usize;
        let key_of = |included_only: bool| -> Option<String> {
            let scored = &session.discovery()?.scored;
            let pool: Vec<_> = scored
                .iter()
                .filter(|s| s.included || !included_only)
                .collect();
            let pool = if pool.is_empty() {
                scored.iter().collect()
            } else {
                pool
            };
            let s = pool.get(arg % pool.len().max(1))?;
            Some(s.filter.attr_name.as_str().to_string())
        };
        let (what, outcome) = match verb {
            0..=3 => {
                let name = &names[arg % names.len()];
                (format!("add {name}"), session.add_example(name))
            }
            4 => {
                let Some(name) = session
                    .examples()
                    .get(arg % session.examples().len().max(1))
                    .map(|e| e.to_string())
                else {
                    continue;
                };
                (format!("remove {name}"), session.remove_example(&name))
            }
            5 | 6 => {
                // Bans aim at included filters: those are the ones whose
                // violators flood back into the result.
                let Some(key) = key_of(verb == 6) else {
                    continue;
                };
                if verb == 5 {
                    (format!("pin {key}"), session.pin_filter(&key))
                } else {
                    (format!("ban {key}"), session.ban_filter(&key))
                }
            }
            _ => {
                let (pinned, banned) = (session.pinned().to_vec(), session.banned().to_vec());
                if arg.is_multiple_of(2) && !pinned.is_empty() {
                    let key = &pinned[arg % pinned.len()];
                    (format!("unpin {key}"), session.unpin_filter(key))
                } else if !banned.is_empty() {
                    let key = &banned[arg % banned.len()];
                    (format!("unban {key}"), session.unban_filter(key))
                } else {
                    continue;
                }
            }
        };
        // A refused turn (unknown example, empty abduction) rolls back.
        if outcome.is_ok() {
            trail.push(what);
            assert_suggest_matches(adb, &session, &trail);
        }
    }
}

fn names(raw: &[&str]) -> Vec<String> {
    raw.iter().map(|n| n.to_string()).collect()
}

fn generated() -> &'static (ADb, Vec<String>) {
    static G: OnceLock<(ADb, Vec<String>)> = OnceLock::new();
    G.get_or_init(|| {
        let adb = ADb::build(&generate_imdb(&ImdbConfig::tiny())).unwrap();
        let names = (0..ImdbConfig::tiny().persons)
            .map(|i| format!("Person {i:06}"))
            .collect();
        (adb, names)
    })
}

fn ops() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((0u8..8, any::<u16>()), 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mini_imdb_suggest_matches_per_row(ops in ops()) {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let names = names(&[
            "Jim Carrey", "Eddie Murphy", "Robin Williams", "Sylvester Stallone",
            "Arnold Schwarzenegger", "Ewan McGregor", "Julia Roberts", "Emma Stone",
        ]);
        check_session(&adb, &names, &ops);
    }

    #[test]
    fn figure6_suggest_matches_per_row(ops in ops()) {
        let adb = ADb::build(&test_fixtures::figure6_db()).unwrap();
        let names = names(&[
            "Tom Cruise", "Clint Eastwood", "Tom Hanks", "Julia Roberts", "Emma Stone",
            "Julianne Moore",
        ]);
        check_session(&adb, &names, &ops);
    }

    /// 400 generated persons: results of hundreds of rows, a dozen
    /// candidate filters per turn, classes with more rows than `k`.
    #[test]
    fn generated_imdb_suggest_matches_per_row(ops in ops()) {
        let (adb, names) = generated();
        check_session(adb, names, &ops);
    }
}
