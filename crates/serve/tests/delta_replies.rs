//! A mutating turn answers with its delta: no reply but the `sql` verb's
//! carries the query, the filter list a client folds from
//! `added_filters`/`removed_filters` alone is the session's chosen filters,
//! and `sql` answers what an in-process session replaying the same ops
//! renders. Over the `mini` fixture and IMDb at the generator defaults.

use std::sync::Arc;

use squid_adb::{test_fixtures, ADb};
use squid_core::{SessionManager, SessionOp, SquidSession};
use squid_datasets::{generate_imdb, ImdbConfig};
use squid_serve::{json::Json, Client, ServeConfig, Server, Verb};

/// One session's script: three adds, the second example removed, a pin
/// and a ban each set and dropped, then an explicit and an automatic
/// target.
fn script(examples: [&str; 3], pin: &str, ban: &str) -> Vec<SessionOp> {
    let text = |s: &str| s.to_string();
    vec![
        SessionOp::AddExample(text(examples[0])),
        SessionOp::AddExample(text(examples[1])),
        SessionOp::AddExample(text(examples[2])),
        SessionOp::RemoveExample(text(examples[1])),
        SessionOp::PinFilter(text(pin)),
        SessionOp::UnpinFilter(text(pin)),
        SessionOp::BanFilter(text(ban)),
        SessionOp::UnbanFilter(text(ban)),
        SessionOp::SetTarget {
            table: text("person"),
            column: text("name"),
        },
        SessionOp::SetTargetAuto,
    ]
}

fn strings(reply: &Json, key: &str) -> Vec<String> {
    reply
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no {key:?} array in {reply}"))
        .iter()
        .map(|f| f.as_str().expect("a filter is a string").to_string())
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Drive `ops` through one served session and an in-process twin, and
/// check every reply against the twin after every turn. Returns how many
/// filters the replies added and removed in all, so a caller can tell the
/// script moved the query.
fn drive(adb: ADb, ops: &[SessionOp]) -> (usize, usize) {
    let adb = Arc::new(adb);
    let manager = Arc::new(SessionManager::new(Arc::clone(&adb)));
    let server = Server::start(manager, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut twin = SquidSession::new(&adb);
    let mut send = |verb: Verb| {
        let reply = client.send(&verb).unwrap();
        let op = reply.get("op").and_then(Json::as_str).unwrap().to_string();
        assert!(
            (op == "sql") == reply.get("sql").is_some(),
            "only the `sql` verb renders the query: {reply}"
        );
        reply
    };
    let session = send(Verb::Create)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    let (mut folded, mut added, mut removed) = (Vec::<String>::new(), 0, 0);
    for (turn, op) in ops.iter().enumerate() {
        let reply = send(Verb::Apply {
            session,
            op: op.clone(),
            seq: None,
        });
        op.apply(&mut twin).unwrap();
        let gone = strings(&reply, "removed_filters");
        let came = strings(&reply, "added_filters");
        (added, removed) = (added + came.len(), removed + gone.len());
        folded.retain(|f| !gone.contains(f));
        folded.extend(came);
        let chosen: Vec<String> = twin.discovery().map_or_else(Vec::new, |d| {
            d.chosen_filters().iter().map(|f| f.describe()).collect()
        });
        assert_eq!(
            sorted(folded.clone()),
            sorted(chosen),
            "turn {turn} ({op:?}): the folded deltas are not the chosen filters"
        );
        let sql = send(Verb::Sql { session });
        let want = twin.discovery().map_or(Json::Null, |d| Json::Str(d.sql()));
        assert_eq!(
            sql.get("sql"),
            Some(&want),
            "turn {turn} ({op:?}): `sql` moved"
        );
    }
    for verb in [
        Verb::Rows { session, limit: 3 },
        Verb::Suggest { session, k: 2 },
        Verb::Examples { session },
        Verb::Stats {
            session: Some(session),
        },
        Verb::Close { session },
    ] {
        send(verb);
    }
    server.shutdown();
    (added, removed)
}

#[test]
fn mutating_replies_carry_the_delta() {
    let mini = script(
        ["Jim Carrey", "Eddie Murphy", "Robin Williams"],
        "person:gender",
        "movie:genre",
    );
    let (added, removed) = drive(ADb::build(&test_fixtures::mini_imdb()).unwrap(), &mini);
    assert!(
        added > 0 && removed > 0,
        "mini: {added} added, {removed} removed"
    );

    let imdb = script(
        ["Person 000121", "Person 000620", "Person 000045"],
        "genre.name",
        "birth_year",
    );
    let db = generate_imdb(&ImdbConfig::default());
    let (added, removed) = drive(ADb::build(&db).unwrap(), &imdb);
    assert!(
        added > 0 && removed > 0,
        "imdb: {added} added, {removed} removed"
    );
}
