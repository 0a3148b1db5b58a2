//! One front end: the line loop of `squid --repl` and `squid-serve
//! --client` prints the same reply and error lines whether its verbs are
//! answered in process (a `SessionManager` through the server's dispatcher)
//! or over the wire (a `RetryClient` against a `Server`).

use std::sync::Arc;

use squid_adb::{test_fixtures, ADb};
use squid_core::SessionManager;
use squid_serve::protocol::COMMANDS;
use squid_serve::{json, repl, Json, RetryClient, ServeConfig, Server, Transport};

/// Every session verb over the `mini` fixture, refusals included.
const SCRIPT: &str = "\
# one conversation, every session verb
create
add Jim Carrey

add Eddie Murphy
remove Nobody
examples
sql
rows 2
suggest 2
pin person:gender
unpin person:gender
ban movie:genre
unban movie:genre
target person name
target nosuch name
auto
choose 1 Jim Carrey
choose 999 Jim Carrey
unchoose Jim Carrey
remove Eddie Murphy
suggest 1
frobnicate
stats
close
sql
quit
add Robin Williams
";

/// Run `script` through the loop (not in batch mode, so refusals are
/// reported and the run goes on); returns the reply and error lines.
fn transcript(t: &mut dyn Transport, script: &str) -> (Vec<String>, Vec<String>) {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    repl::run(t, None, script.as_bytes(), &mut out, &mut err, false).unwrap();
    let lines = |bytes: Vec<u8>| {
        let text = String::from_utf8(bytes).unwrap();
        text.lines().map(str::to_string).collect::<Vec<_>>()
    };
    (lines(out), lines(err))
}

/// A `stats` reply without the members only a server has.
fn without_serving(reply: &str) -> Json {
    let Ok(Json::Obj(members)) = json::parse(reply) else {
        panic!("a stats reply is a JSON object: {reply}");
    };
    let kept = members
        .into_iter()
        .filter(|(k, _)| k != "server" && k != "clients");
    Json::Obj(kept.collect())
}

#[test]
fn the_local_and_the_wire_transport_print_the_same_lines() {
    let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
    let mut local = SessionManager::new(Arc::clone(&adb));
    let (local_out, local_err) = transcript(&mut local, SCRIPT);

    let server = Server::start(
        Arc::new(SessionManager::new(Arc::clone(&adb))),
        ServeConfig::default(),
    )
    .unwrap();
    let mut wire = RetryClient::new(server.local_addr().to_string());
    let (wire_out, wire_err) = transcript(&mut wire, SCRIPT);
    server.shutdown();

    assert_eq!(local_err, wire_err, "error lines differ");
    assert_eq!(
        local_out.len(),
        wire_out.len(),
        "{local_out:#?}\n{wire_out:#?}"
    );
    for (l, w) in local_out.iter().zip(&wire_out) {
        if l.contains(r#""op":"stats""#) {
            assert!(w.contains(r#""server":{"#) && w.contains(r#""clients":{"#));
            assert_eq!(without_serving(l), without_serving(w));
            assert!(l.contains(r#""adb_heap":{"tables":"#), "{l}");
        } else {
            assert_eq!(l, w);
        }
    }

    // The script reached every session verb and every refusal, and stopped
    // at `quit`.
    for verb in [
        "create", "add", "remove", "target", "auto", "pin", "unpin", "ban", "unban", "choose",
        "unchoose", "suggest", "sql", "rows", "examples", "stats", "close",
    ] {
        let reply = format!(r#"{{"ok":true,"op":"{verb}""#);
        assert!(local_out.iter().any(|l| l.starts_with(&reply)), "no {verb}");
    }
    let refusals: Vec<&String> = local_err.iter().filter(|l| l.contains("error:")).collect();
    assert_eq!(refusals.len(), 5, "{local_err:#?}");
    for (refusal, says) in refusals.iter().zip([
        "example \"Nobody\" is not in the session",
        "unknown projection target nosuch.name",
        "entity 999 is not a candidate match for \"Jim Carrey\"",
        "unknown command \"frobnicate\" — try `help`",
        "server error [unknown_session]: unknown or expired session 1",
    ]) {
        assert!(refusal.contains(says), "{refusal:?} should say {says:?}");
    }
    assert_eq!(
        local_out.len(),
        19,
        "one reply per answered line, none after `quit`"
    );
}

#[test]
fn batch_mode_stops_at_the_first_failed_line_and_help_lists_every_verb() {
    let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
    let mut local = SessionManager::new(adb);
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let script = "help\ncreate\nadd Jim Carrey\nremove Nobody\nsql\n";
    let failed = repl::run(
        &mut local,
        None,
        script.as_bytes(),
        &mut out,
        &mut err,
        true,
    );
    assert_eq!(
        failed,
        Err(
            "line 4: command \"remove Nobody\" failed: server error [discovery]: \
             example \"Nobody\" is not in the session"
                .to_string()
        )
    );
    assert!(err.is_empty(), "batch mode neither prompts nor reports");
    let out = String::from_utf8(out).unwrap();
    for cmd in &COMMANDS {
        let usage = format!("  {}", cmd.name);
        assert!(
            out.lines().any(|l| l.starts_with(&usage)),
            "help lacks {}",
            cmd.name
        );
    }
    assert!(out.lines().any(|l| l == "  choose <pk> <example…>"));
    assert!(
        !out.contains(r#""op":"sql""#),
        "nothing runs after the failed line"
    );
}
