//! Wire golden: replay `golden/wire.txt` — one fixed script over the
//! `mini` fixture that touches every verb and every refusal shape —
//! against in-process servers and compare every reply byte for byte with
//! the transcript. The transcript was captured from the `squid-serve`
//! binary of the commit before the command table, so this test passing is
//! the statement "the wire did not move"; the file's header explains its
//! line markers and names what is masked, and `golden/capture.py`
//! re-captures it from any `squid-serve` binary when a reply is meant to
//! change.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use squid_adb::{test_fixtures, ADb};
use squid_core::{FsyncPolicy, SessionManager};
use squid_serve::protocol::COMMANDS;
use squid_serve::{
    encode_request, json::Json, parse_request, Client, RateLimit, ServeConfig, Server,
};

const TRANSCRIPT: &str = include_str!("golden/wire.txt");

fn manager(journal: Option<&str>) -> Arc<SessionManager> {
    let adb = Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap());
    let manager = SessionManager::new(adb);
    if let Some(tag) = journal {
        let path = journal_path(tag);
        let _ = std::fs::remove_file(&path);
        manager.recover(&path, FsyncPolicy::Flush).unwrap();
    }
    Arc::new(manager)
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "squid-wire-golden-{tag}-{}.journal",
        std::process::id()
    ))
}

/// Start `node` — one of the four configurations the transcript's header
/// names — unless it is already running.
fn ensure(node: &str, nodes: &mut HashMap<String, Server>) {
    if nodes.contains_key(node) {
        return;
    }
    let (manager, cfg) = match node {
        "plain" => (
            manager(None),
            ServeConfig {
                max_sessions: 2,
                ..ServeConfig::default()
            },
        ),
        "limited" => (
            manager(None),
            ServeConfig {
                rate_limit: Some(RateLimit {
                    per_sec: 0.001,
                    burst: 1.0,
                }),
                ..ServeConfig::default()
            },
        ),
        "primary" => (
            manager(Some("primary")),
            ServeConfig {
                replicate_to: Some("127.0.0.1:0".into()),
                ..ServeConfig::default()
            },
        ),
        "standby" => (
            manager(Some("standby")),
            ServeConfig {
                standby_of: Some(nodes["primary"].repl_addr().unwrap().to_string()),
                ..ServeConfig::default()
            },
        ),
        other => panic!("transcript names an unknown node {other:?}"),
    };
    nodes.insert(node.to_string(), Server::start(manager, cfg).unwrap());
}

/// Replace the value after `key` (up to `end`) — the run-dependent parts
/// of a reply.
fn mask(reply: &str, key: &str, end: impl Fn(char) -> bool, with: &str) -> String {
    let Some(at) = reply.find(key) else {
        return reply.to_string();
    };
    let from = at + key.len();
    let len = reply[from..].find(end).unwrap_or(reply.len() - from);
    format!("{}{with}{}", &reply[..from], &reply[from + len..])
}

fn masked(reply: &str) -> String {
    let not_digit = |c: char| !c.is_ascii_digit();
    let mut reply = mask(reply, "\"uptime_ms\":", not_digit, "0");
    if reply.contains("\"code\":\"rate_limited\"") {
        reply = mask(&reply, "\"retry_after_ms\":", not_digit, "0");
    }
    mask(&reply, "\"primary\":\"", |c| c == '"', "<primary>")
}

/// Wait until the standby has applied everything the primary journaled and
/// knows where its primary is.
fn sync(nodes: &HashMap<String, Server>) {
    let health = |node: &str| {
        let mut c = Client::connect(nodes[node].local_addr()).unwrap();
        c.health().unwrap()
    };
    let repl = |h: &Json, key: &str| h.get("replication").and_then(|r| r.get(key)).cloned();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (p, s) = (health("primary"), health("standby"));
        if repl(&p, "standby_connected") == Some(Json::Bool(true))
            && repl(&p, "lag_records") == Some(Json::Int(0))
            && repl(&s, "link_up") == Some(Json::Bool(true))
            && repl(&s, "primary").is_some()
        {
            return;
        }
        assert!(Instant::now() < deadline, "the standby never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn every_reply_matches_the_transcript_captured_before_the_command_table() {
    let mut nodes: HashMap<String, Server> = HashMap::new();
    let mut conns: HashMap<String, (TcpStream, BufReader<TcpStream>)> = HashMap::new();
    let mut current = String::new();
    let mut replies = String::new();
    let mut lines = TRANSCRIPT.lines().enumerate();
    while let Some((no, line)) = lines.next() {
        let at = no + 1;
        if let Some(target) = line.strip_prefix("= ") {
            let node = target.split(' ').next().unwrap();
            ensure(node, &mut nodes);
            if !conns.contains_key(target) {
                let stream = TcpStream::connect(nodes[node].local_addr()).unwrap();
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                let reader = BufReader::new(stream.try_clone().unwrap());
                conns.insert(target.to_string(), (stream, reader));
            }
            current = target.to_string();
        } else if line == "! sync" {
            ensure("primary", &mut nodes);
            ensure("standby", &mut nodes);
            sync(&nodes);
        } else if let Some(request) = line.strip_prefix("> ").or(line.strip_prefix(">! ")) {
            if line.starts_with("> ") {
                // A line the in-tree clients send: the one encoder must
                // produce exactly these bytes for the verb they decode to.
                let req = parse_request(request)
                    .unwrap_or_else(|e| panic!("line {at}: a client line must parse: {e:?}"));
                assert_eq!(
                    encode_request(&req.verb, req.id).encode(),
                    request,
                    "line {at}: the encoder no longer writes what the clients sent"
                );
            }
            let (_, want) = lines.next().expect("a reply follows every request");
            let want = want
                .strip_prefix("< ")
                .unwrap_or_else(|| panic!("line {}: expected a `< ` reply line", at + 1));
            let (stream, reader) = conns.get_mut(&current).expect("a `= node conn` line first");
            stream.write_all(request.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            assert_eq!(
                masked(got.trim_end_matches('\n')),
                want,
                "line {at}: reply to {request} moved"
            );
            replies.push_str(want);
        } else {
            assert!(
                line.is_empty() || line.starts_with('#'),
                "line {at}: unrecognised transcript line {line:?}"
            );
        }
    }
    // The transcript is only a statement about the whole wire while it
    // answers every verb and refuses in every shape.
    for cmd in &COMMANDS {
        let ok = format!("{{\"ok\":true,\"op\":\"{}\"", cmd.name);
        assert!(replies.contains(&ok), "no `{}` is answered", cmd.name);
    }
    for shape in [
        "\"code\":\"bad_json\"",
        "\"code\":\"bad_request\"",
        "\"code\":\"unknown_verb\"",
        "\"code\":\"unknown_session\"",
        "\"code\":\"discovery\"",
        "\"code\":\"session_limit\",\"detail\":\"session limit 2 reached\",\"retry_after_ms\":",
        "\"code\":\"rate_limited\",\"detail\":\"session 1 exceeded its turn budget\",\"retry_after_ms\":",
        "dial the primary\",\"primary\":\"",
        "\"deduped\":true",
    ] {
        assert!(replies.contains(shape), "no reply carries {shape}");
    }
    drop(conns);
    for (_, server) in nodes {
        server.shutdown();
    }
    for tag in ["primary", "standby"] {
        let _ = std::fs::remove_file(journal_path(tag));
    }
}
