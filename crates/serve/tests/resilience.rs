//! Server-protection e2e: sequence-numbered turn dedupe, per-session
//! rate limiting with retry hints, the `health` probe, and a restart on
//! the same port — the parts of the self-healing story that don't need a
//! crashing process.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use squid_adb::{test_fixtures, ADb};
use squid_core::{FsyncPolicy, Journal, SessionManager};
use squid_serve::{
    json::Json, Client, ClientError, RateLimit, RetryClient, RetryPolicy, ServeConfig, Server,
};

fn test_adb() -> Arc<ADb> {
    Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

fn start_with(manager: SessionManager, cfg: ServeConfig) -> Server {
    Server::start(Arc::new(manager), cfg).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "squid-resilience-{tag}-{}-{:?}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn sequenced_turns_dedupe_and_reject_gaps_over_the_wire() {
    let server = start_with(SessionManager::new(test_adb()), ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sid = client.create().unwrap();
    let body = |seq: i64| {
        Json::obj([
            ("op", Json::str("add")),
            ("session", Json::Int(sid as i64)),
            ("seq", Json::Int(seq)),
            ("value", Json::str("Jim Carrey")),
        ])
    };

    let first = client.request(&body(1)).unwrap();
    assert_eq!(
        first.get("deduped"),
        None,
        "a fresh turn must not be marked deduped"
    );

    // A client retrying a lost ack re-sends the same sequence number:
    // the server absorbs it and answers with the original turn's fields.
    let replay = client.request(&body(1)).unwrap();
    assert_eq!(replay.get("deduped").and_then(Json::as_bool), Some(true));
    assert_eq!(
        replay.get("rows").and_then(Json::as_i64),
        first.get("rows").and_then(Json::as_i64),
        "deduped ack must carry the original response fields"
    );

    // Applied once, not twice.
    let examples = client
        .request(&Json::obj([
            ("op", Json::str("examples")),
            ("session", Json::Int(sid as i64)),
        ]))
        .unwrap();
    assert_eq!(
        examples
            .get("examples")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );

    // Claiming turns the server never saw is a client bug, not a retry.
    let err = client.request(&body(5)).unwrap_err();
    assert_eq!(err.code(), Some("bad_request"));

    // Unsequenced turns still work and share the same cursor.
    client.add(sid, "Eddie Murphy").unwrap();
    server.shutdown();
}

/// What a retried sequenced turn is answered with: the latest one gets
/// its original reply back byte for byte (plus `deduped`), even after an
/// unsequenced turn moved the cursor; an older one, or any retry after a
/// restart, gets the minimal ack.
#[test]
fn a_retried_turn_gets_its_reply_back_until_the_server_restarts() {
    let path = temp_path("retried-reply");
    let _ = std::fs::remove_file(&path);
    let manager = SessionManager::new(test_adb());
    manager.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
    let server = start_with(manager, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sid = client.create().unwrap();
    let add = |seq: i64, value: &str| {
        Json::obj([
            ("op", Json::str("add")),
            ("session", Json::Int(sid as i64)),
            ("seq", Json::Int(seq)),
            ("value", Json::str(value)),
        ])
    };
    let deduped = |reply: &Json| {
        let Json::Obj(members) = reply else {
            panic!("a reply is an object: {reply}");
        };
        let mut members = members.clone();
        members.push(("deduped".into(), Json::Bool(true)));
        Json::Obj(members).encode()
    };
    let minimal = r#"{"ok":true,"op":"add","deduped":true}"#;

    client.request(&add(1, "Jim Carrey")).unwrap();
    let second = client.request(&add(2, "Eddie Murphy")).unwrap();
    // A full delta, not the minimal ack: the second example adds filters.
    let added = second.get("added_filters").and_then(Json::as_arr);
    assert!(added.is_some_and(|a| !a.is_empty()), "{second}");
    let retried = client.request(&add(2, "Eddie Murphy")).unwrap();
    assert_eq!(retried.encode(), deduped(&second));

    // An unsequenced turn moves the cursor past the memo, not over it.
    client.add(sid, "Robin Williams").unwrap();
    let retried = client.request(&add(2, "Eddie Murphy")).unwrap();
    assert_eq!(retried.encode(), deduped(&second));
    let older = client.request(&add(1, "Jim Carrey")).unwrap();
    assert_eq!(older.encode(), minimal);
    server.shutdown();

    // The answer is not journaled: a restarted server acks the retry.
    let manager = SessionManager::new(test_adb());
    manager.recover(&path, FsyncPolicy::Flush).unwrap();
    let server = start_with(manager, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let retried = client.request(&add(2, "Eddie Murphy")).unwrap();
    assert_eq!(retried.encode(), minimal);
    let examples = client
        .request(&Json::obj([
            ("op", Json::str("examples")),
            ("session", Json::Int(sid as i64)),
        ]))
        .unwrap();
    assert_eq!(
        examples
            .get("examples")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3),
        "no retry ran twice"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// `turns` counts turns that applied, sequenced or not: a refused turn
/// leaves the server's and the identified client's counters alone.
#[test]
fn refused_turns_are_not_counted_as_turns() {
    let server = start_with(SessionManager::new(test_adb()), ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.identify("alice").unwrap();
    let sid = client.create().unwrap();
    let turns = |client: &mut Client| {
        let stats = client.stats(None).unwrap();
        let server = stats.get("server").and_then(|s| s.get("turns"));
        let alice = stats
            .get("clients")
            .and_then(|c| c.get("alice"))
            .and_then(|a| a.get("turns"));
        (
            server.and_then(Json::as_u64).unwrap(),
            alice.and_then(Json::as_u64).unwrap(),
        )
    };
    assert_eq!(turns(&mut client), (0, 0));
    let err = client.add(sid, "Nobody At All").unwrap_err();
    assert_eq!(err.code(), Some("discovery"), "{err}");
    let err = client.add(9999, "Jim Carrey").unwrap_err();
    assert_eq!(err.code(), Some("unknown_session"), "{err}");
    assert_eq!(turns(&mut client), (0, 0), "refused turns are not turns");
    client.add(sid, "Jim Carrey").unwrap();
    assert_eq!(turns(&mut client), (1, 1));
    server.shutdown();
}

#[test]
fn an_ill_typed_seq_is_refused_and_never_applied_unsequenced() {
    let server = start_with(SessionManager::new(test_adb()), ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sid = client.create().unwrap();
    let op_seq = |client: &mut Client| {
        let stats = client.stats(Some(sid)).unwrap();
        stats.get("op_seq").and_then(Json::as_u64).unwrap()
    };
    // A client that serialises its turn number as a string (or a float, or
    // lets it go negative) asked for exactly-once; falling back to "no
    // seq" would apply the turn — and every retry of it — unsequenced.
    for seq in [Json::str("2"), Json::Float(2.0), Json::Int(-2)] {
        let err = client
            .request(&Json::obj([
                ("op", Json::str("add")),
                ("session", Json::Int(sid as i64)),
                ("seq", seq),
                ("value", Json::str("Jim Carrey")),
            ]))
            .unwrap_err();
        assert_eq!(err.code(), Some("bad_request"));
        assert!(err.to_string().contains("\"seq\""), "{err}");
        assert_eq!(op_seq(&mut client), 0, "a refused turn must not run");
    }
    assert_eq!(client.sql(sid).unwrap(), None, "the session is still empty");
    server.shutdown();
}

#[test]
fn a_turn_refused_on_the_session_bucket_does_not_charge_the_client() {
    let server = start_with(
        SessionManager::new(test_adb()),
        ServeConfig {
            // One token per bucket, no refill worth the name.
            rate_limit: Some(RateLimit {
                per_sec: 0.001,
                burst: 1.0,
            }),
            ..ServeConfig::default()
        },
    );
    // An anonymous connection drains session A's bucket.
    let mut anon = Client::connect(server.local_addr()).unwrap();
    let a = anon.create().unwrap();
    let b = anon.create().unwrap();
    anon.add(a, "Jim Carrey").unwrap();
    // An identified client is refused on A — by A's bucket, not its own...
    let mut alice = Client::connect(server.local_addr()).unwrap();
    alice.identify("alice").unwrap();
    let err = alice.add(a, "Eddie Murphy").unwrap_err();
    assert_eq!(err.code(), Some("rate_limited"));
    assert!(err.to_string().contains(&format!("session {a}")), "{err}");
    // ...so the turn that never ran cost it nothing: its one token is
    // still there for a fresh session.
    alice.add(b, "Jim Carrey").unwrap();
    // And now both of B's and alice's tokens are spent.
    let err = alice.add(b, "Eddie Murphy").unwrap_err();
    assert_eq!(err.code(), Some("rate_limited"));
    let report = server.shutdown();
    assert_eq!(report.metrics.rate_limited, 2);
    assert_eq!(report.metrics.turns, 2);
}

/// Client identities are bounded: at most `max_sessions` of them, each a
/// short name. A known identity is always taken back (a retrying client
/// replays its handshake on every reconnect), and `stats` lists no more
/// identities than the bound.
#[test]
fn client_identities_are_bounded() {
    let server = start_with(
        SessionManager::new(test_adb()),
        ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        },
    );
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.identify("alice").unwrap();
    let err = c.identify(&"x".repeat(129)).unwrap_err();
    assert_eq!(err.code(), Some("bad_request"), "{err}");
    c.identify("bob").unwrap();
    let err = c.identify("carol").unwrap_err();
    assert_eq!(err.code(), Some("bad_request"), "{err}");
    c.identify("alice").unwrap();
    c.identify("bob").unwrap();
    let stats = c.stats(None).unwrap();
    let Some(Json::Obj(clients)) = stats.get("clients") else {
        panic!("stats carries a clients object: {stats}");
    };
    let names: Vec<&str> = clients.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["alice", "bob"]);
    server.shutdown();
}

/// A retrying client whose identity the server refuses gets the refusal,
/// not an anonymous session: its handshake is not best-effort.
#[test]
fn retry_client_surfaces_a_refused_identity() {
    let server = start_with(
        SessionManager::new(test_adb()),
        ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        },
    );
    let mut alice = Client::connect(server.local_addr()).unwrap();
    alice.identify("alice").unwrap();
    let mut bob = RetryClient::new(server.local_addr().to_string());
    bob.identify("bob");
    match bob.create() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "bad_request"),
        other => panic!("expected a bad_request refusal, got {other:?}"),
    }
    assert_eq!(
        bob.counters().retries,
        0,
        "a refused identity is not retried"
    );
    let stats = alice.stats(None).unwrap();
    let Some(Json::Obj(clients)) = stats.get("clients") else {
        panic!("stats carries a clients object: {stats}");
    };
    let names: Vec<&str> = clients.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["alice"]);
    server.shutdown();
}

#[test]
fn rate_limited_turns_carry_hints_and_retry_clients_absorb_them() {
    let server = start_with(
        SessionManager::new(test_adb()),
        ServeConfig {
            rate_limit: Some(RateLimit {
                per_sec: 4.0,
                burst: 1.0,
            }),
            ..ServeConfig::default()
        },
    );

    // A bare client sees the refusal and its hint.
    let mut raw = Client::connect(server.local_addr()).unwrap();
    let sid = raw.create().unwrap();
    raw.add(sid, "Jim Carrey").unwrap();
    let err = raw.add(sid, "Eddie Murphy").unwrap_err();
    match err {
        ClientError::Server {
            ref code,
            retry_after_ms,
            ..
        } if code == "rate_limited" => {
            let ms = retry_after_ms.expect("rate_limited must carry retry_after_ms");
            assert!(ms > 0 && ms <= 250, "hint {ms}ms out of range for 4/sec");
        }
        other => panic!("expected rate_limited, got {other}"),
    }
    // Reads are not budgeted turns.
    raw.sql(sid).unwrap();

    // A retry client turns the refusals into waits and finishes the
    // script anyway.
    let mut rc = RetryClient::with_policy(
        server.local_addr().to_string(),
        RetryPolicy {
            max_attempts: 30,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(400),
            read_timeout: Some(Duration::from_secs(5)),
        },
    );
    let sid2 = rc.create().unwrap();
    for name in ["Jim Carrey", "Eddie Murphy", "Robin Williams"] {
        rc.add(sid2, name).unwrap();
    }
    assert!(
        rc.counters().rate_limited >= 1,
        "back-to-back turns at 4/sec must hit the limiter at least once"
    );
    let report = server.shutdown();
    assert!(report.metrics.rate_limited >= 2);
}

#[test]
fn unknown_sessions_are_refused_before_rate_state_is_charged() {
    // Turns against a session id the server never issued must answer
    // `unknown_session` every time. Before validation-first ordering the
    // first probe minted a rate bucket for the bogus id, so the second
    // probe read `rate_limited` — and the bucket leaked forever.
    let server = start_with(
        SessionManager::new(test_adb()),
        ServeConfig {
            rate_limit: Some(RateLimit {
                per_sec: 1.0,
                burst: 1.0,
            }),
            ..ServeConfig::default()
        },
    );
    let mut raw = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        let err = raw.add(9999, "Jim Carrey").unwrap_err();
        assert_eq!(
            err.code(),
            Some("unknown_session"),
            "bogus session must never surface as rate_limited"
        );
    }
    server.shutdown();
}

#[test]
fn health_reports_load_sessions_and_journal() {
    let path = temp_path("health");
    let _ = std::fs::remove_file(&path);
    let manager = SessionManager::new(test_adb());
    manager.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
    let server = start_with(manager, ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sid = client.create().unwrap();
    client.add(sid, "Jim Carrey").unwrap();

    let h = client.health().unwrap();
    assert_eq!(h.get("healthy").and_then(Json::as_bool), Some(true));
    assert_eq!(h.get("draining").and_then(Json::as_bool), Some(false));
    assert_eq!(h.get("sessions").and_then(Json::as_i64), Some(1));
    assert!(h.get("uptime_ms").and_then(Json::as_i64).is_some());
    let journal = h.get("journal").expect("journal stats in health");
    assert!(journal.get("bytes").and_then(Json::as_i64).unwrap() > 0);
    // The create and the add are both journal tail records.
    assert_eq!(journal.get("tail_records").and_then(Json::as_i64), Some(2));
    assert_eq!(journal.get("compactions").and_then(Json::as_i64), Some(0));

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A server restarted on its own address binds at once, even while a
/// connection the old server closed first still sits in `TIME_WAIT` on
/// that port (std's bind sets `SO_REUSEADDR`).
#[test]
fn a_restarted_server_reclaims_its_port_past_time_wait() {
    let server = start_with(SessionManager::new(test_adb()), ServeConfig::default());
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    conn.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "ping served: {line}");
    // Undecodable bytes make the server reply and close its end first, so
    // the server side of this connection is the one left in TIME_WAIT.
    conn.write_all(b"\xff\xfe\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("invalid_utf8"), "framing error reply: {line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "server closed");
    drop(reader);
    drop(conn);
    server.shutdown();

    let cfg = ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    };
    let restarted = Server::start(Arc::new(SessionManager::new(test_adb())), cfg)
        .expect("rebind the same address while TIME_WAIT drains");
    assert_eq!(restarted.local_addr(), addr);
    let mut client = Client::connect(addr).unwrap();
    assert!(client.health().is_ok());
    restarted.shutdown();
}
