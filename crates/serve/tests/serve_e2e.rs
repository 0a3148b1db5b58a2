//! End-to-end serving tests: TCP turns must cost (and answer) exactly
//! what direct session turns cost — incremental path included — and the
//! operational envelope (admission control, idle reaping, graceful
//! shutdown, journal recovery) must hold under concurrent load.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use squid_adb::{test_fixtures, ADb};
use squid_core::{FsyncPolicy, Journal, SessionManager, SessionOp};
use squid_serve::{json::Json, run_load, Client, ClientError, LoadConfig, ServeConfig, Server};

fn test_adb() -> Arc<ADb> {
    Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

fn start_with(adb: Arc<ADb>, cfg: ServeConfig) -> Server {
    Server::start(Arc::new(SessionManager::new(adb)), cfg).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "squid-serve-{tag}-{}-{:?}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn tcp_turns_match_direct_sessions_and_take_the_incremental_path() {
    let adb = test_adb();
    let server = start_with(Arc::clone(&adb), ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Direct twin: the same ops through a local manager on the same αDB.
    let direct = SessionManager::new(adb);
    let did = direct.create_session();
    let sid = client.create().unwrap();

    let script = ["Jim Carrey", "Eddie Murphy", "Robin Williams"];
    for (i, name) in script.iter().enumerate() {
        let tcp = client.add(sid, name).unwrap();
        let local = direct
            .apply_op(did, &SessionOp::AddExample(name.to_string()))
            .unwrap()
            .expect("add produces a delta");
        // Same result shape...
        assert_eq!(
            tcp.get("rows").and_then(Json::as_i64),
            local.discovery.as_ref().map(|d| d.rows.len() as i64),
            "turn {i}: row count over TCP diverged from the direct session"
        );
        // ...and the same evaluation path: the wire reports the delta's
        // own incremental flag, so turn 2+ being incremental over TCP is
        // server-attested, not assumed.
        assert_eq!(
            tcp.get("incremental").and_then(Json::as_bool),
            Some(local.incremental),
            "turn {i}: incremental flag diverged"
        );
        if i > 0 {
            assert_eq!(
                tcp.get("incremental").and_then(Json::as_bool),
                Some(true),
                "turn {i}: follow-up TCP turns must take the incremental path"
            );
        }
    }

    let tcp_sql = client.sql(sid).unwrap().expect("discovery exists");
    let direct_sql = direct
        .with_session(did, |s| Ok(s.discovery().unwrap().sql()))
        .unwrap();
    assert_eq!(tcp_sql, direct_sql, "abduced SQL diverged over the wire");

    client.close(sid).unwrap();
    let err = client.sql(sid).unwrap_err();
    assert_eq!(err.code(), Some("unknown_session"));
    server.shutdown();
}

/// With zero queue slots a connection is admitted only while the worker
/// sits idle in `recv`. Right after start, or right after the previous
/// connection closed, it may not have got there yet; that refusal is the
/// contract ("retry later"), so retry.
fn connect_until_admitted(server: &Server) -> Client {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = Client::connect(server.local_addr()).unwrap();
        match client.ping() {
            Ok(()) => return client,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("the worker never became free: {e}"),
        }
    }
}

#[test]
fn admission_control_replies_overloaded_instead_of_dropping() {
    // One worker, zero queue slots: the second concurrent connection must
    // be refused explicitly while the first is being served.
    let server = start_with(
        test_adb(),
        ServeConfig {
            workers: 1,
            max_pending: 0,
            ..ServeConfig::default()
        },
    );
    // Once this ping is answered the only worker is occupied by us.
    let mut held = connect_until_admitted(&server);

    // Every refusal must deliver its line: the server may not close over
    // our unread ping (an RST would race the reply), so repeat the race.
    const REFUSALS: u64 = 50;
    for attempt in 0..REFUSALS {
        let mut refused = Client::connect(server.local_addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match refused.ping() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "overloaded"),
            Err(ClientError::Io(e)) => {
                panic!("attempt {attempt}: dropped without an overloaded reply: {e}")
            }
            other => panic!("attempt {attempt}: expected an overloaded refusal, got {other:?}"),
        }
    }

    // The held connection is unaffected, and once it finishes new
    // connections are admitted again.
    held.ping().unwrap();
    drop(held);
    connect_until_admitted(&server);
    let report = server.shutdown();
    assert!(report.metrics.rejected_overloaded >= REFUSALS);
}

#[test]
fn session_cap_refuses_create_but_keeps_the_connection() {
    let server = start_with(
        test_adb(),
        ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = client.create().unwrap();
    let _b = client.create().unwrap();
    let err = client.create().unwrap_err();
    assert_eq!(err.code(), Some("session_limit"));
    // The refusal tells the client when to try again.
    assert!(matches!(
        err,
        ClientError::Server {
            retry_after_ms: Some(ms),
            ..
        } if ms > 0
    ));
    // Refusal is per-request: the connection still serves, and closing a
    // session frees a slot.
    client.close(a).unwrap();
    let _c = client.create().unwrap();
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_with_a_final_reply() {
    let server = start_with(
        test_adb(),
        ServeConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing; the reaper owes us one last error line, then EOF.
    let resp = client.read_response().unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("idle_timeout")
    );
    assert!(matches!(
        client.read_response(),
        Err(ClientError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
    ));
    let report = server.shutdown();
    assert_eq!(report.metrics.idle_reaped, 1);
}

#[test]
fn graceful_shutdown_drains_syncs_and_recovers() {
    let adb = test_adb();
    let journal_path = temp_path("graceful");
    let _ = std::fs::remove_file(&journal_path);

    let manager = SessionManager::new(Arc::clone(&adb));
    manager.attach_journal(Journal::open(&journal_path, FsyncPolicy::Flush).unwrap());
    let server = Server::start(Arc::new(manager), ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let sid = client.create().unwrap();
    client.add(sid, "Jim Carrey").unwrap();
    client.add(sid, "Eddie Murphy").unwrap();
    let sql_before = client.sql(sid).unwrap().expect("discovery exists");

    // The shutdown verb answers before the drain starts...
    client.shutdown().unwrap();
    // ...after which new connections are declined, not ignored: either a
    // `shutting_down` reply or (once the acceptor has exited) a refused
    // connect, but never fresh service.
    if let Ok(mut late) = Client::connect(addr) {
        match late.ping() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "shutting_down"),
            Err(ClientError::Io(_) | ClientError::BadResponse(_)) => {}
            Ok(()) => panic!("a draining server accepted new work"),
        }
    }

    let report = server.shutdown();
    assert!(report.journal_synced, "journal must fsync during the drain");
    assert_eq!(report.live_sessions, 1);

    // A recovered fleet reproduces the exact pre-shutdown session.
    let recovered = SessionManager::new(adb);
    let stats = recovered
        .recover(&journal_path, FsyncPolicy::Flush)
        .unwrap();
    assert_eq!(stats.live_sessions, 1);
    assert_eq!(recovered.active_ids(), vec![sid]);
    let sql_after = recovered
        .with_session(sid, |s| Ok(s.discovery().unwrap().sql()))
        .unwrap();
    assert_eq!(sql_after, sql_before, "recovery must be diff-identical");

    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn abandoned_fleet_with_always_fsync_is_recoverable_without_shutdown() {
    // The crash story: with `--fsync always` every journaled turn is
    // durable the moment its response is written, so a fleet that never
    // gets a graceful drain (SIGKILL) still recovers to the last turn.
    let adb = test_adb();
    let journal_path = temp_path("abandoned");
    let _ = std::fs::remove_file(&journal_path);

    let manager = SessionManager::new(Arc::clone(&adb));
    manager.attach_journal(Journal::open(&journal_path, FsyncPolicy::Always).unwrap());
    let server = Server::start(Arc::new(manager), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sid = client.create().unwrap();
    client.add(sid, "Julia Roberts").unwrap();
    client.add(sid, "Emma Stone").unwrap();
    let sql_live = client.sql(sid).unwrap().expect("discovery exists");

    // No shutdown verb, no drain: read the journal out from under the
    // still-running server, as a post-crash restart would.
    let recovered = SessionManager::new(adb);
    recovered
        .recover(&journal_path, FsyncPolicy::Always)
        .unwrap();
    let sql_recovered = recovered
        .with_session(sid, |s| Ok(s.discovery().unwrap().sql()))
        .unwrap();
    assert_eq!(sql_recovered, sql_live);

    server.shutdown();
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn eight_concurrent_clients_replay_ten_turn_scripts_without_errors() {
    let server = start_with(test_adb(), ServeConfig::default());
    let cfg = LoadConfig {
        clients: 8,
        sessions_per_client: 2,
        script: [
            "add Jim Carrey",
            "add Eddie Murphy",
            "sql",
            "suggest 2",
            "rows 5",
            "add Robin Williams",
            "remove Eddie Murphy",
            "sql",
            "rows 3",
            "suggest 1",
        ]
        .map(String::from)
        .to_vec(),
    };
    let report = run_load(server.local_addr(), &cfg).unwrap();
    assert_eq!(report.errors, 0, "serving under load must be error-free");
    assert_eq!(report.sessions, 16);
    assert_eq!(report.turns, 160);
    assert!(report.turn_p99 >= report.turn_p50);

    let metrics = server.metrics();
    assert_eq!(metrics.protocol_errors, 0);
    // create/close are not turns; the scripted mutations are.
    assert_eq!(metrics.turns, 16 * 4);
    let report = server.shutdown();
    assert_eq!(report.live_sessions, 0, "every load session was closed");
}
