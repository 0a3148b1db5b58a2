//! Warm-standby replication e2e, in-process: a primary/standby pair of
//! real [`Server`]s over loopback — snapshot bootstrap, read mirroring,
//! `not_primary` refusals with a failover hint, lag draining to zero,
//! and promotion after the primary goes away. (The crashing-process
//! version of this story is the chaos harness's `--standby` mode.)

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use squid_adb::{test_fixtures, ADb};
use squid_core::{FsyncPolicy, Journal, SessionManager};
use squid_serve::{
    fetch_adb, json::Json, Client, ClientError, RetryClient, RetryPolicy, ServeConfig, Server,
};

fn test_adb() -> Arc<ADb> {
    Arc::new(ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "squid-replication-{tag}-{}-{:?}.journal",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn journaled_manager(tag: &str) -> SessionManager {
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let manager = SessionManager::new(test_adb());
    manager.attach_journal(Journal::open(&path, FsyncPolicy::Flush).unwrap());
    manager
}

/// Poll the primary's `health` until its replication lag is zero.
fn wait_for_zero_lag(client: &mut Client, deadline: Duration) {
    let end = Instant::now() + deadline;
    loop {
        let health = client.health().unwrap();
        let lag = health
            .get("replication")
            .and_then(|r| r.get("lag_records"))
            .and_then(Json::as_u64);
        if lag == Some(0) {
            return;
        }
        assert!(
            Instant::now() < end,
            "standby never caught up; last health: {}",
            health.encode()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_standby_mirrors_reads_refuses_writes_and_promotes() {
    // Primary: serving listener + replication listener, both on port 0.
    let primary = Server::start(
        Arc::new(journaled_manager("primary")),
        ServeConfig {
            replicate_to: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let repl_addr = primary.repl_addr().unwrap().to_string();
    let primary_addr = primary.local_addr().to_string();

    // Standby: dials the primary's replication listener.
    let standby = Server::start(
        Arc::new(journaled_manager("standby")),
        ServeConfig {
            standby_of: Some(repl_addr),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let standby_addr = standby.local_addr().to_string();

    let mut pc = Client::connect(&primary_addr).unwrap();
    let sid = pc.create().unwrap();
    pc.add(sid, "Jim Carrey").unwrap();
    pc.add(sid, "Eddie Murphy").unwrap();
    let primary_sql = pc.sql(sid).unwrap().expect("two examples discover");
    wait_for_zero_lag(&mut pc, Duration::from_secs(10));

    // The standby serves the same session read-only...
    let mut sc = Client::connect(&standby_addr).unwrap();
    assert_eq!(
        sc.sql(sid).unwrap().as_deref(),
        Some(primary_sql.as_str()),
        "standby must mirror the primary's discovery state"
    );
    let health = sc.health().unwrap();
    assert_eq!(
        health.get("role").and_then(Json::as_str),
        Some("standby"),
        "health must report the role"
    );

    // ...and refuses mutations with the failover hint.
    let err = sc.add(sid, "Robin Williams").unwrap_err();
    match err {
        ClientError::Server { code, primary, .. } => {
            assert_eq!(code, "not_primary");
            assert_eq!(
                primary.as_deref(),
                Some(primary_addr.as_str()),
                "the refusal must name the primary's client address"
            );
        }
        other => panic!("expected a not_primary refusal, got {other:?}"),
    }

    // A retrying client that only knows the standby follows the hint:
    // the turn lands on the primary and replicates back.
    let mut rc = RetryClient::fleet(
        vec![standby_addr.clone()],
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            read_timeout: Some(Duration::from_secs(5)),
        },
    );
    let cursor = rc.adopt(sid).unwrap();
    assert_eq!(cursor, 2, "two turns already acknowledged");
    rc.add(sid, "Robin Williams").unwrap();
    assert!(
        rc.counters().failovers >= 1,
        "the hint must count as a failover"
    );
    wait_for_zero_lag(&mut pc, Duration::from_secs(10));
    let sql_with_third = pc.sql(sid).unwrap().unwrap();
    assert_eq!(
        sc.sql(sid).unwrap().as_deref(),
        Some(sql_with_third.as_str()),
        "the hinted turn must replicate back to the standby"
    );

    // Primary gone → promote the standby → it accepts mutations.
    drop(pc);
    drop(rc);
    primary.shutdown();
    assert_eq!(sc.promote().unwrap(), "primary");
    let health = sc.health().unwrap();
    assert_eq!(health.get("role").and_then(Json::as_str), Some("primary"));
    sc.add(sid, "Sylvester Stallone").unwrap();
    sc.close(sid).unwrap();
    standby.shutdown();
}

#[test]
fn fetch_adb_bootstraps_a_dataset_free_standby() {
    let primary = Server::start(
        Arc::new(SessionManager::new(test_adb())),
        ServeConfig {
            replicate_to: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let repl_addr = primary.repl_addr().unwrap().to_string();

    // A node with no local dataset pulls the αDB over the link...
    let fetched = fetch_adb(&repl_addr, Duration::from_secs(5)).unwrap();

    // ...and a server built on it discovers exactly what the primary
    // does. (Snapshot bytes are not compared: αDB builds embed a fresh
    // generation and other order-sensitive incidentals, so observable
    // behaviour is the contract — same stance as the adb crate's own
    // round-trip test.)
    let twin = Server::start(
        Arc::new(SessionManager::new(Arc::new(fetched))),
        ServeConfig::default(),
    )
    .unwrap();
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let mut tc = Client::connect(twin.local_addr()).unwrap();
    for client in [&mut pc, &mut tc] {
        let sid = client.create().unwrap();
        client.add(sid, "Jim Carrey").unwrap();
        client.add(sid, "Eddie Murphy").unwrap();
    }
    assert_eq!(
        pc.sql(1).unwrap(),
        tc.sql(1).unwrap(),
        "the fetched αDB must drive identical discovery"
    );
    twin.shutdown();
    primary.shutdown();
}

/// A standby from the previous protocol version sends its HELLO in the old
/// framing (`tag u8 | len u32 | "SQRP1" | flags`). The primary must drop
/// that link within the handshake deadline, keep serving clients, and
/// still accept a current standby afterwards.
#[test]
fn an_old_protocol_hello_is_dropped_at_the_handshake() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let primary = Server::start(
        Arc::new(SessionManager::new(test_adb())),
        ServeConfig {
            replicate_to: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let repl_addr = primary.repl_addr().unwrap().to_string();

    let mut old = TcpStream::connect(&repl_addr).unwrap();
    old.write_all(&[
        0x01, 0x06, 0x00, 0x00, 0x00, b'S', b'Q', b'R', b'P', b'1', 0x00,
    ])
    .unwrap();
    let started = Instant::now();

    // Clients are served while the old link is held.
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let sid = pc.create().unwrap();
    pc.add(sid, "Jim Carrey").unwrap();
    pc.add(sid, "Eddie Murphy").unwrap();

    // The primary hangs up: end of stream (or a reset), not a reply.
    old.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut buf = [0u8; 64];
    match old.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("the primary answered an old HELLO with {n} bytes"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "dropped after {:?}, past the handshake deadline",
        started.elapsed()
    );

    assert!(pc.sql(sid).unwrap().is_some(), "clients are still served");
    fetch_adb(&repl_addr, Duration::from_secs(5)).expect("a current standby still attaches");
    primary.shutdown();
}
