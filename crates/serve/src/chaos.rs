//! The chaos harness: SIGKILL the server repeatedly under retrying load
//! and prove nothing acknowledged was lost.
//!
//! [`run_chaos`] spawns a real `squid-serve` child process (serving the
//! `mini` fixture with `--fsync always` and a journal), points a fleet
//! of [`RetryClient`]s at it, and then kills the child with SIGKILL —
//! no drain, no flush — a configurable number of times, restarting it
//! against the same journal each time. Clients ride through the crashes
//! on sequence-numbered retries.
//!
//! Two invariants are checked at the end, against the final recovered
//! server:
//!
//! 1. **Zero acknowledged-turn loss**: every turn a client saw `ok:true`
//!    for is reflected in the session's recovered `op_seq` cursor. An
//!    ack means journaled-and-fsynced, so SIGKILL may lose in-flight
//!    turns (which clients retry) but never acknowledged ones.
//! 2. **Diff-identical recovery**: each session's recovered SQL equals
//!    the SQL produced by replaying that client's acknowledged ops, in
//!    order, on a fresh in-process [`SessionManager`] over the same
//!    αDB — the crash-riddled fleet and an uninterrupted one are
//!    indistinguishable.
//!
//! The harness requires the server command to serve the `mini` dataset
//! (the [`squid_adb::test_fixtures::mini_imdb`] fixture), because the
//! verification replay rebuilds that αDB in-process.
//!
//! ## `--standby` mode
//!
//! With [`ChaosConfig::standby`] the harness runs a replicated pair and
//! kills *primaries*: each cycle pauses the client fleet, waits for the
//! primary's `health` to report replication lag zero (the acked state
//! has provably reached the standby), SIGKILLs the primary, promotes the
//! standby with the `promote` verb, relaunches the corpse as the new
//! standby, and resumes traffic. Clients ride through on address
//! failover + `not_primary` hints. Roles alternate every kill. The same
//! two invariants are verified at the end against the final primary —
//! across promotions, not just restarts.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use squid_adb::{test_fixtures, ADb};
use squid_core::{SessionManager, SessionOp};

use crate::client::Client;
use crate::json::Json;
use crate::retry::{RetryClient, RetryCounters, RetryPolicy};

/// How much chaos to inflict.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The server command: binary path plus every argument *except*
    /// `--addr`, `--journal`, `--fsync`, and `--auto-compact`, which the
    /// harness appends. Must serve the `mini` dataset (e.g.
    /// `["target/release/squid-serve", "mini"]`) — verification replays
    /// against that fixture.
    pub server_cmd: Vec<String>,
    /// Concurrent retrying clients (default 8).
    pub clients: usize,
    /// SIGKILL → restart cycles (default 5).
    pub kills: u32,
    /// Traffic window between kills (default 400ms).
    pub kill_interval: Duration,
    /// Journal path (default: a pid-scoped file in the temp dir,
    /// removed before the run).
    pub journal: Option<PathBuf>,
    /// `--auto-compact` floor passed to the server, so crash-recovery is
    /// exercised against compacted journals too (default `Some(32)`).
    pub auto_compact: Option<u64>,
    /// Run a replicated primary/standby pair and kill primaries,
    /// promoting the standby each cycle (default false: the classic
    /// single-node restart loop).
    pub standby: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            server_cmd: Vec::new(),
            clients: 8,
            kills: 5,
            kill_interval: Duration::from_millis(400),
            journal: None,
            auto_compact: Some(32),
            standby: false,
        }
    }
}

/// What the chaos run did and found. `lost_turns == 0` and
/// `sql_mismatches == 0` are the invariants; everything else is
/// evidence of how hard they were tested.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// SIGKILLs delivered.
    pub kills: u32,
    /// Sessions driven (one per client).
    pub sessions: usize,
    /// Turns acknowledged across all clients.
    pub turns_acked: u64,
    /// Acknowledged turns missing from recovered cursors (must be 0).
    pub lost_turns: u64,
    /// Sessions whose recovered SQL diverged from an uninterrupted
    /// replay of their acknowledged ops (must be 0).
    pub sql_mismatches: u64,
    /// Journal compactions the server performed during the run.
    pub compactions: u64,
    /// Standby promotions performed (`--standby` mode; 0 otherwise).
    pub promotions: u32,
    /// Aggregated client-side retry work.
    pub counters: RetryCounters,
    /// Wall clock of the whole run.
    pub wall: Duration,
}

impl ChaosReport {
    /// Did both invariants hold (and was anything actually exercised)?
    pub fn passed(&self) -> bool {
        self.lost_turns == 0 && self.sql_mismatches == 0 && self.turns_acked > 0
    }

    /// One-line human rendering.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} kills, {} promotions, {} sessions, {} turns acked, {} lost, \
             {} sql mismatches, {} compactions in {:.2?} (retries {}, reconnects {}, \
             deduped {}, rate_limited {}, failovers {})",
            if self.passed() { "PASS" } else { "FAIL" },
            self.kills,
            self.promotions,
            self.sessions,
            self.turns_acked,
            self.lost_turns,
            self.sql_mismatches,
            self.compactions,
            self.wall,
            self.counters.retries,
            self.counters.reconnects,
            self.counters.deduped,
            self.counters.rate_limited,
            self.counters.failovers,
        )
    }
}

/// The mutation script clients cycle through — only ops valid on the
/// `mini` fixture, staggered per client so the fleet is heterogeneous.
fn chaos_script() -> Vec<SessionOp> {
    vec![
        SessionOp::AddExample("Jim Carrey".into()),
        SessionOp::AddExample("Eddie Murphy".into()),
        SessionOp::PinFilter("person:gender".into()),
        SessionOp::AddExample("Robin Williams".into()),
        SessionOp::RemoveExample("Eddie Murphy".into()),
        SessionOp::UnpinFilter("person:gender".into()),
        SessionOp::BanFilter("movie:genre".into()),
        SessionOp::AddExample("Eddie Murphy".into()),
        SessionOp::UnbanFilter("movie:genre".into()),
        SessionOp::RemoveExample("Robin Williams".into()),
    ]
}

/// Patient policy: a restart can take seconds (αDB rebuild + journal
/// replay), and a client must outlive it.
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 40,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(250),
        read_timeout: Some(Duration::from_secs(5)),
    }
}

fn free_port() -> Result<u16, String> {
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("no free port: {e}"))
}

fn spawn_server(argv: &[String]) -> Result<Child, String> {
    // stderr is inherited on purpose: this is a diagnostic harness, and
    // a server that dies on startup should say why.
    Command::new(&argv[0])
        .args(&argv[1..])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {:?} failed: {e}", argv[0]))
}

fn wait_ready(addr: &str, deadline: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.set_read_timeout(Some(Duration::from_secs(1)));
            if c.ping().is_ok() {
                return Ok(());
            }
        }
        if t0.elapsed() > deadline {
            return Err(format!("server at {addr} not ready within {deadline:?}"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One client's acknowledged history: `acked[i]` was acknowledged at
/// sequence `i + 1`.
struct ClientLog {
    session: u64,
    acked: Vec<SessionOp>,
    counters: RetryCounters,
}

/// Send one sequenced turn and drive it to a *resolution*: acknowledged
/// (recorded, true), refused with a non-retryable error (not recorded,
/// false), or — if the server stays unreachable past `deadline` — an
/// error. A turn is never abandoned in the ambiguous state, which is
/// what makes the final ledger comparable to the server's.
fn resolve_turn(
    client: &mut RetryClient,
    session: u64,
    op: &SessionOp,
    deadline: Duration,
) -> Result<bool, String> {
    let t0 = Instant::now();
    loop {
        match client.turn(session, op.clone()) {
            Ok(_) => return Ok(true),
            Err(crate::ClientError::Server { ref code, .. }) if !crate::retry::retryable(code) => {
                // Refused deterministically (e.g. a discovery error); the
                // server's cursor did not move — apply failures roll back
                // and journal-append failures fail-stop the session without
                // advancing — so the sequence number is reused by the next
                // op.
                return Ok(false);
            }
            Err(e) => {
                if t0.elapsed() > deadline {
                    return Err(format!("turn unresolved after {deadline:?}: {e}"));
                }
                // Retry budget exhausted mid-restart; same seq, go again.
            }
        }
    }
}

fn client_thread(
    addrs: &[String],
    idx: usize,
    stop: &AtomicBool,
    pause: &AtomicBool,
    idle: &AtomicUsize,
) -> Result<ClientLog, String> {
    let mut client = RetryClient::fleet(addrs.to_vec(), chaos_policy());
    client.identify(format!("chaos-{idx}"));
    let script = chaos_script();
    let deadline = Duration::from_secs(60);
    // Creation retries ride the same policy; a duplicate create orphans
    // a server-side session, which is harmless here (never verified).
    let session = {
        let t0 = Instant::now();
        loop {
            match client.create() {
                Ok(sid) => break sid,
                Err(e) if t0.elapsed() > deadline => {
                    return Err(format!("client {idx}: create failed: {e}"));
                }
                Err(_) => {}
            }
        }
    };
    let mut acked = Vec::new();
    let mut step = idx; // stagger the script per client
    while !stop.load(Ordering::Relaxed) {
        if pause.load(Ordering::Relaxed) {
            // The quiesce barrier: report idle, hold until released. The
            // standby harness drains replication lag and swaps primaries
            // while every client sits here between turns.
            idle.fetch_add(1, Ordering::Relaxed);
            while pause.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
            idle.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        let op = script[step % script.len()].clone();
        step += 1;
        if resolve_turn(&mut client, session, &op, deadline)
            .map_err(|e| format!("client {idx}: {e}"))?
        {
            acked.push(op);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(ClientLog {
        session,
        acked,
        counters: client.counters(),
    })
}

/// Run the kill loop and verify the invariants. See the module docs.
/// Dispatches to the replicated-pair harness when
/// [`ChaosConfig::standby`] is set.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    if cfg.server_cmd.is_empty() {
        return Err("ChaosConfig.server_cmd is empty".into());
    }
    if cfg.standby {
        return run_chaos_standby(cfg);
    }
    let started = Instant::now();
    let port = free_port()?;
    let addr = format!("127.0.0.1:{port}");
    let journal = cfg.journal.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("squid-chaos-{}.journal", std::process::id()))
    });
    let _ = std::fs::remove_file(&journal);
    let mut argv = cfg.server_cmd.clone();
    argv.extend([
        "--addr".into(),
        addr.clone(),
        "--journal".into(),
        journal.display().to_string(),
        "--fsync".into(),
        "always".into(),
        // The server is thread-per-connection over a fixed pool, and the
        // client fleet re-dials the instant a restart binds. Leave
        // headroom above the fleet or the clients monopolize every
        // worker and the readiness probe starves in the accept queue.
        "--workers".into(),
        (cfg.clients * 2 + 4).to_string(),
    ]);
    if let Some(n) = cfg.auto_compact {
        argv.extend(["--auto-compact".into(), n.to_string()]);
    }

    let mut child = spawn_server(&argv)?;
    let ready_deadline = Duration::from_secs(30);
    if let Err(e) = wait_ready(&addr, ready_deadline) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }

    let stop = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    let idle = AtomicUsize::new(0);
    let addrs = vec![addr.clone()];
    let logs: Result<Vec<ClientLog>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|i| {
                let addrs = &addrs;
                let (stop, pause, idle) = (&stop, &pause, &idle);
                scope.spawn(move || client_thread(addrs, i, stop, pause, idle))
            })
            .collect();

        let mut kill_err = None;
        for _ in 0..cfg.kills {
            std::thread::sleep(cfg.kill_interval);
            // SIGKILL: no drain, no fsync-on-exit — recovery must come
            // from per-turn durability alone.
            let _ = child.kill();
            let _ = child.wait();
            match spawn_server(&argv) {
                Ok(c) => child = c,
                Err(e) => {
                    kill_err = Some(e);
                    break;
                }
            }
            if let Err(e) = wait_ready(&addr, ready_deadline) {
                kill_err = Some(e);
                break;
            }
        }
        // One more traffic window after the last recovery, then stop.
        std::thread::sleep(cfg.kill_interval);
        stop.store(true, Ordering::Relaxed);
        let joined: Result<Vec<ClientLog>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        match kill_err {
            Some(e) => Err(e),
            None => joined,
        }
    });
    let logs = match logs {
        Ok(l) => l,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    };

    // ---- Verification against the final recovered server ----
    let verdict = verify(&addr, &logs);
    // The server child is ours either way; tear it down before reporting.
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&journal);
    let (lost_turns, sql_mismatches, compactions) = verdict?;

    let (turns_acked, counters) = tally(&logs);
    Ok(ChaosReport {
        kills: cfg.kills,
        sessions: logs.len(),
        turns_acked,
        lost_turns,
        sql_mismatches,
        compactions,
        promotions: 0,
        counters,
        wall: started.elapsed(),
    })
}

/// Sum the client logs' acked-turn count and retry work.
fn tally(logs: &[ClientLog]) -> (u64, RetryCounters) {
    let mut counters = RetryCounters::default();
    let mut turns_acked = 0u64;
    for log in logs {
        turns_acked += log.acked.len() as u64;
        counters.retries += log.counters.retries;
        counters.reconnects += log.counters.reconnects;
        counters.deduped += log.counters.deduped;
        counters.rate_limited += log.counters.rate_limited;
        counters.failovers += log.counters.failovers;
    }
    (turns_acked, counters)
}

/// One node of the replicated pair: fixed serve + replication ports and
/// its own journal, so a relaunch reuses the same identity.
struct Node {
    addr: String,
    repl: String,
    journal: PathBuf,
}

impl Node {
    fn argv(&self, cfg: &ChaosConfig, standby_of: Option<&str>) -> Vec<String> {
        let mut argv = cfg.server_cmd.clone();
        argv.extend([
            "--addr".into(),
            self.addr.clone(),
            "--journal".into(),
            self.journal.display().to_string(),
            "--fsync".into(),
            "always".into(),
            "--workers".into(),
            (cfg.clients * 2 + 4).to_string(),
            "--replicate-to".into(),
            self.repl.clone(),
        ]);
        if let Some(primary_repl) = standby_of {
            argv.extend(["--standby-of".into(), primary_repl.into()]);
        }
        if let Some(n) = cfg.auto_compact {
            argv.extend(["--auto-compact".into(), n.to_string()]);
        }
        argv
    }
}

/// Wait until every client thread has parked at the pause barrier.
fn wait_idle(idle: &AtomicUsize, n: usize, deadline: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    while idle.load(Ordering::Relaxed) < n {
        if t0.elapsed() > deadline {
            return Err(format!(
                "only {}/{n} clients quiesced within {deadline:?}",
                idle.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Poll the primary's `health` until its replication lag is zero — the
/// precondition for a kill that can lose nothing acknowledged.
fn wait_zero_lag(addr: &str, deadline: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    let mut last = String::new();
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
            if let Ok(health) = c.health() {
                let lag = health
                    .get("replication")
                    .and_then(|r| r.get("lag_records"))
                    .and_then(Json::as_u64);
                if lag == Some(0) {
                    return Ok(());
                }
                last = health.encode();
            }
        }
        if t0.elapsed() > deadline {
            return Err(format!(
                "replication lag at {addr} never reached 0 within {deadline:?}; last health: {last}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Drive the `promote` verb on a standby until it reports `primary`.
fn promote_node(addr: &str, deadline: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.set_read_timeout(Some(Duration::from_secs(15)));
            match c.promote() {
                Ok(role) if role == "primary" => return Ok(()),
                Ok(_) | Err(_) => {}
            }
        }
        if t0.elapsed() > deadline {
            return Err(format!(
                "standby at {addr} did not promote within {deadline:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The replicated-pair kill loop (see the module docs' `--standby`
/// section): quiesce → lag 0 → SIGKILL primary → promote → relaunch the
/// corpse as standby → resume, alternating roles every cycle.
fn run_chaos_standby(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    let started = Instant::now();
    let temp_tag = std::process::id();
    let nodes: Vec<Node> = (0..2)
        .map(|i| -> Result<Node, String> {
            Ok(Node {
                addr: format!("127.0.0.1:{}", free_port()?),
                repl: format!("127.0.0.1:{}", free_port()?),
                journal: std::env::temp_dir()
                    .join(format!("squid-chaos-standby-{temp_tag}-{i}.journal")),
            })
        })
        .collect::<Result<_, _>>()?;
    for node in &nodes {
        let _ = std::fs::remove_file(&node.journal);
    }

    let ready_deadline = Duration::from_secs(30);
    let quiesce_deadline = Duration::from_secs(30);
    // Node 0 starts as primary, node 1 as its standby.
    let mut children: Vec<Child> = Vec::new();
    children.push(spawn_server(&nodes[0].argv(cfg, None))?);
    if let Err(e) = wait_ready(&nodes[0].addr, ready_deadline) {
        kill_all(&mut children);
        return Err(e);
    }
    children.push(spawn_server(&nodes[1].argv(cfg, Some(&nodes[0].repl)))?);
    if let Err(e) = wait_ready(&nodes[1].addr, ready_deadline) {
        kill_all(&mut children);
        return Err(e);
    }

    let stop = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    let idle = AtomicUsize::new(0);
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let mut primary = 0usize;
    let mut promotions = 0u32;
    let logs: Result<Vec<ClientLog>, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|i| {
                let addrs = &addrs;
                let (stop, pause, idle) = (&stop, &pause, &idle);
                scope.spawn(move || client_thread(addrs, i, stop, pause, idle))
            })
            .collect();

        let mut cycle = || -> Result<(), String> {
            std::thread::sleep(cfg.kill_interval);
            // Quiesce: no turns in flight while the primaries swap.
            pause.store(true, Ordering::Relaxed);
            wait_idle(&idle, cfg.clients.max(1), quiesce_deadline)?;
            // The acceptance gate: lag must be *observed* at zero before
            // the kill — every acked turn is on the standby.
            wait_zero_lag(&nodes[primary].addr, quiesce_deadline)?;
            let _ = children[primary].kill();
            let _ = children[primary].wait();
            let standby = 1 - primary;
            promote_node(&nodes[standby].addr, quiesce_deadline)?;
            // Relaunch the corpse as the new primary's standby: it
            // re-bootstraps from a SNAP, so its stale journal is moot.
            children[primary] =
                spawn_server(&nodes[primary].argv(cfg, Some(&nodes[standby].repl)))?;
            wait_ready(&nodes[primary].addr, ready_deadline)?;
            primary = standby;
            promotions += 1;
            pause.store(false, Ordering::Relaxed);
            Ok(())
        };
        let mut loop_err = None;
        for _ in 0..cfg.kills {
            if let Err(e) = cycle() {
                loop_err = Some(e);
                break;
            }
        }
        if loop_err.is_none() {
            // Final traffic window, then drain replication once more so
            // verification reads a settled pair.
            std::thread::sleep(cfg.kill_interval);
            pause.store(true, Ordering::Relaxed);
            if let Err(e) = wait_idle(&idle, cfg.clients.max(1), quiesce_deadline)
                .and_then(|()| wait_zero_lag(&nodes[primary].addr, quiesce_deadline))
            {
                loop_err = Some(e);
            }
        }
        stop.store(true, Ordering::Relaxed);
        pause.store(false, Ordering::Relaxed);
        let joined: Result<Vec<ClientLog>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        match loop_err {
            Some(e) => Err(e),
            None => joined,
        }
    });
    let logs = match logs {
        Ok(l) => l,
        Err(e) => {
            kill_all(&mut children);
            return Err(e);
        }
    };

    // ---- Verification against the final primary ----
    let verdict = verify(&nodes[primary].addr, &logs);
    kill_all(&mut children);
    for node in &nodes {
        let _ = std::fs::remove_file(&node.journal);
    }
    let (lost_turns, sql_mismatches, compactions) = verdict?;
    let (turns_acked, counters) = tally(&logs);
    Ok(ChaosReport {
        kills: cfg.kills,
        sessions: logs.len(),
        turns_acked,
        lost_turns,
        sql_mismatches,
        compactions,
        promotions,
        counters,
        wall: started.elapsed(),
    })
}

fn kill_all(children: &mut [Child]) {
    for c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Check both invariants against the live recovered server; returns
/// `(lost_turns, sql_mismatches, compactions)`.
fn verify(addr: &str, logs: &[ClientLog]) -> Result<(u64, u64, u64), String> {
    let mut probe = RetryClient::with_policy(addr, chaos_policy());
    let adb = Arc::new(
        ADb::build(&test_fixtures::mini_imdb()).map_err(|e| format!("verify αDB build: {e}"))?,
    );
    let replayer = SessionManager::new(adb);
    let mut lost = 0u64;
    let mut mismatches = 0u64;
    for log in logs {
        let cursor = probe
            .adopt(log.session)
            .map_err(|e| format!("session {} stats: {e}", log.session))?;
        // Every acked turn advanced the cursor past its sequence number;
        // a cursor below the acked count means acknowledged turns died
        // with the crash.
        lost += (log.acked.len() as u64).saturating_sub(cursor);
        let server_sql = probe
            .sql(log.session)
            .map_err(|e| format!("session {} sql: {e}", log.session))?;
        let rid = replayer.create_session();
        for op in &log.acked {
            replayer
                .apply_op(rid, op)
                .map_err(|e| format!("replaying acked op failed ({e}) — ledger corrupt?"))?;
        }
        let replayed_sql = replayer
            .with_session(rid, |s| Ok(s.discovery().map(|d| d.sql())))
            .map_err(|e| format!("replay session: {e}"))?;
        if server_sql != replayed_sql {
            mismatches += 1;
        }
    }
    let health = probe.health().map_err(|e| format!("health: {e}"))?;
    let compactions = health
        .get("journal")
        .and_then(|j| j.get("compactions"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Ok((lost, mismatches, compactions))
}
