//! The chaos harness: SIGKILL the server repeatedly under retrying load
//! and prove nothing acknowledged was lost.
//!
//! [`run_chaos`] spawns real `squid-serve` child processes (serving the
//! `mini` fixture with `--fsync always`, a journal each, and
//! `--auto-compact` so recovery also meets compacted journals), points a
//! fleet of [`RetryClient`]s at them, and runs one kill loop
//! [`ChaosConfig::kills`] times: let traffic flow, SIGKILL the primary
//! (no drain, no flush), bring the fleet back, repeat. Clients ride
//! through on sequence-numbered retries and address failover. After a
//! last traffic window, two invariants are checked against the final
//! primary:
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
//! The fleet is one node or, with [`ChaosConfig::standby`], a replicated
//! pair; the loop differs only in how a killed primary comes back:
//!
//! - **One node**: the killed node is relaunched on its own journal and
//!   recovers from it.
//! - **Standby pair**: around the kill, the client fleet is paused and
//!   the primary's `health` must report replication lag zero (the acked
//!   state has provably reached the standby); after it, the standby is
//!   promoted with the `promote` verb and the killed node is relaunched
//!   as the new primary's standby. Roles alternate every kill, so the
//!   invariants hold across promotions, not just restarts.
//!
//! The harness requires the server command to serve the `mini` dataset
//! (the [`squid_adb::test_fixtures::mini_imdb`] fixture), because the
//! verification replay rebuilds that αDB in-process.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use squid_adb::{test_fixtures, ADb};
use squid_core::{SessionManager, SessionOp};

use crate::client::Client;
use crate::json::Json;
use crate::retry::{RetryClient, RetryCounters, RetryPolicy};

/// Traffic window before each kill, and after the last one.
const KILL_INTERVAL: Duration = Duration::from_millis(400);
/// `--auto-compact` floor every node runs with, so crash recovery is
/// exercised against compacted journals too.
const AUTO_COMPACT: u64 = 32;
/// Patience for a node to answer `ping`, the clients to quiesce,
/// replication lag to drain, or a standby to promote.
const DEADLINE: Duration = Duration::from_secs(30);

/// How much chaos to inflict.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The server command: binary path plus every argument *except* the
    /// ones the harness appends (`--addr`, `--journal`, `--fsync`,
    /// `--workers`, `--auto-compact`, `--replicate-to`, `--standby-of`).
    /// Must serve the `mini` dataset (e.g.
    /// `["target/release/squid-serve", "mini"]`) — verification replays
    /// against that fixture.
    pub server_cmd: Vec<String>,
    /// Concurrent retrying clients (default 8).
    pub clients: usize,
    /// SIGKILLs of the primary (default 5).
    pub kills: u32,
    /// Run a replicated primary/standby pair and promote the standby at
    /// every kill (default false: one node, relaunched on its journal).
    pub standby: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            server_cmd: Vec::new(),
            clients: 8,
            kills: 5,
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
        thread::sleep(Duration::from_millis(25));
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
            // The quiesce barrier: report idle, hold until released. In a
            // pair, the kill loop drains replication lag and swaps
            // primaries while every client sits here between turns.
            idle.fetch_add(1, Ordering::Relaxed);
            while pause.load(Ordering::Relaxed) && !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(5));
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
        thread::sleep(Duration::from_millis(2));
    }
    Ok(ClientLog {
        session,
        acked,
        counters: client.counters(),
    })
}

/// One node of the fleet: fixed serve (and, in a pair, replication)
/// ports and its own journal, so a relaunch reuses the same identity.
struct Node {
    addr: String,
    repl: Option<String>,
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
            // The server is thread-per-connection over a fixed pool, and
            // the client fleet re-dials the instant a restart binds. Leave
            // headroom above the fleet or the clients monopolize every
            // worker and the readiness probe starves in the accept queue.
            "--workers".into(),
            (cfg.clients * 2 + 4).to_string(),
            "--auto-compact".into(),
            AUTO_COMPACT.to_string(),
        ]);
        if let Some(repl) = &self.repl {
            argv.extend(["--replicate-to".into(), repl.clone()]);
        }
        if let Some(primary_repl) = standby_of {
            argv.extend(["--standby-of".into(), primary_repl.into()]);
        }
        argv
    }

    fn launch(&self, cfg: &ChaosConfig, standby_of: Option<&str>) -> Result<Child, String> {
        let mut child = spawn_server(&self.argv(cfg, standby_of))?;
        if let Err(e) = wait_ready(&self.addr, DEADLINE) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        Ok(child)
    }
}

/// Tells concurrent runs in one process apart in journal file names.
static RUNS: AtomicUsize = AtomicUsize::new(0);

/// Run the kill loop and verify the invariants. See the module docs.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    if cfg.server_cmd.is_empty() {
        return Err("ChaosConfig.server_cmd is empty".into());
    }
    let started = Instant::now();
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let nodes: Vec<Node> = (0..if cfg.standby { 2 } else { 1 })
        .map(|i| -> Result<Node, String> {
            Ok(Node {
                addr: format!("127.0.0.1:{}", free_port()?),
                repl: if cfg.standby {
                    Some(format!("127.0.0.1:{}", free_port()?))
                } else {
                    None
                },
                journal: std::env::temp_dir().join(format!(
                    "squid-chaos-{}-{run}-{i}.journal",
                    std::process::id()
                )),
            })
        })
        .collect::<Result<_, _>>()?;
    for node in &nodes {
        let _ = std::fs::remove_file(&node.journal);
    }

    // Node 0 starts as primary; node 1, if any, as its standby.
    let mut children: Vec<Child> = Vec::new();
    let report = nodes
        .iter()
        .enumerate()
        .try_for_each(|(i, node)| {
            let standby_of = nodes[0].repl.as_deref().filter(|_| i > 0);
            children.push(node.launch(cfg, standby_of)?);
            Ok(())
        })
        .and_then(|()| drive(cfg, &nodes, &mut children, started));
    // The children are ours either way; tear them down before reporting.
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
    for node in &nodes {
        let _ = std::fs::remove_file(&node.journal);
    }
    report
}

/// The kill loop over a launched fleet, then verification against the
/// final primary.
fn drive(
    cfg: &ChaosConfig,
    nodes: &[Node],
    children: &mut [Child],
    started: Instant,
) -> Result<ChaosReport, String> {
    let clients = cfg.clients.max(1);
    let stop = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    let idle = AtomicUsize::new(0);
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let mut primary = 0usize;
    let mut promotions = 0u32;
    // A pair is paused at lag zero around every kill, and once more at
    // the end so verification reads a settled pair.
    let quiesce = |primary: &Node| -> Result<(), String> {
        if primary.repl.is_none() {
            return Ok(());
        }
        pause.store(true, Ordering::Relaxed);
        wait_idle(&idle, clients, DEADLINE)?;
        // The acceptance gate: lag must be *observed* at zero before the
        // kill — every acked turn is on the standby.
        wait_zero_lag(&primary.addr, DEADLINE)
    };
    let logs = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (addrs, stop, pause, idle) = (&addrs, &stop, &pause, &idle);
                scope.spawn(move || client_thread(addrs, i, stop, pause, idle))
            })
            .collect();

        let mut cycle = || -> Result<(), String> {
            thread::sleep(KILL_INTERVAL);
            let victim = primary;
            quiesce(&nodes[victim])?;
            // SIGKILL: no drain, no fsync-on-exit — what survives must
            // come from per-turn durability (and, in a pair, replication).
            let _ = children[victim].kill();
            let _ = children[victim].wait();
            let mut standby_of = None;
            if nodes.len() > 1 {
                primary = 1 - victim;
                promote_node(&nodes[primary].addr, DEADLINE)?;
                promotions += 1;
                // The killed node re-bootstraps from the new primary's
                // SNAP, so its stale journal is moot.
                standby_of = nodes[primary].repl.as_deref();
            }
            children[victim] = nodes[victim].launch(cfg, standby_of)?;
            pause.store(false, Ordering::Relaxed);
            Ok(())
        };
        let looped = (0..cfg.kills).try_for_each(|_| cycle()).and_then(|()| {
            // One more traffic window after the last recovery.
            thread::sleep(KILL_INTERVAL);
            quiesce(&nodes[primary])
        });
        stop.store(true, Ordering::Relaxed);
        pause.store(false, Ordering::Relaxed);
        let joined: Result<Vec<ClientLog>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        looped.and(joined)
    })?;
    let (lost_turns, sql_mismatches, compactions) = verify(&nodes[primary].addr, &logs)?;

    let mut counters = RetryCounters::default();
    let mut turns_acked = 0u64;
    for log in &logs {
        turns_acked += log.acked.len() as u64;
        counters.retries += log.counters.retries;
        counters.reconnects += log.counters.reconnects;
        counters.deduped += log.counters.deduped;
        counters.rate_limited += log.counters.rate_limited;
        counters.failovers += log.counters.failovers;
    }
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
        thread::sleep(Duration::from_millis(5));
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
        thread::sleep(Duration::from_millis(20));
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
        thread::sleep(Duration::from_millis(25));
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
