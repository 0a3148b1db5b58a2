//! `squid-serve` — TCP serving frontend for SQuID session fleets, plus a
//! scripted client and a load generator (one binary, three modes).
//!
//! Server (default):
//!
//! ```text
//! squid-serve --addr 127.0.0.1:7878 --journal /var/lib/squid.journal imdb
//! squid-serve --addr 127.0.0.1:0 imdb        # random port, printed on stdout
//! ```
//!
//! Prints `listening on <addr>` once serving. SIGTERM/SIGINT (or a
//! `shutdown` request) triggers the graceful path: drain in-flight turns,
//! fsync the journal, optionally save a snapshot, exit 0. A fleet killed
//! hard instead recovers from its journal on the next `--journal` start.
//!
//! Scripted client (`--client <addr>`): reads REPL-grammar commands from
//! stdin (`create`, `add <value>`, `suggest [k]`, `sql`, `close`, ...),
//! sends them as protocol requests against the most recently created
//! session, prints one raw JSON response line per command, and exits
//! non-zero on the first error response — the network twin of
//! `squid --repl --batch`, which CI diffs it against.
//!
//! Load generator (`--loadgen <addr> --clients N --sessions M`): reads a
//! turn script from stdin (same grammar, no `create`/`close` — the
//! harness brackets each session) and replays it from N concurrent
//! connections, printing sessions/sec, turns/sec, and latency
//! percentiles.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use squid_core::{FsyncPolicy, Journal, SessionManager, SquidParams};
use squid_serve::json::Json;
use squid_serve::{
    acquire_adb, fetch_adb, parse_line, run_chaos, run_load_fleet, ChaosConfig, LoadConfig,
    RateLimit, RetryClient, ServeConfig, Server, Verb,
};

const USAGE: &str = "\
usage: squid-serve [flags] <dataset>                 serve a session fleet
       squid-serve --client <addr>                   scripted client (stdin)
       squid-serve --loadgen <addr> [load flags]     load generator (stdin)
       squid-serve --chaos [chaos flags]             SIGKILL-loop chaos smoke
datasets: imdb | dblp | adult | mini
server flags:
  --addr <host:port>   bind address (default 127.0.0.1:0; port printed)
  --workers <n>        worker threads = concurrent connections (default 8)
  --max-pending <n>    queued connections before `overloaded` (default 64)
  --max-sessions <n>   fleet-wide live-session cap (default 4096)
  --idle-timeout <s>   reap idle connections after s seconds (default 300)
  --ttl <s>            evict sessions idle past s seconds (default: never)
  --snapshot <path>    load the αDB from this snapshot if present (corrupt
                       or missing -> rebuild from generators and save)
  --exit-snapshot <p>  also save an αDB snapshot during graceful shutdown
  --journal <path>     journal session mutations; recover on start
  --fsync <mode>       journal durability: always | flush (default) | never
  --auto-compact <n>   compact the journal when its replay tail exceeds
                       max(n, records at startup) (default: off)
  --rate-limit <r[:b]> per-session token bucket: r turns/sec, burst b
                       (default burst = 2r; refusals carry retry_after_ms)
  --normalized         normalized association strength (case-study mode)
replication flags:
  --replicate-to <a>   also listen on a for standby links (host:port;
                       port 0 allocates; the chosen addr is printed)
  --standby-of <a>     start as a warm standby of the primary whose
                       replication listener is at a; reads are served,
                       mutations refused with a `not_primary` hint;
                       SIGUSR1 or the `promote` verb flips to primary
  --bootstrap-adb      (standby only) fetch the αDB over the replication
                       link instead of building it; dataset arg optional
load flags:
  --clients <n>        concurrent client threads (default 8)
  --sessions <n>       sessions per client (default 2)
                       (--loadgen accepts a,b,... — clients fail over)
chaos flags:
  --kills <n>          SIGKILL -> restart cycles (default 5)
  --clients <n>        concurrent retrying clients (default 8)
  --standby            replicated-pair mode: SIGKILL the primary, promote
                       the standby, relaunch the corpse as the new standby";

fn die<T>(msg: &str) -> T {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// SIGTERM/SIGINT/SIGUSR1 handling without crates: the C runtime std
/// already links provides `signal`; the handlers only store to atomics,
/// which is async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);
    pub static PROMOTE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_promote(_signum: i32) {
        PROMOTE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGUSR1: i32 = 10;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
            signal(SIGUSR1, on_promote);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }

    /// One-shot: true at most once per SIGUSR1.
    pub fn promote_requested() -> bool {
        PROMOTE.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stop_requested() -> bool {
        false
    }
    pub fn promote_requested() -> bool {
        false
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::default();
    let mut params = SquidParams::default();
    let mut client_addr: Option<String> = None;
    let mut loadgen_addr: Option<String> = None;
    let mut chaos_mode = false;
    let mut chaos_standby = false;
    let mut bootstrap_adb = false;
    let mut kills = 5u32;
    let mut clients = 8usize;
    let mut sessions = 2usize;
    let mut snapshot: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Flush;
    let mut auto_compact: Option<u64> = None;
    let mut ttl: Option<Duration> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    let next_num = |it: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("{flag} needs a number")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--client" => {
                client_addr = Some(
                    it.next()
                        .unwrap_or_else(|| die("--client needs an address")),
                )
            }
            "--loadgen" => {
                loadgen_addr = Some(
                    it.next()
                        .unwrap_or_else(|| die("--loadgen needs an address")),
                )
            }
            "--addr" => cfg.addr = it.next().unwrap_or_else(|| die("--addr needs host:port")),
            "--workers" => cfg.workers = next_num(&mut it, "--workers") as usize,
            "--max-pending" => cfg.max_pending = next_num(&mut it, "--max-pending") as usize,
            "--max-sessions" => cfg.max_sessions = next_num(&mut it, "--max-sessions") as usize,
            "--idle-timeout" => {
                cfg.idle_timeout = Duration::from_secs(next_num(&mut it, "--idle-timeout"))
            }
            "--ttl" => {
                let secs = next_num(&mut it, "--ttl");
                ttl = Some(Duration::from_secs(secs));
                cfg.sweep_interval = Some(Duration::from_secs((secs / 4).max(1)));
            }
            "--clients" => clients = next_num(&mut it, "--clients") as usize,
            "--sessions" => sessions = next_num(&mut it, "--sessions") as usize,
            "--snapshot" => {
                snapshot = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--snapshot needs a path")),
                ))
            }
            "--exit-snapshot" => {
                cfg.snapshot_on_shutdown = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| die("--exit-snapshot needs a path")),
                ))
            }
            "--journal" => {
                journal = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--journal needs a path")),
                ))
            }
            "--fsync" => {
                fsync = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--fsync needs one of: always | flush | never"))
            }
            "--auto-compact" => auto_compact = Some(next_num(&mut it, "--auto-compact")),
            "--replicate-to" => {
                cfg.replicate_to = Some(
                    it.next()
                        .unwrap_or_else(|| die("--replicate-to needs host:port")),
                )
            }
            "--standby-of" => {
                cfg.standby_of = Some(
                    it.next()
                        .unwrap_or_else(|| die("--standby-of needs host:port")),
                )
            }
            "--bootstrap-adb" => bootstrap_adb = true,
            "--standby" => chaos_standby = true,
            "--rate-limit" => {
                let spec = it
                    .next()
                    .unwrap_or_else(|| die("--rate-limit needs r or r:b"));
                let (r, b) = match spec.split_once(':') {
                    Some((r, b)) => (r.parse::<f64>().ok(), b.parse::<f64>().ok()),
                    None => {
                        let r = spec.parse::<f64>().ok();
                        (r, r.map(|r| r * 2.0))
                    }
                };
                match (r, b) {
                    (Some(per_sec), Some(burst)) if per_sec > 0.0 && burst >= 1.0 => {
                        cfg.rate_limit = Some(RateLimit { per_sec, burst })
                    }
                    _ => die("--rate-limit needs r > 0 (turns/sec), burst >= 1"),
                }
            }
            "--chaos" => chaos_mode = true,
            "--kills" => kills = next_num(&mut it, "--kills") as u32,
            "--normalized" => params = SquidParams::normalized(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => positional.push(other.to_string()),
        }
    }

    if chaos_mode {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| die(&format!("cannot locate own binary: {e}")));
        let cfg = ChaosConfig {
            server_cmd: vec![exe.display().to_string(), "mini".into()],
            clients,
            kills,
            standby: chaos_standby,
            ..ChaosConfig::default()
        };
        match run_chaos(&cfg) {
            Ok(report) => {
                println!("{}", report.summary());
                if !report.passed() {
                    std::process::exit(1);
                }
            }
            Err(e) => die(&format!("chaos run failed: {e}")),
        }
        return;
    }
    if let Some(addr) = client_addr {
        run_client(&addr);
        return;
    }
    if let Some(addr) = loadgen_addr {
        run_loadgen(&addr, clients, sessions);
        return;
    }

    // The journal is the replication stream: a primary without one could
    // bootstrap standbys but never ship them a mutation.
    if (cfg.replicate_to.is_some() || cfg.standby_of.is_some()) && journal.is_none() {
        die::<()>("--replicate-to/--standby-of need --journal (the journal is what replicates)");
        return;
    }

    // A standby can pull the αDB over its replication link instead of
    // building (or loading) it locally — new nodes join dataset-free.
    let adb = if bootstrap_adb {
        let Some(primary) = cfg.standby_of.as_deref() else {
            die::<()>("--bootstrap-adb only makes sense with --standby-of");
            return;
        };
        eprintln!("fetching αDB from primary at {primary}...");
        match fetch_adb(primary, Duration::from_secs(60)) {
            Ok(adb) => Arc::new(adb),
            Err(e) => die(&format!("αDB bootstrap from {primary} failed: {e}")),
        }
    } else {
        let Some(dataset) = positional.first() else {
            die::<()>(USAGE);
            return;
        };
        Arc::new(acquire_adb(dataset, snapshot.as_deref()).unwrap_or_else(|e| die(&e)))
    };
    let mut manager = SessionManager::with_params(Arc::clone(&adb), params);
    if let Some(ttl) = ttl {
        manager = manager.with_ttl(ttl);
    }
    if let Some(floor) = auto_compact {
        manager = manager.with_auto_compact(floor);
    }
    let manager = Arc::new(manager);
    if let (Some(jp), true) = (&journal, cfg.standby_of.is_some()) {
        // A standby's state comes from the primary's snapshot bootstrap,
        // not from whatever journal a past life left behind — replaying
        // it would only create sessions the SNAP immediately reinstalls
        // or sweeps. Start the journal fresh; every replicated record is
        // re-journaled locally, so durability is preserved.
        let _ = std::fs::remove_file(jp);
        match Journal::open(jp, fsync) {
            Ok(j) => manager.attach_journal(j),
            Err(e) => {
                die::<()>(&format!("journal {} unusable: {e}", jp.display()));
                return;
            }
        }
    } else if let Some(jp) = &journal {
        match manager.recover(jp, fsync) {
            Ok(st) => eprintln!(
                "journal {}: replayed {} session(s), {} record(s) applied, \
                 {} failed, {} damaged byte(s) truncated, {} live",
                jp.display(),
                st.sessions_replayed,
                st.records_applied,
                st.records_failed,
                st.bytes_truncated,
                st.live_sessions
            ),
            Err(e) => {
                die::<()>(&format!("journal {} unusable: {e}", jp.display()));
                return;
            }
        }
    }

    sig::install();
    let server = match Server::start(manager, cfg) {
        Ok(s) => s,
        Err(e) => {
            die::<()>(&format!("bind failed: {e}"));
            return;
        }
    };
    // The port announcement is the startup handshake CI scripts wait for;
    // flush so it is visible even through a pipe.
    println!("listening on {}", server.local_addr());
    if let Some(repl) = server.repl_addr() {
        println!("replicating on {repl}");
    }
    let _ = std::io::stdout().flush();

    while !sig::stop_requested() && !server.stop_requested() {
        if sig::promote_requested() {
            eprintln!("SIGUSR1: promoting...");
            let role = server.promote(Duration::from_secs(10));
            eprintln!("promotion -> {role:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown requested; draining...");
    let report = server.shutdown();
    eprintln!(
        "drained: {} request(s), {} turn(s), {} connection(s), {} live session(s), \
         journal {}{}",
        report.metrics.requests,
        report.metrics.turns,
        report.metrics.connections_closed,
        report.live_sessions,
        if report.journal_synced {
            "synced"
        } else {
            "sync FAILED"
        },
        match report.snapshot_bytes {
            Some(b) => format!(", snapshot saved ({b} bytes)"),
            None => String::new(),
        }
    );
}

/// Scripted client: stdin commands → protocol requests → raw JSON
/// response lines on stdout; non-zero exit on the first error response.
/// Rides through restarts: requests retry with backoff, reconnects are
/// automatic, and `session <id>` re-adopts a recovered session (syncing
/// the turn cursor so further mutations keep deduping).
fn run_client(addr: &str) {
    let mut client = RetryClient::new(addr.to_string());
    let mut current: Option<u64> = None;
    let stdin = std::io::stdin();
    let mut line_no = 0usize;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        line_no += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        // Client-local: re-address an existing session (e.g. one that a
        // restarted server just recovered from its journal), resuming
        // its turn numbering from the server's cursor.
        if let Some(rest) = line.strip_prefix("session ") {
            match rest.trim().parse::<u64>() {
                Ok(sid) => match client.adopt(sid) {
                    Ok(cursor) => {
                        eprintln!("session {sid} adopted at turn {cursor}");
                        current = Some(sid);
                        continue;
                    }
                    Err(e) => die(&format!("line {line_no}: adopt {sid}: {e}")),
                },
                Err(_) => die(&format!("line {line_no}: usage: session <id>")),
            }
        }
        let result = match parse_line(line, current) {
            // Client-local: bind an admission identity; the retry client
            // replays the handshake on every (re)connection.
            Ok(Verb::Client { id }) => {
                eprintln!("client identity {id:?} bound");
                client.identify(id);
                continue;
            }
            Ok(verb) => client.send(verb),
            Err(msg) => die(&format!("line {line_no}: {msg}")),
        };
        let resp = match result {
            Ok(r) => r,
            Err(e) => die(&format!("line {line_no}: command {line:?} failed: {e}")),
        };
        println!("{}", resp.encode());
        if let Some(sid) = resp.get("session").and_then(Json::as_u64) {
            current = Some(sid);
        }
    }
    let c = client.counters();
    if c.retries + c.reconnects + c.deduped + c.rate_limited > 0 {
        eprintln!(
            "client: {} retries, {} reconnects, {} deduped turns, {} rate-limited replies",
            c.retries, c.reconnects, c.deduped, c.rate_limited
        );
    }
}

/// Load-generator mode: replay a stdin turn script from N connections.
/// `addr` may be a comma-separated fleet — clients fail over between
/// members, and the report's `failovers` counter says how often.
fn run_loadgen(addr: &str, clients: usize, sessions: usize) {
    let stdin = std::io::stdin();
    let mut script = Vec::new();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        script.push(line.to_string());
    }
    if script.is_empty() {
        die::<()>("loadgen: empty script on stdin (expected add/suggest/sql/... lines)");
        return;
    }
    let cfg = LoadConfig {
        clients,
        sessions_per_client: sessions,
        script,
    };
    let addrs: Vec<String> = addr
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    match run_load_fleet(&addrs, &cfg) {
        Ok(report) => {
            println!("{}", report.summary());
            if report.errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => die(&format!("loadgen against {addr} failed: {e}")),
    }
}
