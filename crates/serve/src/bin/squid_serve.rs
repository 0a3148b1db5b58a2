//! `squid-serve` — TCP serving frontend for SQuID session fleets, plus a
//! scripted client and the chaos harness (one binary, three modes).
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
//! Scripted client (`--client <addr>`): `squid --repl`'s line loop
//! (`squid_serve::repl`) over a retrying connection. It reads verbs in the
//! text grammar from stdin (`create`, `add <value>`, `suggest [k]`, `sql`,
//! `close`, ...) against the most recently created session, plus
//! `session <id>` (adopt a recovered session) and `client <id>` (bind an
//! admission identity); prints each reply as the JSON line the wire
//! carries, the same lines `squid --repl --batch` prints, which CI diffs it
//! against; and exits 2 on the first error reply, naming its line.
//!
//! Chaos harness (`--chaos [--standby] --kills K --clients N`): SIGKILLs
//! child servers of this same binary, serving `mini`, under N retrying
//! clients, and exits 1 unless no acknowledged turn was lost
//! (`squid_serve::chaos`).

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use squid_core::{FsyncPolicy, Journal, SessionManager, SquidParams};
use squid_serve::json::Json;
use squid_serve::{
    acquire_adb, fetch_adb, repl, run_chaos, ChaosConfig, ClientError, RateLimit, RetryClient,
    ServeConfig, Server, Transport, Verb,
};

const USAGE: &str = "\
usage: squid-serve [flags] <dataset>                 serve a session fleet
       squid-serve --client <addr>                   scripted client (stdin)
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
chaos flags:
  --kills <n>          SIGKILLs of the primary (default 5)
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
    let mut chaos_mode = false;
    let mut chaos = ChaosConfig::default();
    let mut bootstrap_adb = false;
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
            "--clients" => chaos.clients = next_num(&mut it, "--clients") as usize,
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
            "--standby" => chaos.standby = true,
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
            "--kills" => chaos.kills = next_num(&mut it, "--kills") as u32,
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
        chaos.server_cmd = vec![exe.display().to_string(), "mini".into()];
        match run_chaos(&chaos) {
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
        // Scripted: the first error reply ends the run with exit 2.
        let mut remote = Remote(RetryClient::new(addr));
        let stdin = std::io::stdin();
        let ran = repl::run(
            &mut remote,
            None,
            stdin.lock(),
            &mut std::io::stdout(),
            &mut std::io::stderr(),
            true,
        );
        let c = remote.0.counters();
        if c.retries + c.reconnects + c.deduped + c.rate_limited > 0 {
            eprintln!(
                "client: {} retries, {} reconnects, {} deduped turns, {} rate-limited replies",
                c.retries, c.reconnects, c.deduped, c.rate_limited
            );
        }
        ran.unwrap_or_else(|e| die(&e));
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
            Ok(st) => eprintln!("journal {}: {st}", jp.display()),
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

/// `--client`: the protocol over a [`RetryClient`], which rides through
/// restarts (requests retry with backoff, reconnects are automatic), plus
/// the two words a connection answers itself.
struct Remote(RetryClient);

impl Transport for Remote {
    fn send(&mut self, verb: Verb) -> Result<Json, ClientError> {
        self.0.send(verb)
    }

    fn local_usage(&self) -> &[&str] {
        &["session <id>"]
    }

    fn local(
        &mut self,
        word: &str,
        rest: &str,
        session: &mut Option<u64>,
    ) -> Option<Result<(), String>> {
        Some(match word {
            // Re-address an existing session (e.g. one a restarted server
            // just recovered from its journal), resuming its turn
            // numbering from the server's cursor.
            "session" => match rest.parse::<u64>() {
                Ok(sid) => self
                    .0
                    .adopt(sid)
                    .map_err(|e| format!("adopt {sid}: {e}"))
                    .map(|cursor| {
                        eprintln!("session {sid} adopted at turn {cursor}");
                        *session = Some(sid);
                    }),
                Err(_) => Err("usage: session <id>".into()),
            },
            // Bind an admission identity; the retry client replays the
            // handshake on every (re)connection.
            "client" if !rest.is_empty() => {
                eprintln!("client identity {rest:?} bound");
                self.0.identify(rest);
                Ok(())
            }
            _ => return None,
        })
    }
}
