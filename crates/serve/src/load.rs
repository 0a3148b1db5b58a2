//! Load generator: N concurrent client threads replaying session scripts
//! over real sockets, measuring what the serving path actually costs.
//!
//! Each client thread opens one connection and replays
//! `sessions_per_client` sessions of the given script (`create`, the
//! scripted turns, `close`), timing every request round trip. The merged
//! timings produce sessions/sec, turns/sec, and p50/p95/p99 turn latency
//! — the numbers `BENCH_squid.json` records for the serving trajectory
//! (`cargo bench -p squid-bench --bench serving`).

use std::io;
use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

use crate::protocol::{parse_line, Class};
use crate::retry::{RetryClient, RetryCounters, RetryPolicy};

/// Load shape: `clients` threads × `sessions_per_client` sessions ×
/// `script` turns each.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads (each with its own connection).
    pub clients: usize,
    /// Sessions each client replays, one after another.
    pub sessions_per_client: usize,
    /// The turns of every session, one line of the text grammar each
    /// ([`parse_line`]: `add <value…>`, `suggest [k]`, `sql`, … — any
    /// session-scoped verb).
    pub script: Vec<String>,
}

/// Aggregated result of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Sessions completed (create → turns → close).
    pub sessions: u64,
    /// Scripted turns completed.
    pub turns: u64,
    /// Requests that came back `ok:false` or failed transport-level.
    pub errors: u64,
    /// Wall-clock of the whole run (slowest client).
    pub wall: Duration,
    /// Mean turn round-trip latency.
    pub turn_mean: Duration,
    /// Median turn round-trip latency.
    pub turn_p50: Duration,
    /// 95th-percentile turn latency.
    pub turn_p95: Duration,
    /// 99th-percentile turn latency.
    pub turn_p99: Duration,
    /// Retry work the clients absorbed (retries, reconnects, deduped
    /// turns, rate-limited replies) — zero across the board on a healthy
    /// unthrottled server.
    pub retry: RetryCounters,
}

impl LoadReport {
    /// Completed sessions per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        per_sec(self.sessions, self.wall)
    }

    /// Completed turns per wall-clock second.
    pub fn turns_per_sec(&self) -> f64 {
        per_sec(self.turns, self.wall)
    }

    /// One-line human rendering.
    pub fn summary(&self) -> String {
        format!(
            "{} sessions, {} turns, {} errors in {:.2?} \
             ({:.1} sessions/s, {:.1} turns/s; turn p50 {:?} p95 {:?} p99 {:?}; \
             retries {} reconnects {} deduped {} rate_limited {} failovers {})",
            self.sessions,
            self.turns,
            self.errors,
            self.wall,
            self.sessions_per_sec(),
            self.turns_per_sec(),
            self.turn_p50,
            self.turn_p95,
            self.turn_p99,
            self.retry.retries,
            self.retry.reconnects,
            self.retry.deduped,
            self.retry.rate_limited,
            self.retry.failovers,
        )
    }
}

fn per_sec(n: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

struct ClientOutcome {
    sessions: u64,
    turns: u64,
    errors: u64,
    latencies_ns: Vec<u64>,
    retry: RetryCounters,
}

/// Run one load shape against a server; returns the merged report.
/// Client threads count protocol errors instead of aborting, so a report
/// with `errors == 0` is positive evidence the server held up.
pub fn run_load(addr: impl ToSocketAddrs, cfg: &LoadConfig) -> io::Result<LoadReport> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    run_load_fleet(&[addr.to_string()], cfg)
}

/// Like [`run_load`], but every client knows the whole fleet: a connect
/// or transport error on the active address fails over to the next, and
/// a standby's `not_primary` hint redirects mid-run — so the load keeps
/// flowing across a promotion, with the work counted in
/// [`RetryCounters::failovers`].
pub fn run_load_fleet(addrs: &[String], cfg: &LoadConfig) -> io::Result<LoadReport> {
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no server addresses",
        ));
    }
    for line in &cfg.script {
        // The harness brackets each session itself, so a script line has
        // to address one.
        match parse_line(line, Some(0)) {
            Ok(verb) if verb.class() != Class::Fleet => {}
            Ok(_) => return Err(bad_script(line, "not a session verb")),
            Err(e) => return Err(bad_script(line, &e)),
        }
    }
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|_| scope.spawn(move || run_client(addrs, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut report = LoadReport {
        wall,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for o in outcomes {
        report.sessions += o.sessions;
        report.turns += o.turns;
        report.errors += o.errors;
        report.retry.retries += o.retry.retries;
        report.retry.reconnects += o.retry.reconnects;
        report.retry.deduped += o.retry.deduped;
        report.retry.rate_limited += o.retry.rate_limited;
        report.retry.failovers += o.retry.failovers;
        latencies.extend(o.latencies_ns);
    }
    if !latencies.is_empty() {
        latencies.sort_unstable();
        let sum: u64 = latencies.iter().sum();
        report.turn_mean = Duration::from_nanos(sum / latencies.len() as u64);
        report.turn_p50 = Duration::from_nanos(percentile(&latencies, 50.0));
        report.turn_p95 = Duration::from_nanos(percentile(&latencies, 95.0));
        report.turn_p99 = Duration::from_nanos(percentile(&latencies, 99.0));
    }
    Ok(report)
}

fn bad_script(line: &str, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("load script line {line:?}: {why}"),
    )
}

/// Nearest-rank percentile over sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_client(addrs: &[String], cfg: &LoadConfig) -> ClientOutcome {
    let mut out = ClientOutcome {
        sessions: 0,
        turns: 0,
        errors: 0,
        latencies_ns: Vec::with_capacity(cfg.sessions_per_client * cfg.script.len()),
        retry: RetryCounters::default(),
    };
    // Back-pressure-aware clients: a shed or rate-limited turn backs off
    // and retries inside the timed window (honest latency accounting — a
    // refused-then-retried turn costs what the caller actually waited),
    // and a dropped connection re-dials instead of abandoning the run.
    let mut client = RetryClient::fleet(
        addrs.to_vec(),
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            read_timeout: Some(Duration::from_secs(10)),
        },
    );
    for _ in 0..cfg.sessions_per_client {
        let sid = match client.create() {
            Ok(sid) => sid,
            Err(_) => {
                out.errors += 1;
                out.retry = client.counters();
                continue;
            }
        };
        let mut session_ok = true;
        for line in &cfg.script {
            let verb = parse_line(line, Some(sid)).expect("script checked by run_load_fleet");
            let t = Instant::now();
            let result = client.send(verb);
            let elapsed = t.elapsed().as_nanos() as u64;
            match result {
                Ok(_) => {
                    out.turns += 1;
                    out.latencies_ns.push(elapsed);
                }
                Err(_) => {
                    out.errors += 1;
                    session_ok = false;
                }
            }
        }
        if client.close(sid).is_ok() {
            if session_ok {
                out.sessions += 1;
            }
        } else {
            out.errors += 1;
        }
    }
    out.retry = client.counters();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
