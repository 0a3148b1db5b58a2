//! `squid-serve` server core: a hand-rolled [`TcpListener`] frontend over
//! a [`SessionManager`] fleet.
//!
//! ## Architecture
//!
//! ```text
//!             accept()          bounded queue            worker pool
//! clients ──► acceptor ──try_send(conn)──► mpsc ──recv──► worker 0..W
//!                │  full? reply {overloaded} + close        │
//!                ▼                                          ▼
//!          admission control                    line loop: read → parse →
//!          (fleet connection cap)               SessionManager → respond
//! ```
//!
//! One acceptor thread hands connections to a **fixed** pool of `workers`
//! threads through a bounded queue — the two numbers together are the
//! connection admission bound: at most `workers` connections are being
//! served and `max_pending` are waiting; anything beyond gets an explicit
//! `{"ok":false,"error":{"code":"overloaded"}}` line and a close, never a
//! silent drop. Session admission is a separate fleet-wide cap
//! (`max_sessions`) checked on `create`.
//!
//! Each worker serves its connection to completion: newline-delimited
//! JSON requests ([`crate::protocol`]) dispatched straight onto the
//! session API. A turn served here takes the same incremental path a
//! local [`squid_core::SquidSession`] turn takes — the response carries
//! the `incremental` flag and cache counters of the underlying
//! [`squid_core::DiscoveryDelta`] so clients (and CI) can verify that.
//! Exactly-once lives in the manager: a retried sequenced turn comes back
//! as [`squid_core::SeqOutcome::Duplicate`], carrying the delta its
//! session kept for its latest sequenced turn, and is rendered like any
//! other turn; the server keeps no copy of a reply.
//!
//! Protocol errors are *responses*, never worker deaths; the two framing
//! errors (oversized line, invalid UTF-8) poison the byte stream, so the
//! server replies and closes that connection only. Idle connections are
//! reaped after `idle_timeout`; a partially-received request must
//! complete within `read_timeout`.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] (or the `shutdown` verb, or the binary's SIGTERM
//! handler) sets a stop flag, wakes the acceptor, and drains: in-flight
//! turns complete and their responses are written, queued-but-unserved
//! connections get a `shutting_down` reply, workers join, the journal is
//! fsynced, and (when configured) an αDB snapshot is saved. A fleet
//! killed *without* the graceful path recovers from its journal on the
//! next start ([`SessionManager::recover`]), which the CI serving smoke
//! exercises with a literal SIGTERM mid-load. The restart may bind the
//! same address at once: [`Server::start`] binds through std, which
//! sets `SO_REUSEADDR`.
//!
//! A standby becomes primary only through the `promote` verb.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use squid_core::{DiscoveryDelta, SessionManager, SquidError};

use crate::json::Json;
use crate::protocol::{self, Command, ErrorCode, Request, Verb};
use crate::replication::{self, ReplListener, ReplState, Role, StandbyLink};

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Fixed worker-thread count — the concurrent-connection bound.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond this,
    /// admission control replies `overloaded` and closes.
    pub max_pending: usize,
    /// Fleet-wide live-session cap enforced on `create`.
    pub max_sessions: usize,
    /// Longest accepted request line in bytes (framing bound).
    pub max_line_bytes: usize,
    /// A partially-received request must complete within this.
    pub read_timeout: Duration,
    /// Per-response socket write timeout.
    pub write_timeout: Duration,
    /// Connections idle (no request in progress) past this are reaped.
    pub idle_timeout: Duration,
    /// Sweep cadence for TTL session eviction (`None` = no sweeper; only
    /// useful when the manager was built `with_ttl`).
    pub sweep_interval: Option<Duration>,
    /// Save an αDB snapshot here during graceful shutdown.
    pub snapshot_on_shutdown: Option<PathBuf>,
    /// Per-session token-bucket rate limit on mutating turns (`None` =
    /// unlimited). Refusals are `rate_limited` replies carrying a
    /// `retry_after_ms` hint, never dropped connections.
    pub rate_limit: Option<RateLimit>,
    /// Graceful degradation: once at least this many accepted connections
    /// are waiting for a worker, cheap-to-retry verbs (`suggest`,
    /// fleet-wide `stats`) are shed with `overloaded` + `retry_after_ms`
    /// so accepted turns keep their workers. The default equals the
    /// default `max_pending` — shedding starts only when the backlog is
    /// saturated.
    pub shed_pending: usize,
    /// Bind a replication listener here (the primary side of a
    /// warm-standby pair; see [`crate::replication`]). Port 0 picks a
    /// free port (see [`Server::repl_addr`]). A standby node may bind
    /// one too — it serves nothing until promotion.
    pub replicate_to: Option<String>,
    /// Start as a standby of this primary *replication* address: connect
    /// there, absorb the snapshot bootstrap and journal stream, serve
    /// reads, and refuse mutations with `not_primary` until promoted.
    pub standby_of: Option<String>,
}

/// Token-bucket parameters of the per-session rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained mutating-turns-per-second budget.
    pub per_sec: f64,
    /// Burst capacity (the bucket size).
    pub burst: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            max_pending: 64,
            max_sessions: 4096,
            max_line_bytes: 256 << 10,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            sweep_interval: None,
            snapshot_on_shutdown: None,
            rate_limit: None,
            shed_pending: 64,
            replicate_to: None,
            standby_of: None,
        }
    }
}

/// How often blocked reads wake to re-check deadlines and the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// `retry_after_ms` hint on backlog refusals: one worker-queue drain is a
/// short wait, not a failover.
const RETRY_OVERLOADED_MS: u64 = 100;

/// How long, and for how many bytes, a refused connection is drained
/// after its refusal line (see [`respond_and_close`]). Local peers close
/// within microseconds; the bounds only cap what a stuck or hostile peer
/// can cost the acceptor.
const REFUSAL_DRAIN: Duration = Duration::from_millis(100);
const REFUSAL_DRAIN_BYTES: usize = 64 * 1024;

/// `retry_after_ms` hint on the session cap: a slot opens when a session
/// closes or expires, which is slower than a backlog drain.
const RETRY_SESSION_LIMIT_MS: u64 = 1000;

/// Longest client id the `client` handshake accepts. Ids are kept for the
/// server's lifetime and listed by every `stats` reply, so they are names,
/// not payloads.
const MAX_CLIENT_ID_BYTES: usize = 128;

/// Monotonic serving counters (all relaxed: they are reporting, not
/// synchronization).
#[derive(Debug, Default)]
struct Metrics {
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    requests: AtomicU64,
    turns: AtomicU64,
    protocol_errors: AtomicU64,
    connections_closed: AtomicU64,
    idle_reaped: AtomicU64,
    deduped: AtomicU64,
    rate_limited: AtomicU64,
    shed: AtomicU64,
}

/// Point-in-time copy of the server's counters (the `stats` verb and
/// [`Server::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Connections accepted by the listener.
    pub accepted: u64,
    /// Connections refused by admission control (got an `overloaded`
    /// reply instead of service).
    pub rejected_overloaded: u64,
    /// Requests dispatched (well-formed or not).
    pub requests: u64,
    /// Session-mutating turns served (`add`/`remove`/feedback verbs).
    pub turns: u64,
    /// Error responses sent (protocol or discovery level).
    pub protocol_errors: u64,
    /// Connections closed (any reason).
    pub connections_closed: u64,
    /// Connections reaped by the idle timeout.
    pub idle_reaped: u64,
    /// Retried turns acknowledged without re-running (sequence dedupe).
    pub deduped: u64,
    /// Turns refused by the per-session rate limit.
    pub rate_limited: u64,
    /// Cheap verbs shed under backlog pressure.
    pub shed: u64,
}

impl Metrics {
    fn snapshot(&self) -> ServerMetrics {
        ServerMetrics {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            turns: self.turns.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// One session's (or identified client's) token bucket (see
/// [`RateLimit`]).
struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    /// Accrue what the elapsed time earned; `Err(ms)` when that still
    /// leaves less than one token, `ms` being how long until one is there.
    /// Takes nothing: the caller spends the token once every bucket the
    /// turn draws on has one.
    fn refill(&mut self, rl: RateLimit) -> Result<(), u64> {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * rl.per_sec).min(rl.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            Ok(())
        } else {
            let wait_s = (1.0 - self.tokens) / rl.per_sec.max(f64::MIN_POSITIVE);
            Err((wait_s * 1000.0).ceil() as u64)
        }
    }
}

/// One identified client (the `client` handshake): its admission
/// counters — who is consuming the fleet, not just which session — and,
/// once a rate limit has charged it, its token bucket.
#[derive(Default)]
struct ClientState {
    requests: u64,
    turns: u64,
    rate_limited: u64,
    shed: u64,
    bucket: Option<Bucket>,
}

/// Per-connection state: what this connection has told us about itself.
struct ConnCtx {
    /// Identity from the optional `client <id>` handshake; keys the
    /// client's [`ClientState`].
    client: Option<String>,
}

/// Lock serving-side bookkeeping, recovering from poisoning: a panicked
/// turn leaves every map entry whole, and one crashed request must not
/// take admission down for every other connection.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// State shared by the acceptor, every worker, and the [`Server`] handle.
struct Shared {
    manager: Arc<SessionManager>,
    cfg: ServeConfig,
    /// The actually-bound address (port 0 resolved) — the wake-up target
    /// for unblocking the acceptor on shutdown.
    addr: SocketAddr,
    stop: AtomicBool,
    metrics: Metrics,
    /// Server start time (uptime in the `health` reply).
    started: Instant,
    /// Accepted connections currently waiting for a worker — the backlog
    /// depth the load-shedding decision reads.
    pending: AtomicUsize,
    /// Per-session rate-limit buckets (present only while `rate_limit`
    /// is configured; created only for validated session ids, pruned on
    /// `close`, unknown-session turns, and the TTL sweep).
    buckets: Mutex<HashMap<u64, Bucket>>,
    /// Replication role, promotion latch, and lag bookkeeping. Always
    /// present — an unreplicated server is simply a primary with no
    /// standby attached.
    repl: Arc<ReplState>,
    /// Per-client state: admission counters, surfaced by `stats` and
    /// `health`, and a token bucket charged *in addition to* the
    /// per-session one. One entry per identity the handshake accepted, at
    /// most `max_sessions` of them (identities are never forgotten — a
    /// reconnecting client replays its handshake).
    clients: Mutex<HashMap<String, ClientState>>,
}

impl Shared {
    /// Spend one turn's tokens: one from `session`'s bucket and, for an
    /// identified client, one from its own — a second gate, so one client
    /// driving many sessions still has a bounded total budget. Both are
    /// checked before either is spent (under both locks, clients first),
    /// so a turn refused on one bucket costs nothing on the other.
    fn take_tokens(
        &self,
        client: Option<&str>,
        session: u64,
        rl: RateLimit,
    ) -> Result<(), Refusal> {
        let full = || Bucket {
            tokens: rl.burst,
            last: Instant::now(),
        };
        let mut clients = locked(&self.clients);
        let mut by_session = locked(&self.buckets);
        let mut drawn = Vec::with_capacity(2);
        // Only identities the handshake accepted are set on a connection,
        // so an identified client always has its entry.
        if let Some((id, state)) = client.and_then(|id| clients.get_mut(id).map(|s| (id, s))) {
            let bucket = state.bucket.get_or_insert_with(full);
            drawn.push((format!("client {id}"), bucket));
        }
        let bucket = by_session.entry(session).or_insert_with(full);
        drawn.push((format!("session {session}"), bucket));
        for (who, bucket) in &mut drawn {
            bucket.refill(rl).map_err(|wait_ms| {
                let detail = format!("{who} exceeded its turn budget");
                Refusal::retry(ErrorCode::RateLimited, detail, wait_ms)
            })?;
        }
        for (_, bucket) in drawn {
            bucket.tokens -= 1.0;
        }
        Ok(())
    }

    /// Bump an identified client's admission counters (no-op for
    /// anonymous connections).
    fn bump_client(&self, ctx: &ConnCtx, f: impl FnOnce(&mut ClientState)) {
        if let Some(id) = &ctx.client {
            // Only identities the handshake accepted are set on a
            // connection, so this never adds one.
            if let Some(c) = locked(&self.clients).get_mut(id) {
                f(c);
            }
        }
    }

    /// Count one applied turn, fleet-wide and for an identified client.
    fn count_turn(&self, ctx: &ConnCtx) {
        self.metrics.turns.fetch_add(1, Ordering::Relaxed);
        self.bump_client(ctx, |c| c.turns += 1);
    }

    /// Forget a session's serving state (its rate bucket).
    fn forget_session(&self, session: u64) {
        locked(&self.buckets).remove(&session);
    }

    /// Drop the rate buckets of sessions the manager no longer hosts: the
    /// TTL sweep, lazy expiry, and durability fail-stops all remove
    /// sessions without going through the `close` verb, and their buckets
    /// must not accumulate forever.
    fn prune_serving_state(&self) {
        let live: std::collections::HashSet<u64> = self.manager.session_ids().into_iter().collect();
        locked(&self.buckets).retain(|id, _| live.contains(id));
    }
}

/// What a graceful [`Server::shutdown`] did.
#[derive(Debug, Clone, Default)]
pub struct ShutdownReport {
    /// Final serving counters.
    pub metrics: ServerMetrics,
    /// Whether the journal flushed cleanly.
    pub journal_synced: bool,
    /// Bytes of the αDB snapshot written on the way out, when configured.
    pub snapshot_bytes: Option<u64>,
    /// Sessions still live at shutdown (journaled, so recoverable).
    pub live_sessions: usize,
}

/// A running serving frontend (see the module docs).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    repl_listener: Option<ReplListener>,
    standby_link: Option<StandbyLink>,
}

impl Server {
    /// Bind and start serving `manager` per `cfg`. Returns once the
    /// listener is bound and every worker is running. The bind is std's
    /// [`TcpListener::bind`], which sets `SO_REUSEADDR` on Unix: a server
    /// restarted on the same address (after a SIGKILL or a supervisor
    /// relaunch) binds at once, while its old connections drain out of
    /// `TIME_WAIT`.
    pub fn start(manager: Arc<SessionManager>, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let role = if cfg.standby_of.is_some() {
            Role::Standby
        } else {
            Role::Primary
        };
        let repl = Arc::new(ReplState::new(role));
        if role == Role::Primary {
            // The address SNAP frames carry as the `not_primary` hint.
            repl.set_primary_addr(&addr.to_string());
        }
        let shared = Arc::new(Shared {
            manager,
            cfg,
            addr,
            stop: AtomicBool::new(false),
            metrics: Metrics::default(),
            started: Instant::now(),
            pending: AtomicUsize::new(0),
            buckets: Mutex::new(HashMap::new()),
            repl: Arc::clone(&repl),
            clients: Mutex::new(HashMap::new()),
        });
        let repl_listener = match &shared.cfg.replicate_to {
            Some(bind) => Some(replication::start_repl_listener(
                Arc::clone(&shared.manager),
                bind.as_str(),
                Arc::clone(&repl),
            )?),
            None => None,
        };
        let standby_link = match &shared.cfg.standby_of {
            Some(primary) => Some(replication::start_standby_link(
                Arc::clone(&shared.manager),
                primary.clone(),
                Arc::clone(&repl),
            )?),
            None => None,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(shared.cfg.max_pending);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("squid-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("squid-serve-acceptor".to_string())
                // The acceptor owns the only sender: when it exits (stop
                // flag) the channel closes and idle workers drain out.
                .spawn(move || accept_loop(&shared, listener, tx))
                .expect("spawn acceptor")
        };
        let sweeper = shared.cfg.sweep_interval.map(|every| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("squid-serve-sweeper".to_string())
                .spawn(move || {
                    while !shared.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(every.min(POLL * 4));
                        if shared.manager.evict_expired() > 0 {
                            shared.prune_serving_state();
                        }
                    }
                })
                .expect("spawn sweeper")
        });
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            sweeper,
            repl_listener,
            standby_link,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication listener's bound address, when one is configured
    /// (resolves a `--replicate-to` port 0).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_listener.as_ref().map(ReplListener::local_addr)
    }

    /// The node's replication state (role, lag, promotion latch).
    pub fn repl(&self) -> &Arc<ReplState> {
        &self.shared.repl
    }

    /// The hosted fleet.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.shared.manager
    }

    /// Current serving counters.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics.snapshot()
    }

    /// Whether a stop was requested (`shutdown` verb, signal, or
    /// [`Server::request_stop`]).
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Request a graceful stop without blocking (the drain happens in
    /// [`Server::shutdown`]). Safe to call more than once.
    pub fn request_stop(&self) {
        request_stop(&self.shared, self.addr);
    }

    /// Gracefully stop: drain in-flight turns, reply `shutting_down` to
    /// queued connections, join every thread, fsync the journal, and save
    /// the configured shutdown snapshot.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.request_stop();
        // Wind the replication threads down alongside the serving ones:
        // the stop flag unblocks the standby link's frame reads and the
        // sender's ack waits within one poll interval.
        self.shared.repl.request_stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(s) = self.sweeper.take() {
            let _ = s.join();
        }
        if let Some(l) = self.repl_listener.take() {
            l.shutdown();
        }
        if let Some(l) = self.standby_link.take() {
            l.shutdown();
        }
        let journal_synced = self.shared.manager.journal_sync().is_ok();
        let snapshot_bytes = self
            .shared
            .cfg
            .snapshot_on_shutdown
            .as_ref()
            .and_then(|p| self.shared.manager.adb().save_snapshot(p).ok());
        ShutdownReport {
            metrics: self.metrics(),
            journal_synced,
            snapshot_bytes,
            live_sessions: self.shared.manager.len(),
        }
    }
}

/// Set the stop flag and wake the acceptor out of its blocking
/// `accept()` with a throwaway connection to ourselves.
fn request_stop(shared: &Shared, addr: SocketAddr) {
    if !shared.stop.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The wake-up connection (or a late arrival): decline politely.
            respond_and_close(conn, ErrorCode::ShuttingDown, "server is draining", None);
            return;
        }
        shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        // Count the connection as pending *before* it can be dequeued: if
        // the worker's decrement landed first, the counter would wrap to
        // usize::MAX and shed_cheap would spuriously shed everything
        // until it rebalanced.
        shared.pending.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(conn) {
            Ok(()) => {}
            Err(TrySendError::Full(conn)) => {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                shared
                    .metrics
                    .rejected_overloaded
                    .fetch_add(1, Ordering::Relaxed);
                respond_and_close(
                    conn,
                    ErrorCode::Overloaded,
                    "connection limit reached; retry later",
                    Some(RETRY_OVERLOADED_MS),
                );
            }
            Err(TrySendError::Disconnected(conn)) => {
                shared.pending.fetch_sub(1, Ordering::Relaxed);
                respond_and_close(conn, ErrorCode::ShuttingDown, "server is draining", None);
                return;
            }
        }
    }
}

/// Best-effort single error line to a connection we will not serve,
/// closed so that the line survives: FIN after it, never RST over it.
fn respond_and_close(
    mut conn: TcpStream,
    code: ErrorCode,
    detail: &str,
    retry_after_ms: Option<u64>,
) {
    let _ = conn.set_write_timeout(Some(Duration::from_millis(500)));
    let mut line = protocol::error_response(code, detail, None, retry_after_ms, None).encode();
    line.push('\n');
    let _ = conn.write_all(line.as_bytes());
    // Dropping the socket with the peer's request still unread makes the
    // kernel answer with RST, and an RST can destroy the line just written
    // before the peer reads it. Send FIN instead, then consume what the
    // peer sent until it closes its side.
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + REFUSAL_DRAIN;
    let mut sink = [0u8; 1024];
    let mut drained = 0;
    while drained < REFUSAL_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Lock scope: hold the receiver only for the dequeue, never while
        // serving (siblings must keep pulling connections).
        let conn = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(conn) = conn else {
            return; // channel closed: acceptor exited and queue is drained
        };
        shared.pending.fetch_sub(1, Ordering::Relaxed);
        if shared.stop.load(Ordering::SeqCst) {
            respond_and_close(conn, ErrorCode::ShuttingDown, "server is draining", None);
            shared
                .metrics
                .connections_closed
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        serve_connection(shared, conn);
        shared
            .metrics
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Why the per-connection line loop ended.
enum LineEvent {
    /// One complete request line (newline stripped, may be empty).
    Line(Vec<u8>),
    /// Peer closed (or half-closed) the stream.
    Eof,
    /// No request started within the idle timeout.
    Idle,
    /// A started request did not complete within the read timeout.
    Stalled,
    /// The line exceeded `max_line_bytes`.
    TooLong,
    /// Stop flag observed while no request was in progress.
    Stopped,
    /// Transport error.
    Failed,
}

/// Buffered line reader with deadline tracking: blocked reads wake every
/// [`POLL`] to re-check the idle/read deadlines and the stop flag, so
/// reaping and shutdown never wait on a silent peer.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_line: usize,
    idle_timeout: Duration,
    read_timeout: Duration,
}

impl LineReader {
    fn next_line(&mut self, stop: &AtomicBool) -> LineEvent {
        let started = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=i).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return LineEvent::Line(line);
            }
            if self.buf.len() > self.max_line {
                return LineEvent::TooLong;
            }
            if stop.load(Ordering::SeqCst) {
                return LineEvent::Stopped;
            }
            let limit = if self.buf.is_empty() {
                self.idle_timeout
            } else {
                self.read_timeout
            };
            if started.elapsed() > limit {
                return if self.buf.is_empty() {
                    LineEvent::Idle
                } else {
                    LineEvent::Stalled
                };
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LineEvent::Failed,
            }
        }
    }
}

/// After responding, keep the connection or close it.
#[derive(PartialEq)]
enum Flow {
    Continue,
    Close,
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    // Round-trip latency is the product here: defeat Nagle+delayed-ack.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader {
        stream: read_half,
        buf: Vec::new(),
        max_line: shared.cfg.max_line_bytes,
        idle_timeout: shared.cfg.idle_timeout,
        read_timeout: shared.cfg.read_timeout,
    };
    let mut out = stream;
    let mut ctx = ConnCtx { client: None };
    let mut send = |resp: &Json, is_err: bool| -> bool {
        if is_err {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut line = resp.encode();
        line.push('\n');
        out.write_all(line.as_bytes()).is_ok()
    };
    loop {
        match reader.next_line(&shared.stop) {
            LineEvent::Line(bytes) => {
                let Ok(text) = String::from_utf8(bytes) else {
                    // The stream is not decodable; framing is untrustworthy
                    // beyond this point. Reply, then close.
                    let resp = conn_error(ErrorCode::InvalidUtf8, "request bytes are not UTF-8");
                    send(&resp, true);
                    return;
                };
                let line = text.trim();
                if line.is_empty() {
                    continue;
                }
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let (resp, is_err, flow) = dispatch_line(shared, &mut ctx, line);
                if !send(&resp, is_err) || flow == Flow::Close {
                    return;
                }
            }
            LineEvent::Eof | LineEvent::Stopped | LineEvent::Failed => return,
            LineEvent::Idle => {
                shared.metrics.idle_reaped.fetch_add(1, Ordering::Relaxed);
                let resp = conn_error(
                    ErrorCode::IdleTimeout,
                    "connection idle past the reaping deadline",
                );
                send(&resp, true);
                return;
            }
            LineEvent::Stalled => {
                let resp = conn_error(
                    ErrorCode::IdleTimeout,
                    "request did not complete within the read timeout",
                );
                send(&resp, true);
                return;
            }
            LineEvent::TooLong => {
                // The remainder of the oversized line is undelivered; the
                // stream cannot be re-synchronized. Reply, then close.
                let resp = conn_error(
                    ErrorCode::LineTooLong,
                    &format!("request line exceeds {} bytes", shared.cfg.max_line_bytes),
                );
                send(&resp, true);
                return;
            }
        }
    }
}

/// The error line for a connection that is about to be closed (no request
/// to tie it to, so no id and no hints).
fn conn_error(code: ErrorCode, detail: &str) -> Json {
    protocol::error_response(code, detail, None, None, None)
}

/// Parse, admit and execute one request line. Returns the response,
/// whether it is an error (for the counters), and whether to keep the
/// connection.
fn dispatch_line(shared: &Shared, ctx: &mut ConnCtx, line: &str) -> (Json, bool, Flow) {
    let (req, cmd) = match protocol::decode(line) {
        Ok(decoded) => decoded,
        Err(e) => return (Json::from(&e), true, Flow::Continue),
    };
    let id = req.id;
    shared.bump_client(ctx, |c| c.requests += 1);
    match admit(shared, ctx, cmd, &req.verb).and_then(|()| execute(shared, ctx, cmd, req)) {
        Ok((resp, flow)) => (resp, false, flow),
        Err(r) => {
            let resp = protocol::error_response(
                r.code,
                &r.detail,
                id,
                r.retry_after_ms,
                r.primary.as_deref(),
            );
            (resp, true, Flow::Continue)
        }
    }
}

/// A refused request: the stable code, the human detail, and — for
/// back-pressure refusals — when retrying is expected to succeed.
pub(crate) struct Refusal {
    pub(crate) code: ErrorCode,
    pub(crate) detail: String,
    pub(crate) retry_after_ms: Option<u64>,
    /// `not_primary` refusals only: the primary's client address.
    pub(crate) primary: Option<String>,
}

impl Refusal {
    fn new(code: ErrorCode, detail: impl Into<String>) -> Refusal {
        Refusal {
            code,
            detail: detail.into(),
            retry_after_ms: None,
            primary: None,
        }
    }

    fn retry(code: ErrorCode, detail: impl Into<String>, after_ms: u64) -> Refusal {
        Refusal {
            code,
            detail: detail.into(),
            retry_after_ms: Some(after_ms),
            primary: None,
        }
    }
}

/// Refuse a mutation on a standby, hinting at the primary's address.
fn require_primary(shared: &Shared) -> Result<(), Refusal> {
    if shared.repl.role() == Role::Standby {
        return Err(Refusal {
            primary: shared.repl.primary_addr(),
            ..Refusal::new(
                ErrorCode::NotPrimary,
                "standby refuses mutations; dial the primary",
            )
        });
    }
    Ok(())
}

/// Run a promotion to completion (or `deadline`): latch the request and
/// wait for the standby link thread to drain the stream and flip the
/// role. On success the node starts hinting its own address as primary.
/// Idempotent — promoting a primary is a no-op that reports success.
fn do_promote(shared: &Shared, deadline: Duration) -> Role {
    if shared.repl.role() == Role::Primary {
        return Role::Primary;
    }
    shared.repl.request_promotion();
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if shared.repl.role() == Role::Primary {
            shared.repl.set_primary_addr(&shared.addr.to_string());
            return Role::Primary;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.repl.role()
}

type ExecResult = Result<(Json, Flow), Refusal>;

/// Like [`squid_error`], but drops the session's serving-side state
/// (its rate bucket) when the manager reports the session
/// gone — it can vanish between validation and apply via the TTL sweep
/// or a durability fail-stop, and nothing else would prune those maps.
fn session_error(shared: &Shared, session: u64, e: SquidError) -> Refusal {
    if matches!(e, SquidError::UnknownSession { .. }) {
        shared.forget_session(session);
    }
    squid_error(e)
}

fn squid_error(e: SquidError) -> Refusal {
    let code = match &e {
        SquidError::UnknownSession { .. } => ErrorCode::UnknownSession,
        SquidError::SequenceGap { .. } | SquidError::RecordTooLarge { .. } => ErrorCode::BadRequest,
        SquidError::Io(_) | SquidError::Corrupt { .. } => ErrorCode::Internal,
        _ => ErrorCode::Discovery,
    };
    Refusal::new(code, e.to_string())
}

/// Graceful degradation: refuse a cheap-to-retry verb when the worker
/// backlog is saturated, so accepted turns keep their workers. Turns are
/// never shed — a turn carries session state the client would have to
/// replay; a shed `suggest`/`stats` costs one retry. "Cheap" holds for the
/// work as well as the retry: `suggest` changes nothing, and it searches
/// signature classes over violator bitmaps (`squid_core::recommend`)
/// rather than building a recommendation per result row, so redoing one
/// costs tens of microseconds however wide the result is.
fn shed_cheap(shared: &Shared, ctx: &ConnCtx, verb: &str) -> Result<(), Refusal> {
    if shared.pending.load(Ordering::Relaxed) >= shared.cfg.shed_pending {
        shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
        shared.bump_client(ctx, |c| c.shed += 1);
        return Err(Refusal::retry(
            ErrorCode::Overloaded,
            format!("{verb} shed under load; retry shortly"),
            RETRY_OVERLOADED_MS,
        ));
    }
    Ok(())
}

/// Everything that can refuse a request before it runs, in one order for
/// every verb and driven by the verb's table row: role → drain and session
/// cap (`create` only) → load shedding → session exists → token buckets.
/// Every stage only reads until the last one spends the tokens, so a
/// refusal leaves nothing charged. The stage that
/// follows — a sequenced turn's gap check and dedupe — belongs to
/// `apply_op_at`: it has to be atomic with the apply, under the session's
/// lock.
fn admit(shared: &Shared, ctx: &ConnCtx, cmd: &Command, verb: &Verb) -> Result<(), Refusal> {
    let m = &shared.manager;
    if cmd.primary_only {
        require_primary(shared)?;
    }
    if matches!(verb, Verb::Create) {
        if shared.stop.load(Ordering::SeqCst) {
            return Err(Refusal::new(ErrorCode::ShuttingDown, "server is draining"));
        }
        if m.len() >= shared.cfg.max_sessions {
            return Err(Refusal::retry(
                ErrorCode::SessionLimit,
                format!("session limit {} reached", shared.cfg.max_sessions),
                RETRY_SESSION_LIMIT_MS,
            ));
        }
    }
    // Fleet-wide stats are orchestrator telemetry and shed under load; a
    // session-scoped stats call is part of a client's re-adoption
    // handshake (it learns its turn cursor from `op_seq`) and is never
    // shed.
    if cmd.sheddable && !matches!(verb, Verb::Stats { session: Some(_) }) {
        shed_cheap(shared, ctx, cmd.name)?;
    }
    if let (true, Verb::Apply { session, .. }) = (cmd.rate_limited, verb) {
        // Validate before touching rate-limit state: otherwise a bogus
        // session id mints a token bucket that is never pruned, and the
        // caller's *second* probe reads `rate_limited` instead of
        // `unknown_session`.
        if !m.contains_session(*session) {
            shared.forget_session(*session);
            return Err(squid_error(SquidError::UnknownSession { id: *session }));
        }
        if let Some(rl) = shared.cfg.rate_limit {
            shared
                .take_tokens(ctx.client.as_deref(), *session, rl)
                .inspect_err(|_| {
                    shared.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
                    shared.bump_client(ctx, |c| c.rate_limited += 1);
                })?;
        }
    }
    Ok(())
}

/// Run an admitted request and build its reply: the verbs that need the
/// server (sequenced turns, `health`, `client`, `promote`, `shutdown`, and
/// the serving counters of `stats`) here, every other verb through
/// [`answer`], the dispatcher the in-process transport of [`crate::repl`]
/// calls too. A retried sequenced turn is answered from the delta its
/// session kept ([`squid_core::SeqOutcome::Duplicate`]).
fn execute(shared: &Shared, ctx: &mut ConnCtx, cmd: &Command, req: Request) -> ExecResult {
    let m = &shared.manager;
    let id = req.id;
    let name = cmd.name;
    let ok =
        |fields: Vec<(String, Json)>| Ok((protocol::ok_response(name, id, fields), Flow::Continue));
    match req.verb {
        Verb::Apply {
            session,
            op,
            seq: Some(seq),
        } => match m
            .apply_op_at(session, seq, &op)
            .map_err(|e| session_error(shared, session, e))?
        {
            squid_core::SeqOutcome::Applied(delta) => {
                shared.count_turn(ctx);
                ok(delta.map(delta_fields).unwrap_or_default())
            }
            squid_core::SeqOutcome::Duplicate(delta) => {
                // An acknowledged turn retried: the session hands back
                // the delta its latest sequenced turn was answered with,
                // rendered again; any other retry gets a minimal ack
                // (the state the answer described is already there).
                shared.metrics.deduped.fetch_add(1, Ordering::Relaxed);
                let mut fields = delta.map(delta_fields).unwrap_or_default();
                fields.push(("deduped".into(), Json::Bool(true)));
                ok(fields)
            }
        },
        verb @ Verb::Stats { .. } => {
            let mut fields = answer(m, &verb)?;
            // Per-client admission counters (the `client` handshake),
            // sorted for stable output.
            let mut clients: Vec<_> = locked(&shared.clients)
                .iter()
                .map(|(cid, cs)| {
                    let counters = Json::obj([
                        ("requests", cs.requests.into()),
                        ("turns", cs.turns.into()),
                        ("rate_limited", cs.rate_limited.into()),
                        ("shed", cs.shed.into()),
                    ]);
                    (cid.clone(), counters)
                })
                .collect();
            clients.sort_by(|a, b| a.0.cmp(&b.0));
            // The serving counters follow the fleet's session list.
            let serving = [
                ("server".into(), metrics_json(&shared.metrics.snapshot())),
                ("clients".into(), Json::Obj(clients)),
            ];
            fields.splice(2..2, serving);
            ok(fields)
        }
        Verb::Health => {
            // Deliberately cheap (counters and two map sizes) and never
            // shed: orchestrators must be able to probe an overloaded
            // server — that is exactly when they ask.
            let mx = shared.metrics.snapshot();
            let mut fields = vec![
                ("healthy".into(), Json::Bool(true)),
                (
                    "draining".into(),
                    Json::Bool(shared.stop.load(Ordering::SeqCst)),
                ),
                (
                    "uptime_ms".into(),
                    Json::Int(shared.started.elapsed().as_millis() as i64),
                ),
                ("sessions".into(), m.len().into()),
                ("max_sessions".into(), shared.cfg.max_sessions.into()),
                (
                    "pending".into(),
                    shared.pending.load(Ordering::Relaxed).into(),
                ),
                ("workers".into(), shared.cfg.workers.into()),
                ("requests".into(), mx.requests.into()),
                ("turns".into(), mx.turns.into()),
                ("rate_limited".into(), mx.rate_limited.into()),
                ("shed".into(), mx.shed.into()),
                ("clients".into(), locked(&shared.clients).len().into()),
                (
                    "role".into(),
                    Json::str(match shared.repl.role() {
                        Role::Primary => "primary",
                        Role::Standby => "standby",
                    }),
                ),
            ];
            if shared.cfg.replicate_to.is_some() || shared.cfg.standby_of.is_some() {
                let mut repl = vec![
                    (
                        "standby_connected",
                        Json::Bool(shared.repl.standby_connected()),
                    ),
                    ("link_up", Json::Bool(shared.repl.link_up())),
                    ("applied_records", shared.repl.applied_records().into()),
                    ("snapshots", shared.repl.snapshots().into()),
                ];
                if let Some(js) = m.journal_stats() {
                    // The primary's view: journal the standby has not
                    // acknowledged. The chaos harness waits for zero here
                    // before it is allowed to kill the primary.
                    let (lag_records, lag_bytes) = shared.repl.lag(&js);
                    repl.push(("lag_records", lag_records.into()));
                    repl.push(("lag_bytes", lag_bytes.into()));
                }
                if let Some(p) = shared.repl.primary_addr() {
                    repl.push(("primary", Json::Str(p)));
                }
                fields.push(("replication".into(), Json::obj(repl)));
            }
            fields.push((
                "journal".into(),
                match m.journal_stats() {
                    Some(js) => Json::Obj(journal_members(&js)),
                    None => Json::str("detached"),
                },
            ));
            ok(fields)
        }
        Verb::Client { id: client_id } => {
            if client_id.len() > MAX_CLIENT_ID_BYTES {
                let detail = format!("client id longer than {MAX_CLIENT_ID_BYTES} bytes");
                return Err(Refusal::new(ErrorCode::BadRequest, detail));
            }
            let mut clients = locked(&shared.clients);
            if !clients.contains_key(&client_id) {
                // A known identity is always taken back; a new one only
                // while there is room.
                if clients.len() >= shared.cfg.max_sessions {
                    let detail = format!("client limit {} reached", shared.cfg.max_sessions);
                    return Err(Refusal::new(ErrorCode::BadRequest, detail));
                }
                clients.insert(client_id.clone(), ClientState::default());
            }
            drop(clients);
            ctx.client = Some(client_id.clone());
            ok(vec![("client".into(), Json::Str(client_id))])
        }
        Verb::Promote => {
            // Blocks this worker for up to the drain deadline — promotion
            // is rare and the caller wants a definite answer.
            match do_promote(shared, Duration::from_secs(10)) {
                Role::Primary => ok(vec![("role".into(), Json::str("primary"))]),
                Role::Standby => Err(Refusal::retry(
                    ErrorCode::Internal,
                    "promotion did not complete; the standby link is still draining",
                    100,
                )),
            }
        }
        Verb::Shutdown => {
            // Respond first (Flow::Close flushes this line before the
            // worker exits), then the flag drains the whole server.
            let resp = protocol::ok_response(name, id, vec![("stopping".into(), Json::Bool(true))]);
            request_stop(shared, shared.addr);
            Ok((resp, Flow::Close))
        }
        verb => {
            let fields = answer(m, &verb);
            if let (Verb::Apply { .. }, Ok(_)) = (&verb, &fields) {
                shared.count_turn(ctx);
            }
            // A session gone from the manager (closed, swept, fail-stopped)
            // takes its serving-side state with it.
            let gone = match &fields {
                Ok(_) => matches!(verb, Verb::Close { .. }),
                Err(r) => r.code == ErrorCode::UnknownSession,
            };
            if let (true, Some(s)) = (gone, verb.session()) {
                shared.forget_session(s);
            }
            ok(fields?)
        }
    }
}

/// Answer `verb` from the session manager alone — the one dispatcher of
/// both the server's workers and the in-process transport of
/// [`crate::repl`]: `ping`, `create`, unsequenced turns, `suggest`, `sql`,
/// `rows`, `examples`, `stats` (without the server's counters) and
/// `close`. Every other verb needs a server and is refused.
pub(crate) fn answer(m: &SessionManager, verb: &Verb) -> Result<Vec<(String, Json)>, Refusal> {
    let adb = m.adb();
    match verb {
        Verb::Ping => Ok(vec![("pong".into(), Json::Bool(true))]),
        Verb::Create => Ok(vec![("session".into(), m.create_session().into())]),
        Verb::Apply {
            session,
            op,
            seq: None,
        } => {
            let delta = m.apply_op(*session, op).map_err(squid_error)?;
            Ok(delta.map(delta_fields).unwrap_or_default())
        }
        Verb::Suggest { session, k } => {
            let suggestions = m
                .with_session(*session, |s| {
                    let Some(d) = s.discovery() else {
                        return Ok(Vec::new());
                    };
                    Ok(s.suggest(*k)
                        .into_iter()
                        .map(|r| {
                            Json::obj([
                                (
                                    "value",
                                    match d.projection_value(adb, r.row) {
                                        Some(v) => Json::Str(v),
                                        None => Json::Null,
                                    },
                                ),
                                ("score", Json::Float(r.score)),
                                (
                                    "tests",
                                    Json::Arr(r.discriminates.into_iter().map(Json::Str).collect()),
                                ),
                            ])
                        })
                        .collect::<Vec<_>>())
                })
                .map_err(squid_error)?;
            Ok(vec![("suggestions".into(), Json::Arr(suggestions))])
        }
        Verb::Sql { session } => {
            let sql = m
                .with_session(*session, |s| Ok(s.discovery().map(|d| d.sql())))
                .map_err(squid_error)?;
            Ok(vec![("sql".into(), sql.map_or(Json::Null, Json::Str))])
        }
        Verb::Rows { session, limit } => {
            let (total, rows) = m
                .with_session(*session, |s| {
                    let Some(d) = s.discovery() else {
                        return Ok((0, Vec::new()));
                    };
                    let rows = d
                        .rows
                        .iter()
                        .take(*limit)
                        .filter_map(|row| d.projection_value(adb, row))
                        .map(Json::Str)
                        .collect();
                    Ok((d.rows.len(), rows))
                })
                .map_err(squid_error)?;
            Ok(vec![
                ("total".into(), total.into()),
                ("rows".into(), Json::Arr(rows)),
            ])
        }
        Verb::Examples { session } => {
            let examples = m
                .with_session(*session, |s| {
                    Ok(s.examples()
                        .iter()
                        .map(|e| Json::str(*e))
                        .collect::<Vec<_>>())
                })
                .map_err(squid_error)?;
            Ok(vec![("examples".into(), Json::Arr(examples))])
        }
        Verb::Stats { session } => {
            let ids = m.session_ids().into_iter().map(|i| i.into());
            let mut fields = vec![
                ("sessions".into(), m.len().into()),
                ("active_ids".into(), Json::Arr(ids.collect())),
            ];
            if let Some(sh) = m.shared_cache_stats() {
                fields.push((
                    "shared_cache".into(),
                    Json::obj([
                        ("hits", sh.hits.into()),
                        ("misses", sh.misses.into()),
                        ("entries", sh.entries.into()),
                        ("resident_bytes", sh.resident_bytes.into()),
                        ("max_resident_bytes", sh.max_resident_bytes.into()),
                        ("evictions", sh.evictions.into()),
                        ("hit_rate", Json::Float(sh.hit_rate())),
                    ]),
                ));
            }
            if let Some(rs) = m.recover_stats() {
                fields.push((
                    "recovery".into(),
                    Json::obj([
                        ("sessions_replayed", rs.sessions_replayed.into()),
                        ("records_applied", rs.records_applied.into()),
                        ("records_failed", rs.records_failed.into()),
                        ("records_skipped", rs.records_skipped.into()),
                        ("bytes_truncated", rs.bytes_truncated.into()),
                        ("live_sessions", rs.live_sessions.into()),
                    ]),
                ));
            }
            if let Some(js) = m.journal_stats() {
                let mut journal = journal_members(&js);
                let errors = m.journal_write_errors().into();
                journal.push(("write_errors".into(), errors));
                fields.push(("journal".into(), Json::Obj(journal)));
            }
            if let Some(sid) = *session {
                let (cs, op_seq) = m
                    .with_session(sid, |s| Ok((s.cache_stats(), s.op_seq())))
                    .map_err(squid_error)?;
                // The session's turn cursor: a reconnecting client resumes
                // its sequence numbering from here.
                fields.push(("op_seq".into(), op_seq.into()));
                fields.push((
                    "session_cache".into(),
                    Json::obj([("hits", cs.hits.into()), ("misses", cs.misses.into())]),
                ));
            }
            let heap = adb.heap_bytes();
            let parts = heap.stats_parts;
            fields.push((
                "adb_heap".into(),
                Json::obj([
                    ("tables", heap.tables.into()),
                    ("inverted", heap.inverted.into()),
                    ("stats", heap.stats.into()),
                    (
                        "stats_parts",
                        Json::obj([
                            ("categorical", parts.categorical.into()),
                            ("numeric", parts.numeric.into()),
                            ("derived", parts.derived.into()),
                            ("derived_numeric", parts.derived_numeric.into()),
                            ("keys", parts.keys.into()),
                        ]),
                    ),
                    ("derived", heap.derived.into()),
                ]),
            ));
            Ok(fields)
        }
        Verb::Close { session } => {
            m.close_session(*session).map_err(squid_error)?;
            Ok(vec![("closed".into(), Json::Bool(true))])
        }
        other => Err(Refusal::new(
            ErrorCode::UnknownVerb,
            format!("`{}` only means something to squid-serve", other.name()),
        )),
    }
}

fn metrics_json(mx: &ServerMetrics) -> Json {
    Json::obj([
        ("accepted", mx.accepted.into()),
        ("rejected_overloaded", mx.rejected_overloaded.into()),
        ("requests", mx.requests.into()),
        ("turns", mx.turns.into()),
        ("protocol_errors", mx.protocol_errors.into()),
        ("connections_closed", mx.connections_closed.into()),
        ("idle_reaped", mx.idle_reaped.into()),
        ("deduped", mx.deduped.into()),
        ("rate_limited", mx.rate_limited.into()),
        ("shed", mx.shed.into()),
    ])
}

/// Wire members of [`squid_core::JournalStats`]: replay debt (base vs
/// tail records), file size, and compaction history.
fn journal_members(js: &squid_core::JournalStats) -> Vec<(String, Json)> {
    let last = js.last_compaction.map_or(Json::Null, |c| {
        Json::obj([
            ("sessions", c.sessions.into()),
            ("records_written", c.records_written.into()),
            ("bytes_before", c.bytes_before.into()),
            ("bytes_after", c.bytes_after.into()),
        ])
    });
    vec![
        ("bytes".into(), js.bytes.into()),
        ("base_records".into(), js.base_records.into()),
        ("tail_records".into(), js.tail_records.into()),
        ("compactions".into(), js.compactions.into()),
        ("last_compaction".into(), last),
    ]
}

/// Response fields of a session-mutating turn: the wire rendering of a
/// [`DiscoveryDelta`], incremental-path evidence included. It carries the
/// filters that came and went, not the query: the `sql` verb renders the
/// SQL when it is asked for (see the protocol's "Replies").
fn delta_fields(delta: DiscoveryDelta) -> Vec<(String, Json)> {
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(10);
    match &delta.discovery {
        Some(d) => {
            let chosen = d.scored.iter().filter(|s| s.included).count();
            fields.push(("rows".into(), d.rows.len().into()));
            fields.push(("filters".into(), chosen.into()));
        }
        None => {
            fields.push(("rows".into(), Json::Int(0)));
            fields.push(("empty".into(), Json::Bool(true)));
        }
    }
    fields.push((
        "added_filters".into(),
        Json::Arr(delta.added_filters.into_iter().map(Json::Str).collect()),
    ));
    fields.push((
        "removed_filters".into(),
        Json::Arr(delta.removed_filters.into_iter().map(Json::Str).collect()),
    ));
    fields.push(("rows_added".into(), delta.rows_added.into()));
    fields.push(("rows_removed".into(), delta.rows_removed.into()));
    fields.push(("incremental".into(), Json::Bool(delta.incremental)));
    fields.push(("cache_hits".into(), delta.cache_hits.into()));
    fields.push(("cache_misses".into(), delta.cache_misses.into()));
    fields
}
