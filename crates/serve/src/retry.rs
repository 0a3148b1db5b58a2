//! Resilient client wrapper: exponential backoff with jitter, automatic
//! reconnect, and sequence-numbered turns so a retried mutation is
//! applied exactly once even when the acknowledgement was lost.
//!
//! The core problem a bare [`Client`] cannot solve: a transport error on
//! a mutating turn is ambiguous — the server may have applied the
//! operation and crashed before the reply, or never seen it at all.
//! [`RetryClient`] removes the ambiguity by stamping every mutation with
//! a per-session turn number (`seq`, 1-based, contiguous) and resending
//! the *same* number after a reconnect: the server's cursor
//! ([`squid_core::SessionManager::apply_op_at`]) absorbs the duplicate
//! and answers with `deduped:true` instead of re-applying.
//!
//! Back-pressure is honoured, not fought: `overloaded`, `session_limit`
//! and `rate_limited` refusals carry a `retry_after_ms` hint, and the
//! backoff never sleeps less than the server asked for. Everything the
//! wrapper does on the caller's behalf is counted in [`RetryCounters`]
//! so `squid-serve --client` and the chaos harness can surface it.
//!
//! With a replicated pair ([`crate::replication`]) the wrapper is also
//! the failover path: [`RetryClient::fleet`] takes every known address,
//! a connect or transport error rotates to the next one, and a standby's
//! `not_primary` refusal redirects straight to the hinted primary. A
//! failover retry is just a reconnect retry — the same sequence numbers
//! dedupe a turn the old primary acknowledged but the client never saw.

use std::collections::HashMap;
use std::io;
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::client::{Client, ClientError};
use crate::json::Json;
use crate::protocol::{encode_request, SessionOp, Verb};

/// How hard to retry before giving up.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries per request (first attempt included). At least 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles every retry after that.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep (hint or exponential).
    pub max_backoff: Duration,
    /// Read timeout applied to every connection (None = block forever).
    /// A timeout surfaces as a transport error, which reconnects and
    /// retries — sequence numbers make that safe for mutations.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// What the wrapper did on the caller's behalf.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetryCounters {
    /// Requests re-sent after a retryable failure.
    pub retries: u64,
    /// Connections re-established after losing one.
    pub reconnects: u64,
    /// Acknowledged turns the server absorbed as duplicates
    /// (`deduped:true` replies — proof a retry raced a lost ack).
    pub deduped: u64,
    /// `rate_limited` refusals absorbed by backing off.
    pub rate_limited: u64,
    /// Times the client switched to a different server address — after a
    /// connect/transport error on the active one, or following a
    /// standby's `not_primary` hint.
    pub failovers: u64,
}

/// Server error codes worth retrying: transient refusals that a later
/// attempt can outlive. Everything else (bad requests, discovery
/// errors, unknown sessions) fails fast.
pub(crate) fn retryable(code: &str) -> bool {
    matches!(
        code,
        "overloaded" | "session_limit" | "rate_limited" | "shutting_down"
    )
}

/// A [`Client`] that survives restarts, refusals, lost replies, and —
/// given more than one address — primary failover.
///
/// Connections are opened lazily and re-opened after any transport
/// error; sessions are not connection-bound in this protocol, so a
/// reconnected client keeps addressing the same session ids. After a
/// server restart, [`RetryClient::adopt`] re-synchronises the turn
/// cursor from the recovered journal before sending new mutations.
pub struct RetryClient {
    /// Every server address this client may talk to. `active` indexes
    /// the one currently (or last successfully) used; a `not_primary`
    /// hint naming an unknown address appends it here.
    addrs: Vec<String>,
    active: usize,
    policy: RetryPolicy,
    conn: Option<Client>,
    ever_connected: bool,
    /// Next turn number to send, per session.
    next_seq: HashMap<u64, u64>,
    /// Identity replayed as a `client` handshake on every (re)connection,
    /// so per-client admission accounting survives reconnects.
    client_id: Option<String>,
    counters: RetryCounters,
    /// Consecutive-failure rung driving the exponential backoff. Reset
    /// to 0 by every successful acknowledgement, so an isolated blip
    /// after a long healthy stretch starts the ladder from the base
    /// delay again instead of where the last incident left it.
    ladder: u32,
    rng: u64,
}

impl RetryClient {
    /// Wrap `addr` (e.g. `"127.0.0.1:7071"`) with the default policy.
    /// No connection is made until the first request.
    pub fn new(addr: impl Into<String>) -> RetryClient {
        Self::with_policy(addr, RetryPolicy::default())
    }

    /// Wrap `addr` with an explicit retry policy.
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        Self::fleet(vec![addr.into()], policy)
    }

    /// Wrap a list of candidate addresses (primary first, standbys
    /// after). Connect and transport errors rotate through the list;
    /// `not_primary` refusals jump straight to the hinted primary.
    pub fn fleet(addrs: Vec<String>, policy: RetryPolicy) -> RetryClient {
        assert!(!addrs.is_empty(), "RetryClient needs at least one address");
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9e37_79b9)
            | 1;
        RetryClient {
            addrs,
            active: 0,
            policy,
            conn: None,
            ever_connected: false,
            next_seq: HashMap::new(),
            client_id: None,
            counters: RetryCounters::default(),
            ladder: 0,
            rng: seed,
        }
    }

    /// Identify this client for per-client admission accounting. The
    /// handshake is (re)sent on every connection, so the identity
    /// follows the client across reconnects and failovers.
    pub fn identify(&mut self, id: impl Into<String>) {
        self.client_id = Some(id.into());
        // Re-handshake: drop the live connection so the next call dials
        // (and identifies) fresh.
        self.conn = None;
    }

    /// Everything retried, reconnected, deduped, rate-limited, or failed
    /// over so far.
    pub fn counters(&self) -> RetryCounters {
        self.counters
    }

    /// The address currently (or last successfully) connected to.
    pub fn active_addr(&self) -> &str {
        &self.addrs[self.active]
    }

    /// xorshift64* — no `rand` crate; jitter only needs to decorrelate
    /// clients, not be unpredictable.
    fn rng_next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Sleep for the `attempt`-th rung of the ladder (1-based):
    /// exponential from `base_backoff`, jittered to 50–150%, capped at
    /// `max_backoff`, and never below the server's `retry_after_ms`
    /// hint.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        let base = self.policy.base_backoff.as_millis() as u64;
        let exp = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.policy.max_backoff.as_millis() as u64);
        let jittered = exp / 2 + self.rng_next() % exp.max(1);
        let floored = jittered.max(hint_ms.unwrap_or(0));
        Duration::from_millis(
            floored
                .min(self.policy.max_backoff.as_millis() as u64)
                .max(1),
        )
    }

    /// Dial the active address, rotating through the rest of the list on
    /// connect failure. Landing on a different address than last time
    /// (after having been connected at all) is a failover.
    fn connect_once(&mut self) -> Result<(), ClientError> {
        let n = self.addrs.len();
        let mut last_err: Option<ClientError> = None;
        for off in 0..n {
            let idx = (self.active + off) % n;
            let mut client = match Client::connect(self.addrs[idx].as_str()) {
                Ok(c) => c,
                Err(e) => {
                    last_err = Some(ClientError::Io(e));
                    continue;
                }
            };
            client.set_read_timeout(self.policy.read_timeout)?;
            if let Some(cid) = &self.client_id {
                // A refused identity is the caller's error, classified by
                // `call` like any refusal (a `bad_request` fails fast)
                // instead of running anonymously; a transport error
                // re-dials like a failed connect.
                match client.identify(cid) {
                    Ok(()) => {}
                    Err(ClientError::Io(e)) => {
                        last_err = Some(ClientError::Io(e));
                        continue;
                    }
                    Err(refused) => return Err(refused),
                }
            }
            if self.ever_connected {
                self.counters.reconnects += 1;
                if idx != self.active {
                    self.counters.failovers += 1;
                }
            }
            self.active = idx;
            self.ever_connected = true;
            self.conn = Some(client);
            return Ok(());
        }
        Err(last_err.unwrap_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no server address reachable",
            ))
        }))
    }

    /// Point the client at `primary` (appending it to the address list
    /// if unknown) after a `not_primary` refusal named it.
    fn follow_primary_hint(&mut self, primary: &str) {
        let idx = match self.addrs.iter().position(|a| a == primary) {
            Some(i) => i,
            None => {
                self.addrs.push(primary.to_string());
                self.addrs.len() - 1
            }
        };
        if idx != self.active {
            self.active = idx;
            self.counters.failovers += 1;
        }
    }

    /// Send `body`, retrying through refusals, reconnects, and server
    /// restarts up to `max_attempts` times. The *same* body is re-sent
    /// verbatim — for sequenced mutations that is exactly what makes the
    /// retry idempotent.
    pub fn call(&mut self, body: &Json) -> Result<Json, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            let outcome = match self.conn.as_mut() {
                Some(c) => c.request(body),
                None => match self.connect_once() {
                    Ok(()) => self.conn.as_mut().expect("just connected").request(body),
                    Err(e) => Err(e),
                },
            };
            let err = match outcome {
                Ok(resp) => {
                    self.ladder = 0;
                    return Ok(resp);
                }
                Err(e) => e,
            };
            let hint = match &err {
                // The connection is poisoned mid-exchange; drop it so the
                // next attempt dials fresh (rotating addresses).
                ClientError::Io(_) => {
                    self.conn = None;
                    None
                }
                // A standby refused the mutation: follow the hint to the
                // primary (or rotate blindly without one) and resend. The
                // sequence number makes the resend safe.
                ClientError::Server {
                    code,
                    retry_after_ms,
                    primary,
                    ..
                } if code == "not_primary" => {
                    self.conn = None;
                    match primary {
                        Some(p) => self.follow_primary_hint(p),
                        None => {
                            let next = (self.active + 1) % self.addrs.len();
                            if next != self.active {
                                self.active = next;
                                self.counters.failovers += 1;
                            }
                        }
                    }
                    *retry_after_ms
                }
                ClientError::Server {
                    code,
                    retry_after_ms,
                    ..
                } if retryable(code) => {
                    if code == "rate_limited" {
                        self.counters.rate_limited += 1;
                    }
                    *retry_after_ms
                }
                _ => return Err(err),
            };
            attempt += 1;
            if attempt >= self.policy.max_attempts.max(1) {
                return Err(err);
            }
            self.counters.retries += 1;
            // The ladder, not the per-call attempt, drives the delay: it
            // accumulates across calls during an incident and resets on
            // the first success.
            self.ladder = self.ladder.saturating_add(1);
            let delay = self.backoff(self.ladder, hint);
            thread::sleep(delay);
        }
    }

    /// Send any verb the way this client sends it: a turn is numbered
    /// (see [`RetryClient::turn`]; whatever `seq` it carried is replaced),
    /// everything else goes out as it is. Scripts parsed by
    /// [`crate::protocol::parse_line`] run through here.
    pub fn send(&mut self, verb: Verb) -> Result<Json, ClientError> {
        match verb {
            Verb::Apply { session, op, .. } => self.turn(session, op),
            other => self.call(&encode_request(&other, None)),
        }
    }

    /// One sequence-numbered mutating turn. The turn number is assigned
    /// from this client's per-session counter and only advances once the
    /// server acknowledges — a turn refused with a non-retryable error
    /// (discovery failure, bad request) did not move the server's cursor
    /// and its number is reused by the next turn. The server upholds its
    /// side of that contract: an op that applies but fails to journal
    /// fail-stops the session rather than leaving the cursor advanced
    /// past a turn recovery cannot replay.
    pub fn turn(&mut self, session: u64, op: SessionOp) -> Result<Json, ClientError> {
        let seq = *self.next_seq.entry(session).or_insert(1);
        let turn = Verb::Apply {
            session,
            seq: Some(seq),
            op,
        };
        let resp = self.call(&encode_request(&turn, None))?;
        if resp.get("deduped").and_then(Json::as_bool) == Some(true) {
            self.counters.deduped += 1;
        }
        self.next_seq.insert(session, seq + 1);
        Ok(resp)
    }

    /// Open a session (retried). A retry that raced a successful create
    /// may orphan a server-side session: it lives until a `close` or the
    /// server's `--ttl` expires it, and counts against `max_sessions`
    /// meanwhile (the idle timeout reaps connections, not sessions).
    pub fn create(&mut self) -> Result<u64, ClientError> {
        let resp = self.send(Verb::Create)?;
        let sid = resp
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::BadResponse("create response without session id".into()))?;
        self.next_seq.insert(sid, 1);
        Ok(sid)
    }

    /// Re-adopt a session after a reconnect or server restart: fetch the
    /// server's recovered turn cursor and resume numbering from it.
    /// Returns the cursor (turns the server has already applied).
    pub fn adopt(&mut self, session: u64) -> Result<u64, ClientError> {
        let resp = self.send(Verb::Stats {
            session: Some(session),
        })?;
        let cur = resp
            .get("op_seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::BadResponse("session stats without op_seq".into()))?;
        self.next_seq.insert(session, cur + 1);
        Ok(cur)
    }

    /// Sequenced `add_example`.
    pub fn add(&mut self, session: u64, value: &str) -> Result<Json, ClientError> {
        self.turn(session, SessionOp::AddExample(value.to_string()))
    }

    /// The session's current abduced SQL (read-only; no sequence).
    pub fn sql(&mut self, session: u64) -> Result<Option<String>, ClientError> {
        let resp = self.send(Verb::Sql { session })?;
        Ok(resp.get("sql").and_then(Json::as_str).map(str::to_string))
    }

    /// Load/session/journal health probe (never shed by the server).
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.send(Verb::Health)
    }

    /// Close a session and drop its turn counter.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.send(Verb::Close { session })?;
        self.next_seq.remove(&session);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn quick_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            read_timeout: Some(Duration::from_secs(2)),
        }
    }

    /// A scripted one-connection-at-a-time server: each closure handles
    /// one accepted connection's single request line.
    fn scripted_server(
        scripts: Vec<Box<dyn FnOnce(String) -> Option<String> + Send>>,
    ) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            for script in scripts {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    continue;
                }
                if let Some(reply) = script(line.trim().to_string()) {
                    let mut stream = stream;
                    stream.write_all(reply.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    // Keep the connection open for a follow-up request.
                    loop {
                        let mut next = String::new();
                        if reader.read_line(&mut next).unwrap_or(0) == 0 {
                            break;
                        }
                        let mut s = stream.try_clone().unwrap();
                        s.write_all(b"{\"ok\":true}\n").unwrap();
                    }
                }
                // None: drop the stream without replying (simulated crash).
            }
        });
        (addr, handle)
    }

    #[test]
    fn backoff_grows_respects_hints_and_caps() {
        let mut c = RetryClient::with_policy("127.0.0.1:1", quick_policy(3));
        // Exponential with 50–150% jitter stays inside those bounds.
        let d1 = c.backoff(1, None);
        assert!(
            d1 >= Duration::from_millis(1) && d1 <= Duration::from_millis(2),
            "{d1:?}"
        );
        // A server hint floors the sleep...
        let hinted = c.backoff(1, Some(4));
        assert!(hinted >= Duration::from_millis(4), "{hinted:?}");
        // ...but never past the cap.
        let capped = c.backoff(1, Some(10_000));
        assert_eq!(capped, Duration::from_millis(5));
        // Large attempt counts must not overflow the shift.
        let late = c.backoff(64, None);
        assert!(late <= Duration::from_millis(5));
    }

    #[test]
    fn retryable_codes_are_the_transient_refusals() {
        for code in [
            "overloaded",
            "session_limit",
            "rate_limited",
            "shutting_down",
        ] {
            assert!(retryable(code), "{code} should be retryable");
        }
        for code in ["bad_request", "unknown_session", "discovery", "unknown"] {
            assert!(!retryable(code), "{code} must fail fast");
        }
    }

    #[test]
    fn a_hinted_refusal_is_retried_and_counted() {
        let (addr, server) = scripted_server(vec![Box::new(|_req| {
            Some(
                "{\"ok\":false,\"error\":{\"code\":\"rate_limited\",\
                 \"detail\":\"over budget\",\"retry_after_ms\":2}}"
                    .to_string(),
            )
        })]);
        let mut c = RetryClient::with_policy(addr, quick_policy(4));
        // The scripted connection answers the refusal, then `ok:true` to
        // every follow-up line on the same connection.
        let resp = c.send(Verb::Ping).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(c.counters().retries, 1);
        assert_eq!(c.counters().rate_limited, 1);
        assert_eq!(c.counters().reconnects, 0);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn a_severed_connection_reconnects_and_resends() {
        let (addr, server) = scripted_server(vec![
            // First connection: read the request, reply nothing, hang up.
            Box::new(|_req| None),
            // Second connection: acknowledge.
            Box::new(|_req| Some("{\"ok\":true,\"op\":\"ping\"}".to_string())),
        ]);
        let mut c = RetryClient::with_policy(addr, quick_policy(4));
        let resp = c.send(Verb::Ping).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(c.counters().reconnects, 1);
        assert_eq!(c.counters().retries, 1);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn the_backoff_ladder_resets_after_a_successful_ack() {
        // One refusal, then the same connection acknowledges the resend.
        let (addr, server) = scripted_server(vec![Box::new(|_req| {
            Some(
                "{\"ok\":false,\"error\":{\"code\":\"overloaded\",\
                 \"detail\":\"backlog full\",\"retry_after_ms\":1}}"
                    .to_string(),
            )
        })]);
        let mut c = RetryClient::with_policy(addr, quick_policy(6));
        // Pretend a long incident already climbed the ladder: the success
        // below must reset it, so the *next* incident starts from base.
        c.ladder = 17;
        let resp = c.send(Verb::Ping).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(c.ladder, 0, "success must reset the backoff ladder");
        assert_eq!(c.counters().retries, 1);
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn a_dead_address_fails_over_to_the_next_in_the_fleet() {
        // Reserve a port and close it: connecting there is refused.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (live, server) = scripted_server(vec![Box::new(|_req| {
            Some("{\"ok\":true,\"op\":\"ping\"}".to_string())
        })]);
        let mut c = RetryClient::fleet(vec![dead, live], quick_policy(4));
        // Simulate an established client losing its primary (a fresh
        // client's first dial is bootstrap, not failover).
        c.ever_connected = true;
        let resp = c.send(Verb::Ping).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(c.counters().failovers, 1);
        assert_eq!(c.active, 1, "the live address must become active");
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn a_not_primary_hint_redirects_to_the_named_primary() {
        let (primary_addr, primary) = scripted_server(vec![Box::new(|_req| {
            Some("{\"ok\":true,\"op\":\"add\"}".to_string())
        })]);
        let hint = primary_addr.clone();
        let (standby_addr, standby) = scripted_server(vec![Box::new(move |_req| {
            Some(format!(
                "{{\"ok\":false,\"error\":{{\"code\":\"not_primary\",\
                 \"detail\":\"standby refuses mutations\",\"primary\":\"{hint}\"}}}}"
            ))
        })]);
        // The client only knows the standby; the hint teaches it the
        // primary and the retried turn lands there.
        let mut c = RetryClient::fleet(vec![standby_addr], quick_policy(4));
        let resp = c.add(7, "Jim Carrey").unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(c.counters().failovers, 1);
        assert_eq!(c.active_addr(), primary_addr);
        assert_eq!(c.addrs.len(), 2, "the hinted primary joins the fleet");
        drop(c);
        primary.join().unwrap();
        standby.join().unwrap();
    }

    #[test]
    fn turn_numbers_advance_only_on_acknowledgement() {
        let (addr, server) = scripted_server(vec![Box::new(|req| {
            // The first turn must carry seq 1.
            assert!(req.contains("\"seq\":1"), "missing seq in {req}");
            Some("{\"ok\":true,\"op\":\"add\",\"deduped\":true}".to_string())
        })]);
        let mut c = RetryClient::with_policy(addr, quick_policy(2));
        c.add(7, "Jim Carrey").unwrap();
        assert_eq!(c.counters().deduped, 1);
        assert_eq!(*c.next_seq.get(&7).unwrap(), 2);
        drop(c);
        server.join().unwrap();
    }
}
