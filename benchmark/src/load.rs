//! The closed-loop client side of the served workloads: `clients`
//! threads, one connection each, each driving Figure-1 sessions back to
//! back and waiting for every reply before the next request (an
//! interactive user waits for the refined query before giving the next
//! example). Used by `interactive_mem`, `interactive_journaled`, the turn
//! phase of `lifecycle_ops`, and — through [`run_session`] — the traced run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::stats::{percentile_sorted, Summary};
use crate::sut::{self, Adb, Intent, Json, Replay, Wire};
use crate::traffic::{pick_pin, plan_session, session_turns, Pools, SessionPlan, Turn};

/// One request/reply pair as the client saw it.
pub struct Exchange<'a> {
    /// What was asked.
    pub turn: &'a Turn,
    /// The request body (its wire `id` is the request id).
    pub body: &'a Json,
    /// The parsed reply.
    pub reply: &'a Json,
    /// Request-encode start.
    pub start: Instant,
    /// Reply parsed.
    pub end: Instant,
}

/// What the client remembers of one finished session, for the oracles.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Which plan this was (`plan_session(pools, seed, client, ordinal)`).
    pub ordinal: u64,
    /// The server's session id.
    pub sid: u64,
    /// The attribute pinned and unpinned, when the query had filters.
    pub pin: Option<String>,
    /// The `sql` verb's answer.
    pub final_sql: Option<String>,
    /// Acknowledged mutating turns (the journal cursor must cover them).
    pub acked_mutations: u64,
    /// The session was abandoned, not closed.
    pub keep_open: bool,
}

/// One completed turn: when it completed (nanoseconds since the pass's
/// `record_from`) and how long it took (nanoseconds).
pub type Sample = (u64, u64);

/// Tally of one client thread (or one pass).
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Which client this was.
    pub client: u64,
    /// Completed turns of a recorded pass.
    pub samples: Vec<Sample>,
    /// Finished sessions.
    pub records: Vec<SessionRecord>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, failed, or lost to a transport error.
    pub failed: u64,
    /// Acknowledged turns the server journals (create, mutations, close).
    pub journaled_acked: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// Drive one session over `wire`, calling `observe` after every answered
/// request. Returns the session's record, or `Err` on a transport error
/// (the connection is unusable afterwards). A refused or failed turn is
/// counted in `log` and the session carries on, as a user would.
pub fn run_session(
    wire: &mut Wire,
    plan: &SessionPlan,
    ordinal: u64,
    next_id: &mut u64,
    log: &mut ClientLog,
    observe: &mut dyn FnMut(&Exchange<'_>),
) -> Result<SessionRecord, String> {
    let mut exchange =
        |turn: &Turn, sid: u64, log: &mut ClientLog, next_id: &mut u64| -> Result<Json, String> {
            *next_id += 1;
            let body = sut::request(turn, sid, *next_id);
            log.attempted += 1;
            let start = Instant::now();
            let reply = wire.round_trip(&body)?;
            let end = Instant::now();
            if sut::reply_ok(&reply) {
                if turn.is_journaled() {
                    log.journaled_acked += 1;
                }
            } else {
                log.fail(format!("{} refused: {}", turn.verb(), reply.encode()));
            }
            observe(&Exchange {
                turn,
                body: &body,
                reply: &reply,
                start,
                end,
            });
            Ok(reply)
        };

    let created = exchange(&Turn::Create, 0, log, next_id)?;
    let sid = created
        .get("session")
        .and_then(Json::as_u64)
        .ok_or("create reply without a session id")?;
    let mut record = SessionRecord {
        ordinal,
        sid,
        pin: None,
        final_sql: None,
        acked_mutations: 0,
        keep_open: plan.keep_open,
    };
    // The abduced query's filters, tracked from the replies' deltas.
    let mut filters: Vec<String> = Vec::new();
    let strings = |reply: &Json, key: &str| -> Vec<String> {
        reply
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect()
    };
    let mut turns = session_turns(plan, None).into_iter();
    let mut pending: Vec<Turn> = Vec::new();
    while let Some(turn) = pending.pop().or_else(|| turns.next()) {
        let reply = exchange(&turn, sid, log, next_id)?;
        let ok = sut::reply_ok(&reply);
        match &turn {
            Turn::Add(_) | Turn::Remove(_) | Turn::Pin(_) | Turn::Unpin(_) if ok => {
                record.acked_mutations += 1;
                let removed = strings(&reply, "removed_filters");
                filters.retain(|f| !removed.contains(f));
                filters.extend(strings(&reply, "added_filters"));
            }
            Turn::Sql if ok => {
                record.final_sql = reply.get("sql").and_then(Json::as_str).map(str::to_string);
            }
            _ => {}
        }
        // The pin is chosen once the remove has been answered, from what
        // the server says the query now contains.
        if matches!(turn, Turn::Remove(_)) {
            record.pin = pick_pin(&filters, plan.pin_draw);
            if let Some(key) = &record.pin {
                pending.push(Turn::Unpin(key.clone()));
                pending.push(Turn::Pin(key.clone()));
            }
        }
    }
    Ok(record)
}

/// Where a pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many sessions per client (warm-up, traced pass).
    Sessions(u64),
    /// When the clock passes this instant; the session in flight finishes.
    At(Instant),
}

/// One closed-loop pass.
pub struct Pass<'a> {
    /// Server client address.
    pub addr: &'a str,
    /// Value pools the plans draw from.
    pub pools: &'a Arc<Pools>,
    /// Traffic seed.
    pub seed: u64,
    /// Client threads.
    pub clients: usize,
    /// First session ordinal of every client in this pass.
    pub first_ordinal: u64,
    /// Where to stop.
    pub stop: Stop,
    /// Record every turn completed after this instant; `None` records
    /// nothing (warm-up).
    pub record_from: Option<Instant>,
}

/// Run a pass: every client on its own thread and connection.
pub fn run_pass(pass: &Pass<'_>) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pass.clients as u64)
            .map(|client| scope.spawn(move || client_thread(pass, client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn client_thread(pass: &Pass<'_>, client: u64) -> ClientLog {
    let mut log = ClientLog {
        client,
        ..ClientLog::default()
    };
    let mut wire = match Wire::connect(pass.addr) {
        Ok(w) => w,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("connect: {e}"));
            return log;
        }
    };
    // Request ids are unique across clients: the client index rides in
    // the top bits.
    let mut next_id = client << 40;
    let mut ordinal = pass.first_ordinal;
    loop {
        match pass.stop {
            Stop::Sessions(n) if ordinal - pass.first_ordinal >= n => break,
            Stop::At(t) if Instant::now() >= t => break,
            _ => {}
        }
        let plan = plan_session(pass.pools, pass.seed, client, ordinal);
        let mut samples: Vec<Sample> = Vec::with_capacity(16);
        let result = run_session(
            &mut wire,
            &plan,
            ordinal,
            &mut next_id,
            &mut log,
            &mut |x| {
                if let Some(t0) = pass.record_from {
                    samples.push((
                        x.end.saturating_duration_since(t0).as_nanos() as u64,
                        (x.end - x.start).as_nanos() as u64,
                    ));
                }
            },
        );
        log.samples.extend(samples);
        match result {
            Ok(record) => log.records.push(record),
            Err(e) => {
                log.fail(format!("transport: {e}"));
                break;
            }
        }
        ordinal += 1;
    }
    log
}

/// Length of the windows a measurement is cut into after the fact.
///
/// The container's speed swings by up to 2× within seconds (a fixed CPU
/// loop next to the workload reads 0.66–1.3 of its quiet-state time), but
/// its quiet state is steady: the disturbance is one-sided. Short windows
/// fit inside the quiet spells; the estimator below reads those.
pub const WINDOW: Duration = Duration::from_millis(100);
/// The share of windows, fastest first, taken as the machine's quiet state.
const QUIET_SHARE: f64 = 0.25;

/// One window of a measurement: its completed turns' latencies.
pub type Window = Vec<u64>;

/// Cut the samples of a measurement of length `len` into [`WINDOW`]s. A
/// turn belongs to the window it completes in; turns that finish past
/// the end (the tail of each client's last session) are dropped.
pub fn cut_windows(samples: impl IntoIterator<Item = Sample>, len: Duration) -> Vec<Window> {
    let count = (len.as_nanos() / WINDOW.as_nanos()) as usize;
    let mut windows = vec![Window::new(); count];
    for (end_ns, latency_ns) in samples {
        let i = (end_ns as u128 / WINDOW.as_nanos()) as usize;
        if i < count {
            windows[i].push(latency_ns);
        }
    }
    windows
}

/// The turn metrics of a run.
#[derive(Debug, Clone, Copy)]
pub struct TurnStats {
    /// Completed turns per second over the quiet windows taken together
    /// (`spread` is the range among them).
    pub turns_per_s: Summary,
    /// Median latency over the quiet windows' pooled turns, µs.
    pub p50_us: f64,
    /// p99 latency over the quiet windows' pooled turns, µs.
    pub p99_us: f64,
    /// Turns pooled from the quiet windows.
    pub quiet_turns: usize,
    /// Windows measured / taken as quiet.
    pub windows: (usize, usize),
    /// Throughput over all windows, for the record.
    pub all_turns_per_s: Summary,
}

/// The quiet-window estimator: rank the run's windows by completed turns,
/// keep the fastest [`QUIET_SHARE`], report their throughput and the
/// latency percentiles of the turns they hold. Every window carries
/// ~1 000+ turns of the same seeded mix, so ranking by throughput ranks
/// by how disturbed the machine was, not by what was asked.
pub fn quiet_stats(mut windows: Vec<Window>) -> TurnStats {
    let per_s = |w: &Window| w.len() as f64 / WINDOW.as_secs_f64();
    let all: Vec<f64> = windows.iter().map(per_s).collect();
    windows.sort_by_key(|w| std::cmp::Reverse(w.len()));
    let keep =
        ((windows.len() as f64 * QUIET_SHARE).ceil() as usize).clamp(1, windows.len().max(1));
    windows.truncate(keep);
    let quiet: Vec<f64> = windows.iter().map(per_s).collect();
    let mut pooled: Vec<u64> = windows.into_iter().flatten().collect();
    pooled.sort_unstable();
    let mut turns_per_s = Summary::of(&quiet);
    turns_per_s.median = pooled.len() as f64 / (keep as f64 * WINDOW.as_secs_f64());
    TurnStats {
        turns_per_s,
        p50_us: percentile_sorted(&pooled, 50.0) as f64 / 1e3,
        p99_us: percentile_sorted(&pooled, 99.0) as f64 / 1e3,
        quiet_turns: pooled.len(),
        windows: (all.len(), keep),
        all_turns_per_s: Summary::of(&all),
    }
}

/// Set `turns_per_s`, `turn_p50_us` and `turn_p99_us` from the run's
/// windows and keep the evidence in the result file.
pub fn record_turn_metrics(out: &mut Outcome, windows: Vec<Window>) {
    if windows.is_empty() {
        return out.check(false, || "measurement shorter than one window".to_string());
    }
    let s = quiet_stats(windows);
    out.set_summary("turns_per_s", s.turns_per_s);
    out.set("turn_p50_us", s.p50_us);
    out.set("turn_p99_us", s.p99_us);
    out.note(
        "windows",
        Json::obj([
            ("ms", Json::Int(WINDOW.as_millis() as i64)),
            ("measured", Json::Int(s.windows.0 as i64)),
            ("quiet", Json::Int(s.windows.1 as i64)),
            ("quiet_turns", Json::Int(s.quiet_turns as i64)),
            (
                "samples_beyond_p99",
                Json::Int((s.quiet_turns / 100) as i64),
            ),
            (
                "all_turns_per_s_median",
                Json::Float(s.all_turns_per_s.median),
            ),
            ("all_turns_per_s_min", Json::Float(s.all_turns_per_s.min)),
            ("all_turns_per_s_max", Json::Float(s.all_turns_per_s.max)),
        ]),
    );
}

/// Result of replaying served sessions in process.
#[derive(Debug, Default)]
pub struct ReplayTally {
    /// Oracle checks made.
    pub checked: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Sum of f-scores over intent-drawn sessions.
    pub fscore_sum: f64,
    /// Intent-drawn sessions scored.
    pub fscore_n: u64,
    /// The first mismatch.
    pub first_error: Option<String>,
}

impl ReplayTally {
    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !holds {
            self.failed += 1;
            if self.first_error.is_none() {
                self.first_error = Some(what());
            }
        }
    }

    /// Mean f-score of the scored sessions.
    pub fn fscore(&self) -> f64 {
        if self.fscore_n == 0 {
            0.0
        } else {
            self.fscore_sum / self.fscore_n as f64
        }
    }
}

/// Oracles on the served sessions: the served final SQL equals an
/// in-process `SquidSession` replay of the same turns, and every example
/// is in the abduced result. Also accumulates `intent_fscore`. The first
/// `max_sessions / clients` sessions of every client are replayed: a
/// fixed set of plans however fast the run went, so the f-score repeats
/// exactly for a seed.
pub fn verify_by_replay(
    adb: &Adb,
    pools: &Pools,
    intents: &[Intent],
    seed: u64,
    logs: &[ClientLog],
    max_sessions: usize,
    tally: &mut ReplayTally,
) {
    let per_client = (max_sessions / logs.len().max(1)).max(1);
    for log in logs {
        for rec in log.records.iter().take(per_client) {
            let plan = plan_session(pools, seed, log.client, rec.ordinal);
            let mut replay = Replay::new(adb);
            let mut applied = true;
            for turn in session_turns(&plan, rec.pin.as_deref()) {
                if let Err(e) = replay.apply(&turn) {
                    tally.check(false, || {
                        format!(
                            "replay of session {} failed at {}: {e}",
                            rec.sid,
                            turn.verb()
                        )
                    });
                    applied = false;
                    break;
                }
            }
            if !applied {
                continue;
            }
            let found = replay.found();
            let sql = found.as_ref().map(|f| f.sql());
            tally.check(sql == rec.final_sql, || {
                format!(
                    "session {}: served SQL {:?} != replayed SQL {:?}",
                    rec.sid, rec.final_sql, sql
                )
            });
            if let Some(found) = &found {
                tally.check(found.examples_in_result(), || {
                    format!("session {}: an example is missing from the result", rec.sid)
                });
                if let Some(i) = plan.intent {
                    tally.fscore_sum += found.fscore(&intents[i]);
                    tally.fscore_n += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turns_land_in_the_window_they_complete_in() {
        let w = WINDOW.as_nanos() as u64;
        let samples = vec![(0, 5), (w - 1, 6), (w, 7), (3 * w + 1, 8), (4 * w, 9)];
        let windows = cut_windows(samples, WINDOW * 4);
        assert_eq!(windows, vec![vec![5, 6], vec![7], vec![], vec![8]]);
        // A measurement shorter than one window has none.
        assert!(cut_windows(vec![(0, 1)], WINDOW / 2).is_empty());
    }

    #[test]
    fn the_quiet_quarter_is_the_fastest_windows() {
        // Eight windows: two quiet ones (100 fast turns each), six
        // disturbed ones (fewer, slower turns).
        let mut windows: Vec<Window> = (0..6).map(|i| vec![9_000; 40 + i]).collect();
        windows.push(vec![1_000; 100]);
        windows.insert(2, vec![2_000; 100]);
        let s = quiet_stats(windows);
        assert_eq!(s.windows, (8, 2));
        assert_eq!(s.quiet_turns, 200);
        assert_eq!(s.turns_per_s.median, 200.0 / (2.0 * WINDOW.as_secs_f64()));
        assert_eq!((s.p50_us, s.p99_us), (1.0, 2.0));
        assert_eq!(s.all_turns_per_s.min, 40.0 / WINDOW.as_secs_f64());
        // One window is its own quiet set.
        assert_eq!(quiet_stats(vec![vec![3_000; 10]]).windows, (1, 1));
    }
}
