//! `interactive_mem` and `interactive_journaled`: the served Figure-1
//! loop over TCP, without and with the journal (fsync = flush, the
//! shipped default). Identical traffic and seed: the delta between the
//! two *is* the durability tax.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::load::{
    cut_windows, record_turn_metrics, run_pass, verify_by_replay, ClientLog, Pass, ReplayTally,
    Stop, Window,
};
use crate::report::{peak_rss_mb, Ctx, Outcome};
use crate::stats::Summary;
use crate::sut::{self, Adb, Dataset, Fleet, Fsync, Intent, Json, Kind, Node, NodeCfg, Wire};
use crate::traffic::Pools;

/// Sessions each client runs against a fresh server before anything is
/// timed (a first window on a cold server measured 8k vs 30k turns/s):
/// fills the shared cache with the intents' filters and lets lazy set-up
/// finish. Counted, not timed, so set-up time reflects the system's speed.
pub const WARMUP_SESSIONS: u64 = 150;
/// Times a run sets the system up from nothing and measures on it;
/// medians across the repetitions are reported. How fast a process runs
/// here is partly decided when the αDB is laid out in memory, so one long
/// measurement on one set-up is one draw of that lottery.
pub const REPS: usize = 5;
/// Sessions one run replays in process for the oracles (spread evenly
/// over repetitions and clients), so checking stays a small share of a run.
pub const MAX_REPLAYED: usize = 1000;

/// The intents and value pools of the IMDb slate (computed once per run;
/// generating inputs is not part of the system's set-up).
pub struct Inputs {
    /// The 16 intended IMDb queries with ground truth.
    pub intents: Vec<Intent>,
    /// Example pools for the traffic generator.
    pub pools: Arc<Pools>,
}

impl Inputs {
    /// Derive the inputs from a generated IMDb dataset.
    pub fn of(ds: &Dataset) -> Inputs {
        let intents = ds.intents();
        let pools = Arc::new(Pools {
            intents: intents.iter().map(|i| i.values.clone()).collect(),
            scatter: ds.column_values("person", "name"),
        });
        Inputs { intents, pools }
    }
}

/// A served system ready for traffic.
pub struct Served {
    /// The αDB the node serves.
    pub adb: Adb,
    /// The running node.
    pub node: Node,
    /// Its journal file, when it journals.
    pub journal: Option<PathBuf>,
    /// Warm-up tallies (their sessions are part of the journal).
    pub warmup: Vec<ClientLog>,
    /// Dataset generation, seconds.
    pub generate_s: f64,
    /// `ADb::build`, seconds.
    pub build_s: f64,
    /// Server start + warm-up, seconds.
    pub start_s: f64,
}

impl Served {
    /// Generation + build + start + warm-up.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.start_s
    }
}

/// Run `f`; returns its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Warm-up length (shorter in a smoke run).
pub fn warmup_sessions(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        20
    } else {
        WARMUP_SESSIONS
    }
}

/// One full set-up: generate IMDb, build the αDB, start the server
/// (journal attached for the journaled workload), warm it up.
pub fn set_up(
    ctx: &Ctx,
    journaled: bool,
    inputs: &mut Option<Inputs>,
    rep: usize,
) -> Result<Served, String> {
    let (ds, generate_s) = timed(|| sut::generate(Kind::Imdb, ctx.scale));
    let (adb, build_s) = timed(|| sut::build_adb(&ds));
    let inputs = inputs.get_or_insert_with(|| Inputs::of(&ds));
    drop(ds);

    let (started, start_s) = timed(|| -> Result<_, String> {
        let fleet = Fleet::new(&adb);
        let journal = if journaled {
            let path = ctx.scratch(&format!("journal.{rep}"));
            fleet.attach_journal(&path, Fsync::Flush)?;
            Some(path)
        } else {
            None
        };
        let node = sut::start_node(
            &fleet,
            &NodeCfg {
                // One worker per client connection plus one for the
                // control connection that reads `stats`.
                workers: ctx.clients + 1,
                ..NodeCfg::default()
            },
        )?;
        let addr = node.addr();
        let warmup = run_pass(&Pass {
            addr: &addr,
            pools: &inputs.pools,
            seed: ctx.seed,
            clients: ctx.clients,
            first_ordinal: 0,
            stop: Stop::Sessions(warmup_sessions(ctx)),
            record_from: None,
        });
        Ok((node, journal, warmup))
    });
    let (node, journal, warmup) = started?;
    Ok(Served {
        adb,
        node,
        journal,
        warmup,
        generate_s,
        build_s,
        start_s,
    })
}

/// Measure `secs` seconds of closed-loop traffic against `addr`.
/// Returns the client logs and the measurement cut into windows. `rep`
/// keeps the measurements of one run on different session plans.
pub fn measure(
    ctx: &Ctx,
    addr: &str,
    pools: &Arc<Pools>,
    secs: f64,
    rep: usize,
    out: &mut Outcome,
) -> (Vec<ClientLog>, Vec<Window>) {
    let len = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let logs = run_pass(&Pass {
        addr,
        pools,
        seed: ctx.seed,
        clients: ctx.clients,
        // Past the warm-up's ordinals and every other repetition's.
        first_ordinal: warmup_sessions(ctx) + (rep as u64 + 1) * 1_000_000,
        stop: Stop::At(t0 + len),
        record_from: Some(t0),
    });
    for log in &logs {
        out.tally(log.attempted, log.failed, log.first_error.clone());
    }
    let windows = cut_windows(logs.iter().flat_map(|l| l.samples.iter().copied()), len);
    (logs, windows)
}

/// Record `peak_rss_mb` — called after a run's *first* repetition. One
/// process lifetime (set up once, serve) is what an operator provisions
/// for; later repetitions only add allocator history to the high-water
/// mark (±25% between identical runs, against ±0.3% after the first).
pub fn record_peak_rss(out: &mut Outcome) {
    out.set("peak_rss_mb", peak_rss_mb());
}

/// Record the set-up medians of a run's repetitions.
pub fn record_setups(out: &mut Outcome, setups: &[f64], builds: &[f64], generates: &[f64]) {
    let reps = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Float(*x)).collect());
    out.note("setup_reps_s", reps(setups));
    out.note("adb_build_reps_s", reps(builds));
    out.set_summary("setup_s", Summary::of(setups));
    out.set_summary("adb_build_s", Summary::of(builds));
    out.set("datasets.generate_s", Summary::of(generates).median);
}

/// Read the fleet's counters over the wire (`stats` verb).
pub fn fleet_stats(addr: &str) -> Result<Json, String> {
    let mut wire = Wire::connect(addr)?;
    let reply = wire.round_trip(&sut::bare_request("stats"))?;
    if sut::reply_ok(&reply) {
        Ok(reply)
    } else {
        Err(format!("stats refused: {}", reply.encode()))
    }
}

fn num(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Records in the node's journal, from a `stats` reply.
pub fn journal_records(stats: &Json) -> f64 {
    num(stats, &["journal", "base_records"]) + num(stats, &["journal", "tail_records"])
}

/// Server-side counters as per-layer metrics (absolute values since
/// server start; the caller subtracts a baseline where it needs a delta).
pub fn counter_metrics(stats: &Json) -> Vec<(&'static str, f64)> {
    let entries = num(stats, &["shared_cache", "entries"]);
    let evictions = num(stats, &["shared_cache", "evictions"]);
    vec![
        ("serve.server.requests", num(stats, &["server", "requests"])),
        ("serve.server.turns", num(stats, &["server", "turns"])),
        (
            "serve.server.protocol_errors",
            num(stats, &["server", "protocol_errors"]),
        ),
        (
            "serve.server.rejected_overloaded",
            num(stats, &["server", "rejected_overloaded"]),
        ),
        (
            "serve.server.rate_limited",
            num(stats, &["server", "rate_limited"]),
        ),
        ("serve.server.shed", num(stats, &["server", "shed"])),
        (
            "adb.cache.shared_hit_ratio",
            num(stats, &["shared_cache", "hit_rate"]),
        ),
        // Every insert either still resides or was evicted.
        ("adb.cache.shared_publishes", entries + evictions),
        ("adb.cache.evictions", evictions),
        (
            "adb.cache.resident_bytes",
            num(stats, &["shared_cache", "resident_bytes"]),
        ),
    ]
}

/// Journal bytes per acknowledged journaled turn over the warm-up, whose
/// session count is fixed — so the number repeats exactly for a seed.
pub fn journal_bytes_per_turn(stats_after_warmup: &Json, warmup: &[ClientLog]) -> f64 {
    let acked: u64 = warmup.iter().map(|l| l.journaled_acked).sum();
    if acked == 0 {
        return 0.0;
    }
    num(stats_after_warmup, &["journal", "bytes"]) / acked as f64
}

/// After the node is down: a fresh manager's `recover` of the journal
/// must reproduce every abandoned (still open) session's SQL, with a
/// cursor covering every acknowledged turn.
fn verify_recovery(adb: &Adb, journal: &std::path::Path, logs: &[ClientLog], out: &mut Outcome) {
    let fleet = Fleet::new(adb);
    let info = match fleet.recover(journal, Fsync::Flush) {
        Ok(info) => info,
        Err(e) => return out.check(false, || format!("recover failed: {e}")),
    };
    out.note(
        "recovered_after_run_records",
        Json::Int(info.records_applied as i64),
    );
    out.check(info.records_failed == 0, || {
        format!("{} journal records failed to replay", info.records_failed)
    });
    for rec in logs.iter().flat_map(|l| &l.records).filter(|r| r.keep_open) {
        match fleet.sql_and_cursor(rec.sid) {
            Ok((sql, cursor)) => {
                out.check(sql == rec.final_sql, || {
                    format!(
                        "session {} recovered SQL {:?}, served {:?}",
                        rec.sid, sql, rec.final_sql
                    )
                });
                out.check(cursor >= rec.acked_mutations, || {
                    format!(
                        "session {} cursor {cursor} misses acked turns ({})",
                        rec.sid, rec.acked_mutations
                    )
                });
            }
            Err(e) => out.check(false, || format!("session {} not recovered: {e}", rec.sid)),
        }
    }
}

/// The end-to-end run of `interactive_mem` / `interactive_journaled`:
/// [`REPS`] times { set up from nothing, measure, verify }.
pub fn run(ctx: &Ctx, journaled: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut inputs = None;
    let (mut setups, mut builds, mut generates) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows = Vec::new();
    let mut replay = ReplayTally::default();
    for rep in 0..REPS {
        let served = set_up(ctx, journaled, &mut inputs, rep)?;
        let inputs = inputs.as_ref().expect("derived in the first set-up");
        setups.push(served.setup_s());
        builds.push(served.build_s);
        generates.push(served.generate_s);
        for log in &served.warmup {
            out.tally(log.attempted, log.failed, log.first_error.clone());
        }
        let addr = served.node.addr();
        let stats_warm = fleet_stats(&addr)?;
        let (logs, stats) = measure(
            ctx,
            &addr,
            &inputs.pools,
            ctx.seconds / REPS as f64,
            rep,
            &mut out,
        );
        windows.extend(stats);
        if rep == 0 {
            record_peak_rss(&mut out);
        }
        let last = rep + 1 == REPS;
        if last {
            for (name, v) in counter_metrics(&fleet_stats(&addr)?) {
                out.set(name, v);
            }
            if journaled {
                out.set(
                    "journal_bytes_per_turn",
                    journal_bytes_per_turn(&stats_warm, &served.warmup),
                );
            }
        }
        let synced = served.node.shutdown();
        out.check(synced, || "journal did not sync at shutdown".to_string());
        verify_by_replay(
            &served.adb,
            &inputs.pools,
            &inputs.intents,
            ctx.seed,
            &logs,
            MAX_REPLAYED / REPS,
            &mut replay,
        );
        if let Some(journal) = &served.journal {
            // Replaying a repetition's whole journal costs about as much
            // as writing it did; once per run is what the budget allows.
            if last {
                verify_recovery(&served.adb, journal, &logs, &mut out);
            }
            let _ = std::fs::remove_file(journal);
        }
    }
    record_setups(&mut out, &setups, &builds, &generates);
    record_turn_metrics(&mut out, windows);
    out.tally(replay.checked, replay.failed, replay.first_error.clone());
    out.set("intent_fscore", replay.fscore());
    out.note("sessions_scored", Json::Int(replay.fscore_n as i64));
    out.note("peak_rss_mb_whole_run", Json::Float(peak_rss_mb()));
    Ok(out)
}
