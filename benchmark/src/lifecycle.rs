//! `lifecycle_ops`: the operator path. Set-up *is* the workload's first
//! half — boot a replicated pair from nothing: generate, `ADb::build`,
//! `save_snapshot`, `load_snapshot`, `SessionManager::recover` of a
//! journal written beforehand, `compact_journal`, recover the compacted
//! file, start a primary on that journal, attach a standby and wait for
//! lag 0 — repeated, median reported as `setup_s` with every phase kept as
//! a per-layer metric. The second half serves the Figure-1 loop against
//! that primary, journal (fsync = flush) and standby attached: the
//! configuration people actually run, and the read side (`relation` scan
//! kernels, inverted index, `adb::build` stats, `adb::snapshot`, journal
//! replay/tail/compact, `serve::replication`) of everything the other
//! workloads only write.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::load::{record_turn_metrics, verify_by_replay, ReplayTally};
use crate::report::{peak_rss_mb, Ctx, Outcome};
use crate::served::{self, journal_records, timed, Inputs, MAX_REPLAYED};
use crate::stats::Summary;
use crate::sut::{self, Adb, Fleet, Fsync, Json, Kind, Node, NodeCfg, Wire};
use crate::traffic::{plan_session, session_turns, SessionPlan};

/// Sessions in the journal every boot recovers (~21 000 records).
const BOOT_SESSIONS: u64 = 2000;
/// The client id the bootstrap journal's plans are drawn under (no
/// serving client ever uses it).
const BOOT_CLIENT: u64 = 1 << 20;
/// Boot + window repetitions per run (a boot is several seconds).
const REPS: usize = 3;
/// Longest a boot waits for the standby to catch up.
const WARM_TIMEOUT: Duration = Duration::from_secs(60);

fn boot_sessions(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        100
    } else {
        BOOT_SESSIONS
    }
}

/// Seconds (and sizes) of one boot, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Dataset generation.
    pub generate_s: f64,
    /// `ADb::build`.
    pub build_s: f64,
    /// `save_snapshot`.
    pub save_s: f64,
    /// `load_snapshot`.
    pub load_s: f64,
    /// Full (uncompacted) journal replay.
    pub recover_s: f64,
    /// `compact_journal`.
    pub compact_s: f64,
    /// Replay of the compacted journal.
    pub recover_compacted_s: f64,
    /// Binding the primary's listeners and starting its workers.
    pub primary_start_s: f64,
    /// Standby link start → the standby reports its first snapshot applied.
    pub bootstrap_s: f64,
    /// Standby link start → the primary reports lag 0.
    pub standby_warm_s: f64,
    /// Snapshot file size.
    pub snapshot_bytes: u64,
    /// Records in the bootstrap journal.
    pub journal_records: u64,
    /// Journal size before compaction.
    pub journal_bytes: u64,
    /// Journal size after compaction (what the SNAP frame carries).
    pub compacted_bytes: u64,
}

impl Phases {
    /// Everything between "nothing" and "a warm replicated pair".
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.build_s
            + self.save_s
            + self.load_s
            + self.recover_s
            + self.compact_s
            + self.recover_compacted_s
            + self.primary_start_s
            + self.standby_warm_s
    }
}

/// A booted pair.
pub struct Pair {
    /// The αDB both nodes serve (loaded from the snapshot).
    pub adb: Adb,
    /// The primary.
    pub primary: Node,
    /// The standby.
    pub standby: Node,
    /// How long each phase took.
    pub phases: Phases,
    files: Vec<PathBuf>,
}

impl Pair {
    /// Shut both nodes down and delete this boot's files.
    pub fn tear_down(self) {
        self.standby.shutdown();
        self.primary.shutdown();
        for f in self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// State shared by the boots of one run.
pub struct Boots {
    /// The IMDb inputs (from the first boot's dataset).
    pub inputs: Option<Inputs>,
    /// The journal every boot recovers, written during the first boot.
    pub bootstrap_journal: Option<PathBuf>,
}

/// Write the journal every boot recovers: [`BOOT_SESSIONS`] Figure-1
/// sessions applied in process, every other one left open.
fn write_bootstrap_journal(ctx: &Ctx, adb: &Adb, inputs: &Inputs) -> Result<PathBuf, String> {
    let path = ctx.scratch("bootstrap.journal");
    let fleet = Fleet::new(adb);
    // `Never`: this is input preparation, not a measurement; the final
    // `journal_size` flushes.
    fleet.attach_journal(&path, Fsync::Never)?;
    for ordinal in 0..boot_sessions(ctx) {
        let plan = SessionPlan {
            keep_open: ordinal % 2 == 0,
            ..plan_session(&inputs.pools, ctx.seed, BOOT_CLIENT, ordinal)
        };
        let sid = fleet.create();
        for turn in session_turns(&plan, None) {
            fleet.apply(sid, &turn)?;
        }
    }
    fleet.journal_size()?;
    Ok(path)
}

fn health(addr: &str) -> Result<Json, String> {
    Wire::connect(addr)?.round_trip(&sut::bare_request("health"))
}

fn repl_field(health: &Json, key: &str) -> Option<u64> {
    health.get("replication")?.get(key)?.as_u64()
}

/// Block until the primary reports a connected standby with nothing
/// unacknowledged.
pub fn wait_for_lag_zero(primary: &str) -> Result<(), String> {
    let t = Instant::now();
    let mut wire = Wire::connect(primary)?;
    loop {
        let h = wire.round_trip(&sut::bare_request("health"))?;
        let connected = h
            .get("replication")
            .and_then(|r| r.get("standby_connected"))
            .and_then(Json::as_bool)
            == Some(true);
        if connected && repl_field(&h, "lag_records") == Some(0) {
            return Ok(());
        }
        if t.elapsed() > WARM_TIMEOUT {
            return Err(format!("standby still lagging: {}", h.encode()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// SQL of every live session of a fleet, by id.
fn open_sql(fleet: &Fleet) -> Result<Vec<(u64, Option<String>)>, String> {
    fleet
        .open_sessions()
        .into_iter()
        .map(|sid| fleet.sql_and_cursor(sid).map(|(sql, _)| (sid, sql)))
        .collect()
}

/// One boot. `verify` turns the oracles on (first boot of a run): loaded
/// snapshot ≡ built αDB on a probe slate, compacted recover ≡ full recover.
pub fn boot(
    ctx: &Ctx,
    boots: &mut Boots,
    rep: usize,
    verify: bool,
    out: &mut Outcome,
) -> Result<Pair, String> {
    let mut p = Phases::default();
    let (ds, s) = timed(|| sut::generate(Kind::Imdb, ctx.scale));
    p.generate_s = s;
    let (built, s) = timed(|| sut::build_adb(&ds));
    p.build_s = s;
    if boots.inputs.is_none() {
        boots.inputs = Some(Inputs::of(&ds));
    }
    drop(ds);
    let inputs = boots.inputs.as_ref().expect("inputs just derived");
    if boots.bootstrap_journal.is_none() {
        boots.bootstrap_journal = Some(write_bootstrap_journal(ctx, &built, inputs)?);
    }
    let bootstrap = boots.bootstrap_journal.as_ref().expect("just written");

    let snapshot = ctx.scratch(&format!("snapshot.{rep}"));
    let (bytes, s) = timed(|| built.save_snapshot(&snapshot));
    p.snapshot_bytes = bytes?;
    p.save_s = s;
    let probe = verify.then(|| probe_slate(&built, inputs, ctx.seed));
    let built_print = built.fingerprint();
    let (loaded, s) = timed(|| built.load_snapshot(&snapshot));
    let adb = loaded?;
    p.load_s = s;
    drop(built);
    if let Some(expected) = probe {
        out.check(adb.fingerprint() == built_print, || {
            "loaded snapshot's database fingerprint differs from the built one".to_string()
        });
        out.check(probe_slate(&adb, inputs, ctx.seed) == expected, || {
            "loaded snapshot abduces different SQL than the built αDB".to_string()
        });
    }

    // Full replay of a pristine copy of the bootstrap journal.
    let journal = ctx.scratch(&format!("primary.journal.{rep}"));
    copy(bootstrap, &journal)?;
    let primary_fleet = Fleet::new(&adb);
    let (info, s) = timed(|| primary_fleet.recover(&journal, Fsync::Flush));
    let info = info?;
    p.recover_s = s;
    p.journal_records = info.records_applied;
    out.check(info.records_failed == 0, || {
        format!("{} bootstrap records failed to replay", info.records_failed)
    });
    let full = if verify {
        Some(open_sql(&primary_fleet)?)
    } else {
        None
    };

    let (compacted, s) = timed(|| primary_fleet.compact());
    let compacted = compacted?;
    p.compact_s = s;
    p.journal_bytes = compacted.bytes_before;
    p.compacted_bytes = compacted.bytes_after;

    // Replay of the compacted file, on a scratch manager and a copy (the
    // primary keeps appending to the original).
    let compacted_copy = ctx.scratch(&format!("compacted.journal.{rep}"));
    copy(&journal, &compacted_copy)?;
    let scratch_fleet = Fleet::new(&adb);
    let (info, s) = timed(|| scratch_fleet.recover(&compacted_copy, Fsync::Flush));
    let info = info?;
    p.recover_compacted_s = s;
    out.check(info.records_failed == 0, || {
        format!("{} compacted records failed to replay", info.records_failed)
    });
    if let Some(full) = full {
        let compact = open_sql(&scratch_fleet)?;
        out.check(compact == full, || {
            "compacted recover differs from full recover (open sessions or their SQL)".to_string()
        });
        out.note("open_sessions_after_recover", Json::Int(full.len() as i64));
    }
    drop(scratch_fleet);

    let (primary, s) = timed(|| {
        sut::start_node(
            &primary_fleet,
            &NodeCfg {
                // Client connections + the control connection + the
                // lag-polling connection.
                workers: ctx.clients + 2,
                replicate: true,
                standby_of: None,
            },
        )
    });
    let primary = primary?;
    p.primary_start_s = s;
    let repl_addr = primary
        .repl_addr()
        .ok_or("primary has no replication listener")?;

    // Standby: same αDB, a journal of its own, bootstrapped over the wire.
    let standby_journal = ctx.scratch(&format!("standby.journal.{rep}"));
    let standby_fleet = Fleet::new(&adb);
    standby_fleet.attach_journal(&standby_journal, Fsync::Flush)?;
    let t = Instant::now();
    let standby = sut::start_node(
        &standby_fleet,
        &NodeCfg {
            workers: 2,
            replicate: false,
            standby_of: Some(repl_addr),
        },
    )?;
    let standby_addr = standby.addr();
    while repl_field(&health(&standby_addr)?, "snapshots").unwrap_or(0) < 1 {
        if t.elapsed() > WARM_TIMEOUT {
            return Err("standby never applied a snapshot".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    p.bootstrap_s = t.elapsed().as_secs_f64();
    wait_for_lag_zero(&primary.addr())?;
    p.standby_warm_s = t.elapsed().as_secs_f64();

    Ok(Pair {
        adb,
        primary,
        standby,
        phases: p,
        files: vec![snapshot, journal, compacted_copy, standby_journal],
    })
}

fn copy(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(|_| ())
        .map_err(|e| format!("copy {} → {}: {e}", from.display(), to.display()))
}

/// SQL a fixed slate of example lists abduces (one list per intent).
fn probe_slate(adb: &Adb, inputs: &Inputs, seed: u64) -> Vec<Result<String, String>> {
    (0..inputs.intents.len() as u64)
        .map(|ordinal| {
            // Any client id gives a fixed slate; plans that drew a
            // scattered session probe the empty-context path.
            let plan = plan_session(&inputs.pools, seed, BOOT_CLIENT + 1, ordinal);
            let refs: Vec<&str> = plan.examples.iter().map(String::as_str).collect();
            sut::discover(adb, &refs).map(|f| f.sql())
        })
        .collect()
}

/// Record the phase medians of the boots as metrics.
pub fn record_phases(out: &mut Outcome, phases: &[Phases]) {
    let med = |f: fn(&Phases) -> f64| Summary::of(&phases.iter().map(f).collect::<Vec<_>>());
    let last = phases.last().expect("at least one boot");
    out.set_summary("setup_s", med(Phases::total_s));
    out.set_summary("adb_build_s", med(|p| p.build_s));
    out.set("datasets.generate_s", med(|p| p.generate_s).median);
    out.set("adb.snapshot.save_s", med(|p| p.save_s).median);
    out.set("adb.snapshot.load_s", med(|p| p.load_s).median);
    out.set("adb.snapshot.bytes", last.snapshot_bytes as f64);
    out.set_summary("snapshot_load_s", med(|p| p.load_s));
    out.set_summary("recover_s", med(|p| p.recover_s));
    out.set_summary("standby_warm_s", med(|p| p.standby_warm_s));
    let recover_s = med(|p| p.recover_s).median;
    out.set(
        "core.journal.replay_records_per_s",
        last.journal_records as f64 / recover_s,
    );
    out.set("core.journal.compact_ms", med(|p| p.compact_s).median * 1e3);
    out.set(
        "core.journal.compact_ratio",
        last.compacted_bytes as f64 / last.journal_bytes as f64,
    );
    out.set(
        "core.journal.recover_compacted_s",
        med(|p| p.recover_compacted_s).median,
    );
    out.set(
        "serve.replication.bootstrap_s",
        med(|p| p.bootstrap_s).median,
    );
    out.set("serve.replication.snap_bytes", last.compacted_bytes as f64);
    // Over the bootstrap journal, whose content is fixed by the seed.
    out.set(
        "journal_bytes_per_turn",
        last.journal_bytes as f64 / last.journal_records as f64,
    );
    out.note(
        "bootstrap_journal_records",
        Json::Int(last.journal_records as i64),
    );
    out.note(
        "bootstrap_journal_bytes",
        Json::Int(last.journal_bytes as i64),
    );
}

/// At lag 0 the standby must answer `sql` exactly like the primary, for
/// every session the measured pass abandoned (still open on both).
fn verify_standby(pair: &Pair, sids: &[u64], out: &mut Outcome) -> Result<(), String> {
    let mut primary = Wire::connect(&pair.primary.addr())?;
    let mut standby = Wire::connect(&pair.standby.addr())?;
    for (i, &sid) in sids.iter().enumerate() {
        let req = sut::request(&crate::traffic::Turn::Sql, sid, i as u64);
        let a = primary.round_trip(&req)?;
        let b = standby.round_trip(&req)?;
        out.check(sut::reply_ok(&a) && a.get("sql") == b.get("sql"), || {
            format!(
                "session {sid}: standby answers {} where the primary answers {}",
                b.encode(),
                a.encode()
            )
        });
    }
    Ok(())
}

/// The end-to-end run: [`REPS`] times { boot a pair, serve one window
/// with journal and standby attached, drain the stream, verify }.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut boots = Boots {
        inputs: None,
        bootstrap_journal: None,
    };
    let mut phases = Vec::new();
    let mut windows = Vec::new();
    let mut stream_rates = Vec::new();
    let mut replay = ReplayTally::default();
    for rep in 0..REPS {
        let pair = boot(ctx, &mut boots, rep, rep == 0, &mut out)?;
        phases.push(pair.phases);
        if rep == 0 {
            // Right after the first boot: the operator path's own peak
            // (built and loaded αDB side by side, two recovered fleets).
            // What serving adds is the interactive workloads' number, and
            // here it would vary with how many sessions a window fits.
            served::record_peak_rss(&mut out);
        }
        let inputs = boots.inputs.as_ref().expect("derived in the first boot");
        let addr = pair.primary.addr();

        // No separate warm-up pass: recovery just replayed 2 000 sessions
        // through the same caches.
        let records_before = journal_records(&served::fleet_stats(&addr)?);
        let t = Instant::now();
        let (logs, stats) = served::measure(
            ctx,
            &addr,
            &inputs.pools,
            ctx.seconds / REPS as f64,
            rep,
            &mut out,
        );
        windows.extend(stats);
        wait_for_lag_zero(&addr)?;
        let streamed_s = t.elapsed().as_secs_f64();
        let stats = served::fleet_stats(&addr)?;
        stream_rates.push((journal_records(&stats) - records_before) / streamed_s);
        if rep + 1 == REPS {
            for (name, v) in served::counter_metrics(&stats) {
                out.set(name, v);
            }
        }

        let open: Vec<u64> = logs
            .iter()
            .flat_map(|l| &l.records)
            .filter(|r| r.keep_open)
            .map(|r| r.sid)
            .take(100)
            .collect();
        verify_standby(&pair, &open, &mut out)?;
        verify_by_replay(
            &pair.adb,
            &inputs.pools,
            &inputs.intents,
            ctx.seed,
            &logs,
            MAX_REPLAYED / REPS,
            &mut replay,
        );
        pair.tear_down();
    }
    record_phases(&mut out, &phases);
    record_turn_metrics(&mut out, windows);
    out.set(
        "serve.replication.stream_records_per_s",
        Summary::of(&stream_rates).median,
    );
    out.tally(replay.checked, replay.failed, replay.first_error.clone());
    out.set("intent_fscore", replay.fscore());
    if let Some(j) = boots.bootstrap_journal {
        let _ = std::fs::remove_file(j);
    }
    out.note("peak_rss_mb_whole_run", Json::Float(peak_rss_mb()));
    Ok(out)
}
