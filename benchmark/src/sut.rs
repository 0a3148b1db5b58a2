//! The adapter: every call into `crates/*` lives in this file.
//!
//! The rest of the benchmark sees datasets, αDBs, fleets, servers and
//! clients only through the types below, so a dispatcher rewrite or a
//! stats refactor in the system under test is a one-file fix here. The
//! served workloads' end-to-end path talks to the server **only over the
//! wire** ([`Wire::round_trip`] with the documented JSON verbs built by
//! [`request`]); the in-process handles ([`Replay`], [`Fleet`],
//! [`Mirror`]) exist for the correctness oracles, the operator workload
//! and the traced run's shadow spans. `README.md` lists the API surface
//! this file depends on.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use squid_adb::{ADb, FilterSetCache};
use squid_core::{
    abduce_filters, adb_query, evaluate_cached, original_query, Accuracy, ContextState, Discovery,
    FsyncPolicy, Journal, JournalTail, SessionManager, SessionOp, SharedFilterSetCache, Squid,
    SquidParams, SquidSession, TailPoll, DEFAULT_SHARED_CACHE_BYTES,
};
use squid_datasets::{
    adult_queries, dblp_queries, generate_adult, generate_dblp, generate_imdb, imdb_queries,
    AdultConfig, BenchmarkQuery, DblpConfig, ImdbConfig,
};
use squid_engine::{Executor, Query};
use squid_relation::kernel::{self, CmpSpec};
use squid_relation::{db_fingerprint, DataType, Database, InvertedIndex, RowSet, ScanPlan, Value};
use squid_serve::protocol::{Request, Verb};
use squid_serve::{parse_request, Client, ServeConfig, Server};

pub use squid_serve::Json;

use crate::traffic::Turn;

/// Parse one JSON document (reply lines, result files).
pub fn parse_json(text: &str) -> Result<Json, String> {
    squid_serve::json::parse(text).map_err(|e| e.to_string())
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ------------------------------------------------------------- datasets --

/// The three synthetic datasets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// IMDb-like (persons, movies, cast).
    Imdb,
    /// DBLP-like (authors, publications).
    Dblp,
    /// Adult census (one numeric-heavy table).
    Adult,
}

/// A generated database.
pub struct Dataset {
    kind: Kind,
    db: Database,
}

/// Generate `kind` at `scale` times the generator's default size. Dataset
/// seeds stay at the generator defaults: `--seed` drives only the traffic.
pub fn generate(kind: Kind, scale: usize) -> Dataset {
    let db = match kind {
        Kind::Imdb => {
            let d = ImdbConfig::default();
            generate_imdb(&ImdbConfig {
                persons: d.persons * scale,
                movies: d.movies * scale,
                ..d
            })
        }
        Kind::Dblp => {
            let d = DblpConfig::default();
            generate_dblp(&DblpConfig {
                authors: d.authors * scale,
                publications: d.publications * scale,
                ..d
            })
        }
        Kind::Adult => {
            let d = AdultConfig::default();
            generate_adult(&AdultConfig {
                rows: d.rows * scale,
                ..d
            })
        }
    };
    Dataset { kind, db }
}

/// One intended query of a benchmark suite with its ground truth.
pub struct Intent {
    /// Suite id (`IQ4`, `DQ2`, `AQ07`).
    pub id: String,
    /// Distinct values of the query's output column (the example pool).
    pub values: Vec<String>,
    /// Time `Executor::execute` took on the intended query.
    pub exec_ns: u64,
    /// The entity table the query ranges over.
    pub table: String,
    /// The column it projects (where the examples live).
    pub column: String,
    truth: RowSet,
}

impl Dataset {
    /// The dataset's benchmark suite (IQ1–16 / DQ1–5 / AQ01–20), each
    /// query executed once for its ground truth.
    pub fn intents(&self) -> Vec<Intent> {
        let suite: Vec<BenchmarkQuery> = match self.kind {
            Kind::Imdb => imdb_queries(&self.db),
            Kind::Dblp => dblp_queries(&self.db),
            Kind::Adult => adult_queries(&self.db, 0xA0, 20),
        };
        suite
            .into_iter()
            .map(|q| {
                let (rs, exec_ns) = self.execute(&q.query);
                let mut values: Vec<String> = rs
                    .project(&self.db, q.query.projection.as_str())
                    .expect("suite query projects its own column")
                    .iter()
                    .map(Value::to_string)
                    .collect();
                values.sort_unstable();
                values.dedup();
                Intent {
                    id: q.id,
                    values,
                    exec_ns,
                    table: q.query.root().to_string(),
                    column: q.query.projection.as_str().to_string(),
                    truth: rs.rows,
                }
            })
            .collect()
    }

    fn execute(&self, query: &Query) -> (squid_engine::ResultSet, u64) {
        let t = Instant::now();
        let rs = Executor::new(&self.db)
            .execute(query)
            .expect("benchmark query executes");
        (rs, ns(t))
    }

    /// Distinct values of `table.column` (the scattered-session pool).
    pub fn column_values(&self, table: &str, column: &str) -> Vec<String> {
        let t = self.db.table(table).expect("known table");
        let ci = t.schema().column_index(column).expect("known column");
        let mut values: Vec<String> = t.column_values(ci).map(Value::to_string).collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// One from-scratch inverted-index build (`relation.inverted.build_s`).
    pub fn build_inverted_index(&self) {
        std::hint::black_box(InvertedIndex::build(&self.db));
    }

    /// Scan-kernel throughput over this (IMDb) dataset's person and
    /// castinfo columns — int range, symbol equality, symbol membership —
    /// as `(rows scanned, elapsed)` for `repeats` passes.
    pub fn time_kernel_scans(&self, repeats: usize) -> (u64, Duration) {
        let person = self.db.table("person").expect("imdb person");
        let cast = self.db.table("castinfo").expect("imdb castinfo");
        let col = |t: &'_ squid_relation::Table, name: &str| {
            t.schema().column_index(name).expect("known column")
        };
        let plans = [
            ScanPlan::new(
                vec![kernel::compile(
                    person.column(col(person, "birth_year")),
                    DataType::Int,
                    &CmpSpec::Between(Value::Int(1960), Value::Int(1985)),
                )],
                person.len(),
            ),
            ScanPlan::new(
                vec![kernel::compile(
                    person.column(col(person, "gender")),
                    DataType::Text,
                    &CmpSpec::Eq(Value::text("Female")),
                )],
                person.len(),
            ),
            ScanPlan::new(
                vec![kernel::compile(
                    person.column(col(person, "country")),
                    DataType::Text,
                    &CmpSpec::In(vec![
                        Value::text("USA"),
                        Value::text("India"),
                        Value::text("Japan"),
                    ]),
                )],
                person.len(),
            ),
            ScanPlan::new(
                vec![kernel::compile(
                    cast.column(col(cast, "role")),
                    DataType::Text,
                    &CmpSpec::Eq(Value::text("actor")),
                )],
                cast.len(),
            ),
        ];
        let mut rows = 0u64;
        let t = Instant::now();
        for _ in 0..repeats {
            for p in &plans {
                rows += p.rows() as u64;
                std::hint::black_box(p.collect());
            }
        }
        (rows, t.elapsed())
    }
}

/// The SIMD tier the scan kernels resolved to on this machine.
pub fn simd_tier() -> &'static str {
    squid_relation::simd::active_tier().name()
}

// ------------------------------------------------------------------ αDB --

/// A built (or loaded) abduction-ready database plus the discovery
/// parameters its dataset is run with.
#[derive(Clone)]
pub struct Adb {
    adb: Arc<ADb>,
    params: SquidParams,
}

/// DBLP association counts are smaller than IMDb careers, so the paper
/// tunes τa per dataset (Appendix E); same choice as `squid-bench`.
fn params_for(kind: Kind) -> SquidParams {
    match kind {
        Kind::Dblp => SquidParams {
            tau_a: 3,
            ..SquidParams::default()
        },
        _ => SquidParams::default(),
    }
}

/// `ADb::build` with default configuration.
pub fn build_adb(ds: &Dataset) -> Adb {
    Adb {
        adb: Arc::new(ADb::build(&ds.db).expect("αDB builds")),
        params: params_for(ds.kind),
    }
}

impl Adb {
    /// Discovered semantic properties.
    pub fn properties(&self) -> usize {
        self.adb.build_stats.property_count
    }

    /// Rows across materialized derived relations.
    pub fn derived_rows(&self) -> usize {
        self.adb.build_stats.derived_row_count
    }

    /// Content fingerprint of the database inside the αDB.
    pub fn fingerprint(&self) -> u64 {
        db_fingerprint(&self.adb.database)
    }

    /// `ADb::save_snapshot`; returns the file size.
    pub fn save_snapshot(&self, path: &Path) -> Result<u64, String> {
        self.adb.save_snapshot(path).map_err(|e| e.to_string())
    }

    /// `ADb::load_snapshot`, keeping this αDB's parameters.
    pub fn load_snapshot(&self, path: &Path) -> Result<Adb, String> {
        Ok(Adb {
            adb: Arc::new(ADb::load_snapshot(path).map_err(|e| e.to_string())?),
            params: self.params.clone(),
        })
    }

    /// Median-able samples of `inverted.lookup_in` for example values of
    /// `table.column`, in nanoseconds.
    pub fn time_lookups(&self, table: &str, column: &str, values: &[String]) -> Vec<u64> {
        let ci = self
            .adb
            .database
            .table(table)
            .ok()
            .and_then(|t| t.schema().column_index(column))
            .expect("known lookup column");
        values
            .iter()
            .map(|v| {
                let t = Instant::now();
                std::hint::black_box(self.adb.inverted.lookup_in(v, table, ci));
                ns(t)
            })
            .collect()
    }
}

// ------------------------------------------------- in-process discovery --

/// A finished discovery (one-shot or a session's current one).
pub struct Found(Discovery);

impl Found {
    /// The abduced SQL.
    pub fn sql(&self) -> String {
        self.0.sql()
    }

    /// Every example entity is in the abduced query's result.
    pub fn examples_in_result(&self) -> bool {
        self.0.example_rows.iter().all(|&r| self.0.rows.contains(r))
    }

    /// F-score of the abduced result against the intended query's output
    /// (0 when discovery settled on another entity table).
    pub fn fscore(&self, intent: &Intent) -> f64 {
        if self.0.entity_table != intent.table {
            return 0.0;
        }
        Accuracy::of(&self.0.rows, &intent.truth).f_score
    }

    /// Time `Executor::execute` takes on the abduced query.
    pub fn time_execute(&self, ds: &Dataset) -> u64 {
        ds.execute(&self.0.query).1
    }
}

/// One-shot `Squid::discover` (target inferred, evaluation cache bypassed).
pub fn discover(adb: &Adb, examples: &[&str]) -> Result<Found, String> {
    Squid::with_params(&adb.adb, adb.params.clone())
        .discover(examples)
        .map(Found)
        .map_err(|e| e.to_string())
}

fn session_op(turn: &Turn) -> Option<SessionOp> {
    Some(match turn {
        Turn::Add(v) => SessionOp::AddExample(v.clone()),
        Turn::Remove(v) => SessionOp::RemoveExample(v.clone()),
        Turn::Pin(k) => SessionOp::PinFilter(k.clone()),
        Turn::Unpin(k) => SessionOp::UnpinFilter(k.clone()),
        Turn::Create | Turn::Sql | Turn::Suggest(_) | Turn::Rows(_) | Turn::Close => return None,
    })
}

/// A bare in-process `SquidSession`: the reference the served sessions
/// are replayed against.
pub struct Replay(SquidSession<'static>);

impl Replay {
    /// A fresh session over `adb`.
    pub fn new(adb: &Adb) -> Replay {
        Replay(SquidSession::shared_with_params(
            Arc::clone(&adb.adb),
            adb.params.clone(),
        ))
    }

    /// Apply a mutating turn (reads are no-ops).
    pub fn apply(&mut self, turn: &Turn) -> Result<(), String> {
        match session_op(turn) {
            Some(op) => op.apply(&mut self.0).map(|_| ()).map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }

    /// The session's current discovery.
    pub fn found(&self) -> Option<Found> {
        self.0.discovery().cloned().map(Found)
    }
}

/// Stage timings of one from-scratch discovery over `examples`, in the
/// style of `examples/prof_session.rs` (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `inverted.lookup_in` per example + `disambiguate`.
    pub disambiguate: u64,
    /// `ContextState::add_row` per example + `candidates`.
    pub context: u64,
    /// `abduce`.
    pub abduce: u64,
    /// `original_query` + `adb_query` + `sql()`.
    pub query_gen: u64,
    /// `evaluate_cached` on a cold per-call cache.
    pub evaluate: u64,
}

/// Run the discovery pipeline stage by stage on one example list. `None`
/// when the examples do not resolve in `table.column`.
pub fn time_stages(
    adb: &Adb,
    table: &str,
    column: &str,
    examples: &[String],
) -> Option<StageTimes> {
    let entity = adb.adb.entity(table)?;
    let ci = adb
        .adb
        .database
        .table(table)
        .ok()?
        .schema()
        .column_index(column)?;
    let mut out = StageTimes::default();

    let t = Instant::now();
    let lists: Vec<Vec<usize>> = examples
        .iter()
        .map(|e| adb.adb.inverted.lookup_in(e, table, ci))
        .collect();
    if lists.iter().any(Vec::is_empty) {
        return None;
    }
    let rows = squid_core::disambiguate(entity, &lists, &adb.params);
    out.disambiguate = ns(t);

    let t = Instant::now();
    let mut state = ContextState::new(entity);
    for &r in &rows {
        state.add_row(entity, r);
    }
    let candidates = state.candidates(entity, &adb.params);
    out.context = ns(t);

    let t = Instant::now();
    let scored = abduce_filters(candidates, rows.len(), &adb.params);
    out.abduce = ns(t);

    let chosen: Vec<_> = scored
        .iter()
        .filter(|s| s.included)
        .map(|s| s.filter.clone())
        .collect();
    let t = Instant::now();
    let (query, _) = original_query(entity, &chosen, column);
    std::hint::black_box(adb_query(entity, &chosen, column));
    std::hint::black_box(squid_engine::to_sql(&query));
    out.query_gen = ns(t);

    let mut cache = FilterSetCache::new(adb.adb.generation);
    let t = Instant::now();
    std::hint::black_box(evaluate_cached(entity, &chosen, &mut cache));
    out.evaluate = ns(t);
    Some(out)
}

// ---------------------------------------------------------------- fleet --

/// Journal fsync policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fsync {
    /// `fsync` after every record.
    Always,
    /// Flush to the OS after every record (the shipped default).
    Flush,
    /// Leave records in the user-space buffer.
    Never,
}

impl Fsync {
    fn policy(self) -> FsyncPolicy {
        match self {
            Fsync::Always => FsyncPolicy::Always,
            Fsync::Flush => FsyncPolicy::Flush,
            Fsync::Never => FsyncPolicy::Never,
        }
    }

    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Fsync::Always => "always",
            Fsync::Flush => "flush",
            Fsync::Never => "never",
        }
    }
}

/// What `SessionManager::recover` reported.
#[derive(Debug, Clone, Copy)]
pub struct RecoverInfo {
    /// Records replayed.
    pub records_applied: u64,
    /// Records that failed to apply.
    pub records_failed: u64,
}

/// What `SessionManager::compact_journal` reported.
#[derive(Debug, Clone, Copy)]
pub struct CompactInfo {
    /// Journal size before.
    pub bytes_before: u64,
    /// Journal size after.
    pub bytes_after: u64,
}

/// Shared evaluation-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheInfo {
    /// Lookups served from a shard.
    pub hits: u64,
    /// Lookups that found nothing resident.
    pub misses: u64,
}

/// An in-process `SessionManager` (64 MiB shared cache, no TTL).
#[derive(Clone)]
pub struct Fleet {
    manager: Arc<SessionManager>,
    adb: Adb,
}

impl Fleet {
    /// A journal-less manager over `adb`, shared cache stated explicitly.
    pub fn new(adb: &Adb) -> Fleet {
        Fleet {
            manager: Arc::new(
                SessionManager::with_params(Arc::clone(&adb.adb), adb.params.clone())
                    .with_shared_cache_bytes(DEFAULT_SHARED_CACHE_BYTES),
            ),
            adb: adb.clone(),
        }
    }

    /// Attach a fresh journal at `path`.
    pub fn attach_journal(&self, path: &Path, fsync: Fsync) -> Result<(), String> {
        let journal = Journal::open(path, fsync.policy()).map_err(|e| e.to_string())?;
        self.manager.attach_journal(journal);
        Ok(())
    }

    /// `create_session`.
    pub fn create(&self) -> u64 {
        self.manager.create_session()
    }

    /// `apply_op` for mutating turns, `close_session` for `Close`; reads
    /// are no-ops.
    pub fn apply(&self, session: u64, turn: &Turn) -> Result<(), String> {
        match (turn, session_op(turn)) {
            (_, Some(op)) => self.manager.apply_op(session, &op).map(|_| ()),
            (Turn::Close, None) => self.manager.close_session(session),
            _ => Ok(()),
        }
        .map_err(|e| e.to_string())
    }

    /// The session's current SQL and turn cursor.
    pub fn sql_and_cursor(&self, session: u64) -> Result<(Option<String>, u64), String> {
        self.manager
            .with_session(session, |s| {
                Ok((s.discovery().map(|d| d.sql()), s.op_seq()))
            })
            .map_err(|e| e.to_string())
    }

    /// Ids of live sessions, ascending.
    pub fn open_sessions(&self) -> Vec<u64> {
        let mut ids = self.manager.session_ids();
        ids.sort_unstable();
        ids
    }

    /// `SessionManager::recover` of the journal at `path`.
    pub fn recover(&self, path: &Path, fsync: Fsync) -> Result<RecoverInfo, String> {
        let s = self
            .manager
            .recover(path, fsync.policy())
            .map_err(|e| e.to_string())?;
        Ok(RecoverInfo {
            records_applied: s.records_applied,
            records_failed: s.records_failed,
        })
    }

    /// `SessionManager::compact_journal`.
    pub fn compact(&self) -> Result<CompactInfo, String> {
        let c = self
            .manager
            .compact_journal()
            .map_err(|e| e.to_string())?
            .ok_or("no journal attached")?;
        Ok(CompactInfo {
            bytes_before: c.bytes_before,
            bytes_after: c.bytes_after,
        })
    }

    /// Flush the journal and return `(bytes, records)` it holds.
    pub fn journal_size(&self) -> Result<(u64, u64), String> {
        self.manager.journal_sync().map_err(|e| e.to_string())?;
        let js = self.manager.journal_stats().ok_or("no journal attached")?;
        Ok((js.bytes, js.base_records + js.tail_records))
    }

    /// Shared evaluation-cache counters.
    pub fn cache(&self) -> CacheInfo {
        self.manager
            .shared_cache_stats()
            .map(|s| CacheInfo {
                hits: s.hits,
                misses: s.misses,
            })
            .unwrap_or_default()
    }
}

/// Steady-state cost of `JournalTail::poll` at the end of the journal at
/// `path` (what a replication sender pays per idle poll), in nanoseconds.
pub fn time_tail_polls(path: &Path, polls: usize) -> Result<Vec<u64>, String> {
    let mut tail = JournalTail::new(path);
    // Drain to the end first.
    loop {
        match tail.poll().map_err(|e| e.to_string())? {
            TailPoll::Records(b) if !b.records.is_empty() => continue,
            _ => break,
        }
    }
    (0..polls)
        .map(|_| {
            let t = Instant::now();
            let r = tail.poll().map_err(|e| e.to_string());
            let d = ns(t);
            r.map(|_| d)
        })
        .collect()
}

/// Cost of `Journal::append` per record under `fsync`, appending `ops`
/// to a scratch journal at `path`, in nanoseconds.
pub fn time_journal_appends(path: &Path, fsync: Fsync, ops: &[Turn]) -> Result<Vec<u64>, String> {
    let mut journal = Journal::open(path, fsync.policy()).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().filter_map(session_op).enumerate() {
        let t = Instant::now();
        journal
            .append(1, i as u64 + 1, &op)
            .map_err(|e| e.to_string())?;
        out.push(ns(t));
    }
    journal.sync().map_err(|e| e.to_string())?;
    Ok(out)
}

// --------------------------------------------------------------- server --

/// How a node is started. Every serving knob is pinned here instead of
/// inherited from `ServeConfig::default()`.
#[derive(Debug, Clone, Default)]
pub struct NodeCfg {
    /// Worker threads (= concurrent connections).
    pub workers: usize,
    /// Bind a replication listener (primary side).
    pub replicate: bool,
    /// Start as a standby of this replication address.
    pub standby_of: Option<String>,
}

/// A running `squid-serve` node.
pub struct Node {
    server: Server,
}

/// Start a server over `fleet`: explicit worker count, no rate limit, no
/// TTL sweeper, generous admission bounds (nothing is refused unless the
/// program misbehaves, and a refusal counts as a failure).
pub fn start_node(fleet: &Fleet, cfg: &NodeCfg) -> Result<Node, String> {
    let serve = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: cfg.workers,
        max_pending: 64,
        max_sessions: 1 << 20,
        max_line_bytes: 256 << 10,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(300),
        sweep_interval: None,
        snapshot_on_shutdown: None,
        rate_limit: None,
        shed_pending: 64,
        replicate_to: cfg.replicate.then(|| "127.0.0.1:0".to_string()),
        standby_of: cfg.standby_of.clone(),
    };
    Server::start(Arc::clone(&fleet.manager), serve)
        .map(|server| Node { server })
        .map_err(|e| e.to_string())
}

impl Node {
    /// The client address.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// The replication listener's address, when one is bound.
    pub fn repl_addr(&self) -> Option<String> {
        self.server.repl_addr().map(|a| a.to_string())
    }

    /// Graceful shutdown; returns whether the journal synced.
    pub fn shutdown(self) -> bool {
        self.server.shutdown().journal_synced
    }
}

// ----------------------------------------------------------------- wire --

/// The documented JSON request for `turn` on `session`, tagged `id`.
pub fn request(turn: &Turn, session: u64, id: u64) -> Json {
    let sid = ("session", Json::Int(session as i64));
    let mut members: Vec<(&str, Json)> = vec![("op", Json::str(turn.verb()))];
    match turn {
        Turn::Create => {}
        Turn::Add(v) | Turn::Remove(v) => members.extend([sid, ("value", Json::str(v.as_str()))]),
        Turn::Pin(k) | Turn::Unpin(k) => members.extend([sid, ("key", Json::str(k.as_str()))]),
        Turn::Sql | Turn::Close => members.push(sid),
        Turn::Suggest(k) => members.extend([sid, ("k", Json::Int(*k as i64))]),
        Turn::Rows(n) => members.extend([sid, ("limit", Json::Int(*n as i64))]),
    }
    members.push(("id", Json::Int(id as i64)));
    Json::obj(members)
}

/// A verb without arguments (`ping`, `stats`, `health`).
pub fn bare_request(op: &str) -> Json {
    Json::obj([("op", Json::str(op))])
}

/// Whether a reply is `{"ok":true,…}`.
pub fn reply_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// A plain lock-step client: one connection, no retries — a refused or
/// failed turn is a failure, not hidden latency.
pub struct Wire(Client);

impl Wire {
    /// Connect to a node.
    pub fn connect(addr: &str) -> Result<Wire, String> {
        Client::connect(addr).map(Wire).map_err(|e| e.to_string())
    }

    /// Encode `body`, send it, read and parse one reply line.
    pub fn round_trip(&mut self, body: &Json) -> Result<Json, String> {
        self.0.round_trip(body).map_err(|e| e.to_string())
    }
}

// --------------------------------------------------------------- mirror --

/// Shadow timings of one request replayed on the [`Mirror`] (nanoseconds;
/// 0 where a step does not apply to the verb).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowTimes {
    /// `parse_request` on the request line.
    pub parse_request: u64,
    /// `SessionManager::apply_op` / `create_session` / `close_session` /
    /// `with_session` read on a journal-less manager.
    pub manager: u64,
    /// The same operation on a bare `SquidSession` twin (mutations and
    /// `suggest` only).
    pub session: u64,
    /// `Journal::append` to the scratch journal (journaled verbs only).
    pub journal: u64,
    /// Candidate filters the twin's abduction scored after this turn.
    pub candidates: u64,
}

/// An in-process mirror of the server: the same request lines replayed,
/// in order, against a journal-less manager, a bare-session twin per
/// session, and a scratch journal under the server's fsync policy.
pub struct Mirror {
    fleet: Fleet,
    twins: HashMap<u64, SquidSession<'static>>,
    twin_cache: Arc<SharedFilterSetCache>,
    journal: Option<Journal>,
    /// Server session id → mirror session id.
    ids: HashMap<u64, u64>,
    seq: u64,
}

impl Mirror {
    /// A mirror over `adb`; `journal` is the scratch file and policy when
    /// the mirrored server journals.
    pub fn new(adb: &Adb, journal: Option<(&Path, Fsync)>) -> Result<Mirror, String> {
        let journal = match journal {
            Some((path, fsync)) => {
                Some(Journal::open(path, fsync.policy()).map_err(|e| e.to_string())?)
            }
            None => None,
        };
        Ok(Mirror {
            fleet: Fleet::new(adb),
            twins: HashMap::new(),
            // The twins share a cache of their own, sized like the
            // manager's, so both see the same hit pattern.
            twin_cache: Arc::new(SharedFilterSetCache::new(
                adb.adb.generation,
                DEFAULT_SHARED_CACHE_BYTES,
            )),
            journal,
            ids: HashMap::new(),
            seq: 0,
        })
    }

    fn append(&mut self, session: u64, op: &SessionOp) -> Result<u64, String> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(0);
        };
        self.seq += 1;
        let t = Instant::now();
        j.append(session, self.seq, op).map_err(|e| e.to_string())?;
        Ok(ns(t))
    }

    /// Run a whole session through the mirror untimed, so its caches see
    /// what the server's saw before the traced pass began.
    pub fn warm(&mut self, turns: &[Turn]) -> Result<(), String> {
        let sid = self.fleet.create();
        let mut twin = self.new_twin();
        for turn in turns {
            self.fleet.apply(sid, turn)?;
            if let Some(op) = session_op(turn) {
                op.apply(&mut twin).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn new_twin(&self) -> SquidSession<'static> {
        let mut twin = SquidSession::shared_with_params(
            Arc::clone(&self.fleet.adb.adb),
            self.fleet.adb.params.clone(),
        );
        twin.attach_shared_cache(Arc::clone(&self.twin_cache));
        twin
    }

    /// Replay one request the server answered with `reply`.
    pub fn replay(&mut self, line: &str, reply: &Json) -> Result<ShadowTimes, String> {
        let mut out = ShadowTimes::default();
        let t = Instant::now();
        let parsed: Request = parse_request(line).map_err(|e| e.detail)?;
        out.parse_request = ns(t);
        let manager = Arc::clone(&self.fleet.manager);
        let local = |ids: &HashMap<u64, u64>, server_sid: u64| {
            ids.get(&server_sid)
                .copied()
                .ok_or_else(|| format!("mirror never saw session {server_sid}"))
        };
        match parsed.verb {
            Verb::Create => {
                let server_sid = reply
                    .get("session")
                    .and_then(Json::as_u64)
                    .ok_or("create reply without a session id")?;
                let t = Instant::now();
                let sid = manager.create_session();
                out.manager = ns(t);
                self.ids.insert(server_sid, sid);
                let twin = self.new_twin();
                self.twins.insert(sid, twin);
                out.journal = self.append(sid, &SessionOp::Create)?;
            }
            Verb::Apply { session, op, .. } => {
                let sid = local(&self.ids, session)?;
                let t = Instant::now();
                manager.apply_op(sid, &op).map_err(|e| e.to_string())?;
                out.manager = ns(t);
                out.journal = self.append(sid, &op)?;
                let twin = self.twins.get_mut(&sid).ok_or("mirror twin missing")?;
                let t = Instant::now();
                op.apply(twin).map_err(|e| e.to_string())?;
                out.session = ns(t);
                out.candidates = twin.discovery().map_or(0, |d| d.scored.len() as u64);
            }
            Verb::Close { session } => {
                let sid = local(&self.ids, session)?;
                let t = Instant::now();
                manager.close_session(sid).map_err(|e| e.to_string())?;
                out.manager = ns(t);
                out.journal = self.append(sid, &SessionOp::End)?;
                self.twins.remove(&sid);
                self.ids.remove(&session);
            }
            Verb::Sql { session } => {
                let sid = local(&self.ids, session)?;
                let t = Instant::now();
                std::hint::black_box(
                    manager
                        .with_session(sid, |s| Ok(s.discovery().map(|d| d.sql())))
                        .map_err(|e| e.to_string())?,
                );
                out.manager = ns(t);
            }
            Verb::Suggest { session, k } => {
                let sid = local(&self.ids, session)?;
                let t = Instant::now();
                std::hint::black_box(
                    manager
                        .with_session(sid, |s| Ok(s.suggest(k)))
                        .map_err(|e| e.to_string())?,
                );
                out.manager = ns(t);
                let twin = self.twins.get(&sid).ok_or("mirror twin missing")?;
                let t = Instant::now();
                std::hint::black_box(twin.suggest(k));
                out.session = ns(t);
            }
            Verb::Rows { session, limit } => {
                let sid = local(&self.ids, session)?;
                let adb = Arc::clone(&self.fleet.adb.adb);
                let t = Instant::now();
                std::hint::black_box(
                    manager
                        .with_session(sid, |s| {
                            let Some(d) = s.discovery() else {
                                return Ok(Vec::new());
                            };
                            let table = adb.database.table(&d.entity_table).ok();
                            let ci =
                                table.and_then(|t| t.schema().column_index(&d.projection_column));
                            Ok(d.rows
                                .iter()
                                .take(limit)
                                .filter_map(|r| table?.cell(r, ci?).map(|v| v.to_string()))
                                .collect::<Vec<_>>())
                        })
                        .map_err(|e| e.to_string())?,
                );
                out.manager = ns(t);
            }
            // Nothing else is part of the traced script.
            _ => {}
        }
        Ok(out)
    }

    /// Shared-cache counters of the mirror's manager.
    pub fn cache(&self) -> CacheInfo {
        self.fleet.cache()
    }
}
