//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! End-to-end metrics are always taken with tracing off; this separate
//! run replays a fixed number of sessions on **one** client and keeps
//! spans in memory, written to `benchmark/out/trace_<workload>.json` at
//! exit. The root span of a served turn is the client-measured round trip
//! (the request's wire `id` is the shared identifier). Its children are
//! shadow spans (see `spans`): the same request line replayed, in order,
//! against an in-process mirror — `parse_request`, a journal-less
//! `SessionManager::apply_op`, the same operation on a bare
//! `SquidSession`, a `Journal::append` to a scratch file under the same
//! policy, re-encode of the parsed reply — plus the client's own encode
//! and parse and the measured ping floor. What the children do not cover
//! is the root's self time: `serve.server.unattributed_us`.
//!
//! Every workload's traced run reports every per-layer metric; the ones
//! its path never touches stay 0, which is the prediction a later change
//! is held to (`serve.*` on `oneshot_discover`, journal appends on
//! `interactive_mem`, cache hits on `oneshot_discover`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::lifecycle::{self, Boots};
use crate::load::{run_pass, run_session, ClientLog, Exchange, Pass, Stop};
use crate::oneshot;
use crate::report::{Ctx, Outcome};
use crate::served::{self, Inputs};
use crate::spans::Tracer;
use crate::stats::{median, percentile_sorted};
use crate::sut::{self, Adb, Fsync, Json, Kind, Mirror, StageTimes, Wire};
use crate::traffic::{plan_session, session_turns, Turn};

/// Sessions the traced pass replays (and the untraced reference pass
/// before it); `--seconds` caps the traced pass.
const TRACED_SESSIONS: u64 = 2000;
/// Pings behind `serve.wire.ping_rt_us`.
const PINGS: usize = 2000;
/// Records behind the `fsync=always` probe: each one is a device flush,
/// so the probe is kept short and never gated.
const ALWAYS_APPENDS: usize = 200;

fn traced_sessions(ctx: &Ctx) -> u64 {
    if ctx.smoke {
        100
    } else {
        TRACED_SESSIONS
    }
}

/// Named duration samples (nanoseconds).
#[derive(Default)]
struct Samples(HashMap<&'static str, Vec<u64>>);

impl Samples {
    fn push(&mut self, name: &'static str, ns: u64) {
        self.0.entry(name).or_default().push(ns);
    }

    /// Median in microseconds (0 when nothing was sampled).
    fn median_us(&self, name: &str) -> f64 {
        let mut v = self.0.get(name).cloned().unwrap_or_default();
        v.sort_unstable();
        percentile_sorted(&v, 50.0) as f64 / 1e3
    }
}

/// Per verb: the root span's name and the per-layer metric its median
/// round trip is reported under.
const ROOTS: [(&str, &str, Option<&str>); 9] = [
    (
        "create",
        "serve.server.turn_rt.create",
        Some("serve.server.turn_rt_us.create"),
    ),
    (
        "add",
        "serve.server.turn_rt.add",
        Some("serve.server.turn_rt_us.add"),
    ),
    (
        "remove",
        "serve.server.turn_rt.remove",
        Some("serve.server.turn_rt_us.remove"),
    ),
    (
        "pin",
        "serve.server.turn_rt.pin",
        Some("serve.server.turn_rt_us.pin"),
    ),
    ("unpin", "serve.server.turn_rt.unpin", None),
    (
        "sql",
        "serve.server.turn_rt.sql",
        Some("serve.server.turn_rt_us.sql"),
    ),
    (
        "suggest",
        "serve.server.turn_rt.suggest",
        Some("serve.server.turn_rt_us.suggest"),
    ),
    (
        "rows",
        "serve.server.turn_rt.rows",
        Some("serve.server.turn_rt_us.rows"),
    ),
    (
        "close",
        "serve.server.turn_rt.close",
        Some("serve.server.turn_rt_us.close"),
    ),
];

/// Per verb the bare-session twin replays: its span's name and metric.
const SESSION_SPANS: [(&str, &str, Option<&str>); 5] = [
    ("add", "core.session.add", Some("core.session.add_us")),
    (
        "remove",
        "core.session.remove",
        Some("core.session.remove_us"),
    ),
    ("pin", "core.session.pin", Some("core.session.pin_us")),
    ("unpin", "core.session.unpin", None),
    (
        "suggest",
        "core.session.suggest",
        Some("core.session.suggest_us"),
    ),
];

fn span_name(table: &[(&str, &'static str, Option<&str>)], verb: &str) -> Option<&'static str> {
    table
        .iter()
        .find(|(v, _, _)| *v == verb)
        .map(|(_, n, _)| *n)
}

/// Counters read off the replies of the traced pass.
#[derive(Default)]
struct ReplyCounters {
    mutating: u64,
    incremental: u64,
    filters: u64,
    candidates: u64,
    cache_hits: u64,
    cache_misses: u64,
    reply_bytes: u64,
    replies: u64,
}

fn median_ping_ns(addr: &str) -> Result<u64, String> {
    let mut wire = Wire::connect(addr)?;
    let ping = sut::bare_request("ping");
    let mut v = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        let reply = wire.round_trip(&ping)?;
        v.push(t.elapsed().as_nanos() as u64);
        if !sut::reply_ok(&reply) {
            return Err(format!("ping refused: {}", reply.encode()));
        }
    }
    v.sort_unstable();
    Ok(percentile_sorted(&v, 50.0))
}

/// Bring the mirror's caches to where the server's are: replay, in
/// process, the sessions the server has already served.
fn warm_mirror(
    mirror: &mut Mirror,
    inputs: &Inputs,
    seed: u64,
    logs: &[ClientLog],
) -> Result<(), String> {
    for log in logs {
        for rec in &log.records {
            let plan = plan_session(&inputs.pools, seed, log.client, rec.ordinal);
            mirror.warm(&session_turns(&plan, rec.pin.as_deref()))?;
        }
    }
    Ok(())
}

/// The served part of a traced run, against a running node whose earlier
/// traffic is `served_so_far`: an untraced reference pass, the traced
/// pass with shadow spans, and the per-layer metrics both yield.
#[allow(clippy::too_many_arguments)]
fn trace_served(
    ctx: &Ctx,
    addr: &str,
    adb: &Adb,
    inputs: &Inputs,
    journal: Option<Fsync>,
    served_so_far: &[ClientLog],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let scratch = ctx.scratch("mirror.journal");
    let mut mirror = Mirror::new(adb, journal.map(|f| (scratch.as_path(), f)))?;
    warm_mirror(&mut mirror, inputs, ctx.seed, served_so_far)?;
    let first_ordinal = served_so_far
        .iter()
        .filter(|l| l.client == 0)
        .flat_map(|l| &l.records)
        .map(|r| r.ordinal + 1)
        .max()
        .unwrap_or(0);

    let ping_ns = median_ping_ns(addr)?;
    out.set("serve.wire.ping_rt_us", ping_ns as f64 / 1e3);
    let stats_before = served::fleet_stats(addr)?;

    // Untraced reference: same client, same number of sessions, the
    // ordinals right before the traced ones.
    let n = traced_sessions(ctx);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let t = Instant::now();
    let reference = run_pass(&Pass {
        addr,
        pools: &inputs.pools,
        seed: ctx.seed,
        clients: 1,
        first_ordinal,
        stop: Stop::Sessions(n),
        record_from: Some(t),
    });
    let reference_s = t.elapsed().as_secs_f64();
    let reference_turns = reference[0].samples.len() as f64;
    out.tally(
        reference[0].attempted,
        reference[0].failed,
        reference[0].first_error.clone(),
    );
    warm_mirror(&mut mirror, inputs, ctx.seed, &reference)?;

    // The traced pass.
    let mut wire = Wire::connect(addr)?;
    let mut log = ClientLog::default();
    let mut next_id = 1 << 50;
    let mut samples = Samples::default();
    let mut counters = ReplyCounters::default();
    let mut unattributed: Vec<(usize, &'static str)> = Vec::new();
    let mut mirror_error: Option<String> = None;
    let t = Instant::now();
    let mut sessions = 0;
    for ordinal in first_ordinal + n..first_ordinal + 2 * n {
        if t.elapsed() > budget {
            break;
        }
        let plan = plan_session(&inputs.pools, ctx.seed, 0, ordinal);
        run_session(
            &mut wire,
            &plan,
            ordinal,
            &mut next_id,
            &mut log,
            &mut |x| {
                if let Err(e) = trace_exchange(
                    x,
                    ping_ns,
                    &mut mirror,
                    tracer,
                    &mut samples,
                    &mut counters,
                    &mut unattributed,
                ) {
                    mirror_error.get_or_insert(e);
                }
            },
        )?;
        sessions += 1;
    }
    let traced_s = t.elapsed().as_secs_f64();
    out.tally(log.attempted, log.failed, log.first_error.clone());
    out.check(mirror_error.is_none(), || {
        format!("mirror diverged: {}", mirror_error.unwrap_or_default())
    });
    out.note("traced_sessions", Json::Int(sessions));
    let _ = std::fs::remove_file(&scratch);

    // Tracing overhead: traced vs untraced turns per second of the same
    // single client.
    let untraced_tps = reference_turns / reference_s;
    let traced_tps = log.attempted as f64 / traced_s;
    out.set("trace_overhead_share", 1.0 - traced_tps / untraced_tps);
    out.note("untraced_turns_per_s_one_client", Json::Float(untraced_tps));
    out.note("traced_turns_per_s_one_client", Json::Float(traced_tps));

    // Per-verb round trips and the add turn's decomposition.
    let self_times = tracer.self_times();
    for (_, span, metric) in ROOTS.iter().chain(&SESSION_SPANS) {
        if let Some(metric) = metric {
            out.set(metric, samples.median_us(span));
        }
    }
    let add_unattributed: Vec<f64> = unattributed
        .iter()
        .filter(|(_, verb)| *verb == "add")
        .map(|(span, _)| self_times[*span] as f64 / 1e3)
        .collect();
    out.set("serve.server.unattributed_us", median(&add_unattributed));
    out.set(
        "serve.protocol.parse_request_us",
        samples.median_us("serve.protocol.parse_request"),
    );
    out.set(
        "serve.json.encode_us",
        samples.median_us("serve.json.encode_reply"),
    );
    out.set(
        "serve.json.parse_us",
        samples.median_us("client.parse_reply"),
    );
    out.set(
        "core.manager.apply_us",
        samples.median_us("core.manager.apply.add"),
    );
    out.set(
        "core.manager.overhead_us",
        samples.median_us("core.manager.apply.add") - samples.median_us("core.session.add"),
    );
    if journal.is_some() {
        out.set(
            "core.journal.append_flush_us",
            samples.median_us("core.journal.append"),
        );
        // Configured, not observed: the journal exposes no sync counter,
        // and `flush` never calls fsync.
        out.set("core.journal.fsyncs_per_turn", 0.0);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set(
        "core.session.incremental_ratio",
        ratio(counters.incremental, counters.mutating),
    );
    out.set(
        "core.filters_per_turn",
        ratio(counters.filters, counters.mutating),
    );
    out.set(
        "core.candidates_per_turn",
        ratio(counters.candidates, counters.mutating),
    );
    out.set(
        "adb.cache.session_hit_ratio",
        ratio(
            counters.cache_hits,
            counters.cache_hits + counters.cache_misses,
        ),
    );
    out.set(
        "serve.reply_bytes_per_turn",
        ratio(counters.reply_bytes, counters.replies),
    );

    // Every span's self time, summed, must give back the roots: shadow
    // children are cut to fit their parents, so this is 0 by construction
    // and says so in the result.
    let roots: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let selfs: u64 = self_times.iter().sum();
    out.set(
        "trace.root_sum_error",
        selfs.abs_diff(roots) as f64 / roots.max(1) as f64,
    );

    // Server-side counters over the reference + traced passes.
    let stats_after = served::fleet_stats(addr)?;
    let before: HashMap<_, _> = served::counter_metrics(&stats_before).into_iter().collect();
    for (name, v) in served::counter_metrics(&stats_after) {
        let delta = matches!(
            name,
            "serve.server.requests" | "serve.server.turns" | "adb.cache.shared_publishes"
        );
        out.set(name, if delta { v - before[name] } else { v });
    }
    let mirror_cache = mirror.cache();
    out.note(
        "mirror_shared_hit_ratio",
        Json::Float(ratio(
            mirror_cache.hits,
            mirror_cache.hits + mirror_cache.misses,
        )),
    );
    Ok(())
}

/// Record the spans of one exchange.
fn trace_exchange(
    x: &Exchange<'_>,
    ping_ns: u64,
    mirror: &mut Mirror,
    tracer: &mut Tracer,
    samples: &mut Samples,
    counters: &mut ReplyCounters,
    unattributed: &mut Vec<(usize, &'static str)>,
) -> Result<(), String> {
    let verb = x.turn.verb();
    let root_name = span_name(&ROOTS, verb).ok_or("verb outside the traced script")?;
    let request_id = x.body.get("id").and_then(Json::as_u64).unwrap_or(0);
    let root = tracer.record(root_name, x.start, x.end, None, request_id);
    samples.push(root_name, (x.end - x.start).as_nanos() as u64);
    unattributed.push((root, verb));

    let t = Instant::now();
    let line = x.body.encode();
    let encode_ns = t.elapsed().as_nanos() as u64;
    tracer.shadow("client.encode_request", root, encode_ns);
    tracer.shadow("serve.wire.floor", root, ping_ns);

    let shadow = mirror.replay(&line, x.reply)?;
    tracer.shadow("serve.protocol.parse_request", root, shadow.parse_request);
    samples.push("serve.protocol.parse_request", shadow.parse_request);
    let apply = tracer.shadow("core.manager.apply", root, shadow.manager);
    if verb == "add" {
        samples.push("core.manager.apply.add", shadow.manager);
    }
    if let Some(name) = span_name(&SESSION_SPANS, verb).filter(|_| shadow.session > 0) {
        tracer.shadow(name, apply, shadow.session);
        samples.push(name, shadow.session);
    }
    if shadow.journal > 0 {
        tracer.shadow("core.journal.append", root, shadow.journal);
        samples.push("core.journal.append", shadow.journal);
    }

    let t = Instant::now();
    let reply_line = x.reply.encode();
    let reply_encode_ns = t.elapsed().as_nanos() as u64;
    tracer.shadow("serve.json.encode_reply", root, reply_encode_ns);
    samples.push("serve.json.encode_reply", reply_encode_ns);
    let t = Instant::now();
    std::hint::black_box(sut::parse_json(&reply_line)?);
    let parse_ns = t.elapsed().as_nanos() as u64;
    tracer.shadow("client.parse_reply", root, parse_ns);
    samples.push("client.parse_reply", parse_ns);

    counters.replies += 1;
    counters.reply_bytes += reply_line.len() as u64 + 1;
    if matches!(
        x.turn,
        Turn::Add(_) | Turn::Remove(_) | Turn::Pin(_) | Turn::Unpin(_)
    ) {
        let int = |k: &str| x.reply.get(k).and_then(Json::as_u64).unwrap_or(0);
        counters.mutating += 1;
        counters.incremental +=
            u64::from(x.reply.get("incremental").and_then(Json::as_bool) == Some(true));
        counters.filters += int("filters");
        counters.candidates += shadow.candidates;
        counters.cache_hits += int("cache_hits");
        counters.cache_misses += int("cache_misses");
    }
    Ok(())
}

/// Stage probes in the style of `examples/prof_session.rs`, on the
/// example lists of the sessions plans `0..n` of `client` describe.
fn probe_stages(
    adb: &Adb,
    inputs: &Inputs,
    seed: u64,
    n: u64,
    tracer: &mut Tracer,
) -> StageMedians {
    let mut stages: Vec<StageTimes> = Vec::new();
    for ordinal in 0..n {
        let plan = plan_session(&inputs.pools, seed, 0, ordinal);
        let (table, column) = match plan.intent {
            Some(i) => (
                inputs.intents[i].table.as_str(),
                inputs.intents[i].column.as_str(),
            ),
            None => ("person", "name"),
        };
        let start = Instant::now();
        if let Some(s) = sut::time_stages(adb, table, column, &plan.examples) {
            let root = tracer.record("probe.core.stages", start, Instant::now(), None, ordinal);
            tracer.shadow("core.disambiguate", root, s.disambiguate);
            tracer.shadow("core.context", root, s.context);
            tracer.shadow("core.abduce", root, s.abduce);
            tracer.shadow("core.query_gen", root, s.query_gen);
            tracer.shadow("core.evaluate", root, s.evaluate);
            stages.push(s);
        }
    }
    StageMedians::of(&stages)
}

/// Medians of the stage probes, µs.
struct StageMedians([(&'static str, f64); 5]);

impl StageMedians {
    fn of(stages: &[StageTimes]) -> StageMedians {
        let med = |f: fn(&StageTimes) -> u64| {
            median(&stages.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
        };
        StageMedians([
            ("core.disambiguate_us", med(|s| s.disambiguate)),
            ("core.context_us", med(|s| s.context)),
            ("core.abduce_us", med(|s| s.abduce)),
            ("core.query_gen_us", med(|s| s.query_gen)),
            ("core.evaluate_us", med(|s| s.evaluate)),
        ])
    }

    fn record(&self, out: &mut Outcome) {
        for (name, v) in self.0 {
            out.set(name, v);
        }
    }
}

fn median_us(samples_ns: &[u64]) -> f64 {
    median(
        &samples_ns
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect::<Vec<_>>(),
    )
}

/// `relation.inverted.lookup_us` over the examples of plans `0..n`.
fn probe_lookups(adb: &Adb, inputs: &Inputs, seed: u64, n: u64) -> f64 {
    let values: Vec<String> = (0..n)
        .map(|o| plan_session(&inputs.pools, seed, 0, o))
        .filter(|p| p.intent.is_none())
        .flat_map(|p| p.examples)
        .collect();
    median_us(&adb.time_lookups("person", "name", &values))
}

/// Journal append cost under the two policies the served run does not
/// use (`never`, and `always` — device-dependent, reported, never gated).
fn probe_journal_policies(ctx: &Ctx, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let ops: Vec<Turn> = (0..200)
        .flat_map(|o| {
            let plan = plan_session(&inputs.pools, ctx.seed, 0, o);
            session_turns(&plan, None)
        })
        .collect();
    for (fsync, metric, take) in [
        (Fsync::Never, "core.journal.append_never_us", ops.len()),
        (
            Fsync::Always,
            "core.journal.append_always_us",
            ALWAYS_APPENDS,
        ),
    ] {
        let path = ctx.scratch(&format!("probe.{}.journal", fsync.name()));
        let samples = sut::time_journal_appends(&path, fsync, &ops[..take.min(ops.len())])?;
        let _ = std::fs::remove_file(&path);
        out.set(metric, median_us(&samples));
    }
    Ok(())
}

fn record_build(out: &mut Outcome, adb: &Adb) {
    out.set("adb.build.properties", adb.properties() as f64);
    out.set("adb.build.derived_rows", adb.derived_rows() as f64);
}

fn finish(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let path = ctx.out.join(format!("trace_{}.json", ctx.workload));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note("trace_file", Json::Str(path.display().to_string()));
    out.note("spans", Json::Int(tracer.spans().len() as i64));
    out.note("shadow_spans_clipped", Json::Int(tracer.clipped() as i64));
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(())
}

fn trace_interactive(ctx: &Ctx, journaled: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut inputs = None;
    let served = served::set_up(ctx, journaled, &mut inputs, 0)?;
    let inputs = inputs.expect("inputs derived during set-up");
    out.set("datasets.generate_s", served.generate_s);
    out.set("adb_build_s", served.build_s);
    record_build(&mut out, &served.adb);
    for log in &served.warmup {
        out.tally(log.attempted, log.failed, log.first_error.clone());
    }
    let addr = served.node.addr();
    if journaled {
        out.set(
            "journal_bytes_per_turn",
            served::journal_bytes_per_turn(&served::fleet_stats(&addr)?, &served.warmup),
        );
    }
    trace_served(
        ctx,
        &addr,
        &served.adb,
        &inputs,
        journaled.then_some(Fsync::Flush),
        &served.warmup,
        &mut tracer,
        &mut out,
    )?;
    served.node.shutdown();
    if let Some(j) = &served.journal {
        let _ = std::fs::remove_file(j);
    }
    let probes = if ctx.smoke { 50 } else { 400 };
    probe_stages(&served.adb, &inputs, ctx.seed, probes, &mut tracer).record(&mut out);
    out.set(
        "relation.inverted.lookup_us",
        probe_lookups(&served.adb, &inputs, ctx.seed, probes),
    );
    if journaled {
        probe_journal_policies(ctx, &inputs, &mut out)?;
    }
    finish(ctx, &tracer, &mut out)?;
    Ok(out)
}

fn trace_oneshot(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let (slates, generate_s, build_s) = oneshot::set_up(ctx);
    out.set("adb_build_s", build_s);
    let suites = oneshot::suites(&slates);
    out.set(
        "adb.build.properties",
        slates.iter().map(|s| s.adb.properties()).sum::<usize>() as f64,
    );
    out.set(
        "adb.build.derived_rows",
        slates.iter().map(|s| s.adb.derived_rows()).sum::<usize>() as f64,
    );
    let calls = oneshot::schedule(&suites);
    oneshot::verify_rounds(&slates, &suites, &calls, ctx.seed, &mut out);

    // engine.exec_us: intended queries plus the queries abduced for them
    // (Fig. 11) — off the discovery path, and the benchmark says so.
    let mut exec_ns: Vec<u64> = Vec::new();
    let mut lookup_ns: Vec<u64> = Vec::new();
    for call in calls.iter().filter(|c| c.k == 10) {
        let slate = &slates[call.slate];
        let intent = &suites[call.slate][call.intent];
        exec_ns.push(intent.exec_ns);
        let refs = oneshot::examples(&suites, call, ctx.seed, 0);
        if let Ok(found) = sut::discover(&slate.adb, &refs) {
            exec_ns.push(found.time_execute(&slate.ds));
        }
        let values: Vec<String> = refs.iter().map(|s| s.to_string()).collect();
        lookup_ns.extend(
            slate
                .adb
                .time_lookups(&intent.table, &intent.column, &values),
        );
    }
    out.set("engine.exec_us", median_us(&exec_ns));
    out.set("relation.inverted.lookup_us", median_us(&lookup_ns));

    // Untraced reference rounds, then as many traced ones.
    let rounds = if ctx.smoke { 2 } else { 16 };
    let first = oneshot::VERIFY_ROUNDS;
    let t = Instant::now();
    let mut reference_calls = 0u64;
    for round in first..first + rounds {
        for call in &calls {
            let refs = oneshot::examples(&suites, call, ctx.seed, round);
            std::hint::black_box(sut::discover(&slates[call.slate].adb, &refs).is_ok());
            reference_calls += 1;
        }
    }
    let untraced_tps = reference_calls as f64 / t.elapsed().as_secs_f64();

    let mut discover_ns: Vec<u64> = Vec::new();
    let mut stages: Vec<StageTimes> = Vec::new();
    let t = Instant::now();
    let mut request_id = 0;
    for round in first + rounds..first + 2 * rounds {
        for call in &calls {
            let slate = &slates[call.slate];
            let intent = &suites[call.slate][call.intent];
            let refs = oneshot::examples(&suites, call, ctx.seed, round);
            let start = Instant::now();
            let result = sut::discover(&slate.adb, &refs);
            let end = Instant::now();
            out.check(result.is_ok(), || format!("{}: discover failed", intent.id));
            request_id += 1;
            let root = tracer.record("core.squid.discover", start, end, None, request_id);
            discover_ns.push((end - start).as_nanos() as u64);
            let values: Vec<String> = refs.iter().map(|s| s.to_string()).collect();
            if let Some(s) = sut::time_stages(&slate.adb, &intent.table, &intent.column, &values) {
                tracer.shadow("core.disambiguate", root, s.disambiguate);
                tracer.shadow("core.context", root, s.context);
                tracer.shadow("core.abduce", root, s.abduce);
                tracer.shadow("core.query_gen", root, s.query_gen);
                tracer.shadow("core.evaluate", root, s.evaluate);
                stages.push(s);
            }
        }
    }
    let traced_tps = request_id as f64 / t.elapsed().as_secs_f64();
    out.set("trace_overhead_share", 1.0 - traced_tps / untraced_tps);
    out.set("core.squid.discover_us", median_us(&discover_ns));
    StageMedians::of(&stages).record(&mut out);
    out.set("datasets.generate_s", generate_s);
    finish(ctx, &tracer, &mut out)?;
    Ok(out)
}

fn trace_lifecycle(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut boots = Boots {
        inputs: None,
        bootstrap_journal: None,
    };
    let boot_start = Instant::now();
    let pair = lifecycle::boot(ctx, &mut boots, 0, true, &mut out)?;
    let p = pair.phases;
    record_build(&mut out, &pair.adb);
    // The boot's phases as spans, laid end to end from the boot's start.
    let mut at = boot_start;
    for (name, secs) in [
        ("datasets.generate", p.generate_s),
        ("adb.build", p.build_s),
        ("adb.snapshot.save", p.save_s),
        ("adb.snapshot.load", p.load_s),
        ("core.journal.recover", p.recover_s),
        ("core.journal.compact", p.compact_s),
        ("core.journal.recover_compacted", p.recover_compacted_s),
        ("serve.server.start", p.primary_start_s),
        ("serve.replication.standby_warm", p.standby_warm_s),
    ] {
        let end = at + Duration::from_secs_f64(secs);
        tracer.record(name, at, end, None, 0);
        at = end;
    }

    // Layer probes of the read side.
    let ds = sut::generate(Kind::Imdb, ctx.scale);
    let ((), inverted_s) = served::timed(|| ds.build_inverted_index());
    let (rows, elapsed) = ds.time_kernel_scans(if ctx.smoke { 20 } else { 200 });
    out.set(
        "relation.kernel.scan_rows_per_s",
        rows as f64 / elapsed.as_secs_f64(),
    );
    out.note("simd_tier", Json::str(sut::simd_tier()));
    drop(ds);
    let bootstrap = boots
        .bootstrap_journal
        .as_ref()
        .expect("written by the boot");
    out.set(
        "core.journal.tail_poll_us",
        median_us(&sut::time_tail_polls(bootstrap, 500)?),
    );

    // The served half, traced: journal + standby attached.
    let inputs = boots.inputs.as_ref().expect("derived by the boot");
    let addr = pair.primary.addr();
    let records_before = served::fleet_stats(&addr)?;
    let t = Instant::now();
    trace_served(
        ctx,
        &addr,
        &pair.adb,
        inputs,
        Some(Fsync::Flush),
        &[],
        &mut tracer,
        &mut out,
    )?;
    lifecycle::wait_for_lag_zero(&addr)?;
    let streamed_s = t.elapsed().as_secs_f64();
    out.set(
        "serve.replication.stream_records_per_s",
        (served::journal_records(&served::fleet_stats(&addr)?)
            - served::journal_records(&records_before))
            / streamed_s,
    );
    pair.tear_down();
    let _ = std::fs::remove_file(bootstrap);
    lifecycle::record_phases(&mut out, &[p]);
    out.set("relation.inverted.build_s", inverted_s);
    // From outside, the build's statistics pass is what the index build
    // does not account for.
    out.set("adb.build.stats_s", (p.build_s - inverted_s).max(0.0));
    finish(ctx, &tracer, &mut out)?;
    Ok(out)
}

/// The traced run of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        "interactive_mem" => trace_interactive(ctx, false),
        "interactive_journaled" => trace_interactive(ctx, true),
        "oneshot_discover" => trace_oneshot(ctx),
        "lifecycle_ops" => trace_lifecycle(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}
