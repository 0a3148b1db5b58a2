//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`-- spec`), and a unit test holds
//! the checked-in file to them.

use crate::sut::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// A workload and why it exists.
pub struct Workload {
    /// Name on the command line and in result files.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "interactive_mem",
        why: "served Figure-1 sessions over TCP, no journal: core session loop + adb caches + serve wire/JSON; journal and replication idle",
    },
    Workload {
        name: "interactive_journaled",
        why: "same traffic and seed with the journal attached (fsync=flush, the shipped default): the delta to interactive_mem is the durability tax",
    },
    Workload {
        name: "oneshot_discover",
        why: "in-process Squid::discover over every IMDb/DBLP/Adult benchmark query, caches bypassed: serve/journal changes must predict no change here",
    },
    Workload {
        name: "lifecycle_ops",
        why: "operator path: build, snapshot save/load, journal recover/compact, standby bootstrap as set-up, then served turns with journal and standby attached",
    },
];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput, accuracy.
    Higher,
    /// Time, memory.
    Lower,
}

impl Better {
    /// Spelling in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's declaration.
pub struct Metric {
    /// Name, exactly as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: reported by every workload with tracing off.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("turns_per_s", "1/s", Better::Higher, 0.25),
    e2e("turn_p50_us", "us", Better::Lower, 0.25),
    e2e("turn_p99_us", "us", Better::Lower, 0.25),
    e2e("intent_fscore", "ratio", Better::Higher, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics: reported by every workload's traced run; 0 where
/// the workload does not exercise the layer (that *is* the prediction:
/// `serve.*` on `oneshot_discover`, `core.journal.append_*` on
/// `interactive_mem`, …).
pub const PER_LAYER: [Metric; 71] = [
    // Outcome counters that cannot be end-to-end metrics under the
    // driver's contract (they are 0 by design, or exist on one workload).
    layer("failed_share", "ratio", L),
    layer("journal_bytes_per_turn", "B", L),
    layer("snapshot_load_s", "s", L),
    layer("recover_s", "s", L),
    layer("standby_warm_s", "s", L),
    layer("adb_build_s", "s", L),
    layer("trace_overhead_share", "ratio", L),
    // datasets
    layer("datasets.generate_s", "s", L),
    // relation
    layer("relation.inverted.lookup_us", "us", L),
    layer("relation.inverted.build_s", "s", L),
    layer("relation.kernel.scan_rows_per_s", "1/s", H),
    // engine
    layer("engine.exec_us", "us", L),
    // adb
    layer("adb.build.stats_s", "s", L),
    layer("adb.build.properties", "count", H),
    layer("adb.build.derived_rows", "count", L),
    layer("adb.snapshot.save_s", "s", L),
    layer("adb.snapshot.load_s", "s", L),
    layer("adb.snapshot.bytes", "B", L),
    layer("adb.cache.session_hit_ratio", "ratio", H),
    layer("adb.cache.shared_hit_ratio", "ratio", H),
    layer("adb.cache.shared_publishes", "count", L),
    layer("adb.cache.evictions", "count", L),
    layer("adb.cache.resident_bytes", "B", L),
    // core
    layer("core.disambiguate_us", "us", L),
    layer("core.context_us", "us", L),
    layer("core.abduce_us", "us", L),
    layer("core.query_gen_us", "us", L),
    layer("core.evaluate_us", "us", L),
    layer("core.session.add_us", "us", L),
    layer("core.session.remove_us", "us", L),
    layer("core.session.pin_us", "us", L),
    layer("core.session.suggest_us", "us", L),
    layer("core.session.incremental_ratio", "ratio", H),
    layer("core.candidates_per_turn", "count", L),
    layer("core.filters_per_turn", "count", L),
    layer("core.squid.discover_us", "us", L),
    layer("core.manager.apply_us", "us", L),
    layer("core.manager.overhead_us", "us", L),
    // core.journal
    layer("core.journal.append_flush_us", "us", L),
    layer("core.journal.append_never_us", "us", L),
    layer("core.journal.append_always_us", "us", L),
    layer("core.journal.fsyncs_per_turn", "count", L),
    layer("core.journal.replay_records_per_s", "1/s", H),
    layer("core.journal.compact_ms", "ms", L),
    layer("core.journal.compact_ratio", "ratio", L),
    layer("core.journal.recover_compacted_s", "s", L),
    layer("core.journal.tail_poll_us", "us", L),
    // serve
    layer("serve.wire.ping_rt_us", "us", L),
    layer("serve.json.parse_us", "us", L),
    layer("serve.json.encode_us", "us", L),
    layer("serve.protocol.parse_request_us", "us", L),
    layer("serve.reply_bytes_per_turn", "B", L),
    layer("serve.server.turn_rt_us.add", "us", L),
    layer("serve.server.turn_rt_us.remove", "us", L),
    layer("serve.server.turn_rt_us.pin", "us", L),
    layer("serve.server.turn_rt_us.sql", "us", L),
    layer("serve.server.turn_rt_us.suggest", "us", L),
    layer("serve.server.turn_rt_us.rows", "us", L),
    layer("serve.server.turn_rt_us.create", "us", L),
    layer("serve.server.turn_rt_us.close", "us", L),
    layer("serve.server.unattributed_us", "us", L),
    layer("serve.server.requests", "count", H),
    layer("serve.server.turns", "count", H),
    layer("serve.server.protocol_errors", "count", L),
    layer("serve.server.rejected_overloaded", "count", L),
    layer("serve.server.rate_limited", "count", L),
    layer("serve.server.shed", "count", L),
    layer("serve.replication.bootstrap_s", "s", L),
    layer("serve.replication.snap_bytes", "B", L),
    layer("serve.replication.stream_records_per_s", "1/s", H),
    layer("trace.root_sum_error", "ratio", L),
];

/// Notes on how the metrics interact (recorded in `README.md`; kept here
/// so `-- run` can print them next to the numbers they qualify).
pub const INTERACTION_NOTES: [&str; 3] = [
    "closed loop, nproc lock-step clients: nothing queues, so a faster layer saves at most its self-time share of turn_p50_us",
    "turn_p99_us on served workloads is set by each session's first (non-incremental) add: it follows core.context_us/core.evaluate_us, not the wire",
    "journal append sits under the session mutex: it adds to every mutating turn of interactive_journaled and lifecycle_ops, to no read verb",
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric, bounded: bool| {
        let mut members = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if bounded {
            members.push(("bound", Json::Float(m.bound)));
        }
        Json::obj(members)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

/// `BENCHMARK.json` as checked in: one top-level key per block, one
/// workload or metric per line.
pub fn benchmark_json_text() -> String {
    let Json::Obj(members) = benchmark_json() else {
        unreachable!("benchmark_json builds an object")
    };
    let blocks: Vec<String> = members
        .iter()
        .map(|(key, value)| match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                let lines: Vec<String> = items
                    .iter()
                    .map(|i| format!("    {}", i.encode()))
                    .collect();
                format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
            }
            _ => format!("  \"{key}\": {}", value.encode()),
        })
        .collect();
    format!("{{\n{}\n}}", blocks.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}",
                m.unit
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = crate::sut::parse_json(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(parsed, benchmark_json(), "regenerate with `-- spec`");
        assert!(on_disk.len() <= 64 << 10);
    }
}
