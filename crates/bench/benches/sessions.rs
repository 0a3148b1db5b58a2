//! `multi_session` — the fleet-serving counterpart of `incr_session`:
//! N concurrent-style sessions over one shared `Arc<ADb>` replaying
//! overlapping filter workloads, measuring what the manager-level
//! [`SharedFilterSetCache`] buys.
//!
//! * `cold_session` — a fresh manager (empty shared cache) runs one
//!   session through the slate: every filter bitmap is computed from αDB
//!   postings. This is the cold-turn baseline.
//! * `warm_session` — a manager whose shared cache was already populated
//!   by a previous session hosts a brand-new session replaying the same
//!   slate: every filter it looks up was published by the earlier
//!   session, so every turn is served cross-session from the shards.
//! * `fleet_shared` — an 8-session fleet replays two overlapping slates
//!   through the one cache: hot filters become a process-wide one-time
//!   cost.
//!
//! After the timed runs the warm manager's hit rate and resident bytes
//! are printed so recorded runs carry the cache effectiveness alongside
//! the latency numbers.
//!
//! Two more ids time the served turns whose cost used to grow with the
//! *result* instead of with the filter (the benchmark's trace put both in
//! the p99 tail): `suggest/wide_result` — `suggest(3)` on a scattered
//! 8-example session whose result is at least half the table — and
//! `incr_session/add_wide_filter` — an add whose newly chosen filter
//! matches more than a quarter of the table, so it is not materialized
//! and restricts a wide previous result in place.
//!
//! Four ids time from-scratch evaluation (`squid_core::evaluate`, what a
//! one-shot `Squid::discover` runs) where its cost used to grow with the
//! table or with a value's popularity instead of with the answer:
//! `evaluate/empty` (no filter chosen), `evaluate/wide_conjunction`
//! (several filters each matching over a quarter of the table),
//! `evaluate/derived_theta` (a θ-filter over a popular value — few
//! satisfying rows on long postings — beside a categorical filter that
//! matches more rows than it) and `evaluate/derived_ge_only` (one
//! suffix-range filter, the kind that had no postings).

use std::sync::{Arc, OnceLock};

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use squid_adb::ADb;
use squid_bench::{params_for, sample_examples};
use squid_core::{
    discover_contexts, evaluate, CandidateFilter, FilterValue, SessionManager, SessionOp,
    SquidSession,
};
use squid_datasets::{generate_imdb_variant, imdb_queries, ImdbConfig, ImdbVariant};
use squid_relation::Database;

const FLEET: usize = 8;

/// Drive one session through a slate inside `manager` — one `apply_op`
/// per example, the path a served turn takes — returning the result size
/// (kept live so the work cannot be optimized away).
fn replay(manager: &SessionManager, slate: &[&str]) -> usize {
    let id = manager.create_session();
    for e in slate {
        let op = SessionOp::AddExample((*e).to_string());
        manager.apply_op(id, &op).expect("replay succeeds");
    }
    let rows = manager
        .with_session(id, |s| {
            Ok(s.discovery().expect("slate resolves").rows.len())
        })
        .expect("the session is live");
    manager.close_session(id).expect("the session is live");
    rows
}

/// Bigger and denser than the fig9a dataset: cross-session reuse pays off
/// in proportion to postings length (cold walks grow with the
/// associations, warm bitmap ANDs only with n/64 words).
fn big_dense() -> &'static (Database, Arc<ADb>) {
    static SLATE: OnceLock<(Database, Arc<ADb>)> = OnceLock::new();
    SLATE.get_or_init(|| {
        let cfg = ImdbConfig {
            persons: 12_000,
            movies: 8_000,
            ..ImdbConfig::default()
        };
        let db = generate_imdb_variant(&cfg, ImdbVariant::BigDense);
        let adb = Arc::new(ADb::build(&db).unwrap());
        (db, adb)
    })
}

fn bench_multi_session(c: &mut Criterion) {
    let (db, adb) = big_dense();
    let queries = imdb_queries(db);
    let params = params_for("imdb");
    // Two overlapping workloads: both slates are drawn from IQ15 with
    // different seeds, so fleets replaying them share most (not all) of
    // their abduced filters — the realistic popular-filter overlap.
    let q = queries.iter().find(|q| q.id == "IQ15").unwrap();
    let (examples_a, _) = sample_examples(db, &q.query, 10, 3);
    let (examples_b, _) = sample_examples(db, &q.query, 10, 7);
    let slate_a: Vec<&str> = examples_a.iter().map(String::as_str).collect();
    let slate_b: Vec<&str> = examples_b.iter().map(String::as_str).collect();

    let mut group = c.benchmark_group("multi_session");

    // Cold: a fresh manager per iteration — the shared cache starts empty,
    // so the session computes every admitted bitmap from postings.
    group.bench_with_input(BenchmarkId::new("cold_session", 10), &slate_a, |b, s| {
        b.iter_batched(
            || SessionManager::with_params(Arc::clone(adb), params.clone()),
            |m| replay(&m, s),
            BatchSize::SmallInput,
        )
    });

    // Warm: the shared cache was populated by an earlier session; each
    // iteration creates a NEW session and replays the same turns — pure
    // cross-session reuse.
    let warm = SessionManager::with_params(Arc::clone(adb), params.clone());
    replay(&warm, &slate_a);
    group.bench_with_input(BenchmarkId::new("warm_session", 10), &slate_a, |b, s| {
        b.iter(|| replay(&warm, std::hint::black_box(s)))
    });

    // Fleet: 8 sessions alternating between the two overlapping slates.
    group.bench_function(format!("fleet_shared/{FLEET}"), |b| {
        b.iter_batched(
            || SessionManager::with_params(Arc::clone(adb), params.clone()),
            |m| {
                let mut total = 0;
                for i in 0..FLEET {
                    let slate = if i % 2 == 0 { &slate_a } else { &slate_b };
                    total += replay(&m, slate);
                }
                total
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Cache-effectiveness report for the warm manager (many whole-slate
    // replays by now): hit rate and bounded residency.
    if let Some(stats) = warm.shared_cache_stats() {
        let total = stats.hits + stats.misses;
        let rate = if total > 0 {
            100.0 * stats.hits as f64 / total as f64
        } else {
            0.0
        };
        eprintln!(
            "multi_session shared cache: {} hits / {} misses ({rate:.0}% hit rate), \
             {} entries, {} / {} resident bytes, {} evictions",
            stats.hits,
            stats.misses,
            stats.entries,
            stats.resident_bytes,
            stats.max_resident_bytes,
            stats.evictions
        );
        assert!(
            stats.resident_bytes <= stats.max_resident_bytes,
            "shared cache must respect its byte bound"
        );
    }
}

/// Turns over a *wide* result. Scattered examples (persons with nothing
/// planted in common) abduce almost nothing, so the result stays most of
/// the table; the slates are found by search, not hard-coded, so a
/// generator change moves the slate instead of silently emptying the bench.
fn bench_wide_turns(c: &mut Criterion) {
    let (_, adb) = big_dense();
    let n = adb.entity("person").unwrap().n;
    let params = params_for("imdb");
    let scattered = |start: usize| -> Vec<String> {
        (0..8)
            .map(|i| format!("Person {:06}", (start + i * 1499) % n))
            .collect()
    };

    let wide_result = (0..n)
        .find_map(|start| {
            let mut s = SquidSession::shared_with_params(Arc::clone(adb), params.clone());
            for e in scattered(start) {
                s.add_example(&e).ok()?;
            }
            (s.discovery()?.rows.len() >= n / 2 && !s.suggest(3).is_empty()).then_some(s)
        })
        .expect("a scattered session with a wide result and a contested filter");
    c.bench_function("suggest/wide_result", |b| {
        b.iter(|| wide_result.suggest(std::hint::black_box(3)))
    });

    // The session just before, and the example of, an add-only turn that
    // newly chooses a postings-backed filter matching > n/4 rows while at
    // least n/2 rows survive: too wide to admit, so `restrict_rows` applies
    // it to the previous result directly.
    let (before, example) = (0..n)
        .find_map(|start| {
            let mut s = SquidSession::shared_with_params(Arc::clone(adb), params.clone());
            for e in scattered(start) {
                let before = s.clone();
                let survivors = s.discovery().map_or(0, |d| d.rows.len());
                let delta = s.add_example(&e).ok()?;
                let wide_add = delta.removed_filters.is_empty()
                    && survivors >= n / 2
                    && delta.discovery.as_ref()?.scored.iter().any(|f| {
                        f.included
                            && f.filter.selectivity > 0.25
                            && !matches!(f.filter.value, FilterValue::DerivedGe { .. })
                            && delta.added_filters.contains(&f.filter.describe())
                    });
                if wide_add {
                    return Some((before, e));
                }
            }
            None
        })
        .expect("a scattered add that newly chooses a wide filter");
    c.bench_function("incr_session/add_wide_filter", |b| {
        b.iter_batched(
            || before.clone(),
            |mut s| s.add_example(std::hint::black_box(&example)).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// From-scratch evaluation of filter sets found by search among the
/// contexts of scattered persons (see the module docs), so a generator
/// change moves the slates instead of silently emptying the bench.
fn bench_evaluate(c: &mut Criterion) {
    let (_, adb) = big_dense();
    let entity = adb.entity("person").unwrap();
    let n = entity.n;
    let params = params_for("imdb");
    let matches = |f: &CandidateFilter| evaluate(entity, std::slice::from_ref(f)).len();
    let scattered = (0..n).step_by(n / 48);
    let singles: Vec<CandidateFilter> = scattered
        .clone()
        .flat_map(|row| discover_contexts(entity, &[row], &params))
        .collect();
    let pairs: Vec<Vec<CandidateFilter>> = scattered
        .map(|row| discover_contexts(entity, &[row, (row + 1499) % n], &params))
        .collect();

    c.bench_function("evaluate/empty", |b| {
        b.iter(|| evaluate(entity, std::hint::black_box(&[])))
    });

    // The pair whose contexts hold the most filters wider than a quarter
    // of the table; the conjunction is those filters.
    let wide: Vec<CandidateFilter> = pairs
        .iter()
        .map(|filters| {
            filters
                .iter()
                .filter(|f| f.selectivity > 0.25)
                .cloned()
                .collect::<Vec<_>>()
        })
        .max_by_key(Vec::len)
        .filter(|wide| wide.len() >= 3)
        .expect("a pair of persons sharing three wide contexts");
    c.bench_function("evaluate/wide_conjunction", |b| {
        b.iter(|| evaluate(entity, std::hint::black_box(&wide)))
    });

    // ⟨A, v, θ⟩ with few satisfying rows over a value many entities are
    // associated with, and a categorical filter in between the two sizes:
    // the pair with the longest postings under the θ-filter.
    let theta_pair = singles
        .iter()
        .filter_map(|f| match &f.value {
            FilterValue::DerivedEq { value, theta } if *theta >= 2 => {
                let associated = matches(&CandidateFilter {
                    value: FilterValue::DerivedEq {
                        value: *value,
                        theta: 1,
                    },
                    ..f.clone()
                });
                Some((associated, matches(f), f))
            }
            _ => None,
        })
        .filter_map(|(associated, satisfying, f)| {
            let cat = singles.iter().find(|c| {
                matches!(c.value, FilterValue::CatEq(_))
                    && (satisfying + 1..associated).contains(&matches(c))
            })?;
            Some((associated, vec![cat.clone(), f.clone()]))
        })
        .max_by_key(|(associated, _)| *associated)
        .map(|(_, filters)| filters)
        .expect("a θ-filter over a popular value beside a wider categorical filter");
    c.bench_function("evaluate/derived_theta", |b| {
        b.iter(|| evaluate(entity, std::hint::black_box(&theta_pair)))
    });

    let ge_only: Vec<CandidateFilter> = pairs
        .iter()
        .flatten()
        .find(|f| matches!(f.value, FilterValue::DerivedGe { .. }) && f.selectivity <= 0.25)
        .cloned()
        .into_iter()
        .collect();
    assert!(
        !ge_only.is_empty(),
        "a pair of persons sharing a suffix range"
    );
    c.bench_function("evaluate/derived_ge_only", |b| {
        b.iter(|| evaluate(entity, std::hint::black_box(&ge_only)))
    });
}

criterion_group!(
    benches,
    bench_multi_session,
    bench_wide_turns,
    bench_evaluate
);
criterion_main!(benches);
