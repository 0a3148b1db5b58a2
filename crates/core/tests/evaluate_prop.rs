//! The set-algebra evaluator ≡ the per-row definition of evaluation.
//!
//! `evaluate`, `evaluate_cached` (cold and warm) and `filter_row_set` read
//! every filter through its source — a resident bitmap, a dense value
//! bitmap borrowed from the αDB, or an exact slice of postings — and must
//! return exactly the rows `evaluate_per_row` finds by asking every row.
//! Swept here over every filter kind at the edges of its postings (every θ
//! up to one past the largest count, every cutpoint, values on both sides
//! of the dense crossover, `IN` lists whose values share rows, signed-zero
//! / empty / inverted ranges), on the two hand-built fixtures, the
//! generated 400-person slate and that slate loaded back from a snapshot;
//! then over random conjunctions of 0–6 of those filters. A 4 000-person
//! slate reaches the evaluator's other representation: conjunctions whose
//! smallest set is small enough to be kept as sorted row ids, followed by
//! filters in every role that list meets (dense and cached bitmaps, slices
//! walked, probed, or handed over to a bitmap). The sizes the
//! evaluator orders by are held to the same oracle: `match_estimate` is the
//! per-row count for the four exact kinds, and so is `round(ψ · n)` — for
//! normalized fractions too, whose ψ walks the evaluator's own test.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb, EntityProps, FilterSetCache, PropStats, Property, ValueRows};
use squid_core::{
    evaluate, evaluate_cached, evaluate_per_row, filter_row_set, match_estimate, CandidateFilter,
    FilterValue,
};
use squid_datasets::{generate_imdb, ImdbConfig};
use squid_relation::{Column, DataType, Database, RowSet, TableSchema, Value};

fn filter(prop: &Property, value: FilterValue, selectivity: f64) -> CandidateFilter {
    CandidateFilter {
        prop_id: prop.id_sym,
        attr_name: prop.attr_sym,
        value,
        selectivity,
        coverage: 0.5,
    }
}

/// One entity with a float attribute holding both zeros, a NULL and
/// duplicates: the range postings must treat `-0.0 == 0.0` as IEEE does.
fn signed_zero_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "probe",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::new("x", DataType::Float),
            ],
        )
        .with_primary_key("id"),
    )
    .unwrap();
    let xs = [
        Some(-2.5),
        Some(-0.0),
        Some(0.0),
        None,
        Some(0.0),
        Some(1.0),
        Some(-0.0),
        Some(7.25),
        Some(1.0),
    ];
    for (i, x) in xs.iter().enumerate() {
        db.insert(
            "probe",
            vec![
                Value::Int(i as i64),
                Value::text(format!("probe {i}")),
                x.map_or(Value::Null, Value::Float),
            ],
        )
        .unwrap();
    }
    db
}

/// The αDBs the sweep runs on: fixtures, the generated slate, and the
/// generated slate as `load_snapshot` rebuilds it.
fn adbs() -> &'static Vec<(&'static str, ADb)> {
    static A: OnceLock<Vec<(&'static str, ADb)>> = OnceLock::new();
    A.get_or_init(|| {
        let generated = ADb::build(&generate_imdb(&ImdbConfig::tiny())).unwrap();
        let mut bytes = Vec::new();
        generated.save_snapshot_to(&mut bytes).unwrap();
        let loaded = ADb::load_snapshot_from(&mut bytes.as_slice()).unwrap();
        vec![
            (
                "mini_imdb",
                ADb::build(&test_fixtures::mini_imdb()).unwrap(),
            ),
            ("figure6", ADb::build(&test_fixtures::figure6_db()).unwrap()),
            ("signed_zero", ADb::build(&signed_zero_db()).unwrap()),
            ("generated", generated),
            ("generated, loaded", loaded),
        ]
    })
}

/// How many filters of each representation a sweep met.
#[derive(Debug, Default)]
struct Seen {
    dense: usize,
    sparse: usize,
    absent: usize,
    derived_eq: usize,
    derived_ge: usize,
    cat_in_shared: usize,
    ranges: usize,
}

/// Which of a filter's sizes the statistics know exactly; the others are
/// upper bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exact {
    /// ψ·n and `match_estimate`.
    Both,
    /// ψ·n only (`DerivedFrac`: its walk keeps a subset of its postings).
    Psi,
    /// Neither (`CatIn`: its values may share rows).
    Neither,
}

/// Every single-filter probe of one property, each with the ψ the
/// statistics report for it and which of its sizes are exact. Domains are
/// read through the per-row accessors.
fn sweep(entity: &EntityProps, prop: &Property, seen: &mut Seen) -> Vec<(CandidateFilter, Exact)> {
    let n = entity.n;
    let mut out = Vec::new();
    match &prop.stats {
        PropStats::Categorical(s) => {
            let values_of = |row| s.codes_of(row).iter().map(|&code| s.value(code));
            let psi_eq = |v: &Value| s.code_of(v).map_or(0.0, |code| s.selectivity_code(code, n));
            let mut domain: Vec<Value> = (0..n).flat_map(values_of).collect();
            domain.sort();
            domain.dedup();
            assert_eq!(domain.len(), s.domain_size());
            for v in &domain {
                match s.rows_with(v).expect("a domain value has rows") {
                    ValueRows::Dense(_) => seen.dense += 1,
                    ValueRows::Sparse(_) => seen.sparse += 1,
                }
                out.push((filter(prop, FilterValue::CatEq(*v), psi_eq(v)), Exact::Both));
            }
            let absent = Value::text("no such value");
            seen.absent += 1;
            out.push((
                filter(prop, FilterValue::CatEq(absent), psi_eq(&absent)),
                Exact::Both,
            ));
            // `IN` lists: the value sets of multi-valued rows (their values
            // share at least that row), neighbouring domain values, and a
            // list with an absent value in it.
            let mut lists: Vec<Vec<Value>> = (0..n)
                .map(|row| values_of(row).collect::<Vec<_>>())
                .filter(|vs| vs.len() > 1)
                .collect();
            lists.sort();
            lists.dedup();
            seen.cat_in_shared += lists.len();
            lists.extend(domain.windows(2).map(<[Value]>::to_vec));
            lists.push(domain.iter().copied().take(1).chain([absent]).collect());
            for vs in lists {
                let psi = s.selectivity_in(&vs, n);
                out.push((filter(prop, FilterValue::CatIn(vs), psi), Exact::Neither));
            }
        }
        PropStats::Numeric(s) => {
            let (Some(lo), Some(hi)) = (s.min(), s.max()) else {
                return out;
            };
            let mut values: Vec<f64> = (0..n).filter_map(|row| s.value_of(row)).collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            let mid = values[values.len() / 2];
            let ranges = [
                (lo, hi),
                (lo, mid),
                (mid, mid),
                (mid, hi),
                (hi, lo),             // inverted unless the domain is one value
                (hi + 1.0, hi + 2.0), // above everything
                (lo - 2.0, lo - 1.0), // below everything
                (f64::NEG_INFINITY, f64::INFINITY),
                (-0.0, 0.0),
                (0.0, -0.0),
                (0.0, 0.0),
                (-0.0, -0.0),
                (-0.0, hi),
                (lo, -0.0),
            ];
            seen.ranges += ranges.len();
            for (l, h) in ranges {
                let psi = s.selectivity_range(l, h, n);
                out.push((filter(prop, FilterValue::NumRange(l, h), psi), Exact::Both));
            }
        }
        PropStats::Derived(s) => {
            let mut max_count: std::collections::BTreeMap<Value, u64> = Default::default();
            for row in 0..n {
                for &(code, c) in s.runs_of(row) {
                    let m = max_count.entry(s.value(code)).or_insert(0);
                    *m = (*m).max(u64::from(c));
                }
            }
            assert_eq!(max_count.len(), s.domain_size());
            max_count.insert(Value::text("no such value"), 0);
            for (v, max) in max_count {
                let code = s.domain().binary_search(&v).ok().map(|code| code as u32);
                for theta in 1..=max + 1 {
                    seen.derived_eq += 1;
                    let psi = code.map_or(0.0, |code| s.selectivity_code(code, theta, n));
                    out.push((
                        filter(prop, FilterValue::DerivedEq { value: v, theta }, psi),
                        Exact::Both,
                    ));
                }
                // Positive shares only: at 0 the per-row definition admits
                // entities not associated with the value at all.
                for frac in [0.25, 0.5, 1.0, 1.5] {
                    let value = FilterValue::DerivedFrac {
                        value: v,
                        frac,
                        raw_theta: 1,
                    };
                    let psi = code.map_or(0.0, |code| s.selectivity_frac_code(code, frac, n));
                    out.push((filter(prop, value, psi), Exact::Psi));
                }
            }
        }
        PropStats::DerivedNumeric(s) => {
            let mut cuts = s.cutpoints().to_vec();
            if let (Some(&lo), Some(&hi)) = (cuts.first(), cuts.last()) {
                // Between two cutpoints, below the first, above the last.
                cuts.extend([lo - 1.0, hi + 1.0, lo + 0.5]);
            }
            for cut in cuts {
                let mut counts: Vec<u64> = (0..n)
                    .map(|row| s.suffix_count_of(row, cut))
                    .filter(|&c| c > 0)
                    .collect();
                counts.sort_unstable();
                let max = counts.last().copied().unwrap_or(0);
                let median = counts.get(counts.len() / 2).copied().unwrap_or(1);
                let mut thetas = vec![1, median, max.max(1), max + 1];
                thetas.dedup();
                for theta in thetas {
                    seen.derived_ge += 1;
                    let psi = s.postings_ge(cut, theta).len() as f64 / n as f64;
                    out.push((
                        filter(prop, FilterValue::DerivedGe { cut, theta }, psi),
                        Exact::Both,
                    ));
                }
            }
        }
    }
    out
}

/// Every evaluation path against the per-row definition.
fn assert_all_paths(
    entity: &EntityProps,
    filters: &[CandidateFilter],
    cache: &mut FilterSetCache,
    what: &str,
) -> RowSet {
    let want = evaluate_per_row(entity, filters);
    assert_eq!(evaluate(entity, filters), want, "uncached, {what}");
    assert_eq!(
        evaluate_cached(entity, filters, cache),
        want,
        "cached, {what}"
    );
    let misses = cache.misses();
    assert_eq!(
        evaluate_cached(entity, filters, cache),
        want,
        "cached again, {what}"
    );
    assert_eq!(
        cache.misses(),
        misses,
        "a warm repeat admits nothing, {what}"
    );
    let mut fresh = FilterSetCache::new(cache.generation());
    assert_eq!(
        evaluate_cached(entity, filters, &mut fresh),
        want,
        "cold cache, {what}"
    );
    want
}

#[test]
fn every_filter_kind_matches_the_per_row_definition_at_every_edge() {
    for (name, adb) in adbs() {
        let mut seen = Seen::default();
        for entity in adb.entities.values() {
            let mut cache = FilterSetCache::new(adb.generation);
            for prop in &entity.props {
                for (f, exact) in sweep(entity, prop, &mut seen) {
                    let what = format!("{name}: {}", f.describe());
                    let want =
                        assert_all_paths(entity, std::slice::from_ref(&f), &mut cache, &what);
                    assert_eq!(filter_row_set(entity, &f, prop), want, "{what}");
                    let m = match_estimate(&f, prop);
                    if exact == Exact::Both {
                        assert_eq!(m, want.len(), "match_estimate, {what}");
                    } else {
                        assert!(m >= want.len(), "match_estimate bounds, {what}");
                    }
                    if exact != Exact::Neither {
                        assert_eq!(
                            (f.selectivity * entity.n as f64).round() as usize,
                            want.len(),
                            "ψ·n, {what}"
                        );
                    }
                }
            }
        }
        // Both encodings of a categorical value must have been through the
        // sweep where the slate is large enough to hold both; on a handful
        // of rows every value is dense.
        assert!(seen.dense > 0 && seen.absent > 0, "{name}: {seen:?}");
        if name.starts_with("generated") {
            assert!(
                seen.sparse > 0
                    && seen.derived_eq > 0
                    && seen.derived_ge > 0
                    && seen.cat_in_shared > 0
                    && seen.ranges > 0,
                "{name}: {seen:?}"
            );
        }
    }
}

/// Satellite (ii): evaluation starts from the smallest *exact* set. A
/// θ-filter over a popular value satisfies few rows yet sits on long
/// postings; the sizes reported must be the satisfying rows, so it — not
/// the categorical filter that is shorter than its postings — goes first.
#[test]
fn sizes_are_satisfying_rows_not_postings_walked() {
    let (_, adb) = &adbs()[3];
    let entity = adb.entity("person").unwrap();
    let mut seen = Seen::default();
    let mut found = 0;
    // Each filter's per-row rows are computed once, not once per pair; a
    // pair's are then the rows both hold, as the per-row definition of a
    // conjunction reads.
    let cats: Vec<(CandidateFilter, &Property, RowSet)> = entity
        .props
        .iter()
        .filter(|p| matches!(p.stats, PropStats::Categorical(_)))
        .flat_map(|p| {
            sweep(entity, p, &mut seen)
                .into_iter()
                .filter(|(f, _)| matches!(f.value, FilterValue::CatEq(_)))
                .map(move |(f, _)| (f, p))
        })
        .map(|(f, p)| {
            let rows = evaluate_per_row(entity, std::slice::from_ref(&f));
            (f, p, rows)
        })
        .collect();
    for prop in &entity.props {
        let PropStats::Derived(s) = &prop.stats else {
            continue;
        };
        for (theta_filter, _) in sweep(entity, prop, &mut seen) {
            let FilterValue::DerivedEq { value, theta } = &theta_filter.value else {
                continue;
            };
            let (satisfying, postings) = (
                s.postings_ge(value, *theta).len(),
                s.postings_ge(value, 1).len(),
            );
            let theta_rows = evaluate_per_row(entity, std::slice::from_ref(&theta_filter));
            for (cat, cat_prop, cat_rows) in &cats {
                let carried = match_estimate(cat, cat_prop);
                if !(0 < satisfying && satisfying < carried && carried < postings) {
                    continue;
                }
                found += 1;
                assert_eq!(match_estimate(&theta_filter, prop), satisfying);
                assert_eq!(theta_rows.len(), satisfying);
                assert_eq!(cat_rows.len(), carried);
                let both = [cat.clone(), theta_filter.clone()];
                assert_eq!(evaluate(entity, &both), cat_rows.intersection(&theta_rows));
            }
        }
    }
    assert!(
        found > 0,
        "no slate where ψ order and postings order disagree"
    );
}

/// The single filters of the generated slate's two entities, for the
/// random conjunctions.
fn pool() -> &'static Vec<Vec<CandidateFilter>> {
    static P: OnceLock<Vec<Vec<CandidateFilter>>> = OnceLock::new();
    P.get_or_init(|| {
        let (_, adb) = &adbs()[3];
        let mut names: Vec<&String> = adb.entities.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let entity = &adb.entities[name];
                let mut seen = Seen::default();
                entity
                    .props
                    .iter()
                    .flat_map(|p| sweep(entity, p, &mut seen))
                    .map(|(f, _)| f)
                    .collect()
            })
            .collect()
    })
}

/// ONE cache per entity for every case: a set kept under a fingerprint it
/// does not answer would surface in a later case.
fn caches() -> &'static Vec<Mutex<FilterSetCache>> {
    static C: OnceLock<Vec<Mutex<FilterSetCache>>> = OnceLock::new();
    C.get_or_init(|| {
        let generation = adbs()[3].1.generation;
        pool()
            .iter()
            .map(|_| Mutex::new(FilterSetCache::new(generation)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_conjunctions_match_the_per_row_definition(
        which in 0usize..2,
        picks in proptest::collection::vec(any::<u32>(), 0..7),
    ) {
        let (_, adb) = &adbs()[3];
        let mut names: Vec<&String> = adb.entities.keys().collect();
        names.sort();
        let which = which % names.len();
        let entity = &adb.entities[names[which]];
        let pool = &pool()[which];
        let filters: Vec<CandidateFilter> = picks
            .iter()
            .map(|&p| pool[p as usize % pool.len()].clone())
            .collect();
        let mut cache = caches()[which].lock().unwrap();
        let what = filters.iter().map(|f| f.describe()).collect::<Vec<_>>().join(" & ");
        assert_all_paths(entity, &filters, &mut cache, &what);
    }
}

/// A generated slate of 4 000 persons: large enough for sets of a few
/// rows to be *small* (`len · bit_length(len) ≤ n / 64`: up to 15 rows
/// here), so the evaluator keeps them as sorted row ids. On the 400-person
/// slate only sets of at most 3 rows are.
fn wide_slate() -> &'static ADb {
    static A: OnceLock<ADb> = OnceLock::new();
    A.get_or_init(|| {
        let config = ImdbConfig {
            persons: 4_000,
            movies: 2_000,
            ..ImdbConfig::default()
        };
        ADb::build(&generate_imdb(&config)).unwrap()
    })
}

/// The evaluator's size rule, as its module documents it.
fn bit_length(x: usize) -> usize {
    (usize::BITS - x.leading_zeros()) as usize
}

/// What one filter is to a conjunction whose smallest set has `s` rows,
/// as the evaluator's sorted-row path meets it (the survivors number at
/// most `s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A dense categorical value: the αDB's bitmap, one bit test a row.
    Dense,
    /// A slice the cache admits (above the small rule, at most
    /// max(n/4, 64) rows): a resident bitmap when cached.
    Admitted,
    /// A slice short enough to walk by binary search among `s` rows.
    Walked,
    /// A slice of at least 16 · `s` postings: each survivor is probed.
    Probed,
    /// A slice the cost rule walks but whose binary-search walk costs more
    /// than a bitmap pass: the survivors become a bitmap here.
    HandOff,
}

const ROLES: [Role; 5] = [
    Role::Dense,
    Role::Admitted,
    Role::Walked,
    Role::Probed,
    Role::HandOff,
];

/// The wide slate's person filters with their sizes (`match_estimate`,
/// the length the evaluator orders by) and whether they are dense values.
fn wide_pool() -> &'static Vec<(CandidateFilter, usize, bool)> {
    static P: OnceLock<Vec<(CandidateFilter, usize, bool)>> = OnceLock::new();
    P.get_or_init(|| {
        let entity = wide_slate().entity("person").unwrap();
        let mut seen = Seen::default();
        let mut pool = Vec::new();
        for prop in &entity.props {
            for (f, _) in sweep(entity, prop, &mut seen) {
                let dense = match (&f.value, &prop.stats) {
                    (FilterValue::CatEq(v), PropStats::Categorical(s)) => {
                        matches!(s.rows_with(v), Some(ValueRows::Dense(_)))
                    }
                    _ => false,
                };
                pool.push((f.clone(), match_estimate(&f, prop), dense));
            }
        }
        pool
    })
}

/// The pool's filters that play `role` after a smallest set of `s` rows.
fn playing(role: Role, s: usize, n: usize) -> Vec<&'static CandidateFilter> {
    let small = |len: usize| len * bit_length(len) <= n / 64;
    wide_pool()
        .iter()
        .filter(|&&(_, len, dense)| match role {
            Role::Dense => dense,
            _ if dense => false,
            Role::Admitted => !small(len) && len <= (n / 4).max(64),
            Role::Walked => len >= s && len < 16 * s && len * bit_length(s) <= n / 64,
            Role::Probed => len >= 16 * s,
            Role::HandOff => len >= s && len < 16 * s && len * bit_length(s) > n / 64,
        })
        .map(|(f, ..)| f)
        .collect()
}

/// The small filters the conjunctions start from: every non-empty small
/// set of the pool, each with at least one filter in every role.
fn small_starts() -> &'static Vec<(&'static CandidateFilter, usize)> {
    static S: OnceLock<Vec<(&'static CandidateFilter, usize)>> = OnceLock::new();
    S.get_or_init(|| {
        let n = wide_slate().entity("person").unwrap().n;
        wide_pool()
            .iter()
            .filter(|&&(_, len, dense)| !dense && len > 0 && len * bit_length(len) <= n / 64)
            .filter(|&&(_, len, _)| ROLES.iter().all(|&r| !playing(r, len, n).is_empty()))
            .map(|(f, len, _)| (f, *len))
            .collect()
    })
}

/// One cache for every case over the wide slate (see [`caches`]).
fn wide_cache() -> &'static Mutex<FilterSetCache> {
    static C: OnceLock<Mutex<FilterSetCache>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(FilterSetCache::new(wide_slate().generation)))
}

/// Every role is on offer after small starts of several sizes, and the
/// slate reaches both sides of the small rule.
#[test]
fn the_wide_slate_offers_every_role_after_a_small_set() {
    let n = wide_slate().entity("person").unwrap().n;
    assert!(n >= 4_000);
    let mut sizes: Vec<usize> = small_starts().iter().map(|&(_, len)| len).collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(sizes.len() >= 3, "small starts of sizes {sizes:?}");
    assert!(
        wide_pool()
            .iter()
            .any(|&(_, len, _)| len > 0 && len * bit_length(len) > n / 64),
        "no set above the rule"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A conjunction whose smallest set is small, followed by filters in
    /// every role — dense bitmaps, cached bitmaps, short slices walked,
    /// long slices probed, and slices that hand the survivors over to a
    /// bitmap — in random order and number: every path equals the per-row
    /// definition, the cache cold and warm.
    #[test]
    fn conjunctions_from_a_small_set_match_the_per_row_definition(
        start in any::<u32>(),
        picks in proptest::collection::vec((0usize..5, any::<u32>()), 1..7),
    ) {
        let entity = wide_slate().entity("person").unwrap();
        let (first, s) = small_starts()[start as usize % small_starts().len()];
        let mut filters = vec![first.clone()];
        for (role, pick) in picks {
            let pool = playing(ROLES[role], s, entity.n);
            filters.push(pool[pick as usize % pool.len()].clone());
        }
        // The order filters arrive in is not the order they are applied.
        let mid = filters.len() / 2;
        filters.rotate_left(mid);
        let mut cache = wide_cache().lock().unwrap();
        let what = filters.iter().map(|f| f.describe()).collect::<Vec<_>>().join(" & ");
        assert_all_paths(entity, &filters, &mut cache, &what);
    }
}
