//! Correctness of the cross-turn evaluation cache: cached evaluation must
//! be *indistinguishable* from the per-row definition for every
//! filter set — including perturbed θs, shifted (even inverted) numeric
//! bounds, and values absent from the active domain — and session turns
//! that repeat filters must serve them from resident bitmaps. Filters too
//! wide to admit (> n/4 matches) restrict the surviving rows from whichever
//! side is shorter; both sides, and `IN` lists whose values share rows, are
//! held to the same per-row answer on a 400-person generated slate.

use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb, FilterSetCache, PropStats, SharedFilterSetCache};
use squid_core::{
    discover_contexts, evaluate_cached, evaluate_per_row, CandidateFilter, FilterValue,
    SquidParams, SquidSession,
};
use squid_datasets::{generate_imdb, ImdbConfig};
use squid_relation::Value;

fn adb() -> &'static ADb {
    static A: OnceLock<ADb> = OnceLock::new();
    A.get_or_init(|| ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

/// ONE cache shared by every proptest case: stale-entry bugs (a fingerprint
/// colliding across distinct filters, or a set surviving a perturbation it
/// shouldn't) would surface as a parity failure in a later case.
fn shared_cache() -> &'static Mutex<FilterSetCache> {
    static C: OnceLock<Mutex<FilterSetCache>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(FilterSetCache::new(adb().generation)))
}

/// 400 persons / 250 movies: large enough that the admission bound
/// max(n/4, 64) refuses real filters (mini-IMDb's 8 rows admit everything).
fn slate() -> &'static ADb {
    static S: OnceLock<ADb> = OnceLock::new();
    S.get_or_init(|| ADb::build(&generate_imdb(&ImdbConfig::tiny())).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hand-built filters over the generated movies, wide and narrow mixed:
    /// a refused wide filter probes what the admitted bitmaps left, and the
    /// genre `IN` lists name values that share movies, so their postings
    /// meet a row once per value.
    #[test]
    fn wide_and_shared_row_filters_match_uncached(
        genres in proptest::collection::vec(0usize..16, 1..4),
        country in 0usize..11,
        years in (0i64..60, 0i64..60),
        subset in 1u8..16,
    ) {
        let entity = slate().entity("movie").unwrap();
        let domain = |attr: &str| -> Vec<Value> {
            let prop = entity.props.iter().find(|p| p.def.attr_name == attr).unwrap();
            let PropStats::Categorical(stats) = &prop.stats else {
                panic!("{attr} is categorical");
            };
            let mut values: Vec<Value> = (0..entity.n)
                .flat_map(|r| stats.codes_of(r).iter().map(|&code| stats.value(code)))
                .collect();
            values.sort();
            values.dedup();
            values
        };
        let filter = |attr: &str, value: FilterValue| {
            let prop = entity.props.iter().find(|p| p.def.attr_name == attr).unwrap();
            CandidateFilter {
                prop_id: prop.id_sym,
                attr_name: prop.attr_sym,
                value,
                selectivity: 0.5,
                coverage: 0.5,
            }
        };
        let (genre_domain, country_domain) = (domain("genre.name"), domain("country"));
        let low = 1960 + years.0.min(years.1);
        let all = [
            filter(
                "genre.name",
                FilterValue::CatIn(
                    genres.iter().map(|g| genre_domain[g % genre_domain.len()]).collect(),
                ),
            ),
            filter(
                "country",
                FilterValue::CatEq(country_domain[country % country_domain.len()]),
            ),
            filter(
                "year",
                FilterValue::NumRange(low as f64, (1960 + years.0.max(years.1)) as f64),
            ),
            filter("year", FilterValue::NumRange(low as f64, low as f64 + 1.0)),
        ];
        let filters: Vec<CandidateFilter> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, f)| f.clone())
            .collect();
        let uncached = evaluate_per_row(entity, &filters);
        let mut cache = FilterSetCache::new(slate().generation);
        prop_assert_eq!(&evaluate_cached(entity, &filters, &mut cache), &uncached);
        prop_assert_eq!(&evaluate_cached(entity, &filters, &mut cache), &uncached);
    }

    /// Cached `evaluate` ≡ the per-row definition, cold and warm,
    /// across random (and randomly perturbed) filter sets.
    #[test]
    fn cached_evaluate_matches_uncached(
        rows_mask in 1u8..=255,
        subset in any::<u16>(),
        tweak in any::<u32>(),
    ) {
        let adb = adb();
        let entity = adb.entity("person").unwrap();
        let rows: Vec<usize> = (0..8).filter(|i| rows_mask & (1 << i) != 0).collect();
        let params = SquidParams {
            allow_disjunction: true,
            ..SquidParams::default()
        };
        let mut filters: Vec<CandidateFilter> = discover_contexts(entity, &rows, &params)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << (i % 16)) != 0)
            .map(|(_, f)| f)
            .collect();
        // Perturbations: raised θ, shifted/inverted bounds, absent values.
        for (i, f) in filters.iter_mut().enumerate() {
            let bit = |k: usize| tweak >> ((i + k) % 32) & 1 == 1;
            match &mut f.value {
                FilterValue::DerivedEq { theta, .. } if bit(0) => *theta += 1,
                FilterValue::NumRange(l, h) => {
                    if bit(1) {
                        *l += 1.0; // may inverted-range to emptiness
                    }
                    if bit(2) {
                        *h -= 1.0;
                    }
                }
                FilterValue::CatEq(v) if bit(3) => *v = Value::text("NoSuchValue"),
                _ => {}
            }
        }
        let uncached = evaluate_per_row(entity, &filters);
        let mut cache = shared_cache().lock().unwrap();
        let cold = evaluate_cached(entity, &filters, &mut cache);
        prop_assert_eq!(&cold, &uncached);
        // Warm repeat: same result, and nothing new is admitted.
        let misses_after_cold = cache.misses();
        let warm = evaluate_cached(entity, &filters, &mut cache);
        prop_assert_eq!(&warm, &uncached);
        prop_assert_eq!(cache.misses(), misses_after_cold);
    }
}

/// A remove → re-add round trip returns to the identical discovery with
/// the re-added turn's filters served from resident bitmaps.
#[test]
fn re_add_turn_is_served_from_the_cache() {
    let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
    let params = SquidParams {
        tau_a: 3,
        ..SquidParams::default()
    };
    let mut session = SquidSession::with_params(&adb, params);
    for e in ["Jim Carrey", "Eddie Murphy", "Robin Williams"] {
        session.add_example(e).unwrap();
    }
    let before = session.discovery().unwrap();
    let (rows_before, sql_before) = (before.rows.clone(), before.sql());
    session.remove_example("Robin Williams").unwrap();
    let delta = session.add_example("Robin Williams").unwrap();
    assert!(
        delta.cache_hits > 0,
        "re-added filters must hit the cache: {delta:?}"
    );
    let after = session.discovery().unwrap();
    assert_eq!(after.rows, rows_before);
    assert_eq!(after.sql(), sql_before);
}

/// A repeated pin (feedback toggle) is a pure cache hit: the second pin of
/// the same key computes nothing new and reproduces the first pin's rows.
/// The pinned filter, ⟨genre.name, Comedy, 4⟩, is a θ-suffix of postings,
/// which the cache keeps as a bitmap. A dense categorical value (on eight
/// rows, every one: gender = Male) is a bitmap in the αDB already and goes
/// through the cache on neither pin. The two examples' own filters are
/// banned first: they leave only the examples, and evaluation stops there,
/// before a pinned filter is reached.
#[test]
fn repeated_pin_toggle_hits_the_cache() {
    let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
    let mut session = SquidSession::new(&adb);
    session.add_example("Jim Carrey").unwrap();
    session.add_example("Eddie Murphy").unwrap();
    session.ban_filter("birth_year").unwrap();
    session.ban_filter("movie.title").unwrap();
    assert_eq!(session.discovery().unwrap().rows.len(), 8);
    let first = session.pin_filter("genre.name").unwrap();
    assert!(first.cache_misses > 0, "first pin admits: {first:?}");
    let pinned_rows = first.discovery.as_ref().unwrap().rows.clone();
    session.unpin_filter("genre.name").unwrap();
    let second = session.pin_filter("genre.name").unwrap();
    assert!(second.cache_hits > 0, "second pin must hit: {second:?}");
    assert_eq!(second.cache_misses, 0, "second pin admits nothing new");
    assert_eq!(second.discovery.unwrap().rows, pinned_rows);
    let stats = session.cache_stats();
    assert!(stats.misses >= first.cache_misses);
    assert!(stats.hits >= second.cache_hits);

    session.unpin_filter("genre.name").unwrap();
    for _ in 0..2 {
        let dense = session.pin_filter("gender").unwrap();
        assert!(dense.added_filters.iter().any(|f| f.contains("gender")));
        assert_eq!((dense.cache_hits, dense.cache_misses), (0, 0), "{dense:?}");
        session.unpin_filter("gender").unwrap();
    }
    assert_eq!(
        session.cache_stats().misses,
        stats.misses,
        "dense pins publish nothing"
    );
}

/// Handles count truthfully, and a handle at a different αDB generation
/// on the same store is never served what another generation published:
/// the shards it touches drop those entries first.
#[test]
fn cache_generation_invalidation() {
    let adb_a = ADb::build(&test_fixtures::mini_imdb()).unwrap();
    let adb_b = ADb::build(&test_fixtures::mini_imdb()).unwrap();
    assert_ne!(adb_a.generation, adb_b.generation);
    let entity = adb_a.entity("person").unwrap();
    let params = SquidParams::default();
    let filters = discover_contexts(entity, &[0, 1], &params);
    let store = Arc::new(SharedFilterSetCache::new(adb_a.generation, 1 << 20));
    let mut first = FilterSetCache::attached(Arc::clone(&store), adb_a.generation);
    let want = evaluate_cached(entity, &filters, &mut first);
    let published = first.misses();
    assert!(published > 0);
    assert_eq!(store.stats().entries as u64, published);

    let mut same = FilterSetCache::attached(Arc::clone(&store), adb_a.generation);
    assert_eq!(evaluate_cached(entity, &filters, &mut same), want);
    assert_eq!(
        (same.hits(), same.misses()),
        (published, 0),
        "same generation is served"
    );

    let mut other = FilterSetCache::attached(Arc::clone(&store), adb_b.generation);
    assert_eq!(other.generation(), adb_b.generation);
    assert_eq!(evaluate_cached(entity, &filters, &mut other), want);
    assert_eq!(
        (other.hits(), other.misses()),
        (0, published),
        "new generation drops entries"
    );
    assert_eq!(store.stats().entries as u64, published);
}

/// A session turn that only adds a filter restricts the previous result
/// in place (`restrict_rows`). For a filter too wide to admit, the work is
/// done from the shorter side: its postings when it has fewer matches than
/// rows survive, a probe of the survivors otherwise. Both must leave
/// exactly what the per-row definition computes from scratch.
#[test]
fn wide_filter_turns_match_evaluate_on_both_sides_of_the_cost_rule() {
    let adb = slate();
    let entity = adb.entity("person").unwrap();
    let refused = (entity.n / 4).max(64);
    let (mut from_postings, mut from_survivors) = (0, 0);
    for first in (0..entity.n).step_by(20) {
        let mut session = SquidSession::new(adb);
        let pair = [first, first + 1].map(|i| format!("Person {i:06}"));
        if pair.iter().any(|name| session.add_example(name).is_err()) {
            continue;
        }
        // Basic filters (one candidate per attribute, exact match counts)
        // wider than the admission bound, narrowest first.
        let scored = session.discovery().unwrap().scored.clone();
        let mut wide: Vec<(usize, CandidateFilter)> = scored
            .iter()
            .filter(|s| !s.filter.value.is_derived())
            .map(|s| {
                let matches = evaluate_per_row(entity, std::slice::from_ref(&s.filter)).len();
                (matches, s.filter.clone())
            })
            .filter(|(matches, _)| *matches > refused)
            .collect();
        wide.sort_by_key(|(matches, _)| *matches);
        // Start from the whole table: nothing chosen.
        for s in &scored {
            session.ban_filter(s.filter.prop_id.as_str()).unwrap();
        }
        assert_eq!(session.discovery().unwrap().rows.len(), entity.n);
        for (matches, f) in &wide {
            let survivors = session.discovery().unwrap().rows.len();
            session.pin_filter(f.prop_id.as_str()).unwrap();
            let d = session.discovery().unwrap();
            let chosen: Vec<CandidateFilter> = d.chosen_filters().into_iter().cloned().collect();
            assert!(chosen.iter().any(|c| c.prop_id == f.prop_id));
            assert_eq!(
                d.rows,
                evaluate_per_row(entity, &chosen),
                "{}",
                f.describe()
            );
            if *matches < survivors {
                from_postings += 1;
            } else {
                from_survivors += 1;
            }
        }
    }
    assert!(
        from_postings > 0 && from_survivors > 0,
        "postings side {from_postings}, survivor side {from_survivors}"
    );
}
