//! Correctness of the fleet's evaluation cache: concurrent sessions
//! reading and publishing through one `SharedFilterSetCache` must be
//! *indistinguishable* from the per-row definition — including while
//! byte-bound eviction churns entries mid-run and while handles at other
//! αDB generations invalidate shards under the readers' feet.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb, FilterSetCache, SharedFilterSetCache};
use squid_core::{
    discover_contexts, evaluate_cached, evaluate_per_row, CandidateFilter, FilterValue,
    SessionManager, SessionOp, Squid, SquidParams,
};
use squid_datasets::{generate_imdb, ImdbConfig};
use squid_relation::{RowSet, Value};

fn adb() -> &'static ADb {
    static A: OnceLock<ADb> = OnceLock::new();
    A.get_or_init(|| ADb::build(&test_fixtures::mini_imdb()).unwrap())
}

/// ONE deliberately tiny shared cache for every proptest case and thread:
/// a stale entry (wrong generation, wrong fingerprint, or a set corrupted
/// by eviction bookkeeping) would surface as a parity failure in a later
/// case. ~2 KiB total across 16 shards keeps eviction churning constantly.
fn shared() -> &'static Arc<SharedFilterSetCache> {
    static C: OnceLock<Arc<SharedFilterSetCache>> = OnceLock::new();
    C.get_or_init(|| Arc::new(SharedFilterSetCache::new(adb().generation, 16 * 128)))
}

/// Random-but-deterministic filter set: contexts of an example-row subset,
/// perturbed (θ bumps, shifted bounds, absent values) by `tweak`.
fn filter_set(rows_mask: u8, subset: u16, tweak: u32) -> Vec<CandidateFilter> {
    let entity = adb().entity("person").unwrap();
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
    for (i, f) in filters.iter_mut().enumerate() {
        let bit = |k: usize| tweak >> ((i + k) % 32) & 1 == 1;
        match &mut f.value {
            FilterValue::DerivedEq { theta, .. } if bit(0) => *theta += 1,
            FilterValue::NumRange(l, h) => {
                if bit(1) {
                    *l += 1.0;
                }
                if bit(2) {
                    *h -= 1.0;
                }
            }
            FilterValue::CatEq(v) if bit(3) => *v = Value::text("NoSuchValue"),
            _ => {}
        }
    }
    filters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Three threads, three workloads, one shared cache under constant
    /// eviction pressure, with a handle at a bumped αDB generation per
    /// thread mid-run: every cached evaluation must equal the uncached
    /// one.
    #[test]
    fn concurrent_shared_evaluation_matches_uncached(
        m0 in 1u8..=255u8,
        m1 in 1u8..=255u8,
        m2 in 1u8..=255u8,
        subset in any::<u16>(),
        tweak in any::<u32>(),
    ) {
        let adb = adb();
        let entity = adb.entity("person").unwrap();
        let shared = shared();
        let masks = [m0, m1, m2];
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = masks
                .iter()
                .enumerate()
                .map(|(t, &mask)| {
                    scope.spawn(move || -> Option<String> {
                        // Overlap: each thread perturbs with a nearby tweak,
                        // so some fingerprints collide across threads (the
                        // sharing case) and some are thread-private.
                        let filters = filter_set(mask, subset, tweak ^ (t as u32 & 1));
                        let uncached = evaluate_per_row(entity, &filters);
                        let mut cache = FilterSetCache::attached(Arc::clone(shared), adb.generation);
                        let check = |got: RowSet, phase: &str| -> Option<String> {
                            (got != uncached).then(|| {
                                format!("thread {t} {phase}: {got:?} != {uncached:?}")
                            })
                        };
                        for phase in ["cold", "warm"] {
                            let got = evaluate_cached(entity, &filters, &mut cache);
                            if let Some(m) = check(got, phase) {
                                return Some(m);
                            }
                        }
                        // Generation bump mid-run: a handle at another
                        // generation on the same store retags every shard
                        // it touches, and parity must survive both
                        // directions.
                        let bumped = adb.generation + 1 + t as u64;
                        let mut stale = FilterSetCache::attached(Arc::clone(shared), bumped);
                        let got = evaluate_cached(entity, &filters, &mut stale);
                        if let Some(m) = check(got, "bumped generation") {
                            return Some(m);
                        }
                        let got = evaluate_cached(entity, &filters, &mut cache);
                        check(got, "restored generation")
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("worker thread"))
                .collect()
        });
        prop_assert!(mismatches.is_empty(), "{mismatches:?}");
        let stats = shared.stats();
        prop_assert!(
            stats.resident_bytes <= stats.max_resident_bytes,
            "shared residency {} exceeds bound {}",
            stats.resident_bytes,
            stats.max_resident_bytes
        );
    }
}

/// A manager fleet with an adversarially tiny cache bound still answers
/// every slate exactly like the uncached one-shot path, from concurrent
/// threads, with residency pinned under the cap. On the
/// 400-person slate: mini-IMDb's eight rows make every categorical value a
/// dense bitmap, which never enters a cache, and leave too few distinct
/// cached filters to overflow sixteen shards.
#[test]
fn tiny_bounded_fleet_matches_one_shot() {
    let adb = Arc::new(ADb::build(&generate_imdb(&ImdbConfig::tiny())).unwrap());
    // One 400-row bitmap with its key is 160 bytes: a shard holds one.
    let m = SessionManager::new(Arc::clone(&adb)).with_shared_cache_bytes(16 * 200);
    let slates: Vec<Vec<String>> = (0..8)
        .map(|i| {
            [0, 7, 13]
                .iter()
                .map(|d| format!("Person {:06}", i * 47 + d))
                .collect()
        })
        .collect();
    // Several rounds so later sessions run against a churned shared cache.
    for _ in 0..3 {
        let results: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = slates
                .iter()
                .map(|slate| {
                    let m = &m;
                    scope.spawn(move || {
                        let id = m.create_session();
                        for e in slate {
                            m.apply_op(id, &SessionOp::AddExample(e.clone())).unwrap();
                        }
                        let sql = m
                            .with_session(id, |s| Ok(s.discovery().unwrap().sql()))
                            .unwrap();
                        m.close_session(id).unwrap();
                        sql
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let squid = Squid::new(&adb);
        for (slate, sql) in slates.iter().zip(&results) {
            let slate: Vec<&str> = slate.iter().map(String::as_str).collect();
            assert_eq!(&squid.discover(&slate).unwrap().sql(), sql);
        }
        let stats = m.shared_cache_stats().unwrap();
        assert!(stats.resident_bytes <= stats.max_resident_bytes);
    }
    let stats = m.shared_cache_stats().unwrap();
    assert!(
        stats.evictions > 0,
        "the tiny bound must have forced evictions: {stats:?}"
    );
}

/// The shared cache holds no small set. Over 400 persons a set is small up
/// to 3 rows (`len · bit_length(len) ≤ n / 64 = 6`): evaluating such a
/// filter looks nothing up and publishes nothing. A filter of 4 rows, just
/// above the rule, is published once and hit on the next evaluation.
#[test]
fn small_sets_stay_out_of_the_shared_cache() {
    let adb = ADb::build(&generate_imdb(&ImdbConfig::tiny())).unwrap();
    let entity = adb.entity("person").unwrap();
    assert_eq!(entity.n, 400);
    let params = SquidParams {
        allow_disjunction: true,
        ..SquidParams::default()
    };
    let of_size = |want: usize| -> CandidateFilter {
        (0..entity.n)
            .flat_map(|row| discover_contexts(entity, &[row], &params))
            .find(|f| {
                let rows = evaluate_per_row(entity, std::slice::from_ref(f)).len();
                rows == want
                    && squid_core::match_estimate(f, entity.property(f.prop_id).unwrap()) == want
            })
            .unwrap_or_else(|| panic!("no filter of {want} rows"))
    };
    let (small, above) = (of_size(3), of_size(4));
    let store = Arc::new(SharedFilterSetCache::new(adb.generation, 1 << 20));
    let mut handle = FilterSetCache::attached(Arc::clone(&store), adb.generation);
    let alone = std::slice::from_ref(&small);
    for _ in 0..2 {
        let before = store.stats();
        assert_eq!(
            evaluate_cached(entity, alone, &mut handle),
            evaluate_per_row(entity, alone)
        );
        let after = store.stats();
        assert_eq!(
            (after.entries, after.resident_bytes),
            (before.entries, before.resident_bytes),
            "{}",
            small.describe()
        );
        assert_eq!(handle.misses(), 0);
    }
    assert_eq!(
        (handle.hits(), store.stats().hits),
        (0, 0),
        "nothing looked up"
    );

    let alone = std::slice::from_ref(&above);
    let want = evaluate_per_row(entity, alone);
    assert_eq!(evaluate_cached(entity, alone, &mut handle), want);
    assert_eq!((handle.hits(), handle.misses()), (0, 1), "published once");
    assert_eq!(store.stats().entries, 1);
    let resident = store.stats().resident_bytes;
    assert!(resident > 0);
    assert_eq!(evaluate_cached(entity, alone, &mut handle), want);
    assert_eq!((handle.hits(), handle.misses()), (1, 1), "then hit");
    assert_eq!(
        (store.stats().entries, store.stats().resident_bytes),
        (1, resident)
    );

    // Together, the small set leads and the resident bitmap filters it:
    // one more hit, nothing published.
    let both = [above.clone(), small.clone()];
    assert_eq!(
        evaluate_cached(entity, &both, &mut handle),
        evaluate_per_row(entity, &both)
    );
    assert_eq!((handle.hits(), handle.misses()), (2, 1));
    assert_eq!(
        (store.stats().entries, store.stats().resident_bytes),
        (1, resident)
    );
}
