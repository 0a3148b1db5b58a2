//! Property-based tests for the αDB statistics: every precomputed
//! selectivity must agree with a brute-force count over the underlying
//! per-entity data, and decoding the value-coded per-entity arenas gives
//! back the input in canonical form.

use proptest::prelude::*;
use squid_adb::{CategoricalStats, DerivedNumericStats, DerivedStats, NumericStats};
use squid_relation::{FxHashMap, Value};

/// Per-entity count maps as the `(value, count)` runs the builder takes.
fn runs(per_entity: &[FxHashMap<Value, u64>]) -> Vec<Vec<(Value, u64)>> {
    per_entity
        .iter()
        .map(|m| m.iter().map(|(v, c)| (*v, *c)).collect())
        .collect()
}

/// Values that stress the coding: duplicates by `Eq` across variants
/// (`Int(1)` is `Float(1.0)`, `Int(0)` is `Float(0.0)`), and text.
fn pool() -> [Value; 7] {
    [
        Value::Int(0),
        Value::Int(1),
        Value::float(0.0),
        Value::float(1.0),
        Value::float(2.5),
        Value::text("coded-b"),
        Value::text("coded-a"),
    ]
}

/// Attribute values for derived-numeric runs.
const FLOATS: [f64; 5] = [-1.5, 0.0, 2.0, f64::INFINITY, f64::NEG_INFINITY];

/// Each entity's `(value, count)` pairs summed per value (by `eq`), zero
/// totals dropped.
fn summed<T: Copy>(pairs: &[(T, u64)], eq: impl Fn(&T, &T) -> bool) -> Vec<(T, u64)> {
    let mut out: Vec<(T, u64)> = Vec::new();
    for &(x, c) in pairs {
        match out.iter_mut().find(|(y, _)| eq(&x, y)) {
            Some(e) => e.1 += c,
            None => out.push((x, c)),
        }
    }
    out.retain(|&(_, c)| c > 0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn numeric_range_selectivity_is_exact(
        vals in prop::collection::vec(prop::option::of(-50i64..50), 1..80),
        lo in -60i64..60,
        width in 0i64..40,
    ) {
        let per_entity: Vec<Option<f64>> = vals.iter().map(|v| v.map(|x| x as f64)).collect();
        let n = per_entity.len();
        let stats = NumericStats::build(per_entity.clone());
        let hi = lo + width;
        let expected = per_entity
            .iter()
            .flatten()
            .filter(|&&x| x >= lo as f64 && x <= hi as f64)
            .count() as f64
            / n as f64;
        let got = stats.selectivity_range(lo as f64, hi as f64, n);
        prop_assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn derived_selectivity_is_exact(
        counts in prop::collection::vec(
            prop::collection::vec((0u8..4, 1u64..10), 0..5),
            1..40,
        ),
        value in 0u8..4,
        theta in 1u64..10,
    ) {
        let per_entity: Vec<FxHashMap<Value, u64>> = counts
            .iter()
            .map(|pairs| {
                let mut m = FxHashMap::default();
                for (v, c) in pairs {
                    *m.entry(Value::Int(*v as i64)).or_insert(0) += c;
                }
                m
            })
            .collect();
        let n = per_entity.len();
        let stats = DerivedStats::from_runs(runs(&per_entity)).unwrap();
        let key = Value::Int(value as i64);
        let expected = per_entity
            .iter()
            .filter(|m| m.get(&key).copied().unwrap_or(0) >= theta)
            .count() as f64
            / n as f64;
        let got = stats
            .domain()
            .binary_search(&key)
            .map_or(0.0, |code| stats.selectivity_code(code as u32, theta, n));
        prop_assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn derived_fraction_selectivity_is_exact(
        counts in prop::collection::vec(
            prop::collection::vec((0u8..3, 1u64..8), 1..4),
            1..30,
        ),
        value in 0u8..3,
        frac_pct in 0u32..=100,
    ) {
        let per_entity: Vec<FxHashMap<Value, u64>> = counts
            .iter()
            .map(|pairs| {
                let mut m = FxHashMap::default();
                for (v, c) in pairs {
                    *m.entry(Value::Int(*v as i64)).or_insert(0) += c;
                }
                m
            })
            .collect();
        let n = per_entity.len();
        let stats = DerivedStats::from_runs(runs(&per_entity)).unwrap();
        let key = Value::Int(value as i64);
        let frac = frac_pct as f64 / 100.0;
        let expected = per_entity
            .iter()
            .filter(|m| {
                let total: u64 = m.values().sum();
                let c = m.get(&key).copied().unwrap_or(0);
                total > 0 && c > 0 && (c as f64 / total as f64) >= frac
            })
            .count() as f64
            / n as f64;
        let got = stats
            .domain()
            .binary_search(&key)
            .map_or(0.0, |code| stats.selectivity_frac_code(code as u32, frac, n));
        prop_assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    fn derived_numeric_suffix_selectivity_is_exact(
        per_entity in prop::collection::vec(
            prop::collection::vec((1990i64..2020, 1u64..5), 0..6),
            1..30,
        ),
        cut in 1990i64..2020,
        theta in 1u64..8,
    ) {
        let data: Vec<Vec<(f64, u64)>> = per_entity
            .iter()
            .map(|pairs| {
                // Merge duplicate years per entity.
                let mut m: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
                for (y, c) in pairs {
                    *m.entry(*y).or_insert(0) += c;
                }
                m.into_iter().map(|(y, c)| (y as f64, c)).collect()
            })
            .collect();
        let n = data.len();
        let stats = DerivedNumericStats::build(data.clone()).unwrap();
        let expected = data
            .iter()
            .filter(|ent| {
                ent.iter()
                    .filter(|(y, _)| *y >= cut as f64)
                    .map(|(_, c)| c)
                    .sum::<u64>()
                    >= theta
            })
            .count() as f64
            / n as f64;
        let got = stats.postings_ge(cut as f64, theta).len() as f64 / n as f64;
        prop_assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn categorical_in_never_below_max_single(
        vals in prop::collection::vec(0u8..5, 1..50),
        a in 0u8..5,
        b in 0u8..5,
    ) {
        let stats =
            CategoricalStats::from_sets(vals.iter().map(|v| vec![Value::Int(*v as i64)]).collect())
                .unwrap();
        let n = vals.len();
        let psi = |x: u8| {
            stats
                .code_of(&Value::Int(x as i64))
                .map_or(0.0, |code| stats.selectivity_code(code, n))
        };
        let (sa, sb) = (psi(a), psi(b));
        let sin = stats.selectivity_in(&[Value::Int(a as i64), Value::Int(b as i64)], n);
        prop_assert!(sin >= sa.max(sb) - 1e-12);
        prop_assert!(sin <= 1.0);
    }

    #[test]
    fn categorical_codes_decode_to_the_canonical_sets(
        sets in prop::collection::vec(prop::collection::vec(0usize..7, 0..5), 1..40),
    ) {
        let pool = pool();
        let per_entity: Vec<Vec<Value>> =
            sets.iter().map(|set| set.iter().map(|&i| pool[i]).collect()).collect();
        let stats = CategoricalStats::from_sets(per_entity.clone()).unwrap();
        let domain = stats.domain();
        prop_assert!(domain.windows(2).all(|w| w[0] < w[1]), "{domain:?}");
        for (row, set) in per_entity.iter().enumerate() {
            let mut canonical = set.clone();
            canonical.sort();
            canonical.dedup();
            let codes = stats.codes_of(row);
            let decoded: Vec<Value> = codes.iter().map(|&code| stats.value(code)).collect();
            prop_assert_eq!(decoded, canonical.clone());
            prop_assert!(codes.windows(2).all(|w| w[0] < w[1]));
            for (&code, v) in codes.iter().zip(&canonical) {
                prop_assert_eq!(stats.value(code), *v);
                prop_assert_eq!(stats.code_of(v), Some(code));
            }
        }
        for (code, v) in domain.iter().enumerate() {
            let mut rows = Vec::new();
            stats.rows_with(v).unwrap().for_each(|row| rows.push(row));
            let expected: Vec<usize> =
                (0..per_entity.len()).filter(|&r| per_entity[r].contains(v)).collect();
            prop_assert_eq!(rows, expected);
            prop_assert_eq!(stats.code_of(v), Some(code as u32));
        }
    }

    #[test]
    fn derived_codes_decode_to_the_canonical_runs(
        runs in prop::collection::vec(
            prop::collection::vec((0usize..7, 0u64..4), 0..6),
            1..30,
        ),
    ) {
        let pool = pool();
        let per_entity: Vec<Vec<(Value, u64)>> = runs
            .iter()
            .map(|run| run.iter().map(|&(i, c)| (pool[i], c)).collect())
            .collect();
        let stats = DerivedStats::from_runs(per_entity.clone()).unwrap();
        let domain = stats.domain();
        prop_assert!(domain.windows(2).all(|w| w[0] < w[1]), "{domain:?}");
        for (row, run) in per_entity.iter().enumerate() {
            let mut canonical = summed(run, |a, b| a == b);
            canonical.sort_by_key(|&(v, _)| v);
            let decoded: Vec<(Value, u64)> = stats
                .runs_of(row)
                .iter()
                .map(|&(code, c)| (stats.value(code), u64::from(c)))
                .collect();
            prop_assert_eq!(decoded, canonical.clone());
            prop_assert_eq!(stats.total_of(row), canonical.iter().map(|e| e.1).sum::<u64>());
            for &(v, c) in &canonical {
                prop_assert_eq!(stats.count_of(row, &v), c);
            }
        }
    }

    #[test]
    fn derived_numeric_ranks_decode_to_the_canonical_runs(
        runs in prop::collection::vec(
            prop::collection::vec((0usize..5, 0u64..4), 0..6),
            1..30,
        ),
    ) {
        let per_entity: Vec<Vec<(f64, u64)>> = runs
            .iter()
            .map(|run| run.iter().map(|&(i, c)| (FLOATS[i], c)).collect())
            .collect();
        let stats = DerivedNumericStats::build(per_entity.clone()).unwrap();
        let cutpoints = stats.cutpoints();
        prop_assert!(cutpoints.windows(2).all(|w| w[0] < w[1]));
        for (row, run) in per_entity.iter().enumerate() {
            let mut canonical = summed(run, |a, b| a == b);
            canonical.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let decoded: Vec<(f64, u64)> = stats
                .runs_of(row)
                .iter()
                .map(|&(rank, c)| (cutpoints[rank as usize], u64::from(c)))
                .collect();
            prop_assert_eq!(decoded, canonical);
        }
    }
}
