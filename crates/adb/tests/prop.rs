//! Property-based tests for the αDB statistics: every precomputed
//! selectivity must agree with a brute-force count over the underlying
//! per-entity data.

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
        let stats = DerivedStats::from_runs(runs(&per_entity));
        let key = Value::Int(value as i64);
        let expected = per_entity
            .iter()
            .filter(|m| m.get(&key).copied().unwrap_or(0) >= theta)
            .count() as f64
            / n as f64;
        let got = stats.selectivity(&key, theta, n);
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
        let stats = DerivedStats::from_runs(runs(&per_entity));
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
        let got = stats.selectivity_frac(&key, frac, n);
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
        let stats = DerivedNumericStats::build(data.clone());
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
        let got = stats.selectivity_ge(cut as f64, theta, n);
        prop_assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn categorical_in_never_below_max_single(
        vals in prop::collection::vec(0u8..5, 1..50),
        a in 0u8..5,
        b in 0u8..5,
    ) {
        let stats =
            CategoricalStats::from_sets(vals.iter().map(|v| vec![Value::Int(*v as i64)]).collect());
        let n = vals.len();
        let sa = stats.selectivity_eq(&Value::Int(a as i64), n);
        let sb = stats.selectivity_eq(&Value::Int(b as i64), n);
        let sin = stats.selectivity_in(&[Value::Int(a as i64), Value::Int(b as i64)], n);
        prop_assert!(sin >= sa.max(sb) - 1e-12);
        prop_assert!(sin <= 1.0);
    }
}
