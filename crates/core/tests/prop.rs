//! Property-based tests for the abduction core: Theorem 1 optimality
//! against random subsets, prior monotonicity, and the validity invariant
//! (E ⊆ Qϕ(D)) on random example draws from the miniature IMDb.

use proptest::prelude::*;
use squid_adb::{test_fixtures, ADb};
use squid_core::{
    abduce_filters, discover_contexts, evaluate, evaluate_per_row, log_posterior, Accuracy,
    CandidateFilter, FilterValue, SquidParams,
};
use squid_relation::Value;

fn arb_filter() -> impl Strategy<Value = CandidateFilter> {
    (
        0usize..6,
        0.0f64..=1.0,
        0.0f64..=1.0,
        prop_oneof![Just(None), (1u64..60).prop_map(Some),],
    )
        .prop_map(|(prop, selectivity, coverage, theta)| CandidateFilter {
            prop_id: format!("prop{prop}").into(),
            attr_name: format!("attr{prop}").into(),
            value: match theta {
                None => FilterValue::CatEq(Value::text("v")),
                Some(t) => FilterValue::DerivedEq {
                    value: Value::text("v"),
                    theta: t,
                },
            },
            selectivity,
            coverage,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: Algorithm 1's subset maximizes the log posterior over
    /// random alternative subsets.
    #[test]
    fn abduction_beats_random_subsets(
        filters in prop::collection::vec(arb_filter(), 1..10),
        examples in 1usize..20,
        flips in prop::collection::vec(any::<bool>(), 10),
    ) {
        let params = SquidParams::default();
        let scored = abduce_filters(filters, examples, &params);
        let chosen: Vec<bool> = scored.iter().map(|s| s.included).collect();
        let best = log_posterior(&scored, &chosen);
        let alt: Vec<bool> = (0..scored.len()).map(|i| flips[i % flips.len()]).collect();
        let lp = log_posterior(&scored, &alt);
        prop_assert!(lp <= best + 1e-9, "{lp} > {best}");
    }

    /// More examples can only make inclusion easier (the exclude score
    /// shrinks), never flip an included filter out.
    #[test]
    fn inclusion_is_monotone_in_examples(
        filter in arb_filter(),
        examples in 1usize..30,
    ) {
        let params = SquidParams::default();
        let small = abduce_filters(vec![filter.clone()], examples, &params);
        let large = abduce_filters(vec![filter], examples + 5, &params);
        if small[0].included {
            prop_assert!(large[0].included);
        }
    }

    /// Selectivity 1 filters are never included (observing them carries no
    /// information).
    #[test]
    fn trivial_filters_are_never_included(
        mut filter in arb_filter(),
        examples in 1usize..30,
    ) {
        filter.selectivity = 1.0;
        let params = SquidParams::default();
        let scored = abduce_filters(vec![filter], examples, &params);
        prop_assert!(!scored[0].included);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On the miniature IMDb, any non-empty example subset yields filters
    /// that (a) all examples satisfy and (b) produce a result containing
    /// the examples — Definition 2.1's containment constraint.
    #[test]
    fn discovered_queries_contain_their_examples(mask in 1u8..=255) {
        let adb = ADb::build(&test_fixtures::mini_imdb()).unwrap();
        let entity = adb.entity("person").unwrap();
        let rows: Vec<usize> = (0..8)
            .filter(|i| mask & (1 << i) != 0)
            .collect();
        let params = SquidParams::default();
        let candidates = discover_contexts(entity, &rows, &params);
        // Validity (Definition 3.1 / Lemma 3.1).
        for f in &candidates {
            let prop = entity.property(f.prop_id).unwrap();
            for &r in &rows {
                prop_assert!(f.matches_row(prop, r), "{} fails on {r}", f.describe());
            }
        }
        // Containment of the full abduced filter set.
        let scored = abduce_filters(candidates, rows.len(), &params);
        let chosen: Vec<_> = scored
            .iter()
            .filter(|s| s.included)
            .map(|s| s.filter.clone())
            .collect();
        let result = evaluate(entity, &chosen);
        prop_assert_eq!(&result, &evaluate_per_row(entity, &chosen));
        for r in &rows {
            prop_assert!(result.contains(*r));
        }
    }

    /// Accuracy metrics stay within [0, 1] and f ≤ 2·min(p, r).
    #[test]
    fn accuracy_bounds(
        inferred in prop::collection::btree_set(0usize..50, 0..30),
        intended in prop::collection::btree_set(0usize..50, 0..30),
    ) {
        let inferred: squid_relation::RowSet = inferred.into_iter().collect();
        let intended: squid_relation::RowSet = intended.into_iter().collect();
        let a = Accuracy::of(&inferred, &intended);
        prop_assert!((0.0..=1.0).contains(&a.precision));
        prop_assert!((0.0..=1.0).contains(&a.recall));
        prop_assert!((0.0..=1.0).contains(&a.f_score));
        prop_assert!(a.f_score <= 2.0 * a.precision.min(a.recall) + 1e-12);
    }
}
