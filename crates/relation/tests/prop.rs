//! Property-based tests for the relational substrate: total ordering of
//! values and Eq/Hash consistency.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use squid_relation::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::float),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,8}".prop_map(Value::text),
    ]
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn ordering_is_antisymmetric(a in arb_value(), b in arb_value()) {
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
    }

    #[test]
    fn ordering_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    #[test]
    fn eq_implies_same_hash(a in arb_value(), b in arb_value()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn comparison_is_reflexive(a in arb_value()) {
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
