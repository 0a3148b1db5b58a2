//! Property tests for the batch predicate kernels: every typed 64-row
//! kernel must be bit-for-bit equivalent to the scalar `CmpSpec::matches`
//! oracle applied to each reconstructed cell — including NULLs, NaN
//! (positive and negative), −0.0, infinities, and values straddling the
//! 2^63 int/float widening boundary — and emitted words must round-trip
//! through `RowSet` exactly.
//!
//! Parity is asserted on EVERY SIMD tier (scalar and AVX2; a request for
//! AVX2 on a host without it must fall back to the scalar loop), so the
//! explicit vector kernels and their ragged-tail handling are pinned to
//! the scalar oracle no matter which tier `SQUID_SIMD`/runtime detection
//! would pick.

use proptest::prelude::*;
use squid_relation::kernel::{self, CmpSpec};
use squid_relation::{Column, DataType, RowSet, ScanPlan, SimdTier, Table, TableSchema, Value};

/// 2^63 as an f64 (exactly representable): the top of the i64 range.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;
/// 2^53 as an f64: the magnitude where `i64 as f64` widening (which the
/// scalar total order applies to int cells) becomes lossy.
const TWO_53: f64 = 9_007_199_254_740_992.0;
/// 2^62 as an f64 (inside the lossy-widening band).
const TWO_62: f64 = (1u64 << 62) as f64;

fn arb_int_cell() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        -4i64..4,
        Just(i64::MAX),
        Just(i64::MAX - 1),
        Just(i64::MIN),
        Just(i64::MIN + 1),
        // Cells in the lossy-widening band [2^53, 2^63): rounding onto a
        // float bound is exactly where exact integer bounds and the
        // widened scalar order can disagree.
        Just((1i64 << 62) - 1),
        Just(1i64 << 62),
        Just((1i64 << 53) + 1),
        Just(-((1i64 << 53) + 1)),
    ]
}

fn arb_float_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(), // shim covers NaN, ±inf, ±0.0, and raw bit patterns
        -4.0f64..4.0,
        Just(-0.0f64),
        Just(TWO_63),
        Just(-TWO_63),
        Just(TWO_53),
        Just(TWO_62),
        Just(f64::NAN),
        Just(-f64::NAN),
    ]
}

/// Numeric operand for a spec probing either column type: exercises
/// cross-type widening (Int column probed with Float bounds and vice
/// versa) plus the adversarial specials.
fn arb_num_operand() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_int_cell().prop_map(Value::Int),
        arb_float_cell().prop_map(Value::Float),
        Just(Value::Null),
        Just(Value::Bool(true)), // cross-type: never matches numerics
    ]
}

fn spec_of(op: u8, a: Value, b: Value, set: Vec<Value>) -> CmpSpec {
    match op % 5 {
        0 => CmpSpec::Eq(a),
        1 => CmpSpec::Ge(a),
        2 => CmpSpec::Le(a),
        3 => CmpSpec::Between(a, b),
        _ => CmpSpec::In(set),
    }
}

/// Assert kernel-vs-scalar parity for `spec` over a one-column table and
/// check the emitted words round-trip through `RowSet`. Every SIMD tier
/// is driven through the per-word entry point and must agree with the
/// oracle bit for bit.
fn assert_parity(table: &Table, dtype: DataType, spec: &CmpSpec) {
    let col = table.column(0);
    let n = table.len();
    let k = kernel::compile(col, dtype, spec);
    let plan = ScanPlan::new(vec![k], n);
    let got = plan.collect();
    for rid in 0..n {
        let cell = col.value_at(rid);
        assert_eq!(
            got.contains(rid),
            spec.matches(&cell),
            "row {rid} (cell {cell:?}) under {spec:?}"
        );
    }
    // Tier sweep: each tier's word evaluations must equal the collected
    // (active-tier) words, including zeroed tail lanes.
    let k = kernel::compile(col, dtype, spec);
    if !k.is_never() {
        for tier in [SimdTier::Scalar, SimdTier::Avx2] {
            for b in 0..kernel::batch_count(n) {
                assert_eq!(
                    k.eval_word_with(tier, b, n) & kernel::tail_mask(n, b),
                    got.word(b),
                    "tier {tier:?} batch {b} under {spec:?}"
                );
            }
        }
    }
    // Word-emission round trip: rebuilding from the emitted words and
    // from per-row inserts must agree with the collected set.
    let words: Vec<u64> = (0..got.word_count()).map(|i| got.word(i)).collect();
    assert_eq!(RowSet::from_words(words), got);
    let mut by_insert = RowSet::new();
    plan.for_each_match(|r| {
        by_insert.insert(r);
    });
    assert_eq!(by_insert, got);
}

fn one_column_table(name: &str, dtype: DataType, cells: Vec<Value>) -> Table {
    let mut t = Table::new(TableSchema::new(name, vec![Column::new("x", dtype)]));
    for c in cells {
        t.insert(vec![c]).unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn int_kernels_match_scalar_oracle(
        cells in prop::collection::vec(prop::option::of(arb_int_cell()), 1..150),
        op in 0u8..5,
        a in arb_num_operand(),
        b in arb_num_operand(),
        set in prop::collection::vec(arb_num_operand(), 0..4),
    ) {
        let cells: Vec<Value> = cells
            .into_iter()
            .map(|c| c.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        let t = one_column_table("ints", DataType::Int, cells);
        assert_parity(&t, DataType::Int, &spec_of(op, a, b, set));
    }

    #[test]
    fn float_kernels_match_scalar_oracle(
        cells in prop::collection::vec(prop::option::of(arb_float_cell()), 1..150),
        op in 0u8..5,
        a in arb_num_operand(),
        b in arb_num_operand(),
        set in prop::collection::vec(arb_num_operand(), 0..4),
    ) {
        let cells: Vec<Value> = cells
            .into_iter()
            .map(|c| c.map(Value::Float).unwrap_or(Value::Null))
            .collect();
        let t = one_column_table("floats", DataType::Float, cells);
        assert_parity(&t, DataType::Float, &spec_of(op, a, b, set));
    }

    #[test]
    fn text_kernels_match_scalar_oracle(
        cells in prop::collection::vec(prop::option::of("[a-c]{0,2}"), 1..150),
        op in 0u8..5,
        a in "[a-c]{0,2}",
        b in "[a-c]{0,3}",
        set in prop::collection::vec("[a-d]{0,2}", 0..4),
    ) {
        let cells: Vec<Value> = cells
            .into_iter()
            .map(|c| c.map(Value::text).unwrap_or(Value::Null))
            .collect();
        let t = one_column_table("texts", DataType::Text, cells);
        let set: Vec<Value> = set.into_iter().map(Value::text).collect();
        // Eq/In hit the symbol kernels; Ge/Le/Between exercise the
        // generic fallback's lexicographic comparisons.
        let spec = spec_of(op, Value::text(a), Value::text(b), set);
        assert_parity(&t, DataType::Text, &spec);
    }

    #[test]
    fn bool_kernels_match_scalar_oracle(
        cells in prop::collection::vec(prop::option::of(any::<bool>()), 1..150),
        op in 0u8..5,
        a in any::<bool>(),
        b in any::<bool>(),
    ) {
        let cells: Vec<Value> = cells
            .into_iter()
            .map(|c| c.map(Value::Bool).unwrap_or(Value::Null))
            .collect();
        let t = one_column_table("bools", DataType::Bool, cells);
        let spec = spec_of(op, Value::Bool(a), Value::Bool(b), vec![Value::Bool(a)]);
        assert_parity(&t, DataType::Bool, &spec);
    }

    #[test]
    fn conjunction_words_equal_per_row_conjunction(
        cells in prop::collection::vec(prop::option::of(arb_int_cell()), 1..150),
        lo in -20i64..20,
        hi in -20i64..20,
        probe in arb_num_operand(),
    ) {
        let cells: Vec<Value> = cells
            .into_iter()
            .map(|c| c.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        let t = one_column_table("conj", DataType::Int, cells);
        let col = t.column(0);
        let specs = [
            CmpSpec::Ge(Value::Int(lo)),
            CmpSpec::Le(Value::Int(hi)),
            CmpSpec::Ge(probe),
        ];
        let kernels = specs
            .iter()
            .map(|s| kernel::compile(col, DataType::Int, s))
            .collect();
        let got = ScanPlan::new(kernels, t.len()).collect();
        for rid in 0..t.len() {
            let cell = col.value_at(rid);
            let want = specs.iter().all(|s| s.matches(&cell));
            prop_assert_eq!(got.contains(rid), want, "row {}", rid);
        }
    }

    /// Columns spanning up to twenty words with a ragged tail: the SIMD
    /// fast path covers the full words, the scalar tail the rest, and
    /// both must agree with the oracle on every tier.
    #[test]
    fn multi_word_ragged_tails_match_oracle(
        n in 1usize..1300,
        seed in any::<i64>(),
        lo in -60i64..60,
        hi in -60i64..60,
        probe_float in arb_num_operand(),
    ) {
        let mut x = seed as u64 | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        let int_cells: Vec<Value> = (0..n)
            .map(|_| {
                let r = next();
                if r % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int((r >> 33) as i64 % 100 - 50)
                }
            })
            .collect();
        let t = one_column_table("mw_ints", DataType::Int, int_cells);
        assert_parity(&t, DataType::Int, &CmpSpec::Between(Value::Int(lo), Value::Int(hi)));
        assert_parity(&t, DataType::Int, &spec_of(1, probe_float, Value::Null, vec![]));

        let float_cells: Vec<Value> = (0..n)
            .map(|_| {
                let r = next();
                match r % 13 {
                    0 => Value::Null,
                    1 => Value::Float(-0.0),
                    2 => Value::Float(f64::NAN),
                    _ => Value::Float((r >> 33) as i64 as f64 / 64.0 - 60.0),
                }
            })
            .collect();
        let t = one_column_table("mw_floats", DataType::Float, float_cells);
        assert_parity(
            &t,
            DataType::Float,
            &CmpSpec::Between(Value::Int(lo), Value::Int(hi)),
        );
        assert_parity(&t, DataType::Float, &CmpSpec::Le(probe_float));

        let text_cells: Vec<Value> = (0..n)
            .map(|_| {
                let r = next();
                if r % 7 == 0 {
                    Value::Null
                } else {
                    Value::text(["a", "b", "c", "d"][(r >> 33) as usize % 4])
                }
            })
            .collect();
        let t = one_column_table("mw_texts", DataType::Text, text_cells);
        assert_parity(&t, DataType::Text, &CmpSpec::Eq(Value::text("b")));
        assert_parity(
            &t,
            DataType::Text,
            &CmpSpec::In(vec![Value::text("a"), Value::text("d"), Value::text("zz")]),
        );
    }
}

/// Deterministic regression cases for the exact boundary semantics the
/// kernels must preserve (each of these bit the row-at-a-time matcher at
/// some point in its history).
#[test]
fn boundary_semantics_pin_down() {
    let ints = one_column_table(
        "pin_i",
        DataType::Int,
        vec![
            Value::Int(i64::MAX),
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Null,
        ],
    );
    // -0.0 sorts strictly below Int(0): Le(-0.0) excludes 0.
    let le_neg_zero = CmpSpec::Le(Value::Float(-0.0));
    assert!(!le_neg_zero.matches(&Value::Int(0)));
    assert_parity(&ints, DataType::Int, &le_neg_zero);
    // Ge(2^63 as f64) must keep admitting i64::MAX (widening is lossy
    // exactly there: i64::MAX as f64 == 2^63).
    let ge_two63 = CmpSpec::Ge(Value::Float(TWO_63));
    assert!(ge_two63.matches(&Value::Int(i64::MAX)));
    assert_parity(&ints, DataType::Int, &ge_two63);
    // NaN operands fall back to total-order semantics: Int < NaN.
    let le_nan = CmpSpec::Le(Value::Float(f64::NAN));
    assert!(le_nan.matches(&Value::Int(i64::MAX)));
    assert_parity(&ints, DataType::Int, &le_nan);
    // Lossy cell-widening band: Int(2^62 - 1) widens to exactly 2^62, so
    // the scalar order admits it under Ge(Float(2^62)) — the kernel must
    // agree (it falls back to the generic path for 2^53+ float bounds).
    let two_62 = TWO_62;
    let wide = one_column_table(
        "pin_wide",
        DataType::Int,
        vec![
            Value::Int((1i64 << 62) - 1),
            Value::Int(1i64 << 62),
            Value::Int((1i64 << 53) + 1),
        ],
    );
    let ge_two62 = CmpSpec::Ge(Value::Float(two_62));
    assert!(ge_two62.matches(&Value::Int((1i64 << 62) - 1)));
    assert_parity(&wide, DataType::Int, &ge_two62);
    assert_parity(&wide, DataType::Int, &CmpSpec::Eq(Value::Float(two_62)));
    // Int(2^53 + 1) widens DOWN to 2^53: Le(Float(2^53)) admits it.
    let le_two53 = CmpSpec::Le(Value::Float(TWO_53));
    assert!(le_two53.matches(&Value::Int((1i64 << 53) + 1)));
    assert_parity(&wide, DataType::Int, &le_two53);

    let floats = one_column_table(
        "pin_f",
        DataType::Float,
        vec![
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
        ],
    );
    // Eq(NaN) matches NaN (total order), not -NaN.
    assert_parity(
        &floats,
        DataType::Float,
        &CmpSpec::Eq(Value::Float(f64::NAN)),
    );
    // Between(-0.0, 0.0) separates the zero signs from everything else.
    assert_parity(
        &floats,
        DataType::Float,
        &CmpSpec::Between(Value::Float(-0.0), Value::Float(0.0)),
    );
    // Ge(+inf) still admits positive NaN, which sorts above it.
    assert_parity(
        &floats,
        DataType::Float,
        &CmpSpec::Ge(Value::Float(f64::INFINITY)),
    );
}
