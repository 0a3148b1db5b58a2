//! Cell values and column data types for the in-memory relational engine.
//!
//! The engine is dynamically typed at the cell level: every cell holds a
//! [`Value`], and every column declares a [`DataType`] that its non-null
//! values must conform to. Values carry a total order (`Ord`) so they can be
//! used as keys in ordered indexes and for range predicates.
//!
//! ## One float domain
//!
//! A float is a [`Real`]: never NaN, never `-0.0`. [`Real::new`] is the
//! one decision: a NaN of either sign has no `Real` (a float write stores
//! it as NULL, SQL's "no value", which every layer already skips) and
//! `-0.0` becomes `0.0`. `Value::Float` holds a `Real`, so neither a table
//! cell nor a query operand can carry either value. The statistics, the
//! evaluator, the predicate kernels and the executed SQL read one number
//! line on which IEEE comparisons and `Value`'s total order agree, and no
//! layer special-cases NaN or `-0.0`.
//!
//! Text values are dictionary-encoded through the global interner
//! ([`Sym`]): a `Value` is a 16-byte `Copy` scalar, text equality and
//! hashing are single integer operations, and "cloning" a value is a
//! register move — no `Arc` traffic, no heap allocation anywhere on the
//! scan paths.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::intern::Sym;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float, never NaN or `-0.0` ([`Real`]).
    Float,
    /// Interned UTF-8 string (dictionary-encoded, `Copy`).
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A float that is never NaN and never `-0.0` (see the module docs).
///
/// Outside this crate a `Real` comes only from [`Real::new`], so a raw
/// `f64` cannot be written into a [`Value`]:
///
/// ```compile_fail
/// # use squid_relation::Value;
/// let v = Value::Float(f64::NAN);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Real(f64);

impl Real {
    /// The `Real` for `x`: `None` for a NaN of either sign, `0.0` for
    /// `-0.0`, and `x` itself otherwise.
    pub fn new(x: f64) -> Option<Real> {
        if x.is_nan() {
            None
        } else if x == 0.0 {
            Some(Real(0.0))
        } else {
            Some(Real(x))
        }
    }

    /// A float already in the domain: a table cell, which every write
    /// stored through [`Real::new`]. Reads of cells use this, so they cost
    /// nothing beyond the load.
    #[inline]
    pub(crate) fn from_cell(x: f64) -> Real {
        debug_assert!(Real::new(x).is_some_and(|r| r.0.to_bits() == x.to_bits()));
        Real(x)
    }

    /// The float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

/// A single cell value.
///
/// `Null` compares less than every non-null value; mixed-type comparisons
/// fall back to a fixed type rank so that the order is total (needed for
/// B-tree style indexes), but well-typed tables never mix types in a column.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// SQL NULL / missing.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating point value: never NaN, never `-0.0`.
    Float(Real),
    /// Text value, dictionary-encoded via the global interner.
    Text(Sym),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Construct a text value from anything string-like (interns it).
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Sym::intern(s.as_ref()))
    }

    /// A float value; a NaN of either sign is `Null` (see [`Real::new`]).
    pub fn float(x: f64) -> Self {
        Real::new(x).map_or(Value::Null, Value::Float)
    }

    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload; integers are widened so numeric columns interoperate.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(x.get()),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String payload, if this is `Text`.
    pub fn as_text(&self) -> Option<&'static str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Interned symbol, if this is `Text`.
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Text(s) => Some(*s),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to totally order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numeric values compare with each other
            Value::Text(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            // Fast paths: no string resolution, symbol ids decide equality.
            (Text(a), Text(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.get().total_cmp(&b.get()),
            (Int(a), Float(b)) => (*a as f64).total_cmp(&b.get()),
            (Float(a), Int(b)) => a.get().total_cmp(&(*b as f64)),
            // Same symbol is equal without resolving; otherwise compare the
            // underlying strings to keep the order lexicographic.
            (Text(a), Text(b)) => {
                if a == b {
                    Ordering::Equal
                } else {
                    a.as_str().cmp(b.as_str())
                }
            }
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                2u8.hash(state);
                x.get().to_bits().hash(state);
            }
            Value::Text(s) => {
                // Symbol ids are injective over strings, so hashing the id
                // is consistent with `Eq` and skips string resolution.
                3u8.hash(state);
                s.id().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.get()),
            Value::Text(s) => write!(f, "{}", s.as_str()),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(v)
    }
}

impl From<Sym> for Value {
    fn from(v: Sym) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::text(""));
        assert!(Value::Null < Value::Bool(false));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3), Value::float(3.0));
        assert!(Value::Int(3) < Value::float(3.5));
        assert!(Value::float(2.5) < Value::Int(3));
    }

    #[test]
    fn int_float_hash_consistently_with_eq() {
        // Int(3) == Float(3.0) so their hashes must agree.
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::float(3.0)));
    }

    #[test]
    fn text_ordering_is_lexicographic() {
        assert!(Value::text("abc") < Value::text("abd"));
        assert!(Value::text("ab") < Value::text("abc"));
        // Insertion order must NOT leak into Value ordering.
        let late = Value::text("zz-interned-later");
        let early = Value::text("aa-interned-after-z");
        assert!(early < late);
    }

    #[test]
    fn interned_text_roundtrips() {
        let v = Value::text("  Mixed Case  ");
        assert_eq!(v.as_text(), Some("  Mixed Case  "));
        assert_eq!(v.to_string(), "  Mixed Case  ");
        assert_eq!(v, Value::text("  Mixed Case  "));
        assert_eq!(hash_of(&v), hash_of(&Value::text("  Mixed Case  ")));
        assert_ne!(v, Value::text("mixed case"));
    }

    #[test]
    fn values_are_copy_scalars() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Value>();
        assert!(std::mem::size_of::<Value>() <= 16);
    }

    /// `Real::new` is the one float decision, and `Value::float` and
    /// `From<f64>` follow it: NaN of either sign is no value, `-0.0` is
    /// `0.0`, every other float (±∞ included) is itself.
    #[test]
    fn the_float_domain_is_decided_once() {
        let cases = [
            (f64::NAN, None),
            (-f64::NAN, None),
            (-0.0, Some(0.0f64)),
            (0.0, Some(0.0)),
            (f64::INFINITY, Some(f64::INFINITY)),
            (f64::NEG_INFINITY, Some(f64::NEG_INFINITY)),
            (1.5, Some(1.5)),
        ];
        for (x, want) in cases {
            let bits = want.map(f64::to_bits);
            assert_eq!(Real::new(x).map(|r| r.get().to_bits()), bits, "{x}");
            for v in [Value::float(x), Value::from(x)] {
                match v {
                    Value::Float(r) => assert_eq!(Some(r.get().to_bits()), bits, "{x}"),
                    Value::Null => assert_eq!(bits, None, "{x}"),
                    other => panic!("{x} became {other:?}"),
                }
            }
        }
        let (neg_zero, zero) = (Value::float(-0.0), Value::float(0.0));
        assert_eq!(neg_zero, zero);
        assert_eq!(neg_zero, Value::Int(0));
        assert_eq!(hash_of(&neg_zero), hash_of(&zero));
        assert_eq!(hash_of(&neg_zero), hash_of(&Value::Int(0)));
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }

    #[test]
    fn data_type_reporting() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
    }
}
