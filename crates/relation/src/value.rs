//! Cell values and column data types for the in-memory relational engine.
//!
//! The engine is dynamically typed at the cell level: every cell holds a
//! [`Value`], and every column declares a [`DataType`] that its non-null
//! values must conform to. Values carry a total order (`Ord`) so they can be
//! used as keys in ordered indexes and for range predicates; floats are
//! ordered with `f64::total_cmp` and hashed through their bit pattern.
//!
//! ## One float domain
//!
//! A table holds no NaN and no `-0.0`. Every write of a float cell goes
//! through [`canonical_float`], which stores a NaN of either sign as NULL
//! (SQL's "no value", which every layer already skips) and `-0.0` as
//! `0.0`. So the statistics, the evaluator and the executed SQL read one
//! number line on which IEEE comparisons and `Value`'s total order agree,
//! and no layer above the tables special-cases either value. The total
//! order's NaN and `-0.0` rules (`-0.0` below `0.0`, NaN above `+inf`)
//! remain for query operands, which can be any `Value`.
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
    /// 64-bit IEEE float with total ordering.
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

/// The float a table stores for `x`: `None` (a NULL cell) for a NaN of
/// either sign, `0.0` for `-0.0`, and `x` itself otherwise. Every float
/// cell a table holds was decided here (see the module docs).
pub fn canonical_float(x: f64) -> Option<f64> {
    if x.is_nan() {
        None
    } else if x == 0.0 {
        Some(0.0)
    } else {
        Some(x)
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
    /// Floating point value.
    Float(f64),
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
            Value::Float(x) => Some(*x),
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
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
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
                x.to_bits().hash(state);
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
            Value::Float(x) => write!(f, "{x}"),
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
        Value::Float(v)
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
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn int_float_hash_consistently_with_eq() {
        // Int(3) == Float(3.0) so their hashes must agree.
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
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

    #[test]
    fn nan_has_a_total_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
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
