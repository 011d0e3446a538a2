//! The scalar value model of the dataflow engine.
//!
//! The engine is record-oriented, in the spirit of the PACT record model used
//! by Stratosphere: a [`Record`](crate::record::Record) is a short sequence of
//! [`Value`]s, and operators address key fields by position.  Keeping the
//! value model small and copy-friendly keeps record routing (partitioning,
//! broadcasting) cheap, which matters because the iterative workloads of the
//! paper ship hundreds of millions of records between worker partitions.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A scalar value stored inside a [`Record`](crate::record::Record).
///
/// The engine intentionally supports only the handful of types the paper's
/// workloads need (vertex ids, component ids, ranks, transition probabilities
/// and small labels).  `Double` values are totally ordered and hashable via
/// their bit pattern so that they can participate in keys, mirroring how
/// Stratosphere treats all fields as binary-comparable serialized data.
#[derive(Debug, Clone)]
pub enum Value {
    /// The absent value.
    Null,
    /// A boolean flag (used e.g. by the simulated-incremental baseline).
    Bool(bool),
    /// A 64-bit signed integer; vertex ids and component ids use this.
    Long(i64),
    /// A 64-bit float; ranks and transition probabilities use this.
    Double(f64),
    /// A small string label.
    Text(String),
}

/// The type tag of [`Value::Long`], shared with the key-hashing fast path in
/// [`crate::key`] so the inline-long hash stays byte-identical to the generic
/// `Value::hash` stream.
pub(crate) const LONG_TYPE_TAG: u8 = 2;

impl Value {
    /// Returns the contained integer, panicking with a descriptive message if
    /// the value has a different type.  Operator UDFs use this accessor when
    /// the plan guarantees the field type.
    #[inline]
    pub fn as_long(&self) -> i64 {
        match self {
            Value::Long(v) => *v,
            other => panic!("expected Long value, found {other:?}"),
        }
    }

    /// Returns the contained float, panicking if the value is not a `Double`.
    #[inline]
    pub fn as_double(&self) -> f64 {
        match self {
            Value::Double(v) => *v,
            Value::Long(v) => *v as f64,
            other => panic!("expected Double value, found {other:?}"),
        }
    }

    /// Returns the contained boolean, panicking if the value is not a `Bool`.
    #[inline]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected Bool value, found {other:?}"),
        }
    }

    /// Returns the contained string slice, panicking if the value is not text.
    #[inline]
    pub fn as_text(&self) -> &str {
        match self {
            Value::Text(v) => v.as_str(),
            other => panic!("expected Text value, found {other:?}"),
        }
    }

    /// A stable small integer identifying the type, used for cross-type
    /// ordering and hashing.
    #[inline]
    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Long(_) => LONG_TYPE_TAG,
            Value::Double(_) => 3,
            Value::Text(_) => 4,
        }
    }

    /// The **exact** serialized width of this value in bytes under the binary
    /// page format of [`crate::page`] (one tag byte plus the payload; text
    /// adds a 4-byte length).  Used by the optimizer's cost model, the
    /// runtime's shipped-bytes counter, and the page writer's fit check.
    pub fn estimated_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Long(_) => 9,
            Value::Double(_) => 9,
            Value::Text(s) => 1 + 4 + s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_tag());
        match self {
            Value::Null => {}
            Value::Bool(v) => v.hash(state),
            Value::Long(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Text(v) => v.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Long(a), Value::Long(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            // Cross-type comparisons fall back to the type tag so that sorting
            // heterogeneous columns is total and deterministic.
            (a, b) => a.type_tag().cmp(&b.type_tag()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Long(i64::from(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Long(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
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
    fn long_accessor_and_conversion() {
        let v: Value = 42i64.into();
        assert_eq!(v.as_long(), 42);
        assert_eq!(v.as_double(), 42.0);
    }

    #[test]
    fn double_equality_is_bitwise() {
        assert_eq!(Value::Double(1.5), Value::Double(1.5));
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
    }

    #[test]
    fn ordering_within_types_is_natural() {
        assert!(Value::Long(3) < Value::Long(7));
        assert!(Value::Double(1.0) < Value::Double(2.0));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
    }

    #[test]
    fn ordering_across_types_uses_type_tag() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Long(0));
        assert!(Value::Long(i64::MAX) < Value::Double(f64::NEG_INFINITY));
    }

    #[test]
    fn hashing_is_consistent_with_equality() {
        let a = Value::Double(2.25);
        let b = Value::Double(2.25);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn estimated_bytes_reflects_payload() {
        assert_eq!(Value::Long(1).estimated_bytes(), 9);
        assert_eq!(Value::Double(0.5).estimated_bytes(), 9);
        assert_eq!(Value::Bool(true).estimated_bytes(), 2);
        assert_eq!(Value::Text("abcd".into()).estimated_bytes(), 9);
        assert_eq!(Value::Null.estimated_bytes(), 1);
    }

    #[test]
    #[should_panic(expected = "expected Long")]
    fn wrong_accessor_panics() {
        Value::Text("x".into()).as_long();
    }

    #[test]
    fn display_renders_scalars() {
        assert_eq!(Value::Long(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
