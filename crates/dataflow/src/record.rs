//! Records: the unit of data flowing along dataflow edges.

use crate::value::Value;
use std::fmt;

/// A record is a short, positionally addressed sequence of [`Value`]s.
///
/// Operators identify key fields by position (see [`crate::key`]), mirroring
/// the PACT record model: the system does not interpret the payload beyond
/// the declared key fields, which is what allows arbitrary user code inside
/// operators while still supporting partitioning, sorting and joining.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Record {
    fields: Vec<Value>,
}

impl Record {
    /// Creates a record from a vector of values.
    pub fn new(fields: Vec<Value>) -> Self {
        Record { fields }
    }

    /// Creates an empty record; fields can be appended with [`Record::push`].
    pub fn empty() -> Self {
        Record { fields: Vec::new() }
    }

    /// Convenience constructor for the ubiquitous `(long, long)` records
    /// (edges, vertex/component pairs, vertex/candidate pairs).
    pub fn pair(a: i64, b: i64) -> Self {
        Record {
            fields: vec![Value::Long(a), Value::Long(b)],
        }
    }

    /// Convenience constructor for `(long, double)` records (rank vectors).
    pub fn long_double(a: i64, b: f64) -> Self {
        Record {
            fields: vec![Value::Long(a), Value::Double(b)],
        }
    }

    /// Convenience constructor for `(long, long, double)` records (the sparse
    /// transition-matrix representation of PageRank).
    pub fn triple(a: i64, b: i64, c: f64) -> Self {
        Record {
            fields: vec![Value::Long(a), Value::Long(b), Value::Double(c)],
        }
    }

    /// Number of fields in the record.
    #[inline]
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Returns the field at `idx`; panics if the index is out of bounds, which
    /// indicates a plan/UDF arity mismatch.
    #[inline]
    pub fn field(&self, idx: usize) -> &Value {
        &self.fields[idx]
    }

    /// Returns the integer stored in field `idx`.
    #[inline]
    pub fn long(&self, idx: usize) -> i64 {
        self.fields[idx].as_long()
    }

    /// Returns the float stored in field `idx`.
    #[inline]
    pub fn double(&self, idx: usize) -> f64 {
        self.fields[idx].as_double()
    }

    /// Returns the boolean stored in field `idx`.
    #[inline]
    pub fn bool(&self, idx: usize) -> bool {
        self.fields[idx].as_bool()
    }

    /// Appends a field.
    #[inline]
    pub fn push(&mut self, value: Value) {
        self.fields.push(value);
    }

    /// Removes all fields, keeping the allocation.  Used by the page readers
    /// to reuse one scratch record across deserializations.
    #[inline]
    pub fn clear(&mut self) {
        self.fields.clear();
    }

    /// Borrow the underlying fields.
    #[inline]
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// Consume the record and return its fields.
    #[inline]
    pub fn into_fields(self) -> Vec<Value> {
        self.fields
    }

    /// Builds a new record by concatenating the fields of `self` and `other`;
    /// used by join-style operators that forward both sides.
    pub fn concat(&self, other: &Record) -> Record {
        let mut fields = Vec::with_capacity(self.arity() + other.arity());
        fields.extend_from_slice(&self.fields);
        fields.extend_from_slice(&other.fields);
        Record { fields }
    }

    /// The **exact** serialized size of this record in bytes under the
    /// binary page format of [`crate::page`]: the 4-byte length prefix plus
    /// each field's width.  Used for shipped-bytes accounting, the
    /// optimizer's cost model, and the page writer's fit check.
    pub fn estimated_bytes(&self) -> usize {
        crate::page::RECORD_FRAME_BYTES
            + self
                .fields
                .iter()
                .map(Value::estimated_bytes)
                .sum::<usize>()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Record {
    fn from(fields: Vec<Value>) -> Self {
        Record::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_constructor_and_accessors() {
        let r = Record::pair(3, 9);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.long(0), 3);
        assert_eq!(r.long(1), 9);
    }

    #[test]
    fn long_double_and_triple() {
        let r = Record::long_double(1, 0.25);
        assert_eq!(r.double(1), 0.25);
        let t = Record::triple(1, 2, 0.5);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.long(1), 2);
        assert_eq!(t.double(2), 0.5);
    }

    #[test]
    fn push_appends_fields() {
        let mut r = Record::empty();
        r.push(Value::Long(5));
        r.push(Value::Text("x".into()));
        assert_eq!(r.long(0), 5);
        assert_eq!(r.field(1).as_text(), "x");
    }

    #[test]
    fn concat_joins_fields_in_order() {
        let a = Record::pair(1, 2);
        let b = Record::long_double(3, 4.0);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.long(2), 3);
        assert_eq!(c.double(3), 4.0);
    }

    #[test]
    fn estimated_bytes_sums_fields() {
        let r = Record::pair(1, 2);
        assert_eq!(r.estimated_bytes(), 4 + 9 + 9);
    }

    #[test]
    fn estimated_bytes_is_the_exact_serialized_width() {
        // The estimate doubles as the fit check of the page writer, so it
        // must equal the serialized length for every variant, fixed-width
        // and variable-width alike.
        let records = [
            Record::pair(1, -1),
            Record::long_double(7, 0.25),
            Record::new(vec![
                Value::Null,
                Value::Bool(false),
                Value::Text("多字节 ✓".into()),
            ]),
            Record::empty(),
        ];
        for r in records {
            let mut buf = Vec::new();
            crate::page::serialize_record(&r, &mut buf);
            assert_eq!(buf.len(), r.estimated_bytes(), "width mismatch for {r}");
        }
    }

    #[test]
    fn clear_keeps_the_record_usable() {
        let mut r = Record::pair(1, 2);
        r.clear();
        assert_eq!(r.arity(), 0);
        r.push(Value::Long(9));
        assert_eq!(r.long(0), 9);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(Record::pair(1, 2).to_string(), "(1, 2)");
    }

    #[test]
    fn records_are_hashable_and_ordered() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Record::pair(1, 2));
        set.insert(Record::pair(1, 2));
        assert_eq!(set.len(), 1);
        assert!(Record::pair(1, 2) < Record::pair(1, 3));
    }
}
