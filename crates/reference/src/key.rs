//! Record-level key comparison and grouping: the reference every grouping
//! and sort-merge of the engine is checked against.

use dataflow::record::Record;
use std::cmp::Ordering;

/// Compares two records on their respective key fields, field by field in
/// declaration order.
pub fn compare_keys(a: &Record, a_fields: &[usize], b: &Record, b_fields: &[usize]) -> Ordering {
    debug_assert_eq!(a_fields.len(), b_fields.len(), "key arity mismatch");
    let a_values = a_fields.iter().map(|&i| a.field(i));
    a_values.cmp(b_fields.iter().map(|&i| b.field(i)))
}

/// True if the key fields of `a` equal the key fields of `b`.
pub fn keys_equal(a: &Record, a_fields: &[usize], b: &Record, b_fields: &[usize]) -> bool {
    compare_keys(a, a_fields, b, b_fields).is_eq()
}

/// Sorts records in place by their key fields; ties keep their input order
/// (a stable sort).
pub fn sort_by_key(records: &mut [Record], fields: &[usize]) {
    records.sort_by(|a, b| compare_keys(a, fields, b, fields));
}

/// The `(start, end)` ranges of the key groups of `records`, which must be
/// sorted on `fields`.
pub fn group_ranges(records: &[Record], fields: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < records.len() {
        let same = |r: &&Record| keys_equal(&records[start], fields, r, fields);
        let len = records[start..].iter().take_while(same).count();
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::value::Value;

    #[test]
    fn compare_keys_orders_by_fields_in_order() {
        let a = Record::pair(1, 9);
        let b = Record::pair(1, 2);
        assert_eq!(compare_keys(&a, &[0], &b, &[0]), Ordering::Equal);
        assert_eq!(compare_keys(&a, &[0, 1], &b, &[0, 1]), Ordering::Greater);
        assert_eq!(compare_keys(&b, &[1], &a, &[1]), Ordering::Less);
    }

    #[test]
    fn group_ranges_splits_sorted_runs() {
        let mut records = vec![
            Record::pair(2, 0),
            Record::pair(1, 1),
            Record::pair(1, 2),
            Record::pair(3, 0),
            Record::pair(2, 5),
        ];
        sort_by_key(&mut records, &[0]);
        let ranges = group_ranges(&records, &[0]);
        assert_eq!(ranges, vec![(0, 2), (2, 4), (4, 5)]);
        assert_eq!(records[0].long(0), 1);
        assert_eq!(records[4].long(0), 3);
    }

    #[test]
    fn group_ranges_on_empty_input() {
        assert!(group_ranges(&[], &[0]).is_empty());
    }

    #[test]
    fn keys_can_join_across_different_positions() {
        // Match joins vector (pid at field 0) with matrix (pid at field 1).
        let vector = Record::long_double(4, 0.25);
        let matrix = Record::triple(9, 4, 0.5);
        assert!(keys_equal(&vector, &[0], &matrix, &[1]));
        assert!(!keys_equal(&vector, &[0], &matrix, &[0]));
    }

    #[test]
    fn ties_keep_their_input_order_on_every_key_shape() {
        let text = |s: &str, v: i64| Record::new(vec![Value::Text(s.into()), Value::Long(v)]);
        let mut words = vec![text("b", 0), text("a", 1), text("b", 2), text("a", 3)];
        sort_by_key(&mut words, &[0]);
        let order: Vec<i64> = words.iter().map(|r| r.long(1)).collect();
        assert_eq!(order, [1, 3, 0, 2]);
        assert_eq!(group_ranges(&words, &[0]), vec![(0, 2), (2, 4)]);
    }
}
