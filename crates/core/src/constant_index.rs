//! The cached constant path of a workset iteration: the constant input `N`
//! partitioned and indexed on its join key once per run — the cached hash
//! table of Figure 6 — and probed by every applied delta.
//!
//! For a single-`Long` join key (every graph workload) a partition's share
//! lives serialized in a [`PagedRecords`] store under a [`PrefixTable`], the
//! build side of the executor's page-native `Match`: building it copies
//! bytes, not records, and a probe reads its matches into one reused scratch
//! slice.  Other key shapes keep a map of cloned records, as they keep the
//! materializing group path.

use dataflow::key::FxHashMap;
use dataflow::page::{long_key_prefix_of, long_key_prefix_of_fields, PagedRecords, PrefixTable};
use dataflow::prelude::{Key, Record, Value};

/// One partition's share of the constant input, indexed on the join key.
pub(crate) enum ConstantIndex {
    /// Single-`Long` keys: serialized records under their key prefix (for a
    /// single `Long` the prefix is the whole key).
    Paged {
        store: PagedRecords,
        table: PrefixTable,
    },
    /// Any other key shape.
    Map(FxHashMap<Key, Vec<Record>>),
}

impl ConstantIndex {
    /// An empty index on the join key `key`: paged while every key it is
    /// given is a single `Long`, a map from the first one that is not.
    pub(crate) fn new(key: &[usize]) -> ConstantIndex {
        match key {
            [_] => ConstantIndex::Paged {
                store: PagedRecords::new(),
                table: PrefixTable::new(),
            },
            _ => ConstantIndex::Map(FxHashMap::default()),
        }
    }

    /// Indexes one constant record given as its field slice, after every
    /// record inserted before it.  The paged form copies the fields into its
    /// store; no heap record exists.
    pub(crate) fn insert_fields(&mut self, key: &[usize], fields: &[Value]) {
        if let ConstantIndex::Paged { store, table } = self {
            if let Some(prefix) = long_key_prefix_of_fields(fields, key[0]) {
                table.insert(prefix, store.append_fields(fields));
                return;
            }
            // The first key that is not a `Long`: what is stored so far moves
            // into a map, in insertion order, and the index stays one.
            let mut map: FxHashMap<Key, Vec<Record>> = FxHashMap::default();
            store.for_each_handle(|_, view| {
                let record = view.materialize();
                map.entry(Key::extract(&record, key))
                    .or_default()
                    .push(record);
            });
            *self = ConstantIndex::Map(map);
        }
        let ConstantIndex::Map(map) = self else {
            unreachable!("a paged index that met a non-`Long` key became a map");
        };
        map.entry(Key::extract_fields(fields, key))
            .or_default()
            .push(Record::new(fields.to_vec()));
    }

    /// The constant records whose join key equals `delta`'s `delta_key`
    /// fields, in input order.  Paged matches are deserialized into
    /// `scratch`, whose records keep their capacity from probe to probe.
    pub(crate) fn matches<'a>(
        &'a self,
        delta: &Record,
        delta_key: &[usize],
        scratch: &'a mut Vec<Record>,
    ) -> &'a [Record] {
        match self {
            ConstantIndex::Map(map) => map
                .get(&Key::extract(delta, delta_key))
                .map_or(&[], Vec::as_slice),
            ConstantIndex::Paged { store, table } => {
                // Only a single `Long` can equal a single-`Long` key.
                let &[field] = delta_key else { return &[] };
                let Some(prefix) = long_key_prefix_of(delta, field) else {
                    return &[];
                };
                let mut matched = 0;
                for handle in table.probe(prefix) {
                    if matched == scratch.len() {
                        scratch.push(Record::empty());
                    }
                    store.view(handle).read_into(&mut scratch[matched]);
                    matched += 1;
                }
                &scratch[..matched]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(records: &[Record], key: &[usize]) -> ConstantIndex {
        let mut index = ConstantIndex::new(key);
        for record in records {
            index.insert_fields(key, record.fields());
        }
        index
    }

    fn matches_of(index: &ConstantIndex, delta: &Record, delta_key: &[usize]) -> Vec<Record> {
        index.matches(delta, delta_key, &mut Vec::new()).to_vec()
    }

    fn with_key<'r>(records: &'r [Record], key: &'r Value) -> impl Iterator<Item = Record> + 'r {
        records.iter().filter(move |r| r.field(0) == key).cloned()
    }

    #[test]
    fn long_keys_are_paged_and_probe_in_input_order() {
        let records: Vec<Record> = (0..200i64).map(|i| Record::pair(i % 17, i)).collect();
        let index = index_of(&records, &[0]);
        assert!(matches!(index, ConstantIndex::Paged { .. }));
        for key in 0..17 {
            let expected: Vec<Record> = with_key(&records, &Value::Long(key)).collect();
            assert_eq!(matches_of(&index, &Record::pair(key, -1), &[0]), expected);
        }
        assert!(matches_of(&index, &Record::pair(99, 0), &[0]).is_empty());
        // A delta key of another type equals no `Long` key.
        let text = Record::new(vec![Value::Text("3".into())]);
        assert!(matches_of(&index, &text, &[0]).is_empty());
    }

    #[test]
    fn other_key_shapes_keep_the_map_and_agree_with_it() {
        let text = |i: i64| Value::Text(format!("v{}", i % 5));
        let records: Vec<Record> = (0..40i64)
            .map(|i| Record::new(vec![text(i), Value::Long(i)]))
            .collect();
        let index = index_of(&records, &[0]);
        assert!(matches!(index, ConstantIndex::Map(_)));
        let expected: Vec<Record> = with_key(&records, &text(3)).collect();
        assert_eq!(
            matches_of(&index, &Record::new(vec![text(3)]), &[0]),
            expected
        );
        // A composite key is a map from the first record on.
        let pairs: Vec<Record> = (0..40i64).map(|i| Record::pair(i % 4, i % 2)).collect();
        let index = index_of(&pairs, &[0, 1]);
        assert!(matches!(index, ConstantIndex::Map(_)));
        assert_eq!(matches_of(&index, &Record::pair(3, 1), &[0, 1]).len(), 10);
    }

    #[test]
    fn the_first_non_long_key_turns_a_paged_index_into_a_map_keeping_its_order() {
        let mut records: Vec<Record> = (0..3000i64).map(|i| Record::pair(i % 7, i)).collect();
        records.push(Record::new(vec![Value::Text("x".into()), Value::Long(-1)]));
        records.extend((0..50i64).map(|i| Record::pair(i % 7, -i)));
        let index = index_of(&records, &[0]);
        assert!(matches!(index, ConstantIndex::Map(_)));
        for key in (0..7).map(Value::Long).chain([Value::Text("x".into())]) {
            let expected: Vec<Record> = with_key(&records, &key).collect();
            assert_eq!(matches_of(&index, &Record::new(vec![key]), &[0]), expected);
        }
    }
}
