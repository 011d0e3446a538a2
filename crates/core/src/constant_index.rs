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
use dataflow::page::{long_key_prefix_of, PagedRecords, PrefixTable};
use dataflow::prelude::{ClusterSpec, Key, PartitionRouter, Record};

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
    /// Partitions and indexes `records` with the run's router, one pool task
    /// per partition this process owns.  Constant records live in the
    /// partition their join partners are routed to under either routing
    /// scheme; partitions owned by other processes stay empty (their owners
    /// build them from the same SPMD input).
    pub(crate) fn build_all(
        records: &[Record],
        key: &[usize],
        router: &PartitionRouter,
        cluster: &ClusterSpec,
    ) -> Vec<ConstantIndex> {
        let parallelism = router.parallelism();
        let mut index: Vec<ConstantIndex> = (0..parallelism)
            .map(|_| ConstantIndex::Map(FxHashMap::default()))
            .collect();
        spinning_pool::global().scope(|scope| {
            for (partition, slot) in index.iter_mut().enumerate() {
                if cluster.owns(partition, parallelism) {
                    scope.spawn_labeled("constant-index", move || {
                        *slot = ConstantIndex::build(records, key, router, partition);
                    });
                }
            }
        });
        index
    }

    /// Indexes the records `router` sends to `partition`.
    fn build(
        records: &[Record],
        key: &[usize],
        router: &PartitionRouter,
        partition: usize,
    ) -> ConstantIndex {
        let owned = || {
            records
                .iter()
                .filter(move |record| router.route(record, key) == partition)
        };
        if let &[field] = key {
            let mut store = PagedRecords::new();
            let mut table = PrefixTable::new();
            let all_long = owned().all(|record| match long_key_prefix_of(record, field) {
                Some(prefix) => {
                    table.insert(prefix, store.append(record));
                    true
                }
                None => false,
            });
            if all_long {
                return ConstantIndex::Paged { store, table };
            }
        }
        let mut map: FxHashMap<Key, Vec<Record>> = FxHashMap::default();
        for record in owned() {
            map.entry(Key::extract(record, key))
                .or_default()
                .push(record.clone());
        }
        ConstantIndex::Map(map)
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
    use dataflow::prelude::Value;

    fn matches_of(
        index: &[ConstantIndex],
        router: &PartitionRouter,
        delta: &Record,
    ) -> Vec<Record> {
        let mut scratch = Vec::new();
        index[router.route(delta, &[0])]
            .matches(delta, &[0], &mut scratch)
            .to_vec()
    }

    #[test]
    fn long_keys_are_paged_and_probe_in_input_order() {
        let records: Vec<Record> = (0..200i64).map(|i| Record::pair(i % 17, i)).collect();
        let router = PartitionRouter::hash(3);
        let index = ConstantIndex::build_all(&records, &[0], &router, &ClusterSpec::single());
        assert!(index
            .iter()
            .all(|part| matches!(part, ConstantIndex::Paged { .. })));
        for key in 0..17 {
            let expected: Vec<Record> = records
                .iter()
                .filter(|r| r.long(0) == key)
                .cloned()
                .collect();
            assert_eq!(
                matches_of(&index, &router, &Record::pair(key, -1)),
                expected
            );
        }
        assert!(matches_of(&index, &router, &Record::pair(99, 0)).is_empty());
        // A delta key of another type equals no `Long` key.
        let text = Record::new(vec![Value::Text("3".into())]);
        assert!(matches_of(&index, &router, &text).is_empty());
    }

    #[test]
    fn other_key_shapes_keep_the_map_and_agree_with_it() {
        let text = |i: i64| Value::Text(format!("v{}", i % 5));
        let records: Vec<Record> = (0..40i64)
            .map(|i| Record::new(vec![text(i), Value::Long(i)]))
            .collect();
        let router = PartitionRouter::hash(2);
        let index = ConstantIndex::build_all(&records, &[0], &router, &ClusterSpec::single());
        assert!(index
            .iter()
            .all(|part| matches!(part, ConstantIndex::Map(_))));
        let probe = Record::new(vec![text(3)]);
        let expected: Vec<Record> = records
            .iter()
            .filter(|r| r.field(0) == &text(3))
            .cloned()
            .collect();
        assert_eq!(matches_of(&index, &router, &probe), expected);
    }

    #[test]
    fn partitions_of_other_processes_stay_empty() {
        let records: Vec<Record> = (0..64i64).map(|i| Record::pair(i, i)).collect();
        let router = PartitionRouter::hash(4);
        let cluster = ClusterSpec::new(2, 1).expect("spec");
        let index = ConstantIndex::build_all(&records, &[0], &router, &cluster);
        for (partition, part) in index.iter().enumerate() {
            let filled = match part {
                ConstantIndex::Paged { store, .. } => !store.is_empty(),
                ConstantIndex::Map(map) => !map.is_empty(),
            };
            assert_eq!(filled, cluster.owns(partition, 4), "partition {partition}");
        }
    }
}
