//! The join index: one build side indexed on its join key, shared by both
//! engines.  The executor's hash join builds it per partition from the
//! delivered build input (`JoinIndex::from_partition`) and probes it with
//! the streamed side, fused or not; a workset iteration builds it once per run
//! from the constant input while loading ([`JoinIndex::insert_fields`]) — the
//! cached hash table of the paper's Figure 6 — and probes it with every
//! applied delta, in batch and microstep mode alike.
//!
//! Whatever the key's shape, the records live serialized in a [`PageWriter`]
//! under a [`PrefixTable`] keyed on the grouping kernel's key prefix
//! ([`crate::page`]): delivered pages are adopted by pointer, spilled runs
//! revived as pages, and a probe — given as fields or read in place off a
//! page — hands out its matches as views of their stored bytes.  While
//! every key is one `Long` field the prefix is the whole key; any other key
//! shape hashes, and a probe filters its chain on the key bytes.

use crate::key::KeyFields;
use crate::page::{
    cmp_keys_in_place, key_matches_fields, key_prefix, key_prefix_of_fields, ExchangedPartition,
    PageWriter, PrefixTable, RecordView,
};
use crate::value::Value;

/// A build input indexed on its join key.
///
/// # Ordering contract
///
/// [`JoinIndex::matches`] returns the build records whose key equals the
/// probe's in **build insertion order**: the order `insert_fields` saw them,
/// or, built from a partition, the order its visitor
/// ([`ExchangedPartition::for_each_view`]) yields — delivery order, merged
/// key order for a sorted spilled partition (whose ties are in delivery
/// order, so a key's records keep delivery order either way).  That is the
/// order a join over the materialized build side would emit.
#[derive(Debug)]
pub struct JoinIndex {
    key: KeyFields,
    /// The serialized build records.
    store: PageWriter,
    /// Key prefix → handles into `store`, in insertion order per prefix.
    table: PrefixTable,
    /// Every key so far is one `Long` field: a chain holds exactly its key.
    exact: bool,
}

impl JoinIndex {
    /// An empty index on the join key `key`.
    pub fn new(key: &[usize]) -> JoinIndex {
        JoinIndex {
            key: key.to_vec(),
            store: PageWriter::new(),
            table: PrefixTable::new(),
            exact: true,
        }
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Indexes one build record given as its field slice, after every record
    /// inserted before it.  The fields are copied into the store; no heap
    /// record exists.
    pub fn insert_fields(&mut self, fields: &[Value]) {
        let (prefix, exact) = key_prefix_of_fields(fields, &self.key);
        self.table.insert(prefix, self.store.push_fields(fields));
        self.exact &= exact;
    }

    /// Indexes one delivered partition on `key` in delivery order: its
    /// pages adopted by pointer, its spilled runs revived as pages.  Fails
    /// with the underlying I/O error when a spilled run cannot be read.
    pub(crate) fn from_partition(
        part: ExchangedPartition,
        key: &[usize],
    ) -> std::io::Result<JoinIndex> {
        let (mut store, mut table) = (PageWriter::new(), PrefixTable::new());
        let exact = part.ingest(key, &mut store, |prefix, handle| {
            table.insert(prefix, handle)
        })?;
        Ok(JoinIndex {
            key: key.to_vec(),
            store,
            table,
            exact,
        })
    }

    /// The build records whose join key equals the `probe_key` fields of
    /// `probe`, in build insertion order, as views of their stored bytes.
    #[inline]
    pub fn matches<'a, 'p>(
        &'a self,
        probe: &'p [Value],
        probe_key: &'p [usize],
    ) -> impl Iterator<Item = RecordView<'a>> + use<'a, 'p> {
        let (prefix, exact) = key_prefix_of_fields(probe, probe_key);
        // A chain of exact keys under an exact probe is its key alone; any
        // other chain is filtered on the key bytes.
        let whole_key = exact && self.exact;
        let same_arity = probe_key.len() == self.key.len();
        self.table
            .probe(prefix)
            .map(|handle| self.store.view(handle))
            .filter(move |&view| {
                whole_key || (same_arity && key_matches_fields(view, &self.key, probe, probe_key))
            })
    }

    /// [`JoinIndex::matches`] of a probe record read in place off a page.
    #[inline]
    pub(crate) fn matches_view<'a, 'p>(
        &'a self,
        probe: RecordView<'p>,
        probe_key: &'p [usize],
    ) -> impl Iterator<Item = RecordView<'a>> + use<'a, 'p> {
        let (prefix, exact) = key_prefix(probe, probe_key);
        let whole_key = exact && self.exact;
        let same_arity = probe_key.len() == self.key.len();
        self.table
            .probe(prefix)
            .map(|handle| self.store.view(handle))
            .filter(move |&view| {
                whole_key
                    || (same_arity && cmp_keys_in_place(view, &self.key, probe, probe_key).is_eq())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::page::{serialize_record, PageWriter, RecordPage};
    use crate::record::Record;
    use crate::spill::{write_run_in, write_sorted_records_in};
    use std::path::PathBuf;
    use std::sync::Arc;

    /// The nested-loop oracle: every build record whose key fields equal the
    /// probe's, in build order.
    fn nested_loop(
        build: &[Record],
        build_key: &[usize],
        probe: &Record,
        probe_key: &[usize],
    ) -> Vec<Record> {
        build
            .iter()
            .filter(|b| {
                build_key.len() == probe_key.len()
                    && build_key
                        .iter()
                        .zip(probe_key)
                        .all(|(&bf, &pf)| b.fields().get(bf) == probe.fields().get(pf))
            })
            .cloned()
            .collect()
    }

    /// `index`'s matches of `probe`, materialized.
    fn matched(index: &JoinIndex, probe: &Record, key: &[usize]) -> Vec<Record> {
        let matches = index.matches(probe.fields(), key);
        matches.map(|view| view.materialize()).collect()
    }

    fn bytes(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        for record in records {
            serialize_record(record, &mut out);
        }
        out
    }

    fn pages_of(records: &[Record]) -> Vec<Arc<RecordPage>> {
        let mut writer = PageWriter::with_page_bytes(96);
        for record in records {
            writer.push(record);
        }
        writer.finish()
    }

    fn test_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "spinning-join-index-test-{}-{name}",
            std::process::id()
        ))
    }

    /// Asserts `index` answers every probe exactly as the nested loop over
    /// `build` does, byte for byte and in order, and that a probe read in
    /// place off a page is skipped only when it has no match.
    fn assert_agrees(
        case: &str,
        index: &JoinIndex,
        build: &[Record],
        key: &[usize],
        probes: &[Record],
    ) {
        let probe_pages = pages_of(probes);
        let views = probe_pages.iter().flat_map(|page| page.reader());
        for (probe, view) in probes.iter().zip(views) {
            let expected = nested_loop(build, key, probe, key);
            let got = matched(index, probe, key);
            assert_eq!(bytes(&got), bytes(&expected), "{case}: probe {probe:?}");
            let in_place: Vec<Record> = index
                .matches_view(view, key)
                .map(|view| view.materialize())
                .collect();
            assert_eq!(bytes(&in_place), bytes(&expected), "{case}: view {probe:?}");
        }
    }

    /// Builds the index over `build` every way the engines do — field by
    /// field, and from delivered partitions of pages and spilled runs,
    /// sorted on flush or not — and checks each against the nested loop.
    /// Returns the field-built index.
    fn check_all_builds(
        name: &str,
        build: &[Record],
        key: &[usize],
        probes: &[Record],
    ) -> JoinIndex {
        let mut by_fields = JoinIndex::new(key);
        for record in build {
            by_fields.insert_fields(record.fields());
        }
        assert_agrees(&format!("{name}/fields"), &by_fields, build, key, probes);

        let dir = test_dir(name);
        let third = build.len() / 3;
        let (local, rest) = build.split_at(third);
        let (paged, spilled) = rest.split_at(third);
        let run = |records: &[Record]| write_run_in(&dir, &pages_of(records), None).unwrap();
        let mut mixed = ExchangedPartition::new(pages_of(local));
        mixed.receive_pages(pages_of(paged));
        mixed.receive_runs([run(spilled)]);
        let partitions = [
            ("pages", ExchangedPartition::new(pages_of(build))),
            ("mixed", mixed),
        ];
        for (form, part) in partitions {
            let index = JoinIndex::from_partition(part, key).unwrap();
            assert_agrees(&format!("{name}/{form}"), &index, build, key, probes);
        }

        // A hash exchange under a budget: a residue plus runs sorted on
        // flush, delivered pages first.
        let sorted_run = |records: &[Record]| {
            let mut records = records.to_vec();
            records.sort_by_key(|r| Key::extract(r, key));
            write_sorted_records_in(&dir, &records, key).unwrap()
        };
        let runs = vec![sorted_run(paged), sorted_run(spilled)];
        let part = ExchangedPartition::from_spilled(pages_of(local), runs);
        let delivered = part.records();
        let index = JoinIndex::from_partition(part, key).unwrap();
        assert_agrees(
            &format!("{name}/sorted-runs"),
            &index,
            &delivered,
            key,
            probes,
        );
        let _ = std::fs::remove_dir(&dir);
        by_fields
    }

    /// A small deterministic generator (64-bit LCG).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    const LONGS: [i64; 8] = [i64::MIN, i64::MIN + 1, -7, -1, 0, 3, 42, i64::MAX];

    #[test]
    fn matches_equal_a_nested_loop_join_for_every_key_shape_and_build() {
        let mut rng = Lcg(0x5eed);
        for round in 0..4 {
            let long = |rng: &mut Lcg| Value::Long(LONGS[rng.below(LONGS.len())]);
            let text = |rng: &mut Lcg| Value::Text(format!("k{}", rng.below(6)));
            let payload = |i: usize| Value::Long(i as i64);
            let n = 40 + 60 * round;
            // Duplicated, negative and extreme `Long` keys.
            let longs: Vec<Record> = (0..n)
                .map(|i| Record::new(vec![long(&mut rng), payload(i)]))
                .collect();
            let probes: Vec<Record> = LONGS
                .iter()
                .map(|&k| Record::new(vec![Value::Long(k), Value::Null]))
                .chain([Record::new(vec![Value::Text("3".into()), Value::Null])])
                .collect();
            check_all_builds(&format!("long{round}"), &longs, &[0], &probes);

            // `Text` keys.
            let texts: Vec<Record> = (0..n)
                .map(|i| Record::new(vec![text(&mut rng), payload(i)]))
                .collect();
            let probes: Vec<Record> = (0..7)
                .map(|k| Record::new(vec![Value::Text(format!("k{k}")), Value::Null]))
                .collect();
            check_all_builds(&format!("text{round}"), &texts, &[0], &probes);

            // `[Long, Long]` keys.
            let pairs: Vec<Record> = (0..n)
                .map(|i| Record::new(vec![long(&mut rng), long(&mut rng), payload(i)]))
                .collect();
            let probes: Vec<Record> = (0..20)
                .map(|_| Record::new(vec![long(&mut rng), long(&mut rng)]))
                .collect();
            check_all_builds(&format!("pair{round}"), &pairs, &[0, 1], &probes);

            // `Long` keys, then a `Text` one that makes the index inexact,
            // then `Long`s again.
            let switch = n / 2 + rng.below(n / 4);
            let mixed: Vec<Record> = (0..n)
                .map(|i| {
                    let key = if i == switch {
                        text(&mut rng)
                    } else {
                        long(&mut rng)
                    };
                    Record::new(vec![key, payload(i)])
                })
                .collect();
            let probes: Vec<Record> = LONGS
                .iter()
                .map(|&k| Value::Long(k))
                .chain((0..6).map(|k| Value::Text(format!("k{k}"))))
                .map(|k| Record::new(vec![k]))
                .collect();
            check_all_builds(&format!("mixed{round}"), &mixed, &[0], &probes);
        }
    }

    fn with_key<'r>(records: &'r [Record], key: &'r Value) -> impl Iterator<Item = Record> + 'r {
        records.iter().filter(move |r| r.field(0) == key).cloned()
    }

    #[test]
    fn long_keys_are_paged_and_probe_in_input_order() {
        let records: Vec<Record> = (0..200i64).map(|i| Record::pair(i % 17, i)).collect();
        let probes: Vec<Record> = (0..17)
            .chain([99])
            .map(|key| Record::pair(key, -1))
            .chain([Record::new(vec![Value::Text("3".into())])])
            .collect();
        let index = check_all_builds("legacy-long", &records, &[0], &probes);
        let expected: Vec<Record> = with_key(&records, &Value::Long(5)).collect();
        assert_eq!(matched(&index, &Record::pair(5, -1), &[0]), expected);
    }

    #[test]
    fn other_key_shapes_filter_their_chains_and_agree_with_the_nested_loop() {
        let text = |i: i64| Value::Text(format!("v{}", i % 5));
        let records: Vec<Record> = (0..40i64)
            .map(|i| Record::new(vec![text(i), Value::Long(i)]))
            .collect();
        let probes: Vec<Record> = (0..6).map(|i| Record::new(vec![text(i)])).collect();
        check_all_builds("legacy-text", &records, &[0], &probes);
        // A composite key is inexact from the first record on.
        let pairs: Vec<Record> = (0..40i64).map(|i| Record::pair(i % 4, i % 2)).collect();
        let probes: Vec<Record> = (0..8).map(|i| Record::pair(i % 4, i / 4)).collect();
        let index = check_all_builds("legacy-pair", &pairs, &[0, 1], &probes);
        assert_eq!(
            index.matches(Record::pair(3, 1).fields(), &[0, 1]).count(),
            10
        );
    }

    #[test]
    fn a_non_long_key_mid_build_keeps_every_key_in_insertion_order() {
        let mut records: Vec<Record> = (0..3000i64).map(|i| Record::pair(i % 7, i)).collect();
        records.push(Record::new(vec![Value::Text("x".into()), Value::Long(-1)]));
        records.extend((0..50i64).map(|i| Record::pair(i % 7, -i)));
        let probes: Vec<Record> = (0..7)
            .map(Value::Long)
            .chain([Value::Text("x".into())])
            .map(|key| Record::new(vec![key]))
            .collect();
        check_all_builds("legacy-mixed", &records, &[0], &probes);
    }
}
