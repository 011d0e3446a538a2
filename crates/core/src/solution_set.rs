//! The solution set: a partitioned, keyed index over the partial solution.
//!
//! Incremental iterations keep the partial solution `S` as persistent state
//! across iterations (Section 5.1).  `S` is a set of records uniquely
//! identified by a key; it is hash-partitioned on that key across the worker
//! partitions and each partition stores its share in a primary index
//! (a hash table here, mirroring the execution strategy of Figure 6).
//!
//! The delta set produced by an iteration is merged into `S` with the
//! modified union operator `∪̇`: a delta record replaces the record with the
//! same key.  Because the delta set is a bag, two delta records may target the
//! same key; an optional *comparator* then decides which record survives — the
//! record representing the successor state in the CPO is kept, exactly as
//! described at the end of Section 5.1.
//!
//! # Paged storage
//!
//! Each partition stores its records **serialized** in sealed pages (a
//! [`PageWriter`]) and indexes them with a hash table from the record
//! key to an 8-byte [`PageHandle`].  Probes and merges work on the paged
//! representation natively: the iteration drivers hand an update function
//! the stored record as a view of its bytes, a delta arrives as the field
//! slice the update function emitted and is serialized straight into the
//! store, and the expansion reads the applied delta back as a view.  The
//! one place heap records appear is a comparator call during `∪̇`, which
//! reads the stored record and the delta into the partition's two reused
//! scratch records, so merging allocates nothing.  Replaced records leave
//! dead bytes behind in the append-only store; once more than half the
//! store is dead it is compacted by rewriting the live records (a pure
//! page-to-page byte copy) and the old page buffers are recycled into the
//! compacted store.

use dataflow::key::FxHashMap;
use dataflow::page::{PageHandle, PagePool, PageWriter, RecordPage, RecordView};
use dataflow::prelude::{Key, KeyFields, PartitionRouter, Record, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Decides which of two records for the same key is "larger", i.e. closer to
/// the supremum of the CPO.  The larger record is kept in the solution set.
pub type RecordComparator = Arc<dyn Fn(&Record, &Record) -> Ordering + Send + Sync>;

/// Outcome of merging one delta record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The key was not present; the record was inserted.
    Inserted,
    /// The key was present and the delta record replaced the old record.
    Replaced,
    /// The key was present and the comparator kept the existing record; the
    /// delta record was discarded.
    Discarded,
}

impl MergeOutcome {
    /// True if the solution set changed.
    pub fn applied(&self) -> bool {
        !matches!(self, MergeOutcome::Discarded)
    }
}

/// Compaction is considered only once at least this many dead bytes
/// accumulated (one page) — tiny partitions never pay for a rewrite.
const COMPACT_MIN_DEAD_BYTES: usize = 32 * 1024;

/// One partition of the solution set: a primary hash index from the record
/// key to the [`PageHandle`] of its serialized bytes in the partition's
/// paged store.  Uses the same Fx hash as partition routing, so a record's
/// partition and its slot in the partition index come from one hash
/// computation.
#[derive(Clone)]
pub(crate) struct PartitionIndex {
    index: FxHashMap<Key, PageHandle>,
    store: PageWriter,
    /// Serialized bytes of replaced records still occupying pages; drives
    /// compaction.
    dead_bytes: usize,
    /// The records a comparator call reads the stored record and the delta
    /// into, reused from merge to merge.
    stored: Record,
    delta: Record,
}

impl Default for PartitionIndex {
    fn default() -> Self {
        PartitionIndex {
            index: FxHashMap::default(),
            store: PageWriter::new(),
            dead_bytes: 0,
            stored: Record::empty(),
            delta: Record::empty(),
        }
    }
}

impl std::fmt::Debug for PartitionIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionIndex")
            .field("records", &self.index.len())
            .field("stored_bytes", &self.store.total_bytes())
            .field("dead_bytes", &self.dead_bytes)
            .finish()
    }
}

impl PartitionIndex {
    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The record stored under `key`, as a view of its bytes.
    pub(crate) fn get(&self, key: &Key) -> Option<RecordView<'_>> {
        self.index.get(key).map(|&handle| self.store.view(handle))
    }

    /// The `∪̇` merge of one delta given as its field slice, stored under
    /// `key`.  A surviving delta is serialized into the paged store; a
    /// discarded one writes nothing.
    pub(crate) fn merge_fields(
        &mut self,
        comparator: &Option<RecordComparator>,
        key: &Key,
        fields: &[Value],
    ) -> MergeOutcome {
        let Some(slot) = self.index.get_mut(key) else {
            let handle = self.store.push_fields(fields);
            self.index.insert(key.clone(), handle);
            return MergeOutcome::Inserted;
        };
        // Without a comparator the delta always replaces the old record
        // (plain ∪̇ semantics); with one, the larger record — the successor
        // state in the CPO — survives.
        if let Some(cmp) = comparator {
            self.store.view(*slot).read_into(&mut self.stored);
            self.delta.clear();
            for value in fields {
                self.delta.push(value.clone());
            }
            if cmp(&self.delta, &self.stored) != Ordering::Greater {
                return MergeOutcome::Discarded;
            }
        }
        self.dead_bytes += self.store.view(*slot).framed_len();
        *slot = self.store.push_fields(fields);
        self.maybe_compact();
        MergeOutcome::Replaced
    }

    /// Rewrites the store without the dead bytes once they outweigh the live
    /// ones.  A pure page-to-page copy of each live record's serialized
    /// bytes; the old page buffers are recycled into the compacted store so
    /// steady-state churn reuses them instead of allocating.
    fn maybe_compact(&mut self) {
        if self.dead_bytes < COMPACT_MIN_DEAD_BYTES
            || self.dead_bytes * 2 < self.store.total_bytes()
        {
            return;
        }
        let mut compacted = PageWriter::new();
        for handle in self.index.values_mut() {
            *handle = compacted.push_serialized(self.store.view(*handle).payload());
        }
        let old = std::mem::replace(&mut self.store, compacted);
        let mut pool = PagePool::new();
        pool.recycle_all(old.finish());
        self.store.add_spare_buffers(pool.take(usize::MAX));
        self.dead_bytes = 0;
    }

    /// Copies every live record out of the paged store (unspecified order).
    pub(crate) fn for_each_record(&self, mut f: impl FnMut(Record)) {
        for &handle in self.index.values() {
            f(self.store.view(handle).materialize());
        }
    }

    #[cfg(test)]
    fn stored_bytes(&self) -> usize {
        self.store.total_bytes()
    }
}

/// The partitioned solution set.
#[derive(Clone)]
pub struct SolutionSet {
    partitions: Vec<PartitionIndex>,
    key_fields: KeyFields,
    comparator: Option<RecordComparator>,
    /// How records are routed to partitions: Fx hashing on the key, the
    /// function the workset driver routes the workset and the constant
    /// input with too, so they join the solution set partition-locally.
    router: PartitionRouter,
}

impl std::fmt::Debug for SolutionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionSet")
            .field("partitions", &self.partitions.len())
            .field("records", &self.len())
            .field("key_fields", &self.key_fields)
            .field("has_comparator", &self.comparator.is_some())
            .finish()
    }
}

impl SolutionSet {
    /// Creates an empty solution set partitioned `parallelism` ways, keyed by
    /// the given record fields.
    pub fn new(key_fields: KeyFields, parallelism: usize) -> Self {
        let parallelism = parallelism.max(1);
        SolutionSet {
            partitions: (0..parallelism)
                .map(|_| PartitionIndex::default())
                .collect(),
            key_fields,
            comparator: None,
            router: PartitionRouter::hash(parallelism),
        }
    }

    /// Installs a comparator resolving conflicting delta records (the larger
    /// record under the comparator is retained).
    pub fn with_comparator(mut self, comparator: RecordComparator) -> Self {
        self.comparator = Some(comparator);
        self
    }

    /// Builds a solution set from an initial set of records (`S0`).
    pub fn from_records(
        records: impl IntoIterator<Item = Record>,
        key_fields: KeyFields,
        parallelism: usize,
    ) -> Self {
        let mut set = SolutionSet::new(key_fields, parallelism);
        for record in records {
            set.merge(record);
        }
        set
    }

    /// The key fields records are identified by.
    pub fn key_fields(&self) -> &[usize] {
        &self.key_fields
    }

    /// Number of partitions.
    pub fn parallelism(&self) -> usize {
        self.partitions.len()
    }

    /// The partition index responsible for `record` (by its key fields).
    pub fn partition_of(&self, record: &Record) -> usize {
        self.router.route(record, &self.key_fields)
    }

    /// Total number of records in the solution set.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(PartitionIndex::len).sum()
    }

    /// True if the solution set holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the record stored under `key`, copying it out of its page —
    /// this is the user-facing boundary where a heap [`Record`] is
    /// materialized.  (The iteration drivers read detached partitions as
    /// views instead.)
    pub fn lookup(&self, key: &Key) -> Option<Record> {
        let partition = self.router.route_key(key);
        Some(self.partitions[partition].get(key)?.materialize())
    }

    /// Merges one delta record with the `∪̇` semantics.  A surviving delta is
    /// serialized into the partition's paged store; a discarded delta writes
    /// nothing.
    pub fn merge(&mut self, delta: Record) -> MergeOutcome {
        self.merge_ref(&delta)
    }

    /// [`SolutionSet::merge`] by reference.
    fn merge_ref(&mut self, delta: &Record) -> MergeOutcome {
        // Routing hashes the record's key fields directly; the key itself is
        // only materialised for the index probe.
        let partition = self.router.route(delta, &self.key_fields);
        let key = Key::extract(delta, &self.key_fields);
        self.partitions[partition].merge_fields(&self.comparator, &key, delta.fields())
    }

    /// Merges a whole delta set (the `∪̇` of one superstep's delta records),
    /// returning how many were applied (inserted or replaced).
    pub fn merge_all(&mut self, deltas: impl IntoIterator<Item = Record>) -> usize {
        deltas
            .into_iter()
            .map(|delta| self.merge(delta))
            .filter(MergeOutcome::applied)
            .count()
    }

    /// Merges every delta record serialized in `page`, returning how many
    /// were applied.
    fn merge_page(&mut self, page: &RecordPage) -> usize {
        let mut scratch = Record::empty();
        let mut applied = 0usize;
        for view in page.reader() {
            view.read_into(&mut scratch);
            if self.merge_ref(&scratch).applied() {
                applied += 1;
            }
        }
        applied
    }

    /// Merges every delta record serialized in a sequence of sealed pages
    /// with the `∪̇` semantics, returning how many were applied.  This is the
    /// paged counterpart of [`SolutionSet::merge_all`]: delta sets arriving
    /// from an exchange are applied straight out of their sealed pages
    /// through one scratch record, never materializing a record vector.
    pub fn merge_all_pages<'a>(
        &mut self,
        pages: impl IntoIterator<Item = &'a RecordPage>,
    ) -> usize {
        pages.into_iter().map(|page| self.merge_page(page)).sum()
    }

    /// All records of one partition (unspecified order), copied out of the
    /// paged store.
    pub fn partition_records(&self, partition: usize) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.partitions[partition].len());
        self.partitions[partition].for_each_record(|r| out.push(r));
        out
    }

    /// All records of the solution set (unspecified order).
    pub fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len());
        for partition in &self.partitions {
            partition.for_each_record(|r| out.push(r));
        }
        out
    }

    /// The partitions, for the partition-parallel load step and supersteps.
    pub(crate) fn partitions_mut(&mut self) -> &mut [PartitionIndex] {
        &mut self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid_comparator() -> RecordComparator {
        // For Connected Components the CPO prefers *smaller* component ids,
        // so the record with the smaller cid is the "larger" (later) state.
        Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1)))
    }

    #[test]
    fn insert_lookup_and_len() {
        let mut s = SolutionSet::new(vec![0], 4);
        assert!(s.is_empty());
        assert_eq!(s.merge(Record::pair(1, 10)), MergeOutcome::Inserted);
        assert_eq!(s.merge(Record::pair(2, 20)), MergeOutcome::Inserted);
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(&Key::long(1)).unwrap().long(1), 10);
        assert!(s.lookup(&Key::long(99)).is_none());
    }

    #[test]
    fn merge_without_comparator_always_replaces() {
        let mut s = SolutionSet::new(vec![0], 2);
        s.merge(Record::pair(1, 10));
        assert_eq!(s.merge(Record::pair(1, 99)), MergeOutcome::Replaced);
        assert_eq!(s.lookup(&Key::long(1)).unwrap().long(1), 99);
    }

    #[test]
    fn comparator_keeps_the_successor_state() {
        let mut s = SolutionSet::new(vec![0], 2).with_comparator(cid_comparator());
        s.merge(Record::pair(1, 10));
        // A larger cid is an older state: discarded.
        assert_eq!(s.merge(Record::pair(1, 50)), MergeOutcome::Discarded);
        assert_eq!(s.lookup(&Key::long(1)).unwrap().long(1), 10);
        // A smaller cid is a successor state: applied.
        assert_eq!(s.merge(Record::pair(1, 3)), MergeOutcome::Replaced);
        assert_eq!(s.lookup(&Key::long(1)).unwrap().long(1), 3);
    }

    #[test]
    fn merge_is_idempotent_under_comparator() {
        let mut s = SolutionSet::new(vec![0], 2).with_comparator(cid_comparator());
        s.merge(Record::pair(7, 4));
        let before = s.records();
        // Replaying the same delta (equal cid) must not count as a change.
        assert_eq!(s.merge(Record::pair(7, 4)), MergeOutcome::Discarded);
        let mut after = s.records();
        let mut before = before;
        before.sort();
        after.sort();
        assert_eq!(before, after);
    }

    #[test]
    fn merge_all_counts_only_applied_records() {
        let mut s = SolutionSet::new(vec![0], 2).with_comparator(cid_comparator());
        s.merge(Record::pair(1, 5));
        let applied = s.merge_all(vec![
            Record::pair(1, 9), // discarded (worse)
            Record::pair(1, 2), // applied
            Record::pair(2, 7), // inserted
        ]);
        assert_eq!(applied, 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_records_builds_the_index() {
        let s = SolutionSet::from_records((0..100).map(|i| Record::pair(i, i * 2)), vec![0], 8);
        assert_eq!(s.len(), 100);
        for i in 0..100 {
            assert_eq!(s.lookup(&Key::long(i)).unwrap().long(1), i * 2);
        }
    }

    #[test]
    fn records_round_trip_across_partitions() {
        let s = SolutionSet::from_records((0..50).map(|i| Record::pair(i, i)), vec![0], 7);
        let mut all = s.records();
        all.sort();
        assert_eq!(all.len(), 50);
        let per_partition: usize = (0..7).map(|p| s.partition_records(p).len()).sum();
        assert_eq!(per_partition, 50);
        // Every record lives in the partition its key hashes to.
        for p in 0..7 {
            for r in s.partition_records(p) {
                assert_eq!(s.partition_of(&r), p);
            }
        }
    }

    #[test]
    fn detached_partition_reads_and_merges_the_stored_bytes() {
        let mut s = SolutionSet::new(vec![0], 1).with_comparator(cid_comparator());
        s.merge(Record::pair(3, 30));
        s.merge(Record::pair(4, 40));
        let comparator = s.comparator.clone();
        let p = &mut s.partitions_mut()[0];
        assert_eq!(p.get(&Key::long(3)).unwrap().long(1), 30);
        assert_eq!(p.get(&Key::long(4)).unwrap().long(1), 40);
        assert!(p.get(&Key::long(5)).is_none());
        // A delta given as fields is stored as they are; the comparator's
        // loser writes nothing.
        let (better, worse) = (
            [Value::Long(3), Value::Long(9)],
            [Value::Long(4), Value::Long(41)],
        );
        assert_eq!(
            p.merge_fields(&comparator, &Key::long(3), &better),
            MergeOutcome::Replaced
        );
        assert_eq!(
            p.merge_fields(&comparator, &Key::long(4), &worse),
            MergeOutcome::Discarded
        );
        assert_eq!(p.get(&Key::long(3)).unwrap().payload(), payload_of(&better));
        assert_eq!(p.get(&Key::long(4)).unwrap().long(1), 40);
        assert_eq!(s.lookup(&Key::long(3)).unwrap().long(1), 9);
    }

    fn payload_of(fields: &[Value]) -> Vec<u8> {
        let mut writer = PageWriter::new();
        let handle = writer.push_fields(fields);
        writer.view(handle).payload().to_vec()
    }

    #[test]
    fn replacement_churn_compacts_the_paged_store() {
        // One partition, a few keys, many replacements: without compaction
        // the append-only store would keep every dead version (~6 MiB here).
        let mut s = SolutionSet::new(vec![0], 1);
        let keys = 64i64;
        let rounds = 4096;
        for round in 0..rounds {
            for k in 0..keys {
                s.merge(Record::pair(k, round));
            }
        }
        assert_eq!(s.len(), keys as usize);
        for k in 0..keys {
            assert_eq!(s.lookup(&Key::long(k)).unwrap().long(1), rounds - 1);
        }
        // The live set is ~64 records * ~23 bytes; the store must stay near
        // the compaction bound, not hold the full replacement history.
        let stored = s.partitions[0].stored_bytes();
        assert!(
            stored < 3 * COMPACT_MIN_DEAD_BYTES,
            "store held {stored} bytes after churn — compaction did not run"
        );
    }

    #[test]
    fn merge_pages_matches_record_merge() {
        use dataflow::page::PageWriter;
        let deltas: Vec<Record> = (0..200).map(|i| Record::pair(i % 40, i % 7)).collect();

        let mut by_records = SolutionSet::new(vec![0], 4).with_comparator(cid_comparator());
        let applied_records = by_records.merge_all(deltas.iter().cloned());

        // Force several pages so the page boundary is crossed mid-stream.
        let mut writer = PageWriter::with_page_bytes(128);
        for delta in &deltas {
            writer.push(delta);
        }
        let pages = writer.finish();
        assert!(pages.len() > 1);
        let mut by_pages = SolutionSet::new(vec![0], 4).with_comparator(cid_comparator());
        let applied_pages = by_pages.merge_all_pages(pages.iter().map(Arc::as_ref));

        assert_eq!(applied_records, applied_pages);
        let mut a = by_records.records();
        let mut b = by_pages.records();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn parallelism_of_zero_is_clamped_to_one() {
        let s = SolutionSet::new(vec![0], 0);
        assert_eq!(s.parallelism(), 1);
    }
}
