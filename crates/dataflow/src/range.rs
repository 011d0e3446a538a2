//! The partitioning function of an exchange: [`PartitionRouter`].
//!
//! Every engine path routes by hash ([`PartitionRouter::hash`]): the
//! executor's repartitioning edges, the workset driver's load step and
//! superstep exchange, and the solution set's partition lookup.  The paper's
//! plans need nothing else — Figure 4's two PageRank plans are a broadcast
//! and a hash partitioning.
//!
//! The rest of this module — [`RangeBounds`] (equi-depth splitters sampled
//! by [`sample_keys_into`]) and [`PartitionRouter::range`] — is used by no
//! engine path.  It stays only because the repository benchmark's
//! `route.range_ns_per_rec` probe calls it; ROADMAP item 1(e) deletes it
//! together with that probe.

use crate::key::{hash_key_fields, hash_of_key, Key};
use crate::record::Record;
use crate::value::Value;
use std::sync::Arc;

/// Cap on the number of keys sampled per producer partition when building
/// splitters; a stride over the partition keeps the sample deterministic.
pub const SAMPLE_KEYS_PER_PARTITION: usize = 256;

/// The splitters of one range partitioning: at most `p − 1` strictly
/// increasing keys.  Record keys are mapped to a partition by counting the
/// splitters strictly smaller than the key, so keys equal to a splitter stay
/// with the partition *below* it and equal keys never straddle a boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeBounds {
    /// Strictly increasing splitter keys (`len() < parallelism`).
    splitters: Vec<Key>,
    /// The splitter values as raw `i64`s when every splitter is a single
    /// `Long` — the fast path that routes graph keys without materialising a
    /// [`Key`].
    long_splitters: Option<Vec<i64>>,
}

impl RangeBounds {
    /// Builds equi-depth splitters from a sample of keys.
    ///
    /// The sample is sorted and the `i·n/p` quantiles become the splitters;
    /// duplicates are collapsed, so a degenerate sample (all-equal keys, or
    /// fewer distinct keys than partitions) simply yields fewer effective
    /// partitions.  An **empty sample yields no splitters**: every record
    /// routes to partition 0 (one effective partition) and nothing panics.
    pub fn from_sample(mut sample: Vec<Key>, parallelism: usize) -> RangeBounds {
        let parallelism = parallelism.max(1);
        sample.sort_unstable();
        let n = sample.len();
        let mut splitters: Vec<Key> = Vec::with_capacity(parallelism.saturating_sub(1));
        if n > 0 {
            for i in 1..parallelism {
                let splitter = &sample[((i * n) / parallelism).min(n - 1)];
                if splitters.last() != Some(splitter) {
                    splitters.push(splitter.clone());
                }
            }
        }
        let long_splitters = splitters
            .iter()
            .map(Key::as_long)
            .collect::<Option<Vec<i64>>>()
            .filter(|_| !splitters.is_empty());
        RangeBounds {
            splitters,
            long_splitters,
        }
    }

    /// The splitter keys, strictly increasing.
    pub fn splitters(&self) -> &[Key] {
        &self.splitters
    }

    /// Number of partitions that can actually receive records
    /// (`splitters + 1`, at most the parallelism the bounds were built for).
    pub fn effective_partitions(&self) -> usize {
        self.splitters.len() + 1
    }

    /// The partition of a single `i64` key value.
    #[inline]
    pub fn partition_of_long(&self, v: i64) -> usize {
        match &self.long_splitters {
            Some(longs) => longs.partition_point(|s| *s < v),
            None => self.partition_of_key(&Key::Long(v)),
        }
    }

    /// The partition of an extracted key: the number of splitters strictly
    /// smaller than it.  Monotone in the key order (and therefore in the
    /// normalized prefix encoding, which preserves that order).
    #[inline]
    pub fn partition_of_key(&self, key: &Key) -> usize {
        if let (Some(longs), Some(v)) = (&self.long_splitters, key.as_long()) {
            return longs.partition_point(|s| *s < v);
        }
        self.splitters.partition_point(|s| s < key)
    }

    /// The partition of `record`, keyed on `fields`.  Single-`Long` keys are
    /// routed without materialising a [`Key`].
    #[inline]
    pub fn partition_for_record(&self, record: &Record, fields: &[usize]) -> usize {
        self.partition_for_fields(record.fields(), fields)
    }

    /// [`RangeBounds::partition_for_record`] over a record given as its
    /// field slice.
    #[inline]
    pub fn partition_for_fields(&self, values: &[Value], fields: &[usize]) -> usize {
        if let (Some(longs), [field]) = (&self.long_splitters, fields) {
            if let Value::Long(v) = &values[*field] {
                return longs.partition_point(|s| s < v);
            }
        }
        self.partition_of_key(&Key::extract_fields(values, fields))
    }
}

/// The stride at which a `len`-record input is sampled: every `stride`-th
/// record, starting with the first, yields at most
/// [`SAMPLE_KEYS_PER_PARTITION`] keys.
fn sample_stride(len: usize) -> usize {
    len / SAMPLE_KEYS_PER_PARTITION + 1
}

/// Samples up to [`SAMPLE_KEYS_PER_PARTITION`] keys from `records` with a
/// deterministic stride, appending them to `sample`.
pub fn sample_keys_into(sample: &mut Vec<Key>, records: &[Record], fields: &[usize]) {
    sample.extend(
        records
            .iter()
            .step_by(sample_stride(records.len()))
            .map(|record| Key::extract(record, fields)),
    );
}

/// The partitioning function of one exchange: hash, or range for the
/// benchmark probe alone (see the module documentation).  Cloning is cheap
/// (range bounds are shared by `Arc`).
#[derive(Debug, Clone)]
pub enum PartitionRouter {
    /// Fx-hash routing over `parallelism` partitions
    /// ([`crate::key::partition_for`]).
    Hash {
        /// Number of target partitions.
        parallelism: usize,
    },
    /// Splitter routing; delivers contiguous, ordered key ranges.
    Range {
        /// The shared splitters.
        bounds: Arc<RangeBounds>,
        /// Number of target partitions (≥ the bounds' effective partitions).
        parallelism: usize,
    },
}

impl PartitionRouter {
    /// A hash router over `parallelism` partitions.
    pub fn hash(parallelism: usize) -> PartitionRouter {
        PartitionRouter::Hash {
            parallelism: parallelism.max(1),
        }
    }

    /// A range router over `parallelism` partitions.
    ///
    /// # Panics
    /// If the bounds address more partitions than `parallelism`.
    pub fn range(bounds: Arc<RangeBounds>, parallelism: usize) -> PartitionRouter {
        let parallelism = parallelism.max(1);
        assert!(
            bounds.effective_partitions() <= parallelism,
            "range bounds address {} partitions but only {parallelism} exist",
            bounds.effective_partitions()
        );
        PartitionRouter::Range {
            bounds,
            parallelism,
        }
    }

    /// Number of target partitions.
    pub fn parallelism(&self) -> usize {
        match self {
            PartitionRouter::Hash { parallelism } | PartitionRouter::Range { parallelism, .. } => {
                *parallelism
            }
        }
    }

    /// Routes `record`, keyed on `fields`, to its target partition.
    #[inline]
    pub fn route(&self, record: &Record, fields: &[usize]) -> usize {
        self.route_fields(record.fields(), fields)
    }

    /// Routes a record given as its field slice — a record emitted by
    /// reference is routed before it exists anywhere but on the emitter's
    /// stack.  Agrees with [`PartitionRouter::route`] on the same fields.
    #[inline]
    pub fn route_fields(&self, values: &[Value], fields: &[usize]) -> usize {
        match self {
            PartitionRouter::Hash { parallelism } => {
                (hash_key_fields(values, fields) % *parallelism as u64) as usize
            }
            PartitionRouter::Range { bounds, .. } => bounds.partition_for_fields(values, fields),
        }
    }

    /// Routes an already-extracted key; agrees with [`PartitionRouter::route`]
    /// on the record it was extracted from.
    #[inline]
    pub fn route_key(&self, key: &Key) -> usize {
        match self {
            PartitionRouter::Hash { parallelism } => {
                (hash_of_key(key) % *parallelism as u64) as usize
            }
            PartitionRouter::Range { bounds, .. } => bounds.partition_of_key(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_keys(values: &[i64]) -> Vec<Key> {
        values.iter().map(|&v| Key::long(v)).collect()
    }

    #[test]
    fn equi_depth_splitters_balance_a_uniform_sample() {
        let sample = long_keys(&(0..1000).collect::<Vec<i64>>());
        let bounds = RangeBounds::from_sample(sample, 4);
        assert_eq!(bounds.effective_partitions(), 4);
        let mut counts = [0usize; 4];
        for v in 0..1000 {
            counts[bounds.partition_of_long(v)] += 1;
        }
        for &c in &counts {
            assert!(
                (200..=300).contains(&c),
                "uniform keys should spread evenly: {counts:?}"
            );
        }
    }

    #[test]
    fn routing_is_monotone_in_the_key_order() {
        let sample = long_keys(&[-50, -3, -3, 0, 7, 7, 7, 1000, i64::MAX]);
        let bounds = RangeBounds::from_sample(sample, 4);
        let probes = [i64::MIN, -51, -50, -3, -1, 0, 6, 7, 8, 999, 1000, i64::MAX];
        for window in probes.windows(2) {
            assert!(
                bounds.partition_of_long(window[0]) <= bounds.partition_of_long(window[1]),
                "routing not monotone at {window:?}"
            );
        }
    }

    #[test]
    fn equal_keys_collocate_even_on_splitter_boundaries() {
        let bounds = RangeBounds::from_sample(long_keys(&[1, 2, 3, 4, 5, 6, 7, 8]), 4);
        for splitter in bounds.splitters() {
            let v = splitter.as_long().unwrap();
            let record_a = Record::pair(v, 0);
            let record_b = Record::pair(v, 99);
            assert_eq!(
                bounds.partition_for_record(&record_a, &[0]),
                bounds.partition_for_record(&record_b, &[0])
            );
        }
    }

    #[test]
    fn empty_sample_yields_one_effective_partition() {
        let bounds = RangeBounds::from_sample(Vec::new(), 8);
        assert_eq!(bounds.effective_partitions(), 1);
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(bounds.partition_of_long(v), 0);
        }
    }

    #[test]
    fn all_equal_sample_routes_everything_to_the_first_partitions() {
        let bounds = RangeBounds::from_sample(long_keys(&[7; 100]), 8);
        // All splitters collapse to one value; keys ≤ 7 land in partition 0.
        assert!(bounds.effective_partitions() <= 2);
        assert_eq!(bounds.partition_of_long(7), 0);
        assert_eq!(bounds.partition_of_long(i64::MIN), 0);
        assert!(bounds.partition_of_long(8) < 8);
    }

    #[test]
    fn composite_keys_route_through_the_generic_path() {
        let sample = vec![
            Key::from_values(vec![Value::Text("b".into())]),
            Key::from_values(vec![Value::Text("d".into())]),
            Key::from_values(vec![Value::Text("f".into())]),
            Key::from_values(vec![Value::Text("h".into())]),
        ];
        let bounds = RangeBounds::from_sample(sample, 2);
        let a = Record::new(vec![Value::Text("a".into())]);
        let z = Record::new(vec![Value::Text("z".into())]);
        assert!(bounds.partition_for_record(&a, &[0]) <= bounds.partition_for_record(&z, &[0]));
        assert!(bounds.long_splitters.is_none());
    }

    #[test]
    fn router_parallelism_and_route_agreement() {
        let bounds = Arc::new(RangeBounds::from_sample(
            long_keys(&(0..64).collect::<Vec<i64>>()),
            4,
        ));
        let range = PartitionRouter::range(Arc::clone(&bounds), 4);
        let hash = PartitionRouter::hash(4);
        assert_eq!(range.parallelism(), 4);
        for v in -10..80 {
            let record = Record::pair(v, 0);
            let key = Key::long(v);
            assert_eq!(range.route(&record, &[0]), range.route_key(&key));
            assert_eq!(hash.route(&record, &[0]), hash.route_key(&key));
            assert!(range.route(&record, &[0]) < 4);
        }
    }

    #[test]
    #[should_panic(expected = "range bounds address")]
    fn router_rejects_bounds_wider_than_the_parallelism() {
        let bounds = Arc::new(RangeBounds::from_sample(
            long_keys(&(0..64).collect::<Vec<i64>>()),
            8,
        ));
        let _ = PartitionRouter::range(bounds, 2);
    }

    #[test]
    fn sample_keys_into_strides_large_partitions() {
        let records: Vec<Record> = (0..10_000).map(|i| Record::pair(i, 0)).collect();
        let mut sample = Vec::new();
        sample_keys_into(&mut sample, &records, &[0]);
        assert!(!sample.is_empty());
        assert!(sample.len() <= SAMPLE_KEYS_PER_PARTITION);
        // Small partitions are sampled exhaustively.
        let mut sample = Vec::new();
        sample_keys_into(&mut sample, &records[..10], &[0]);
        assert_eq!(sample.len(), 10);
    }
}
