//! Property-based integration tests over the core invariants, using randomly
//! generated graphs and workloads.
//!
//! The properties are exercised with a small hand-rolled harness (a
//! deterministic [`SmallRng`] stream of cases) instead of an external
//! property-testing crate, so the suite runs with no dependencies.  Every
//! case is reproducible: the case index is part of the seed, and assertion
//! messages name the seed of the failing case.

use algorithms::{
    cc_async, cc_bulk, cc_incremental, cc_microstep, oracles, sssp, ComponentsConfig,
};
use dataflow::key::{hash_key, hash_values, partition_for, Key};
use dataflow::page::{
    normalize_long, serialize_record, ExchangedPartition, PageHandle, PagePool, PageWriter,
};
use dataflow::prelude::*;
use dataflow::spill::{write_sorted_records_in, write_sorted_run_in};
use graphdata::{Graph, SmallRng, VertexId};
use reference::{into_records, sort_by_key};
use spinning_core::prelude::*;
use std::sync::Arc;

/// Number of random cases per property.
const CASES: u64 = 24;

/// A random small undirected graph derived from `seed`.
fn arbitrary_graph(rng: &mut SmallRng) -> Graph {
    let n = 2 + rng.gen_index(58);
    let num_edges = rng.gen_index(200);
    let edges: Vec<(VertexId, VertexId)> = (0..num_edges)
        .map(|_| (rng.gen_index(n) as VertexId, rng.gen_index(n) as VertexId))
        .collect();
    Graph::undirected_from_edges(n, &edges)
}

/// The key shapes the kernel properties run over: a name and the key
/// fields.
const KEY_SHAPES: [(&str, &[usize]); 6] = [
    ("Long", &[0]),
    ("Text", &[0]),
    ("[Long, Long]", &[0, 1]),
    ("Double", &[0]),
    ("Null and Bool", &[0]),
    ("Long and Text", &[0]),
];

/// A random key of `KEY_SHAPES[shape]`, as its fields: skewed `Long`s;
/// `Text`s holding the empty string, a NUL, prefixes of one another,
/// strings whose byte order is not their length order, multi-byte UTF-8 and
/// (rarely) a 40 KiB key; both zeros, both infinities and two NaN payloads
/// of `Double`; `Null` and both `Bool`s; and a column mixing `Long` and
/// `Text`.
fn shaped_key(shape: usize, rng: &mut SmallRng) -> Vec<Value> {
    const TEXTS: [&str; 8] = ["", "\0", "a", "a\0", "ab", "b", "é", "日本🦀"];
    let text = |rng: &mut SmallRng| match rng.gen_index(512) {
        0 => Value::Text("k".repeat(40 * 1024)),
        _ => Value::Text(TEXTS[rng.gen_index(TEXTS.len())].into()),
    };
    let long = |rng: &mut SmallRng| Value::Long(skewed_long_key(rng) % 23);
    match shape {
        0 => vec![Value::Long(skewed_long_key(rng))],
        1 => vec![text(rng)],
        2 => vec![long(rng), long(rng)],
        3 => {
            let doubles = [
                -0.0,
                0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::from_bits(0x7ff8_0000_0000_0001),
            ];
            vec![Value::Double(doubles[rng.gen_index(doubles.len())])]
        }
        4 => vec![[Value::Null, Value::Bool(false), Value::Bool(true)][rng.gen_index(3)].clone()],
        _ => vec![match rng.gen_index(2) {
            0 => long(rng),
            _ => text(rng),
        }],
    }
}

/// A random record mixing every value type, exercising composite keys.
fn arbitrary_record(rng: &mut SmallRng) -> Record {
    let arity = 1 + rng.gen_index(4);
    let mut fields = Vec::with_capacity(arity);
    for _ in 0..arity {
        fields.push(match rng.gen_index(5) {
            0 => Value::Long(rng.next_u64() as i64),
            1 => Value::Double(rng.gen_f64() * 1e6 - 5e5),
            2 => Value::Bool(rng.gen_index(2) == 0),
            // Text mixes single- and multi-byte UTF-8 so the byte-oriented
            // page format is exercised on non-ASCII boundaries.
            3 => Value::Text(match rng.gen_index(3) {
                0 => format!("t{}", rng.gen_index(1000)),
                1 => format!("日本語·{}", rng.gen_index(100)),
                _ => format!("🦀✓héllo{}", rng.gen_index(10)),
            }),
            _ => Value::Null,
        });
    }
    Record::new(fields)
}

/// Fixpoint equivalence: the bulk, incremental, microstep and asynchronous
/// Connected Components all equal the sequential union-find oracle on
/// arbitrary graphs.  Bulk runs through the executor's paged exchange and
/// the incremental variants through the workset driver's paged superstep
/// exchange, so this property pins the page path end-to-end against the
/// oracle.
#[test]
fn prop_connected_components_fixpoint_equivalence() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let graph = arbitrary_graph(&mut rng);
        let oracle: Vec<i64> = graph
            .components_oracle()
            .into_iter()
            .map(i64::from)
            .collect();
        let config = ComponentsConfig::new(3);
        assert_eq!(
            cc_bulk(&graph, &config).unwrap().components,
            oracle,
            "bulk CC diverged from oracle (seed {seed})"
        );
        assert_eq!(
            cc_incremental(&graph, &config).unwrap().components,
            oracle,
            "incremental CC diverged from oracle (seed {seed})"
        );
        assert_eq!(
            cc_microstep(&graph, &config).unwrap().components,
            oracle,
            "microstep CC diverged from oracle (seed {seed})"
        );
        assert_eq!(
            cc_async(&graph, &config).unwrap().components,
            oracle,
            "async CC diverged from oracle (seed {seed})"
        );
    }
}

/// CPO monotonicity: across supersteps of the incremental iteration, a
/// vertex's component id never increases.
#[test]
fn prop_component_ids_never_increase() {
    for seed in 0..8 {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let graph = arbitrary_graph(&mut rng);
        let full = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        let mut previous: Vec<i64> = (0..graph.num_vertices() as i64).collect();
        for bound in 1..=full.iterations {
            let partial =
                cc_incremental(&graph, &ComponentsConfig::new(2).with_max_iterations(bound))
                    .unwrap();
            for (v, (new_cid, old_cid)) in partial.components.iter().zip(&previous).enumerate() {
                assert!(
                    new_cid <= old_cid,
                    "component id of vertex {v} increased (seed {seed}, bound {bound})"
                );
            }
            previous = partial.components;
        }
    }
}

/// SSSP equals the BFS oracle on arbitrary graphs and sources.
#[test]
fn prop_sssp_matches_bfs() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let graph = arbitrary_graph(&mut rng);
        let source = rng.gen_index(graph.num_vertices()) as u32;
        let oracle = oracles::sssp(&graph, source);
        let result = sssp(&graph, source, 2, ExecutionMode::BatchIncremental).unwrap();
        assert_eq!(
            result.distances, oracle,
            "SSSP diverged from BFS (seed {seed})"
        );
    }
}

/// The hash used for partition routing agrees between a record's key fields
/// and the extracted [`Key`], for every key shape (single long, composite,
/// text, double, null) — the invariant the partitioned solution-set index
/// relies on.
#[test]
fn prop_extracted_key_hash_matches_record_hash() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        for _ in 0..50 {
            let record = arbitrary_record(&mut rng);
            // Try every single-field key and a couple of composite ones.
            let mut field_sets: Vec<Vec<usize>> = (0..record.arity()).map(|i| vec![i]).collect();
            if record.arity() >= 2 {
                field_sets.push(vec![0, 1]);
                field_sets.push(vec![1, 0]);
                field_sets.push((0..record.arity()).collect());
            }
            for fields in field_sets {
                let key = Key::extract(&record, &fields);
                assert_eq!(
                    hash_values(&key.values()),
                    hash_key(&record, &fields),
                    "hash mismatch for key {key:?} of {record} on {fields:?} (seed {seed})"
                );
                assert_eq!(
                    dataflow::key::hash_of_key(&key),
                    hash_key(&record, &fields),
                    "hash_of_key mismatch for {key:?} (seed {seed})"
                );
            }
        }
    }
}

/// The inline-long fast path and the composite fallback of [`Key`] compare,
/// hash and route identically: equal value sequences mean equal keys, equal
/// hashes and the same target partition.
#[test]
fn prop_key_representations_agree() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        for _ in 0..100 {
            let v = rng.next_u64() as i64;
            let fast = Key::long(v);
            let slow = Key::Composite(vec![Value::Long(v)].into_boxed_slice());
            assert_eq!(fast, slow);
            assert_eq!(fast.cmp(&slow), std::cmp::Ordering::Equal);
            assert_eq!(
                dataflow::key::hash_of_key(&fast),
                dataflow::key::hash_of_key(&slow)
            );
            assert!(matches!(
                Key::from_values(vec![Value::Long(v)]),
                Key::Long(_)
            ));
            let record = Record::pair(v, 7);
            for parallelism in [1usize, 3, 8, 17] {
                let p = partition_for(&record, &[0], parallelism);
                assert!(p < parallelism);
                assert_eq!(
                    p,
                    (dataflow::key::hash_of_key(&fast) % parallelism as u64) as usize,
                    "partition routing diverged for v={v} (seed {seed})"
                );
            }
        }
    }
}

/// The ∪̇ merge with a comparator is idempotent and keeps the record closest
/// to the supremum, regardless of delta order.
#[test]
fn prop_solution_set_merge_order_independent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(6000 + seed);
        let n = 1 + rng.gen_index(59);
        let deltas: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_index(20) as i64, rng.gen_index(100) as i64))
            .collect();
        let comparator: RecordComparator =
            Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1)));
        let mut forward = SolutionSet::new(vec![0], 3).with_comparator(Arc::clone(&comparator));
        let mut reverse = SolutionSet::new(vec![0], 5).with_comparator(comparator);
        for &(k, v) in &deltas {
            forward.merge(Record::pair(k, v));
        }
        for &(k, v) in deltas.iter().rev() {
            reverse.merge(Record::pair(k, v));
        }
        let mut a = forward.records();
        let mut b = reverse.records();
        a.sort();
        b.sort();
        assert_eq!(a, b, "merge order changed the fixpoint (seed {seed})");
        for &(k, _) in &deltas {
            let min = deltas
                .iter()
                .filter(|(k2, _)| *k2 == k)
                .map(|&(_, v)| v)
                .min()
                .unwrap();
            assert_eq!(
                forward.lookup(&Key::long(k)).unwrap().long(1),
                min,
                "surviving value is not the minimum (seed {seed})"
            );
        }
    }
}

/// Partitioned execution of a keyed aggregation produces the same result as a
/// single-partition run, for any parallelism.
#[test]
fn prop_partitioned_aggregation_matches_serial() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(7000 + seed);
        let n = rng.gen_index(200);
        let values: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_index(15) as i64, rng.gen_index(200) as i64 - 100))
            .collect();
        let parallelism = 1 + rng.gen_index(8);
        let records: Vec<Record> = values.iter().map(|&(k, v)| Record::pair(k, v)).collect();
        let mut plan = Plan::new();
        let src = plan.source("values", records);
        let sum = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    let total: i64 = group.iter().map(|r| r.long(1)).sum();
                    out.emit(Record::pair(key[0].as_long(), total).fields());
                },
            )),
        );
        plan.sink("sums", sum);
        let exec = Executor::new();
        let mut parallel = exec
            .execute(&default_physical_plan(&plan, parallelism).unwrap())
            .unwrap()
            .into_sink("sums")
            .unwrap();
        let mut serial = exec
            .execute(&default_physical_plan(&plan, 1).unwrap())
            .unwrap()
            .into_sink("sums")
            .unwrap();
        parallel.sort();
        serial.sort();
        assert_eq!(
            parallel, serial,
            "parallelism {parallelism} changed sums (seed {seed})"
        );
    }
}

/// A hash-partitioned join sees every matching pair exactly once (equivalence
/// with a nested-loop oracle).
#[test]
fn prop_partitioned_join_is_complete() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(8000 + seed);
        let gen_side = |rng: &mut SmallRng| -> Vec<(i64, i64)> {
            let n = rng.gen_index(60);
            (0..n)
                .map(|_| (rng.gen_index(10) as i64, rng.gen_index(50) as i64))
                .collect()
        };
        let left = gen_side(&mut rng);
        let right = gen_side(&mut rng);
        let parallelism = 1 + rng.gen_index(5);

        let mut expected: Vec<(i64, i64)> = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rv) in &right {
                if lk == rk {
                    expected.push((lv, rv));
                }
            }
        }
        expected.sort_unstable();

        let mut plan = Plan::new();
        let l = plan.source(
            "left",
            left.iter()
                .map(|&(k, v)| Record::pair(k, v))
                .collect::<Vec<_>>(),
        );
        let r = plan.source(
            "right",
            right
                .iter()
                .map(|&(k, v)| Record::pair(k, v))
                .collect::<Vec<_>>(),
        );
        let join = plan.match_join(
            "join",
            l,
            r,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |a: RecordView<'_>, b: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::pair(a.long(1), b.long(1)).fields());
                },
            )),
        );
        plan.sink("pairs", join);
        let result = Executor::new()
            .execute(&default_physical_plan(&plan, parallelism).unwrap())
            .unwrap()
            .into_sink("pairs")
            .unwrap();
        let mut actual: Vec<(i64, i64)> = result.iter().map(|r| (r.long(0), r.long(1))).collect();
        actual.sort_unstable();
        assert_eq!(actual, expected, "join incomplete (seed {seed})");
    }
}

/// Pages round-trip arbitrary records exactly: every `Value` variant
/// (including `Null` and multi-byte UTF-8 `Text`), any arity, and page
/// capacities small enough that records straddle page boundaries.  The
/// serialized width must equal `estimated_bytes` for every record, since the
/// page writer's fit check relies on it.
#[test]
fn prop_page_round_trip_arbitrary_records() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(9000 + seed);
        let n = 1 + rng.gen_index(120);
        let records: Vec<Record> = (0..n).map(|_| arbitrary_record(&mut rng)).collect();
        // Page capacities from pathologically tiny (every record oversized)
        // to comfortably large.
        let page_bytes = [16, 48, 256, 32 * 1024][rng.gen_index(4)];
        let mut writer = PageWriter::with_page_bytes(page_bytes);
        for record in &records {
            let mut buf = Vec::new();
            serialize_record(record, &mut buf);
            assert_eq!(
                buf.len(),
                record.estimated_bytes(),
                "estimate is not the serialized width for {record} (seed {seed})"
            );
            writer.push(record);
        }
        assert_eq!(writer.total_records(), records.len());
        let pages = writer.finish();
        let read: Vec<Record> = pages
            .iter()
            .flat_map(|page| page.reader().map(|view| view.materialize()))
            .collect();
        assert_eq!(
            read, records,
            "page round-trip changed records (seed {seed}, page_bytes {page_bytes})"
        );
    }
}

/// The serialized payload of `record` (its page encoding without the length
/// frame).
fn payload_of(record: &Record) -> Vec<u8> {
    let mut buf = Vec::new();
    serialize_record(record, &mut buf);
    buf.split_off(4)
}

/// A record of a page-builder stream: one to three `Long`s, a short `Text`,
/// or a `Text` wider than a `page_bytes` page.
fn page_stream_record(rng: &mut SmallRng, page_bytes: usize) -> Record {
    match rng.gen_index(10) {
        0 => Record::new(vec![Value::Text(
            "w".repeat(page_bytes + rng.gen_index(page_bytes)),
        )]),
        1..=3 => Record::new(vec![
            Value::Long(rng.next_u64() as i64),
            Value::Text("t".repeat(rng.gen_index(40))),
        ]),
        _ => Record::new(
            (0..1 + rng.gen_index(3))
                .map(|_| Value::Long(rng.next_u64() as i64))
                .collect(),
        ),
    }
}

/// What the page builder must produce, tracked page by page: the bytes and
/// records of every sealed page, and whether it started on a full-capacity
/// buffer (the successor of a page that filled).  Adopted pages are
/// foreign and carry `None`.  The first `taken` pages left the writer.
#[derive(Default)]
struct PageModel {
    page_bytes: usize,
    pages: Vec<(usize, usize, Option<bool>)>,
    open: (usize, usize),
    open_full: bool,
    taken: usize,
}

impl PageModel {
    /// The sealed pages the writer still holds, and their bytes.
    fn held(&self) -> (usize, usize) {
        let held = &self.pages[self.taken..];
        (held.len(), held.iter().map(|page| page.0).sum())
    }

    fn seal(&mut self, successor_full: bool) {
        if self.open.1 > 0 {
            self.pages
                .push((self.open.0, self.open.1, Some(self.open_full)));
            self.open = (0, 0);
            self.open_full = successor_full;
        }
    }

    fn push(&mut self, width: usize) {
        if self.open.1 > 0 && self.open.0 + width > self.page_bytes {
            self.seal(true);
        }
        self.open = (self.open.0 + width, self.open.1 + 1);
        if width > self.page_bytes {
            self.seal(false);
        }
    }
}

/// The one page builder under random interleavings of `push` (as a record,
/// as fields, or as a serialized payload), `seal`, adoption of foreign pages
/// and `take_sealed`, over `Long` and `Text` records and records wider than
/// the page, at page sizes 64, 256 and 32 768:
///
/// * every handle not ended by a `take_sealed` views exactly its payload;
/// * the taken pages followed by `finish()` hold every pushed or adopted
///   record in order, on exactly the pages the framing rules give, and the
///   writer holds the sealed pages those rules give at every step (an
///   oversized record is sealed the moment it is pushed);
/// * every page holds at most `page_bytes` bytes or is one oversized
///   record alone, and a page following one that filled was started on a
///   full-capacity buffer.
#[test]
fn prop_page_writer_frames_addresses_and_hands_off_pages() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(9500 + seed);
        let page_bytes = [64, 256, 32 * 1024][rng.gen_index(3)];
        let mut writer = PageWriter::with_page_bytes(page_bytes);
        let mut model = PageModel {
            page_bytes,
            ..PageModel::default()
        };
        let mut expected: Vec<Vec<u8>> = Vec::new();
        let mut live: Vec<(PageHandle, Vec<u8>)> = Vec::new();
        let mut taken = Vec::new();
        for _ in 0..rng.gen_index(300) {
            match rng.gen_index(20) {
                0 => {
                    writer.seal();
                    model.seal(false);
                }
                1 => {
                    let mut foreign = PageWriter::with_page_bytes(page_bytes);
                    for _ in 0..1 + rng.gen_index(6) {
                        foreign.push(&page_stream_record(&mut rng, page_bytes));
                    }
                    for page in foreign.finish() {
                        model.seal(false);
                        model
                            .pages
                            .push((page.byte_len(), page.record_count(), None));
                        let mut views = page.reader();
                        assert!(writer.adopt_page_scanned(&page, |handle, view| {
                            let payload = view.payload().to_vec();
                            assert_eq!(payload, views.next().unwrap().payload());
                            live.push((handle, payload.clone()));
                            expected.push(payload);
                            true
                        }));
                    }
                }
                2 => {
                    taken.extend(writer.take_sealed());
                    model.taken = model.pages.len();
                    live.clear();
                }
                _ => {
                    let record = page_stream_record(&mut rng, page_bytes);
                    let payload = payload_of(&record);
                    let handle = match rng.gen_index(3) {
                        0 => writer.push(&record),
                        1 => writer.push_fields(record.fields()),
                        _ => writer.push_serialized(&payload),
                    };
                    model.push(record.estimated_bytes());
                    live.push((handle, payload.clone()));
                    expected.push(payload);
                }
            }
            assert_eq!(
                (writer.sealed_page_count(), writer.sealed_bytes()),
                model.held(),
                "sealed pages held differ (seed {seed}, page_bytes {page_bytes})"
            );
            for (handle, payload) in &live {
                assert_eq!(
                    writer.view(*handle).payload(),
                    &payload[..],
                    "a live handle lost its record (seed {seed}, page_bytes {page_bytes})"
                );
            }
        }
        assert_eq!(writer.total_records(), expected.len());
        taken.extend(writer.finish());
        model.seal(false);
        let read: Vec<Vec<u8>> = taken
            .iter()
            .flat_map(|page| page.reader().map(|view| view.payload().to_vec()))
            .collect();
        assert_eq!(read, expected, "records lost or reordered (seed {seed})");
        let layout: Vec<(usize, usize)> = taken
            .iter()
            .map(|page| (page.byte_len(), page.record_count()))
            .collect();
        let model_layout: Vec<(usize, usize)> = model
            .pages
            .iter()
            .map(|&(bytes, records, _)| (bytes, records))
            .collect();
        assert_eq!(
            layout, model_layout,
            "pages framed differently (seed {seed})"
        );
        let mut pool = PagePool::new();
        for (page, &(_, _, full)) in taken.into_iter().zip(&model.pages) {
            assert!(
                page.byte_len() <= page_bytes || page.record_count() == 1,
                "capacity invariant broken: {} bytes in {} records at capacity {page_bytes} \
                 (seed {seed})",
                page.byte_len(),
                page.record_count()
            );
            if full == Some(true) {
                assert!(pool.recycle(page), "a taken page is owned by the caller");
                let capacity = pool.take(1).next().unwrap().capacity();
                assert!(
                    capacity >= page_bytes,
                    "the successor of a filled page started on a {capacity}-byte buffer \
                     at capacity {page_bytes} (seed {seed})"
                );
            }
        }
    }
}

/// A skewed Long key: a few hot values, clustered mid-range values, uniform
/// full-range values and the extremes — the distribution range splitters
/// must absorb.
fn skewed_long_key(rng: &mut SmallRng) -> i64 {
    match rng.gen_index(10) {
        // Hot keys: heavy duplication, including across splitter boundaries.
        0..=2 => [0, 7, -3][rng.gen_index(3)],
        // A dense cluster.
        3..=6 => rng.gen_index(1000) as i64 - 500,
        // Full-range uniform.
        7 | 8 => rng.next_u64() as i64,
        // Extremes.
        _ => [i64::MIN, i64::MAX, i64::MIN + 1, -1][rng.gen_index(4)],
    }
}

/// Histogram splitters are order-preserving: `partition_of` is monotone in
/// the key order — and therefore in `normalized_long_prefix`, whose byte
/// order equals the key order — including extremes, negatives, all-equal
/// samples and the empty sample.
#[test]
fn prop_range_bounds_monotone_in_normalized_order() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(12_000 + seed);
        let parallelism = 1 + rng.gen_index(8);
        let sample_kind = rng.gen_index(4);
        let sample: Vec<Key> = match sample_kind {
            // Empty sample: must not panic, one effective partition.
            0 => Vec::new(),
            // All-equal degenerate sample.
            1 => vec![Key::long(skewed_long_key(&mut rng)); 1 + rng.gen_index(50)],
            // Tiny sample (fewer distinct keys than partitions).
            2 => (0..1 + rng.gen_index(3))
                .map(|_| Key::long(skewed_long_key(&mut rng)))
                .collect(),
            _ => (0..rng.gen_index(500))
                .map(|_| Key::long(skewed_long_key(&mut rng)))
                .collect(),
        };
        let empty = sample.is_empty();
        let bounds = RangeBounds::from_sample(sample, parallelism);
        if empty || sample_kind == 1 {
            // Degenerate samples collapse: empty to exactly one effective
            // partition, all-equal to at most two (everything ≤ the splitter
            // routes to partition 0).
            assert!(
                bounds.effective_partitions() <= 2,
                "degenerate sample produced {} partitions (seed {seed})",
                bounds.effective_partitions()
            );
            if empty {
                assert_eq!(bounds.effective_partitions(), 1);
            }
        }
        let mut probes: Vec<i64> = (0..200).map(|_| skewed_long_key(&mut rng)).collect();
        probes.extend([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]);
        probes.sort_unstable();
        for pair in probes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                normalize_long(a) <= normalize_long(b),
                "normalized encoding broke the order at {a} vs {b}"
            );
            let (pa, pb) = (bounds.partition_of_long(a), bounds.partition_of_long(b));
            assert!(
                pa <= pb,
                "routing not monotone: {a}→{pa} vs {b}→{pb} (seed {seed})"
            );
            assert!(pa < parallelism && pb < parallelism);
            // Routing a record agrees with routing its key, and equal keys
            // (a == b happens for duplicated probes) collocate.
            assert_eq!(
                bounds.partition_for_record(&Record::pair(a, 1), &[0]),
                bounds.partition_of_key(&Key::long(a))
            );
        }
    }
}

/// Spill-run round-trip: records written through a budgeted spilling writer
/// — whatever mix of in-memory pages and on-disk runs the random budget
/// produces — read back as exactly the input multiset; and when the writer
/// sorts on flush, merging the runs with the sorted residue reproduces the
/// stable single-vector sort order, global order preserved.
#[test]
fn prop_spill_run_round_trip() {
    let dir = std::env::temp_dir().join(format!("spinning-spill-prop-{}", std::process::id()));
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(13_000 + seed);

        // Part 1: arbitrary records (any arity/types), unsorted spill —
        // pure byte-level round-trip through pages on disk.
        let n = rng.gen_index(150);
        let records: Vec<Record> = (0..n).map(|_| arbitrary_record(&mut rng)).collect();
        let budget = [0usize, 64, 512, 4096][rng.gen_index(4)];
        let manager = SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(budget), None)
            .with_page_bytes([48, 256][rng.gen_index(2)]);
        let mut writer = manager.writer();
        for record in &records {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        let mut read: Vec<Record> = out
            .pages
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        for run in &out.runs {
            let mut cursor = run.cursor().unwrap();
            while let Some(record) = cursor.next_record().unwrap() {
                read.push(record);
            }
        }
        let mut expected = records.clone();
        read.sort();
        expected.sort();
        assert_eq!(read, expected, "unsorted spill lost records (seed {seed})");

        // Part 2: skewed Long keys, sort-on-flush — the merged stream must
        // equal the stable sort of the whole input.
        let n = rng.gen_index(300);
        let keyed: Vec<Record> = (0..n)
            .map(|i| Record::pair(skewed_long_key(&mut rng), i as i64))
            .collect();
        let manager = SpillManager::in_dir(
            dir.clone(),
            MemoryBudget::bytes([0usize, 128, 1024][rng.gen_index(3)]),
            Some(vec![0]),
        )
        .with_page_bytes(128);
        let mut writer = manager.writer();
        for record in &keyed {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        // The in-memory residue arrived after everything that spilled, so it
        // sorts on its own and merges as the last source.
        let mut residue: Vec<Record> = out
            .pages
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        sort_by_key(&mut residue, &[0]);
        let mut merged = drain(RunMerger::over_runs(&out.runs, residue, vec![0]).unwrap());
        let mut oracle = keyed.clone();
        sort_by_key(&mut oracle, &[0]);
        let merged_keys: Vec<i64> = merged.iter().map(|r| r.long(0)).collect();
        let oracle_keys: Vec<i64> = oracle.iter().map(|r| r.long(0)).collect();
        assert_eq!(merged_keys, oracle_keys, "global order lost (seed {seed})");
        merged.sort();
        oracle.sort();
        assert_eq!(
            merged, oracle,
            "sorted spill changed the multiset (seed {seed})"
        );
    }
    let _ = std::fs::remove_dir(&dir);
}

/// Drains a merger through its public surface.
fn drain(mut merger: RunMerger) -> Vec<Record> {
    let mut out = Vec::new();
    while let Some(record) = merger.next_record().unwrap() {
        out.push(record);
    }
    out
}

/// The sorted flush emits exactly the reference sort's run — the records,
/// order and page bytes of `reference::sort_by_key` serialized through a
/// `PageWriter` — although it never makes a heap record on the way, for
/// every key shape: ties keep their input order (the last field numbers the
/// input), and hot duplicate keys, mixed widths and one record wider than a
/// page all land byte for byte.
#[test]
fn prop_page_native_flush_equals_the_normalized_sort() {
    let dir = std::env::temp_dir().join(format!("spinning-flush-prop-{}", std::process::id()));
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(16_000 + seed);
        for (shape, &(name, key)) in KEY_SHAPES.iter().enumerate() {
            let n = 1 + rng.gen_index(1500);
            let oversized = rng.gen_index(n);
            let records: Vec<Record> = (0..n)
                .map(|i| {
                    let payload = if i == oversized {
                        Value::Text("w".repeat(40_000))
                    } else if rng.gen_index(4) == 0 {
                        Value::Text(format!("t{}", rng.gen_index(1000)))
                    } else {
                        Value::Long(rng.next_u64() as i64)
                    };
                    let mut fields = shaped_key(shape, &mut rng);
                    fields.extend([payload, Value::Long(i as i64)]);
                    Record::new(fields)
                })
                .collect();
            let mut oracle = records.clone();
            sort_by_key(&mut oracle, key);
            let mut writer = PageWriter::new();
            for record in &oracle {
                writer.push(record);
            }
            let oracle_pages = writer.finish();

            // The one-run entry point, over input pages of a random size.
            let mut input = PageWriter::with_page_bytes([256, 4096, 32_768][rng.gen_index(3)]);
            for record in &records {
                input.push(record);
            }
            let run = write_sorted_run_in(&dir, &input.finish(), key).unwrap();
            assert_eq!(run.sorted_by(), Some(key));
            assert_eq!(
                run.read_pages().unwrap(),
                oracle_pages,
                "{name}, seed {seed}"
            );

            // A writer's flush: pages too large to seal before `finish`
            // gather the whole input into that one flush.
            let manager =
                SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(0), Some(key.to_vec()))
                    .with_page_bytes(1 << 20);
            let mut writer = manager.writer();
            for record in &records {
                writer.push(record);
            }
            let out = writer.finish().unwrap();
            assert_eq!(out.runs.len(), 1, "{name}, seed {seed}");
            assert_eq!(
                out.runs[0].read_pages().unwrap(),
                oracle_pages,
                "{name}, seed {seed}"
            );
        }
    }
    let _ = std::fs::remove_dir(&dir);
}

/// The k-way loser-tree merge over a sorted residue and `k − 1` sorted runs
/// equals the stable single-vector sort for every k in {1, 2, 3, 8, 17} and
/// every key shape, including empty runs and heavy duplicate keys — exact
/// record sequence, not just multiset, because contiguous input chunks plus
/// the source-index tiebreak reproduce the stable sort.
#[test]
fn prop_run_merger_matches_single_vector_sort() {
    let dir = std::env::temp_dir().join(format!("spinning-merge-prop-{}", std::process::id()));
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(14_000 + seed);
        for (shape, &(name, key)) in KEY_SHAPES.iter().enumerate() {
            for &k in &[1usize, 2, 3, 8, 17] {
                let n = rng.gen_index(250);
                let input: Vec<Record> = (0..n)
                    .map(|i| {
                        let mut fields = shaped_key(shape, &mut rng);
                        fields.push(Value::Long(i as i64));
                        Record::new(fields)
                    })
                    .collect();
                // Random chunk boundaries (possibly empty chunks) in input
                // order: the first chunk is the in-memory residue, the others
                // become runs (empty chunks empty runs).
                let mut boundaries: Vec<usize> = (0..k - 1).map(|_| rng.gen_index(n + 1)).collect();
                boundaries.sort_unstable();
                boundaries.insert(0, 0);
                boundaries.push(n);
                let mut chunks = boundaries.windows(2).map(|w| {
                    let mut chunk = input[w[0]..w[1]].to_vec();
                    sort_by_key(&mut chunk, key);
                    chunk
                });
                let residue = chunks.next().unwrap();
                let runs: Vec<SpilledRun> = chunks
                    .map(|chunk| write_sorted_records_in(&dir, &chunk, key).unwrap())
                    .collect();
                let merged = drain(RunMerger::over_runs(&runs, residue, key.to_vec()).unwrap());
                let mut oracle = input;
                sort_by_key(&mut oracle, key);
                assert_eq!(
                    merged, oracle,
                    "merge diverged ({name}, seed {seed}, k {k})"
                );
            }
        }
    }
    let _ = std::fs::remove_dir(&dir);
}

/// Exchange-with-budget equals exchange-without-budget: the same plan run
/// under random byte budgets (including "spill everything") produces the
/// same sink contents, for hash-shipped keyed aggregations at random
/// parallelisms.
#[test]
fn prop_budgeted_execution_matches_unbudgeted() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(15_000 + seed);
        let n = rng.gen_index(400);
        let parallelism = 2 + rng.gen_index(5);
        let records: Vec<Record> = (0..n)
            .map(|i| Record::pair(skewed_long_key(&mut rng) % 29, i as i64))
            .collect();
        let mut plan = Plan::new();
        let src = plan.source("values", records);
        let sum = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    let total: i64 = group.iter().map(|r| r.long(1)).sum();
                    out.emit(Record::triple(key[0].as_long(), total, group.len() as f64).fields());
                },
            )),
        );
        plan.sink("sums", sum);
        let phys = default_physical_plan(&plan, parallelism).unwrap();
        let mut unbudgeted = Executor::new()
            .execute(&phys)
            .unwrap()
            .into_sink("sums")
            .unwrap();
        let budget = MemoryBudget::bytes([0usize, 1, 64, 700, 5000][rng.gen_index(5)]);
        let result = Executor::with_config(ExecConfig::new().with_memory_budget(budget))
            .execute(&phys)
            .unwrap();
        let mut budgeted = result.into_sink("sums").unwrap();
        unbudgeted.sort();
        budgeted.sort();
        assert_eq!(
            budgeted, unbudgeted,
            "budget {budget:?} changed the sums (seed {seed}, p {parallelism})"
        );
    }
}

/// The sealed-page exchange delivers exactly the records the plain
/// `Vec<Record>` exchange would, to the same partitions, for arbitrary
/// records and parallelisms — including when pages straddle and when the
/// receive side reads the records in place (the executor's view path).
#[test]
fn prop_paged_exchange_matches_vec_exchange() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(10_000 + seed);
        let parallelism = 1 + rng.gen_index(7);
        let n = rng.gen_index(300);
        let records: Vec<Record> = (0..n).map(|_| arbitrary_record(&mut rng)).collect();
        let key_fields = vec![0usize];

        // Reference: the pre-page exchange — per-record routing into Vecs.
        let mut expected: Vec<Vec<Record>> = vec![Vec::new(); parallelism];
        for record in &records {
            expected[partition_for(record, &key_fields, parallelism)].push(record.clone());
        }

        // Paged: producer partitions serialize outbound records, the
        // exchange moves sealed pages, the receiver reads them back.
        let sources: Vec<Vec<Record>> = records
            .chunks((n / parallelism + 1).max(1))
            .map(|chunk| chunk.to_vec())
            .collect();
        let mut received: Vec<ExchangedPartition> = Vec::new();
        let mut locals: Vec<PageWriter> = (0..parallelism).map(|_| PageWriter::new()).collect();
        let mut writers: Vec<Vec<PageWriter>> = (0..parallelism)
            .map(|_| (0..parallelism).map(|_| PageWriter::new()).collect())
            .collect();
        for (src, source) in sources.into_iter().enumerate() {
            for record in source {
                let target = partition_for(&record, &key_fields, parallelism);
                if target == src {
                    locals[src].push(&record);
                } else {
                    writers[src][target].push(&record);
                }
            }
        }
        for local in locals {
            received.push(ExchangedPartition::new(local.finish()));
        }
        for source_writers in writers {
            for (target, writer) in source_writers.into_iter().enumerate() {
                received[target].receive_pages(writer.finish());
            }
        }

        for (target, part) in received.into_iter().enumerate() {
            let mut by_ref: Vec<Record> = Vec::new();
            part.for_each_view(|r| by_ref.push(r.materialize()))
                .unwrap();
            let mut owned = into_records(part).unwrap();
            assert_eq!(by_ref.len(), owned.len());
            by_ref.sort();
            owned.sort();
            let mut want = expected[target].clone();
            want.sort();
            assert_eq!(
                owned, want,
                "paged exchange diverged at partition {target} (seed {seed})"
            );
            assert_eq!(by_ref, owned, "ref/owned iteration diverged (seed {seed})");
        }
    }
}
