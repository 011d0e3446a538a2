//! The load step of a workset iteration: the job's three inputs — initial
//! solution `S0`, constant input `N`, initial working set `W0` — go from
//! their [`RecordSource`]s into the partitioned, serialized state the
//! supersteps run on, and nothing else is built on the way.
//!
//! One task per partition this process owns — one
//! [`spinning_pool::ThreadPool::map`] over them, so a process that owns one
//! partition loads it on the calling thread — pulls each source in full
//! through a sink that routes every record on its field slice
//! ([`PartitionRouter::route_fields`]) and keeps only the partition's own
//! share: a solution record is serialized into the partition's
//! [`PartitionIndex`], a constant record into its [`JoinIndex`], a
//! workset record into the [`PageWriter`] that becomes its first queue —
//! through a [`Combiner`] first when the iteration folds its candidates, so
//! each key's initial candidates are serialized once, folded.  A
//! record that exists as a heap object (`Vec<Record>` sources) is read where
//! it lies; a record a source merely describes is born serialized.  Every
//! partition sees its records in source order, so the loaded state does not
//! depend on how many partitions load beside it, and in a cluster a worker
//! never builds the partitions it does not own.
//!
//! This is a scan-and-filter: each source is routed once per owned
//! partition, `P` evaluations of a few nanoseconds per record, with `P` the
//! number of owned partitions (2 on every tracked workload, at most 8 in the
//! test suites).  Should a workload run `P` far beyond the core count, the
//! shape to move to is the superstep's own: split each source into `P`
//! ranges, route each range once into an [`dataflow::exchange::Outbox`] and
//! ship — not built until a workload needs it.

use crate::solution_set::{PartitionIndex, SolutionSet};
use crate::workset::WorksetIteration;
use dataflow::contracts::CombineFunction;
use dataflow::exchange::Combiner;
use dataflow::join_index::JoinIndex;
use dataflow::page::PageWriter;
use dataflow::prelude::{
    ClusterSpec, DataflowError, Key, PartitionRouter, RecordSink, RecordSource, Result, Value,
};
use std::sync::Arc;

/// What the load step builds, indexed by partition.  Partitions owned by
/// other processes are present and empty.
pub(crate) struct Loaded {
    pub(crate) solution: SolutionSet,
    pub(crate) constant: Vec<JoinIndex>,
    /// The initial working set, routed — the first superstep's queues.
    pub(crate) workset: Vec<PageWriter>,
}

/// Loads `iteration`'s inputs into the partitions `cluster` assigns to this
/// process, one [`spinning_pool::ThreadPool::map`] task per owned partition.
/// With `fold`, each partition's initial candidates are folded per key
/// before they reach its queue.  A panicking source, comparator or combine
/// returns a typed [`DataflowError::WorkerPanic`] of operator
/// `workset-load`.
pub(crate) fn load(
    iteration: &WorksetIteration<'_>,
    router: &PartitionRouter,
    cluster: &ClusterSpec,
    initial_solution: &dyn RecordSource,
    initial_workset: &dyn RecordSource,
    fold: Option<&Arc<dyn CombineFunction>>,
) -> Result<Loaded> {
    let parallelism = router.parallelism();
    let mut solution = iteration.empty_solution(router.parallelism());
    let mut constant: Vec<JoinIndex> = (0..parallelism)
        .map(|_| JoinIndex::new(&iteration.constant_key))
        .collect();
    let mut workset: Vec<PageWriter> = (0..parallelism).map(|_| PageWriter::new()).collect();

    let partitions = solution
        .partitions_mut()
        .iter_mut()
        .zip(constant.iter_mut())
        .zip(workset.iter_mut())
        .enumerate()
        .filter(|(partition, _)| cluster.owns(*partition, parallelism));
    spinning_pool::global()
        .map(partitions, |(partition, ((s_part, constant), queue))| {
            load_partition(
                iteration,
                router,
                partition,
                (initial_solution, s_part),
                constant,
                (initial_workset, queue),
                fold,
            )
        })
        .map_err(|panic| DataflowError::WorkerPanic {
            operator: "workset-load".into(),
            superstep: 0,
            message: panic.message(),
        })?;
    Ok(Loaded {
        solution,
        constant,
        workset,
    })
}

/// Pulls the three sources through `partition`'s filter, one after the
/// other, each into the structure that holds it for the run.
fn load_partition(
    iteration: &WorksetIteration<'_>,
    router: &PartitionRouter,
    partition: usize,
    (initial_solution, s_part): (&dyn RecordSource, &mut PartitionIndex),
    constant: &mut JoinIndex,
    (initial_workset, queue): (&dyn RecordSource, &mut PageWriter),
    fold: Option<&Arc<dyn CombineFunction>>,
) {
    let solution_key = &iteration.solution_key;
    let mut key = Key::Long(0);
    pull_share(
        initial_solution,
        router,
        solution_key,
        partition,
        |fields| {
            key.assign_fields(fields, solution_key);
            s_part.merge_fields(&iteration.comparator, &key, fields);
        },
    );
    let constant_key = &iteration.constant_key;
    let constant_input = &*iteration.constant_input;
    pull_share(constant_input, router, constant_key, partition, |fields| {
        constant.insert_fields(fields)
    });
    let workset_key = &iteration.workset_key;
    let Some(combine) = fold else {
        pull_share(initial_workset, router, workset_key, partition, |fields| {
            queue.push_fields(fields);
        });
        return;
    };
    let mut combiner = Combiner::new(Arc::clone(combine), workset_key.clone());
    pull_share(initial_workset, router, workset_key, partition, |fields| {
        combiner.insert(fields)
    });
    combiner.drain(|payload| {
        queue.push_serialized(payload);
    });
}

/// Pulls `source` in full and hands `keep`, in source order, the records
/// `router` sends to `partition` when they are keyed on `key`.
fn pull_share(
    source: &dyn RecordSource,
    router: &PartitionRouter,
    key: &[usize],
    partition: usize,
    keep: impl FnMut(&[Value]) + Send,
) {
    source.emit_all(&mut ShareSink {
        router,
        key,
        partition,
        keep,
    });
}

/// The filtering sink of [`pull_share`]: a record of another partition is
/// dropped on the routing decision alone.
struct ShareSink<'a, F> {
    router: &'a PartitionRouter,
    key: &'a [usize],
    partition: usize,
    keep: F,
}

impl<F: FnMut(&[Value]) + Send> RecordSink for ShareSink<'_, F> {
    #[inline]
    fn emit(&mut self, fields: &[Value]) {
        if self.router.route_fields(fields, self.key) == self.partition {
            (self.keep)(fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workset::{ExpandClosure, UpdateClosure};
    use dataflow::prelude::{Record, RecordView, SourceClosure};
    use std::sync::Arc;

    /// An iteration whose user functions are never called: the load step
    /// only reads its keys, comparator and constant input.
    fn iteration<'a>(constant: Arc<impl RecordSource + 'a>) -> WorksetIteration<'a> {
        let update = Arc::new(UpdateClosure(
            |_: &Key, _: Option<RecordView<'_>>, _: &[RecordView<'_>], _: &mut dyn RecordSink| {},
        ));
        let expand = Arc::new(ExpandClosure(
            |_: RecordView<'_>, _: &[RecordView<'_>], _: &mut dyn RecordSink| {},
        ));
        // Workset records carry their target's key in field 1.
        WorksetIteration::builder(vec![0], vec![1], update, expand)
            .constant_input(constant, vec![0], vec![0])
            .build()
    }

    fn queue_records(queue: PageWriter) -> Vec<Record> {
        let pages = queue.finish();
        pages
            .iter()
            .flat_map(|page| page.reader())
            .map(|view| view.materialize())
            .collect()
    }

    #[test]
    fn every_partition_holds_its_routed_share_in_source_order() {
        let solution: Vec<Record> = (0..64i64).map(|v| Record::pair(v, v * 10)).collect();
        let edges: Vec<Record> = (0..640i64).map(|i| Record::pair(i % 64, i)).collect();
        let workset: Vec<Record> = (0..500i64).map(|i| Record::pair(i, (i * 7) % 64)).collect();
        let iteration = iteration(Arc::new(edges.clone()));
        let router = PartitionRouter::hash(4);
        let cluster = ClusterSpec::single();
        let loaded = load(&iteration, &router, &cluster, &solution, &workset, None).unwrap();
        assert_eq!(loaded.solution.len(), solution.len());
        for (partition, queue) in loaded.workset.into_iter().enumerate() {
            let expected: Vec<Record> = workset
                .iter()
                .filter(|r| router.route(r, &[1]) == partition)
                .cloned()
                .collect();
            assert_eq!(queue_records(queue), expected, "partition {partition}");
            let mut stored = loaded.solution.partition_records(partition);
            stored.sort();
            let expected: Vec<Record> = solution
                .iter()
                .filter(|r| router.route(r, &[0]) == partition)
                .cloned()
                .collect();
            assert_eq!(stored, expected, "partition {partition}");
            for probe in &expected {
                let matched: Vec<Record> = loaded.constant[partition]
                    .matches(probe.fields(), &[0])
                    .map(|view| view.materialize())
                    .collect();
                let expected: Vec<Record> = edges
                    .iter()
                    .filter(|e| e.long(0) == probe.long(0))
                    .cloned()
                    .collect();
                assert_eq!(matched, expected);
            }
        }
    }

    #[test]
    fn a_described_source_loads_the_same_pages_as_its_records() {
        let describe = |n: i64, record: fn(i64) -> [Value; 2]| {
            SourceClosure::new(n as usize, move |out: &mut dyn RecordSink| {
                for i in 0..n {
                    out.emit(&record(i));
                }
            })
        };
        let solution = describe(64, |v| [Value::Long(v), Value::Long(v * 10)]);
        let edges = describe(640, |i| [Value::Long(i % 64), Value::Long(i)]);
        let workset = describe(5000, |i| [Value::Long(i), Value::Long((i * 7) % 64)]);
        let described = iteration(Arc::new(edges));
        let collected = iteration(Arc::new(described.constant_input.collect()));
        let router = PartitionRouter::hash(4);
        let cluster = ClusterSpec::single();
        let a = load(&described, &router, &cluster, &solution, &workset, None).unwrap();
        let b = load(
            &collected,
            &router,
            &cluster,
            &solution.collect(),
            &workset.collect(),
            None,
        )
        .unwrap();
        // Same records in the same index order, same page bytes.
        assert_eq!(a.solution.records(), b.solution.records());
        for (a, b) in a.workset.into_iter().zip(b.workset) {
            let (a, b) = (a.finish(), b.finish());
            assert!(a.len() == b.len() && a.iter().zip(&b).all(|(a, b)| a == b));
        }
        for (a, b) in a.constant.iter().zip(&b.constant) {
            for probe in (0..64).map(|v| [Value::Long(v), Value::Long(0)]) {
                let (a, b) = (a.matches(&probe, &[0]), b.matches(&probe, &[0]));
                assert!(a
                    .map(|view| view.payload())
                    .eq(b.map(|view| view.payload())));
            }
        }
    }

    #[test]
    fn partitions_of_other_processes_stay_empty() {
        let solution: Vec<Record> = (0..64i64).map(|i| Record::pair(i, i)).collect();
        let iteration = iteration(Arc::new(solution.clone()));
        let router = PartitionRouter::hash(4);
        let cluster = ClusterSpec::new(2, 1).expect("spec");
        let loaded = load(&iteration, &router, &cluster, &solution, &solution, None).unwrap();
        for partition in 0..4 {
            let owned = cluster.owns(partition, 4);
            assert_eq!(
                !loaded.constant[partition].is_empty(),
                owned,
                "partition {partition}"
            );
            assert_eq!(
                !loaded.solution.partition_records(partition).is_empty(),
                owned
            );
            assert_eq!(!loaded.workset[partition].is_empty(), owned);
        }
    }

    #[test]
    fn a_text_keyed_constant_input_from_a_source_is_a_map() {
        let names = ["a", "b", "c", "d", "e"];
        let edges = SourceClosure::new(names.len(), |out: &mut dyn RecordSink| {
            for (i, name) in names.iter().enumerate() {
                out.emit(&[Value::Text((*name).into()), Value::Long(i as i64)]);
            }
        });
        let iteration = iteration(Arc::new(edges));
        let router = PartitionRouter::hash(2);
        let none: Vec<Record> = Vec::new();
        let loaded = load(
            &iteration,
            &router,
            &ClusterSpec::single(),
            &none,
            &none,
            None,
        )
        .unwrap();
        // Every name is found, once, in the partition it routes to.
        for (i, name) in names.iter().enumerate() {
            let probe = Record::new(vec![Value::Text((*name).into())]);
            let part = &loaded.constant[router.route(&probe, &[0])];
            let expected = Record::new(vec![Value::Text((*name).into()), Value::Long(i as i64)]);
            let matched: Vec<Record> = part
                .matches(probe.fields(), &[0])
                .map(|view| view.materialize())
                .collect();
            assert_eq!(matched, [expected]);
        }
    }
}
