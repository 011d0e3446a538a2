//! The operator interpreter: a [`PhysicalPlan`] evaluated one operator at a
//! time over heap records, one `Vec<Record>` per partition.
//!
//! Every operator's whole output exists before its consumers run (there is
//! no fusion), every edge is delivered as whole partitions (there is no
//! paging, spilling or transport), and every local strategy is the textbook
//! one: a stable sort for grouping and sort-merge, a key map for hash joins,
//! two loops for Cross.  The orders the executor documents come out the
//! same way (see the crate documentation), and so do the exchange counters:
//! a forward edge keeps its records local, a repartitioning edge ships what
//! changes partition, a broadcast ships `p − 1` copies of everything, and a
//! cached edge counts once.  A shipped record counts its serialized width,
//! [`Record::estimated_bytes`], as shipped bytes.

use crate::{
    compare_keys, group_ranges, on_pages, sort_by_key, source_major, views, Deliver, Partitions,
};
use dataflow::contracts::Udf;
use dataflow::key::Key;
use dataflow::page::{RecordPage, RecordView};
use dataflow::physical::{LocalStrategy, PhysicalPlan, ShipStrategy};
use dataflow::plan::{Operator, OperatorId, OperatorKind};
use dataflow::range::PartitionRouter;
use dataflow::record::Record;
use dataflow::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// What one evaluation of a plan produced.
#[derive(Debug, Default)]
pub struct Evaluation {
    /// Every sink's partitions, by sink name.
    pub sinks: HashMap<String, Partitions>,
    /// `(operator name, records in, records out)`, sorted.
    pub operators: Vec<(String, usize, usize)>,
    /// Records that changed partition on an edge.
    pub shipped_records: usize,
    /// Serialized bytes of the records that changed partition.
    pub shipped_bytes: usize,
    /// Records that stayed in their partition on an edge.
    pub local_records: usize,
}

impl Evaluation {
    /// The partitions of sink `name`.
    pub fn sink_partitions(&self, name: &str) -> &Partitions {
        self.sinks
            .get(name)
            .unwrap_or_else(|| panic!("the plan has no sink '{name}'"))
    }

    /// The records of sink `name`, in partition order.
    pub fn sink(&self, name: &str) -> Vec<Record> {
        self.sink_partitions(name).concat()
    }
}

/// Evaluates physical plans.  Like the executor's intermediate cache, one
/// interpreter keeps what a repeated evaluation of the same plan reuses:
/// the deliveries of edges marked `cache_inputs`, frozen at their first
/// evaluation.
#[derive(Default)]
pub struct Interpreter {
    cached: HashMap<(OperatorId, usize), Partitions>,
    /// The order of hash edges; [`source_major`] when unset.
    delivery: Option<Arc<Deliver>>,
}

impl Interpreter {
    /// An interpreter with nothing cached.
    pub fn new() -> Self {
        Self::default()
    }

    /// An interpreter whose hash edges deliver in `delivery`'s
    /// order instead of [`source_major`]'s.
    pub fn with_delivery(delivery: Arc<Deliver>) -> Self {
        Interpreter {
            delivery: Some(delivery),
            ..Self::default()
        }
    }

    /// Evaluates `physical` once.  Panics on a plan the executor would
    /// reject.
    pub fn evaluate(&mut self, physical: &PhysicalPlan) -> Evaluation {
        let plan = &physical.plan;
        let order = plan
            .validate()
            .expect("the interpreter evaluates valid plans");
        let mut outputs: HashMap<OperatorId, Partitions> = HashMap::new();
        let mut evaluation = Evaluation::default();
        for id in order {
            let op = plan.operator(id);
            if let OperatorKind::Source { data } = &op.kind {
                let records = data.collect();
                let rows = &mut evaluation.operators;
                rows.push((op.name.clone(), 0, records.len()));
                outputs.insert(id, split(records, physical.parallelism));
                continue;
            }
            let inputs: Vec<Partitions> = (0..op.inputs.len())
                .map(|slot| self.deliver(physical, op, slot, &outputs, &mut evaluation))
                .collect();
            let local = physical.choice(id).local;
            let output: Partitions = (0..physical.parallelism)
                .map(|part| {
                    let sides: Vec<&[Record]> =
                        inputs.iter().map(|input| &input[part][..]).collect();
                    run_local(op, local, &sides)
                })
                .collect();
            let records_in = inputs.iter().flatten().map(Vec::len).sum();
            let records_out = output.iter().map(Vec::len).sum();
            let rows = &mut evaluation.operators;
            rows.push((op.name.clone(), records_in, records_out));
            if let OperatorKind::Sink { name } = &op.kind {
                evaluation.sinks.insert(name.clone(), output.clone());
            }
            outputs.insert(id, output);
        }
        evaluation.operators.sort();
        evaluation
    }

    /// Delivers input `slot` of `op`: served from the cache, or shipped
    /// from its producer's output by the edge's strategy.
    fn deliver(
        &mut self,
        physical: &PhysicalPlan,
        op: &Operator,
        slot: usize,
        outputs: &HashMap<OperatorId, Partitions>,
        evaluation: &mut Evaluation,
    ) -> Partitions {
        let choice = physical.choice(op.id);
        let cached = choice.cache_inputs[slot];
        if let Some(hit) = self.cached.get(&(op.id, slot)).filter(|_| cached) {
            return hit.clone();
        }
        let producer = &outputs[&op.inputs[slot]];
        let parallelism = physical.parallelism;
        let delivery = self.delivery.as_deref().unwrap_or(&source_major);
        let delivered = match &choice.input_ships[slot] {
            ShipStrategy::Forward => {
                evaluation.local_records += producer.iter().map(Vec::len).sum::<usize>();
                producer.clone()
            }
            ShipStrategy::PartitionHash(keys) => route(
                producer,
                &PartitionRouter::hash(parallelism),
                keys,
                delivery,
                evaluation,
            ),
            ShipStrategy::Broadcast => {
                let all = producer.concat();
                let bytes: usize = all.iter().map(Record::estimated_bytes).sum();
                evaluation.shipped_records += all.len() * (parallelism - 1);
                evaluation.shipped_bytes += bytes * (parallelism - 1);
                evaluation.local_records += all.len();
                vec![all; parallelism]
            }
        };
        if cached {
            self.cached.insert((op.id, slot), delivered.clone());
        }
        delivered
    }
}

/// Evaluates a bulk iteration: `physical` once per iteration, each
/// iteration's sink `output` fed back as the source `input` of the next,
/// one [`Interpreter`] for the whole loop.  Stops after `max_iterations` or
/// once `converged(previous, next)` holds, and returns one [`BulkStep`] per
/// iteration run.
pub fn iterate(
    physical: &PhysicalPlan,
    input: OperatorId,
    output: &str,
    initial: Vec<Record>,
    max_iterations: usize,
    converged: impl Fn(&[Record], &[Record]) -> bool,
) -> Vec<BulkStep> {
    let mut physical = physical.clone();
    let mut interpreter = Interpreter::new();
    let mut current = initial;
    let mut steps = Vec::new();
    for _ in 0..max_iterations {
        let fed = Arc::new(current.clone());
        physical
            .plan
            .replace_source_data(input, fed)
            .expect("the iteration input is a source");
        let evaluation = interpreter.evaluate(&physical);
        let next = evaluation.sink(output);
        let done = converged(&current, &next);
        steps.push(BulkStep {
            input_records: current.len(),
            solution: next.clone(),
            evaluation,
        });
        current = next;
        if done {
            break;
        }
    }
    steps
}

/// One iteration of [`iterate`].
#[derive(Debug)]
pub struct BulkStep {
    /// The size of the partial solution the iteration read.
    pub input_records: usize,
    /// The partial solution it produced.
    pub solution: Vec<Record>,
    /// The evaluation that produced it.
    pub evaluation: Evaluation,
}

/// Splits a source's records into contiguous chunks of `ceil(n / p)`.
fn split(records: Vec<Record>, parallelism: usize) -> Partitions {
    let chunk = records.len().div_ceil(parallelism).max(1);
    let mut parts: Partitions = vec![Vec::new(); parallelism];
    for (i, record) in records.into_iter().enumerate() {
        parts[(i / chunk).min(parallelism - 1)].push(record);
    }
    parts
}

/// Repartitions `producer` by `router`, each target's records in
/// `delivery`'s order.
fn route(
    producer: &Partitions,
    router: &PartitionRouter,
    keys: &[usize],
    delivery: &Deliver,
    evaluation: &mut Evaluation,
) -> Partitions {
    let targets = router.parallelism();
    let mut sent: Vec<Partitions> = vec![vec![Vec::new(); targets]; producer.len()];
    for (source, records) in producer.iter().enumerate() {
        for record in records {
            let target = router.route(record, keys);
            if target == source {
                evaluation.local_records += 1;
            } else {
                evaluation.shipped_records += 1;
                evaluation.shipped_bytes += record.estimated_bytes();
            }
            sent[source][target].push(record.clone());
        }
    }
    delivery(keys, sent)
}

/// One operator's local work on one partition's inputs.
fn run_local(op: &Operator, local: LocalStrategy, inputs: &[&[Record]]) -> Vec<Record> {
    match (&op.kind, &op.udf) {
        (OperatorKind::Sink { .. }, _) => inputs[0].to_vec(),
        (OperatorKind::Union, _) => inputs.concat(),
        (OperatorKind::Map, Udf::Map(udf)) => {
            let pages = on_pages(inputs[0]);
            collected(|out| views(&pages).for_each(|r| udf.map(r, out)))
        }
        (OperatorKind::Reduce { key }, Udf::Reduce(udf)) => collected(|out| {
            let sorted = Sorted::new(inputs[0], key);
            let views: Vec<_> = views(&sorted.pages).collect();
            for &(start, end) in &sorted.groups {
                udf.reduce(
                    &key_values(&sorted.records[start], key),
                    &views[start..end],
                    out,
                );
            }
        }),
        (
            OperatorKind::Match {
                left_key,
                right_key,
            },
            Udf::Match(udf),
        ) => collected(|out| {
            let (left, right) = (inputs[0], inputs[1]);
            match local {
                LocalStrategy::SortMergeJoin => {
                    let keys = (&left_key[..], &right_key[..]);
                    merge_groups((left, right), keys, false, |_, lgroup, rgroup| {
                        for &l in lgroup {
                            for &r in rgroup {
                                udf.join(l, r, out);
                            }
                        }
                    })
                }
                LocalStrategy::HashJoinBuildRight => {
                    hash_join(left, left_key, right, right_key, |probe, build| {
                        udf.join(probe, build, out)
                    })
                }
                _ => hash_join(right, right_key, left, left_key, |probe, build| {
                    udf.join(build, probe, out)
                }),
            }
        }),
        (OperatorKind::Cross, Udf::Cross(udf)) => collected(|out| {
            let (lpages, rpages) = (on_pages(inputs[0]), on_pages(inputs[1]));
            let right: Vec<_> = views(&rpages).collect();
            for l in views(&lpages) {
                right.iter().for_each(|&r| udf.cross(l, r, out));
            }
        }),
        (
            OperatorKind::CoGroup {
                left_key,
                right_key,
                inner,
            },
            Udf::CoGroup(udf),
        ) => collected(|out| {
            let keys = (&left_key[..], &right_key[..]);
            merge_groups((inputs[0], inputs[1]), keys, !inner, |key, l, r| {
                udf.cogroup(key, l, r, out)
            })
        }),
        _ => panic!(
            "operator '{}' has a UDF that does not fit its contract",
            op.name
        ),
    }
}

/// Runs `body` against a heap-record sink and returns what it received.
fn collected(body: impl FnOnce(&mut Vec<Record>)) -> Vec<Record> {
    let mut out = Vec::new();
    body(&mut out);
    out
}

/// `record`'s key values.
fn key_values(record: &Record, key: &[usize]) -> Vec<Value> {
    key.iter()
        .map(|&field| record.field(field).clone())
        .collect()
}

/// A partition stably sorted on a key, serialized, and cut into its key
/// groups (`(start, end)` ranges).
struct Sorted {
    records: Vec<Record>,
    pages: Vec<Arc<RecordPage>>,
    groups: Vec<(usize, usize)>,
}

impl Sorted {
    fn new(records: &[Record], key: &[usize]) -> Sorted {
        let mut records = records.to_vec();
        sort_by_key(&mut records, key);
        let (pages, groups) = (on_pages(&records), group_ranges(&records, key));
        Sorted {
            records,
            pages,
            groups,
        }
    }
}

/// Walks the key groups of both sides in key order: `on_groups` gets the
/// key and both groups of every key both sides hold — with `outer`, of
/// every key either side holds, the missing group empty.
fn merge_groups(
    (left, right): (&[Record], &[Record]),
    (left_key, right_key): (&[usize], &[usize]),
    outer: bool,
    mut on_groups: impl FnMut(&[Value], &[RecordView<'_>], &[RecordView<'_>]),
) {
    let (left, right) = (Sorted::new(left, left_key), Sorted::new(right, right_key));
    let lviews: Vec<_> = views(&left.pages).collect();
    let rviews: Vec<_> = views(&right.pages).collect();
    let (mut l, mut r) = (
        left.groups.iter().peekable(),
        right.groups.iter().peekable(),
    );
    loop {
        let order = match (l.peek(), r.peek()) {
            (Some(lg), Some(rg)) => compare_keys(
                &left.records[lg.0],
                left_key,
                &right.records[rg.0],
                right_key,
            ),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let lgroup = (order != Ordering::Greater).then(|| l.next()).flatten();
        let rgroup = (order != Ordering::Less).then(|| r.next()).flatten();
        if !outer && order != Ordering::Equal {
            continue;
        }
        let key = match (lgroup, rgroup) {
            (Some(&(start, _)), _) => key_values(&left.records[start], left_key),
            (None, Some(&(start, _))) => key_values(&right.records[start], right_key),
            (None, None) => unreachable!("every step takes a group from one side"),
        };
        let range = |group: Option<&(usize, usize)>| group.map_or(0..0, |&(s, e)| s..e);
        on_groups(&key, &lviews[range(lgroup)], &rviews[range(rgroup)]);
    }
}

/// A hash join streaming `probe` against an index of `build`: for each
/// probe record in order, `on_match(probe, build)` for its matches in build
/// order.
fn hash_join(
    probe: &[Record],
    probe_key: &[usize],
    build: &[Record],
    build_key: &[usize],
    mut on_match: impl FnMut(RecordView<'_>, RecordView<'_>),
) {
    let mut index: HashMap<Key, Vec<usize>> = HashMap::new();
    for (position, record) in build.iter().enumerate() {
        index
            .entry(Key::extract(record, build_key))
            .or_default()
            .push(position);
    }
    let (ppages, bpages) = (on_pages(probe), on_pages(build));
    let builds: Vec<_> = views(&bpages).collect();
    for (record, view) in probe.iter().zip(views(&ppages)) {
        let matches = index.get(&Key::extract(record, probe_key));
        for &position in matches.into_iter().flatten() {
            on_match(view, builds[position]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::contracts::{
        CoGroupClosure, CrossClosure, MatchClosure, RecordSink, ReduceClosure,
    };
    use dataflow::physical::default_physical_plan;
    use dataflow::plan::Plan;

    fn pairs(pairs: &[(i64, i64)]) -> Vec<Record> {
        pairs.iter().map(|&(a, b)| Record::pair(a, b)).collect()
    }

    #[test]
    fn sources_split_into_contiguous_chunks() {
        let parts = split(pairs(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]), 2);
        let keys: Vec<Vec<i64>> = parts
            .iter()
            .map(|p| p.iter().map(|r| r.long(0)).collect())
            .collect();
        assert_eq!(keys, [vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(split(Vec::new(), 3), vec![Vec::new(); 3]);
    }

    #[test]
    fn a_hash_edge_delivers_what_stayed_first_then_sources_in_order() {
        let router = PartitionRouter::hash(2);
        let producer: Partitions = vec![
            (0..20).map(|i| Record::pair(i, 0)).collect(),
            (0..20).map(|i| Record::pair(i, 1)).collect(),
        ];
        let mut evaluation = Evaluation::default();
        let parts = route(&producer, &router, &[0], &source_major, &mut evaluation);
        for (target, part) in parts.iter().enumerate() {
            let sources: Vec<i64> = part.iter().map(|r| r.long(1)).collect();
            let mut own_first = sources.clone();
            own_first.sort_by_key(|&source| (source != target as i64, source));
            assert_eq!(sources, own_first, "target {target}");
            assert!(part.iter().all(|r| router.route(r, &[0]) == target));
        }
        assert_eq!(evaluation.local_records + evaluation.shipped_records, 40);
        // A pair of `Long`s is a 4-byte frame and two 9-byte fields.
        assert_eq!(evaluation.shipped_bytes, evaluation.shipped_records * 22);
    }

    /// Reduce, both hash-join sides, sort-merge, Cross and CoGroup on one
    /// partition, against hand-computed outputs.
    #[test]
    fn each_local_strategy_keeps_its_documented_order() {
        let mut plan = Plan::new();
        let left = plan.source("left", pairs(&[(2, 1), (1, 2), (2, 3), (3, 4)]));
        let right = plan.source("right", pairs(&[(2, 10), (4, 20), (2, 30)]));
        let concat = |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
            out.emit(&[Value::Long(l.long(1)), Value::Long(r.long(1))])
        };
        let build_left = plan.match_join(
            "bl",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(concat)),
        );
        let build_right = plan.match_join(
            "br",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(concat)),
        );
        let merged = plan.match_join(
            "sm",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(concat)),
        );
        let crossed = plan.cross("x", left, right, Arc::new(CrossClosure(concat)));
        let reduce = |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
            let mut fields = key.to_vec();
            fields.extend(group.iter().map(|r| Value::Long(r.long(1))));
            out.emit(&fields)
        };
        let grouped = plan.reduce("g", left, vec![0], Arc::new(ReduceClosure(reduce)));
        let cogroup = |key: &[Value],
                       l: &[RecordView<'_>],
                       r: &[RecordView<'_>],
                       out: &mut dyn RecordSink| {
            let mut fields = key.to_vec();
            fields.extend(l.iter().chain(r).map(|r| Value::Long(r.long(1))));
            out.emit(&fields)
        };
        let outer = plan.cogroup(
            "co",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(cogroup)),
        );
        let inner = plan.inner_cogroup(
            "ico",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(cogroup)),
        );
        let sinks = [
            build_left,
            build_right,
            merged,
            crossed,
            grouped,
            outer,
            inner,
        ];
        for (i, &op) in sinks.iter().enumerate() {
            plan.sink(&format!("s{i}"), op);
        }
        let mut physical = default_physical_plan(&plan, 1).unwrap();
        for (op, local) in [
            (build_left, LocalStrategy::HashJoinBuildLeft),
            (build_right, LocalStrategy::HashJoinBuildRight),
            (merged, LocalStrategy::SortMergeJoin),
        ] {
            physical.choices.get_mut(&op).unwrap().local = local;
        }
        let evaluation = Interpreter::new().evaluate(&physical);
        let rows = |sink: &str| -> Vec<Vec<i64>> {
            let records = evaluation.sink(sink);
            let long = |v: &Value| v.as_long();
            records
                .iter()
                .map(|r| r.fields().iter().map(long).collect())
                .collect()
        };
        // Build left, probe right: right's order, matches in left's order.
        assert_eq!(rows("s0"), [[1, 10], [3, 10], [1, 30], [3, 30]]);
        // Build right, probe left: left's order, matches in right's order.
        assert_eq!(rows("s1"), [[1, 10], [1, 30], [3, 10], [3, 30]]);
        assert_eq!(rows("s2"), [[1, 10], [1, 30], [3, 10], [3, 30]]);
        assert_eq!(rows("s3").len(), 12);
        assert_eq!(rows("s3")[..3], [[1, 10], [1, 20], [1, 30]]);
        assert_eq!(rows("s4"), [vec![1, 2], vec![2, 1, 3], vec![3, 4]]);
        let outer_rows = [vec![1, 2], vec![2, 1, 3, 10, 30], vec![3, 4], vec![4, 20]];
        assert_eq!(rows("s5"), outer_rows);
        assert_eq!(rows("s6"), [vec![2, 1, 3, 10, 30]]);
    }
}
