//! Fused-execution equivalence: the executor, whose segments fuse forward
//! edges into calls and whose operators run on pages, must be byte-identical
//! to the reference operator interpreter (`reference::interpreter`, a
//! materializing evaluation over heap records with none of the engine's
//! pages, kernels or fusion) on every algorithm and memory budget, and
//! across every contract that can consume a fused edge.  This is
//! the repository-level statement that chain fusion and the page-native
//! kernels are pure cost optimizations: they change *when* a record reaches
//! the next user function, never *which* records arrive or in what order.

use algorithms::common::{initial_components, initial_ranks};
use algorithms::connected_components::build_bulk_step_plan;
use algorithms::pagerank::{build_step_plan, forced_physical_plan};
use algorithms::{
    cc_bulk, cc_incremental, oracles, pagerank, sssp, PageRankConfig, PageRankPlan, DAMPING,
};
use dataflow::prelude::*;
use graphdata::{chain, rmat, DatasetProfile, Graph, RmatParams};
use optimizer::{IterationSpec, Optimizer};
use reference::interpreter::{iterate, BulkStep, Interpreter};
use spinning_core::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("chain", chain(150)),
        (
            "power-law",
            rmat(500, 3000, RmatParams::default(), 42).symmetrize(),
        ),
        ("foaf-profile", DatasetProfile::foaf().generate(8_192)),
    ]
}

/// The budgets every combination runs under: unbounded, and a finite budget
/// that forces exchanges to spill.  The CI `fused-smoke` job overrides the
/// finite one through `SPINNING_MEMORY_BUDGET` (like the spill smoke does).
fn budgets() -> Vec<(&'static str, MemoryBudget)> {
    let tight = MemoryBudget::from_env().unwrap_or(MemoryBudget::bytes(1024));
    vec![("unlimited", MemoryBudget::unlimited()), ("tight", tight)]
}

/// The optimizer's physical plan for `plan`'s bulk loop from `input` to
/// sink `output`, as [`BulkIteration::run`] plans it.
fn planned(
    plan: &Plan,
    annotations: &optimizer::Annotations,
    input: OperatorId,
    output: &str,
    parallelism: usize,
    iterations: usize,
) -> PhysicalPlan {
    let output = plan.sink_by_name(output).unwrap();
    let spec = IterationSpec::new(input, output, iterations as f64);
    let optimized = Optimizer::new(parallelism).optimize_iterative(plan, annotations, &spec);
    optimized.unwrap().physical
}

/// The chained bulk executor must reproduce the reference interpreter's
/// bulk loop: identical components, identical iteration count, and an
/// identical per-superstep trace (the streaming path may not change how
/// many records exist or move, only how long they are buffered).
#[test]
fn bulk_cc_chained_matches_the_materializing_oracle() {
    for (graph_name, graph) in test_graphs() {
        let base = RunConfig::new(4);
        let (plan, solution, annotations) = build_bulk_step_plan(&graph);
        let sink = "next-components";
        let max = base.max_steps;
        let physical = planned(&plan, &annotations, solution, sink, 4, max);
        let unchanged = |a: &[Record], b: &[Record]| {
            let (mut a, mut b) = (a.to_vec(), b.to_vec());
            a.sort();
            b.sort();
            a == b
        };
        let steps = iterate(
            &physical,
            solution,
            sink,
            initial_components(&graph),
            max,
            unchanged,
        );
        let mut components = vec![0; graph.num_vertices()];
        for record in &steps.last().unwrap().solution {
            components[record.long(0) as usize] = record.long(1);
        }
        for (budget_name, budget) in budgets() {
            let exec = ExecConfig::new().with_memory_budget(budget);
            let chained = cc_bulk(&graph, &base.clone().with_exec(exec)).unwrap();

            let label = format!("{graph_name}/{budget_name}");
            assert_eq!(chained.components, components, "components {label}");
            assert_eq!(chained.iterations, steps.len(), "iterations {label}");
            assert_eq!(
                trace(&chained.stats),
                reference_trace(&steps),
                "superstep trace {label}"
            );

            // The comparison only means something if the streaming path ran.
            let execution = chained.stats.per_iteration[0]
                .execution
                .as_ref()
                .expect("bulk iterations record execution stats");
            assert!(
                execution.chained_operators >= 2,
                "no chain fused on {label}: {execution:?}"
            );
        }
    }
}

/// The per-superstep fields the chained executor must reproduce exactly.
fn trace(stats: &IterationRunStats) -> Vec<(usize, usize, usize, usize, usize)> {
    stats
        .per_iteration
        .iter()
        .map(|s| {
            (
                s.workset_size,
                s.elements_inspected,
                s.elements_changed,
                s.messages_sent,
                s.messages_shipped,
            )
        })
        .collect()
}

/// [`trace`] of the reference interpreter's bulk loop, by the bulk
/// driver's definitions: the partial solution read is the working set and
/// every record inspected, the one produced is every record changed, and a
/// message is a record on an edge.
fn reference_trace(steps: &[BulkStep]) -> Vec<(usize, usize, usize, usize, usize)> {
    steps
        .iter()
        .map(|step| {
            let (shipped, local) = (
                step.evaluation.shipped_records,
                step.evaluation.local_records,
            );
            let read = step.input_records;
            (read, read, step.solution.len(), shipped + local, shipped)
        })
        .collect()
}

/// PageRank across all three Figure 4 plans, unbudgeted and with every
/// shipped page spilled: the chained run's ranks must be bit-identical to
/// the reference interpreter's — floating-point summation order is part of
/// the byte-identity contract.
#[test]
fn pagerank_all_plans_chained_matches_materialized_bitwise() {
    const ITERATIONS: usize = 8;
    let graph = rmat(250, 2000, RmatParams::default(), 17).symmetrize();
    let (plan, vector, join, reduce, annotations) = build_step_plan(&graph, DAMPING);
    for kind in [
        PageRankPlan::Optimized,
        PageRankPlan::ForceBroadcast,
        PageRankPlan::ForcePartition,
    ] {
        let physical = match kind {
            PageRankPlan::Optimized => {
                planned(&plan, &annotations, vector, "next-ranks", 4, ITERATIONS)
            }
            forced => forced_physical_plan(&plan, join, reduce, 4, forced).unwrap(),
        };
        let never = |_: &[Record], _: &[Record]| false;
        let steps = iterate(
            &physical,
            vector,
            "next-ranks",
            initial_ranks(&graph),
            ITERATIONS,
            never,
        );
        let mut ranks = vec![0u64; graph.num_vertices()];
        for record in &steps.last().unwrap().solution {
            ranks[record.long(0) as usize] = record.double(1).to_bits();
        }
        for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(0)] {
            let mut config = PageRankConfig::new(4)
                .with_iterations(ITERATIONS)
                .with_plan(kind);
            config.run.exec = ExecConfig::new().with_memory_budget(budget);
            let chained = pagerank(&graph, &config).unwrap();
            let bits: Vec<u64> = chained.ranks.iter().map(|rank| rank.to_bits()).collect();
            assert_eq!(bits, ranks, "ranks differ under {kind:?} at {budget:?}");
        }
    }
}

/// The bulk driver feeds each iteration's output back as the sink's pages.
/// Driving PageRank's step plan by hand the heap-record way — the previous
/// ranks as a `Vec<Record>` source, one cache across executions, the sink
/// read out as records — must give bit-identical ranks to `run_physical`
/// for every Figure 4 plan, at p = 1 and 3, unbudgeted and at budget 0.
#[test]
fn the_pages_feedback_equals_the_heap_record_feedback() {
    const ITERATIONS: usize = 6;
    let graph = rmat(250, 2000, RmatParams::default(), 17).symmetrize();
    let (plan, vector, join, reduce, annotations) = build_step_plan(&graph, DAMPING);
    let output = plan.sink_by_name("next-ranks").unwrap();
    for parallelism in [1, 3] {
        for kind in [
            PageRankPlan::Optimized,
            PageRankPlan::ForceBroadcast,
            PageRankPlan::ForcePartition,
        ] {
            let physical = match kind {
                PageRankPlan::Optimized => {
                    let spec = IterationSpec::new(vector, output, ITERATIONS as f64);
                    let optimizer = Optimizer::new(parallelism);
                    let optimized = optimizer.optimize_iterative(&plan, &annotations, &spec);
                    optimized.unwrap().physical
                }
                forced => forced_physical_plan(&plan, join, reduce, parallelism, forced).unwrap(),
            };
            for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(0)] {
                let label = format!("{kind:?}, p = {parallelism}, {budget:?}");
                let exec = ExecConfig::new().with_memory_budget(budget);
                let config = RunConfig::new(parallelism).with_exec(exec.clone());
                let fixed = TerminationCriterion::FixedIterations(ITERATIONS);
                let iteration = BulkIteration::new(plan.clone(), vector, "next-ranks", fixed);
                let driven = iteration
                    .run_physical(physical.clone(), initial_ranks(&graph), &config)
                    .unwrap();

                let mut by_hand = physical.clone();
                let executor = Executor::with_config(exec);
                let mut cache = IntermediateCache::new();
                let mut ranks = Arc::new(initial_ranks(&graph));
                for _ in 0..ITERATIONS {
                    let step = &mut by_hand.plan;
                    step.replace_source_data(vector, Arc::clone(&ranks))
                        .unwrap();
                    let result = executor.execute_with_cache(&by_hand, &mut cache).unwrap();
                    ranks = Arc::new(result.into_sink("next-ranks").unwrap());
                }
                assert_eq!(driven.iterations, ITERATIONS, "{label}");
                assert_eq!(driven.solution, *ranks, "{label}");
            }
        }
    }
}

/// The workset modes do not run the chained executor, but they share sinks
/// and fixpoints with the bulk variant that does: every mode × budget
/// combination must still agree with the (now chained) bulk oracle.
#[test]
fn workset_modes_and_routings_agree_with_the_chained_bulk_oracle() {
    let graph = rmat(400, 2400, RmatParams::default(), 23).symmetrize();
    let bulk_oracle = cc_bulk(&graph, &RunConfig::new(4)).unwrap().components;
    for (budget_name, budget) in budgets() {
        for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
            let config = RunConfig::new(4).with_mode(mode).with_memory_budget(budget);
            let result = cc_incremental(&graph, &config).unwrap();
            assert_eq!(
                result.components, bulk_oracle,
                "{mode:?} under the {budget_name} budget"
            );
        }
    }
}

/// SSSP across modes × budgets against the BFS oracle — the guard
/// that the streaming work left the workset runtimes untouched.
#[test]
fn sssp_modes_and_routings_match_the_bfs_oracle_under_budgets() {
    let graph = DatasetProfile::foaf().generate(8_192);
    let oracle = oracles::sssp(&graph, 1);
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        for (budget_name, budget) in budgets() {
            let config = RunConfig::new(4)
                .with_mode(mode)
                .with_exec(ExecConfig::new().with_memory_budget(budget));
            let result = sssp(&graph, 1, &config).unwrap();
            assert_eq!(
                result.distances, oracle,
                "{mode:?} under the {budget_name} budget"
            );
        }
    }
}

/// One entry of the depth-first test's event log.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// `expand` saw source record `k`.
    Expand(i64),
    /// `shift` saw one of the 16 copies of source record `k`.
    Shift(i64),
}

type EventLog = Arc<Mutex<Vec<(ThreadId, Event)>>>;

/// source → 16× `expand` → `shift` (drops 1 in 97) → sink at 4-way
/// parallelism; the user functions write to `log` when given one.
fn expansion_pipeline(log: Option<EventLog>) -> PhysicalPlan {
    let record = move |event: Event| {
        if let Some(log) = &log {
            log.lock()
                .unwrap()
                .push((std::thread::current().id(), event));
        }
    };
    let mut plan = Plan::new();
    let events: Vec<Record> = (0..6_000).map(|i| Record::pair(i, i % 97)).collect();
    let source = plan.source("events", events);
    let log_expand = record.clone();
    let expand = plan.map(
        "expand",
        source,
        Arc::new(MapClosure(
            move |r: RecordView<'_>, out: &mut dyn RecordSink| {
                log_expand(Event::Expand(r.long(0)));
                for copy in 0..16 {
                    out.emit(Record::pair(r.long(0) * 16 + copy, r.long(1)).fields());
                }
            },
        )),
    );
    let shift = plan.map(
        "shift",
        expand,
        Arc::new(MapClosure(
            move |r: RecordView<'_>, out: &mut dyn RecordSink| {
                record(Event::Shift(r.long(0) / 16));
                if r.long(1) != 0 {
                    out.emit(Record::pair(r.long(0), r.long(1) + 1).fields());
                }
            },
        )),
    );
    plan.sink("out", shift);
    default_physical_plan(&plan, 4).unwrap()
}

/// A fused edge is a function call: every record `expand` emits travels the
/// rest of the segment before `expand`'s emit returns.  So on each thread the
/// log reads `Expand(k)` followed by exactly the 16 `Shift(k)` calls, then the
/// next `Expand` — depth first, record granularity, one thread per partition
/// task — and the sink still matches the reference interpreter byte for
/// byte.
#[test]
fn fused_edges_run_depth_first_on_the_producers_thread() {
    let log: EventLog = Arc::default();
    let fused = Executor::new()
        .execute(&expansion_pipeline(Some(Arc::clone(&log))))
        .unwrap();
    let reference = Interpreter::new().evaluate(&expansion_pipeline(None));

    assert_eq!(
        fused.stats.chained_operators, 3,
        "expand→shift→sink must fuse into one chain: {:?}",
        fused.stats
    );
    assert_eq!(
        fused.stats.peak_chain_pages, 0,
        "no page crosses a fused edge"
    );

    let log = log.lock().unwrap();
    let mut open: HashMap<ThreadId, (i64, usize)> = HashMap::new();
    let mut expanded = 0usize;
    for &(thread, event) in log.iter() {
        match event {
            Event::Expand(k) => {
                if let Some((previous, shifts)) = open.insert(thread, (k, 0)) {
                    assert_eq!(
                        shifts, 16,
                        "input {k} arrived before {previous} was through"
                    );
                }
                expanded += 1;
            }
            Event::Shift(k) => {
                let (current, shifts) = open
                    .get_mut(&thread)
                    .expect("shift ran on a thread that never expanded");
                assert_eq!(*current, k, "a copy of {k} ran outside its producer's call");
                *shifts += 1;
            }
        }
    }
    assert_eq!(expanded, 6_000);
    assert!(open.values().all(|&(_, shifts)| shifts == 16));

    let streamed = fused.into_sink("out").unwrap();
    let oracle = reference.sink("out");
    assert!(
        streamed.len() > 90_000,
        "the expansion must actually expand"
    );
    assert_eq!(streamed, oracle, "sink contents must be byte-identical");
}

/// A lone partition has nothing to run beside: at parallelism 1 every user
/// function of the fused segment runs on the thread that called the
/// executor.
#[test]
fn a_lone_partition_never_leaves_the_calling_thread() {
    let log: EventLog = Arc::default();
    let mut physical = expansion_pipeline(Some(Arc::clone(&log)));
    physical.parallelism = 1;
    let result = Executor::new().execute(&physical).unwrap();
    assert_eq!(result.stats.chained_operators, 3);
    let here = std::thread::current().id();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 6_000 * 17);
    assert!(
        log.iter().all(|&(thread, _)| thread == here),
        "a user function left the calling thread"
    );
}

/// A plan in which nothing can fuse — Union, sort-merge Match and CoGroup dam
/// every input, and the sink's edge repartitions — runs as segments of one,
/// and each consumes, produces and delivers what the reference interpreter
/// does.
#[test]
fn a_plan_of_unfusable_operators_is_all_singleton_segments() {
    let mut plan = Plan::new();
    let pairs = |n: i64, modulus: i64| {
        (0..n)
            .map(|i| Record::pair(i % modulus, i))
            .collect::<Vec<_>>()
    };
    let a = plan.source("a", pairs(300, 37));
    let b = plan.source("b", pairs(200, 41));
    let c = plan.source("c", pairs(150, 37));
    let both = plan.union("both", vec![a, b]);
    let joined = plan.match_join(
        "joined",
        both,
        c,
        vec![0],
        vec![0],
        Arc::new(MatchClosure(
            |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(Record::pair(l.long(0), l.long(1) * 1_000 + r.long(1)).fields());
            },
        )),
    );
    let grouped = plan.cogroup(
        "grouped",
        joined,
        c,
        vec![0],
        vec![0],
        Arc::new(CoGroupClosure(
            |key: &[Value],
             l: &[RecordView<'_>],
             r: &[RecordView<'_>],
             out: &mut dyn RecordSink| {
                let folded = l
                    .iter()
                    .fold(0i64, |acc, r| acc.wrapping_mul(31).wrapping_add(r.long(1)));
                out.emit(longs(key[0].as_long(), folded, r.len() as i64).fields());
            },
        )),
    );
    let sink = plan.sink("out", grouped);
    for parallelism in [1, 4] {
        let mut physical = default_physical_plan(&plan, parallelism).unwrap();
        physical.choices.get_mut(&joined).unwrap().local = LocalStrategy::SortMergeJoin;
        physical.choices.get_mut(&sink).unwrap().input_ships =
            vec![ShipStrategy::PartitionHash(vec![0])];
        let default = Executor::new().execute(&physical).unwrap();
        let reference = Interpreter::new().evaluate(&physical);
        assert_eq!(default.stats.chained_operators, 0);
        assert_eq!(operator_rows(&default.stats), reference.operators);
        let out = default.sink_partitions("out").unwrap();
        assert_eq!(out.iter().flatten().count(), 37, "p={parallelism}");
        assert_eq!(&out, reference.sink_partitions("out"), "p={parallelism}");
    }
}

/// An operator with several consumers shares its pages with all of them:
/// `mid` is a sink whose output also feeds a forward Map and a hash-shipped
/// Reduce.  Every consumer reads the same pages by pointer, and each sink
/// is byte-identical to the reference interpreter's, unbudgeted and with
/// every shipped page spilled.
#[test]
fn a_shared_producer_that_is_also_a_sink_matches_the_oracle() {
    let mut plan = Plan::new();
    let source = plan.source(
        "events",
        (0..900)
            .map(|i| Record::pair((i * 7) % 61, i))
            .collect::<Vec<_>>(),
    );
    let scaled = plan.map(
        "scale",
        source,
        Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
            out.emit(&[Value::Long(r.long(0)), Value::Long(r.long(1) * 3)]);
        })),
    );
    let mid = plan.sink("mid", scaled);
    let forwarded = plan.map(
        "forward",
        mid,
        Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
            if r.long(1) % 2 == 0 {
                out.forward(r);
            }
        })),
    );
    plan.sink("forwarded", forwarded);
    let summed = plan.reduce(
        "sum",
        mid,
        vec![0],
        Arc::new(ReduceClosure(
            |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                let folded = group
                    .iter()
                    .fold(0i64, |acc, r| acc.wrapping_mul(31).wrapping_add(r.long(1)));
                out.emit(&[key[0].clone(), Value::Long(folded)]);
            },
        )),
    );
    plan.sink("summed", summed);
    for parallelism in [1, 3] {
        let physical = default_physical_plan(&plan, parallelism).unwrap();
        assert_eq!(
            physical.choice(forwarded).input_ships[0],
            ShipStrategy::Forward
        );
        assert_eq!(
            physical.choice(summed).input_ships[0],
            ShipStrategy::PartitionHash(vec![0])
        );
        for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(0)] {
            let label = format!("p={parallelism} {budget:?}");
            let config = ExecConfig::new().with_memory_budget(budget);
            let paged = Executor::with_config(config).execute(&physical).unwrap();
            let oracle = Interpreter::new().evaluate(&physical);
            if parallelism > 1 && budget == MemoryBudget::bytes(0) {
                assert!(paged.stats.spilled_runs > 0, "{label}");
            }
            assert_eq!(operator_rows(&paged.stats), oracle.operators, "{label}");
            assert_eq!(paged.stats.shipped_records, oracle.shipped_records);
            assert_eq!(paged.stats.shipped_bytes, oracle.shipped_bytes);
            assert_eq!(paged.stats.local_records, oracle.local_records);
            for sink in ["mid", "forwarded", "summed"] {
                let out = paged.sink_partitions(sink).unwrap();
                assert!(out.iter().flatten().count() > 0, "{label} {sink}");
                assert_eq!(&out, oracle.sink_partitions(sink), "{label} {sink}");
            }
            assert_eq!(paged.sink("mid").unwrap().len(), 900, "{label}");
            assert_eq!(paged.sink("summed").unwrap().len(), 61, "{label}");
        }
    }
}

/// The grouping key `enrich` derives from an event's key `k` for `sum`:
/// every shape is one-to-one in `k`, so a key group never spans partitions.
#[derive(Debug, Clone, Copy)]
enum KeyShape {
    /// One `Long` field: negatives and both extremes.
    Long,
    /// One `Text` field, whose order is not the numeric one.
    Text,
    /// `Long` keys with a few `Text` ones arriving mid-stream: the paged
    /// grouping switches from exact prefixes to in-place key comparison,
    /// still on its pages.
    LongThenText,
    /// Two `Long` fields.
    LongLong,
}

impl KeyShape {
    const ALL: [KeyShape; 4] = [
        KeyShape::Long,
        KeyShape::Text,
        KeyShape::LongThenText,
        KeyShape::LongLong,
    ];

    fn fields(self, k: i64) -> Vec<Value> {
        let long = match k {
            0 => i64::MIN,
            1 => i64::MAX,
            k if k % 2 == 1 => -k * 7_919,
            k => k * 7_919,
        };
        match self {
            KeyShape::Text => vec![Value::Text(format!("k{k}"))],
            KeyShape::LongThenText if k % 50 == 7 => vec![Value::Text(format!("k{k}"))],
            KeyShape::Long | KeyShape::LongThenText => vec![Value::Long(long)],
            KeyShape::LongLong => vec![Value::Long(long), Value::Long(k % 3)],
        }
    }

    fn key(self) -> KeyFields {
        match self {
            KeyShape::LongLong => vec![0, 1],
            _ => vec![0],
        }
    }
}

/// Hands `fields` to `out` as fields (`emit`) or as a serialized record it
/// passes through (`forward`).
fn put(out: &mut dyn RecordSink, emit: bool, fields: Vec<Value>) {
    if emit {
        out.emit(&fields);
    } else {
        let mut writer = PageWriter::new();
        writer.push_fields(&fields);
        out.forward(writer.finish()[0].view_at(0));
    }
}

/// Every contract that can consume a fused edge, in one segment:
/// `scale` (Map, the head, fed by a hash exchange) → `enrich` (hash-join
/// probe; the build side is its own hash exchange) → `sum` (Reduce) → `tag`
/// (Cross against a broadcast side) → sink.  `build_left` picks which join
/// argument is the build side, `shape` the key `sum` groups on, and `emit`
/// whether the user functions hand their records over as fields or pass
/// serialized records through.
fn all_contracts_pipeline(
    parallelism: usize,
    build_left: bool,
    shape: KeyShape,
    emit: bool,
) -> PhysicalPlan {
    let mut plan = Plan::new();
    let events = plan.source(
        "events",
        (0..3_000)
            .map(|i| Record::pair(i % 211, i))
            .collect::<Vec<_>>(),
    );
    let dim = plan.source(
        "dim",
        (0..400)
            .map(|i| Record::pair(i % 200, i * 10))
            .collect::<Vec<_>>(),
    );
    let labels = plan.source(
        "labels",
        (0..3).map(|i| Record::pair(i, -i)).collect::<Vec<_>>(),
    );
    let scale = plan.map(
        "scale",
        events,
        Arc::new(MapClosure(
            move |r: RecordView<'_>, out: &mut dyn RecordSink| {
                put(
                    out,
                    emit,
                    vec![Value::Long(r.long(0)), Value::Long(r.long(1) * 2)],
                );
                if r.long(1) % 5 == 0 {
                    put(out, emit, vec![Value::Long(r.long(0)), Value::Long(1)]);
                }
            },
        )),
    );
    // The join function sees (left, right) in argument order either way; the
    // dimension record is the one with the multiple of 10.  It emits the
    // grouping key's fields, then the value.
    let join_udf = |event: usize| {
        Arc::new(MatchClosure(
            move |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                let (event, dim) = if event == 0 { (l, r) } else { (r, l) };
                let mut fields = shape.fields(event.long(0));
                fields.push(Value::Long(event.long(1) + dim.long(1)));
                put(out, emit, fields);
            },
        ))
    };
    let by_key = || ShipStrategy::PartitionHash(vec![0]);
    let (enrich, enrich_choice) = if build_left {
        (
            plan.match_join("enrich", dim, scale, vec![0], vec![0], join_udf(1)),
            PhysicalChoice {
                input_ships: vec![by_key(), ShipStrategy::Forward],
                local: LocalStrategy::HashJoinBuildLeft,
                cache_inputs: vec![false, false],
            },
        )
    } else {
        (
            plan.match_join("enrich", scale, dim, vec![0], vec![0], join_udf(0)),
            PhysicalChoice {
                input_ships: vec![ShipStrategy::Forward, by_key()],
                local: LocalStrategy::HashJoinBuildRight,
                cache_inputs: vec![false, false],
            },
        )
    };
    let sum = plan.reduce(
        "sum",
        enrich,
        shape.key(),
        Arc::new(ReduceClosure(
            move |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                // Order-sensitive on purpose: delivery order is part of the
                // byte-identity contract.
                let folded = group.iter().fold(0i64, |acc, r| {
                    let r = r.materialize();
                    acc.wrapping_mul(31).wrapping_add(r.long(r.arity() - 1))
                });
                let mut fields = key.to_vec();
                fields.extend([Value::Long(folded), Value::Long(group.len() as i64)]);
                put(out, emit, fields);
            },
        )),
    );
    let tag = plan.cross(
        "tag",
        sum,
        labels,
        Arc::new(CrossClosure(
            move |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                // (key fields.., folded + label, group size)
                let mut fields = l.materialize().into_fields();
                let folded = fields.len() - 2;
                fields[folded] = Value::Long(l.long(folded) + r.long(1));
                put(out, emit, fields);
            },
        )),
    );
    plan.sink("out", tag);

    let mut physical = default_physical_plan(&plan, parallelism).unwrap();
    // `scale` receives its input partitioned on the key every downstream
    // member groups or joins on, so the rest of the segment forwards.
    physical.choices.get_mut(&scale).unwrap().input_ships = vec![by_key()];
    physical.choices.insert(enrich, enrich_choice);
    let sum_choice = physical.choices.get_mut(&sum).unwrap();
    sum_choice.input_ships = vec![ShipStrategy::Forward];
    physical
}

fn longs(a: i64, b: i64, c: i64) -> Record {
    Record::new(vec![Value::Long(a), Value::Long(b), Value::Long(c)])
}

/// Sorted `(operator, records_in, records_out)` rows of one execution.
fn operator_rows(stats: &ExecutionStats) -> Vec<(String, usize, usize)> {
    let mut rows: Vec<_> = stats
        .operators
        .iter()
        .map(|o| (o.name.clone(), o.records_in, o.records_out))
        .collect();
    rows.sort();
    rows
}

/// Every streaming consumer kind fused, at parallelism 1 and 4, with and
/// without a budget that spills the exchanged side inputs, for every key
/// shape the Reduce can group on (exact `Long` prefixes, inexact keys, and
/// the switch from one to the other mid-stream) and with records handed over as
/// fields or passed through serialized: sinks are byte-identical per partition
/// to the reference interpreter's, and every operator consumed and produced
/// exactly what it does there, where each edge materializes.
#[test]
fn every_streaming_contract_fuses_and_matches_the_oracle() {
    for parallelism in [1, 4] {
        for build_left in [false, true] {
            for shape in KeyShape::ALL {
                for emit in [false, true] {
                    for (budget_name, budget) in budgets() {
                        let label = format!(
                            "p={parallelism} build_left={build_left} {shape:?} \
                             emit={emit} {budget_name}"
                        );
                        let physical = all_contracts_pipeline(parallelism, build_left, shape, emit);
                        let config = ExecConfig::new().with_memory_budget(budget);
                        let fused = Executor::with_config(config).execute(&physical).unwrap();
                        let oracle = Interpreter::new().evaluate(&physical);

                        assert_eq!(fused.stats.chained_operators, 5, "{label}");
                        if parallelism > 1 && budget_name == "tight" {
                            assert!(fused.stats.spilled_runs > 0, "nothing spilled: {label}");
                        }
                        assert_eq!(operator_rows(&fused.stats), oracle.operators, "{label}");
                        let stats = &fused.stats;
                        assert_eq!(stats.local_records, oracle.local_records, "{label}");
                        assert_eq!(stats.shipped_records, oracle.shipped_records, "{label}");
                        assert_eq!(stats.shipped_bytes, oracle.shipped_bytes, "{label}");
                        let sink = fused.sink_partitions("out").unwrap();
                        assert!(sink.iter().flatten().count() > 500, "{label}");
                        assert_eq!(&sink, oracle.sink_partitions("out"), "{label}");
                    }
                }
            }
        }
    }
}

/// A user function panicking in the middle of a segment fails the execution
/// with one typed error naming the whole segment, and nothing of the segment
/// outlives the call.
#[test]
fn a_mid_chain_panic_is_one_typed_error_naming_the_segment() {
    for parallelism in [1, 4] {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut plan = Plan::new();
        let source = plan.source(
            "events",
            (0..400).map(|i| Record::pair(i, i)).collect::<Vec<_>>(),
        );
        let expand = plan.map(
            "expand",
            source,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r);
                out.forward(r);
            })),
        );
        let counted = Arc::clone(&calls);
        let shift = plan.map(
            "shift",
            expand,
            Arc::new(MapClosure(
                move |r: RecordView<'_>, out: &mut dyn RecordSink| {
                    counted.fetch_add(1, Ordering::Relaxed);
                    assert!(r.long(0) != 250, "record 250 is poison");
                    out.forward(r);
                },
            )),
        );
        plan.sink("out", shift);
        let physical = default_physical_plan(&plan, parallelism).unwrap();
        drop(plan);

        let err = Executor::new()
            .execute(&physical)
            .expect_err("the poisoned record must fail the run");
        match err {
            DataflowError::WorkerPanic {
                operator, message, ..
            } => {
                assert_eq!(operator, "expand→shift→out");
                assert!(message.contains("poison"), "message: {message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(calls.load(Ordering::Relaxed) > 0);
        // Every stage holds its user function; once the plan is gone, the
        // test's handle is the only one left — no task is still running.
        drop(physical);
        assert_eq!(Arc::strong_count(&calls), 1, "p={parallelism}");
    }
}

/// A spilled-run read fault on a fused join's build side surfaces as the
/// typed spill error.  Each partition task admits its downstream members'
/// side inputs before the head runs, so the first `SpillRead` check of the
/// execution is a build side's.
#[test]
fn a_spill_read_fault_on_a_fused_build_side_is_a_typed_error() {
    let physical = all_contracts_pipeline(4, false, KeyShape::Long, true);
    let fault = FaultInjector::failing_nth(FaultSite::SpillRead, 0);
    let config = ExecConfig::new()
        .with_memory_budget(MemoryBudget::bytes(1024))
        .with_fault(fault.clone());
    let err = Executor::with_config(config)
        .execute(&physical)
        .expect_err("the injected read fault must fail the run");
    match err {
        DataflowError::SpillIo(message) => {
            assert!(message.contains("injected"), "message: {message}")
        }
        other => panic!("expected SpillIo, got {other:?}"),
    }
    assert_eq!(fault.injected(FaultSite::SpillRead), 1);
}

/// CoGroup and InnerCoGroup walk the same two-sided merge of sorted key
/// groups as the sort-merge join.  On a single-`Long` and a `[Long, Text]`
/// key, with keys missing on either side, unbudgeted and with every exchange
/// spilled (budget 0), the page-native merge hands each user-function call
/// the same key and the same groups in the same order as the reference
/// interpreter (stable sort, cut, walk): the sinks are byte-identical.
#[test]
fn cogroups_merge_sorted_groups_like_the_reference_form() {
    let keyed = |composite: bool, k: i64, v: i64| {
        let mut fields = vec![Value::Long(k)];
        if composite {
            fields.push(Value::Text(format!("t{}", k.rem_euclid(3))));
        }
        fields.push(Value::Long(v));
        Record::new(fields)
    };
    for composite in [false, true] {
        let key: KeyFields = if composite { vec![0, 1] } else { vec![0] };
        // Left keys are -10..30, right keys 10..60: 70 keys in all, 20 shared.
        let left: Vec<Record> = (0..200).map(|i| keyed(composite, i % 40 - 10, i)).collect();
        let right: Vec<Record> = (0..150)
            .map(|i| keyed(composite, i % 50 + 10, -i))
            .collect();
        for inner in [false, true] {
            let mut plan = Plan::new();
            let l = plan.source("left", left.clone());
            let r = plan.source("right", right.clone());
            // Folds the key, both groups' values in order and their sizes.
            let udf = Arc::new(CoGroupClosure(
                |key: &[Value],
                 l: &[RecordView<'_>],
                 r: &[RecordView<'_>],
                 out: &mut dyn RecordSink| {
                    let mut fields = key.to_vec();
                    let last = |record: &RecordView<'_>| {
                        let record = record.materialize();
                        record.field(record.arity() - 1).clone()
                    };
                    fields.extend(l.iter().chain(r).map(last));
                    fields.push(Value::Long(l.len() as i64));
                    out.emit(&fields);
                },
            ));
            let grouped = if inner {
                plan.inner_cogroup("grouped", l, r, key.clone(), key.clone(), udf)
            } else {
                plan.cogroup("grouped", l, r, key.clone(), key.clone(), udf)
            };
            plan.sink("out", grouped);
            for parallelism in [1, 3] {
                let physical = default_physical_plan(&plan, parallelism).unwrap();
                for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(0)] {
                    let label =
                        format!("composite={composite} inner={inner} p={parallelism} {budget:?}");
                    let config = ExecConfig::new().with_memory_budget(budget);
                    let merged = Executor::with_config(config).execute(&physical).unwrap();
                    let reference = Interpreter::new().evaluate(&physical);
                    if parallelism > 1 && !budget.is_unlimited() {
                        assert!(merged.stats.spilled_runs > 0, "nothing spilled: {label}");
                    }
                    let out = merged.sink_partitions("out").unwrap();
                    let groups = out.iter().flatten().count();
                    assert_eq!(groups, if inner { 20 } else { 70 }, "{label}");
                    assert_eq!(&out, reference.sink_partitions("out"), "{label}");
                }
            }
        }
    }
}
