//! Out-of-core execution equivalence: forcing the exchanges to spill sealed
//! pages to disk must not change a single result.
//!
//! Every test runs a workload twice — once in memory and once under a byte
//! budget small enough to force multi-run spills (including the `bytes(0)`
//! "spill everything" extreme) — and pins the spilled run byte-for-byte to
//! the in-memory run and to the sequential oracles, across execution modes
//! (batch incremental, microstep, bulk).
//! `spilled_bytes`/`spilled_runs` counters prove the out-of-core path
//! actually ran; the in-memory runs prove an unlimited budget never touches
//! disk.
//!
//! The CI low-memory smoke job re-runs this suite with
//! `SPINNING_MEMORY_BUDGET` overriding the forced budget and asserts the
//! spill directory is empty afterwards (runs are deleted when their last
//! handle drops).

use algorithms::{
    cc_bulk, cc_incremental, cc_microstep, oracles, sssp_with_config, ComponentsConfig,
};
use dataflow::exchange::{ship, Outbox};
use dataflow::prelude::{
    default_physical_plan, CombineClosure, CombineFunction, ExecConfig, Executor, Key,
    LocalStrategy, MatchClosure, MemoryBudget, Plan, Record, RecordSink, RecordView, ReduceClosure,
    ShipStrategy, Value,
};
use dataflow::transport::TransportHandle;
use graphdata::{DatasetProfile, Graph};
use reference::fixpoint::{batch_fixpoint_with, WorksetStep};
use reference::interpreter::Interpreter;
use reference::{source_major, Deliver, Partitions};
use spinning_core::prelude::{
    ExecutionMode, ExpandClosure, UpdateClosure, WorksetConfig, WorksetIteration,
};
use std::sync::Arc;

mod support;

/// The budget every spill-forced run uses: tiny by default so even small
/// exchanges overflow it, overridable through `SPINNING_MEMORY_BUDGET` (the
/// CI smoke job sets it explicitly).
fn forced_budget() -> MemoryBudget {
    MemoryBudget::from_env().unwrap_or(MemoryBudget::bytes(1024))
}

/// A small Webbase-style long-tail graph (the profile's `scale` is a
/// downscale divisor): ~1.8k vertices with a ~180-vertex chain, so the
/// workset iteration runs ~180 supersteps and the spill path is exercised on
/// the long tail, not just the bulky first steps.
fn webbase() -> Graph {
    DatasetProfile::webbase().generate(65_536)
}

fn cc_oracle(graph: &Graph) -> Vec<i64> {
    graph
        .components_oracle()
        .into_iter()
        .map(i64::from)
        .collect()
}

#[test]
fn spilled_incremental_cc_is_byte_identical_to_in_memory() {
    let graph = webbase();
    let oracle = cc_oracle(&graph);
    let base = ComponentsConfig::new(4);
    let in_memory = cc_incremental(&graph, &base).unwrap();
    assert_eq!(in_memory.components, oracle);
    assert_eq!(
        in_memory.stats.total_spilled_bytes(),
        0,
        "unlimited budget must never spill"
    );
    let spilled = cc_incremental(&graph, &base.with_memory_budget(forced_budget())).unwrap();
    assert!(
        spilled.stats.total_spilled_bytes() > 0,
        "the forced budget must actually spill"
    );
    assert_eq!(
        spilled.components, in_memory.components,
        "spilling changed the fixpoint"
    );
    assert_eq!(
        spilled.iterations, in_memory.iterations,
        "spilling is invisible to the superstep structure"
    );
    assert!(spilled.converged);
}

#[test]
fn spilled_microstep_cc_matches_oracle_in_both_routings() {
    // Microstep visibility makes the within-superstep processing order part
    // of the trajectory, and spilled candidates are consumed in sorted-run
    // order — so the pin is against the fixpoint (and the in-memory final
    // state), which order cannot change.
    let graph = webbase();
    let oracle = cc_oracle(&graph);
    let config = ComponentsConfig::new(4).with_memory_budget(forced_budget());
    let result = cc_microstep(&graph, &config).unwrap();
    assert!(result.stats.total_spilled_bytes() > 0);
    assert_eq!(result.components, oracle);
    assert!(result.converged);
}

#[test]
fn budget_zero_spills_everything_and_forces_multiple_runs_per_partition() {
    let graph = webbase();
    let oracle = cc_oracle(&graph);
    let parallelism = 4;
    let config = ComponentsConfig::new(parallelism).with_memory_budget(MemoryBudget::bytes(0));
    let result = cc_incremental(&graph, &config).unwrap();
    assert_eq!(result.components, oracle);
    assert!(result.converged);
    // Budget 0 flushes every outbox every superstep: over the run each
    // partition receives far more than 4 runs (the acceptance bar for a
    // genuine multi-run out-of-core merge).
    assert!(
        result.stats.total_spilled_runs() >= 4 * parallelism,
        "only {} runs spilled",
        result.stats.total_spilled_runs()
    );
    assert!(result.stats.total_spilled_bytes() > 0);
}

#[test]
fn spilled_bulk_cc_matches_oracle_and_spills_through_the_executor() {
    // The bulk variant runs through the dataflow executor: its hash/range
    // exchanges and the loop-invariant cache (the neighbour table) spill
    // under the same budget.
    let graph = DatasetProfile::webbase().generate(262_144);
    let oracle = cc_oracle(&graph);
    let in_memory = cc_bulk(&graph, &ComponentsConfig::new(3)).unwrap();
    assert_eq!(in_memory.components, oracle);
    assert_eq!(in_memory.stats.total_spilled_bytes(), 0);
    let config = ComponentsConfig::new(3).with_memory_budget(forced_budget());
    let spilled = cc_bulk(&graph, &config).unwrap();
    assert!(
        spilled.stats.total_spilled_bytes() > 0,
        "executor exchanges must spill under the budget"
    );
    assert!(spilled.stats.total_spilled_runs() > 0);
    assert_eq!(spilled.components, oracle);
    assert_eq!(spilled.iterations, in_memory.iterations);
    assert!(spilled.converged);
}

#[test]
fn spilled_sssp_matches_oracle_in_every_mode_and_routing() {
    let graph = webbase();
    let source = 0;
    let oracle = oracles::sssp(&graph, source);
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        let config = WorksetConfig::new(3)
            .with_mode(mode)
            .with_exec(ExecConfig::new().with_memory_budget(forced_budget()));
        let result = sssp_with_config(&graph, source, &config).unwrap();
        assert_eq!(result.distances, oracle, "{mode:?}");
        assert!(result.converged);
        assert!(
            result.stats.total_spilled_bytes() > 0,
            "every mode must spill under the forced budget ({mode:?})"
        );
    }
}

#[test]
fn spilled_cc_and_sssp_rows_match_the_reference_fixpoint() {
    // A spilling exchange ships every candidate as emitted — it does not
    // fold — so its shipped and delivered counts are the reference's
    // unfolded ones, while the load step still folds the initial working
    // set.
    let graph = webbase();
    for parallelism in [2, 3] {
        let config = WorksetConfig::new(parallelism)
            .with_exec(ExecConfig::new().with_memory_budget(forced_budget()));
        let label = format!("p{parallelism}/forced budget");
        support::assert_folded_runs_match_the_reference(&graph, 0, &config, &label);
        support::assert_microstep_runs_reach_the_reference(&graph, 0, &config, &label);
    }
}

/// Folds `values`, in order, into one number: two groups holding the same
/// values in a different order fold differently.
fn order_fingerprint(values: impl IntoIterator<Item = i64>) -> i64 {
    values.into_iter().fold(0i64, |hash, value| {
        hash.wrapping_mul(1_000_003).wrapping_add(value)
    })
}

/// Min propagation over a ring of `n` vertices, each linked to the `reach`
/// vertices on either side, whose `update` writes down the order it was
/// handed its candidates in: a candidate is `(vertex, label, sender)` and a
/// delta `(vertex, label, fingerprint of the senders)`, so the solution set
/// records the candidate order of every vertex's last update.  Returns the
/// iteration, the same step for the reference evaluator, and the initial
/// solution and working set; both declare `combine` if one is given.
fn order_recording_ring(
    n: i64,
    reach: i64,
    combine: Option<Arc<dyn CombineFunction>>,
) -> (
    WorksetIteration<'static>,
    WorksetStep,
    Vec<Record>,
    Vec<Record>,
) {
    let update = |key: &Key,
                  current: Option<RecordView<'_>>,
                  candidates: &[RecordView<'_>],
                  delta: &mut dyn RecordSink| {
        let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
        if current.is_some_and(|c| c.long(1) <= best) {
            return;
        }
        let senders = candidates.iter().map(|r| r.long(2));
        delta.emit(&[
            key.values()[0].clone(),
            Value::Long(best),
            Value::Long(order_fingerprint(senders)),
        ]);
    };
    let expand = |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
        for e in edges {
            out.emit(&[
                Value::Long(e.long(1)),
                Value::Long(delta.long(1)),
                Value::Long(delta.long(0)),
            ]);
        }
    };
    let comparator = Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1)));
    let mut edges = Vec::new();
    for v in 0..n {
        for hop in 1..=reach {
            edges.push(Record::pair(v, (v + hop) % n));
            edges.push(Record::pair(v, (v + n - hop) % n));
        }
    }
    let step = WorksetStep {
        solution_key: vec![0],
        workset_key: vec![0],
        constant: edges.clone(),
        constant_key: vec![0],
        delta_key: vec![0],
        update: Arc::new(update),
        expand: Arc::new(expand),
        comparator: Some(comparator.clone()),
        combine: combine.clone(),
    };
    let (update, expand) = (
        Arc::new(UpdateClosure(update)),
        Arc::new(ExpandClosure(expand)),
    );
    let builder = WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edges), vec![0], vec![0])
        .comparator(comparator);
    let iteration = match combine {
        Some(combine) => builder.combine(combine),
        None => builder,
    }
    .build();
    let long = |values: [i64; 3]| Record::new(values.map(Value::Long).to_vec());
    let solution = (0..n).map(|v| long([v, v, 0])).collect();
    let workset = (0..n).map(|v| long([(v + 1) % n, v, v])).collect();
    (iteration, step, solution, workset)
}

/// The delivery order of the engine's exchange under `exec`'s budget and
/// credits, split over `writers` page writers with runs sorted on the key,
/// as the executor and the batch superstep configure it: `sent` goes
/// through an [`Outbox`] per source and one [`ship`], and every target
/// reads back what it received in delivery order — its in-memory pages,
/// then each spilled run in turn, with no merge.  The reference then groups
/// that order by its own stable sort, so the engine's grouping kernel must
/// break every tie between memory and disk, and between runs, the way the
/// contract says.
fn budgeted_delivery(exec: ExecConfig, writers: usize) -> Arc<Deliver> {
    Arc::new(move |key: &[usize], sent: Vec<Partitions>| {
        let targets = sent.len();
        let spill = exec.spill_manager(writers, Some(key.to_vec()));
        let outboxes = sent.iter().enumerate().map(|(source, to)| {
            let mut outbox = Outbox::new(source, targets, &spill);
            for (target, records) in to.iter().enumerate() {
                records.iter().for_each(|r| outbox.emit(target, r.fields()));
            }
            outbox
        });
        let transport = TransportHandle::local();
        let channel = transport.fresh_channel(targets);
        let (parts, _) = ship(outboxes, targets, &*channel, &transport.cluster(), 0).unwrap();
        parts
            .iter()
            .map(|part| {
                let mut pages = part.pages().to_vec();
                for run in part.runs() {
                    pages.extend(run.read_pages().unwrap());
                }
                let views = pages.iter().flat_map(|page| page.reader());
                views.map(|view| view.materialize()).collect()
            })
            .collect()
    })
}

#[test]
fn spilled_batch_supersteps_hand_candidates_over_in_delivery_order_on_both_paths() {
    // Every group whose candidates sit partly in memory (sent by the
    // partition itself) and partly in spilled runs (sent by its peer) is a
    // tie across the two: the page-native merge must break it in delivery
    // order — the in-memory candidates first, then the runs in order.  In
    // memory, and at budget 0 where every shipped candidate spills, that is
    // the reference evaluator's own order (a partition's own candidates,
    // then its peers' by partition).  Under 64 KiB and two credits the tail
    // of a peer's candidates stays in memory and goes first: there the
    // evaluator is handed the order the budgeted exchange delivers in.
    // Either way the fingerprints must match it.
    let (iteration, step, solution, workset) = order_recording_ring(512, 16, None);
    let mut unbounded = ExecConfig::new();
    unbounded.channel_credits = None;
    let in_memory = WorksetConfig::new(2).with_exec(unbounded);
    let zero = WorksetConfig::new(2)
        .with_exec(ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0)));
    let credits = WorksetConfig::new(2).with_exec(
        ExecConfig::new()
            .with_memory_budget(MemoryBudget::bytes(64 * 1024))
            .with_channel_credits(2),
    );
    // (label, configuration, candidates spill, part of a peer's candidates
    // stays in memory)
    for (label, config, spills, partial) in [
        ("in memory", in_memory, false, false),
        ("budget 0", zero, true, false),
        ("64 KiB, 2 credits", credits, true, true),
    ] {
        let run = || {
            iteration
                .run(solution.clone(), workset.clone(), &config)
                .unwrap()
        };
        let (paged, again) = (run(), run());
        assert_eq!(paged.solution, again.solution, "{label}: rerun");
        // The superstep exchange splits its budget over p × p writers.
        let delivery = match partial {
            true => budgeted_delivery(config.exec.clone(), 4),
            false => Arc::new(source_major),
        };
        let evaluate = |delivery: &Deliver| {
            let (solution, workset) = (solution.clone(), workset.clone());
            batch_fixpoint_with(&step, 2, solution, workset, usize::MAX, delivery)
        };
        let reference = evaluate(&*delivery);
        assert!(paged.converged && reference.converged, "{label}");
        let spilled = paged.stats.total_spilled_runs() > 0;
        assert_eq!(spilled, spills, "{label}: spilled runs");
        assert!(
            paged.solution.iter().all(|r| r.long(1) == 0),
            "{label}: not the fixpoint"
        );
        // The solution set's emission order is its index's; the rerun above
        // pins it.
        let mut ours = paged.solution.clone();
        ours.sort();
        assert_eq!(ours, reference.solution, "{label}");
        if partial {
            let in_memory_order = evaluate(&source_major).solution;
            let label = format!("{label}: the budget kept no candidates in memory");
            assert_ne!(ours, in_memory_order, "{label}");
        }
        assert_eq!(paged.supersteps, reference.supersteps.len(), "{label}");
        for (a, b) in paged.stats.per_iteration.iter().zip(&reference.supersteps) {
            assert_eq!(
                (
                    a.workset_size,
                    a.elements_inspected,
                    a.elements_changed,
                    a.messages_sent
                ),
                (b.workset_size, b.inspected, b.changed, b.messages),
                "{label}: superstep {}",
                a.iteration
            );
        }
    }
}

#[test]
fn folded_candidates_reach_the_update_in_the_reference_order() {
    // The ring's candidates fold on their label, a tie keeping the held
    // candidate — so which sender survives a fold, and the order the
    // survivors reach the update in, both show in the recorded
    // fingerprints.  The exchange folds per (source, target) in emission
    // order and drains in first-seen key order; the reference folds the
    // same way, so the fingerprints must match it exactly.
    let lower_label = CombineClosure(
        |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
            if candidate[1].as_long() < held.long(1) {
                out.emit(candidate);
            }
        },
    );
    let (iteration, step, solution, workset) =
        order_recording_ring(512, 16, Some(Arc::new(lower_label)));
    let (plain, ..) = order_recording_ring(512, 16, None);
    let mut unbounded = ExecConfig::new();
    unbounded.channel_credits = None;
    for parallelism in [2, 3] {
        let label = format!("p{parallelism}");
        let config = WorksetConfig::new(parallelism).with_exec(unbounded.clone());
        let folded = iteration
            .run(solution.clone(), workset.clone(), &config)
            .unwrap();
        let (s0, w0) = (solution.clone(), workset.clone());
        let reference = batch_fixpoint_with(&step, parallelism, s0, w0, usize::MAX, &source_major);
        let mut ours = folded.solution.clone();
        ours.sort();
        assert_eq!(ours, reference.solution, "{label}");
        let rows = folded.stats.per_iteration.iter();
        let rows: Vec<_> = rows
            .map(|s| (s.messages_sent, s.messages_shipped, s.messages_delivered))
            .collect();
        let expected: Vec<_> = reference
            .supersteps
            .iter()
            .map(|s| (s.messages, s.shipped, s.delivered))
            .collect();
        assert_eq!(rows, expected, "{label}");
        // Folding changed which candidates the update saw.
        let unfolded = plain
            .run(solution.clone(), workset.clone(), &config)
            .unwrap();
        assert_ne!(folded.solution, unfolded.solution, "{label}");
    }
}

#[test]
fn spilled_executor_groupings_hand_records_over_in_delivery_order_on_both_paths() {
    // The executor's Reduce and its sort-merge join, hash-shipped,
    // spilling: the page-native kernel must
    // hand every group over in the reference interpreter's order (each
    // input stably sorted on the key, ties in delivery order).  At budget 0
    // every shipped record spills, so that is the interpreter's own
    // delivery; at 64 KiB the tail of a source's records stays in memory
    // and goes first, and the interpreter is handed the order the budgeted
    // exchange delivers in.  The executor has no credit knob; its budget
    // alone makes it spill.
    let keyed = |n: i64, salt: i64| -> Vec<Record> {
        (0..n)
            .map(|i| Record::pair((i * 7_919 + salt) % 97 - 48, i))
            .collect()
    };
    let mut reduce = Plan::new();
    let src = reduce.source("src", keyed(6_000, 0));
    let grouped = reduce.reduce(
        "order",
        src,
        vec![0],
        Arc::new(ReduceClosure(
            |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                out.emit(
                    Record::new(vec![
                        key[0].clone(),
                        Value::Long(group.len() as i64),
                        Value::Long(order_fingerprint(group.iter().map(|r| r.long(1)))),
                    ])
                    .fields(),
                )
            },
        )),
    );
    reduce.sink("out", grouped);
    let mut join = Plan::new();
    let left = join.source("left", keyed(6_000, 0));
    let right = join.source("right", keyed(600, 13));
    let joined = join.match_join(
        "join",
        left,
        right,
        vec![0],
        vec![0],
        Arc::new(MatchClosure(
            |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                let (l, r) = (l.materialize(), r.materialize());
                out.emit(&[l.field(0).clone(), l.field(1).clone(), r.field(1).clone()])
            },
        )),
    );
    join.sink("out", joined);
    let cases = [
        (&reduce, grouped, LocalStrategy::HashGroup),
        (&join, joined, LocalStrategy::SortMergeJoin),
    ];
    for (budget, partial) in [
        (MemoryBudget::bytes(0), false),
        (MemoryBudget::bytes(64 * 1024), true),
    ] {
        let ship = ShipStrategy::PartitionHash(vec![0]);
        for (plan, op, local) in &cases {
            let label = format!("budget {:?}, {ship:?}, {local:?}", budget.limit());
            let mut phys = default_physical_plan(plan, 2).unwrap();
            let choice = phys.choices.get_mut(op).unwrap();
            choice.input_ships.fill(ship.clone());
            choice.local = *local;
            let config = ExecConfig::new().with_memory_budget(budget);
            let paged = Executor::with_config(config.clone())
                .execute(&phys)
                .unwrap();
            // An exchange splits its budget over producer × target
            // writers.
            let mut interpreter = match partial {
                true => Interpreter::with_delivery(budgeted_delivery(config, 4)),
                false => Interpreter::new(),
            };
            let reference = interpreter.evaluate(&phys);
            assert!(paged.stats.spilled_runs > 0, "{label}: no spill");
            let out = paged.sink_partitions("out").unwrap();
            assert!(out.iter().any(|part| !part.is_empty()), "{label}");
            assert_eq!(&out, reference.sink_partitions("out"), "{label}");
            if partial {
                let in_memory_order = Interpreter::new().evaluate(&phys);
                let unspilled = in_memory_order.sink_partitions("out");
                assert_ne!(
                    &out, unspilled,
                    "{label}: the budget kept no tail in memory"
                );
            }
        }
    }
}
