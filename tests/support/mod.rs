//! What the workset equivalence suites share: Connected Components and SSSP
//! restated as min propagation over heap records, for the engine without a
//! combine and for the reference fixpoint evaluator, and the check that
//! holds a folding run to both.

use algorithms::common::{edge_records, initial_component_candidates, initial_components};
use algorithms::{cc_workset_records, sssp_records, UNREACHABLE};
use dataflow::prelude::{ExecConfig, Key, Record, RecordSink, RecordView, Value};
use graphdata::Graph;
use reference::fixpoint::{batch_fixpoint, Fixpoint, WorksetStep};
use spinning_core::prelude::{
    ExecutionMode, ExpandClosure, RecordComparator, RunConfig, UpdateClosure, WorksetIteration,
    WorksetResult,
};
use std::sync::Arc;

/// The grouped min update of CC and SSSP.
fn adopt_min(
    key: &Key,
    current: Option<RecordView<'_>>,
    candidates: &[RecordView<'_>],
    delta: &mut dyn RecordSink,
) {
    let best = candidates.iter().map(|r| r.long(1)).min().expect("group");
    if current.is_none_or(|c| c.long(1) > best) {
        delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
    }
}

/// The expansion of min propagation: every neighbour gets the delta's
/// value plus `hop_cost`.
fn propagate(
    hop_cost: i64,
) -> impl Fn(RecordView<'_>, &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync {
    move |delta, edges, out| {
        for e in edges {
            out.emit(&[
                Value::Long(e.long(1)),
                Value::Long(delta.long(1) + hop_cost),
            ]);
        }
    }
}

fn by_smaller_value() -> RecordComparator {
    Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1)))
}

/// Min propagation over `(vid, neighbour)` edge records, every hop adding
/// `hop_cost` to the propagated value — Connected Components at 0,
/// unit-weight SSSP at 1 — as a workset iteration that declares no combine.
fn unfolded_min_propagation(edges: Arc<Vec<Record>>, hop_cost: i64) -> WorksetIteration<'static> {
    WorksetIteration::builder(
        vec![0],
        vec![0],
        Arc::new(UpdateClosure(adopt_min)),
        Arc::new(ExpandClosure(propagate(hop_cost))),
    )
    .constant_input(edges, vec![0], vec![0])
    .comparator(by_smaller_value())
    .build()
}

/// Whether the engine's superstep exchange folds under `exec`: when it can
/// never spill.
fn exchange_folds(exec: &ExecConfig) -> bool {
    exec.memory_budget.is_unlimited() && exec.channel_credits.is_none()
}

/// The same step for the reference evaluator, folding with the algorithms'
/// combine where the engine's superstep exchange folds.
fn reference_step(edges: &[Record], hop_cost: i64, exec: &ExecConfig) -> WorksetStep {
    WorksetStep {
        solution_key: vec![0],
        workset_key: vec![0],
        constant: edges.to_vec(),
        constant_key: vec![0],
        delta_key: vec![0],
        update: Arc::new(adopt_min),
        expand: Arc::new(propagate(hop_cost)),
        comparator: Some(by_smaller_value()),
        combine: exchange_folds(exec).then(algorithms::common::min_combine),
    }
}

/// A run's per-superstep `(workset, inspected, changed, sent)`: the
/// counters that count candidates before any fold.
fn unfolded_rows(run: &WorksetResult) -> Vec<[usize; 4]> {
    let rows = run.stats.per_iteration.iter();
    rows.map(|s| {
        [
            s.workset_size,
            s.elements_inspected,
            s.elements_changed,
            s.messages_sent,
        ]
    })
    .collect()
}

/// Batch-incremental CC and SSSP (from `source`) on `graph` under `config`
/// (its mode is replaced by the batch one) must equal the reference
/// fixpoint — solution, every counter before the fold, and `shipped` and
/// `delivered` after it — and the same step run without a combine, whose
/// counters before the fold they must repeat.  Where the exchange folds,
/// every superstep delivers at most one candidate per key and source
/// partition.
pub fn assert_folded_runs_match_the_reference(
    graph: &Graph,
    source: u32,
    config: &RunConfig,
    label: &str,
) {
    let config = config.clone().with_mode(ExecutionMode::BatchIncremental);
    let edges = edge_records(graph);
    for (algo, folded, hop_cost, solution, workset) in algorithm_runs(graph, source, &config) {
        let label = format!("{algo} {label}");
        let reference = reference_fixpoint(&edges, hop_cost, &config, &solution, &workset);
        assert_matches(&folded, &reference, &label);

        let plain = unfolded_min_propagation(Arc::clone(&edges), hop_cost)
            .run(solution, workset, &config)
            .unwrap();
        assert_eq!(folded.solution, plain.solution, "{label}: unfolded run");
        assert_eq!(unfolded_rows(&folded), unfolded_rows(&plain), "{label}");

        let rows = &folded.stats.per_iteration;
        let pairs = rows.iter().zip(rows.iter().skip(1));
        for (now, next) in pairs.filter(|_| exchange_folds(&config.exec)) {
            assert!(
                now.messages_delivered <= config.parallelism * next.elements_inspected,
                "{label}: superstep {} delivered {} candidates for {} keys",
                now.iteration,
                now.messages_delivered,
                next.elements_inspected
            );
        }
    }
}

/// Microstep CC and SSSP (from `source`) on `graph` under `config` (its
/// mode replaced by the microstep one) must reach the reference fixpoint:
/// the same solution records, sorted, byte for byte.  A microstep run takes
/// other supersteps than the batch reference, so only the solutions
/// compare.
pub fn assert_microstep_runs_reach_the_reference(
    graph: &Graph,
    source: u32,
    config: &RunConfig,
    label: &str,
) {
    let config = config.clone().with_mode(ExecutionMode::Microstep);
    let edges = edge_records(graph);
    for (algo, run, hop_cost, solution, workset) in algorithm_runs(graph, source, &config) {
        let label = format!("microstep {algo} {label}");
        let reference = reference_fixpoint(&edges, hop_cost, &config, &solution, &workset);
        let mut reached = run.solution;
        reached.sort();
        assert_eq!(reached, reference.solution, "{label}");
        assert!(run.converged && reference.converged, "{label}");
    }
}

/// One algorithm's run: its name, its result, its hop cost, and the initial
/// solution and working set the reference evaluates it from.
type AlgorithmRun = (&'static str, WorksetResult, i64, Vec<Record>, Vec<Record>);

/// CC and SSSP (from `source`) on `graph`, run by the algorithms under
/// `config`.
fn algorithm_runs(graph: &Graph, source: u32, config: &RunConfig) -> [AlgorithmRun; 2] {
    let sssp_solution: Vec<Record> = graph
        .vertices()
        .map(|v| Record::pair(i64::from(v), if v == source { 0 } else { UNREACHABLE }))
        .collect();
    let sssp_workset: Vec<Record> = graph
        .neighbors(source)
        .iter()
        .map(|&t| Record::pair(i64::from(t), 1))
        .collect();
    [
        (
            "cc",
            cc_workset_records(graph, config, config.mode).unwrap(),
            0,
            initial_components(graph),
            initial_component_candidates(graph),
        ),
        (
            "sssp",
            sssp_records(graph, source, config).unwrap(),
            1,
            sssp_solution,
            sssp_workset,
        ),
    ]
}

/// The reference evaluator's fixpoint of min propagation over `edges` from
/// `solution` and `workset`, partitioned as `config` partitions.
fn reference_fixpoint(
    edges: &[Record],
    hop_cost: i64,
    config: &RunConfig,
    solution: &[Record],
    workset: &[Record],
) -> Fixpoint {
    let step = reference_step(edges, hop_cost, &config.exec);
    let (s0, w0) = (solution.to_vec(), workset.to_vec());
    batch_fixpoint(&step, config.parallelism, s0, w0, usize::MAX)
}

/// `run` took `reference`'s supersteps and reached its solution.
fn assert_matches(run: &WorksetResult, reference: &Fixpoint, label: &str) {
    let mut solution = run.solution.clone();
    solution.sort();
    assert_eq!(solution, reference.solution, "{label}");
    assert!(run.converged && reference.converged, "{label}");
    let rows: Vec<[usize; 6]> = run
        .stats
        .per_iteration
        .iter()
        .map(|s| {
            [
                s.workset_size,
                s.elements_inspected,
                s.elements_changed,
                s.messages_sent,
                s.messages_shipped,
                s.messages_delivered,
            ]
        })
        .collect();
    let expected: Vec<[usize; 6]> = reference
        .supersteps
        .iter()
        .map(|s| {
            [
                s.workset_size,
                s.inspected,
                s.changed,
                s.messages,
                s.shipped,
                s.delivered,
            ]
        })
        .collect();
    assert_eq!(rows, expected, "{label}");
}
