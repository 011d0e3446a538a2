//! A run whose update function panics returns, in either mode: the panic
//! surfaces as a typed `DataflowError::WorkerPanic`, the partitions that did
//! not panic finish their superstep, and every spilled run still queued is
//! deleted.  So does a run whose initial working set panics while the load
//! step pulls it.
//!
//! This file holds exactly one `#[test]`, so the run files of this process
//! are this job's alone.

use dataflow::prelude::{
    DataflowError, ExecConfig, Key, MemoryBudget, Record, RecordSink, RecordView, SourceClosure,
    Value,
};
use dataflow::spill::{default_spill_dir, run_files_created};
use spinning_core::prelude::{
    ExecutionMode, ExpandClosure, RunConfig, UpdateClosure, UpdateFunction, WorksetIteration,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const VERTICES: i64 = 512;
/// Every vertex neighbours the `REACH` vertices on either side of it.
const REACH: i64 = 4;
/// The update call that panics: late enough that candidates have spilled.
const PANICKING_CALL: usize = 1_000;

/// Run files of this process left in the spill directory.
fn leftover_run_files() -> Vec<String> {
    let prefix = format!("run-{}-", std::process::id());
    std::fs::read_dir(default_spill_dir())
        .map(|entries| {
            entries
                .flatten()
                .map(|entry| entry.file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default()
}

/// The ring every vertex of which neighbours `REACH` vertices on either
/// side, with `update`: the iteration, its initial solution and its initial
/// working set.
fn ring(update: Arc<dyn UpdateFunction>) -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
    let expand = Arc::new(ExpandClosure(
        |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            for e in edges {
                out.emit(&[Value::Long(e.long(1)), Value::Long(delta.long(1))]);
            }
        },
    ));
    let mut edges = Vec::new();
    for v in 0..VERTICES {
        for hop in 1..=REACH {
            edges.push(Record::pair(v, (v + hop) % VERTICES));
            edges.push(Record::pair(v, (v + VERTICES - hop) % VERTICES));
        }
    }
    let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edges.clone()), vec![0], vec![0])
        .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
        .build();
    let solution: Vec<Record> = (0..VERTICES).map(|v| Record::pair(v, v + 1_000)).collect();
    let workset: Vec<Record> = edges
        .iter()
        .map(|e| Record::pair(e.long(1), e.long(0) + 1_000))
        .collect();
    (iteration, solution, workset)
}

/// Budget 0: every page a partition ships to another is a spilled run
/// until its consumer drains it in the next superstep.
fn spilling_config(mode: ExecutionMode) -> RunConfig {
    RunConfig::new(4)
        .with_mode(mode)
        .with_exec(ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0)))
}

/// Runs the ring under `mode` with an update that panics at its
/// `PANICKING_CALL`th call, and checks the typed error.
fn run_until_the_update_panics(mode: ExecutionMode) {
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let update = Arc::new(UpdateClosure(
        move |key: &Key,
              current: Option<RecordView<'_>>,
              candidates: &[RecordView<'_>],
              delta: &mut dyn RecordSink| {
            if counted.fetch_add(1, Ordering::SeqCst) == PANICKING_CALL {
                panic!("update refused key {key:?}");
            }
            let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
            if current.is_none_or(|c| c.long(1) > best) {
                delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
            }
        },
    ));
    let (iteration, solution, workset) = ring(update);
    let error = iteration
        .run(solution, workset, &spilling_config(mode))
        .unwrap_err();
    match &error {
        DataflowError::WorkerPanic { message, .. } => {
            assert!(message.contains("update refused key"), "{mode:?}: {error}")
        }
        other => panic!("{mode:?}: expected a worker panic, got {other}"),
    }
    assert!(
        calls.load(Ordering::SeqCst) > PANICKING_CALL,
        "{mode:?}: the panic fired"
    );
}

/// Runs the ring under `mode` with an initial working set whose source
/// panics half-way through, and checks the load step's typed error.
fn run_until_the_load_panics(mode: ExecutionMode) {
    let update = Arc::new(UpdateClosure(
        |_: &Key, _: Option<RecordView<'_>>, _: &[RecordView<'_>], _: &mut dyn RecordSink| {
            unreachable!("no superstep runs after a failed load")
        },
    ));
    let (iteration, solution, workset) = ring(update);
    let source = SourceClosure::new(workset.len(), move |out: &mut dyn RecordSink| {
        for record in &workset[..workset.len() / 2] {
            out.emit(record.fields());
        }
        panic!("workset source refused");
    });
    let error = iteration
        .run(solution, source, &spilling_config(mode))
        .unwrap_err();
    match &error {
        DataflowError::WorkerPanic {
            operator,
            superstep,
            message,
        } => {
            assert_eq!(operator, "workset-load", "{mode:?}: {error}");
            assert_eq!(*superstep, 0, "{mode:?}: {error}");
            assert!(
                message.contains("workset source refused"),
                "{mode:?}: {error}"
            );
        }
        other => panic!("{mode:?}: expected a worker panic, got {other}"),
    }
}

#[test]
fn a_panicking_update_or_load_returns_a_typed_error_and_leaves_no_run_files() {
    for mode in [ExecutionMode::Microstep, ExecutionMode::BatchIncremental] {
        let created = run_files_created();
        run_until_the_update_panics(mode);
        assert!(
            run_files_created() > created,
            "{mode:?}: the run spilled before it failed"
        );
        let leftover = leftover_run_files();
        assert!(
            leftover.is_empty(),
            "{mode:?}: spilled runs left behind: {leftover:?}"
        );

        run_until_the_load_panics(mode);
        let leftover = leftover_run_files();
        assert!(
            leftover.is_empty(),
            "{mode:?}: a failed load left runs behind: {leftover:?}"
        );
    }
}
