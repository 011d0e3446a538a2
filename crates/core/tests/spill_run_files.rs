//! A spilling workset job creates one run file per flushing exchange writer,
//! not one per run: under a 64 KiB budget and two page credits at
//! parallelism 2 (the out-of-core benchmark deployment) every sealed
//! candidate page becomes a run, yet a superstep creates at most
//! `p × (p − 1)` files — one per producer and remote target — and every
//! further run is a segment of its writer's file.
//!
//! This file holds exactly one `#[test]`, so the process-wide count of
//! created run files is this job's alone.

use dataflow::prelude::{ExecConfig, Key, MemoryBudget, Record, RecordSink, RecordView, Value};
use dataflow::spill::run_files_created;
use spinning_core::prelude::{ExpandClosure, RunConfig, UpdateClosure, WorksetIteration};
use std::sync::Arc;

const PARALLELISM: usize = 2;
const VERTICES: i64 = 2_048;
/// Every vertex neighbours the `REACH` vertices on either side of it on the
/// ring: large candidate sets over a handful of supersteps.
const REACH: i64 = 64;

fn dense_ring() -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
    let update = Arc::new(UpdateClosure(
        |key: &Key,
         current: Option<RecordView<'_>>,
         candidates: &[RecordView<'_>],
         delta: &mut dyn RecordSink| {
            let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
            if current.is_none_or(|c| c.long(1) > best) {
                delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
            }
        },
    ));
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
        .constant_input(Arc::new(edges), vec![0], vec![0])
        .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
        .build();
    let solution: Vec<Record> = (0..VERTICES).map(|v| Record::pair(v, v)).collect();
    let workset: Vec<Record> = (0..VERTICES)
        .map(|v| Record::pair((v + 1) % VERTICES, v))
        .collect();
    (iteration, solution, workset)
}

#[test]
fn a_spilling_job_creates_one_run_file_per_writer_not_per_run() {
    let (iteration, solution, workset) = dense_ring();
    let config = RunConfig::new(PARALLELISM).with_exec(
        ExecConfig::new()
            .with_memory_budget(MemoryBudget::bytes(65_536))
            .with_channel_credits(2),
    );
    let before = run_files_created();
    let result = iteration.run(solution, workset, &config).expect("run");
    let files = (run_files_created() - before) as usize;

    assert!(result.converged);
    assert!(result.solution.iter().all(|r| r.long(1) == 0));
    let per_iteration = &result.stats.per_iteration;
    let spilling_supersteps = per_iteration.iter().filter(|s| s.spilled_runs > 0).count();
    let runs = result.stats.total_spilled_runs();
    let bound = spilling_supersteps * PARALLELISM * (PARALLELISM - 1);
    assert!(
        files <= bound,
        "{files} run files for {runs} runs over {spilling_supersteps} spilling supersteps \
         (bound {bound}: one file per producer and remote target)"
    );
    assert!(
        runs >= 4 * files && files > 0,
        "{runs} runs in {files} files: the job must flush several runs per writer"
    );
}
