//! Counting-allocator bound on the spilled workset superstep: the dense
//! min-propagation ring of `alloc_workset_superstep.rs`, run at parallelism 2
//! under a 64 KiB budget and two page credits, so every superstep flushes
//! candidate pages to disk as sorted runs.  Past the first superstep the
//! batch join merges those runs in off disk one frame at a time and builds a
//! heap record only for the key group it hands to `update` — it allocates
//! O(pages + runs + changed), not O(candidates).
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::prelude::{ExecConfig, Key, MemoryBudget, Record, RecordSink, Value};
use spinning_core::prelude::{
    ExpandClosure, UpdateClosure, WorksetConfig, WorksetIteration, WorksetResult,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps the system allocator and counts every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const VERTICES: i64 = 4_096;
/// Every vertex neighbours the `REACH` vertices on either side of it on the
/// ring, so a delta emits `2 * REACH` candidates and the minimum label needs
/// `VERTICES / 2 / REACH` supersteps to cross the graph.
const REACH: i64 = 32;

fn dense_ring() -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
    let update = Arc::new(UpdateClosure(
        |key: &Key, current: Option<&Record>, candidates: &[Record]| {
            let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
            match current {
                Some(c) if c.long(1) <= best => None,
                _ => Some(Record::pair(key.values()[0].as_long(), best)),
            }
        },
    ));
    let expand = Arc::new(ExpandClosure(
        |delta: &Record, edges: &[Record], out: &mut dyn RecordSink| {
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

/// Runs the job bounded at `max_supersteps` and returns its result with the
/// allocations the run performed (inputs are built outside the count).
fn counted_run(max_supersteps: usize) -> (WorksetResult, usize) {
    let (iteration, solution, workset) = dense_ring();
    let exec = ExecConfig::new()
        .with_memory_budget(MemoryBudget::bytes(64 * 1024))
        .with_channel_credits(2);
    let config = WorksetConfig::new(2)
        .with_exec(exec)
        .with_max_supersteps(max_supersteps);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = iteration.run(solution, workset, &config).expect("run");
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn spilled_supersteps_after_the_first_allocate_per_run_and_delta_not_per_candidate() {
    // A run truncated after superstep 1 pays the set-up, the first superstep
    // and the result read-out; the full run pays the same plus supersteps
    // 2.. — the difference is theirs.
    let (head, head_allocations) = counted_run(1);
    let (full, full_allocations) = counted_run(usize::MAX);
    assert!(full.converged && !head.converged);
    assert!(full.supersteps > 8, "ran {} supersteps", full.supersteps);
    let later = &full.stats.per_iteration[1..];
    let messages: usize = later.iter().map(|s| s.messages_sent).sum();
    let changed: usize = later.iter().map(|s| s.elements_changed).sum();
    let runs: usize = later.iter().map(|s| s.spilled_runs).sum();
    assert!(
        messages >= 32 * changed && changed > VERTICES as usize,
        "the workload must be candidate-dominated: {messages} candidates, {changed} deltas"
    );
    assert!(
        later
            .iter()
            .all(|s| s.spilled_runs > 0 || s.messages_sent == 0),
        "every superstep that sends candidates must spill runs"
    );
    let allocations = full_allocations - head_allocations;
    assert!(
        allocations < messages / 16,
        "spilled supersteps 2.. allocated {allocations} times for {messages} candidates \
         ({changed} deltas, {runs} runs) — a per-candidate allocation crept in"
    );
}
