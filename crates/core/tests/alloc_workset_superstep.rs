//! Counting-allocator bound on the workset superstep: past the first
//! superstep (which warms the per-partition buffers), a dense
//! min-propagation run allocates fewer times than it changes records — not
//! once per candidate, and not once per delta either: candidates are born on
//! pages, the update and expand functions read page bytes in place, a delta
//! is serialized straight into the solution set, and consumed page buffers
//! come back as the next superstep's outbox pages.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::prelude::{Key, Record, RecordSink, RecordView, Value};
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

/// Runs the job bounded at `max_supersteps` and returns its result with the
/// allocations the run performed (inputs are built outside the count).
fn counted_run(max_supersteps: usize) -> (WorksetResult, usize) {
    let (iteration, solution, workset) = dense_ring();
    let config = WorksetConfig::new(2).with_max_supersteps(max_supersteps);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = iteration.run(solution, workset, &config).expect("run");
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn supersteps_after_the_first_allocate_per_page_and_delta_not_per_candidate() {
    // A run truncated after superstep 1 pays the set-up (router, solution
    // set, constant index), the first superstep and the result read-out; the
    // full run pays the same plus supersteps 2.. — the difference is theirs.
    let (head, head_allocations) = counted_run(1);
    let (full, full_allocations) = counted_run(usize::MAX);
    assert!(full.converged && !head.converged);
    assert!(full.supersteps > 8, "ran {} supersteps", full.supersteps);
    let later = &full.stats.per_iteration[1..];
    let messages: usize = later.iter().map(|s| s.messages_sent).sum();
    let changed: usize = later.iter().map(|s| s.elements_changed).sum();
    assert!(
        messages >= 32 * changed && changed > VERTICES as usize,
        "the workload must be candidate-dominated: {messages} candidates, {changed} deltas"
    );
    let allocations = full_allocations - head_allocations;
    assert!(
        allocations < changed,
        "supersteps 2.. allocated {allocations} times for {changed} deltas \
         ({messages} candidates) — a per-delta allocation crept in"
    );
}
