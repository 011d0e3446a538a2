//! Counting-allocator bound on the combining workset superstep: the dense
//! min-propagation ring of `alloc_workset_superstep.rs` with a `min`
//! combine declared, so every superstep folds its candidates per target
//! before they are serialized.  Past the first superstep it must still
//! allocate fewer times than it changes records: the fold tables live in
//! the partitions' scratch and keep their capacity, and the combiners' page
//! buffers go back to the outbox's stock, so no superstep builds a fresh
//! table or store per target.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::prelude::{CombineClosure, Key, Record, RecordSink, RecordView, Value};
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
    let combine = Arc::new(CombineClosure(
        |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
            if candidate[1].as_long() < held.long(1) {
                out.emit(candidate);
            }
        },
    ));
    let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edges), vec![0], vec![0])
        .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
        .combine(combine)
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
fn combining_supersteps_after_the_first_allocate_less_than_per_delta() {
    // A run truncated after superstep 1 pays the set-up (router, solution
    // set, constant index), the first superstep and the result read-out; the
    // full run pays the same plus supersteps 2.. — the difference is theirs.
    let (head, head_allocations) = counted_run(1);
    let (full, full_allocations) = counted_run(usize::MAX);
    assert!(full.converged && !head.converged);
    assert!(full.supersteps > 8, "ran {} supersteps", full.supersteps);
    let later = &full.stats.per_iteration[1..];
    let messages: usize = later.iter().map(|s| s.messages_sent).sum();
    let delivered: usize = later.iter().map(|s| s.messages_delivered).sum();
    let changed: usize = later.iter().map(|s| s.elements_changed).sum();
    assert!(
        messages >= 32 * changed && changed > VERTICES as usize,
        "the workload must be candidate-dominated: {messages} candidates, {changed} deltas"
    );
    assert!(
        delivered * 8 < messages,
        "the combine must fold: {delivered} of {messages} candidates delivered"
    );
    let allocations = full_allocations - head_allocations;
    assert!(
        allocations < changed,
        "supersteps 2.. allocated {allocations} times for {changed} deltas \
         ({messages} candidates folded to {delivered}) — a per-superstep fold \
         table or store, or a per-delta allocation, crept in"
    );
    println!(
        "supersteps 2..: {allocations} allocations, {changed} deltas, \
         {messages} candidates folded to {delivered}"
    );
}
