//! Counting-allocator bound on the spilled workset superstep: the dense
//! min-propagation ring of `alloc_workset_superstep.rs`, run at parallelism 2
//! under a 64 KiB budget and two page credits, so every superstep flushes
//! candidate pages to disk as sorted runs.  Past the first superstep the
//! batch join merges those runs in off disk one frame at a time, copies the
//! key group it hands to `update` as payload bytes, and serializes each delta
//! straight into the solution set — it allocates fewer times than it changes
//! records.  The ring runs twice: keyed by one `Long`, and keyed by the
//! composite `[Long, Long]`, which sorts, merges and groups on the same
//! page-native kernel and refills one reused key per group and per delta.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::prelude::{ExecConfig, Key, MemoryBudget, Record, RecordSink, RecordView, Value};
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

/// A vertex id as its key fields: one `Long`, or the `[Long, Long]`
/// `(v / 64, v % 64)` — the same ring under a composite key.
fn id(v: i64, width: usize) -> Vec<Value> {
    match width {
        1 => vec![Value::Long(v)],
        _ => vec![Value::Long(v / 64), Value::Long(v % 64)],
    }
}

/// A record of `width` key fields followed by `tail`.
fn keyed(key: Vec<Value>, tail: impl IntoIterator<Item = Value>) -> Record {
    let mut fields = key;
    fields.extend(tail);
    Record::new(fields)
}

fn dense_ring(width: usize) -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
    let update = Arc::new(UpdateClosure(
        move |key: &Key,
              current: Option<RecordView<'_>>,
              candidates: &[RecordView<'_>],
              delta: &mut dyn RecordSink| {
            let best = candidates.iter().map(|r| r.long(width)).min().unwrap();
            if current.is_none_or(|c| c.long(width) > best) {
                let mut fields = [Value::Null, Value::Null, Value::Null];
                fields[..width].clone_from_slice(&key.values());
                fields[width] = Value::Long(best);
                delta.emit(&fields[..=width]);
            }
        },
    ));
    let expand = Arc::new(ExpandClosure(
        move |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            let mut candidate = [Value::Null, Value::Null, Value::Null];
            candidate[width] = Value::Long(delta.long(width));
            for e in edges {
                for (i, field) in candidate[..width].iter_mut().enumerate() {
                    *field = Value::Long(e.long(width + i));
                }
                out.emit(&candidate[..=width]);
            }
        },
    ));
    let mut edges = Vec::new();
    for v in 0..VERTICES {
        for hop in 1..=REACH {
            for u in [(v + hop) % VERTICES, (v + VERTICES - hop) % VERTICES] {
                edges.push(keyed(id(v, width), id(u, width)));
            }
        }
    }
    let key: Vec<usize> = (0..width).collect();
    let iteration = WorksetIteration::builder(key.clone(), key.clone(), update, expand)
        .constant_input(Arc::new(edges), key.clone(), key)
        .comparator(Arc::new(move |a: &Record, b: &Record| {
            b.long(width).cmp(&a.long(width))
        }))
        .build();
    let solution: Vec<Record> = (0..VERTICES)
        .map(|v| keyed(id(v, width), [Value::Long(v)]))
        .collect();
    let workset: Vec<Record> = (0..VERTICES)
        .map(|v| keyed(id((v + 1) % VERTICES, width), [Value::Long(v)]))
        .collect();
    (iteration, solution, workset)
}

/// Runs the job on keys of `width` fields, bounded at `max_supersteps`, and
/// returns its result with the allocations the run performed (inputs are
/// built outside the count).
fn counted_run(width: usize, max_supersteps: usize) -> (WorksetResult, usize) {
    let (iteration, solution, workset) = dense_ring(width);
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
    for (shape, width) in [("Long", 1), ("[Long, Long]", 2)] {
        // A run truncated after superstep 1 pays the set-up, the first
        // superstep and the result read-out; the full run pays the same plus
        // supersteps 2.. — the difference is theirs.
        let (head, head_allocations) = counted_run(width, 1);
        let (full, full_allocations) = counted_run(width, usize::MAX);
        assert!(full.converged && !head.converged, "{shape}");
        assert!(
            full.supersteps > 8,
            "{shape}: ran {} supersteps",
            full.supersteps
        );
        let later = &full.stats.per_iteration[1..];
        let messages: usize = later.iter().map(|s| s.messages_sent).sum();
        let changed: usize = later.iter().map(|s| s.elements_changed).sum();
        let runs: usize = later.iter().map(|s| s.spilled_runs).sum();
        assert!(
            messages >= 32 * changed && changed > VERTICES as usize,
            "{shape}: the workload must be candidate-dominated: {messages} candidates, \
             {changed} deltas"
        );
        assert!(
            later
                .iter()
                .all(|s| s.spilled_runs > 0 || s.messages_sent == 0),
            "{shape}: every superstep that sends candidates must spill runs"
        );
        let allocations = full_allocations - head_allocations;
        println!(
            "{shape} keys: {allocations} allocations for {messages} candidates \
             ({changed} deltas, {runs} runs)"
        );
        assert!(
            allocations < changed,
            "{shape} keys: spilled supersteps 2.. allocated {allocations} times for \
             {changed} deltas ({messages} candidates, {runs} runs) — a per-delta \
             allocation crept in"
        );
    }
}
