//! Counting-allocator bound on the workset load step: inputs described as
//! sources go from their description into the partitions' pages and tables
//! without a heap record per input record, so loading N records allocates
//! O(pages) — page buffers, index growth — not O(N).
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::prelude::{Key, RecordSink, RecordSource, RecordView, SourceClosure, Value};
use spinning_core::prelude::{ExpandClosure, UpdateClosure, WorksetConfig, WorksetIteration};
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

const VERTICES: i64 = 2_048;
/// Edges and initial candidates per vertex.
const DEGREE: i64 = 64;

/// `len` records `(pair(i).0, pair(i).1)`, described.
fn pairs(len: i64, pair: fn(i64) -> (i64, i64)) -> impl RecordSource {
    SourceClosure::new(len as usize, move |out: &mut dyn RecordSink| {
        for i in 0..len {
            let (a, b) = pair(i);
            out.emit(&[Value::Long(a), Value::Long(b)]);
        }
    })
}

#[test]
fn loading_described_inputs_allocates_per_page_not_per_record() {
    // The user functions never run: the run is bounded at zero supersteps,
    // so what is counted is the load step and the solution read-out.
    let update = Arc::new(UpdateClosure(
        |_: &Key, _: Option<RecordView<'_>>, _: &[RecordView<'_>], _: &mut dyn RecordSink| {},
    ));
    let expand = Arc::new(ExpandClosure(
        |_: RecordView<'_>, _: &[RecordView<'_>], _: &mut dyn RecordSink| {},
    ));
    let edges = pairs(VERTICES * DEGREE, |i| (i / DEGREE, (i * 31) % VERTICES));
    let solution = pairs(VERTICES, |v| (v, v));
    let workset = pairs(VERTICES * DEGREE, |i| ((i * 31) % VERTICES, i / DEGREE));
    let records = edges.len() + solution.len() + workset.len();
    let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edges), vec![0], vec![0])
        .build();
    let config = WorksetConfig::new(2).with_max_supersteps(0);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = iteration.run(solution, workset, &config).expect("run");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(!result.converged && result.supersteps == 0);
    assert_eq!(result.solution.len(), VERTICES as usize);
    assert!(
        allocations < records / 16,
        "loading {records} records allocated {allocations} times — \
         a per-record allocation crept into the load step"
    );
}
