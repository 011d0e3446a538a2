//! Peak-memory bound on operator fusion: a source -> 16x expand -> filter ->
//! sink chain run fused hands each expanded record straight to the filter,
//! so the 16x intermediate never exists as a whole.  An executor that
//! materialized the forward edge would buffer it as compact pages: the
//! serialized page bytes of the expanded records, which the test computes
//! from the chain's own data.  The fused peak must stay under a quarter of
//! them.  The peak of live bytes is what fusion removes, and unlike a
//! timing it repeats exactly from run to run.
//!
//! The run is at parallelism 1, which executes on the calling thread, so the
//! peak is exact.  This file holds exactly one `#[test]` so no sibling test
//! can run concurrently inside the process and pollute the counters.

use dataflow::prelude::{
    default_physical_plan, Executor, MapClosure, PageWriter, PhysicalPlan, Plan, Record,
    RecordSink, RecordView, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps the system allocator and tracks live and peak bytes.
struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

const SOURCE_RECORDS: i64 = 4_000;
const EXPANSION: i64 = 16;

/// The source's records.
fn events() -> Vec<Record> {
    (0..SOURCE_RECORDS)
        .map(|i| Record::pair(i, i % 97))
        .collect()
}

/// The expansion: 16 copies of every record.
fn expand(r: RecordView<'_>, out: &mut dyn RecordSink) {
    for copy in 0..EXPANSION {
        out.emit(&[
            Value::Long(r.long(0) * EXPANSION + copy),
            Value::Long(r.long(1)),
        ]);
    }
}

/// Source -> 16x expand -> keep 1 in 16 -> sink, at parallelism 1.
fn pipeline() -> PhysicalPlan {
    let mut plan = Plan::new();
    let source = plan.source("events", events());
    let expand = plan.map("expand", source, Arc::new(MapClosure(expand)));
    let filter = plan.map(
        "filter",
        expand,
        Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
            if r.long(0) % EXPANSION == 0 {
                out.forward(r);
            }
        })),
    );
    plan.sink("out", filter);
    default_physical_plan(&plan, 1).expect("pipeline plan")
}

/// The serialized page bytes of the expanded edge: every expanded record on
/// the pages of one page writer, as a materialized forward edge holds them.
fn expanded_edge_bytes() -> usize {
    let mut source = PageWriter::new();
    for record in &events() {
        source.push(record);
    }
    let mut edge = PageWriter::new();
    for page in source.finish() {
        page.reader().for_each(|r| expand(r, &mut edge));
    }
    edge.finish().iter().map(|page| page.byte_len()).sum()
}

#[test]
fn fused_chain_peaks_under_a_quarter_of_the_materialized_run() {
    let physical = pipeline();
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let result = Executor::new().execute(&physical).expect("pipeline runs");
    let chained = result.stats.chained_operators;
    let fused = result.into_sink("out").expect("sink records");
    let fused_peak = PEAK.load(Ordering::Relaxed) - baseline;

    let edge_bytes = expanded_edge_bytes();
    assert!(
        fused_peak * 4 <= edge_bytes,
        "fused peak {fused_peak} B is over a quarter of the {edge_bytes} B the materialized \
         expanded edge holds ({chained} chained operators) — the chain buffers its 16x \
         intermediate"
    );
    assert_eq!(fused.len(), SOURCE_RECORDS as usize);
    let kept: Vec<Record> = events()
        .iter()
        .map(|r| Record::pair(r.long(0) * EXPANSION, r.long(1)))
        .collect();
    assert_eq!(fused, kept);
}
