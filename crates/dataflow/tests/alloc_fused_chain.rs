//! Peak-memory bound on operator fusion: a source -> 16x expand -> filter ->
//! sink chain run fused hands each expanded record straight to the filter,
//! so the 16x intermediate never exists as a whole; the materializing
//! executor (`ExecConfig::with_force_materialized`) buffers it, as compact
//! pages, on every forward edge.  The peak of live bytes is what fusion
//! removes, and unlike a timing it repeats exactly from run to run.
//!
//! The run is at parallelism 1, which executes on the calling thread, so the
//! peak is exact.  This file holds exactly one `#[test]` so no sibling test
//! can run concurrently inside the process and pollute the counters.

use dataflow::prelude::{
    default_physical_plan, Collector, ExecConfig, Executor, MapClosure, PhysicalPlan, Plan, Record,
    RecordView, Value,
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

/// Source -> 16x expand -> keep 1 in 16 -> sink, at parallelism 1.
fn pipeline() -> PhysicalPlan {
    let mut plan = Plan::new();
    let events: Vec<Record> = (0..SOURCE_RECORDS)
        .map(|i| Record::pair(i, i % 97))
        .collect();
    let source = plan.source("events", events);
    let expand = plan.map(
        "expand",
        source,
        Arc::new(MapClosure(|r: RecordView<'_>, out: &mut Collector| {
            for copy in 0..EXPANSION {
                out.emit(&[
                    Value::Long(r.long(0) * EXPANSION + copy),
                    Value::Long(r.long(1)),
                ]);
            }
        })),
    );
    let filter = plan.map(
        "filter",
        expand,
        Arc::new(MapClosure(|r: RecordView<'_>, out: &mut Collector| {
            if r.long(0) % EXPANSION == 0 {
                out.collect(r);
            }
        })),
    );
    plan.sink("out", filter);
    default_physical_plan(&plan, 1).expect("pipeline plan")
}

/// Runs the pipeline and returns the peak live bytes above the live bytes
/// at the start of the run, the sink's records and the chained-operator
/// count.
fn run(force_materialized: bool) -> (usize, Vec<Record>, usize) {
    let physical = pipeline();
    let executor =
        Executor::with_config(ExecConfig::new().with_force_materialized(force_materialized));
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let result = executor.execute(&physical).expect("pipeline runs");
    let chained = result.stats.chained_operators;
    let records = result.into_sink("out").expect("sink records");
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    (peak, records, chained)
}

#[test]
fn fused_chain_peaks_under_a_quarter_of_the_materialized_run() {
    let (fused_peak, fused, chained) = run(false);
    let (materialized_peak, materialized, _) = run(true);
    assert!(
        fused_peak * 4 <= materialized_peak,
        "fused peak {fused_peak} B is over a quarter of the materialized peak \
         {materialized_peak} B ({chained} chained operators) — the chain \
         buffers its 16x intermediate"
    );
    assert_eq!(fused.len(), SOURCE_RECORDS as usize);
    assert_eq!(fused, materialized);
}
