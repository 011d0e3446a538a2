//! Peak-memory bound on PageRank's fused Reduce: in the broadcast plan the
//! join's outputs go straight into the Reduce fused behind it, and the
//! Reduce's declared combine folds each of them into its vertex's held
//! partial sum, in place.  What a steady iteration holds at its peak is then
//! proportional to the vertices — the broadcast rank vector, its join
//! index, one held sum per vertex and the next rank vector — and not to the
//! edges.  On PageRank over `rmat(4096, 65536, default, 7).symmetrize()` at
//! parallelism 2 a steady iteration peaks 816 128–850 944 bytes above its
//! start, about 208 per vertex, under the bound of 384.  A Reduce that
//! pages every join output and sort-groups the pages at end of stream —
//! 22 bytes of page and a 16-byte sort pair per edge on top — peaked at
//! 5 100 756 bytes, 1 245 per vertex.
//!
//! The test drives the bulk feedback loop by hand (the executor, one
//! loop-invariant cache, the sink's pages fed back as the next source) so
//! it can read the peak of each steady iteration apart: the live bytes when
//! the iteration starts are its baseline, and the cached matrix, which is
//! live throughout, is not counted.  The peak of live bytes repeats from run
//! to run, unlike a timing.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the counters.

use algorithms::common::initial_ranks;
use algorithms::pagerank::{build_step_plan, forced_physical_plan, PageRankPlan, DAMPING};
use dataflow::prelude::{Executor, IntermediateCache, RecordSource};
use graphdata::{rmat, RmatParams};
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

/// Peak live bytes a steady iteration may add, per vertex.
const BYTES_PER_VERTEX: usize = 384;

#[test]
fn a_steady_iteration_peaks_per_vertex_not_per_edge() {
    let graph = rmat(4096, 65_536, RmatParams::default(), 7).symmetrize();
    let (vertices, edges) = (graph.num_vertices(), graph.num_edges());
    assert!(edges > 90_000, "{edges} edges");
    let (plan, vector, join, reduce, _) = build_step_plan(&graph, DAMPING);
    let mut physical =
        forced_physical_plan(&plan, join, reduce, 2, PageRankPlan::ForceBroadcast).expect("plan");
    let executor = Executor::new();
    let mut cache = IntermediateCache::new();
    let mut ranks: Arc<dyn RecordSource> = Arc::new(initial_ranks(&graph));
    let mut steady_peaks = Vec::new();
    for iteration in 1..=4 {
        physical
            .plan
            .replace_source_data(vector, Arc::new(Arc::clone(&ranks)))
            .expect("the rank vector is a source");
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        let result = executor
            .execute_with_cache(&physical, &mut cache)
            .expect("iteration");
        ranks = Arc::new(result.into_sink_pages("next-ranks").expect("sink"));
        let peak = PEAK.load(Ordering::Relaxed) - baseline;
        // The first iteration ships and caches the matrix.
        if iteration > 1 {
            steady_peaks.push(peak);
        }
    }
    assert_eq!(ranks.len(), vertices);
    let bound = vertices * BYTES_PER_VERTEX;
    let peak = steady_peaks
        .iter()
        .copied()
        .max()
        .expect("steady iterations");
    assert!(
        peak <= bound,
        "a steady iteration's live bytes peaked {peak} B above its start (per steady \
         iteration: {steady_peaks:?}) for {vertices} vertices and {edges} edges; the bound \
         is {bound} B, {BYTES_PER_VERTEX} B per vertex — the Reduce holds join outputs"
    );
}
