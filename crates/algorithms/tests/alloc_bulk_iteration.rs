//! Counting-allocator bound on a steady bulk iteration: PageRank on an R-MAT
//! web graph at parallelism 2.  Past the first iteration the matrix edge is
//! served from the loop-invariant cache as the pages it arrived on, the rank
//! vector's pages are copied as bytes into the source split, the join reads
//! both sides in place and emits its outputs as fields straight into the
//! fused Reduce, whose declared combine folds each into its vertex's held
//! sum in place, and the Reduce emits the next ranks onto the sink's
//! pages, which the driver feeds back as they are — no heap record per join
//! output, per source record, per Reduce group or per vertex.  What is left
//! is pages, the fold tables and per-execution bookkeeping: 349 allocations
//! for 4 096 vertices, under `vertices / 8`.  Paging every join output for
//! the Reduce to sort-group made 398; reading the next rank vector out of
//! the sink as one heap record per vertex made 4 491; a heap record per
//! vertex in the source split and in the Reduce's output too made 10 680;
//! one per join output made 120 440.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use algorithms::{pagerank, PageRankConfig, PageRankResult};
use graphdata::{rmat, Graph, RmatParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Runs `iterations` PageRank iterations and returns the result with the
/// allocations the run performed (the graph is built outside the count).
fn counted_run(graph: &Graph, iterations: usize) -> (PageRankResult, usize) {
    let config = PageRankConfig::new(2).with_iterations(iterations);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = pagerank(graph, &config).expect("run");
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn steady_bulk_iterations_allocate_per_vertex_and_page_not_per_edge() {
    let graph = rmat(4096, 65_536, RmatParams::default(), 7).symmetrize();
    // One matrix record per edge, plus one per vertex.
    let (vertices, edges) = (graph.num_vertices(), graph.num_edges());
    assert!(edges > 90_000, "{edges} edges");
    // A run of 2 iterations pays the set-up, the first iteration (which
    // fills the cache) and one steady iteration; the 10-iteration run pays
    // the same plus 8 more steady iterations — the difference is theirs.
    let (short, short_allocations) = counted_run(&graph, 2);
    let (long, long_allocations) = counted_run(&graph, 10);
    assert_eq!(short.stats.iterations(), 2);
    assert_eq!(long.stats.iterations(), 10);
    let per_iteration = long_allocations.saturating_sub(short_allocations) / 8;
    assert!(
        per_iteration < vertices / 8,
        "a steady bulk iteration allocated {per_iteration} times for {vertices} vertices \
         and {edges} edges — a heap record per edge or per vertex crept in"
    );
}
