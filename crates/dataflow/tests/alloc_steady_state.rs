//! Counting-allocator proof of the page-native steady state: once the page
//! pool is primed, one exchange→probe cycle of a `Long`-keyed join performs
//! **zero** heap allocations per record — the probe phase allocates nothing
//! at all, and the whole cycle allocates O(pages), not O(records).
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::page::{PagePool, PageWriter, PrefixTable};
use dataflow::prelude::Record;
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

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_exchange_probe_cycle_allocates_no_record_objects() {
    const BUILD_RECORDS: i64 = 100_000;
    const KEYS: i64 = 1_024;

    // The build side ships once as sealed pages (the exchange input of every
    // cycle below) and the probe side arrives the same way — records exist
    // as heap objects only here, at the edge of the pipeline.
    let mut writer = PageWriter::new();
    for i in 0..BUILD_RECORDS {
        writer.push(&Record::pair(i % KEYS, i));
    }
    let build_pages = writer.finish();
    let mut writer = PageWriter::new();
    for i in 0..KEYS * 4 {
        writer.push(&Record::pair(i % KEYS, -i));
    }
    let probe_pages = writer.finish();

    let mut pool = PagePool::with_limit(1024);
    let mut table = PrefixTable::new();
    let mut checksum = 0u64;
    let mut cycle_allocations = usize::MAX;
    let mut probe_allocations = usize::MAX;

    // Cycle 0 warms the pool and the table (their capacities are the steady
    // state); cycles 1-2 are measured.
    for cycle in 0..3 {
        let cycle_start = allocations();

        // "Exchange": re-serialize the build records into sealed pages using
        // recycled buffers, as a superstep's outbox writers do.
        let mut writer = PageWriter::new();
        writer.add_spare_buffers(pool.take(usize::MAX));
        let mut scratch = Record::empty();
        for page in &build_pages {
            for view in page.reader() {
                view.read_into(&mut scratch);
                writer.push(&scratch);
            }
        }
        let shipped = writer.finish();

        // Build: adopt the shipped pages by pointer and index every record
        // under its 8-byte normalized key prefix.
        table.clear();
        let mut store = PageWriter::new();
        for page in &shipped {
            store.adopt_page_scanned(page, |handle, view| {
                table.insert(view.long_key_prefix(0).expect("Long key"), handle);
                true
            });
        }

        // Probe: every probe record drives a chain walk plus an in-place
        // field read per match — no record is materialized, nothing at all
        // is allocated.
        let probe_start = allocations();
        for page in &probe_pages {
            for view in page.reader() {
                let prefix = view.long_key_prefix(0).expect("Long key");
                for handle in table.probe(prefix) {
                    checksum = checksum.wrapping_add(store.view(handle).long(1) as u64);
                }
            }
        }
        probe_allocations = allocations() - probe_start;

        // Recycle: consumed pages hand their buffers back for the next
        // cycle's exchange, closing the steady-state loop.  The store's
        // copies of the adopted pages are still co-owned (refcount 2) and
        // fail recycling; dropping them leaves `shipped` as the sole owner,
        // so the second pass recovers every buffer.
        pool.recycle_all(store.finish());
        pool.recycle_all(shipped);

        if cycle > 0 {
            cycle_allocations = allocations() - cycle_start;
        }
    }
    assert_ne!(checksum, 0, "the probes must have matched");

    assert_eq!(
        probe_allocations, 0,
        "the probe phase must not allocate at all"
    );
    // The whole cycle may allocate per *page* (each seal wraps its buffer in
    // a fresh `Arc<RecordPage>`), never per record.
    let per_record_bound = (BUILD_RECORDS / 50) as usize;
    assert!(
        cycle_allocations < per_record_bound,
        "steady-state cycle allocated {cycle_allocations} times \
         (bound {per_record_bound}) — a per-record allocation crept in"
    );
}
