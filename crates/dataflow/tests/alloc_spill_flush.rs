//! Counting-allocator bound on the sorted spill flush: records pushed through
//! a budget-0 `SpillingWriter` that sorts on a single `Long` key reach disk
//! without a heap record per record — the flush radix-sorts `(key prefix,
//! handle)` pairs and copies serialized payloads — so spilling N records
//! allocates O(pages), not O(N).
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the allocation counters.

use dataflow::prelude::{MemoryBudget, Record, SpillManager, Value};
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

const RECORDS: i64 = 200_000;

#[test]
fn sorted_spill_flushes_allocate_per_page_not_per_record() {
    let dir =
        std::env::temp_dir().join(format!("spinning-alloc-spill-flush-{}", std::process::id()));
    // Budget 0: every sealed page is flushed, sorted on field 0, as the next
    // run of the writer's one file.
    let manager = SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(0), Some(vec![0]));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut writer = manager.writer();
    for i in 0..RECORDS {
        writer.push_fields(&[Value::Long((i * 7_919) % 10_007 - 5_000), Value::Long(i)]);
    }
    let out = writer.finish().expect("spill");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(out.pages.is_empty(), "budget 0 keeps nothing in memory");
    assert_eq!(out.stats.spilled_records, RECORDS as usize);
    assert!(out.runs.len() > 100, "only {} runs", out.runs.len());
    let mut cursor = out.runs[0].cursor().expect("open run");
    let mut record = Record::empty();
    let mut last = i64::MIN;
    while cursor.next_into(&mut record).expect("read run") {
        assert!(last <= record.long(0), "flushed runs are sorted");
        last = record.long(0);
    }
    let bound = (RECORDS / 16) as usize;
    assert!(
        allocations <= bound,
        "spilling {RECORDS} records in {} sorted runs allocated {allocations} times \
         (bound {bound}) — a per-record allocation crept into the flush",
        out.runs.len()
    );
    drop(cursor);
    drop(out);
    let _ = std::fs::remove_dir(&dir);
}
