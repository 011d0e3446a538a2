//! Allocation bound on the TCP wire: a batch of pages sent to a peer and
//! received there allocates the pages' bytes about once — the buffers the
//! receiver reads each frame into, which become its pages — plus
//! bookkeeping.  A sender that staged the batch in a payload buffer, or a
//! receiver that read the payload whole and then copied each page out of
//! it, allocates two to three times the bytes.  Bytes allocated are
//! counted, not timed, so the bound repeats exactly.
//!
//! This file holds exactly one `#[test]` so no sibling test can run
//! concurrently inside the process and pollute the counter.

use comm::tcp::TcpTransport;
use comm::{ChannelId, ClusterSpec, Transport};
use dataflow::page::{PageWriter, RecordPage};
use dataflow::prelude::Record;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and counts the bytes every allocation and
/// every growing reallocation adds, on any thread.
struct ByteCountingAllocator;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ByteCountingAllocator = ByteCountingAllocator;

fn allocated() -> usize {
    ALLOCATED.load(Ordering::Relaxed)
}

#[test]
fn a_page_batch_crosses_the_wire_allocating_its_bytes_about_once() {
    // A loopback pair: process 0 owns partition 0, process 1 partition 1.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|probe| probe.local_addr())
        .expect("a free port");
    let worker = std::thread::spawn(move || {
        TcpTransport::<RecordPage>::connect(ClusterSpec::new(2, 1).unwrap(), addr)
    });
    let coordinator = TcpTransport::<RecordPage>::connect(ClusterSpec::new(2, 0).unwrap(), addr)
        .expect("coordinator connects");
    let worker = worker.join().unwrap().expect("worker connects");
    let sender = coordinator.channel(ChannelId::new(0, 0), 2);
    let receiver = worker.channel(ChannelId::new(0, 0), 2);

    let mut writer = PageWriter::new();
    for i in 0..40_000 {
        writer.push(&Record::pair(i, i * 3));
    }
    let pages = writer.finish();
    let page_bytes: usize = pages.iter().map(|page| page.byte_len()).sum();
    let batch = pages.clone();

    let before = allocated();
    sender.send(1, 0, 1, batch).expect("send");
    sender.finish_round(1, 0).expect("finish at the sender");
    receiver.finish_round(1, 1).expect("finish at the receiver");
    let received = receiver.recv(1, 1).expect("receive");
    let bytes = allocated() - before;

    assert_eq!(received.len(), 1, "one batch, from partition 0");
    assert!(
        received[0].1.iter().eq(pages.iter()),
        "the pages arrive intact"
    );
    assert!(
        bytes * 2 < page_bytes * 3,
        "sending and receiving {} pages of {page_bytes} bytes allocated {bytes} bytes \
         (bound: 1.5x the page bytes)",
        pages.len()
    );
}
