//! The engine's binding to the `comm` transport layer.
//!
//! `comm` is payload-generic; this module pins it to the engine's sealed
//! [`RecordPage`] — a [`comm::WireCodec`] implementation handing out the
//! page's record count and raw bytes as the contents of a
//! [`comm::frame`], the frame spill runs use on disk too (the sender writes
//! the page's own buffer to the socket; the receiver reads a frame into the
//! buffer that becomes the page and walks its record lengths, because the
//! wire is outside input) — and wraps the `Arc<dyn Transport>` in a cloneable
//! [`TransportHandle`] the configuration objects carry.  The default handle
//! is the in-process backend, so single-process execution pays no setup and
//! no serialization; a cluster run swaps in [`comm::tcp::TcpTransport`]
//! without touching operator code.

use crate::error::{DataflowError, Result};
use crate::fault::{FaultInjector, FaultSite};
use crate::page::RecordPage;
use comm::tcp::{TcpOptions, TcpTransport};
use comm::{ChannelId, ClusterSpec, FaultHook, LocalTransport};
use std::sync::Arc;

pub use comm::{PageChannel, Transport};

impl comm::WireCodec for RecordPage {
    fn frame(&self) -> (u32, &[u8]) {
        (self.record_count() as u32, self.bytes())
    }

    fn from_frame(records: u32, bytes: Vec<u8>) -> std::result::Result<RecordPage, String> {
        // The frame CRC already vouches for transport integrity; this walk
        // vouches for structure, so a malformed page can never plant an
        // out-of-bounds offset inside the engine.
        let mut offset = 0usize;
        for _ in 0..records {
            let len = bytes
                .get(offset..offset + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                .ok_or_else(|| "page record frame truncated".to_owned())?
                as usize;
            offset += 4;
            if bytes.len() - offset < len {
                return Err("page record payload truncated".to_owned());
            }
            offset += len;
        }
        if offset != bytes.len() {
            return Err(format!("page has {} trailing bytes", bytes.len() - offset));
        }
        Ok(RecordPage::from_raw(bytes, records as usize))
    }
}

/// The channel type every exchange ships its pages through.
pub type SharedPageChannel = Arc<dyn PageChannel<RecordPage>>;

/// A cloneable handle on the process's transport, carried by the execution
/// configs.  [`TransportHandle::default`] is the in-process backend — a
/// single-process cluster with pointer-moving channels.
#[derive(Clone)]
pub struct TransportHandle {
    inner: Arc<dyn Transport<RecordPage>>,
}

impl Default for TransportHandle {
    fn default() -> Self {
        TransportHandle::local()
    }
}

impl std::fmt::Debug for TransportHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportHandle")
            .field("cluster", &self.cluster())
            .finish_non_exhaustive()
    }
}

impl TransportHandle {
    /// The in-process backend (a cluster of one).
    pub fn local() -> TransportHandle {
        TransportHandle {
            inner: Arc::new(LocalTransport::new()),
        }
    }

    /// Connects the TCP backend: rendezvous through `coordinator`, full mesh
    /// between the cluster's processes.  `fault` (when enabled) injects
    /// connection drops at its [`FaultSite::ConnDrop`] site.
    pub fn tcp_cluster(
        spec: ClusterSpec,
        coordinator: &str,
        fault: &FaultInjector,
    ) -> Result<TransportHandle> {
        let options = TcpOptions {
            fault_hook: conn_drop_hook(fault),
            ..TcpOptions::default()
        };
        let transport = TcpTransport::connect_with(spec, coordinator, options)?;
        Ok(TransportHandle {
            inner: Arc::new(transport),
        })
    }

    /// Wraps an already-built transport.
    pub fn from_transport(inner: Arc<dyn Transport<RecordPage>>) -> TransportHandle {
        TransportHandle { inner }
    }

    /// The cluster this handle connects.
    pub fn cluster(&self) -> ClusterSpec {
        self.inner.cluster()
    }

    /// True when this process is part of a multi-process cluster.
    pub fn is_distributed(&self) -> bool {
        self.cluster().processes > 1
    }

    /// Allocates a channel group id (see the SPMD contract in `comm`).
    pub fn allocate(&self) -> u64 {
        self.inner.allocate()
    }

    /// Opens the page channel for `id` across `partitions` global partitions.
    pub fn channel(&self, id: ChannelId, partitions: usize) -> SharedPageChannel {
        self.inner.channel(id, partitions)
    }

    /// Opens a freshly allocated single-edge channel — the common case for
    /// one dataflow exchange.
    pub fn fresh_channel(&self, partitions: usize) -> SharedPageChannel {
        self.channel(ChannelId::new(self.allocate(), 0), partitions)
    }

    /// Cluster-wide value exchange and barrier at `(id, round)`; returns
    /// every process's `values`, indexed by process.
    pub fn all_gather(&self, id: ChannelId, round: u64, values: &[u64]) -> Result<Vec<Vec<u64>>> {
        self.inner
            .all_gather(id, round, values)
            .map_err(DataflowError::from)
    }
}

/// Adapts the engine's seeded [`FaultInjector`] to the transport's
/// [`FaultHook`]: each outbound data message is one event at
/// [`FaultSite::ConnDrop`].  Returns `None` when injection is disabled so
/// the disabled path stays free.
pub fn conn_drop_hook(fault: &FaultInjector) -> Option<FaultHook> {
    if !fault.is_enabled() {
        return None;
    }
    let fault = fault.clone();
    Some(Arc::new(move || {
        fault.io_check(FaultSite::ConnDrop).is_err()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DataflowError;
    use crate::page::{PageWriter, DEFAULT_PAGE_BYTES};
    use crate::record::Record;
    use crate::value::Value;
    use comm::WireCodec;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pages_of(records: impl IntoIterator<Item = Record>) -> Vec<Arc<RecordPage>> {
        let mut writer = PageWriter::new();
        for record in records {
            writer.push(&record);
        }
        writer.finish()
    }

    fn sample_page() -> Arc<RecordPage> {
        let pages = pages_of((0..100).map(|i| Record::pair(i, i * 2)));
        pages.into_iter().next().expect("one page")
    }

    /// Worker 1 of a two-process TCP cluster whose coordinator is a bare
    /// socket: what the worker sends to partition 0 arrives there as the
    /// raw bytes on the wire.
    fn worker_with_a_raw_coordinator() -> (TcpTransport<RecordPage>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
        let addr = listener.local_addr().expect("address");
        let worker = std::thread::spawn(move || {
            TcpTransport::<RecordPage>::connect(ClusterSpec::new(2, 1).unwrap(), addr)
        });
        let (mut coordinator, _) = listener.accept().expect("the worker dials in");
        // Read the worker's 24-byte HELLO; answer with the address table:
        // one unused 6-byte entry (worker 1 dials nobody) and its CRC-32.
        coordinator.read_exact(&mut [0u8; 24]).expect("HELLO");
        let table = [0u8; 6];
        coordinator.write_all(&table).expect("table");
        coordinator
            .write_all(&comm::crc32(&table).to_le_bytes())
            .expect("table CRC");
        (
            worker.join().unwrap().expect("worker connects"),
            coordinator,
        )
    }

    #[test]
    fn a_page_takes_the_same_frame_bytes_on_disk_and_on_the_wire() {
        let (worker, mut coordinator) = worker_with_a_raw_coordinator();
        let channel = worker.channel(ChannelId::new(0, 0), 2);
        let dir = std::env::temp_dir().join(format!("spinning-frame-test-{}", std::process::id()));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random = pages_of((0..2_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let text = "x".repeat((state % 60) as usize);
            Record::new(vec![Value::Long(state as i64), Value::Text(text)])
        }));
        let wide = Value::Text("w".repeat(2 * DEFAULT_PAGE_BYTES));
        let cases = [
            vec![Arc::new(RecordPage::from_raw(Vec::new(), 0))],
            pages_of([Record::pair(1, 2)]),
            pages_of([Record::new(vec![wide])]),
            random,
        ];
        let mut runs = Vec::new();
        for (round, pages) in (1..).zip(cases) {
            let run = crate::spill::write_run_in(&dir, &pages, None).expect("run");
            let on_disk = std::fs::read(run.path()).expect("run file");
            channel.send(round, 1, 0, pages).expect("send");
            let mut header = [0u8; 56];
            coordinator.read_exact(&mut header).expect("wire header");
            assert_eq!(header[52..], comm::crc32(&header[..52]).to_le_bytes());
            let len = u32::from_le_bytes(header[48..52].try_into().unwrap());
            let mut payload = vec![0u8; len as usize];
            coordinator.read_exact(&mut payload).expect("payload");
            assert_eq!(payload, on_disk[8..], "round {round}: wire and disk differ");
            runs.push(run);
        }
        // A run written as format version 2, whose CRC left out the record
        // count, is refused at its header.
        let run = runs.pop().unwrap();
        let mut bytes = std::fs::read(run.path()).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(run.path(), &bytes).unwrap();
        let expected = DataflowError::SpillCorrupt {
            path: run.path().display().to_string(),
            frame_offset: 0,
        };
        assert_eq!(DataflowError::from(run.read_pages().unwrap_err()), expected);
        assert_eq!(DataflowError::from(run.cursor().unwrap_err()), expected);
        drop((run, runs));
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn record_pages_round_trip_through_the_wire_codec() {
        let page = sample_page();
        let (records, bytes) = page.frame();
        let back = RecordPage::from_frame(records, bytes.to_vec()).expect("decodes");
        assert_eq!(back.record_count(), page.record_count());
        assert_eq!(back.byte_len(), page.byte_len());
        let records: Vec<Record> = back.reader().map(|v| v.materialize()).collect();
        assert_eq!(records[3], Record::pair(3, 6));
    }

    #[test]
    fn torn_page_bytes_fail_decode_instead_of_planting_bad_offsets() {
        let page = sample_page();
        let (records, bytes) = page.frame();
        // Claim one more or one fewer record than the bytes hold.
        assert!(RecordPage::from_frame(records + 1, bytes.to_vec()).is_err());
        assert!(RecordPage::from_frame(records - 1, bytes.to_vec()).is_err());
        // Truncate the bytes mid-record.
        let torn = bytes[..bytes.len() - 3].to_vec();
        assert!(RecordPage::from_frame(records, torn).is_err());
        // A record in no bytes.
        assert!(RecordPage::from_frame(1, Vec::new()).is_err());
    }

    #[test]
    fn default_handle_is_a_single_process_cluster() {
        let handle = TransportHandle::default();
        assert!(!handle.is_distributed());
        assert_eq!(handle.cluster(), ClusterSpec::single());
        let gathered = handle
            .all_gather(ChannelId::new(0, 0), 0, &[1, 2, 3])
            .unwrap();
        assert_eq!(gathered, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn conn_drop_hook_follows_the_injector_schedule() {
        assert!(conn_drop_hook(&FaultInjector::disabled()).is_none());
        let fault = FaultInjector::failing_nth(FaultSite::ConnDrop, 1);
        let hook = conn_drop_hook(&fault).expect("enabled injector adapts");
        assert!(!hook()); // event 0
        assert!(hook()); // event 1 fires
        assert!(!hook()); // event 2
        assert_eq!(fault.injected(FaultSite::ConnDrop), 1);
    }
}
