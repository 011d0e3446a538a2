//! The TCP backend: page batches as the same checksummed page frames the
//! engine's spill runs hold on disk (the spill-run frame discipline on a
//! socket), a rendezvous handshake carrying cluster size / worker index /
//! protocol version, and typed [`CommError`]s for torn streams and lost
//! peers instead of hangs.
//!
//! ## Rendezvous
//!
//! Process 0 binds the coordinator address.  Every other process binds an
//! ephemeral listener, dials the coordinator, and sends a `HELLO` advertising
//! its listener port; once all processes reported in, the coordinator
//! broadcasts the address table and the workers complete the mesh (the
//! higher index dials the lower), so only the coordinator address must be
//! agreed on out of band — everything else is ephemeral, which is what keeps
//! parallel localhost clusters from colliding on ports.
//!
//! ## Frames
//!
//! Every post-handshake message is a fixed 56-byte wire header (magic, kind,
//! channel group/edge, round, source, target, payload length, and a CRC-32
//! of the header's first 52 bytes) followed by the payload: page frames of
//! [`crate::frame`] back to back — one per page of a `PAGES` message, one
//! holding the values of an `ALL_GATHER`, none for `END_ROUND`.
//! Every byte on the wire is thus under exactly one CRC, computed once.  A
//! sender writes the header, each frame header and each page's own bytes in
//! vectored writes, with no payload buffer in between; a receiver reads each
//! frame's bytes straight into the buffer that becomes the page.  A bad
//! magic, a truncated read, a frame overrunning its payload, or a CRC
//! mismatch marks the peer dead with [`CommError::TornStream`]; EOF and
//! socket errors mark it dead with [`CommError::PeerLost`].  Death is
//! per-peer: a wait fails only when data it is still missing is owed by a
//! dead peer (TCP ordering guarantees everything a peer sent arrived before
//! its EOF), so a worker that finishes its run and exits cleanly never takes
//! down the cluster, while a peer lost mid-superstep surfaces as a typed
//! error at the superstep barrier — never as a hang.
//!
//! ## Pacing
//!
//! The transport runs no flow control of its own: the superstep barrier is
//! the cluster's.  A workset iteration agrees on every superstep through an
//! [`all_gather`](Transport::all_gather) that each process joins only after
//! it drained its own targets, and opens the next round only after it, so
//! no process sends round r+1 before every process drained round r.  A
//! receiver therefore holds at most one undrained round per channel; a peer
//! that opens more than `MAX_HELD_ROUNDS` has left the barrier, and its
//! stream is torn.

use crate::frame::{frame_header, FrameHeader, FRAME_HEADER_BYTES};
use crate::{
    crc32, timeout_from_env, ChannelId, ClusterSpec, CommError, FaultHook, Inbox, PageChannel,
    Transport, WireCodec,
};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Frame and handshake magic: `b"SPNC"` ("spinning comm").
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"SPNC");

/// Wire protocol version carried in the handshake; peers must match exactly.
/// Version 2: page frames as payload, the header under its own CRC.
/// Version 3: no `CREDIT` message; the superstep barrier paces rounds.
pub const PROTOCOL_VERSION: u32 = 3;

const WIRE_HEADER_BYTES: usize = 56;
const HELLO_BYTES: usize = 24;

const KIND_PAGES: u32 = 1;
const KIND_END_ROUND: u32 = 2;
const KIND_ALL_GATHER: u32 = 3;

/// Undrained rounds one channel's inbox may hold before a peer's message
/// opening yet another is a [`CommError::TornStream`].  Under the superstep
/// barrier (see the module docs) a channel holds at most one; the second
/// is slack.  Only the reader threads check it: a check on the shared
/// inbox path would also count the partial rounds that failed in-process
/// attempts leave behind.
const MAX_HELD_ROUNDS: usize = 2;

/// Options for [`TcpTransport::connect`].
#[derive(Clone)]
pub struct TcpOptions {
    /// How long the rendezvous (bind, dial, handshake, mesh) may take.
    pub rendezvous_timeout: Duration,
    /// How long a blocking receive or gather may wait (defaults to the
    /// [`crate::TIMEOUT_ENV`] setting).
    pub recv_timeout: Duration,
    /// Consulted once per outbound data message; returning `true` drops the
    /// connection at that point (seeded fault injection plugs in here).
    pub fault_hook: Option<FaultHook>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            rendezvous_timeout: Duration::from_secs(30),
            recv_timeout: timeout_from_env(),
            fault_hook: None,
        }
    }
}

impl std::fmt::Debug for TcpOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpOptions")
            .field("rendezvous_timeout", &self.rendezvous_timeout)
            .field("recv_timeout", &self.recv_timeout)
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

/// Locks `mutex`, recovering the guard if a holder panicked: the critical
/// sections in this module write one message or shut a socket down, and
/// leave nothing half-updated for the next holder to trip on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `W` bytes at offset `at` of a fixed-size header, as an array for
/// `u32::from_le_bytes` / `u64::from_le_bytes`.  Callers pass constant
/// offsets inside the header.
fn bytes_at<const W: usize, const N: usize>(header: &[u8; N], at: usize) -> [u8; W] {
    std::array::from_fn(|i| header[at + i])
}

/// One live peer connection: the write half (framed, mutex-serialized) —
/// the read half lives in the peer's reader thread.
struct Peer {
    writer: Mutex<TcpStream>,
}

impl Peer {
    /// Tears the connection down; both the local writer and the remote
    /// reader observe it.
    fn shutdown(&self) {
        let _ = lock(&self.writer).shutdown(Shutdown::Both);
    }
}

struct Shared<P> {
    spec: ClusterSpec,
    inbox: Arc<Inbox<P>>,
    /// Indexed by process; `None` at this process's own slot.
    peers: Vec<Option<Peer>>,
    recv_timeout: Duration,
    fault_hook: Option<FaultHook>,
}

impl<P> Shared<P> {
    /// Simulates a dropped connection: tears down every peer socket and
    /// marks every peer dead, so both sides observe a typed peer loss.
    fn drop_connections(&self, detail: &str) -> CommError {
        for peer in self.peers.iter().flatten() {
            peer.shutdown();
        }
        let error = CommError::PeerLost {
            peer: self.spec.index,
            detail: detail.to_owned(),
        };
        for process in 0..self.spec.processes {
            self.inbox.poison(process, error.clone());
        }
        error
    }

    /// Writes one message to `process`: the wire header, then `frames` —
    /// each a record count and its bytes — as page frames, in vectored
    /// writes straight from the callers' buffers.
    #[allow(clippy::too_many_arguments)]
    fn write_message(
        &self,
        process: usize,
        kind: u32,
        id: ChannelId,
        round: u64,
        from: u64,
        to: u64,
        frames: &[(u32, &[u8])],
    ) -> Result<(), CommError> {
        // The seeded fault schedules count data messages: END_ROUND is
        // exempt.
        if let Some(hook) = &self.fault_hook {
            if kind != KIND_END_ROUND && hook() {
                return Err(self.drop_connections("injected connection drop"));
            }
        }
        let peer = self.peers[process].as_ref().expect(
            "messages are never addressed to this process: every caller skips its own index",
        );
        let payload_len: usize = frames
            .iter()
            .map(|(_, bytes)| FRAME_HEADER_BYTES + bytes.len())
            .sum();
        let header = wire_header(kind, id, round, from, to, payload_len as u32);
        let frame_headers: Vec<_> = frames
            .iter()
            .map(|&(records, bytes)| frame_header(records, bytes))
            .collect();
        let mut slices = vec![IoSlice::new(&header)];
        for (frame_header, (_, bytes)) in frame_headers.iter().zip(frames) {
            slices.extend([IoSlice::new(frame_header), IoSlice::new(bytes)]);
        }
        if let Err(e) = write_all_vectored(&mut lock(&peer.writer), &mut slices) {
            // A failed write is not the sender's failure: a peer that exited
            // cleanly after finishing its run no longer needs this data, and
            // a crashed peer surfaces on the next wait that misses its
            // contribution.  Mark it dead and carry on.
            self.inbox.poison(
                process,
                CommError::PeerLost {
                    peer: process,
                    detail: format!("write failed: {e}"),
                },
            );
        }
        Ok(())
    }
}

/// The wire header of a message whose payload is `payload_len` bytes; its
/// last four bytes are the CRC-32 of the others.
fn wire_header(
    kind: u32,
    id: ChannelId,
    round: u64,
    from: u64,
    to: u64,
    payload_len: u32,
) -> [u8; WIRE_HEADER_BYTES] {
    let mut header = [0u8; WIRE_HEADER_BYTES];
    header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&kind.to_le_bytes());
    header[8..16].copy_from_slice(&id.group.to_le_bytes());
    header[16..24].copy_from_slice(&id.edge.to_le_bytes());
    header[24..32].copy_from_slice(&round.to_le_bytes());
    header[32..40].copy_from_slice(&from.to_le_bytes());
    header[40..48].copy_from_slice(&to.to_le_bytes());
    header[48..52].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&header[..52]);
    header[52..56].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Writes every byte of `slices` (the standard library's
/// `write_all_vectored` is not stable yet).
fn write_all_vectored(
    stream: &mut TcpStream,
    mut slices: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    // Advancing by zero drops leading empty slices, which would otherwise
    // read as a zero-length write.
    IoSlice::advance_slices(&mut slices, 0);
    while !slices.is_empty() {
        match stream.write_vectored(slices) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The TCP transport: a full mesh of framed localhost/LAN connections
/// between the cluster's processes, demultiplexed by per-peer reader
/// threads into the shared inbox.
pub struct TcpTransport<P> {
    shared: Arc<Shared<P>>,
    counter: AtomicU64,
}

impl<P> std::fmt::Debug for TcpTransport<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("cluster", &self.shared.spec)
            .finish_non_exhaustive()
    }
}

impl<P> Drop for TcpTransport<P> {
    fn drop(&mut self) {
        // Unblock the peers' reader threads; their streams observe EOF.
        for peer in self.shared.peers.iter().flatten() {
            peer.shutdown();
        }
    }
}

impl<P: WireCodec + Send + Sync + 'static> TcpTransport<P> {
    /// Establishes the cluster with default options.
    pub fn connect(
        spec: ClusterSpec,
        coordinator: impl ToSocketAddrs,
    ) -> Result<TcpTransport<P>, CommError> {
        Self::connect_with(spec, coordinator, TcpOptions::default())
    }

    /// Establishes the cluster: process 0 binds `coordinator` and collects
    /// every worker's `HELLO`, the others dial in, and the address table
    /// broadcast completes the mesh.  Returns once every pairwise
    /// connection is up and validated.
    pub fn connect_with(
        spec: ClusterSpec,
        coordinator: impl ToSocketAddrs,
        options: TcpOptions,
    ) -> Result<TcpTransport<P>, CommError> {
        let inbox = Inbox::new();
        let mut peers: Vec<Option<Peer>> = (0..spec.processes).map(|_| None).collect();
        let deadline = Instant::now() + options.rendezvous_timeout;
        let mut streams: Vec<Option<TcpStream>> = (0..spec.processes).map(|_| None).collect();
        if spec.processes > 1 {
            let coordinator = coordinator
                .to_socket_addrs()
                .map_err(|e| CommError::Handshake(format!("bad coordinator address: {e}")))?
                .next()
                .ok_or_else(|| CommError::Handshake("empty coordinator address".into()))?;
            if spec.index == 0 {
                rendezvous_coordinator(&spec, coordinator, deadline, &mut streams)?;
            } else {
                rendezvous_worker(&spec, coordinator, deadline, &mut streams)?;
            }
        }
        for (process, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            stream
                .set_nodelay(true)
                .map_err(|e| CommError::Handshake(format!("set_nodelay: {e}")))?;
            // Handshake phases used short read timeouts; the data plane
            // blocks indefinitely (the inbox wait bounds are the timeout).
            stream
                .set_read_timeout(None)
                .map_err(|e| CommError::Handshake(format!("clear read timeout: {e}")))?;
            let reader = stream
                .try_clone()
                .map_err(|e| CommError::Handshake(format!("clone stream: {e}")))?;
            spawn_reader::<P>(process, reader, Arc::clone(&inbox))
                .map_err(|e| CommError::Handshake(format!("spawn reader thread: {e}")))?;
            peers[process] = Some(Peer {
                writer: Mutex::new(stream),
            });
        }
        Ok(TcpTransport {
            shared: Arc::new(Shared {
                spec,
                inbox,
                peers,
                recv_timeout: options.recv_timeout,
                fault_hook: options.fault_hook,
            }),
            counter: AtomicU64::new(0),
        })
    }
}

// --- Rendezvous --------------------------------------------------------------

fn handshake_bytes(spec: &ClusterSpec, listen_port: u16) -> [u8; HELLO_BYTES] {
    let mut hello = [0u8; HELLO_BYTES];
    hello[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    hello[4..8].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    hello[8..12].copy_from_slice(&(spec.processes as u32).to_le_bytes());
    hello[12..16].copy_from_slice(&(spec.index as u32).to_le_bytes());
    hello[16..20].copy_from_slice(&u32::from(listen_port).to_le_bytes());
    let crc = crc32(&hello[0..20]);
    hello[20..24].copy_from_slice(&crc.to_le_bytes());
    hello
}

/// Reads and validates a peer's `HELLO`, returning `(index, listen_port)`.
fn read_handshake(stream: &mut TcpStream, spec: &ClusterSpec) -> Result<(usize, u16), CommError> {
    let mut hello = [0u8; HELLO_BYTES];
    stream
        .read_exact(&mut hello)
        .map_err(|e| CommError::Handshake(format!("short handshake: {e}")))?;
    let word = |at: usize| u32::from_le_bytes(bytes_at(&hello, at));
    if word(0) != FRAME_MAGIC {
        return Err(CommError::Handshake("bad handshake magic".into()));
    }
    if word(20) != crc32(&hello[0..20]) {
        return Err(CommError::Handshake("handshake checksum mismatch".into()));
    }
    let (version, processes, index, port) = (word(4), word(8), word(12), word(16));
    if version != PROTOCOL_VERSION {
        return Err(CommError::Handshake(format!(
            "protocol version mismatch: peer speaks v{version}, this is v{PROTOCOL_VERSION}"
        )));
    }
    if processes as usize != spec.processes {
        return Err(CommError::Handshake(format!(
            "cluster size mismatch: peer expects {processes} processes, this cluster has {}",
            spec.processes
        )));
    }
    if index as usize >= spec.processes {
        return Err(CommError::Handshake(format!(
            "peer index {index} out of range"
        )));
    }
    Ok((index as usize, port as u16))
}

/// Accepts one connection before `deadline` (the listener stays
/// non-blocking so a dead peer cannot stall the rendezvous forever).
fn accept_before(listener: &TcpListener, deadline: Instant) -> Result<TcpStream, CommError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| CommError::Handshake(format!("listener: {e}")))?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| CommError::Handshake(format!("accepted stream: {e}")))?;
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .map_err(|e| CommError::Handshake(format!("accepted stream: {e}")))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(CommError::Handshake(
                        "rendezvous timeout waiting for peers".into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(CommError::Handshake(format!("accept failed: {e}"))),
        }
    }
}

/// Process 0: binds the coordinator address, collects every worker's
/// `HELLO`, and broadcasts the address table.
fn rendezvous_coordinator(
    spec: &ClusterSpec,
    coordinator: SocketAddr,
    deadline: Instant,
    streams: &mut [Option<TcpStream>],
) -> Result<(), CommError> {
    let listener = TcpListener::bind(coordinator)
        .map_err(|e| CommError::Handshake(format!("bind coordinator {coordinator}: {e}")))?;
    let mut table: Vec<Option<SocketAddr>> = vec![None; spec.processes];
    for _ in 1..spec.processes {
        let mut stream = accept_before(&listener, deadline)?;
        let (index, port) = read_handshake(&mut stream, spec)?;
        if index == 0 {
            return Err(CommError::Handshake(
                "a peer claims the coordinator's index 0".into(),
            ));
        }
        if streams[index].is_some() {
            return Err(CommError::Handshake(format!(
                "two peers both claim worker index {index}"
            )));
        }
        let mut addr = stream
            .peer_addr()
            .map_err(|e| CommError::Handshake(format!("peer address: {e}")))?;
        addr.set_port(port);
        table[index] = Some(addr);
        streams[index] = Some(stream);
    }
    // Broadcast the address table: worker i needs the listeners of workers
    // 1..i (it dials lower indexes; higher indexes dial it).
    let mut payload = Vec::with_capacity(spec.processes * 8);
    for entry in table.iter().skip(1) {
        let addr = entry.expect(
            "processes - 1 HELLOs with distinct indexes in 1..processes fill every worker slot",
        );
        let ip = match addr.ip() {
            std::net::IpAddr::V4(ip) => ip.octets(),
            std::net::IpAddr::V6(_) => {
                return Err(CommError::Handshake(
                    "IPv6 peers are not supported by the rendezvous table".into(),
                ))
            }
        };
        payload.extend_from_slice(&ip);
        payload.extend_from_slice(&addr.port().to_le_bytes());
    }
    let crc = crc32(&payload).to_le_bytes();
    for stream in streams.iter_mut().flatten() {
        stream
            .write_all(&payload)
            .and_then(|()| stream.write_all(&crc))
            .map_err(|e| CommError::Handshake(format!("address table broadcast: {e}")))?;
    }
    Ok(())
}

/// Process `i > 0`: binds an ephemeral mesh listener, dials the
/// coordinator, receives the address table, then dials every lower-index
/// worker and accepts every higher-index one.
fn rendezvous_worker(
    spec: &ClusterSpec,
    coordinator: SocketAddr,
    deadline: Instant,
    streams: &mut [Option<TcpStream>],
) -> Result<(), CommError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CommError::Handshake(format!("bind mesh listener: {e}")))?;
    let listen_port = listener
        .local_addr()
        .map_err(|e| CommError::Handshake(format!("mesh listener address: {e}")))?
        .port();
    // The coordinator may start after this worker: retry until the deadline.
    let mut coordinator_stream = loop {
        match TcpStream::connect_timeout(&coordinator, Duration::from_secs(2)) {
            Ok(stream) => break stream,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(CommError::Handshake(format!(
                        "cannot reach coordinator {coordinator}: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    coordinator_stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| CommError::Handshake(format!("coordinator stream: {e}")))?;
    coordinator_stream
        .write_all(&handshake_bytes(spec, listen_port))
        .map_err(|e| CommError::Handshake(format!("send handshake: {e}")))?;
    // The address table lists the mesh listeners of workers 1..processes,
    // six bytes each (IPv4 + port), followed by its CRC-32.
    let mut payload = vec![0u8; (spec.processes - 1) * 6];
    let mut crc = [0u8; 4];
    coordinator_stream
        .read_exact(&mut payload)
        .and_then(|()| coordinator_stream.read_exact(&mut crc))
        .map_err(|e| CommError::Handshake(format!("read address table: {e}")))?;
    if u32::from_le_bytes(crc) != crc32(&payload) {
        return Err(CommError::Handshake(
            "address table checksum mismatch".into(),
        ));
    }
    streams[0] = Some(coordinator_stream);
    let (entries, _) = payload.as_chunks::<6>();
    let peer_addr = |worker: usize| {
        let [a, b, c, d, p0, p1] = entries[worker - 1];
        SocketAddr::from((
            std::net::Ipv4Addr::new(a, b, c, d),
            u16::from_le_bytes([p0, p1]),
        ))
    };
    // Dial every lower-index worker; identify with a HELLO (port unused).
    for (worker, slot) in streams.iter_mut().enumerate().take(spec.index).skip(1) {
        let mut stream = TcpStream::connect_timeout(&peer_addr(worker), Duration::from_secs(10))
            .map_err(|e| CommError::Handshake(format!("dial worker {worker}: {e}")))?;
        stream
            .write_all(&handshake_bytes(spec, 0))
            .map_err(|e| CommError::Handshake(format!("mesh handshake to {worker}: {e}")))?;
        *slot = Some(stream);
    }
    // Accept every higher-index worker.
    for _ in spec.index + 1..spec.processes {
        let mut stream = accept_before(&listener, deadline)?;
        let (index, _) = read_handshake(&mut stream, spec)?;
        if index <= spec.index || streams[index].is_some() {
            return Err(CommError::Handshake(format!(
                "unexpected mesh connection from worker {index}"
            )));
        }
        streams[index] = Some(stream);
    }
    Ok(())
}

// --- Reader threads ----------------------------------------------------------

/// Reads `buf.len()` bytes from `peer`.  `Ok(false)` is a clean EOF before
/// the first byte; EOF after it is a torn stream, a socket error a lost
/// peer.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], peer: usize) -> Result<bool, CommError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(CommError::TornStream {
                    peer,
                    detail: format!("stream ended after {filled} of {} bytes", buf.len()),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(CommError::PeerLost {
                    peer,
                    detail: format!("read failed: {e}"),
                })
            }
        }
    }
    Ok(true)
}

/// One reader thread per peer: reads messages, validates them, and
/// demultiplexes into the inbox.  Any stream defect marks the peer dead —
/// every wait still owed data by it sees the typed error.
fn spawn_reader<P: WireCodec + Send + Sync + 'static>(
    peer: usize,
    mut stream: TcpStream,
    inbox: Arc<Inbox<P>>,
) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(format!("comm-reader-{peer}"))
        .spawn(move || {
            let error = loop {
                if let Err(error) = read_message(peer, &mut stream, &inbox) {
                    break error;
                }
            };
            inbox.poison(peer, error);
        })
        .map(drop)
}

/// Reads one message from `peer` and demultiplexes it into the inbox.
fn read_message<P: WireCodec + Send + Sync>(
    peer: usize,
    stream: &mut TcpStream,
    inbox: &Inbox<P>,
) -> Result<(), CommError> {
    let torn = |detail: String| CommError::TornStream { peer, detail };
    let mut header = [0u8; WIRE_HEADER_BYTES];
    if !read_full(stream, &mut header, peer)? {
        return Err(CommError::PeerLost {
            peer,
            detail: "connection closed".into(),
        });
    }
    let word32 = |at: usize| u32::from_le_bytes(bytes_at(&header, at));
    let word64 = |at: usize| u64::from_le_bytes(bytes_at(&header, at));
    if word32(0) != FRAME_MAGIC {
        return Err(torn(format!("bad frame magic {:#010x}", word32(0))));
    }
    if word32(52) != crc32(&header[..52]) {
        return Err(torn("wire header CRC mismatch".into()));
    }
    let kind = word32(4);
    let id = ChannelId::new(word64(8), word64(16));
    let round = word64(24);
    let from = word64(32) as usize;
    let to = word64(40) as usize;
    // The payload: page frames back to back, each read straight into the
    // buffer that becomes its item.
    let mut remaining = word32(48) as usize;
    let mut frames = Vec::new();
    while remaining > 0 {
        let mut raw = [0u8; FRAME_HEADER_BYTES];
        let overrun = |len: usize| {
            torn(format!(
                "a frame of {len} bytes is longer than the {remaining} payload bytes left"
            ))
        };
        if remaining < FRAME_HEADER_BYTES {
            return Err(overrun(FRAME_HEADER_BYTES));
        }
        if !read_full(stream, &mut raw, peer)? {
            return Err(torn("stream ended inside a message".into()));
        }
        let frame = FrameHeader::parse(raw).map_err(torn)?;
        if FRAME_HEADER_BYTES + frame.byte_len > remaining {
            return Err(overrun(FRAME_HEADER_BYTES + frame.byte_len));
        }
        let mut bytes = vec![0u8; frame.byte_len];
        if !read_full(stream, &mut bytes, peer)? {
            return Err(torn("stream ended inside a message".into()));
        }
        frame.check(&bytes).map_err(torn)?;
        remaining -= FRAME_HEADER_BYTES + frame.byte_len;
        frames.push((frame.records, bytes));
    }
    if kind == KIND_PAGES || kind == KIND_END_ROUND {
        inbox
            .open_round(id, round, MAX_HELD_ROUNDS)
            .map_err(|held| {
                torn(format!(
                    "round {round} would leave channel ({}, {}) holding {held} undrained \
                     rounds; the superstep barrier allows {MAX_HELD_ROUNDS}",
                    id.group, id.edge
                ))
            })?;
    }
    match kind {
        KIND_PAGES => {
            let pages = frames
                .into_iter()
                .map(|(records, bytes)| P::from_frame(records, bytes).map(Arc::new))
                .collect::<Result<_, _>>()
                .map_err(torn)?;
            inbox.insert(id, round, from, to, pages);
        }
        KIND_END_ROUND => inbox.finish(id, round, from),
        KIND_ALL_GATHER => {
            let values = decode_gather(frames).map_err(torn)?;
            inbox.gather_insert(id.group, round, from, values);
        }
        other => return Err(torn(format!("unknown message kind {other}"))),
    }
    Ok(())
}

/// The values of an `ALL_GATHER` message: one frame of little-endian `u64`s,
/// its record count the number of values.
fn decode_gather(frames: Vec<(u32, Vec<u8>)>) -> Result<Vec<u64>, String> {
    let [(count, bytes)] =
        <[_; 1]>::try_from(frames).map_err(|_| "an all-gather carries one frame".to_owned())?;
    let (words, tail) = bytes.as_chunks::<8>();
    if words.len() != count as usize || !tail.is_empty() {
        return Err("gather payload length mismatch".into());
    }
    Ok(words.iter().map(|word| u64::from_le_bytes(*word)).collect())
}

// --- The Transport implementation --------------------------------------------

struct TcpChannel<P> {
    id: ChannelId,
    partitions: usize,
    shared: Arc<Shared<P>>,
}

impl<P: WireCodec + Send + Sync + 'static> Transport<P> for TcpTransport<P> {
    fn cluster(&self) -> ClusterSpec {
        self.shared.spec
    }

    fn allocate(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }

    fn channel(&self, id: ChannelId, partitions: usize) -> Arc<dyn PageChannel<P>> {
        Arc::new(TcpChannel {
            id,
            partitions,
            shared: Arc::clone(&self.shared),
        })
    }

    fn all_gather(
        &self,
        id: ChannelId,
        round: u64,
        values: &[u64],
    ) -> Result<Vec<Vec<u64>>, CommError> {
        let shared = &self.shared;
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        for process in 0..shared.spec.processes {
            if process == shared.spec.index {
                continue;
            }
            shared.write_message(
                process,
                KIND_ALL_GATHER,
                id,
                round,
                shared.spec.index as u64,
                0,
                &[(values.len() as u32, &bytes)],
            )?;
        }
        shared
            .inbox
            .gather_insert(id.group, round, shared.spec.index, values.to_vec());
        shared
            .inbox
            .wait_gather(id.group, round, shared.spec.processes, shared.recv_timeout)
    }
}

impl<P: WireCodec + Send + Sync + 'static> PageChannel<P> for TcpChannel<P> {
    fn send(
        &self,
        round: u64,
        from: usize,
        to: usize,
        pages: Vec<Arc<P>>,
    ) -> Result<(), CommError> {
        if pages.is_empty() {
            return Ok(());
        }
        let shared = &self.shared;
        let owner = shared.spec.owner(to, self.partitions);
        if owner == shared.spec.index {
            // Loopback: the pages move by pointer, exactly like the local
            // backend.
            shared.inbox.insert(self.id, round, from, to, pages);
            return Ok(());
        }
        let frames: Vec<(u32, &[u8])> = pages.iter().map(|page| page.frame()).collect();
        // A message's payload length is a `u32`: a batch past it leaves as
        // several messages.
        let mut rest = &frames[..];
        while !rest.is_empty() {
            let mut len = 0usize;
            let fits = rest
                .iter()
                .take_while(|(_, bytes)| {
                    len += FRAME_HEADER_BYTES + bytes.len();
                    len <= u32::MAX as usize
                })
                .count();
            let (batch, tail) = rest.split_at(fits.max(1));
            shared.write_message(
                owner,
                KIND_PAGES,
                self.id,
                round,
                from as u64,
                to as u64,
                batch,
            )?;
            rest = tail;
        }
        Ok(())
    }

    fn finish_round(&self, round: u64, from: usize) -> Result<(), CommError> {
        let shared = &self.shared;
        for process in 0..shared.spec.processes {
            if process == shared.spec.index {
                continue;
            }
            shared.write_message(
                process,
                KIND_END_ROUND,
                self.id,
                round,
                from as u64,
                u64::MAX,
                &[],
            )?;
        }
        shared.inbox.finish(self.id, round, from);
        Ok(())
    }

    fn recv(&self, round: u64, to: usize) -> Result<Vec<(usize, Vec<Arc<P>>)>, CommError> {
        let shared = &self.shared;
        let owned = self
            .partitions
            .checked_div(shared.spec.processes)
            .unwrap_or(self.partitions)
            .max(1);
        shared.inbox.wait_recv(
            self.id,
            round,
            to,
            self.partitions,
            owned,
            shared.recv_timeout,
            |source| shared.spec.owner(source, self.partitions),
        )
    }
}

#[cfg(test)]
impl<P> TcpTransport<P> {
    /// Test-only: writes raw bytes straight onto the connection to `peer`,
    /// bypassing the framing — how the torn-stream tests corrupt the wire.
    pub(crate) fn inject_raw(&self, peer: usize, bytes: &[u8]) {
        let peer = self.shared.peers[peer].as_ref().expect("peer connection");
        let mut stream = peer.writer.lock().expect("peer writer lock");
        stream.write_all(bytes).expect("raw injection write");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The test payload: a length-checked byte blob.
    #[derive(Debug, PartialEq, Eq)]
    struct Blob(Vec<u8>);

    /// One "record" per byte: the count must match the length.
    impl WireCodec for Blob {
        fn frame(&self) -> (u32, &[u8]) {
            (self.0.len() as u32, &self.0)
        }
        fn from_frame(records: u32, bytes: Vec<u8>) -> Result<Self, String> {
            if records as usize != bytes.len() {
                return Err(format!("{records} records in {} bytes", bytes.len()));
            }
            Ok(Blob(bytes))
        }
    }

    /// A message as raw bytes: the wire header, with its CRC, on channel
    /// (0, 0), then `payload`.
    fn message(kind: u32, round: u64, from: u64, to: u64, payload: &[u8]) -> Vec<u8> {
        let id = ChannelId::new(0, 0);
        let mut bytes = wire_header(kind, id, round, from, to, payload.len() as u32).to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    fn free_coordinator_addr() -> SocketAddr {
        // Bind-then-drop: the kernel hands out a port that stays free long
        // enough for the pair to rendezvous on it.
        TcpListener::bind("127.0.0.1:0")
            .expect("probe listener")
            .local_addr()
            .expect("probe address")
    }

    fn pair(options: TcpOptions) -> (TcpTransport<Blob>, TcpTransport<Blob>) {
        let worker_options = options.clone();
        pair_with(options, worker_options)
    }

    fn pair_with(
        coordinator_options: TcpOptions,
        worker_options: TcpOptions,
    ) -> (TcpTransport<Blob>, TcpTransport<Blob>) {
        let addr = free_coordinator_addr();
        let worker = std::thread::spawn(move || {
            TcpTransport::<Blob>::connect_with(
                ClusterSpec::new(2, 1).unwrap(),
                addr,
                worker_options,
            )
        });
        let coordinator = TcpTransport::<Blob>::connect_with(
            ClusterSpec::new(2, 0).unwrap(),
            addr,
            coordinator_options,
        )
        .expect("coordinator connects");
        let worker = worker
            .join()
            .expect("worker thread")
            .expect("worker connects");
        (coordinator, worker)
    }

    #[test]
    fn pages_round_trip_across_the_wire_in_source_order() {
        let (a, b) = pair(TcpOptions::default());
        // 2 partitions over 2 processes: process 0 owns partition 0.
        let ca = a.channel(ChannelId::new(0, 0), 2);
        let cb = b.channel(ChannelId::new(0, 0), 2);
        ca.send(1, 0, 1, vec![Arc::new(Blob(vec![1, 2, 3]))])
            .unwrap();
        ca.send(1, 0, 1, vec![Arc::new(Blob(vec![4]))]).unwrap();
        ca.finish_round(1, 0).unwrap();
        cb.send(1, 1, 0, vec![Arc::new(Blob(vec![9; 100_000]))])
            .unwrap();
        cb.finish_round(1, 1).unwrap();
        let at_b = cb.recv(1, 1).unwrap();
        assert_eq!(at_b.len(), 1);
        assert_eq!(at_b[0].0, 0);
        assert_eq!(*at_b[0].1[0], Blob(vec![1, 2, 3]));
        assert_eq!(*at_b[0].1[1], Blob(vec![4]));
        let at_a = ca.recv(1, 0).unwrap();
        assert_eq!(at_a.len(), 1);
        assert_eq!(at_a[0].0, 1);
        assert_eq!(*at_a[0].1[0], Blob(vec![9; 100_000]));
    }

    #[test]
    fn all_gather_is_a_barrier_with_everyones_values() {
        let (a, b) = pair(TcpOptions::default());
        let id = ChannelId::new(7, 0);
        let from_b = std::thread::spawn(move || {
            let g = b.all_gather(id, 1, &[10, 11]).unwrap();
            (b, g)
        });
        let at_a = a.all_gather(id, 1, &[20, 21]).unwrap();
        let (_b, at_b) = from_b.join().unwrap();
        assert_eq!(at_a, vec![vec![20, 21], vec![10, 11]]);
        assert_eq!(at_b, at_a);
    }

    #[test]
    fn garbage_on_the_wire_surfaces_as_a_torn_stream() {
        let (a, b) = pair(TcpOptions::default());
        a.inject_raw(1, &[0xAB; 2 * WIRE_HEADER_BYTES]);
        let cb = b.channel(ChannelId::new(0, 0), 2);
        let err = cb.recv(1, 1).unwrap_err();
        assert!(
            matches!(err, CommError::TornStream { peer: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn crc_mismatch_surfaces_as_a_torn_stream() {
        let (a, b) = pair(TcpOptions::default());
        // A well-formed header whose checksum field is wrong.
        let mut frame = message(KIND_END_ROUND, 1, 0, u64::MAX, &[]);
        frame[52..56].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        a.inject_raw(1, &frame);
        let cb = b.channel(ChannelId::new(0, 0), 2);
        let err = cb.recv(1, 1).unwrap_err();
        assert!(
            matches!(err, CommError::TornStream { peer: 0, ref detail } if detail.contains("CRC")),
            "got {err:?}"
        );
    }

    #[test]
    fn a_frame_longer_than_the_payload_surfaces_as_a_torn_stream() {
        // Nothing may be sized from a frame length before the payload is
        // known to hold it: the frame header claims 100 bytes, the payload
        // ends after the header.
        let (a, b) = pair(TcpOptions::default());
        let payload = frame_header(100, &[0; 100]);
        a.inject_raw(1, &message(KIND_PAGES, 1, 0, 1, &payload));
        let cb = b.channel(ChannelId::new(0, 0), 2);
        let err = cb.recv(1, 1).unwrap_err();
        assert!(
            matches!(err, CommError::TornStream { peer: 0, ref detail }
                if detail.contains("a frame of 112 bytes is longer than the 12")),
            "got {err:?}"
        );
    }

    #[test]
    fn any_flipped_header_field_frame_header_or_page_byte_is_a_torn_stream() {
        // A PAGES message of two pages from partition 0 to partition 1.
        let pages = [Blob(vec![1, 2, 3]), Blob(vec![7; 40])];
        let mut payload = Vec::new();
        for page in &pages {
            crate::frame::write_frame(&mut payload, page).unwrap();
        }
        let intact = message(KIND_PAGES, 1, 0, 1, &payload);
        let deliver = |bytes: &[u8]| {
            let (a, b) = pair(TcpOptions::default());
            a.inject_raw(1, bytes);
            a.inject_raw(1, &message(KIND_END_ROUND, 1, 0, u64::MAX, &[]));
            let cb = b.channel(ChannelId::new(0, 0), 2);
            cb.finish_round(1, 1).unwrap();
            cb.recv(1, 1)
        };
        // The intact message arrives: the corruptions below are the only
        // difference.
        let got = deliver(&intact).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!([&*got[0].1[0], &*got[0].1[1]], [&pages[0], &pages[1]]);
        // The first byte of every wire-header field (magic, kind, group,
        // edge, round, from, to, payload length, CRC), every byte of the
        // first frame header, and a page byte of each frame.
        let fields = [0, 4, 8, 16, 24, 32, 40, 48, 52];
        let first_frame_header = WIRE_HEADER_BYTES..WIRE_HEADER_BYTES + FRAME_HEADER_BYTES;
        let page_bytes = [WIRE_HEADER_BYTES + 13, intact.len() - 1];
        for at in fields
            .into_iter()
            .chain(first_frame_header)
            .chain(page_bytes)
        {
            let mut corrupt = intact.clone();
            corrupt[at] ^= 0x01;
            let err = deliver(&corrupt).unwrap_err();
            assert!(
                matches!(err, CommError::TornStream { peer: 0, .. }),
                "byte {at}: got {err:?}"
            );
        }
    }

    #[test]
    fn truncated_frame_surfaces_as_a_torn_stream() {
        let (a, b) = pair(TcpOptions::default());
        // A header promising 64 payload bytes, then the connection dies
        // after 3.
        let mut frame = message(KIND_PAGES, 1, 0, 1, &[0; 64]);
        frame.truncate(WIRE_HEADER_BYTES + 3);
        a.inject_raw(1, &frame);
        drop(a);
        let cb = b.channel(ChannelId::new(0, 0), 2);
        let err = cb.recv(1, 1).unwrap_err();
        assert!(
            matches!(err, CommError::TornStream { peer: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn peer_disconnect_mid_round_surfaces_as_peer_lost_not_a_hang() {
        let (a, b) = pair(TcpOptions::default());
        let cb = b.channel(ChannelId::new(0, 0), 2);
        cb.finish_round(1, 1).unwrap();
        drop(a); // Peer 0 goes away before finishing round 1.
        let err = cb.recv(1, 1).unwrap_err();
        assert!(
            matches!(err, CommError::PeerLost { peer: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn a_peer_opening_more_than_the_held_round_limit_is_a_torn_stream() {
        // A peer that runs ahead of the barrier must surface as a typed
        // error, not as inbox growth.  Raw (but valid) END_ROUND messages
        // for rounds 1..=MAX_HELD_ROUNDS are held; one more round trips the
        // guard.  (A short wait bound: without the guard the probe below
        // would wait out the default one.)
        let (a, b) = pair(TcpOptions {
            recv_timeout: Duration::from_secs(10),
            ..Default::default()
        });
        let cb = b.channel(ChannelId::new(0, 0), 2);
        let limit = MAX_HELD_ROUNDS as u64;
        for round in 1..=limit {
            a.inject_raw(1, &message(KIND_END_ROUND, round, 0, u64::MAX, &[]));
        }
        // The held rounds are intact: each drains once the local source
        // finishes it.
        for round in 1..=limit {
            cb.finish_round(round, 1).unwrap();
            assert!(cb.recv(round, 1).unwrap().is_empty(), "round {round}");
        }
        // The drained channel holds `limit` rounds again; one more trips the
        // guard.
        for round in limit + 1..=2 * limit + 1 {
            a.inject_raw(1, &message(KIND_END_ROUND, round, 0, u64::MAX, &[]));
        }
        // The overflow poisons the peer; a wait on a round the dead peer
        // never finished surfaces the typed error.
        let probe = 2 * limit + 2;
        cb.finish_round(probe, 1).unwrap();
        let err = cb.recv(probe, 1).unwrap_err();
        assert!(
            matches!(err, CommError::TornStream { peer: 0, ref detail }
                if detail.contains("undrained rounds")),
            "got {err:?}"
        );
    }

    #[test]
    fn superstep_paced_rounds_arrive_intact_and_never_trip_the_guard() {
        // Two processes, two partitions each, 200 rounds paced as the
        // workset driver paces them: send → finish_round → recv →
        // all_gather.  Each side sleeps a seeded random time before it
        // receives, so either may lag; the barrier alone must keep every
        // channel within the held-round limit.
        const ROUNDS: u64 = 200;
        const PARTITIONS: usize = 4;
        let (a, b) = pair(TcpOptions::default());
        // Page contents name their round, source, target and position.
        let page = |round: u64, from: usize, to: usize, seq: usize| -> Vec<u8> {
            let len = 1 + (round as usize * 7 + from * 3 + to + seq) % 64;
            let tag = [round as u8, from as u8, to as u8, seq as u8];
            tag.iter().copied().cycle().take(len).collect()
        };
        let run = |transport: TcpTransport<Blob>, seed: u64| {
            let spec = transport.cluster();
            let channel = transport.channel(ChannelId::new(0, 0), PARTITIONS);
            let barrier = ChannelId::new(1, 0);
            let mut rng = seed;
            for round in 1..=ROUNDS {
                let owned = spec.owned_range(PARTITIONS);
                for from in owned.clone() {
                    for to in 0..PARTITIONS {
                        // Source `from` sends `from + 1` pages, none to itself.
                        let pages = (0..from + 1)
                            .filter(|_| from != to)
                            .map(|seq| Arc::new(Blob(page(round, from, to, seq))))
                            .collect();
                        channel.send(round, from, to, pages).unwrap();
                    }
                    channel.finish_round(round, from).unwrap();
                }
                // SplitMix64: up to 2 ms before this side receives.
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                std::thread::sleep(Duration::from_micros((z ^ (z >> 31)) % 2_000));
                for to in owned {
                    let got: Vec<(usize, Vec<Vec<u8>>)> = channel
                        .recv(round, to)
                        .unwrap()
                        .into_iter()
                        .map(|(from, pages)| (from, pages.iter().map(|p| p.0.clone()).collect()))
                        .collect();
                    let expected: Vec<(usize, Vec<Vec<u8>>)> = (0..PARTITIONS)
                        .filter(|&from| from != to)
                        .map(|from| {
                            (
                                from,
                                (0..from + 1)
                                    .map(|seq| page(round, from, to, seq))
                                    .collect(),
                            )
                        })
                        .collect();
                    assert_eq!(got, expected, "round {round} at target {to}");
                }
                // Drained, and no peer can open the next round before the
                // gather below: the channel holds nothing.
                let held = transport.shared.inbox.state.lock().unwrap().channels[&(0, 0)].len();
                assert_eq!(held, 0, "round {round}");
                transport.all_gather(barrier, round, &[round]).unwrap();
            }
            transport
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(|| run(b, 2));
            (run(a, 1), other.join().expect("worker thread"))
        });
        for transport in [&a, &b] {
            let state = transport.shared.inbox.state.lock().unwrap();
            let held: usize = state.channels.values().map(HashMap::len).sum();
            assert_eq!(held, 0, "every round drained");
            assert!(state.dead.is_empty(), "no peer torn");
        }
    }

    #[test]
    fn protocol_version_mismatch_fails_the_handshake() {
        let addr = free_coordinator_addr();
        let imposter = std::thread::spawn(move || {
            // Dial the coordinator speaking protocol version 999.
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut stream = loop {
                match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                    Ok(s) => break s,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    Err(e) => panic!("imposter cannot dial: {e}"),
                }
            };
            let spec = ClusterSpec::new(2, 1).unwrap();
            let mut hello = handshake_bytes(&spec, 1);
            hello[4..8].copy_from_slice(&999u32.to_le_bytes());
            let crc = crc32(&hello[0..20]);
            hello[20..24].copy_from_slice(&crc.to_le_bytes());
            stream.write_all(&hello).expect("imposter hello");
            stream
        });
        let result = TcpTransport::<Blob>::connect_with(
            ClusterSpec::new(2, 0).unwrap(),
            addr,
            TcpOptions::default(),
        );
        let _stream = imposter.join().unwrap();
        let err = result.expect_err("version mismatch must fail");
        assert!(
            matches!(err, CommError::Handshake(ref d) if d.contains("version")),
            "got {err:?}"
        );
    }

    #[test]
    fn injected_connection_drop_is_a_typed_peer_loss_on_both_sides() {
        use std::sync::atomic::AtomicBool;
        let armed = Arc::new(AtomicBool::new(false));
        let hook_armed = Arc::clone(&armed);
        let options = TcpOptions {
            fault_hook: Some(Arc::new(move || hook_armed.load(Ordering::Relaxed))),
            ..Default::default()
        };
        // Only the coordinator carries the hook.
        let addr = free_coordinator_addr();
        let worker = std::thread::spawn(move || {
            TcpTransport::<Blob>::connect_with(
                ClusterSpec::new(2, 1).unwrap(),
                addr,
                TcpOptions::default(),
            )
            .expect("worker connects")
        });
        let a = TcpTransport::<Blob>::connect_with(ClusterSpec::new(2, 0).unwrap(), addr, options)
            .expect("coordinator connects");
        let b = worker.join().unwrap();
        armed.store(true, Ordering::Relaxed);
        let ca = a.channel(ChannelId::new(0, 0), 2);
        let err = ca.send(1, 0, 1, vec![Arc::new(Blob(vec![1]))]).unwrap_err();
        assert!(
            matches!(err, CommError::PeerLost { ref detail, .. } if detail.contains("injected")),
            "got {err:?}"
        );
        // The victim's side observes the drop too — as an EOF-driven loss.
        let cb = b.channel(ChannelId::new(0, 0), 2);
        let err = cb.recv(1, 1).unwrap_err();
        assert!(
            matches!(err, CommError::PeerLost { peer: 0, .. }),
            "got {err:?}"
        );
    }
}
