//! Transport layer for the exchange: page channels between workers behind
//! one [`Transport`] trait, with an in-process backend ([`LocalTransport`])
//! and a TCP backend ([`TcpTransport`](crate::tcp::TcpTransport)).
//!
//! The engine's exchanges already move sealed binary pages — a wire format
//! with exact serialized widths.  This crate adds the wire: a channel
//! abstraction that ships batches of reference-counted pages between
//! *partitions* (the engine's unit of parallelism), where each of the
//! cluster's processes owns one contiguous block of partitions.  A
//! single-process cluster degenerates to pure pointer moves through the same
//! call path, so operator code is transport-agnostic (the exemplar is
//! timely-dataflow's `communication` crate, which puts in-process and TCP
//! allocation behind one allocator interface).
//!
//! The crate is deliberately payload-generic: it knows nothing about the
//! engine's `RecordPage` (the engine depends on this crate, not the other
//! way around).  Anything implementing [`WireCodec`] can travel as the
//! contents of a [`frame`] — the one checksummed page frame the engine's
//! spill runs and checkpoints use on disk too; the engine provides the codec
//! for its page type.
//!
//! ## Determinism contract
//!
//! Channel identifiers are allocated by [`Transport::allocate`] from a
//! process-local counter.  Every process of a cluster must therefore build
//! its dataflows in the same order (the usual SPMD discipline) so that the
//! n-th allocation names the same logical exchange everywhere.  Within a
//! channel, [`PageChannel::recv`] returns batches ordered by source
//! partition — exactly the source-major append order a single-process
//! exchange produces — which is what makes multi-process runs byte-identical
//! to the single-process oracle, superstep for superstep.

#![warn(missing_docs)]

pub mod frame;
pub mod tcp;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable bounding how long a blocking [`PageChannel::recv`]
/// or [`Transport::all_gather`] waits before surfacing
/// [`CommError::Timeout`] (seconds).  The default is
/// [`DEFAULT_TIMEOUT_SECS`]; a lost peer usually surfaces as
/// [`CommError::PeerLost`] long before the timeout, which exists so that a
/// distributed deadlock becomes a typed error instead of a hang.
pub const TIMEOUT_ENV: &str = "SPINNING_COMM_TIMEOUT_SECS";

/// Default blocking-wait bound in seconds (see [`TIMEOUT_ENV`]).
pub const DEFAULT_TIMEOUT_SECS: u64 = 300;

/// Parses the value `raw` of the numeric environment variable `name`.
/// `None` / empty means "unset" (use the default); a malformed or zero value
/// is an error — zero would turn every blocking wait into an instant timeout
/// or leave a channel no credit to send with, and silently ignoring garbage
/// hid misconfigured runs behind their defaults.
pub fn parse_positive<T>(name: &str, raw: Option<&str>) -> Result<Option<T>, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<T>() {
        Ok(value) if value == T::from(0) => Err(format!("{name}={trimmed:?} must be at least 1")),
        Ok(value) => Ok(Some(value)),
        Err(_) => Err(format!("{name}={trimmed:?} is not a positive whole number")),
    }
}

/// Reads the numeric environment variable `name` through [`parse_positive`].
/// A malformed or zero value is rejected loudly — a stderr warning, and the
/// variable is treated as unset so the caller's default applies — instead of
/// being silently ignored.
pub fn positive_from_env<T>(name: &str) -> Option<T>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let raw = std::env::var(name).ok();
    parse_positive(name, raw.as_deref()).unwrap_or_else(|detail| {
        eprintln!("warning: {detail}; using the default");
        None
    })
}

/// Reads the configured blocking-wait bound from [`TIMEOUT_ENV`].
pub fn timeout_from_env() -> Duration {
    Duration::from_secs(positive_from_env(TIMEOUT_ENV).unwrap_or(DEFAULT_TIMEOUT_SECS))
}

// --- Cluster shape -----------------------------------------------------------

/// The shape of the cluster: how many worker processes there are and which
/// one this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Total number of worker processes.
    pub processes: usize,
    /// This process's index in `0..processes`.
    pub index: usize,
}

impl ClusterSpec {
    /// A single-process "cluster" — the shape every in-process run has.
    pub fn single() -> ClusterSpec {
        ClusterSpec {
            processes: 1,
            index: 0,
        }
    }

    /// Creates a spec, validating `index < processes` and `processes >= 1`.
    pub fn new(processes: usize, index: usize) -> Result<ClusterSpec, CommError> {
        if processes == 0 || index >= processes {
            return Err(CommError::Handshake(format!(
                "invalid cluster spec: index {index} of {processes} processes"
            )));
        }
        Ok(ClusterSpec { processes, index })
    }

    /// Partitions each process owns when `parallelism` global partitions are
    /// split over the cluster.  Errors unless the split is even — contiguous
    /// equal blocks are what keeps partition ownership a pure division.
    pub fn partitions_per_process(&self, parallelism: usize) -> Result<usize, CommError> {
        if parallelism == 0 || !parallelism.is_multiple_of(self.processes) {
            return Err(CommError::Handshake(format!(
                "parallelism {parallelism} is not divisible by {} processes",
                self.processes
            )));
        }
        Ok(parallelism / self.processes)
    }

    /// The process owning `partition` out of `parallelism` global partitions
    /// (contiguous blocks: process `k` owns `k*per .. (k+1)*per`).
    pub fn owner(&self, partition: usize, parallelism: usize) -> usize {
        let per = parallelism / self.processes.max(1);
        (partition / per.max(1)).min(self.processes - 1)
    }

    /// Whether this process owns `partition`.
    pub fn owns(&self, partition: usize, parallelism: usize) -> bool {
        self.owner(partition, parallelism) == self.index
    }

    /// The contiguous range of partitions this process owns.
    pub fn owned_range(&self, parallelism: usize) -> std::ops::Range<usize> {
        let per = parallelism / self.processes.max(1);
        self.index * per..(self.index + 1) * per
    }
}

/// Identifies one logical channel: a channel group (one per exchange scope,
/// from [`Transport::allocate`]) and an edge within it (e.g. one exchange of
/// a multi-input operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId {
    /// The channel group, from [`Transport::allocate`].
    pub group: u64,
    /// The edge within the group.
    pub edge: u64,
}

impl ChannelId {
    /// Creates a channel id.
    pub fn new(group: u64, edge: u64) -> ChannelId {
        ChannelId { group, edge }
    }
}

// --- Errors ------------------------------------------------------------------

/// A typed transport failure.  Everything here is `Clone` so one fatal
/// connection event can be surfaced to every waiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The byte stream from a peer was torn: a truncated message, a bad
    /// magic, a page frame overrunning its message, or a CRC mismatch.
    TornStream {
        /// Peer process index.
        peer: usize,
        /// What exactly was wrong with the stream.
        detail: String,
    },
    /// A peer connection was lost (EOF, reset, or an injected drop).
    PeerLost {
        /// Peer process index.
        peer: usize,
        /// The underlying condition.
        detail: String,
    },
    /// A blocking receive or gather exceeded the configured bound
    /// (see [`TIMEOUT_ENV`]).
    Timeout {
        /// What the caller was waiting for.
        waiting_for: String,
    },
    /// Cluster setup failed: an invalid spec, a rendezvous that could not be
    /// established, or a peer speaking a different protocol.
    Handshake(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::TornStream { peer, detail } => {
                write!(f, "torn stream from peer {peer}: {detail}")
            }
            CommError::PeerLost { peer, detail } => {
                write!(f, "lost connection to peer {peer}: {detail}")
            }
            CommError::Timeout { waiting_for } => {
                write!(f, "communication timeout waiting for {waiting_for}")
            }
            CommError::Handshake(detail) => write!(f, "cluster handshake failed: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

// --- Payload codec -----------------------------------------------------------

/// A channel item (the engine's sealed page) as the contents of one
/// [`frame`]: the TCP backend ships those bytes as they are and builds the
/// item on the receiving side from the buffer it read them into.  The local
/// backend never invokes the codec — pages move by pointer.
pub trait WireCodec: Sized {
    /// The item's record count and serialized bytes.
    fn frame(&self) -> (u32, &[u8]);
    /// Builds an item from a checksummed frame's record count and bytes,
    /// validating their structure (the wire is outside input).
    fn from_frame(records: u32, bytes: Vec<u8>) -> Result<Self, String>;
}

/// Fault hook consulted once per outbound data message by the TCP backend:
/// return `true` to drop the connection at this point (the engine adapts its
/// seeded `FaultInjector` to this, keeping this crate dependency-free).
pub type FaultHook = Arc<dyn Fn() -> bool + Send + Sync>;

// --- The transport traits ----------------------------------------------------

/// A cluster transport: allocates page channels between the cluster's
/// partitions and global barriers between its processes.
pub trait Transport<P: Send + Sync>: Send + Sync {
    /// The cluster shape this transport connects.
    fn cluster(&self) -> ClusterSpec;

    /// Allocates a fresh channel-group id from a process-local counter.
    /// Under the SPMD discipline (see the crate docs) every process's n-th
    /// allocation names the same logical exchange.
    fn allocate(&self) -> u64;

    /// Opens the channel `id` spanning `partitions` global partitions.
    /// Opening the same id twice returns the same underlying channel.
    fn channel(&self, id: ChannelId, partitions: usize) -> Arc<dyn PageChannel<P>>;

    /// Exchanges `values` with every process of the cluster at `(id, round)`
    /// and returns all processes' values, indexed by process.  Doubles as a
    /// cluster-wide barrier; each process must call it exactly once per
    /// `(id, round)`.
    fn all_gather(
        &self,
        id: ChannelId,
        round: u64,
        values: &[u64],
    ) -> Result<Vec<Vec<u64>>, CommError>;
}

/// One page channel: batches of `Arc<P>` flow from source partitions to
/// target partitions in numbered rounds (a round is one exchange — e.g. one
/// superstep).
pub trait PageChannel<P: Send + Sync>: Send + Sync {
    /// Ships `pages` from partition `from` to partition `to` in `round`.
    /// Targets owned by this process receive the `Arc`s by pointer; remote
    /// targets receive them through the wire codec.  May be called
    /// concurrently for distinct `from` partitions.
    fn send(&self, round: u64, from: usize, to: usize, pages: Vec<Arc<P>>)
        -> Result<(), CommError>;

    /// Declares that source partition `from` has sent everything it will
    /// send in `round` (to any target).  Every source partition must finish
    /// every round it participates in, or receivers block until timeout.
    fn finish_round(&self, round: u64, from: usize) -> Result<(), CommError>;

    /// Receives everything addressed to partition `to` in `round`: blocks
    /// until **all** source partitions finished the round, then returns the
    /// non-empty batches ordered by source partition.  Must be called
    /// exactly once per owned target partition per round.
    fn recv(&self, round: u64, to: usize) -> Result<SourceBatches<P>, CommError>;
}

/// A received round for one target partition: the non-empty page batches,
/// ordered by source partition — the same order a single-process exchange
/// appends them in.
pub type SourceBatches<P> = Vec<(usize, Vec<Arc<P>>)>;

// --- CRC-32 (the one implementation: checksums the TCP handshake and wire
// headers here and every page frame, on the wire and in the engine's spill
// runs and checkpoint files) ---------------------------------------------------

/// The slice-by-8 CRC-32 (IEEE) tables, built at compile time.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE, reflected — the zlib/PNG polynomial) over `bytes`: the
/// checksum of the TCP handshake and wire headers and, over a record count
/// and page bytes, of every [`frame`].
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Folds `bytes` into the running (uninverted) CRC-32 state `crc`.
/// Slice-by-8: eight bytes per step through eight lookup tables, the tail
/// byte by byte.
pub(crate) fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

// --- Shared inbox: the demux state behind both backends ----------------------

/// Everything received but not yet consumed, plus per-peer poison entries
/// fatal connection events write so waiters that depend on a lost peer
/// unblock with a typed error.
pub(crate) struct Inbox<P> {
    state: Mutex<InboxState<P>>,
    cv: Condvar,
}

struct InboxState<P> {
    /// `(group, edge) -> round -> state`.
    channels: HashMap<(u64, u64), HashMap<u64, RoundState<P>>>,
    /// `(group, round) -> process -> gathered values`.
    gathers: HashMap<(u64, u64), BTreeMap<usize, Vec<u64>>>,
    /// Peers whose connection failed, with the typed error.  A wait fails
    /// only when data it is still missing is owed by a dead peer: TCP
    /// ordering guarantees everything a peer sent was demultiplexed before
    /// its EOF was observed, so a peer that exits after finishing its run
    /// never takes down a survivor that only needs data from live peers.
    dead: BTreeMap<usize, CommError>,
}

struct RoundState<P> {
    /// `to -> from -> pages`, ordered by source so draining a target yields
    /// the source-major order the single-process exchange produces.
    batches: BTreeMap<usize, BTreeMap<usize, Vec<Arc<P>>>>,
    /// Source partitions that finished the round.
    finished: HashSet<usize>,
    /// Target partitions already drained by [`PageChannel::recv`].
    drained: HashSet<usize>,
}

impl<P> Default for RoundState<P> {
    fn default() -> Self {
        RoundState {
            batches: BTreeMap::new(),
            finished: HashSet::new(),
            drained: HashSet::new(),
        }
    }
}

impl<P> Inbox<P> {
    pub(crate) fn new() -> Arc<Inbox<P>> {
        Arc::new(Inbox {
            state: Mutex::new(InboxState {
                channels: HashMap::new(),
                gathers: HashMap::new(),
                dead: BTreeMap::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Marks `peer` dead: any wait still missing data that `peer` owes gets
    /// `error`.  The first error per peer wins.
    pub(crate) fn poison(&self, peer: usize, error: CommError) {
        let mut state = self.state.lock().expect("inbox lock");
        state.dead.entry(peer).or_insert(error);
        self.cv.notify_all();
    }

    /// Delivers a batch of pages into `(id, round, from, to)`.
    ///
    /// Insertions never fail on a poisoned inbox: a peer that finished its
    /// run closes its connections cleanly, and the poison that EOF writes
    /// must not clobber data (local or already-received) that completes a
    /// wait.  Only waits that cannot complete surface the poison.
    pub(crate) fn deliver(
        &self,
        id: ChannelId,
        round: u64,
        from: usize,
        to: usize,
        pages: Vec<Arc<P>>,
    ) {
        let mut state = self.state.lock().expect("inbox lock");
        let round_state = state
            .channels
            .entry((id.group, id.edge))
            .or_default()
            .entry(round)
            .or_default();
        round_state
            .batches
            .entry(to)
            .or_default()
            .entry(from)
            .or_default()
            .extend(pages);
    }

    /// Marks source partition `from` finished in `(id, round)` (see
    /// [`Inbox::deliver`] on why insertions ignore the poison slot).
    pub(crate) fn finish(&self, id: ChannelId, round: u64, from: usize) {
        let mut state = self.state.lock().expect("inbox lock");
        state
            .channels
            .entry((id.group, id.edge))
            .or_default()
            .entry(round)
            .or_default()
            .finished
            .insert(from);
        drop(state);
        self.cv.notify_all();
    }

    /// Opens `round` of channel `id` unless the channel would then hold
    /// more than `limit` undrained rounds; on refusal returns how many it
    /// would have held.  A round already held is always accepted.
    pub(crate) fn open_round(&self, id: ChannelId, round: u64, limit: usize) -> Result<(), usize> {
        let mut state = self.state.lock().expect("inbox lock");
        let rounds = state.channels.entry((id.group, id.edge)).or_default();
        if !rounds.contains_key(&round) {
            if rounds.len() >= limit {
                return Err(rounds.len() + 1);
            }
            rounds.insert(round, RoundState::default());
        }
        Ok(())
    }

    /// Blocks until all `partitions` sources finished `(id, round)`, then
    /// drains target `to`'s batches in source order.  `owned_targets` bounds
    /// the round's lifetime: once every owned target drained, the round's
    /// state is dropped.  `owner` maps a source partition to the process
    /// that hosts it, so a dead peer only fails waits it still owes data.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wait_recv(
        &self,
        id: ChannelId,
        round: u64,
        to: usize,
        partitions: usize,
        owned_targets: usize,
        timeout: Duration,
        owner: impl Fn(usize) -> usize,
    ) -> Result<SourceBatches<P>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("inbox lock");
        loop {
            // Completeness wins over poison: a peer that finished its run
            // closes cleanly after sending everything, and TCP ordering put
            // that data in the inbox before the EOF, so a round whose data
            // is all here must drain despite dead peers.
            let round_state = state
                .channels
                .get(&(id.group, id.edge))
                .and_then(|rounds| rounds.get(&round));
            let complete = round_state
                .map(|r| r.finished.len() >= partitions)
                .unwrap_or(false);
            if complete {
                break;
            }
            // An unfinished source hosted by a dead peer can never finish.
            if !state.dead.is_empty() {
                for source in 0..partitions {
                    let finished = round_state
                        .map(|r| r.finished.contains(&source))
                        .unwrap_or(false);
                    if !finished {
                        if let Some(error) = state.dead.get(&owner(source)) {
                            return Err(error.clone());
                        }
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    waiting_for: format!(
                        "channel ({}, {}) round {round} at target {to}",
                        id.group, id.edge
                    ),
                });
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("inbox lock");
            state = next;
        }
        let rounds = state
            .channels
            .get_mut(&(id.group, id.edge))
            .expect("channel present");
        let round_state = rounds.get_mut(&round).expect("round present");
        let batches = round_state
            .batches
            .remove(&to)
            .map(|by_from| by_from.into_iter().collect())
            .unwrap_or_default();
        round_state.drained.insert(to);
        if round_state.drained.len() >= owned_targets {
            rounds.remove(&round);
        }
        Ok(batches)
    }

    /// Records `values` from `process` at `(group, round)` (see
    /// [`Inbox::deliver`] on why insertions ignore the poison slot).
    pub(crate) fn gather_insert(&self, group: u64, round: u64, process: usize, values: Vec<u64>) {
        let mut state = self.state.lock().expect("inbox lock");
        state
            .gathers
            .entry((group, round))
            .or_default()
            .insert(process, values);
        drop(state);
        self.cv.notify_all();
    }

    /// Blocks until all `processes` contributed to `(group, round)`, then
    /// returns the values indexed by process and drops the gather state.
    pub(crate) fn wait_gather(
        &self,
        group: u64,
        round: u64,
        processes: usize,
        timeout: Duration,
    ) -> Result<Vec<Vec<u64>>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("inbox lock");
        loop {
            // Completeness wins over poison, as in `wait_recv`.
            let gathered = state.gathers.get(&(group, round));
            if gathered.map(|g| g.len() >= processes).unwrap_or(false) {
                break;
            }
            // A dead peer that has not contributed yet never will.
            if !state.dead.is_empty() {
                for process in 0..processes {
                    let present = gathered.map(|g| g.contains_key(&process)).unwrap_or(false);
                    if !present {
                        if let Some(error) = state.dead.get(&process) {
                            return Err(error.clone());
                        }
                    }
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    waiting_for: format!("all_gather (group {group}, round {round})"),
                });
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("inbox lock");
            state = next;
        }
        let gathered = state
            .gathers
            .remove(&(group, round))
            .expect("gather present");
        Ok(gathered.into_values().collect())
    }
}

// --- The in-process backend --------------------------------------------------

/// The in-process transport: a single-process cluster whose channels move
/// `Arc` page pointers through the shared inbox — the refactored form of the
/// executor's original direct gather, with identical ordering and no
/// serialization.
pub struct LocalTransport<P> {
    inbox: Arc<Inbox<P>>,
    counter: AtomicU64,
    timeout: Duration,
}

impl<P> fmt::Debug for LocalTransport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalTransport").finish_non_exhaustive()
    }
}

impl<P: Send + Sync + 'static> Default for LocalTransport<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Send + Sync + 'static> LocalTransport<P> {
    /// Creates the single-process transport.
    pub fn new() -> LocalTransport<P> {
        LocalTransport {
            inbox: Inbox::new(),
            counter: AtomicU64::new(0),
            timeout: timeout_from_env(),
        }
    }
}

struct LocalChannel<P> {
    id: ChannelId,
    partitions: usize,
    inbox: Arc<Inbox<P>>,
    timeout: Duration,
}

impl<P: Send + Sync + 'static> Transport<P> for LocalTransport<P> {
    fn cluster(&self) -> ClusterSpec {
        ClusterSpec::single()
    }

    fn allocate(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }

    fn channel(&self, id: ChannelId, partitions: usize) -> Arc<dyn PageChannel<P>> {
        Arc::new(LocalChannel {
            id,
            partitions,
            inbox: Arc::clone(&self.inbox),
            timeout: self.timeout,
        })
    }

    fn all_gather(
        &self,
        _id: ChannelId,
        _round: u64,
        values: &[u64],
    ) -> Result<Vec<Vec<u64>>, CommError> {
        Ok(vec![values.to_vec()])
    }
}

impl<P: Send + Sync + 'static> PageChannel<P> for LocalChannel<P> {
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
        self.inbox.deliver(self.id, round, from, to, pages);
        Ok(())
    }

    fn finish_round(&self, round: u64, from: usize) -> Result<(), CommError> {
        self.inbox.finish(self.id, round, from);
        Ok(())
    }

    fn recv(&self, round: u64, to: usize) -> Result<Vec<(usize, Vec<Arc<P>>)>, CommError> {
        self.inbox.wait_recv(
            self.id,
            round,
            to,
            self.partitions,
            self.partitions,
            self.timeout,
            // Single process: every partition lives here.
            |_| 0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_spec_ownership_is_contiguous_blocks() {
        let spec = ClusterSpec::new(3, 1).unwrap();
        assert_eq!(spec.partitions_per_process(6).unwrap(), 2);
        assert!(spec.partitions_per_process(7).is_err());
        assert_eq!(spec.owner(0, 6), 0);
        assert_eq!(spec.owner(1, 6), 0);
        assert_eq!(spec.owner(2, 6), 1);
        assert_eq!(spec.owner(5, 6), 2);
        assert_eq!(spec.owned_range(6), 2..4);
        assert!(spec.owns(3, 6));
        assert!(!spec.owns(4, 6));
        assert!(ClusterSpec::new(3, 3).is_err());
        assert!(ClusterSpec::new(0, 0).is_err());
    }

    #[test]
    fn local_channel_delivers_in_source_major_order() {
        let transport: LocalTransport<String> = LocalTransport::new();
        let group = transport.allocate();
        let channel = transport.channel(ChannelId::new(group, 0), 3);
        // Sources send out of order; the receiver must still see 0, 1, 2.
        channel
            .send(1, 2, 0, vec![Arc::new("from-2".to_owned())])
            .unwrap();
        channel
            .send(1, 1, 0, vec![Arc::new("from-1a".to_owned())])
            .unwrap();
        channel
            .send(1, 1, 0, vec![Arc::new("from-1b".to_owned())])
            .unwrap();
        // Empty sends are dropped, not delivered as empty batches.
        channel.send(1, 0, 0, Vec::new()).unwrap();
        for from in 0..3 {
            channel.finish_round(1, from).unwrap();
        }
        let received = channel.recv(1, 0).unwrap();
        let order: Vec<(usize, Vec<&str>)> = received
            .iter()
            .map(|(from, pages)| (*from, pages.iter().map(|p| p.as_str()).collect()))
            .collect();
        assert_eq!(
            order,
            vec![(1, vec!["from-1a", "from-1b"]), (2, vec!["from-2"])]
        );
        assert!(channel.recv(1, 1).unwrap().is_empty());
        assert!(channel.recv(1, 2).unwrap().is_empty());
    }

    #[test]
    fn local_rounds_are_independent_and_cleaned_up() {
        let transport: LocalTransport<u64> = LocalTransport::new();
        let channel = transport.channel(ChannelId::new(transport.allocate(), 0), 2);
        for round in 1..=3u64 {
            channel.send(round, 0, 1, vec![Arc::new(round)]).unwrap();
            channel.finish_round(round, 0).unwrap();
            channel.finish_round(round, 1).unwrap();
            let got = channel.recv(round, 1).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(*got[0].1[0], round);
            assert!(channel.recv(round, 0).unwrap().is_empty());
        }
        let state = transport.inbox.state.lock().unwrap();
        let rounds = state.channels.values().map(HashMap::len).sum::<usize>();
        assert_eq!(rounds, 0, "drained rounds must not accumulate");
    }

    #[test]
    fn local_all_gather_returns_own_values() {
        let transport: LocalTransport<u64> = LocalTransport::new();
        let id = ChannelId::new(transport.allocate(), 0);
        let gathered = transport.all_gather(id, 7, &[1, 2, 3]).unwrap();
        assert_eq!(gathered, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn poisoned_inbox_fails_incomplete_waits_but_drains_complete_rounds() {
        let transport: LocalTransport<u64> = LocalTransport::new();
        let channel = transport.channel(ChannelId::new(0, 0), 2);
        // Round 1 completes before the poison lands: both sources finish.
        channel.send(1, 0, 0, vec![Arc::new(9)]).unwrap();
        channel.finish_round(1, 0).unwrap();
        channel.finish_round(1, 1).unwrap();
        transport.inbox.poison(
            0,
            CommError::PeerLost {
                peer: 0,
                detail: "test".into(),
            },
        );
        // Completeness wins over poison: the finished round still drains —
        // a peer that closed cleanly after sending everything must not
        // clobber data already here.
        let batches = channel.recv(1, 0).unwrap();
        assert_eq!(batches.len(), 1);
        // A wait still owed data by the dead peer surfaces its error.
        let err = channel.recv(2, 0).unwrap_err();
        assert!(matches!(err, CommError::PeerLost { peer: 0, .. }));
    }

    #[test]
    fn a_dead_peer_only_fails_waits_it_still_owes_data() {
        let transport: LocalTransport<u64> = LocalTransport::new();
        let channel = Arc::new(LocalChannel::<u64> {
            id: ChannelId::new(0, 0),
            partitions: 2,
            inbox: Arc::clone(&transport.inbox),
            timeout: Duration::from_millis(50),
        });
        // Peer 9 dies, but neither source partition of this channel lives
        // there (the local owner map sends everything to process 0), so the
        // wait times out instead of surfacing the unrelated peer loss.
        transport.inbox.poison(
            9,
            CommError::PeerLost {
                peer: 9,
                detail: "unrelated".into(),
            },
        );
        channel.finish_round(1, 0).unwrap();
        let err = channel.recv(1, 0).unwrap_err();
        assert!(matches!(err, CommError::Timeout { .. }), "got {err:?}");
    }

    #[test]
    fn timeout_parsing_accepts_valid_and_rejects_garbage() {
        let parse = |raw| parse_positive::<u64>(TIMEOUT_ENV, raw);
        // Valid / unset values pass through.
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("")), Ok(None));
        assert_eq!(parse(Some("  ")), Ok(None));
        assert_eq!(parse(Some("60")), Ok(Some(60)));
        assert_eq!(parse(Some(" 7 ")), Ok(Some(7)));
        // Malformed and zero values are rejected, not silently defaulted.
        let err = parse(Some("5 minutes")).unwrap_err();
        assert!(err.contains(TIMEOUT_ENV), "got {err}");
        let err = parse(Some("0")).unwrap_err();
        assert!(err.contains("at least 1"), "got {err}");
        assert!(parse(Some("-3")).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_crc32_equals_the_bytewise_reference() {
        // The definition, one bit at a time: no tables to share a bug with.
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let buffer: Vec<u8> = (0..128u32)
            .map(|i| (i.wrapping_mul(151) ^ (i >> 3)) as u8)
            .collect();
        // Every length 0..=100 at every start offset 0..8, so both the
        // eight-byte body and the bytewise tail run on unaligned slices.
        for start in 0..8 {
            for len in 0..=100 {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), reference(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn recv_times_out_as_a_typed_error_instead_of_hanging() {
        let transport: LocalTransport<u64> = LocalTransport::new();
        let channel = Arc::new(LocalChannel::<u64> {
            id: ChannelId::new(0, 0),
            partitions: 2,
            inbox: Arc::clone(&transport.inbox),
            timeout: Duration::from_millis(50),
        });
        // Source 1 never finishes the round.
        channel.finish_round(1, 0).unwrap();
        let err = channel.recv(1, 0).unwrap_err();
        assert!(matches!(err, CommError::Timeout { .. }), "got {err:?}");
    }
}
