//! Spilling sealed pages to disk: the out-of-core half of the engine.
//!
//! The Stratosphere runtime the paper builds on is an *out-of-core* dataflow
//! engine: iterations keep working when the exchanged state no longer fits in
//! memory, because exchange buffers spill to disk and sort/merge operators
//! consume the spilled data as sorted runs.  The sealed binary pages of
//! [`crate::page`] make this a byte-level operation — a run on disk is just a
//! sequence of framed pages — and the normalized-key sort of [`crate::page`]
//! makes every run cheap to order.  This module is that half:
//!
//! * [`MemoryBudget`] — how many serialized bytes an exchange may buffer in
//!   memory before sealed pages leave for disk.  `unlimited()` (the default)
//!   never spills; `bytes(0)` spills everything.
//! * [`SpillManager`] — the per-exchange policy object (budget, spill
//!   directory, sort-on-flush key) handing out [`SpillingWriter`]s.
//! * [`SpillingWriter`] — a [`PageWriter`] that, whenever its sealed pages
//!   exceed the budget, flushes them into a [`SpilledRun`] on disk.  With a
//!   sort key configured the flushed records are ordered first, so every run
//!   on disk is a *sorted* run.  The sort is page-native for every key
//!   shape: the shared kernel ([`crate::page`]) orders `(key prefix,
//!   handle)` pairs — by radix on a single-`Long` key, by an in-place
//!   comparison of the key bytes otherwise — and the serialized records are
//!   copied into output pages in that order, with no heap record built.
//!   Pages that are already sorted are written verbatim via
//!   [`write_run_in`].
//! * [`SpilledRun`] / [`RunCursor`] — a handle to one run (a segment of a
//!   run file that is deleted when its last segment handle drops, so
//!   passing test runs leak no files) and a streaming reader that revives
//!   records through one page-sized scratch buffer, never materializing the
//!   run.
//! * [`RunMerger`] — the engine's one k-way merge: a loser tree over a
//!   sorted in-memory residue and sorted runs, ties in delivery order.  The
//!   grouping kernel ([`crate::page::for_each_key_group`]) streams spilled
//!   partitions through it in place, building a record only for the group
//!   it hands out; [`RunMerger::next_record`] yields the globally sorted
//!   stream one owned record at a time.
//!
//! # Run file format (version 3)
//!
//! A run is a *segment*: an 8-byte header — the magic `b"SPRN"` and a
//! little-endian `u32` format version — followed by one page frame of
//! [`comm::frame`] per page: a little-endian `u32` byte length, a `u32`
//! record count, and a `u32` CRC-32 (IEEE) over the record count and the
//! page bytes, then the page bytes exactly as they sat in memory (the
//! format of [`crate::page`]).  The TCP transport ships pages as the same
//! frames, so a page takes the same bytes on disk and on the wire.  A run file is
//! one or more segments back to back: each [`SpillingWriter`] creates one
//! file at its first flush and appends every later run to it with
//! positioned writes (one per flush of up to 256 KiB), so a writer costs
//! one file creation however often it flushes; [`write_run_in`] writes a one-segment file.  The file stays
//! open while any of its runs lives, and reading a run back is positioned
//! reads (`pread`) from its segment's offset — one sequential pass, no
//! `open` per read; no index or footer is needed because the [`SpilledRun`]
//! handle carries the offset and the page count.  Corruption errors name
//! the failing frame's absolute offset in the file.  Files of earlier
//! versions — v1 had no magic and no checksums, v2's checksum left out the
//! record count — are rejected at open, not misread.
//!
//! # Error handling
//!
//! Writing (the spill decision) returns `io::Result` so budget-driven spills
//! surface disk-full and permission errors to the caller.  Reading back is
//! *validated*: a bad magic, a torn frame, or a page whose CRC does not
//! match surfaces as an [`io::Error`] carrying a typed corruption payload,
//! which [`crate::error::DataflowError`]'s `From<io::Error>` turns into
//! `DataflowError::SpillCorrupt { path, frame_offset }` — callers decide
//! whether to recover (restore a checkpoint) or to fail the job, instead of
//! the process unwinding.  The same framed format, written through
//! [`write_records_to`] / [`read_records_from`], backs superstep
//! checkpoints, where the CRC is what makes a torn checkpoint *detectable*
//! rather than trusted.

use crate::fault::{FaultInjector, FaultSite};
use crate::key::KeyFields;
use crate::page::{
    cmp_keys_in_place, key_prefix, key_prefix_of_fields, sort_on_key, view_in, ExchangedPartition,
    PageHandle, PageWriter, RecordPage, RecordView,
};
use crate::record::Record;
use crate::value::Value;
use comm::frame::{write_frame, FrameHeader, FRAME_HEADER_BYTES};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// Environment variable naming the directory spilled runs are written to.
/// Unset (or empty), runs go to a process-private directory under the system
/// temp dir.  CI points this at a known location and asserts it is empty
/// after the test run — spilled runs must never leak files.
pub const SPILL_DIR_ENV: &str = "SPINNING_SPILL_DIR";

/// Environment variable carrying a byte budget for test suites and smoke
/// jobs; parsed by [`MemoryBudget::from_env`].
pub const MEMORY_BUDGET_ENV: &str = "SPINNING_MEMORY_BUDGET";

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// A byte budget on buffered (sealed but unshipped) exchange pages.
///
/// The default is unlimited — nothing ever spills.  A finite budget makes a
/// [`SpillingWriter`] move sealed pages to disk whenever their bytes exceed
/// the limit; `bytes(0)` therefore spills every sealed page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBudget(Option<usize>);

impl MemoryBudget {
    /// No budget: exchanges buffer everything in memory (the default).
    pub const fn unlimited() -> MemoryBudget {
        MemoryBudget(None)
    }

    /// A finite budget of `limit` bytes.  Zero means "spill everything".
    pub const fn bytes(limit: usize) -> MemoryBudget {
        MemoryBudget(Some(limit))
    }

    /// Reads a budget from [`MEMORY_BUDGET_ENV`].  `None` when the variable
    /// is unset; a set-but-unparseable value panics instead of being
    /// silently ignored — a typo in a CI budget must not make the smoke job
    /// quietly test a different budget than it configured.
    pub fn from_env() -> Option<MemoryBudget> {
        let raw = std::env::var(MEMORY_BUDGET_ENV).ok()?;
        match raw.trim().parse() {
            Ok(limit) => Some(MemoryBudget::bytes(limit)),
            Err(_) => panic!(
                "{MEMORY_BUDGET_ENV} must be a plain byte count, got {raw:?} \
                 (suffixes like 'k' or 'MB' are not supported)"
            ),
        }
    }

    /// True when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.0.is_none()
    }

    /// The configured limit in bytes, if any.
    pub fn limit(&self) -> Option<usize> {
        self.0
    }

    /// True when `buffered_bytes` still fits the budget.
    #[inline]
    pub fn allows(&self, buffered_bytes: usize) -> bool {
        match self.0 {
            None => true,
            Some(limit) => buffered_bytes <= limit,
        }
    }

    /// Splits the budget evenly over `ways` concurrent buffers (an exchange
    /// holds one page writer per producer×target pair, which together must
    /// stay under the exchange's budget).
    pub fn share(&self, ways: usize) -> MemoryBudget {
        MemoryBudget(self.0.map(|limit| limit / ways.max(1)))
    }
}

/// Counters describing what a writer (or a whole exchange) spilled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Serialized bytes written to disk as runs.
    pub spilled_bytes: usize,
    /// Number of runs created.
    pub spilled_runs: usize,
    /// Records contained in those runs.
    pub spilled_records: usize,
}

impl SpillStats {
    /// Accumulates another writer's counters into this one.
    pub fn merge(&mut self, other: &SpillStats) {
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_runs += other.spilled_runs;
        self.spilled_records += other.spilled_records;
    }
}

// ---------------------------------------------------------------------------
// The run file format
// ---------------------------------------------------------------------------

/// Magic bytes opening every run/checkpoint data file.
const RUN_MAGIC: [u8; 4] = *b"SPRN";

/// Current run file format version (v2 added per-page CRC-32, v3 put the
/// record count under it).
const RUN_FORMAT_VERSION: u32 = 3;

/// Typed payload of a corruption error: travels inside an [`io::Error`]
/// through the `io::Result` plumbing and is downcast by
/// `DataflowError::from(io::Error)` into `SpillCorrupt`.
#[derive(Debug)]
pub(crate) struct CorruptRun {
    pub(crate) path: PathBuf,
    pub(crate) frame_offset: u64,
    pub(crate) detail: String,
}

impl fmt::Display for CorruptRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt run file {} at frame offset {}: {}",
            self.path.display(),
            self.frame_offset,
            self.detail
        )
    }
}

impl std::error::Error for CorruptRun {}

fn corrupt(path: &Path, frame_offset: u64, detail: impl Into<String>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        CorruptRun {
            path: path.to_owned(),
            frame_offset,
            detail: detail.into(),
        },
    )
}

/// Bytes of a run header: magic plus format version.
const RUN_HEADER_BYTES: u64 = 8;

/// Writes the 8-byte run header (magic + version).
fn write_file_header(writer: &mut impl Write) -> io::Result<()> {
    writer.write_all(&RUN_MAGIC)?;
    writer.write_all(&RUN_FORMAT_VERSION.to_le_bytes())
}

/// A short positioned read is a torn file: reported as corruption at
/// `frame_offset`.  Any other I/O error passes through unchanged.
fn torn(error: io::Error, path: &Path, frame_offset: u64, detail: &str) -> io::Error {
    if error.kind() == io::ErrorKind::UnexpectedEof {
        corrupt(path, frame_offset, detail)
    } else {
        error
    }
}

/// Reads and validates the 8-byte run header at byte `offset` of `file`.
fn read_file_header(file: &File, path: &Path, offset: u64) -> io::Result<()> {
    let mut header = [0u8; RUN_HEADER_BYTES as usize];
    file.read_exact_at(&mut header, offset)
        .map_err(|e| torn(e, path, offset, "file too short for the run header"))?;
    let [m0, m1, m2, m3, v0, v1, v2, v3] = header;
    if [m0, m1, m2, m3] != RUN_MAGIC {
        return Err(corrupt(
            path,
            offset,
            "bad magic (not a run file, or a pre-checksum v1 run)",
        ));
    }
    let version = u32::from_le_bytes([v0, v1, v2, v3]);
    if version != RUN_FORMAT_VERSION {
        return Err(corrupt(
            path,
            offset,
            format!("unsupported run format version {version}"),
        ));
    }
    Ok(())
}

/// Reads the frame at byte `frame_offset` of `file` into `page` and returns
/// its record count.  A partial frame, an implausible length, or a checksum
/// mismatch is a corruption error naming the frame's absolute offset;
/// `frame_offset` is advanced past the frame on success.
fn read_frame(
    file: &File,
    path: &Path,
    frame_offset: &mut u64,
    page: &mut Vec<u8>,
) -> io::Result<usize> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    file.read_exact_at(&mut header, *frame_offset)
        .map_err(|e| torn(e, path, *frame_offset, "torn frame header"))?;
    let header =
        FrameHeader::parse(header).map_err(|detail| corrupt(path, *frame_offset, detail))?;
    page.resize(header.byte_len, 0);
    file.read_exact_at(page, *frame_offset + FRAME_HEADER_BYTES as u64)
        .map_err(|e| torn(e, path, *frame_offset, "torn page frame"))?;
    header
        .check(page)
        .map_err(|detail| corrupt(path, *frame_offset, detail))?;
    *frame_offset += (FRAME_HEADER_BYTES + header.byte_len) as u64;
    Ok(header.records as usize)
}

// ---------------------------------------------------------------------------
// Runs on disk
// ---------------------------------------------------------------------------

/// Frame bytes a segment write stages before issuing a positioned write: a
/// flush of up to eight default pages is one write, and the staging buffer a
/// writer keeps never grows past this plus one page.
const WRITE_CHUNK_BYTES: usize = 8 * crate::page::DEFAULT_PAGE_BYTES;

/// One run file and its open descriptor: one or more runs live in it as
/// segments, read and written with positioned I/O.  Removed from disk when
/// the last handle drops.
#[derive(Debug)]
struct RunFile {
    path: PathBuf,
    fd: File,
}

impl Drop for RunFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl RunFile {
    /// Creates a fresh, empty run file in `dir`.
    fn create(dir: &Path) -> io::Result<Arc<RunFile>> {
        fs::create_dir_all(dir)?;
        let id = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("run-{}-{id}.spill", std::process::id()));
        let fd = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Arc::new(RunFile { path, fd }))
    }

    /// Writes `pages` as one segment starting at byte `offset` — the run
    /// header, then one frame per page — and returns its handle.
    /// The frames are staged in `frames` (cleared first; a writer reuses it
    /// from flush to flush) and leave in positioned writes of up to
    /// [`WRITE_CHUNK_BYTES`].
    fn write_segment(
        self: &Arc<Self>,
        offset: u64,
        pages: &[Arc<RecordPage>],
        sorted_by: Option<KeyFields>,
        frames: &mut Vec<u8>,
    ) -> io::Result<SpilledRun> {
        frames.clear();
        write_file_header(frames)?;
        let mut written = offset;
        let (mut page_count, mut records, mut bytes) = (0usize, 0usize, 0usize);
        for page in pages {
            write_frame(frames, &**page)?;
            page_count += 1;
            records += page.record_count();
            bytes += page.byte_len();
            if frames.len() >= WRITE_CHUNK_BYTES {
                self.fd.write_all_at(frames, written)?;
                written += frames.len() as u64;
                frames.clear();
            }
        }
        self.fd.write_all_at(frames, written)?;
        Ok(SpilledRun {
            file: Arc::clone(self),
            offset,
            pages: page_count,
            records,
            bytes,
            sorted_by,
        })
    }
}

/// Distinguishes run files across writers; the process id in the file name
/// distinguishes them across processes sharing a spill directory.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Run files this process has created so far: one per [`SpillingWriter`]
/// that flushed at all, one per [`write_run_in`] call.  The spill counters
/// ([`SpillStats::spilled_runs`]) count runs — segments — not files.
pub fn run_files_created() -> u64 {
    RUN_COUNTER.load(Ordering::Relaxed)
}

/// The directory spilled runs are written to: [`SPILL_DIR_ENV`] when set,
/// otherwise a process-private directory under the system temp dir.
pub fn default_spill_dir() -> PathBuf {
    match std::env::var_os(SPILL_DIR_ENV) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir().join(format!("spinning-spill-{}", std::process::id())),
    }
}

/// A handle to one spilled run: a segment of framed pages in a run file,
/// plus the key fields its records are sorted by (if any).  Handles are
/// cheap to clone and share the underlying file with every other segment of
/// it; the file is deleted when the last handle drops.
#[derive(Debug, Clone)]
pub struct SpilledRun {
    file: Arc<RunFile>,
    /// Byte offset of the segment's run header in the file.
    offset: u64,
    pages: usize,
    records: usize,
    bytes: usize,
    sorted_by: Option<KeyFields>,
}

impl SpilledRun {
    /// Number of records in the run.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Serialized page bytes in the run (frame headers excluded).
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Number of pages in the run.
    pub fn page_count(&self) -> usize {
        self.pages
    }

    /// The key fields the run's records are sorted by, if the run is sorted.
    pub fn sorted_by(&self) -> Option<&[usize]> {
        self.sorted_by.as_deref()
    }

    /// Path of the backing file (diagnostics only; the file disappears with
    /// the last handle).
    pub fn path(&self) -> &Path {
        &self.file.path
    }

    /// Validates the segment's run header and returns the offset of its
    /// first frame.
    fn first_frame(&self) -> io::Result<u64> {
        read_file_header(&self.file.fd, &self.file.path, self.offset)?;
        Ok(self.offset + RUN_HEADER_BYTES)
    }

    /// Byte offset just past the segment: where the next one starts.
    fn end(&self) -> u64 {
        self.offset + RUN_HEADER_BYTES + (self.pages * FRAME_HEADER_BYTES + self.bytes) as u64
    }

    /// Revives the run as sealed in-memory pages: the segment is framed page
    /// bytes behind a checksummed header, so this is a read plus a checksum
    /// per page — no per-record deserialization.  Page-native operators use
    /// it to treat a spilled input exactly like received exchange pages,
    /// which makes the spill read path pure pointer plumbing past this call.
    pub fn read_pages(&self) -> io::Result<Vec<Arc<RecordPage>>> {
        let mut frame_offset = self.first_frame()?;
        let mut pages = Vec::with_capacity(self.pages);
        for _ in 0..self.pages {
            let mut buf = Vec::new();
            let records = read_frame(&self.file.fd, &self.file.path, &mut frame_offset, &mut buf)?;
            pages.push(Arc::new(RecordPage::from_raw(buf, records)));
        }
        Ok(pages)
    }

    /// Opens a streaming cursor over the run's records, validating the
    /// segment header eagerly (a non-run or pre-checksum file fails here,
    /// not later).
    pub fn cursor(&self) -> io::Result<RunCursor> {
        Ok(RunCursor {
            frame_offset: self.first_frame()?,
            file: Arc::clone(&self.file),
            pages_remaining: self.pages,
            page: Vec::new(),
            current: 0,
            offset: 0,
            records_in_page: 0,
        })
    }
}

/// Writes sealed pages to a file of their own in `dir` as one run, verbatim
/// (no re-sort; pass `sorted_by` when the pages are already ordered).
pub fn write_run_in(
    dir: &Path,
    pages: &[Arc<RecordPage>],
    sorted_by: Option<KeyFields>,
) -> io::Result<SpilledRun> {
    RunFile::create(dir)?.write_segment(0, pages, sorted_by, &mut Vec::new())
}

/// Serializes already-sorted records into fresh pages and writes them as a
/// sorted run.
pub fn write_sorted_records_in(
    dir: &Path,
    records: &[Record],
    keys: &[usize],
) -> io::Result<SpilledRun> {
    let mut writer = PageWriter::new();
    for record in records {
        writer.push(record);
    }
    write_run_in(dir, &writer.finish(), Some(keys.to_vec()))
}

/// Sorts the records of `pages` by `keys` and writes them as one sorted run
/// — the flush of a sorting [`SpillingWriter`], as a one-run file.
pub fn write_sorted_run_in(
    dir: &Path,
    pages: &[Arc<RecordPage>],
    keys: &[usize],
) -> io::Result<SpilledRun> {
    let sorted = sort_pages(pages.to_vec(), keys, &mut FlushScratch::default())?;
    write_run_in(dir, &sorted, Some(keys.to_vec()))
}

/// The buffers of a sorted flush, kept from flush to flush: the kernel's
/// `(key prefix, handle)` pairs and its radix buffer, and the page buffers
/// the previous flush's sorted output gave back.
#[derive(Debug, Default)]
pub(crate) struct FlushScratch {
    pairs: Vec<(u64, PageHandle)>,
    radix: Vec<(u64, PageHandle)>,
    spare: Vec<Vec<u8>>,
}

/// Orders the records of `pages` by `keys` into fresh pages: the records,
/// order and page layout of their stable sort on the key values serialized
/// through a [`PageWriter`], without building a record.  The shared kernel
/// ([`crate::page`]) orders the `(prefix, handle)` pairs stably and each
/// record's serialized payload is copied to the output in that order.  The
/// sorted flush runs it.
pub(crate) fn sort_pages(
    pages: Vec<Arc<RecordPage>>,
    keys: &[usize],
    scratch: &mut FlushScratch,
) -> io::Result<Vec<Arc<RecordPage>>> {
    let input = ExchangedPartition::new(pages);
    let sorted = sort_on_key(&input, keys, &mut scratch.pairs, &mut scratch.radix)?;
    let mut out = PageWriter::new();
    out.add_spare_buffers(scratch.spare.drain(..));
    for &(_, handle) in &scratch.pairs {
        out.push_serialized(sorted.view(handle).payload());
    }
    Ok(out.finish())
}

/// A streaming reader over one run: pages are revived one at a time into a
/// single reused scratch buffer, records are deserialized into the caller's
/// scratch record — iterating a run of any size holds one page in memory.
#[derive(Debug)]
pub struct RunCursor {
    /// The run file, kept alive (and on disk) while the cursor reads it.
    file: Arc<RunFile>,
    /// Absolute byte offset of the next frame — corruption errors point here.
    frame_offset: u64,
    pages_remaining: usize,
    /// The current page's bytes; one buffer reused for every page.
    page: Vec<u8>,
    /// Offset in `page` of the record the last [`RunCursor::step`] reached.
    current: usize,
    /// Offset in `page` of the record after it.
    offset: usize,
    records_in_page: usize,
}

impl RunCursor {
    /// Steps to the next record, reading the next frame once the current
    /// one is used up, and returns `false` at the end of the run.  The
    /// record is then [`RunCursor::view`], in place in the frame buffer.  A
    /// torn frame or checksum mismatch surfaces as a typed corruption error
    /// (see the module docs).
    pub fn step(&mut self) -> io::Result<bool> {
        while self.records_in_page == 0 {
            if self.pages_remaining == 0 {
                return Ok(false);
            }
            self.pages_remaining -= 1;
            self.records_in_page = read_frame(
                &self.file.fd,
                &self.file.path,
                &mut self.frame_offset,
                &mut self.page,
            )?;
            self.offset = 0;
        }
        self.records_in_page -= 1;
        self.current = self.offset;
        self.offset += self.view().framed_len();
        Ok(true)
    }

    /// The record the last successful [`RunCursor::step`] reached.
    #[inline]
    pub fn view(&self) -> RecordView<'_> {
        view_in(&self.page, self.current)
    }

    /// Reads the next record into `target`, returning `false` at the end of
    /// the run.  A torn frame or checksum mismatch surfaces as a typed
    /// corruption error (see the module docs).
    pub fn next_into(&mut self, target: &mut Record) -> io::Result<bool> {
        if !self.step()? {
            return Ok(false);
        }
        self.view().read_into(target);
        Ok(true)
    }

    /// Reads the next record as a fresh owned [`Record`].
    pub fn next_record(&mut self) -> io::Result<Option<Record>> {
        let mut record = Record::empty();
        Ok(self.next_into(&mut record)?.then_some(record))
    }
}

// ---------------------------------------------------------------------------
// Persistent framed files (checkpoints)
// ---------------------------------------------------------------------------

/// Serializes `records` into framed pages at an explicit `path` (creating
/// parent directories), fsyncs, and returns the file's size in bytes.  The
/// file uses the same checksummed format as spilled runs but is *not*
/// deleted on drop — this is the durability primitive behind superstep
/// checkpoints.
pub fn write_records_to(path: &Path, records: &[Record]) -> io::Result<u64> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    write_file_header(&mut writer)?;
    let mut page_writer = PageWriter::new();
    let mut total = RUN_HEADER_BYTES;
    for record in records {
        page_writer.push(record);
        for page in page_writer.take_sealed() {
            total += write_frame(&mut writer, &*page)? as u64;
        }
    }
    for page in page_writer.finish() {
        total += write_frame(&mut writer, &*page)? as u64;
    }
    writer.flush()?;
    writer
        .into_inner()
        .map_err(|e| e.into_error())?
        .sync_all()?;
    Ok(total)
}

/// Reads a framed file written by [`write_records_to`] back into records,
/// validating the header and every page checksum.  A torn or tampered file
/// surfaces as a typed corruption error; `expected_records` (from the
/// checkpoint manifest) guards against a file truncated at an exact frame
/// boundary.
pub fn read_records_from(path: &Path, expected_records: Option<usize>) -> io::Result<Vec<Record>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    read_file_header(&file, path, 0)?;
    let mut frame_offset = RUN_HEADER_BYTES;
    let mut page = Vec::new();
    let mut records = Vec::new();
    while frame_offset < len {
        let count = read_frame(&file, path, &mut frame_offset, &mut page)?;
        let mut offset = 0;
        for _ in 0..count {
            let view = view_in(&page, offset);
            offset += view.framed_len();
            records.push(view.materialize());
        }
    }
    if let Some(expected) = expected_records {
        if records.len() != expected {
            return Err(corrupt(
                path,
                frame_offset,
                format!("expected {expected} records, file holds {}", records.len()),
            ));
        }
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Stale-file GC
// ---------------------------------------------------------------------------

/// Sweeps `dir` for debris left by a *previous, crashed* process: run files
/// (`run-<pid>-*.spill`) whose pid is not ours, and checkpoint directories
/// (`ckpt-*`), both older than `max_age`.  Returns the number of entries
/// removed.  Files of the current process are never touched (their pid is
/// ours and live handles delete them on drop); checkpoint dirs are age-gated
/// so an in-flight checkpoint of a concurrent run survives.  A missing `dir`
/// is not an error.
pub fn gc_stale_files(dir: &Path, max_age: Duration) -> io::Result<usize> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let own_prefix = format!("run-{}-", std::process::id());
    let mut removed = 0;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_stale_run =
            name.starts_with("run-") && name.ends_with(".spill") && !name.starts_with(&own_prefix);
        let is_checkpoint_dir = name.starts_with("ckpt-");
        if !is_stale_run && !is_checkpoint_dir {
            continue;
        }
        let age_ok = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|modified| modified.elapsed().ok())
            .is_some_and(|age| age >= max_age);
        if !age_ok {
            continue;
        }
        let removal = if is_checkpoint_dir {
            fs::remove_dir_all(entry.path())
        } else {
            fs::remove_file(entry.path())
        };
        if removal.is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Age below which [`gc_stale_files`] leaves debris alone at startup: long
/// enough that anything younger plausibly belongs to a live concurrent run.
const GC_STARTUP_MAX_AGE: Duration = Duration::from_secs(60 * 60);

/// Runs the startup sweep of [`default_spill_dir`] once per process.
fn gc_on_startup() {
    static GC_ONCE: Once = Once::new();
    GC_ONCE.call_once(|| {
        let _ = gc_stale_files(&default_spill_dir(), GC_STARTUP_MAX_AGE);
    });
}

// ---------------------------------------------------------------------------
// The budgeted writer
// ---------------------------------------------------------------------------

/// Per-exchange spill policy: the (per-writer) byte budget, the directory
/// runs are written to, and the key to sort flushed records by.  Cloning is
/// cheap; one manager is shared by all writers of an exchange.
#[derive(Debug, Clone)]
pub struct SpillManager {
    inner: Arc<ManagerInner>,
}

#[derive(Debug, Clone)]
struct ManagerInner {
    budget: MemoryBudget,
    dir: PathBuf,
    sort_on_flush: Option<KeyFields>,
    page_bytes: usize,
    page_credits: Option<usize>,
    fault: FaultInjector,
}

impl SpillManager {
    /// A manager spilling to [`default_spill_dir`] under `budget` (applied
    /// per writer; see [`MemoryBudget::share`]).  With `sort_on_flush` set,
    /// flushed records are ordered by those key fields first, so every run
    /// on disk is sorted.  The first manager of a process also sweeps debris
    /// a crashed predecessor left in the spill directory
    /// (see [`gc_stale_files`]).
    pub fn new(budget: MemoryBudget, sort_on_flush: Option<KeyFields>) -> SpillManager {
        gc_on_startup();
        SpillManager::in_dir(default_spill_dir(), budget, sort_on_flush)
    }

    /// A manager spilling into an explicit directory (tests).
    pub fn in_dir(
        dir: PathBuf,
        budget: MemoryBudget,
        sort_on_flush: Option<KeyFields>,
    ) -> SpillManager {
        SpillManager {
            inner: Arc::new(ManagerInner {
                budget,
                dir,
                sort_on_flush,
                page_bytes: crate::page::DEFAULT_PAGE_BYTES,
                page_credits: None,
                fault: FaultInjector::disabled(),
            }),
        }
    }

    /// Overrides the page capacity of the handed-out writers (tests force
    /// tiny pages so budgets trip on small datasets).
    pub fn with_page_bytes(mut self, page_bytes: usize) -> SpillManager {
        Arc::make_mut(&mut self.inner).page_bytes = page_bytes;
        self
    }

    /// Caps the sealed pages a handed-out writer may buffer in memory: once
    /// `credits` pages are sealed they are flushed to disk as a run, bounding
    /// each writer at `credits × page_bytes` of buffered exchange data
    /// regardless of the byte budget.  This is the exchange's credit-based
    /// backpressure, in every mode — a producer blocked against a barrier,
    /// or against a sibling task on the shared pool, could deadlock, so
    /// bounding happens by spilling, not by stalling.
    /// `None` (the default) leaves only the byte budget in charge.
    pub fn with_page_credits(mut self, credits: Option<usize>) -> SpillManager {
        Arc::make_mut(&mut self.inner).page_credits = credits.map(|c| c.max(1));
        self
    }

    /// Attaches a fault injector consulted on every budget-driven flush
    /// ([`FaultSite::SpillWrite`]).
    pub fn with_fault(mut self, fault: FaultInjector) -> SpillManager {
        Arc::make_mut(&mut self.inner).fault = fault;
        self
    }

    /// The per-writer budget.
    pub fn budget(&self) -> MemoryBudget {
        self.inner.budget
    }

    /// Whether a writer of this manager can ever flush to disk: false only
    /// with no byte budget and no page credits, when every sealed page
    /// stays in memory.
    pub fn may_spill(&self) -> bool {
        !self.inner.budget.is_unlimited() || self.inner.page_credits.is_some()
    }

    /// The attached fault injector (disabled unless set via
    /// [`SpillManager::with_fault`]).
    pub fn fault(&self) -> &FaultInjector {
        &self.inner.fault
    }

    /// Hands out one budgeted page writer.
    pub fn writer(&self) -> SpillingWriter {
        SpillingWriter {
            manager: self.clone(),
            writer: PageWriter::with_page_bytes(self.inner.page_bytes),
            runs: Vec::new(),
            stats: SpillStats::default(),
            pages_high_water: 0,
            error: None,
            frames: Vec::new(),
            scratch: FlushScratch::default(),
        }
    }
}

/// What a [`SpillingWriter`] produced: the pages that stayed in memory
/// (within budget), the runs that went to disk, and the spill counters.
#[derive(Debug)]
pub struct SpillOutput {
    /// Sealed pages still in memory.
    pub pages: Vec<Arc<RecordPage>>,
    /// Runs flushed to disk, in flush order (earlier records first).
    pub runs: Vec<SpilledRun>,
    /// What was spilled.
    pub stats: SpillStats,
    /// Maximum sealed pages the writer held in memory at any point — stays
    /// `<=` the configured page credits (see
    /// [`SpillManager::with_page_credits`]), which is the invariant the
    /// backpressure smoke tests assert.
    pub pages_high_water: usize,
}

/// A [`PageWriter`] under a byte budget: whenever the sealed (finished but
/// unshipped) pages exceed the budget, they are flushed to disk as one run.
/// Open-page bytes never count against the budget — the open page is the
/// working buffer, exactly one page of memory.
///
/// A writer creates one run file, at its first flush; every run it flushes
/// is the next segment of that file, staged in one reused buffer and
/// written with one positioned write per 256 KiB of frames.
///
/// I/O errors during a mid-stream flush are held and re-raised by
/// [`SpillingWriter::finish`], so the routing hot loop never unwinds.
#[derive(Debug)]
pub struct SpillingWriter {
    manager: SpillManager,
    writer: PageWriter,
    /// The flushed runs, in order: segments of one file, the last one
    /// ending where the next flush writes.
    runs: Vec<SpilledRun>,
    stats: SpillStats,
    pages_high_water: usize,
    error: Option<io::Error>,
    /// Staging buffer of a flush's frames, reused by the next flush.
    frames: Vec<u8>,
    scratch: FlushScratch,
}

impl SpillingWriter {
    /// Serializes one record, spilling sealed pages if the byte budget or
    /// the page-credit cap is exceeded.
    #[inline]
    pub fn push(&mut self, record: &Record) {
        self.push_fields(record.fields())
    }

    /// [`SpillingWriter::push`] for a record given as its field slice (like
    /// [`PageWriter::push_fields`]).
    pub fn push_fields(&mut self, fields: &[Value]) {
        self.writer.push_fields(fields);
        self.apply_budget();
    }

    /// [`SpillingWriter::push`] for a record that exists serialized: its
    /// payload bytes are copied (like [`PageWriter::push_serialized`]).
    pub fn push_serialized(&mut self, payload: &[u8]) {
        self.writer.push_serialized(payload);
        self.apply_budget();
    }

    /// Spills the sealed pages once the byte budget or the page-credit cap
    /// is exceeded.
    #[inline]
    fn apply_budget(&mut self) {
        let sealed_pages = self.writer.sealed_page_count();
        self.pages_high_water = self.pages_high_water.max(sealed_pages);
        let over_budget = !self.manager.inner.budget.allows(self.writer.sealed_bytes());
        let over_credits = self
            .manager
            .inner
            .page_credits
            .is_some_and(|credits| sealed_pages >= credits);
        if self.error.is_none() && (over_budget || over_credits) {
            if let Err(error) = self.flush_sealed() {
                self.error = Some(error);
            }
        }
    }

    /// Records written so far, spilled or not.
    #[inline]
    pub(crate) fn total_records(&self) -> usize {
        self.writer.total_records()
    }

    /// Serialized bytes written so far, spilled or not.
    #[inline]
    pub(crate) fn total_bytes(&self) -> usize {
        self.writer.total_bytes()
    }

    /// True when nothing has been written or spilled.
    pub fn is_empty(&self) -> bool {
        self.writer.is_empty() && self.runs.is_empty()
    }

    /// Hands the inner page writer recycled page buffers (see
    /// [`crate::page::PagePool`]): consumed pages from the previous superstep
    /// become this writer's sealed output pages without fresh allocations.
    pub fn add_spare_buffers(&mut self, buffers: impl IntoIterator<Item = Vec<u8>>) {
        self.writer.add_spare_buffers(buffers);
    }

    /// See [`PageWriter::refill_spare_from`].
    #[inline]
    pub fn refill_spare_from(&mut self, buffers: &mut Vec<Vec<u8>>) {
        self.writer.refill_spare_from(buffers);
    }

    /// Moves the sealed pages to disk as one run (sorted first when the
    /// manager carries a sort key): the next segment of the writer's run
    /// file, which the first flush creates.  Out of line and cold: the
    /// routing loop that calls it must stay small.
    #[cold]
    #[inline(never)]
    fn flush_sealed(&mut self) -> io::Result<()> {
        let pages = self.writer.take_sealed();
        if pages.iter().all(|p| p.is_empty()) {
            return Ok(());
        }
        let inner = &self.manager.inner;
        inner.fault.io_check(FaultSite::SpillWrite)?;
        let pages = match &inner.sort_on_flush {
            Some(keys) => sort_pages(pages, keys, &mut self.scratch)?,
            None => pages,
        };
        let sorted_by = inner.sort_on_flush.clone();
        let (file, offset) = match self.runs.last() {
            Some(last) => (Arc::clone(&last.file), last.end()),
            None => (RunFile::create(&inner.dir)?, 0),
        };
        let run = file.write_segment(offset, &pages, sorted_by, &mut self.frames)?;
        if inner.sort_on_flush.is_some() {
            // The sorted copies are ours alone: their buffers back the next
            // flush's output.
            self.scratch
                .spare
                .extend(pages.into_iter().filter_map(RecordPage::into_buffer));
        }
        self.stats.spilled_bytes += run.byte_len();
        self.stats.spilled_records += run.record_count();
        self.stats.spilled_runs += 1;
        self.runs.push(run);
        Ok(())
    }

    /// Seals the open page, applies the budget one final time (so a zero
    /// budget spills *everything*, even a single under-full page), and
    /// returns the in-memory pages, the spilled runs and the counters.
    pub fn finish(mut self) -> io::Result<SpillOutput> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.writer.seal();
        self.pages_high_water = self.pages_high_water.max(self.writer.sealed_page_count());
        if !self.manager.inner.budget.allows(self.writer.sealed_bytes()) {
            self.flush_sealed()?;
        }
        let SpillingWriter {
            writer,
            runs,
            stats,
            pages_high_water,
            ..
        } = self;
        Ok(SpillOutput {
            pages: writer.finish(),
            runs,
            stats,
            pages_high_water,
        })
    }
}

// ---------------------------------------------------------------------------
// The k-way merge
// ---------------------------------------------------------------------------

/// The tournament of a k-way merge: each pull costs ⌈log₂ k⌉ comparisons (a
/// replay along one leaf-to-root path) instead of the k−1 of a naive scan.
/// The tree holds source indices only; the caller keeps the sources' heads
/// and passes `beats(a, b)` — whether source `a`'s head goes before source
/// `b`'s — to every call.  With `beats` letting exhausted sources lose and
/// giving ties to the smaller index, merging the sorted chunks of one stream
/// in stream order reproduces the stable sort of that stream.
#[derive(Debug)]
struct LoserTree {
    /// `tree[0]` is the overall winner; `tree[1..k]` hold, per internal
    /// match, the source that lost it.  Leaves are implicit: source `i`
    /// corresponds to node `k + i`.
    tree: Vec<usize>,
}

impl LoserTree {
    /// Plays the initial tournament over `k >= 1` sources.
    fn new(k: usize, beats: impl Fn(usize, usize) -> bool) -> LoserTree {
        let mut tree = LoserTree { tree: vec![0; k] };
        tree.tree[0] = tree.build_node(1, &beats);
        tree
    }

    /// Plays the tournament below `node`, recording losers and returning the
    /// winner.  Nodes `>= k` are the implicit leaves.
    fn build_node(&mut self, node: usize, beats: &impl Fn(usize, usize) -> bool) -> usize {
        let k = self.tree.len();
        if node >= k {
            return node - k;
        }
        let left = self.build_node(2 * node, beats);
        let right = self.build_node(2 * node + 1, beats);
        let (winner, loser) = if beats(left, right) {
            (left, right)
        } else {
            (right, left)
        };
        self.tree[node] = loser;
        winner
    }

    /// The source whose head goes next.
    #[inline]
    fn winner(&self) -> usize {
        self.tree[0]
    }

    /// Replays the path from source `leaf`'s leaf to the root after its head
    /// changed.
    #[inline]
    fn replay(&mut self, leaf: usize, beats: impl Fn(usize, usize) -> bool) {
        let mut winner = leaf;
        let mut node = (self.tree.len() + leaf) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            if beats(loser, winner) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }
}

/// The engine's one k-way merge: a sorted in-memory residue (source 0, a
/// page writer and its sorted `(key prefix, handle)` pairs) and key-sorted
/// spilled runs (source `i` is run `i − 1`, read one frame at a time into a
/// reused buffer), played on a loser tree.  Ties go to the lower source, so
/// merging the ordered chunks of one stream reproduces the stable sort of
/// that stream.  Two heads whose keys are both one `Long` field compare on
/// their prefixes; any other pair compares its keys in place on the bytes —
/// the key values' order either way.
///
/// The grouping kernel ([`crate::page::for_each_key_group`]) walks it record
/// by record in place, and so does a sorted spilled partition's visitor
/// ([`ExchangedPartition::for_each_view`]); [`RunMerger::next_record`]
/// materializes each record.
#[derive(Debug)]
pub struct RunMerger {
    sources: MergeSources,
    tree: LoserTree,
}

/// The sources of a [`RunMerger`] and their current heads.
#[derive(Debug)]
struct MergeSources {
    key: KeyFields,
    residue: PageWriter,
    pairs: Vec<(u64, PageHandle)>,
    /// Index in `pairs` of the residue's head.
    next: usize,
    /// Every residue key is one `Long` field.
    residue_exact: bool,
    cursors: Vec<RunCursor>,
    /// Per source, the key prefix of its head and whether it is exact
    /// ([`crate::page::key_prefix`]); `None` once the source is exhausted.
    heads: Vec<Option<(u64, bool)>>,
}

impl MergeSources {
    /// The residue's head, after `next` moved.
    fn residue_head(&self) -> Option<(u64, bool)> {
        let &(prefix, handle) = self.pairs.get(self.next)?;
        Some(match self.residue_exact {
            true => (prefix, true),
            false => key_prefix(self.residue.view(handle), &self.key),
        })
    }

    /// Steps source `source` (a run) to its next record and returns that
    /// record's head, `None` at the end of the run.
    fn step_run(&mut self, source: usize) -> io::Result<Option<(u64, bool)>> {
        let cursor = &mut self.cursors[source - 1];
        Ok(match cursor.step()? {
            true => Some(key_prefix(cursor.view(), &self.key)),
            false => None,
        })
    }

    /// The head record of a source that is not exhausted.
    fn view(&self, source: usize) -> RecordView<'_> {
        match source {
            0 => self.residue.view(self.pairs[self.next].1),
            run => self.cursors[run - 1].view(),
        }
    }

    /// True when source `a`'s head must be emitted before source `b`'s.
    /// Exhausted sources always lose; equal keys go to the smaller index.
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.heads[a], self.heads[b]) {
            (Some((x, true)), Some((y, true))) => (x, a) < (y, b),
            (Some(_), Some(_)) => self.beats_in_place(a, b),
            (x, y) => x.is_some() && y.is_none(),
        }
    }

    /// [`MergeSources::beats`] of heads that are not both exact.
    #[cold]
    #[inline(never)]
    fn beats_in_place(&self, a: usize, b: usize) -> bool {
        cmp_keys_in_place(self.view(a), &self.key, self.view(b), &self.key)
            .then(a.cmp(&b))
            .is_lt()
    }
}

impl RunMerger {
    /// A merger over a partition's sorted in-memory residue `residue` and
    /// its spilled runs, with ties in delivery order: the residue first,
    /// then the runs in order — the order of the stable sort of the
    /// partition, and the tie order of the grouping kernel.  The residue
    /// and every run must be sorted on `key_fields`.
    pub fn over_runs(
        runs: &[SpilledRun],
        residue: Vec<Record>,
        key_fields: KeyFields,
    ) -> io::Result<RunMerger> {
        let mut store = PageWriter::new();
        let mut pairs = Vec::with_capacity(residue.len());
        let mut exact = true;
        for record in &residue {
            let (prefix, is_exact) = key_prefix_of_fields(record.fields(), &key_fields);
            pairs.push((prefix, store.push(record)));
            exact &= is_exact;
        }
        RunMerger::over_sorted(store, pairs, exact, runs, key_fields)
    }

    /// [`RunMerger::over_runs`] with the residue already on pages: `pairs`
    /// address `residue` in sorted order, and `exact` tells whether every
    /// residue key is one `Long` field.
    pub(crate) fn over_sorted(
        residue: PageWriter,
        pairs: Vec<(u64, PageHandle)>,
        exact: bool,
        runs: &[SpilledRun],
        key: KeyFields,
    ) -> io::Result<RunMerger> {
        let cursors = runs
            .iter()
            .map(SpilledRun::cursor)
            .collect::<io::Result<Vec<RunCursor>>>()?;
        let mut sources = MergeSources {
            key,
            residue,
            pairs,
            next: 0,
            residue_exact: exact,
            heads: Vec::with_capacity(cursors.len() + 1),
            cursors,
        };
        sources.heads.push(sources.residue_head());
        for source in 1..=sources.cursors.len() {
            let head = sources.step_run(source)?;
            sources.heads.push(head);
        }
        let tree = LoserTree::new(sources.heads.len(), |a, b| sources.beats(a, b));
        Ok(RunMerger { sources, tree })
    }

    /// The key prefix and exactness of the next record in merged order,
    /// `None` once every source is exhausted.
    #[inline]
    pub(crate) fn head(&self) -> Option<(u64, bool)> {
        self.sources.heads[self.tree.winner()]
    }

    /// The next record in merged order, in place; only while
    /// [`RunMerger::head`] is `Some`.
    #[inline]
    pub(crate) fn view(&self) -> RecordView<'_> {
        self.sources.view(self.tree.winner())
    }

    /// Moves past the record [`RunMerger::view`] shows.
    #[inline]
    pub(crate) fn advance(&mut self) -> io::Result<()> {
        let source = self.tree.winner();
        self.sources.heads[source] = if source == 0 {
            self.sources.next += 1;
            self.sources.residue_head()
        } else {
            self.sources.step_run(source)?
        };
        self.tree.replay(source, |a, b| self.sources.beats(a, b));
        Ok(())
    }

    /// The next record in global key order.
    pub fn next_record(&mut self) -> io::Result<Option<Record>> {
        if self.head().is_none() {
            return Ok(None);
        }
        let record = self.view().materialize();
        self.advance()?;
        Ok(Some(record))
    }

    /// Hands back the residue's pair buffer, for reuse.
    pub(crate) fn into_pairs(self) -> Vec<(u64, PageHandle)> {
        self.sources.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;

    /// A unique spill directory per test, under the system temp dir.
    fn test_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spinning-spill-test-{}-{name}", std::process::id()))
    }

    fn pages_of(records: &[Record]) -> Vec<Arc<RecordPage>> {
        let mut writer = PageWriter::with_page_bytes(64);
        for record in records {
            writer.push(record);
        }
        writer.finish()
    }

    #[test]
    fn budget_allows_and_shares() {
        assert!(MemoryBudget::unlimited().allows(usize::MAX));
        assert!(MemoryBudget::unlimited().is_unlimited());
        let b = MemoryBudget::bytes(100);
        assert!(b.allows(100));
        assert!(!b.allows(101));
        assert_eq!(b.share(4), MemoryBudget::bytes(25));
        assert_eq!(b.share(0), MemoryBudget::bytes(100));
        assert!(MemoryBudget::bytes(0).allows(0));
        assert!(!MemoryBudget::bytes(0).allows(1));
        assert!(MemoryBudget::unlimited().share(7).is_unlimited());
    }

    #[test]
    fn run_round_trips_records_and_deletes_its_file_on_drop() {
        let dir = test_dir("roundtrip");
        let records: Vec<Record> = (0..100).map(|i| Record::pair(i, i * 3)).collect();
        let run = write_run_in(&dir, &pages_of(&records), None).unwrap();
        assert_eq!(run.record_count(), 100);
        assert!(run.byte_len() > 0);
        assert!(run.page_count() > 1, "64-byte pages force several pages");
        assert!(run.sorted_by().is_none());
        let path = run.path().to_owned();
        assert!(path.exists());

        let mut cursor = run.cursor().unwrap();
        let mut read = Vec::new();
        let mut scratch = Record::empty();
        while cursor.next_into(&mut scratch).unwrap() {
            read.push(scratch.clone());
        }
        assert_eq!(read, records);

        // The cursor keeps the file alive past the handle; the last drop
        // removes it.
        drop(run);
        assert!(path.exists(), "open cursor must keep the run on disk");
        drop(cursor);
        assert!(!path.exists(), "dropping the last handle deletes the run");
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn sorted_flush_orders_the_run() {
        let dir = test_dir("sorted");
        let records: Vec<Record> = (0..200)
            .map(|i| Record::pair((i * 37) % 50 - 20, i))
            .collect();
        let run = write_sorted_run_in(&dir, &pages_of(&records), &[0]).unwrap();
        assert_eq!(run.sorted_by(), Some(&[0usize][..]));
        let mut read = Vec::new();
        let mut cursor = run.cursor().unwrap();
        while let Some(record) = cursor.next_record().unwrap() {
            read.push(record);
        }
        let mut oracle = records;
        oracle.sort_by_key(|r| Key::extract(r, &[0]));
        assert_eq!(read, oracle, "flush sort must equal the stable Value sort");
        drop(cursor);
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn zero_budget_spills_everything_and_unlimited_spills_nothing() {
        let dir = test_dir("budget");
        let records: Vec<Record> = (0..50).map(|i| Record::pair(i % 7, i)).collect();

        let spilling = SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(0), None);
        let mut writer = spilling.writer();
        for record in &records {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        assert!(out.pages.is_empty(), "budget 0 leaves nothing in memory");
        assert!(!out.runs.is_empty());
        assert_eq!(out.stats.spilled_records, records.len());
        assert!(out.stats.spilled_bytes > 0);
        assert_eq!(out.stats.spilled_runs, out.runs.len());

        let unlimited = SpillManager::in_dir(dir.clone(), MemoryBudget::unlimited(), None);
        let mut writer = unlimited.writer();
        assert!(writer.is_empty());
        for record in &records {
            writer.push(record);
        }
        assert!(!writer.is_empty());
        let out = writer.finish().unwrap();
        assert!(out.runs.is_empty(), "unlimited budget never touches disk");
        assert_eq!(out.stats, SpillStats::default());
        assert_eq!(
            out.pages.iter().map(|p| p.record_count()).sum::<usize>(),
            records.len()
        );
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn budgeted_writer_preserves_the_multiset_across_pages_and_runs() {
        let dir = test_dir("multiset");
        let records: Vec<Record> = (0..300).map(|i| Record::pair(i % 13, i)).collect();
        let manager = SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(512), Some(vec![0]))
            .with_page_bytes(256);
        let mut writer = manager.writer();
        for record in &records {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        assert!(out.runs.len() > 1, "512-byte budget forces several runs");
        let mut read: Vec<Record> = out
            .pages
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        for run in &out.runs {
            assert_eq!(run.sorted_by(), Some(&[0usize][..]));
            let mut cursor = run.cursor().unwrap();
            let mut previous: Option<i64> = None;
            while let Some(record) = cursor.next_record().unwrap() {
                if let Some(p) = previous {
                    assert!(p <= record.long(0), "run not sorted");
                }
                previous = Some(record.long(0));
                read.push(record);
            }
        }
        let mut expected = records;
        read.sort();
        expected.sort();
        assert_eq!(read, expected);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn page_credits_cap_in_memory_sealed_pages() {
        let dir = test_dir("page-credits");
        let records: Vec<Record> = (0..400).map(|i| Record::pair(i % 13, i)).collect();
        let manager = SpillManager::in_dir(dir.clone(), MemoryBudget::unlimited(), None)
            .with_page_bytes(64)
            .with_page_credits(Some(2));
        let mut writer = manager.writer();
        for record in &records {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        assert!(
            out.pages_high_water <= 2,
            "2 page credits must bound buffered sealed pages, saw {}",
            out.pages_high_water
        );
        assert!(out.runs.len() > 1, "tiny pages under 2 credits force runs");
        // The multiset is preserved across the in-memory pages and the runs.
        let mut read: Vec<Record> = out
            .pages
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        for run in &out.runs {
            let mut cursor = run.cursor().unwrap();
            while let Some(record) = cursor.next_record().unwrap() {
                read.push(record);
            }
        }
        let mut expected = records;
        read.sort();
        expected.sort();
        assert_eq!(read, expected);

        // Without credits the same writer never touches disk.
        let unlimited = SpillManager::in_dir(dir.clone(), MemoryBudget::unlimited(), None)
            .with_page_bytes(64)
            .with_page_credits(None);
        let mut writer = unlimited.writer();
        for record in &expected {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        assert!(out.runs.is_empty());
        assert!(out.pages_high_water > 2, "unbounded writer buffers freely");
        let _ = fs::remove_dir(&dir);
    }

    /// Drains `merger` through its public surface.
    fn drain(mut merger: RunMerger) -> Vec<Record> {
        let mut out = Vec::new();
        while let Some(record) = merger.next_record().unwrap() {
            out.push(record);
        }
        out
    }

    #[test]
    fn loser_tree_merge_equals_the_stable_sort_oracle() {
        let dir = test_dir("merge");
        for k in [1usize, 2, 3, 8, 17] {
            let input: Vec<Record> = (0..230)
                .map(|i| Record::pair((i * 31) % 11 - 5, i))
                .collect();
            // Contiguous chunks in input order: the first is the in-memory
            // residue, chunk i the run i − 1, so the source-index tiebreak
            // reproduces the stable sort exactly.
            let chunk = input.len() / k + 1;
            let mut pieces = input.chunks(chunk).map(|piece| {
                let mut sorted = piece.to_vec();
                sorted.sort_by_key(|r| Key::extract(r, &[0]));
                sorted
            });
            let residue = pieces.next().unwrap();
            let mut runs: Vec<SpilledRun> = pieces
                .map(|sorted| write_sorted_records_in(&dir, &sorted, &[0]).unwrap())
                .collect();
            // Pad with empty runs up to k sources (they must simply never win).
            while runs.len() + 1 < k {
                runs.push(write_run_in(&dir, &[], Some(vec![0])).unwrap());
            }
            let merged = drain(RunMerger::over_runs(&runs, residue, vec![0]).unwrap());
            let mut oracle = input;
            oracle.sort_by_key(|r| Key::extract(r, &[0]));
            assert_eq!(merged, oracle, "k={k}");
        }
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn merge_groups_stream_one_key_at_a_time() {
        let dir = test_dir("groups");
        let mut a: Vec<Record> = (0..40).map(|i| Record::pair(i % 5, 1)).collect();
        let mut b: Vec<Record> = (0..60).map(|i| Record::pair(i % 5, 10)).collect();
        a.sort_by_key(|r| Key::extract(r, &[0]));
        b.sort_by_key(|r| Key::extract(r, &[0]));
        let run = write_sorted_records_in(&dir, &a, &[0]).unwrap();
        let part = ExchangedPartition::from_spilled(pages_of(&b), vec![run]);
        let mut seen = Vec::new();
        crate::page::for_each_key_group(
            &part,
            &[0],
            &mut crate::page::GroupScratch::default(),
            |key, group| {
                let sum: i64 = group.iter().map(|r| r.long(1)).sum();
                seen.push((key.values()[0].as_long(), group.len(), sum));
            },
        )
        .unwrap();
        assert_eq!(
            seen,
            (0..5).map(|k| (k, 8 + 12, 8 + 120)).collect::<Vec<_>>(),
            "each key groups its records from both sources exactly once"
        );
        drop(part);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn empty_merger_and_empty_runs_are_harmless() {
        let mut merger = RunMerger::over_runs(&[], Vec::new(), vec![0]).unwrap();
        assert!(merger.next_record().unwrap().is_none());
        let dir = test_dir("empty-merge");
        let empty = write_run_in(&dir, &[], Some(vec![0])).unwrap();
        assert!(drain(RunMerger::over_runs(&[empty], Vec::new(), vec![0]).unwrap()).is_empty());
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn budget_env_parsing() {
        // Only exercises the parser indirectly: from_env is None when the
        // variable is unset in the test environment.
        if std::env::var(MEMORY_BUDGET_ENV).is_err() {
            assert!(MemoryBudget::from_env().is_none());
        }
    }

    /// Asserts the error is a typed corruption error and returns the payload.
    fn expect_corrupt(error: io::Error) -> (PathBuf, u64) {
        let payload = error
            .get_ref()
            .and_then(|e| e.downcast_ref::<CorruptRun>())
            .unwrap_or_else(|| panic!("expected CorruptRun payload, got {error}"));
        (payload.path.clone(), payload.frame_offset)
    }

    #[test]
    fn bit_flip_in_a_page_is_rejected_by_the_checksum() {
        let dir = test_dir("bitflip");
        let records: Vec<Record> = (0..100).map(|i| Record::pair(i, i * 3)).collect();
        let run = write_run_in(&dir, &pages_of(&records), None).unwrap();
        // Flip one byte inside the first page's payload.
        let mut bytes = fs::read(run.path()).unwrap();
        let victim = 8 + FRAME_HEADER_BYTES + 3;
        bytes[victim] ^= 0x40;
        fs::write(run.path(), &bytes).unwrap();

        let mut cursor = run.cursor().unwrap();
        let error = loop {
            match cursor.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corrupt run read to completion"),
                Err(e) => break e,
            }
        };
        let (path, frame_offset) = expect_corrupt(error);
        assert_eq!(path, run.path());
        assert_eq!(frame_offset, 8, "the first frame is the corrupt one");
        assert!(crate::error::DataflowError::from(corrupt(&path, 8, "x"))
            .to_string()
            .contains("frame offset 8"));
        drop(cursor);
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn a_tampered_record_count_is_a_typed_corruption_not_a_panic() {
        let dir = test_dir("count-tamper");
        let records: Vec<Record> = (0..10).map(|i| Record::pair(i, i)).collect();
        let mut writer = PageWriter::new();
        for record in &records {
            writer.push(record);
        }
        let run = write_run_in(&dir, &writer.finish(), None).unwrap();
        let intact = fs::read(run.path()).unwrap();
        // The first frame's record count: after the run header and the
        // frame's byte length.
        let count_at = RUN_HEADER_BYTES as usize + 4;
        for count in [13u32, 7] {
            let mut bytes = intact.clone();
            bytes[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            fs::write(run.path(), &bytes).unwrap();
            let expected = crate::error::DataflowError::SpillCorrupt {
                path: run.path().display().to_string(),
                frame_offset: RUN_HEADER_BYTES,
            };
            let read_pages = run.read_pages().map(|pages| pages.len());
            assert_eq!(read_pages.map_err(Into::into), Err(expected.clone()));
            let cursor = read_run(&run).map(|read| read.len());
            assert_eq!(cursor.map_err(Into::into), Err(expected), "count {count}");
        }
        fs::write(run.path(), &intact).unwrap();
        assert_eq!(read_run(&run).unwrap(), records);
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn pre_checksum_files_are_rejected_not_misread() {
        let dir = test_dir("v1-reject");
        let records: Vec<Record> = (0..20).map(|i| Record::pair(i, i)).collect();
        let run = write_run_in(&dir, &pages_of(&records), None).unwrap();
        // Rewrite the file in the old v1 framing: no magic, 8-byte headers.
        let v2 = fs::read(run.path()).unwrap();
        let mut v1 = Vec::new();
        let mut offset = 8;
        while offset < v2.len() {
            let byte_len = u32::from_le_bytes(v2[offset..offset + 4].try_into().unwrap()) as usize;
            v1.extend_from_slice(&v2[offset..offset + 8]); // len + record count
            v1.extend_from_slice(&v2[offset + FRAME_HEADER_BYTES..][..byte_len]);
            offset += FRAME_HEADER_BYTES + byte_len;
        }
        fs::write(run.path(), &v1).unwrap();
        let error = run.cursor().expect_err("v1 framing must not open");
        let (_, frame_offset) = expect_corrupt(error);
        assert_eq!(frame_offset, 0, "rejected at the file header");
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn truncated_run_is_a_torn_frame_error() {
        let dir = test_dir("torn");
        let records: Vec<Record> = (0..100).map(|i| Record::pair(i, i)).collect();
        let run = write_run_in(&dir, &pages_of(&records), None).unwrap();
        let bytes = fs::read(run.path()).unwrap();
        fs::write(run.path(), &bytes[..bytes.len() - 5]).unwrap();
        let mut cursor = run.cursor().unwrap();
        let error = loop {
            match cursor.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("torn run read to completion"),
                Err(e) => break e,
            }
        };
        expect_corrupt(error);
        drop(cursor);
        drop(run);
        let _ = fs::remove_dir(&dir);
    }

    /// Pushes `records` through a budget-0 writer over 64-byte pages: every
    /// sealed page (two pair records) becomes a run of its own, and every
    /// run a segment of the writer's one file.
    fn segmented_runs(dir: &Path, records: &[Record], sort: Option<KeyFields>) -> Vec<SpilledRun> {
        let manager =
            SpillManager::in_dir(dir.to_owned(), MemoryBudget::bytes(0), sort).with_page_bytes(64);
        let mut writer = manager.writer();
        for record in records {
            writer.push(record);
        }
        let out = writer.finish().unwrap();
        assert!(out.pages.is_empty());
        out.runs
    }

    fn files_in(dir: &Path) -> usize {
        fs::read_dir(dir).map_or(0, |entries| entries.count())
    }

    fn read_run(run: &SpilledRun) -> io::Result<Vec<Record>> {
        let mut cursor = run.cursor()?;
        let mut records = Vec::new();
        while let Some(record) = cursor.next_record()? {
            records.push(record);
        }
        Ok(records)
    }

    #[test]
    fn a_writer_keeps_every_run_as_a_segment_of_one_file() {
        let dir = test_dir("segments");
        let records: Vec<Record> = (0..40).map(|i| Record::pair((i * 7) % 11, i)).collect();
        let mut runs = segmented_runs(&dir, &records, Some(vec![0]));
        assert!(runs.len() >= 3, "only {} runs", runs.len());
        assert_eq!(files_in(&dir), 1, "one file per writer");
        assert!(runs.iter().all(|run| run.path() == runs[0].path()));
        // Each segment is its own sorted run, readable by cursor and as pages.
        let mut read = Vec::new();
        for run in &runs {
            let cursor_read = read_run(run).unwrap();
            assert!(cursor_read.windows(2).all(|w| w[0].long(0) <= w[1].long(0)));
            let page_read: Vec<Record> = run
                .read_pages()
                .unwrap()
                .iter()
                .flat_map(|page| page.reader().map(|view| view.materialize()))
                .collect();
            assert_eq!(cursor_read, page_read);
            assert_eq!(cursor_read.len(), run.record_count());
            read.extend(cursor_read);
        }
        let mut expected = records;
        read.sort();
        expected.sort();
        assert_eq!(read, expected);
        // The file outlives every handle but the last.
        let last = runs.pop().unwrap();
        drop(runs);
        assert_eq!(files_in(&dir), 1, "a live segment keeps the file");
        drop(last);
        assert_eq!(files_in(&dir), 0, "the last handle deletes the file");
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn interleaved_cursors_over_sibling_segments_read_their_own_records() {
        let dir = test_dir("interleaved");
        let records: Vec<Record> = (0..30).map(|i| Record::pair(i, -i)).collect();
        // Unsorted flushes: run i holds page i, so the runs concatenate to
        // the input.
        let runs = segmented_runs(&dir, &records, None);
        assert!(runs.len() >= 3);
        let mut cursors: Vec<RunCursor> = runs.iter().map(|run| run.cursor().unwrap()).collect();
        let mut read: Vec<Vec<Record>> = vec![Vec::new(); runs.len()];
        // Round-robin, one record per cursor per round, until all are done.
        let mut live = cursors.len();
        while live > 0 {
            live = 0;
            for (cursor, out) in cursors.iter_mut().zip(&mut read) {
                if let Some(record) = cursor.next_record().unwrap() {
                    out.push(record);
                    live += 1;
                }
            }
        }
        for (run, got) in runs.iter().zip(&read) {
            assert_eq!(got, &read_run(run).unwrap());
        }
        assert_eq!(read.concat(), records);
        drop((cursors, runs));
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn bit_flip_in_a_later_segment_names_its_absolute_frame_offset() {
        let dir = test_dir("segment-bitflip");
        let records: Vec<Record> = (0..30).map(|i| Record::pair(i, i)).collect();
        let runs = segmented_runs(&dir, &records, None);
        let second = &runs[1];
        let frame = second.offset + RUN_HEADER_BYTES;
        assert!(
            frame > runs[0].end(),
            "the second segment follows the first"
        );
        let mut bytes = fs::read(second.path()).unwrap();
        bytes[frame as usize + FRAME_HEADER_BYTES + 3] ^= 0x40;
        fs::write(second.path(), &bytes).unwrap();

        let (path, frame_offset) = expect_corrupt(read_run(second).unwrap_err());
        assert_eq!((path.as_path(), frame_offset), (second.path(), frame));
        let (_, frame_offset) = expect_corrupt(second.read_pages().unwrap_err());
        assert_eq!(frame_offset, frame);
        assert_eq!(
            crate::error::DataflowError::from(read_run(second).unwrap_err()),
            crate::error::DataflowError::SpillCorrupt {
                path: second.path().display().to_string(),
                frame_offset: frame,
            }
        );
        // Its siblings are untouched.
        assert_eq!(read_run(&runs[0]).unwrap(), records[..2]);
        assert_eq!(read_run(&runs[2]).unwrap(), records[4..6]);
        drop(runs);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn truncated_last_segment_is_a_torn_frame() {
        let dir = test_dir("segment-torn");
        let records: Vec<Record> = (0..30).map(|i| Record::pair(i, i)).collect();
        let runs = segmented_runs(&dir, &records, None);
        let last = runs.last().unwrap();
        let bytes = fs::read(last.path()).unwrap();
        assert_eq!(
            bytes.len() as u64,
            last.end(),
            "the last segment ends the file"
        );
        fs::write(last.path(), &bytes[..bytes.len() - 5]).unwrap();
        let error = read_run(last).unwrap_err();
        assert!(error.to_string().contains("torn"), "got {error}");
        let (_, frame_offset) = expect_corrupt(error);
        assert_eq!(frame_offset, last.offset + RUN_HEADER_BYTES);
        // Earlier segments still read in full.
        let earlier: Vec<Record> = runs[..runs.len() - 1]
            .iter()
            .flat_map(|run| read_run(run).unwrap())
            .collect();
        assert_eq!(earlier, records[..records.len() - last.record_count()]);
        drop(runs);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn persistent_record_files_round_trip_and_validate_counts() {
        let dir = test_dir("persist");
        let path = dir.join("ckpt.run");
        let records: Vec<Record> = (0..500).map(|i| Record::pair(i, i * 7)).collect();
        let bytes = write_records_to(&path, &records).unwrap();
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        assert_eq!(
            read_records_from(&path, Some(records.len())).unwrap(),
            records
        );
        assert_eq!(read_records_from(&path, None).unwrap(), records);
        let error = read_records_from(&path, Some(records.len() + 1)).unwrap_err();
        expect_corrupt(error);
        // Empty files round-trip too (a checkpointed empty workset).
        let empty = dir.join("empty.run");
        write_records_to(&empty, &[]).unwrap();
        assert!(read_records_from(&empty, Some(0)).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_foreign_runs_and_old_checkpoints_only() {
        let dir = test_dir("gc");
        fs::create_dir_all(&dir).unwrap();
        let foreign = dir.join("run-99999-7.spill");
        let own = dir.join(format!("run-{}-7.spill", std::process::id()));
        let ckpt = dir.join("ckpt-12");
        let unrelated = dir.join("notes.txt");
        fs::write(&foreign, b"junk").unwrap();
        fs::write(&own, b"junk").unwrap();
        fs::create_dir_all(&ckpt).unwrap();
        fs::write(ckpt.join("MANIFEST"), b"junk").unwrap();
        fs::write(&unrelated, b"keep me").unwrap();

        // A generous max_age removes nothing (everything is brand new).
        assert_eq!(gc_stale_files(&dir, Duration::from_secs(3600)).unwrap(), 0);
        // Age zero removes the foreign run and the checkpoint dir, never our
        // own runs or unrelated files.
        assert_eq!(gc_stale_files(&dir, Duration::ZERO).unwrap(), 2);
        assert!(!foreign.exists());
        assert!(!ckpt.exists());
        assert!(own.exists());
        assert!(unrelated.exists());
        // Missing directories are fine.
        assert_eq!(
            gc_stale_files(&dir.join("absent"), Duration::ZERO).unwrap(),
            0
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_spill_write_faults_surface_through_finish() {
        let dir = test_dir("inject-write");
        let manager = SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(0), None)
            .with_fault(FaultInjector::failing_nth(FaultSite::SpillWrite, 0));
        let mut writer = manager.writer();
        for i in 0..200 {
            writer.push(&Record::pair(i, i));
        }
        let error = writer.finish().expect_err("injected fault must surface");
        assert!(error.to_string().contains("injected"));
        let _ = fs::remove_dir_all(&dir);
    }
}
