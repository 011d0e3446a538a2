//! Serialized record pages: the binary wire format of the engine.
//!
//! The Stratosphere runtime the paper builds on never routes heap objects
//! between workers: records travel as length-prefixed binary data inside
//! page-sized buffers, which is what makes repartitioning a `memcpy`, lets
//! sort and merge operate on normalized binary keys, and allows intermediate
//! results to spill to disk.  This module is that representation:
//!
//! * [`RecordPage`] — an immutable, sealed byte buffer holding a run of
//!   length-prefixed serialized records.  Sealed pages are shared and moved
//!   as pointers ([`std::sync::Arc`]); the bytes themselves are written once.
//! * [`PageWriter`] — the one page builder: serializes records into pages,
//!   sealing a page when the next record would overflow its capacity,
//!   adopts delivered pages by pointer, and addresses every record it holds
//!   by a [`PageHandle`].  Exchange outboxes, spill writers, broadcast, the
//!   load step and checkpoint files ship its sealed pages; page-native
//!   operators (the grouping kernel, the join index, the solution set, the
//!   sorted flush) read their records back through the handles.
//! * [`PageReader`] / [`RecordView`] — iterate the records of a sealed page
//!   lazily, either materializing owned [`Record`]s or reading individual
//!   fields straight out of the page bytes without allocating.
//! * [`ExchangedPartition`] — what one worker partition receives from an
//!   exchange ([`crate::exchange`]) or a forward edge: sealed pages — its
//!   producer's own, written locally by the exchange, or shipped from peer
//!   partitions — plus the runs a budgeted exchange spilled.
//! * [`for_each_key_group`] — the one kernel that sorts and groups a
//!   delivered partition by its key straight off its pages, whatever the
//!   key's shape (under the executor's Reduce and sort-merge join, the
//!   sorting spill flush and the workset driver's batch update join alike);
//!   `KeyGroups` runs the same kernel over a stream of records serialized as
//!   they arrive (a fused Reduce).
//!
//! # Wire format
//!
//! Every record is framed as a little-endian `u32` payload length followed by
//! the concatenated field encodings; each field is a type tag byte followed
//! by its payload:
//!
//! | tag | variant                  | payload                                    |
//! |-----|--------------------------|--------------------------------------------|
//! | 0   | [`Value::Null`]          | none                                       |
//! | 1   | [`Value::Bool`]          | 1 byte (0 or 1)                            |
//! | 2   | [`Value::Long`]          | 8 bytes, big-endian, sign bit flipped      |
//! | 3   | [`Value::Double`]        | 8 bytes, big-endian, total-order encoded   |
//! | 4   | [`Value::Text`]          | `u32` LE byte length + UTF-8 bytes         |
//!
//! The `Long` payload is a **normalized key**: flipping the sign bit and
//! storing big-endian makes an unsigned byte-wise comparison of the 8 bytes
//! agree with the numeric `i64` order, so a future sort/merge can compare
//! records by `memcmp` on the key prefix without deserializing
//! ([`RecordView::normalized_long_prefix`]).  `Double` payloads use the
//! standard total-order trick (negative values flip all bits, positive values
//! flip only the sign bit), matching [`f64::total_cmp`].
//!
//! [`Value::estimated_bytes`] and [`Record::estimated_bytes`] return the
//! *exact* serialized width of this format; the writer uses them to decide
//! whether a record fits into the open page before serializing it.

use crate::fault::{FaultInjector, FaultSite};
use crate::key::{FxHasher, Key, KeyFields};
use crate::record::Record;
use crate::spill::{RunMerger, SpilledRun};
use crate::value::Value;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::sync::Arc;

/// Default capacity of one page in bytes (the 32 KiB buffer size used by the
/// Stratosphere/Flink runtimes this reproduces).
pub const DEFAULT_PAGE_BYTES: usize = 32 * 1024;

/// Number of bytes of the per-record length prefix.
pub const RECORD_FRAME_BYTES: usize = 4;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_LONG: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_TEXT: u8 = 4;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Encodes an `i64` as its order-preserving normalized form: big-endian with
/// the sign bit flipped, so unsigned byte-wise comparison equals numeric
/// comparison.
#[inline]
pub fn normalize_long(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1 << 63)).to_be_bytes()
}

/// Inverse of [`normalize_long`].
#[inline]
pub fn denormalize_long(bytes: [u8; 8]) -> i64 {
    (u64::from_be_bytes(bytes) ^ (1 << 63)) as i64
}

/// Encodes an `f64` so unsigned byte-wise comparison of the result equals
/// [`f64::total_cmp`] ordering.
#[inline]
fn normalize_double(v: f64) -> [u8; 8] {
    let bits = v.to_bits();
    let flipped = if bits >> 63 == 1 {
        !bits // negative: flip everything so more-negative sorts first
    } else {
        bits ^ (1 << 63) // positive: flip the sign bit above all negatives
    };
    flipped.to_be_bytes()
}

/// Inverse of [`normalize_double`].
#[inline]
fn denormalize_double(bytes: [u8; 8]) -> f64 {
    let flipped = u64::from_be_bytes(bytes);
    let bits = if flipped >> 63 == 0 {
        !flipped
    } else {
        flipped ^ (1 << 63)
    };
    f64::from_bits(bits)
}

/// Serializes one field into the head of `buf`, returning its width.  The
/// caller guarantees the field fits.
#[inline]
fn serialize_value_into(value: &Value, buf: &mut [u8]) -> usize {
    match value {
        Value::Null => {
            buf[0] = TAG_NULL;
            1
        }
        Value::Bool(v) => {
            buf[0] = TAG_BOOL;
            buf[1] = u8::from(*v);
            2
        }
        Value::Long(v) => {
            buf[0] = TAG_LONG;
            buf[1..9].copy_from_slice(&normalize_long(*v));
            9
        }
        Value::Double(v) => {
            buf[0] = TAG_DOUBLE;
            buf[1..9].copy_from_slice(&normalize_double(*v));
            9
        }
        Value::Text(s) => {
            buf[0] = TAG_TEXT;
            buf[1..5].copy_from_slice(&(s.len() as u32).to_le_bytes());
            buf[5..5 + s.len()].copy_from_slice(s.as_bytes());
            5 + s.len()
        }
    }
}

/// Serializes one record (length prefix plus field encodings) onto `out`.
/// The number of bytes appended is exactly [`Record::estimated_bytes`].
pub fn serialize_record(record: &Record, out: &mut Vec<u8>) {
    serialize_fields_with_width(record.fields(), record.estimated_bytes(), out);
}

/// The exact serialized width of a record given as its field slice: what
/// [`Record::estimated_bytes`] returns for the record holding these fields.
#[inline]
pub fn serialized_width(fields: &[Value]) -> usize {
    RECORD_FRAME_BYTES + fields.iter().map(Value::estimated_bytes).sum::<usize>()
}

/// [`serialize_record`] over a field slice, with the serialized width
/// precomputed by the caller (the page writer already computed it for its
/// fit check — the field widths are summed once, not twice).  Small records
/// — the exchange-path common case — assemble frame and fields in one stack
/// buffer and land in the page with a single copy instead of a
/// bounds-checked append per field; wider ones are framed in place.
pub(crate) fn serialize_fields_with_width(fields: &[Value], width: usize, out: &mut Vec<u8>) {
    const STACK: usize = 64;
    if width <= STACK {
        let mut buf = [0u8; STACK];
        frame_fields_into(fields, &mut buf[..width]);
        out.extend_from_slice(&buf[..width]);
    } else {
        let start = out.len();
        out.resize(start + width, 0);
        frame_fields_into(fields, &mut out[start..]);
    }
}

/// Writes the length frame and the field encodings of a record exactly
/// `buf.len()` bytes wide into `buf`.
#[inline]
fn frame_fields_into(fields: &[Value], buf: &mut [u8]) {
    let payload = (buf.len() - RECORD_FRAME_BYTES) as u32;
    buf[..RECORD_FRAME_BYTES].copy_from_slice(&payload.to_le_bytes());
    let mut off = RECORD_FRAME_BYTES;
    for value in fields {
        off += serialize_value_into(value, &mut buf[off..]);
    }
    debug_assert_eq!(
        off,
        buf.len(),
        "estimated_bytes must equal the serialized width"
    );
}

#[inline]
fn read_array<const N: usize>(bytes: &[u8], offset: &mut usize) -> [u8; N] {
    let end = *offset + N;
    let chunk: [u8; N] = bytes[*offset..end]
        .try_into()
        .expect("a slice of exactly N bytes converts to [u8; N]");
    *offset = end;
    chunk
}

/// Decodes the field at `offset`, advancing it past the field.
///
/// Page bytes are trusted: every page is written by this module's serializer
/// (which emits only the five tags and a `&str`'s bytes for `Text`), and a
/// page that was on disk is CRC-checked before it is read
/// ([`crate::spill`]).  The two panics below are unreachable unless memory
/// itself is corrupt.  Always inlined into [`RecordView::read_into`]'s
/// per-field loop, where a call per field costs the bulk PageRank step ~10 %.
#[inline(always)]
fn deserialize_value(bytes: &[u8], offset: &mut usize) -> Value {
    let tag = bytes[*offset];
    *offset += 1;
    match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => {
            let v = bytes[*offset] != 0;
            *offset += 1;
            Value::Bool(v)
        }
        TAG_LONG => Value::Long(denormalize_long(read_array(bytes, offset))),
        TAG_DOUBLE => Value::Double(denormalize_double(read_array(bytes, offset))),
        TAG_TEXT => {
            let len = u32::from_le_bytes(read_array(bytes, offset)) as usize;
            let end = *offset + len;
            let s = std::str::from_utf8(&bytes[*offset..end]).expect(
                "a Text field holds the bytes of a &str: pages are written by the \
                 serializer and CRC-checked when read back from disk",
            );
            *offset = end;
            Value::Text(s.to_owned())
        }
        other => panic!(
            "unknown value tag {other}: pages are written by the serializer, which \
             emits only tags 0-4, and CRC-checked when read back from disk"
        ),
    }
}

// ---------------------------------------------------------------------------
// Pages
// ---------------------------------------------------------------------------

/// An immutable, sealed buffer of length-prefixed serialized records.
///
/// Pages are produced by a [`PageWriter`], after which their bytes never
/// change; the exchange paths move or share them as `Arc<RecordPage>`
/// pointers, so routing a sealed page between partitions costs a pointer
/// copy regardless of how many records it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordPage {
    buf: Vec<u8>,
    records: usize,
}

impl RecordPage {
    /// Number of records in the page.
    #[inline]
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// True if the page holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of serialized bytes (frames included).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// The raw serialized bytes of the page (the run file format on disk is
    /// exactly these bytes behind a small frame header).
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// A cursor over the records of the page.
    #[inline]
    pub fn reader(&self) -> PageReader<'_> {
        PageReader {
            bytes: &self.buf,
            offset: 0,
            remaining: self.records,
        }
    }

    /// The view of the record whose length frame starts at `offset` — the
    /// resolution primitive behind [`PageHandle`]s.  Offsets come from
    /// [`PageReader::next_offset`] at scan time; anything else is corrupt.
    #[inline]
    pub fn view_at(&self, offset: usize) -> RecordView<'_> {
        view_in(&self.buf, offset)
    }

    /// Wraps already-framed page bytes (the run file on disk stores exactly
    /// this representation behind a checksummed header, so reviving a spilled
    /// page is a read plus this constructor — no per-record work).
    #[inline]
    pub(crate) fn from_raw(buf: Vec<u8>, records: usize) -> RecordPage {
        RecordPage { buf, records }
    }

    /// The page's buffer (contents cleared, capacity kept) when `page` was
    /// its last pointer — the reclaim step of buffer recycling.
    pub(crate) fn into_buffer(page: Arc<RecordPage>) -> Option<Vec<u8>> {
        let mut buf = Arc::try_unwrap(page).ok()?.buf;
        buf.clear();
        Some(buf)
    }
}

/// Reads the framed record starting at `offset` out of `bytes` as a view —
/// also how a spilled run's frame buffer is read in place
/// ([`crate::spill::RunCursor`]).
#[inline]
pub(crate) fn view_in(bytes: &[u8], offset: usize) -> RecordView<'_> {
    let mut offset = offset;
    let len = u32::from_le_bytes(read_array(bytes, &mut offset)) as usize;
    RecordView {
        payload: &bytes[offset..offset + len],
    }
}

/// The address of one serialized record inside a [`PageWriter`]: the page
/// index and the byte offset of the record's length frame.  Handles are 8
/// bytes, `Copy`, and totally ordered by insertion position — sorting
/// `(key, handle)` pairs with an unstable sort therefore reproduces a stable
/// sort of the writer's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageHandle {
    page: u32,
    offset: u32,
}

/// Serializes records into a sequence of sealed [`RecordPage`]s and
/// addresses every record it holds by a [`PageHandle`] — the one builder of
/// pages: exchange outboxes, spill writers, broadcast, the load step and
/// checkpoint files hand its sealed pages on; the grouping kernel, the join
/// index, the solution set and the sorted flush read records back through
/// their handles ([`PageWriter::view`]).
///
/// The writer keeps one open page; pushing a record that would not fit seals
/// the open page and starts a new one.  A record wider than the page capacity
/// gets a private oversized page, so arbitrarily large records round-trip.
/// Sealed pages delivered by an exchange are **adopted** by pointer
/// ([`PageWriter::adopt_page_scanned`]: no copy, no deserialization).
///
/// # Capacity invariant
///
/// Every page the writer seals holds at most `page_bytes` bytes, with
/// exactly one exception: a record wider than the capacity seals **alone**
/// into a private page, immediately — it never shares a page, so the records
/// around it frame exactly as if it had fit.  Sealing asserts this invariant
/// instead of letting an over-full mixed page slip through silently (which
/// would break the fixed-buffer assumption of anything staging pages, e.g.
/// the spill path reviving them through one reused buffer).
///
/// # Handles
///
/// A handle addresses its record until [`PageWriter::take_sealed`], which
/// ends every handle issued before it; sealing the open page keeps them.
#[derive(Debug, Clone)]
pub struct PageWriter {
    page_bytes: usize,
    /// Sealed and adopted pages, in order.  Handles into the open page carry
    /// page index `sealed.len()`, which stays correct when it seals.
    sealed: Vec<Arc<RecordPage>>,
    /// Serialized bytes across the sealed (not yet taken) pages — what a
    /// memory budget meters; the open page is the working buffer and is
    /// never counted.
    sealed_bytes: usize,
    buf: Vec<u8>,
    records: usize,
    total_records: usize,
    total_bytes: usize,
    /// Recycled page buffers (capacity retained, contents cleared) handed to
    /// the writer by a [`PagePool`]; sealing reuses one instead of
    /// allocating a fresh buffer, so a steady-state superstep whose consumed
    /// pages are recycled into its outboxes allocates no new pages.
    spare: Vec<Vec<u8>>,
}

impl Default for PageWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl PageWriter {
    /// A writer producing pages of [`DEFAULT_PAGE_BYTES`] capacity.
    pub fn new() -> Self {
        Self::with_page_bytes(DEFAULT_PAGE_BYTES)
    }

    /// A writer producing pages of the given capacity (useful in tests to
    /// force records to straddle page boundaries).
    pub fn with_page_bytes(page_bytes: usize) -> Self {
        PageWriter {
            page_bytes: page_bytes.max(RECORD_FRAME_BYTES + 1),
            sealed: Vec::new(),
            sealed_bytes: 0,
            buf: Vec::new(),
            records: 0,
            total_records: 0,
            total_bytes: 0,
            spare: Vec::new(),
        }
    }

    /// Hands the writer recycled page buffers to seal into instead of
    /// allocating fresh ones (see [`PagePool`]).  A writer that has not
    /// buffered anything yet claims one buffer as its open page immediately,
    /// so even the first page writes into recycled capacity.
    pub fn add_spare_buffers(&mut self, buffers: impl IntoIterator<Item = Vec<u8>>) {
        self.spare.extend(buffers.into_iter().map(|mut b| {
            b.clear();
            b
        }));
        if self.buf.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                self.buf = buf;
            }
        }
    }

    /// Takes one buffer from `buffers` unless the writer still holds a
    /// recycled buffer for its next page.  Called before every push by a
    /// caller that shares one stock of buffers among several writers, this
    /// keeps each writer one page ahead, so the buffers go to the writers
    /// that actually fill pages.
    #[inline]
    pub fn refill_spare_from(&mut self, buffers: &mut Vec<Vec<u8>>) {
        if self.spare.is_empty() {
            self.add_spare_buffers(buffers.pop());
        }
    }

    /// Serializes one record into the open page, sealing first if it would
    /// overflow, and returns its handle.
    #[inline]
    pub fn push(&mut self, record: &Record) -> PageHandle {
        self.push_fields(record.fields())
    }

    /// [`PageWriter::push`] for a record given as its field slice: a record
    /// emitted by reference is born serialized, without ever being a heap
    /// [`Record`].
    #[inline]
    pub fn push_fields(&mut self, fields: &[Value]) -> PageHandle {
        // The exact serialized width of the binary format, so the fit check
        // never needs a rollback.
        let width = serialized_width(fields);
        self.push_framed(width, |buf| serialize_fields_with_width(fields, width, buf))
    }

    /// Copies one already-serialized record (a [`RecordView`] payload,
    /// possibly from another writer or page) and returns its handle — the
    /// page-to-page forward that never deserializes.
    pub fn push_serialized(&mut self, payload: &[u8]) -> PageHandle {
        self.push_framed(RECORD_FRAME_BYTES + payload.len(), |buf| {
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
        })
    }

    /// Frames one `width`-byte record that `write` appends to the open page:
    /// seals first if it would overflow, and seals the record alone if it is
    /// oversized.
    #[inline]
    fn push_framed(&mut self, width: usize, write: impl FnOnce(&mut Vec<u8>)) -> PageHandle {
        if !self.buf.is_empty() && self.buf.len() + width > self.page_bytes {
            // This page filled, so its successor most likely will too: start
            // it at full capacity instead of doubling up to it.  (A writer's
            // first page still grows lazily — most writers of a near-empty
            // superstep never fill one.)
            let page_bytes = self.page_bytes;
            self.seal_onto(|| Vec::with_capacity(page_bytes));
        }
        let handle = PageHandle {
            page: self.sealed.len() as u32,
            offset: self.buf.len() as u32,
        };
        write(&mut self.buf);
        self.records += 1;
        self.total_records += 1;
        self.total_bytes += width;
        if width > self.page_bytes {
            // An oversized record seals alone, immediately: its private page
            // is the one allowed breach of the capacity invariant, and
            // sealing it here guarantees no later record shares (and
            // corrupts the offsets of) the over-full buffer.
            self.seal();
        }
        handle
    }

    /// Adopts a sealed page by pointer — the zero-copy ingest of everything
    /// an exchange delivered serialized — and visits each of its records
    /// with the handle it is now addressable by: the ingest loop of
    /// page-native operator builds.  Seals the open page first so previously
    /// returned handles keep addressing it.  `f` returns whether to keep
    /// scanning; an aborted scan still completes the adoption and returns
    /// `false`.
    pub fn adopt_page_scanned(
        &mut self,
        page: &Arc<RecordPage>,
        mut f: impl FnMut(PageHandle, RecordView<'_>) -> bool,
    ) -> bool {
        if page.is_empty() {
            return true;
        }
        self.seal();
        let idx = self.sealed.len() as u32;
        self.sealed_bytes += page.byte_len();
        self.total_records += page.record_count();
        self.total_bytes += page.byte_len();
        self.sealed.push(Arc::clone(page));
        let mut reader = page.reader();
        loop {
            let offset = reader.next_offset() as u32;
            let Some(view) = reader.next() else {
                return true;
            };
            if !f(PageHandle { page: idx, offset }, view) {
                return false;
            }
        }
    }

    /// The view of the record at `handle`.  Always inlined: it sits in the
    /// per-record loops of every page-native grouping, probe and merge.
    #[inline(always)]
    pub fn view(&self, handle: PageHandle) -> RecordView<'_> {
        let page = handle.page as usize;
        if page == self.sealed.len() {
            view_in(&self.buf, handle.offset as usize)
        } else {
            self.sealed[page].view_at(handle.offset as usize)
        }
    }

    /// Seals the open page (a no-op when it is empty).
    pub fn seal(&mut self) {
        self.seal_onto(Vec::new);
    }

    /// Seals the open page and opens the next one on a recycled buffer, or
    /// on what `fresh` returns when none is left.
    fn seal_onto(&mut self, fresh: impl FnOnce() -> Vec<u8>) {
        if self.buf.is_empty() {
            return;
        }
        debug_assert!(
            self.buf.len() <= self.page_bytes || self.records == 1,
            "capacity invariant violated: a {}-byte page with {} records exceeds \
             the {}-byte capacity (only single oversized records may)",
            self.buf.len(),
            self.records,
            self.page_bytes
        );
        let next = self.spare.pop().unwrap_or_else(fresh);
        let buf = std::mem::replace(&mut self.buf, next);
        let records = std::mem::replace(&mut self.records, 0);
        self.sealed_bytes += buf.len();
        self.sealed.push(Arc::new(RecordPage { buf, records }));
    }

    /// Serialized bytes across the sealed pages still held by the writer
    /// (the quantity a [`crate::spill::MemoryBudget`] meters).
    #[inline]
    pub fn sealed_bytes(&self) -> usize {
        self.sealed_bytes
    }

    /// Number of sealed pages still held by the writer (the quantity a
    /// page-credit cap meters; see `crate::spill::SpillManager`).
    #[inline]
    pub fn sealed_page_count(&self) -> usize {
        self.sealed.len()
    }

    /// Takes the sealed pages out of the writer (the open page stays),
    /// resetting the sealed-byte gauge — the spill path moves these to disk.
    /// Ends the validity of every handle issued so far, the open page's
    /// included: page indices restart at the open page.
    pub fn take_sealed(&mut self) -> Vec<Arc<RecordPage>> {
        self.sealed_bytes = 0;
        std::mem::take(&mut self.sealed)
    }

    /// Records written or adopted so far (sealed and open pages).
    #[inline]
    pub fn total_records(&self) -> usize {
        self.total_records
    }

    /// Serialized bytes written or adopted so far (sealed and open pages,
    /// frames included).
    #[inline]
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// True if nothing has been written or adopted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total_records == 0
    }

    /// Seals the open page and returns all pages.
    pub fn finish(mut self) -> Vec<Arc<RecordPage>> {
        self.seal();
        self.sealed
    }
}

/// A cursor over the records of one page, yielding lazy [`RecordView`]s.
#[derive(Debug, Clone)]
pub struct PageReader<'a> {
    bytes: &'a [u8],
    offset: usize,
    remaining: usize,
}

impl<'a> PageReader<'a> {
    /// Records not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Byte offset of the next record's length frame — recorded *before*
    /// calling [`Iterator::next`], this is the record's stable address inside
    /// the page (see [`RecordPage::view_at`] and [`PageHandle`]).
    #[inline]
    pub fn next_offset(&self) -> usize {
        self.offset
    }
}

impl<'a> Iterator for PageReader<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let view = view_in(self.bytes, self.offset);
        self.offset += view.framed_len();
        Some(view)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PageReader<'_> {}

/// A borrowed view of one serialized record inside a page.
///
/// Fields can be materialized ([`RecordView::materialize`] /
/// [`RecordView::read_into`]) or read in place without allocating
/// ([`RecordView::long`], [`RecordView::normalized_long_prefix`]).
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    payload: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Serialized payload width in bytes (without the length prefix).
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The raw serialized payload (field encodings without the length
    /// frame).  Copying this into another page reproduces the record exactly
    /// — the page-to-page forwarding primitive that never deserializes.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Serialized width including the length frame (what pushing this view
    /// into a [`PageWriter`] costs in bytes).
    #[inline]
    pub fn framed_len(&self) -> usize {
        RECORD_FRAME_BYTES + self.payload.len()
    }

    /// Deserializes the record into a fresh, exactly sized [`Record`].
    pub fn materialize(&self) -> Record {
        let (mut offset, mut fields) = (0, 0);
        while offset < self.payload.len() {
            skip_value(self.payload, &mut offset);
            fields += 1;
        }
        let mut values = Vec::with_capacity(fields);
        offset = 0;
        while offset < self.payload.len() {
            values.push(deserialize_value(self.payload, &mut offset));
        }
        Record::new(values)
    }

    /// Deserializes the record into `target`, reusing its field buffer (the
    /// receive-side scratch-record pattern: iterating a page this way
    /// allocates nothing for fixed-width fields once the buffer has warmed
    /// up).
    pub fn read_into(&self, target: &mut Record) {
        target.clear();
        let mut offset = 0;
        while offset < self.payload.len() {
            target.push(deserialize_value(self.payload, &mut offset));
        }
    }

    /// Reads the `i64` stored in field `idx` straight from the page bytes,
    /// panicking if the field is missing or not a `Long` (the same contract
    /// as [`Record::long`]).
    pub fn long(&self, idx: usize) -> i64 {
        denormalize_long(self.fixed_width(idx, TAG_LONG))
    }

    /// Reads the `f64` stored in field `idx` straight from the page bytes,
    /// panicking if the field is missing or not a `Double` (the same
    /// contract as [`Record::double`]).
    pub fn double(&self, idx: usize) -> f64 {
        denormalize_double(self.fixed_width(idx, TAG_DOUBLE))
    }

    /// The 8-byte payload of field `idx`, which must carry `tag`.
    #[inline]
    fn fixed_width(&self, idx: usize, tag: u8) -> [u8; 8] {
        // The caller's contract, as for `Record::long`: it names a field the
        // record has, of the type it asks for.
        let offset = self
            .field_offset(idx)
            .unwrap_or_else(|| panic!("page record has no field {idx}"));
        assert_eq!(
            self.payload[offset], tag,
            "page field {idx} has another type than the one read"
        );
        let mut offset = offset + 1;
        read_array(self.payload, &mut offset)
    }

    /// Overwrites `key` with this record's key on `fields`, reusing a
    /// composite key's buffer: refilling a key of fixed-width fields
    /// allocates nothing.
    pub fn key_into(&self, fields: &[usize], key: &mut Key) {
        key.assign_with(fields.len(), |i| {
            let mut offset = self
                .field_offset(fields[i])
                .unwrap_or_else(|| panic!("page record has no key field {}", fields[i]));
            deserialize_value(self.payload, &mut offset)
        });
    }

    /// The 8-byte normalized (order-preserving) encoding of the first field
    /// if it is a `Long` — the binary sort key of the record.  `None` when
    /// the record is empty or its first field has another type.
    pub fn normalized_long_prefix(&self) -> Option<[u8; 8]> {
        if self.payload.first() != Some(&TAG_LONG) {
            return None;
        }
        let mut offset = 1;
        Some(read_array(self.payload, &mut offset))
    }

    /// The normalized `Long` encoding of field `idx` as a `u64` whose
    /// unsigned order equals the `i64` order — the page-native join/group
    /// key.  Because [`normalize_long`] is a bijection and
    /// [`Value`] equality on `Long`s is numeric, two records match on this
    /// `u64` **iff** their key fields are equal values: for a single-`Long`
    /// key the prefix *is* the full key, no collision check needed.  `None`
    /// when the field is missing or not a `Long` (every other key shape has
    /// a hashed prefix; see [`for_each_key_group`]).
    pub fn long_key_prefix(&self, idx: usize) -> Option<u64> {
        let offset = self.field_offset(idx)?;
        if self.payload[offset] != TAG_LONG {
            return None;
        }
        let mut offset = offset + 1;
        Some(u64::from_be_bytes(read_array(self.payload, &mut offset)))
    }

    /// The serialized encoding (tag byte plus payload) of field `idx`, or
    /// `None` when the record has fewer fields.  Byte equality of these
    /// slices is exactly [`Value`] equality: every encoding is a bijection
    /// on the bit patterns `Value`'s `PartialEq` compares (`Double` equality
    /// is bitwise), so a full-key check on prefix collision is a `memcmp`.
    pub fn field_bytes(&self, idx: usize) -> Option<&'a [u8]> {
        let start = self.field_offset(idx)?;
        let mut end = start;
        skip_value(self.payload, &mut end);
        Some(&self.payload[start..end])
    }

    /// Byte offset of field `idx` inside the payload.
    fn field_offset(&self, idx: usize) -> Option<usize> {
        let mut offset = 0;
        for _ in 0..idx {
            if offset >= self.payload.len() {
                return None;
            }
            skip_value(self.payload, &mut offset);
        }
        (offset < self.payload.len()).then_some(offset)
    }
}

/// Advances `offset` past the field starting there.  Page bytes are trusted
/// for the reason [`deserialize_value`] gives.
fn skip_value(bytes: &[u8], offset: &mut usize) {
    let tag = bytes[*offset];
    *offset += 1;
    *offset += match tag {
        TAG_NULL => 0,
        TAG_BOOL => 1,
        TAG_LONG | TAG_DOUBLE => 8,
        TAG_TEXT => u32::from_le_bytes(read_array(bytes, offset)) as usize,
        other => panic!(
            "unknown value tag {other}: pages are written by the serializer, which \
             emits only tags 0-4, and CRC-checked when read back from disk"
        ),
    };
}

// ---------------------------------------------------------------------------
// Key prefixes and in-place key comparison
// ---------------------------------------------------------------------------

/// The 8-byte prefix the kernel sorts and groups a record on, and whether it
/// is *exact*.  A key that is one `Long` field has its normalized `Long` as
/// prefix ([`RecordView::long_key_prefix`]): order-preserving, and the whole
/// key.  Every other key shape — composite, `Text`, `Double`, `Null`, `Bool`
/// — has a hash of its key fields' serialized bytes, which only tells keys
/// apart: equal keys have equal prefixes, and such keys are ordered and
/// compared in place on their bytes ([`cmp_keys_in_place`]).
#[inline]
pub(crate) fn key_prefix(view: RecordView<'_>, key: &[usize]) -> (u64, bool) {
    if let &[field] = key {
        if let Some(prefix) = view.long_key_prefix(field) {
            return (prefix, true);
        }
    }
    (hash_key_bytes(view, key), false)
}

/// [`key_prefix`] of a record given as its field slice: the same prefix for
/// the same key, whether a heap record or a page holds it.
#[inline]
pub(crate) fn key_prefix_of_fields(fields: &[Value], key: &[usize]) -> (u64, bool) {
    if let &[field] = key {
        if let Some(Value::Long(v)) = fields.get(field) {
            return (u64::from_be_bytes(normalize_long(*v)), true);
        }
    }
    (hash_key_values(fields, key), false)
}

/// Feeds one serialized field to `hasher`: its tag, then its payload — a
/// `Text`'s bytes without their length frame, which is what
/// [`hash_key_values`] has of a `&str`.
#[inline]
fn mix_field(hasher: &mut FxHasher, bytes: &[u8]) {
    hasher.write_u8(bytes[0]);
    hasher.write(&bytes[if bytes[0] == TAG_TEXT { 5 } else { 1 }..]);
}

/// The inexact prefix of a serialized record's key (see [`key_prefix`]).
#[cold]
#[inline(never)]
fn hash_key_bytes(view: RecordView<'_>, key: &[usize]) -> u64 {
    let mut hasher = FxHasher::default();
    for bytes in key.iter().filter_map(|&field| view.field_bytes(field)) {
        mix_field(&mut hasher, bytes);
    }
    hasher.finish()
}

/// [`hash_key_bytes`] of a record given as its field slice: every field is
/// hashed as its serialized bytes.
#[cold]
#[inline(never)]
fn hash_key_values(fields: &[Value], key: &[usize]) -> u64 {
    let mut hasher = FxHasher::default();
    let mut buf = [0u8; 9];
    for value in key.iter().filter_map(|&field| fields.get(field)) {
        if let Value::Text(s) = value {
            hasher.write_u8(TAG_TEXT);
            hasher.write(s.as_bytes());
        } else {
            let width = serialize_value_into(value, &mut buf);
            mix_field(&mut hasher, &buf[..width]);
        }
    }
    hasher.finish()
}

/// Orders two serialized fields exactly as [`Value`]'s `Ord` orders the
/// values: by type tag first (the page tags are `Value`'s type tags), then
/// `Long`s numerically and `Double`s by `total_cmp` — both encodings are
/// order-preserving, so that is a `memcmp` of the payloads — and `Text` by
/// its UTF-8 bytes, past the length frame.
#[inline]
fn cmp_field_bytes(a: &[u8], b: &[u8]) -> Ordering {
    match a[0].cmp(&b[0]) {
        Ordering::Equal if a[0] == TAG_TEXT => a[5..].cmp(&b[5..]),
        Ordering::Equal => a[1..].cmp(&b[1..]),
        unequal => unequal,
    }
}

/// Compares key `a_key` of `a` with key `b_key` of `b` field by field, in
/// place on the page bytes — the order of the key fields' values
/// ([`Value`]'s `Ord`), field by field.  The kernel's inexact keys are ordered and
/// grouped by it.
#[cold]
#[inline(never)]
pub(crate) fn cmp_keys_in_place(
    a: RecordView<'_>,
    a_key: &[usize],
    b: RecordView<'_>,
    b_key: &[usize],
) -> Ordering {
    for (&fa, &fb) in a_key.iter().zip(b_key) {
        let ord = match (a.field_bytes(fa), b.field_bytes(fb)) {
            (Some(x), Some(y)) => cmp_field_bytes(x, y),
            (x, y) => x.is_some().cmp(&y.is_some()),
        };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

/// Whether key `view_key` of `view` equals key `key` of a record given as
/// its field slice, compared on the serialized bytes (byte equality of the
/// encodings is `Value` equality).
#[cold]
#[inline(never)]
pub(crate) fn key_matches_fields(
    view: RecordView<'_>,
    view_key: &[usize],
    fields: &[Value],
    key: &[usize],
) -> bool {
    let mut buf = [0u8; 9];
    view_key
        .iter()
        .zip(key)
        .all(|(&vf, &f)| match (view.field_bytes(vf), fields.get(f)) {
            (Some(bytes), Some(Value::Text(s))) => {
                bytes[0] == TAG_TEXT && bytes[5..] == *s.as_bytes()
            }
            (Some(bytes), Some(value)) => {
                let width = serialize_value_into(value, &mut buf);
                *bytes == buf[..width]
            }
            (x, y) => x.is_none() && y.is_none(),
        })
}

// ---------------------------------------------------------------------------
// Prefix tables: handles under a key prefix
// ---------------------------------------------------------------------------

/// A hash table from an 8-byte normalized key prefix to the chain of
/// [`PageHandle`]s inserted under it, preserving insertion order per key —
/// the page-native join/group build structure.  Entries live in one arena
/// vector, so inserting `n` records costs `O(log n)` amortized allocations
/// (vector doublings), not `n`; [`PrefixTable::clear`] retains capacity so a
/// steady-state superstep reusing a table allocates nothing.
///
/// The table compares prefixes only.  For a single-`Long` key the prefix is
/// the **complete** key (the normalized encoding is a bijection), so a chain
/// holds exactly the key's records; under any other key shape's hashed
/// prefix (see [`for_each_key_group`]) a chain may mix keys, and the caller filters it on
/// the key bytes, as [`crate::join_index::JoinIndex`] does.
#[derive(Debug, Default)]
pub struct PrefixTable {
    /// Per prefix: index of the first and last entry of its chain.
    heads: crate::key::FxHashMap<u64, (u32, u32)>,
    /// `(handle, next)` arena; `u32::MAX` terminates a chain.
    entries: Vec<(PageHandle, u32)>,
}

const CHAIN_END: u32 = u32::MAX;

impl PrefixTable {
    /// An empty table.
    pub fn new() -> PrefixTable {
        PrefixTable::default()
    }

    /// Number of inserted records.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets all entries but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
    }

    /// Appends `handle` under `prefix`, after everything inserted under the
    /// same prefix before it.
    pub fn insert(&mut self, prefix: u64, handle: PageHandle) {
        let entry = self.entries.len() as u32;
        self.entries.push((handle, CHAIN_END));
        match self.heads.entry(prefix) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let (_, tail) = *slot.get();
                self.entries[tail as usize].1 = entry;
                slot.get_mut().1 = entry;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert((entry, entry));
            }
        }
    }

    /// The handles inserted under `prefix`, in insertion order.
    #[inline]
    pub fn probe(&self, prefix: u64) -> PrefixChain<'_> {
        PrefixChain {
            entries: &self.entries,
            next: self.heads.get(&prefix).map_or(CHAIN_END, |&(head, _)| head),
        }
    }
}

/// Iterator over one prefix chain (see [`PrefixTable::probe`]).
#[derive(Debug, Clone)]
pub struct PrefixChain<'a> {
    entries: &'a [(PageHandle, u32)],
    next: u32,
}

impl Iterator for PrefixChain<'_> {
    type Item = PageHandle;

    #[inline]
    fn next(&mut self) -> Option<PageHandle> {
        if self.next == CHAIN_END {
            return None;
        }
        let (handle, next) = self.entries[self.next as usize];
        self.next = next;
        Some(handle)
    }
}

/// Recycles the buffers of consumed pages into writers about to seal new
/// ones.  A page whose `Arc` has no other holders gives up its `Vec<u8>`
/// (capacity kept, contents cleared); feeding those buffers to the next
/// superstep's [`PageWriter`]s via [`PageWriter::add_spare_buffers`] makes
/// the steady state allocate no new pages — consumed exchange pages become
/// the next exchange's output pages.
#[derive(Debug)]
pub struct PagePool {
    free: Vec<Vec<u8>>,
    limit: usize,
}

impl Default for PagePool {
    fn default() -> Self {
        Self::new()
    }
}

impl PagePool {
    /// A pool retaining up to 1024 buffers (32 MiB of default-size pages).
    pub fn new() -> PagePool {
        PagePool::with_limit(1024)
    }

    /// A pool retaining at most `limit` buffers; beyond that, recycled pages
    /// are simply dropped.
    pub fn with_limit(limit: usize) -> PagePool {
        PagePool {
            free: Vec::new(),
            limit,
        }
    }

    /// Re-bounds the pool to `limit` buffers, dropping any beyond it.  A
    /// caller that recycles what one round drained into what the next round
    /// writes sets this to the drained page count, so the pool covers the
    /// steady state exactly and shrinks with the data.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
        self.free.truncate(limit);
    }

    /// Buffers currently pooled.
    #[inline]
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no buffer is pooled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Reclaims one page's buffer if this was the last pointer to it.
    /// Returns whether the buffer was captured.
    pub fn recycle(&mut self, page: Arc<RecordPage>) -> bool {
        if self.free.len() >= self.limit {
            return false;
        }
        let Some(buf) = RecordPage::into_buffer(page) else {
            return false;
        };
        self.free.push(buf);
        true
    }

    /// Reclaims every uniquely-owned page of an iterator, returning how many
    /// buffers were captured.
    pub fn recycle_all(&mut self, pages: impl IntoIterator<Item = Arc<RecordPage>>) -> usize {
        pages
            .into_iter()
            .fold(0, |n, page| n + usize::from(self.recycle(page)))
    }

    /// Takes up to `max` pooled buffers (newest first) to feed a writer.
    pub fn take(&mut self, max: usize) -> std::vec::Drain<'_, Vec<u8>> {
        let start = self.free.len().saturating_sub(max);
        self.free.drain(start..)
    }
}

// ---------------------------------------------------------------------------
// Exchanged partitions
// ---------------------------------------------------------------------------

/// The post-exchange input of one worker partition — the one type every edge
/// delivers to a local phase, whatever its ship strategy: the executor's
/// forward, hash and broadcast edges and its cached edges, and the
/// iteration runtime's superstep queues.
///
/// It holds pages and runs only: sealed, shared pages — a forward edge's
/// share of its producer's pages, a partition's own local writer, peers'
/// pages — and, when the exchange ran under a memory budget,
/// [`SpilledRun`]s on disk.  Consumers read every record in place
/// ([`ExchangedPartition::for_each_view`]).
#[derive(Debug, Default, Clone)]
pub struct ExchangedPartition {
    pages: Vec<Arc<RecordPage>>,
    /// Runs spilled to disk by the exchange, in spill order (earlier records
    /// first).
    runs: Vec<SpilledRun>,
}

impl ExchangedPartition {
    /// A partition of in-memory pages.
    pub fn new(pages: Vec<Arc<RecordPage>>) -> Self {
        ExchangedPartition {
            pages,
            runs: Vec::new(),
        }
    }

    /// A partition of in-memory pages plus the runs its exchange spilled.
    pub fn from_spilled(pages: Vec<Arc<RecordPage>>, runs: Vec<SpilledRun>) -> Self {
        ExchangedPartition { pages, runs }
    }

    /// Appends sealed pages (pointer moves): the source partition's own
    /// pages first, then peers' in source order.
    pub fn receive_pages(&mut self, pages: impl IntoIterator<Item = Arc<RecordPage>>) {
        self.pages.extend(pages);
    }

    /// Appends spilled runs received from a peer partition (handle moves —
    /// the bytes stay on disk).
    pub fn receive_runs(&mut self, runs: impl IntoIterator<Item = SpilledRun>) {
        self.runs.extend(runs);
    }

    /// Total records (paged and spilled).
    pub fn record_count(&self) -> usize {
        self.pages.iter().map(|p| p.record_count()).sum::<usize>()
            + self.runs.iter().map(|r| r.record_count()).sum::<usize>()
    }

    /// True if the partition received nothing.
    pub fn is_empty(&self) -> bool {
        self.pages.iter().all(|p| p.is_empty()) && self.runs.iter().all(|r| r.record_count() == 0)
    }

    /// Number of sealed pages in memory.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of spilled runs backing this partition.
    pub fn spilled_run_count(&self) -> usize {
        self.runs.len()
    }

    /// True when every spilled run is individually sorted by `key` (a hash
    /// exchange delivers unordered partitions whose runs were still sorted
    /// on flush).  Sort-based
    /// consumers use this to merge the runs with a sorted in-memory residue
    /// instead of rematerializing and re-sorting everything.
    pub(crate) fn spilled_runs_sorted_by(&self, key: &[usize]) -> bool {
        self.runs.iter().all(|run| run.sorted_by() == Some(key))
    }

    /// The sealed pages in memory.
    pub fn pages(&self) -> &[Arc<RecordPage>] {
        &self.pages
    }

    /// The spilled runs backing this partition.
    pub fn runs(&self) -> &[SpilledRun] {
        &self.runs
    }

    /// Ingests the partition into the handle-addressed `store`, reporting
    /// every record's `(key prefix, handle)` ([`key_prefix`]) in delivery
    /// order (pages, then spilled runs).  Pages are adopted by pointer;
    /// spilled runs are revived as pages (a read per page, no per-record
    /// work).  Returns whether every prefix is exact, and a typed I/O error
    /// when a run cannot be read.
    pub(crate) fn ingest(
        &self,
        key: &[usize],
        store: &mut PageWriter,
        mut on_record: impl FnMut(u64, PageHandle),
    ) -> std::io::Result<bool> {
        let mut exact = self.ingest_residue(key, store, &mut on_record);
        for run in &self.runs {
            for page in &run.read_pages()? {
                exact &= scan_keyed(page, key, store, &mut on_record);
            }
        }
        Ok(exact)
    }

    /// [`ExchangedPartition::ingest`] of the in-memory pages alone, leaving
    /// the runs on disk.
    fn ingest_residue(
        &self,
        key: &[usize],
        store: &mut PageWriter,
        on_record: &mut impl FnMut(u64, PageHandle),
    ) -> bool {
        let mut exact = true;
        for page in &self.pages {
            exact &= scan_keyed(page, key, store, on_record);
        }
        exact
    }

    /// The spill-read fault gate of a local phase: consults `fault` once
    /// ([`FaultSite::SpillRead`]) when the partition is backed by spilled
    /// runs, before anything reads them — the executor's inputs and the
    /// workset's batch supersteps alike.
    pub fn check_spill_read(&self, fault: &FaultInjector) -> std::io::Result<()> {
        if self.runs.is_empty() {
            return Ok(());
        }
        fault.io_check(FaultSite::SpillRead)
    }

    /// Decomposes the partition into its pieces: `(pages, runs)`.
    pub fn into_pieces(self) -> (Vec<Arc<RecordPage>>, Vec<SpilledRun>) {
        (self.pages, self.runs)
    }

    /// Calls `f` with every record, read in place: the pages, then the runs
    /// streamed off disk one frame at a time.  Nothing is deserialized.
    /// Fails with the underlying I/O error when a spilled run cannot be
    /// read.
    pub fn for_each_view(&self, mut f: impl FnMut(RecordView<'_>)) -> std::io::Result<()> {
        for page in &self.pages {
            page.reader().for_each(&mut f);
        }
        for run in &self.runs {
            let mut cursor = run.cursor()?;
            while cursor.step()? {
                f(cursor.view());
            }
        }
        Ok(())
    }
}

/// Adopts `page` into `store`, reporting every record's `(key prefix,
/// handle)`; returns whether every prefix is exact.
fn scan_keyed(
    page: &Arc<RecordPage>,
    key: &[usize],
    store: &mut PageWriter,
    on_record: &mut impl FnMut(u64, PageHandle),
) -> bool {
    let mut exact = true;
    store.adopt_page_scanned(page, |handle, view| {
        let (prefix, is_exact) = key_prefix(view, key);
        on_record(prefix, handle);
        exact &= is_exact;
        true
    });
    exact
}

// ---------------------------------------------------------------------------
// Sorting and grouping a paged partition by its key
// ---------------------------------------------------------------------------

/// The reusable buffers of [`for_each_key_group`]: the `(key prefix, handle)`
/// pairs, the radix pass's second pair buffer, and the bytes a spilled key
/// group is copied into.  All keep their capacity across calls, so a
/// steady-state superstep groups without allocating.
#[derive(Debug, Default)]
pub struct GroupScratch {
    pairs: Vec<(u64, PageHandle)>,
    radix: Vec<(u64, PageHandle)>,
    bytes: Vec<u8>,
}

/// A paged partition sorted on its key: the records sit in a page writer,
/// the order is the caller's `(key prefix, handle)` pairs.  `exact` tells
/// that every key is one `Long` field, whose prefix orders and cuts the
/// groups by itself; otherwise keys are compared in place on their bytes.
#[derive(Debug)]
pub(crate) struct KeySorted<'k> {
    store: PageWriter,
    key: &'k [usize],
    exact: bool,
}

/// Sorts a delivered partition on `key` without materializing it: the
/// partition is ingested into a page writer and `pairs` receives
/// one `(key prefix, handle)` per record, sorted.  Ties keep their insertion
/// position (the handle order), so the result is exactly the stable sort of
/// the records on their key values — on 16-byte items instead of heap
/// records, whatever the key's shape.
pub(crate) fn sort_on_key<'k>(
    part: &ExchangedPartition,
    key: &'k [usize],
    pairs: &mut Vec<(u64, PageHandle)>,
    radix: &mut Vec<(u64, PageHandle)>,
) -> std::io::Result<KeySorted<'k>> {
    pairs.clear();
    pairs.reserve(part.record_count());
    let mut store = PageWriter::new();
    let exact = part.ingest(key, &mut store, |prefix, handle| {
        pairs.push((prefix, handle))
    })?;
    sort_pairs(pairs, radix, &store, key, exact);
    Ok(KeySorted { store, key, exact })
}

impl KeySorted<'_> {
    /// The record at `handle`.
    #[inline]
    pub(crate) fn view(&self, handle: PageHandle) -> RecordView<'_> {
        self.store.view(handle)
    }

    /// Length of the key group at the front of the sorted `pairs` (0 when
    /// empty).
    pub(crate) fn group_len(&self, pairs: &[(u64, PageHandle)]) -> usize {
        let Some(&(prefix, _)) = pairs.first() else {
            return 0;
        };
        if !self.exact {
            return self.group_len_in_place(pairs);
        }
        pairs.iter().take_while(|pair| pair.0 == prefix).count()
    }

    /// [`KeySorted::group_len`] of inexact keys: equal keys have equal
    /// prefixes, and the key bytes settle what the prefix cannot.
    #[cold]
    #[inline(never)]
    fn group_len_in_place(&self, pairs: &[(u64, PageHandle)]) -> usize {
        let (prefix, first) = pairs[0];
        let first = self.view(first);
        pairs
            .iter()
            .take_while(|&&(p, handle)| {
                p == prefix
                    && cmp_keys_in_place(first, self.key, self.view(handle), self.key).is_eq()
            })
            .count()
    }

    /// The `(start, end)` ranges of the key groups of the sorted `pairs`.
    pub(crate) fn group_ranges(&self, pairs: &[(u64, PageHandle)]) -> Vec<(usize, usize)> {
        let mut ranges = Vec::new();
        let mut start = 0;
        while start < pairs.len() {
            let end = start + self.group_len(&pairs[start..]);
            ranges.push((start, end));
            start = end;
        }
        ranges
    }

    /// Replaces `views` with the views of the records `pairs` address.
    pub(crate) fn views_into<'s>(
        &'s self,
        pairs: &[(u64, PageHandle)],
        views: &mut Vec<RecordView<'s>>,
    ) {
        views.clear();
        views.extend(pairs.iter().map(|&(_, handle)| self.view(handle)));
    }

    /// Orders the key of pair `a` of this partition against the key of pair
    /// `b` of `other`: on the prefixes when both partitions are exact, in
    /// place otherwise.
    pub(crate) fn cmp_keys(
        &self,
        a: &(u64, PageHandle),
        other: &KeySorted<'_>,
        b: &(u64, PageHandle),
    ) -> Ordering {
        if self.exact && other.exact {
            return a.0.cmp(&b.0);
        }
        cmp_keys_in_place(self.view(a.1), self.key, other.view(b.1), other.key)
    }
}

/// Sorts `pairs` on the key: exact prefixes by the radix pass, inexact ones
/// by comparing the keys in place.  Either sort is stable (ties keep handle
/// order).
fn sort_pairs(
    pairs: &mut Vec<(u64, PageHandle)>,
    radix: &mut Vec<(u64, PageHandle)>,
    store: &PageWriter,
    key: &[usize],
    exact: bool,
) {
    if exact {
        sort_pairs_by_prefix(pairs, radix);
    } else {
        sort_pairs_in_place(pairs, store, key);
    }
}

/// The comparison sort of inexact keys: in place on the page bytes, ties in
/// handle order.
#[cold]
#[inline(never)]
fn sort_pairs_in_place(pairs: &mut [(u64, PageHandle)], store: &PageWriter, key: &[usize]) {
    pairs.sort_unstable_by(|a, b| {
        cmp_keys_in_place(store.view(a.1), key, store.view(b.1), key).then(a.1.cmp(&b.1))
    });
}

/// Below this many pairs the comparison sort wins: a radix pass costs a
/// 256-entry histogram per key byte whatever the input size, and the long
/// tail of an incremental iteration groups a handful of candidates per
/// superstep.
const RADIX_MIN_PAIRS: usize = 256;

/// Sorts `pairs` by `(prefix, handle)`.  The pairs arrive in handle order
/// (ingest assigns handles in ascending order), so a *stable* sort on the
/// prefix alone is that order, and from [`RADIX_MIN_PAIRS`] up it is a
/// least-significant-byte-first radix sort on the 8-byte prefix: one pass
/// finds the bytes on which the prefixes differ at all (the high bytes of
/// small vertex ids never do — six of eight on the graph workloads), and
/// each byte that does is one histogram and one stable scatter between
/// `pairs` and `scratch`.
fn sort_pairs_by_prefix(pairs: &mut Vec<(u64, PageHandle)>, scratch: &mut Vec<(u64, PageHandle)>) {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].1 < w[1].1),
        "pairs must arrive in handle order"
    );
    if pairs.len() < RADIX_MIN_PAIRS {
        pairs.sort_unstable();
        return;
    }
    let first = pairs[0];
    let differing = pairs.iter().fold(0, |bits, pair| bits | (pair.0 ^ first.0));
    if differing == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(pairs.len(), first);
    for shift in (0..64).step_by(8) {
        if (differing >> shift) as u8 == 0 {
            continue;
        }
        let bucket = |pair: &(u64, PageHandle)| (pair.0 >> shift) as u8 as usize;
        let mut slots = [0usize; 256];
        for pair in pairs.iter() {
            slots[bucket(pair)] += 1;
        }
        // Counts become the first output slot of each bucket.
        let mut next = 0;
        for slot in slots.iter_mut() {
            next += std::mem::replace(slot, next);
        }
        for pair in pairs.iter() {
            let slot = &mut slots[bucket(pair)];
            scratch[*slot] = *pair;
            *slot += 1;
        }
        std::mem::swap(pairs, scratch);
    }
}

/// Groups a paged partition by its key, whatever the key's shape: `on_group`
/// runs once per distinct key, in key order, with the key and views of the
/// key's records in delivery order (pages, then the spilled runs in
/// order) — the stable sort of the partition cut at every key change.  No
/// record is deserialized: the
/// views address the sorted pages, and a group merged in off disk is copied
/// as payload bytes into one reused buffer.
///
/// The kernel works on 16-byte `(key prefix, handle)` pairs.  A key that is
/// one `Long` field has its normalized value as prefix — exact and
/// order-preserving — so an all-`Long` partition is radix-sorted, cut and
/// merged on prefixes alone.  Any other key's prefix is a hash of its key
/// bytes, which only tells keys apart; such keys are ordered and compared in
/// place on the page bytes, by type tag, then numerically (`Long`),
/// `total_cmp` (`Double`) or bytewise (`Text`) — `Value`'s own order.
///
/// Spilled runs sorted on the key (what a sorting spill flush writes) stay
/// on disk: when every run of the partition is one, the in-memory residue
/// is sorted and merged with the runs by [`RunMerger`], each run read one
/// frame at a time into a reused buffer — the residue plus one frame per
/// run is in memory, and only the group being handed out is copied.  Any
/// other run is revived as pages and sorted with the residue.
///
/// Callers consult the spill-read fault gate
/// ([`ExchangedPartition::check_spill_read`]) before calling.
pub fn for_each_key_group(
    part: &ExchangedPartition,
    key: &[usize],
    scratch: &mut GroupScratch,
    mut on_group: impl FnMut(&Key, &[RecordView<'_>]),
) -> std::io::Result<()> {
    if !part.runs.is_empty() && part.spilled_runs_sorted_by(key) {
        return merge_key_groups(part, key, scratch, &mut on_group);
    }
    let GroupScratch { pairs, radix, .. } = scratch;
    let sorted = sort_on_key(part, key, pairs, radix)?;
    for_each_sorted_group(&sorted, pairs, on_group);
    Ok(())
}

/// The group loop of the kernel: hands every key group of the sorted `pairs`
/// to `on_group`, in key order.  [`for_each_key_group`] and [`KeyGroups`]
/// both end here.
fn for_each_sorted_group(
    sorted: &KeySorted<'_>,
    pairs: &[(u64, PageHandle)],
    mut on_group: impl FnMut(&Key, &[RecordView<'_>]),
) {
    let (mut group, mut group_key) = (Vec::new(), Key::Long(0));
    let mut rest = pairs;
    while !rest.is_empty() {
        let len = sorted.group_len(rest);
        sorted.views_into(&rest[..len], &mut group);
        group[0].key_into(sorted.key, &mut group_key);
        on_group(&group_key, &group);
        rest = &rest[len..];
    }
}

/// `views` emptied and free to borrow anew: the collect runs in place, so
/// the allocation outlives the borrows of the groups it held.
fn reuse_views<'b>(mut views: Vec<RecordView<'_>>) -> Vec<RecordView<'b>> {
    views.clear();
    views.into_iter().map(|_| unreachable!()).collect()
}

/// The streaming merge of [`for_each_key_group`], over a partition whose
/// runs are all sorted on the key: the sorted residue and the runs go
/// through [`RunMerger`], whose ties go to the residue, then the runs in
/// order — delivery order.  A group ends at the first record whose prefix,
/// exactness or (inexact) key bytes differ from its first record's.  Out of
/// line and cold: the unspilled grouping loop that calls it must stay small.
#[cold]
#[inline(never)]
fn merge_key_groups(
    part: &ExchangedPartition,
    key: &[usize],
    scratch: &mut GroupScratch,
    on_group: &mut dyn FnMut(&Key, &[RecordView<'_>]),
) -> std::io::Result<()> {
    let GroupScratch {
        pairs,
        radix,
        bytes,
    } = scratch;
    pairs.clear();
    pairs.reserve(part.pages.iter().map(|p| p.record_count()).sum::<usize>());
    let mut store = PageWriter::new();
    let exact = part.ingest_residue(key, &mut store, &mut |prefix, handle| {
        pairs.push((prefix, handle))
    });
    sort_pairs(pairs, radix, &store, key, exact);
    let mut merger = RunMerger::over_sorted(
        store,
        std::mem::take(pairs),
        exact,
        &part.runs,
        key.to_vec(),
    )?;
    // The group's records are framed into `bytes` as the merger passes
    // them; `spare` keeps the view buffer's allocation between groups.
    let (mut offsets, mut spare, mut group_key) = (Vec::new(), Vec::new(), Key::Long(0));
    while let Some((prefix, exact)) = merger.head() {
        bytes.clear();
        offsets.clear();
        loop {
            let payload = merger.view().payload();
            offsets.push(bytes.len());
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            merger.advance()?;
            match merger.head() {
                Some((next, next_exact))
                    if next == prefix
                        && next_exact == exact
                        && (exact
                            || cmp_keys_in_place(merger.view(), key, view_in(bytes, 0), key)
                                .is_eq()) => {}
                _ => break,
            }
        }
        let mut group = reuse_views(spare);
        group.extend(offsets.iter().map(|&offset| view_in(bytes, offset)));
        group[0].key_into(key, &mut group_key);
        on_group(&group_key, &group);
        spare = reuse_views(group);
    }
    *pairs = merger.into_pairs();
    Ok(())
}

/// A stream of records grouped by a key at its end — the state of a
/// streamed Reduce.  Every record is serialized into a page writer as it
/// arrives (one given as its fields never becomes a heap
/// record), and the end of stream runs the kernel of [`for_each_key_group`]:
/// the sort of `(key prefix, handle)` pairs, whose ties keep arrival order,
/// and the same group loop.
#[derive(Debug)]
pub(crate) struct KeyGroups {
    key: KeyFields,
    store: PageWriter,
    scratch: GroupScratch,
    /// Every key so far is one `Long` field.
    exact: bool,
}

impl KeyGroups {
    /// An empty grouping on `key`.
    pub(crate) fn new(key: KeyFields) -> KeyGroups {
        KeyGroups {
            key,
            store: PageWriter::new(),
            scratch: GroupScratch::default(),
            exact: true,
        }
    }

    /// Appends one record given as its fields, after every record appended
    /// before it.
    #[inline]
    pub(crate) fn append_fields(&mut self, fields: &[Value]) {
        let (prefix, exact) = key_prefix_of_fields(fields, &self.key);
        let handle = self.store.push_fields(fields);
        self.scratch.pairs.push((prefix, handle));
        self.exact &= exact;
    }

    /// Appends one serialized record, copying its bytes, after every record
    /// appended before it.
    #[inline]
    pub(crate) fn append_view(&mut self, record: RecordView<'_>) {
        let (prefix, exact) = key_prefix(record, &self.key);
        let handle = self.store.push_serialized(record.payload());
        self.scratch.pairs.push((prefix, handle));
        self.exact &= exact;
    }

    /// End of stream: `on_group` runs once per distinct key, in key order,
    /// with views of the key's records in arrival order.
    pub(crate) fn for_each_group(self, on_group: impl FnMut(&Key, &[RecordView<'_>])) {
        let KeyGroups {
            key,
            store,
            scratch:
                GroupScratch {
                    mut pairs,
                    mut radix,
                    ..
                },
            exact,
        } = self;
        sort_pairs(&mut pairs, &mut radix, &store, &key, exact);
        let sorted = KeySorted {
            store,
            key: &key,
            exact,
        };
        for_each_sorted_group(&sorted, &pairs, on_group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExchangedPartition {
        /// The partition's records, in the order its visitor yields them.
        pub(crate) fn records(&self) -> Vec<Record> {
            let mut records = Vec::with_capacity(self.record_count());
            let read = self.for_each_view(|view| records.push(view.materialize()));
            read.expect("a test partition's runs are readable");
            records
        }
    }

    /// `records` on pages, in order.
    fn paged(records: &[Record]) -> Vec<Arc<RecordPage>> {
        let mut writer = PageWriter::new();
        for record in records {
            writer.push(record);
        }
        writer.finish()
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::pair(1, -1),
            Record::new(vec![
                Value::Null,
                Value::Bool(true),
                Value::Long(i64::MIN),
                Value::Double(-0.0),
                Value::Text("héllo 日本語 🦀".into()),
            ]),
            Record::empty(),
            Record::long_double(i64::MAX, f64::NAN),
            Record::new(vec![Value::Text(String::new())]),
        ]
    }

    #[test]
    fn round_trip_preserves_every_variant() {
        let records = sample_records();
        let mut writer = PageWriter::new();
        for r in &records {
            writer.push(r);
        }
        let pages = writer.finish();
        let read: Vec<Record> = pages
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        assert_eq!(read, records);
    }

    #[test]
    fn serialized_width_equals_estimated_bytes() {
        for r in sample_records() {
            let mut buf = Vec::new();
            serialize_record(&r, &mut buf);
            assert_eq!(buf.len(), r.estimated_bytes(), "width mismatch for {r}");
        }
    }

    #[test]
    fn tiny_pages_straddle_boundaries() {
        let records: Vec<Record> = (0..100).map(|i| Record::pair(i, i * 3)).collect();
        // 40 bytes per page: one 22-byte (long, long) record fits, two do not.
        let mut writer = PageWriter::with_page_bytes(40);
        for r in &records {
            writer.push(r);
        }
        let pages = writer.finish();
        assert_eq!(pages.len(), 100, "each page holds exactly one record");
        let read: Vec<Record> = pages
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        assert_eq!(read, records);
    }

    #[test]
    fn oversized_records_get_a_private_page() {
        let big = Record::new(vec![Value::Text("x".repeat(1000))]);
        let mut writer = PageWriter::with_page_bytes(64);
        writer.push(&Record::pair(1, 2));
        writer.push(&big);
        writer.push(&Record::pair(3, 4));
        let pages = writer.finish();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[1].record_count(), 1);
        assert!(pages[1].byte_len() > 64);
        assert_eq!(pages[1].reader().next().unwrap().materialize(), big);
    }

    #[test]
    fn oversized_record_never_corrupts_following_offsets() {
        // The capacity invariant: an oversized record seals alone into its
        // private page the moment it is written, so the small records around
        // it frame on clean page boundaries and every reader offset stays
        // exact.  (Before the invariant was asserted, an over-full open page
        // could in principle have accepted more records silently.)
        for page_bytes in [32usize, 64, 200] {
            let mut records = vec![Record::pair(1, 2)];
            records.push(Record::new(vec![Value::Text("y".repeat(3 * page_bytes))]));
            records.extend((0..50).map(|i| Record::pair(i, -i)));
            records.push(Record::new(vec![Value::Text("z".repeat(2 * page_bytes))]));
            records.extend((50..80).map(|i| Record::pair(i, -i)));
            let mut writer = PageWriter::with_page_bytes(page_bytes);
            for r in &records {
                writer.push(r);
            }
            let pages = writer.finish();
            for page in &pages {
                assert!(
                    page.byte_len() <= page_bytes || page.record_count() == 1,
                    "an over-capacity page must be a private oversized page \
                     ({} bytes, {} records, capacity {page_bytes})",
                    page.byte_len(),
                    page.record_count()
                );
            }
            let read: Vec<Record> = pages
                .iter()
                .flat_map(|p| p.reader().map(|v| v.materialize()))
                .collect();
            assert_eq!(read, records, "offsets corrupted at capacity {page_bytes}");
        }
    }

    #[test]
    fn take_sealed_resets_the_budget_gauge() {
        let mut writer = PageWriter::with_page_bytes(40);
        for i in 0..10 {
            writer.push(&Record::pair(i, i));
        }
        assert!(writer.sealed_bytes() > 0, "tiny pages sealed under writing");
        let sealed = writer.take_sealed();
        assert!(!sealed.is_empty());
        assert_eq!(writer.sealed_bytes(), 0);
        // The open page survives the take and seals at finish.
        let rest = writer.finish();
        let total: usize = sealed
            .iter()
            .chain(rest.iter())
            .map(|p| p.record_count())
            .sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn normalized_long_encoding_preserves_order() {
        let samples = [i64::MIN, -1_000_000, -1, 0, 1, 7, 1_000_000, i64::MAX];
        for &a in &samples {
            assert_eq!(denormalize_long(normalize_long(a)), a);
            for &b in &samples {
                assert_eq!(
                    normalize_long(a).cmp(&normalize_long(b)),
                    a.cmp(&b),
                    "normalized order diverged for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn normalized_double_encoding_matches_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.25,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &samples {
            assert_eq!(
                denormalize_double(normalize_double(a)).to_bits(),
                a.to_bits()
            );
            for &b in &samples {
                assert_eq!(
                    normalize_double(a).cmp(&normalize_double(b)),
                    a.total_cmp(&b),
                    "normalized order diverged for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn record_view_reads_fields_in_place() {
        let mut writer = PageWriter::new();
        writer.push(&Record::triple(-42, 7, 0.5));
        let pages = writer.finish();
        let page = &pages[0];
        let view = page.reader().next().unwrap();
        assert_eq!(view.long(0), -42);
        assert_eq!(view.long(1), 7);
        assert_eq!(
            view.normalized_long_prefix(),
            Some(normalize_long(-42)),
            "first long field doubles as the normalized sort key"
        );
        // Byte-compare of prefixes orders records without deserializing.
        let mut w2 = PageWriter::new();
        w2.push(&Record::pair(5, 0));
        let p2 = w2.finish();
        let v2 = p2[0].reader().next().unwrap();
        assert!(view.normalized_long_prefix() < v2.normalized_long_prefix());
    }

    #[test]
    fn exchanged_partition_mixes_local_and_paged_records() {
        let mut writer = PageWriter::new();
        writer.push(&Record::pair(10, 11));
        writer.push(&Record::pair(12, 13));
        let part =
            ExchangedPartition::new([paged(&[Record::pair(1, 2)]), writer.finish()].concat());
        assert_eq!(part.record_count(), 3);
        assert_eq!(part.page_count(), 2);
        let mut seen = Vec::new();
        part.for_each_view(|r| seen.push(r.materialize())).unwrap();
        assert_eq!(
            seen,
            vec![
                Record::pair(1, 2),
                Record::pair(10, 11),
                Record::pair(12, 13)
            ]
        );
        assert_eq!(part.records(), seen);
    }

    #[test]
    fn writer_counts_records_and_bytes() {
        let mut writer = PageWriter::new();
        assert!(writer.is_empty());
        let w = Record::pair(1, 2).estimated_bytes();
        writer.push(&Record::pair(1, 2));
        assert_eq!(writer.total_bytes(), w);
        writer.push(&Record::pair(3, 4));
        assert_eq!(writer.total_records(), 2);
        assert_eq!(writer.total_bytes(), 2 * w);
        let pages = writer.finish();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].record_count(), 2);
        assert_eq!(pages[0].byte_len(), 2 * w);
    }

    #[test]
    fn empty_writer_produces_no_pages() {
        assert!(PageWriter::new().finish().is_empty());
        let mut w = PageWriter::new();
        w.seal();
        assert!(w.finish().is_empty());
    }

    #[test]
    fn view_reads_arbitrary_key_fields_in_place() {
        let mut writer = PageWriter::new();
        writer.push(&Record::new(vec![
            Value::Text("pad".into()),
            Value::Long(-9),
            Value::Double(2.5),
        ]));
        let pages = writer.finish();
        let view = pages[0].reader().next().unwrap();
        assert_eq!(
            view.long_key_prefix(1),
            Some(u64::from_be_bytes(normalize_long(-9))),
            "prefix of a non-leading Long field"
        );
        assert_eq!(view.long_key_prefix(0), None, "Text field has no prefix");
        assert_eq!(view.long_key_prefix(2), None, "Double is not a Long key");
        assert_eq!(view.long_key_prefix(3), None, "missing field");
        // field_bytes equality is Value equality.
        let mut other = PageWriter::new();
        other.push(&Record::new(vec![Value::Long(3), Value::Long(-9)]));
        let p2 = other.finish();
        let v2 = p2[0].reader().next().unwrap();
        assert_eq!(view.field_bytes(1), v2.field_bytes(1));
        assert_ne!(view.field_bytes(1), v2.field_bytes(0));
    }

    #[test]
    fn paged_store_handles_survive_sealing_and_adoption() {
        let mut store = PageWriter::with_page_bytes(48);
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for i in 0..10 {
            let r = Record::pair(i, -i);
            handles.push(store.push(&r));
            expected.push(r);
        }
        // Adopt a sealed page mid-stream: earlier handles stay valid.
        let mut writer = PageWriter::new();
        writer.push(&Record::pair(100, 200));
        for page in writer.finish() {
            assert!(store.adopt_page_scanned(&page, |_, _| true));
        }
        expected.push(Record::pair(100, 200));
        // Page-to-page copy of a serialized view.
        let view = store.view(handles[3]);
        let payload: Vec<u8> = view.payload().to_vec();
        let copied = store.push_serialized(&payload);
        expected.push(expected[3].clone());
        handles.push(copied);
        assert_eq!(store.total_records(), 12);
        for (h, r) in handles
            .iter()
            .zip(expected.iter().take(10).chain([&expected[11]]))
        {
            assert_eq!(&store.view(*h).materialize(), r);
        }
        // The pages hold the records in insertion order.
        let seen: Vec<Record> = store
            .finish()
            .iter()
            .flat_map(|page| page.reader().map(|view| view.materialize()))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn prefix_table_preserves_insertion_order_per_key() {
        let mut store = PageWriter::new();
        let mut table = PrefixTable::new();
        for (key, val) in [(7, 0), (3, 1), (7, 2), (3, 3), (7, 4)] {
            let h = store.push(&Record::pair(key, val));
            let prefix = store.view(h).long_key_prefix(0).unwrap();
            table.insert(prefix, h);
        }
        assert_eq!(table.len(), 5);
        let prefix7 = u64::from_be_bytes(normalize_long(7));
        let vals: Vec<i64> = table
            .probe(prefix7)
            .map(|h| store.view(h).long(1))
            .collect();
        assert_eq!(vals, vec![0, 2, 4], "chain preserves insertion order");
        assert_eq!(
            table.probe(u64::from_be_bytes(normalize_long(99))).count(),
            0
        );
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.probe(prefix7).count(), 0);
    }

    #[test]
    fn a_page_that_filled_starts_its_successor_at_full_capacity() {
        // The first page grows lazily: a writer that never fills one (most
        // writers of a near-empty superstep) must not pay for a whole page.
        let mut writer = PageWriter::new();
        writer.push(&Record::pair(0, 0));
        assert!(writer.buf.capacity() < DEFAULT_PAGE_BYTES);
        while writer.sealed_page_count() == 0 {
            writer.push(&Record::pair(1, 1));
        }
        assert!(writer.buf.capacity() >= DEFAULT_PAGE_BYTES);
        // Sealing an under-full page on request allocates no successor.
        let mut idle = PageWriter::new();
        idle.push(&Record::pair(0, 0));
        idle.seal();
        assert_eq!(idle.buf.capacity(), 0);
    }

    #[test]
    fn a_default_writer_shares_a_page_between_small_records() {
        let mut writer = PageWriter::default();
        writer.push(&Record::pair(1, 2));
        writer.push(&Record::pair(3, 4));
        let pages = writer.finish();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].record_count(), 2);
    }

    #[test]
    fn page_pool_recycles_unique_buffers_into_writers() {
        let mut writer = PageWriter::with_page_bytes(64);
        for i in 0..20 {
            writer.push(&Record::pair(i, i));
        }
        let pages = writer.finish();
        let page_count = pages.len();
        let shared = Arc::clone(&pages[0]);
        let mut pool = PagePool::new();
        let captured = pool.recycle_all(pages);
        assert_eq!(
            captured,
            page_count - 1,
            "the still-shared page cannot be recycled"
        );
        assert_eq!(pool.len(), captured);
        // Re-bounding the pool drops what exceeds the new limit and caps
        // what it accepts from then on.
        pool.set_limit(captured - 1);
        assert_eq!(pool.len(), captured - 1);
        assert!(!pool.recycle(shared), "a full pool declines the buffer");
        let mut next = PageWriter::with_page_bytes(64);
        next.add_spare_buffers(pool.take(usize::MAX));
        assert!(pool.is_empty());
        for i in 0..20 {
            next.push(&Record::pair(i, -i));
        }
        let reread: Vec<Record> = next
            .finish()
            .iter()
            .flat_map(|p| p.reader().map(|v| v.materialize()))
            .collect();
        assert_eq!(reread.len(), 20, "recycled buffers seal clean pages");
        assert_eq!(reread[3], Record::pair(3, -3));
    }

    /// The kernel hands out groups in key order, delivery order inside each
    /// group.  There is no fallback left to signal: a composite key and a
    /// column mixing `Long` and `Text` keys group on pages too, and grouping
    /// leaves the partition intact for its visitor.
    #[test]
    fn long_key_grouping_groups_in_key_order_or_signals_the_fallback() {
        // A local page plus shipped pages, one key field each way.
        let mut writer = PageWriter::with_page_bytes(64);
        for i in 0..40i64 {
            writer.push(&Record::pair(i % 5 - 2, i));
        }
        let part = ExchangedPartition::new(
            [
                paged(&[Record::pair(1, -1), Record::pair(-2, -2)]),
                writer.finish(),
            ]
            .concat(),
        );
        let mut scratch = GroupScratch::default();
        let mut groups: Vec<(Key, Vec<i64>)> = Vec::new();
        for_each_key_group(&part, &[0], &mut scratch, |key, g| {
            groups.push((key.clone(), g.iter().map(|r| r.long(1)).collect()))
        })
        .unwrap();
        // Key order, and delivery order (local page first) inside each group.
        assert_eq!(
            groups.iter().map(|g| g.0.as_long()).collect::<Vec<_>>(),
            [-2, -1, 0, 1, 2].map(Some)
        );
        assert_eq!(groups[0].1, vec![-2, 0, 5, 10, 15, 20, 25, 30, 35]);
        assert_eq!(groups[3].1[..3], [-1, 3, 8]);

        // A composite key groups every distinct pair once, in key order.
        let mut composite: Vec<Key> = Vec::new();
        for_each_key_group(&part, &[0, 1], &mut scratch, |key, g| {
            assert_eq!(g.len(), 1);
            composite.push(key.clone())
        })
        .unwrap();
        assert_eq!(composite.len(), 42);
        assert!(composite.windows(2).all(|w| w[0] < w[1]));

        // A non-`Long` key field — even as the very last record ingested —
        // groups alongside the `Long`s.
        let mut writer = PageWriter::new();
        writer.push(&Record::pair(3, 3));
        writer.push(&Record::new(vec![Value::Text("k".into()), Value::Long(4)]));
        let mixed =
            ExchangedPartition::new([paged(&[Record::pair(1, 1)]), writer.finish()].concat());
        let mut keys: Vec<Key> = Vec::new();
        for_each_key_group(&mixed, &[0], &mut scratch, |key, _| keys.push(key.clone())).unwrap();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.contains(&Key::Composite(vec![Value::Text("k".into())].into())));
        // The partition is untouched: its visitor reads it all.
        assert_eq!(mixed.records().len(), 3);
    }

    /// The grouping as `(key, serialized group records)`, in group order.
    type Groups = Vec<(Key, Vec<u8>)>;

    fn serialized(records: &[Record]) -> Vec<u8> {
        let mut out = Vec::new();
        for record in records {
            serialize_record(record, &mut out);
        }
        out
    }

    /// What the kernel hands out for `part` on `key`.
    fn kernel_groups(
        part: &ExchangedPartition,
        key: &[usize],
        scratch: &mut GroupScratch,
    ) -> Groups {
        let mut groups = Groups::new();
        for_each_key_group(part, key, scratch, |k, group| {
            let records: Vec<Record> = group.iter().map(|view| view.materialize()).collect();
            groups.push((k.clone(), serialized(&records)))
        })
        .unwrap();
        groups
    }

    /// The oracle: the pieces concatenated in delivery order — pages, then
    /// the runs read through cursors (not
    /// `records`, which merges a sorted spilled partition with the
    /// merge under test) — stably sorted on the key values and cut into key
    /// groups.
    fn oracle_groups(part: &ExchangedPartition, key: &[usize]) -> Groups {
        let mut records = Vec::new();
        for page in part.pages() {
            records.extend(page.reader().map(|view| view.materialize()));
        }
        for run in part.runs() {
            let mut cursor = run.cursor().unwrap();
            while let Some(record) = cursor.next_record().unwrap() {
                records.push(record);
            }
        }
        records.sort_by_key(|r| Key::extract(r, key));
        records
            .chunk_by(|a, b| Key::extract(a, key) == Key::extract(b, key))
            .map(|group| (Key::extract(&group[0], key), serialized(group)))
            .collect()
    }

    /// The key shapes the kernel is checked on: a name and the key fields.
    const SHAPES: [(&str, &[usize]); 6] = [
        ("Long", &[0]),
        ("Text", &[0]),
        ("[Long, Long]", &[0, 1]),
        ("Double", &[0]),
        ("Null and Bool", &[0]),
        ("Long and Text", &[0]),
    ];

    /// A random key of `SHAPES[shape]`, as its fields.  `Long`s are
    /// duplicated, negative and extreme; `Text`s hold the empty string, a
    /// NUL, prefixes of one another, strings whose byte order is not their
    /// length order, multi-byte UTF-8 and (rarely) a 40 KiB key; `Double`s
    /// hold both zeros, both infinities and two NaN payloads.
    fn random_key(shape: usize, random: &mut dyn FnMut(usize) -> usize) -> Vec<Value> {
        const LONGS: [i64; 9] = [i64::MIN, i64::MIN + 1, -300, -7, -1, 0, 5, 42, i64::MAX];
        const TEXTS: [&str; 8] = ["", "\0", "a", "a\0", "ab", "b", "é", "日本🦀"];
        let long = |random: &mut dyn FnMut(usize) -> usize| Value::Long(LONGS[random(LONGS.len())]);
        let text = |random: &mut dyn FnMut(usize) -> usize| match random(512) {
            0 => Value::Text("k".repeat(40 * 1024)),
            _ => Value::Text(TEXTS[random(TEXTS.len())].into()),
        };
        match shape {
            0 => vec![long(random)],
            1 => vec![text(random)],
            2 => vec![long(random), long(random)],
            3 => {
                let doubles = [
                    -0.0,
                    0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    f64::from_bits(0x7ff8_0000_0000_0001),
                ];
                vec![Value::Double(doubles[random(doubles.len())])]
            }
            4 => vec![[Value::Null, Value::Bool(false), Value::Bool(true)][random(3)].clone()],
            _ => vec![match random(2) {
                0 => long(random),
                _ => text(random),
            }],
        }
    }

    /// The grouping kernel equals the stable sort of the delivered records,
    /// group for group and byte for byte, for every key shape, over
    /// partitions built from every piece a delivery holds: local records,
    /// pages, several multi-page and one-page sorted runs, an empty run and a
    /// run holding an oversized record, with duplicate and extreme keys
    /// spread across all of them — and over a partition with an unsorted
    /// run.
    #[test]
    fn long_key_grouping_equals_the_stable_sort_of_the_delivered_records() {
        use crate::spill::{write_run_in, write_sorted_records_in, MemoryBudget, SpillManager};
        let dir =
            std::env::temp_dir().join(format!("spinning-page-test-{}-kernel", std::process::id()));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut random = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut serial = 0i64;
        let mut scratch = GroupScratch::default();
        for (shape, &(name, key)) in SHAPES.iter().enumerate() {
            let mut records = |count: usize, random: &mut dyn FnMut(usize) -> usize| {
                (0..count)
                    .map(|_| {
                        serial += 1;
                        let mut fields = random_key(shape, random);
                        fields.push(Value::Long(serial));
                        Record::new(fields)
                    })
                    .collect::<Vec<Record>>()
            };
            for round in 0..4 {
                let label = format!("{name}, round {round}");
                let size = 40 + 150 * round;
                // A writer under two page credits flushes sorted runs of two
                // full pages and keeps an unsorted residue; a budget-0 writer
                // of tiny pages flushes every sealed page as a one-page run.
                let sort = Some(key.to_vec());
                let credits =
                    SpillManager::in_dir(dir.clone(), MemoryBudget::unlimited(), sort.clone())
                        .with_page_credits(Some(2));
                let zero = SpillManager::in_dir(dir.clone(), MemoryBudget::bytes(0), sort.clone())
                    .with_page_bytes(96);
                let mut flushed = Vec::new();
                let mut residue = Vec::new();
                for (manager, count) in [(credits, 6_000 + 1_500 * round), (zero, size)] {
                    let mut writer = manager.writer();
                    for record in records(count, &mut random) {
                        writer.push(&record);
                    }
                    let out = writer.finish().unwrap();
                    residue.extend(out.pages);
                    flushed.extend(out.runs);
                }
                assert!(flushed.iter().any(|run| run.page_count() > 1), "{label}");
                assert!(flushed.iter().filter(|run| run.page_count() == 1).count() > 1);
                assert!(!residue.is_empty(), "{label}");
                let mut oversized = records(5, &mut random);
                let mut wide = random_key(shape, &mut random);
                wide.push(Value::Text("x".repeat(40 * 1024)));
                oversized.push(Record::new(wide));
                oversized.sort_by_key(|r| Key::extract(r, key));
                let oversized = write_sorted_records_in(&dir, &oversized, key).unwrap();
                assert!(oversized.byte_len() > DEFAULT_PAGE_BYTES);
                let empty = write_run_in(&dir, &[], sort.clone()).unwrap();
                assert_eq!(empty.record_count(), 0);

                let local = records(size / 2, &mut random);
                let build = || {
                    let mut part =
                        ExchangedPartition::new([paged(&local), residue.clone()].concat());
                    let (head, tail) = flushed.split_at(flushed.len() / 2);
                    part.receive_runs(head.iter().cloned());
                    part.receive_runs([empty.clone()]);
                    part.receive_runs(tail.iter().cloned());
                    part.receive_runs([oversized.clone()]);
                    part
                };
                let part = build();
                assert_eq!(
                    kernel_groups(&part, key, &mut scratch),
                    oracle_groups(&part, key),
                    "{label}: pages and sorted runs"
                );
                // Without pages the runs alone merge.
                let runs_only = ExchangedPartition::from_spilled(Vec::new(), flushed.clone());
                assert_eq!(
                    kernel_groups(&runs_only, key, &mut scratch),
                    oracle_groups(&runs_only, key),
                    "{label}: runs only"
                );
                // An unsorted run takes the revive path, with the same answer.
                let unsorted = {
                    let mut writer = PageWriter::with_page_bytes(96);
                    for record in records(size / 3, &mut random) {
                        writer.push(&record);
                    }
                    write_run_in(&dir, &writer.finish(), None).unwrap()
                };
                let mut with_unsorted = build();
                with_unsorted.receive_runs([unsorted]);
                assert_eq!(
                    kernel_groups(&with_unsorted, key, &mut scratch),
                    oracle_groups(&with_unsorted, key),
                    "{label}: an unsorted run"
                );
            }
        }
        let _ = std::fs::remove_dir(&dir);
    }
    /// The radix pass must order pairs exactly as the comparison sort on
    /// `(prefix, handle)` does, whatever the key distribution and on either
    /// side of the small-input threshold.
    #[test]
    fn radix_pass_agrees_with_the_comparison_sort_on_prefix_and_handle() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        type KeyOf = fn(u64) -> i64;
        let distributions: [(&str, KeyOf); 6] = [
            ("all equal", |_| 7),
            ("vertex ids", |r| (r % 5_000) as i64),
            ("around zero", |r| (r % 601) as i64 - 300),
            ("extremes", |r| {
                [i64::MIN, -1, 0, 1, i64::MAX][(r % 5) as usize]
            }),
            ("full range", |r| r as i64),
            ("one high byte", |r| ((r % 3) as i64) << 56),
        ];
        let sizes = [
            0,
            1,
            RADIX_MIN_PAIRS - 1,
            RADIX_MIN_PAIRS,
            RADIX_MIN_PAIRS + 1,
            4 * RADIX_MIN_PAIRS + 3,
            20_000,
        ];
        let mut scratch = Vec::new();
        for (name, key) in distributions {
            for size in sizes {
                // Handles ascend in the order ingest assigns them: page by
                // page, offset by offset.
                let mut pairs: Vec<(u64, PageHandle)> = (0..size)
                    .map(|i| {
                        let handle = PageHandle {
                            page: (i / 100) as u32,
                            offset: (i % 100 * 22) as u32,
                        };
                        (u64::from_be_bytes(normalize_long(key(random()))), handle)
                    })
                    .collect();
                let mut expected = pairs.clone();
                expected.sort_unstable();
                sort_pairs_by_prefix(&mut pairs, &mut scratch);
                assert_eq!(pairs, expected, "{name}, {size} pairs");
            }
        }
    }
}
