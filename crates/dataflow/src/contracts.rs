//! Parallelization Contracts (PACTs): the second-order functions that wrap
//! user-defined first-order functions.
//!
//! The contract an operator implements tells the system how its input may be
//! partitioned for parallel execution (Section 3 of the paper): `Map` records
//! are independent, `Reduce` groups records sharing a key, `Match` builds
//! equi-join pairs of two inputs, `Cross` builds the Cartesian product, and
//! `CoGroup` groups both inputs by key.  `InnerCoGroup` is the inner-join
//! flavour of `CoGroup` used by the incremental Connected Components dataflow
//! (Section 5.1): groups whose key is missing on either side are dropped.

use crate::record::Record;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Receives records as they are emitted, instead of buffering them.
///
/// A [`Collector`] built with [`Collector::with_sink`] forwards every
/// collected record here — the hook the executor's fused chains use to hand
/// each record to the next operator while the user function is still
/// running.  Emission is infallible from the UDF's point of view; a sink
/// that fails downstream records the error internally and reports it when
/// the runtime takes it back.
///
/// A record leaves a user function in one of two representations:
/// [`RecordSink::push`] hands over a record that already exists as a heap
/// object, which a sink holding heap records moves; [`RecordSink::emit`]
/// hands over the fields of a record that exists nowhere yet, so a sink that
/// writes pages (the workset superstep's, or a fused Reduce's in the
/// executor) serializes them in place and the record is never allocated —
/// `Long` and `Double` fields live on the emitter's stack.  Executor UDFs
/// reach `emit` through [`Collector::emit`].
pub trait RecordSink: Send {
    /// Receives one emitted record.
    fn push(&mut self, record: Record);
    /// Receives one emitted record by reference to its fields.  Sinks that
    /// hold heap records fall back to building one.
    fn emit(&mut self, fields: &[Value]) {
        self.push(Record::new(fields.to_vec()));
    }
    /// Recovers the concrete sink once the operator finished emitting
    /// (trait objects cannot be downcast without an `Any` hop).  Only owned
    /// sinks can make the hop; a sink that borrows its target is simply
    /// dropped by the code that built it.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>
    where
        Self: 'static;
}

/// A buffering sink: emitted records become heap records at the end of the
/// vector ([`RecordSource::collect`] reads a source through it).
impl RecordSink for Vec<Record> {
    fn push(&mut self, record: Record) {
        Vec::push(self, record);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A job input: `len()` records that [`RecordSource::emit_all`] hands to a
/// sink in input order, as often as it is asked to.
///
/// This is the mirror image of [`RecordSink`] and follows the same
/// representation rule.  A source holding heap records (`Vec<Record>`) emits
/// their field slices; a source that *describes* its records
/// ([`SourceClosure`] over, say, a graph's adjacency arrays) emits slices
/// that live on its stack, so a sink that writes pages — the workset
/// driver's load step, which pulls every source once per partition and keeps
/// what that partition owns — serializes them in place and no heap record
/// ever exists between the description and the first superstep.
pub trait RecordSource: Send + Sync {
    /// Number of records [`RecordSource::emit_all`] emits.
    fn len(&self) -> usize;

    /// True when the source emits nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emits every record, in input order, through [`RecordSink::emit`].
    fn emit_all(&self, out: &mut dyn RecordSink);

    /// The records as heap objects, in input order.
    fn collect(&self) -> Vec<Record> {
        let mut records = Vec::with_capacity(self.len());
        self.emit_all(&mut records);
        records
    }
}

impl RecordSource for Vec<Record> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn emit_all(&self, out: &mut dyn RecordSink) {
        for record in self {
            out.emit(record.fields());
        }
    }
}

impl<S: RecordSource + ?Sized> RecordSource for Arc<S> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn emit_all(&self, out: &mut dyn RecordSink) {
        (**self).emit_all(out);
    }
}

/// Wraps a closure as a [`RecordSource`] of `len` records: the closure emits
/// them all, in the same order every time it is called.
pub struct SourceClosure<F> {
    len: usize,
    emit_all: F,
}

impl<F> SourceClosure<F>
where
    F: Fn(&mut dyn RecordSink) + Send + Sync,
{
    /// A source of the `len` records `emit_all` emits.
    pub fn new(len: usize, emit_all: F) -> Self {
        SourceClosure { len, emit_all }
    }
}

impl<F> RecordSource for SourceClosure<F>
where
    F: Fn(&mut dyn RecordSink) + Send + Sync,
{
    fn len(&self) -> usize {
        self.len
    }

    fn emit_all(&self, out: &mut dyn RecordSink) {
        (self.emit_all)(out)
    }
}

/// Receives the records a user-defined function emits.
///
/// A fresh collector is handed to the UDF for every invocation; everything
/// pushed into it becomes part of the operator's output partition — either
/// buffered in memory (the default) or streamed straight into a
/// [`RecordSink`] ([`Collector::with_sink`]).
///
/// It has the sink's two forms.  [`Collector::collect`] hands over a record
/// that already exists (a forwarded input, say).  [`Collector::emit`] is the
/// form for a record the UDF builds: the fields go to the sink's
/// [`RecordSink::emit`], so when the next operator is a fused Reduce the
/// record is born on its pages and no heap record exists; a buffering
/// collector stores it as an exactly sized record.
#[derive(Default)]
pub struct Collector {
    buffer: Vec<Record>,
    sink: Option<Box<dyn RecordSink>>,
    collected: usize,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("collected", &self.collected)
            .field("buffered", &self.buffer.len())
            .field("streaming", &self.sink.is_some())
            .finish()
    }
}

impl Collector {
    /// Creates an empty (buffering) collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Creates a collector that streams every record into `sink` instead of
    /// buffering it.
    pub fn with_sink(sink: Box<dyn RecordSink>) -> Self {
        Collector {
            buffer: Vec::new(),
            sink: Some(sink),
            collected: 0,
        }
    }

    /// Emits one record.
    #[inline]
    pub fn collect(&mut self, record: Record) {
        self.collected += 1;
        match &mut self.sink {
            Some(sink) => sink.push(record),
            None => self.buffer.push(record),
        }
    }

    /// Emits one record given as its fields — the executor-side twin of
    /// [`RecordSink::emit`]: a streaming collector hands the slice to its
    /// sink's `emit`, a buffering one stores an exactly sized record.
    #[inline]
    pub fn emit(&mut self, fields: &[Value]) {
        self.collected += 1;
        match &mut self.sink {
            Some(sink) => sink.emit(fields),
            None => self.buffer.push(Record::new(fields.to_vec())),
        }
    }

    /// Number of records collected so far (buffered or streamed).
    pub fn len(&self) -> usize {
        self.collected
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.collected == 0
    }

    /// Consumes the collector, returning the buffered records (empty for a
    /// streaming collector — its records already left through the sink).
    pub fn into_records(self) -> Vec<Record> {
        self.buffer
    }

    /// Drains the buffered records, leaving the collector reusable.
    pub fn drain(&mut self) -> Vec<Record> {
        self.collected = self.buffer.len();
        let drained = std::mem::take(&mut self.buffer);
        self.collected = 0;
        drained
    }

    /// Takes the streaming sink back out (None for buffering collectors).
    pub fn take_sink(&mut self) -> Option<Box<dyn RecordSink>> {
        self.sink.take()
    }
}

/// First-order function for the `Map` contract: invoked once per record.
pub trait MapFunction: Send + Sync {
    /// Processes one record, emitting zero or more records.
    fn map(&self, record: &Record, out: &mut Collector);
}

/// First-order function for the `Reduce` contract: invoked once per key group.
pub trait ReduceFunction: Send + Sync {
    /// Processes the group of records sharing `key`.
    fn reduce(&self, key: &[Value], group: &[Record], out: &mut Collector);
}

/// First-order function for the `Match` contract: invoked once per pair of
/// records with equal keys (an equi-join).
pub trait MatchFunction: Send + Sync {
    /// Processes one joined pair.
    fn join(&self, left: &Record, right: &Record, out: &mut Collector);
}

/// First-order function for the `Cross` contract: invoked once per pair of
/// records from the Cartesian product of both inputs.
pub trait CrossFunction: Send + Sync {
    /// Processes one pair of the cross product.
    fn cross(&self, left: &Record, right: &Record, out: &mut Collector);
}

/// First-order function for the `CoGroup` / `InnerCoGroup` contracts: invoked
/// once per key with all records of both inputs that carry that key.
pub trait CoGroupFunction: Send + Sync {
    /// Processes the pair of groups sharing `key`.  For the plain `CoGroup`
    /// contract either side may be empty; for `InnerCoGroup` both sides are
    /// guaranteed non-empty.
    fn cogroup(&self, key: &[Value], left: &[Record], right: &[Record], out: &mut Collector);
}

// --- Closure adapters -------------------------------------------------------
//
// Writing a struct per UDF is verbose; these adapters let plans be assembled
// from closures while keeping the trait objects the runtime works with.

/// Wraps a closure as a [`MapFunction`].
pub struct MapClosure<F>(pub F);

impl<F> MapFunction for MapClosure<F>
where
    F: Fn(&Record, &mut Collector) + Send + Sync,
{
    fn map(&self, record: &Record, out: &mut Collector) {
        (self.0)(record, out)
    }
}

/// Wraps a closure as a [`ReduceFunction`].
pub struct ReduceClosure<F>(pub F);

impl<F> ReduceFunction for ReduceClosure<F>
where
    F: Fn(&[Value], &[Record], &mut Collector) + Send + Sync,
{
    fn reduce(&self, key: &[Value], group: &[Record], out: &mut Collector) {
        (self.0)(key, group, out)
    }
}

/// Wraps a closure as a [`MatchFunction`].
pub struct MatchClosure<F>(pub F);

impl<F> MatchFunction for MatchClosure<F>
where
    F: Fn(&Record, &Record, &mut Collector) + Send + Sync,
{
    fn join(&self, left: &Record, right: &Record, out: &mut Collector) {
        (self.0)(left, right, out)
    }
}

/// Wraps a closure as a [`CrossFunction`].
pub struct CrossClosure<F>(pub F);

impl<F> CrossFunction for CrossClosure<F>
where
    F: Fn(&Record, &Record, &mut Collector) + Send + Sync,
{
    fn cross(&self, left: &Record, right: &Record, out: &mut Collector) {
        (self.0)(left, right, out)
    }
}

/// Wraps a closure as a [`CoGroupFunction`].
pub struct CoGroupClosure<F>(pub F);

impl<F> CoGroupFunction for CoGroupClosure<F>
where
    F: Fn(&[Value], &[Record], &[Record], &mut Collector) + Send + Sync,
{
    fn cogroup(&self, key: &[Value], left: &[Record], right: &[Record], out: &mut Collector) {
        (self.0)(key, left, right, out)
    }
}

/// A shareable, type-erased user-defined function attached to an operator.
#[derive(Clone)]
pub enum Udf {
    /// No user code (sources, sinks, unions, caches).
    None,
    /// A `Map` first-order function.
    Map(Arc<dyn MapFunction>),
    /// A `Reduce` first-order function.
    Reduce(Arc<dyn ReduceFunction>),
    /// A `Match` first-order function.
    Match(Arc<dyn MatchFunction>),
    /// A `Cross` first-order function.
    Cross(Arc<dyn CrossFunction>),
    /// A `CoGroup` / `InnerCoGroup` first-order function.
    CoGroup(Arc<dyn CoGroupFunction>),
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Udf::None => "None",
            Udf::Map(_) => "Map",
            Udf::Reduce(_) => "Reduce",
            Udf::Match(_) => "Match",
            Udf::Cross(_) => "Cross",
            Udf::CoGroup(_) => "CoGroup",
        };
        write!(f, "Udf::{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_and_drains() {
        let mut c = Collector::new();
        assert!(c.is_empty());
        c.collect(Record::pair(1, 2));
        c.collect(Record::pair(3, 4));
        c.collect(Record::pair(5, 6));
        assert_eq!(c.len(), 3);
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        assert!(c.is_empty());
    }

    /// Records which of its two forms each record arrived in.
    #[derive(Default)]
    struct RecordingSink {
        pushed: Vec<Record>,
        emitted: Vec<Vec<Value>>,
    }

    impl RecordSink for RecordingSink {
        fn push(&mut self, record: Record) {
            self.pushed.push(record);
        }

        fn emit(&mut self, fields: &[Value]) {
            self.emitted.push(fields.to_vec());
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    #[test]
    fn emit_buffers_an_exactly_sized_record_or_reaches_the_sinks_emit() {
        let fields = [Value::Long(7), Value::Double(0.5)];
        let mut buffering = Collector::new();
        buffering.emit(&fields);
        assert_eq!(buffering.len(), 1);
        let mut records = buffering.into_records();
        assert_eq!(records, vec![Record::long_double(7, 0.5)]);
        let buffered = records.pop().unwrap().into_fields();
        assert_eq!(
            buffered.capacity(),
            buffered.len(),
            "buffered records are exactly sized"
        );

        let mut streaming = Collector::with_sink(Box::<RecordingSink>::default());
        streaming.emit(&fields);
        streaming.collect(Record::pair(1, 2));
        assert_eq!(streaming.len(), 2);
        let sink = streaming.take_sink().unwrap().into_any();
        let sink = sink.downcast::<RecordingSink>().unwrap();
        assert_eq!(sink.emitted, vec![fields.to_vec()]);
        assert_eq!(sink.pushed, vec![Record::pair(1, 2)]);
        assert!(streaming.into_records().is_empty());
    }

    #[test]
    fn map_closure_adapts() {
        let udf = MapClosure(|r: &Record, out: &mut Collector| {
            out.collect(Record::pair(r.long(0) * 2, r.long(1)));
        });
        let mut out = Collector::new();
        udf.map(&Record::pair(4, 7), &mut out);
        assert_eq!(out.into_records()[0].long(0), 8);
    }

    #[test]
    fn reduce_closure_sees_whole_group() {
        let udf = ReduceClosure(|key: &[Value], group: &[Record], out: &mut Collector| {
            let sum: i64 = group.iter().map(|r| r.long(1)).sum();
            out.collect(Record::pair(key[0].as_long(), sum));
        });
        let mut out = Collector::new();
        udf.reduce(
            &[Value::Long(1)],
            &[Record::pair(1, 10), Record::pair(1, 5)],
            &mut out,
        );
        assert_eq!(out.into_records()[0].long(1), 15);
    }

    #[test]
    fn cogroup_closure_receives_both_sides() {
        let udf = CoGroupClosure(
            |_k: &[Value], l: &[Record], r: &[Record], out: &mut Collector| {
                out.collect(Record::pair(l.len() as i64, r.len() as i64));
            },
        );
        let mut out = Collector::new();
        udf.cogroup(&[Value::Long(1)], &[Record::pair(1, 1)], &[], &mut out);
        assert_eq!(out.into_records()[0].long(1), 0);
    }

    #[test]
    fn udf_debug_names_variant() {
        let udf = Udf::Map(Arc::new(MapClosure(|_: &Record, _: &mut Collector| {})));
        assert_eq!(format!("{udf:?}"), "Udf::Map");
    }

    #[test]
    fn sources_emit_their_records_in_order_as_often_as_asked() {
        let records = vec![Record::pair(1, 2), Record::long_double(3, 0.5)];
        let described = SourceClosure::new(2, |out: &mut dyn RecordSink| {
            out.emit(&[Value::Long(1), Value::Long(2)]);
            out.emit(&[Value::Long(3), Value::Double(0.5)]);
        });
        let shared: Arc<dyn RecordSource> = Arc::new(records.clone());
        for source in [&records as &dyn RecordSource, &described, &shared] {
            assert_eq!(source.len(), 2);
            assert!(!source.is_empty());
            assert_eq!(source.collect(), records);
            assert_eq!(source.collect(), records);
        }
        assert!(Vec::<Record>::new().is_empty());
    }
}
