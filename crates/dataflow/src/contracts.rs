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

use crate::page::{PageWriter, RecordView};
use crate::record::Record;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Receives records as they are emitted — the one interface every record is
/// written through: every user function (the executor's `Map`, `Reduce`,
/// `Match`, `Cross` and `CoGroup`, the workset's update and expand) and
/// every [`RecordSource`] emits into one.
///
/// In a fused executor segment the sink is the next operator, which takes
/// each record while the user function is still running; at a segment's
/// tail, or wherever records are buffered, it is a [`PageWriter`].
/// Emission is infallible from the emitter's point of view; a sink that
/// fails downstream records the error internally and reports it when the
/// runtime takes it back.
///
/// A record leaves an emitter in one of two representations:
/// [`RecordSink::emit`] hands over the fields of a record that exists
/// nowhere yet, so a sink that writes pages serializes them in place and
/// the record is never allocated — `Long` and `Double` fields live on the
/// emitter's stack; [`RecordSink::forward`] hands over a record that
/// already exists serialized (a filter's or a union's pass-through, a
/// source of pages), which a sink that writes pages copies as bytes.
pub trait RecordSink: Send {
    /// Receives one emitted record by reference to its fields.
    fn emit(&mut self, fields: &[Value]);

    /// Receives one record that exists serialized, read in place.  Sinks
    /// that do not keep bytes fall back to materializing it and emitting
    /// its fields.
    fn forward(&mut self, record: RecordView<'_>) {
        self.emit(record.materialize().fields());
    }
}

/// A sink holding the fields of the last record emitted into it — how a
/// runtime reads back a user function that emits at most one record (a
/// workset update's delta, a fold); empty until one is emitted.
#[derive(Debug, Default)]
pub struct LastEmitted(pub Vec<Value>);

impl RecordSink for LastEmitted {
    fn emit(&mut self, fields: &[Value]) {
        self.0.clear();
        self.0.extend_from_slice(fields);
    }
}

/// A buffering sink: emitted records become heap records at the end of the
/// vector ([`RecordSource::collect`] reads a source through it).
impl RecordSink for Vec<Record> {
    #[inline]
    fn emit(&mut self, fields: &[Value]) {
        self.push(Record::new(fields.to_vec()));
    }
}

/// A paging sink: an emitted record is serialized onto the writer's pages,
/// a forwarded one copied as bytes.
impl RecordSink for PageWriter {
    #[inline]
    fn emit(&mut self, fields: &[Value]) {
        self.push_fields(fields);
    }

    #[inline]
    fn forward(&mut self, record: RecordView<'_>) {
        self.push_serialized(record.payload());
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

impl fmt::Debug for dyn RecordSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RecordSource({} records)", self.len())
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

/// First-order function for the `Map` contract: invoked once per record.
pub trait MapFunction: Send + Sync {
    /// Processes one record, read in place, emitting zero or more records.
    fn map(&self, record: RecordView<'_>, out: &mut dyn RecordSink);
}

/// First-order function for the `Reduce` contract: invoked once per key group.
pub trait ReduceFunction: Send + Sync {
    /// Processes the group of records sharing `key`, read in place.
    fn reduce(&self, key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink);
}

/// First-order function for the `Match` contract: invoked once per pair of
/// records with equal keys (an equi-join).
pub trait MatchFunction: Send + Sync {
    /// Processes one joined pair, read in place.
    fn join(&self, left: RecordView<'_>, right: RecordView<'_>, out: &mut dyn RecordSink);
}

/// First-order function for the `Cross` contract: invoked once per pair of
/// records from the Cartesian product of both inputs.
pub trait CrossFunction: Send + Sync {
    /// Processes one pair of the cross product, read in place.
    fn cross(&self, left: RecordView<'_>, right: RecordView<'_>, out: &mut dyn RecordSink);
}

/// First-order function for the `CoGroup` / `InnerCoGroup` contracts: invoked
/// once per key with all records of both inputs that carry that key.
pub trait CoGroupFunction: Send + Sync {
    /// Processes the pair of groups sharing `key`, read in place.  For the
    /// plain `CoGroup` contract either side may be empty; for `InnerCoGroup`
    /// both sides are guaranteed non-empty.
    fn cogroup(
        &self,
        key: &[Value],
        left: &[RecordView<'_>],
        right: &[RecordView<'_>],
        out: &mut dyn RecordSink,
    );
}

/// First-order function folding two records that share a key into one — a
/// combiner, run where records are produced, before they are serialized
/// for the exchange (the sender-side combine of Pregel and of Stratosphere's
/// Reduce contract).
///
/// A declared combine must be associative and commutative, and the consumer
/// must compute from a folded group what it computes from the whole group:
/// the runtime folds as many or as few of a key's records as it sees fit.
pub trait CombineFunction: Send + Sync {
    /// Folds `candidate` into `held`, the record kept so far for the same
    /// key: emits the folded record, or nothing to keep `held` as it is.
    fn combine(&self, held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink);
}

// --- Closure adapters -------------------------------------------------------
//
// Writing a struct per UDF is verbose; these adapters let plans be assembled
// from closures while keeping the trait objects the runtime works with.

/// Wraps a closure as a [`MapFunction`].
pub struct MapClosure<F>(pub F);

impl<F> MapFunction for MapClosure<F>
where
    F: Fn(RecordView<'_>, &mut dyn RecordSink) + Send + Sync,
{
    fn map(&self, record: RecordView<'_>, out: &mut dyn RecordSink) {
        (self.0)(record, out)
    }
}

/// Wraps a closure as a [`ReduceFunction`].
pub struct ReduceClosure<F>(pub F);

impl<F> ReduceFunction for ReduceClosure<F>
where
    F: Fn(&[Value], &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync,
{
    fn reduce(&self, key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink) {
        (self.0)(key, group, out)
    }
}

/// Wraps a closure as a [`MatchFunction`].
pub struct MatchClosure<F>(pub F);

impl<F> MatchFunction for MatchClosure<F>
where
    F: Fn(RecordView<'_>, RecordView<'_>, &mut dyn RecordSink) + Send + Sync,
{
    fn join(&self, left: RecordView<'_>, right: RecordView<'_>, out: &mut dyn RecordSink) {
        (self.0)(left, right, out)
    }
}

/// Wraps a closure as a [`CrossFunction`].
pub struct CrossClosure<F>(pub F);

impl<F> CrossFunction for CrossClosure<F>
where
    F: Fn(RecordView<'_>, RecordView<'_>, &mut dyn RecordSink) + Send + Sync,
{
    fn cross(&self, left: RecordView<'_>, right: RecordView<'_>, out: &mut dyn RecordSink) {
        (self.0)(left, right, out)
    }
}

/// Wraps a closure as a [`CoGroupFunction`].
pub struct CoGroupClosure<F>(pub F);

impl<F> CoGroupFunction for CoGroupClosure<F>
where
    F: Fn(&[Value], &[RecordView<'_>], &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync,
{
    fn cogroup(
        &self,
        key: &[Value],
        left: &[RecordView<'_>],
        right: &[RecordView<'_>],
        out: &mut dyn RecordSink,
    ) {
        (self.0)(key, left, right, out)
    }
}

/// Wraps a closure as a [`CombineFunction`].
pub struct CombineClosure<F>(pub F);

impl<F> CombineFunction for CombineClosure<F>
where
    F: Fn(RecordView<'_>, &[Value], &mut dyn RecordSink) + Send + Sync,
{
    fn combine(&self, held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink) {
        (self.0)(held, candidate, out)
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
    use crate::page::RecordPage;

    /// The records of `pages`, materialized.
    fn records_of(pages: &[Arc<RecordPage>]) -> Vec<Record> {
        pages
            .iter()
            .flat_map(|page| page.reader())
            .map(|view| view.materialize())
            .collect()
    }

    /// `records` on pages, for views to be read off.
    fn pages_of(records: &[Record]) -> Vec<Arc<RecordPage>> {
        let mut writer = PageWriter::new();
        records.iter().for_each(|record| {
            writer.push(record);
        });
        writer.finish()
    }

    #[test]
    fn a_page_writer_sink_keeps_forwarded_and_emitted_records_in_order() {
        let mut out = PageWriter::new();
        let input = pages_of(&[Record::pair(1, 2), Record::pair(3, 4)]);
        input[0].reader().for_each(|view| out.forward(view));
        out.emit(&[Value::Long(5), Value::Long(6)]);
        assert_eq!(out.total_records(), 3);
        assert_eq!(
            records_of(&out.finish()),
            vec![Record::pair(1, 2), Record::pair(3, 4), Record::pair(5, 6)]
        );
    }

    /// Keeps the fields of every record that reached its `emit`; `forward`
    /// is the trait's default.
    #[derive(Default)]
    struct RecordingSink {
        emitted: Vec<Vec<Value>>,
    }

    impl RecordSink for RecordingSink {
        fn emit(&mut self, fields: &[Value]) {
            self.emitted.push(fields.to_vec());
        }
    }

    #[test]
    fn emit_buffers_an_exactly_sized_record_or_reaches_the_sinks_emit() {
        let fields = [Value::Long(7), Value::Double(0.5)];
        let passed = pages_of(&[Record::pair(1, 2)]);
        let mut paging = PageWriter::new();
        paging.emit(&fields);
        assert_eq!(paging.total_records(), 1);
        let mut records = records_of(&paging.finish());
        assert_eq!(records, vec![Record::long_double(7, 0.5)]);
        let buffered = records.pop().unwrap().into_fields();
        assert_eq!(
            buffered.capacity(),
            buffered.len(),
            "records materialize exactly sized"
        );

        let mut heap: Vec<Record> = Vec::new();
        heap.emit(&fields);
        heap.forward(passed[0].view_at(0));
        assert_eq!(heap, vec![Record::long_double(7, 0.5), Record::pair(1, 2)]);

        // A sink that keeps no bytes receives a forwarded record
        // materialized, through its own `emit`.
        let mut recording = RecordingSink::default();
        recording.emit(&fields);
        recording.forward(passed[0].view_at(0));
        assert_eq!(
            recording.emitted,
            vec![fields.to_vec(), Record::pair(1, 2).into_fields()]
        );
    }

    #[test]
    fn map_closure_adapts() {
        let udf = MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
            out.emit(&[Value::Long(r.long(0) * 2), Value::Long(r.long(1))]);
        });
        let mut out = PageWriter::new();
        udf.map(pages_of(&[Record::pair(4, 7)])[0].view_at(0), &mut out);
        assert_eq!(records_of(&out.finish())[0].long(0), 8);
    }

    #[test]
    fn reduce_closure_sees_whole_group() {
        let udf = ReduceClosure(
            |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                let sum: i64 = group.iter().map(|r| r.long(1)).sum();
                out.emit(&[key[0].clone(), Value::Long(sum)]);
            },
        );
        let mut out = PageWriter::new();
        let pages = pages_of(&[Record::pair(1, 10), Record::pair(1, 5)]);
        let group: Vec<RecordView<'_>> = pages[0].reader().collect();
        udf.reduce(&[Value::Long(1)], &group, &mut out);
        assert_eq!(records_of(&out.finish())[0].long(1), 15);
    }

    #[test]
    fn cogroup_closure_receives_both_sides() {
        let udf = CoGroupClosure(
            |_k: &[Value], l: &[RecordView<'_>], r: &[RecordView<'_>], out: &mut dyn RecordSink| {
                out.emit(&[Value::Long(l.len() as i64), Value::Long(r.len() as i64)]);
            },
        );
        let mut out = PageWriter::new();
        let left = pages_of(&[Record::pair(1, 1)]);
        udf.cogroup(&[Value::Long(1)], &[left[0].view_at(0)], &[], &mut out);
        assert_eq!(records_of(&out.finish())[0].long(1), 0);
    }

    #[test]
    fn udf_debug_names_variant() {
        let udf = Udf::Map(Arc::new(MapClosure(
            |_: RecordView<'_>, _: &mut dyn RecordSink| {},
        )));
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
