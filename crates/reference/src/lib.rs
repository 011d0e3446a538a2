//! The oracle the engine is tested against, kept out of the engine.
//!
//! The paper fixes the semantics of its second-order functions — Map,
//! Reduce, Match, Cross, CoGroup (Section 3) and the workset step
//! (Section 5) — independently of how an engine runs them.  This crate
//! states those semantics a second time, as plainly as possible, over heap
//! [`Record`]s: every partition is a `Vec<Record>`, every grouping a stable
//! sort, every join a map from key to record positions.  It shares none of
//! the engine's page storage, grouping kernel, join index, exchange, spill
//! or fusion code, so a bug in any of those cannot hide in the reference
//! too.  The only engine type it touches on the data path is the one the
//! user functions' signatures demand: a group handed to a user function is
//! written with [`dataflow::page::PageWriter`] and read back as
//! [`dataflow::page::RecordView`]s, the serialized record format.
//!
//! Two evaluators:
//!
//! * [`interpreter`] evaluates a [`dataflow::physical::PhysicalPlan`] one
//!   operator at a time, one `Vec<Record>` per partition, following the
//!   executor's documented contract where it fixes an order: source record
//!   `i` goes to partition `i / ceil(n/p)`; hash edges route through the
//!   public [`dataflow::range::PartitionRouter`] and deliver what stayed in
//!   a partition first, then every other source partition's records in
//!   source order.
//!   Reduce, sort-merge Match and CoGroup hand out groups in key order with
//!   ties in delivery order, a hash join emits the matches of each probe
//!   record in build-insertion order, and Cross pairs left × right in
//!   order.  So wherever the engine's order is part of its contract, its
//!   output can be compared with the interpreter's byte for byte.
//! * [`fixpoint`] runs a workset iteration as batch supersteps — the
//!   `db ∪ Δ` loop that stops on an empty working set — and returns every
//!   superstep's solution and counters.
//!
//! [`laws`] checks, on seeded random inputs, the algebraic properties a
//! user function must have for the engine to be free in how it runs it —
//! today, that a declared combine may fold a group.
//!
//! Both deliver a repartitioning edge in [`source_major`] order, the order
//! of an exchange that keeps everything in memory.  Under a memory budget
//! the engine delivers what its writers kept in memory first and the runs
//! they spilled after; a suite that checks a partly spilled run against
//! the reference passes the exchange's actual order in as a [`Deliver`]
//! function ([`interpreter::Interpreter::with_delivery`],
//! [`fixpoint::batch_fixpoint_with`]), and the reference groups and joins
//! whatever order it is given by its own rules.
//!
//! The record-level key helpers of [`key`] are the reference grouping the
//! suites share ([`sort_by_key`], [`group_ranges`]); [`into_records`]
//! materializes a delivered partition for inspection.

pub mod fixpoint;
pub mod interpreter;
pub mod key;
pub mod laws;

pub use key::{compare_keys, group_ranges, keys_equal, sort_by_key};

use dataflow::page::{ExchangedPartition, PageWriter, RecordPage, RecordView};
use dataflow::record::Record;
use std::sync::Arc;

/// One `Vec<Record>` per partition.
pub type Partitions = Vec<Vec<Record>>;

/// The order a repartitioning edge delivers in: given the edge's key fields
/// and `sent[source][target]`, the records every source partition routed
/// to every target in routing order, returns each target's partition in
/// delivery order.
pub type Deliver = dyn Fn(&[usize], Vec<Partitions>) -> Partitions + Send + Sync;

/// The delivery of an exchange that keeps everything in memory: every
/// target receives the records that stayed in it first, then every other
/// source partition's in source order.
pub fn source_major(_key: &[usize], mut sent: Vec<Partitions>) -> Partitions {
    let targets = sent.first().map_or(0, Vec::len);
    (0..targets)
        .map(|target| {
            let mut part = sent
                .get_mut(target)
                .map(|own| std::mem::take(&mut own[target]))
                .unwrap_or_default();
            for from in &mut sent {
                part.append(&mut from[target]);
            }
            part
        })
        .collect()
}

/// The records of a delivered partition, in the order its visitor yields
/// them (pages, then spilled runs — merged when the partition is sorted).
pub fn into_records(part: ExchangedPartition) -> std::io::Result<Vec<Record>> {
    let mut records = Vec::with_capacity(part.record_count());
    part.for_each_view(|view| records.push(view.materialize()))?;
    Ok(records)
}

/// `records` serialized, the form a user function reads them in.
fn on_pages(records: &[Record]) -> Vec<Arc<RecordPage>> {
    let mut writer = PageWriter::new();
    for record in records {
        writer.push(record);
    }
    writer.finish()
}

/// The records of `pages`, in order.
fn views(pages: &[Arc<RecordPage>]) -> impl Iterator<Item = RecordView<'_>> {
    pages.iter().flat_map(|page| page.reader())
}
