//! # dataflow — a PACT-style parallel dataflow engine
//!
//! This crate is the batch-processing substrate that the iteration operators
//! of the `spinning-core` crate are embedded into, closely following the
//! Stratosphere system assumed by *Spinning Fast Iterative Data Flows*
//! (Ewen et al., VLDB 2012), Section 3:
//!
//! * **Record model** — records are short sequences of [`Value`]s; operators
//!   address key fields by position ([`record`], [`value`], [`key`]).
//! * **Serialized pages** — records that cross partition boundaries travel
//!   as length-prefixed binary data in sealed page buffers, so repartitioning
//!   moves page pointers and ships bytes, not heap objects ([`page`]).
//! * **Spilling** — under a memory budget, exchanges move sealed pages to
//!   disk as runs sorted on the exchange key and the grouping kernel
//!   consumes them through a streaming k-way merge, so iterations keep
//!   working when the exchanged state exceeds memory ([`spill`]).
//! * **Parallelization Contracts** — `Map`, `Reduce`, `Match`, `Cross`,
//!   `CoGroup` and `InnerCoGroup` second-order functions wrapping arbitrary
//!   user code ([`contracts`]).
//! * **Logical plans** — DAGs of sources, operators and sinks ([`plan`]).
//! * **Physical plans** — shipping strategies (forward, hash partition,
//!   broadcast) per edge and local strategies (hash or sort-merge joins,
//!   grouping) per operator ([`physical`]).  Hash partitioning is the one
//!   routing ([`range::PartitionRouter`]).
//! * **Exchange** — the one route → page → spill → ship → gather mechanism
//!   under both the executor's repartitioning and the iteration runtime's
//!   superstep queue switch ([`exchange`]).
//! * **Executor** — a multi-threaded shared-nothing runtime where each worker
//!   partition stands in for a cluster node; records crossing partitions are
//!   counted as network traffic ([`exec`], [`stats`]).
//! * **Join index** — the build side of every hash join, and the cached
//!   constant path a workset iteration probes with each delta
//!   ([`join_index`]).
//!
//! ```
//! use dataflow::prelude::*;
//! use std::sync::Arc;
//!
//! // Count edges per source vertex.
//! let mut plan = Plan::new();
//! let edges = plan.source("edges", vec![
//!     Record::pair(1, 2), Record::pair(1, 3), Record::pair(2, 3),
//! ]);
//! let degree = plan.reduce(
//!     "degree",
//!     edges,
//!     vec![0],
//!     Arc::new(ReduceClosure(|key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
//!         out.emit(&[key[0].clone(), Value::Long(group.len() as i64)]);
//!     })),
//! );
//! plan.sink("degrees", degree);
//!
//! let physical = default_physical_plan(&plan, 2).unwrap();
//! let result = Executor::new().execute(&physical).unwrap();
//! let mut out = result.sink("degrees").unwrap();
//! out.sort();
//! assert_eq!(out, vec![Record::pair(1, 2), Record::pair(2, 1)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod contracts;
pub mod credit;
pub mod error;
pub mod exchange;
pub mod exec;
pub mod fault;
pub mod join_index;
pub mod key;
pub mod page;
pub mod physical;
pub mod plan;
pub mod range;
pub mod record;
pub mod spill;
pub mod stats;
pub mod transport;
pub mod value;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::contracts::{
        CoGroupClosure, CoGroupFunction, CombineClosure, CombineFunction, CrossClosure,
        CrossFunction, MapClosure, MapFunction, MatchClosure, MatchFunction, RecordSink,
        RecordSource, ReduceClosure, ReduceFunction, SourceClosure, Udf,
    };
    pub use crate::credit::{
        credit_channel, CreditReceiver, CreditSender, RecvTimeoutError, SendError, TryRecvError,
    };
    pub use crate::error::{DataflowError, Result};
    pub use crate::exec::{
        ExecConfig, ExecutionResult, Executor, IntermediateCache, Partition, Partitions, SinkPages,
    };
    pub use crate::fault::{FaultInjector, FaultSite, FAULT_RATE_ENV, FAULT_SEED_ENV};
    pub use crate::key::{FxBuildHasher, FxHashMap, Key, KeyFields, KeyValues};
    pub use crate::page::{ExchangedPartition, PageReader, PageWriter, RecordPage, RecordView};
    pub use crate::physical::{
        default_physical_plan, LocalStrategy, PhysicalChoice, PhysicalPlan, ShipStrategy,
    };
    pub use crate::plan::{Operator, OperatorId, OperatorKind, Plan};
    pub use crate::range::{PartitionRouter, RangeBounds};
    pub use crate::record::Record;
    pub use crate::spill::{
        gc_stale_files, read_records_from, write_records_to, MemoryBudget, RunCursor, RunMerger,
        SpillManager, SpillStats, SpilledRun, SpillingWriter,
    };
    pub use crate::stats::{ExecutionStats, OperatorStats};
    pub use crate::transport::{conn_drop_hook, SharedPageChannel, TransportHandle};
    pub use crate::value::Value;
    pub use comm::{ChannelId, ClusterSpec, CommError};
}

pub use prelude::*;
