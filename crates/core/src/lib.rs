//! # spinning-core — bulk and incremental iterations for parallel dataflows
//!
//! This crate implements the contribution of *Spinning Fast Iterative Data
//! Flows* (Ewen, Tzoumas, Kaufmann, Markl — VLDB 2012): embedding iterations
//! into a parallel dataflow system such that algorithms with sparse
//! computational dependencies run as fast as in specialized systems, while
//! keeping the general dataflow abstraction.
//!
//! * [`bulk`] — **bulk iterations** `(G, I, O, T)`: the step dataflow `G` is
//!   re-executed with feedback-channel semantics until the termination
//!   criterion fires; loop-invariant inputs are cached, and the step plan is
//!   optimized with iteration-aware costs (Section 4).
//! * [`workset`] — **incremental (workset) iterations** `(Δ, S0, W0)`: the
//!   partial solution lives in a partitioned, keyed [`SolutionSet`] index
//!   that persists across supersteps; the step function produces a *delta
//!   set* merged with the `∪̇` operator and the next working set (Section 5).
//!   Supports the batch-incremental (`InnerCoGroup`) and microstep (`Match`)
//!   variants, both in supersteps separated by a barrier.
//! * [`config`] — [`RunConfig`], the one run configuration of both
//!   operators: parallelism, update variant, step bound, checkpointing and
//!   the execution settings.
//! * [`stats`] — per-iteration counters (runtime, working-set size, elements
//!   inspected/changed, messages) backing the reproduction of the paper's
//!   figures.
//!
//! ```
//! use spinning_core::prelude::*;
//! use dataflow::prelude::*;
//! use std::sync::Arc;
//!
//! // Propagate the minimum label through a 3-vertex path 0-1-2.
//! let update = Arc::new(UpdateClosure(
//!     |key: &Key, cur: Option<RecordView<'_>>, cands: &[RecordView<'_>], delta: &mut dyn RecordSink| {
//!         let best = cands.iter().map(|r| r.long(1)).min().unwrap();
//!         if cur.is_none_or(|c| c.long(1) > best) {
//!             delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
//!         }
//!     },
//! ));
//! let expand = Arc::new(ExpandClosure(
//!     |d: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
//!         for e in edges {
//!             out.emit(&[Value::Long(e.long(1)), Value::Long(d.long(1))]);
//!         }
//!     },
//! ));
//! let edges = vec![Record::pair(0, 1), Record::pair(1, 0), Record::pair(1, 2), Record::pair(2, 1)];
//! let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
//!     .constant_input(Arc::new(edges), vec![0], vec![0])
//!     .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
//!     .build();
//! let solution = vec![Record::pair(0, 7), Record::pair(1, 8), Record::pair(2, 9)];
//! let workset = vec![Record::pair(1, 7), Record::pair(0, 8), Record::pair(2, 8), Record::pair(1, 9)];
//! let result = iteration.run(solution, workset, &RunConfig::new(2)).unwrap();
//! assert!(result.solution.iter().all(|r| r.long(1) == 7));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bulk;
pub mod checkpoint;
pub mod config;
mod load;
pub mod solution_set;
pub mod stats;
pub mod workset;

/// Commonly used types for building iterative dataflow programs.
pub mod prelude {
    pub use crate::bulk::{BulkIteration, BulkIterationResult, TerminationCriterion};
    pub use crate::checkpoint::{CheckpointPolicy, CheckpointStore, RestoredCheckpoint};
    pub use crate::config::RunConfig;
    pub use crate::solution_set::{MergeOutcome, RecordComparator, SolutionSet};
    pub use crate::stats::{IterationRunStats, IterationStats};
    pub use crate::workset::{
        ExecutionMode, ExpandClosure, ExpandFunction, UpdateClosure, UpdateFunction,
        WorksetIteration, WorksetIterationBuilder, WorksetResult,
    };
}

pub use prelude::*;
