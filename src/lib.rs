//! # spinning-dataflows
//!
//! An umbrella crate re-exporting the pieces of this reproduction of
//! *Spinning Fast Iterative Data Flows* (Ewen, Tzoumas, Kaufmann, Markl —
//! VLDB 2012):
//!
//! * [`dataflow`] — the PACT-style parallel dataflow engine (records,
//!   contracts, plans, the shared-nothing executor).
//! * [`optimizer`] — the iteration-aware cost-based optimizer (interesting
//!   properties, constant/dynamic data path, loop-invariant caching).
//! * [`spinning_core`] — bulk iterations and incremental (workset)
//!   iterations, batch-incremental and microstep.
//! * [`graphdata`] — graphs, generators, and the Table 2 dataset profiles.
//! * [`algorithms`] — PageRank, Connected Components, SSSP and adaptive
//!   PageRank as iterative dataflows.
//! * [`baselines`] — the Spark-like and Giraph/Pregel-like comparison
//!   engines.
//! * [`spinning_pool`] — the persistent one-queue worker pool every
//!   parallel region (operator local phases, superstep partitions, baseline
//!   engines) runs on.
//!
//! See `README.md` for a quickstart and the architecture, `ROADMAP.md` for
//! the open items, and `BENCHMARK.json` / `benchmark/README.md` for the
//! measured workloads and metrics.  Runnable examples live in `examples/`.

#![warn(missing_docs)]

pub use algorithms;
pub use baselines;
pub use dataflow;
pub use graphdata;
pub use optimizer;
pub use spinning_core;
pub use spinning_pool;
