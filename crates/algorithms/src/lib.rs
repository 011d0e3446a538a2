//! # algorithms — the paper's evaluation workloads as iterative dataflows
//!
//! * [`mod@pagerank`] — bulk-iterative PageRank (Figure 3) with the two
//!   physical plans of Figure 4 (broadcast vs. partition), selectable or left
//!   to the optimizer.
//! * [`connected_components`] — Connected Components in the three variants
//!   the paper measures: bulk (FIXPOINT-CC), batch incremental (INCR-CC with
//!   an `InnerCoGroup`) and microstep (MICRO-CC with a `Match`).
//! * [`mod@sssp`] — single-source shortest paths as an incremental iteration.
//! * [`mod@adaptive_pagerank`] — the adaptive PageRank of the related-work
//!   discussion, expressed as a workset iteration.
//! * [`oracles`] — sequential reference implementations used by the tests.
//! * [`common`] — conversions from [`graphdata::Graph`] to record form.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive_pagerank;
pub mod common;
pub mod connected_components;
pub mod oracles;
pub mod pagerank;
pub mod sssp;

pub use crate::adaptive_pagerank::{adaptive_pagerank, AdaptiveConfig, AdaptivePageRankResult};
pub use crate::connected_components::{
    cc_bulk, cc_incremental, cc_microstep, cc_workset_records, ComponentsConfig, ComponentsResult,
};
pub use crate::pagerank::{pagerank, PageRankConfig, PageRankPlan, PageRankResult};
pub use crate::sssp::{sssp, sssp_records, sssp_with_config, SsspResult, UNREACHABLE};
