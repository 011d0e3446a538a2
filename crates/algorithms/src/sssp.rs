//! Single-source shortest paths as an incremental iteration.
//!
//! SSSP is one of the algorithms the paper names as having sparse
//! computational dependencies (Section 1): relaxing one vertex's distance
//! only affects its neighbours.  The workset iteration mirrors the Connected
//! Components template: solution records `(vid, distance)`, workset records
//! `(vid, candidate distance)`, and an expansion that sends `distance + 1`
//! (unit edge weights) to the updated vertex's neighbours.

use crate::common::{adopt_min, edge_source, min_combine, per_vertex, prefer_min, vid};
use dataflow::prelude::*;
use graphdata::{Graph, VertexId};
use spinning_core::prelude::*;
use std::sync::Arc;

/// Distance assigned to vertices that are unreachable from the source.
pub const UNREACHABLE: i64 = i64::MAX;

/// The outcome of an SSSP run.
#[derive(Debug)]
pub struct SsspResult {
    /// Distance from the source per vertex ([`UNREACHABLE`] if disconnected).
    /// Only final when [`SsspResult::converged`] is `true`.
    pub distances: Vec<i64>,
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// `false` when the superstep bound truncated the run; distances may
    /// still shrink in that case.
    pub converged: bool,
    /// Per-superstep statistics.
    pub stats: IterationRunStats,
}

/// Builds the SSSP workset iteration for a graph with unit edge weights.
fn build_iteration(graph: &Graph) -> WorksetIteration<'_> {
    let update = Arc::new(UpdateClosure(adopt_min));
    let expand = Arc::new(ExpandClosure(
        |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            let next_distance = delta.long(1) + 1;
            for e in edges {
                out.emit(&[Value::Long(e.long(1)), Value::Long(next_distance)]);
            }
        },
    ));
    WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edge_source(graph)), vec![0], vec![0])
        .comparator(Arc::new(prefer_min))
        // A vertex's distance candidates fold to their minimum before they
        // ship.
        .combine(min_combine())
        .build()
}

/// Runs single-source shortest paths from `source` using the given execution
/// mode.
pub fn sssp(
    graph: &Graph,
    source: VertexId,
    parallelism: usize,
    mode: ExecutionMode,
) -> Result<SsspResult> {
    let config = WorksetConfig::new(parallelism).with_mode(mode);
    sssp_with_config(graph, source, &config)
}

/// Runs single-source shortest paths under a fully explicit
/// [`WorksetConfig`] — superstep bound and memory budget
/// included.  A finite [`ExecConfig::memory_budget`] spills the frontier
/// exchange's candidate pages to disk, so the traversal runs in bounded
/// memory on long-tail graphs.
pub fn sssp_with_config(
    graph: &Graph,
    source: VertexId,
    config: &WorksetConfig,
) -> Result<SsspResult> {
    let result = sssp_records(graph, source, config)?;
    let mut distances = vec![UNREACHABLE; graph.num_vertices()];
    for record in &result.solution {
        distances[record.long(0) as usize] = record.long(1);
    }
    Ok(SsspResult {
        distances,
        supersteps: result.supersteps,
        converged: result.converged,
        stats: result.stats,
    })
}

/// Like [`sssp_with_config`] but returns the raw [`WorksetResult`]: the
/// solution as `(vid, distance)` records instead of a dense distance vector.
/// This is the entry point for cluster workers — with a multi-process
/// [`ExecConfig::transport`] each process's result holds only the
/// solution partitions it owns, and densifying per process would plant
/// holes; concatenating the workers' records in index order reproduces the
/// single-process record stream.
pub fn sssp_records(
    graph: &Graph,
    source: VertexId,
    config: &WorksetConfig,
) -> Result<WorksetResult> {
    if source as usize >= graph.num_vertices() {
        return Err(DataflowError::InvalidPlan(format!(
            "SSSP source vertex {source} is out of range: the graph has {} vertices",
            graph.num_vertices()
        )));
    }
    // S0: the source is at distance 0, everything else unreachable.
    let initial_solution = per_vertex(graph, |v| {
        let distance = if v == source { 0 } else { UNREACHABLE };
        [vid(v), Value::Long(distance)]
    });
    // W0: distance-1 candidates for the source's neighbours.
    let neighbors = graph.neighbors(source);
    let initial_workset = SourceClosure::new(neighbors.len(), |out: &mut dyn RecordSink| {
        for &t in neighbors {
            out.emit(&[vid(t), Value::Long(1)]);
        }
    });
    build_iteration(graph).run(initial_solution, initial_workset, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles;
    use graphdata::{chain, rmat, RmatParams};

    #[test]
    fn matches_the_bfs_oracle_on_a_chain() {
        let graph = chain(64);
        let result = sssp(&graph, 0, 2, ExecutionMode::BatchIncremental).unwrap();
        assert_eq!(result.distances, oracles::sssp(&graph, 0));
        // The number of supersteps tracks the eccentricity of the source.
        assert!(result.supersteps >= 63);
    }

    #[test]
    fn matches_the_oracle_on_power_law_graphs_in_all_modes() {
        let graph = rmat(300, 1500, RmatParams::default(), 31).symmetrize();
        let expected = oracles::sssp(&graph, 5);
        for mode in [
            ExecutionMode::BatchIncremental,
            ExecutionMode::Microstep,
            ExecutionMode::AsynchronousMicrostep,
        ] {
            let result = sssp(&graph, 5, 4, mode).unwrap();
            assert_eq!(
                result.distances, expected,
                "mode {mode:?} disagrees with the oracle"
            );
        }
    }

    #[test]
    fn unreachable_vertices_keep_the_sentinel_distance() {
        let graph = Graph::undirected_from_edges(5, &[(0, 1), (1, 2)]);
        let result = sssp(&graph, 0, 2, ExecutionMode::Microstep).unwrap();
        assert_eq!(result.distances[3], UNREACHABLE);
        assert_eq!(result.distances[4], UNREACHABLE);
        assert_eq!(result.distances[..3], [0, 1, 2]);
    }

    #[test]
    fn an_out_of_range_source_is_a_typed_error_naming_it() {
        let graph = chain(8);
        for source in [8, 9, VertexId::MAX] {
            let error = sssp(&graph, source, 2, ExecutionMode::BatchIncremental).unwrap_err();
            let DataflowError::InvalidPlan(message) = &error else {
                panic!("expected InvalidPlan, got {error}");
            };
            assert!(
                message.contains(&source.to_string()) && message.contains("8 vertices"),
                "{message}"
            );
        }
        assert!(sssp(&graph, 7, 2, ExecutionMode::BatchIncremental).is_ok());
    }

    #[test]
    fn workset_only_contains_the_frontier() {
        let graph = chain(100);
        let result = sssp(&graph, 0, 1, ExecutionMode::BatchIncremental).unwrap();
        // On a chain the frontier is a single vertex, so every superstep
        // inspects exactly one or two candidates — never the whole graph.
        for s in &result.stats.per_iteration {
            assert!(s.elements_inspected <= 2);
        }
    }
}
