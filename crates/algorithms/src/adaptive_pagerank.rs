//! Adaptive (incremental) PageRank.
//!
//! Section 7.2 of the paper points out that the *adaptive* version of
//! PageRank [Kamvar et al.] — where parts of the rank vector that have
//! already converged stop being recomputed — can be expressed as an
//! incremental iteration but is hard to express in Pregel, because Pregel
//! couples vertex activation with messaging while the workset abstraction
//! separates the two.
//!
//! This module implements the push-style ("Gauss–Southwell") formulation as
//! a workset iteration: the solution set holds `(pid, rank)`, the working set
//! holds pending rank mass `(pid, residual)`, and a vertex only propagates
//! when the accumulated residual exceeds a threshold.  Vertices whose
//! neighbourhood has converged therefore drop out of the computation — the
//! same sparse-dependency effect the Connected Components experiments show.

use crate::common::{edge_with_degree_source, per_vertex, vid};
use dataflow::prelude::*;
use graphdata::Graph;
use spinning_core::prelude::*;
use std::sync::Arc;

/// The outcome of an adaptive PageRank run.
#[derive(Debug)]
pub struct AdaptivePageRankResult {
    /// Final (unnormalised residual-pushed) ranks per vertex.  The values
    /// approximate the damped PageRank up to the chosen tolerance.
    pub ranks: Vec<f64>,
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// `false` when the run was truncated by the superstep bound before the
    /// residuals fell below the tolerance everywhere.
    pub converged: bool,
    /// Per-superstep statistics.
    pub stats: IterationRunStats,
}

/// Configuration of the adaptive PageRank computation.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Damping factor.
    pub damping: f64,
    /// Residual threshold below which a vertex stops propagating.
    pub tolerance: f64,
    /// Degree of parallelism.
    pub parallelism: usize,
    /// Execution mode (batch incremental by default).
    pub mode: ExecutionMode,
}

impl AdaptiveConfig {
    /// A configuration with the usual damping of 0.85 and a tolerance scaled
    /// for graphs of a few hundred thousand vertices.
    pub fn new(parallelism: usize) -> Self {
        AdaptiveConfig {
            damping: 0.85,
            tolerance: 1e-9,
            parallelism,
            mode: ExecutionMode::BatchIncremental,
        }
    }

    /// Sets the residual threshold.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets the execution mode.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Runs adaptive PageRank on `graph`.
///
/// Solution records are `(pid, rank)`; delta records are `(pid, rank,
/// pushed_residual)` so the expansion knows how much new mass to distribute;
/// workset records are `(pid, residual share)`.
pub fn adaptive_pagerank(graph: &Graph, config: &AdaptiveConfig) -> Result<AdaptivePageRankResult> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(AdaptivePageRankResult {
            ranks: Vec::new(),
            supersteps: 0,
            converged: true,
            stats: IterationRunStats::default(),
        });
    }
    let damping = config.damping;
    let tolerance = config.tolerance;

    let update = Arc::new(UpdateClosure(
        move |key: &Key,
              current: Option<RecordView<'_>>,
              candidates: &[RecordView<'_>],
              delta: &mut dyn RecordSink| {
            let residual: f64 = candidates.iter().map(|r| r.double(1)).sum();
            if residual < tolerance {
                return;
            }
            let rank = current.map(|c| c.double(1)).unwrap_or(0.0);
            delta.emit(&[
                key.values()[0].clone(),
                Value::Double(rank + residual),
                Value::Double(residual),
            ]);
        },
    ));
    let expand = Arc::new(ExpandClosure(
        move |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            if edges.is_empty() {
                return;
            }
            let residual = delta.double(2);
            // Edge records carry (source, target, out_degree(source)).
            let degree = edges[0].long(2) as f64;
            let share = damping * residual / degree;
            for e in edges {
                out.emit(&[Value::Long(e.long(1)), Value::Double(share)]);
            }
        },
    ));

    let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edge_with_degree_source(graph)), vec![0], vec![0])
        .build();

    // Every vertex starts with rank 0 and a pending residual of (1 - d) / n
    // (the teleport mass), which seeds the initial working set.
    let initial_solution = per_vertex(graph, |v| [vid(v), Value::Double(0.0)]);
    let seed = (1.0 - damping) / n as f64;
    let initial_workset = per_vertex(graph, move |v| [vid(v), Value::Double(seed)]);

    let workset_config = WorksetConfig::new(config.parallelism).with_mode(config.mode);
    let result = iteration.run(initial_solution, initial_workset, &workset_config)?;

    let mut ranks = vec![0.0; n];
    for record in &result.solution {
        ranks[record.long(0) as usize] = record.double(1);
    }
    Ok(AdaptivePageRankResult {
        ranks,
        supersteps: result.supersteps,
        converged: result.converged,
        stats: result.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles;
    use graphdata::{ring, rmat, star, RmatParams};

    fn normalized(mut ranks: Vec<f64>) -> Vec<f64> {
        let sum: f64 = ranks.iter().sum();
        if sum > 0.0 {
            for r in &mut ranks {
                *r /= sum;
            }
        }
        ranks
    }

    #[test]
    fn approximates_the_power_iteration_on_a_ring() {
        let graph = ring(32);
        let result = adaptive_pagerank(&graph, &AdaptiveConfig::new(2)).unwrap();
        let ranks = normalized(result.ranks);
        for &r in &ranks {
            assert!((r - 1.0 / 32.0).abs() < 1e-6);
        }
    }

    #[test]
    fn ranking_order_matches_the_oracle_on_a_power_law_graph() {
        let graph = rmat(200, 1400, RmatParams::default(), 77).symmetrize();
        let exact = oracles::pagerank(&graph, 60, 0.85);
        let adaptive =
            adaptive_pagerank(&graph, &AdaptiveConfig::new(4).with_tolerance(1e-10)).unwrap();
        let approx = normalized(adaptive.ranks);
        let exact = normalized(exact);
        // Compare the identity of the 10 highest-ranked vertices.
        let top = |ranks: &[f64]| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..ranks.len()).collect();
            idx.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
            idx.truncate(10);
            idx
        };
        let overlap = top(&approx)
            .iter()
            .filter(|v| top(&exact).contains(v))
            .count();
        assert!(overlap >= 8, "only {overlap} of the top-10 vertices agree");
    }

    #[test]
    fn hub_dominates_on_a_star() {
        let graph = star(64);
        let result = adaptive_pagerank(&graph, &AdaptiveConfig::new(2)).unwrap();
        let hub = result.ranks[0];
        assert!(result.ranks.iter().skip(1).all(|&r| r < hub));
    }

    #[test]
    fn looser_tolerance_means_less_work() {
        let graph = rmat(300, 2000, RmatParams::default(), 5).symmetrize();
        let strict =
            adaptive_pagerank(&graph, &AdaptiveConfig::new(2).with_tolerance(1e-12)).unwrap();
        let loose =
            adaptive_pagerank(&graph, &AdaptiveConfig::new(2).with_tolerance(1e-5)).unwrap();
        assert!(loose.stats.total_messages() < strict.stats.total_messages());
    }

    #[test]
    fn empty_graph_is_handled() {
        let graph = graphdata::Graph::from_edges(0, &[]);
        let result = adaptive_pagerank(&graph, &AdaptiveConfig::new(1)).unwrap();
        assert!(result.ranks.is_empty());
    }
}
