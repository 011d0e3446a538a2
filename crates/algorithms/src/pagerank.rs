//! PageRank as a bulk iterative dataflow (Section 4.1, Figures 3 and 4).
//!
//! The rank vector is the partial solution of a bulk iteration; every
//! iteration joins the vector with the sparse transition matrix on `pid`,
//! then groups the partial ranks by `tid` and sums them.  The optimizer
//! chooses between the two execution plans of Figure 4 — broadcasting the
//! rank vector (good for small models) or partitioning both inputs — but the
//! choice can also be forced, which is what the system-comparison benchmarks
//! (Figures 7 and 8) do to obtain the "Stratosphere BC" and "Stratosphere
//! Part." series.

use crate::common::{initial_ranks, records_to_f64_vec, transition_matrix};
use dataflow::prelude::*;
use graphdata::Graph;
use optimizer::{Annotations, FieldCopy};
use spinning_core::prelude::*;
use std::sync::Arc;

/// Which of the Figure 4 plans to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRankPlan {
    /// Let the cost-based optimizer decide (the paper's default behaviour).
    Optimized,
    /// Force the left-hand plan of Figure 4: broadcast the rank vector, keep
    /// the matrix cached partitioned by `tid`, aggregate locally.
    ForceBroadcast,
    /// Force the right-hand plan of Figure 4: hash-partition the vector and
    /// the matrix on the join key and re-partition the join result for the
    /// aggregation (the Pegasus/Spark-style plan).
    ForcePartition,
}

/// Configuration of a PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankConfig {
    /// Number of bulk iterations (the paper uses 20).
    pub iterations: usize,
    /// Degree of parallelism.
    pub parallelism: usize,
    /// Damping factor (0.85 unless stated otherwise).
    pub damping: f64,
    /// Plan selection.
    pub plan: PageRankPlan,
    /// The execution settings every iteration's executor runs under.
    pub exec: ExecConfig,
}

impl PageRankConfig {
    /// 20 iterations at the given parallelism with the optimizer choosing the
    /// plan.
    pub fn new(parallelism: usize) -> Self {
        PageRankConfig {
            iterations: 20,
            parallelism,
            damping: 0.85,
            plan: PageRankPlan::Optimized,
            exec: ExecConfig::new(),
        }
    }

    /// Sets the number of iterations.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the plan variant.
    pub fn with_plan(mut self, plan: PageRankPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the execution settings.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }
}

/// The outcome of a PageRank run.
#[derive(Debug)]
pub struct PageRankResult {
    /// Final ranks indexed by vertex id.
    pub ranks: Vec<f64>,
    /// Whether the run completed its termination criterion.  PageRank runs a
    /// fixed iteration count, so this is always `true`; the field mirrors the
    /// other algorithm results so callers can check uniformly.
    pub converged: bool,
    /// Per-iteration statistics.
    pub stats: IterationRunStats,
    /// Human-readable description of the physical plan that was executed.
    pub plan_description: String,
}

/// Builds the PageRank step dataflow of Figure 3 and returns the plan, the
/// iteration input (the rank-vector source), the ids of the join and reduce
/// operators, and the optimizer annotations.
pub fn build_step_plan(
    graph: &Graph,
    damping: f64,
) -> (Plan, OperatorId, OperatorId, OperatorId, Annotations) {
    let n = graph.num_vertices() as f64;
    let matrix_records = transition_matrix(graph);
    let matrix_len = matrix_records.len();

    let mut plan = Plan::new();
    let vector = plan.source("rank-vector", Vec::new());
    plan.set_estimated_records(vector, graph.num_vertices());
    let matrix = plan.source("transition-matrix", matrix_records);
    plan.set_estimated_records(matrix, matrix_len);

    // Match on pid: vector field 0 == matrix field 1; emit (tid, d * r * p)
    // as fields, so the fused aggregation stores it on its pages.
    let join = plan.match_join(
        "join-p-A",
        vector,
        matrix,
        vec![0],
        vec![1],
        Arc::new(MatchClosure(
            move |p: RecordView<'_>, a: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(&[
                    Value::Long(a.long(0)),
                    Value::Double(damping * p.double(1) * a.double(2)),
                ]);
            },
        )),
    );
    plan.set_estimated_records(join, matrix_len);

    // Reduce on tid: sum the partial ranks and add the teleport term.
    let teleport = (1.0 - damping) / n;
    let reduce = plan.reduce(
        "sum-partial-ranks",
        join,
        vec![0],
        Arc::new(ReduceClosure(
            move |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                let sum: f64 = group.iter().map(|r| r.double(1)).sum();
                out.emit(&[key[0].clone(), Value::Double(teleport + sum)]);
            },
        )),
    );
    plan.set_estimated_records(reduce, graph.num_vertices());
    plan.sink("next-ranks", reduce);

    let mut annotations = Annotations::new();
    annotations.add_copy(
        join,
        FieldCopy {
            slot: 1,
            in_field: 0,
            out_field: 0,
        },
    );
    annotations.add_copy(
        reduce,
        FieldCopy {
            slot: 0,
            in_field: 0,
            out_field: 0,
        },
    );
    (plan, vector, join, reduce, annotations)
}

/// Runs PageRank on `graph`.
pub fn pagerank(graph: &Graph, config: &PageRankConfig) -> Result<PageRankResult> {
    let (plan, vector, join, reduce, annotations) = build_step_plan(graph, config.damping);
    let iteration = BulkIteration::new(
        plan.clone(),
        vector,
        "next-ranks",
        TerminationCriterion::FixedIterations(config.iterations),
    );

    let bulk_config = BulkConfig::new(config.parallelism)
        .with_annotations(annotations)
        .with_exec(config.exec.clone());
    let result = match config.plan {
        PageRankPlan::Optimized => iteration.run(initial_ranks(graph), &bulk_config)?,
        forced => {
            // Build the forced physical plan by hand; the bulk driver runs
            // it through the same feedback loop as a planned one.
            let physical = forced_physical_plan(&plan, join, reduce, config.parallelism, forced)?;
            iteration.run_physical(physical, initial_ranks(graph), &bulk_config)?
        }
    };

    let ranks = records_to_f64_vec(&result.solution, graph.num_vertices());
    Ok(PageRankResult {
        ranks,
        converged: result.converged,
        stats: result.stats,
        plan_description: match config.plan {
            PageRankPlan::Optimized => "optimizer-selected plan".to_owned(),
            PageRankPlan::ForceBroadcast => "broadcast rank vector, cached matrix".to_owned(),
            PageRankPlan::ForcePartition => "partitioned vector and matrix".to_owned(),
        },
    })
}

/// Builds one of the two Figure 4 plans explicitly.
pub fn forced_physical_plan(
    plan: &Plan,
    join: OperatorId,
    reduce: OperatorId,
    parallelism: usize,
    variant: PageRankPlan,
) -> Result<PhysicalPlan> {
    let mut physical = default_physical_plan(plan, parallelism)?;
    match variant {
        PageRankPlan::ForceBroadcast => {
            // Left-hand plan: broadcast p, keep A partitioned (and cached) by
            // tid so the aggregation needs no repartitioning.
            let join_choice = physical.choices.get_mut(&join).expect("join choice");
            join_choice.input_ships[0] = ShipStrategy::Broadcast;
            join_choice.input_ships[1] = ShipStrategy::PartitionHash(vec![0]);
            join_choice.local = LocalStrategy::HashJoinBuildLeft;
            let reduce_choice = physical.choices.get_mut(&reduce).expect("reduce choice");
            reduce_choice.input_ships[0] = ShipStrategy::Forward;
        }
        PageRankPlan::ForcePartition => {
            // Right-hand plan: partition p and A on the join key and
            // repartition the join result by tid for the aggregation.
            let join_choice = physical.choices.get_mut(&join).expect("join choice");
            join_choice.input_ships[0] = ShipStrategy::PartitionHash(vec![0]);
            join_choice.input_ships[1] = ShipStrategy::PartitionHash(vec![1]);
            join_choice.local = LocalStrategy::HashJoinBuildRight;
            let reduce_choice = physical.choices.get_mut(&reduce).expect("reduce choice");
            reduce_choice.input_ships[0] = ShipStrategy::PartitionHash(vec![0]);
        }
        PageRankPlan::Optimized => {}
    }
    // The matrix edge lies on the constant data path in both variants.
    physical.cache_input(join, 1);
    Ok(physical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles;
    use graphdata::{ring, rmat, star, RmatParams};

    fn assert_close(a: &[f64], b: &[f64], tolerance: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tolerance, "rank {i}: {x} vs {y}");
        }
    }

    #[test]
    fn dataflow_pagerank_matches_the_oracle_on_a_small_web_graph() {
        let graph = rmat(200, 1600, RmatParams::default(), 3).symmetrize();
        let expected = oracles::pagerank(&graph, 10, 0.85);
        let config = PageRankConfig::new(4).with_iterations(10);
        let result = pagerank(&graph, &config).unwrap();
        assert_close(&result.ranks, &expected, 1e-9);
        assert_eq!(result.stats.iterations(), 10);
    }

    #[test]
    fn broadcast_and_partition_plans_compute_identical_ranks() {
        let graph = rmat(150, 900, RmatParams::default(), 9).symmetrize();
        let broadcast = pagerank(
            &graph,
            &PageRankConfig::new(4)
                .with_iterations(8)
                .with_plan(PageRankPlan::ForceBroadcast),
        )
        .unwrap();
        let partition = pagerank(
            &graph,
            &PageRankConfig::new(4)
                .with_iterations(8)
                .with_plan(PageRankPlan::ForcePartition),
        )
        .unwrap();
        assert_close(&broadcast.ranks, &partition.ranks, 1e-12);
        let oracle = oracles::pagerank(&graph, 8, 0.85);
        assert_close(&broadcast.ranks, &oracle, 1e-9);
    }

    /// Every Figure 4 plan runs out of core: under a zero budget every
    /// exchange spills, and the ranks stay bit-identical to the in-memory
    /// run's.
    #[test]
    fn every_plan_runs_out_of_core_with_bit_identical_ranks() {
        let graph = rmat(150, 900, RmatParams::default(), 9).symmetrize();
        let spill_everything = ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0));
        for plan in [
            PageRankPlan::Optimized,
            PageRankPlan::ForceBroadcast,
            PageRankPlan::ForcePartition,
        ] {
            let config = PageRankConfig::new(4).with_iterations(6).with_plan(plan);
            let in_memory = pagerank(&graph, &config).unwrap();
            let spilled = pagerank(&graph, &config.with_exec(spill_everything.clone())).unwrap();
            let bits = |ranks: &[f64]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&spilled.ranks), bits(&in_memory.ranks), "{plan:?}");
            let spilled_bytes: usize = spilled
                .stats
                .per_iteration
                .iter()
                .map(|s| s.spilled_bytes)
                .sum();
            assert!(spilled_bytes > 0, "{plan:?} spilled nothing");
        }
    }

    #[test]
    fn hub_of_a_star_graph_gets_the_highest_rank() {
        let graph = star(32);
        let result = pagerank(&graph, &PageRankConfig::new(2).with_iterations(15)).unwrap();
        let hub = result.ranks[0];
        assert!(result.ranks.iter().skip(1).all(|&r| r < hub));
    }

    #[test]
    fn ring_graph_has_uniform_ranks() {
        let graph = ring(24);
        let result = pagerank(&graph, &PageRankConfig::new(3).with_iterations(25)).unwrap();
        for &r in &result.ranks {
            assert!((r - 1.0 / 24.0).abs() < 1e-9);
        }
    }

    #[test]
    fn broadcast_plan_ships_fewer_records_for_small_vectors() {
        // On a graph with many more edges than vertices the broadcast plan
        // avoids repartitioning the large joined result, so it ships less.
        let graph = rmat(300, 6000, RmatParams::default(), 21).symmetrize();
        let bc = pagerank(
            &graph,
            &PageRankConfig::new(4)
                .with_iterations(4)
                .with_plan(PageRankPlan::ForceBroadcast),
        )
        .unwrap();
        let part = pagerank(
            &graph,
            &PageRankConfig::new(4)
                .with_iterations(4)
                .with_plan(PageRankPlan::ForcePartition),
        )
        .unwrap();
        let shipped = |result: &PageRankResult| -> usize {
            result
                .stats
                .per_iteration
                .iter()
                .skip(1) // the first iteration pays for the constant path
                .map(|s| s.messages_shipped)
                .sum()
        };
        assert!(
            shipped(&bc) < shipped(&part),
            "broadcast {} vs partition {}",
            shipped(&bc),
            shipped(&part)
        );
    }

    #[test]
    fn optimizer_choice_matches_one_of_the_forced_plans() {
        let graph = rmat(100, 1200, RmatParams::default(), 5).symmetrize();
        let auto = pagerank(&graph, &PageRankConfig::new(4).with_iterations(5)).unwrap();
        let oracle = oracles::pagerank(&graph, 5, 0.85);
        assert_close(&auto.ranks, &oracle, 1e-9);
    }

    #[test]
    fn per_iteration_statistics_are_complete() {
        let graph = ring(50);
        let result = pagerank(&graph, &PageRankConfig::new(2).with_iterations(6)).unwrap();
        assert_eq!(result.stats.per_iteration.len(), 6);
        for (i, s) in result.stats.per_iteration.iter().enumerate() {
            assert_eq!(s.iteration, i + 1);
            assert_eq!(s.workset_size, 50);
            assert!(s.execution.is_some());
        }
    }
}
