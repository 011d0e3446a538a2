//! # optimizer — cost-based planning for (iterative) dataflows
//!
//! Reproduces the optimizer extensions of *Spinning Fast Iterative Data
//! Flows* (VLDB 2012), Sections 4.3 and 5.3:
//!
//! * classical Volcano-style enumeration of shipping strategies (forward,
//!   hash partition, broadcast) and local strategies with a cost model and
//!   cardinality estimates ([`enumerate`], [`cost`], [`cardinality`]);
//! * *interesting properties* propagated towards the sources, extended with
//!   the loop feedback from the iteration input `I` to the iteration output
//!   `O` ([`interesting`]);
//! * the split of an iterative step function into the **dynamic data path**
//!   (re-executed every iteration, cost weighted by the expected number of
//!   iterations) and the **constant data path** (executed once), and the
//!   decision to **cache** the constant-path intermediate result where the
//!   two paths meet ([`Optimizer::optimize_iterative`]).
//!
//! The optimizer consumes the logical [`Plan`] of the `dataflow` crate plus
//! [`Annotations`] (field-copy output contracts) and produces a
//! [`PhysicalPlan`] directly executable by the `dataflow` executor.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cardinality;
pub mod cost;
pub mod enumerate;
pub mod interesting;
pub mod properties;

pub use crate::cardinality::{estimate, Cardinalities};
pub use crate::cost::{Cost, CostModel};
pub use crate::enumerate::{enumerate_best, EnumeratedPlan, PlanningContext};
pub use crate::interesting::{interesting_keys, EdgeInterests};
pub use crate::properties::{Annotations, FieldCopy, Partitioning};

use dataflow::prelude::{OperatorId, PhysicalPlan, Plan, Result};
use std::collections::{HashMap, HashSet};

/// Describes the iterative structure of a step-function plan to the
/// optimizer.
#[derive(Debug, Clone, Default)]
pub struct IterationSpec {
    /// Source operators that carry data changing every iteration (the partial
    /// solution `I`, or the working set `W` for incremental iterations).
    /// Everything downstream of these forms the dynamic data path.
    pub dynamic_sources: Vec<OperatorId>,
    /// `(output_operator, input_source)` pairs connected by the feedback
    /// channel: the records produced at `output_operator` become
    /// `input_source`'s data in the next iteration.  Used for the two-pass
    /// interesting-property propagation.
    pub feedback: Vec<(OperatorId, OperatorId)>,
    /// Expected number of iterations; the dynamic path's cost is weighted by
    /// this factor when comparing plans.
    pub expected_iterations: f64,
}

impl IterationSpec {
    /// A specification with one dynamic source, one feedback edge and the
    /// given expected iteration count.
    pub fn new(dynamic_source: OperatorId, output: OperatorId, expected_iterations: f64) -> Self {
        IterationSpec {
            dynamic_sources: vec![dynamic_source],
            feedback: vec![(output, dynamic_source)],
            expected_iterations,
        }
    }
}

/// The outcome of optimizing a plan.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen physical plan, ready for the executor.
    pub physical: PhysicalPlan,
    /// The optimizer's cost estimate.
    pub cost: Cost,
    /// Operators on the dynamic data path (empty for non-iterative plans).
    pub dynamic_path: Vec<OperatorId>,
    /// Edges `(consumer, input slot)` whose input is cached across
    /// iterations because the constant data path meets the dynamic path
    /// there.
    pub cached_edges: Vec<(OperatorId, usize)>,
}

/// Configuration of the [`Optimizer`].
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Degree of parallelism plans are generated for.
    pub parallelism: usize,
    /// The cost model.
    pub cost_model: CostModel,
}

impl OptimizerConfig {
    /// Default configuration for the given parallelism.
    pub fn new(parallelism: usize) -> Self {
        OptimizerConfig {
            parallelism,
            cost_model: CostModel::new(parallelism),
        }
    }
}

/// The cost-based optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer producing plans for `parallelism` worker
    /// partitions.
    pub fn new(parallelism: usize) -> Self {
        Optimizer {
            config: OptimizerConfig::new(parallelism),
        }
    }

    /// Creates an optimizer with an explicit configuration.
    pub fn with_config(config: OptimizerConfig) -> Self {
        Optimizer { config }
    }

    /// The configured parallelism.
    pub fn parallelism(&self) -> usize {
        self.config.parallelism
    }

    /// Optimizes a non-iterative plan.
    pub fn optimize(&self, plan: &Plan, annotations: &Annotations) -> Result<OptimizedPlan> {
        self.optimize_internal(plan, annotations, None)
    }

    /// Optimizes the step function of an iteration.
    ///
    /// Costs of operators and edges on the dynamic data path (everything
    /// downstream of `spec.dynamic_sources`) are weighted by
    /// `spec.expected_iterations`; edges where the constant data path feeds
    /// the dynamic path are marked for caching so repeated executions skip
    /// re-shipping loop-invariant data; and the interesting properties of the
    /// iteration input are fed back to the iteration output before the second
    /// propagation pass.
    pub fn optimize_iterative(
        &self,
        plan: &Plan,
        annotations: &Annotations,
        spec: &IterationSpec,
    ) -> Result<OptimizedPlan> {
        self.optimize_internal(plan, annotations, Some(spec))
    }

    fn optimize_internal(
        &self,
        plan: &Plan,
        annotations: &Annotations,
        spec: Option<&IterationSpec>,
    ) -> Result<OptimizedPlan> {
        if self.config.parallelism == 0 {
            return Err(dataflow::prelude::DataflowError::InvalidPlan(
                "parallelism must be at least 1".into(),
            ));
        }
        let mut dynamic: HashSet<OperatorId> = HashSet::new();
        let mut op_weight: HashMap<OperatorId, f64> = HashMap::new();
        let mut cache_edges: HashSet<(OperatorId, usize)> = HashSet::new();
        let mut feedback: Vec<(OperatorId, OperatorId)> = Vec::new();

        if let Some(spec) = spec {
            for &source in &spec.dynamic_sources {
                for op in plan.downstream_closure(source) {
                    dynamic.insert(op);
                }
            }
            let weight = spec.expected_iterations.max(1.0);
            for &op in &dynamic {
                op_weight.insert(op, weight);
            }
            for op in plan.operators() {
                if !dynamic.contains(&op.id) {
                    continue;
                }
                for (slot, input) in op.inputs.iter().enumerate() {
                    if !dynamic.contains(input) {
                        cache_edges.insert((op.id, slot));
                    }
                }
            }
            feedback = spec.feedback.clone();
        }

        let interesting = interesting_keys(plan, annotations, &feedback);
        let ctx = PlanningContext {
            plan,
            annotations,
            model: self.config.cost_model,
            cards: estimate(plan),
            op_weight,
            cache_edges: cache_edges.clone(),
            interesting,
        };
        let enumerated = enumerate_best(&ctx, self.config.parallelism)?;

        let mut dynamic_path: Vec<OperatorId> = dynamic.into_iter().collect();
        dynamic_path.sort();
        let mut cached_edges: Vec<(OperatorId, usize)> = cache_edges.into_iter().collect();
        cached_edges.sort();
        Ok(OptimizedPlan {
            physical: enumerated.physical,
            cost: enumerated.cost,
            dynamic_path,
            cached_edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::prelude::*;
    use std::sync::Arc;

    /// The PageRank step dataflow of Figure 3: vector (pid, r) joined with
    /// matrix (tid, pid, p), grouped by tid.  Returns the plan, the ids of
    /// the relevant operators, and the annotations.
    fn pagerank_step(
        num_pages: usize,
        num_entries: usize,
    ) -> (
        Plan,
        OperatorId,
        OperatorId,
        OperatorId,
        OperatorId,
        OperatorId,
        Annotations,
    ) {
        let mut plan = Plan::new();
        let vector = plan.source(
            "rank-vector",
            (0..num_pages.min(1000) as i64)
                .map(|i| Record::long_double(i, 1.0))
                .collect::<Vec<_>>(),
        );
        plan.set_estimated_records(vector, num_pages);
        let matrix = plan.source(
            "matrix",
            (0..num_entries.min(1000) as i64)
                .map(|i| {
                    Record::triple(
                        i % num_pages.min(1000) as i64,
                        (i * 7) % num_pages.min(1000) as i64,
                        0.1,
                    )
                })
                .collect::<Vec<_>>(),
        );
        plan.set_estimated_records(matrix, num_entries);
        let join = plan.match_join(
            "join-p-A",
            vector,
            matrix,
            vec![0],
            vec![1],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::long_double(r.long(0), l.double(1) * r.double(2)).fields());
                },
            )),
        );
        plan.set_estimated_records(join, num_entries);
        let reduce = plan.reduce(
            "sum-ranks",
            join,
            vec![0],
            Arc::new(ReduceClosure(
                |k: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    let sum: f64 = g.iter().map(|r| r.double(1)).sum();
                    out.emit(Record::long_double(k[0].as_long(), sum).fields());
                },
            )),
        );
        plan.set_estimated_records(reduce, num_pages);
        let sink = plan.sink("next-ranks", reduce);
        let mut ann = Annotations::new();
        ann.add_copy(
            join,
            FieldCopy {
                slot: 1,
                in_field: 0,
                out_field: 0,
            },
        );
        ann.add_copy(
            reduce,
            FieldCopy {
                slot: 0,
                in_field: 0,
                out_field: 0,
            },
        );
        (plan, vector, matrix, join, reduce, sink, ann)
    }

    #[test]
    fn small_rank_vector_prefers_the_broadcast_plan() {
        // Figure 4, left-hand plan: broadcast the small vector, cache the
        // matrix partitioned by tid, group without repartitioning.
        let (plan, vector, _matrix, join, reduce, sink, ann) = pagerank_step(100, 100_000);
        let optimizer = Optimizer::new(8);
        let spec = IterationSpec::new(vector, sink, 20.0);
        let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        let join_ships = &optimized.physical.choice(join).input_ships;
        assert_eq!(
            join_ships[0],
            ShipStrategy::Broadcast,
            "vector should be broadcast"
        );
        assert_eq!(
            join_ships[1],
            ShipStrategy::PartitionHash(vec![0]),
            "matrix should be partitioned by tid on the constant path"
        );
        assert_eq!(
            optimized.physical.choice(reduce).input_ships[0],
            ShipStrategy::Forward,
            "the aggregation should not need to repartition"
        );
        // The matrix edge is cached because it is the point where the
        // constant path meets the dynamic path.
        assert!(optimized.physical.choice(join).cache_inputs[1]);
        assert!(!optimized.physical.choice(join).cache_inputs[0]);
    }

    #[test]
    fn large_rank_vector_prefers_the_partitioning_plan() {
        // Figure 4, right-hand plan: when the vector is as large as the
        // matrix, broadcasting it to every node is more expensive than
        // partitioning both inputs and repartitioning the join result.
        let (plan, vector, _matrix, join, _reduce, sink, ann) = pagerank_step(2_000_000, 2_200_000);
        let optimizer = Optimizer::new(8);
        let spec = IterationSpec::new(vector, sink, 20.0);
        let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        let join_ships = &optimized.physical.choice(join).input_ships;
        assert_eq!(
            join_ships[0],
            ShipStrategy::PartitionHash(vec![0]),
            "vector should be hash partitioned"
        );
        assert_ne!(join_ships[0], ShipStrategy::Broadcast);
    }

    #[test]
    fn dynamic_path_covers_everything_downstream_of_the_iteration_input() {
        let (plan, vector, matrix, join, reduce, sink, ann) = pagerank_step(100, 10_000);
        let optimizer = Optimizer::new(4);
        let spec = IterationSpec::new(vector, sink, 20.0);
        let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        assert!(optimized.dynamic_path.contains(&vector));
        assert!(optimized.dynamic_path.contains(&join));
        assert!(optimized.dynamic_path.contains(&reduce));
        assert!(optimized.dynamic_path.contains(&sink));
        assert!(!optimized.dynamic_path.contains(&matrix));
        assert_eq!(optimized.cached_edges, vec![(join, 1)]);
    }

    #[test]
    fn optimized_iterative_plan_executes_and_matches_default_plan_output() {
        let (plan, vector, _matrix, _join, _reduce, sink, ann) = pagerank_step(50, 500);
        let optimizer = Optimizer::new(4);
        let spec = IterationSpec::new(vector, sink, 10.0);
        let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        let default = default_physical_plan(&plan, 4).unwrap();
        let exec = Executor::new();
        let mut a = exec
            .execute(&optimized.physical)
            .unwrap()
            .sink("next-ranks")
            .unwrap();
        let mut b = exec.execute(&default).unwrap().sink("next-ranks").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn optimization_is_deterministic() {
        let (plan, vector, _matrix, _join, _reduce, sink, ann) = pagerank_step(1_000, 50_000);
        let optimizer = Optimizer::new(8);
        let spec = IterationSpec::new(vector, sink, 20.0);
        let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        let again = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        assert!(optimized.cost.total().is_finite());
        assert!(optimized.cost.total() > 0.0);
        assert_eq!(optimized.cost.total(), again.cost.total());
        assert_eq!(optimized.physical.explain(), again.physical.explain());
    }

    #[test]
    fn non_iterative_optimization_marks_no_cache_edges() {
        let (plan, _vector, _matrix, join, _reduce, _sink, ann) = pagerank_step(100, 1_000);
        let optimizer = Optimizer::new(4);
        let optimized = optimizer.optimize(&plan, &ann).unwrap();
        assert!(optimized.cached_edges.is_empty());
        assert!(optimized.dynamic_path.is_empty());
        assert!(!optimized
            .physical
            .choice(join)
            .cache_inputs
            .iter()
            .any(|&c| c));
    }

    #[test]
    fn broadcast_plan_beats_partition_plan_on_estimated_cost_for_small_vectors() {
        // The broadcast decision should flip as the vector grows relative to
        // the matrix (Figure 4's two regimes).
        let optimizer = Optimizer::new(8);
        let mut last_broadcast = None;
        let mut saw_broadcast = false;
        let mut saw_partition = false;
        for pages in [100usize, 1_000, 10_000, 1_000_000, 4_000_000] {
            let (plan, vector, _m, join, _r, sink, ann) = pagerank_step(pages, 4_000_000);
            let spec = IterationSpec::new(vector, sink, 20.0);
            let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
            let broadcast =
                optimized.physical.choice(join).input_ships[0] == ShipStrategy::Broadcast;
            if broadcast {
                saw_broadcast = true;
                // Once the vector is large enough to switch to partitioning we
                // should not switch back to broadcast for even larger vectors.
                assert!(
                    last_broadcast != Some(false),
                    "crossover should be monotone"
                );
            } else {
                saw_partition = true;
            }
            last_broadcast = Some(broadcast);
        }
        assert!(saw_broadcast, "small vectors should be broadcast");
        assert!(saw_partition, "huge vectors should be partitioned");
    }
}
