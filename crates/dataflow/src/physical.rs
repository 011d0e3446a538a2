//! Physical execution plans: shipping strategies per edge and local
//! strategies per operator.
//!
//! The logical plan ([`crate::plan::Plan`]) says *what* to compute; the
//! physical plan says *how*: whether an input is forwarded, hash-partitioned
//! or broadcast to the parallel operator instances, and whether an operator
//! uses hashing or sorting locally.  These are exactly the degrees of freedom
//! the paper's optimizer explores (Section 4.3).  A naive rule-based planner
//! lives here so the engine is usable stand-alone; the cost-based planner in
//! the `optimizer` crate produces the same [`PhysicalPlan`] type.

use crate::error::{DataflowError, Result};
use crate::key::KeyFields;
use crate::plan::{OperatorId, OperatorKind, Plan};
use std::collections::HashMap;
use std::fmt;

/// How the records of one input edge are distributed to the parallel
/// instances of the consuming operator.
///
/// Hash partitioning executes as a paged exchange; past the memory budget or
/// the channel credits ([`crate::exec::ExecConfig::memory_budget`],
/// [`crate::exec::ExecConfig::channel_credits`]) its buffered pages spill to
/// disk as runs sorted on the key ([`crate::spill`]), which the grouping
/// kernel consumes by streaming merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipStrategy {
    /// Instance *i* of the producer feeds instance *i* of the consumer; no
    /// records cross partition boundaries ("fifo" in the paper's Figure 4).
    Forward,
    /// Records are hash-partitioned on the given key fields; records with the
    /// same key end up at the same consumer instance.
    PartitionHash(KeyFields),
    /// Every record is replicated to every consumer instance.
    Broadcast,
}

impl fmt::Display for ShipStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipStrategy::Forward => write!(f, "forward"),
            ShipStrategy::PartitionHash(k) => write!(f, "hash-partition{k:?}"),
            ShipStrategy::Broadcast => write!(f, "broadcast"),
        }
    }
}

/// The operator's local (per-instance) algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalStrategy {
    /// No local algorithm needed (map, union, sink, source).
    None,
    /// Hash join building the hash table on the left input, probing with the
    /// right.
    HashJoinBuildLeft,
    /// Hash join building the hash table on the right input, probing with the
    /// left.
    HashJoinBuildRight,
    /// Sort both inputs on their keys and merge.
    SortMergeJoin,
    /// Grouping / aggregation (every Reduce groups on the one page kernel).
    HashGroup,
    /// Block nested-loop cross product.
    NestedLoop,
}

/// The input slot of `kind` that can be *streamed* (consumed record by
/// record as upstream produces it) under the given local strategy, or `None`
/// when every input must be materialized before the operator can run.
///
/// This is the chain-fusion rule: a forward-shipped, uncached,
/// single-consumer edge into this slot can be fused — the producer calls the
/// consumer per record ([`crate::exec`]) — because the operator never needs
/// to see the whole input at once *before consuming it*: it either emits per
/// record (map, sink, cross over a materialized build side, hash-join probe)
/// or folds the stream into its own bounded state (grouping).  Slots that
/// the local algorithm dams — both sides of a sort-merge join, the build side
/// of a hash join, every union/cogroup input — break the chain.
pub fn streaming_input_slot(kind: &OperatorKind, local: LocalStrategy) -> Option<usize> {
    match kind {
        OperatorKind::Map | OperatorKind::Sink { .. } => Some(0),
        // A grouping folds the stream into its group table/buffer; the edge
        // itself still streams (the dam is the operator's own state, not a
        // materialized input partition).
        OperatorKind::Reduce { .. } => Some(0),
        // Nested-loop cross materializes the (broadcast) right side and
        // streams the left.
        OperatorKind::Cross => Some(0),
        // Hash joins stream their probe side; a sort-merge join sorts both
        // sides and therefore dams both.
        OperatorKind::Match { .. } => match local {
            LocalStrategy::HashJoinBuildRight => Some(0),
            LocalStrategy::SortMergeJoin => None,
            _ => Some(1),
        },
        // Unions interleave inputs in slot order and cogroups dam both
        // sides; sources have no inputs.
        OperatorKind::Union | OperatorKind::CoGroup { .. } | OperatorKind::Source { .. } => None,
    }
}

impl fmt::Display for LocalStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocalStrategy::None => "none",
            LocalStrategy::HashJoinBuildLeft => "hash-join(build=left)",
            LocalStrategy::HashJoinBuildRight => "hash-join(build=right)",
            LocalStrategy::SortMergeJoin => "sort-merge-join",
            LocalStrategy::HashGroup => "hash-group",
            LocalStrategy::NestedLoop => "nested-loop",
        };
        write!(f, "{s}")
    }
}

/// Per-operator physical choices.
#[derive(Debug, Clone)]
pub struct PhysicalChoice {
    /// One shipping strategy per input edge, in input-slot order.
    pub input_ships: Vec<ShipStrategy>,
    /// The local algorithm.
    pub local: LocalStrategy,
    /// Per input edge: cache the post-exchange data so repeated executions of
    /// the same plan (iterations) skip re-shipping loop-invariant inputs
    /// (the paper's constant-data-path cache, Section 4.3).
    pub cache_inputs: Vec<bool>,
}

impl PhysicalChoice {
    /// A choice with all-forward shipping and no local strategy, sized for
    /// `inputs` input edges.
    pub fn forward(inputs: usize) -> Self {
        PhysicalChoice {
            input_ships: vec![ShipStrategy::Forward; inputs],
            local: LocalStrategy::None,
            cache_inputs: vec![false; inputs],
        }
    }
}

/// A fully decided physical plan: the logical plan plus one
/// [`PhysicalChoice`] per operator and a degree of parallelism.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The underlying logical plan.
    pub plan: Plan,
    /// Physical choices, keyed by operator id.
    pub choices: HashMap<OperatorId, PhysicalChoice>,
    /// Number of parallel instances each operator runs with.
    pub parallelism: usize,
}

impl PhysicalPlan {
    /// The physical choice for `id`; panics if the plan is missing a choice,
    /// which indicates a planner bug.
    pub fn choice(&self, id: OperatorId) -> &PhysicalChoice {
        self.choices
            .get(&id)
            .unwrap_or_else(|| panic!("no physical choice for operator {id:?}"))
    }

    /// Marks an input edge of `id` as cached across repeated executions.
    pub fn cache_input(&mut self, id: OperatorId, input_slot: usize) {
        if let Some(choice) = self.choices.get_mut(&id) {
            if input_slot < choice.cache_inputs.len() {
                choice.cache_inputs[input_slot] = true;
            }
        }
    }

    /// Renders the physical plan, including shipping and local strategies,
    /// as an indented tree (the textual analogue of the paper's Figure 4).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for sink in self.plan.sinks() {
            self.explain_rec(sink, 0, &mut out);
        }
        out
    }

    fn explain_rec(&self, id: OperatorId, depth: usize, out: &mut String) {
        let op = self.plan.operator(id);
        let choice = self.choice(id);
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [{}] local={}\n",
            op.name,
            op.kind.contract_name(),
            choice.local
        ));
        for (slot, &input) in op.inputs.iter().enumerate() {
            out.push_str(&"  ".repeat(depth + 1));
            let cached = if choice.cache_inputs[slot] {
                " CACHE"
            } else {
                ""
            };
            out.push_str(&format!("<- ship={}{}\n", choice.input_ships[slot], cached));
            self.explain_rec(input, depth + 1, out);
        }
    }
}

/// Produces a physical plan with straightforward rule-based choices:
/// partition on the contract's keys, hash-based local strategies, broadcast
/// the right side of cross products.  This mirrors what a dataflow system
/// without an optimizer (e.g. plain MapReduce) would do and serves as the
/// baseline the cost-based optimizer improves upon.
pub fn default_physical_plan(plan: &Plan, parallelism: usize) -> Result<PhysicalPlan> {
    if parallelism == 0 {
        return Err(DataflowError::InvalidPlan(
            "parallelism must be at least 1".into(),
        ));
    }
    plan.validate()?;
    let mut choices = HashMap::new();
    for op in plan.operators() {
        let choice = match &op.kind {
            OperatorKind::Source { .. } => PhysicalChoice::forward(0),
            OperatorKind::Map | OperatorKind::Sink { .. } => PhysicalChoice::forward(1),
            OperatorKind::Union => PhysicalChoice::forward(op.inputs.len()),
            OperatorKind::Reduce { key } => PhysicalChoice {
                input_ships: vec![ShipStrategy::PartitionHash(key.clone())],
                local: LocalStrategy::HashGroup,
                cache_inputs: vec![false],
            },
            OperatorKind::Match {
                left_key,
                right_key,
            } => PhysicalChoice {
                input_ships: vec![
                    ShipStrategy::PartitionHash(left_key.clone()),
                    ShipStrategy::PartitionHash(right_key.clone()),
                ],
                local: LocalStrategy::HashJoinBuildLeft,
                cache_inputs: vec![false, false],
            },
            OperatorKind::CoGroup {
                left_key,
                right_key,
                ..
            } => PhysicalChoice {
                input_ships: vec![
                    ShipStrategy::PartitionHash(left_key.clone()),
                    ShipStrategy::PartitionHash(right_key.clone()),
                ],
                local: LocalStrategy::SortMergeJoin,
                cache_inputs: vec![false, false],
            },
            OperatorKind::Cross => PhysicalChoice {
                input_ships: vec![ShipStrategy::Forward, ShipStrategy::Broadcast],
                local: LocalStrategy::NestedLoop,
                cache_inputs: vec![false, false],
            },
        };
        choices.insert(op.id, choice);
    }
    Ok(PhysicalPlan {
        plan: plan.clone(),
        choices,
        parallelism,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{MapClosure, MatchClosure, RecordSink, ReduceClosure};
    use crate::page::RecordView;
    use crate::record::Record;
    use std::sync::Arc;

    fn sample_plan() -> Plan {
        let mut plan = Plan::new();
        let vector = plan.source("vector", vec![Record::long_double(1, 1.0)]);
        let matrix = plan.source("matrix", vec![Record::triple(1, 1, 1.0)]);
        let join = plan.match_join(
            "join",
            vector,
            matrix,
            vec![0],
            vec![1],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| out.forward(l),
            )),
        );
        let agg = plan.reduce(
            "sum",
            join,
            vec![0],
            Arc::new(ReduceClosure(
                |_k: &_, g: &[RecordView<'_>], out: &mut dyn RecordSink| out.forward(g[0]),
            )),
        );
        plan.sink("out", agg);
        plan
    }

    #[test]
    fn default_plan_partitions_joins_and_reduces() {
        let plan = sample_plan();
        let phys = default_physical_plan(&plan, 4).unwrap();
        assert_eq!(phys.parallelism, 4);
        let join_id = OperatorId(2);
        let join_choice = phys.choice(join_id);
        assert_eq!(
            join_choice.input_ships[0],
            ShipStrategy::PartitionHash(vec![0])
        );
        assert_eq!(
            join_choice.input_ships[1],
            ShipStrategy::PartitionHash(vec![1])
        );
        assert_eq!(join_choice.local, LocalStrategy::HashJoinBuildLeft);
        let reduce_choice = phys.choice(OperatorId(3));
        assert_eq!(reduce_choice.local, LocalStrategy::HashGroup);
    }

    #[test]
    fn zero_parallelism_is_rejected() {
        let plan = sample_plan();
        assert!(default_physical_plan(&plan, 0).is_err());
    }

    #[test]
    fn map_uses_forward_shipping() {
        let mut plan = Plan::new();
        let src = plan.source("s", vec![]);
        let m = plan.map(
            "m",
            src,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r)
            })),
        );
        plan.sink("out", m);
        let phys = default_physical_plan(&plan, 2).unwrap();
        assert_eq!(phys.choice(m).input_ships[0], ShipStrategy::Forward);
    }

    #[test]
    fn cache_input_marks_edge() {
        let plan = sample_plan();
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        phys.cache_input(OperatorId(2), 1);
        assert!(phys.choice(OperatorId(2)).cache_inputs[1]);
        assert!(!phys.choice(OperatorId(2)).cache_inputs[0]);
    }

    #[test]
    fn explain_shows_strategies() {
        let plan = sample_plan();
        let phys = default_physical_plan(&plan, 2).unwrap();
        let text = phys.explain();
        assert!(text.contains("hash-partition"));
        assert!(text.contains("hash-join"));
    }
}
