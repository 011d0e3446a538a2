//! Microstep-eligibility analysis (Section 5.2).
//!
//! An incremental iteration may be executed in microsteps (and hence
//! asynchronously) only if its step function `Δ` satisfies the structural
//! conditions the paper states:
//!
//! 1. `Δ` consists solely of record-at-a-time operators (Map, Match, Cross);
//!    group-at-a-time operators (Reduce, CoGroup) need a whole superstep to
//!    delimit their groups.
//! 2. Binary operators have at most one input on the dynamic data path, and
//!    the dynamic data path has no branches — each dynamic operator has a
//!    single dynamic successor (otherwise `Wi+1` could depend on `Wi` through
//!    more than the single element `d`).
//! 3. Updates to the partial solution stay within the worker partition that
//!    produced them: the identifying key must be constant along the path from
//!    the solution set to the delta set, and every keyed operation on that
//!    path must use the identifying key (checked here via the field-copy
//!    annotations used by the optimizer).
//!
//! The check operates on the logical [`Plan`] representation of `Δ`, so it is
//! usable both for diagnosing hand-built plans and in tests that assert the
//! Connected Components `Match` variant is eligible while the `CoGroup`
//! variant is not.

use dataflow::plan::{OperatorKind, Plan};
use dataflow::prelude::OperatorId;
use optimizer::Annotations;
use std::collections::HashSet;

/// The outcome of the eligibility analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eligibility {
    /// Reasons why the plan is *not* eligible; empty means eligible.
    pub violations: Vec<String>,
}

impl Eligibility {
    /// True if the step function may be executed in microsteps.
    pub fn is_eligible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks whether the step function `plan`, whose dynamic data path starts at
/// `dynamic_sources` (the working set and solution set inputs) and ends at
/// `delta_sink`, may be executed in microsteps.
///
/// `solution_key` is the identifying key of the solution set expressed in the
/// field space of the delta sink's records; `annotations` provide the
/// field-copy information used to verify the key is preserved along the
/// dynamic path.
pub fn check_microstep_eligibility(
    plan: &Plan,
    dynamic_sources: &[OperatorId],
    delta_sink: OperatorId,
    solution_key: &[usize],
    annotations: &Annotations,
) -> Eligibility {
    let mut violations = Vec::new();

    // The dynamic data path: everything downstream of a dynamic source.
    let mut dynamic: HashSet<OperatorId> = HashSet::new();
    for &source in dynamic_sources {
        for op in plan.downstream_closure(source) {
            dynamic.insert(op);
        }
    }

    for &id in &dynamic {
        let op = plan.operator(id);

        // Condition 1: record-at-a-time operators only.
        if !op.kind.is_record_at_a_time() {
            violations.push(format!(
                "operator '{}' uses the group-at-a-time contract {}, which requires supersteps",
                op.name,
                op.kind.contract_name()
            ));
        }

        // Condition 2a: binary operators may have at most one dynamic input.
        let dynamic_inputs = op
            .inputs
            .iter()
            .filter(|input| dynamic.contains(input))
            .count();
        if op.inputs.len() >= 2 && dynamic_inputs > 1 {
            violations.push(format!(
                "operator '{}' has {} inputs on the dynamic data path; microsteps allow at most one",
                op.name, dynamic_inputs
            ));
        }

        // Condition 2b: no branches on the dynamic data path.  The paper
        // explicitly excepts the edge that connects to the delta set `D`, so
        // the delta sink does not count as a successor here.
        let dynamic_consumers: Vec<OperatorId> = plan
            .consumers(id)
            .into_iter()
            .filter(|c| dynamic.contains(c) && *c != delta_sink)
            .collect();
        if dynamic_consumers.len() > 1 {
            violations.push(format!(
                "operator '{}' has {} successors on the dynamic data path; the path must not branch",
                op.name,
                dynamic_consumers.len()
            ));
        }
    }

    // Condition 3: the identifying key must be preserved along the dynamic
    // path into the delta sink.  Walk upstream from the delta sink through
    // dynamic operators, mapping the key backwards; if at any step the key
    // cannot be traced to a single input, the updates may leave the partition.
    let mut current = delta_sink;
    let mut key: Vec<usize> = solution_key.to_vec();
    loop {
        let op = plan.operator(current);
        let dynamic_inputs: Vec<(usize, OperatorId)> = op
            .inputs
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, input)| dynamic.contains(input))
            .collect();
        if dynamic_inputs.is_empty() {
            break;
        }
        if dynamic_inputs.len() > 1 {
            // Already reported as a branch violation above.
            break;
        }
        let (slot, input) = dynamic_inputs[0];
        // Sinks and unions forward records unchanged; other operators must
        // declare the copy through annotations.
        let mapped = match op.kind {
            OperatorKind::Sink { .. } | OperatorKind::Union => Some(key.clone()),
            _ => annotations.map_key_backward(current, slot, &key),
        };
        match mapped {
            Some(mapped) => key = mapped,
            None => {
                violations.push(format!(
                    "operator '{}' does not preserve the solution-set key; updates could cross partitions",
                    op.name
                ));
                break;
            }
        }
        if dynamic_sources.contains(&input) {
            break;
        }
        current = input;
    }

    violations.sort();
    violations.dedup();
    Eligibility { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::prelude::*;
    use optimizer::FieldCopy;
    use std::sync::Arc;

    /// The Connected Components Δ dataflow of Figure 5, with the solution-set
    /// join built either as a record-at-a-time `Match` (microstep variant) or
    /// as an `InnerCoGroup` (batch incremental variant).
    fn cc_delta_plan(use_match: bool) -> (Plan, Vec<OperatorId>, OperatorId, Annotations) {
        let mut plan = Plan::new();
        let workset = plan.source("workset", vec![]);
        let solution = plan.source("solution-set", vec![]);
        let neighbours = plan.source("neighbours", vec![]);
        let mut ann = Annotations::new();
        let update = if use_match {
            let join = plan.match_join(
                "update-components",
                workset,
                solution,
                vec![0],
                vec![0],
                Arc::new(MatchClosure(
                    |w: RecordView<'_>, _s: RecordView<'_>, out: &mut dyn RecordSink| {
                        out.forward(w)
                    },
                )),
            );
            ann.add_copy(
                join,
                FieldCopy {
                    slot: 0,
                    in_field: 0,
                    out_field: 0,
                },
            );
            join
        } else {
            let cg = plan.inner_cogroup(
                "update-components",
                workset,
                solution,
                vec![0],
                vec![0],
                Arc::new(CoGroupClosure(
                    |_k: &[Value],
                     w: &[RecordView<'_>],
                     _s: &[RecordView<'_>],
                     out: &mut dyn RecordSink| { out.forward(w[0]) },
                )),
            );
            ann.add_copy(
                cg,
                FieldCopy {
                    slot: 0,
                    in_field: 0,
                    out_field: 0,
                },
            );
            cg
        };
        let delta_sink = plan.sink("delta", update);
        let expand = plan.match_join(
            "candidates-for-neighbours",
            update,
            neighbours,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |d: RecordView<'_>, n: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::pair(n.long(1), d.long(1)).fields())
                },
            )),
        );
        plan.sink("next-workset", expand);
        (plan, vec![workset], delta_sink, ann)
    }

    #[test]
    fn match_variant_is_microstep_eligible() {
        let (plan, dynamic, delta_sink, ann) = cc_delta_plan(true);
        let eligibility = check_microstep_eligibility(&plan, &dynamic, delta_sink, &[0], &ann);
        assert!(
            eligibility.is_eligible(),
            "violations: {:?}",
            eligibility.violations
        );
    }

    #[test]
    fn cogroup_variant_requires_supersteps() {
        let (plan, dynamic, delta_sink, ann) = cc_delta_plan(false);
        let eligibility = check_microstep_eligibility(&plan, &dynamic, delta_sink, &[0], &ann);
        assert!(!eligibility.is_eligible());
        assert!(eligibility
            .violations
            .iter()
            .any(|v| v.contains("group-at-a-time")));
    }

    #[test]
    fn key_modifying_update_is_rejected() {
        // Same Match plan but without the field-copy annotation: the system
        // cannot prove the key stays put, so updates might cross partitions.
        let (plan, dynamic, delta_sink, _) = cc_delta_plan(true);
        let no_annotations = Annotations::new();
        let eligibility =
            check_microstep_eligibility(&plan, &dynamic, delta_sink, &[0], &no_annotations);
        assert!(!eligibility.is_eligible());
        assert!(eligibility
            .violations
            .iter()
            .any(|v| v.contains("preserve")));
    }

    #[test]
    fn branching_dynamic_path_is_rejected() {
        let mut plan = Plan::new();
        let workset = plan.source("workset", vec![]);
        let a = plan.map(
            "a",
            workset,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r)
            })),
        );
        // Two dynamic consumers of the same operator: a branch.
        let b = plan.map(
            "b",
            a,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r)
            })),
        );
        let c = plan.map(
            "c",
            a,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r)
            })),
        );
        let delta = plan.sink("delta", b);
        plan.sink("next-workset", c);
        let mut ann = Annotations::new();
        for op in [a, b, c] {
            ann.add_copy(
                op,
                FieldCopy {
                    slot: 0,
                    in_field: 0,
                    out_field: 0,
                },
            );
        }
        let eligibility = check_microstep_eligibility(&plan, &[workset], delta, &[0], &ann);
        assert!(!eligibility.is_eligible());
        assert!(eligibility
            .violations
            .iter()
            .any(|v| v.contains("branch") || v.contains("successors")));
    }
}
