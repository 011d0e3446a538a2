//! Interesting-property propagation.
//!
//! Following the Volcano approach, operators announce which physical
//! properties (here: hash partitionings) would help them, and those
//! *interesting properties* are propagated down towards the sources so the
//! enumerator also considers establishing a property early — possibly on the
//! cheap constant data path — even though the operator consuming that edge
//! does not itself require it.
//!
//! For iterative plans the paper extends this with a feedback step
//! (Section 4.3): properties that are interesting at the iteration input `I`
//! are also interesting at the operator producing the iteration output `O`,
//! because `O` becomes the next iteration's `I`.  This is implemented as the
//! two top-down traversals described in the paper: the first pass collects
//! IPs, the IPs arriving at `I` are fed back into the requirements of `O`,
//! and the second pass propagates them through the dataflow again.

use crate::properties::Annotations;
use dataflow::plan::{OperatorKind, Plan};
use dataflow::prelude::{KeyFields, OperatorId};
use std::collections::HashMap;

/// Interesting hash-partitioning keys per (consumer operator, input slot).
pub type EdgeInterests = HashMap<(OperatorId, usize), Vec<KeyFields>>;

/// The partitioning requirements an operator itself places on one of its
/// input edges (its "generated" interesting properties).
fn own_requirement(kind: &OperatorKind, slot: usize) -> Option<KeyFields> {
    match kind {
        OperatorKind::Reduce { key } if slot == 0 => Some(key.clone()),
        OperatorKind::Match {
            left_key,
            right_key,
        }
        | OperatorKind::CoGroup {
            left_key,
            right_key,
            ..
        } => {
            if slot == 0 {
                Some(left_key.clone())
            } else {
                Some(right_key.clone())
            }
        }
        _ => None,
    }
}

/// Computes the interesting partitioning keys of every edge.
///
/// `feedback` contains `(output_operator, input_source)` pairs for iterative
/// plans: the interesting properties gathered at `input_source`'s outgoing
/// edges are fed back as requirements of `output_operator`'s input edges
/// before a second propagation pass (pass-through for non-iterative plans
/// when `feedback` is empty).
pub fn interesting_keys(
    plan: &Plan,
    annotations: &Annotations,
    feedback: &[(OperatorId, OperatorId)],
) -> EdgeInterests {
    let first = propagate(plan, annotations, &HashMap::new());
    if feedback.is_empty() {
        return first;
    }
    // Feed the IPs that arrived at each iteration input back into the
    // requirements of the corresponding output operator.
    let mut extra: HashMap<OperatorId, Vec<KeyFields>> = HashMap::new();
    for &(output_op, input_source) in feedback {
        let mut fed: Vec<KeyFields> = Vec::new();
        for ((consumer, slot), keys) in &first {
            let op = plan.operator(*consumer);
            if op.inputs.get(*slot) == Some(&input_source) {
                fed.extend(keys.iter().cloned());
            }
        }
        extra.entry(output_op).or_default().extend(fed);
    }
    propagate(plan, annotations, &extra)
}

/// One top-down (sink-to-source) propagation pass.  `extra_requirements`
/// injects additional interesting keys at the *inputs* of the given
/// operators (used for the loop feedback).
fn propagate(
    plan: &Plan,
    annotations: &Annotations,
    extra_requirements: &HashMap<OperatorId, Vec<KeyFields>>,
) -> EdgeInterests {
    let order = match plan.topological_order() {
        Ok(order) => order,
        Err(_) => return EdgeInterests::new(),
    };
    // Interesting keys of each operator's *output*, accumulated while walking
    // from the sinks towards the sources.
    let mut output_interests: HashMap<OperatorId, Vec<KeyFields>> = HashMap::new();
    let mut edges = EdgeInterests::new();

    for &id in order.iter().rev() {
        let op = plan.operator(id);
        let inherited = output_interests.get(&id).cloned().unwrap_or_default();
        for (slot, &input) in op.inputs.iter().enumerate() {
            let mut keys: Vec<KeyFields> = Vec::new();
            if let Some(generated) = own_requirement(&op.kind, slot) {
                keys.push(generated);
            }
            if let Some(extra) = extra_requirements.get(&id) {
                keys.extend(extra.iter().cloned());
            }
            // Properties interesting on our output are interesting on this
            // input if the operator preserves the key fields from this slot.
            for key in &inherited {
                if let Some(mapped) = annotations.map_key_backward(id, slot, key) {
                    keys.push(mapped);
                }
            }
            keys.sort();
            keys.dedup();
            if !keys.is_empty() {
                edges.insert((id, slot), keys.clone());
            }
            let out = output_interests.entry(input).or_default();
            out.extend(keys);
            out.sort();
            out.dedup();
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::FieldCopy;
    use dataflow::prelude::*;
    use std::sync::Arc;

    /// Builds the PageRank step dataflow of the paper's Figure 3/4:
    /// vector (pid, r) ⋈ matrix (tid, pid, p) → reduce on tid → sink.
    fn pagerank_plan() -> (
        Plan,
        OperatorId,
        OperatorId,
        OperatorId,
        OperatorId,
        Annotations,
    ) {
        let mut plan = Plan::new();
        let vector = plan.source("rank-vector", vec![Record::long_double(0, 1.0)]);
        let matrix = plan.source("matrix", vec![Record::triple(0, 0, 1.0)]);
        let join = plan.match_join(
            "join-p-A",
            vector,
            matrix,
            vec![0],
            vec![1],
            Arc::new(MatchClosure(
                |_l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::long_double(r.long(0), 0.0).fields())
                },
            )),
        );
        let reduce = plan.reduce(
            "sum-ranks",
            join,
            vec![0],
            Arc::new(ReduceClosure(
                |k: &[Value], _g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(Record::long_double(k[0].as_long(), 0.0).fields())
                },
            )),
        );
        let _sink = plan.sink("next-ranks", reduce);
        let mut ann = Annotations::new();
        // The join copies the matrix's tid (field 0 of slot 1) to output field 0.
        ann.add_copy(
            join,
            FieldCopy {
                slot: 1,
                in_field: 0,
                out_field: 0,
            },
        );
        // The reduce keeps its grouping key in field 0.
        ann.add_copy(
            reduce,
            FieldCopy {
                slot: 0,
                in_field: 0,
                out_field: 0,
            },
        );
        (plan, vector, matrix, join, reduce, ann)
    }

    #[test]
    fn joins_and_reduces_generate_their_key_requirements() {
        let (plan, _v, _m, join, reduce, ann) = pagerank_plan();
        let interests = interesting_keys(&plan, &ann, &[]);
        assert!(interests[&(join, 0)].contains(&vec![0]));
        assert!(interests[&(join, 1)].contains(&vec![1]));
        assert!(interests[&(reduce, 0)].contains(&vec![0]));
    }

    #[test]
    fn reduce_interest_is_pushed_down_to_the_matrix_edge() {
        // The key insight behind the left-hand plan of Figure 4: because the
        // join preserves the matrix's tid field, the Reduce's partitioning
        // interest (on tid) becomes interesting on the matrix input edge of
        // the join — where it can be established once, on the constant path.
        let (plan, _v, _m, join, _reduce, ann) = pagerank_plan();
        let interests = interesting_keys(&plan, &ann, &[]);
        let matrix_edge = &interests[&(join, 1)];
        assert!(
            matrix_edge.contains(&vec![0]),
            "tid partitioning should be interesting: {matrix_edge:?}"
        );
    }

    #[test]
    fn without_field_copy_annotations_nothing_is_pushed_through() {
        let (plan, _v, _m, join, _reduce, _) = pagerank_plan();
        let empty = Annotations::new();
        let interests = interesting_keys(&plan, &empty, &[]);
        let matrix_edge = &interests[&(join, 1)];
        assert_eq!(matrix_edge, &vec![vec![1]]);
    }

    #[test]
    fn loop_feedback_adds_input_interests_to_the_output_operator() {
        let (plan, vector, _m, _join, _reduce, ann) = pagerank_plan();
        let sink = plan.sink_by_name("next-ranks").unwrap();
        let interests = interesting_keys(&plan, &ann, &[(sink, vector)]);
        // The join requires the rank vector partitioned on pid (field 0); via
        // the feedback O -> I this becomes interesting at the sink's input.
        assert!(interests.contains_key(&(sink, 0)));
        assert!(interests[&(sink, 0)].contains(&vec![0]));
    }
}
