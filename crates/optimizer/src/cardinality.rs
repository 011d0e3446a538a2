//! Cardinality estimation.
//!
//! The optimizer needs to know roughly how many records each operator
//! produces in order to cost shipping strategies.  Sources know their size
//! exactly; for other operators the estimate is either taken from the
//! cardinality hint on the logical plan (`Plan::set_estimated_records`, the
//! mechanism algorithm authors use when they know e.g. that the PageRank join
//! emits one record per matrix entry) or derived from simple textbook rules.

use dataflow::plan::{OperatorKind, Plan};
use dataflow::prelude::OperatorId;
use std::collections::HashMap;

/// Estimated number of records produced by each operator.
#[derive(Debug, Clone, Default)]
pub struct Cardinalities {
    estimates: HashMap<OperatorId, f64>,
}

impl Cardinalities {
    /// The estimate for `op` (0.0 if unknown, which only happens for plans
    /// that were not passed through [`estimate`]).
    pub fn of(&self, op: OperatorId) -> f64 {
        self.estimates.get(&op).copied().unwrap_or(0.0)
    }

    /// Overrides the estimate of a single operator.
    pub fn set(&mut self, op: OperatorId, records: f64) {
        self.estimates.insert(op, records);
    }
}

/// Fraction of input records assumed to survive a grouping (distinct keys per
/// record) when no hint is present.
const DEFAULT_GROUPING_RATIO: f64 = 0.5;

/// Estimates output cardinalities for every operator of `plan` in topological
/// order.
pub fn estimate(plan: &Plan) -> Cardinalities {
    let mut cards = Cardinalities::default();
    let order = match plan.topological_order() {
        Ok(order) => order,
        Err(_) => return cards,
    };
    for id in order {
        let op = plan.operator(id);
        if let Some(hint) = op.estimated_records {
            cards.set(id, hint as f64);
            continue;
        }
        let inputs: Vec<f64> = op.inputs.iter().map(|&i| cards.of(i)).collect();
        let estimate = match &op.kind {
            OperatorKind::Source { data } => data.len() as f64,
            OperatorKind::Map => inputs[0],
            OperatorKind::Reduce { .. } => inputs[0] * DEFAULT_GROUPING_RATIO,
            // An equi-join on a key that is unique on one side emits about as
            // many records as the larger input; without further information
            // this is the standard heuristic.
            OperatorKind::Match { .. } => inputs[0].max(inputs[1]),
            OperatorKind::CoGroup { .. } => inputs[0].max(inputs[1]) * DEFAULT_GROUPING_RATIO,
            OperatorKind::Cross => inputs[0] * inputs[1],
            OperatorKind::Union => inputs.iter().sum(),
            OperatorKind::Sink { .. } => inputs[0],
        };
        cards.set(id, estimate);
    }
    cards
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::prelude::*;
    use std::sync::Arc;

    #[test]
    fn sources_use_exact_sizes_and_maps_pass_through() {
        let mut plan = Plan::new();
        let src = plan.source("s", (0..10).map(|i| Record::pair(i, i)).collect::<Vec<_>>());
        let map = plan.map(
            "m",
            src,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r)
            })),
        );
        plan.sink("out", map);
        let cards = estimate(&plan);
        assert_eq!(cards.of(src), 10.0);
        assert_eq!(cards.of(map), 10.0);
    }

    #[test]
    fn hints_override_heuristics() {
        let mut plan = Plan::new();
        let a = plan.source(
            "a",
            (0..100).map(|i| Record::pair(i, i)).collect::<Vec<_>>(),
        );
        let b = plan.source("b", (0..10).map(|i| Record::pair(i, i)).collect::<Vec<_>>());
        let join = plan.match_join(
            "j",
            a,
            b,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| out.forward(l),
            )),
        );
        plan.set_estimated_records(join, 42);
        plan.sink("out", join);
        let cards = estimate(&plan);
        assert_eq!(cards.of(join), 42.0);
    }

    #[test]
    fn join_and_cross_heuristics() {
        let mut plan = Plan::new();
        let a = plan.source(
            "a",
            (0..100).map(|i| Record::pair(i, i)).collect::<Vec<_>>(),
        );
        let b = plan.source("b", (0..10).map(|i| Record::pair(i, i)).collect::<Vec<_>>());
        let join = plan.match_join(
            "j",
            a,
            b,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| out.forward(l),
            )),
        );
        let cross = plan.cross(
            "x",
            join,
            b,
            Arc::new(CrossClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| out.forward(l),
            )),
        );
        plan.sink("out", cross);
        let cards = estimate(&plan);
        assert_eq!(cards.of(join), 100.0);
        assert_eq!(cards.of(cross), 1000.0);
    }

    #[test]
    fn unknown_operator_reports_zero() {
        let cards = Cardinalities::default();
        assert_eq!(cards.of(OperatorId(7)), 0.0);
    }
}
