//! Logical dataflow plans: a DAG of sources, operators and sinks.
//!
//! A plan is assembled through the builder methods on [`Plan`]; the result is
//! a purely logical description (which contract, which key fields, which UDF,
//! which inputs).  How the plan is parallelised — shipping strategies per
//! edge, local strategies per operator — is decided separately, either by the
//! naive planner in [`crate::physical`] or by the cost-based optimizer crate.

use crate::contracts::{
    CoGroupFunction, CrossFunction, MapFunction, MatchFunction, RecordSource, ReduceFunction, Udf,
};
use crate::error::{DataflowError, Result};
use crate::key::KeyFields;
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifies an operator inside one [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorId(pub usize);

/// The contract (and contract-specific configuration) of an operator.
#[derive(Debug, Clone)]
pub enum OperatorKind {
    /// A data source: any [`RecordSource`] (records, a description, a sink's
    /// pages).  It is shared so that cloning a plan (e.g. for repeated
    /// execution inside an iteration) does not copy the data.
    Source {
        /// The source's records.
        data: Arc<dyn RecordSource>,
    },
    /// Record-at-a-time transformation.
    Map,
    /// Group-at-a-time aggregation over records sharing a key.
    Reduce {
        /// Positions of the grouping key fields.
        key: KeyFields,
    },
    /// Equi-join of two inputs on the given key fields.
    Match {
        /// Key field positions of the first (left) input.
        left_key: KeyFields,
        /// Key field positions of the second (right) input.
        right_key: KeyFields,
    },
    /// Cartesian product of two inputs.
    Cross,
    /// Binary group-at-a-time operator: all records of both inputs sharing a
    /// key form one group.  With `inner == true` this is the `InnerCoGroup`
    /// used by the incremental Connected Components dataflow: keys missing on
    /// either side are dropped.
    CoGroup {
        /// Key field positions of the first (left) input.
        left_key: KeyFields,
        /// Key field positions of the second (right) input.
        right_key: KeyFields,
        /// Drop groups whose key is absent from either side.
        inner: bool,
    },
    /// Bag union of any number of inputs (no duplicate elimination).
    Union,
    /// A named sink; its input records form one of the plan's results.
    Sink {
        /// The name under which the result can be retrieved.
        name: String,
    },
}

impl OperatorKind {
    /// Number of inputs this kind of operator requires, or `None` if it is
    /// variadic (union).
    pub fn expected_inputs(&self) -> Option<usize> {
        match self {
            OperatorKind::Source { .. } => Some(0),
            OperatorKind::Map | OperatorKind::Sink { .. } | OperatorKind::Reduce { .. } => Some(1),
            OperatorKind::Match { .. } | OperatorKind::Cross | OperatorKind::CoGroup { .. } => {
                Some(2)
            }
            OperatorKind::Union => None,
        }
    }

    /// A short human-readable contract name.
    pub fn contract_name(&self) -> &'static str {
        match self {
            OperatorKind::Source { .. } => "Source",
            OperatorKind::Map => "Map",
            OperatorKind::Reduce { .. } => "Reduce",
            OperatorKind::Match { .. } => "Match",
            OperatorKind::Cross => "Cross",
            OperatorKind::CoGroup { inner: false, .. } => "CoGroup",
            OperatorKind::CoGroup { inner: true, .. } => "InnerCoGroup",
            OperatorKind::Union => "Union",
            OperatorKind::Sink { .. } => "Sink",
        }
    }
}

/// One node of the dataflow DAG.
#[derive(Debug, Clone)]
pub struct Operator {
    /// The operator's id (its index in the plan).
    pub id: OperatorId,
    /// Human-readable name used in plans, stats and error messages.
    pub name: String,
    /// The contract and its configuration.
    pub kind: OperatorKind,
    /// The operator's user-defined function, if any.
    pub udf: Udf,
    /// Ids of the producing operators, in input-slot order.
    pub inputs: Vec<OperatorId>,
    /// Optional cardinality hint for the optimizer (records produced).
    pub estimated_records: Option<usize>,
}

/// A logical dataflow plan: a DAG of [`Operator`]s.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    operators: Vec<Operator>,
}

impl Plan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Plan {
            operators: Vec::new(),
        }
    }

    fn add(
        &mut self,
        name: &str,
        kind: OperatorKind,
        udf: Udf,
        inputs: Vec<OperatorId>,
    ) -> OperatorId {
        let id = OperatorId(self.operators.len());
        self.operators.push(Operator {
            id,
            name: name.to_owned(),
            kind,
            udf,
            inputs,
            estimated_records: None,
        });
        id
    }

    /// Adds a source: a `Vec<Record>`, an `Arc` of records shared with the
    /// caller, or any other [`RecordSource`].
    pub fn source<S: RecordSource + 'static>(&mut self, name: &str, data: S) -> OperatorId {
        let estimate = data.len();
        let data = Arc::new(data);
        let id = self.add(name, OperatorKind::Source { data }, Udf::None, vec![]);
        self.operators[id.0].estimated_records = Some(estimate);
        id
    }

    /// Adds a `Map` operator.
    pub fn map(&mut self, name: &str, input: OperatorId, udf: Arc<dyn MapFunction>) -> OperatorId {
        self.add(name, OperatorKind::Map, Udf::Map(udf), vec![input])
    }

    /// Adds a `Reduce` operator grouping on `key`.
    pub fn reduce(
        &mut self,
        name: &str,
        input: OperatorId,
        key: KeyFields,
        udf: Arc<dyn ReduceFunction>,
    ) -> OperatorId {
        self.add(
            name,
            OperatorKind::Reduce { key },
            Udf::Reduce(udf),
            vec![input],
        )
    }

    /// Adds a `Match` (equi-join) operator.
    pub fn match_join(
        &mut self,
        name: &str,
        left: OperatorId,
        right: OperatorId,
        left_key: KeyFields,
        right_key: KeyFields,
        udf: Arc<dyn MatchFunction>,
    ) -> OperatorId {
        self.add(
            name,
            OperatorKind::Match {
                left_key,
                right_key,
            },
            Udf::Match(udf),
            vec![left, right],
        )
    }

    /// Adds a `Cross` (Cartesian product) operator.
    pub fn cross(
        &mut self,
        name: &str,
        left: OperatorId,
        right: OperatorId,
        udf: Arc<dyn CrossFunction>,
    ) -> OperatorId {
        self.add(
            name,
            OperatorKind::Cross,
            Udf::Cross(udf),
            vec![left, right],
        )
    }

    /// Adds a `CoGroup` operator (outer: groups may be empty on either side).
    pub fn cogroup(
        &mut self,
        name: &str,
        left: OperatorId,
        right: OperatorId,
        left_key: KeyFields,
        right_key: KeyFields,
        udf: Arc<dyn CoGroupFunction>,
    ) -> OperatorId {
        self.add(
            name,
            OperatorKind::CoGroup {
                left_key,
                right_key,
                inner: false,
            },
            Udf::CoGroup(udf),
            vec![left, right],
        )
    }

    /// Adds an `InnerCoGroup` operator (groups missing on either side are
    /// dropped), as used by the incremental Connected Components dataflow.
    pub fn inner_cogroup(
        &mut self,
        name: &str,
        left: OperatorId,
        right: OperatorId,
        left_key: KeyFields,
        right_key: KeyFields,
        udf: Arc<dyn CoGroupFunction>,
    ) -> OperatorId {
        self.add(
            name,
            OperatorKind::CoGroup {
                left_key,
                right_key,
                inner: true,
            },
            Udf::CoGroup(udf),
            vec![left, right],
        )
    }

    /// Adds a bag union of `inputs`.
    pub fn union(&mut self, name: &str, inputs: Vec<OperatorId>) -> OperatorId {
        self.add(name, OperatorKind::Union, Udf::None, inputs)
    }

    /// Adds a named sink consuming `input`.
    pub fn sink(&mut self, name: &str, input: OperatorId) -> OperatorId {
        self.add(
            name,
            OperatorKind::Sink {
                name: name.to_owned(),
            },
            Udf::None,
            vec![input],
        )
    }

    /// Sets the optimizer cardinality hint of an operator.
    pub fn set_estimated_records(&mut self, op: OperatorId, records: usize) {
        self.operators[op.0].estimated_records = Some(records);
    }

    /// Replaces the data of a source operator (used by the iteration runtime
    /// to feed the next partial solution back into the step plan).
    pub fn replace_source_data<S: RecordSource + 'static>(
        &mut self,
        op: OperatorId,
        data: Arc<S>,
    ) -> Result<()> {
        let operator = self
            .operators
            .get_mut(op.0)
            .ok_or(DataflowError::UnknownOperator(op.0))?;
        match &mut operator.kind {
            OperatorKind::Source { data: slot } => {
                operator.estimated_records = Some(data.len());
                *slot = data;
                Ok(())
            }
            _ => Err(DataflowError::InvalidPlan(format!(
                "operator '{}' is not a source",
                operator.name
            ))),
        }
    }

    /// The operator with the given id.
    pub fn operator(&self, id: OperatorId) -> &Operator {
        &self.operators[id.0]
    }

    /// All operators in insertion order.
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// True if the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// Ids of all sink operators.
    pub fn sinks(&self) -> Vec<OperatorId> {
        self.operators
            .iter()
            .filter(|op| matches!(op.kind, OperatorKind::Sink { .. }))
            .map(|op| op.id)
            .collect()
    }

    /// Looks up a sink by name.
    pub fn sink_by_name(&self, name: &str) -> Option<OperatorId> {
        self.operators.iter().find_map(|op| match &op.kind {
            OperatorKind::Sink { name: n } if n == name => Some(op.id),
            _ => None,
        })
    }

    /// Ids of the operators that consume the output of `id`.
    pub fn consumers(&self, id: OperatorId) -> Vec<OperatorId> {
        self.operators
            .iter()
            .filter(|op| op.inputs.contains(&id))
            .map(|op| op.id)
            .collect()
    }

    /// Validates the plan: input arities match the contracts, all referenced
    /// operators exist, and the graph is acyclic.  Returns the operators in a
    /// topological order suitable for execution.
    pub fn validate(&self) -> Result<Vec<OperatorId>> {
        for op in &self.operators {
            if let Some(expected) = op.kind.expected_inputs() {
                if op.inputs.len() != expected {
                    return Err(DataflowError::InvalidArity {
                        operator: op.name.clone(),
                        expected,
                        actual: op.inputs.len(),
                    });
                }
            } else if op.inputs.is_empty() {
                return Err(DataflowError::InvalidArity {
                    operator: op.name.clone(),
                    expected: 1,
                    actual: 0,
                });
            }
            for input in &op.inputs {
                if input.0 >= self.operators.len() {
                    return Err(DataflowError::UnknownOperator(input.0));
                }
            }
            // Keys are compared field by field: a join on key lists of
            // different length would match on a prefix under one local
            // strategy and never under another.
            if let OperatorKind::Match {
                left_key,
                right_key,
            }
            | OperatorKind::CoGroup {
                left_key,
                right_key,
                ..
            } = &op.kind
            {
                if left_key.len() != right_key.len() {
                    return Err(DataflowError::InvalidPlan(format!(
                        "{} '{}' joins a {}-field left key with a {}-field right key",
                        op.kind.contract_name(),
                        op.name,
                        left_key.len(),
                        right_key.len()
                    )));
                }
            }
        }
        self.topological_order()
    }

    /// Kahn's algorithm over the operator DAG.
    pub fn topological_order(&self) -> Result<Vec<OperatorId>> {
        let n = self.operators.len();
        let mut in_degree = vec![0usize; n];
        for op in &self.operators {
            in_degree[op.id.0] = op.inputs.len();
        }
        let mut queue: VecDeque<OperatorId> = (0..n)
            .filter(|&i| in_degree[i] == 0)
            .map(OperatorId)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for consumer in self.consumers(id) {
                in_degree[consumer.0] -= 1;
                if in_degree[consumer.0] == 0 {
                    queue.push_back(consumer);
                }
            }
        }
        if order.len() != n {
            return Err(DataflowError::CyclicPlan);
        }
        Ok(order)
    }

    /// The set of operators lying on any path from `from` to a sink, i.e. the
    /// downstream closure of `from` (including `from` itself).  The iteration
    /// optimizer uses this to compute the *dynamic data path* — everything
    /// downstream of the partial-solution input processes different data in
    /// every iteration (Section 4.1).
    pub fn downstream_closure(&self, from: OperatorId) -> Vec<OperatorId> {
        let mut visited = vec![false; self.operators.len()];
        let mut stack = vec![from];
        let mut result = Vec::new();
        while let Some(id) = stack.pop() {
            if visited[id.0] {
                continue;
            }
            visited[id.0] = true;
            result.push(id);
            for consumer in self.consumers(id) {
                stack.push(consumer);
            }
        }
        result.sort();
        result
    }

    /// Renders the plan as an indented textual tree rooted at the sinks,
    /// useful for debugging and for golden-plan tests in the optimizer.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for sink in self.sinks() {
            self.explain_rec(sink, 0, &mut out);
        }
        out
    }

    fn explain_rec(&self, id: OperatorId, depth: usize, out: &mut String) {
        let op = self.operator(id);
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} [{}]\n", op.name, op.kind.contract_name()));
        for &input in &op.inputs {
            self.explain_rec(input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{MapClosure, RecordSink};
    use crate::page::RecordView;
    use crate::record::Record;

    fn identity_map() -> Arc<dyn MapFunction> {
        Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
            out.forward(r)
        }))
    }

    #[test]
    fn build_and_validate_linear_plan() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![Record::pair(1, 2)]);
        let map = plan.map("id", src, identity_map());
        let sink = plan.sink("out", map);
        let order = plan.validate().unwrap();
        assert_eq!(order, vec![src, map, sink]);
        assert_eq!(plan.sink_by_name("out"), Some(sink));
        assert_eq!(plan.sink_by_name("nope"), None);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![]);
        // Manually build a broken Match with one input.
        let bad = plan.add(
            "bad-join",
            OperatorKind::Match {
                left_key: vec![0],
                right_key: vec![0],
            },
            Udf::None,
            vec![src],
        );
        let _ = bad;
        let err = plan.validate().unwrap_err();
        assert!(matches!(err, DataflowError::InvalidArity { .. }));
    }

    #[test]
    fn join_key_lists_of_different_length_are_rejected() {
        let mut plan = Plan::new();
        let (left, right) = (plan.source("left", vec![]), plan.source("right", vec![]));
        let join = plan.match_join(
            "uneven-join",
            left,
            right,
            vec![0],
            vec![0, 1],
            Arc::new(crate::contracts::MatchClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| out.forward(l),
            )),
        );
        plan.sink("out", join);
        let rejected = |plan: &Plan| match plan.validate() {
            Err(DataflowError::InvalidPlan(message)) => message,
            other => panic!("expected InvalidPlan, got {other:?}"),
        };
        let message = rejected(&plan);
        assert!(message.contains("Match 'uneven-join'"), "{message}");
        assert!(message.contains("1-field left key with a 2-field right key"));

        let mut plan = Plan::new();
        let (left, right) = (plan.source("left", vec![]), plan.source("right", vec![]));
        let cogroup = plan.inner_cogroup(
            "uneven-cogroup",
            left,
            right,
            vec![0, 2, 1],
            vec![1],
            Arc::new(crate::contracts::CoGroupClosure(
                |_: &[crate::value::Value],
                 _: &[RecordView<'_>],
                 _: &[RecordView<'_>],
                 _: &mut dyn RecordSink| {},
            )),
        );
        plan.sink("out", cogroup);
        let message = rejected(&plan);
        assert!(
            message.contains("InnerCoGroup 'uneven-cogroup'"),
            "{message}"
        );
        assert!(message.contains("3-field left key with a 1-field right key"));
    }

    #[test]
    fn union_requires_at_least_one_input() {
        let mut plan = Plan::new();
        plan.union("u", vec![]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn cycle_detection() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![]);
        let a = plan.map("a", src, identity_map());
        let b = plan.map("b", a, identity_map());
        // Introduce a cycle a <- b by hand.
        plan.operators[a.0].inputs = vec![b];
        assert_eq!(
            plan.topological_order().unwrap_err(),
            DataflowError::CyclicPlan
        );
    }

    #[test]
    fn downstream_closure_covers_all_paths() {
        let mut plan = Plan::new();
        let s1 = plan.source("s1", vec![]);
        let s2 = plan.source("s2", vec![]);
        let join = plan.match_join(
            "join",
            s1,
            s2,
            vec![0],
            vec![0],
            Arc::new(crate::contracts::MatchClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| out.forward(l),
            )),
        );
        let sink = plan.sink("out", join);
        let closure = plan.downstream_closure(s1);
        assert_eq!(closure, vec![s1, join, sink]);
        let closure2 = plan.downstream_closure(s2);
        assert!(closure2.contains(&join));
        assert!(!closure2.contains(&s1));
    }

    #[test]
    fn replace_source_data_swaps_records() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![Record::pair(1, 1)]);
        plan.replace_source_data(src, Arc::new(vec![Record::pair(2, 2), Record::pair(3, 3)]))
            .unwrap();
        match &plan.operator(src).kind {
            OperatorKind::Source { data } => assert_eq!(data.len(), 2),
            _ => panic!("not a source"),
        }
        assert_eq!(plan.operator(src).estimated_records, Some(2));
    }

    #[test]
    fn replace_source_data_rejects_non_sources() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![]);
        let map = plan.map("m", src, identity_map());
        assert!(plan.replace_source_data(map, Arc::new(vec![])).is_err());
    }

    #[test]
    fn explain_mentions_contracts() {
        let mut plan = Plan::new();
        let src = plan.source("ranks", vec![]);
        let map = plan.map("scale", src, identity_map());
        plan.sink("out", map);
        let text = plan.explain();
        assert!(text.contains("scale [Map]"));
        assert!(text.contains("ranks [Source]"));
    }
}
