//! Plan enumeration.
//!
//! The enumerator walks the logical plan in topological order and maintains,
//! per operator, a set of candidate physical sub-plans (shipping strategy per
//! input edge, local strategy, resulting global properties, accumulated
//! cost).  Candidates whose cost is dominated by another candidate with the
//! same output properties are pruned, following the classical Volcano-style
//! dynamic programming scheme the paper assumes.  Shipping options per edge
//! include, besides the operator's own requirement, the *interesting*
//! partitionings propagated from downstream operators — which is what allows
//! the enumerator to discover plans that establish a partitioning early on
//! the constant data path (the broadcast PageRank plan of Figure 4).

use crate::cardinality::Cardinalities;
use crate::cost::{Cost, CostModel};
use crate::interesting::EdgeInterests;
use crate::properties::{Annotations, GlobalProperties, Partitioning};
use dataflow::plan::{Operator, OperatorKind, Plan};
use dataflow::prelude::{
    DataflowError, LocalStrategy, OperatorId, PhysicalChoice, PhysicalPlan, Result, ShipStrategy,
};
use std::collections::{HashMap, HashSet};

/// Maximum number of candidates kept per operator after pruning.
const MAX_CANDIDATES_PER_OPERATOR: usize = 12;

/// Everything the enumerator needs to know about the planning problem.
pub struct PlanningContext<'a> {
    /// The logical plan being optimized.
    pub plan: &'a Plan,
    /// Field-copy annotations (output contracts).
    pub annotations: &'a Annotations,
    /// The cost model.
    pub model: CostModel,
    /// Cardinality estimates per operator.
    pub cards: Cardinalities,
    /// Per-operator cost weight; operators on the dynamic data path of an
    /// iteration carry the expected iteration count, all others 1.0.
    pub op_weight: HashMap<OperatorId, f64>,
    /// Edges (consumer, slot) whose exchanged input is cached across
    /// iterations; their shipping cost is charged only once.
    pub cache_edges: HashSet<(OperatorId, usize)>,
    /// Interesting partitioning keys per edge.
    pub interesting: EdgeInterests,
}

impl<'a> PlanningContext<'a> {
    fn weight_of(&self, op: OperatorId) -> f64 {
        self.op_weight.get(&op).copied().unwrap_or(1.0)
    }

    fn edge_weight(&self, consumer: OperatorId, slot: usize) -> f64 {
        if self.cache_edges.contains(&(consumer, slot)) {
            1.0
        } else {
            self.weight_of(consumer)
        }
    }
}

/// One candidate physical sub-plan rooted at some operator.
#[derive(Debug, Clone)]
struct Candidate {
    /// Physical choices for every operator in the sub-plan.
    choices: HashMap<OperatorId, PhysicalChoice>,
    /// Global properties of the operator's output under these choices.
    props: GlobalProperties,
    /// Accumulated (weighted) cost of the sub-plan.
    cost: Cost,
}

/// The result of the enumeration: a full physical plan and its estimated cost.
#[derive(Debug, Clone)]
pub struct EnumeratedPlan {
    /// The chosen physical plan.
    pub physical: PhysicalPlan,
    /// The optimizer's cost estimate for it.
    pub cost: Cost,
}

/// Enumerates physical plans for `ctx` and returns the cheapest one.
pub fn enumerate_best(ctx: &PlanningContext<'_>, parallelism: usize) -> Result<EnumeratedPlan> {
    let order = ctx.plan.validate()?;
    let mut candidates: HashMap<OperatorId, Vec<Candidate>> = HashMap::new();

    for id in order {
        let op = ctx.plan.operator(id);
        let new_candidates = match op.kind {
            OperatorKind::Source { .. } => vec![Candidate {
                choices: HashMap::from([(id, PhysicalChoice::forward(0))]),
                props: GlobalProperties::any(),
                cost: Cost::zero(),
            }],
            _ => enumerate_operator(ctx, op, &candidates, parallelism),
        };
        if new_candidates.is_empty() {
            return Err(DataflowError::InvalidPlan(format!(
                "no valid physical alternative found for operator '{}'",
                op.name
            )));
        }
        candidates.insert(id, prune(new_candidates));
    }

    // Combine the cheapest consistent candidates of all sinks.
    let sinks = ctx.plan.sinks();
    let mut combined: Option<Candidate> = None;
    for sink in sinks {
        let best = candidates[&sink]
            .iter()
            .min_by(|a, b| a.cost.total().total_cmp(&b.cost.total()))
            .expect("pruning never leaves an empty candidate set");
        combined = Some(match combined {
            None => best.clone(),
            Some(mut acc) => {
                for (op, choice) in &best.choices {
                    acc.choices.entry(*op).or_insert_with(|| choice.clone());
                }
                acc.cost = acc.cost.add(best.cost);
                acc
            }
        });
    }
    let combined =
        combined.ok_or_else(|| DataflowError::InvalidPlan("plan has no sinks".to_owned()))?;

    // Assemble the physical plan; operators not reachable from any sink get
    // defaults (they produce data nobody consumes).
    let mut choices = combined.choices;
    for op in ctx.plan.operators() {
        choices
            .entry(op.id)
            .or_insert_with(|| PhysicalChoice::forward(op.inputs.len()));
    }
    let mut physical = PhysicalPlan {
        plan: ctx.plan.clone(),
        choices,
        parallelism,
    };
    for &(consumer, slot) in &ctx.cache_edges {
        physical.cache_input(consumer, slot);
    }
    Ok(EnumeratedPlan {
        physical,
        cost: combined.cost,
    })
}

/// Enumerates candidates for one (non-source) operator given the candidate
/// sets of its inputs.
fn enumerate_operator(
    ctx: &PlanningContext<'_>,
    op: &Operator,
    candidates: &HashMap<OperatorId, Vec<Candidate>>,
    parallelism: usize,
) -> Vec<Candidate> {
    let slots = op.inputs.len();
    let input_candidates: Vec<&Vec<Candidate>> =
        op.inputs.iter().map(|input| &candidates[input]).collect();
    let ship_options: Vec<Vec<ShipStrategy>> = (0..slots)
        .map(|slot| ship_options_for(ctx, op, slot))
        .collect();

    let mut result = Vec::new();
    // Cartesian product over input candidates and ship options per slot.
    let mut selector = vec![0usize; slots * 2];
    loop {
        // Decode the selector into per-slot (candidate index, ship index).
        let mut input_choice = Vec::with_capacity(slots);
        let mut valid_selector = true;
        for slot in 0..slots {
            let cand_idx = selector[slot * 2];
            let ship_idx = selector[slot * 2 + 1];
            if cand_idx >= input_candidates[slot].len() || ship_idx >= ship_options[slot].len() {
                valid_selector = false;
                break;
            }
            input_choice.push((
                &input_candidates[slot][cand_idx],
                &ship_options[slot][ship_idx],
            ));
        }
        if valid_selector {
            if let Some(candidate) = build_candidate(ctx, op, &input_choice, parallelism) {
                result.push(candidate);
            }
        }
        // Advance the mixed-radix selector.
        let mut pos = 0;
        loop {
            if pos >= selector.len() {
                return result;
            }
            let radix = if pos % 2 == 0 {
                input_candidates[pos / 2].len()
            } else {
                ship_options[pos / 2].len()
            };
            selector[pos] += 1;
            if selector[pos] < radix {
                break;
            }
            selector[pos] = 0;
            pos += 1;
        }
        if slots == 0 {
            return result;
        }
    }
}

/// The shipping strategies worth considering for one input edge.
fn ship_options_for(ctx: &PlanningContext<'_>, op: &Operator, slot: usize) -> Vec<ShipStrategy> {
    let mut options = vec![ShipStrategy::Forward];
    let add_hash = |key: &Vec<usize>, options: &mut Vec<ShipStrategy>| {
        let candidate = ShipStrategy::PartitionHash(key.clone());
        if !options.contains(&candidate) {
            options.push(candidate);
        }
    };
    match &op.kind {
        OperatorKind::Reduce { key } => add_hash(key, &mut options),
        OperatorKind::Match {
            left_key,
            right_key,
        }
        | OperatorKind::CoGroup {
            left_key,
            right_key,
            ..
        } => {
            let key = if slot == 0 { left_key } else { right_key };
            add_hash(key, &mut options);
            // Broadcasting is only considered for the smaller join side;
            // replicating the larger input to every instance would also have
            // to be held resident there, which the paper's setting (and any
            // real deployment) rules out for the dominant data set.
            let this_card = ctx.cards.of(op.inputs[slot]);
            let other_card = ctx.cards.of(op.inputs[1 - slot]);
            if this_card < other_card {
                options.push(ShipStrategy::Broadcast);
            }
        }
        OperatorKind::Cross => options.push(ShipStrategy::Broadcast),
        _ => {}
    }
    if let Some(interests) = ctx.interesting.get(&(op.id, slot)) {
        for key in interests {
            add_hash(key, &mut options);
        }
    }
    options
}

/// Builds (and costs) one candidate for `op` from chosen input candidates and
/// shipping strategies; returns `None` if the combination is invalid.
fn build_candidate(
    ctx: &PlanningContext<'_>,
    op: &Operator,
    inputs: &[(&Candidate, &ShipStrategy)],
    parallelism: usize,
) -> Option<Candidate> {
    // Merge the input candidates' choices, rejecting inconsistent overlaps
    // (the same upstream operator planned differently on two branches).
    let mut choices: HashMap<OperatorId, PhysicalChoice> = HashMap::new();
    let mut cost = Cost::zero();
    for (candidate, _) in inputs {
        for (id, choice) in &candidate.choices {
            match choices.get(id) {
                None => {
                    choices.insert(*id, choice.clone());
                }
                Some(existing) => {
                    if existing.input_ships != choice.input_ships || existing.local != choice.local
                    {
                        return None;
                    }
                }
            }
        }
    }
    // Sum the input sub-plan costs exactly once per distinct branch.  (For
    // branches sharing operators the shared cost is counted once per branch;
    // this over-approximation is identical across alternatives and therefore
    // does not change the ranking.)
    let mut seen_roots: HashSet<*const Candidate> = HashSet::new();
    for (candidate, _) in inputs {
        let ptr = *candidate as *const Candidate;
        if seen_roots.insert(ptr) {
            cost = cost.add(candidate.cost);
        }
    }

    // Properties after shipping, and shipping cost.
    let mut post_ship: Vec<GlobalProperties> = Vec::with_capacity(inputs.len());
    let mut input_cards: Vec<f64> = Vec::with_capacity(inputs.len());
    for (slot, (candidate, ship)) in inputs.iter().enumerate() {
        let producer = op.inputs[slot];
        let records = ctx.cards.of(producer);
        input_cards.push(records);
        let weight = ctx.edge_weight(op.id, slot);
        cost = cost.add(ctx.model.ship_cost(ship, records).scale(weight));
        let props = match ship {
            ShipStrategy::Forward => candidate.props.clone(),
            ShipStrategy::PartitionHash(key) => GlobalProperties::hashed(key.clone()),
            ShipStrategy::Broadcast => GlobalProperties::replicated(),
        };
        post_ship.push(props);
    }

    if !is_valid(op, &post_ship, parallelism) {
        return None;
    }

    let local = choose_local_strategy(ctx, op, &post_ship, &input_cards);
    cost = cost.add(
        ctx.model
            .local_cost(local, &input_cards)
            .scale(ctx.weight_of(op.id)),
    );

    let props = output_properties(ctx.annotations, op, &post_ship);
    choices.insert(
        op.id,
        PhysicalChoice {
            input_ships: inputs.iter().map(|(_, ship)| (*ship).clone()).collect(),
            local,
            cache_inputs: vec![false; inputs.len()],
        },
    );
    Some(Candidate {
        choices,
        props,
        cost,
    })
}

/// Checks that the post-shipping properties make the operator's parallel
/// execution correct.
fn is_valid(op: &Operator, post_ship: &[GlobalProperties], parallelism: usize) -> bool {
    if parallelism <= 1 {
        return true;
    }
    match &op.kind {
        // A Reduce needs equal keys collocated.
        OperatorKind::Reduce { key } => post_ship[0].partitioning.satisfies_hash(key),
        OperatorKind::Match {
            left_key,
            right_key,
        }
        | OperatorKind::CoGroup {
            left_key,
            right_key,
            ..
        } => {
            // Hash routing is one global function, so hash co-partitioning
            // can be read off the properties regardless of where each side's
            // partitioning was established.
            let hash_co = post_ship[0].partitioning.satisfies_hash(left_key)
                && post_ship[1].partitioning.satisfies_hash(right_key);
            hash_co
                || post_ship[0].partitioning.is_replicated()
                || post_ship[1].partitioning.is_replicated()
        }
        OperatorKind::Cross => {
            post_ship[0].partitioning.is_replicated() || post_ship[1].partitioning.is_replicated()
        }
        _ => true,
    }
}

/// Rule-based local strategy choice (costed, but not enumerated — the paper's
/// experiments hinge on the shipping choices, not the join flavour).
fn choose_local_strategy(
    ctx: &PlanningContext<'_>,
    op: &Operator,
    post_ship: &[GlobalProperties],
    input_cards: &[f64],
) -> LocalStrategy {
    match &op.kind {
        OperatorKind::Match { .. } => ctx.model.choose_join_strategy(
            input_cards[0],
            input_cards[1],
            post_ship[0].partitioning.is_replicated(),
            post_ship[1].partitioning.is_replicated(),
        ),
        OperatorKind::CoGroup { .. } => LocalStrategy::SortMergeJoin,
        OperatorKind::Reduce { .. } => LocalStrategy::HashGroup,
        OperatorKind::Cross => LocalStrategy::NestedLoop,
        _ => LocalStrategy::None,
    }
}

/// Global properties of the operator's output under the given input
/// properties, derived from the field-copy annotations.
///
/// Partitioning survives an operator when the key fields are copied —
/// collocation is a property of where records *live*, which local
/// processing does not change.
fn output_properties(
    annotations: &Annotations,
    op: &Operator,
    post_ship: &[GlobalProperties],
) -> GlobalProperties {
    // Maps the partitioning of input `slot` into the output field space; a
    // key that is not fully copied drops the property.
    let preserve_from = |slot: usize| -> Option<GlobalProperties> {
        let partitioning = match &post_ship[slot].partitioning {
            Partitioning::Hash(key) => {
                Partitioning::Hash(annotations.map_key_forward(op.id, slot, key)?)
            }
            Partitioning::Replicated => Partitioning::Replicated,
            Partitioning::Any => return None,
        };
        Some(GlobalProperties { partitioning })
    };
    match &op.kind {
        OperatorKind::Source { .. } => GlobalProperties::any(),
        OperatorKind::Map | OperatorKind::Reduce { .. } => {
            preserve_from(0).unwrap_or_else(GlobalProperties::any)
        }
        OperatorKind::Sink { .. } => post_ship[0].clone(),
        OperatorKind::Union => {
            let first = &post_ship[0];
            if post_ship.iter().all(|p| p == first) {
                first.clone()
            } else {
                GlobalProperties::any()
            }
        }
        OperatorKind::Match { .. } | OperatorKind::CoGroup { .. } | OperatorKind::Cross => {
            // Prefer preserving the partitioning of a non-replicated side: a
            // replicated side contributes every record everywhere, so the
            // output's distribution follows the partitioned side.
            let left_repl = post_ship[0].partitioning.is_replicated();
            let right_repl = post_ship[1].partitioning.is_replicated();
            if left_repl && right_repl {
                return GlobalProperties::replicated();
            }
            let slots = if left_repl { [1, 0] } else { [0, 1] };
            for slot in slots {
                if post_ship[slot].partitioning.is_replicated() {
                    continue;
                }
                if let Some(props) = preserve_from(slot) {
                    if !props.partitioning.is_replicated() {
                        return props;
                    }
                }
            }
            GlobalProperties::any()
        }
    }
}

/// Keeps only non-dominated candidates: the cheapest per distinct output
/// partitioning, capped at [`MAX_CANDIDATES_PER_OPERATOR`] overall.
fn prune(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
    candidates.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
    let mut kept: Vec<Candidate> = Vec::new();
    for candidate in candidates {
        if kept.len() >= MAX_CANDIDATES_PER_OPERATOR {
            break;
        }
        if kept.iter().any(|k| k.props == candidate.props) {
            continue;
        }
        kept.push(candidate);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::estimate;
    use crate::interesting::interesting_keys;
    use dataflow::prelude::*;
    use std::sync::Arc;

    fn context<'a>(
        plan: &'a Plan,
        ann: &'a Annotations,
        parallelism: usize,
    ) -> PlanningContext<'a> {
        PlanningContext {
            plan,
            annotations: ann,
            model: CostModel::new(parallelism),
            cards: estimate(plan),
            op_weight: HashMap::new(),
            cache_edges: HashSet::new(),
            interesting: interesting_keys(plan, ann, &[]),
        }
    }

    fn simple_aggregation_plan() -> (Plan, OperatorId) {
        let mut plan = Plan::new();
        let src = plan.source(
            "src",
            (0..100)
                .map(|i| Record::pair(i % 10, i))
                .collect::<Vec<_>>(),
        );
        let red = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |k: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(Record::pair(k[0].as_long(), g.len() as i64).fields());
                },
            )),
        );
        plan.sink("out", red);
        (plan, red)
    }

    #[test]
    fn reduce_gets_hash_partitioned_input() {
        let (plan, red) = simple_aggregation_plan();
        let ann = Annotations::new();
        let ctx = context(&plan, &ann, 4);
        let best = enumerate_best(&ctx, 4).unwrap();
        assert_eq!(
            best.physical.choice(red).input_ships[0],
            ShipStrategy::PartitionHash(vec![0])
        );
        assert!(best.cost.total() > 0.0);
    }

    #[test]
    fn single_partition_plans_can_forward_everything() {
        let (plan, red) = simple_aggregation_plan();
        let ann = Annotations::new();
        let ctx = context(&plan, &ann, 1);
        let best = enumerate_best(&ctx, 1).unwrap();
        assert_eq!(
            best.physical.choice(red).input_ships[0],
            ShipStrategy::Forward
        );
    }

    #[test]
    fn enumerated_plans_execute_correctly() {
        let (plan, _) = simple_aggregation_plan();
        let ann = Annotations::new();
        let ctx = context(&plan, &ann, 4);
        let best = enumerate_best(&ctx, 4).unwrap();
        let result = Executor::new().execute(&best.physical).unwrap();
        let records = result.sink("out").unwrap();
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|r| r.long(1) == 10));
    }

    #[test]
    fn join_chooses_broadcast_for_tiny_build_side() {
        let mut plan = Plan::new();
        let tiny = plan.source(
            "tiny",
            (0..4).map(|i| Record::pair(i, i)).collect::<Vec<_>>(),
        );
        let big = plan.source(
            "big",
            (0..10_000)
                .map(|i| Record::pair(i % 4, i))
                .collect::<Vec<_>>(),
        );
        let join = plan.match_join(
            "join",
            tiny,
            big,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::pair(l.long(0), r.long(1)).fields());
                },
            )),
        );
        plan.sink("out", join);
        let ann = Annotations::new();
        let ctx = context(&plan, &ann, 8);
        let best = enumerate_best(&ctx, 8).unwrap();
        let ships = &best.physical.choice(join).input_ships;
        assert_eq!(ships[0], ShipStrategy::Broadcast);
        assert_eq!(ships[1], ShipStrategy::Forward);
    }

    #[test]
    fn cross_requires_a_replicated_side() {
        let mut plan = Plan::new();
        let a = plan.source("a", (0..10).map(|i| Record::pair(i, i)).collect::<Vec<_>>());
        let b = plan.source("b", (0..10).map(|i| Record::pair(i, i)).collect::<Vec<_>>());
        let cross = plan.cross(
            "x",
            a,
            b,
            Arc::new(CrossClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.forward(l);
                },
            )),
        );
        plan.sink("out", cross);
        let ann = Annotations::new();
        let ctx = context(&plan, &ann, 4);
        let best = enumerate_best(&ctx, 4).unwrap();
        let ships = &best.physical.choice(cross).input_ships;
        assert!(ships.contains(&ShipStrategy::Broadcast));
    }
}
