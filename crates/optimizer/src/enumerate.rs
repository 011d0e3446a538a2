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
    /// Interesting **sort** keys per edge (see
    /// [`crate::interesting::interesting_sort_keys`]): where a
    /// range-partitioned, sorted input would save a downstream sort, the
    /// enumerator also considers `PartitionRange` shipping.
    pub interesting_sorts: EdgeInterests,
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
    let add_range = |key: &Vec<usize>, options: &mut Vec<ShipStrategy>| {
        let candidate = ShipStrategy::PartitionRange(key.clone());
        if !options.contains(&candidate) {
            options.push(candidate);
        }
    };
    match &op.kind {
        OperatorKind::Reduce { key } => {
            add_hash(key, &mut options);
            // A ranged input lets the Reduce merge-group without a sort.
            add_range(key, &mut options);
        }
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
            if matches!(op.kind, OperatorKind::CoGroup { .. }) {
                // The CoGroup contract always sort-merges, so delivering its
                // inputs range-partitioned (already sorted) removes the
                // local sorts entirely.
                add_range(key, &mut options);
            }
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
    if let Some(interests) = ctx.interesting_sorts.get(&(op.id, slot)) {
        for key in interests {
            add_range(key, &mut options);
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
            // A range exchange delivers sorted partitions: partitioning and
            // global order in one shipping strategy.
            ShipStrategy::PartitionRange(key) => GlobalProperties::ranged(key.clone()),
            ShipStrategy::Broadcast => GlobalProperties::replicated(),
        };
        post_ship.push(props);
    }

    let ships: Vec<&ShipStrategy> = inputs.iter().map(|(_, ship)| *ship).collect();
    if !is_valid(op, &post_ship, &ships, parallelism) {
        return None;
    }

    // Which inputs arrive sorted on the operator's own key: those are the
    // sorts the plan no longer performs (and no longer pays for).
    let sorted_inputs = sorted_on_own_keys(op, &post_ship);
    let local = choose_local_strategy(ctx, op, &post_ship, &input_cards, &sorted_inputs);
    cost = cost.add(
        ctx.model
            .local_cost_sorted(local, &input_cards, &sorted_inputs)
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
fn is_valid(
    op: &Operator,
    post_ship: &[GlobalProperties],
    ships: &[&ShipStrategy],
    parallelism: usize,
) -> bool {
    if parallelism <= 1 {
        return true;
    }
    match &op.kind {
        // A Reduce needs equal keys collocated; hash and range partitioning
        // both provide that (collocation is a within-one-histogram property,
        // so it survives Forward edges under either scheme).
        OperatorKind::Reduce { key } => post_ship[0].partitioning.collocates(key),
        OperatorKind::Match {
            left_key,
            right_key,
        }
        | OperatorKind::CoGroup {
            left_key,
            right_key,
            ..
        } => {
            // Range co-partitioning needs both sides to share one splitter
            // histogram, which the executor only guarantees when both edges
            // are range-*shipped at this operator* (it builds one bounds
            // object per consumer).  A `Range` property inherited through a
            // Forward edge comes from a *different* histogram and would
            // silently mis-join — so a range ship at a join is only valid
            // paired with another range ship, mirroring the executor's own
            // rejection of range/forward and range/hash mixes.
            let any_range_ship = ships
                .iter()
                .any(|s| matches!(s, ShipStrategy::PartitionRange(_)));
            if any_range_ship {
                return matches!(ships[0],
                        ShipStrategy::PartitionRange(k) if k.as_slice() == left_key.as_slice())
                    && matches!(ships[1],
                        ShipStrategy::PartitionRange(k) if k.as_slice() == right_key.as_slice());
            }
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

/// Which inputs arrive globally sorted on the operator's own key for that
/// slot (join key / grouping key) — the inputs whose sort the plan skips.
fn sorted_on_own_keys(op: &Operator, post_ship: &[GlobalProperties]) -> Vec<bool> {
    match &op.kind {
        OperatorKind::Reduce { key } => vec![post_ship[0].sorted_on(key)],
        OperatorKind::Match {
            left_key,
            right_key,
        }
        | OperatorKind::CoGroup {
            left_key,
            right_key,
            ..
        } => vec![
            post_ship[0].sorted_on(left_key),
            post_ship[1].sorted_on(right_key),
        ],
        _ => vec![false; post_ship.len()],
    }
}

/// Rule-based local strategy choice (costed, but not enumerated — the paper's
/// experiments hinge on the shipping choices, not the join flavour).  Inputs
/// that arrive sorted on the operator's key flip the choice to the merge
/// variants, which then run without a sort.
fn choose_local_strategy(
    ctx: &PlanningContext<'_>,
    op: &Operator,
    post_ship: &[GlobalProperties],
    input_cards: &[f64],
    sorted_inputs: &[bool],
) -> LocalStrategy {
    match &op.kind {
        OperatorKind::Match { .. } => {
            if sorted_inputs.iter().all(|&s| s) {
                // Both sides pre-sorted on the join key: a merge join needs
                // only a linear scan.
                LocalStrategy::SortMergeJoin
            } else {
                ctx.model.choose_join_strategy(
                    input_cards[0],
                    input_cards[1],
                    post_ship[0].partitioning.is_replicated(),
                    post_ship[1].partitioning.is_replicated(),
                )
            }
        }
        OperatorKind::CoGroup { .. } => LocalStrategy::SortMergeJoin,
        OperatorKind::Reduce { .. } => {
            if sorted_inputs.first().copied().unwrap_or(false) {
                // Merge-group: one scan over the sorted run.
                LocalStrategy::SortGroup
            } else {
                LocalStrategy::HashGroup
            }
        }
        OperatorKind::Cross => LocalStrategy::NestedLoop,
        _ => LocalStrategy::None,
    }
}

/// Global properties of the operator's output under the given input
/// properties, derived from the field-copy annotations.
///
/// Partitioning survives an operator when the key fields are copied —
/// collocation (hash or range) is a property of where records *live*, which
/// local processing does not change.  A delivered **order never survives**
/// onto an operator's output: the executor only advertises sortedness on the
/// edge a range exchange (or range-cached edge) feeds directly into a local
/// strategy, not on materialized operator outputs, so claiming it here would
/// credit downstream plans with a sort the runtime still performs.
/// (Advertising order on operator outputs is the out-of-core/spilling
/// follow-on's job, together with output contracts strong enough to prove
/// the UDF kept the emission order.)
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
            Partitioning::Range(key) => {
                Partitioning::Range(annotations.map_key_forward(op.id, slot, key)?)
            }
            Partitioning::Replicated => Partitioning::Replicated,
            Partitioning::Any => return None,
        };
        Some(GlobalProperties {
            partitioning,
            order: None,
        })
    };
    match &op.kind {
        OperatorKind::Source { .. } => GlobalProperties::any(),
        OperatorKind::Map | OperatorKind::Reduce { .. } => {
            preserve_from(0).unwrap_or_else(GlobalProperties::any)
        }
        OperatorKind::Sink { .. } => GlobalProperties {
            order: None,
            ..post_ship[0].clone()
        },
        OperatorKind::Union => {
            let first = &post_ship[0];
            if post_ship.iter().all(|p| p == first) {
                GlobalProperties {
                    order: None,
                    ..first.clone()
                }
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
    use crate::interesting::{interesting_keys, interesting_sort_keys};
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
            interesting_sorts: interesting_sort_keys(plan, ann, &[]),
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

    /// Two 500-record sources feeding a CoGroup on field 0, with the key
    /// copied to output field 0.
    fn cogroup_plan() -> (Plan, OperatorId, Annotations) {
        let mut plan = Plan::new();
        let a = plan.source(
            "a",
            (0..500)
                .map(|i| Record::pair(i % 50, i))
                .collect::<Vec<_>>(),
        );
        let b = plan.source(
            "b",
            (0..500)
                .map(|i| Record::pair(i % 50, -i))
                .collect::<Vec<_>>(),
        );
        let cg = plan.cogroup(
            "cg",
            a,
            b,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(
                |key: &[Value],
                 l: &[RecordView<'_>],
                 r: &[RecordView<'_>],
                 out: &mut dyn RecordSink| {
                    out.emit(Record::pair(key[0].as_long(), (l.len() + r.len()) as i64).fields());
                },
            )),
        );
        let mut ann = Annotations::new();
        ann.add_copy(
            cg,
            crate::properties::FieldCopy {
                slot: 0,
                in_field: 0,
                out_field: 0,
            },
        );
        (plan, cg, ann)
    }

    #[test]
    fn cogroup_chooses_range_partitioning_and_merges_without_a_resort() {
        // The CoGroup contract always sort-merges; range-partitioned inputs
        // arrive sorted, so the plan performs (and is charged) no re-sort.
        let (mut plan, cg, ann) = cogroup_plan();
        plan.sink("out", cg);
        let ctx = context(&plan, &ann, 4);
        let best = enumerate_best(&ctx, 4).unwrap();
        let ships = &best.physical.choice(cg).input_ships;
        assert_eq!(ships[0], ShipStrategy::PartitionRange(vec![0]));
        assert_eq!(ships[1], ShipStrategy::PartitionRange(vec![0]));
        assert_eq!(best.physical.choice(cg).local, LocalStrategy::SortMergeJoin);

        // Cost delta vs the hash plan: re-enumerate with range shipping
        // priced out of the market, which forces the hash + local-sort plan
        // over the identical search space.
        let mut no_range = CostModel::new(4);
        no_range.range_penalty = 1e9;
        let forced_hash_ctx = PlanningContext {
            model: no_range,
            ..context(&plan, &ann, 4)
        };
        let hash_best = enumerate_best(&forced_hash_ctx, 4).unwrap();
        assert_eq!(
            hash_best.physical.choice(cg).input_ships[0],
            ShipStrategy::PartitionHash(vec![0])
        );
        // Same network, strictly less CPU: the merge replaces two local sorts
        // with the range exchange's sort of what it delivers.
        assert_eq!(best.cost.network, hash_best.cost.network);
        assert!(
            best.cost.total() < hash_best.cost.total(),
            "range+merge ({}) should beat hash+sort ({})",
            best.cost.total(),
            hash_best.cost.total()
        );
        // The plan executes and matches the default (hash) physical plan.
        let exec = Executor::new();
        let mut ranged = exec.execute(&best.physical).unwrap().sink("out").unwrap();
        let mut default = exec
            .execute(&default_physical_plan(&plan, 4).unwrap())
            .unwrap()
            .sink("out")
            .unwrap();
        ranged.sort();
        default.sort();
        assert_eq!(ranged, default);
        assert_eq!(ranged.len(), 50);
    }

    #[test]
    fn ranged_cogroup_output_lets_a_reduce_forward_without_reshuffling() {
        // Chain: CoGroup (range-partitioned) → Reduce on the same key.  The
        // *collocation* survives the CoGroup through the field copy, so the
        // Reduce forwards its input instead of re-partitioning.  The
        // delivered *order* deliberately does not survive onto the operator
        // output (the executor only advertises sortedness on directly
        // range-exchanged edges), so the Reduce hash-groups rather than
        // being credited a merge-group the runtime would not deliver.
        let (mut plan, cg, mut ann) = cogroup_plan();
        let red = plan.reduce(
            "sum",
            cg,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(Record::pair(key[0].as_long(), g.len() as i64).fields());
                },
            )),
        );
        plan.sink("out", red);
        ann.add_copy(
            red,
            crate::properties::FieldCopy {
                slot: 0,
                in_field: 0,
                out_field: 0,
            },
        );
        let ctx = context(&plan, &ann, 4);
        let best = enumerate_best(&ctx, 4).unwrap();
        assert_eq!(
            best.physical.choice(cg).input_ships[0],
            ShipStrategy::PartitionRange(vec![0])
        );
        let reduce_choice = best.physical.choice(red);
        assert_eq!(
            reduce_choice.input_ships[0],
            ShipStrategy::Forward,
            "range collocation satisfies the grouping requirement without a reshuffle"
        );
        assert_eq!(reduce_choice.local, LocalStrategy::HashGroup);
        let result = Executor::new().execute(&best.physical).unwrap();
        assert_eq!(result.sink("out").unwrap().len(), 50);
    }

    #[test]
    fn forward_inherited_range_layouts_never_co_partition_a_join() {
        // A Range property that reaches a join through a Forward edge comes
        // from a different splitter histogram than a range ship at the join
        // would sample — treating them as co-partitioned silently loses
        // matches.  The enumerator must re-ship such inputs: the chosen plan
        // may only range-partition a join input if the *other* side is
        // range-shipped at the same operator (or the plan avoids range
        // entirely).
        let mut plan = Plan::new();
        let left_src = plan.source(
            "left",
            (0..100).map(|i| Record::pair(i, i)).collect::<Vec<_>>(),
        );
        let pre = plan.reduce(
            "pre-aggregate",
            left_src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(Record::pair(key[0].as_long(), g.len() as i64).fields());
                },
            )),
        );
        let right_src = plan.source(
            "right",
            (90..100).map(|i| Record::pair(i, -i)).collect::<Vec<_>>(),
        );
        let join = plan.match_join(
            "join",
            pre,
            right_src,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::pair(l.long(0), r.long(1)).fields());
                },
            )),
        );
        plan.sink("out", join);
        let mut ann = Annotations::new();
        // The pre-aggregate preserves its key, so a ranged layout would
        // propagate to the join's left input.
        ann.add_copy(
            pre,
            crate::properties::FieldCopy {
                slot: 0,
                in_field: 0,
                out_field: 0,
            },
        );
        for slot in [0, 1] {
            ann.add_copy(
                join,
                crate::properties::FieldCopy {
                    slot,
                    in_field: 0,
                    out_field: 0,
                },
            );
        }
        // Make range shipping look free so any unsound range/forward combo
        // would win if the validity check admitted it.
        let mut model = CostModel::new(4);
        model.range_penalty = 0.0;
        let ctx = PlanningContext {
            model,
            ..context(&plan, &ann, 4)
        };
        let best = enumerate_best(&ctx, 4).unwrap();
        let ships = &best.physical.choice(join).input_ships;
        let range_shipped = |s: &ShipStrategy| matches!(s, ShipStrategy::PartitionRange(_));
        assert_eq!(
            range_shipped(&ships[0]),
            range_shipped(&ships[1]),
            "a join may only be ranged on both sides (shared histogram): {ships:?}"
        );
        // Whatever plan wins must execute correctly end-to-end: 10 matches.
        let result = Executor::new().execute(&best.physical).unwrap();
        assert_eq!(result.sink("out").unwrap().len(), 10);
    }

    #[test]
    fn iterative_merge_join_pays_the_range_sort_once_on_the_constant_path() {
        // A workset-style step plan: a small dynamic input joined with a
        // large cached constant input, feeding a Reduce on the copied join
        // key.  Weighted by the iteration count, the optimizer prefers range
        // partitioning both join inputs — the constant side's exchange (and
        // sort) is paid once, while every iteration runs a merge join
        // instead of rebuilding a hash table.
        let mut plan = Plan::new();
        let workset = plan.source(
            "workset",
            (0..1000)
                .map(|i| Record::pair(i % 100, i))
                .collect::<Vec<_>>(),
        );
        plan.set_estimated_records(workset, 10_000);
        let state = plan.source(
            "state",
            (0..1000)
                .map(|i| Record::pair(i % 100, -i))
                .collect::<Vec<_>>(),
        );
        plan.set_estimated_records(state, 200_000);
        let join = plan.match_join(
            "join",
            workset,
            state,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(Record::pair(l.long(0), l.long(1) + r.long(1)).fields());
                },
            )),
        );
        plan.set_estimated_records(join, 200_000);
        let red = plan.reduce(
            "agg",
            join,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(Record::pair(key[0].as_long(), g.len() as i64).fields());
                },
            )),
        );
        plan.set_estimated_records(red, 10_000);
        let sink = plan.sink("out", red);
        let mut ann = Annotations::new();
        // An equi-join makes the key available from both sides.
        for slot in [0, 1] {
            ann.add_copy(
                join,
                crate::properties::FieldCopy {
                    slot,
                    in_field: 0,
                    out_field: 0,
                },
            );
        }
        ann.add_copy(
            red,
            crate::properties::FieldCopy {
                slot: 0,
                in_field: 0,
                out_field: 0,
            },
        );
        let optimizer = crate::Optimizer::new(8);
        let spec = crate::IterationSpec::new(workset, sink, 20.0);
        let optimized = optimizer.optimize_iterative(&plan, &ann, &spec).unwrap();
        let ships = &optimized.physical.choice(join).input_ships;
        assert_eq!(ships[0], ShipStrategy::PartitionRange(vec![0]));
        assert_eq!(ships[1], ShipStrategy::PartitionRange(vec![0]));
        assert_eq!(
            optimized.physical.choice(join).local,
            LocalStrategy::SortMergeJoin,
            "both inputs arrive sorted: merge join without a re-sort"
        );
        assert!(
            optimized.physical.choice(join).cache_inputs[1],
            "the constant side ships (and sorts) once"
        );
        // Forcing range out of the market yields the hash plan at a higher
        // estimated cost.
        let mut no_range = CostModel::new(8);
        no_range.range_penalty = 1e9;
        let hash_optimizer = crate::Optimizer::with_config(crate::OptimizerConfig {
            parallelism: 8,
            cost_model: no_range,
        });
        let hash_optimized = hash_optimizer
            .optimize_iterative(&plan, &ann, &spec)
            .unwrap();
        assert_eq!(
            hash_optimized.physical.choice(join).input_ships[0],
            ShipStrategy::PartitionHash(vec![0])
        );
        assert!(optimized.cost.total() < hash_optimized.cost.total());
        // The chosen plan still executes correctly.
        let result = Executor::new().execute(&optimized.physical).unwrap();
        assert_eq!(result.sink("out").unwrap().len(), 100);
    }

    #[test]
    fn mixed_hash_and_range_join_candidates_are_never_produced() {
        // The executor rejects joins with one hash- and one range-partitioned
        // input; the enumerator's validity check must never emit one.
        let (mut plan, cg, ann) = cogroup_plan();
        plan.sink("out", cg);
        let ctx = context(&plan, &ann, 4);
        let best = enumerate_best(&ctx, 4).unwrap();
        let ships = &best.physical.choice(cg).input_ships;
        let is_partition = |s: &ShipStrategy| {
            matches!(
                s,
                ShipStrategy::PartitionHash(_) | ShipStrategy::PartitionRange(_)
            )
        };
        if is_partition(&ships[0]) && is_partition(&ships[1]) {
            assert_eq!(
                std::mem::discriminant(&ships[0]),
                std::mem::discriminant(&ships[1]),
                "join inputs must share one partitioning scheme: {ships:?}"
            );
        }
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
