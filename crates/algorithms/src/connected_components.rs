//! Connected Components in all the paper's variants.
//!
//! * [`cc_bulk`] — the bulk-iterative FIXPOINT-CC of Table 1 as a dataflow:
//!   every iteration recomputes the full component mapping by joining it with
//!   the neighbourhood table and taking the minimum per vertex.
//! * [`cc_incremental`] — the incremental INCR-CC of Table 1 / Figure 5 as a
//!   workset iteration with the `InnerCoGroup` update (batch incremental).
//! * [`cc_microstep`] — the MICRO-CC variant using the record-at-a-time
//!   `Match` update, executed in supersteps.
//! * [`cc_async`] — the same microstep program executed asynchronously
//!   without superstep barriers.
//!
//! All variants converge to the same fixpoint: every vertex is labelled with
//! the smallest vertex id of its weakly connected component.

use crate::common::{
    adopt_min, component_candidate_source, component_source, edge_records, edge_source,
    initial_components, min_combine, prefer_min, records_to_vec,
};
use dataflow::prelude::*;
use graphdata::Graph;
use optimizer::{Annotations, FieldCopy};
use spinning_core::prelude::*;
use std::sync::Arc;

/// The outcome of a Connected Components run.
#[derive(Debug)]
pub struct ComponentsResult {
    /// Component id per vertex (indexed by vertex id).  Only a fixpoint when
    /// [`ComponentsResult::converged`] is `true`.
    pub components: Vec<i64>,
    /// Number of iterations (bulk) or supersteps (incremental) executed.
    pub iterations: usize,
    /// `false` when the run was truncated by
    /// [`ComponentsConfig::max_iterations`] before reaching the fixpoint, in
    /// which case `components` holds a partial labelling.
    pub converged: bool,
    /// Per-iteration statistics.
    pub stats: IterationRunStats,
}

/// Configuration shared by all Connected Components variants.
#[derive(Debug, Clone)]
pub struct ComponentsConfig {
    /// Degree of parallelism.
    pub parallelism: usize,
    /// Upper bound on iterations / supersteps.
    pub max_iterations: usize,
    /// Checkpointing and recovery policy, passed through to the workset
    /// driver (superstep boundaries) or the bulk driver (iteration
    /// boundaries).  The asynchronous variant ignores it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// The execution settings, handed unchanged to the workset driver or
    /// the bulk driver.  A multi-process transport turns a superstep
    /// variant into one SPMD cluster worker (use [`cc_workset_records`],
    /// which returns the worker's owned partitions instead of densifying);
    /// the bulk variant's executor rejects it.
    pub exec: ExecConfig,
}

impl ComponentsConfig {
    /// Default configuration: effectively unbounded iterations.
    pub fn new(parallelism: usize) -> Self {
        ComponentsConfig {
            parallelism,
            max_iterations: 100_000,
            checkpoint: None,
            exec: ExecConfig::new(),
        }
    }

    /// Bounds the number of iterations (used to reproduce the "first 20
    /// iterations of Webbase" measurement of Figure 9).
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }

    /// Enables checkpointing every `interval` supersteps (workset variants)
    /// or iterations (bulk variant) under `dir`, with recovery on failure.
    pub fn with_checkpoint(self, interval: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        self.with_checkpoint_policy(CheckpointPolicy::new(interval, dir))
    }

    /// Enables checkpointing with an explicit policy.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Sets the execution settings.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    // The four shorthands below are kept because `benchmark/src/engine.rs`
    // calls them; everything else sets `exec`.

    /// [`ExecConfig::with_memory_budget`] on [`ComponentsConfig::exec`].
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.exec = self.exec.with_memory_budget(budget);
        self
    }

    /// [`ExecConfig::with_fault`] on [`ComponentsConfig::exec`].
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.exec = self.exec.with_fault(fault);
        self
    }

    /// [`ExecConfig::with_transport`] on [`ComponentsConfig::exec`].
    pub fn with_transport(mut self, transport: TransportHandle) -> Self {
        self.exec = self.exec.with_transport(transport);
        self
    }

    /// [`ExecConfig::with_channel_credits`] on [`ComponentsConfig::exec`].
    pub fn with_channel_credits(mut self, credits: usize) -> Self {
        self.exec = self.exec.with_channel_credits(credits);
        self
    }
}

/// Builds the bulk-iterative step plan: `S ⋈ N` produces a candidate per
/// neighbour, the union with `S` keeps each vertex's own label, and a Reduce
/// takes the minimum per vertex.  Returns the plan, its partial-solution
/// source (fed back from the sink `next-components`) and the optimizer's
/// annotations.
pub fn build_bulk_step_plan(graph: &Graph) -> (Plan, OperatorId, Annotations) {
    let edges = edge_records(graph);
    let edge_count = edges.len();
    let mut plan = Plan::new();
    let solution = plan.source("components", Vec::new());
    plan.set_estimated_records(solution, graph.num_vertices());
    let neighbours = plan.source("neighbours", edges);
    plan.set_estimated_records(neighbours, edge_count);

    // For every edge (vid, nb) propagate the vertex's current cid to nb.
    let candidates = plan.match_join(
        "candidate-components",
        solution,
        neighbours,
        vec![0],
        vec![0],
        Arc::new(MatchClosure(
            |s: RecordView<'_>, e: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(&[Value::Long(e.long(1)), Value::Long(s.long(1))]);
            },
        )),
    );
    plan.set_estimated_records(candidates, edge_count);
    // Keep the vertex's own label in the running for the minimum.
    let with_own = plan.union("candidates-and-own", vec![candidates, solution]);
    let minimum = plan.reduce(
        "minimum-component",
        with_own,
        vec![0],
        Arc::new(ReduceClosure(
            |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                let min = group
                    .iter()
                    .map(|r| r.long(1))
                    .min()
                    .expect("group is never empty");
                out.emit(&[key[0].clone(), Value::Long(min)]);
            },
        )),
    );
    plan.set_estimated_records(minimum, graph.num_vertices());
    plan.sink("next-components", minimum);

    let mut annotations = Annotations::new();
    annotations.add_copy(
        candidates,
        FieldCopy {
            slot: 1,
            in_field: 1,
            out_field: 0,
        },
    );
    annotations.add_copy(
        minimum,
        FieldCopy {
            slot: 0,
            in_field: 0,
            out_field: 0,
        },
    );
    (plan, solution, annotations)
}

/// The bulk-iterative Connected Components algorithm (FIXPOINT-CC).
pub fn cc_bulk(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    let (plan, solution, annotations) = build_bulk_step_plan(graph);
    let converged = Arc::new(|prev: &[Record], next: &[Record]| {
        let mut a = prev.to_vec();
        let mut b = next.to_vec();
        a.sort();
        b.sort();
        a == b
    });
    let iteration = BulkIteration::new(
        plan,
        solution,
        "next-components",
        TerminationCriterion::Converged {
            check: converged,
            max_iterations: config.max_iterations,
        },
    );
    let result = iteration.run(initial_components(graph), &bulk_config(config, annotations))?;
    Ok(ComponentsResult {
        components: records_to_vec(&result.solution, graph.num_vertices()),
        iterations: result.iterations,
        converged: result.converged,
        stats: result.stats,
    })
}

/// The bulk driver's configuration for `config`, planned with the step
/// plan's `annotations`.  A struct literal, so a field added to
/// [`BulkConfig`] fails to compile here until it is forwarded.
fn bulk_config(config: &ComponentsConfig, annotations: Annotations) -> BulkConfig {
    BulkConfig {
        parallelism: config.parallelism,
        annotations,
        checkpoint: config.checkpoint.clone(),
        exec: config.exec.clone(),
    }
}

/// Builds the workset iteration shared by the incremental variants: solution
/// records `(vid, cid)`, workset records `(vid, candidate cid)`, constant
/// input `N = (vid, neighbour)`.
fn build_workset_iteration(graph: &Graph, grouped: bool) -> WorksetIteration<'_> {
    // The update function of Figure 5: take the smallest candidate cid; emit
    // a delta only if it improves on the current component.
    let update: Arc<dyn UpdateFunction> = if grouped {
        Arc::new(UpdateClosure(adopt_min))
    } else {
        Arc::new(UpdateClosure(
            |key: &Key,
             current: Option<RecordView<'_>>,
             candidates: &[RecordView<'_>],
             delta: &mut dyn RecordSink| {
                let candidate = candidates[0].long(1);
                if current.is_none_or(|c| c.long(1) > candidate) {
                    delta.emit(&[key.values()[0].clone(), Value::Long(candidate)]);
                }
            },
        ))
    };
    // The expansion of Figure 5: the changed vertex's new cid becomes a
    // candidate for every neighbour.
    let expand = Arc::new(ExpandClosure(
        |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            let cid = delta.long(1);
            for e in edges {
                out.emit(&[Value::Long(e.long(1)), Value::Long(cid)]);
            }
        },
    ));
    WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(Arc::new(edge_source(graph)), vec![0], vec![0])
        // Smaller component ids are successor states in the CPO.
        .comparator(Arc::new(prefer_min))
        // A vertex's candidates fold to their minimum before they ship.
        .combine(min_combine())
        .build()
}

/// Runs the incremental Connected Components workset iteration and returns
/// the raw [`WorksetResult`]: the solution as `(vid, cid)` records instead
/// of a dense per-vertex vector.  This is the entry point for cluster
/// workers — with a multi-process transport ([`ComponentsConfig::exec`])
/// each process's result holds only the solution partitions it owns, and
/// densifying per process would plant holes; concatenating the workers'
/// records in index order reproduces the single-process record stream.
/// `mode` selects the batch-incremental (`InnerCoGroup`) or microstep
/// (`Match`) update.
pub fn cc_workset_records(
    graph: &Graph,
    config: &ComponentsConfig,
    mode: ExecutionMode,
) -> Result<WorksetResult> {
    let grouped = mode == ExecutionMode::BatchIncremental;
    let iteration = build_workset_iteration(graph, grouped);
    iteration.run(
        component_source(graph),
        component_candidate_source(graph),
        &workset_config(config, mode),
    )
}

/// The workset driver's configuration for `config` in `mode`.  A struct
/// literal, so a field added to [`WorksetConfig`] fails to compile here
/// until it is forwarded.
fn workset_config(config: &ComponentsConfig, mode: ExecutionMode) -> WorksetConfig {
    WorksetConfig {
        parallelism: config.parallelism,
        mode,
        max_supersteps: config.max_iterations,
        checkpoint: config.checkpoint.clone(),
        exec: config.exec.clone(),
    }
}

fn run_workset(
    graph: &Graph,
    config: &ComponentsConfig,
    mode: ExecutionMode,
) -> Result<ComponentsResult> {
    let result = cc_workset_records(graph, config, mode)?;
    Ok(ComponentsResult {
        components: records_to_vec(&result.solution, graph.num_vertices()),
        iterations: result.supersteps,
        converged: result.converged,
        stats: result.stats,
    })
}

/// The batch-incremental Connected Components algorithm (INCR-CC, CoGroup
/// variant).
pub fn cc_incremental(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    run_workset(graph, config, ExecutionMode::BatchIncremental)
}

/// The microstep Connected Components algorithm (MICRO-CC, Match variant)
/// executed with superstep synchronisation.
pub fn cc_microstep(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    run_workset(graph, config, ExecutionMode::Microstep)
}

/// The microstep Connected Components algorithm executed asynchronously,
/// without superstep barriers.
pub fn cc_async(graph: &Graph, config: &ComponentsConfig) -> Result<ComponentsResult> {
    run_workset(graph, config, ExecutionMode::AsynchronousMicrostep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{chain, figure1_graph, rmat, star, DatasetProfile, RmatParams};

    fn oracle(graph: &Graph) -> Vec<i64> {
        graph
            .components_oracle()
            .into_iter()
            .map(i64::from)
            .collect()
    }

    #[test]
    fn figure1_walkthrough_bulk() {
        let graph = figure1_graph();
        let result = cc_bulk(&graph, &ComponentsConfig::new(2)).unwrap();
        assert_eq!(result.components, oracle(&graph));
        // Figure 1 shows convergence of the assignments after two steps; the
        // bulk iteration needs one extra iteration to detect the fixpoint.
        assert!(result.iterations <= 4);
    }

    #[test]
    fn figure1_walkthrough_incremental_and_microstep() {
        let graph = figure1_graph();
        for run in [cc_incremental, cc_microstep, cc_async] {
            let result = run(&graph, &ComponentsConfig::new(2)).unwrap();
            assert_eq!(
                result.components,
                oracle(&graph),
                "variant disagrees with the oracle"
            );
        }
    }

    #[test]
    fn all_variants_agree_on_a_power_law_graph() {
        let graph = rmat(400, 1600, RmatParams::default(), 17).symmetrize();
        let expected = oracle(&graph);
        let config = ComponentsConfig::new(4);
        assert_eq!(cc_bulk(&graph, &config).unwrap().components, expected);
        assert_eq!(
            cc_incremental(&graph, &config).unwrap().components,
            expected
        );
        assert_eq!(cc_microstep(&graph, &config).unwrap().components, expected);
        assert_eq!(cc_async(&graph, &config).unwrap().components, expected);
    }

    #[test]
    fn long_chain_needs_many_supersteps() {
        // The chain reproduces the Webbase long-tail behaviour: the number of
        // supersteps grows with the diameter.
        let graph = chain(200);
        let result = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        assert_eq!(result.components, vec![0; 200]);
        assert!(
            result.iterations >= 100,
            "only {} supersteps",
            result.iterations
        );
    }

    #[test]
    fn star_converges_in_very_few_supersteps() {
        let graph = star(500);
        let result = cc_incremental(&graph, &ComponentsConfig::new(4)).unwrap();
        assert_eq!(result.components, vec![0; 500]);
        assert!(result.iterations <= 3);
    }

    #[test]
    fn incremental_workset_shrinks_towards_convergence() {
        let graph = DatasetProfile::foaf().generate(4096);
        let result = cc_incremental(&graph, &ComponentsConfig::new(4)).unwrap();
        let sizes: Vec<usize> = result
            .stats
            .per_iteration
            .iter()
            .map(|s| s.workset_size)
            .collect();
        assert!(sizes.len() >= 3);
        // The working set in the last superstep is a tiny fraction of the
        // first superstep's (the Figure 2 effect).
        assert!(
            (*sizes.last().unwrap() as f64) < 0.2 * sizes[0] as f64,
            "sizes: {sizes:?}"
        );
        assert_eq!(result.components, oracle(&graph));
    }

    #[test]
    fn bulk_inspects_every_vertex_each_iteration_but_incremental_does_not() {
        let graph = rmat(600, 2400, RmatParams::default(), 23).symmetrize();
        let bulk = cc_bulk(&graph, &ComponentsConfig::new(2)).unwrap();
        let incr = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        // Bulk touches the whole partial solution in every iteration.
        for s in &bulk.stats.per_iteration {
            assert_eq!(s.workset_size, graph.num_vertices());
        }
        // The incremental variant touches fewer and fewer vertices.
        let last = incr.stats.per_iteration.last().unwrap();
        assert!(last.elements_inspected < graph.num_vertices());
    }

    #[test]
    fn max_iterations_truncates_the_run() {
        let graph = chain(300);
        let result =
            cc_incremental(&graph, &ComponentsConfig::new(2).with_max_iterations(5)).unwrap();
        assert_eq!(result.iterations, 5);
        // Not converged yet: far vertices still carry their own id, and the
        // wrapper says so instead of presenting the truncation as a fixpoint.
        assert!(!result.converged);
        assert_ne!(result.components, vec![0; 300]);
        let full = cc_incremental(&graph, &ComponentsConfig::new(2)).unwrap();
        assert!(full.converged);
    }

    /// A configuration with every field away from its default.  The
    /// transport's channel-group counter is advanced to 3, so the handle that
    /// arrives can be told apart from a fresh default one.
    fn fully_configured() -> ComponentsConfig {
        let transport = TransportHandle::local();
        for _ in 0..3 {
            transport.allocate();
        }
        ComponentsConfig::new(3)
            .with_max_iterations(17)
            .with_checkpoint_policy(CheckpointPolicy::new(5, "ckpt-dir").with_max_retries(7))
            .with_memory_budget(MemoryBudget::bytes(4096))
            .with_fault(FaultInjector::seeded(11))
            .with_transport(transport)
            .with_channel_credits(2)
    }

    /// Asserts a forwarded checkpoint policy and execution settings are
    /// those of [`fully_configured`].
    fn assert_forwarded(checkpoint: Option<CheckpointPolicy>, exec: &ExecConfig) {
        let checkpoint = checkpoint.expect("checkpoint policy");
        assert_eq!(
            (checkpoint.interval, checkpoint.max_retries),
            (5, 7),
            "checkpoint policy"
        );
        assert_eq!(checkpoint.dir, std::path::PathBuf::from("ckpt-dir"));
        assert_eq!(exec.memory_budget, MemoryBudget::bytes(4096));
        assert_eq!(
            format!("{:?}", exec.fault),
            format!("{:?}", FaultInjector::seeded(11))
        );
        assert_eq!(exec.transport.allocate(), 3, "the configured transport");
        assert_eq!(exec.channel_credits, Some(2));
    }

    #[test]
    fn every_components_field_reaches_the_workset_config() {
        let workset = workset_config(&fully_configured(), ExecutionMode::Microstep);
        assert_eq!(workset.parallelism, 3);
        assert_eq!(workset.mode, ExecutionMode::Microstep);
        assert_eq!(workset.max_supersteps, 17);
        assert_forwarded(workset.checkpoint, &workset.exec);
    }

    #[test]
    fn every_components_field_reaches_the_bulk_config() {
        let (_, _, annotations) = build_bulk_step_plan(&figure1_graph());
        let bulk = bulk_config(&fully_configured(), annotations);
        assert_eq!(bulk.parallelism, 3);
        assert_forwarded(bulk.checkpoint, &bulk.exec);
    }

    /// A transport stub that reports a two-process cluster but is never
    /// exercised: the executor rejects it before any communication.
    struct TwoProcessStub;

    impl dataflow::transport::Transport<RecordPage> for TwoProcessStub {
        fn cluster(&self) -> ClusterSpec {
            ClusterSpec {
                processes: 2,
                index: 0,
            }
        }

        fn allocate(&self) -> u64 {
            unreachable!("the executor rejects before allocating channels")
        }

        fn channel(&self, _id: ChannelId, _partitions: usize) -> SharedPageChannel {
            unreachable!("the executor rejects before opening channels")
        }

        fn all_gather(
            &self,
            _id: ChannelId,
            _round: u64,
            _values: &[u64],
        ) -> std::result::Result<Vec<Vec<u64>>, CommError> {
            unreachable!("the executor rejects before gathering")
        }
    }

    #[test]
    fn bulk_cc_rejects_a_distributed_transport() {
        let transport = TransportHandle::from_transport(Arc::new(TwoProcessStub));
        let config = ComponentsConfig::new(2).with_transport(transport);
        match cc_bulk(&figure1_graph(), &config) {
            Err(DataflowError::InvalidPlan(message)) => {
                assert!(message.contains("single-process"), "{message}")
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn truncated_bulk_run_reports_non_convergence() {
        let graph = chain(64);
        let result = cc_bulk(&graph, &ComponentsConfig::new(2).with_max_iterations(3)).unwrap();
        assert!(!result.converged);
        assert_ne!(result.components, vec![0; 64]);
    }
}
