//! Bulk iterations (Section 4).
//!
//! A bulk iteration is the complex operator `(G, I, O, T)`: a step dataflow
//! `G` that consumes the previous partial solution through the source `I`,
//! produces the next partial solution at the sink `O`, and is repeated until
//! the termination criterion `T` fires (or a fixed number of iterations `n`
//! has run).
//!
//! The runtime uses the *feedback-channel* execution strategy of Section 4.2:
//! the same physical plan is reused for every iteration; the partial solution
//! produced at `O` stays on the sink's pages (the feedback dam) and becomes
//! `I`'s data in the next iteration, copied into the source split as bytes.
//! Heap records are read only for the initial input, a `Converged` check, a
//! checkpoint cut and the final solution.  Loop-invariant inputs on the
//! constant data path are shipped once and then served from the executor's
//! intermediate cache, as decided by the optimizer (Section 4.3).

use crate::checkpoint::{run_with_recovery, CheckpointPolicy};
use crate::stats::{IterationRunStats, IterationStats};
use dataflow::prelude::{
    DataflowError, ExecConfig, ExecutionResult, Executor, IntermediateCache, OperatorId,
    PhysicalPlan, Plan, Record, RecordSource, Result,
};
use optimizer::{Annotations, IterationSpec, Optimizer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A user-supplied convergence check comparing the previous and next partial
/// solutions.
pub type ConvergenceCheck = Arc<dyn Fn(&[Record], &[Record]) -> bool + Send + Sync>;

/// When to stop iterating.
#[derive(Clone)]
pub enum TerminationCriterion {
    /// Run exactly `n` iterations — the `(G, I, O, n)` form.
    FixedIterations(usize),
    /// Stop after the iteration in which the named sink (the termination
    /// criterion dataflow `T`) produces no records, or after `max_iterations`.
    EmptySink {
        /// Name of the sink produced by `T`.
        sink: String,
        /// Upper bound on the number of iterations.
        max_iterations: usize,
    },
    /// Stop when a user-supplied convergence check on the previous and next
    /// partial solutions returns `true`, or after `max_iterations`.
    Converged {
        /// Returns `true` when `previous` and `next` are considered equal
        /// (the fixpoint has been reached).
        check: ConvergenceCheck,
        /// Upper bound on the number of iterations.
        max_iterations: usize,
    },
}

impl std::fmt::Debug for TerminationCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerminationCriterion::FixedIterations(n) => write!(f, "FixedIterations({n})"),
            TerminationCriterion::EmptySink {
                sink,
                max_iterations,
            } => {
                write!(f, "EmptySink(sink={sink}, max={max_iterations})")
            }
            TerminationCriterion::Converged { max_iterations, .. } => {
                write!(f, "Converged(max={max_iterations})")
            }
        }
    }
}

impl TerminationCriterion {
    fn max_iterations(&self) -> usize {
        match self {
            TerminationCriterion::FixedIterations(n) => *n,
            TerminationCriterion::EmptySink { max_iterations, .. }
            | TerminationCriterion::Converged { max_iterations, .. } => *max_iterations,
        }
    }
}

/// Configuration of a bulk iteration run.
#[derive(Debug, Clone)]
pub struct BulkConfig {
    /// Degree of parallelism of the step dataflow.
    pub parallelism: usize,
    /// Field-copy annotations passed to the optimizer.
    pub annotations: Annotations,
    /// Iteration-boundary checkpointing and recovery policy.  `None` (the
    /// default) disables checkpointing: a failed iteration surfaces as a
    /// typed [`DataflowError`] immediately.
    pub checkpoint: Option<CheckpointPolicy>,
    /// The execution settings every step execution runs under, handed to
    /// the [`Executor`] unchanged; its fault injector also drives the
    /// checkpoint sites.
    pub exec: ExecConfig,
}

impl BulkConfig {
    /// Default configuration for the given parallelism.
    pub fn new(parallelism: usize) -> Self {
        BulkConfig {
            parallelism,
            annotations: Annotations::new(),
            checkpoint: None,
            exec: ExecConfig::new(),
        }
    }

    /// Sets the execution settings of the step executions.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the optimizer annotations.
    pub fn with_annotations(mut self, annotations: Annotations) -> Self {
        self.annotations = annotations;
        self
    }

    /// Enables iteration-boundary checkpointing: every `interval` iterations
    /// the partial solution is snapshotted under `dir`, and a failed
    /// iteration restores the newest valid checkpoint and retries instead of
    /// failing the run.
    pub fn with_checkpoint(self, interval: usize, dir: impl Into<PathBuf>) -> Self {
        self.with_checkpoint_policy(CheckpointPolicy::new(interval, dir))
    }

    /// Enables checkpointing with an explicit policy.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }
}

/// The result of running a bulk iteration.
#[derive(Debug)]
pub struct BulkIterationResult {
    /// The final partial solution (the contents of `O` after the last
    /// iteration).
    pub solution: Vec<Record>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// `true` when the termination criterion fired ([`TerminationCriterion::
    /// FixedIterations`] runs are always converged); `false` when the run was
    /// cut off by `max_iterations` before `T` fired, in which case the
    /// solution is truncated rather than a fixpoint.
    pub converged: bool,
    /// Per-iteration statistics.
    pub stats: IterationRunStats,
}

/// The bulk iteration operator `(G, I, O, T)`.
#[derive(Debug, Clone)]
pub struct BulkIteration {
    plan: Plan,
    input: OperatorId,
    output_sink: String,
    termination: TerminationCriterion,
}

impl BulkIteration {
    /// Creates a bulk iteration from the step dataflow `plan` (`G`), the
    /// source operator that carries the partial solution into the step
    /// function (`I`), the name of the sink producing the next partial
    /// solution (`O`), and the termination criterion (`T` / `n`).
    pub fn new(
        plan: Plan,
        input: OperatorId,
        output_sink: impl Into<String>,
        termination: TerminationCriterion,
    ) -> Self {
        BulkIteration {
            plan,
            input,
            output_sink: output_sink.into(),
            termination,
        }
    }

    /// The step dataflow.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Runs the iteration starting from the initial partial solution: plans
    /// the step dataflow once with the iteration-aware optimizer — the
    /// dynamic data path weighted by the termination criterion's maximum
    /// number of iterations — and drives the plan through
    /// [`BulkIteration::run_physical`].
    pub fn run(&self, initial: Vec<Record>, config: &BulkConfig) -> Result<BulkIterationResult> {
        let output_op = self
            .plan
            .sink_by_name(&self.output_sink)
            .ok_or_else(|| DataflowError::UnknownSink(self.output_sink.clone()))?;
        let spec = IterationSpec {
            dynamic_sources: vec![self.input],
            feedback: vec![(output_op, self.input)],
            expected_iterations: self.termination.max_iterations() as f64,
        };
        let physical = Optimizer::new(config.parallelism)
            .optimize_iterative(&self.plan, &config.annotations, &spec)?
            .physical;
        self.run_physical(physical, initial, config)
    }

    /// The feedback loop (Section 4.2): executes `physical` — a physical plan
    /// of this iteration's step dataflow, from [`BulkIteration::run`]'s
    /// planner or built by hand (PageRank's forced Figure 4 plans) — once per
    /// iteration against one loop-invariant cache, feeding each iteration's
    /// output back as the next one's input, until the termination criterion
    /// fires.  Everything a run does beyond planning lives here: the
    /// executor's budget and fault injector, checkpointing and recovery, the
    /// iteration number stamped on worker panics, the per-iteration stats.
    /// The plan's own parallelism applies; `config.parallelism` and the
    /// annotations only steer the planner.
    pub fn run_physical(
        &self,
        mut physical: PhysicalPlan,
        initial: Vec<Record>,
        config: &BulkConfig,
    ) -> Result<BulkIterationResult> {
        let start = Instant::now();
        // Checked here, not per iteration, so a bad plan or a typo fails the
        // run at once instead of being retried as if it were a transient
        // fault.  (Both planners reject zero parallelism themselves.)
        if physical.parallelism == 0 {
            return Err(DataflowError::InvalidPlan(
                "parallelism must be at least 1".into(),
            ));
        }
        let mut sinks = vec![&self.output_sink];
        if let TerminationCriterion::EmptySink { sink, .. } = &self.termination {
            sinks.push(sink);
        }
        for sink in sinks {
            self.plan
                .sink_by_name(sink)
                .ok_or_else(|| DataflowError::UnknownSink(sink.clone()))?;
        }
        let executor = Executor::with_config(config.exec.clone());
        // Everything an iteration reads and replaces.  Bulk checkpoints
        // snapshot the partial solution (records, or the sink's pages) as a
        // single partition with an empty workset.
        struct State {
            current: Arc<dyn RecordSource>,
            cache: IntermediateCache,
            converged: bool,
        }
        let mut state = State {
            current: Arc::new(initial),
            cache: IntermediateCache::new(),
            // Zero requested iterations is only a completed run for the
            // fixed-count form; for the criterion-driven forms `T` never
            // gets a chance to fire.
            converged: matches!(self.termination, TerminationCriterion::FixedIterations(0)),
        };

        let step = |state: &mut State, iteration: usize| -> Result<IterationStats> {
            let iter_start = Instant::now();
            let result: ExecutionResult = physical
                .plan
                .replace_source_data(self.input, Arc::new(Arc::clone(&state.current)))
                .and_then(|()| executor.execute_with_cache(&physical, &mut state.cache))
                // The executor reports pool panics without iteration context;
                // stamp the iteration number on before surfacing or retrying.
                .map_err(|error| match error {
                    DataflowError::WorkerPanic {
                        operator, message, ..
                    } => DataflowError::WorkerPanic {
                        operator,
                        superstep: iteration,
                        message,
                    },
                    other => other,
                })?;

            // Decide termination on the borrowed result, then move the sink's
            // pages out of it: the next partial solution stays on them.
            let empty_termination_sink = match &self.termination {
                TerminationCriterion::EmptySink { sink, .. } => result.sink_is_empty(sink)?,
                _ => false,
            };
            let execution_stats = result.stats.clone();
            let next = result.into_sink_pages(&self.output_sink)?;

            let mut stats = IterationStats::for_iteration(iteration);
            stats.workset_size = state.current.len();
            stats.elements_inspected = state.current.len();
            stats.elements_changed = next.len();
            stats.messages_sent = execution_stats.shipped_records + execution_stats.local_records;
            stats.messages_shipped = execution_stats.shipped_records;
            stats.spilled_bytes = execution_stats.spilled_bytes;
            stats.spilled_runs = execution_stats.spilled_runs;
            stats.execution = Some(execution_stats);
            stats.elapsed = iter_start.elapsed();

            state.converged = match &self.termination {
                TerminationCriterion::FixedIterations(n) => iteration >= *n,
                TerminationCriterion::EmptySink { .. } => empty_termination_sink,
                TerminationCriterion::Converged { check, .. } => {
                    check(&state.current.collect(), &next.collect())
                }
            };
            state.current = Arc::new(next);
            Ok(stats)
        };
        let per_iteration = run_with_recovery(
            config.checkpoint.as_ref(),
            1,
            &config.exec.fault,
            self.termination.max_iterations(),
            &mut state,
            |state| !state.converged,
            step,
            |state| Ok((vec![state.current.collect()], vec![Vec::new()], 0)),
            |state, restored| {
                state.current = Arc::new(restored.solution.concat());
                // The intermediate cache may hold state from the failed
                // execution; rebuild it so loop-invariant inputs re-ship.
                state.cache = IntermediateCache::new();
            },
        )?;
        let State {
            current, converged, ..
        } = state;
        Ok(BulkIterationResult {
            solution: current.collect(),
            iterations: per_iteration.len(),
            converged,
            stats: IterationRunStats {
                per_iteration,
                total_elapsed: start.elapsed(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::prelude::*;

    /// A step function that increments field 1 of every record by 1.
    fn increment_plan() -> (Plan, OperatorId) {
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "increment",
            input,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(Record::pair(r.long(0), r.long(1) + 1).fields());
            })),
        );
        plan.sink("next", map);
        (plan, input)
    }

    #[test]
    fn fixed_iteration_count_runs_exactly_n_times() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(5),
        );
        let result = iteration
            .run(
                vec![Record::pair(0, 0), Record::pair(1, 10)],
                &BulkConfig::new(2),
            )
            .unwrap();
        assert_eq!(result.iterations, 5);
        assert!(result.converged, "fixed-count runs are always converged");
        let mut solution = result.solution;
        solution.sort();
        assert_eq!(solution, vec![Record::pair(0, 5), Record::pair(1, 15)]);
        assert_eq!(result.stats.iterations(), 5);
    }

    #[test]
    fn zero_iterations_returns_the_initial_solution() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(0),
        );
        let result = iteration
            .run(vec![Record::pair(7, 7)], &BulkConfig::new(2))
            .unwrap();
        assert_eq!(result.iterations, 0);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(7, 7)]);
    }

    #[test]
    fn converged_criterion_stops_at_the_fixpoint() {
        // Step function: cap field 1 at 8 (monotone, reaches a fixpoint).
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "cap",
            input,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(Record::pair(r.long(0), (r.long(1) + 1).min(8)).fields());
            })),
        );
        plan.sink("next", map);
        let check = Arc::new(|prev: &[Record], next: &[Record]| {
            let mut a = prev.to_vec();
            let mut b = next.to_vec();
            a.sort();
            b.sort();
            a == b
        });
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::Converged {
                check,
                max_iterations: 100,
            },
        );
        let result = iteration
            .run(vec![Record::pair(0, 0)], &BulkConfig::new(2))
            .unwrap();
        // Reaches 8 after 8 iterations; the 9th confirms the fixpoint.
        assert_eq!(result.iterations, 9);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(0, 8)]);
    }

    #[test]
    fn hitting_max_iterations_reports_non_convergence() {
        // Same capped-increment fixpoint as above, but the bound cuts the run
        // off after 3 iterations — far from the fixpoint at 8.
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "cap",
            input,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(Record::pair(r.long(0), (r.long(1) + 1).min(8)).fields());
            })),
        );
        plan.sink("next", map);
        let check = Arc::new(|prev: &[Record], next: &[Record]| prev == next);
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::Converged {
                check,
                max_iterations: 3,
            },
        );
        let result = iteration
            .run(vec![Record::pair(0, 0)], &BulkConfig::new(2))
            .unwrap();
        assert_eq!(result.iterations, 3);
        assert!(
            !result.converged,
            "truncated run must not report a fixpoint"
        );
        assert_eq!(result.solution, vec![Record::pair(0, 3)]);
    }

    #[test]
    fn empty_sink_criterion_uses_the_termination_dataflow() {
        // Step: increment; termination dataflow T emits a record while any
        // value is still below 3.
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let map = plan.map(
            "increment",
            input,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(Record::pair(r.long(0), r.long(1) + 1).fields());
            })),
        );
        plan.sink("next", map);
        let t = plan.map(
            "still-running",
            map,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                if r.long(1) < 3 {
                    out.forward(r);
                }
            })),
        );
        plan.sink("termination", t);
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::EmptySink {
                sink: "termination".into(),
                max_iterations: 50,
            },
        );
        let result = iteration
            .run(vec![Record::pair(0, 0)], &BulkConfig::new(2))
            .unwrap();
        assert_eq!(result.iterations, 3);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(0, 3)]);
    }

    #[test]
    fn zero_parallelism_is_rejected() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(1),
        );
        let mut config = BulkConfig::new(1);
        config.parallelism = 0;
        assert!(iteration.run(vec![Record::pair(0, 0)], &config).is_err());
    }

    #[test]
    fn unknown_output_sink_is_rejected() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "missing",
            TerminationCriterion::FixedIterations(1),
        );
        assert!(iteration.run(vec![], &BulkConfig::new(1)).is_err());
    }

    #[test]
    fn unknown_termination_sink_is_rejected_before_the_first_iteration() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::EmptySink {
                sink: "missing".into(),
                max_iterations: 3,
            },
        );
        let dir = std::env::temp_dir().join(format!("spinning-bulk-sink-{}", std::process::id()));
        // Even with checkpointing on, the typo is not retried as a fault.
        let err = iteration
            .run(vec![], &BulkConfig::new(1).with_checkpoint(1, &dir))
            .unwrap_err();
        assert!(matches!(err, DataflowError::UnknownSink(_)), "{err}");
        assert!(!dir.exists(), "nothing ran, nothing was checkpointed");
    }

    #[test]
    fn failed_checkpoint_writes_are_counted_not_fatal() {
        use dataflow::fault::FaultSite;
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(4),
        );
        let dir = std::env::temp_dir().join(format!("spinning-bulk-ckpt-{}", std::process::id()));
        // The initial (iteration-0) checkpoint write fails; the run proceeds,
        // later checkpoints land, and the failure shows up in the stats.
        let config = BulkConfig::new(2).with_checkpoint(1, &dir).with_exec(
            ExecConfig::new().with_fault(FaultInjector::failing_nth(FaultSite::CheckpointWrite, 0)),
        );
        let result = iteration.run(vec![Record::pair(0, 0)], &config).unwrap();
        assert_eq!(result.solution, vec![Record::pair(0, 4)]);
        assert_eq!(result.stats.total_checkpoint_write_failures(), 1);
        // Iterations 1-3 checkpoint; the converging fourth does not.
        assert_eq!(result.stats.total_checkpoints_written(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hand-built physical plan driven through `run_physical` gets what a
    /// planned one gets from the feedback loop: the failing iteration stamped
    /// on a worker panic, spill stats per iteration, checkpointed recovery.
    #[test]
    fn hand_built_plans_run_the_one_feedback_loop() {
        use dataflow::fault::FaultSite;
        let mut plan = Plan::new();
        let input = plan.source("partial-solution", vec![]);
        let bump = plan.reduce(
            "bump",
            input,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    // The key moves every iteration (7 is a unit modulo
                    // 200), so every iteration's exchange ships.
                    let moved = (key[0].as_long() * 7 + 3) % 200;
                    out.emit(Record::pair(moved, group[0].long(1) + 1).fields());
                },
            )),
        );
        plan.sink("next", bump);
        let physical = default_physical_plan(&plan, 4).unwrap();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(4),
        );
        let initial: Vec<Record> = (0..200).map(|i| Record::pair(i, 0)).collect();
        let exec = ExecConfig::new()
            .with_memory_budget(MemoryBudget::bytes(0))
            .with_fault(FaultInjector::disabled());
        let config = BulkConfig::new(4).with_exec(exec.clone());
        let run =
            |config: &BulkConfig| iteration.run_physical(physical.clone(), initial.clone(), config);

        let unfaulted = run(&config).unwrap();
        assert_eq!(unfaulted.iterations, 4);
        assert_eq!(unfaulted.solution.len(), 200);
        assert!(unfaulted.solution.iter().all(|r| r.long(1) == 4));
        for stats in &unfaulted.stats.per_iteration {
            assert!(
                stats.spilled_bytes > 0 && stats.spilled_runs > 0,
                "iteration {} spilled nothing: {stats:?}",
                stats.iteration
            );
        }

        // Each iteration dispatches four routing tasks and four segment
        // tasks, so the eleventh pool task belongs to iteration 2.
        let failing = || FaultInjector::failing_nth(FaultSite::WorkerPanic, 10);
        let failing_config = || config.clone().with_exec(exec.clone().with_fault(failing()));
        match run(&failing_config()) {
            Err(DataflowError::WorkerPanic { superstep, .. }) => assert_eq!(superstep, 2),
            other => panic!("expected a worker panic, got {other:?}"),
        }

        let dir = std::env::temp_dir().join(format!("spinning-bulk-hand-{}", std::process::id()));
        let recovered = run(&failing_config().with_checkpoint(1, &dir)).unwrap();
        assert_eq!(recovered.solution, unfaulted.solution);
        assert_eq!(recovered.iterations, 4);
        assert_eq!(recovered.stats.total_recoveries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn optimizer_and_default_plans_agree_on_the_result() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(3),
        );
        let initial: Vec<Record> = (0..20).map(|i| Record::pair(i, i)).collect();
        let with_opt = iteration.run(initial.clone(), &BulkConfig::new(4)).unwrap();
        let default_plan = default_physical_plan(iteration.plan(), 4).unwrap();
        let without_opt = iteration
            .run_physical(default_plan, initial, &BulkConfig::new(4))
            .unwrap();
        let mut a = with_opt.solution;
        let mut b = without_opt.solution;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn per_iteration_stats_are_recorded() {
        let (plan, input) = increment_plan();
        let iteration = BulkIteration::new(
            plan,
            input,
            "next",
            TerminationCriterion::FixedIterations(4),
        );
        let result = iteration
            .run(
                (0..10).map(|i| Record::pair(i, 0)).collect(),
                &BulkConfig::new(2),
            )
            .unwrap();
        assert_eq!(result.stats.per_iteration.len(), 4);
        for (i, s) in result.stats.per_iteration.iter().enumerate() {
            assert_eq!(s.iteration, i + 1);
            assert_eq!(s.workset_size, 10);
            assert_eq!(s.elements_changed, 10);
            assert!(s.execution.is_some());
        }
    }
}
