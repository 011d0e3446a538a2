//! Incremental (workset) iterations — the paper's primary contribution
//! (Section 5).
//!
//! A workset iteration is the complex operator `(Δ, S0, W0)`.  The partial
//! solution `S` is a keyed set of records held in a partitioned index across
//! the workers ([`SolutionSet`]); the working set `W` holds the candidate
//! updates of the current superstep, partitioned the same way.  The step
//! function `Δ` computes, from `Si` and `Wi`, the delta set `Di+1` (records
//! that are merged into `S` with the `∪̇` operator) and the next working set
//! `Wi+1`.
//!
//! The runtime implements `Δ` as the two-stage template of Figures 5 and 6:
//!
//! 1. a **solution-set join** of the working set with `S` on the identifying
//!    key, executing the user's [`UpdateFunction`] — as an `InnerCoGroup`
//!    (one invocation per key with all candidates, the *batch incremental*
//!    variant) or as a `Match` (one invocation per workset record, the
//!    *microstep* variant);
//! 2. a **workset expansion** joining each applied delta record with the
//!    cached, partitioned constant input `N` (e.g. the graph's adjacency
//!    list), executing the user's [`ExpandFunction`] to emit the candidate
//!    updates of the next superstep.
//!
//! Because `S`, `W` and `N` are co-partitioned on the identifying key, both
//! stages run locally inside each partition; only the newly produced workset
//! records may cross partition boundaries, exactly as in the execution plan
//! of Figure 6.  Execution proceeds in supersteps separated by a barrier in
//! both variants.
//!
//! # Set-up: the load step
//!
//! One rule governs how a record is represented on its way through a run: *a
//! record that exists as a heap object moves; a record born at an emit call
//! is born serialized.*  It applies to the job's inputs as it applies to the
//! candidates of a superstep.  `S0`, `W0` and `N` arrive as
//! [`RecordSource`]s — a `Vec<Record>`, or a description such as "one
//! `(vid, neighbour)` pair per adjacency entry of this graph" — and
//! [`WorksetIteration::run`] does exactly two things before superstep 1:
//! build the one hash router every later step shares, and run the *load
//! step* (`load.rs`): one pool task per partition this process owns pulls
//! each source through a sink that routes on the emitted field slice and keeps
//! the partition's own share, serialized straight into the partition's
//! solution index, its constant-path index and the page writer that becomes
//! its first queue.  Described inputs never exist as heap records; the
//! working set is pending as `W0.len()` candidates, known on every process
//! of a cluster without a barrier.  Both modes load this way.
//!
//! # Folding candidates at the sender
//!
//! An iteration may declare a combine ([`WorksetIterationBuilder::combine`]):
//! how two candidates for one key fold into one.  In batch-incremental mode
//! the candidates are then folded per target *before* they are serialized,
//! through one [`dataflow::exchange::Combiner`] per target — in the load
//! step for `W0`, and in every superstep exchange that cannot spill (no
//! memory budget, no page credits; a budget meters bytes, a fold table is
//! bounded by keys).  The update function sees at most one candidate per key
//! from each source partition.  The microstep mode updates once per
//! candidate and never folds.  The counters the paper plots —
//! `workset_size`, `elements_inspected`, `elements_changed`,
//! `messages_sent` — count candidates as emitted, before the fold, so they
//! read the same with and without a combine; `messages_shipped` and
//! `messages_delivered` count what the exchange moved, after it.
//!
//! Neither user function sees a heap record: both read [`RecordView`]s of
//! page bytes (the kernel's groups, the queue's pages and run frames, the
//! stored solution record and delta, the [`JoinIndex`]'s matches), and a
//! delta is emitted as a field slice the solution set serializes.  Both
//! modes apply a delta through one path.
//!
//! # What this module owns, and what it does not
//!
//! The loop body runs on the *ordinary* runtime exchange: every partition
//! routes its new candidates into a [`dataflow::exchange::Outbox`] and the
//! superstep's queue switch is one call to [`dataflow::exchange::ship`] —
//! the same layer the batch executor's repartitioning runs on — which
//! delivers the next superstep's queues as
//! [`dataflow::page::ExchangedPartition`]s.  Grouping candidates off their
//! sealed pages is the shared grouping kernel of [`dataflow::page`], for
//! every key shape,
//! and the checkpoint/retry loop is `crate::checkpoint`'s, shared with the
//! bulk driver.  What is special to a workset iteration, and therefore lives
//! here, is only what the paper marks as special: superstep control (one
//! channel for the whole run, one fresh round per attempt, the per-superstep
//! stats agreement that keeps a cluster in lockstep), the solution-set join
//! and the cached constant path, termination (the working set drained
//! cluster-wide, or [`RunConfig::max_steps`] supersteps run), and what a
//! consistent cut between supersteps consists of.  A run's settings — the
//! mode included — are the [`RunConfig`] the bulk driver takes too.

use crate::checkpoint::run_with_recovery;
use crate::config::RunConfig;
use crate::load::{load, Loaded};
use crate::solution_set::{PartitionIndex, RecordComparator, SolutionSet};
use crate::stats::{IterationRunStats, IterationStats};
use dataflow::contracts::{CombineFunction, LastEmitted, RecordSink, RecordSource};
use dataflow::exchange::{self, Combiner, Outbox};
use dataflow::fault::{FaultInjector, FaultSite};
use dataflow::join_index::JoinIndex;
use dataflow::page::{
    for_each_key_group, GroupScratch, PagePool, PageWriter, RecordPage, RecordView,
};
use dataflow::prelude::{
    ChannelId, ClusterSpec, DataflowError, ExchangedPartition, Key, KeyFields, PartitionRouter,
    Record, Result, SharedPageChannel, SpillManager, Value,
};
use std::sync::Arc;
use std::time::Instant;

/// User code of the solution-set join: decides how the workset candidates for
/// one key change the partial solution.
pub trait UpdateFunction: Send + Sync {
    /// Emits the delta record for `key` into `delta`, given the current
    /// solution record (if any) and the candidate records from the working
    /// set, all read in place as views of their serialized bytes.  Emitting
    /// nothing leaves the solution untouched; a second emission replaces the
    /// first.  A delta emitted as fields ([`RecordSink::emit`]) is serialized
    /// straight into the solution set, so no heap record exists per delta.
    ///
    /// In batch-incremental mode `candidates` holds *all* workset records
    /// for the key in this superstep; in microstep mode exactly one.
    fn update(
        &self,
        key: &Key,
        current: Option<RecordView<'_>>,
        candidates: &[RecordView<'_>],
        delta: &mut dyn RecordSink,
    );
}

/// Wraps a closure as an [`UpdateFunction`].
pub struct UpdateClosure<F>(pub F);

impl<F> UpdateFunction for UpdateClosure<F>
where
    F: Fn(&Key, Option<RecordView<'_>>, &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync,
{
    fn update(
        &self,
        key: &Key,
        current: Option<RecordView<'_>>,
        candidates: &[RecordView<'_>],
        delta: &mut dyn RecordSink,
    ) {
        (self.0)(key, current, candidates, delta)
    }
}

/// User code of the workset expansion: turns an applied delta record into new
/// workset records for the next superstep.
pub trait ExpandFunction: Send + Sync {
    /// Emits new workset records given the applied delta record and the
    /// records of the constant input that share its key (e.g. the out-edges
    /// of the updated vertex), all read in place where they are stored.  A
    /// candidate is best emitted by reference ([`RecordSink::emit`]): the
    /// superstep sink routes on the field slice and serializes it straight
    /// into the exchange, so no heap record is allocated per candidate.
    fn expand(
        &self,
        delta: RecordView<'_>,
        constant_matches: &[RecordView<'_>],
        out: &mut dyn RecordSink,
    );
}

/// Wraps a closure as an [`ExpandFunction`].
pub struct ExpandClosure<F>(pub F);

impl<F> ExpandFunction for ExpandClosure<F>
where
    F: Fn(RecordView<'_>, &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync,
{
    fn expand(
        &self,
        delta: RecordView<'_>,
        constant_matches: &[RecordView<'_>],
        out: &mut dyn RecordSink,
    ) {
        (self.0)(delta, constant_matches, out)
    }
}

/// How the workset iteration is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The `InnerCoGroup` variant: candidates are grouped per key, the update
    /// function runs once per key and superstep, and deltas become visible at
    /// the superstep barrier.
    BatchIncremental,
    /// The `Match` variant: the update function runs once per workset record
    /// and applied deltas are visible immediately within the superstep
    /// (allowed because updates are partition-local, Section 5.3).
    Microstep,
}

/// The result of a workset iteration.
#[derive(Debug)]
pub struct WorksetResult {
    /// The partial solution after the last superstep.  Only a fixpoint when
    /// [`WorksetResult::converged`] is `true`.
    pub solution: Vec<Record>,
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// `true` when the working set drained (the fixpoint was reached);
    /// `false` when the run was truncated by [`RunConfig::max_steps`] and
    /// the solution is partial.
    pub converged: bool,
    /// Per-superstep statistics.
    pub stats: IterationRunStats,
}

/// The incremental iteration operator `(Δ, S0, W0)`.
///
/// See the module documentation for the structure of the step function.
///
/// `'a` is what the constant input's source may borrow — a graph it
/// describes its edge records over, say; an iteration over owned records is
/// a `WorksetIteration<'static>`.
#[derive(Clone)]
pub struct WorksetIteration<'a> {
    /// Key fields identifying records in the solution set.
    pub(crate) solution_key: KeyFields,
    /// Fields of a *workset* record holding the key of the solution record it
    /// targets.
    pub(crate) workset_key: KeyFields,
    /// The constant ("topology") input `N`; every run loads it partitioned
    /// and indexed.
    pub(crate) constant_input: Arc<dyn RecordSource + 'a>,
    /// Fields of a *constant input* record forming its join key.
    pub(crate) constant_key: KeyFields,
    /// Fields of a *delta* record used to look up matching constant records.
    pub(crate) delta_key: KeyFields,
    /// The solution-set join UDF.
    pub(crate) update: Arc<dyn UpdateFunction>,
    /// The workset expansion UDF.
    pub(crate) expand: Arc<dyn ExpandFunction>,
    /// Conflict resolution for the `∪̇` merge.
    pub(crate) comparator: Option<RecordComparator>,
    /// The declared fold of candidates that share a workset key.
    pub(crate) combine: Option<Arc<dyn CombineFunction>>,
}

/// Builder for [`WorksetIteration`].
pub struct WorksetIterationBuilder<'a> {
    iteration: WorksetIteration<'a>,
}

impl<'a> WorksetIteration<'a> {
    /// Starts building a workset iteration whose solution records are
    /// identified by `solution_key` and whose workset records carry that key
    /// in `workset_key`.
    pub fn builder(
        solution_key: KeyFields,
        workset_key: KeyFields,
        update: Arc<dyn UpdateFunction>,
        expand: Arc<dyn ExpandFunction>,
    ) -> WorksetIterationBuilder<'a> {
        WorksetIterationBuilder {
            iteration: WorksetIteration {
                solution_key,
                workset_key,
                constant_input: Arc::new(Vec::<Record>::new()),
                constant_key: vec![0],
                delta_key: vec![0],
                update,
                expand,
                comparator: None,
                combine: None,
            },
        }
    }

    /// Runs the iteration from the initial solution `S0` and working set `W0`,
    /// each given as a [`RecordSource`]: a `Vec<Record>`, or a description
    /// the load step serializes straight into the partitions (see the module
    /// documentation).
    ///
    /// With a multi-process transport ([`RunConfig::exec`]) this call is
    /// one SPMD worker of a cluster: every process passes the same inputs and
    /// configuration, keeps only the partitions it owns, and the returned
    /// solution holds this process's owned partitions (concatenating the
    /// processes' solutions in index order reproduces the single-process
    /// result byte for byte).
    pub fn run(
        &self,
        initial_solution: impl RecordSource,
        initial_workset: impl RecordSource,
        config: &RunConfig,
    ) -> Result<WorksetResult> {
        if config.parallelism == 0 {
            return Err(DataflowError::InvalidPlan(
                "parallelism must be at least 1".into(),
            ));
        }
        let cluster = config.exec.transport.cluster();
        if cluster.processes > 1 {
            // Contiguous equal partition blocks are what keeps ownership a
            // pure division; an uneven split is a configuration error.
            cluster.partitions_per_process(config.parallelism)?;
            if config.checkpoint.is_some() {
                return Err(DataflowError::InvalidPlan(
                    "superstep checkpointing is not supported in cluster mode; a failed \
                     superstep surfaces as a typed error instead"
                        .into(),
                ));
            }
        }
        let start = Instant::now();
        // One hash router, shared by the solution set, the constant-input
        // index and every superstep exchange — the co-partitioning the
        // partition-local update join relies on.  Every process derives the
        // same one; the load step then keeps what this process owns.
        let router = PartitionRouter::hash(config.parallelism);
        let loaded = load(
            self,
            &router,
            &cluster,
            &initial_solution,
            &initial_workset,
            self.folds(config),
        );
        // Every process sees the full initial workset (the SPMD contract),
        // so the cluster-wide pending count is known up front without a
        // barrier — and it is what every process's loop condition starts
        // from, keeping the supersteps in lockstep from round one.  It
        // counts candidates as emitted, whether the load step folded them
        // or not.
        let pending = initial_workset.len() as u64;
        // Sources that hold heap records have been read and can go.
        drop((initial_solution, initial_workset));
        self.run_supersteps(loaded, pending, &router, config, start)
    }

    /// The combine candidates fold with in `config`'s mode: the declared
    /// one in batch-incremental mode, none in microstep mode, whose update
    /// function runs once per candidate.
    fn folds(&self, config: &RunConfig) -> Option<&Arc<dyn CombineFunction>> {
        self.combine
            .as_ref()
            .filter(|_| config.mode == ExecutionMode::BatchIncremental)
    }

    /// An empty solution set for this iteration: its key, its comparator,
    /// hash-partitioned `parallelism` ways.
    pub(crate) fn empty_solution(&self, parallelism: usize) -> SolutionSet {
        let solution = SolutionSet::new(self.solution_key.clone(), parallelism);
        match &self.comparator {
            Some(comparator) => solution.with_comparator(Arc::clone(comparator)),
            None => solution,
        }
    }

    /// Superstep-synchronised execution (both the batch-incremental and the
    /// microstep variant): superstep control, termination and checkpoint
    /// policy.  The queue switch itself is [`exchange::ship`].
    fn run_supersteps(
        &self,
        loaded: Loaded,
        pending: u64,
        router: &PartitionRouter,
        config: &RunConfig,
        start: Instant,
    ) -> Result<WorksetResult> {
        let Loaded {
            solution,
            constant: constant_index,
            workset,
        } = loaded;
        let parallelism = config.parallelism;
        // The spill policy of every superstep exchange, over its parallelism²
        // outbox writers.  Batch-incremental flushes sort candidate runs on
        // the workset key so the consumer can merge-group them without
        // materializing the workset; the microstep consumer streams runs in
        // arrival order, so its flushes skip the sort entirely.
        let sort_on_flush =
            (config.mode != ExecutionMode::Microstep).then(|| self.workset_key.clone());
        let spill = config
            .exec
            .spill_manager(parallelism * parallelism, sort_on_flush);
        // The run's communication state: one page channel carries every
        // superstep exchange (rounds are attempt-numbered and never reused,
        // so a failed attempt cannot pollute a retry) and one barrier channel
        // carries the per-superstep stats agreement.  Allocation order is
        // part of the SPMD contract — every process allocates these first.
        let transport = &config.exec.transport;
        let comms = SuperstepComms {
            cluster: transport.cluster(),
            channel: transport.fresh_channel(parallelism),
            stats_channel: ChannelId::new(transport.allocate(), 0),
        };

        let mut state = SuperstepState {
            solution,
            // The load step wrote the initial working set into per-partition
            // pages — the representation every later superstep's queue has,
            // so superstep 1 runs the same page-native join as the rest.
            queues: workset.into_iter().map(paged_queue).collect(),
            pending,
            round: 0,
            scratch: (0..parallelism).map(|_| StepScratch::default()).collect(),
        };

        let per_iteration = run_with_recovery(
            config.checkpoint.as_ref(),
            parallelism,
            &config.exec.fault,
            config.max_steps,
            &mut state,
            |state| state.pending > 0,
            |state, superstep| {
                self.superstep_once(
                    superstep,
                    state,
                    &comms,
                    &constant_index,
                    router,
                    &spill,
                    config,
                )
            },
            // The cut between supersteps: the solution set plus the pending
            // queues, read back into plain records (the live queues are left
            // untouched), and the count of candidates pending before the
            // fold, which the next row reports as its working set.
            |state| {
                let solution = (0..parallelism)
                    .map(|p| state.solution.partition_records(p))
                    .collect();
                let workset = state
                    .queues
                    .iter()
                    .map(|queue| {
                        let mut records = Vec::with_capacity(queue.record_count());
                        queue.for_each_view(|record| records.push(record.materialize()))?;
                        Ok(records)
                    })
                    .collect::<std::io::Result<_>>()?;
                Ok((solution, workset, state.pending))
            },
            |state, restored| {
                let mut rebuilt = self.empty_solution(router.parallelism());
                rebuilt.merge_all(restored.solution.into_iter().flatten());
                state.solution = rebuilt;
                // Snapshotted queues were already partition-routed when they
                // were taken, so they reload partition by partition.
                state.queues = restored
                    .workset
                    .into_iter()
                    .map(|records| {
                        let mut writer = PageWriter::new();
                        for record in &records {
                            writer.push(record);
                        }
                        paged_queue(writer)
                    })
                    .collect();
                state.pending = restored.pending;
            },
        )?;

        Ok(WorksetResult {
            solution: state.solution.records(),
            supersteps: per_iteration.len(),
            // The loop exits either because every queue drained cluster-wide
            // (the fixpoint) or because the superstep bound truncated the
            // run.
            converged: state.pending == 0,
            stats: IterationRunStats {
                per_iteration,
                total_elapsed: start.elapsed(),
            },
        })
    }

    /// Runs one superstep across all partitions: consumes the queued
    /// worksets, applies deltas to the solution set, and exchanges the next
    /// superstep's candidates back into `state.queues` through the run's
    /// channel (one fresh round per attempt).  Returns the superstep's
    /// cluster-agreed stats and leaves the cluster-wide count of pending
    /// candidates in `state.pending`.  On failure the solution partitions
    /// are restored (the pool waits for every sibling task), but the queue
    /// contents of the failed superstep are consumed — the caller recovers
    /// by restoring a checkpoint or surfacing the error.  (A failure
    /// mid-exchange abandons the round's partial channel state; the round
    /// is never reused, so a retry starts clean.)
    #[allow(clippy::too_many_arguments)]
    fn superstep_once(
        &self,
        superstep: usize,
        state: &mut SuperstepState,
        comms: &SuperstepComms,
        constant_index: &[JoinIndex],
        router: &PartitionRouter,
        spill: &SpillManager,
        config: &RunConfig,
    ) -> Result<IterationStats> {
        let parallelism = config.parallelism;
        let step_start = Instant::now();
        state.round += 1;
        let worksets = std::mem::take(&mut state.queues);
        // This process's share of the superstep's counters (see
        // `SuperstepTotals`); the cluster-wide row is agreed on below.
        let mut local = SuperstepTotals::default();

        let mut solution_partitions = state.solution.take_partitions();
        // Run the step function locally in every partition, one task per
        // partition on the persistent worker pool.  On the long tail
        // (hundreds of tiny supersteps) this dispatch — a deque push per
        // partition — *is* the superstep cost, which is why the pool
        // replaced the former per-superstep `std::thread::scope` spawns.
        let fault = &config.exec.fault;
        let mut output_slots: Vec<Option<Result<PartitionOutput>>> =
            (0..parallelism).map(|_| None).collect();
        let scope_result = spinning_pool::global().try_scope(|scope| {
            for (partition, (((s_part, workset), scratch), slot)) in solution_partitions
                .iter_mut()
                .zip(worksets)
                .zip(state.scratch.iter_mut())
                .zip(output_slots.iter_mut())
                .enumerate()
            {
                let constant = &constant_index[partition];
                scope.spawn_labeled("workset-superstep", move || {
                    fault.panic_check(FaultSite::WorkerPanic, "workset-superstep");
                    *slot = Some(self.run_partition_superstep(
                        partition, s_part, workset, constant, router, spill, config, scratch,
                    ));
                });
            }
        });
        // The pool waits for every task before `try_scope` returns, so the
        // partitions can always be handed back — even when a sibling task
        // panicked or failed.
        state.solution.restore_partitions(solution_partitions);
        if let Err(panic) = scope_result {
            return Err(DataflowError::WorkerPanic {
                operator: "workset-superstep".into(),
                superstep,
                message: panic.message(),
            });
        }
        // `try_scope` waited for every task, and a panicking one already
        // returned above: every slot is filled.
        let outputs = output_slots
            .into_iter()
            .map(|slot| slot.expect("pool ran every superstep partition"))
            .collect::<Result<Vec<PartitionOutput>>>()?;

        // The superstep queue switch: every partition's outbox ships through
        // the shared exchange layer, and what it delivers *is* the next
        // superstep's queues.
        let outboxes = outputs.into_iter().map(|output| {
            local.inspected += output.inspected as u64;
            local.changed += output.changed as u64;
            output.outbox
        });
        let (queues, shipped) = exchange::ship(
            outboxes,
            parallelism,
            &*comms.channel,
            &comms.cluster,
            state.round,
        )?;
        state.queues = queues;
        local.sent = shipped.sent_records as u64;
        local.shipped = shipped.shipped_records as u64;
        local.delivered = comms
            .cluster
            .owned_range(parallelism)
            .map(|p| state.queues[p].record_count() as u64)
            .sum();
        local.spilled_bytes = shipped.spilled_bytes as u64;
        local.spilled_runs = shipped.spilled_runs as u64;
        local.queue_high_water = shipped.pages_high_water as u64;

        // Agree on the superstep cluster-wide: one all-gather merges the
        // per-process counters, so every process records identical rows and
        // takes the same convergence decision.
        let mut totals = SuperstepTotals::default();
        for slots in
            config
                .exec
                .transport
                .all_gather(comms.stats_channel, state.round, &local.to_slots())?
        {
            totals.merge(&SuperstepTotals::from_slots(&slots)?);
        }
        let mut stats = IterationStats::for_iteration(superstep);
        // What this superstep consumed is what the last one sent (or the
        // initial working set), counted before any fold.
        stats.workset_size = state.pending as usize;
        stats.elements_inspected = totals.inspected as usize;
        stats.elements_changed = totals.changed as usize;
        stats.messages_sent = totals.sent as usize;
        stats.messages_shipped = totals.shipped as usize;
        stats.messages_delivered = totals.delivered as usize;
        stats.spilled_bytes = totals.spilled_bytes as usize;
        stats.spilled_runs = totals.spilled_runs as usize;
        stats.queue_high_water = totals.queue_high_water as usize;
        stats.elapsed = step_start.elapsed();
        // Every candidate sent reaches a queue, folded or not, so the next
        // superstep has work exactly when this one sent any.
        state.pending = totals.sent;
        Ok(stats)
    }

    /// Executes one superstep inside one partition.
    #[allow(clippy::too_many_arguments)]
    fn run_partition_superstep(
        &self,
        partition: usize,
        s_part: &mut PartitionIndex,
        workset: ExchangedPartition,
        constant: &JoinIndex,
        router: &PartitionRouter,
        spill: &SpillManager,
        config: &RunConfig,
        scratch: &mut StepScratch,
    ) -> Result<PartitionOutput> {
        let StepScratch {
            pool,
            grouping,
            combiners,
        } = scratch;
        // The page buffers this partition drained *last* superstep seed this
        // superstep's outbox, closing the recycling loop: at steady state the
        // exchange writes into memory it emptied one superstep earlier
        // instead of allocating.  A declared combine folds the candidates
        // per target before they are serialized, where the exchange cannot
        // spill.
        let mut outbox = Outbox::new(partition, router.parallelism(), spill);
        outbox.seed(pool);
        if let Some(combine) = self.folds(config) {
            if combiners.is_empty() {
                // First superstep, or the outbox holding them failed.
                combiners.extend(
                    (0..router.parallelism())
                        .map(|_| Combiner::new(Arc::clone(combine), self.workset_key.clone())),
                );
            }
            outbox.combine_with(combiners);
        }
        let mut out = CandidateSink {
            outbox: &mut outbox,
            router,
            workset_key: &self.workset_key,
        };
        let mut step = PartitionStep::new(self, s_part, constant);
        let mut inspected = 0;

        let drained = if config.mode == ExecutionMode::Microstep {
            inspected = workset.record_count();
            step.microsteps(workset, spill.fault(), &mut out)?
        } else {
            // Page-native InnerCoGroup: the candidates are grouped straight
            // off their sealed pages and spilled runs by the shared kernel
            // (`dataflow::page::for_each_key_group`), which merges key-sorted
            // spilled candidate runs in off disk one frame at a time and
            // hands each group out as views.  Each update's delta is applied
            // and expanded immediately: a key is updated at most once per
            // pass, so no probe can observe another key's fresh delta and the
            // in-place application is observably identical to applying every
            // delta after the whole group pass (superstep semantics) — same
            // groups, same candidate order, same delta and emission order.
            workset.check_spill_read(spill.fault())?;
            for_each_key_group(&workset, &self.workset_key, grouping, |key, candidates| {
                inspected += 1;
                if step.update(key, candidates) {
                    step.apply(&mut out);
                }
            })?;
            workset.into_pieces().0
        };
        let changed = step.changed;
        // The drained pages become the next superstep's outbox buffers: a
        // pool as large as what this superstep consumed covers the steady
        // state without allocating and shrinks with the workset.  Sealing
        // here, inside the partition's task, lets the partitions' final
        // flushes overlap.
        pool.set_limit(drained.len());
        pool.recycle_all(drained);
        outbox.seal()?;
        if combiners.is_empty() {
            *combiners = outbox.take_combiners();
        }
        Ok(PartitionOutput {
            outbox,
            inspected,
            changed,
        })
    }
}

/// One partition's side of the step function — its solution partition and
/// its constant-path index — with the buffers its update and expand calls
/// reuse.  Both modes run a superstep's join and expansion through it.
struct PartitionStep<'p> {
    iteration: &'p WorksetIteration<'p>,
    solution: &'p mut PartitionIndex,
    constant: &'p JoinIndex,
    /// The update function emits its delta here; the merge serializes it
    /// into the solution set (a delta has at least its key field, so an
    /// empty buffer is "no delta").
    delta: LastEmitted,
    /// The key of the delta being applied.
    delta_key: Key,
    /// The constant records matching the delta being applied.
    matches: Vec<RecordView<'p>>,
    /// Deltas that changed the solution.
    changed: usize,
}

impl<'p> PartitionStep<'p> {
    fn new(
        iteration: &'p WorksetIteration<'p>,
        solution: &'p mut PartitionIndex,
        constant: &'p JoinIndex,
    ) -> PartitionStep<'p> {
        PartitionStep {
            iteration,
            solution,
            constant,
            delta: LastEmitted::default(),
            delta_key: Key::Long(0),
            matches: Vec::new(),
            changed: 0,
        }
    }

    /// Runs the update function on `key`'s candidates against the stored
    /// record, and returns whether it emitted a delta.
    fn update(&mut self, key: &Key, candidates: &[RecordView<'_>]) -> bool {
        self.delta.0.clear();
        let current = self.solution.get(key);
        self.iteration
            .update
            .update(key, current, candidates, &mut self.delta);
        !self.delta.0.is_empty()
    }

    /// The `Match` variant of the join, the microstep mode's superstep:
    /// one candidate at a time, each delta visible to the next candidate.
    /// Every candidate of `workset` is handed to the update function as a
    /// view of its queue page — or of its spilled run's frame buffer,
    /// streamed straight off disk — without being copied, and its delta is
    /// applied and expanded into `out` at once.  Returns the drained pages,
    /// whose buffers the caller recycles.
    fn microsteps(
        &mut self,
        workset: ExchangedPartition,
        fault: &FaultInjector,
        out: &mut dyn RecordSink,
    ) -> Result<Vec<Arc<RecordPage>>> {
        let iteration = self.iteration;
        let mut key = Key::Long(0);
        let mut one = |step: &mut Self, candidate: RecordView<'_>| {
            candidate.key_into(&iteration.workset_key, &mut key);
            if step.update(&key, &[candidate]) {
                step.apply(out);
            }
        };
        let (pages, runs) = workset.into_pieces();
        for page in &pages {
            for candidate in page.reader() {
                one(self, candidate);
            }
        }
        for run in &runs {
            fault.io_check(FaultSite::SpillRead)?;
            let mut cursor = run.cursor()?;
            while cursor.step()? {
                one(self, cursor.view());
            }
        }
        Ok(pages)
    }

    /// Merges the emitted delta into the solution partition and, when it
    /// changed the solution, expands it from its stored bytes into `out`.
    fn apply(&mut self, out: &mut dyn RecordSink) {
        let (iteration, delta, key) = (self.iteration, &self.delta.0, &mut self.delta_key);
        key.assign_fields(delta, &iteration.solution_key);
        if !self
            .solution
            .merge_fields(&iteration.comparator, key, delta)
            .applied()
        {
            return;
        }
        self.changed += 1;
        let stored = self
            .solution
            .get(key)
            .expect("an applied delta is stored under its key");
        self.matches.clear();
        self.matches
            .extend(self.constant.matches(delta, &iteration.delta_key));
        iteration.expand.expand(stored, &self.matches, out);
    }
}

/// A workset queue holding the pages `writer` wrote.
fn paged_queue(writer: PageWriter) -> ExchangedPartition {
    ExchangedPartition::new(writer.finish())
}

/// The sink the expand UDF emits into during a superstep: routes each
/// candidate on the workset key and hands it to the partition's outbox,
/// where it is serialized into the page of its target partition.  Emitted
/// and forwarded candidates take the same road — the queues of a superstep
/// run hold pages, never heap records.
struct CandidateSink<'a> {
    outbox: &'a mut Outbox,
    router: &'a PartitionRouter,
    workset_key: &'a [usize],
}

impl RecordSink for CandidateSink<'_> {
    #[inline]
    fn emit(&mut self, fields: &[Value]) {
        let target = self.router.route_fields(fields, self.workset_key);
        self.outbox.emit(target, fields);
    }
}

/// Per-partition buffers reused across supersteps by the workset driver.
#[derive(Default)]
struct StepScratch {
    /// Page buffers recovered from consumed workset pages, reissued to the
    /// next superstep's outbox writers, so steady-state supersteps allocate
    /// no new pages.  Bounded, superstep by superstep, by the number of
    /// pages the partition just drained.
    pool: PagePool,
    /// Buffers of the page-native grouping (grow to the largest workset and
    /// spilled group, then stay).
    grouping: GroupScratch,
    /// One fold table per target when candidates combine (empty
    /// otherwise); lent to each superstep's outbox, so the tables keep
    /// their capacity from superstep to superstep.
    combiners: Vec<Combiner>,
}

/// The run-wide communication state of the superstep loop: one page channel
/// carries every superstep exchange and one barrier channel carries the
/// per-superstep stats agreement.  Both are allocated before the first
/// superstep, in the same order on every process (the transport's SPMD
/// contract).
struct SuperstepComms {
    /// The cluster shape (a single-process run is a cluster of one).
    cluster: ClusterSpec,
    /// The channel the superstep exchange ships sealed pages through.
    channel: SharedPageChannel,
    /// The barrier channel of the per-superstep stats all-gather.
    stats_channel: ChannelId,
}

/// Everything a superstep reads and replaces — the state a checkpoint
/// snapshots and a recovery reinstalls, plus the buffers that ride along.
struct SuperstepState {
    solution: SolutionSet,
    /// One pending workset per partition: what the last exchange delivered.
    queues: Vec<ExchangedPartition>,
    /// Cluster-wide count of pending candidates, as emitted (before any
    /// fold); the run ends at 0.
    pending: u64,
    /// Round of the run's channel the last attempt used; every attempt —
    /// successful or not — takes the next one.
    round: u64,
    scratch: Vec<StepScratch>,
}

/// What one partition produces during a superstep: its routed candidates
/// plus the join counters.
struct PartitionOutput {
    outbox: Outbox,
    inspected: usize,
    changed: usize,
}

/// The per-superstep counters a cluster agrees on through one `all_gather`.
/// The slot order is the wire format — every process of a cluster must run
/// the same build, and the `mini_cluster` traces pin it.  The working set a
/// superstep consumed and the candidates pending after it need no slot:
/// both are counts of emitted candidates every process already agreed on
/// (the last row's `sent`, or the initial working set's size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SuperstepTotals {
    inspected: u64,
    changed: u64,
    sent: u64,
    shipped: u64,
    /// Candidates the exchange delivered into the next queues, after the
    /// fold.
    delivered: u64,
    spilled_bytes: u64,
    spilled_runs: u64,
    queue_high_water: u64,
}

impl SuperstepTotals {
    fn to_slots(self) -> [u64; 8] {
        [
            self.inspected,
            self.changed,
            self.sent,
            self.shipped,
            self.delivered,
            self.spilled_bytes,
            self.spilled_runs,
            self.queue_high_water,
        ]
    }

    /// Reads one process's row back.  A row of another length comes from a
    /// peer on another build, and is a cluster setup error, not a panic.
    fn from_slots(slots: &[u64]) -> Result<SuperstepTotals> {
        let Ok(slots) = <[u64; 8]>::try_from(slots) else {
            return Err(DataflowError::CommSetup(format!(
                "superstep stats row has {} slots, this build expects 8 \
                 (is every worker running the same build?)",
                slots.len()
            )));
        };
        Ok(SuperstepTotals {
            inspected: slots[0],
            changed: slots[1],
            sent: slots[2],
            shipped: slots[3],
            delivered: slots[4],
            spilled_bytes: slots[5],
            spilled_runs: slots[6],
            queue_high_water: slots[7],
        })
    }

    /// Folds another process's counters in: every counter sums, except the
    /// queue high-water mark, which is a maximum over the processes.
    fn merge(&mut self, other: &SuperstepTotals) {
        self.inspected += other.inspected;
        self.changed += other.changed;
        self.sent += other.sent;
        self.shipped += other.shipped;
        self.delivered += other.delivered;
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_runs += other.spilled_runs;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
    }
}

impl<'a> WorksetIterationBuilder<'a> {
    /// Sets the constant ("topology") input and its join keys: `constant_key`
    /// are the key fields of the constant records, `delta_key` the fields of
    /// a delta record used to look them up.  The source is shared, not
    /// copied: `Arc<Vec<Record>>` for records that exist, or a description
    /// that may borrow for `'a`.
    pub fn constant_input(
        mut self,
        source: Arc<impl RecordSource + 'a>,
        constant_key: KeyFields,
        delta_key: KeyFields,
    ) -> Self {
        self.iteration.constant_input = source;
        self.iteration.constant_key = constant_key;
        self.iteration.delta_key = delta_key;
        self
    }

    /// Installs a comparator resolving conflicting delta records during the
    /// `∪̇` merge (the record closer to the supremum of the CPO wins).
    pub fn comparator(mut self, comparator: RecordComparator) -> Self {
        self.iteration.comparator = Some(comparator);
        self
    }

    /// Declares how two candidates that share a workset key fold into one
    /// (a combiner): in batch-incremental mode the candidates are folded
    /// per target before they are serialized — in the load step, and in
    /// every superstep exchange that cannot spill — so the update function
    /// sees at most one candidate per key from each source.  The update
    /// function must compute from a folded group what it computes from the
    /// whole group (`reference::laws` tests exactly that).  The microstep
    /// modes, which update once per candidate, never fold.
    pub fn combine(mut self, combine: Arc<dyn CombineFunction>) -> Self {
        self.iteration.combine = Some(combine);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> WorksetIteration<'a> {
        self.iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use dataflow::contracts::SourceClosure;
    use dataflow::prelude::ExecConfig;
    use dataflow::prelude::{
        default_physical_plan, Executor, MemoryBudget, Plan, SinkPages, TransportHandle,
    };
    use reference::fixpoint::{batch_fixpoint, Fixpoint, WorksetStep};

    /// A tiny "propagate the minimum" iteration over a 4-vertex path graph
    /// 0 - 1 - 2 - 3: solution records are (vid, value), workset records are
    /// (vid, candidate value), and the constant input holds the edges.
    fn min_propagation() -> WorksetIteration<'static> {
        let update = Arc::new(UpdateClosure(
            |key: &Key,
             current: Option<RecordView<'_>>,
             candidates: &[RecordView<'_>],
             delta: &mut dyn RecordSink| {
                let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
                if current.is_none_or(|c| c.long(1) > best) {
                    delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
                }
            },
        ));
        let expand = Arc::new(ExpandClosure(
            |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
                for e in edges {
                    out.emit(&[Value::Long(e.long(1)), Value::Long(delta.long(1))]);
                }
            },
        ));
        let edges: Vec<Record> = vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
            .into_iter()
            .map(|(a, b)| Record::pair(a, b))
            .collect();
        WorksetIteration::builder(vec![0], vec![0], update, expand)
            .constant_input(Arc::new(edges), vec![0], vec![0])
            .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
            .build()
    }

    fn initial_state() -> (Vec<Record>, Vec<Record>) {
        let solution: Vec<Record> = (0..4).map(|v| Record::pair(v, v + 10)).collect();
        // Seed the workset with each vertex's own value as a candidate for its
        // neighbours.
        let workset = vec![
            Record::pair(1, 10),
            Record::pair(0, 11),
            Record::pair(2, 11),
            Record::pair(1, 12),
            Record::pair(3, 12),
            Record::pair(2, 13),
        ];
        (solution, workset)
    }

    fn check_converged(result: &WorksetResult) {
        let mut solution = result.solution.clone();
        solution.sort();
        assert_eq!(
            solution,
            vec![
                Record::pair(0, 10),
                Record::pair(1, 10),
                Record::pair(2, 10),
                Record::pair(3, 10)
            ]
        );
    }

    #[test]
    fn batch_incremental_reaches_the_fixpoint() {
        let (solution, workset) = initial_state();
        let iteration = min_propagation();
        let result = iteration
            .run(solution, workset, &RunConfig::new(2))
            .unwrap();
        check_converged(&result);
        assert!(result.converged);
        assert!(
            result.supersteps >= 3,
            "minimum needs to travel across the path"
        );
    }

    #[test]
    fn microstep_mode_reaches_the_same_fixpoint() {
        let (solution, workset) = initial_state();
        let iteration = min_propagation();
        let result = iteration
            .run(
                solution,
                workset,
                &RunConfig::new(2).with_mode(ExecutionMode::Microstep),
            )
            .unwrap();
        check_converged(&result);
    }

    #[test]
    fn parallelism_does_not_change_the_result() {
        let iteration = min_propagation();
        for parallelism in [1, 2, 4, 8] {
            let (solution, workset) = initial_state();
            let result = iteration
                .run(solution, workset, &RunConfig::new(parallelism))
                .unwrap();
            check_converged(&result);
        }
    }

    #[test]
    fn empty_workset_terminates_immediately() {
        let iteration = min_propagation();
        let result = iteration
            .run(vec![Record::pair(0, 5)], vec![], &RunConfig::new(2))
            .unwrap();
        assert_eq!(result.supersteps, 0);
        assert!(result.converged);
        assert_eq!(result.solution, vec![Record::pair(0, 5)]);
    }

    #[test]
    fn workset_shrinks_as_the_iteration_converges() {
        let (solution, workset) = initial_state();
        let iteration = min_propagation();
        let result = iteration
            .run(solution, workset, &RunConfig::new(1))
            .unwrap();
        let sizes: Vec<usize> = result
            .stats
            .per_iteration
            .iter()
            .map(|s| s.workset_size)
            .collect();
        assert!(sizes.last().copied().unwrap_or(0) <= sizes[0]);
        // The last superstep changes nothing (it only confirms convergence).
        assert_eq!(
            result.stats.per_iteration.last().unwrap().elements_changed,
            0
        );
    }

    #[test]
    fn max_supersteps_bounds_the_run() {
        let (solution, workset) = initial_state();
        let iteration = min_propagation();
        let result = iteration
            .run(solution, workset, &RunConfig::new(2).with_max_steps(1))
            .unwrap();
        assert_eq!(result.supersteps, 1);
        // Hitting the superstep bound must be observable: the solution is
        // truncated, not a fixpoint.
        assert!(!result.converged);
    }

    #[test]
    fn truncated_run_becomes_converged_with_enough_supersteps() {
        let iteration = min_propagation();
        let (solution, workset) = initial_state();
        let full = iteration
            .run(solution, workset, &RunConfig::new(2))
            .unwrap();
        assert!(full.converged);
        // Bounding the run below the natural superstep count truncates it
        // (converged == false); at or above, the flag flips back to true.
        for max in 1..full.supersteps + 2 {
            let (solution, workset) = initial_state();
            let result = iteration
                .run(solution, workset, &RunConfig::new(2).with_max_steps(max))
                .unwrap();
            assert_eq!(
                result.converged,
                max >= full.supersteps,
                "max_steps={max}: ran {} supersteps",
                result.supersteps
            );
            if result.converged {
                check_converged(&result);
            }
        }
    }

    #[test]
    fn zero_parallelism_is_rejected() {
        let iteration = min_propagation();
        let mut config = RunConfig::new(1);
        config.parallelism = 0;
        assert!(iteration.run(vec![], vec![], &config).is_err());
    }

    /// Min propagation over a denser 96-vertex graph (ring plus chords), so
    /// keys receive several candidates per superstep and candidates cross
    /// partitions — the shapes the page-native grouping must reproduce
    /// exactly.
    fn dense_min_propagation() -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
        dense_min_propagation_emitting(true)
    }

    /// The dense job's inputs — edges, initial solution, initial workset —
    /// described as sources: nothing here is a heap record.
    fn dense_inputs() -> (impl RecordSource, impl RecordSource, impl RecordSource) {
        const N: i64 = 96;
        let pairs = |len, pair: fn(i64) -> [Value; 2]| {
            SourceClosure::new(len, move |out: &mut dyn RecordSink| {
                (0..N).for_each(|v| out.emit(&pair(v)))
            })
        };
        let edges = SourceClosure::new(4 * N as usize, |out: &mut dyn RecordSink| {
            for v in 0..N {
                for u in [(v + 1) % N, (v * 7 + 3) % N] {
                    out.emit(&[Value::Long(v), Value::Long(u)]);
                    out.emit(&[Value::Long(u), Value::Long(v)]);
                }
            }
        });
        let solution = pairs(N as usize, |v| [Value::Long(v), Value::Long(v + 1000)]);
        let workset = pairs(N as usize, |v| {
            [Value::Long((v + 1) % N), Value::Long(v + 1000)]
        });
        (edges, solution, workset)
    }

    /// [`dense_min_propagation`] with the expansion either emitting each
    /// candidate's fields or forwarding it serialized, over the collected
    /// records of [`dense_inputs`].
    fn dense_min_propagation_emitting(
        emit_fields: bool,
    ) -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
        let (edges, solution, workset) = dense_inputs();
        (
            dense_iteration(Arc::new(edges.collect()), emit_fields),
            solution.collect(),
            workset.collect(),
        )
    }

    fn dense_iteration(
        edges: Arc<impl RecordSource + 'static>,
        emit_fields: bool,
    ) -> WorksetIteration<'static> {
        let update = Arc::new(UpdateClosure(
            |key: &Key,
             current: Option<RecordView<'_>>,
             candidates: &[RecordView<'_>],
             delta: &mut dyn RecordSink| {
                let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
                if current.is_none_or(|c| c.long(1) > best) {
                    delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
                }
            },
        ));
        let expand = Arc::new(ExpandClosure(
            move |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
                for e in edges {
                    let fields = [Value::Long(e.long(1)), Value::Long(delta.long(1))];
                    if emit_fields {
                        out.emit(&fields);
                    } else {
                        let mut page = PageWriter::new();
                        let record = page.push_fields(&fields);
                        out.forward(page.view(record));
                    }
                }
            },
        ));
        WorksetIteration::builder(vec![0], vec![0], update, expand)
            .constant_input(edges, vec![0], vec![0])
            .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
            .build()
    }

    /// Asserts two runs took the same supersteps: same count, same outcome,
    /// identical per-superstep counters.
    fn assert_same_trace(ours: &WorksetResult, theirs: &WorksetResult, label: &str) {
        assert_eq!(ours.supersteps, theirs.supersteps, "{label}");
        assert_eq!(ours.converged, theirs.converged, "{label}");
        let (ours, theirs) = (&ours.stats.per_iteration, &theirs.stats.per_iteration);
        assert_eq!(ours.len(), theirs.len(), "{label}");
        for (a, b) in ours.iter().zip(theirs) {
            assert_eq!(a.workset_size, b.workset_size, "{label}");
            assert_eq!(a.elements_inspected, b.elements_inspected, "{label}");
            assert_eq!(a.elements_changed, b.elements_changed, "{label}");
            assert_eq!(a.messages_sent, b.messages_sent, "{label}");
            assert_eq!(a.messages_shipped, b.messages_shipped, "{label}");
        }
    }

    /// `iteration` as the reference fixpoint evaluator runs it at `config`:
    /// the same keys, constant input and user functions, and the combine
    /// where the superstep exchange folds with it (in batch mode, when it
    /// cannot spill).
    fn reference_step(iteration: &WorksetIteration<'_>, config: &RunConfig) -> WorksetStep {
        let folds =
            config.exec.memory_budget.is_unlimited() && config.exec.channel_credits.is_none();
        let (update, expand) = (Arc::clone(&iteration.update), Arc::clone(&iteration.expand));
        WorksetStep {
            solution_key: iteration.solution_key.clone(),
            workset_key: iteration.workset_key.clone(),
            constant: iteration.constant_input.collect(),
            constant_key: iteration.constant_key.clone(),
            delta_key: iteration.delta_key.clone(),
            update: Arc::new(
                move |key: &Key,
                      current: Option<RecordView<'_>>,
                      candidates: &[RecordView<'_>],
                      delta: &mut dyn RecordSink| {
                    update.update(key, current, candidates, delta)
                },
            ),
            expand: Arc::new(
                move |delta: RecordView<'_>,
                      matches: &[RecordView<'_>],
                      out: &mut dyn RecordSink| {
                    expand.expand(delta, matches, out)
                },
            ),
            comparator: iteration.comparator.clone(),
            combine: iteration.folds(config).filter(|_| folds).cloned(),
        }
    }

    /// The evaluator's batch supersteps of `iteration` at `config`'s
    /// parallelism and superstep bound.
    fn reference_fixpoint(
        iteration: &WorksetIteration<'_>,
        solution: &[Record],
        workset: &[Record],
        config: &RunConfig,
    ) -> Fixpoint {
        batch_fixpoint(
            &reference_step(iteration, config),
            config.parallelism,
            solution.to_vec(),
            workset.to_vec(),
            config.max_steps,
        )
    }

    /// Asserts a batch run took the evaluator's supersteps — identical
    /// per-superstep counters — and reached its solution.  The solution set
    /// emits its records in index order, so the solutions compare sorted.
    fn assert_matches_fixpoint(run: &WorksetResult, fixpoint: &Fixpoint, label: &str) {
        let mut solution = run.solution.clone();
        solution.sort();
        assert_eq!(solution, fixpoint.solution, "{label}");
        assert_eq!(run.converged, fixpoint.converged, "{label}");
        let rows = |run: &WorksetResult| -> Vec<[usize; 6]> {
            let rows = run.stats.per_iteration.iter();
            rows.map(|s| {
                [
                    s.workset_size,
                    s.elements_inspected,
                    s.elements_changed,
                    s.messages_sent,
                    s.messages_shipped,
                    s.messages_delivered,
                ]
            })
            .collect()
        };
        let reference: Vec<[usize; 6]> = fixpoint
            .supersteps
            .iter()
            .map(|s| {
                [
                    s.workset_size,
                    s.inspected,
                    s.changed,
                    s.messages,
                    s.shipped,
                    s.delivered,
                ]
            })
            .collect();
        assert_eq!(rows(run), reference, "{label}");
    }

    /// A min combine on field 1: the candidate with the smaller value is
    /// held.
    fn min_on_field_1() -> Arc<dyn CombineFunction> {
        Arc::new(dataflow::prelude::CombineClosure(
            |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
                if candidate[1].as_long() < held.long(1) {
                    out.emit(candidate);
                }
            },
        ))
    }

    /// Batch supersteps take the reference evaluator's supersteps with the
    /// same counters and solution, and a microstep run reaches its fixpoint,
    /// across parallelism and memory budgets (including the
    /// spill-forced budget, where the kernel merges the spilled candidate
    /// runs in), with and without a declared combine.  Two runs of one
    /// configuration emit the same solution records in the same order.
    #[test]
    fn batch_and_microstep_runs_match_the_reference_fixpoint() {
        let (plain, solution, workset) = dense_min_propagation();
        let mut folding = plain.clone();
        folding.combine = Some(min_on_field_1());
        for (iteration, mode) in [&plain, &folding].into_iter().flat_map(|iteration| {
            [ExecutionMode::BatchIncremental, ExecutionMode::Microstep]
                .map(|mode| (iteration, mode))
        }) {
            for parallelism in [1usize, 4] {
                for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(0)] {
                    let exec = ExecConfig::new().with_memory_budget(budget);
                    let config = RunConfig::new(parallelism)
                        .with_mode(mode)
                        .with_exec(exec.clone());
                    let label = format!(
                        "{mode:?}/p{parallelism}/budget {:?}/combine {}",
                        budget.limit(),
                        iteration.combine.is_some()
                    );
                    let run = || {
                        iteration
                            .run(solution.clone(), workset.clone(), &config)
                            .unwrap()
                    };
                    let (paged, again) = (run(), run());
                    assert_eq!(paged.solution, again.solution, "{label}: rerun");
                    assert!(paged.converged, "{label}");
                    let fixpoint = reference_fixpoint(iteration, &solution, &workset, &config);
                    if mode == ExecutionMode::BatchIncremental {
                        assert_matches_fixpoint(&paged, &fixpoint, &label);
                    } else {
                        let mut reached = paged.solution.clone();
                        reached.sort();
                        assert_eq!(reached, fixpoint.solution, "{label}");
                    }
                    // The zero budget must actually exercise the spilled
                    // path wherever candidates ship between partitions.
                    if budget == MemoryBudget::bytes(0) && parallelism > 1 {
                        assert!(
                            paged.stats.total_spilled_bytes() > 0,
                            "{label}: expected spilled candidates"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn text_and_composite_keys_group_on_pages_like_the_reference_form() {
        use dataflow::prelude::Value;
        // Text-keyed min propagation on a 3-vertex path: the page-native
        // grouping orders the Text keys in place on their bytes, and must
        // agree exactly with the forced materializing run.
        let update = Arc::new(UpdateClosure(
            |key: &Key,
             current: Option<RecordView<'_>>,
             candidates: &[RecordView<'_>],
             delta: &mut dyn RecordSink| {
                let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
                if current.is_none_or(|c| c.long(1) > best) {
                    delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
                }
            },
        ));
        // Emitted by reference: the sink routes on the `Text` key field of
        // the slice and serializes it; nothing on the way assumes a `Long`.
        let expand = Arc::new(ExpandClosure(
            |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
                for e in edges {
                    let target = e.materialize().field(1).clone();
                    out.emit(&[target, Value::Long(delta.long(1))]);
                }
            },
        ));
        let names = ["a", "b", "c"];
        let mut edges = Vec::new();
        for w in [["a", "b"], ["b", "c"]] {
            edges.push(Record::new(vec![
                Value::Text(w[0].into()),
                Value::Text(w[1].into()),
            ]));
            edges.push(Record::new(vec![
                Value::Text(w[1].into()),
                Value::Text(w[0].into()),
            ]));
        }
        let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
            .constant_input(Arc::new(edges), vec![0], vec![0])
            .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
            .build();
        let solution: Vec<Record> = names
            .iter()
            .enumerate()
            .map(|(i, n)| Record::new(vec![Value::Text((*n).into()), Value::Long(10 + i as i64)]))
            .collect();
        let workset: Vec<Record> = vec![
            Record::new(vec![Value::Text("b".into()), Value::Long(10)]),
            Record::new(vec![Value::Text("c".into()), Value::Long(11)]),
        ];
        let paged = assert_regimes_agree(&iteration, &solution, &workset, "text path", false);
        assert!(paged.solution.iter().all(|r| r.long(1) == 10));
        // Both candidates of the first superstep reach their vertex, and the
        // second superstep's candidates come out of the sink.
        assert_eq!(paged.stats.per_iteration[0].workset_size, 2);
        assert!(paged.stats.per_iteration[1].workset_size > 0);

        // Rings large enough that a writer seals several candidate pages a
        // superstep, so two credits flush too: a `Text` key and a
        // `[Long, Long]` composite, both flushed, merged and grouped on
        // their pages.
        let text = |v: i64| vec![Value::Text(format!("v{v}"))];
        let pair = |v: i64| vec![Value::Long(v / 64), Value::Long(v % 64)];
        for (label, width, id) in [
            ("text ring", 1, &text as &dyn Fn(i64) -> Vec<Value>),
            ("[Long, Long] ring", 2, &pair),
        ] {
            let (iteration, solution, workset) = keyed_ring(4_000, width, id);
            let paged = assert_regimes_agree(&iteration, &solution, &workset, label, true);
            assert!(
                paged.solution.iter().all(|r| r.long(width) == 1000),
                "{label}"
            );
        }
    }

    /// Runs `iteration` at parallelism 2 unbudgeted, asserts it matches the
    /// reference evaluator, then runs it at budget 0 (every sealed candidate
    /// page flushes) and under two page credits, and asserts both equal the
    /// unbudgeted run: the same solution records in the same order and the
    /// same superstep trace.  With `must_spill`, both budgeted runs must
    /// actually have spilled.  Returns the unbudgeted run.
    fn assert_regimes_agree(
        iteration: &WorksetIteration<'static>,
        solution: &[Record],
        workset: &[Record],
        label: &str,
        must_spill: bool,
    ) -> WorksetResult {
        let config = RunConfig::new(2);
        let exec = &config.exec;
        let baseline = iteration
            .run(solution.to_vec(), workset.to_vec(), &config)
            .unwrap();
        assert!(baseline.converged, "{label}");
        let fixpoint = reference_fixpoint(iteration, solution, workset, &config);
        assert_matches_fixpoint(&baseline, &fixpoint, &format!("{label}, reference"));
        for (regime, variant, spills) in [
            (
                "budget 0",
                exec.clone().with_memory_budget(MemoryBudget::bytes(0)),
                must_spill,
            ),
            (
                "2 credits",
                exec.clone().with_channel_credits(2),
                must_spill,
            ),
        ] {
            let variant = config.clone().with_exec(variant);
            let label = format!("{label}, {regime}");
            let run = iteration
                .run(solution.to_vec(), workset.to_vec(), &variant)
                .unwrap();
            assert_eq!(run.solution, baseline.solution, "{label}");
            assert_same_trace(&run, &baseline, &label);
            if spills {
                assert!(run.stats.total_spilled_bytes() > 0, "{label}: no spill");
            }
        }
        baseline
    }

    /// Min propagation over a ring of `n` vertices with chords, whose vertex
    /// ids `id` encodes as `width` key fields — keys whose prefix is inexact,
    /// so the kernel compares them in place.  Records are the id's fields
    /// followed by a `Long`
    /// label (solution, candidates) or by the neighbour's id (edges); every
    /// label converges to 1000.
    fn keyed_ring(
        n: i64,
        width: usize,
        id: &dyn Fn(i64) -> Vec<Value>,
    ) -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
        let key: KeyFields = (0..width).collect();
        let update = Arc::new(UpdateClosure(
            move |key: &Key,
                  current: Option<RecordView<'_>>,
                  candidates: &[RecordView<'_>],
                  delta: &mut dyn RecordSink| {
                let best = candidates.iter().map(|r| r.long(width)).min().unwrap();
                if current.is_none_or(|c| c.long(width) > best) {
                    let mut fields = key.values().to_vec();
                    fields.push(Value::Long(best));
                    delta.emit(&fields);
                }
            },
        ));
        let expand = Arc::new(ExpandClosure(
            move |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
                for e in edges {
                    let mut fields = e.materialize().fields()[width..].to_vec();
                    fields.push(Value::Long(delta.long(width)));
                    out.emit(&fields);
                }
            },
        ));
        let labelled = |v: i64, label: i64| {
            let mut fields = id(v);
            fields.push(Value::Long(label));
            Record::new(fields)
        };
        let mut edges = Vec::new();
        for v in 0..n {
            for u in [(v + 1) % n, (v * 7 + 3) % n] {
                edges.push(Record::new([id(v), id(u)].concat()));
                edges.push(Record::new([id(u), id(v)].concat()));
            }
        }
        let iteration = WorksetIteration::builder(key.clone(), key.clone(), update, expand)
            .constant_input(Arc::new(edges), key.clone(), key)
            .comparator(Arc::new(move |a: &Record, b: &Record| {
                b.long(width).cmp(&a.long(width))
            }))
            .build();
        let solution = (0..n).map(|v| labelled(v, v + 1000)).collect();
        let workset = (0..n).map(|v| labelled((v + 1) % n, v + 1000)).collect();
        (iteration, solution, workset)
    }

    #[test]
    fn failed_checkpoint_writes_are_counted_not_fatal() {
        let (solution, workset) = initial_state();
        let iteration = min_propagation();
        let dir =
            std::env::temp_dir().join(format!("spinning-ckpt-fail-test-{}", std::process::id()));
        // The very first checkpoint write (the superstep-0 snapshot) fails;
        // the run must proceed on no checkpoint, reach the fixpoint, and
        // report the failure in its stats instead of erroring out.
        let config = RunConfig::new(2)
            .with_checkpoint(CheckpointPolicy::new(1, &dir))
            .with_exec(
                ExecConfig::new()
                    .with_fault(FaultInjector::failing_nth(FaultSite::CheckpointWrite, 0)),
            );
        let result = iteration.run(solution, workset, &config).unwrap();
        check_converged(&result);
        assert_eq!(result.stats.total_checkpoint_write_failures(), 1);
        // Later checkpoints (the injector fires exactly once) still landed.
        assert!(result.stats.total_checkpoints_written() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superstep_totals_sum_every_counter_but_take_the_high_water_maximum() {
        let a = SuperstepTotals::from_slots(&[1, 2, 3, 4, 5, 6, 7, 9]).unwrap();
        let b = SuperstepTotals::from_slots(&[10, 20, 30, 40, 50, 60, 70, 4]).unwrap();
        assert_eq!(a.to_slots(), [1, 2, 3, 4, 5, 6, 7, 9], "slot order");
        assert_eq!(a.queue_high_water, 9);
        assert_eq!(a.delivered, 5);
        let mut merged = SuperstepTotals::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.to_slots(), [11, 22, 33, 44, 55, 66, 77, 9]);
    }

    #[test]
    fn a_stats_row_of_another_length_is_a_setup_error() {
        for row in [&[1u64, 2, 3, 4, 5, 6, 7][..], &[], &[0; 9]] {
            match SuperstepTotals::from_slots(row) {
                Err(DataflowError::CommSetup(message)) => assert!(
                    message.contains(&format!("{} slots", row.len())),
                    "got {message}"
                ),
                other => panic!("a {}-slot row gave {other:?}", row.len()),
            }
        }
    }

    #[test]
    fn stats_track_inspections_and_changes() {
        let (solution, workset) = initial_state();
        let iteration = min_propagation();
        let result = iteration
            .run(solution, workset, &RunConfig::new(1))
            .unwrap();
        let total_changed: usize = result
            .stats
            .per_iteration
            .iter()
            .map(|s| s.elements_changed)
            .sum();
        // Vertices 0..=3 all improve at least once (to value 10).
        assert!(total_changed >= 4);
        assert!(result.stats.per_iteration[0].elements_inspected > 0);
        assert!(result.stats.total_messages() > 0);
    }

    /// Binds an ephemeral port and frees it, yielding an address a test
    /// cluster can use as its coordinator without colliding with parallel
    /// tests.
    fn free_coordinator_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        addr.to_string()
    }

    /// The 4-vertex path job most cluster tests run.
    fn path_job() -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
        let (solution, workset) = initial_state();
        (min_propagation(), solution, workset)
    }

    /// Runs `job` as a 2-process TCP cluster (both processes in this test
    /// process, connected through real sockets) and returns both workers'
    /// results in index order.
    fn run_tcp_cluster<S: RecordSource, W: RecordSource>(
        job: impl Fn() -> (WorksetIteration<'static>, S, W) + Send + Sync,
        configure: impl Fn(RunConfig) -> RunConfig + Send + Sync,
    ) -> Vec<WorksetResult> {
        let coordinator = free_coordinator_addr();
        let (job, configure) = (&job, &configure);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|index| {
                    let coordinator = coordinator.clone();
                    scope.spawn(move || {
                        let spec = ClusterSpec::new(2, index).expect("spec");
                        let transport = TransportHandle::tcp_cluster(
                            spec,
                            &coordinator,
                            &FaultInjector::disabled(),
                        )
                        .expect("cluster connects");
                        let (iteration, solution, workset) = job();
                        iteration
                            .run(
                                solution,
                                workset,
                                &configure(
                                    RunConfig::new(4)
                                        .with_exec(ExecConfig::new().with_transport(transport)),
                                ),
                            )
                            .expect("cluster run")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect()
        })
    }

    /// Asserts that concatenating the cluster's per-worker results in index
    /// order reproduces the single-process oracle byte for byte — same
    /// solution records, same superstep count, and identical per-superstep
    /// stats rows on every worker.
    fn assert_matches_oracle(results: &[WorksetResult], oracle: &WorksetResult) {
        let combined: Vec<Record> = results
            .iter()
            .flat_map(|r| r.solution.iter().cloned())
            .collect();
        assert_eq!(combined, oracle.solution);
        for result in results {
            assert_same_trace(result, oracle, "cluster worker");
        }
    }

    /// An expansion that forwards serialized records and one that emits
    /// field slices are the same iteration: byte-identical solutions and
    /// identical per-superstep counters under every memory regime, superstep
    /// mode and transport.
    #[test]
    fn forwarded_and_emitted_candidates_are_indistinguishable() {
        let (emitting, solution, workset) = dense_min_propagation_emitting(true);
        let (forwarding, _, _) = dense_min_propagation_emitting(false);
        // The memory regimes: unlimited, every sealed page spilled, and two
        // page credits per writer.
        let configure = |regime: &str, mut config: RunConfig| {
            match regime {
                "budget 0" => config.exec.memory_budget = MemoryBudget::bytes(0),
                "2 credits" => config.exec.channel_credits = Some(2),
                _ => {}
            }
            config
        };
        for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
            for regime in ["unlimited", "budget 0", "2 credits"] {
                let configure = |config| configure(regime, config);
                let label = format!("{mode:?}/{regime}");
                let config = configure(RunConfig::new(4).with_mode(mode));
                let emitted = emitting
                    .run(solution.clone(), workset.clone(), &config)
                    .unwrap();
                let forwarded = forwarding
                    .run(solution.clone(), workset.clone(), &config)
                    .unwrap();
                assert!(emitted.converged, "{label}");
                assert_eq!(emitted.solution, forwarded.solution, "{label}");
                assert_same_trace(&emitted, &forwarded, &label);
                if regime == "budget 0" {
                    assert!(emitted.stats.total_spilled_bytes() > 0, "{label}");
                }
                // The same job as a 2-worker TCP cluster, candidates
                // forwarded, against the single process that emitted
                // them.
                let cluster = run_tcp_cluster(
                    || dense_min_propagation_emitting(false),
                    |config| configure(config.with_mode(mode)),
                );
                if mode == ExecutionMode::BatchIncremental || regime == "unlimited" {
                    assert_matches_oracle(&cluster, &emitted);
                } else {
                    // Disk is node-local: a remote worker's spilled runs
                    // arrive as pages, ahead of the local runs, and a
                    // microstep's counters depend on that order.  The
                    // fixpoint does not.
                    let combined: Vec<Record> =
                        cluster.into_iter().flat_map(|r| r.solution).collect();
                    assert_eq!(combined, emitted.solution, "{label}");
                }
            }
        }
    }

    /// `records` as the pages of a plan's sink, in order: the source a bulk
    /// loop feeds back, which hands every record on as a view.
    fn sink_pages_of(records: Vec<Record>) -> SinkPages {
        let mut plan = Plan::new();
        let source = plan.source("records", records);
        plan.sink("out", source);
        let physical = default_physical_plan(&plan, 3).unwrap();
        let result = Executor::new().execute(&physical).unwrap();
        result.into_sink_pages("out").unwrap()
    }

    /// Sources that forward views — `S0`, `W0` and `N` as sink pages — load
    /// the same iteration as their records: the load step's sinks take the
    /// `forward` default.
    #[test]
    fn a_workset_loaded_from_sink_pages_runs_as_from_records() {
        let (edges, solution, workset) = dense_inputs();
        let (edges, solution, workset) = (edges.collect(), solution.collect(), workset.collect());
        let from_records = dense_iteration(Arc::new(edges.clone()), true);
        let from_pages = dense_iteration(Arc::new(sink_pages_of(edges)), true);
        for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(0)] {
            let label = format!("{budget:?}");
            let mut config = RunConfig::new(4);
            config.exec.memory_budget = budget;
            let expected = from_records
                .run(solution.clone(), workset.clone(), &config)
                .unwrap();
            let loaded = from_pages
                .run(
                    sink_pages_of(solution.clone()),
                    sink_pages_of(workset.clone()),
                    &config,
                )
                .unwrap();
            assert!(expected.converged, "{label}");
            let sorted = |result: &WorksetResult| {
                let mut solution = result.solution.clone();
                solution.sort();
                solution
            };
            assert_eq!(sorted(&loaded), sorted(&expected), "{label}");
            assert_same_trace(&loaded, &expected, &label);
        }
    }

    #[test]
    fn tcp_cluster_matches_the_single_process_run_superstep_for_superstep() {
        let (solution, workset) = initial_state();
        let oracle = min_propagation()
            .run(solution, workset, &RunConfig::new(4))
            .unwrap();
        let results = run_tcp_cluster(path_job, |config| config);
        assert_matches_oracle(&results, &oracle);

        // Workers that load described inputs — each serializing only the
        // partitions it owns — against the single process that loaded the
        // same inputs as records.
        let (iteration, solution, workset) = dense_min_propagation();
        let oracle = iteration
            .run(solution, workset, &RunConfig::new(4))
            .unwrap();
        let results = run_tcp_cluster(
            || {
                let (edges, solution, workset) = dense_inputs();
                (dense_iteration(Arc::new(edges), true), solution, workset)
            },
            |config| config,
        );
        assert_matches_oracle(&results, &oracle);
    }

    #[test]
    fn tcp_cluster_matches_the_oracle_in_microstep_mode() {
        let mode = ExecutionMode::Microstep;
        let (solution, workset) = initial_state();
        let oracle = min_propagation()
            .run(solution, workset, &RunConfig::new(4).with_mode(mode))
            .unwrap();
        let results = run_tcp_cluster(path_job, |config| config.with_mode(mode));
        assert_matches_oracle(&results, &oracle);
    }

    #[test]
    fn tcp_cluster_ships_spilled_candidate_runs_to_remote_partitions() {
        // A zero budget spills every sealed candidate page; runs bound for
        // the remote process must be rematerialized and shipped as pages.
        let (solution, workset) = initial_state();
        let oracle = min_propagation()
            .run(
                solution,
                workset,
                &RunConfig::new(4)
                    .with_exec(ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0))),
            )
            .unwrap();
        let results = run_tcp_cluster(path_job, |mut config| {
            config.exec.memory_budget = MemoryBudget::bytes(0);
            config
        });
        assert_matches_oracle(&results, &oracle);
    }

    /// A transport stub that reports a multi-process cluster but is never
    /// exercised — for validation paths that must reject before any
    /// communication happens.
    struct TwoProcessStub;

    impl dataflow::transport::Transport<RecordPage> for TwoProcessStub {
        fn cluster(&self) -> ClusterSpec {
            ClusterSpec {
                processes: 2,
                index: 0,
            }
        }

        fn allocate(&self) -> u64 {
            unreachable!("validation rejects before allocating channels")
        }

        fn channel(&self, _id: ChannelId, _partitions: usize) -> SharedPageChannel {
            unreachable!("validation rejects before opening channels")
        }

        fn all_gather(
            &self,
            _id: ChannelId,
            _round: u64,
            _values: &[u64],
        ) -> std::result::Result<Vec<Vec<u64>>, dataflow::prelude::CommError> {
            unreachable!("validation rejects before gathering")
        }
    }

    #[test]
    fn cluster_mode_rejects_unsupported_configurations() {
        let distributed = || {
            ExecConfig::new()
                .with_transport(TransportHandle::from_transport(Arc::new(TwoProcessStub)))
        };
        let iteration = min_propagation();
        let (solution, workset) = initial_state();
        // Parallelism must split evenly over the processes.
        let err = iteration
            .run(
                solution.clone(),
                workset.clone(),
                &RunConfig::new(3).with_exec(distributed()),
            )
            .unwrap_err();
        assert!(matches!(err, DataflowError::CommSetup(_)), "{err}");
        // Checkpointing is single-process.
        let err = iteration
            .run(
                solution,
                workset,
                &RunConfig::new(4)
                    .with_checkpoint(CheckpointPolicy::new(
                        1,
                        std::env::temp_dir().join("never-written"),
                    ))
                    .with_exec(distributed()),
            )
            .unwrap_err();
        assert!(matches!(err, DataflowError::InvalidPlan(_)), "{err}");
    }

    /// A delta the comparator rejects writes nothing and expands nothing: an
    /// update that always proposes a worse label than the stored one leaves
    /// the solution as it was, counts no change and sends no candidate, in
    /// every mode and in the reference evaluator.
    #[test]
    fn a_rejected_delta_is_neither_stored_nor_expanded() {
        let update = Arc::new(UpdateClosure(
            |key: &Key,
             current: Option<RecordView<'_>>,
             _: &[RecordView<'_>],
             delta: &mut dyn RecordSink| {
                let worse = current.map_or(0, |c| c.long(1) + 1);
                delta.emit(&[key.values()[0].clone(), Value::Long(worse)]);
            },
        ));
        let expand = Arc::new(ExpandClosure(
            |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
                for e in edges {
                    out.emit(&[Value::Long(e.long(1)), Value::Long(delta.long(1))]);
                }
            },
        ));
        let edges: Vec<Record> = (0..8)
            .flat_map(|v| [Record::pair(v, (v + 1) % 8), Record::pair((v + 1) % 8, v)])
            .collect();
        let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
            .constant_input(Arc::new(edges), vec![0], vec![0])
            .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
            .build();
        let solution: Vec<Record> = (0..8).map(|v| Record::pair(v, v)).collect();
        let workset: Vec<Record> = (0..8).map(|v| Record::pair(v, 0)).collect();
        let configs = [
            RunConfig::new(2),
            RunConfig::new(2).with_mode(ExecutionMode::Microstep),
        ];
        for config in &configs {
            let label = format!("{:?}", config.mode);
            let result = iteration
                .run(solution.clone(), workset.clone(), config)
                .unwrap();
            let rows = &result.stats.per_iteration;
            assert!(rows.iter().all(|s| s.elements_changed == 0), "{label}");
            assert!(rows.iter().all(|s| s.messages_sent == 0), "{label}");
            assert!(result.converged, "{label}");
            let mut stored = result.solution;
            stored.sort();
            assert_eq!(stored, solution, "{label}");
        }
        let reference = reference_fixpoint(&iteration, &solution, &workset, &configs[0]);
        let rows = &reference.supersteps;
        assert!(rows.iter().all(|s| s.changed == 0 && s.messages == 0));
        assert_eq!(reference.solution, solution);
    }
}
