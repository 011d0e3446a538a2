//! Asynchronous microstep execution (Sections 2.2 and 5.2/5.3).
//!
//! When the step function of a workset iteration consists solely of
//! record-at-a-time operators and the path from the solution set to the delta
//! set preserves the identifying key (Section 5.2's conditions), the
//! iteration can drop the superstep barrier entirely: every partition
//! processes its candidates as they arrive, updates its share of the partial
//! solution immediately, and sends the resulting candidates on to their
//! target partitions.
//!
//! This takes no runtime of its own.  Each partition runs as a task on the
//! shared pool ([`spinning_pool::global`]), at most one at a time.  The task
//! drains its inbox through the microstep loop of the superstep mode
//! (`PartitionStep::microsteps`) into an ordinary [`Outbox`], seals it and
//! appends each target's pages and spilled runs to that target's inbox
//! ([`Outbox::deliver`]), spawning the target's task if it was idle; once it
//! finds its inbox empty, it parks its state there and returns.  No task
//! ever waits for another (Timely's worker model: operators run when input
//! is available and never block).  The initial working set is the load
//! step's, as in every mode.
//!
//! **Termination.**  A task parks, and a delivery wakes a parked partition,
//! under the inbox's lock, so no delivery is missed.  The run is at its
//! fixpoint when no task runs and every inbox is empty — exactly when the
//! pool scope holding the tasks returns.  A user function that never returns
//! hangs the run, as it hangs a superstep.
//!
//! **Backpressure.**  Every outbox writer holds at most
//! [`channel_credits`](dataflow::exec::ExecConfig::channel_credits) sealed
//! pages and its share of the memory budget, as in the superstep exchange;
//! what exceeds them is a spilled run the consumer streams back.
//! `queue_high_water` is the most sealed pages a writer held.
//!
//! **Fault tolerance.**  There are no superstep boundaries, so
//! [`WorksetConfig::checkpoint`] is ignored and no faults are injected here.
//! A task that panics (e.g. in a user function) is caught by the pool, the
//! other tasks drain, and the run returns a typed
//! [`DataflowError::WorkerPanic`]; a spill error ends its task the same way.
//! Spilled runs still queued are deleted on return.

use crate::load::Loaded;
use crate::solution_set::PartitionIndex;
use crate::stats::{IterationRunStats, IterationStats};
use crate::workset::{
    paged_queue, CandidateSink, PartitionStep, WorksetConfig, WorksetIteration, WorksetResult,
};
use dataflow::exchange::{Outbox, ShipStats};
use dataflow::join_index::JoinIndex;
use dataflow::page::{ExchangedPartition, PagePool, RecordPage};
use dataflow::prelude::{DataflowError, PartitionRouter, Result, SpillManager, SpilledRun};
use spinning_pool::Scope;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The inbox locks are held only to append, take or park, never across user
/// code, so no panic poisons them.
const UNPOISONED: &str = "inbox locks are held only outside user code";

/// One partition's side of the run: owned by its task while the task runs,
/// parked in its inbox while the partition is idle.
struct Worker {
    solution: PartitionIndex,
    /// Buffers of drained candidate pages, reissued to the next outbox.
    pool: PagePool,
    inspected: usize,
    changed: usize,
    exchanged: ShipStats,
}

/// What has arrived for one partition and not been drained yet, and its
/// worker while no task runs it.
struct Inbox {
    queue: ExchangedPartition,
    idle: Option<Worker>,
}

/// What every task of a run shares.
struct Run<'r> {
    iteration: &'r WorksetIteration<'r>,
    constant: &'r [JoinIndex],
    router: &'r PartitionRouter,
    spill: SpillManager,
    inboxes: Vec<Mutex<Inbox>>,
    /// The first error a task ended with.
    error: OnceLock<DataflowError>,
}

/// Runs the iteration asynchronously.  Called by
/// [`WorksetIteration::run`] when the mode is
/// [`crate::workset::ExecutionMode::AsynchronousMicrostep`].
pub(crate) fn run_async(
    iteration: &WorksetIteration<'_>,
    loaded: Loaded,
    router: &PartitionRouter,
    config: &WorksetConfig,
    start: Instant,
) -> Result<WorksetResult> {
    let Loaded {
        mut solution,
        constant,
        workset,
    } = loaded;
    let parallelism = config.parallelism;
    let inboxes = solution.take_partitions().into_iter().zip(workset);
    let run = Run {
        iteration,
        constant: &constant,
        router,
        // Microsteps stream spilled runs in arrival order: flushes skip the
        // sort, as in the superstep microstep mode.
        spill: config.exec.spill_manager(parallelism * parallelism, None),
        inboxes: inboxes
            .map(|(solution, queue)| {
                let worker = Worker {
                    solution,
                    pool: PagePool::new(),
                    inspected: 0,
                    changed: 0,
                    exchanged: ShipStats::default(),
                };
                let queue = paged_queue(queue);
                Mutex::new(Inbox {
                    queue,
                    idle: Some(worker),
                })
            })
            .collect(),
        error: OnceLock::new(),
    };
    let scope_result = spinning_pool::global().try_scope(|scope| {
        // Wakes every partition the load step queued candidates for.
        (0..parallelism).for_each(|p| run.post(scope, p, Vec::new(), Vec::new()));
    });
    if let Err(panic) = scope_result {
        return Err(DataflowError::WorkerPanic {
            operator: "async-microstep".into(),
            superstep: 1,
            message: panic.message(),
        });
    }
    if let Some(error) = run.error.into_inner() {
        return Err(error);
    }
    let mut stats = IterationStats::for_iteration(1);
    let mut exchanged = ShipStats::default();
    let mut partitions = Vec::with_capacity(parallelism);
    for inbox in run.inboxes {
        // No task failed, so each one ended parked in its emptied inbox.
        let worker = inbox.into_inner().expect(UNPOISONED).idle;
        let worker = worker.expect("a run without a failed task ends parked");
        stats.elements_inspected += worker.inspected;
        stats.elements_changed += worker.changed;
        exchanged.merge(&worker.exchanged);
        partitions.push(worker.solution);
    }
    solution.restore_partitions(partitions);
    stats.workset_size = stats.elements_inspected;
    stats.messages_sent = exchanged.sent_records;
    stats.messages_shipped = exchanged.shipped_records;
    stats.messages_delivered = exchanged.sent_records;
    stats.spilled_bytes = exchanged.spilled_bytes;
    stats.spilled_runs = exchanged.spilled_runs;
    stats.queue_high_water = exchanged.pages_high_water;
    stats.elapsed = start.elapsed();
    Ok(WorksetResult {
        solution: solution.records(),
        supersteps: 1,
        // The scope returns only once every inbox has drained: the fixpoint.
        converged: true,
        stats: IterationRunStats {
            per_iteration: vec![stats],
            total_elapsed: start.elapsed(),
        },
    })
}

impl Run<'_> {
    /// Appends `pages` and `runs` to `target`'s inbox and, when that leaves
    /// candidates queued for a parked partition, spawns its task.
    fn post<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        target: usize,
        pages: Vec<Arc<RecordPage>>,
        runs: Vec<SpilledRun>,
    ) {
        let mut inbox = self.inboxes[target].lock().expect(UNPOISONED);
        inbox.queue.receive_pages(pages);
        inbox.queue.receive_runs(runs);
        if inbox.queue.is_empty() {
            return;
        }
        if let Some(worker) = inbox.idle.take() {
            scope.spawn_labeled("async-microstep", move || self.drain(scope, target, worker));
        }
    }

    /// The task of `partition`: drains its inbox until it finds it empty,
    /// then parks `worker` there.  A failed drain records its error and
    /// returns without parking, so the partition is never woken again.
    fn drain<'s>(&'s self, scope: &'s Scope<'s, '_>, partition: usize, mut worker: Worker) {
        loop {
            let mut inbox = self.inboxes[partition].lock().expect(UNPOISONED);
            if inbox.queue.is_empty() {
                inbox.idle = Some(worker);
                return;
            }
            let queue = std::mem::take(&mut inbox.queue);
            drop(inbox);
            if let Err(error) = self.microsteps(scope, partition, &mut worker, queue) {
                let _ = self.error.set(error);
                return;
            }
        }
    }

    /// Runs the microstep loop over `queue` and delivers the candidates it
    /// produced.
    fn microsteps<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        partition: usize,
        worker: &mut Worker,
        queue: ExchangedPartition,
    ) -> Result<()> {
        worker.inspected += queue.record_count();
        let mut outbox = Outbox::new(partition, self.inboxes.len(), &self.spill);
        outbox.seed(&mut worker.pool);
        let mut out = CandidateSink {
            outbox: &mut outbox,
            router: self.router,
            workset_key: &self.iteration.workset_key,
        };
        let constant = &self.constant[partition];
        let mut step = PartitionStep::new(self.iteration, &mut worker.solution, constant);
        let drained = step.microsteps(queue, self.spill.fault(), &mut out)?;
        worker.changed += step.changed;
        worker.pool.set_limit(drained.len());
        worker.pool.recycle_all(drained);
        let posted = outbox.deliver(|target, pages, runs| self.post(scope, target, pages, runs))?;
        worker.exchanged.merge(&posted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workset::{ExecutionMode, ExpandClosure, UpdateClosure};
    use dataflow::prelude::{ExecConfig, Key, MemoryBudget, Record, RecordSink, RecordView, Value};

    /// Asynchronous minimum propagation over a ring of `n` vertices.
    fn ring_iteration(n: i64) -> (WorksetIteration<'static>, Vec<Record>, Vec<Record>) {
        let update = Arc::new(UpdateClosure(
            |key: &Key,
             current: Option<RecordView<'_>>,
             candidates: &[RecordView<'_>],
             delta: &mut dyn RecordSink| {
                let candidate = candidates.iter().map(|r| r.long(1)).min().unwrap();
                if current.is_none_or(|c| c.long(1) > candidate) {
                    delta.emit(&[key.values()[0].clone(), Value::Long(candidate)]);
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
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Record::pair(v, (v + 1) % n));
            edges.push(Record::pair((v + 1) % n, v));
        }
        let iteration = WorksetIteration::builder(vec![0], vec![0], update, expand)
            .constant_input(Arc::new(edges), vec![0], vec![0])
            .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
            .build();
        let solution: Vec<Record> = (0..n).map(|v| Record::pair(v, v + 100)).collect();
        let workset: Vec<Record> = (0..n)
            .flat_map(|v| {
                vec![
                    Record::pair((v + 1) % n, v + 100),
                    Record::pair((v + n - 1) % n, v + 100),
                ]
            })
            .collect();
        (iteration, solution, workset)
    }

    #[test]
    fn asynchronous_execution_reaches_the_fixpoint() {
        let (iteration, solution, workset) = ring_iteration(64);
        let config = WorksetConfig::new(4).with_mode(ExecutionMode::AsynchronousMicrostep);
        let result = iteration.run(solution, workset, &config).unwrap();
        assert_eq!(result.solution.len(), 64);
        // The minimum initial value (100, at vertex 0) floods the whole ring.
        assert!(result.solution.iter().all(|r| r.long(1) == 100));
        assert_eq!(result.supersteps, 1);
        assert!(result.stats.per_iteration[0].elements_changed >= 63);
    }

    #[test]
    fn asynchronous_matches_superstep_execution() {
        let (iteration, solution, workset) = ring_iteration(32);
        let sync_result = iteration
            .run(solution.clone(), workset.clone(), &WorksetConfig::new(3))
            .unwrap();
        let async_result = iteration
            .run(
                solution,
                workset,
                &WorksetConfig::new(3).with_mode(ExecutionMode::AsynchronousMicrostep),
            )
            .unwrap();
        let mut a = sync_result.solution;
        let mut b = async_result.solution;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_workset_finishes_without_work() {
        let (iteration, solution, _workset) = ring_iteration(8);
        let config = WorksetConfig::new(2).with_mode(ExecutionMode::AsynchronousMicrostep);
        let result = iteration.run(solution.clone(), vec![], &config).unwrap();
        assert_eq!(result.solution.len(), solution.len());
        assert_eq!(result.stats.per_iteration[0].messages_sent, 0);
    }

    #[test]
    fn single_worker_asynchronous_execution_works() {
        let (iteration, solution, workset) = ring_iteration(16);
        let config = WorksetConfig::new(1).with_mode(ExecutionMode::AsynchronousMicrostep);
        let result = iteration.run(solution, workset, &config).unwrap();
        assert!(result.solution.iter().all(|r| r.long(1) == 100));
    }

    #[test]
    fn tight_credit_bound_still_reaches_the_fixpoint() {
        // One page credit per outbox writer: every page that fills goes to
        // disk.  The fixpoint must be identical and the queue high-water
        // mark, in sealed pages, must respect the bound.
        let (iteration, solution, workset) = ring_iteration(48);
        let config = WorksetConfig::new(4)
            .with_mode(ExecutionMode::AsynchronousMicrostep)
            .with_exec(ExecConfig::new().with_channel_credits(1));
        let result = iteration.run(solution, workset, &config).unwrap();
        assert!(result.solution.iter().all(|r| r.long(1) == 100));
        let high_water = result.stats.per_iteration[0].queue_high_water;
        assert!(
            high_water <= 1,
            "a writer held {high_water} sealed pages against 1 credit"
        );
        assert!(high_water >= 1, "a 48-ring run must ship a page");
    }

    #[test]
    fn finite_budget_still_reaches_the_fixpoint_asynchronously() {
        // The budget applies to every task's outbox, as to a superstep's:
        // what exceeds it spills, and the fixpoint is unchanged.
        let (iteration, solution, workset) = ring_iteration(24);
        let config = WorksetConfig::new(3)
            .with_mode(ExecutionMode::AsynchronousMicrostep)
            .with_exec(ExecConfig::new().with_memory_budget(MemoryBudget::bytes(1024)));
        let result = iteration.run(solution, workset, &config).unwrap();
        assert!(result.solution.iter().all(|r| r.long(1) == 100));
    }

    #[test]
    fn bounded_channels_match_the_generous_default() {
        let (iteration, solution, workset) = ring_iteration(32);
        let generous = iteration
            .run(
                solution.clone(),
                workset.clone(),
                &WorksetConfig::new(3).with_mode(ExecutionMode::AsynchronousMicrostep),
            )
            .unwrap();
        let tight = iteration
            .run(
                solution,
                workset,
                &WorksetConfig::new(3)
                    .with_mode(ExecutionMode::AsynchronousMicrostep)
                    .with_exec(ExecConfig::new().with_channel_credits(2)),
            )
            .unwrap();
        let mut a = generous.solution;
        let mut b = tight.solution;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let high_water = tight.stats.per_iteration[0].queue_high_water;
        assert!(
            high_water <= 2,
            "a writer held {high_water} sealed pages against 2 credits"
        );
    }
}
