//! Asynchronous microstep execution (Sections 2.2 and 5.2/5.3).
//!
//! When the step function of a workset iteration consists solely of
//! record-at-a-time operators and the path from the solution set to the delta
//! set preserves the identifying key (Section 5.2's conditions), the
//! iteration can drop the superstep barrier entirely: every worker partition
//! processes workset elements as they arrive, updates its share of the
//! partial solution immediately, and pushes the resulting candidate updates
//! into the queues of the target partitions.
//!
//! Termination is detected with an in-flight record counter in the spirit of
//! the message-counting termination-detection algorithms for processor
//! networks referenced by the paper: the counter is incremented for every
//! record enqueued and decremented when its processing (including all sends
//! it caused) has finished, so the counter reaching zero proves that no
//! worker holds or will ever receive another record.
//!
//! # Backpressure
//!
//! The queues between workers are bounded [`dataflow::credit`] channels:
//! every worker→worker edge holds at most `credits` records (the run's
//! [`ExecConfig::channel_credits`](dataflow::exec::ExecConfig::channel_credits),
//! which default to the `SPINNING_CHANNEL_CREDITS` environment variable, or
//! else [`DEFAULT_ASYNC_CREDITS`]), so an adversarial expansion fan-out is
//! bounded to `credits × edges` queued records instead of exhausting
//! memory.  A worker blocked on a full queue keeps draining its *own* inbox
//! while it waits — in a cycle of mutually-full queues every
//! blocked worker is then emptying someone's full queue, so the system always
//! makes progress; a genuine stall (e.g. a user function that never returns)
//! surfaces as a typed [`DataflowError::CommTimeout`] after the
//! `SPINNING_COMM_TIMEOUT_SECS` bound instead of a hang.
//!
//! The queues hold individual serialized records, not spillable pages, so a
//! configured memory budget ([`WorksetConfig::exec`]) cannot be honoured
//! here: asynchronous runs ignore it and say so with a one-time stderr
//! warning instead of silently pretending to be bounded (the superstep modes
//! honour the budget through the spilling exchange).  Use the channel
//! credits to bound the queues' memory.
//!
//! # Fault tolerance
//!
//! Asynchronous execution has no superstep boundaries, so it ignores
//! [`WorksetConfig::checkpoint`] and performs no fault injection of its own.
//! The one guarantee it does make: a worker that panics (e.g. in a user
//! update/expand function) releases its in-flight credits on unwind — both
//! the credit of the record being processed and those of routed expansions
//! not yet enqueued — letting the sibling workers drain and terminate, and
//! the run surfaces the panic as a typed [`DataflowError::WorkerPanic`]
//! instead of aborting the process.

use crate::load::Loaded;
use crate::stats::{IterationRunStats, IterationStats};
use crate::workset::{PartitionStep, WorksetConfig, WorksetIteration, WorksetResult};
use dataflow::contracts::{RecordSink, RecordSource};
use dataflow::credit::{
    credit_channel, timeout_from_env, CreditReceiver, CreditSender, RecvTimeoutError, SendError,
    TrySendError, CHANNEL_CREDITS_ENV,
};
use dataflow::join_index::JoinIndex;
use dataflow::page::SerializedRecord;
use dataflow::prelude::{DataflowError, Key, PartitionRouter, Result, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker waits for new records before re-checking the in-flight
/// counter.  Purely a liveness knob; correctness does not depend on it.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Per-edge record credits when the run's channel credits are unset.
/// Generous — the default bounds pathological fan-outs without throttling
/// healthy runs.
pub const DEFAULT_ASYNC_CREDITS: usize = 1024;

/// Releases one in-flight credit on drop, so a record's credit is returned
/// even when the user's update/expand function panics mid-processing —
/// otherwise the sibling workers would wait forever for the counter to drain.
struct CreditGuard<'a>(&'a AtomicI64);

impl Drop for CreditGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Routed expansions that hold an in-flight credit but are not yet enqueued
/// (their target queue had no free channel credit at expansion time).  Drop
/// releases the held credits, so a worker that panics or aborts with unsent
/// records cannot wedge its siblings' termination detection.
struct PendingSends<'a> {
    items: VecDeque<(usize, SerializedRecord)>,
    in_flight: &'a AtomicI64,
}

impl<'a> PendingSends<'a> {
    fn new(in_flight: &'a AtomicI64) -> PendingSends<'a> {
        PendingSends {
            items: VecDeque::new(),
            in_flight,
        }
    }

    /// Takes the in-flight credit for `record` and queues it for sending.
    fn push(&mut self, target: usize, record: SerializedRecord) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.items.push_back((target, record));
    }

    /// Drops `record` (its queue is gone) and releases its in-flight credit.
    fn abandon(&mut self, record: SerializedRecord) {
        drop(record);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for PendingSends<'_> {
    fn drop(&mut self) {
        if !self.items.is_empty() {
            self.in_flight
                .fetch_sub(self.items.len() as i64, Ordering::SeqCst);
        }
    }
}

/// The warning printed when an asynchronous run is configured with a finite
/// memory budget it cannot honour (the record queues never spill).  A pure
/// function so the test suite can pin the wording without capturing stderr.
fn ignored_budget_warning(limit: usize) -> String {
    format!(
        "warning: asynchronous microstep execution ignores the configured memory budget \
         of {limit} bytes (its record queues never spill); bound queue memory with \
         ExecConfig::with_channel_credits or {CHANNEL_CREDITS_ENV} instead"
    )
}

/// Warns (once per process, the budget is typically identical across runs)
/// that the configured memory budget does not apply to asynchronous
/// execution.
fn warn_ignored_budget_once(limit: usize) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| eprintln!("{}", ignored_budget_warning(limit)));
}

/// The sink the expand UDF emits into on a worker: routes each candidate on
/// its field slice and queues it, serialized, for its target worker.
struct PendingSink<'a, 'b> {
    pending: &'a mut PendingSends<'b>,
    outcome: &'a mut WorkerOutcome,
    router: &'a PartitionRouter,
    workset_key: &'a [usize],
    partition: usize,
}

impl RecordSink for PendingSink<'_, '_> {
    fn emit(&mut self, fields: &[Value]) {
        let target = self.router.route_fields(fields, self.workset_key);
        self.outcome.messages_sent += 1;
        if target != self.partition {
            self.outcome.messages_shipped += 1;
        }
        // The expansion takes an in-flight credit now; the queue credit is
        // acquired when the flush loop enqueues it.
        self.pending
            .push(target, SerializedRecord::from_fields(fields));
    }
}

/// The sink the driver pulls the initial workset through: routes each record
/// on its field slice and sends it, serialized, to its worker's queue,
/// holding an in-flight credit for it.  The first failed send ends the
/// seeding; the records still to come are dropped.
struct SeedSink<'a> {
    senders: Vec<CreditSender<SerializedRecord>>,
    router: &'a PartitionRouter,
    workset_key: &'a [usize],
    in_flight: &'a AtomicI64,
    stall_timeout: Duration,
    error: Option<DataflowError>,
}

impl RecordSink for SeedSink<'_> {
    fn emit(&mut self, fields: &[Value]) {
        if self.error.is_some() {
            return;
        }
        let target = self.router.route_fields(fields, self.workset_key);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if let Err(error) = self.senders[target].send(SerializedRecord::from_fields(fields)) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.error = Some(match error {
                SendError::Timeout(_) => DataflowError::CommTimeout(format!(
                    "seeding the asynchronous workset stalled: no queue credit \
                     for partition {target} within {:?}",
                    self.stall_timeout
                )),
                // A worker died; the scope/worker error explains why.
                SendError::Disconnected(_) => DataflowError::ExecutionFailed(
                    "a worker exited while the initial workset was being seeded".into(),
                ),
            });
        }
    }
}

/// Per-worker counters returned when the worker shuts down.
struct WorkerOutcome {
    processed: usize,
    changed: usize,
    messages_sent: usize,
    messages_shipped: usize,
    queue_high_water: usize,
}

/// Runs the iteration asynchronously.  Called by
/// [`WorksetIteration::run`] when the mode is
/// [`crate::workset::ExecutionMode::AsynchronousMicrostep`].
pub(crate) fn run_async(
    iteration: &WorksetIteration<'_>,
    loaded: Loaded,
    initial_workset: &dyn RecordSource,
    router: &PartitionRouter,
    config: &WorksetConfig,
    start: Instant,
) -> Result<WorksetResult> {
    let Loaded {
        mut solution,
        constant: constant_index,
        ..
    } = loaded;
    let parallelism = config.parallelism;
    if let Some(limit) = config.exec.memory_budget.limit() {
        warn_ignored_budget_once(limit);
    }
    let credits = config.exec.channel_credits.unwrap_or(DEFAULT_ASYNC_CREDITS);
    let stall_timeout = timeout_from_env();

    // One bounded queue per partition; every worker (and the seeding driver)
    // sends through its own cloned edges, each with a full credit pool.
    let mut senders: Vec<CreditSender<SerializedRecord>> = Vec::with_capacity(parallelism);
    let mut receivers: Vec<CreditReceiver<SerializedRecord>> = Vec::with_capacity(parallelism);
    for _ in 0..parallelism {
        let (tx, rx) = credit_channel(credits, stall_timeout);
        senders.push(tx);
        receivers.push(rx);
    }

    // The in-flight counter: one credit per record currently enqueued,
    // pending, or being processed.  The bounded queues mean the initial
    // workset must be seeded *while* the workers drain (seeding everything
    // up front could exceed the credit pools), so a held seeding credit
    // keeps the fixpoint unreachable until every seed is enqueued.
    let in_flight = Arc::new(AtomicI64::new(0));
    in_flight.fetch_add(1, Ordering::SeqCst);
    // Any worker that exits — fixpoint, stall, disconnection, or panic —
    // flips this so every sibling exits too instead of polling forever on
    // credits a dead worker can no longer release.
    let aborted = Arc::new(AtomicBool::new(false));

    // The asynchronous workers block in `recv_timeout` until the in-flight
    // counter drains, so they must not run on the shared global pool (they
    // would starve other scopes).  A dedicated pool sized to the partition
    // count is created once per run and its workers live for the whole
    // asynchronous execution.
    let pool = spinning_pool::ThreadPool::new(parallelism);
    let mut solution_partitions = solution.take_partitions();
    let mut outcome_slots: Vec<Option<Result<WorkerOutcome>>> =
        (0..parallelism).map(|_| None).collect();
    let mut seed_error: Option<DataflowError> = None;
    let scope_result = pool.try_scope(|scope| {
        for (partition, ((s_part, receiver), slot)) in solution_partitions
            .iter_mut()
            .zip(receivers)
            .zip(outcome_slots.iter_mut())
            .enumerate()
        {
            let senders: Vec<CreditSender<SerializedRecord>> = senders.to_vec();
            let in_flight = Arc::clone(&in_flight);
            let aborted = Arc::clone(&aborted);
            let constant = &constant_index[partition];
            scope.spawn_labeled("async-microstep", move || {
                let result = run_worker(
                    partition,
                    iteration,
                    s_part,
                    constant,
                    router,
                    &receiver,
                    &senders,
                    &in_flight,
                    &aborted,
                    stall_timeout,
                );
                // However this worker ended, its siblings must not keep
                // polling for credits it can no longer release.
                aborted.store(true, Ordering::SeqCst);
                *slot = Some(result);
            });
        }

        // Seed the initial workset from the driver thread while the workers
        // drain; the blocking send applies backpressure with the same typed
        // timeout the workers use.
        let mut seeds = SeedSink {
            senders: senders.to_vec(),
            router,
            workset_key: &iteration.workset_key,
            in_flight: &in_flight,
            stall_timeout,
            error: None,
        };
        initial_workset.emit_all(&mut seeds);
        seed_error = seeds.error;
        // Release the seeding credit: the fixpoint is now reachable.
        in_flight.fetch_sub(1, Ordering::SeqCst);
    });
    solution.restore_partitions(solution_partitions);
    drop(senders);
    if let Err(panic) = scope_result {
        return Err(DataflowError::WorkerPanic {
            operator: "async-microstep".into(),
            superstep: 1,
            message: panic.message(),
        });
    }

    let mut stats = IterationStats::for_iteration(1);
    let mut first_error = None;
    for slot in outcome_slots {
        // `try_scope` waits for every task, and a panicking one already
        // returned above: every slot is filled.
        match slot.expect("pool ran every asynchronous worker") {
            Ok(outcome) => {
                stats.workset_size += outcome.processed;
                stats.elements_inspected += outcome.processed;
                stats.elements_changed += outcome.changed;
                stats.messages_sent += outcome.messages_sent;
                stats.messages_shipped += outcome.messages_shipped;
                stats.messages_delivered += outcome.messages_sent;
                stats.queue_high_water = stats.queue_high_water.max(outcome.queue_high_water);
            }
            Err(error) => first_error = first_error.or(Some(error)),
        }
    }
    if let Some(error) = first_error.or(seed_error) {
        return Err(error);
    }
    stats.elapsed = start.elapsed();
    let run_stats = IterationRunStats {
        per_iteration: vec![stats],
        total_elapsed: start.elapsed(),
    };
    Ok(WorksetResult {
        solution: solution.records(),
        supersteps: 1,
        // Counter-based termination only fires at the fixpoint: the in-flight
        // count reaching zero proves no record is queued or being processed.
        converged: true,
        stats: run_stats,
    })
}

/// One asynchronous worker: drains its bounded queue, updates its solution
/// partition, and routes expansions — servicing its own inbox whenever a
/// target queue is full, so cycles of full queues drain instead of
/// deadlocking.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    partition: usize,
    iteration: &WorksetIteration<'_>,
    s_part: &mut crate::solution_set::PartitionIndex,
    constant: &JoinIndex,
    router: &PartitionRouter,
    receiver: &CreditReceiver<SerializedRecord>,
    senders: &[CreditSender<SerializedRecord>],
    in_flight: &AtomicI64,
    aborted: &AtomicBool,
    stall_timeout: Duration,
) -> Result<WorkerOutcome> {
    let mut outcome = WorkerOutcome {
        processed: 0,
        changed: 0,
        messages_sent: 0,
        messages_shipped: 0,
        queue_high_water: 0,
    };
    let mut step = PartitionStep::new(iteration, s_part, constant);
    let mut key = Key::Long(0);
    let mut pending = PendingSends::new(in_flight);
    // Set while every pending flush *and* the inbox make no progress; a
    // stall outliving the comm timeout is a deadlock surfaced as an error.
    let mut stalled_since: Option<Instant> = None;

    macro_rules! process {
        ($record:expr) => {{
            let record: SerializedRecord = $record;
            let _credit = CreditGuard(in_flight);
            outcome.processed += 1;
            let candidate = record.view();
            candidate.key_into(&iteration.workset_key, &mut key);
            let mut sink = PendingSink {
                pending: &mut pending,
                outcome: &mut outcome,
                router,
                workset_key: &iteration.workset_key,
                partition,
            };
            if step.update(&key, &[candidate]) {
                step.apply(&mut sink);
            }
            // `_credit` drops here, releasing this record's credit only
            // after all the records it caused are accounted in-flight —
            // and also on unwind, so a panicking worker cannot wedge its
            // siblings.
        }};
    }

    'run: loop {
        // Flush pending expansions before taking new work.
        if let Some((target, record)) = pending.items.pop_front() {
            match senders[target].try_send(record) {
                Ok(()) => {
                    stalled_since = None;
                }
                Err(TrySendError::Full(record)) => {
                    // The target queue is full: service our own inbox so the
                    // cycle keeps draining (the consumer we are waiting on
                    // may itself be blocked sending to us).
                    match receiver.try_recv() {
                        Ok(incoming) => {
                            // The blocked record goes back to the head of
                            // the queue, whose drop releases its credit
                            // should processing unwind.
                            pending.items.push_front((target, record));
                            process!(incoming);
                            stalled_since = None;
                        }
                        Err(_) if aborted.load(Ordering::SeqCst) => {
                            pending.abandon(record);
                            break 'run;
                        }
                        Err(_) => {
                            // Nothing to service: park on the blocked edge
                            // briefly so the consumer's next dequeue wakes
                            // us immediately.
                            match senders[target].send_deadline(record, IDLE_POLL) {
                                Ok(()) => {
                                    stalled_since = None;
                                }
                                Err(SendError::Timeout(record)) => {
                                    pending.items.push_front((target, record));
                                    let since = *stalled_since.get_or_insert_with(Instant::now);
                                    if since.elapsed() >= stall_timeout {
                                        return Err(DataflowError::CommTimeout(format!(
                                            "asynchronous microstep worker {partition} made no \
                                             progress for {stall_timeout:?}: no queue credit for \
                                             partition {target} and nothing to drain"
                                        )));
                                    }
                                }
                                Err(SendError::Disconnected(record)) => {
                                    pending.abandon(record);
                                    break 'run;
                                }
                            }
                        }
                    }
                }
                Err(TrySendError::Disconnected(record)) => {
                    // The target worker is gone (panic or abort); drop the
                    // record, release its credit, and shut down — the run is
                    // surfacing an error elsewhere.
                    pending.abandon(record);
                    break 'run;
                }
            }
            continue 'run;
        }
        match receiver.recv_timeout(IDLE_POLL) {
            Ok(record) => {
                process!(record);
                stalled_since = None;
            }
            Err(RecvTimeoutError::Timeout) => {
                if in_flight.load(Ordering::SeqCst) == 0 || aborted.load(Ordering::SeqCst) {
                    break 'run;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break 'run,
        }
    }
    outcome.changed = step.changed;
    outcome.queue_high_water = receiver.high_water();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workset::{ExecutionMode, ExpandClosure, UpdateClosure, WorksetIteration};
    use dataflow::prelude::{ExecConfig, MemoryBudget, Record, RecordView};

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
        // One credit per edge: maximum backpressure, including on the
        // seeding driver and on self-sends.  The fixpoint must be identical
        // and the queue high-water mark must respect the bound.
        let (iteration, solution, workset) = ring_iteration(48);
        let config = WorksetConfig::new(4)
            .with_mode(ExecutionMode::AsynchronousMicrostep)
            .with_exec(ExecConfig::new().with_channel_credits(1));
        let result = iteration.run(solution, workset, &config).unwrap();
        assert!(result.solution.iter().all(|r| r.long(1) == 100));
        let high_water = result.stats.per_iteration[0].queue_high_water;
        assert!(high_water <= 1, "high water {high_water} exceeds 1 credit");
        assert!(high_water >= 1, "a 48-ring run must enqueue something");
    }

    #[test]
    fn ignored_budget_warning_names_the_budget_and_the_remedy() {
        let message = ignored_budget_warning(4096);
        assert!(message.starts_with("warning:"), "message: {message}");
        assert!(message.contains("4096 bytes"), "message: {message}");
        assert!(message.contains("ignores"), "message: {message}");
        assert!(
            message.contains("with_channel_credits") && message.contains(CHANNEL_CREDITS_ENV),
            "the warning must point at the knob that does apply: {message}"
        );
    }

    #[test]
    fn finite_budget_still_reaches_the_fixpoint_asynchronously() {
        // The budget is ignored (with a warning) — the run itself must be
        // unaffected.
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
        assert!(tight.stats.per_iteration[0].queue_high_water <= 2);
    }
}
