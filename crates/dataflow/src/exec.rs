//! The parallel executor.
//!
//! The executor runs a [`PhysicalPlan`] on a shared-nothing set of worker
//! partitions; each operator's local phase runs one task per partition on the
//! process-wide persistent worker pool ([`spinning_pool::global`]), so
//! scheduling a partition costs a deque push, not a thread spawn.  Each
//! worker partition plays the role of one cluster node in the paper's setup;
//! records that move between partitions during an exchange are counted as
//! "shipped" (network) records in the [`ExecutionStats`].
//!
//! Records live on pages from source to sink: a source (any
//! [`RecordSource`]) is split onto per-partition pages, every operator's
//! output is the sealed pages of the [`PageWriter`] it emits into
//! ([`RecordSink::emit`] serializes fields, [`RecordSink::forward`] copies
//! bytes), every user function reads its input in place as [`RecordView`]s,
//! and a sink's pages can feed a plan again
//! ([`ExecutionResult::into_sink_pages`]).  Heap [`Record`]s
//! exist only at the API: sources given as records and the materializing
//! sink accessors.
//!
//! Exchanged (hash/broadcast) edges are dams: every such edge fully
//! materialises before downstream operators run, which is always safe for
//! the iteration execution strategies of Sections 4.2 and 5.3 (no operator
//! can ever participate in two iterations simultaneously).  Forward edges,
//! however, are *function calls*: a chain-fusion pass
//! ([`streaming_input_slot`]) partitions the operators into maximal
//! pipelineable segments — connected by forward-shipped, uncached,
//! single-consumer edges into a slot the consumer can stream — and the plan
//! walk executes each segment as **one task per partition** in which every
//! record a member emits is handed straight to the next member — as the
//! fields it was emitted as, or as the view it was passed through as.  A
//! fused edge therefore holds one record, not an intermediate result, and
//! costs a call, not a page or a thread.  An operator none of whose edges
//! fuse is a segment of one, executed by the same code.  Fused, page-native
//! execution is the executor's only mode; the oracle it is tested against
//! lives outside it, in the `reference` test-support crate, whose operator
//! interpreter evaluates the same plan over heap records without pages,
//! kernels or fusion and yields the same sink partitions byte for byte
//! wherever this module fixes the order.
//!
//! Every Reduce and sort-merge join groups on the one page-native kernel
//! ([`for_each_key_group`]), whatever the key's shape, and hands each group
//! to the user function as views.  When the next member of a segment is a
//! Reduce, the records are serialized straight onto that Reduce's pages and
//! grouped at end of stream by the same kernel, so a join feeding a fused
//! aggregation — PageRank's step — builds no heap record per join output.
//!
//! # Exchanges
//!
//! Every edge — forward, hash, broadcast, cached — hands the
//! consumer's local phase one [`ExchangedPartition`] per partition, the one
//! delivered type, holding pages and spilled runs only.  A forward edge
//! hands over the producer partition's pages, and a producer with several
//! consumers shares them by pointer.  A hash repartitioning edge routes the
//! bytes of every producer partition's records through one
//! [`PartitionRouter`] into an [`Outbox`] in parallel on the worker pool and
//! hands the outboxes to [`exchange::ship`] — the same route → page → spill
//! → ship → gather layer the iteration runtime's superstep queue switch runs
//! on (see [`crate::exchange`] for its invariants: records that stay local
//! land on an unbudgeted page writer, peers receive sealed
//! [`crate::page::RecordPage`]s or spilled runs, delivery is source-major).
//! What stays here is policy: the per-exchange spill budget, broadcast
//! (every target shares the producer's pages by pointer), and the single
//! "distributed transport rejected" check — cluster execution enters through
//! the iteration runtime.  A hash join indexes its build side in a
//! [`JoinIndex`] — the index the iteration runtime's constant path probes —
//! adopting its pages by pointer, and probes it with each streamed record's
//! key read in place.
//!
//! A loop-invariant edge (`cache_inputs`) takes the same exchange as any
//! other the first time it executes; the [`IntermediateCache`] only *retains*
//! what the exchange delivered — its pages and spilled runs as they arrived —
//! and serves it by pointer to
//! every later execution at the parallelism it was filled at.
//!
//! Every parallel region — segment tasks, exchange routing —
//! dispatches through one helper (`run_on_partitions`); a lone partition runs
//! on the calling thread, and a panicking task is a typed
//! [`DataflowError::WorkerPanic`] either way.

use crate::contracts::{
    CrossFunction, MapFunction, MatchFunction, RecordSink, RecordSource, ReduceFunction, Udf,
};
use crate::error::{DataflowError, Result};
use crate::exchange::{self, Outbox};
use crate::fault::{FaultInjector, FaultSite};
use crate::join_index::JoinIndex;
use crate::key::{Key, KeyFields};
use crate::page::{
    for_each_key_group, serialize_fields_with_width, serialized_width, sort_on_key, view_in,
    ExchangedPartition, GroupScratch, KeyGroups, PageWriter, RecordPage, RecordView,
};
use crate::physical::{
    streaming_input_slot, LocalStrategy, PhysicalChoice, PhysicalPlan, ShipStrategy,
};
use crate::plan::{Operator, OperatorId, OperatorKind};
use crate::range::PartitionRouter;
use crate::record::Record;
use crate::spill::{MemoryBudget, SpillManager};
use crate::stats::{ExecutionStats, OperatorStats};
use crate::transport::TransportHandle;
use crate::value::Value;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The records held by one worker partition.
pub type Partition = Vec<Record>;
/// One partition per parallel instance.
pub type Partitions = Vec<Partition>;

/// An operator's output: the sealed pages of each partition.
type PagedPartitions = Vec<Vec<Arc<RecordPage>>>;

/// Environment variable setting [`ExecConfig::channel_credits`]: sealed
/// pages per outbox writer.  [`ExecConfig::default`] is its one reader.
pub const CHANNEL_CREDITS_ENV: &str = "SPINNING_CHANNEL_CREDITS";

/// The execution settings of a run — the one declaration of them.  The
/// [`Executor`] takes it directly; the iteration drivers' configurations
/// (`BulkConfig`, `WorksetConfig`) and the algorithms' embed it and hand it
/// down unchanged.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Budget on the serialized bytes an exchange may buffer in memory:
    /// exceeding it moves sealed pages to disk as sorted runs (see
    /// [`crate::spill`]).  Unlimited by default — nothing ever spills.
    pub memory_budget: MemoryBudget,
    /// Credits of the exchange — the backpressure knob, in sealed pages.
    /// Every exchange's outbox writer (the executor's repartitioning and
    /// the workset superstep exchange, in both modes) flushes its sealed
    /// pages to disk once this many are buffered, bounding exchange memory
    /// at `credits × page_size` per writer whatever the byte budget.
    /// Defaults to [`CHANNEL_CREDITS_ENV`]; `None` leaves the byte budget
    /// alone in charge.  Results are identical either way — backpressure changes
    /// *when* data moves, never *what* is computed.
    pub channel_credits: Option<usize>,
    /// Fault injector consulted at spill flushes, checkpoints and worker
    /// dispatch sites (see [`crate::fault`]).  Defaults to
    /// [`FaultInjector::from_env`], disabled unless `SPINNING_FAULT_RATE`
    /// is set.
    pub fault: FaultInjector,
    /// The transport every exchange ships its sealed pages through.
    /// Defaults to the in-process backend (pointer-moving channels in a
    /// cluster of one).  A multi-process transport makes a workset run one
    /// SPMD worker of a cluster; the batch executor rejects it.
    pub transport: TransportHandle,
}

impl Default for ExecConfig {
    /// Reads the execution settings' environment defaults: channel credits
    /// ([`CHANNEL_CREDITS_ENV`]) and fault injection.  The transport's
    /// blocking-wait bound, `SPINNING_COMM_TIMEOUT_SECS`, is still read by
    /// `comm` (ROADMAP item 5(c) gathers it here).
    fn default() -> Self {
        ExecConfig {
            memory_budget: MemoryBudget::unlimited(),
            channel_credits: comm::positive_from_env(CHANNEL_CREDITS_ENV),
            fault: FaultInjector::from_env(),
            transport: TransportHandle::default(),
        }
    }
}

impl ExecConfig {
    /// The default configuration: no memory budget, credits and fault
    /// injection from the environment, the in-process transport.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the exchange memory budget.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Sets the exchange channel credits (see
    /// [`ExecConfig::channel_credits`]), replacing the environment's.
    /// Clamped to at least 1.
    pub fn with_channel_credits(mut self, credits: usize) -> Self {
        self.channel_credits = Some(credits.max(1));
        self
    }

    /// Sets the fault injector (replacing the environment-configured one).
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the exchange transport.
    pub fn with_transport(mut self, transport: TransportHandle) -> Self {
        self.transport = transport;
        self
    }

    /// The spill policy of one exchange with `writers` outbox page writers
    /// — the executor's repartitioning edges and the workset's superstep
    /// exchange alike: the memory budget is shared evenly over the writers,
    /// each buffers at most [`ExecConfig::channel_credits`] sealed pages,
    /// every flush consults the fault injector, and with `sort_on_flush`
    /// every run is sorted on those key fields.
    pub fn spill_manager(&self, writers: usize, sort_on_flush: Option<KeyFields>) -> SpillManager {
        SpillManager::new(self.memory_budget.share(writers), sort_on_flush)
            .with_page_credits(self.channel_credits)
            .with_fault(self.fault.clone())
    }
}

/// Cache of post-exchange inputs, keyed by (consumer operator, input slot).
///
/// The iteration runtime passes the same cache to every execution of the step
/// plan; edges on the constant data path that the optimizer marked with
/// `cache_inputs` are shipped once — by the same exchange as any other edge —
/// and then served from here (Section 4.3).  A cached edge is the exchange's
/// delivery as it arrived: every partition's pages, shared by pointer with
/// each execution it serves (a hash join adopts them into its index without a
/// copy) and the runs the exchange spilled.  The
/// exchange of an edge the cache retains runs under the executor's memory
/// budget like any other; the runs it spills stay on disk for as long as the
/// edge is cached, and every re-execution streams them back.  That budget
/// bounds what any exchange's budget bounds — the sealed pages in flight to
/// peer partitions — and not the cached edge's resident size: pages that
/// never left their partition (all of a forward or broadcast edge,
/// everything at parallelism 1, the partition-local share of a hash edge)
/// stay in memory.
///
/// What a cache holds is partitioned: a cache filled at one parallelism
/// serves only executions at that parallelism (others are rejected as
/// [`DataflowError::InvalidPlan`]) until it is cleared.
#[derive(Debug, Default)]
pub struct IntermediateCache {
    entries: HashMap<(OperatorId, usize), Vec<ExchangedPartition>>,
    /// The parallelism the cached edges were built at.
    parallelism: usize,
}

impl IntermediateCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached edges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all cached edges.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The result of one plan execution: the contents of every sink plus the
/// execution statistics.
#[derive(Debug)]
pub struct ExecutionResult {
    sink_outputs: HashMap<String, PagedPartitions>,
    /// Counters collected while executing.
    pub stats: ExecutionStats,
}

impl ExecutionResult {
    /// All records delivered to the sink `name`, flattened across partitions
    /// and materialized off the sink's pages.
    pub fn sink(&self, name: &str) -> Result<Vec<Record>> {
        self.sink_pages(name)
            .map(|parts| SinkPages(parts.clone()).collect())
    }

    /// Consumes the result and materializes the records of sink `name`,
    /// releasing each page once it is read.
    pub fn into_sink(self, name: &str) -> Result<Vec<Record>> {
        let SinkPages(parts) = self.into_sink_pages(name)?;
        let mut records = Vec::with_capacity(record_count(&parts));
        for page in parts.into_iter().flatten() {
            records.extend(page.reader().map(|view| view.materialize()));
        }
        Ok(records)
    }

    /// Consumes the result and hands over the pages of sink `name` as a
    /// source a plan can read again — the bulk iteration's feedback edge.
    pub fn into_sink_pages(mut self, name: &str) -> Result<SinkPages> {
        let parts = self.sink_outputs.remove(name).map(SinkPages);
        parts.ok_or_else(|| DataflowError::UnknownSink(name.to_owned()))
    }

    /// True if the sink `name` received no records (without reading them).
    pub fn sink_is_empty(&self, name: &str) -> Result<bool> {
        self.sink_pages(name)
            .map(|parts| parts.iter().flatten().all(|page| page.is_empty()))
    }

    /// The per-partition records delivered to the sink `name`.
    pub fn sink_partitions(&self, name: &str) -> Result<Partitions> {
        let parts = self.sink_pages(name)?;
        let part = |pages: &Vec<Arc<RecordPage>>| SinkPages(vec![pages.clone()]).collect();
        Ok(parts.iter().map(part).collect())
    }

    fn sink_pages(&self, name: &str) -> Result<&PagedPartitions> {
        self.sink_outputs
            .get(name)
            .ok_or_else(|| DataflowError::UnknownSink(name.to_owned()))
    }
}

/// A sink's sealed pages, in partition order: a [`RecordSource`] that hands
/// every record on as the view it is ([`RecordSink::forward`]).
#[derive(Debug, Clone)]
pub struct SinkPages(PagedPartitions);

impl RecordSource for SinkPages {
    fn len(&self) -> usize {
        record_count(&self.0)
    }

    fn emit_all(&self, out: &mut dyn RecordSink) {
        let pages = self.0.iter().flatten();
        pages.for_each(|page| page.reader().for_each(|view| out.forward(view)));
    }
}

/// The records on `parts`' pages.
fn record_count(parts: &PagedPartitions) -> usize {
    let pages = parts.iter().flatten();
    pages.map(|page| page.record_count()).sum()
}

/// Executes physical plans.
#[derive(Debug, Default, Clone)]
pub struct Executor {
    config: ExecConfig,
}

impl Executor {
    /// Creates an executor with the default configuration (no memory
    /// budget).
    pub fn new() -> Self {
        Executor::default()
    }

    /// Creates an executor with an explicit configuration —
    /// `Executor::with_config(ExecConfig::new().with_memory_budget(...))` is
    /// the out-of-core entry point.
    pub fn with_config(config: ExecConfig) -> Self {
        Executor { config }
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Executes the plan once, without any loop-invariant caching.
    pub fn execute(&self, physical: &PhysicalPlan) -> Result<ExecutionResult> {
        let mut cache = IntermediateCache::new();
        self.execute_with_cache(physical, &mut cache)
    }

    /// Executes the plan, serving edges marked `cache_inputs` from (and
    /// populating them into) `cache`.
    pub fn execute_with_cache(
        &self,
        physical: &PhysicalPlan,
        cache: &mut IntermediateCache,
    ) -> Result<ExecutionResult> {
        let start = Instant::now();
        let plan = &physical.plan;
        let order = plan.validate()?;
        // A hand-built physical plan can carry parallelism 0; reject it here
        // instead of clamping silently (or panicking on a modulo-by-zero
        // deep inside `partition_for`).
        let parallelism = physical.parallelism;
        if parallelism == 0 {
            return Err(DataflowError::InvalidPlan(
                "parallelism must be at least 1".into(),
            ));
        }
        // Cached edges hold one delivery per partition; they cannot serve
        // another parallelism.
        if cache.entries.is_empty() {
            cache.parallelism = parallelism;
        } else if cache.parallelism != parallelism {
            return Err(DataflowError::InvalidPlan(format!(
                "the intermediate cache was filled at parallelism {} and cannot serve \
                 parallelism {parallelism}; clear it first",
                cache.parallelism
            )));
        }
        // Its `choices` map is public too: an operator without a choice, or
        // with one sized for a different input count, is rejected here —
        // everything below indexes `physical.choice(id)` by input slot.
        for op in plan.operators() {
            let inputs = op.inputs.len();
            let complete = physical.choices.get(&op.id).is_some_and(|choice| {
                choice.input_ships.len() == inputs && choice.cache_inputs.len() == inputs
            });
            if !complete && !matches!(op.kind, OperatorKind::Source { .. }) {
                return Err(DataflowError::InvalidPlan(format!(
                    "operator '{}' needs a physical choice with one ship strategy and one \
                     cache flag for each of its {inputs} inputs",
                    op.name
                )));
            }
        }
        // The batch executor is single-process: every exchange ships through
        // the transport, but cluster execution (partition ownership, global
        // convergence) is the iteration runtime's job.
        if self.config.transport.is_distributed() {
            return Err(DataflowError::InvalidPlan(
                "the batch executor runs single-process; multi-process clusters \
                 drive the iteration runtime instead"
                    .into(),
            ));
        }

        let mut outputs: HashMap<OperatorId, PagedPartitions> = HashMap::new();
        let mut sink_outputs: HashMap<String, PagedPartitions> = HashMap::new();
        let mut stats = ExecutionStats::new();

        // How many input edges still need each operator's output.  Once the
        // last consumer has taken it, the output is removed from `outputs`
        // and its pages live on only where someone shares them (a sink
        // result, the cache, a delivery).
        let mut remaining_uses = vec![0usize; plan.len()];
        for op in plan.operators() {
            for input in &op.inputs {
                remaining_uses[input.0] += 1;
            }
        }

        // Every non-source operator runs as a member of exactly one segment.
        let segments = compute_chain_segments(physical);

        for id in order {
            let op = plan.operator(id);
            // Sources are split onto per-partition pages.  A source whose
            // every consumer edge is about to be served from the cache (a
            // loop-invariant input after the first iteration) is not
            // partitioned again: nobody would read it.
            if let OperatorKind::Source { data } = &op.kind {
                let op_start = Instant::now();
                let served_from_cache = plan.operators().iter().all(|consumer| {
                    consumer.inputs.iter().enumerate().all(|(slot, input)| {
                        *input != id
                            || (physical.choice(consumer.id).cache_inputs[slot]
                                && cache.entries.contains_key(&(consumer.id, slot)))
                    })
                });
                if !served_from_cache {
                    outputs.insert(id, split_into_partitions(&**data, parallelism));
                }
                stats.operators.push(OperatorStats {
                    name: op.name.clone(),
                    contract: op.kind.contract_name().to_owned(),
                    records_in: 0,
                    records_out: data.len(),
                    elapsed: op_start.elapsed(),
                });
                continue;
            }
            // Inner members run inside their segment's tasks; the whole
            // segment executes when the topological walk reaches its tail
            // (every side input's producer has run by then).
            let members = &segments[id.0];
            if !members.is_empty() {
                self.execute_segment(
                    physical,
                    members,
                    &mut outputs,
                    &mut sink_outputs,
                    cache,
                    &mut remaining_uses,
                    &mut stats,
                )?;
            }
        }

        stats.elapsed = start.elapsed();
        Ok(ExecutionResult {
            sink_outputs,
            stats,
        })
    }

    /// Exchanges (or serves from the cache) one input edge of `op`,
    /// consuming one use of the producer's output.  A cached edge takes the
    /// same [`exchange`] as any other on its first execution — the cache only
    /// retains what came back.
    #[allow(clippy::too_many_arguments)]
    fn prepare_input(
        &self,
        op: &Operator,
        slot: usize,
        choice: &PhysicalChoice,
        parallelism: usize,
        outputs: &mut HashMap<OperatorId, PagedPartitions>,
        cache: &mut IntermediateCache,
        remaining_uses: &mut [usize],
        stats: &mut ExecutionStats,
    ) -> Result<Vec<ExchangedPartition>> {
        let input = op.inputs[slot];
        let cache_key = (op.id, slot);
        // This edge consumes one use of the producer's output, whether it is
        // served from the cache or exchanged.
        let last_use = remaining_uses[input.0] == 1;
        remaining_uses[input.0] = remaining_uses[input.0].saturating_sub(1);
        if choice.cache_inputs[slot] {
            if let Some(cached) = cache.entries.get(&cache_key) {
                stats.cache_hits += 1;
                if last_use {
                    outputs.remove(&input);
                }
                return Ok(cached.clone());
            }
        }
        // The last consumer takes the producer's pages; any other shares
        // them by pointer.
        let producer = if last_use {
            outputs.remove(&input)
        } else {
            outputs.get(&input).cloned()
        }
        .ok_or_else(|| {
            DataflowError::ExecutionFailed(format!(
                "input {} of '{}' has not produced output",
                input.0, op.name
            ))
        })?;
        let delivered = exchange(
            producer,
            &choice.input_ships[slot],
            parallelism,
            &self.config,
            stats,
        )?;
        if choice.cache_inputs[slot] {
            cache.entries.insert(cache_key, delivered.clone());
        }
        Ok(delivered)
    }

    /// Executes one segment (`members`, head to tail; a lone operator is a
    /// segment of one): one task per partition runs the head's local phase
    /// with every downstream member composed behind its output
    /// ([`run_fused`]).
    ///
    /// Every input but the fused slots (all of the head's; downstream, a hash
    /// join's build side, a cross's broadcast side) is exchanged on this
    /// thread first; the topological walk dispatches the segment at its
    /// *tail*, by which point every producer has run.
    #[allow(clippy::too_many_arguments)]
    fn execute_segment(
        &self,
        physical: &PhysicalPlan,
        members: &[OperatorId],
        outputs: &mut HashMap<OperatorId, PagedPartitions>,
        sink_outputs: &mut HashMap<String, PagedPartitions>,
        cache: &mut IntermediateCache,
        remaining_uses: &mut [usize],
        stats: &mut ExecutionStats,
    ) -> Result<()> {
        let plan = &physical.plan;
        let parallelism = physical.parallelism;
        let fault = &self.config.fault;

        // Per partition, every member's delivered inputs in member order (the
        // fused slot absent).
        let mut fused: Vec<(&Operator, LocalStrategy)> = Vec::with_capacity(members.len());
        let mut partition_inputs: Vec<Vec<Vec<ExchangedPartition>>> = (0..parallelism)
            .map(|_| Vec::with_capacity(members.len()))
            .collect();
        for (pos, &mid) in members.iter().enumerate() {
            let op = plan.operator(mid);
            let choice = physical.choice(mid);
            // Downstream members stream their fused slot; the chain-fusion
            // pass only fuses into a slot `streaming_input_slot` names.
            let stream_slot = (pos > 0)
                .then(|| streaming_input_slot(&op.kind, choice.local))
                .flatten();
            for of_partition in partition_inputs.iter_mut() {
                of_partition.push(Vec::with_capacity(op.inputs.len()));
            }
            for slot in 0..op.inputs.len() {
                if Some(slot) == stream_slot {
                    // The fused edge: consumed through the chain, so its
                    // producer (the previous member) never materializes into
                    // `outputs`.
                    remaining_uses[op.inputs[slot].0] = 0;
                    continue;
                }
                let delivered = self.prepare_input(
                    op,
                    slot,
                    choice,
                    parallelism,
                    outputs,
                    cache,
                    remaining_uses,
                    stats,
                )?;
                // Every delivery holds exactly `parallelism` partitions.
                for (part, of_partition) in delivered.into_iter().zip(partition_inputs.iter_mut()) {
                    of_partition[pos].push(part);
                }
            }
            fused.push((op, choice.local));
        }

        let outcomes = run_on_partitions(
            if members.len() > 1 {
                "chained-operator"
            } else {
                "operator-local"
            },
            || {
                let names: Vec<&str> = fused.iter().map(|(op, _)| op.name.as_str()).collect();
                names.join("→")
            },
            fault,
            partition_inputs,
            |inputs| run_fused(&fused, inputs, fault),
        )?;

        let mut rows: Vec<OperatorStats> = fused
            .iter()
            .map(|(op, _)| OperatorStats {
                name: op.name.clone(),
                contract: op.kind.contract_name().to_owned(),
                ..OperatorStats::default()
            })
            .collect();
        let mut tail_parts: PagedPartitions = Vec::with_capacity(parallelism);
        for (reports, tail_pages) in outcomes {
            for (row, report) in rows.iter_mut().zip(reports) {
                row.records_in += report.records_in;
                row.records_out += report.records_out;
                row.elapsed += report.elapsed;
            }
            tail_parts.push(tail_pages);
        }
        // Fused-edge records stay inside their partition — the same
        // accounting a materializing forward exchange applies.
        stats.local_records += rows[..rows.len() - 1]
            .iter()
            .map(|row| row.records_out)
            .sum::<usize>();
        if members.len() > 1 {
            stats.chained_operators += members.len();
        }
        stats.operators.extend(rows);

        let tail_id = *members
            .last()
            .expect("the plan walk executes only non-empty segments");
        if let OperatorKind::Sink { name } = &plan.operator(tail_id).kind {
            sink_outputs.insert(name.clone(), tail_parts.clone());
        }
        outputs.insert(tail_id, tail_parts);
        Ok(())
    }
}

/// Runs `task` on every partition's input — the executor's one parallel
/// region: operator segments and exchange routing both dispatch through it.
/// A lone partition has nothing to run beside and stays on the calling
/// thread; otherwise each partition is one task of the shared worker pool,
/// so a parallel region costs a deque push per partition instead of a round
/// of thread spawns.  Either way a panicking task (user
/// code, or the [`FaultSite::WorkerPanic`] injection each task consults
/// under `label`) surfaces as one typed [`DataflowError::WorkerPanic`] naming
/// `operator`; otherwise the first task error in partition order is
/// returned.
fn run_on_partitions<I: Send, T: Send>(
    label: &'static str,
    operator: impl FnOnce() -> String,
    fault: &FaultInjector,
    inputs: Vec<I>,
    task: impl Fn(I) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let mut outcomes: Vec<Option<Result<T>>> = inputs.iter().map(|_| None).collect();
    let work = inputs.into_iter().zip(outcomes.iter_mut());
    let run = |(input, outcome): (I, &mut Option<Result<T>>)| {
        fault.panic_check(FaultSite::WorkerPanic, label);
        *outcome = Some(task(input));
    };
    let panicked = if work.len() <= 1 {
        catch_unwind(AssertUnwindSafe(|| work.for_each(&run)))
            .err()
            .map(|payload| spinning_pool::panic_message(&*payload))
    } else {
        spinning_pool::global()
            .try_scope(|scope| {
                for item in work {
                    let run = &run;
                    scope.spawn_labeled(label, move || run(item));
                }
            })
            .err()
            .map(|panic| panic.message())
    };
    if let Some(message) = panicked {
        return Err(DataflowError::WorkerPanic {
            operator: operator(),
            superstep: 0,
            message,
        });
    }
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("without a panic, every partition task wrote its outcome"))
        .collect()
}

/// Splits a source's records into contiguous chunks of `ceil(n / p)`, one
/// per partition, each written onto its partition's pages.
fn split_into_partitions(source: &dyn RecordSource, parallelism: usize) -> PagedPartitions {
    let mut split = Split {
        chunk: source.len().div_ceil(parallelism).max(1),
        emitted: 0,
        parts: vec![PageWriter::new(); parallelism],
    };
    source.emit_all(&mut split);
    split.parts.into_iter().map(PageWriter::finish).collect()
}

/// The sink of [`split_into_partitions`]: record `i` goes to partition
/// `i / chunk` (any excess over the source's length to the last one).
struct Split {
    chunk: usize,
    emitted: usize,
    parts: Vec<PageWriter>,
}

impl Split {
    fn next_writer(&mut self) -> &mut PageWriter {
        let part = (self.emitted / self.chunk).min(self.parts.len() - 1);
        self.emitted += 1;
        &mut self.parts[part]
    }
}

impl RecordSink for Split {
    fn emit(&mut self, fields: &[Value]) {
        self.next_writer().emit(fields);
    }

    fn forward(&mut self, record: RecordView<'_>) {
        self.next_writer().forward(record);
    }
}

// ---------------------------------------------------------------------------
// Chain fusion: forward edges as function calls
// ---------------------------------------------------------------------------

/// The chain-fusion pass: partitions the non-source operators into maximal
/// pipelineable segments — linear chains whose connecting edges are calls
/// instead of materialized partitions.  Returns, indexed by operator id, the
/// members (head first) of the segment whose **tail** is that operator;
/// sources and inner members get an empty entry.
///
/// An edge `A → B` (into slot `s` of `B`) fuses when all of the following
/// hold, so streaming it cannot change any observable result:
///
/// * `s` is `B`'s streaming slot ([`streaming_input_slot`]) — `B` can
///   consume the edge record by record;
/// * the edge ships `Forward` — partition `p` of `A` feeds partition `p` of
///   `B`, so a call inside partition `p`'s task preserves exactly the
///   materialized delivery;
/// * the edge is not cached — loop-invariant edges must still snapshot into
///   the [`IntermediateCache`] for reuse across iterations;
/// * `B` is `A`'s **only** consumer — other consumers need `A`'s
///   materialized output;
/// * `A` is not a source (its partitions exist before any task runs, so
///   there is no producing call to fuse into) and not a sink (a sink's
///   records *are* the plan's result and must materialize).
///
/// An operator none of whose edges fuse is a segment of one.
fn compute_chain_segments(physical: &PhysicalPlan) -> Vec<Vec<OperatorId>> {
    let plan = &physical.plan;
    let mut consumer_count = vec![0usize; plan.len()];
    for op in plan.operators() {
        for input in &op.inputs {
            consumer_count[input.0] += 1;
        }
    }
    let mut fused_pred: Vec<Option<OperatorId>> = vec![None; plan.len()];
    let mut is_tail: Vec<bool> = plan
        .operators()
        .iter()
        .map(|op| !matches!(op.kind, OperatorKind::Source { .. }))
        .collect();
    for op in plan.operators() {
        if matches!(op.kind, OperatorKind::Source { .. }) {
            continue;
        }
        let choice = physical.choice(op.id);
        let Some(slot) = streaming_input_slot(&op.kind, choice.local) else {
            continue;
        };
        let producer_id = op.inputs[slot];
        if choice.input_ships[slot] != ShipStrategy::Forward
            || choice.cache_inputs[slot]
            || consumer_count[producer_id.0] != 1
        {
            continue;
        }
        let producer = plan.operator(producer_id);
        if matches!(
            producer.kind,
            OperatorKind::Source { .. } | OperatorKind::Sink { .. }
        ) {
            continue;
        }
        fused_pred[op.id.0] = Some(producer_id);
        is_tail[producer_id.0] = false;
    }
    (0..plan.len())
        .map(|tail| {
            let mut members = Vec::new();
            let mut cursor = is_tail[tail].then_some(OperatorId(tail));
            while let Some(member) = cursor {
                members.push(member);
                cursor = fused_pred[member.0];
            }
            members.reverse();
            members
        })
        .collect()
}

/// The streaming consumer of one operator on one partition: everything the
/// operator does with the input slot it can consume record by record
/// ([`streaming_input_slot`]), given its other inputs delivered.
///
/// This is the one place the record-at-a-time arm of each contract lives.
/// [`run_local`] drives a delivered partition through it; in a fused segment
/// the upstream member emits or forwards records into it ([`FusedStage`]).
/// Either way the same records reach the same user-function calls in the
/// same order, which is what keeps fused and materialized executions
/// byte-identical.
///
/// A Reduce hands each key's records to the user function in key order with
/// ties in arrival order (the stable key sort).
/// It is a `PagedGroup`: records are serialized onto pages as they arrive and
/// grouped at end of stream by the shared kernel ([`KeyGroups`]), whatever
/// the key's shape.
enum Stage {
    Map(Arc<dyn MapFunction>),
    Sink,
    PagedGroup {
        udf: Arc<dyn ReduceFunction>,
        groups: KeyGroups,
    },
    /// Probes the join index over the build side; matches are emitted in
    /// build insertion order.
    HashProbe {
        udf: Arc<dyn MatchFunction>,
        probe_key: KeyFields,
        /// Whether the streamed side is the join's left argument.
        probe_is_left: bool,
        index: JoinIndex,
    },
    Cross {
        udf: Arc<dyn CrossFunction>,
        right: Vec<Arc<RecordPage>>,
    },
}

impl Stage {
    /// Builds the stage of `op` from its delivered inputs `side` (slot order,
    /// the streamed slot `stream_slot` absent).
    fn new(op: &Operator, stream_slot: usize, side: Vec<ExchangedPartition>) -> Result<Stage> {
        let mut side = side.into_iter();
        let mut side_input = || side.next().expect("Plan::validate checked the input arity");
        Ok(match (&op.kind, &op.udf) {
            (OperatorKind::Map, Udf::Map(udf)) => Stage::Map(Arc::clone(udf)),
            (OperatorKind::Sink { .. }, _) => Stage::Sink,
            (OperatorKind::Reduce { key }, Udf::Reduce(udf)) => Stage::PagedGroup {
                udf: Arc::clone(udf),
                groups: KeyGroups::new(key.clone()),
            },
            (
                OperatorKind::Match {
                    left_key,
                    right_key,
                },
                Udf::Match(udf),
            ) => {
                let probe_is_left = stream_slot == 0;
                let (build_key, probe_key) = if probe_is_left {
                    (right_key, left_key)
                } else {
                    (left_key, right_key)
                };
                Stage::HashProbe {
                    udf: Arc::clone(udf),
                    probe_key: probe_key.clone(),
                    probe_is_left,
                    index: JoinIndex::from_partition(side_input(), build_key)?,
                }
            }
            (OperatorKind::Cross, Udf::Cross(udf)) => {
                // Copied onto resident pages: every streamed record reads
                // the whole side, spilled runs included.
                let mut right = PageWriter::new();
                side_input().for_each_view(|record| {
                    right.push_serialized(record.payload());
                })?;
                Stage::Cross {
                    udf: Arc::clone(udf),
                    right: right.finish(),
                }
            }
            _ => return Err(udf_mismatch(op)),
        })
    }

    /// Consumes one record of the stream given as its fields: a paged
    /// grouping and a sink serialize them onto their pages, every other
    /// stage reads them in place off `scratch`.
    #[inline]
    fn accept_fields(&mut self, fields: &[Value], scratch: &mut Vec<u8>, out: &mut MemberOut) {
        match self {
            Stage::PagedGroup { groups, .. } => groups.append_fields(fields),
            Stage::Sink => out.emit(fields),
            stage => {
                scratch.clear();
                serialize_fields_with_width(fields, serialized_width(fields), scratch);
                stage.accept(view_in(scratch, 0), out);
            }
        }
    }

    /// Consumes one record of the stream, read in place, emitting into
    /// `out`.
    fn accept(&mut self, record: RecordView<'_>, out: &mut MemberOut) {
        match self {
            Stage::Map(udf) => udf.map(record, out),
            Stage::Sink => out.forward(record),
            Stage::PagedGroup { groups, .. } => groups.append_view(record),
            Stage::HashProbe {
                udf,
                probe_key,
                probe_is_left,
                index,
            } => {
                for build in index.matches_view(record, probe_key) {
                    if *probe_is_left {
                        udf.join(record, build, out);
                    } else {
                        udf.join(build, record, out);
                    }
                }
            }
            Stage::Cross { udf, right } => {
                for r in right.iter().flat_map(|page| page.reader()) {
                    udf.cross(record, r, out);
                }
            }
        }
    }

    /// End of stream: the grouping stage emits its groups.
    fn finish(self, out: &mut MemberOut) {
        if let Stage::PagedGroup { udf, groups } = self {
            groups.for_each_group(|k, group| udf.reduce(&k.values(), group, out))
        }
    }
}

/// The typed error of an operator whose UDF does not fit its contract (a
/// plan assembled without [`crate::plan::Plan`]'s builders).
fn udf_mismatch(op: &Operator) -> DataflowError {
    DataflowError::InvalidPlan(format!(
        "operator '{}' has contract {} but UDF {:?}",
        op.name,
        op.kind.contract_name(),
        op.udf
    ))
}

/// Where one member of a fused segment writes on one partition: the
/// segment's output pages at the tail, the next member everywhere else.
/// Only a user function's call into it goes through `dyn` [`RecordSink`];
/// the stages and the local phases take it as it is.
enum MemberOut {
    Tail(PageWriter),
    Next(Box<FusedStage>),
}

impl MemberOut {
    /// The records written into this output so far.
    fn records(&self) -> usize {
        match self {
            MemberOut::Tail(pages) => pages.total_records(),
            MemberOut::Next(next) => next.streamed,
        }
    }
}

impl RecordSink for MemberOut {
    #[inline]
    fn emit(&mut self, fields: &[Value]) {
        match self {
            MemberOut::Tail(pages) => pages.emit(fields),
            MemberOut::Next(next) => next.emit(fields),
        }
    }

    #[inline]
    fn forward(&mut self, record: RecordView<'_>) {
        match self {
            MemberOut::Tail(pages) => pages.forward(record),
            MemberOut::Next(next) => next.forward(record),
        }
    }
}

/// One downstream member of a fused segment on one partition: its [`Stage`]
/// plus the output the stage writes into.  The upstream member's output
/// holds it ([`MemberOut::Next`]), so a record emitted by a user function
/// travels the rest of the segment — as the fields it was emitted as, or as
/// the view it was passed through as — depth first, before the emitting
/// call returns.
struct FusedStage {
    stage: Stage,
    /// The records of the member's delivered (unfused) inputs.
    side_records: usize,
    /// The records that arrived through the fused edge.
    streamed: usize,
    out: MemberOut,
    /// A record emitted as fields, serialized for a stage that reads it in
    /// place; reused from record to record.
    scratch: Vec<u8>,
}

impl FusedStage {
    #[inline]
    fn emit(&mut self, fields: &[Value]) {
        self.streamed += 1;
        self.stage
            .accept_fields(fields, &mut self.scratch, &mut self.out);
    }

    #[inline]
    fn forward(&mut self, record: RecordView<'_>) {
        self.streamed += 1;
        self.stage.accept(record, &mut self.out);
    }
}

/// What one member of a fused segment did on one partition.
struct MemberReport {
    records_in: usize,
    records_out: usize,
    /// The member's share of the partition task: the head's is the whole
    /// task, downstream members included (their calls nest inside the head's
    /// emits); a downstream member's is its own end-of-stream work.  See
    /// [`OperatorStats::elapsed`].
    elapsed: Duration,
}

/// Runs one partition of a fused segment inside the calling pool task:
/// composes the downstream members' stages tail first, runs the head's local
/// phase into them, then cascades end-of-stream head → tail.  `inputs` holds
/// every member's delivered inputs in member order.  Returns one report per
/// member and the tail's output pages.
fn run_fused(
    members: &[(&Operator, LocalStrategy)],
    mut inputs: Vec<Vec<ExchangedPartition>>,
    fault: &FaultInjector,
) -> Result<(Vec<MemberReport>, Vec<Arc<RecordPage>>)> {
    let start = Instant::now();
    let mut out = MemberOut::Tail(PageWriter::new());
    for (&(op, local), side) in members[1..].iter().zip(inputs.drain(1..)).rev() {
        let side_records = admit_inputs(&side, fault)?;
        let stream_slot = streaming_input_slot(&op.kind, local)
            .expect("compute_chain_segments fuses only into a streaming slot");
        out = MemberOut::Next(Box::new(FusedStage {
            stage: Stage::new(op, stream_slot, side)?,
            side_records,
            streamed: 0,
            out,
            scratch: Vec::new(),
        }));
    }
    let (head, head_local) = members[0];
    let head_inputs = inputs
        .pop()
        .expect("execute_segment delivers one input set per member");
    let records_in = run_local(head, head_local, head_inputs, fault, &mut out)?;
    let mut reports = vec![MemberReport {
        records_in,
        records_out: out.records(),
        elapsed: Duration::ZERO,
    }];
    // End of stream, head to tail: each member finishes into the next.
    let tail = loop {
        match out {
            MemberOut::Tail(pages) => break pages,
            MemberOut::Next(next) => {
                let FusedStage {
                    stage,
                    side_records,
                    streamed,
                    out: mut downstream,
                    ..
                } = *next;
                let finish_start = Instant::now();
                stage.finish(&mut downstream);
                reports.push(MemberReport {
                    records_in: side_records + streamed,
                    records_out: downstream.records(),
                    elapsed: finish_start.elapsed(),
                });
                out = downstream;
            }
        }
    };
    reports[0].elapsed = start.elapsed();
    Ok((reports, tail.finish()))
}

/// Routes the producer's partitions to the consumer's partitions according to
/// the shipping strategy, updating the shipped/local counters.  Hash
/// exchanges run under the configuration's spill policy
/// ([`ExecConfig::spill_manager`]): the budget is split evenly over the
/// producer×target page writers, and every flushed run is sorted on the
/// exchange key, the order that lets the grouping kernel merge the runs
/// instead of re-sorting them.  Broadcast and forward share the
/// producer's pages by pointer and never spill.  Every producer, and so
/// every delivery, has one partition per parallel instance.
fn exchange(
    producer: PagedPartitions,
    ship: &ShipStrategy,
    parallelism: usize,
    config: &ExecConfig,
    stats: &mut ExecutionStats,
) -> Result<Vec<ExchangedPartition>> {
    let writers = producer.len().max(1) * parallelism;
    match ship {
        ShipStrategy::Forward => {
            stats.local_records += record_count(&producer);
            Ok(producer.into_iter().map(ExchangedPartition::new).collect())
        }
        ShipStrategy::PartitionHash(keys) => route_paged(
            &producer,
            &PartitionRouter::hash(parallelism),
            keys,
            &config.spill_manager(writers, Some(keys.clone())),
            &config.transport,
            stats,
        ),
        ShipStrategy::Broadcast => Ok(broadcast(producer, parallelism, stats)),
    }
}

/// Routes one producer partition into its [`Outbox`]: every record's key is
/// read in place, `router` picks the target, and the record's bytes are
/// copied into the target's writer (the unbudgeted local one when it stays
/// in `source`).
fn route_partition(
    source: usize,
    pages: &[Arc<RecordPage>],
    router: &PartitionRouter,
    keys: &[usize],
    spill: &SpillManager,
) -> std::io::Result<Outbox> {
    let mut outbox = Outbox::new(source, router.parallelism(), spill);
    let mut key = Key::Long(0);
    for record in pages.iter().flat_map(|page| page.reader()) {
        record.key_into(keys, &mut key);
        outbox.forward(router.route_key(&key), record);
    }
    outbox.seal()?;
    Ok(outbox)
}

/// The hash repartitioning exchange: every producer partition routes its
/// records into an [`Outbox`] concurrently on the worker pool, then
/// [`exchange::ship`] delivers the round through a fresh channel of the
/// executor's transport.
fn route_paged(
    producer: &PagedPartitions,
    router: &PartitionRouter,
    keys: &[usize],
    spill: &SpillManager,
    transport: &TransportHandle,
    stats: &mut ExecutionStats,
) -> Result<Vec<ExchangedPartition>> {
    let parallelism = router.parallelism();
    let outboxes = run_on_partitions(
        "exchange-route",
        || "exchange-route".to_string(),
        spill.fault(),
        producer.iter().enumerate().collect(),
        |(source, pages)| route_partition(source, pages, router, keys, spill).map_err(Into::into),
    )?;
    let channel = transport.fresh_channel(parallelism);
    let (result, shipped) =
        exchange::ship(outboxes, parallelism, &*channel, &transport.cluster(), 0)?;
    stats.shipped_records += shipped.shipped_records;
    stats.shipped_bytes += shipped.shipped_bytes;
    stats.local_records += shipped.sent_records - shipped.shipped_records;
    stats.shipped_pages += shipped.shipped_pages;
    stats.spilled_bytes += shipped.spilled_bytes;
    stats.spilled_runs += shipped.spilled_runs;
    Ok(result)
}

/// Broadcast: every consumer partition shares all of the producer's pages
/// by pointer — replication costs one Arc clone per page per target, and
/// nothing is serialized or copied.
fn broadcast(
    producer: PagedPartitions,
    parallelism: usize,
    stats: &mut ExecutionStats,
) -> Vec<ExchangedPartition> {
    let pages: Vec<Arc<RecordPage>> = producer.into_iter().flatten().collect();
    let count: usize = pages.iter().map(|page| page.record_count()).sum();
    let bytes: usize = pages.iter().map(|page| page.byte_len()).sum();
    let copies = parallelism - 1;
    stats.shipped_records += count * copies;
    stats.shipped_bytes += bytes * copies;
    stats.local_records += count;
    stats.shipped_pages += pages.len() * copies;
    (0..parallelism)
        .map(|_| ExchangedPartition::new(pages.clone()))
        .collect()
}

/// Admits one partition's delivered inputs to a local phase: consults the
/// spill-read fault gate once per input backed by spilled runs
/// ([`ExchangedPartition::check_spill_read`]) — before any local algorithm
/// touches the disk — and returns the record total.
fn admit_inputs(inputs: &[ExchangedPartition], fault: &FaultInjector) -> Result<usize> {
    for input in inputs {
        input.check_spill_read(fault)?;
    }
    Ok(inputs.iter().map(ExchangedPartition::record_count).sum())
}

/// Runs one operator's local work on one partition's inputs, emitting into
/// `out`.  Operators that dam every input (sort-merge join, cogroup, union)
/// run their whole-partition algorithm.  Every other operator has a streaming
/// slot: a Reduce groups its delivered partition on the page-native kernel
/// ([`for_each_key_group`]), which hands each group to the user function as
/// views and streams key-sorted spilled runs off disk; any other operator's
/// streaming slot is driven through its [`Stage`] — the same code a fused
/// producer emits into.
/// Returns the number of records consumed; spill-read failures (injected or
/// real) surface as typed errors instead of panics.
fn run_local(
    op: &Operator,
    local: LocalStrategy,
    mut inputs: Vec<ExchangedPartition>,
    fault: &FaultInjector,
    out: &mut MemberOut,
) -> Result<usize> {
    let records_in = admit_inputs(&inputs, fault)?;
    let Some(stream_slot) = streaming_input_slot(&op.kind, local) else {
        run_dammed(op, inputs, out)?;
        return Ok(records_in);
    };
    if let (OperatorKind::Reduce { key }, Udf::Reduce(udf)) = (&op.kind, &op.udf) {
        let mut scratch = GroupScratch::default();
        for_each_key_group(&inputs[stream_slot], key, &mut scratch, |k, group| {
            udf.reduce(&k.values(), group, out)
        })?;
        return Ok(records_in);
    }
    let streamed = inputs.remove(stream_slot);
    let mut stage = Stage::new(op, stream_slot, inputs)?;
    streamed.for_each_view(|record| stage.accept(record, out))?;
    stage.finish(out);
    Ok(records_in)
}

/// The local phase of the operators that dam every input: sort-merge join,
/// cogroup and union.
fn run_dammed(op: &Operator, inputs: Vec<ExchangedPartition>, out: &mut MemberOut) -> Result<()> {
    let mut inputs = inputs.into_iter();
    let mut next_input = || {
        inputs
            .next()
            .expect("Plan::validate checked the input arity")
    };
    match (&op.kind, &op.udf) {
        (
            OperatorKind::Match {
                left_key,
                right_key,
            },
            Udf::Match(udf),
        ) => {
            let (left, right) = (next_input(), next_input());
            let keys = (&left_key[..], &right_key[..]);
            merge_sorted_groups(keys, left, right, false, |_, lgroup, rgroup| {
                for &l in lgroup {
                    for &r in rgroup {
                        udf.join(l, r, out);
                    }
                }
            })?;
        }
        (
            OperatorKind::CoGroup {
                left_key,
                right_key,
                inner,
            },
            Udf::CoGroup(udf),
        ) => {
            let (left, right) = (next_input(), next_input());
            let keys = (&left_key[..], &right_key[..]);
            merge_sorted_groups(keys, left, right, !inner, |key, lgroup, rgroup| {
                udf.cogroup(key, lgroup, rgroup, out)
            })?;
        }
        (OperatorKind::Union, _) => {
            for input in inputs {
                input.for_each_view(|record| out.forward(record))?;
            }
        }
        // Sources never run a local phase (the plan walk partitions them
        // directly), so this is a contract whose UDF does not fit.
        _ => return Err(udf_mismatch(op)),
    }
    Ok(())
}

/// The one two-sided merge of key groups, under the sort-merge Match and
/// CoGroup / InnerCoGroup: `on_groups` gets the key and both sides' groups of
/// every key both sides hold, in key order — with `outer`, of every key
/// either side holds, the missing group empty.  Both sides sort on the
/// shared kernel ([`sort_on_key`]) and the groups are views of the sorted
/// pages.
fn merge_sorted_groups(
    (left_key, right_key): (&[usize], &[usize]),
    left: ExchangedPartition,
    right: ExchangedPartition,
    outer: bool,
    mut on_groups: impl FnMut(&[Value], &[RecordView<'_>], &[RecordView<'_>]),
) -> std::io::Result<()> {
    // The key of a handed-out pair of groups, from whichever side holds it.
    let mut key = Key::Long(0);
    let mut emit = |lgroup: &[RecordView<'_>], rgroup: &[RecordView<'_>]| {
        match lgroup.first() {
            Some(first) => first.key_into(left_key, &mut key),
            None => rgroup[0].key_into(right_key, &mut key),
        }
        on_groups(&key.values(), lgroup, rgroup);
    };
    let (mut lpairs, mut rpairs, mut radix) = (Vec::new(), Vec::new(), Vec::new());
    let lsorted = sort_on_key(&left, left_key, &mut lpairs, &mut radix)?;
    let rsorted = sort_on_key(&right, right_key, &mut rpairs, &mut radix)?;
    let (lranges, rranges) = (lsorted.group_ranges(&lpairs), rsorted.group_ranges(&rpairs));
    let (mut lviews, mut rviews) = (Vec::new(), Vec::new());
    walk_groups(
        &lranges,
        &rranges,
        outer,
        |l, r| lsorted.cmp_keys(&lpairs[l], &rsorted, &rpairs[r]),
        |l, r| {
            lsorted.views_into(&lpairs[l], &mut lviews);
            rsorted.views_into(&rpairs[r], &mut rviews);
            emit(&lviews, &rviews);
        },
    );
    Ok(())
}

/// Walks two key-sorted sequences of groups, given as `(start, end)` ranges,
/// in key order (`cmp` orders the keys of the records at two group starts):
/// `on_groups` gets every pair of groups with equal keys — with `outer`, also
/// every group the other side lacks, beside an empty range.
fn walk_groups(
    left: &[(usize, usize)],
    right: &[(usize, usize)],
    outer: bool,
    cmp: impl Fn(usize, usize) -> std::cmp::Ordering,
    mut on_groups: impl FnMut(Range<usize>, Range<usize>),
) {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let (mut l, mut r) = (left.iter().peekable(), right.iter().peekable());
    loop {
        let order = match (l.peek(), r.peek()) {
            (Some(lg), Some(rg)) => cmp(lg.0, rg.0),
            (Some(_), None) if outer => Less,
            (None, Some(_)) if outer => Greater,
            _ => return,
        };
        let range = |group: Option<&(usize, usize)>| group.map_or(0..0, |&(start, end)| start..end);
        let lgroup = range((order != Greater).then(|| l.next()).flatten());
        let rgroup = range((order != Less).then(|| r.next()).flatten());
        if outer || order == Equal {
            on_groups(lgroup, rgroup);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{
        CoGroupClosure, MapClosure, MatchClosure, ReduceClosure, SourceClosure,
    };
    use crate::key::partition_for;
    use crate::physical::default_physical_plan;
    use crate::plan::Plan;
    use crate::value::Value;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    fn execute(plan: &Plan, parallelism: usize) -> ExecutionResult {
        let phys = default_physical_plan(plan, parallelism).unwrap();
        Executor::new().execute(&phys).unwrap()
    }

    #[test]
    fn channel_credit_parsing_accepts_valid_and_rejects_garbage() {
        let parse = |raw| comm::parse_positive::<usize>(CHANNEL_CREDITS_ENV, raw);
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("")), Ok(None));
        assert_eq!(parse(Some("2")), Ok(Some(2)));
        assert_eq!(parse(Some(" 1024 ")), Ok(Some(1024)));
        let err = parse(Some("lots")).unwrap_err();
        assert!(err.contains(CHANNEL_CREDITS_ENV), "got {err}");
        let err = parse(Some("0")).unwrap_err();
        assert!(err.contains("at least 1"), "got {err}");
    }

    #[test]
    fn map_doubles_values_across_partitions() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..100).map(|i| Record::pair(i, i)).collect();
        let src = plan.source("src", data);
        let map = plan.map(
            "double",
            src,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.emit(&[Value::Long(r.long(0)), Value::Long(r.long(1) * 2)]);
            })),
        );
        plan.sink("out", map);
        for parallelism in [1, 3, 8] {
            let result = execute(&plan, parallelism);
            let mut records = result.sink("out").unwrap();
            records.sort();
            assert_eq!(records.len(), 100);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.long(1), 2 * i as i64);
            }
        }
    }

    #[test]
    fn reduce_sums_groups_regardless_of_parallelism() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..60).map(|i| Record::pair(i % 5, 1)).collect();
        let src = plan.source("src", data);
        let red = plan.reduce(
            "count",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], group: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(&[key[0].clone(), Value::Long(group.len() as i64)]);
                },
            )),
        );
        plan.sink("out", red);
        for parallelism in [1, 4] {
            let result = execute(&plan, parallelism);
            let mut records = result.sink("out").unwrap();
            records.sort();
            assert_eq!(records.len(), 5);
            for r in &records {
                assert_eq!(r.long(1), 12);
            }
        }
    }

    #[test]
    fn match_join_produces_all_matching_pairs() {
        let mut plan = Plan::new();
        let left = plan.source(
            "left",
            vec![
                Record::pair(1, 10),
                Record::pair(2, 20),
                Record::pair(2, 21),
            ],
        );
        let right = plan.source("right", vec![Record::pair(2, 200), Record::pair(3, 300)]);
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(&[Value::Long(l.long(1)), Value::Long(r.long(1))]);
                },
            )),
        );
        plan.sink("out", join);
        let result = execute(&plan, 4);
        let mut records = result.sink("out").unwrap();
        records.sort();
        assert_eq!(records, vec![Record::pair(20, 200), Record::pair(21, 200)]);
    }

    #[test]
    fn inner_cogroup_drops_unmatched_keys() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 10), Record::pair(2, 20)]);
        let right = plan.source("right", vec![Record::pair(2, 200), Record::pair(2, 201)]);
        let cg = plan.inner_cogroup(
            "cg",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(
                |key: &[Value],
                 l: &[RecordView<'_>],
                 r: &[RecordView<'_>],
                 out: &mut dyn RecordSink| {
                    out.emit(&[key[0].clone(), Value::Long((l.len() + r.len()) as i64)]);
                },
            )),
        );
        plan.sink("out", cg);
        let result = execute(&plan, 3);
        let records = result.sink("out").unwrap();
        assert_eq!(records, vec![Record::pair(2, 3)]);
    }

    #[test]
    fn outer_cogroup_keeps_all_keys() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 10)]);
        let right = plan.source("right", vec![Record::pair(2, 200)]);
        let cg = plan.cogroup(
            "cg",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(CoGroupClosure(
                |key: &[Value],
                 l: &[RecordView<'_>],
                 r: &[RecordView<'_>],
                 out: &mut dyn RecordSink| {
                    out.emit(
                        Record::triple(key[0].as_long(), l.len() as i64, r.len() as f64).fields(),
                    );
                },
            )),
        );
        plan.sink("out", cg);
        let result = execute(&plan, 2);
        let mut records = result.sink("out").unwrap();
        records.sort();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn cross_product_with_broadcast_right() {
        let mut plan = Plan::new();
        let left = plan.source("left", vec![Record::pair(1, 0), Record::pair(2, 0)]);
        let right = plan.source(
            "right",
            vec![
                Record::pair(10, 0),
                Record::pair(20, 0),
                Record::pair(30, 0),
            ],
        );
        let cross = plan.cross(
            "cross",
            left,
            right,
            Arc::new(crate::contracts::CrossClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(&[Value::Long(l.long(0)), Value::Long(r.long(0))]);
                },
            )),
        );
        plan.sink("out", cross);
        let result = execute(&plan, 2);
        let records = result.sink("out").unwrap();
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn union_concatenates_inputs() {
        let mut plan = Plan::new();
        let a = plan.source("a", vec![Record::pair(1, 1)]);
        let b = plan.source("b", vec![Record::pair(2, 2), Record::pair(3, 3)]);
        let u = plan.union("u", vec![a, b]);
        plan.sink("out", u);
        let result = execute(&plan, 2);
        assert_eq!(result.sink("out").unwrap().len(), 3);
    }

    #[test]
    fn zero_parallelism_plans_are_rejected() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![Record::pair(1, 1)]);
        plan.sink("out", src);
        // Construction-time validation.
        assert!(default_physical_plan(&plan, 0).is_err());
        // A hand-built plan with parallelism 0 is rejected by the executor
        // instead of being clamped silently.
        let mut phys = default_physical_plan(&plan, 2).unwrap();
        phys.parallelism = 0;
        assert!(Executor::new().execute(&phys).is_err());
    }

    #[test]
    fn hand_built_plans_without_a_complete_choice_are_rejected() {
        let (plan, red) = keyed_sum_plan(vec![Record::pair(1, 1)]);
        let complete = default_physical_plan(&plan, 2).unwrap();
        let rejected = |phys: &PhysicalPlan| match Executor::new().execute(phys) {
            Err(DataflowError::InvalidPlan(message)) => message,
            other => panic!("expected InvalidPlan, got {other:?}"),
        };
        // No choice at all for a non-source operator.
        let mut phys = complete.clone();
        phys.choices.remove(&red);
        assert!(rejected(&phys).contains("'sum'"));
        // A choice sized for a different input count.
        let mut phys = complete.clone();
        phys.choices.get_mut(&red).unwrap().input_ships.clear();
        assert!(rejected(&phys).contains("'sum'"));
        let mut phys = complete.clone();
        phys.choices.get_mut(&red).unwrap().cache_inputs.push(true);
        assert!(rejected(&phys).contains("'sum'"));
        // Sources take no physical decision.
        let mut phys = complete;
        phys.choices
            .retain(|id, _| !matches!(plan.operator(*id).kind, OperatorKind::Source { .. }));
        Executor::new().execute(&phys).unwrap();
    }

    #[test]
    fn unknown_sink_is_an_error() {
        let mut plan = Plan::new();
        let a = plan.source("a", vec![]);
        plan.sink("out", a);
        let result = execute(&plan, 1);
        assert!(result.sink("nope").is_err());
    }

    #[test]
    fn stats_count_shipped_records_for_partitioning() {
        let mut plan = Plan::new();
        let data: Vec<Record> = (0..1000).map(|i| Record::pair(i, 1)).collect();
        let src = plan.source("src", data);
        let red = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    out.emit(&[key[0].clone(), Value::Long(g.len() as i64)]);
                },
            )),
        );
        plan.sink("out", red);
        let result = execute(&plan, 4);
        // With 4 partitions roughly 3/4 of the records move; certainly > 0.
        assert!(result.stats.shipped_records > 0);
        assert!(result.stats.shipped_bytes >= result.stats.shipped_records * 8);
        assert_eq!(result.stats.records_out_of("sum"), 1000);
    }

    #[test]
    fn broadcast_counts_replicated_records() {
        let mut plan = Plan::new();
        let left = plan.source(
            "left",
            (0..10).map(|i| Record::pair(i, 0)).collect::<Vec<_>>(),
        );
        let right = plan.source(
            "right",
            (0..5).map(|i| Record::pair(i, 0)).collect::<Vec<_>>(),
        );
        let cross = plan.cross(
            "cross",
            left,
            right,
            Arc::new(crate::contracts::CrossClosure(
                |l: RecordView<'_>, _r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.forward(l);
                },
            )),
        );
        plan.sink("out", cross);
        let sorted_sink = |parallelism| {
            let phys = default_physical_plan(&plan, parallelism).unwrap();
            assert_eq!(phys.choice(cross).input_ships[1], ShipStrategy::Broadcast);
            let result = Executor::new().execute(&phys).unwrap();
            let mut records = result.sink("out").unwrap();
            records.sort();
            (result.stats, records)
        };
        let (wide, wide_records) = sorted_sink(4);
        // 5 broadcast records each replicated to 3 other partitions.
        assert_eq!(wide.shipped_records, 15);
        assert_eq!(wide_records.len(), 50);
        // One partition: the broadcast side is its producer's pages, shared
        // with the lone consumer; nothing ships, and the product is the same.
        let (lone, lone_records) = sorted_sink(1);
        assert_eq!((lone.shipped_records, lone.shipped_pages), (0, 0));
        assert_eq!(lone_records, wide_records);
    }

    #[test]
    fn cached_edges_skip_reshipping() {
        let mut plan = Plan::new();
        let left = plan.source(
            "left",
            (0..50).map(|i| Record::pair(i, i)).collect::<Vec<_>>(),
        );
        let right = plan.source(
            "right",
            (0..50).map(|i| Record::pair(i, -i)).collect::<Vec<_>>(),
        );
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(&[Value::Long(l.long(1)), Value::Long(r.long(1))]);
                },
            )),
        );
        plan.sink("out", join);
        let mut phys = default_physical_plan(&plan, 4).unwrap();
        phys.cache_input(join, 1);
        let mut cache = IntermediateCache::new();
        let exec = Executor::new();
        let first = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(cache.len(), 1);
        let second = exec.execute_with_cache(&phys, &mut cache).unwrap();
        assert_eq!(second.stats.cache_hits, 1);
        // Fewer records shipped in the second run because the right input is
        // served from the cache.
        assert!(second.stats.shipped_records < first.stats.shipped_records);
        assert_eq!(
            first.sink("out").unwrap().len(),
            second.sink("out").unwrap().len()
        );
        // The cached source is not partitioned again, but reports the same
        // row as when it was.
        assert_eq!(operator_rows(&first.stats), operator_rows(&second.stats));
    }

    /// `(operator, records_in, records_out)` in execution order.
    fn operator_rows(stats: &ExecutionStats) -> Vec<(&str, usize, usize)> {
        stats
            .operators
            .iter()
            .map(|o| (o.name.as_str(), o.records_in, o.records_out))
            .collect()
    }

    /// Counts heap-allocated bytes per thread, so a test can bound what a
    /// call allocates on its own thread while sibling tests run on theirs.
    struct CountingAllocator;

    thread_local! {
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    // SAFETY: every request is passed to the system allocator unchanged; the
    // counter is a plain thread-local integer and never allocates.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    #[test]
    fn sources_served_from_the_cache_are_not_partitioned_again() {
        const RECORDS: usize = 4096;
        let mut plan = Plan::new();
        let matrix = plan.source(
            "matrix",
            (0..RECORDS as i64)
                .map(|i| Record::pair(i, -i))
                .collect::<Vec<_>>(),
        );
        let sample = plan.map(
            "sample",
            matrix,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                if r.long(0) % 1024 == 0 {
                    out.forward(r);
                }
            })),
        );
        plan.sink("out", sample);
        let mut phys = default_physical_plan(&plan, 1).unwrap();
        phys.cache_input(sample, 0);
        let mut cache = IntermediateCache::new();
        let exec = Executor::new();
        let first = exec.execute_with_cache(&phys, &mut cache).unwrap();

        // Partitioning a source serializes every record onto pages on the
        // calling thread — the source's whole serialized size.  With its
        // only consumer edge cached, the second execution has no reader for
        // those pages and writes none.
        let source_bytes = RECORDS * Record::pair(0, 0).estimated_bytes();
        let before = ALLOCATED.with(Cell::get);
        let second = exec.execute_with_cache(&phys, &mut cache).unwrap();
        let allocated = ALLOCATED.with(Cell::get) - before;
        assert_eq!(second.stats.cache_hits, 1);
        assert!(
            allocated < source_bytes / 4,
            "re-executing over a cached {RECORDS}-record ({source_bytes} B) source \
             allocated {allocated} B"
        );
        assert_eq!(operator_rows(&first.stats), operator_rows(&second.stats));
        assert_eq!(second.stats.records_out_of("matrix"), RECORDS);
        assert_eq!(first.sink("out").unwrap(), second.sink("out").unwrap());
        assert_eq!(second.sink("out").unwrap().len(), 4);
    }

    #[test]
    fn sort_merge_join_matches_hash_join() {
        let mut plan = Plan::new();
        let left_data: Vec<Record> = (0..40).map(|i| Record::pair(i % 7, i)).collect();
        let right_data: Vec<Record> = (0..30).map(|i| Record::pair(i % 7, 100 + i)).collect();
        let left = plan.source("left", left_data);
        let right = plan.source("right", right_data);
        let join = plan.match_join(
            "join",
            left,
            right,
            vec![0],
            vec![0],
            Arc::new(MatchClosure(
                |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.emit(&[Value::Long(l.long(1)), Value::Long(r.long(1))]);
                },
            )),
        );
        plan.sink("out", join);

        let mut hash_phys = default_physical_plan(&plan, 3).unwrap();
        hash_phys.choices.get_mut(&join).unwrap().local = LocalStrategy::HashJoinBuildRight;
        let mut smj_phys = default_physical_plan(&plan, 3).unwrap();
        smj_phys.choices.get_mut(&join).unwrap().local = LocalStrategy::SortMergeJoin;

        let exec = Executor::new();
        let mut a = exec.execute(&hash_phys).unwrap().sink("out").unwrap();
        let mut b = exec.execute(&smj_phys).unwrap().sink("out").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn paged_exchange_routes_like_per_record_exchange() {
        // The sealed-page exchange must deliver exactly the records a naive
        // per-record clone-based exchange would, to exactly the same targets.
        let parallelism = 4;
        let mut producer: Partitions = vec![Vec::new(); parallelism];
        for i in 0..1000i64 {
            producer[(i % parallelism as i64) as usize].push(Record::triple(
                i.wrapping_mul(0x9E37),
                i,
                0.5,
            ));
        }
        let mut expected: Vec<Vec<Record>> = vec![Vec::new(); parallelism];
        for partition in &producer {
            for r in partition {
                expected[partition_for(r, &[0], parallelism)].push(r.clone());
            }
        }
        let mut stats = ExecutionStats::new();
        let spill = SpillManager::new(MemoryBudget::unlimited(), Some(vec![0]));
        let exchanged = route_paged(
            &paged(&producer),
            &PartitionRouter::hash(parallelism),
            &[0],
            &spill,
            &TransportHandle::default(),
            &mut stats,
        )
        .unwrap();
        assert!(
            stats.shipped_pages > 0,
            "cross-partition data moves as pages"
        );
        assert_eq!(stats.spilled_runs, 0, "unbudgeted exchanges never spill");
        assert!(stats.shipped_records > 0);
        assert_eq!(stats.shipped_records + stats.local_records, 1000);
        for (target, part) in exchanged.into_iter().enumerate() {
            let mut received = part.records();
            received.sort();
            let mut want = expected[target].clone();
            want.sort();
            assert_eq!(received, want, "partition {target} diverged");
        }
    }

    /// Each producer partition's records on its own pages.
    fn paged(producer: &Partitions) -> PagedPartitions {
        producer
            .iter()
            .map(|records| {
                let mut writer = PageWriter::new();
                records.iter().for_each(|record| {
                    writer.push(record);
                });
                writer.finish()
            })
            .collect()
    }

    #[test]
    fn broadcast_shares_sealed_pages() {
        let producer: Partitions = vec![
            (0..10).map(|i| Record::pair(i, i)).collect(),
            (10..25).map(|i| Record::pair(i, i)).collect(),
        ];
        let producer = paged(&producer);
        let mut stats = ExecutionStats::new();
        let exchanged = broadcast(producer.clone(), 3, &mut stats);
        assert_eq!(stats.shipped_records, 25 * 2);
        assert_eq!(stats.local_records, 25);
        assert_eq!(
            stats.shipped_pages,
            2 * 2,
            "one page per producer partition"
        );
        for part in exchanged {
            // Every target holds the producer's own pages.
            assert_eq!(part.page_count(), 2);
            let mut shared = part.pages().iter().zip(producer.iter().flatten());
            assert!(shared.all(|(a, b)| Arc::ptr_eq(a, b)));
            let mut records = part.records();
            records.sort();
            assert_eq!(
                records,
                (0..25).map(|i| Record::pair(i, i)).collect::<Vec<_>>()
            );
        }
    }

    /// Builds a keyed-sum plan and returns `(plan, reduce id)`.
    fn keyed_sum_plan(records: Vec<Record>) -> (Plan, OperatorId) {
        let mut plan = Plan::new();
        let src = plan.source("src", records);
        let red = plan.reduce(
            "sum",
            src,
            vec![0],
            Arc::new(ReduceClosure(
                |key: &[Value], g: &[RecordView<'_>], out: &mut dyn RecordSink| {
                    let total: i64 = g.iter().map(|r| r.long(1)).sum();
                    out.emit(&[key[0].clone(), Value::Long(total)]);
                },
            )),
        );
        plan.sink("out", red);
        (plan, red)
    }

    /// The constant-path cache is the ordinary exchange's delivery, retained:
    /// against one cache, execution 1 of a plan with a cached edge is the
    /// uncached plan's execution in everything observable, and executions 2–3
    /// reproduce its result without shipping or spilling anything.
    #[test]
    fn cached_edges_are_the_exchange_delivery_retained() {
        /// Per-partition sink records and per-operator rows.
        fn observed(result: &ExecutionResult) -> (Partitions, Vec<(&str, usize, usize)>) {
            (
                result.sink_partitions("out").unwrap(),
                operator_rows(&result.stats),
            )
        }
        let records: Vec<Record> = (0..600).map(|i| Record::pair((i * 7) % 50, i)).collect();
        let (plan, red) = keyed_sum_plan(records);
        let (unlimited, zero) = (MemoryBudget::unlimited(), MemoryBudget::bytes(0));
        let ships = [
            ShipStrategy::Forward,
            ShipStrategy::PartitionHash(vec![0]),
            ShipStrategy::Broadcast,
        ];
        for parallelism in [1, 4] {
            // A cached edge's exchange runs under the executor's budget.
            for budget in [unlimited, zero] {
                for ship in &ships {
                    let case = format!("{ship} p={parallelism} budget={budget:?}");
                    let mut phys = default_physical_plan(&plan, parallelism).unwrap();
                    phys.choices.get_mut(&red).unwrap().input_ships[0] = ship.clone();
                    let executor =
                        Executor::with_config(ExecConfig::new().with_memory_budget(budget));
                    let oracle = executor.execute(&phys).unwrap();
                    let shipped = |stats: &ExecutionStats| {
                        (
                            stats.shipped_records,
                            stats.shipped_bytes,
                            stats.shipped_pages,
                            stats.spilled_runs,
                        )
                    };

                    phys.cache_input(red, 0);
                    let mut cache = IntermediateCache::new();
                    let first = executor.execute_with_cache(&phys, &mut cache).unwrap();
                    assert_eq!(observed(&first), observed(&oracle), "{case}");
                    assert_eq!(shipped(&first.stats), shipped(&oracle.stats), "{case}");
                    assert_eq!(first.stats.local_records, oracle.stats.local_records);
                    assert_eq!(first.stats.spilled_bytes, oracle.stats.spilled_bytes);
                    assert_eq!(first.stats.cache_hits, 0);

                    let edge = &cache.entries[&(red, 0)];
                    assert_eq!(edge.len(), parallelism, "{case}");
                    // What the exchange spilled stays on disk while cached.
                    let run_files: Vec<_> = edge
                        .iter()
                        .flat_map(|part| part.runs())
                        .map(|run| run.path().to_owned())
                        .collect();
                    let repartitions = matches!(ship, ShipStrategy::PartitionHash(_));
                    assert_eq!(
                        !run_files.is_empty(),
                        budget == zero && parallelism > 1 && repartitions,
                        "{case}"
                    );
                    assert_eq!(run_files.is_empty(), first.stats.spilled_runs == 0);

                    // Retained pages are served by pointer, spilled or not.
                    let retained: Vec<*const RecordPage> = cache.entries[&(red, 0)]
                        .iter()
                        .flat_map(|part| part.pages())
                        .map(Arc::as_ptr)
                        .collect();
                    for _ in 0..2 {
                        let again = executor.execute_with_cache(&phys, &mut cache).unwrap();
                        assert_eq!(observed(&again), observed(&oracle), "{case}");
                        assert_eq!(again.stats.cache_hits, 1);
                        assert_eq!(shipped(&again.stats), (0, 0, 0, 0), "{case}");
                        let edge = &cache.entries[&(red, 0)];
                        let pages = edge.iter().flat_map(|part| part.pages());
                        assert!(pages.map(Arc::as_ptr).eq(retained.iter().copied()));
                    }
                    assert!(run_files.iter().all(|file| file.exists()), "{case}");
                    cache.clear();
                    assert!(!run_files.iter().any(|file| file.exists()), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_cache_serves_only_the_parallelism_it_was_filled_at() {
        let records: Vec<Record> = (0..400).map(|i| Record::pair(i % 37 - 9, i)).collect();
        let (plan, red) = keyed_sum_plan(records);
        let sorted = |result: &ExecutionResult| {
            let mut records = result.sink("out").unwrap();
            records.sort();
            records
        };
        let executor = Executor::new();
        let physical = |parallelism| {
            let mut phys = default_physical_plan(&plan, parallelism).unwrap();
            phys.cache_input(red, 0);
            phys
        };
        let mut cache = IntermediateCache::new();
        let filled = executor
            .execute_with_cache(&physical(4), &mut cache)
            .unwrap();
        for other in [2, 8] {
            match executor.execute_with_cache(&physical(other), &mut cache) {
                Err(DataflowError::InvalidPlan(message)) => assert!(
                    message.contains("parallelism 4")
                        && message.contains(&format!("parallelism {other}")),
                    "{message}"
                ),
                result => panic!("p={other}: expected InvalidPlan, got {result:?}"),
            }
        }
        // The rejected runs left the cache serving its own parallelism.
        let again = executor
            .execute_with_cache(&physical(4), &mut cache)
            .unwrap();
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(sorted(&again), sorted(&filled));
        // Cleared, it fills at any parallelism.
        for other in [2, 8] {
            cache.clear();
            let result = executor.execute_with_cache(&physical(other), &mut cache);
            assert_eq!(sorted(&result.unwrap()), sorted(&filled), "p={other}");
        }
    }

    /// Every delivery of a hash join's build side — forward from a cached
    /// edge, hash, hash under a zero budget (spilled partitions), broadcast —
    /// probed fused or not, and keyed by `Long` (the paged index) or `Text`
    /// (the map), joins each partition exactly as the sort-merge join of the
    /// same plan does.
    #[test]
    fn hash_join_agrees_with_sort_merge_for_every_build_side_delivery() {
        for text in [false, true] {
            let key = |i: i64| match text {
                false => Value::Long(i % 13 - 6),
                true => Value::Text(format!("k{}", i % 13)),
            };
            let record = |k: i64, v: i64| Record::new(vec![key(k), Value::Long(v)]);
            let mut plan = Plan::new();
            let probe = plan.source(
                "probe",
                (0..300).map(|i| record(i * 7, i)).collect::<Vec<_>>(),
            );
            let probe = plan.map(
                "probe-map",
                probe,
                Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                    out.forward(r)
                })),
            );
            let build = plan.source("build", (0..200).map(|i| record(i, -i)).collect::<Vec<_>>());
            let join = plan.match_join(
                "join",
                probe,
                build,
                vec![0],
                vec![0],
                Arc::new(MatchClosure(
                    |l: RecordView<'_>, r: RecordView<'_>, out: &mut dyn RecordSink| {
                        let (l, r) = (l.materialize(), r.materialize());
                        out.emit(&[l.field(0).clone(), l.field(1).clone(), r.field(1).clone()])
                    },
                )),
            );
            plan.sink("out", join);
            let hashed = ShipStrategy::PartitionHash(vec![0]);
            let deliveries = [
                (
                    "forward-cached",
                    ShipStrategy::Forward,
                    ShipStrategy::Forward,
                ),
                ("hash", hashed.clone(), hashed.clone()),
                ("hash-budget-0", hashed.clone(), hashed),
                ("broadcast", ShipStrategy::Forward, ShipStrategy::Broadcast),
            ];
            for parallelism in [1, 4] {
                for (delivery, probe_ship, build_ship) in &deliveries {
                    let case = format!("{delivery} text={text} p={parallelism}");
                    let run = |local: LocalStrategy| {
                        let mut phys = default_physical_plan(&plan, parallelism).unwrap();
                        let choice = phys.choices.get_mut(&join).unwrap();
                        choice.local = local;
                        choice.input_ships = vec![probe_ship.clone(), build_ship.clone()];
                        let cached = *delivery == "forward-cached";
                        if cached {
                            phys.cache_input(join, 1);
                        }
                        let budget = match *delivery {
                            "hash-budget-0" => MemoryBudget::bytes(0),
                            _ => MemoryBudget::unlimited(),
                        };
                        let executor =
                            Executor::with_config(ExecConfig::new().with_memory_budget(budget));
                        let mut cache = IntermediateCache::new();
                        let mut results = Vec::new();
                        for _ in 0..1 + usize::from(cached) {
                            results.push(executor.execute_with_cache(&phys, &mut cache).unwrap());
                        }
                        let last = results.last().unwrap();
                        assert_eq!(last.stats.cache_hits, usize::from(cached), "{case}");
                        if budget == MemoryBudget::bytes(0) && parallelism > 1 {
                            assert!(last.stats.spilled_runs > 0, "{case}");
                        }
                        results
                            .iter()
                            .map(|result| {
                                let mut parts = result.sink_partitions("out").unwrap();
                                parts.iter_mut().for_each(|part| part.sort());
                                parts
                            })
                            .collect::<Vec<_>>()
                    };
                    let hash = run(LocalStrategy::HashJoinBuildRight);
                    let merge = run(LocalStrategy::SortMergeJoin);
                    assert_eq!(hash, merge, "{case}");
                    assert!(hash[0].iter().any(|part| !part.is_empty()), "{case}");
                }
            }
        }
    }

    #[test]
    fn budgeted_execution_matches_unbudgeted_execution() {
        // The whole plan under a zero budget (the grouping kernel merging
        // sorted spilled runs) must equal the in-memory run.
        let records: Vec<Record> = (0..3000).map(|i| Record::pair(i % 97 - 40, 1)).collect();
        let (plan, _) = keyed_sum_plan(records);
        let unbudgeted = Executor::new()
            .execute(&default_physical_plan(&plan, 4).unwrap())
            .unwrap();
        assert_eq!(unbudgeted.stats.spilled_bytes, 0);
        let mut expected = unbudgeted.into_sink("out").unwrap();
        expected.sort();
        let executor =
            Executor::with_config(ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0)));
        let result = executor
            .execute(&default_physical_plan(&plan, 4).unwrap())
            .unwrap();
        assert!(result.stats.spilled_bytes > 0, "zero budget must spill");
        assert!(result.stats.spilled_runs > 0);
        let mut got = result.into_sink("out").unwrap();
        got.sort();
        assert_eq!(got, expected, "budgeted run diverged");
    }

    /// Channel credits bound the executor's outboxes as they bound the
    /// superstep exchange's: with an unlimited budget and one credit, every
    /// writer's sealed pages past the first go to disk, and nothing
    /// observable but the spill counters changes.
    #[test]
    fn channel_credits_bound_the_executor_outboxes() {
        let records: Vec<Record> = (0..20_000).map(|i| Record::pair(i % 997, i)).collect();
        let (plan, _) = keyed_sum_plan(records);
        let phys = default_physical_plan(&plan, 2).unwrap();
        let run = |config| Executor::with_config(config).execute(&phys).unwrap();
        let uncredited = run(ExecConfig {
            channel_credits: None,
            ..ExecConfig::new()
        });
        let credited = run(ExecConfig::new().with_channel_credits(1));
        assert_eq!(uncredited.stats.spilled_runs, 0);
        assert!(credited.stats.spilled_runs > 0);
        assert_eq!(
            credited.sink_partitions("out").unwrap(),
            uncredited.sink_partitions("out").unwrap()
        );
        assert_eq!(credited.stats.shipped_bytes, uncredited.stats.shipped_bytes);
    }

    #[test]
    fn empty_source_flows_through() {
        let mut plan = Plan::new();
        let src = plan.source("src", vec![]);
        let map = plan.map(
            "id",
            src,
            Arc::new(MapClosure(|r: RecordView<'_>, out: &mut dyn RecordSink| {
                out.forward(r)
            })),
        );
        plan.sink("out", map);
        let result = execute(&plan, 4);
        assert!(result.sink("out").unwrap().is_empty());
    }

    /// A source is split into contiguous chunks of `ceil(n / p)` records
    /// whatever form it comes in: heap records, a description emitting the
    /// same fields, and the pages of those records give byte-equal pages
    /// per partition, equal to serializing each chunk of the records.
    #[test]
    fn a_source_splits_the_same_in_every_form() {
        fn fields(i: usize) -> Vec<Value> {
            let text = "x".repeat(i % 61);
            vec![
                Value::Long(i as i64),
                Value::Text(text),
                Value::Double(i as f64 / 3.0),
            ]
        }
        fn bytes(parts: &PagedPartitions) -> Vec<Vec<Vec<u8>>> {
            let page_bytes = |page: &Arc<RecordPage>| page.bytes().to_vec();
            parts
                .iter()
                .map(|part| part.iter().map(page_bytes).collect())
                .collect()
        }
        for p in [1, 2, 3, 7] {
            for n in [0, 1, p - 1, p, p + 1, 5_000] {
                let records: Vec<Record> = (0..n).map(|i| Record::new(fields(i))).collect();
                let expected: PagedPartitions = (0..p)
                    .map(|part| {
                        let chunk = n.div_ceil(p).max(1);
                        let mut writer = PageWriter::new();
                        for record in records.iter().skip(part * chunk).take(chunk) {
                            writer.push(record);
                        }
                        writer.finish()
                    })
                    .collect();
                let described = SourceClosure::new(n, |out: &mut dyn RecordSink| {
                    (0..n).for_each(|i| out.emit(&fields(i)))
                });
                let mut writer = PageWriter::with_page_bytes(256);
                for record in &records {
                    writer.push(record);
                }
                let pages = SinkPages(vec![writer.finish()]);
                let label = format!("n = {n}, p = {p}");
                // The long inputs cross page boundaries in every partition.
                assert!(
                    n < 5_000 || expected.iter().all(|part| part.len() > 1),
                    "{label}"
                );
                for source in [&records as &dyn RecordSource, &described, &pages] {
                    let split = split_into_partitions(source, p);
                    assert_eq!(split.len(), p, "{label}");
                    assert_eq!(bytes(&split), bytes(&expected), "{label}");
                }
            }
        }
    }
}
