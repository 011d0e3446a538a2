//! The benchmark's only contact with the engine.
//!
//! Every call into the engine crates lives in this file, behind functions
//! that each do one unit of work and neither time nor judge it — the callers
//! in `run.rs` and `layers.rs` do that.  Only the crates' public APIs are
//! used, so an API change breaks this file at compile time instead of
//! silently changing what is measured.  Engine types stay inside opaque
//! wrappers; the rest of the benchmark sees plain numbers.

use crate::spec::{Algorithm, Dataset, Deployment, Workload, PAGERANK_ITERATIONS, PARALLELISM};
use algorithms::common::{
    edge_records, initial_component_candidates, initial_components, initial_ranks, records_to_vec,
    transition_matrix,
};
use algorithms::{oracles, ComponentsConfig, PageRankConfig};
use baselines::{cc_pregel, pagerank_pregel, PregelConfig};
use dataflow::credit::credit_channel;
use dataflow::prelude::{
    ClusterSpec, ExecConfig, Executor, FaultInjector, IntermediateCache, Key, MemoryBudget,
    OperatorId, PageWriter, PartitionRouter, PhysicalPlan, RangeBounds, Record, RecordPage,
    RunMerger, SharedPageChannel, ShipStrategy, SpillManager, SpilledRun, TransportHandle,
};
use dataflow::range::sample_keys_into;
use graphdata::{DatasetProfile, Graph};
use optimizer::{IterationSpec, Optimizer};
use spinning_core::{CheckpointStore, ExecutionMode, IterationRunStats, SolutionSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const DAMPING: f64 = 0.85;

/// The exchange budget and channel credits of the `Spill` deployment.
const SPILL_BUDGET_BYTES: usize = 65_536;
const SPILL_CREDITS: usize = 2;

/// Clears every ambient `SPINNING_*` knob, so a stray budget or fault rate in
/// the caller's shell cannot change what is measured, then points the
/// engine's spill directory at the benchmark-owned `spill_dir`.
pub fn scrub_environment(spill_dir: &Path) {
    let ambient: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("SPINNING_"))
        .collect();
    for name in ambient {
        std::env::remove_var(name);
    }
    std::env::set_var(dataflow::spill::SPILL_DIR_ENV, spill_dir);
}

// --- Inputs ------------------------------------------------------------------

pub struct InputGraph(Graph);

impl InputGraph {
    pub fn vertices(&self) -> usize {
        self.0.num_vertices()
    }

    pub fn edges(&self) -> usize {
        self.0.num_edges()
    }
}

/// Generates the workload's graph.  `seed` perturbs the dataset profile's
/// generator seed; nothing else of the seed reaches the engine.
pub fn generate_graph(dataset: Dataset, scale: u64, seed: u64) -> InputGraph {
    let mut profile = match dataset {
        Dataset::Twitter => DatasetProfile::twitter(),
        Dataset::Webbase => DatasetProfile::webbase(),
        Dataset::Wikipedia => DatasetProfile::wikipedia(),
    };
    profile.seed = profile
        .seed
        .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    InputGraph(profile.generate(scale))
}

/// The graph in the record form the algorithm consumes.
pub enum InputRecords {
    Components {
        edges: Arc<Vec<Record>>,
        solution: Vec<Record>,
        workset: Vec<Record>,
    },
    PageRank {
        matrix: Arc<Vec<Record>>,
        ranks: Vec<Record>,
    },
}

pub fn build_records(graph: &InputGraph, algorithm: Algorithm) -> InputRecords {
    match algorithm {
        Algorithm::Components => InputRecords::Components {
            edges: edge_records(&graph.0),
            solution: initial_components(&graph.0),
            workset: initial_component_candidates(&graph.0),
        },
        Algorithm::PageRank => InputRecords::PageRank {
            matrix: transition_matrix(&graph.0),
            ranks: initial_ranks(&graph.0),
        },
    }
}

impl InputRecords {
    pub fn len(&self) -> usize {
        match self {
            InputRecords::Components {
                edges,
                solution,
                workset,
            } => edges.len() + solution.len() + workset.len(),
            InputRecords::PageRank { matrix, ranks } => matrix.len() + ranks.len(),
        }
    }
}

/// The sequential oracle's answer for the workload.
pub enum Expected {
    Components(Vec<i64>),
    Ranks(Vec<f64>),
}

pub fn oracle(graph: &InputGraph, algorithm: Algorithm) -> Expected {
    match algorithm {
        Algorithm::Components => Expected::Components(
            oracles::connected_components(&graph.0)
                .into_iter()
                .map(i64::from)
                .collect(),
        ),
        Algorithm::PageRank => {
            Expected::Ranks(oracles::pagerank(&graph.0, PAGERANK_ITERATIONS, DAMPING))
        }
    }
}

fn check_components(got: &[i64], expected: &Expected) -> Result<(), String> {
    match expected {
        Expected::Components(want) if got == want.as_slice() => Ok(()),
        Expected::Components(_) => Err("component labels differ from the oracle".into()),
        Expected::Ranks(_) => Err("oracle is for PageRank".into()),
    }
}

fn check_ranks(got: &[f64], expected: &Expected) -> Result<(), String> {
    let Expected::Ranks(want) = expected else {
        return Err("oracle is for Connected Components".into());
    };
    if got.len() != want.len() {
        return Err(format!("{} ranks, oracle has {}", got.len(), want.len()));
    }
    // A NaN rank is a mismatch too.
    let differs = |(g, w): (&f64, &f64)| g.is_nan() || (g - w).abs() > 1e-9;
    match got.iter().zip(want).position(differs) {
        None => Ok(()),
        Some(v) => Err(format!(
            "rank of vertex {v} is {}, oracle says {}",
            got[v], want[v]
        )),
    }
}

// --- Cluster -----------------------------------------------------------------

/// A loopback TCP cluster of `PARALLELISM` single-partition workers, all
/// living in this process.
pub struct Cluster {
    workers: Vec<TransportHandle>,
}

/// Brings the cluster up.  The coordinator half starts first and the workers
/// dial only once it is (about to be) listening: a worker that dials a closed
/// port backs off and retries, and that back-off, not the handshake, would
/// dominate the measured rendezvous.
pub fn rendezvous() -> Result<Cluster, String> {
    let coordinator = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .map_err(|e| format!("no free loopback port: {e}"))?
        .to_string();
    let connect = |index: usize| {
        let spec = ClusterSpec::new(PARALLELISM, index).map_err(|e| e.to_string())?;
        TransportHandle::tcp_cluster(spec, &coordinator, &FaultInjector::disabled())
            .map_err(|e| e.to_string())
    };
    let workers = std::thread::scope(|scope| {
        let first = scope.spawn(|| connect(0));
        std::thread::sleep(Duration::from_millis(2));
        let rest: Vec<_> = (1..PARALLELISM)
            .map(|index| scope.spawn(move || connect(index)))
            .collect();
        std::iter::once(first)
            .chain(rest)
            .map(|handle| {
                handle
                    .join()
                    .map_err(|_| "rendezvous thread panicked".to_owned())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Cluster { workers })
}

// --- Jobs --------------------------------------------------------------------

/// The counts a job's public stats structs report.  For a given seed they
/// repeat exactly from job to job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Supersteps (workset driver) or iterations (bulk driver).
    pub steps: u64,
    pub messages_sent: u64,
    pub shipped_records: u64,
    pub inspected: u64,
    pub changed: u64,
    pub spilled_bytes: u64,
    pub spilled_runs: u64,
    pub queue_high_water: u64,
    pub exec_shipped_bytes: u64,
    pub exec_shipped_pages: u64,
    pub exec_local_records: u64,
    pub exec_cache_hits: u64,
    pub exec_chained_operators: u64,
}

/// What one job reported about itself.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    pub counts: Counts,
    /// `(wall seconds, workset size)` of every superstep or iteration.
    pub steps: Vec<(f64, usize)>,
    /// Maximum sealed pages in flight on any fused chain edge.  Depends on
    /// thread timing, so it is kept apart from the exactly repeating counts.
    pub exec_peak_chain_pages: u64,
    /// `OperatorStats.elapsed` summed per contract: partition-summed, so
    /// CPU-like rather than wall time.
    pub match_busy_s: f64,
    pub reduce_busy_s: f64,
    pub map_busy_s: f64,
}

fn job_stats(stats: &IterationRunStats) -> JobStats {
    let mut out = JobStats::default();
    let counts = &mut out.counts;
    counts.steps = stats.iterations() as u64;
    counts.queue_high_water = stats.max_queue_high_water() as u64;
    for step in &stats.per_iteration {
        out.steps
            .push((step.elapsed.as_secs_f64(), step.workset_size));
        counts.messages_sent += step.messages_sent as u64;
        counts.shipped_records += step.messages_shipped as u64;
        counts.inspected += step.elements_inspected as u64;
        counts.changed += step.elements_changed as u64;
        counts.spilled_bytes += step.spilled_bytes as u64;
        counts.spilled_runs += step.spilled_runs as u64;
        let Some(execution) = &step.execution else {
            continue;
        };
        counts.exec_shipped_bytes += execution.shipped_bytes as u64;
        counts.exec_shipped_pages += execution.shipped_pages as u64;
        counts.exec_local_records += execution.local_records as u64;
        counts.exec_cache_hits += execution.cache_hits as u64;
        counts.exec_chained_operators += execution.chained_operators as u64;
        out.exec_peak_chain_pages = out
            .exec_peak_chain_pages
            .max(execution.peak_chain_pages as u64);
        for operator in &execution.operators {
            let busy = operator.elapsed.as_secs_f64();
            match operator.contract.as_str() {
                "Match" => out.match_busy_s += busy,
                "Reduce" => out.reduce_busy_s += busy,
                "Map" => out.map_busy_s += busy,
                _ => {}
            }
        }
    }
    out
}

fn components_config(deployment: Deployment) -> ComponentsConfig {
    let config = ComponentsConfig::new(PARALLELISM).with_fault(FaultInjector::disabled());
    match deployment {
        Deployment::InProcess | Deployment::Tcp => config,
        Deployment::Spill => config
            .with_memory_budget(MemoryBudget::bytes(SPILL_BUDGET_BYTES))
            .with_channel_credits(SPILL_CREDITS),
    }
}

/// Runs the workload's job once and checks its result against the oracle.
/// `cluster` is the rendezvoused cluster of a `Tcp` deployment.  An `Err` is
/// a failed repetition: the job errored, did not converge, or disagreed with
/// the oracle.
pub fn run_job(
    workload: &Workload,
    graph: &InputGraph,
    expected: &Expected,
    cluster: Option<&Cluster>,
) -> Result<JobStats, String> {
    let graph = &graph.0;
    match (workload.algorithm, workload.deployment) {
        (Algorithm::PageRank, _) => {
            let config = PageRankConfig::new(PARALLELISM).with_iterations(PAGERANK_ITERATIONS);
            let result = algorithms::pagerank(graph, &config).map_err(|e| e.to_string())?;
            check_ranks(&result.ranks, expected)?;
            Ok(job_stats(&result.stats))
        }
        (Algorithm::Components, Deployment::Tcp) => {
            let cluster = cluster.ok_or("the TCP deployment needs a rendezvoused cluster")?;
            // One SPMD worker per thread; the job ends when the slower one does.
            let results = std::thread::scope(|scope| {
                let workers: Vec<_> = cluster
                    .workers
                    .iter()
                    .map(|transport| {
                        let config =
                            components_config(Deployment::Tcp).with_transport(transport.clone());
                        scope.spawn(move || {
                            algorithms::cc_workset_records(
                                graph,
                                &config,
                                ExecutionMode::BatchIncremental,
                            )
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|worker| {
                        worker
                            .join()
                            .map_err(|_| "cluster worker panicked".to_owned())?
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            if results.iter().any(|r| !r.converged) {
                return Err("cluster run did not converge".into());
            }
            // Each worker returns the partitions it owns; in index order
            // they concatenate to the single-process record stream.
            let solution: Vec<Record> = results
                .iter()
                .flat_map(|r| r.solution.iter().cloned())
                .collect();
            check_components(&records_to_vec(&solution, graph.num_vertices()), expected)?;
            // The per-superstep counters are agreed cluster-wide, so any
            // worker's stats describe the whole job.
            Ok(job_stats(&results[0].stats))
        }
        (Algorithm::Components, deployment) => {
            let result = algorithms::cc_incremental(graph, &components_config(deployment))
                .map_err(|e| e.to_string())?;
            if !result.converged {
                return Err("run did not converge".into());
            }
            check_components(&result.components, expected)?;
            Ok(job_stats(&result.stats))
        }
    }
}

/// Runs the in-tree Pregel-like baseline on the same graph — the same-machine
/// reference `vs_pregel` divides by — and checks it against the oracle too,
/// so the denominator is known to do the same work.
pub fn run_baseline(
    graph: &InputGraph,
    algorithm: Algorithm,
    expected: &Expected,
) -> Result<(), String> {
    let config = PregelConfig::new(PARALLELISM);
    match algorithm {
        Algorithm::Components => {
            let labels: Vec<i64> = cc_pregel(&graph.0, &config)
                .states
                .into_iter()
                .map(i64::from)
                .collect();
            check_components(&labels, expected)
        }
        Algorithm::PageRank => {
            let ranks = pagerank_pregel(&graph.0, PAGERANK_ITERATIONS, DAMPING, &config).states;
            check_ranks(&ranks, expected)
        }
    }
}

// --- Probes: one unit of work per call, on the workload's own data -----------

/// The workload's first working set, capped at `cap` records: the candidate
/// pairs `(vid, cid)` of Connected Components' first superstep, or the
/// partial ranks `(tid, contribution)` PageRank's join ships to its Reduce in
/// the first iteration.  Field 0 is the exchange key in both.
pub struct Records(Vec<Record>);

impl Records {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

pub fn working_set(records: &InputRecords, cap: usize) -> Records {
    Records(match records {
        InputRecords::Components { workset, .. } => workset.iter().take(cap).cloned().collect(),
        InputRecords::PageRank { matrix, ranks } => {
            let uniform = DAMPING / ranks.len().max(1) as f64;
            matrix
                .iter()
                .take(cap)
                .map(|entry| Record::long_double(entry.long(0), uniform * entry.double(2)))
                .collect()
        }
    })
}

pub struct Pages {
    pages: Vec<Arc<RecordPage>>,
    pub bytes: usize,
}

/// `dataflow.page`: serializes the records into sealed pages.
pub fn page_write(records: &Records) -> Pages {
    let mut writer = PageWriter::new();
    for record in &records.0 {
        writer.push(record);
    }
    let bytes = writer.total_bytes();
    Pages {
        pages: writer.finish(),
        bytes,
    }
}

/// `dataflow.page`: reads the key of every record back through zero-copy
/// views; returns their wrapping sum so the reads cannot be optimized away.
pub fn page_read(pages: &Pages) -> i64 {
    let mut sum = 0i64;
    for page in &pages.pages {
        for view in page.reader() {
            sum = sum.wrapping_add(view.long(0));
        }
    }
    sum
}

pub struct Router(PartitionRouter);

pub fn hash_router() -> Router {
    Router(PartitionRouter::hash(PARALLELISM))
}

/// A range router over splitters sampled from the records themselves.
pub fn range_router(records: &Records) -> Router {
    let mut sample: Vec<Key> = Vec::new();
    sample_keys_into(&mut sample, &records.0, &[0]);
    Router(PartitionRouter::range(
        Arc::new(RangeBounds::from_sample(sample, PARALLELISM)),
        PARALLELISM,
    ))
}

/// `dataflow.range`: routes every record; returns records per target.
pub fn route(router: &Router, records: &Records) -> Vec<usize> {
    let mut per_target = vec![0usize; PARALLELISM];
    for record in &records.0 {
        per_target[router.0.route(record, &[0])] += 1;
    }
    per_target
}

/// `pool`: one scope of `PARALLELISM` empty tasks on the shared pool — what
/// every superstep pays before doing any work.
pub fn pool_dispatch() {
    spinning_pool::global().scope(|scope| {
        for _ in 0..PARALLELISM {
            scope.spawn(|| {});
        }
    });
}

/// `dataflow.credit`: hands `handoffs` pages from a producer thread to this
/// thread through a channel of `credits` credits; returns the queue
/// high-water mark.
pub fn credit_handoff(pages: &Pages, handoffs: usize, credits: usize) -> Result<usize, String> {
    let (sender, receiver) = credit_channel::<Arc<RecordPage>>(credits, Duration::from_secs(30));
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            for page in pages.pages.iter().cycle().take(handoffs) {
                sender.send(Arc::clone(page)).map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        });
        let mut received = 0;
        while receiver.recv_timeout(Duration::from_secs(30)).is_ok() {
            received += 1;
        }
        producer
            .join()
            .map_err(|_| "credit producer panicked".to_owned())??;
        if received != handoffs {
            return Err(format!("received {received} of {handoffs} pages"));
        }
        Ok(receiver.high_water())
    })
}

pub struct Runs {
    runs: Vec<SpilledRun>,
    pub bytes: usize,
    pub records: usize,
}

/// `dataflow.spill`: pushes the records through a `SpillingWriter`.  With
/// `sorted_budget: None` the budget is 0 — every sealed page becomes its own
/// run, as in `cc-dense-spill`'s exchange.  With a budget, sealed pages
/// gather up to it and each flush is sorted on field 0, producing the sorted
/// runs `spill_merge` consumes.
pub fn spill_write(
    dir: &Path,
    records: &Records,
    sorted_budget: Option<usize>,
) -> Result<Runs, String> {
    let manager = match sorted_budget {
        None => SpillManager::in_dir(dir.to_owned(), MemoryBudget::bytes(0), None),
        Some(budget) => {
            SpillManager::in_dir(dir.to_owned(), MemoryBudget::bytes(budget), Some(vec![0]))
        }
    };
    let mut writer = manager.writer();
    for record in &records.0 {
        writer.push(record);
    }
    let mut output = writer.finish().map_err(|e| format!("spill write: {e}"))?;
    if sorted_budget.is_some() && !output.pages.is_empty() {
        // The residue that stayed within budget: spill it too, so the merge
        // probe sees every record.
        let residue = dataflow::spill::write_sorted_run_in(dir, &output.pages, &[0])
            .map_err(|e| e.to_string())?;
        output.runs.push(residue);
    }
    Ok(Runs {
        bytes: output.runs.iter().map(SpilledRun::byte_len).sum(),
        records: output.runs.iter().map(SpilledRun::record_count).sum(),
        runs: output.runs,
    })
}

/// `dataflow.spill`: revives every run as sealed pages; returns the bytes.
pub fn spill_read(runs: &Runs) -> Result<usize, String> {
    let mut bytes = 0;
    for run in &runs.runs {
        let pages = run.read_pages().map_err(|e| format!("spill read: {e}"))?;
        bytes += pages.iter().map(|page| page.byte_len()).sum::<usize>();
    }
    Ok(bytes)
}

/// `dataflow.spill`: streams the loser-tree merge of the sorted runs; returns
/// the records merged.
pub fn spill_merge(runs: &Runs) -> Result<usize, String> {
    let mut merger =
        RunMerger::over_runs(&runs.runs, Vec::new(), vec![0]).map_err(|e| e.to_string())?;
    let mut merged = 0;
    while merger
        .next_record()
        .map_err(|e| format!("spill merge: {e}"))?
        .is_some()
    {
        merged += 1;
    }
    Ok(merged)
}

/// `comm`: one page channel across `PARALLELISM` partitions, seen from every
/// partition's owner (the same object `PARALLELISM` times in-process; one
/// endpoint per worker over TCP).
pub struct Channels {
    endpoints: Vec<SharedPageChannel>,
    round: u64,
}

pub fn local_channels() -> Channels {
    let transport = TransportHandle::local();
    let channel = transport.fresh_channel(PARALLELISM);
    Channels {
        endpoints: vec![channel; PARALLELISM],
        round: 0,
    }
}

pub fn tcp_channels(cluster: &Cluster) -> Channels {
    // Every worker allocates in step (the SPMD rule), so their next
    // allocations name the same channel.
    Channels {
        endpoints: cluster
            .workers
            .iter()
            .map(|worker| worker.fresh_channel(PARALLELISM))
            .collect(),
        round: 0,
    }
}

impl Channels {
    /// One exchange round: partition 0 ships `pages` to partition 1 (nothing
    /// when `None`), every partition finishes the round and receives.
    /// Returns the records that arrived at partition 1.
    pub fn round(&mut self, pages: Option<&Pages>) -> Result<usize, String> {
        self.round += 1;
        let round = self.round;
        if let Some(pages) = pages {
            self.endpoints[0]
                .send(round, 0, 1, pages.pages.clone())
                .map_err(|e| e.to_string())?;
        }
        for (partition, endpoint) in self.endpoints.iter().enumerate() {
            endpoint
                .finish_round(round, partition)
                .map_err(|e| e.to_string())?;
        }
        let mut arrived = 0;
        for (partition, endpoint) in self.endpoints.iter().enumerate() {
            let batches = endpoint.recv(round, partition).map_err(|e| e.to_string())?;
            if partition == 1 {
                arrived = batches
                    .iter()
                    .flat_map(|(_, pages)| pages)
                    .map(|page| page.record_count())
                    .sum();
            }
        }
        Ok(arrived)
    }
}

pub struct Solution(SolutionSet);

/// `core.solution_set`: builds the partitioned, paged index from `S0`.
/// `None` for workloads without a solution set.
pub fn solution_build(records: &InputRecords) -> Option<Solution> {
    let InputRecords::Components { solution, .. } = records else {
        return None;
    };
    let set = SolutionSet::from_records(solution.iter().cloned(), vec![0], PARALLELISM)
        // Connected Components' order: the smaller component id wins.
        .with_comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))));
    Some(Solution(set))
}

/// `core.solution_set`: merges candidate pages as deltas; returns how many
/// were applied.
pub fn solution_merge(solution: &mut Solution, pages: &Pages) -> usize {
    solution
        .0
        .merge_all_pages(pages.pages.iter().map(|page| page.as_ref()))
}

/// `core.solution_set`: looks up the first `keys` vertex ids; returns hits.
pub fn solution_lookup(solution: &Solution, keys: usize) -> usize {
    (0..keys as i64)
        .filter(|&v| solution.0.lookup(&Key::long(v)).is_some())
        .count()
}

/// `core.checkpoint`: persists the solution set as superstep 1's checkpoint.
pub fn checkpoint_write(dir: &Path, solution: &Solution) -> Result<u64, String> {
    let partitions: Vec<Vec<Record>> = (0..PARALLELISM)
        .map(|p| solution.0.partition_records(p))
        .collect();
    let empty = vec![Vec::new(); PARALLELISM];
    CheckpointStore::new(dir, PARALLELISM, FaultInjector::disabled())
        .write(1, &partitions, &empty)
        .map_err(|e| format!("checkpoint write: {e}"))
}

/// `core.checkpoint`: restores it; returns the records read back.
pub fn checkpoint_restore(dir: &Path) -> Result<usize, String> {
    let restored = CheckpointStore::new(dir, PARALLELISM, FaultInjector::disabled())
        .restore_latest(1)
        .ok_or("no valid checkpoint to restore")?;
    Ok(restored.solution.iter().map(Vec::len).sum())
}

/// PageRank's step dataflow, planned and ready to execute repeatedly.
pub struct Step {
    physical: PhysicalPlan,
    executor: Executor,
    cache: IntermediateCache,
    vector: OperatorId,
    ranks: Arc<Vec<Record>>,
    /// The rank vector's ship strategy into the join: 0 broadcast, 1
    /// partition (the Figure 4 choice).
    pub chosen_ship: u64,
}

/// `optimizer`: plans PageRank's step dataflow exactly as the bulk driver
/// does.  `None` for workloads the optimizer never sees.
pub fn plan_step(graph: &InputGraph, algorithm: Algorithm) -> Result<Option<Step>, String> {
    if algorithm != Algorithm::PageRank {
        return Ok(None);
    }
    let (plan, vector, join, _reduce, annotations) =
        algorithms::pagerank::build_step_plan(&graph.0, DAMPING);
    let output = plan
        .sink_by_name("next-ranks")
        .ok_or("step plan has no next-ranks sink")?;
    let spec = IterationSpec::new(vector, output, PAGERANK_ITERATIONS as f64);
    let physical = Optimizer::new(PARALLELISM)
        .optimize_iterative(&plan, &annotations, &spec)
        .map_err(|e| e.to_string())?
        .physical;
    let chosen_ship = match physical.choice(join).input_ships[0] {
        ShipStrategy::Broadcast => 0,
        _ => 1,
    };
    Ok(Some(Step {
        physical,
        executor: Executor::with_config(ExecConfig::new()),
        cache: IntermediateCache::new(),
        vector,
        ranks: Arc::new(initial_ranks(&graph.0)),
        chosen_ship,
    }))
}

/// `dataflow.exec`: executes the step once against the step's cache — the
/// first call ships the loop-invariant matrix, later calls are steady-state
/// iterations.  Returns the size of the next rank vector.
pub fn exec_step(step: &mut Step) -> Result<usize, String> {
    step.physical
        .plan
        .replace_source_data(step.vector, Arc::clone(&step.ranks))
        .map_err(|e| e.to_string())?;
    let result = step
        .executor
        .execute_with_cache(&step.physical, &mut step.cache)
        .map_err(|e| e.to_string())?;
    Ok(result
        .into_sink("next-ranks")
        .map_err(|e| e.to_string())?
        .len())
}
