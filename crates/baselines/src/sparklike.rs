//! A Spark-like bulk dataflow engine.
//!
//! The paper compares Stratosphere against Spark [Zaharia et al., HotCloud
//! 2010]: a system built around resilient distributed datasets (RDDs) —
//! partitioned, immutable, in-memory collections transformed by coarse-grained
//! operations, with iterative programs expressed as driver-side loops that
//! create a new RDD per iteration.  This module re-implements that execution
//! model in miniature: datasets are partitioned vectors, transformations run
//! per partition on a thread per partition, `reduce_by_key`/`join` shuffle by
//! hash partitioning, and — crucially for the comparison — **every iteration
//! materialises a complete new partial solution**; there is no mutable state
//! that can be updated in place, which is exactly the limitation incremental
//! iterations remove.
//!
//! Included applications: Pegasus-style PageRank, bulk-iterative Connected
//! Components, and the "simulated incremental" Connected Components of
//! Figure 11 (a changed-flag is carried with every record; unchanged records
//! still have to be copied into the next iteration's RDD).

use dataflow::key::FxHasher;
use graphdata::Graph;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counters collected while executing RDD operations.
#[derive(Debug, Clone, Default)]
pub struct SparkStats {
    /// Records processed by narrow (per-partition) transformations.
    pub records_processed: usize,
    /// Records moved between partitions by shuffles (joins, reduce_by_key).
    pub shuffle_records: usize,
    /// Per-iteration wall-clock times recorded by the iterative applications.
    pub iteration_times: Vec<Duration>,
    /// Per-iteration record counts of the (re-created) partial solution.
    pub iteration_records: Vec<usize>,
}

/// Execution context shared by all RDDs of one job.
#[derive(Debug, Clone)]
pub struct SparkContext {
    parallelism: usize,
    stats: Arc<Mutex<SparkStats>>,
}

impl SparkContext {
    /// Creates a context with the given number of partitions.
    pub fn new(parallelism: usize) -> Self {
        SparkContext {
            parallelism: parallelism.max(1),
            stats: Arc::new(Mutex::new(SparkStats::default())),
        }
    }

    /// Number of partitions.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// A snapshot of the collected statistics.
    pub fn stats(&self) -> SparkStats {
        self.stats.lock().unwrap().clone()
    }

    /// Creates an RDD from a vector, hash-partitioning nothing (round-robin
    /// chunks, like `parallelize`).
    pub fn parallelize<T: Clone + Send + Sync>(&self, data: Vec<T>) -> Rdd<T> {
        let chunk = data.len().div_ceil(self.parallelism).max(1);
        let mut partitions: Vec<Vec<T>> = vec![Vec::new(); self.parallelism];
        for (i, item) in data.into_iter().enumerate() {
            partitions[(i / chunk).min(self.parallelism - 1)].push(item);
        }
        Rdd {
            partitions: Arc::new(partitions),
            ctx: self.clone(),
        }
    }

    fn add_processed(&self, n: usize) {
        self.stats.lock().unwrap().records_processed += n;
    }

    fn add_shuffled(&self, n: usize) {
        self.stats.lock().unwrap().shuffle_records += n;
    }

    fn record_iteration(&self, elapsed: Duration, records: usize) {
        let mut stats = self.stats.lock().unwrap();
        stats.iteration_times.push(elapsed);
        stats.iteration_records.push(records);
    }
}

// The shuffle routes through the same Fx hash as the dataflow engine's
// partitioning, so the baseline pays the same (cheap) routing cost and the
// system comparisons measure execution strategy, not hash choice.
fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// A partitioned, immutable in-memory dataset.
#[derive(Debug, Clone)]
pub struct Rdd<T: Clone + Send + Sync> {
    partitions: Arc<Vec<Vec<T>>>,
    ctx: SparkContext,
}

impl<T: Clone + Send + Sync> Rdd<T> {
    /// Number of records across all partitions.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Gathers all records at the driver.
    pub fn collect(&self) -> Vec<T> {
        self.partitions.iter().flatten().cloned().collect()
    }

    /// Marks the dataset as cached.  The engine keeps everything in memory
    /// anyway, so this is a no-op that only mirrors the Spark API.
    pub fn cache(&self) -> Rdd<T> {
        self.clone()
    }

    fn run_per_partition<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Clone + Send + Sync,
        F: Fn(&[T]) -> Vec<U> + Send + Sync,
    {
        // Narrow transformations run one task per partition on the shared
        // persistent pool — the same dispatch path as the dataflow engine,
        // keeping the systems comparison about execution strategy, not
        // thread-spawn overhead.
        let results = spinning_pool::global()
            .map(self.partitions.iter(), |partition| f(partition))
            .unwrap_or_else(|panic| panic.resume());
        self.ctx.add_processed(self.count());
        Rdd {
            partitions: Arc::new(results),
            ctx: self.ctx.clone(),
        }
    }

    /// Per-record transformation.
    pub fn map<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Clone + Send + Sync,
        F: Fn(&T) -> U + Send + Sync,
    {
        self.run_per_partition(|partition| partition.iter().map(&f).collect())
    }

    /// Per-record one-to-many transformation.
    pub fn flat_map<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Clone + Send + Sync,
        F: Fn(&T) -> Vec<U> + Send + Sync,
    {
        self.run_per_partition(|partition| partition.iter().flat_map(&f).collect())
    }

    /// Keeps only the records matching the predicate.
    pub fn filter<F>(&self, f: F) -> Rdd<T>
    where
        F: Fn(&T) -> bool + Send + Sync,
    {
        self.run_per_partition(|partition| partition.iter().filter(|t| f(t)).cloned().collect())
    }

    /// Unions two datasets (no deduplication).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let mut partitions: Vec<Vec<T>> = (*self.partitions).clone();
        let len = partitions.len();
        for (i, part) in other.partitions.iter().enumerate() {
            partitions[i % len].extend(part.iter().cloned());
        }
        Rdd {
            partitions: Arc::new(partitions),
            ctx: self.ctx.clone(),
        }
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Clone + Send + Sync + Hash + Eq,
    V: Clone + Send + Sync,
{
    fn shuffle_by_key(&self) -> Vec<Vec<(K, V)>> {
        // Two-phase shuffle mirroring the dataflow engine's paged exchange:
        // every source partition routes its records into per-target chunks
        // concurrently on the worker pool, then the exchange step moves each
        // sealed chunk to its target by pointer — no per-record work happens
        // between partitions.  Unlike the engine, the chunks hold heap
        // *objects*: the RDD model is generic over arbitrary Rust types, so
        // it cannot route length-prefixed bytes — exactly the object-graph
        // overhead the paper's system comparison attributes to Spark, which
        // this baseline is meant to preserve.
        let parallelism = self.ctx.parallelism;
        let routed = spinning_pool::global()
            .map(self.partitions.iter().enumerate(), |(source, partition)| {
                let mut chunks: Vec<Vec<(K, V)>> = vec![Vec::new(); parallelism];
                let mut moved = 0usize;
                for (k, v) in partition {
                    let target = (hash_of(k) % parallelism as u64) as usize;
                    if target != source {
                        moved += 1;
                    }
                    chunks[target].push((k.clone(), v.clone()));
                }
                (chunks, moved)
            })
            .unwrap_or_else(|panic| panic.resume());
        let mut shuffled: Vec<Vec<(K, V)>> = vec![Vec::new(); parallelism];
        let mut moved_total = 0usize;
        for (chunks, moved) in routed {
            moved_total += moved;
            for (target, chunk) in chunks.into_iter().enumerate() {
                if shuffled[target].is_empty() {
                    // The common case: adopt the whole chunk by pointer.
                    shuffled[target] = chunk;
                } else {
                    shuffled[target].extend(chunk);
                }
            }
        }
        self.ctx.add_shuffled(moved_total);
        shuffled
    }

    /// Groups by key and reduces each group with `f` (a full shuffle).
    pub fn reduce_by_key<F>(&self, f: F) -> Rdd<(K, V)>
    where
        F: Fn(&V, &V) -> V + Send + Sync,
    {
        let shuffled = self.shuffle_by_key();
        let results = spinning_pool::global()
            .map(&shuffled, |partition| {
                let mut groups: HashMap<K, V> = HashMap::new();
                for (k, v) in partition {
                    match groups.get_mut(k) {
                        Some(acc) => *acc = f(acc, v),
                        None => {
                            groups.insert(k.clone(), v.clone());
                        }
                    }
                }
                groups.into_iter().collect::<Vec<_>>()
            })
            .unwrap_or_else(|panic| panic.resume());
        self.ctx.add_processed(self.count());
        Rdd {
            partitions: Arc::new(results),
            ctx: self.ctx.clone(),
        }
    }

    /// Inner equi-join with another keyed dataset (both sides are shuffled).
    ///
    /// Both datasets must come from contexts with the same parallelism: the
    /// shuffle routes keys by `hash % parallelism`, so differently
    /// partitioned sides would pair unrelated partitions (the pre-pool code
    /// silently truncated to the shorter side and joined misrouted keys).
    pub fn join<W>(&self, other: &Rdd<(K, W)>) -> Rdd<(K, (V, W))>
    where
        W: Clone + Send + Sync,
    {
        let left = self.shuffle_by_key();
        let right = other.shuffle_by_key();
        assert_eq!(
            left.len(),
            right.len(),
            "join requires both RDDs to share the same context parallelism"
        );
        let results = spinning_pool::global()
            .map(left.iter().zip(&right), |(l, r)| {
                let mut table: HashMap<&K, Vec<&V>> = HashMap::new();
                for (k, v) in l {
                    table.entry(k).or_default().push(v);
                }
                let mut out = Vec::new();
                for (k, w) in r {
                    if let Some(vs) = table.get(k) {
                        for v in vs {
                            out.push((k.clone(), ((*v).clone(), w.clone())));
                        }
                    }
                }
                out
            })
            .unwrap_or_else(|panic| panic.resume());
        self.ctx.add_processed(self.count() + other.count());
        Rdd {
            partitions: Arc::new(results),
            ctx: self.ctx.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Applications
// ---------------------------------------------------------------------------

/// Pegasus-style PageRank: per iteration, join the rank RDD with the edge RDD
/// and re-aggregate by target vertex.  Matches the partitioning plan of
/// Figure 4 and the Spark implementation referenced in Section 6.1.
pub fn pagerank_spark(graph: &Graph, iterations: usize, ctx: &SparkContext) -> Vec<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let damping = 0.85;
    let teleport = (1.0 - damping) / n as f64;
    let edges: Vec<(u32, (u32, f64))> = graph
        .vertices()
        .flat_map(|v| {
            let degree = graph.degree(v).max(1) as f64;
            graph
                .neighbors(v)
                .iter()
                .map(move |&t| (v, (t, 1.0 / degree)))
        })
        .collect();
    let edges_rdd = ctx.parallelize(edges).cache();
    let mut ranks = ctx.parallelize(graph.vertices().map(|v| (v, 1.0 / n as f64)).collect());

    for _ in 0..iterations {
        let start = Instant::now();
        let contributions = ranks
            .join(&edges_rdd)
            .map(|(_, (rank, (target, probability)))| (*target, damping * rank * probability));
        // Keep every vertex in the vector even if it has no in-links.
        let zeros = ctx.parallelize(graph.vertices().map(|v| (v, 0.0)).collect());
        ranks = contributions
            .union(&zeros)
            .reduce_by_key(|a, b| a + b)
            .map(|(v, sum)| (*v, teleport + sum));
        ctx.record_iteration(start.elapsed(), ranks.count());
    }

    let mut result = vec![0.0; n];
    for (v, r) in ranks.collect() {
        result[v as usize] = r;
    }
    result
}

/// Bulk-iterative Connected Components on the RDD engine: every iteration
/// recreates the complete component mapping.  Stops at the fixpoint or after
/// `max_iterations` iterations, whichever comes first.
pub fn cc_spark_bulk(
    graph: &Graph,
    max_iterations: usize,
    ctx: &SparkContext,
) -> (Vec<u32>, usize) {
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let edges_rdd = ctx.parallelize(edges).cache();
    let mut components = ctx.parallelize(graph.vertices().map(|v| (v, v)).collect());

    let mut iterations = 0;
    while iterations < max_iterations {
        iterations += 1;
        let start = Instant::now();
        let candidates = components
            .join(&edges_rdd)
            .map(|(_, (cid, neighbour))| (*neighbour, *cid));
        let next = components
            .union(&candidates)
            .reduce_by_key(|a, b| (*a).min(*b));
        ctx.record_iteration(start.elapsed(), next.count());

        let old: HashMap<u32, u32> = components.collect().into_iter().collect();
        let changed = next
            .collect()
            .into_iter()
            .any(|(v, c)| old.get(&v) != Some(&c));
        components = next;
        if !changed {
            break;
        }
    }

    let mut result: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    for (v, c) in components.collect() {
        result[v as usize] = c;
    }
    (result, iterations)
}

/// The "simulated incremental" Connected Components of Figure 11: each record
/// carries a changed-flag; only changed vertices send candidates to their
/// neighbours, but the *entire* component mapping must still be copied into
/// the next iteration's RDD because the engine has no mutable state.
pub fn cc_spark_simulated_incremental(graph: &Graph, ctx: &SparkContext) -> (Vec<u32>, usize) {
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let edges_rdd = ctx.parallelize(edges).cache();
    // (vid, (cid, changed))
    let mut components = ctx.parallelize(graph.vertices().map(|v| (v, (v, true))).collect());

    let mut iterations = 0;
    loop {
        iterations += 1;
        let start = Instant::now();
        let changed_only = components.filter(|(_, (_, changed))| *changed);
        let candidates = changed_only
            .join(&edges_rdd)
            .map(|(_, ((cid, _), neighbour))| (*neighbour, *cid));
        // Explicitly copy the unchanged state forward (the cost the paper
        // attributes to this variant), then merge in the candidates.
        let carried = components.map(|(v, (cid, _))| (*v, *cid));
        let merged = carried
            .union(&candidates)
            .reduce_by_key(|a, b| (*a).min(*b));
        let old: HashMap<u32, u32> = components
            .collect()
            .into_iter()
            .map(|(v, (c, _))| (v, c))
            .collect();
        let next = merged.map(|(v, cid)| {
            let changed = old.get(v) != Some(cid);
            (*v, (*cid, changed))
        });
        ctx.record_iteration(start.elapsed(), next.count());
        let any_changed = next.collect().iter().any(|(_, (_, changed))| *changed);
        components = next;
        if !any_changed {
            break;
        }
    }

    let mut result: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    for (v, (c, _)) in components.collect() {
        result[v as usize] = c;
    }
    (result, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{figure1_graph, ring, rmat, RmatParams};

    #[test]
    fn rdd_map_filter_count() {
        let ctx = SparkContext::new(4);
        let rdd = ctx.parallelize((0..100).collect::<Vec<i64>>());
        let doubled = rdd.map(|x| x * 2);
        assert_eq!(doubled.count(), 100);
        let small = doubled.filter(|x| *x < 50);
        assert_eq!(small.count(), 25);
        assert!(ctx.stats().records_processed > 0);
    }

    #[test]
    fn reduce_by_key_aggregates_across_partitions() {
        let ctx = SparkContext::new(3);
        let pairs: Vec<(u32, i64)> = (0..90).map(|i| (i % 9, 1)).collect();
        let rdd = ctx.parallelize(pairs);
        let mut counts = rdd.reduce_by_key(|a, b| a + b).collect();
        counts.sort();
        assert_eq!(counts.len(), 9);
        assert!(counts.iter().all(|(_, c)| *c == 10));
        assert!(ctx.stats().shuffle_records > 0);
    }

    #[test]
    fn join_produces_matching_pairs() {
        let ctx = SparkContext::new(2);
        let left = ctx.parallelize(vec![(1u32, "a"), (2, "b")]);
        let right = ctx.parallelize(vec![(2u32, 20), (3, 30)]);
        let joined = left.join(&right).collect();
        assert_eq!(joined, vec![(2, ("b", 20))]);
    }

    #[test]
    #[should_panic(expected = "same context parallelism")]
    fn join_across_differently_partitioned_contexts_is_rejected() {
        let a = SparkContext::new(4).parallelize(vec![(1u32, 1)]);
        let b = SparkContext::new(2).parallelize(vec![(1u32, 2)]);
        let _ = a.join(&b);
    }

    #[test]
    fn spark_pagerank_matches_uniform_ring() {
        let ctx = SparkContext::new(4);
        let g = ring(20);
        let ranks = pagerank_spark(&g, 25, &ctx);
        for &r in &ranks {
            assert!((r - 0.05).abs() < 1e-9);
        }
        assert_eq!(ctx.stats().iteration_times.len(), 25);
    }

    #[test]
    fn spark_cc_matches_the_oracle() {
        let g = figure1_graph();
        let ctx = SparkContext::new(2);
        let (components, iterations) = cc_spark_bulk(&g, usize::MAX, &ctx);
        assert_eq!(components, g.components_oracle());
        assert!(iterations >= 2);
    }

    #[test]
    fn bounded_spark_cc_stops_at_the_bound() {
        // A 100-vertex ring needs about 50 iterations to converge.
        let g = ring(100);
        let ctx = SparkContext::new(2);
        let (_, unbounded) = cc_spark_bulk(&g, usize::MAX, &ctx);
        assert!(unbounded > 20, "{unbounded}");
        let ctx = SparkContext::new(2);
        let (_, iterations) = cc_spark_bulk(&g, 20, &ctx);
        assert_eq!(iterations, 20);
        assert_eq!(ctx.stats().iteration_times.len(), 20);
    }

    #[test]
    fn simulated_incremental_matches_bulk_result() {
        let g = rmat(200, 800, RmatParams::default(), 13).symmetrize();
        let ctx_a = SparkContext::new(4);
        let ctx_b = SparkContext::new(4);
        let (bulk, _) = cc_spark_bulk(&g, usize::MAX, &ctx_a);
        let (sim, _) = cc_spark_simulated_incremental(&g, &ctx_b);
        assert_eq!(bulk, sim);
        assert_eq!(bulk, g.components_oracle());
    }

    #[test]
    fn simulated_incremental_still_copies_the_whole_solution() {
        // This is the key structural difference to true incremental
        // iterations: the per-iteration record count never drops below the
        // number of vertices.
        let g = rmat(300, 1200, RmatParams::default(), 29).symmetrize();
        let ctx = SparkContext::new(2);
        let _ = cc_spark_simulated_incremental(&g, &ctx);
        let stats = ctx.stats();
        assert!(stats
            .iteration_records
            .iter()
            .all(|&records| records >= g.num_vertices()));
    }
}
