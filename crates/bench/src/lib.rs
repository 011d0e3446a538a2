//! # bench — reproduction harness for every table and figure of the paper
//!
//! Each public `figN`/`tableN` function reproduces one element of the
//! evaluation section (Section 6) of *Spinning Fast Iterative Data Flows* and
//! returns the data series as a printable text table.  Thin binaries
//! (`cargo run --release -p bench --bin fig7`) print them; the Criterion
//! benches in `benches/` time the underlying workloads.
//!
//! The graphs are synthetic stand-ins generated from the
//! [`graphdata::DatasetProfile`]s at a downscale factor taken from the
//! `SPINNING_SCALE` environment variable (default 2048, i.e. graphs are
//! ~1/2048th of the paper's), so absolute runtimes are not comparable to the
//! paper — the *shape* of each figure (who wins, how per-iteration work
//! decays, where crossovers happen) is what is reproduced.  See `README.md`
//! and `ROADMAP.md` at the repository root for the paper-vs-measured record,
//! and `BENCHMARK.json` / `benchmark/README.md` for the tracked end-to-end
//! workloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;

use algorithms::{
    cc_bulk, cc_incremental, cc_microstep, pagerank, ComponentsConfig, PageRankConfig, PageRankPlan,
};
use baselines::{cc_pregel, cc_spark_simulated_incremental, pagerank_pregel, pagerank_spark};
use baselines::{cc_spark_bulk, PregelConfig, SparkContext};
use dataflow::credit::positive_from_env;
use graphdata::{DatasetProfile, Graph, GraphSummary};
use std::time::{Duration, Instant};

/// Degree of parallelism used by all harness runs (the paper's cluster has 32
/// cores; on one machine we default to 8 worker partitions).
pub const PARALLELISM: usize = 8;

/// Reads the downscale factor from `SPINNING_SCALE` (default 2048).
pub fn scale_factor() -> u64 {
    scale_factor_or(2048)
}

/// Reads the downscale factor from `SPINNING_SCALE` with a caller-chosen
/// default (benches that need a different baseline scale share the same env
/// contract).  A malformed or zero value warns and falls back to `default`.
pub fn scale_factor_or(default: u64) -> u64 {
    positive_from_env("SPINNING_SCALE").unwrap_or(default)
}

/// Reads the per-benchmark sample count from `SPINNING_BENCH_SAMPLES`
/// (default as given).  CI runs the long-tail bench with 1 sample as a smoke
/// test for pool regressions that deadlock or explode latency.
pub fn bench_samples(default: usize) -> usize {
    positive_from_env("SPINNING_BENCH_SAMPLES").unwrap_or(default)
}

/// Per-superstep latency summary of one iterative run.  The long-tail
/// workloads (Webbase's 700+ supersteps) are dominated by the cost of tiny
/// late supersteps, so the tail mean — not the overall mean — is the number
/// the persistent worker pool is meant to move.
#[derive(Debug, Clone)]
pub struct SuperstepProfile {
    /// Number of supersteps in the run.
    pub supersteps: usize,
    /// Mean wall-clock time per superstep (ms).
    pub mean_ms: f64,
    /// Mean wall-clock time over the last half of the supersteps (ms) — the
    /// long tail, where worksets are tiny and dispatch overhead dominates.
    pub tail_mean_ms: f64,
    /// Slowest superstep (ms).
    pub max_ms: f64,
}

/// Summarises the per-superstep latencies of an iterative run.
pub fn superstep_profile(stats: &spinning_core::IterationRunStats) -> SuperstepProfile {
    let times: Vec<f64> = stats.per_iteration.iter().map(|s| s.millis()).collect();
    let n = times.len();
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    SuperstepProfile {
        supersteps: n,
        mean_ms: mean(&times),
        tail_mean_ms: mean(&times[n / 2..]),
        max_ms: times.iter().copied().fold(0.0, f64::max),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Table 2: data set properties.  Prints the paper's full-scale numbers next
/// to the generated stand-in's actual statistics.
pub fn table2(scale: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2: data set properties (scale factor 1/{scale})\n"
    ));
    out.push_str(&format!(
        "{:<14} {:>14} {:>16} {:>10} | {:>10} {:>12} {:>10}\n",
        "dataset", "paper |V|", "paper |E|", "paper deg", "gen |V|", "gen |E|", "gen deg"
    ));
    for profile in DatasetProfile::table2() {
        let graph = profile.generate(scale);
        let summary = GraphSummary::of(&graph);
        out.push_str(&format!(
            "{:<14} {:>14} {:>16} {:>10.2} | {:>10} {:>12} {:>10.2}\n",
            profile.name,
            profile.paper_vertices,
            profile.paper_edges,
            profile.paper_avg_degree(),
            summary.vertices,
            summary.edges,
            summary.avg_degree,
        ));
    }
    out
}

/// Figure 2: the effective work of the incremental Connected Components
/// algorithm on the FOAF subgraph — vertices inspected, vertices changed and
/// working-set size per iteration.
pub fn fig2(scale: u64) -> String {
    let graph = DatasetProfile::foaf().generate(scale);
    let result = cc_incremental(&graph, &ComponentsConfig::new(PARALLELISM))
        .expect("incremental CC on the FOAF stand-in");
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 2: effective work of incremental Connected Components (FOAF stand-in, |V|={}, |E|={})\n",
        graph.num_vertices(),
        graph.num_edges()
    ));
    out.push_str(&format!(
        "{:>5} {:>18} {:>18} {:>20}\n",
        "iter", "vertices inspected", "vertices changed", "workset elements"
    ));
    for s in &result.stats.per_iteration {
        out.push_str(&format!(
            "{:>5} {:>18} {:>18} {:>20}\n",
            s.iteration, s.elements_inspected, s.elements_changed, s.messages_sent
        ));
    }
    out
}

/// Figure 4: the optimizer's plan choice for PageRank as the rank vector
/// grows relative to the transition matrix, showing the broadcast/partition
/// crossover.
pub fn fig4() -> String {
    use dataflow::prelude::ShipStrategy;
    use optimizer::{IterationSpec, Optimizer};

    let mut out = String::new();
    out.push_str(
        "Figure 4: optimizer plan choice for the PageRank join (20 iterations, 8 workers)\n",
    );
    out.push_str(&format!(
        "{:>14} {:>14} {:>26} {:>14}\n",
        "|p| (pages)", "|A| (entries)", "chosen vector shipping", "est. cost"
    ));
    let matrix_entries = 4_000_000usize;
    for pages in [
        1_000usize, 10_000, 100_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
    ] {
        // Build a skeleton plan with the right cardinality hints; the data
        // itself is irrelevant for plan choice.
        let graph = graphdata::ring(64);
        let (mut plan, vector, join, reduce, annotations) =
            algorithms::pagerank::build_step_plan(&graph, 0.85);
        plan.set_estimated_records(vector, pages);
        let matrix = plan
            .operators()
            .iter()
            .find(|o| o.name == "transition-matrix")
            .unwrap()
            .id;
        plan.set_estimated_records(matrix, matrix_entries);
        plan.set_estimated_records(join, matrix_entries);
        plan.set_estimated_records(reduce, pages);
        let sink = plan.sink_by_name("next-ranks").unwrap();
        let optimizer = Optimizer::new(PARALLELISM);
        let optimized = optimizer
            .optimize_iterative(&plan, &annotations, &IterationSpec::new(vector, sink, 20.0))
            .expect("optimize PageRank step plan");
        let ship = match &optimized.physical.choice(join).input_ships[0] {
            ShipStrategy::Broadcast => "broadcast (Fig.4 left)",
            ShipStrategy::PartitionHash(_) => "partition (Fig.4 right)",
            _ => "other",
        };
        out.push_str(&format!(
            "{:>14} {:>14} {:>26} {:>14.0}\n",
            pages,
            matrix_entries,
            ship,
            optimized.cost.total()
        ));
    }
    out
}

/// One row of the system-comparison figures.
#[derive(Debug, Clone)]
pub struct SystemTiming {
    /// System / variant name.
    pub system: String,
    /// Total wall-clock runtime.
    pub total: Duration,
    /// Per-iteration wall-clock times.
    pub per_iteration: Vec<Duration>,
    /// Per-iteration message counts, where the system reports them.
    pub messages: Vec<usize>,
}

/// Runs the PageRank comparison of Figure 7 on one dataset profile and
/// returns one timing per system.
pub fn pagerank_systems(graph: &Graph, iterations: usize) -> Vec<SystemTiming> {
    let mut results = Vec::new();

    let ctx = SparkContext::new(PARALLELISM);
    let start = Instant::now();
    let _ = pagerank_spark(graph, iterations, &ctx);
    results.push(SystemTiming {
        system: "Spark".into(),
        total: start.elapsed(),
        per_iteration: ctx.stats().iteration_times,
        messages: vec![],
    });

    let start = Instant::now();
    let pregel = pagerank_pregel(graph, iterations, 0.85, &PregelConfig::new(PARALLELISM));
    results.push(SystemTiming {
        system: "Giraph".into(),
        total: start.elapsed(),
        per_iteration: pregel.stats.iter().map(|s| s.elapsed).collect(),
        messages: pregel.stats.iter().map(|s| s.messages_sent).collect(),
    });

    for (name, plan) in [
        ("Stratosphere Part.", PageRankPlan::ForcePartition),
        ("Stratosphere BC", PageRankPlan::ForceBroadcast),
    ] {
        let start = Instant::now();
        let result = pagerank(
            graph,
            &PageRankConfig::new(PARALLELISM)
                .with_iterations(iterations)
                .with_plan(plan),
        )
        .expect("dataflow PageRank");
        results.push(SystemTiming {
            system: name.into(),
            total: start.elapsed(),
            per_iteration: result
                .stats
                .per_iteration
                .iter()
                .map(|s| s.elapsed)
                .collect(),
            messages: result
                .stats
                .per_iteration
                .iter()
                .map(|s| s.messages_sent)
                .collect(),
        });
    }
    results
}

/// Figure 7: total PageRank runtimes per system on the Wikipedia, Webbase and
/// Twitter stand-ins (20 iterations).
pub fn fig7(scale: u64, iterations: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 7: total PageRank runtime, {iterations} iterations (scale 1/{scale}, seconds)\n"
    ));
    out.push_str(&format!("{:<22}", "system"));
    let profiles = [
        DatasetProfile::wikipedia(),
        DatasetProfile::webbase(),
        DatasetProfile::twitter(),
    ];
    for p in &profiles {
        out.push_str(&format!(" {:>14}", p.name));
    }
    out.push('\n');
    let mut columns: Vec<Vec<SystemTiming>> = Vec::new();
    for profile in &profiles {
        let graph = profile.generate(scale);
        columns.push(pagerank_systems(&graph, iterations));
    }
    for row in 0..columns[0].len() {
        out.push_str(&format!("{:<22}", columns[0][row].system));
        for column in &columns {
            out.push_str(&format!(" {:>14.3}", secs(column[row].total)));
        }
        out.push('\n');
    }
    out
}

/// Figure 8: per-iteration PageRank runtimes on the Wikipedia stand-in.
pub fn fig8(scale: u64, iterations: usize) -> String {
    let graph = DatasetProfile::wikipedia().generate(scale);
    let systems = pagerank_systems(&graph, iterations);
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 8: per-iteration PageRank runtime on the Wikipedia stand-in (ms, scale 1/{scale})\n"
    ));
    out.push_str(&format!("{:>5}", "iter"));
    for s in &systems {
        out.push_str(&format!(" {:>20}", s.system));
    }
    out.push('\n');
    for i in 0..iterations {
        out.push_str(&format!("{:>5}", i + 1));
        for s in &systems {
            let ms = s
                .per_iteration
                .get(i)
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(f64::NAN);
            out.push_str(&format!(" {:>20.2}", ms));
        }
        out.push('\n');
    }
    out
}

/// Runs the Connected Components comparison of Figure 9 on one graph.
/// `max_iterations` bounds the bulk/incremental runs (the paper bounds
/// Webbase to its first 20 iterations).
pub fn cc_systems(graph: &Graph, max_iterations: usize) -> Vec<SystemTiming> {
    let mut results = Vec::new();
    let config = ComponentsConfig::new(PARALLELISM).with_max_iterations(max_iterations);

    let ctx = SparkContext::new(PARALLELISM);
    let start = Instant::now();
    let _ = cc_spark_bulk(graph, &ctx);
    results.push(SystemTiming {
        system: "Spark".into(),
        total: start.elapsed(),
        per_iteration: ctx.stats().iteration_times,
        messages: vec![],
    });

    let start = Instant::now();
    let pregel = cc_pregel(
        graph,
        &PregelConfig::new(PARALLELISM).with_max_supersteps(max_iterations),
    );
    results.push(SystemTiming {
        system: "Giraph".into(),
        total: start.elapsed(),
        per_iteration: pregel.stats.iter().map(|s| s.elapsed).collect(),
        messages: pregel.stats.iter().map(|s| s.messages_sent).collect(),
    });

    let start = Instant::now();
    let bulk = cc_bulk(graph, &config).expect("bulk CC");
    results.push(SystemTiming {
        system: "Stratosphere Full".into(),
        total: start.elapsed(),
        per_iteration: bulk.stats.per_iteration.iter().map(|s| s.elapsed).collect(),
        messages: bulk
            .stats
            .per_iteration
            .iter()
            .map(|s| s.messages_sent)
            .collect(),
    });

    let start = Instant::now();
    let micro = cc_microstep(graph, &config).expect("microstep CC");
    results.push(SystemTiming {
        system: "Stratosphere Micro".into(),
        total: start.elapsed(),
        per_iteration: micro
            .stats
            .per_iteration
            .iter()
            .map(|s| s.elapsed)
            .collect(),
        messages: micro
            .stats
            .per_iteration
            .iter()
            .map(|s| s.messages_sent)
            .collect(),
    });

    let start = Instant::now();
    let incr = cc_incremental(graph, &config).expect("incremental CC");
    results.push(SystemTiming {
        system: "Stratosphere Incr.".into(),
        total: start.elapsed(),
        per_iteration: incr.stats.per_iteration.iter().map(|s| s.elapsed).collect(),
        messages: incr
            .stats
            .per_iteration
            .iter()
            .map(|s| s.messages_sent)
            .collect(),
    });
    results
}

/// Figure 9: total Connected Components runtimes per system on the four Table
/// 2 stand-ins (Webbase bounded to its first 20 iterations, as in the paper).
pub fn fig9(scale: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 9: total Connected Components runtime (scale 1/{scale}, seconds)\n"
    ));
    let profiles = [
        (DatasetProfile::wikipedia(), usize::MAX),
        (DatasetProfile::hollywood(), usize::MAX),
        (DatasetProfile::twitter(), usize::MAX),
        (DatasetProfile::webbase(), 20usize),
    ];
    out.push_str(&format!("{:<22}", "system"));
    for (p, bound) in &profiles {
        let label = if *bound == usize::MAX {
            p.name.to_string()
        } else {
            format!("{} (20)", p.name)
        };
        out.push_str(&format!(" {:>16}", label));
    }
    out.push('\n');
    let mut columns = Vec::new();
    for (profile, bound) in &profiles {
        let graph = profile.generate(scale);
        let bound = if *bound == usize::MAX {
            100_000
        } else {
            *bound
        };
        columns.push(cc_systems(&graph, bound));
    }
    for row in 0..columns[0].len() {
        out.push_str(&format!("{:<22}", columns[0][row].system));
        for column in &columns {
            out.push_str(&format!(" {:>16.3}", secs(column[row].total)));
        }
        out.push('\n');
    }
    out
}

/// Figure 10: per-iteration runtime and message volume of the incremental
/// Connected Components on the Webbase stand-in, run to full convergence
/// (the long tail caused by the huge-diameter component).
pub fn fig10(scale: u64) -> String {
    let graph = DatasetProfile::webbase().generate(scale);
    let result = cc_incremental(&graph, &ComponentsConfig::new(PARALLELISM))
        .expect("incremental CC on the Webbase stand-in");
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 10: incremental Connected Components on the Webbase stand-in \
         (|V|={}, |E|={}, {} supersteps to convergence)\n",
        graph.num_vertices(),
        graph.num_edges(),
        result.iterations
    ));
    out.push_str(&format!(
        "{:>5} {:>16} {:>16}\n",
        "iter", "millis", "messages"
    ));
    for s in &result.stats.per_iteration {
        out.push_str(&format!(
            "{:>5} {:>16.3} {:>16}\n",
            s.iteration,
            s.millis(),
            s.messages_sent
        ));
    }
    out
}

/// Figure 11: per-iteration Connected Components runtimes on the Wikipedia
/// stand-in for all six variants the paper plots.
pub fn fig11(scale: u64) -> String {
    let graph = DatasetProfile::wikipedia().generate(scale);
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 11: per-iteration Connected Components runtime on the Wikipedia stand-in (ms, scale 1/{scale})\n"
    ));

    let mut systems = cc_systems(&graph, 100_000);
    // Add the "Spark Sim. Incr." series.
    let ctx = SparkContext::new(PARALLELISM);
    let start = Instant::now();
    let _ = cc_spark_simulated_incremental(&graph, &ctx);
    systems.insert(
        1,
        SystemTiming {
            system: "Spark Sim. Incr.".into(),
            total: start.elapsed(),
            per_iteration: ctx.stats().iteration_times,
            messages: vec![],
        },
    );

    out.push_str(&format!("{:>5}", "iter"));
    for s in &systems {
        out.push_str(&format!(" {:>20}", s.system));
    }
    out.push('\n');
    let rows = systems
        .iter()
        .map(|s| s.per_iteration.len())
        .max()
        .unwrap_or(0);
    for i in 0..rows {
        out.push_str(&format!("{:>5}", i + 1));
        for s in &systems {
            match s.per_iteration.get(i) {
                Some(d) => out.push_str(&format!(" {:>20.2}", d.as_secs_f64() * 1e3)),
                None => out.push_str(&format!(" {:>20}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Figure 12: correlation between per-iteration runtime and the number of
/// candidate records (messages) for the full, batch-incremental and microstep
/// Connected Components variants on the Wikipedia stand-in.
pub fn fig12(scale: u64) -> String {
    let graph = DatasetProfile::wikipedia().generate(scale);
    let config = ComponentsConfig::new(PARALLELISM);
    let full = cc_bulk(&graph, &config).expect("bulk CC");
    let incr = cc_incremental(&graph, &config).expect("incremental CC");
    let micro = cc_microstep(&graph, &config).expect("microstep CC");

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 12: runtime vs. candidate records per iteration on the Wikipedia stand-in (scale 1/{scale})\n"
    ));
    out.push_str(&format!(
        "{:>5} {:>12} {:>12} {:>12} {:>14} {:>14} {:>14}\n",
        "iter", "full ms", "incr ms", "micro ms", "full msgs", "incr msgs", "micro msgs"
    ));
    let rows = full
        .stats
        .per_iteration
        .len()
        .max(incr.stats.per_iteration.len())
        .max(micro.stats.per_iteration.len());
    let cell_ms = |stats: &spinning_core::IterationRunStats, i: usize| {
        stats
            .per_iteration
            .get(i)
            .map(|s| format!("{:.2}", s.millis()))
            .unwrap_or("-".into())
    };
    let cell_msgs = |stats: &spinning_core::IterationRunStats, i: usize| {
        stats
            .per_iteration
            .get(i)
            .map(|s| s.messages_sent.to_string())
            .unwrap_or("-".into())
    };
    for i in 0..rows {
        out.push_str(&format!(
            "{:>5} {:>12} {:>12} {:>12} {:>14} {:>14} {:>14}\n",
            i + 1,
            cell_ms(&full.stats, i),
            cell_ms(&incr.stats, i),
            cell_ms(&micro.stats, i),
            cell_msgs(&full.stats, i),
            cell_msgs(&incr.stats, i),
            cell_msgs(&micro.stats, i),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: u64 = 65_536;

    #[test]
    fn table2_lists_all_four_datasets() {
        let table = table2(TEST_SCALE);
        for name in ["Wikipedia-EN", "Webbase", "Hollywood", "Twitter"] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }

    #[test]
    fn fig2_workset_decays() {
        let text = fig2(TEST_SCALE);
        assert!(text.lines().count() > 4);
        assert!(text.contains("vertices inspected"));
    }

    #[test]
    fn fig4_shows_both_plans_and_a_crossover() {
        let text = fig4();
        assert!(text.contains("broadcast (Fig.4 left)"));
        assert!(text.contains("partition (Fig.4 right)"));
    }

    #[test]
    fn pagerank_systems_report_all_four_series() {
        let graph = DatasetProfile::wikipedia().generate(TEST_SCALE);
        let systems = pagerank_systems(&graph, 3);
        let names: Vec<&str> = systems.iter().map(|s| s.system.as_str()).collect();
        assert_eq!(
            names,
            vec!["Spark", "Giraph", "Stratosphere Part.", "Stratosphere BC"]
        );
        assert!(systems.iter().all(|s| s.per_iteration.len() >= 3));
    }

    #[test]
    fn cc_systems_report_all_five_series() {
        let graph = DatasetProfile::wikipedia().generate(TEST_SCALE);
        let systems = cc_systems(&graph, 100_000);
        assert_eq!(systems.len(), 5);
        assert!(systems.iter().all(|s| !s.per_iteration.is_empty()));
    }

    #[test]
    fn fig10_converges_with_a_long_tail() {
        let text = fig10(TEST_SCALE);
        let supersteps = text.lines().count().saturating_sub(2);
        assert!(
            supersteps > 10,
            "expected a long tail, got {supersteps} supersteps\n{text}"
        );
    }
}
