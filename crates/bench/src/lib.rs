//! # bench — the paper's tables and figures as data with tested claims
//!
//! Each public `figN`/`table2` function reproduces one element of the
//! evaluation section (Section 6) of *Spinning Fast Iterative Data Flows* and
//! returns its data series: per system, the wall-clock total and the
//! per-iteration times and counters ([`SystemRun`]).  Printing is a view of
//! that data: every figure renders through one [`Table`], and thin binaries
//! (`cargo run --release -p bench --bin fig7`) print it.  The unit tests at
//! the bottom of this file check one paper claim per figure on the series'
//! counters, which the machine's speed cannot move.  Timing belongs to the
//! repo benchmark (`BENCHMARK.json`, `benchmark/`); this crate keeps no
//! timing harness of its own.
//!
//! The graphs are synthetic stand-ins generated from the
//! [`graphdata::DatasetProfile`]s at a downscale factor taken from the
//! `SPINNING_SCALE` environment variable (default 2048, i.e. graphs are
//! ~1/2048th of the paper's), so absolute runtimes are not comparable to the
//! paper — the *shape* of each figure (who wins, how per-iteration work
//! decays, where crossovers happen) is what is reproduced.  See `README.md`
//! and `ROADMAP.md` at the repository root for the paper-vs-measured record.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use algorithms::{cc_bulk, cc_incremental, cc_microstep, pagerank};
use algorithms::{ComponentsConfig, ComponentsResult, PageRankConfig, PageRankPlan};
use baselines::pregellike::SuperstepStats;
use baselines::{cc_pregel, cc_spark_simulated_incremental, pagerank_pregel, pagerank_spark};
use baselines::{cc_spark_bulk, PregelConfig, SparkContext};
use dataflow::credit::positive_from_env;
use dataflow::prelude::ShipStrategy;
use graphdata::{DatasetProfile, Graph, GraphSummary};
use spinning_core::IterationStats;
use std::fmt;
use std::iter::once;
use std::time::{Duration, Instant};

/// Degree of parallelism used by all harness runs (the paper's cluster has 32
/// cores; on one machine we default to 8 worker partitions).
pub const PARALLELISM: usize = 8;

/// Reads the downscale factor from `SPINNING_SCALE` (default 2048).  A
/// malformed or zero value warns and falls back to the default.
pub fn scale_factor() -> u64 {
    positive_from_env("SPINNING_SCALE").unwrap_or(2048)
}

/// The printable view of a figure or table: a title, a header row and rows
/// of cells.  The first column is left-aligned and the others right-aligned,
/// each to its widest cell.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let lines = || once(&self.header).chain(&self.rows);
        let mut widths = vec![0; self.header.len()];
        for line in lines() {
            for (width, cell) in widths.iter_mut().zip(line) {
                *width = (*width).max(cell.chars().count());
            }
        }
        for line in lines() {
            for (column, (cell, width)) in line.iter().zip(&widths).enumerate() {
                match column {
                    0 => write!(f, "{cell:<width$}")?,
                    _ => write!(f, "  {cell:>width$}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One system's run: its name, its wall-clock total and, per iteration or
/// superstep, the time and the counters it reports.  Engine runs report every
/// [`IterationStats`] field.  The Pregel baseline reports time and
/// `messages_sent`; the Spark baseline reports time and, as `workset_size`,
/// the records of the partial solution it re-created
/// ([`baselines::SparkStats::iteration_records`]).
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// System or variant name, as the figure labels it.
    pub system: &'static str,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Per-iteration statistics, in order.
    pub per_iteration: Vec<IterationStats>,
}

/// The runs of a figure on one data set stand-in.
#[derive(Debug, Clone)]
pub struct Runs {
    /// Column label: the profile's name, with the iteration bound if any.
    pub label: String,
    /// Vertices of the generated graph.
    pub vertices: usize,
    /// One run per compared system, in the figure's order.
    pub systems: Vec<SystemRun>,
}

impl Runs {
    fn on(label: impl Into<String>, graph: &Graph, systems: Vec<SystemRun>) -> Self {
        Runs {
            label: label.into(),
            vertices: graph.num_vertices(),
            systems,
        }
    }
}

/// A reproduced figure: the runs on each data set stand-in, and the view
/// the figure prints them in.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Caption printed above the table.
    pub title: String,
    /// One entry per data set stand-in, in the figure's column order.
    pub datasets: Vec<Runs>,
    view: fn(&Figure) -> Table,
}

impl Figure {
    /// The printable view.
    pub fn table(&self) -> Table {
        (self.view)(self)
    }

    /// The runs on the first (for most figures: the only) data set.
    pub fn runs(&self) -> &[SystemRun] {
        &self.datasets[0].systems
    }
}

/// Times `job` and keeps the per-iteration statistics it returns.  Every
/// system run of every figure is built here, from the statistics its
/// system's driver recorded.
fn timed(system: &'static str, job: impl FnOnce() -> Vec<IterationStats>) -> SystemRun {
    let start = Instant::now();
    let per_iteration = job();
    SystemRun {
        system,
        total: start.elapsed(),
        per_iteration,
    }
}

/// Connected Components on the dataflow engine under one of its drivers.
fn cc_run<E: fmt::Debug>(
    system: &'static str,
    graph: &Graph,
    config: &ComponentsConfig,
    driver: fn(&Graph, &ComponentsConfig) -> Result<ComponentsResult, E>,
) -> SystemRun {
    timed(system, || {
        driver(graph, config).expect(system).stats.per_iteration
    })
}

/// The Pregel baseline's supersteps as iteration statistics.
fn pregel(stats: Vec<SuperstepStats>) -> Vec<IterationStats> {
    let step = |s: SuperstepStats| IterationStats {
        iteration: s.superstep,
        elapsed: s.elapsed,
        messages_sent: s.messages_sent,
        ..IterationStats::default()
    };
    stats.into_iter().map(step).collect()
}

/// Runs a Spark-baseline job on a fresh context and times it.
fn spark(system: &'static str, job: impl FnOnce(&SparkContext)) -> SystemRun {
    timed(system, || {
        let ctx = SparkContext::new(PARALLELISM);
        job(&ctx);
        let stats = ctx.stats();
        let steps = stats.iteration_times.iter().zip(&stats.iteration_records);
        let step = |(i, (&elapsed, &records))| IterationStats {
            iteration: i + 1,
            elapsed,
            workset_size: records,
            ..IterationStats::default()
        };
        steps.enumerate().map(step).collect()
    })
}

type Cell = fn(&IterationStats) -> String;

fn millis(s: &IterationStats) -> String {
    format!("{:.2}", s.millis())
}

fn messages(s: &IterationStats) -> String {
    s.messages_sent.to_string()
}

/// One row per iteration and one column per `(header, run, cell)`; a run
/// that stopped earlier shows "-".
fn per_iteration(title: &str, columns: &[(String, &SystemRun, Cell)]) -> Table {
    let rows = columns.iter().map(|c| c.1.per_iteration.len()).max();
    let row = |i: usize| {
        let cells = columns
            .iter()
            .map(|(_, run, cell)| run.per_iteration.get(i).map_or("-".to_string(), cell));
        once((i + 1).to_string()).chain(cells).collect()
    };
    Table {
        title: title.to_string(),
        header: once("iter".to_string())
            .chain(columns.iter().map(|c| c.0.clone()))
            .collect(),
        rows: (0..rows.unwrap_or(0)).map(row).collect(),
    }
}

/// The per-iteration milliseconds of every run on the first data set.
fn millis_per_system(figure: &Figure) -> Table {
    let columns: Vec<(String, &SystemRun, Cell)> = (figure.runs().iter())
        .map(|run| (run.system.to_string(), run, millis as Cell))
        .collect();
    per_iteration(&figure.title, &columns)
}

/// Total seconds: one row per system, one column per data set.
fn totals(figure: &Figure) -> Table {
    let row = |i: usize| {
        let cells = (figure.datasets.iter())
            .map(|runs| format!("{:.3}", runs.systems[i].total.as_secs_f64()));
        once(figure.runs()[i].system.to_string())
            .chain(cells)
            .collect()
    };
    Table {
        title: figure.title.clone(),
        header: once("system".to_string())
            .chain(figure.datasets.iter().map(|runs| runs.label.clone()))
            .collect(),
        rows: (0..figure.runs().len()).map(row).collect(),
    }
}

/// Table 2's data: each profile with the statistics of its generated
/// stand-in.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The downscale factor the stand-ins were generated at.
    pub scale: u64,
    /// The paper's profile and the generated graph's statistics, per data set.
    pub datasets: Vec<(DatasetProfile, GraphSummary)>,
}

impl Table2 {
    /// The printable view.
    pub fn table(&self) -> Table {
        let header = "dataset,paper |V|,paper |E|,paper deg,|,gen |V|,gen |E|,gen deg";
        let row = |(profile, summary): &(DatasetProfile, GraphSummary)| {
            vec![
                profile.name.to_string(),
                profile.paper_vertices.to_string(),
                profile.paper_edges.to_string(),
                format!("{:.2}", profile.paper_avg_degree()),
                "|".to_string(),
                summary.vertices.to_string(),
                summary.edges.to_string(),
                format!("{:.2}", summary.avg_degree),
            ]
        };
        Table {
            title: format!(
                "Table 2: data set properties (scale factor 1/{})",
                self.scale
            ),
            header: header.split(',').map(String::from).collect(),
            rows: self.datasets.iter().map(row).collect(),
        }
    }
}

/// Table 2: data set properties — the paper's full-scale numbers next to
/// the generated stand-ins' statistics.
pub fn table2(scale: u64) -> Table2 {
    let summarize = |profile: DatasetProfile| {
        let summary = GraphSummary::of(&profile.generate(scale));
        (profile, summary)
    };
    Table2 {
        scale,
        datasets: DatasetProfile::table2()
            .into_iter()
            .map(summarize)
            .collect(),
    }
}

/// Figure 2: the effective work of the incremental Connected Components
/// algorithm on the FOAF subgraph — vertices inspected, vertices changed and
/// working-set size (the messages each superstep sends on) per superstep.
pub fn fig2(scale: u64) -> Figure {
    let graph = DatasetProfile::foaf().generate(scale);
    let config = ComponentsConfig::new(PARALLELISM);
    let run = cc_run("Stratosphere Incr.", &graph, &config, cc_incremental);
    Figure {
        title: format!(
            "Figure 2: effective work of incremental Connected Components (FOAF stand-in, |V|={}, |E|={})",
            graph.num_vertices(),
            graph.num_edges()
        ),
        datasets: vec![Runs::on("FOAF", &graph, vec![run])],
        view: |figure| {
            let run = &figure.runs()[0];
            let columns: [(String, &SystemRun, Cell); 3] = [
                ("vertices inspected".into(), run, |s| s.elements_inspected.to_string()),
                ("vertices changed".into(), run, |s| s.elements_changed.to_string()),
                ("workset elements".into(), run, messages),
            ];
            per_iteration(&figure.title, &columns)
        },
    }
}

/// One row of Figure 4: the optimizer's choice for one rank-vector size.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Estimated rank-vector records `|p|`.
    pub pages: usize,
    /// Estimated transition-matrix entries `|A|`.
    pub matrix_entries: usize,
    /// How the chosen plan ships the rank vector to the join.
    pub ship: ShipStrategy,
    /// The chosen plan's estimated cost.
    pub cost: f64,
}

/// Figure 4's data: the optimizer's choice as the rank vector grows.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One choice per rank-vector size, smallest first.
    pub choices: Vec<PlanChoice>,
}

impl Fig4 {
    /// The printable view.
    pub fn table(&self) -> Table {
        let row = |c: &PlanChoice| {
            let ship = match c.ship {
                ShipStrategy::Broadcast => "broadcast (Fig.4 left)",
                ShipStrategy::PartitionHash(_) => "partition (Fig.4 right)",
                _ => "other",
            };
            vec![
                c.pages.to_string(),
                c.matrix_entries.to_string(),
                ship.to_string(),
                format!("{:.0}", c.cost),
            ]
        };
        let header = "|p| (pages),|A| (entries),chosen vector shipping,est. cost";
        Table {
            title:
                "Figure 4: optimizer plan choice for the PageRank join (20 iterations, 8 workers)"
                    .to_string(),
            header: header.split(',').map(String::from).collect(),
            rows: self.choices.iter().map(row).collect(),
        }
    }
}

/// Figure 4: the optimizer's plan choice for PageRank as the rank vector
/// grows relative to the transition matrix, showing the broadcast/partition
/// crossover.
pub fn fig4() -> Fig4 {
    use optimizer::{IterationSpec, Optimizer};

    let matrix_entries = 4_000_000usize;
    let choose = |pages: usize| {
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
        let optimized = Optimizer::new(PARALLELISM)
            .optimize_iterative(&plan, &annotations, &IterationSpec::new(vector, sink, 20.0))
            .expect("optimize PageRank step plan");
        PlanChoice {
            pages,
            matrix_entries,
            ship: optimized.physical.choice(join).input_ships[0].clone(),
            cost: optimized.cost.total(),
        }
    };
    let sizes = [
        1_000, 10_000, 100_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
    ];
    Fig4 {
        choices: sizes.into_iter().map(choose).collect(),
    }
}

/// PageRank on the dataflow engine under one of Figure 4's plans.
pub fn pagerank_plan(
    system: &'static str,
    graph: &Graph,
    iterations: usize,
    plan: PageRankPlan,
) -> SystemRun {
    let config = PageRankConfig::new(PARALLELISM)
        .with_iterations(iterations)
        .with_plan(plan);
    timed(system, || {
        let result = pagerank(graph, &config).expect("dataflow PageRank");
        result.stats.per_iteration
    })
}

/// Runs the PageRank comparison of Figure 7 on one graph: one run per
/// system.
pub fn pagerank_systems(graph: &Graph, iterations: usize) -> Vec<SystemRun> {
    let pregel_config = PregelConfig::new(PARALLELISM);
    vec![
        spark("Spark", |ctx| {
            pagerank_spark(graph, iterations, ctx);
        }),
        timed("Giraph", || {
            pregel(pagerank_pregel(graph, iterations, 0.85, &pregel_config).stats)
        }),
        pagerank_plan(
            "Stratosphere Part.",
            graph,
            iterations,
            PageRankPlan::ForcePartition,
        ),
        pagerank_plan(
            "Stratosphere BC",
            graph,
            iterations,
            PageRankPlan::ForceBroadcast,
        ),
    ]
}

/// The stand-ins of Figure 7, in column order.
pub fn fig7_profiles() -> [DatasetProfile; 3] {
    [
        DatasetProfile::wikipedia(),
        DatasetProfile::webbase(),
        DatasetProfile::twitter(),
    ]
}

/// Figure 7: total PageRank runtimes per system on the Wikipedia, Webbase and
/// Twitter stand-ins.
pub fn fig7(scale: u64, iterations: usize) -> Figure {
    let on = |profile: DatasetProfile| {
        let graph = profile.generate(scale);
        Runs::on(profile.name, &graph, pagerank_systems(&graph, iterations))
    };
    Figure {
        title: format!(
            "Figure 7: total PageRank runtime, {iterations} iterations (scale 1/{scale}, seconds)"
        ),
        datasets: fig7_profiles().into_iter().map(on).collect(),
        view: totals,
    }
}

/// Figure 8: per-iteration PageRank runtimes on the Wikipedia stand-in.
pub fn fig8(scale: u64, iterations: usize) -> Figure {
    let graph = DatasetProfile::wikipedia().generate(scale);
    let systems = pagerank_systems(&graph, iterations);
    Figure {
        title: format!(
            "Figure 8: per-iteration PageRank runtime on the Wikipedia stand-in (ms, scale 1/{scale})"
        ),
        datasets: vec![Runs::on("Wikipedia-EN", &graph, systems)],
        view: |figure| {
            // Giraph's extra last superstep only votes to halt; the figure
            // plots the iterations every system runs.
            let mut table = millis_per_system(figure);
            let iterations = figure.runs().iter().map(|r| r.per_iteration.len()).min();
            table.rows.truncate(iterations.unwrap_or(0));
            table
        },
    }
}

/// Runs the Connected Components comparison of Figure 9 on one graph: one
/// run per system, each bounded to `max_iterations` (the paper bounds
/// Webbase to its first 20 iterations).
pub fn cc_systems(graph: &Graph, max_iterations: usize) -> Vec<SystemRun> {
    let config = ComponentsConfig::new(PARALLELISM).with_max_iterations(max_iterations);
    let pregel_config = PregelConfig::new(PARALLELISM).with_max_supersteps(max_iterations);
    vec![
        spark("Spark", |ctx| {
            cc_spark_bulk(graph, max_iterations, ctx);
        }),
        timed("Giraph", || pregel(cc_pregel(graph, &pregel_config).stats)),
        cc_run("Stratosphere Full", graph, &config, cc_bulk),
        cc_run("Stratosphere Micro", graph, &config, cc_microstep),
        cc_run("Stratosphere Incr.", graph, &config, cc_incremental),
    ]
}

/// Figure 9: total Connected Components runtimes per system on the four Table
/// 2 stand-ins (Webbase bounded to its first 20 iterations, as in the paper).
pub fn fig9(scale: u64) -> Figure {
    let profiles = [
        (DatasetProfile::wikipedia(), None),
        (DatasetProfile::hollywood(), None),
        (DatasetProfile::twitter(), None),
        (DatasetProfile::webbase(), Some(20)),
    ];
    let on = |(profile, bound): (DatasetProfile, Option<usize>)| {
        let graph = profile.generate(scale);
        let label = match bound {
            Some(bound) => format!("{} ({bound})", profile.name),
            None => profile.name.to_string(),
        };
        Runs::on(label, &graph, cc_systems(&graph, bound.unwrap_or(100_000)))
    };
    Figure {
        title: format!("Figure 9: total Connected Components runtime (scale 1/{scale}, seconds)"),
        datasets: profiles.into_iter().map(on).collect(),
        view: totals,
    }
}

/// Figure 10: per-iteration runtime and message volume of the incremental
/// Connected Components on the Webbase stand-in, run to full convergence
/// (the long tail caused by the huge-diameter component).
pub fn fig10(scale: u64) -> Figure {
    let graph = DatasetProfile::webbase().generate(scale);
    let config = ComponentsConfig::new(PARALLELISM);
    let run = cc_run("Stratosphere Incr.", &graph, &config, cc_incremental);
    Figure {
        title: format!(
            "Figure 10: incremental Connected Components on the Webbase stand-in \
             (|V|={}, |E|={}, {} supersteps to convergence)",
            graph.num_vertices(),
            graph.num_edges(),
            run.per_iteration.len()
        ),
        datasets: vec![Runs::on("Webbase", &graph, vec![run])],
        view: |figure| {
            let run = &figure.runs()[0];
            let columns: [(String, &SystemRun, Cell); 2] = [
                ("millis".into(), run, |s| format!("{:.3}", s.millis())),
                ("messages".into(), run, messages),
            ];
            per_iteration(&figure.title, &columns)
        },
    }
}

/// Figure 11: per-iteration Connected Components runtimes on the Wikipedia
/// stand-in for all six variants the paper plots.
pub fn fig11(scale: u64) -> Figure {
    let graph = DatasetProfile::wikipedia().generate(scale);
    let mut systems = cc_systems(&graph, 100_000);
    let simulated = spark("Spark Sim. Incr.", |ctx| {
        cc_spark_simulated_incremental(&graph, ctx);
    });
    systems.insert(1, simulated);
    Figure {
        title: format!(
            "Figure 11: per-iteration Connected Components runtime on the Wikipedia stand-in (ms, scale 1/{scale})"
        ),
        datasets: vec![Runs::on("Wikipedia-EN", &graph, systems)],
        view: millis_per_system,
    }
}

/// Figure 12: correlation between per-iteration runtime and the number of
/// candidate records (messages) for the full, batch-incremental and microstep
/// Connected Components variants on the Wikipedia stand-in.
pub fn fig12(scale: u64) -> Figure {
    let graph = DatasetProfile::wikipedia().generate(scale);
    let config = ComponentsConfig::new(PARALLELISM);
    let systems = vec![
        cc_run("full", &graph, &config, cc_bulk),
        cc_run("incr", &graph, &config, cc_incremental),
        cc_run("micro", &graph, &config, cc_microstep),
    ];
    Figure {
        title: format!(
            "Figure 12: runtime vs. candidate records per iteration on the Wikipedia stand-in (scale 1/{scale})"
        ),
        datasets: vec![Runs::on("Wikipedia-EN", &graph, systems)],
        view: |figure| {
            let mut columns: Vec<(String, &SystemRun, Cell)> = Vec::new();
            for (unit, cell) in [("ms", millis as Cell), ("msgs", messages)] {
                let runs = figure.runs().iter();
                columns.extend(runs.map(|run| (format!("{} {unit}", run.system), run, cell)));
            }
            per_iteration(&figure.title, &columns)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: u64 = 65_536;

    fn run<'a>(runs: &'a [SystemRun], system: &str) -> &'a SystemRun {
        let found = runs.iter().find(|run| run.system == system);
        found.unwrap_or_else(|| panic!("no {system} series"))
    }

    /// One counter of a run, per iteration.
    fn series(run: &SystemRun, counter: fn(&IterationStats) -> usize) -> Vec<usize> {
        run.per_iteration.iter().map(counter).collect()
    }

    #[test]
    fn table2_lists_all_four_datasets() {
        let table = table2(TEST_SCALE);
        let names: Vec<&str> = table.datasets.iter().map(|(p, _)| p.name).collect();
        assert_eq!(names, ["Wikipedia-EN", "Webbase", "Hollywood", "Twitter"]);
        assert!(table
            .datasets
            .iter()
            .all(|(_, summary)| summary.vertices > 0));
    }

    /// Figure 2: the workset and the inspected elements only shrink, the
    /// workset empties, and no superstep changes more than it inspects.
    #[test]
    fn fig2_workset_decays() {
        let figure = fig2(TEST_SCALE);
        let steps = &figure.runs()[0].per_iteration;
        let table = figure.table();
        for pair in steps.windows(2) {
            assert!(pair[1].messages_sent <= pair[0].messages_sent, "{table}");
            assert!(
                pair[1].elements_inspected <= pair[0].elements_inspected,
                "{table}"
            );
        }
        assert_eq!(steps.last().map(|s| s.messages_sent), Some(0), "{table}");
        assert!(
            steps
                .iter()
                .all(|s| s.elements_changed <= s.elements_inspected),
            "{table}"
        );
    }

    /// Figure 4: as |p| grows the vector's shipping flips exactly once, from
    /// broadcast to partition.
    #[test]
    fn fig4_shows_both_plans_and_a_crossover() {
        let figure = fig4();
        let broadcast: Vec<bool> = (figure.choices.iter())
            .map(|c| match c.ship {
                ShipStrategy::Broadcast => true,
                ShipStrategy::PartitionHash(_) => false,
                ref other => panic!("unexpected vector shipping {other:?}"),
            })
            .collect();
        let flips = broadcast.windows(2).filter(|w| w[0] != w[1]).count();
        let table = figure.table();
        assert_eq!(flips, 1, "{table}");
        assert!(broadcast[0] && !broadcast[broadcast.len() - 1], "{table}");
    }

    #[test]
    fn pagerank_systems_report_all_four_series() {
        let graph = DatasetProfile::wikipedia().generate(TEST_SCALE);
        let systems = pagerank_systems(&graph, 3);
        let names: Vec<&str> = systems.iter().map(|s| s.system).collect();
        assert_eq!(
            names,
            vec!["Spark", "Giraph", "Stratosphere Part.", "Stratosphere BC"]
        );
        assert!(systems.iter().all(|s| s.per_iteration.len() >= 3));
    }

    /// Figures 7 and 8: once iteration 1 has shipped and cached the constant
    /// path, every plan ships the same bytes per iteration, and the plan the
    /// optimizer picks ships no more than either forced plan.
    #[test]
    fn fig7_fig8_plans_ship_constant_bytes_and_the_optimized_plan_ships_least() {
        let iterations = 20;
        let figure = fig7(TEST_SCALE, iterations);
        for (runs, profile) in figure.datasets.iter().zip(fig7_profiles()) {
            let graph = profile.generate(TEST_SCALE);
            let optimized = pagerank_plan("optimized", &graph, iterations, PageRankPlan::Optimized);
            let plans = [
                &optimized,
                run(&runs.systems, "Stratosphere BC"),
                run(&runs.systems, "Stratosphere Part."),
            ];
            let steady = plans.map(|plan| {
                let shipped = series(plan, |s| {
                    s.execution.as_ref().expect("dataflow stats").shipped_bytes
                });
                let label = format!("{} on {}: {shipped:?}", plan.system, runs.label);
                assert_eq!(shipped.len(), iterations, "{label}");
                assert!(shipped[1..].iter().all(|&b| b == shipped[1]), "{label}");
                shipped[1]
            });
            assert!(
                steady[0] <= steady[1] && steady[0] <= steady[2],
                "optimized, broadcast, partition bytes per iteration on {}: {steady:?}",
                runs.label
            );
        }
    }

    #[test]
    fn cc_systems_report_all_five_series() {
        let graph = DatasetProfile::wikipedia().generate(TEST_SCALE);
        let systems = cc_systems(&graph, 100_000);
        assert_eq!(systems.len(), 5);
        assert!(systems.iter().all(|s| !s.per_iteration.is_empty()));
    }

    /// Figure 9: on every Table-2 stand-in, batch-incremental and microstep
    /// send and ship fewer records than bulk, batch-incremental inspects
    /// fewer elements, and the Webbase column stops every system at 20
    /// iterations.
    #[test]
    fn fig9_incremental_variants_do_less_work_than_bulk() {
        let figure = fig9(TEST_SCALE);
        let table = figure.table();
        // Totals over the run: records sent, records shipped, elements inspected.
        let work = |run: &SystemRun| {
            [
                series(run, |s| s.messages_sent),
                series(run, |s| s.messages_shipped),
                series(run, |s| s.elements_inspected),
            ]
            .map(|counts| counts.iter().sum::<usize>())
        };
        for runs in &figure.datasets {
            let [bulk_sent, bulk_shipped, bulk_inspected] =
                work(run(&runs.systems, "Stratosphere Full"));
            for variant in ["Stratosphere Incr.", "Stratosphere Micro"] {
                let [sent, shipped, inspected] = work(run(&runs.systems, variant));
                let label = format!(
                    "{variant} on {}: sent {sent} vs bulk {bulk_sent}, shipped {shipped} vs \
                     bulk {bulk_shipped}, inspected {inspected} vs bulk {bulk_inspected}\n{table}",
                    runs.label
                );
                assert!(sent < bulk_sent && shipped < bulk_shipped, "{label}");
                // Microstep counts every candidate it inspects, so only the
                // batch variant's inspected elements compare with bulk's.
                if variant == "Stratosphere Incr." {
                    assert!(inspected < bulk_inspected, "{label}");
                }
            }
        }
        let webbase = &figure.datasets[3];
        assert_eq!(webbase.label, "Webbase (20)");
        assert!(webbase.systems.iter().all(|s| s.per_iteration.len() <= 20));
        assert_eq!(
            run(&webbase.systems, "Spark").per_iteration.len(),
            20,
            "{table}"
        );
    }

    /// Figure 10: after the head, the messages per superstep fall below 2 %
    /// of the peak from superstep 3 on and stay there through the long tail.
    #[test]
    fn fig10_converges_with_a_long_tail() {
        let figure = fig10(TEST_SCALE);
        let sent = series(&figure.runs()[0], |s| s.messages_sent);
        let peak = sent.iter().copied().max().unwrap_or(0);
        assert!(sent.len() > 10, "expected a long tail: {sent:?}");
        assert!(
            sent[2..].iter().all(|&m| m * 50 < peak),
            "peak {peak}: {sent:?}"
        );
    }

    /// Figure 11: Spark's simulated incremental variant re-creates all |V|
    /// records in every iteration, while the true workset shrinks.
    #[test]
    fn fig11_simulated_incremental_recreates_the_whole_solution() {
        let figure = fig11(TEST_SCALE);
        let vertices = figure.datasets[0].vertices;
        let recreated = series(run(figure.runs(), "Spark Sim. Incr."), |s| s.workset_size);
        assert!(!recreated.is_empty());
        assert!(
            recreated.iter().all(|&records| records == vertices),
            "{recreated:?}"
        );
        let workset = series(run(figure.runs(), "Stratosphere Incr."), |s| s.workset_size);
        assert!(workset.windows(2).all(|w| w[1] <= w[0]), "{workset:?}");
        assert!(
            workset.last().is_some_and(|&w| w < vertices),
            "{workset:?} of {vertices}"
        );
    }
}
