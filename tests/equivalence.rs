//! Cross-crate integration tests: all engines and all iteration variants must
//! agree on the algorithm results, across graph shapes and parallelism
//! degrees.  This is the repository-level statement of the paper's claim that
//! incremental iterations, microsteps and the Pregel model all compute the
//! same fixpoints — only their cost differs.

use algorithms::common::{
    edge_records, edge_records_with_degree, initial_component_candidates, initial_components,
    min_combine,
};
use algorithms::{
    adaptive_pagerank, cc_bulk, cc_incremental, cc_workset_records, oracles, pagerank, sssp,
    sssp_records, PageRankConfig, PageRankPlan, DAMPING, UNREACHABLE,
};
use baselines::{
    cc_pregel, cc_spark_bulk, pagerank_pregel, pagerank_spark, PregelConfig, SparkContext,
};
use dataflow::prelude::{ExecConfig, Key, MemoryBudget, Record, RecordSink, RecordView, Value};
use graphdata::{chain, erdos_renyi, figure1_graph, rmat, star, DatasetProfile, Graph, RmatParams};
use spinning_core::prelude::{
    ExecutionMode, ExpandClosure, RunConfig, UpdateClosure, WorksetIteration, WorksetResult,
};
use std::sync::Arc;

mod support;

fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("figure1", figure1_graph()),
        ("chain", chain(120)),
        ("star", star(200)),
        (
            "power-law",
            rmat(500, 3000, RmatParams::default(), 42).symmetrize(),
        ),
        (
            "social",
            rmat(300, 4000, RmatParams::social(), 7).symmetrize(),
        ),
        ("uniform", erdos_renyi(400, 4.0, 3).symmetrize()),
        ("foaf-profile", DatasetProfile::foaf().generate(16_384)),
    ]
}

#[test]
fn connected_components_all_engines_agree() {
    for (name, graph) in test_graphs() {
        let oracle: Vec<i64> = graph
            .components_oracle()
            .into_iter()
            .map(i64::from)
            .collect();
        let config = RunConfig::new(4);
        assert_eq!(
            cc_bulk(&graph, &config).unwrap().components,
            oracle,
            "bulk on {name}"
        );
        assert_eq!(
            cc_incremental(&graph, &config).unwrap().components,
            oracle,
            "incremental on {name}"
        );
        assert_eq!(
            cc_incremental(&graph, &config.clone().with_mode(ExecutionMode::Microstep))
                .unwrap()
                .components,
            oracle,
            "microstep on {name}"
        );
        let pregel = cc_pregel(&graph, &PregelConfig::new(4));
        assert_eq!(
            pregel
                .states
                .iter()
                .map(|&c| i64::from(c))
                .collect::<Vec<_>>(),
            oracle,
            "pregel on {name}"
        );
        let (spark, _) = cc_spark_bulk(&graph, usize::MAX, &SparkContext::new(4));
        assert_eq!(
            spark.iter().map(|&c| i64::from(c)).collect::<Vec<_>>(),
            oracle,
            "spark on {name}"
        );
    }
}

#[test]
fn connected_components_result_is_independent_of_parallelism() {
    let graph = rmat(600, 3600, RmatParams::default(), 99).symmetrize();
    let oracle: Vec<i64> = graph
        .components_oracle()
        .into_iter()
        .map(i64::from)
        .collect();
    for parallelism in [1, 2, 3, 8, 16] {
        let config = RunConfig::new(parallelism);
        assert_eq!(cc_incremental(&graph, &config).unwrap().components, oracle);
        assert_eq!(
            cc_incremental(&graph, &config.clone().with_mode(ExecutionMode::Microstep))
                .unwrap()
                .components,
            oracle
        );
    }
}

#[test]
fn pagerank_all_engines_agree() {
    let graph = rmat(250, 2000, RmatParams::default(), 17).symmetrize();
    let iterations = 8;
    let oracle = oracles::pagerank(&graph, iterations, DAMPING);

    let dataflow = pagerank(
        &graph,
        &PageRankConfig::new(4)
            .with_iterations(iterations)
            .with_plan(PageRankPlan::Optimized),
    )
    .unwrap();
    let spark = pagerank_spark(&graph, iterations, &SparkContext::new(4));
    let pregel = pagerank_pregel(&graph, iterations, DAMPING, &PregelConfig::new(4));

    for v in 0..graph.num_vertices() {
        assert!(
            (dataflow.ranks[v] - oracle[v]).abs() < 1e-9,
            "dataflow rank of {v}"
        );
        assert!((spark[v] - oracle[v]).abs() < 1e-9, "spark rank of {v}");
        assert!(
            (pregel.states[v] - oracle[v]).abs() < 1e-9,
            "pregel rank of {v}"
        );
    }
}

#[test]
fn sssp_modes_agree_with_the_bfs_oracle() {
    let graph = DatasetProfile::foaf().generate(32_768);
    let oracle = oracles::sssp(&graph, 1);
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        assert_eq!(
            sssp(&graph, 1, &RunConfig::new(4).with_mode(mode))
                .unwrap()
                .distances,
            oracle
        );
    }
}

/// Both workset execution modes must agree with the bulk iteration as
/// the oracle, across parallelism degrees — the "no behavioral change"
/// statement for the record-routing hot path (inline keys, Fx hashing,
/// move-based exchanges) shared by every mode.
#[test]
fn workset_modes_agree_with_bulk_oracle() {
    let graphs = [
        (
            "power-law",
            rmat(400, 2400, RmatParams::default(), 23).symmetrize(),
        ),
        ("chain", chain(150)),
    ];
    for (name, graph) in graphs {
        for parallelism in [1, 3, 8] {
            let config = RunConfig::new(parallelism);
            let bulk_oracle = cc_bulk(&graph, &config).unwrap().components;
            assert_eq!(
                cc_incremental(&graph, &config).unwrap().components,
                bulk_oracle,
                "batch-incremental vs bulk on {name} at parallelism {parallelism}"
            );
            assert_eq!(
                cc_incremental(&graph, &config.clone().with_mode(ExecutionMode::Microstep))
                    .unwrap()
                    .components,
                bulk_oracle,
                "microstep vs bulk on {name} at parallelism {parallelism}"
            );
        }
    }
}

#[test]
fn incremental_cc_does_asymptotically_less_work_than_bulk() {
    // The quantitative heart of the paper: summed over the run, the bulk
    // variant inspects |V| elements per iteration while the incremental
    // variant's inspections collapse with the shrinking working set.
    let graph = DatasetProfile::wikipedia().generate(16_384);
    let config = RunConfig::new(4);
    let bulk = cc_bulk(&graph, &config).unwrap();
    let incremental = cc_incremental(&graph, &config).unwrap();

    let bulk_inspected: usize = bulk
        .stats
        .per_iteration
        .iter()
        .map(|s| s.elements_inspected)
        .sum();
    let incr_inspected: usize = incremental
        .stats
        .per_iteration
        .iter()
        .map(|s| s.elements_inspected)
        .sum();
    assert!(
        incr_inspected < bulk_inspected,
        "incremental inspected {incr_inspected}, bulk inspected {bulk_inspected}"
    );

    // Later iterations of the incremental variant touch only a small fraction
    // of the solution (the paper's "hot" vs "cold" portions).
    let last = incremental.stats.per_iteration.last().unwrap();
    assert!(last.elements_inspected * 10 < graph.num_vertices());
}

/// Min-propagation over `(vid, neighbour)` edge records, every hop adding
/// `hop_cost` to the propagated value: Connected Components at 0, unit-weight
/// SSSP at 1 — the algorithms' step functions, combine included, restated
/// over heap records.
fn min_propagation_over(edges: Arc<Vec<Record>>, hop_cost: i64) -> WorksetIteration<'static> {
    let update = Arc::new(UpdateClosure(
        |key: &Key,
         current: Option<RecordView<'_>>,
         candidates: &[RecordView<'_>],
         delta: &mut dyn RecordSink| {
            let best = candidates.iter().map(|r| r.long(1)).min().expect("group");
            if current.is_none_or(|c| c.long(1) > best) {
                delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
            }
        },
    ));
    let expand = Arc::new(ExpandClosure(
        move |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            for e in edges {
                out.emit(&[
                    Value::Long(e.long(1)),
                    Value::Long(delta.long(1) + hop_cost),
                ]);
            }
        },
    ));
    WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(edges, vec![0], vec![0])
        .comparator(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))))
        .combine(min_combine())
        .build()
}

/// Adaptive PageRank's residual push restated over heap records (damping
/// [`DAMPING`], residuals below `tolerance` held back).
fn residual_push_over(edges: Arc<Vec<Record>>, tolerance: f64) -> WorksetIteration<'static> {
    let update = Arc::new(UpdateClosure(
        move |key: &Key,
              current: Option<RecordView<'_>>,
              candidates: &[RecordView<'_>],
              delta: &mut dyn RecordSink| {
            let residual: f64 = candidates.iter().map(|r| r.double(1)).sum();
            if residual < tolerance {
                return;
            }
            let rank = current.map_or(0.0, |c| c.double(1));
            delta.emit(&[
                key.values()[0].clone(),
                Value::Double(rank + residual),
                Value::Double(residual),
            ]);
        },
    ));
    let expand = Arc::new(ExpandClosure(
        |delta: RecordView<'_>, edges: &[RecordView<'_>], out: &mut dyn RecordSink| {
            let Some(first) = edges.first() else { return };
            let share = DAMPING * delta.double(2) / first.long(2) as f64;
            for e in edges {
                out.emit(&[Value::Long(e.long(1)), Value::Double(share)]);
            }
        },
    ));
    WorksetIteration::builder(vec![0], vec![0], update, expand)
        .constant_input(edges, vec![0], vec![0])
        .build()
}

fn assert_same_supersteps(ours: &WorksetResult, theirs: &WorksetResult, label: &str) {
    assert_eq!(ours.converged, theirs.converged, "{label}");
    let counters = |result: &WorksetResult| -> Vec<[usize; 6]> {
        let rows = result.stats.per_iteration.iter();
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
    assert_eq!(counters(ours), counters(theirs), "{label}");
}

/// Batch-incremental CC and SSSP fold their candidates before the exchange
/// wherever it cannot spill: at parallelism 1, 2 and 3, unbudgeted (the
/// default credits), at budget 0 and under one and two credits, every run
/// equals the reference fixpoint (after the fold where the engine folds)
/// and the run without a combine, and the microstep runs reach the
/// reference's solution.
#[test]
fn folded_cc_and_sssp_match_the_reference_and_the_unfolded_run() {
    let graph = rmat(400, 3200, RmatParams::default(), 61).symmetrize();
    let mut unbounded = ExecConfig::new();
    unbounded.channel_credits = None;
    let regimes = [
        ("unbudgeted", unbounded),
        (
            "budget 0",
            ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0)),
        ),
        ("1 credit", ExecConfig::new().with_channel_credits(1)),
        ("2 credits", ExecConfig::new().with_channel_credits(2)),
    ];
    for parallelism in [1, 2, 3] {
        for (regime, exec) in &regimes {
            let config = RunConfig::new(parallelism).with_exec(exec.clone());
            let label = format!("p{parallelism}/{regime}");
            support::assert_folded_runs_match_the_reference(&graph, 3, &config, &label);
            support::assert_microstep_runs_reach_the_reference(&graph, 3, &config, &label);
        }
    }
}

/// The algorithms describe their inputs as sources over the graph and the
/// load step serializes them straight into the partitions; the same jobs fed
/// the heap records `algorithms::common` returns (or, for SSSP and adaptive
/// PageRank, records built here) must be indistinguishable from them — the
/// same solution records in the same order and the same superstep counters —
/// under every superstep mode and memory regime.
#[test]
fn source_equivalence() {
    let graph = rmat(400, 3200, RmatParams::default(), 61).symmetrize();
    let vertices = || graph.vertices().map(i64::from);
    type Regime = fn() -> ExecConfig;
    let regimes: [(&str, Regime); 3] = [
        ("unlimited", ExecConfig::new),
        ("budget 0", || {
            ExecConfig::new().with_memory_budget(MemoryBudget::bytes(0))
        }),
        ("2 credits", || ExecConfig::new().with_channel_credits(2)),
    ];
    let source = 3;
    let sssp_solution = || -> Vec<Record> {
        let distance = |v| {
            if v == i64::from(source) {
                0
            } else {
                UNREACHABLE
            }
        };
        vertices().map(|v| Record::pair(v, distance(v))).collect()
    };
    let sssp_workset = || -> Vec<Record> {
        let neighbors = graph.neighbors(source).iter();
        neighbors.map(|&t| Record::pair(i64::from(t), 1)).collect()
    };
    let cc_from_records = min_propagation_over(edge_records(&graph), 0);
    let sssp_from_records = min_propagation_over(edge_records(&graph), 1);

    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        for (regime, exec) in regimes {
            let label = format!("{mode:?}/{regime}");
            let config = RunConfig::new(4).with_mode(mode).with_exec(exec());

            let described = cc_workset_records(&graph, &config, mode).unwrap();
            let records = cc_from_records
                .run(
                    initial_components(&graph),
                    initial_component_candidates(&graph),
                    &config,
                )
                .unwrap();
            assert!(described.converged, "cc {label}");
            assert_eq!(described.solution, records.solution, "cc {label}");
            assert_same_supersteps(&described, &records, &format!("cc {label}"));
            if regime == "budget 0" {
                assert!(described.stats.total_spilled_bytes() > 0, "cc {label}");
            }

            let described = sssp_records(&graph, source, &config).unwrap();
            let records = sssp_from_records
                .run(sssp_solution(), sssp_workset(), &config)
                .unwrap();
            assert!(described.converged, "sssp {label}");
            assert_eq!(described.solution, records.solution, "sssp {label}");
            assert_same_supersteps(&described, &records, &format!("sssp {label}"));
        }
    }

    // Adaptive PageRank exposes its mode only; its ranks are the solution
    // densified, compared bit for bit.  (A small graph and a loose tolerance:
    // microsteps push every residual share on its own.)
    let graph = rmat(60, 240, RmatParams::default(), 5).symmetrize();
    let vertices = || graph.vertices().map(i64::from);
    let tolerance = 1e-6;
    let seed = (1.0 - DAMPING) / graph.num_vertices() as f64;
    let push_from_records = residual_push_over(edge_records_with_degree(&graph), tolerance);
    let push_inputs = || -> (Vec<Record>, Vec<Record>) {
        (
            vertices().map(|v| Record::long_double(v, 0.0)).collect(),
            vertices().map(|v| Record::long_double(v, seed)).collect(),
        )
    };
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        let config = RunConfig::new(4).with_mode(mode);
        let described = adaptive_pagerank(&graph, tolerance, &config).unwrap();
        let (solution, workset) = push_inputs();
        let records = push_from_records.run(solution, workset, &config).unwrap();
        let mut ranks = vec![0.0f64; graph.num_vertices()];
        for record in &records.solution {
            ranks[record.long(0) as usize] = record.double(1);
        }
        let bits = |ranks: &[f64]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&described.ranks), bits(&ranks), "adaptive {mode:?}");
        assert_eq!(
            described.supersteps, records.supersteps,
            "adaptive {mode:?}"
        );
        assert_eq!(
            described.stats.total_messages(),
            records.stats.total_messages(),
            "adaptive {mode:?}"
        );
    }
}
