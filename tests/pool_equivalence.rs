//! Pooled-execution equivalence: migrating every per-operator and
//! per-superstep `std::thread::scope` spawn onto the persistent worker pool
//! must not change any result.  These tests pin the pooled runtimes of
//! CC/SSSP/PageRank — in every `ExecutionMode` and across parallelism
//! degrees (including more partitions than pool workers) — to the sequential
//! oracles, which are exactly the results the pre-pool scoped-thread
//! execution produced.

use algorithms::{
    adaptive_pagerank, cc_bulk, cc_incremental, cc_microstep, oracles, pagerank, sssp,
    AdaptiveConfig, ComponentsConfig, PageRankConfig, PageRankPlan,
};
use graphdata::{chain, rmat, star, Graph, RmatParams};
use spinning_core::ExecutionMode;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("chain", chain(150)),
        ("star", star(200)),
        (
            "power-law",
            rmat(400, 2000, RmatParams::default(), 11).symmetrize(),
        ),
    ]
}

#[test]
fn pooled_cc_matches_oracle_in_every_mode_and_parallelism() {
    for (name, graph) in graphs() {
        let oracle: Vec<i64> = graph
            .components_oracle()
            .into_iter()
            .map(i64::from)
            .collect();
        // 8 and 16 partitions exceed the pool's worker count on small
        // machines — tasks must queue and still produce identical results.
        for parallelism in [1, 3, 8, 16] {
            let config = ComponentsConfig::new(parallelism);
            for (mode, run) in [
                ("bulk", cc_bulk as fn(&Graph, &ComponentsConfig) -> _),
                ("incremental", cc_incremental),
                ("microstep", cc_microstep),
            ] {
                let result = run(&graph, &config).unwrap();
                assert_eq!(
                    result.components, oracle,
                    "{mode} CC on {name} at parallelism {parallelism}"
                );
                assert!(result.converged, "{mode} CC on {name} must converge");
            }
        }
    }
}

#[test]
fn pooled_sssp_matches_oracle_in_every_mode() {
    let graph = rmat(300, 1500, RmatParams::default(), 31).symmetrize();
    let oracle = oracles::sssp(&graph, 5);
    for parallelism in [1, 3, 8] {
        for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
            let result = sssp(&graph, 5, parallelism, mode).unwrap();
            assert_eq!(
                result.distances, oracle,
                "SSSP {mode:?} at parallelism {parallelism}"
            );
            assert!(result.converged);
        }
    }
}

#[test]
fn pooled_pagerank_matches_oracle_for_all_plans() {
    let graph = rmat(250, 1800, RmatParams::default(), 17).symmetrize();
    let iterations = 8;
    let oracle = oracles::pagerank(&graph, iterations, 0.85);
    for parallelism in [1, 4, 8] {
        for plan in [
            PageRankPlan::Optimized,
            PageRankPlan::ForceBroadcast,
            PageRankPlan::ForcePartition,
        ] {
            let result = pagerank(
                &graph,
                &PageRankConfig::new(parallelism)
                    .with_iterations(iterations)
                    .with_plan(plan),
            )
            .unwrap();
            assert!(result.converged);
            for (v, &expected) in oracle.iter().enumerate() {
                assert!(
                    (result.ranks[v] - expected).abs() < 1e-9,
                    "{plan:?} at parallelism {parallelism}: rank of {v}"
                );
            }
        }
    }
}

#[test]
fn pooled_adaptive_pagerank_converges_in_both_superstep_modes() {
    // Adaptive PageRank is an approximation, and the batch and microstep
    // update semantics legitimately truncate different residuals (a batch of
    // tiny candidates can clear the tolerance together; one at a time they
    // are dropped individually).  Pooling equivalence is therefore checked
    // *within* each mode across parallelism degrees: a pooling bug (lost or
    // duplicated workset records) would change the pushed rank mass or the
    // ranking, while float summation order only moves results by ulps.
    // The loose tolerance keeps the record-at-a-time microstep run cheap —
    // residual pushing at tight tolerances generates millions of records,
    // which is a benchmark's job, not a correctness test's.
    let graph = rmat(200, 1200, RmatParams::default(), 7).symmetrize();
    let tolerance = 1e-6;
    let top10 = |ranks: &[f64]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..ranks.len()).collect();
        idx.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
        idx.truncate(10);
        idx
    };
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        let reference = adaptive_pagerank(
            &graph,
            &AdaptiveConfig::new(1)
                .with_mode(mode)
                .with_tolerance(tolerance),
        )
        .unwrap();
        assert!(reference.converged);
        let reference_mass: f64 = reference.ranks.iter().sum();
        let reference_top = top10(&reference.ranks);
        for parallelism in [2, 8] {
            let result = adaptive_pagerank(
                &graph,
                &AdaptiveConfig::new(parallelism)
                    .with_mode(mode)
                    .with_tolerance(tolerance),
            )
            .unwrap();
            assert!(result.converged);
            let mass: f64 = result.ranks.iter().sum();
            assert!(
                (mass - reference_mass).abs() < 1e-6,
                "{mode:?} at parallelism {parallelism}: rank mass {mass} vs {reference_mass}"
            );
            let overlap = top10(&result.ranks)
                .iter()
                .filter(|v| reference_top.contains(v))
                .count();
            assert!(
                overlap >= 8,
                "{mode:?} at parallelism {parallelism}: only {overlap} of the top-10 agree"
            );
        }
    }
}
