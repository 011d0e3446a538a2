//! Range-routed execution equivalence: switching the workset driver's
//! superstep exchange (and the solution set + constant-input index behind
//! it) from hash routing to sampled-splitter range routing must not change
//! any result.  These tests pin range-routed CC and SSSP — in every
//! `ExecutionMode`, across parallelism degrees (including more partitions
//! than distinct splitters), on chain/star/power-law shapes — to the same
//! sequential oracles the hash-routed runs are pinned to in
//! `pool_equivalence.rs`.

use algorithms::{
    cc_async, cc_incremental, cc_microstep, oracles, sssp_with_routing, ComponentsConfig,
};
use dataflow::prelude::{ExecConfig, MemoryBudget};
use graphdata::{chain, rmat, star, Graph, RmatParams};
use spinning_core::prelude::{ExecutionMode, WorksetConfig, WorksetRouting};

mod support;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("chain", chain(150)),
        ("star", star(200)),
        (
            "power-law",
            rmat(400, 2000, RmatParams::default(), 23).symmetrize(),
        ),
    ]
}

#[test]
fn range_routed_cc_matches_oracle_in_every_mode_and_parallelism() {
    for (name, graph) in graphs() {
        let oracle: Vec<i64> = graph
            .components_oracle()
            .into_iter()
            .map(i64::from)
            .collect();
        // 16 partitions on a 150-vertex chain leaves some splitter intervals
        // nearly empty — the degenerate-histogram path must still be exact.
        for parallelism in [1, 3, 8, 16] {
            let config = ComponentsConfig::new(parallelism).with_range_routing();
            for (mode, run) in [
                (
                    "incremental",
                    cc_incremental as fn(&Graph, &ComponentsConfig) -> _,
                ),
                ("microstep", cc_microstep),
                ("async", cc_async),
            ] {
                let result = run(&graph, &config).unwrap();
                assert_eq!(
                    result.components, oracle,
                    "range-routed {mode} CC on {name} at parallelism {parallelism}"
                );
                assert!(
                    result.converged,
                    "range-routed {mode} CC on {name} must converge"
                );
            }
        }
    }
}

#[test]
fn range_routed_cc_matches_hash_routed_cc_superstep_for_superstep() {
    // Same fixpoint *and* the same superstep count: range routing changes
    // where records live, not when candidates become visible.
    let graph = rmat(300, 1500, RmatParams::default(), 41).symmetrize();
    for parallelism in [2, 8] {
        let hash = cc_incremental(&graph, &ComponentsConfig::new(parallelism)).unwrap();
        let range = cc_incremental(
            &graph,
            &ComponentsConfig::new(parallelism).with_range_routing(),
        )
        .unwrap();
        assert_eq!(hash.components, range.components);
        assert_eq!(
            hash.iterations, range.iterations,
            "superstep structure must be routing-independent at parallelism {parallelism}"
        );
    }
}

/// Range-routed batch CC and SSSP equal the reference fixpoint, and the
/// asynchronous runs reach its solution, unbudgeted (the default credits),
/// at budget 0 and under one and two credits.
#[test]
fn range_routed_folded_cc_and_sssp_match_the_reference_fixpoint() {
    let graph = rmat(400, 2000, RmatParams::default(), 23).symmetrize();
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
            let config = WorksetConfig::new(parallelism)
                .with_range_routing()
                .with_exec(exec.clone());
            let label = format!("range/p{parallelism}/{regime}");
            support::assert_folded_runs_match_the_reference(&graph, 5, &config, &label);
            support::assert_async_runs_reach_the_reference(&graph, 5, &config, &label);
        }
    }
}

#[test]
fn range_routed_sssp_matches_oracle_in_every_mode() {
    let graph = rmat(300, 1500, RmatParams::default(), 31).symmetrize();
    let oracle = oracles::sssp(&graph, 5);
    for parallelism in [1, 3, 8] {
        for mode in [
            ExecutionMode::BatchIncremental,
            ExecutionMode::Microstep,
            ExecutionMode::AsynchronousMicrostep,
        ] {
            let result =
                sssp_with_routing(&graph, 5, parallelism, mode, WorksetRouting::Range).unwrap();
            assert_eq!(
                result.distances, oracle,
                "range-routed SSSP {mode:?} at parallelism {parallelism}"
            );
            assert!(result.converged);
        }
    }
}
