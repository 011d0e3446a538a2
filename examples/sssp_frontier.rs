//! Single-source shortest paths as an incremental iteration, showing that
//! the working set tracks the BFS frontier rather than the whole graph, and
//! that the batch-incremental and microstep executions produce the same
//! distances.
//!
//! ```text
//! cargo run --release --example sssp_frontier
//! ```

use algorithms::{oracles, sssp, UNREACHABLE};
use graphdata::DatasetProfile;
use spinning_core::ExecutionMode;

fn main() {
    let graph = DatasetProfile::foaf().generate(2048);
    let source = 0;
    println!(
        "FOAF-shaped stand-in: {} vertices, {} edges; shortest paths from vertex {source}\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let oracle = oracles::sssp(&graph, source);

    for (label, mode) in [
        (
            "batch incremental (supersteps)",
            ExecutionMode::BatchIncremental,
        ),
        ("microstep (supersteps)", ExecutionMode::Microstep),
    ] {
        let result = sssp(&graph, source, 4, mode).expect("SSSP run");
        assert_eq!(
            result.distances, oracle,
            "{label} disagrees with the BFS oracle"
        );
        let reachable = result
            .distances
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .count();
        let eccentricity = result
            .distances
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .max()
            .copied()
            .unwrap_or(0);
        println!(
            "{label:<34} {:>3} supersteps, {reachable} reachable vertices, eccentricity {eccentricity}",
            result.supersteps
        );
    }

    println!("\nfrontier sizes per superstep (batch incremental):");
    let result = sssp(&graph, source, 4, ExecutionMode::BatchIncremental).unwrap();
    for s in &result.stats.per_iteration {
        println!(
            "  superstep {:>3}: {:>8} candidates inspected, {:>8} distances improved",
            s.iteration, s.elements_inspected, s.elements_changed
        );
    }
}
