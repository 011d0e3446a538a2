//! Connected Components on a social-network-shaped graph, comparing a bulk
//! dataflow, the incremental workset iteration, and the Pregel-style baseline
//! — the core comparison of the paper's evaluation (Figures 9 and 11).
//!
//! ```text
//! cargo run --release --example connected_components_social
//! ```

use algorithms::{cc_bulk, cc_incremental};
use baselines::{cc_pregel, PregelConfig};
use graphdata::DatasetProfile;
use spinning_core::{ExecutionMode, RunConfig};
use std::time::Instant;

fn main() {
    let graph = DatasetProfile::hollywood().generate(256);
    println!(
        "Hollywood-shaped stand-in: {} vertices, {} edges (avg degree {:.1}), {} components\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.avg_degree(),
        graph.count_components()
    );
    let oracle: Vec<i64> = graph
        .components_oracle()
        .into_iter()
        .map(i64::from)
        .collect();
    let config = RunConfig::new(4);

    let start = Instant::now();
    let bulk = cc_bulk(&graph, &config).expect("bulk CC");
    let bulk_time = start.elapsed();
    assert_eq!(bulk.components, oracle);

    let start = Instant::now();
    let incremental = cc_incremental(&graph, &config).expect("incremental CC");
    let incremental_time = start.elapsed();
    assert_eq!(incremental.components, oracle);

    let start = Instant::now();
    let microstep = config.with_mode(ExecutionMode::Microstep);
    let microstep = cc_incremental(&graph, &microstep).expect("microstep CC");
    let microstep_time = start.elapsed();
    assert_eq!(microstep.components, oracle);

    let start = Instant::now();
    let pregel = cc_pregel(&graph, &PregelConfig::new(4));
    let pregel_time = start.elapsed();
    assert_eq!(
        pregel
            .states
            .iter()
            .map(|&c| i64::from(c))
            .collect::<Vec<_>>(),
        oracle,
        "the Pregel baseline must find the same components"
    );

    println!("{:<36} {:>10} {:>12}", "variant", "iterations", "millis");
    for (name, iterations, time) in [
        (
            "Stratosphere bulk (full recompute)",
            bulk.iterations,
            bulk_time,
        ),
        (
            "Stratosphere incremental (CoGroup)",
            incremental.iterations,
            incremental_time,
        ),
        (
            "Stratosphere microstep (Match)",
            microstep.iterations,
            microstep_time,
        ),
        ("Pregel/Giraph baseline", pregel.supersteps, pregel_time),
    ] {
        println!(
            "{:<36} {:>10} {:>12.1}",
            name,
            iterations,
            time.as_secs_f64() * 1e3
        );
    }

    println!("\nincremental per-superstep effective work (the Figure 2 effect):");
    println!("{}", incremental.stats.to_table());
}
