//! Quickstart: the paper's Figure 1 walkthrough.
//!
//! Runs Connected Components on the 9-vertex sample graph of Figure 1 in all
//! three variants (bulk, batch incremental, microstep) and shows
//! the per-superstep statistics that make the incremental variants cheap:
//! after the first supersteps only the few still-changing vertices are
//! touched.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use algorithms::{cc_bulk, cc_incremental, cc_microstep, ComponentsConfig};
use graphdata::{figure1_expected_components, figure1_graph};

fn main() {
    let graph = figure1_graph();
    println!(
        "Figure 1 sample graph: {} vertices, {} (directed) edges, {} components\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.count_components()
    );

    let config = ComponentsConfig::new(2);
    let expected: Vec<i64> = figure1_expected_components()
        .into_iter()
        .map(i64::from)
        .collect();

    type Variant<'a> = (&'a str, Box<dyn Fn() -> algorithms::ComponentsResult + 'a>);
    let variants: Vec<Variant<'_>> = vec![
        (
            "bulk (FIXPOINT-CC)",
            Box::new(|| cc_bulk(&graph, &config).unwrap()),
        ),
        (
            "incremental (INCR-CC, CoGroup)",
            Box::new(|| cc_incremental(&graph, &config).unwrap()),
        ),
        (
            "microstep (MICRO-CC, Match)",
            Box::new(|| cc_microstep(&graph, &config).unwrap()),
        ),
    ];

    for (name, run) in variants {
        let result = run();
        assert_eq!(
            result.components, expected,
            "{name} disagrees with Figure 1"
        );
        println!(
            "{name}: converged in {} iterations/supersteps",
            result.iterations
        );
        println!("{}", result.stats.to_table());
    }

    println!("final component assignment (vertex -> component):");
    for (vertex, component) in expected.iter().enumerate().skip(1) {
        println!("  {vertex} -> {component}");
    }
}
