//! Backpressure smoke: tight credit pools must bound buffering without
//! changing any result.
//!
//! Three scenarios run Connected Components with `channel_credits = 2` — an
//! expansion-heavy power-law graph where every high-degree vertex fans its
//! label out to thousands of neighbours, so unbounded channels would buffer
//! far more than two records per edge:
//!
//! * the superstep engine in-process, batch-incremental and microstep, where
//!   each outbox writer flushes its sealed pages to a spill run once it
//!   holds `credits` of them;
//! * a 3-process TCP cluster (batch mode) with `SPINNING_CHANNEL_CREDITS=2`
//!   in the workers' *and* the oracle's environment, pinning that the
//!   credit knob leaves solutions and superstep traces byte-identical.
//!
//! Every scenario also checks the queue high-water statistic the engines
//! report — sealed pages per outbox writer, in every mode — stays at or
//! under the credit bound: the paper's bounded-memory claim, observable end
//! to end.

use algorithms::cc_incremental;
use graphdata::{rmat, RmatParams};
use spinning_core::{ExecutionMode, RunConfig};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const CREDITS: usize = 2;
const PARALLELISM: usize = 6;
const PROCESSES: usize = 3;
const WATCHDOG: Duration = Duration::from_secs(120);

fn oracle_components(graph: &graphdata::Graph) -> Vec<i64> {
    graph
        .components_oracle()
        .into_iter()
        .map(i64::from)
        .collect()
}

#[test]
fn tight_credits_bound_superstep_outboxes_without_changing_the_fixpoint() {
    let graph = rmat(600, 2400, RmatParams::default(), 17).symmetrize();
    let expected = oracle_components(&graph);
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        let name = format!("{mode:?}");
        let config = RunConfig::new(PARALLELISM).with_mode(mode);
        let unbounded = cc_incremental(&graph, &config).expect("unbounded CC");
        let bounded = cc_incremental(&graph, &config.with_channel_credits(CREDITS))
            .expect("CC under tight credits");
        assert_eq!(
            bounded.components, expected,
            "{name}: credits changed the fixpoint"
        );
        assert_eq!(
            bounded.iterations, unbounded.iterations,
            "{name}: credits changed the superstep count"
        );
        let high_water = bounded.stats.max_queue_high_water();
        assert!(
            high_water <= CREDITS,
            "{name}: an outbox held {high_water} sealed pages against {CREDITS} page credits"
        );
    }
}

// --- 3-process cluster half (same harness idiom as tests/mini_cluster.rs) ---

fn worker_binary() -> &'static str {
    env!("CARGO_BIN_EXE_spinning-worker")
}

/// Bind-then-drop: the kernel hands out a coordinator port that stays free
/// long enough for the cluster to rendezvous on it.
fn free_coordinator_addr() -> String {
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe listener")
        .local_addr()
        .expect("probe address");
    addr.to_string()
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spinning-backpressure-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Waits for every child before `deadline`; on timeout kills the whole
/// cluster and panics — with two credits per edge a flow-control bug shows
/// up here as a distributed deadlock.
fn wait_all(children: &mut [(usize, Child)], deadline: Instant) {
    let mut failures = Vec::new();
    for (index, child) in children.iter_mut() {
        loop {
            match child.try_wait().expect("poll worker") {
                Some(status) if status.success() => break,
                Some(status) => {
                    failures.push(format!("worker {index} exited with {status}"));
                    break;
                }
                None if Instant::now() >= deadline => {
                    for (_, child) in children.iter_mut() {
                        let _ = child.kill();
                    }
                    panic!("backpressure deadlock: worker still running at the watchdog deadline");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
    assert!(failures.is_empty(), "workers failed: {failures:?}");
}

/// Every `queue_hw=` value in a trace must respect the credit bound.
fn assert_trace_respects_credits(trace: &Path) {
    let text = std::fs::read_to_string(trace).expect("read trace");
    let mut seen = 0usize;
    for line in text.lines() {
        let Some(raw) = line.split("queue_hw=").nth(1) else {
            continue;
        };
        let high_water: usize = raw
            .split_whitespace()
            .next()
            .expect("queue_hw value")
            .parse()
            .expect("queue_hw parses");
        assert!(
            high_water <= CREDITS,
            "{}: queue_hw={high_water} exceeds {CREDITS} credits in '{line}'",
            trace.display()
        );
        seen += 1;
    }
    assert!(seen > 0, "{}: no queue_hw entries", trace.display());
}

#[test]
fn three_process_cluster_with_tight_credits_matches_the_oracle() {
    let dir = scratch_dir();
    let graph = ["--vertices", "600", "--edges", "2400", "--seed", "17"];

    // The oracle gets the same credit environment as the cluster: the queue
    // high-water is part of the trace, and the trace must stay byte-equal.
    let oracle_out = dir.join("oracle.solution");
    let oracle_trace = dir.join("oracle.trace");
    let status = Command::new(worker_binary())
        .args(["--algo", "cc", "--parallelism", &PARALLELISM.to_string()])
        .args(graph)
        .arg("--out")
        .arg(&oracle_out)
        .arg("--trace")
        .arg(&oracle_trace)
        .env("SPINNING_CHANNEL_CREDITS", CREDITS.to_string())
        .status()
        .expect("spawn oracle");
    assert!(status.success(), "oracle run failed: {status}");

    let coordinator = free_coordinator_addr();
    let mut children: Vec<(usize, Child)> = (0..PROCESSES)
        .map(|index| {
            let child = Command::new(worker_binary())
                .args(["--algo", "cc", "--parallelism", &PARALLELISM.to_string()])
                .args(graph)
                .args(["--processes", &PROCESSES.to_string()])
                .args(["--index", &index.to_string()])
                .args(["--coordinator", &coordinator])
                .arg("--out")
                .arg(dir.join(format!("w{index}.solution")))
                .arg("--trace")
                .arg(dir.join(format!("w{index}.trace")))
                .env("SPINNING_CHANNEL_CREDITS", CREDITS.to_string())
                // Keep a genuine comm hang well inside the watchdog budget.
                .env("SPINNING_COMM_TIMEOUT_SECS", "60")
                .spawn()
                .expect("spawn worker");
            (index, child)
        })
        .collect();
    wait_all(&mut children, Instant::now() + WATCHDOG);

    // Concatenating the workers' owned solution blocks in index order must
    // reproduce the oracle's record stream byte for byte.
    let oracle_solution = std::fs::read(&oracle_out).expect("read oracle solution");
    let mut cluster_solution = Vec::new();
    for index in 0..PROCESSES {
        let part =
            std::fs::read(dir.join(format!("w{index}.solution"))).expect("read worker solution");
        cluster_solution.extend_from_slice(&part);
    }
    assert_eq!(
        oracle_solution, cluster_solution,
        "tight credits made the cluster solution diverge from the oracle"
    );

    // Every worker's trace must equal the oracle's — the queue high-water in
    // it is cluster-agreed state — and stay under the credit bound.
    let expected_trace = std::fs::read(&oracle_trace).expect("read oracle trace");
    assert_trace_respects_credits(&oracle_trace);
    for index in 0..PROCESSES {
        let path = dir.join(format!("w{index}.trace"));
        let trace = std::fs::read(&path).expect("read worker trace");
        assert_eq!(
            expected_trace, trace,
            "worker {index} trace diverges under tight credits"
        );
        assert_trace_respects_credits(&path);
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
