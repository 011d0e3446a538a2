//! Localhost mini-cluster harness: three `spinning-worker` processes over
//! TCP must converge Connected Components and SSSP byte-identically —
//! superstep for superstep — to the same binary run single-process.
//!
//! Each scenario spawns the workers with a watchdog that kills the cluster
//! after a deadline, so a distributed deadlock fails the test as a timeout
//! instead of hanging CI.  After every run the scratch directory must hold
//! exactly the files the workers were asked to write — a leak check for
//! stray temporaries left behind by the transport or the spill layer.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const PROCESSES: usize = 3;
const PARALLELISM: usize = 6;
const WATCHDOG: Duration = Duration::from_secs(120);

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

/// A fresh scratch directory per scenario, removed by the caller after the
/// leak check.
fn scratch_dir(label: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "spinning-mini-cluster-{}-{label}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Waits for every child before `deadline`; on timeout kills the whole
/// cluster and panics — the distributed-deadlock detector.
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
                    panic!("mini-cluster deadlock: worker still running at the watchdog deadline");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
    assert!(failures.is_empty(), "workers failed: {failures:?}");
}

/// Runs `algo` once single-process (the oracle) and once as a 3-process TCP
/// cluster in `dir`, then asserts the concatenated cluster solution and
/// every worker's trace are byte-identical to the oracle's.
fn assert_cluster_matches_oracle(dir: &Path, algo: &str, extra: &[&str]) {
    let graph = ["--vertices", "600", "--edges", "2400", "--seed", "17"];
    let oracle_out = dir.join("oracle.solution");
    let oracle_trace = dir.join("oracle.trace");
    let status = Command::new(worker_binary())
        .args(["--algo", algo, "--parallelism", &PARALLELISM.to_string()])
        .args(graph)
        .args(extra)
        .arg("--out")
        .arg(&oracle_out)
        .arg("--trace")
        .arg(&oracle_trace)
        .status()
        .expect("spawn oracle");
    assert!(status.success(), "oracle run failed: {status}");

    let coordinator = free_coordinator_addr();
    let mut children: Vec<(usize, Child)> = (0..PROCESSES)
        .map(|index| {
            let child = Command::new(worker_binary())
                .args(["--algo", algo, "--parallelism", &PARALLELISM.to_string()])
                .args(graph)
                .args(extra)
                .args(["--processes", &PROCESSES.to_string()])
                .args(["--index", &index.to_string()])
                .args(["--coordinator", &coordinator])
                .arg("--out")
                .arg(dir.join(format!("w{index}.solution")))
                .arg("--trace")
                .arg(dir.join(format!("w{index}.trace")))
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
        "{algo}: cluster solution diverges from the single-process oracle"
    );

    // Every worker's superstep trace must equal the oracle's: the all_gather
    // makes per-superstep statistics globally agreed state.
    let expected_trace = std::fs::read(&oracle_trace).expect("read oracle trace");
    for index in 0..PROCESSES {
        let trace = std::fs::read(dir.join(format!("w{index}.trace"))).expect("read worker trace");
        assert_eq!(
            expected_trace, trace,
            "{algo}: worker {index} trace diverges superstep-for-superstep"
        );
    }
}

/// Asserts the scratch directory holds exactly the files the scenario asked
/// the workers to write — nothing leaked — then removes it.
fn assert_no_leaks_and_cleanup(dir: &Path) {
    let mut expected: Vec<String> = vec!["oracle.solution".into(), "oracle.trace".into()];
    for index in 0..PROCESSES {
        expected.push(format!("w{index}.solution"));
        expected.push(format!("w{index}.trace"));
    }
    expected.sort();
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    assert_eq!(
        expected, found,
        "workers leaked files into the scratch directory"
    );
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn three_process_cluster_matches_the_cc_oracle() {
    let dir = scratch_dir("cc");
    assert_cluster_matches_oracle(&dir, "cc", &[]);
    assert_no_leaks_and_cleanup(&dir);
}

#[test]
fn three_process_cluster_matches_the_sssp_oracle() {
    let dir = scratch_dir("sssp");
    assert_cluster_matches_oracle(&dir, "sssp", &["--source", "5"]);
    assert_no_leaks_and_cleanup(&dir);
}

#[test]
fn three_process_cluster_matches_the_oracle_in_microstep_mode() {
    let dir = scratch_dir("modes");
    assert_cluster_matches_oracle(&dir, "cc", &["--mode", "microstep"]);
    assert_no_leaks_and_cleanup(&dir);
    let dir = scratch_dir("sssp-microstep");
    assert_cluster_matches_oracle(&dir, "sssp", &["--source", "5", "--mode", "microstep"]);
    assert_no_leaks_and_cleanup(&dir);
}
