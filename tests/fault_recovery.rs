//! Fault-injection and recovery equivalence: a run killed by a deterministic
//! injected fault and recovered from a superstep checkpoint must produce the
//! same result as the uninterrupted run — byte-identical per-vertex output —
//! across execution modes (batch incremental, microstep, bulk).
//!
//! Every oracle/baseline run pins `FaultInjector::disabled()` explicitly so
//! the CI fault-smoke job (which enables environment-driven injection via
//! `SPINNING_FAULT_RATE`) cannot corrupt the reference values.  Checkpoint
//! directories live under the spill directory, so the CI leak assertion also
//! proves recovered runs clean up after themselves.

use algorithms::{cc_bulk, cc_incremental, oracles, sssp};
use dataflow::prelude::{DataflowError, ExecConfig, FaultInjector, FaultSite, MemoryBudget};
use graphdata::{chain, DatasetProfile, Graph};
use spinning_core::prelude::{CheckpointPolicy, ExecutionMode, RunConfig};
use std::path::PathBuf;
use std::time::Duration;

/// A small Webbase-style long-tail graph: ~1.8k vertices with a long chain,
/// so incremental runs execute ~180 supersteps — plenty of kill points.
fn webbase() -> Graph {
    DatasetProfile::webbase().generate(65_536)
}

fn cc_oracle(graph: &Graph) -> Vec<i64> {
    graph
        .components_oracle()
        .into_iter()
        .map(i64::from)
        .collect()
}

/// A per-test checkpoint root under the spill directory (covered by the CI
/// leak assertion) that concurrent test threads cannot collide on.
fn ckpt_dir(name: &str) -> PathBuf {
    dataflow::spill::default_spill_dir().join(format!("fault-{name}-{}", std::process::id()))
}

/// A fast-recovery policy: checkpoint every `interval` supersteps with a
/// microsecond-scale backoff so tests don't sleep.
fn policy(interval: usize, dir: &PathBuf) -> CheckpointPolicy {
    CheckpointPolicy::new(interval, dir).with_backoff(Duration::from_micros(50))
}

#[test]
fn worker_panic_without_checkpointing_surfaces_as_typed_error() {
    let graph = webbase();
    let config =
        RunConfig::new(4).with_fault(FaultInjector::failing_nth(FaultSite::WorkerPanic, 9));
    let err = cc_incremental(&graph, &config).expect_err("injected panic must fail the run");
    match err {
        DataflowError::WorkerPanic {
            operator,
            superstep,
            message,
        } => {
            assert_eq!(operator, "workset-superstep");
            assert!(superstep >= 1);
            assert!(message.contains("injected"), "message: {message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn spill_read_fault_without_checkpointing_surfaces_as_typed_error() {
    // A tiny budget forces the superstep exchange to spill; the first
    // spilled-run read then faults.
    let graph = webbase();
    let config = RunConfig::new(4)
        .with_memory_budget(MemoryBudget::bytes(1024))
        .with_fault(FaultInjector::failing_nth(FaultSite::SpillRead, 0));
    let err = cc_incremental(&graph, &config).expect_err("injected read fault must fail the run");
    match err {
        DataflowError::SpillIo(message) => {
            assert!(message.contains("injected"), "message: {message}")
        }
        other => panic!("expected SpillIo, got {other:?}"),
    }
}

#[test]
fn bulk_spill_read_fault_on_executor_path_surfaces_as_typed_error() {
    // The bulk path runs through the dataflow executor (not the workset
    // loop), so this pins the executor's own spilled-run reads: a tiny
    // budget forces every exchange to spill and the first read then faults.
    // Before the executor threaded `Result` through its read paths this
    // aborted the whole process via `.expect(...)`.
    let graph = webbase();
    let fault = FaultInjector::failing_nth(FaultSite::SpillRead, 0);
    let config = RunConfig::new(4)
        .with_memory_budget(MemoryBudget::bytes(1024))
        .with_fault(fault.clone());
    let err = cc_bulk(&graph, &config).expect_err("injected read fault must fail the run");
    match err {
        DataflowError::SpillIo(message) => {
            assert!(message.contains("injected"), "message: {message}")
        }
        other => panic!("expected SpillIo, got {other:?}"),
    }
    assert!(fault.injected_total() > 0, "the fault must actually fire");
}

#[test]
fn cc_recovers_byte_identically_across_modes_and_routings() {
    let graph = webbase();
    let oracle = cc_oracle(&graph);
    for (mode, name) in [
        (ExecutionMode::BatchIncremental, "incremental"),
        (ExecutionMode::Microstep, "microstep"),
    ] {
        let base = RunConfig::new(4)
            .with_mode(mode)
            .with_fault(FaultInjector::disabled());
        let baseline = cc_incremental(&graph, &base).unwrap();
        assert_eq!(baseline.components, oracle, "{name}");

        let dir = ckpt_dir(&format!("cc-{name}"));
        let fault = FaultInjector::failing_nth(FaultSite::WorkerPanic, 21);
        let config = RunConfig::new(4)
            .with_mode(mode)
            .with_checkpoint(policy(3, &dir))
            .with_fault(fault.clone());
        let recovered = cc_incremental(&graph, &config).unwrap();
        assert_eq!(
            recovered.components, baseline.components,
            "recovered run diverged ({name})"
        );
        assert!(recovered.converged);
        assert!(
            fault.injected_total() > 0,
            "the fault must actually fire ({name})"
        );
        assert!(
            recovered.stats.total_recoveries() >= 1,
            "the run must have recovered ({name})"
        );
        assert!(recovered.stats.total_checkpoints_written() >= 1);
        assert!(recovered.stats.total_checkpoint_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_at_many_kill_points_matches_the_uninterrupted_run() {
    // Property-style sweep: kill the run at a spread of worker-panic events
    // (each event maps to one partition task of one superstep), recover, and
    // demand the identical fixpoint AND the identical superstep trajectory:
    // every row's counters, the working set before the combine folded it
    // (a restored cut carries that count) and the delivered candidates
    // after.
    let rows = |result: &algorithms::ComponentsResult| -> Vec<[usize; 6]> {
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
    let graph = webbase();
    let base = RunConfig::new(2).with_fault(FaultInjector::disabled());
    let baseline = cc_incremental(&graph, &base).unwrap();
    assert_eq!(baseline.components, cc_oracle(&graph));
    for kill_event in [0, 1, 7, 33, 101, 250] {
        let dir = ckpt_dir(&format!("kill-{kill_event}"));
        let fault = FaultInjector::failing_nth(FaultSite::WorkerPanic, kill_event);
        let config = RunConfig::new(2)
            .with_checkpoint(policy(4, &dir))
            .with_fault(fault.clone());
        let recovered = cc_incremental(&graph, &config).unwrap();
        assert_eq!(
            recovered.components, baseline.components,
            "kill at event {kill_event} diverged"
        );
        assert_eq!(
            recovered.iterations, baseline.iterations,
            "recovery changed the superstep count (kill at event {kill_event})"
        );
        assert_eq!(
            rows(&recovered),
            rows(&baseline),
            "recovery changed the superstep rows (kill at event {kill_event})"
        );
        assert!(fault.injected_total() > 0, "event {kill_event} in range");
        assert!(recovered.stats.total_recoveries() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sssp_recovers_in_every_superstep_mode_and_routing() {
    let graph = webbase();
    let source = 0;
    let oracle = oracles::sssp(&graph, source);
    for mode in [ExecutionMode::BatchIncremental, ExecutionMode::Microstep] {
        let dir = ckpt_dir(&format!("sssp-{mode:?}"));
        // SSSP from this source converges in ~4 supersteps at
        // parallelism 3 (12 worker events); event 5 kills superstep 2.
        let fault = FaultInjector::failing_nth(FaultSite::WorkerPanic, 5);
        let config = RunConfig::new(3)
            .with_mode(mode)
            .with_checkpoint(policy(2, &dir))
            .with_exec(ExecConfig::new().with_fault(fault.clone()));
        let result = sssp(&graph, source, &config).unwrap();
        assert_eq!(result.distances, oracle, "{mode:?}");
        assert!(result.converged);
        assert!(fault.injected_total() > 0, "{mode:?}");
        assert!(result.stats.total_recoveries() >= 1, "{mode:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bulk_cc_recovers_at_iteration_boundaries() {
    let graph = webbase();
    let baseline = cc_bulk(
        &graph,
        &RunConfig::new(2).with_fault(FaultInjector::disabled()),
    )
    .unwrap();
    assert_eq!(baseline.components, cc_oracle(&graph));

    let dir = ckpt_dir("bulk-cc");
    let fault = FaultInjector::failing_nth(FaultSite::WorkerPanic, 5);
    let config = RunConfig::new(2)
        .with_checkpoint(policy(2, &dir))
        .with_fault(fault.clone());
    let recovered = cc_bulk(&graph, &config).unwrap();
    assert_eq!(recovered.components, baseline.components);
    assert_eq!(recovered.iterations, baseline.iterations);
    assert!(recovered.converged);
    assert!(fault.injected_total() > 0);
    assert!(recovered.stats.total_recoveries() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_exhaustion_returns_recovery_exhausted() {
    // Every superstep attempt panics, so the retry budget drains and the run
    // fails with the typed exhaustion error wrapping the last failure.
    let graph = chain(32);
    let dir = ckpt_dir("exhaustion");
    let fault = FaultInjector::disabled().with_rate(FaultSite::WorkerPanic, 1.0);
    let config = RunConfig::new(2)
        .with_checkpoint(policy(1, &dir).with_max_retries(2))
        .with_fault(fault);
    let err = cc_incremental(&graph, &config).expect_err("nothing can make progress");
    match err {
        DataflowError::RecoveryExhausted {
            superstep,
            retries,
            last,
        } => {
            assert_eq!(superstep, 1);
            assert_eq!(retries, 2);
            assert!(
                matches!(*last, DataflowError::WorkerPanic { .. }),
                "last error: {last:?}"
            );
        }
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_read_fault_recovers_under_a_memory_budget() {
    // Combine out-of-core execution with injection on the spilled-run reads:
    // the fault hits while consuming a spilled candidate run, and recovery
    // replays from the checkpoint, re-spilling along the way.
    let graph = webbase();
    let base = RunConfig::new(4)
        .with_memory_budget(MemoryBudget::bytes(1024))
        .with_fault(FaultInjector::disabled());
    let baseline = cc_incremental(&graph, &base).unwrap();
    assert!(
        baseline.stats.total_spilled_bytes() > 0,
        "budget must spill"
    );

    let dir = ckpt_dir("spill-read");
    let fault = FaultInjector::failing_nth(FaultSite::SpillRead, 2);
    let config = RunConfig::new(4)
        .with_memory_budget(MemoryBudget::bytes(1024))
        .with_checkpoint(policy(3, &dir))
        .with_fault(fault.clone());
    let recovered = cc_incremental(&graph, &config).unwrap();
    assert_eq!(recovered.components, baseline.components);
    assert!(recovered.converged);
    assert!(fault.injected_total() > 0);
    assert!(recovered.stats.total_recoveries() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI fault-smoke entry point: only active when `SPINNING_FAULT_RATE`
/// enables environment-driven injection (with `SPINNING_FAULT_SEED` pinning
/// the event sequence).  Runs a long incremental job with checkpointing under
/// whatever faults the environment injects and demands full convergence, a
/// nonzero recovery count, and (via the job's leak assertion) no files left
/// behind.
#[test]
fn env_driven_fault_smoke() {
    if !ExecConfig::new().fault.is_enabled() {
        return;
    }
    let graph = webbase();
    let baseline = cc_incremental(
        &graph,
        &RunConfig::new(4).with_fault(FaultInjector::disabled()),
    )
    .unwrap();
    let dir = ckpt_dir("env-smoke");
    // `RunConfig::new` picks the injector up from the environment
    // (through `ExecConfig::new`);
    // the budget makes the spill sites reachable too.
    let config = RunConfig::new(4)
        .with_memory_budget(MemoryBudget::from_env().unwrap_or(MemoryBudget::bytes(1024)))
        .with_checkpoint(policy(2, &dir).with_backoff(Duration::from_micros(100)));
    let result = cc_incremental(&graph, &config).unwrap();
    assert_eq!(result.components, baseline.components);
    assert!(result.converged);
    assert!(
        result.stats.total_recoveries() > 0,
        "the seeded CI injection must actually exercise recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded connection drop in a two-process TCP cluster must surface as a
/// typed transport error on both sides — never a hang.  Worker 0 carries a
/// `FaultSite::ConnDrop` injector that tears its connections down on the
/// third outbound frame; worker 1 is fault-free and observes the loss
/// through its sockets.
#[test]
fn injected_connection_drop_fails_both_cluster_workers_with_typed_errors() {
    use algorithms::cc_workset_records;
    use dataflow::prelude::{ClusterSpec, TransportHandle};
    use graphdata::{rmat, RmatParams};

    // Bind-then-drop: a coordinator port that stays free for the rendezvous.
    let coordinator = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe listener")
        .local_addr()
        .expect("probe address")
        .to_string();
    let graph = rmat(300, 1200, RmatParams::default(), 23).symmetrize();
    let errors = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|index| {
                let coordinator = coordinator.clone();
                let graph = &graph;
                scope.spawn(move || {
                    let fault = if index == 0 {
                        FaultInjector::failing_nth(FaultSite::ConnDrop, 3)
                    } else {
                        FaultInjector::disabled()
                    };
                    let spec = ClusterSpec::new(2, index).unwrap();
                    let transport = TransportHandle::tcp_cluster(spec, &coordinator, &fault)
                        .expect("cluster rendezvous");
                    // Pin compute faults off so the connection drop is the
                    // only injected failure even under the CI fault matrix.
                    let config = RunConfig::new(4)
                        .with_fault(FaultInjector::disabled())
                        .with_transport(transport);
                    cc_workset_records(graph, &config, ExecutionMode::BatchIncremental)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect::<Vec<_>>()
    });
    for (index, result) in errors.into_iter().enumerate() {
        let err = result.expect_err("the dropped connection must fail the run");
        assert!(
            matches!(
                err,
                DataflowError::PeerLost { .. }
                    | DataflowError::TornStream { .. }
                    | DataflowError::CommTimeout(_)
            ),
            "worker {index}: expected a typed transport error, got {err:?}"
        );
    }
}
