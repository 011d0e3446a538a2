//! `spinning-worker` — one process of a localhost mini-cluster.
//!
//! Each worker is one SPMD process of a multi-process workset run: it
//! generates the same deterministic graph as every other worker, connects
//! the TCP transport through a rendezvous coordinator, runs the requested
//! algorithm over the partitions it owns, and writes its owned solution
//! records plus a per-superstep trace to disk.  Concatenating the workers'
//! solution files in index order reproduces the single-process run byte for
//! byte, and every worker's trace is identical to the single-process trace
//! — the property the `mini_cluster` integration test pins.
//!
//! ```text
//! spinning-worker --algo cc --processes 3 --index 1 \
//!     --coordinator 127.0.0.1:4500 --parallelism 6 \
//!     --vertices 600 --edges 2400 --seed 17 \
//!     --out /tmp/w1.solution --trace /tmp/w1.trace
//! ```
//!
//! With `--processes 1` (the default) no coordinator is needed and the
//! worker runs the in-process transport — the oracle configuration.
//! `SPINNING_COORDINATOR`, `SPINNING_PROCESSES` and `SPINNING_INDEX`
//! provide environment fallbacks for the cluster spec.

use algorithms::{cc_workset_records, sssp_records};
use dataflow::prelude::{ClusterSpec, TransportHandle};
use graphdata::{rmat, RmatParams, VertexId};
use spinning_core::prelude::{ExecutionMode, RunConfig, WorksetResult};
use std::io::Write;
use std::process::ExitCode;

/// Command-line / environment configuration of one worker.
struct WorkerArgs {
    algo: String,
    /// Parallelism, mode and superstep bound; the transport is set once the
    /// cluster is connected.
    run: RunConfig,
    processes: usize,
    index: usize,
    coordinator: Option<String>,
    vertices: usize,
    edges: usize,
    seed: u64,
    source: VertexId,
    out: Option<String>,
    trace: Option<String>,
}

fn env_or(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<WorkerArgs, String> {
    let mut args = WorkerArgs {
        algo: String::new(),
        run: RunConfig::new(4),
        processes: match env_or("SPINNING_PROCESSES") {
            Some(v) => parse("SPINNING_PROCESSES", &v)?,
            None => 1,
        },
        index: match env_or("SPINNING_INDEX") {
            Some(v) => parse("SPINNING_INDEX", &v)?,
            None => 0,
        },
        coordinator: env_or("SPINNING_COORDINATOR"),
        vertices: 400,
        edges: 1600,
        seed: 17,
        source: 0,
        out: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--algo" => args.algo = value,
            "--mode" => {
                args.run.mode = match value.as_str() {
                    "batch" => ExecutionMode::BatchIncremental,
                    "microstep" => ExecutionMode::Microstep,
                    other => return Err(format!("unknown mode '{other}' (batch|microstep)")),
                }
            }
            "--parallelism" => args.run.parallelism = parse(&flag, &value)?,
            "--processes" => args.processes = parse(&flag, &value)?,
            "--index" => args.index = parse(&flag, &value)?,
            "--coordinator" => args.coordinator = Some(value),
            "--vertices" => args.vertices = parse(&flag, &value)?,
            "--edges" => args.edges = parse(&flag, &value)?,
            "--seed" => args.seed = parse(&flag, &value)?,
            "--source" => args.source = parse(&flag, &value)?,
            "--max-supersteps" => args.run.max_steps = parse(&flag, &value)?,
            "--out" => args.out = Some(value),
            "--trace" => args.trace = Some(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.algo.is_empty() {
        return Err("--algo is required (cc|sssp)".into());
    }
    if args.processes > 1 && args.coordinator.is_none() {
        return Err("--coordinator (or SPINNING_COORDINATOR) is required for processes > 1".into());
    }
    Ok(args)
}

fn run(args: &WorkerArgs) -> Result<WorksetResult, String> {
    let mut config = args.run.clone();
    if args.processes > 1 {
        let spec = ClusterSpec::new(args.processes, args.index).map_err(|e| e.to_string())?;
        let coordinator = args
            .coordinator
            .as_deref()
            .expect("validated in parse_args");
        config.exec.transport = TransportHandle::tcp_cluster(spec, coordinator, &config.exec.fault)
            .map_err(|e| format!("cluster rendezvous failed: {e}"))?;
    }
    // Every process generates the identical graph from the same seed — the
    // SPMD contract that lets workers share nothing but their sockets.
    let graph = rmat(args.vertices, args.edges, RmatParams::default(), args.seed).symmetrize();
    match args.algo.as_str() {
        "cc" => cc_workset_records(&graph, &config, config.mode).map_err(|e| e.to_string()),
        "sssp" => sssp_records(&graph, args.source, &config).map_err(|e| e.to_string()),
        other => Err(format!("unknown algorithm '{other}' (cc|sssp)")),
    }
}

fn write_outputs(args: &WorkerArgs, result: &WorksetResult) -> std::io::Result<()> {
    if let Some(path) = &args.out {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for record in &result.solution {
            writeln!(out, "{record}")?;
        }
        out.flush()?;
    }
    if let Some(path) = &args.trace {
        // The trace carries cluster-agreed state only (no wall-clock times),
        // so all workers — and the single-process oracle — write identical
        // files.
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "supersteps={} converged={}",
            result.supersteps, result.converged
        )?;
        for stats in &result.stats.per_iteration {
            writeln!(
                out,
                "superstep={} workset={} inspected={} changed={} sent={} shipped={} \
                 delivered={} queue_hw={}",
                stats.iteration,
                stats.workset_size,
                stats.elements_inspected,
                stats.elements_changed,
                stats.messages_sent,
                stats.messages_shipped,
                stats.messages_delivered,
                stats.queue_high_water,
            )?;
        }
        out.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("spinning-worker: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            // End-of-run stats go to stderr so solution and trace files stay
            // clean.  `checkpoint_write_failures` in particular must be
            // visible here: each failed write silently widens the window the
            // next recovery replays.
            eprintln!(
                "spinning-worker[{}/{}]: supersteps={} converged={} messages={} \
                 checkpoints={} checkpoint_write_failures={} recoveries={} queue_high_water={}",
                args.index,
                args.processes,
                result.supersteps,
                result.converged,
                result.stats.total_messages(),
                result.stats.total_checkpoints_written(),
                result.stats.total_checkpoint_write_failures(),
                result.stats.total_recoveries(),
                result.stats.max_queue_high_water(),
            );
            if let Err(error) = write_outputs(&args, &result) {
                eprintln!("spinning-worker: writing outputs failed: {error}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!(
                "spinning-worker[{}/{}]: {message}",
                args.index, args.processes
            );
            ExitCode::FAILURE
        }
    }
}
