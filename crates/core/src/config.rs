//! The one run configuration of both iteration operators.
//!
//! A bulk iteration `(G, I, O, T)` and a workset iteration `(Δ, S0, W0)`
//! run under the same settings: how many partitions, which update variant,
//! how many steps at most, whether and where to checkpoint, and the
//! execution settings of every exchange.  The algorithms take a
//! [`RunConfig`] too; only what is particular to one algorithm (PageRank's
//! iteration count and plan, an SSSP source, a tolerance) is passed beside
//! it.

use crate::checkpoint::CheckpointPolicy;
use crate::workset::ExecutionMode;
use dataflow::prelude::{ExecConfig, FaultInjector, MemoryBudget, TransportHandle};

/// The settings of one iteration run, read once when the run starts.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of worker partitions.  A planned bulk iteration plans at this
    /// parallelism; a hand-built physical plan carries its own.
    pub parallelism: usize,
    /// The update variant of a workset iteration: batch-incremental
    /// (`InnerCoGroup`, the default) or microstep (`Match`).  A bulk
    /// iteration has one variant and ignores it.
    pub mode: ExecutionMode,
    /// The one bound on steps — supersteps of a workset iteration,
    /// iterations of a bulk one.  A run cut off by it reports
    /// `converged == false`; a bulk `FixedIterations(n)` runs at most
    /// `min(n, max_steps)` iterations.  Defaults to 100 000.
    pub max_steps: usize,
    /// Step-boundary checkpointing and recovery.  `None` (the default)
    /// disables it: a failed step surfaces as a typed error at once.
    pub checkpoint: Option<CheckpointPolicy>,
    /// The execution settings of every step:
    ///
    /// * the memory budget of each exchange — exceeding it spills sealed
    ///   pages to disk as runs (a workset's batch-incremental candidates
    ///   sorted on the workset key, its microstep candidates unsorted);
    /// * the channel credits — sealed pages per outbox writer;
    /// * the fault injector of the spill, checkpoint and pool-dispatch
    ///   sites;
    /// * the transport.  With a multi-process transport a workset run
    ///   becomes one SPMD worker of a cluster: every process calls
    ///   [`crate::WorksetIteration::run`] with the *same* inputs and
    ///   configuration, keeps only the partitions it owns, and the
    ///   supersteps stay in lockstep through the channel and a
    ///   per-superstep stats barrier.  The bulk driver's executor rejects
    ///   it.
    pub exec: ExecConfig,
}

impl RunConfig {
    /// Batch-incremental, at most 100 000 steps, no checkpointing, and the
    /// execution settings of [`ExecConfig::new`].
    pub fn new(parallelism: usize) -> Self {
        RunConfig {
            parallelism,
            mode: ExecutionMode::BatchIncremental,
            max_steps: 100_000,
            checkpoint: None,
            exec: ExecConfig::new(),
        }
    }

    /// Sets the update variant of a workset iteration.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the step bound.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Enables step-boundary checkpointing under `policy`: a failed step
    /// restores the newest valid checkpoint and retries instead of failing
    /// the run.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Sets the execution settings.
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    // The four shorthands below stay only because `benchmark/src/engine.rs`
    // calls them on `algorithms::ComponentsConfig`; ROADMAP 1(e) deletes
    // them with that alias.  Everything else sets `exec`.

    /// [`ExecConfig::with_memory_budget`] on [`RunConfig::exec`].
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.exec = self.exec.with_memory_budget(budget);
        self
    }

    /// [`ExecConfig::with_fault`] on [`RunConfig::exec`].
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.exec = self.exec.with_fault(fault);
        self
    }

    /// [`ExecConfig::with_transport`] on [`RunConfig::exec`].
    pub fn with_transport(mut self, transport: TransportHandle) -> Self {
        self.exec = self.exec.with_transport(transport);
        self
    }

    /// [`ExecConfig::with_channel_credits`] on [`RunConfig::exec`].
    pub fn with_channel_credits(mut self, credits: usize) -> Self {
        self.exec = self.exec.with_channel_credits(credits);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn every_setter_reaches_its_field() {
        // The transport's channel-group counter is advanced to 3, so the
        // handle that arrives can be told apart from a fresh default one.
        let transport = TransportHandle::local();
        for _ in 0..3 {
            transport.allocate();
        }
        let config = RunConfig::new(3)
            .with_mode(ExecutionMode::Microstep)
            .with_max_steps(17)
            .with_checkpoint(CheckpointPolicy::new(5, "ckpt-dir").with_max_retries(7))
            .with_memory_budget(MemoryBudget::bytes(4096))
            .with_fault(FaultInjector::seeded(11))
            .with_transport(transport)
            .with_channel_credits(2);
        assert_eq!(config.parallelism, 3);
        assert_eq!(config.mode, ExecutionMode::Microstep);
        assert_eq!(config.max_steps, 17);
        let checkpoint = config.checkpoint.expect("checkpoint policy");
        assert_eq!((checkpoint.interval, checkpoint.max_retries), (5, 7));
        assert_eq!(checkpoint.dir, PathBuf::from("ckpt-dir"));
        let exec = &config.exec;
        assert_eq!(exec.memory_budget, MemoryBudget::bytes(4096));
        assert_eq!(
            format!("{:?}", exec.fault),
            format!("{:?}", FaultInjector::seeded(11))
        );
        assert_eq!(exec.transport.allocate(), 3, "the configured transport");
        assert_eq!(exec.channel_credits, Some(2));
    }
}
