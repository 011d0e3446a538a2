//! Per-iteration statistics.
//!
//! The paper's evaluation plots per-iteration runtimes, the number of
//! elements in the working set, the number of partial-solution elements
//! inspected and changed, and the number of messages exchanged (Figures 2, 8,
//! 10, 11, 12).  Every iteration runtime in this crate therefore records an
//! [`IterationStats`] per iteration/superstep, which the benchmark harness
//! prints as the corresponding data series.

use dataflow::prelude::ExecutionStats;
use std::time::Duration;

/// Counters for one iteration (bulk) or one superstep (incremental).
///
/// When a workset iteration declares a combine, its candidates are folded
/// before they are serialized.  The paper's counters — `workset_size`,
/// `elements_inspected`, `elements_changed`, `messages_sent` — count
/// *before* the fold, so they read the same with and without one;
/// `messages_shipped` and `messages_delivered` count what the exchange
/// actually moved, *after* it.
#[derive(Debug, Clone, Default)]
pub struct IterationStats {
    /// 1-based iteration / superstep number.
    pub iteration: usize,
    /// Wall-clock time of the iteration.
    pub elapsed: Duration,
    /// Size of the working set consumed in this iteration, in candidates as
    /// emitted, before any fold (for bulk iterations: the size of the
    /// partial solution fed in).
    pub workset_size: usize,
    /// Number of partial-solution elements inspected (groups or records the
    /// update function was invoked on).
    pub elements_inspected: usize,
    /// Number of partial-solution elements that were actually changed (the
    /// size of the applied delta set).
    pub elements_changed: usize,
    /// Records emitted into the next working set ("messages sent"), before
    /// any fold.
    pub messages_sent: usize,
    /// Records serialized for another partition: of the messages sent, how
    /// many crossed partition boundaries — after the fold, when the
    /// candidates combine.
    pub messages_shipped: usize,
    /// Records the superstep exchange delivered into the next working
    /// set's queues, local and shipped, after the fold: `messages_sent`
    /// unless a declared combine folded candidates.  Zero for bulk
    /// iterations.
    pub messages_delivered: usize,
    /// Serialized bytes the superstep exchange (or the backing dataflow
    /// execution) moved to disk as spilled runs under a memory budget.
    pub spilled_bytes: usize,
    /// Number of spilled runs written.
    pub spilled_runs: usize,
    /// Superstep checkpoints persisted while producing this iteration.
    pub checkpoints_written: usize,
    /// Bytes those checkpoints wrote to disk (data files plus manifests).
    pub checkpoint_bytes: usize,
    /// Checkpoint writes that failed.  Such failures are non-fatal — the run
    /// continues on the previous checkpoint — but each one widens the window
    /// the next recovery has to replay, so they must stay observable.
    pub checkpoint_write_failures: usize,
    /// Completed recoveries (checkpoint restores after a failure) performed
    /// before this iteration succeeded.
    pub recoveries: usize,
    /// Failed attempts at this iteration that were retried (each retry that
    /// led to a recovery counts once).
    pub retries: usize,
    /// Queue high-water mark of the exchange, in pages, in every mode: the
    /// maximum sealed pages any outbox writer buffered in memory.  Never
    /// exceeds the configured channel credits when backpressure is on — the
    /// invariant the backpressure smoke tests assert.  In cluster runs this
    /// is the cluster-wide maximum, agreed at the superstep barrier.
    pub queue_high_water: usize,
    /// Statistics of the dataflow execution backing this iteration, if the
    /// iteration ran as a dataflow plan (bulk iterations).
    pub execution: Option<ExecutionStats>,
}

impl IterationStats {
    /// Creates a stats record for the given iteration number.
    pub fn for_iteration(iteration: usize) -> Self {
        IterationStats {
            iteration,
            ..Default::default()
        }
    }

    /// The iteration's wall-clock time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// Aggregated statistics of a whole iterative job.
#[derive(Debug, Clone, Default)]
pub struct IterationRunStats {
    /// Per-iteration counters, in order.
    pub per_iteration: Vec<IterationStats>,
    /// Total wall-clock time of the whole run (including setup such as
    /// building indexes and the initial working set).
    pub total_elapsed: Duration,
}

impl IterationRunStats {
    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.per_iteration.len()
    }

    /// Sum of messages sent over all iterations.
    pub fn total_messages(&self) -> usize {
        self.per_iteration.iter().map(|s| s.messages_sent).sum()
    }

    /// Sum of spilled bytes over all iterations — nonzero proves the run
    /// actually exercised the out-of-core path.
    pub fn total_spilled_bytes(&self) -> usize {
        self.per_iteration.iter().map(|s| s.spilled_bytes).sum()
    }

    /// Sum of spilled runs over all iterations.
    pub fn total_spilled_runs(&self) -> usize {
        self.per_iteration.iter().map(|s| s.spilled_runs).sum()
    }

    /// Sum of completed recoveries over all iterations — nonzero proves the
    /// run actually survived injected (or real) failures.
    pub fn total_recoveries(&self) -> usize {
        self.per_iteration.iter().map(|s| s.recoveries).sum()
    }

    /// Sum of checkpoints written over all iterations.
    pub fn total_checkpoints_written(&self) -> usize {
        self.per_iteration
            .iter()
            .map(|s| s.checkpoints_written)
            .sum()
    }

    /// Sum of checkpoint bytes over all iterations.
    pub fn total_checkpoint_bytes(&self) -> usize {
        self.per_iteration.iter().map(|s| s.checkpoint_bytes).sum()
    }

    /// Sum of failed checkpoint writes over all iterations — nonzero means
    /// recovery windows were silently widened and the checkpoint storage
    /// deserves attention.
    pub fn total_checkpoint_write_failures(&self) -> usize {
        self.per_iteration
            .iter()
            .map(|s| s.checkpoint_write_failures)
            .sum()
    }

    /// Maximum queue high-water mark over all iterations — compared against
    /// the configured channel credits to prove backpressure held.
    pub fn max_queue_high_water(&self) -> usize {
        self.per_iteration
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Renders the per-iteration series as a text table (one row per
    /// iteration), the format used by the figure-reproduction binaries.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "iter", "millis", "workset", "inspected", "changed", "messages"
        ));
        for s in &self.per_iteration {
            out.push_str(&format!(
                "{:>5} {:>12.2} {:>12} {:>12} {:>12} {:>12}\n",
                s.iteration,
                s.millis(),
                s.workset_size,
                s.elements_inspected,
                s.elements_changed,
                s.messages_sent
            ));
        }
        out.push_str(&format!(
            "total: {:.2} ms, {} iterations, {} messages\n",
            self.total_elapsed.as_secs_f64() * 1e3,
            self.iterations(),
            self.total_messages()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_over_iterations() {
        let mut run = IterationRunStats::default();
        for i in 1..=3 {
            run.per_iteration.push(IterationStats {
                iteration: i,
                messages_sent: 10 * i,
                elements_changed: i,
                ..Default::default()
            });
        }
        assert_eq!(run.iterations(), 3);
        assert_eq!(run.total_messages(), 60);
    }

    #[test]
    fn table_contains_one_row_per_iteration() {
        let mut run = IterationRunStats::default();
        run.per_iteration.push(IterationStats::for_iteration(1));
        run.per_iteration.push(IterationStats::for_iteration(2));
        let table = run.to_table();
        assert_eq!(table.lines().count(), 1 + 2 + 1);
    }

    #[test]
    fn millis_reflects_duration() {
        let s = IterationStats {
            elapsed: Duration::from_millis(250),
            ..Default::default()
        };
        assert!((s.millis() - 250.0).abs() < 1e-9);
    }
}
