//! Execution statistics.
//!
//! The evaluation section of the paper reports per-iteration runtimes and the
//! number of records ("messages") exchanged between parallel instances
//! (Figures 2, 10, 12).  The executor therefore counts, per operator, how many
//! records it consumed and produced, and globally how many records and bytes
//! crossed partition boundaries — the shared-memory stand-in for network
//! traffic in the paper's cluster setup.

use std::time::Duration;

/// Per-operator counters.
#[derive(Debug, Clone, Default)]
pub struct OperatorStats {
    /// Operator name (as given when building the plan).
    pub name: String,
    /// Contract name (Map, Reduce, Match, ...).
    pub contract: String,
    /// Records consumed across all inputs and partitions.
    pub records_in: usize,
    /// Records produced across all partitions.
    pub records_out: usize,
    /// The operator's partition-task time, summed over partitions (so
    /// CPU-time-like, not wall-clock).  Every operator runs as a member of a
    /// segment whose members share one task per partition, so their times
    /// nest: the head (a lone operator is the head of a segment of one) is
    /// charged the whole task — its own local phase *including* every
    /// downstream member's calls, which happen inside the head's emits; each
    /// downstream member is charged only its own end-of-stream work (a Reduce
    /// emitting its groups).  Input exchanges run between tasks and are
    /// charged to no operator, only to [`ExecutionStats::elapsed`]; a source's
    /// row is the time to partition its data.  Self time per member needs
    /// spans inside the engine — ROADMAP item 1.
    pub elapsed: Duration,
}

/// Counters for one plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecutionStats {
    /// Per-operator counters keyed by operator name.
    pub operators: Vec<OperatorStats>,
    /// Records that moved to a different partition than the one that produced
    /// them (hash repartitioning) or were replicated (broadcast).
    pub shipped_records: usize,
    /// Serialized bytes of the shipped records (exact under the binary page
    /// format, see [`crate::page`]).
    pub shipped_bytes: usize,
    /// Sealed record pages moved (or, for broadcast, shared) across
    /// partition boundaries.
    pub shipped_pages: usize,
    /// Serialized bytes the exchanges moved to disk as spilled runs because
    /// a memory budget was exceeded (see [`crate::spill`]).
    pub spilled_bytes: usize,
    /// Number of spilled runs the exchanges wrote.
    pub spilled_runs: usize,
    /// Records that stayed within their partition (forward shipping).
    pub local_records: usize,
    /// Number of input edges served from the loop-invariant cache instead of
    /// being re-shipped.
    pub cache_hits: usize,
    /// Operators that ran as members of fused chains instead of
    /// materializing their forward input (see `crate::exec`).
    pub chained_operators: usize,
    /// Always 0: a fused edge is a function call and holds no page.  The
    /// field remains only because `benchmark/src/engine.rs` reads it; it goes
    /// with the next change to the benchmark (ROADMAP item 4).
    pub peak_chain_pages: usize,
    /// Wall-clock time of the whole plan execution.
    pub elapsed: Duration,
}

impl ExecutionStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total records produced by the operator with the given name (0 if the
    /// operator does not appear).
    pub fn records_out_of(&self, operator_name: &str) -> usize {
        self.operators
            .iter()
            .filter(|o| o.name == operator_name)
            .map(|o| o.records_out)
            .sum()
    }

    /// Renders the statistics as an aligned table for harness output.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12}\n",
            "operator", "records_in", "records_out", "millis"
        ));
        for op in &self.operators {
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>12.2}\n",
                format!("{} [{}]", op.name, op.contract),
                op.records_in,
                op.records_out,
                op.elapsed.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "shipped={} records ({} bytes), spilled={} bytes in {} runs, local={}, \
             cache_hits={}, chained={} ops, elapsed={:.2} ms\n",
            self.shipped_records,
            self.shipped_bytes,
            self.spilled_bytes,
            self.spilled_runs,
            self.local_records,
            self.cache_hits,
            self.chained_operators,
            self.elapsed.as_secs_f64() * 1e3
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(name: &str, records_out: usize) -> ExecutionStats {
        ExecutionStats {
            operators: vec![OperatorStats {
                name: name.into(),
                contract: "Map".into(),
                records_in: records_out,
                records_out,
                elapsed: Duration::from_millis(5),
            }],
            shipped_records: 10,
            shipped_bytes: 100,
            shipped_pages: 2,
            spilled_bytes: 40,
            spilled_runs: 1,
            local_records: 3,
            cache_hits: 1,
            chained_operators: 2,
            peak_chain_pages: 0,
            elapsed: Duration::from_millis(7),
        }
    }

    #[test]
    fn missing_operator_reports_zero() {
        let a = stats_with("scale", 4);
        assert_eq!(a.records_out_of("nope"), 0);
    }

    #[test]
    fn table_rendering_contains_counters() {
        let a = stats_with("scale", 4);
        let table = a.to_table();
        assert!(table.contains("scale [Map]"));
        assert!(table.contains("shipped=10"));
    }
}
