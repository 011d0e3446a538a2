//! What the benchmark runs and what it reports: the five workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer metrics
//! with the end-to-end metric each one is predicted to move.
//!
//! These tables are the single source of the names: `benchmark spec` prints
//! the repository's `BENCHMARK.json` from them, and a unit test pins the
//! tracked file to that output.

use crate::json::Json;

/// Worker partitions of every job.  Fixed at 2: the measuring container has
/// two cores, and a parallelism above `nproc` measures the OS scheduler (the
/// older harnesses' `PARALLELISM = 8` drifted 274 -> 305 ms on identical
/// code).  Not overridable, so two result files are always comparable.
pub const PARALLELISM: usize = 2;

/// Default measuring time of one run in seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Downscale factor of the `--smoke` runs the unit tests use.
pub const SMOKE_SCALE: u64 = 65_536;

/// PageRank iterations of `pagerank-bulk`.
pub const PAGERANK_ITERATIONS: usize = 10;

/// The paper dataset profile a workload's graph is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Twitter,
    Webbase,
    Wikipedia,
}

/// The iterative algorithm a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Batch-incremental Connected Components (workset driver).
    Components,
    /// Bulk PageRank with the optimizer-chosen plan (bulk driver, executor).
    PageRank,
}

/// How the job is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One process, unlimited memory.
    InProcess,
    /// One process, 64 KiB exchange budget and 2 channel credits.
    Spill,
    /// Two SPMD workers x one partition joined over loopback TCP.
    Tcp,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    /// The graph has 1/`scale` of the paper graph's vertices.
    pub scale: u64,
    pub algorithm: Algorithm,
    pub deployment: Deployment,
}

/// The scales are sized so that one repetition (reference run plus engine
/// job) stays under about a second on two cores: a 15 s run then holds
/// twenty or more repetitions behind every median.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cc-dense",
        why: "Huge worksets, 4 or 5 supersteps: user function, page serialization, routing, exchange and solution-set merge do the work; per-superstep fixed cost is negligible.",
        dataset: Dataset::Twitter,
        scale: 4096,
        algorithm: Algorithm::Components,
        deployment: Deployment::InProcess,
    },
    Workload {
        name: "cc-longtail",
        why: "About 1400 near-empty supersteps: pool dispatch, barrier and superstep control dominate, the data path is idle - the mirror image of cc-dense.",
        dataset: Dataset::Webbase,
        scale: 8192,
        algorithm: Algorithm::Components,
        deployment: Deployment::InProcess,
    },
    Workload {
        name: "pagerank-bulk",
        why: "Only workload through optimizer, bulk driver and batch executor (chain fusion, paged exchange, Match/Reduce kernels, constant-path cache); workset driver idle.",
        dataset: Dataset::Wikipedia,
        scale: 2048,
        algorithm: Algorithm::PageRank,
        deployment: Deployment::InProcess,
    },
    Workload {
        name: "cc-dense-spill",
        why: "cc-dense's graph under a 64 KiB budget and 2 credits: every sealed page goes to disk and back, so an in-memory gain that costs the out-of-core path shows here.",
        dataset: Dataset::Twitter,
        scale: 4096,
        algorithm: Algorithm::Components,
        deployment: Deployment::Spill,
    },
    Workload {
        name: "cc-dense-tcp",
        why: "cc-dense's graph as 2 workers x 1 partition over loopback TCP: framing, CRC-32 and round windows; same partition count as cc-dense, so the difference is the wire.",
        dataset: Dataset::Twitter,
        scale: 4096,
        algorithm: Algorithm::Components,
        deployment: Deployment::Tcp,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bound of everything timed.  The issue asked for 10 %; the measuring
/// container does not repeat that well.  Ten runs of one workload on ten
/// seeds spread (interquartile range over median) by 4 to 8 % on a quiet
/// quarter of an hour and by 15 % on a bad one, because the host slows
/// memory-bound work by up to half for minutes at a time, whatever statistic
/// a run reports.  A bound has to sit well above the spread or it rejects
/// changes for the weather, so it is the contract's widest.
const TIMED_BOUND: f64 = 0.25;

/// `failed_share` of the issue's table is not listed: it is 0 on a healthy
/// run and the contract wants metrics that are never 0, so failures are
/// reported through the result line's `attempted` / `failed` instead.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("setup_s", "s", Better::Lower, TIMED_BOUND),
    end_to_end("job_s", "s", Better::Lower, TIMED_BOUND),
    end_to_end("cpu_s", "s", Better::Lower, TIMED_BOUND),
    end_to_end("edges_per_s", "edges/s", Better::Higher, TIMED_BOUND),
    // Memory repeats better than time, but not to a tenth: what the
    // allocator retains between jobs moves the peak by up to 7 %.
    end_to_end("peak_rss_mib", "MiB", Better::Lower, 0.20),
    end_to_end("vs_pregel", "ratio", Better::Higher, TIMED_BOUND),
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Probe: the benchmark times calls into the layer's public functions on
    /// the workload's own data.
    Probe,
    /// Count read from the public stats structs of the traced job; repeats
    /// exactly for a given seed.
    Count,
    /// Read from the stats structs of the traced job, but dependent on how
    /// its threads were scheduled: durations and in-flight high-water marks.
    Timing,
    /// Derived from other metrics.
    Derived,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric and workload this number is predicted to move;
    /// everywhere else the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Derived, Probe, Timing};

const DENSE: &str = "job_s, cpu_s on cc-dense";
const LONGTAIL: &str = "job_s on cc-longtail";
const BULK: &str = "job_s, cpu_s on pagerank-bulk";
const SPILL: &str = "job_s on cc-dense-spill";
const TCP: &str = "job_s on cc-dense-tcp";
const SETUP: &str = "setup_s on every workload";

pub const PER_LAYER: [PerLayer; 57] = [
    layer("pool.dispatch_us", "us", Lower, Probe, LONGTAIL),
    layer(
        "page.write_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "job_s, cpu_s on cc-dense, pagerank-bulk",
    ),
    layer(
        "page.read_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "job_s, cpu_s on cc-dense, pagerank-bulk",
    ),
    layer(
        "page.bytes_per_rec",
        "bytes",
        Lower,
        Derived,
        "peak_rss_mib on cc-dense",
    ),
    layer("route.hash_ns_per_rec", "ns", Lower, Probe, DENSE),
    layer(
        "route.range_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "none today: no workload routes by range",
    ),
    layer("route.partition_skew", "ratio", Lower, Derived, DENSE),
    layer(
        "credit.handoff_ns_per_page",
        "ns",
        Lower,
        Probe,
        "job_s on pagerank-bulk (fused chains)",
    ),
    layer(
        "credit.queue_high_water",
        "count",
        Lower,
        Count,
        "peak_rss_mib on cc-dense-spill",
    ),
    layer("spill.write_mib_s", "MiB/s", Higher, Probe, SPILL),
    layer("spill.read_mib_s", "MiB/s", Higher, Probe, SPILL),
    layer("spill.merge_ns_per_rec", "ns", Lower, Probe, SPILL),
    layer("spill.bytes", "bytes", Lower, Count, SPILL),
    layer("spill.runs", "count", Lower, Count, SPILL),
    layer(
        "spill.bytes_per_shipped_byte",
        "ratio",
        Lower,
        Derived,
        SPILL,
    ),
    layer("comm.local_round_us", "us", Lower, Probe, LONGTAIL),
    layer("comm.tcp_round_us", "us", Lower, Probe, TCP),
    layer("comm.local_mib_s", "MiB/s", Higher, Probe, DENSE),
    layer("comm.tcp_mib_s", "MiB/s", Higher, Probe, TCP),
    layer(
        "comm.shipped_records",
        "count",
        Lower,
        Count,
        "job_s on cc-dense, cc-dense-tcp",
    ),
    layer(
        "comm.shipped_share",
        "share",
        Lower,
        Derived,
        "job_s on cc-dense, cc-dense-tcp",
    ),
    layer(
        "comm.rendezvous_s",
        "s",
        Lower,
        Probe,
        "setup_s on cc-dense-tcp",
    ),
    layer("exec.step_ms", "ms", Lower, Probe, BULK),
    layer("exec.match_busy_s", "s", Lower, Timing, BULK),
    layer("exec.reduce_busy_s", "s", Lower, Timing, BULK),
    layer(
        "exec.map_busy_s",
        "s",
        Lower,
        Timing,
        "none today: the PageRank step has no Map",
    ),
    layer("exec.shipped_bytes", "bytes", Lower, Count, BULK),
    layer("exec.shipped_pages", "count", Lower, Count, BULK),
    layer("exec.local_records", "count", Higher, Count, BULK),
    layer("exec.cache_hits", "count", Higher, Count, BULK),
    layer("exec.chained_operators", "count", Higher, Count, BULK),
    layer(
        "exec.peak_chain_pages",
        "count",
        Lower,
        Timing,
        "peak_rss_mib on pagerank-bulk",
    ),
    layer(
        "optimizer.optimize_ms",
        "ms",
        Lower,
        Probe,
        "bulk.first_iter_ms, then job_s on pagerank-bulk",
    ),
    layer(
        "optimizer.chosen_ship",
        "count",
        Higher,
        Count,
        "exec.shipped_bytes, then job_s on pagerank-bulk",
    ),
    layer(
        "solution_set.build_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "job_s, peak_rss_mib on cc-dense",
    ),
    layer(
        "solution_set.merge_ns_per_rec",
        "ns",
        Lower,
        Probe,
        "job_s, peak_rss_mib on cc-dense",
    ),
    layer("solution_set.lookup_ns", "ns", Lower, Probe, DENSE),
    layer("workset.supersteps", "count", Lower, Count, LONGTAIL),
    layer("workset.messages_sent", "count", Lower, Count, DENSE),
    layer("workset.inspected", "count", Lower, Count, DENSE),
    layer("workset.changed", "count", Lower, Count, DENSE),
    layer("workset.useful_ratio", "ratio", Higher, Derived, DENSE),
    layer("workset.head_s", "s", Lower, Timing, "job_s on cc-dense"),
    layer("workset.tail_mean_us", "us", Lower, Timing, LONGTAIL),
    layer("workset.superstep_p99_us", "us", Lower, Timing, LONGTAIL),
    layer(
        "workset.fixed_cost_share",
        "share",
        Lower,
        Derived,
        LONGTAIL,
    ),
    layer("bulk.iterations", "count", Lower, Count, BULK),
    layer("bulk.first_iter_ms", "ms", Lower, Timing, BULK),
    layer("bulk.steady_iter_ms", "ms", Lower, Timing, BULK),
    layer("bulk.driver_overhead_ms", "ms", Lower, Derived, BULK),
    layer(
        "checkpoint.write_ms",
        "ms",
        Lower,
        Probe,
        "none today: no workload checkpoints (known gap)",
    ),
    layer(
        "checkpoint.restore_ms",
        "ms",
        Lower,
        Probe,
        "none today: no workload checkpoints (known gap)",
    ),
    layer("graph.generate_s", "s", Lower, Probe, SETUP),
    layer("algorithms.build_records_s", "s", Lower, Probe, SETUP),
    layer(
        "baselines.pregel_job_s",
        "s",
        Lower,
        Timing,
        "denominator of vs_pregel on every workload",
    ),
    layer(
        "attributed_share",
        "share",
        Higher,
        Derived,
        "none: how much of job_s the probed unit costs explain",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        Derived,
        "none: traced minus untraced job time",
    ),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let text = |s: &str| Json::Str(s.to_owned());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths".into(), Json::Arr(vec![text("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), text(w.name)),
                            ("why".into(), text(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), text(m.name)),
                            ("unit".into(), text(m.unit)),
                            ("better".into(), text(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), text(m.name)),
                            ("unit".into(), text(m.unit)),
                            ("better".into(), text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The workload and metric tables as Markdown, as the README carries them.
pub fn tables() -> String {
    let mut out = String::from("| workload | graph | why |\n|---|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!(
            "| `{}` | {:?} at 1/{} | {} |\n",
            w.name, w.dataset, w.scale, w.why
        ));
    }
    out.push_str("\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | better | source | should move |\n|---|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        let (name, unit, better) = (m.name, m.unit, m.better.as_str());
        out.push_str(&format!(
            "| `{name}` | {unit} | {better} | {:?} | {} |\n",
            m.source, m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// The tracked `BENCHMARK.json` is exactly what `benchmark spec` prints.
    #[test]
    fn tracked_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let tracked = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let tracked = crate::json::parse(&tracked).expect("BENCHMARK.json parses");
        assert_eq!(tracked, benchmark_json());
    }
}
