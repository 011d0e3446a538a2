//! The traced run: where the per-layer metrics come from.
//!
//! Three sources (`spec::Source`): *probes* time calls into one layer's
//! public functions on the workload's own first working set; *counts* and
//! *timings* are read from the stats structs of the traced job; the rest is
//! *derived*.  Every step runs inside a span of the run's [`Tracer`].
//!
//! A family of metrics that belongs to a driver the workload does not use
//! (`workset.*`, `solution_set.*`, `checkpoint.*` on PageRank; `bulk.*`,
//! `exec.*`, `optimizer.*` on Connected Components) reads 0 there.

use crate::engine::{self, Counts, JobStats};
use crate::measure::{fastest, median, median_seconds, quantile, timed, try_median_seconds};
use crate::run::{
    check_spill_dir_empty, checked_job, keep_going, new_report, prepare, Options, Report,
};
use crate::spec::{Algorithm, Deployment, PARALLELISM, PER_LAYER};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Records of the working set the probes run on (less if the workload's is
/// smaller): enough pages for stable per-record costs, few enough that all
/// probes together take about two seconds.
const PROBE_RECORDS: usize = 200_000;

/// Untraced/traced job pairs a traced run never goes below.
const MIN_PAIRS: usize = 3;

/// Budget under which `spill_write` gathers pages into sorted runs for the
/// merge probe: eight pages per run.
const SORTED_RUN_BYTES: usize = 256 * 1024;

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced run's job timings in seconds: median untraced job, median
/// of traced minus untraced within pairs, fastest reference run.
struct JobTimes {
    job_s: f64,
    overhead_s: f64,
    pregel_s: f64,
}

/// Per-layer numbers measured by the probes.
#[derive(Default)]
struct Probed {
    values: Vec<(&'static str, f64)>,
}

impl Probed {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub fn per_layer(options: &Options, trace_file: Option<&Path>) -> Result<Report, String> {
    let workload = options.workload;
    let mut tracer = Tracer::new(workload.name);
    let mut report = new_report(options, true);
    let mut probed = Probed::default();

    let (prepared, _) = tracer.span("setup", |_| prepare(options));
    let prepared = prepared?;
    probed.set("graph.generate_s", prepared.generate_s);
    probed.set("algorithms.build_records_s", prepared.build_records_s);
    report.describe_inputs(&prepared);
    let (expected, _) = tracer.span("oracle", |_| {
        engine::oracle(&prepared.inputs.graph, workload.algorithm)
    });

    report.attempted += 1;
    let (warm_up, _) = tracer.span("warm-up", |_| {
        engine::run_baseline(&prepared.inputs.graph, workload.algorithm, &expected)
            .and_then(|()| checked_job(options, &prepared.inputs, &expected))
    });
    if let Err(error) = warm_up {
        report.fail(format!("warm-up: {error}"));
    }

    // Half the time goes to jobs and the rest is left for the probes.  Each
    // repetition is a reference run and a pair of jobs, one untraced and one
    // traced, in alternating order: the overhead of tracing is the median
    // difference within pairs, so neither drift nor order leaks into it.
    let (mut untraced_s, mut pregel_s, mut overhead_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced: Vec<(f64, JobStats)> = Vec::new();
    let started = Instant::now();
    while keep_going(
        options.smoke,
        options.seconds / 2.0,
        started,
        traced.len(),
        MIN_PAIRS,
    ) {
        report.attempted += 1;
        let (baseline, baseline_s) = tracer.span("reference", |_| {
            engine::run_baseline(&prepared.inputs.graph, workload.algorithm, &expected)
        });
        let untraced = || timed(|| checked_job(options, &prepared.inputs, &expected));
        let ((plain, plain_s), (job, job_s)) = if report.attempted.is_multiple_of(2) {
            let first = untraced();
            let second = tracer.span("job", |_| checked_job(options, &prepared.inputs, &expected));
            (first, second)
        } else {
            let first = tracer.span("job", |_| checked_job(options, &prepared.inputs, &expected));
            (untraced(), first)
        };
        match (baseline, plain, job) {
            (Ok(()), Ok(_), Ok(stats)) => {
                pregel_s.push(baseline_s);
                untraced_s.push(plain_s);
                overhead_s.push(job_s - plain_s);
                traced.push((job_s, stats));
            }
            (baseline, plain, job) => {
                let error = baseline
                    .err()
                    .or(plain.err())
                    .or(job.err())
                    .unwrap_or_default();
                report.fail(format!("repetition {}: {error}", report.attempted));
            }
        }
    }
    if traced.is_empty() {
        return Err(format!(
            "no repetition of {} succeeded: {}",
            workload.name,
            report.failures.join("; ")
        ));
    }
    report.repetitions = traced.len();
    // The counts are the benchmark's exact instrument: a change may claim
    // one only if it repeats from job to job.
    let counts: &Counts = &traced[0].1.counts;
    if let Some((_, other)) = traced.iter().find(|(_, stats)| stats.counts != *counts) {
        report.fail(format!(
            "counts differ between jobs of one seed: {counts:?} vs {:?}",
            other.counts
        ));
    }
    let counts = counts.clone();
    let job_s = median(&untraced_s);
    // The representative job for the timings: the one of median duration.
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let typical = traced.swap_remove(traced.len() / 2).1;

    let probes = tracer
        .span("probes", |tracer| {
            run_probes(options, &prepared, tracer, &mut probed)
        })
        .0;
    drop(prepared);
    if let Err(error) = probes {
        report.attempted += 1;
        report.fail(format!("probes: {error}"));
    }
    if let Err(error) = check_spill_dir_empty(options) {
        report.fail(error);
    }

    let times = JobTimes {
        job_s,
        overhead_s: median(&overhead_s),
        pregel_s: fastest(&pregel_s),
    };
    derive(
        options,
        report.vertices,
        &counts,
        &typical,
        times,
        &mut probed,
    );
    report.metrics = PER_LAYER
        .iter()
        .map(|metric| (metric.name, probed.get(metric.name)))
        .collect();
    if let Some(path) = trace_file {
        tracer.write_chrome_trace(path)?;
    }
    Ok(report)
}

/// Times every layer's public functions on the workload's first working set.
fn run_probes(
    options: &Options,
    prepared: &crate::run::Prepared,
    tracer: &mut Tracer,
    probed: &mut Probed,
) -> Result<(), String> {
    let workload = options.workload;
    let reps = |full: usize| options.repetitions(full);
    let rounds = if options.smoke { 10 } else { 1000 };
    let records = engine::working_set(&prepared.records, PROBE_RECORDS);
    let n = records.len() as f64;
    let probe_dir = options.scratch.join("probe");
    std::fs::create_dir_all(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))?;

    tracer.span("probe:pool", |_| {
        let dispatch_s = median_seconds(rounds, engine::pool_dispatch);
        probed.set("pool.dispatch_us", dispatch_s * 1e6);
    });

    let pages = tracer
        .span("probe:dataflow.page", |_| {
            let write_s = median_seconds(reps(5), || engine::page_write(&records));
            let pages = engine::page_write(&records);
            let read_s = median_seconds(reps(5), || engine::page_read(&pages));
            probed.set("page.write_ns_per_rec", ratio(write_s * 1e9, n));
            probed.set("page.read_ns_per_rec", ratio(read_s * 1e9, n));
            probed.set("page.bytes_per_rec", ratio(pages.bytes as f64, n));
            pages
        })
        .0;

    tracer.span("probe:dataflow.range", |_| {
        let hash = engine::hash_router();
        let range = engine::range_router(&records);
        let hash_s = median_seconds(reps(5), || engine::route(&hash, &records));
        let range_s = median_seconds(reps(5), || engine::route(&range, &records));
        probed.set("route.hash_ns_per_rec", ratio(hash_s * 1e9, n));
        probed.set("route.range_ns_per_rec", ratio(range_s * 1e9, n));
        let per_target = engine::route(&hash, &records);
        let largest = per_target.iter().copied().max().unwrap_or(0) as f64;
        probed.set(
            "route.partition_skew",
            ratio(largest * per_target.len() as f64, n),
        );
    });

    tracer
        .span("probe:dataflow.credit", |_| {
            let handoffs = if options.smoke { 16 } else { 2000 };
            let handoff_s =
                try_median_seconds(reps(5), || engine::credit_handoff(&pages, handoffs, 2))?;
            probed.set(
                "credit.handoff_ns_per_page",
                handoff_s * 1e9 / handoffs as f64,
            );
            Ok::<(), String>(())
        })
        .0?;

    tracer
        .span("probe:dataflow.spill", |_| {
            let (mut write, mut read, mut merge) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..reps(3) {
                let (runs, write_s) = timed(|| engine::spill_write(&probe_dir, &records, None));
                let runs = runs?;
                let (bytes, read_s) = timed(|| engine::spill_read(&runs));
                write.push(ratio(runs.bytes as f64 / MIB, write_s));
                read.push(ratio(bytes? as f64 / MIB, read_s));
                drop(runs);
                let sorted = engine::spill_write(&probe_dir, &records, Some(SORTED_RUN_BYTES))?;
                let (merged, merge_s) = timed(|| engine::spill_merge(&sorted));
                if merged? != sorted.records {
                    return Err("the merge lost records".to_owned());
                }
                merge.push(ratio(merge_s * 1e9, n));
            }
            probed.set("spill.write_mib_s", median(&write));
            probed.set("spill.read_mib_s", median(&read));
            probed.set("spill.merge_ns_per_rec", median(&merge));
            Ok(())
        })
        .0?;

    tracer
        .span("probe:comm", |_| {
            let rendezvous_s = try_median_seconds(reps(3), engine::rendezvous)?;
            probed.set("comm.rendezvous_s", rendezvous_s);
            let cluster = engine::rendezvous()?;
            let mib = pages.bytes as f64 / MIB;
            for (round_name, rate_name, mut channels) in [
                (
                    "comm.local_round_us",
                    "comm.local_mib_s",
                    engine::local_channels(),
                ),
                (
                    "comm.tcp_round_us",
                    "comm.tcp_mib_s",
                    engine::tcp_channels(&cluster),
                ),
            ] {
                let round_s = try_median_seconds(rounds, || channels.round(None))?;
                probed.set(round_name, round_s * 1e6);
                let ship_s =
                    try_median_seconds(reps(5), || match channels.round(Some(&pages))? {
                        arrived if arrived == records.len() => Ok(()),
                        _ => Err(format!("{rate_name}: records went missing on the way")),
                    })?;
                probed.set(rate_name, ratio(mib, ship_s));
            }
            Ok::<(), String>(())
        })
        .0?;

    if let Some(solution) = engine::solution_build(&prepared.records) {
        tracer.span("probe:core.solution_set", |_| {
            let vertices = prepared.inputs.graph.vertices();
            let build_s = median_seconds(reps(3), || engine::solution_build(&prepared.records));
            probed.set(
                "solution_set.build_ns_per_rec",
                ratio(build_s * 1e9, vertices as f64),
            );
            let mut merge = Vec::new();
            for _ in 0..reps(3) {
                let mut fresh =
                    engine::solution_build(&prepared.records).expect("built once already");
                merge.push(
                    timed(|| std::hint::black_box(engine::solution_merge(&mut fresh, &pages))).1,
                );
            }
            probed.set(
                "solution_set.merge_ns_per_rec",
                ratio(median(&merge) * 1e9, n),
            );
            let lookup_s = median_seconds(reps(3), || engine::solution_lookup(&solution, vertices));
            probed.set(
                "solution_set.lookup_ns",
                ratio(lookup_s * 1e9, vertices as f64),
            );
        });
        tracer
            .span("probe:core.checkpoint", |_| {
                let dir = probe_dir.join("checkpoint");
                let vertices = prepared.inputs.graph.vertices();
                let write_s =
                    try_median_seconds(reps(3), || engine::checkpoint_write(&dir, &solution))?;
                let restore_s =
                    try_median_seconds(reps(3), || match engine::checkpoint_restore(&dir)? {
                        restored if restored == vertices => Ok(()),
                        _ => Err("the checkpoint lost records".to_owned()),
                    })?;
                probed.set("checkpoint.write_ms", write_s * 1e3);
                probed.set("checkpoint.restore_ms", restore_s * 1e3);
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
            })
            .0?;
    }

    tracer
        .span("probe:optimizer+dataflow.exec", |_| {
            let plan = || engine::plan_step(&prepared.inputs.graph, workload.algorithm);
            let Some(mut step) = plan()? else {
                return Ok(());
            };
            probed.set(
                "optimizer.optimize_ms",
                try_median_seconds(reps(5), plan)? * 1e3,
            );
            probed.set("optimizer.chosen_ship", step.chosen_ship as f64);
            // The first execution ships the loop-invariant matrix into the
            // cache; the ones after it are what a steady iteration costs.
            engine::exec_step(&mut step)?;
            let vertices = prepared.inputs.graph.vertices();
            let step_s = try_median_seconds(reps(7), || match engine::exec_step(&mut step)? {
                ranks if ranks == vertices => Ok(()),
                _ => Err("the step lost ranks".to_owned()),
            })?;
            probed.set("exec.step_ms", step_s * 1e3);
            Ok::<(), String>(())
        })
        .0?;

    std::fs::remove_dir_all(&probe_dir).map_err(|e| format!("{}: {e}", probe_dir.display()))
}

/// Fills in the counts, the timings of the typical job and everything derived
/// from them.  The attribution formula is spelled out in the README.
fn derive(
    options: &Options,
    vertices: usize,
    counts: &Counts,
    typical: &JobStats,
    times: JobTimes,
    probed: &mut Probed,
) {
    let JobTimes {
        job_s,
        overhead_s,
        pregel_s,
    } = times;
    let workload = options.workload;
    // Every job first turns the graph into records again, single-threaded.
    let rebuild_s = probed.get("algorithms.build_records_s");
    let p = PARALLELISM as f64;
    let steps = counts.steps as f64;
    let shipped_bytes = counts.shipped_records as f64 * probed.get("page.bytes_per_rec");

    probed.set("credit.queue_high_water", counts.queue_high_water as f64);
    probed.set("spill.bytes", counts.spilled_bytes as f64);
    probed.set("spill.runs", counts.spilled_runs as f64);
    probed.set(
        "spill.bytes_per_shipped_byte",
        ratio(counts.spilled_bytes as f64, shipped_bytes),
    );
    probed.set("comm.shipped_records", counts.shipped_records as f64);
    probed.set(
        "comm.shipped_share",
        ratio(counts.shipped_records as f64, counts.messages_sent as f64),
    );
    probed.set("baselines.pregel_job_s", pregel_s);
    probed.set("trace.overhead_share", ratio(overhead_s, job_s));

    let step_seconds: Vec<f64> = typical.steps.iter().map(|(s, _)| *s).collect();
    let serialize_ns = probed.get("page.write_ns_per_rec") + probed.get("page.read_ns_per_rec");
    let routed_ns = counts.messages_sent as f64 * probed.get("route.hash_ns_per_rec");
    // Per-record costs spread over the partitions; per-step costs do not.
    let attributed_s = match workload.algorithm {
        Algorithm::Components => {
            probed.set("workset.supersteps", steps);
            probed.set("workset.messages_sent", counts.messages_sent as f64);
            probed.set("workset.inspected", counts.inspected as f64);
            probed.set("workset.changed", counts.changed as f64);
            probed.set(
                "workset.useful_ratio",
                ratio(counts.changed as f64, counts.inspected as f64),
            );
            // Head: supersteps whose workset is at least 1 % of the peak;
            // tail: the near-empty rest, where only fixed cost is left.
            let peak = typical.steps.iter().map(|(_, w)| *w).max().unwrap_or(0);
            let (head, tail): (Vec<_>, Vec<_>) =
                typical.steps.iter().partition(|(_, w)| w * 100 >= peak);
            let tail_mean_s = if tail.is_empty() {
                step_seconds.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                tail.iter().map(|(s, _)| s).sum::<f64>() / tail.len() as f64
            };
            probed.set("workset.head_s", head.iter().map(|(s, _)| s).sum());
            probed.set("workset.tail_mean_us", tail_mean_s * 1e6);
            probed.set(
                "workset.superstep_p99_us",
                quantile(&step_seconds, 0.99) * 1e6,
            );
            let total_s: f64 = step_seconds.iter().sum();
            probed.set(
                "workset.fixed_cost_share",
                ratio(steps * tail_mean_s, total_s).min(1.0),
            );

            let (round_us, mib_s) = match workload.deployment {
                Deployment::Tcp => (
                    probed.get("comm.tcp_round_us"),
                    probed.get("comm.tcp_mib_s"),
                ),
                _ => (
                    probed.get("comm.local_round_us"),
                    probed.get("comm.local_mib_s"),
                ),
            };
            let data_ns = counts.shipped_records as f64 * serialize_ns
                + routed_ns
                + vertices as f64 * probed.get("solution_set.build_ns_per_rec")
                + counts.inspected as f64 * probed.get("solution_set.lookup_ns")
                + counts.changed as f64 * probed.get("solution_set.merge_ns_per_rec");
            let spilled_mib = counts.spilled_bytes as f64 / MIB;
            rebuild_s
                + data_ns * 1e-9 / p
                + steps * (probed.get("pool.dispatch_us") + round_us) * 1e-6
                + ratio(shipped_bytes / MIB, mib_s)
                + ratio(spilled_mib, probed.get("spill.write_mib_s"))
                + ratio(spilled_mib, probed.get("spill.read_mib_s"))
        }
        Algorithm::PageRank => {
            probed.set("bulk.iterations", steps);
            let first_ms = step_seconds.first().map_or(0.0, |s| s * 1e3);
            let steady_ms = if step_seconds.len() > 1 {
                median(&step_seconds[1..]) * 1e3
            } else {
                first_ms
            };
            probed.set("bulk.first_iter_ms", first_ms);
            probed.set("bulk.steady_iter_ms", steady_ms);
            probed.set(
                "bulk.driver_overhead_ms",
                steady_ms - probed.get("exec.step_ms"),
            );
            probed.set("exec.match_busy_s", typical.match_busy_s);
            probed.set("exec.reduce_busy_s", typical.reduce_busy_s);
            probed.set("exec.map_busy_s", typical.map_busy_s);
            probed.set("exec.shipped_bytes", counts.exec_shipped_bytes as f64);
            probed.set("exec.shipped_pages", counts.exec_shipped_pages as f64);
            probed.set("exec.local_records", counts.exec_local_records as f64);
            probed.set("exec.cache_hits", counts.exec_cache_hits as f64);
            probed.set(
                "exec.chained_operators",
                counts.exec_chained_operators as f64,
            );
            probed.set(
                "exec.peak_chain_pages",
                typical.exec_peak_chain_pages as f64,
            );

            let data_ns = counts.shipped_records as f64 * serialize_ns + routed_ns;
            rebuild_s
                + data_ns * 1e-9 / p
                + steps * probed.get("pool.dispatch_us") * 1e-6
                + probed.get("optimizer.optimize_ms") * 1e-3
        }
    };
    probed.set("attributed_share", ratio(attributed_s, job_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_nothing_is_zero_not_nan() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut probed = Probed::default();
        probed.set("pool.dispatch_us", 3.5);
        assert_eq!(probed.get("pool.dispatch_us"), 3.5);
        assert_eq!(probed.get("exec.step_ms"), 0.0);
    }
}
