//! The untraced run: set-up, one warm-up, then timed repetitions of the job
//! interleaved with the reference run, every result checked.  This is where
//! the end-to-end metrics come from.
//!
//! The load is a closed loop of one client: the next job starts when the
//! previous one has returned, at a fixed parallelism.

use crate::engine::{self, Cluster, Counts, Expected, InputGraph, InputRecords, JobStats};
use crate::measure::{
    cpu_seconds, fastest, machine_ticks, median, nproc, peak_rss_mib, quartiles, reset_peak_rss,
    timed,
};
use crate::spec::{Deployment, Workload, PARALLELISM, SMOKE_SCALE};
use std::path::PathBuf;
use std::time::Instant;

/// Timed repetitions a run never goes below, however short `--seconds` is.
const MIN_REPETITIONS: usize = 7;

/// Set-up is repeated so that `setup_s` is a median too.
const SETUP_REPETITIONS: usize = 5;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long the timed repetitions go on.
    pub seconds: f64,
    /// Tiny graph, one repetition of everything: the unit tests' mode.
    pub smoke: bool,
    /// Benchmark-owned directory; the engine spills into `scratch/spill`.
    pub scratch: PathBuf,
}

impl Options {
    pub fn scale(&self) -> u64 {
        if self.smoke {
            SMOKE_SCALE
        } else {
            self.workload.scale
        }
    }

    pub fn spill_dir(&self) -> PathBuf {
        self.scratch.join("spill")
    }

    /// `full` repetitions of something, or one under `--smoke`.
    pub fn repetitions(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// What a run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: u64,
    pub traced: bool,
    pub vertices: usize,
    pub edges: usize,
    /// Input records set-up built from the graph.
    pub records: usize,
    /// Timed repetitions behind every median.
    pub repetitions: usize,
    /// Repetitions attempted, the warm-up included, and how many of them
    /// errored, disagreed with the oracle or did not exercise their layer.
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Lines for the reader of the run's output; not part of the result.
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn describe_inputs(&mut self, prepared: &Prepared) {
        self.vertices = prepared.inputs.graph.vertices();
        self.edges = prepared.inputs.graph.edges();
        self.records = prepared.records.len();
    }
}

/// What a job runs on.
pub struct Inputs {
    pub graph: InputGraph,
    pub cluster: Option<Cluster>,
}

/// Everything set-up produces, with what each part cost.
pub struct Prepared {
    pub inputs: Inputs,
    /// The graph in record form.  The probes work on these; the jobs build
    /// their own from the graph.
    pub records: InputRecords,
    pub generate_s: f64,
    pub build_records_s: f64,
    pub rendezvous_s: f64,
}

impl Prepared {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_records_s + self.rendezvous_s
    }
}

/// Set-up: seed -> graph -> input records, plus the cluster rendezvous of a
/// TCP deployment.  The oracle and the reference run are the benchmark's own
/// cost and stay out of it.
pub fn prepare(options: &Options) -> Result<Prepared, String> {
    let workload = options.workload;
    let (graph, generate_s) =
        timed(|| engine::generate_graph(workload.dataset, options.scale(), options.seed));
    let (records, build_records_s) = timed(|| engine::build_records(&graph, workload.algorithm));
    let (cluster, rendezvous_s) = match workload.deployment {
        Deployment::Tcp => {
            let (cluster, seconds) = timed(engine::rendezvous);
            (Some(cluster?), seconds)
        }
        Deployment::InProcess | Deployment::Spill => (None, 0.0),
    };
    Ok(Prepared {
        inputs: Inputs { graph, cluster },
        records,
        generate_s,
        build_records_s,
        rendezvous_s,
    })
}

/// A job only counts if it went through the layer its workload exists for:
/// the spill workload must spill, the TCP workload must ship, and nothing
/// else may touch the disk.
pub fn check_exercised(workload: &Workload, counts: &Counts) -> Result<(), String> {
    match workload.deployment {
        Deployment::Spill if counts.spilled_bytes == 0 => {
            Err("spill workload spilled nothing".into())
        }
        Deployment::Tcp if counts.shipped_records == 0 => {
            Err("TCP workload shipped nothing".into())
        }
        Deployment::InProcess | Deployment::Tcp if counts.spilled_bytes != 0 => Err(format!(
            "{} bytes spilled without a memory budget",
            counts.spilled_bytes
        )),
        _ => Ok(()),
    }
}

/// One checked job.
pub fn checked_job(
    options: &Options,
    inputs: &Inputs,
    expected: &Expected,
) -> Result<JobStats, String> {
    let stats = engine::run_job(
        options.workload,
        &inputs.graph,
        expected,
        inputs.cluster.as_ref(),
    )?;
    check_exercised(options.workload, &stats.counts)?;
    Ok(stats)
}

/// Whether the timed loop goes on: until `--seconds` have passed and the
/// minimum of repetitions is in — but never beyond five times `--seconds`,
/// so a machine far slower than the one the scales were sized on still ends.
pub fn keep_going(
    smoke: bool,
    seconds: f64,
    started: Instant,
    repetitions: usize,
    minimum: usize,
) -> bool {
    if smoke {
        return repetitions == 0;
    }
    let elapsed = started.elapsed().as_secs_f64();
    elapsed < seconds || (repetitions < minimum && elapsed < 5.0 * seconds)
}

/// The spill directory is the benchmark's own, and every run file deletes
/// itself when its last handle drops: anything left is a leak.
pub fn check_spill_dir_empty(options: &Options) -> Result<(), String> {
    match std::fs::read_dir(options.spill_dir()) {
        Ok(entries) => match entries.count() {
            0 => Ok(()),
            left => Err(format!("{left} files left in the spill directory")),
        },
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(error) => Err(format!("spill directory: {error}")),
    }
}

pub fn new_report(options: &Options, traced: bool) -> Report {
    Report {
        workload: options.workload.name,
        seed: options.seed,
        scale: options.scale(),
        traced,
        vertices: 0,
        edges: 0,
        records: 0,
        repetitions: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
        metrics: Vec::new(),
    }
}

pub fn end_to_end(options: &Options) -> Result<Report, String> {
    let workload = options.workload;
    let mut report = new_report(options, false);

    let mut setup_samples = Vec::new();
    let mut prepared = prepare(options)?;
    setup_samples.push(prepared.setup_s());
    for _ in 1..options.repetitions(SETUP_REPETITIONS) {
        // Drop the previous inputs first: two graphs alive at once would
        // show in `peak_rss_mib`.
        drop(prepared);
        prepared = prepare(options)?;
        setup_samples.push(prepared.setup_s());
    }
    report.describe_inputs(&prepared);
    // The jobs build their own records from the graph; holding set-up's copy
    // through them would only pad `peak_rss_mib`.
    let Prepared {
        inputs, records, ..
    } = prepared;
    drop(records);
    let expected = engine::oracle(&inputs.graph, workload.algorithm);

    // Warm-up: fills the pool, the allocator and the page cache; checked
    // like every repetition, timed by none.
    report.attempted += 1;
    let warm_up = engine::run_baseline(&inputs.graph, workload.algorithm, &expected)
        .and_then(|()| checked_job(options, &inputs, &expected));
    if let Err(error) = warm_up {
        report.fail(format!("warm-up: {error}"));
    }

    let (mut job_s, mut cpu_s, mut pregel_s, mut rss_mib) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let ticks_before = machine_ticks();
    let started = Instant::now();
    while keep_going(
        options.smoke,
        options.seconds,
        started,
        job_s.len(),
        MIN_REPETITIONS,
    ) {
        report.attempted += 1;
        // Reference and engine runs alternate, so drift of the machine hits
        // both sides of `vs_pregel` alike.
        let (baseline, baseline_s) =
            timed(|| engine::run_baseline(&inputs.graph, workload.algorithm, &expected));
        // Where the kernel lets the peak be reset, the job's peak is its
        // own; elsewhere every sample reads the process's peak so far.
        let _ = reset_peak_rss();
        let cpu_before = cpu_seconds();
        let (job, wall_s) = timed(|| checked_job(options, &inputs, &expected));
        let job_cpu_s = cpu_seconds() - cpu_before;
        match baseline.and(job.map(|_| ())) {
            Ok(()) => {
                pregel_s.push(baseline_s);
                job_s.push(wall_s);
                cpu_s.push(job_cpu_s);
                rss_mib.push(peak_rss_mib()?);
            }
            Err(error) => report.fail(format!("repetition {}: {error}", report.attempted)),
        }
    }
    drop(inputs);
    if let Err(error) = check_spill_dir_empty(options) {
        report.fail(error);
    }
    if job_s.is_empty() {
        return Err(format!(
            "no repetition of {} succeeded: {}",
            workload.name,
            report.failures.join("; ")
        ));
    }

    report.notes = vec![
        sample_summary("job_s", &job_s),
        sample_summary("pregel_s", &pregel_s),
    ];
    if let (Some((stolen_before, total_before)), Some((stolen, total))) =
        (ticks_before, machine_ticks())
    {
        let share = (stolen - stolen_before) / (total - total_before).max(1.0);
        report.notes.push(format!(
            "host: {:.2} % of the machine's CPU time was stolen during the timed repetitions",
            share * 100.0
        ));
    }
    report.repetitions = job_s.len();
    let job = median(&job_s);
    report.metrics = vec![
        ("setup_s", median(&setup_samples)),
        ("job_s", job),
        ("cpu_s", median(&cpu_s)),
        ("edges_per_s", report.edges as f64 / job),
        ("peak_rss_mib", median(&rss_mib)),
        // Best over best: the reference run flips between a fast and a slow
        // regime from one stretch of a process's life to the next, and its
        // median flips with them; the fastest run of each side does not.
        ("vs_pregel", fastest(&pregel_s) / fastest(&job_s)),
    ];
    Ok(report)
}

/// How one run's samples of `name` spread — printed beside the medians so a
/// noisy run can be told from a slow one.
fn sample_summary(name: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples).unwrap_or((samples[0], samples[0]));
    let slowest = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "samples {name}: n={} min={:.6} q1={q1:.6} median={:.6} q3={q3:.6} max={slowest:.6}",
        samples.len(),
        fastest(samples),
        median(samples),
    )
}

/// The run's provenance: what a reader needs to compare two result files.
pub fn provenance(report: &Report) -> String {
    format!(
        "workload={} seed={} scale=1/{} vertices={} edges={} records={} nproc={} parallelism={} repetitions={} traced={}",
        report.workload,
        report.seed,
        report.scale,
        report.vertices,
        report.edges,
        report.records,
        nproc(),
        PARALLELISM,
        report.repetitions,
        report.traced,
    )
}
