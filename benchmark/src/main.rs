//! The repository benchmark: five paper workloads, end-to-end job metrics
//! from untraced runs, per-layer metrics from a separate traced run.  See
//! `README.md` beside this package and `BENCHMARK.json` at the repository
//! root.
//!
//! ```text
//! benchmark [run] --workload <name|all> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!                 [--trace-file <file>] [--out <file>] [--smoke]
//! benchmark compare <base.jsonl> <new.jsonl>
//! benchmark spec | list
//! ```
//!
//! The last line a run prints is its result as one JSON object.

mod compare;
mod engine;
mod json;
mod layers;
mod measure;
mod run;
mod spec;
mod trace;

use json::Json;
use run::{Options, Report};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [run] --workload <name|all> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--trace-file <file>] [--out <file>] [--smoke]\n       \
benchmark compare <base.jsonl> <new.jsonl>\n       benchmark spec | list";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    /// `None` when `--trace` was not given: a single workload then runs
    /// untraced, `all` runs both ways.
    trace: Option<bool>,
    trace_file: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: None,
        trace_file: None,
        out: None,
        smoke: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a u64"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds {value}: not a whole number"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err(format!("--seconds {value}: must be 1 to 60"));
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            "--trace-file" => parsed.trace_file = Some(PathBuf::from(value)),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload != "all" && spec::workload(&parsed.workload).is_none() {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    if parsed.trace_file.is_some() {
        parsed.trace.get_or_insert(true);
        if parsed.trace == Some(false) {
            return Err("--trace-file needs a traced run (--trace 1)".into());
        }
    }
    Ok(parsed)
}

/// A directory of the benchmark's own, next to the executable — inside the
/// build directory, so inside the checkout the benchmark was built in.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let parent = exe
        .parent()
        .ok_or("the executable has no parent directory")?;
    Ok(parent.join(format!("benchmark-scratch-{}", std::process::id())))
}

fn metrics_json(report: &Report) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit =
                    spec::unit_of(name).expect("every reported metric is in the spec tables");
                let fields = vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit.into())),
                ];
                ((*name).to_owned(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(report: &Report) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.correct())),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), metrics_json(report)),
    ])
}

/// The line `--out` appends: the result plus what is needed to compare two
/// files — seed, scale, machine and repetition count.
fn out_line(report: &Report) -> Json {
    let Json::Obj(mut fields) = result_line(report) else {
        unreachable!("result_line builds an object")
    };
    let mut line = vec![
        ("workload".into(), Json::Str(report.workload.into())),
        ("seed".into(), Json::Num(report.seed as f64)),
        ("scale".into(), Json::Num(report.scale as f64)),
        ("traced".into(), Json::Bool(report.traced)),
        ("vertices".into(), Json::Num(report.vertices as f64)),
        ("edges".into(), Json::Num(report.edges as f64)),
        ("records".into(), Json::Num(report.records as f64)),
        ("nproc".into(), Json::Num(measure::nproc() as f64)),
        ("parallelism".into(), Json::Num(spec::PARALLELISM as f64)),
        ("repetitions".into(), Json::Num(report.repetitions as f64)),
    ];
    line.append(&mut fields);
    Json::Obj(line)
}

fn append_line(path: &Path, line: &Json) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(args: &RunArgs) -> Result<(), String> {
    let workload = spec::workload(&args.workload).expect("validated by parse_run_args");
    let scratch = scratch_dir()?;
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        smoke: args.smoke,
        scratch,
    };
    std::fs::create_dir_all(options.spill_dir())
        .map_err(|e| format!("{}: {e}", options.scratch.display()))?;
    engine::scrub_environment(&options.spill_dir());
    let report = if args.trace == Some(true) {
        layers::per_layer(&options, args.trace_file.as_deref())
    } else {
        run::end_to_end(&options)
    };
    // Leave nothing behind, whatever happened.
    let removed = std::fs::remove_dir_all(&options.scratch);
    let report = report?;
    removed.map_err(|e| format!("{}: {e}", options.scratch.display()))?;

    if let Some(bad) = report.metrics.iter().find(|(_, value)| !value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.0));
    }
    println!("{}", run::provenance(&report));
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &report.metrics {
        println!(
            "{name:<32} {value:>18.6} {}",
            spec::unit_of(name).unwrap_or("")
        );
    }
    if let Some(out) = &args.out {
        append_line(out, &out_line(&report))?;
    }
    println!("{}", result_line(&report));
    Ok(())
}

/// `--workload all`: every workload in a child process of its own, so that
/// `peak_rss_mib` is per workload; untraced, traced, or both when `--trace`
/// was not given.
fn run_all(args: &RunArgs, raw: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut passed_on: Vec<String> = Vec::new();
    let mut raw = raw.iter();
    while let Some(arg) = raw.next() {
        if ["--workload", "--trace", "--trace-file"].contains(&arg.as_str()) {
            raw.next();
        } else {
            passed_on.push(arg.clone());
        }
    }
    let modes = match args.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    for workload in &spec::WORKLOADS {
        for &traced in &modes {
            let mut command = std::process::Command::new(&exe);
            command.args(&passed_on).args([
                "--workload",
                workload.name,
                "--trace",
                if traced { "1" } else { "0" },
            ]);
            if let (true, Some(file)) = (traced, &args.trace_file) {
                command
                    .arg("--trace-file")
                    .arg(format!("{}.{}", file.display(), workload.name));
            }
            let status = command
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} (traced={traced}) ended with {status}",
                    workload.name
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") if args.len() == 1 => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(())
        }
        Some("compare") if args.len() == 3 => {
            match compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(true) => Ok(()),
                Ok(false) => Err("some pair is worse or unresolved".to_owned()),
                Err(error) => Err(error),
            }
        }
        Some("list") if args.len() == 1 => {
            print!("{}", spec::tables());
            Ok(())
        }
        Some("spec" | "list" | "compare") | None => Err(USAGE.to_owned()),
        Some(first) => {
            let raw = if first == "run" {
                &args[1..]
            } else {
                &args[..]
            };
            parse_run_args(raw)
                .map_err(|e| format!("{e}\n{USAGE}"))
                .and_then(|parsed| {
                    if parsed.workload == "all" {
                        run_all(&parsed, raw)
                    } else {
                        run_one(&parsed)
                    }
                })
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_run_args(&args(
            "--workload cc-dense --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (
                parsed.workload.as_str(),
                parsed.seed,
                parsed.seconds,
                parsed.trace
            ),
            ("cc-dense", 42, 10, Some(true))
        );
        assert!(parse_run_args(&args("--workload nope")).is_err());
        assert!(parse_run_args(&args("--workload cc-dense --trace 2")).is_err());
        assert!(parse_run_args(&args("--workload cc-dense --seconds 0")).is_err());
        assert!(
            parse_run_args(&args("--workload cc-dense --trace 0 --trace-file t.json")).is_err()
        );
        assert_eq!(
            parse_run_args(&args("--workload all --trace-file t.json"))
                .unwrap()
                .trace,
            Some(true)
        );
    }

    /// All five workloads at the smoke scale, untraced and traced, in one
    /// test: the runs share the process's spill-directory setting, so they
    /// must not overlap.  The names each mode emits are exactly the ones in
    /// `BENCHMARK.json`, and every value is finite.
    #[test]
    fn smoke_runs_emit_exactly_the_metrics_of_benchmark_json() {
        let tracked =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let tracked = json::parse(&tracked).unwrap();
        let names_of = |key: &str| -> BTreeSet<String> {
            let Some(Json::Arr(entries)) = tracked.get(key) else {
                panic!("{key} is an array")
            };
            entries
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(
            names_of("workloads"),
            spec::WORKLOADS.iter().map(|w| w.name.to_owned()).collect()
        );

        let scratch = scratch_dir().unwrap().join("smoke");
        for workload in &spec::WORKLOADS {
            let options = Options {
                workload,
                seed: 7,
                seconds: 1.0,
                smoke: true,
                scratch: scratch.clone(),
            };
            std::fs::create_dir_all(options.spill_dir()).unwrap();
            engine::scrub_environment(&options.spill_dir());
            let trace_file = scratch.join("trace.json");
            for (key, report) in [
                ("end_to_end", run::end_to_end(&options).unwrap()),
                (
                    "per_layer",
                    layers::per_layer(&options, Some(&trace_file)).unwrap(),
                ),
            ] {
                assert_eq!(
                    report.failures,
                    Vec::<String>::new(),
                    "{} {key}",
                    workload.name
                );
                assert!(report.correct() && report.attempted >= 1);
                let emitted: BTreeSet<String> = report
                    .metrics
                    .iter()
                    .map(|(name, _)| (*name).to_owned())
                    .collect();
                assert_eq!(emitted, names_of(key), "{} {key}", workload.name);
                for (name, value) in &report.metrics {
                    assert!(value.is_finite(), "{} {name} = {value}", workload.name);
                    assert!(name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                }
                // The result line is the contract's: four keys, parseable.
                let line = json::parse(&result_line(&report).to_string()).unwrap();
                let Json::Obj(fields) = &line else {
                    panic!("the result line is an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            let trace = json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
            let Some(Json::Arr(events)) = trace.get("traceEvents") else {
                panic!("traceEvents")
            };
            for span in ["setup", "warm-up", "job", "probe:pool"] {
                assert!(
                    events
                        .iter()
                        .any(|e| e.get("name").and_then(Json::as_str) == Some(span)),
                    "no {span} span"
                );
            }
            std::fs::remove_dir_all(&scratch).unwrap();
        }
    }
}
