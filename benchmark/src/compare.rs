//! `benchmark compare <base> <new>`: judges two sets of runs against the
//! bounds the benchmark fixed.
//!
//! A set is a file of result lines as `--out` appends them, one per run.  For
//! every (workload, end-to-end metric) pair the sets' medians are compared;
//! where either set's own spread (interquartile range over median, as the
//! acceptance check takes it) is wider than the metric's bound the pair is
//! reported as unresolved rather than as unchanged.

use crate::json::{self, Json};
use crate::measure::{median, quartiles};
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// The wider of the two sets' own spreads, as a share of the median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Interquartile range as a share of the median; 0 for a single run, which
/// has no spread to resolve against.
fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), mid) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> (f64, f64, f64, Verdict) {
    let (base_median, new_median) = (median(base), median(new));
    let spread = spread(base).max(spread(new));
    let change = (new_median - base_median) / base_median.abs();
    let worsening = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if spread > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (base_median, new_median, spread, verdict)
}

/// The untraced result lines of one set.
fn read_set(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
    {
        let run = json::parse(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), number + 1))?;
        if run.get("traced") != Some(&Json::Bool(true)) {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn values_of(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn rows(base: &[Json], new: &[Json]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let base_values = values_of(base, workload.name, metric.name);
            let new_values = values_of(new, workload.name, metric.name);
            if base_values.is_empty() || new_values.is_empty() {
                continue;
            }
            let (base, new, spread, verdict) = judge(metric, &base_values, &new_values);
            rows.push(Row {
                workload: workload.name,
                metric: metric.name,
                base,
                new,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// Prints one row per pair; `Ok(true)` when no row is worse or unresolved.
pub fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let rows = rows(&read_set(base)?, &read_set(new)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for row in &rows {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == row.metric)
            .map_or(0.0, |m| m.bound);
        println!(
            "{:<16} {:<14} {:>14.6} {:>14.6} {:>8.4} {:>7.2}% {:>6.0}%  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            row.new / row.base,
            row.spread * 100.0,
            bound * 100.0,
            row.verdict.as_str()
        );
    }
    Ok(rows
        .iter()
        .all(|row| matches!(row.verdict, Verdict::Better | Verdict::WithinBound)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a tenth as its bound, whatever the tables say today.
    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let time = metric(Better::Lower);
        let steady = [1.0, 1.01, 0.99];
        let verdict = |new: &[f64]| judge(&time, &steady, new).3;
        assert_eq!(verdict(&[1.05, 1.04, 1.06]), Verdict::WithinBound);
        assert_eq!(verdict(&[1.2, 1.21, 1.19]), Verdict::Worse);
        assert_eq!(verdict(&[0.8, 0.81, 0.79]), Verdict::Better);
        // A set that cannot agree with itself resolves nothing.
        assert_eq!(verdict(&[1.0, 1.3, 0.7]), Verdict::Unresolved);
        let rate = metric(Better::Higher);
        assert_eq!(judge(&rate, &[100.0], &[80.0]).3, Verdict::Worse);
        assert_eq!(judge(&rate, &[100.0], &[120.0]).3, Verdict::Better);
    }

    #[test]
    fn rows_pair_up_runs_by_workload() {
        let line = |workload: &str, value: f64| {
            json::parse(&format!(
                r#"{{"workload": "{workload}", "traced": false, "metrics": {{"job_s": {{"value": {value}, "unit": "s"}}}}}}"#
            ))
            .unwrap()
        };
        let base = vec![
            line("cc-dense", 1.0),
            line("cc-dense", 1.02),
            line("cc-longtail", 2.0),
        ];
        let new = vec![line("cc-dense", 1.5), line("cc-dense", 1.52)];
        let rows = rows(&base, &new);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload, rows[0].metric, rows[0].verdict),
            ("cc-dense", "job_s", Verdict::Worse)
        );
    }
}
