//! Clocks, process counters and order statistics.

use std::time::Instant;

/// Median of the samples (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice — every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest sample: for a fixed piece of work, the run least disturbed.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile (0..=1) by nearest rank on the sorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive method),
/// so `compare` judges spread the way the acceptance check does.  Needs two
/// samples; with fewer there is no spread to speak of.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Runs `f`, returning its result and the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Median wall-clock seconds of `repetitions` calls of `f`; each result is
/// passed through `black_box` and dropped inside the timed region.
pub fn median_seconds<R>(repetitions: usize, mut f: impl FnMut() -> R) -> f64 {
    match try_median_seconds(repetitions, || Ok::<R, std::convert::Infallible>(f())) {
        Ok(seconds) => seconds,
        Err(never) => match never {},
    }
}

/// [`median_seconds`] for a fallible `f`: the first error ends the measuring.
pub fn try_median_seconds<R, E>(
    repetitions: usize,
    mut f: impl FnMut() -> Result<R, E>,
) -> Result<f64, E> {
    let mut samples = Vec::with_capacity(repetitions.max(1));
    for _ in 0..repetitions.max(1) {
        let (result, seconds) = timed(|| f().map(|value| drop(std::hint::black_box(value))));
        result?;
        samples.push(seconds);
    }
    Ok(median(&samples))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds of this process so far, threads that have
/// already exited included.  `/proc/self/stat` carries the same sum but in
/// 10 ms ticks, coarse enough that the median over a run of sub-second jobs
/// can read identically twice; the process CPU clock has nanosecond
/// resolution.
pub fn cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout (two 64-bit integers) is the 64-bit Linux `struct timespec`.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(
        status, 0,
        "the process CPU clock is always available on Linux"
    );
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Resets the kernel's peak-resident-set mark to the current resident set, so
/// that the next [`peak_rss_mib`] reads the peak since this call.  Where the
/// kernel refuses (`/proc/self/clear_refs` not writable) the mark simply
/// keeps the peak of the whole process, and the error says so.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// `(stolen, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`.  Ticks the hypervisor gave to someone else are
/// the one kind of outside interference a guest can see; a run prints their
/// share so that a contaminated result can be told from a regression.
pub fn machine_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map_while(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest columns are already part of user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn process_counters_are_readable_and_move_forward() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }
}
