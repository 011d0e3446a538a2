//! A minimal benchmarking harness (criterion stand-in).
//!
//! The container this repository builds in has no network access, so the
//! benches cannot pull in `criterion`.  This module provides the small subset
//! the benches need: named benchmark groups, a warm-up phase, a fixed number
//! of measured samples, and min/median/mean reporting.  Results print to
//! stdout; [`Group::finish`] returns the samples so callers can
//! post-process them.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a benchmarked computation.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One benchmark's measured samples.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (within its group).
    pub name: String,
    /// Wall-clock time of each measured sample.
    pub samples: Vec<Duration>,
}

impl Measurement {
    /// The fastest sample — the least noisy estimate of the true cost.
    pub fn min(&self) -> Duration {
        self.samples.iter().copied().min().unwrap_or_default()
    }

    /// The median sample.
    pub fn median(&self) -> Duration {
        let mut sorted = self.samples.clone();
        sorted.sort();
        sorted.get(sorted.len() / 2).copied().unwrap_or_default()
    }

    /// The arithmetic mean of the samples.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.iter().sum::<Duration>() / self.samples.len() as u32
    }
}

/// A named group of benchmarks sharing a sample count.
pub struct Group {
    name: String,
    sample_size: usize,
    warmup: usize,
    measurements: Vec<Measurement>,
}

impl Group {
    /// Creates a group with the default 10 samples and 2 warm-up runs.
    pub fn new(name: &str) -> Self {
        println!("\n== bench group: {name}");
        Group {
            name: name.to_owned(),
            sample_size: 10,
            warmup: 2,
            measurements: Vec::new(),
        }
    }

    /// Sets the number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the number of warm-up runs per benchmark (0 disables warm-up —
    /// used by smoke runs that only care about completion, not timing).
    pub fn warmup(&mut self, n: usize) -> &mut Self {
        self.warmup = n;
        self
    }

    /// Runs `f` `sample_size` times (after warm-up) and records the timings.
    pub fn bench_function<F: FnMut()>(&mut self, name: &str, mut f: F) -> &mut Self {
        for _ in 0..self.warmup {
            f();
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            f();
            samples.push(start.elapsed());
        }
        let m = Measurement {
            name: name.to_owned(),
            samples,
        };
        println!(
            "{:<44} min {:>12.3?}  median {:>12.3?}  mean {:>12.3?}  ({} samples)",
            format!("{}/{}", self.name, m.name),
            m.min(),
            m.median(),
            m.mean(),
            m.samples.len(),
        );
        self.measurements.push(m);
        self
    }

    /// Finishes the group, returning the collected measurements.
    pub fn finish(self) -> Vec<Measurement> {
        self.measurements
    }
}
