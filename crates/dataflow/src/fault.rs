//! Deterministic, seed-driven fault injection.
//!
//! Everything the runtime does that can fail in the real world — writing a
//! spilled run, reading it back, persisting a checkpoint, running a worker
//! task — goes through one injectable decision point: a [`FaultInjector`]
//! carried by the configuration objects.  The injector is **deterministic**:
//! whether the k-th event at a [`FaultSite`] fails is a pure function of
//! `(seed, site, k)`, so a failing run can be replayed exactly by re-running
//! with the same seed, and a property test can kill a run at a chosen point
//! with [`FaultInjector::failing_nth`].
//!
//! The default injector is *disabled* and its checks compile down to one
//! `Option` test — production paths pay nothing.  CI smoke jobs enable
//! injection through the environment ([`FAULT_SEED_ENV`] /
//! [`FAULT_RATE_ENV`]) without touching any call site.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable carrying the injection seed (a `u64`; defaults to 0
/// when only the rate is set).
pub const FAULT_SEED_ENV: &str = "SPINNING_FAULT_SEED";

/// Environment variable enabling injection and carrying the per-site fault
/// probabilities.  Either one uniform rate (`0.01`) or a comma-separated
/// per-site list (`spill_read=0.01,worker_panic=0.002`); sites not named get
/// rate 0.  Unset (or empty) means injection is disabled.
pub const FAULT_RATE_ENV: &str = "SPINNING_FAULT_RATE";

/// The places the runtime consults the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Flushing sealed pages to disk as a spilled run.
    SpillWrite,
    /// Opening or streaming a spilled run back.
    SpillRead,
    /// Persisting a checkpoint (data files or manifest).
    CheckpointWrite,
    /// Reading a checkpoint back during recovery.
    CheckpointRead,
    /// Dispatching a worker task on the pool (the injected failure is a task
    /// panic, not an I/O error).
    WorkerPanic,
    /// Writing a data message to a transport connection (the injected
    /// failure is a dropped connection — the peer observes it too).
    ConnDrop,
}

/// All sites, in index order.
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::SpillWrite,
    FaultSite::SpillRead,
    FaultSite::CheckpointWrite,
    FaultSite::CheckpointRead,
    FaultSite::WorkerPanic,
    FaultSite::ConnDrop,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::SpillWrite => 0,
            FaultSite::SpillRead => 1,
            FaultSite::CheckpointWrite => 2,
            FaultSite::CheckpointRead => 3,
            FaultSite::WorkerPanic => 4,
            FaultSite::ConnDrop => 5,
        }
    }

    /// The site's name in [`FAULT_RATE_ENV`] and in error messages.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::SpillWrite => "spill_write",
            FaultSite::SpillRead => "spill_read",
            FaultSite::CheckpointWrite => "checkpoint_write",
            FaultSite::CheckpointRead => "checkpoint_read",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::ConnDrop => "conn_drop",
        }
    }

    fn from_label(label: &str) -> Option<FaultSite> {
        FAULT_SITES.iter().copied().find(|s| s.label() == label)
    }

    /// Domain-separates the per-site event streams under one seed.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; only distinctness matters.
        [
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0xd6e8_feb8_6659_fd93,
            0xa076_1d64_78bd_642f,
            0xc2b2_ae3d_27d4_eb4f,
        ][self.index()]
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// SplitMix64 — the standard 64-bit avalanche generator; one application per
/// decision keeps the decisions independent and replayable.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    /// Per-site fault probability in [0, 1].
    rates: [f64; 6],
    /// Exact mode: fail precisely the n-th event (0-based) at one site and
    /// nothing else.  Takes precedence over the rates.
    exact: Option<(FaultSite, u64)>,
    /// Events seen per site (the event sequence number is what makes the
    /// decision deterministic, not wall-clock or thread timing).
    seen: [AtomicU64; 6],
    /// Faults injected per site.
    injected: [AtomicU64; 6],
}

/// The deterministic fault decision function.  Cloning shares the counters,
/// so one injector threaded through a whole run counts every event exactly
/// once; [`FaultInjector::default`] (and [`FaultInjector::disabled`]) is the
/// no-op injector.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

/// The payload of an injected I/O error; [`io::Error::get_ref`] exposes it so
/// callers (and tests) can tell an injected fault from a real one.
#[derive(Debug)]
pub struct InjectedFault {
    /// Where the fault was injected.
    pub site: FaultSite,
    /// The event sequence number (0-based) that fired.
    pub event: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected {} fault (event {})", self.site, self.event)
    }
}

impl std::error::Error for InjectedFault {}

impl FaultInjector {
    /// The no-op injector: every check passes.
    pub fn disabled() -> FaultInjector {
        FaultInjector { inner: None }
    }

    /// A seeded injector with all rates at zero; combine with
    /// [`FaultInjector::with_rate`] / [`FaultInjector::with_all_rates`].
    pub fn seeded(seed: u64) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(Inner {
                seed,
                rates: [0.0; 6],
                exact: None,
                seen: Default::default(),
                injected: Default::default(),
            })),
        }
    }

    /// An injector that fails exactly the `n`-th event (0-based) at `site`
    /// and nothing else — the precision tool of the recovery property tests.
    pub fn failing_nth(site: FaultSite, n: u64) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(Inner {
                seed: 0,
                rates: [0.0; 6],
                exact: Some((site, n)),
                seen: Default::default(),
                injected: Default::default(),
            })),
        }
    }

    /// Sets the fault probability of one site.  Counters reset (the injector
    /// is rebuilt), so configure rates before running.
    pub fn with_rate(self, site: FaultSite, rate: f64) -> FaultInjector {
        let (seed, mut rates, exact) = match &self.inner {
            Some(inner) => (inner.seed, inner.rates, inner.exact),
            None => (0, [0.0; 6], None),
        };
        rates[site.index()] = rate.clamp(0.0, 1.0);
        FaultInjector {
            inner: Some(Arc::new(Inner {
                seed,
                rates,
                exact,
                seen: Default::default(),
                injected: Default::default(),
            })),
        }
    }

    /// Sets every site's fault probability to `rate`.
    pub fn with_all_rates(mut self, rate: f64) -> FaultInjector {
        for site in FAULT_SITES {
            self = self.with_rate(site, rate);
        }
        self
    }

    /// Builds an injector from [`FAULT_SEED_ENV`] / [`FAULT_RATE_ENV`].
    /// Disabled unless the rate variable is set and non-empty; an
    /// unparseable value panics rather than silently disabling injection (a
    /// typo in a CI fault job must not quietly test nothing).
    pub fn from_env() -> FaultInjector {
        let raw = match std::env::var(FAULT_RATE_ENV) {
            Ok(raw) if !raw.trim().is_empty() => raw,
            _ => return FaultInjector::disabled(),
        };
        let seed = match std::env::var(FAULT_SEED_ENV) {
            Ok(raw) => raw
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{FAULT_SEED_ENV} must be a u64, got {raw:?}")),
            Err(_) => 0,
        };
        let mut injector = FaultInjector::seeded(seed);
        if let Ok(rate) = raw.trim().parse::<f64>() {
            return injector.with_all_rates(rate);
        }
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (label, rate) = part
                .split_once('=')
                .unwrap_or_else(|| panic!("{FAULT_RATE_ENV}: expected site=rate, got {part:?}"));
            let site = FaultSite::from_label(label.trim())
                .unwrap_or_else(|| panic!("{FAULT_RATE_ENV}: unknown fault site {label:?}"));
            let rate: f64 = rate
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{FAULT_RATE_ENV}: bad rate in {part:?}"));
            injector = injector.with_rate(site, rate);
        }
        injector
    }

    /// True when this injector can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Decides (and records) whether the next event at `site` faults.
    fn fires(&self, site: FaultSite) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let event = inner.seen[site.index()].fetch_add(1, Ordering::Relaxed);
        let fire = match inner.exact {
            Some((exact_site, n)) => exact_site == site && event == n,
            None => {
                let rate = inner.rates[site.index()];
                rate > 0.0 && {
                    let roll = splitmix64(inner.seed ^ site.salt() ^ event);
                    (roll as f64 / u64::MAX as f64) < rate
                }
            }
        };
        if fire {
            inner.injected[site.index()].fetch_add(1, Ordering::Relaxed);
            Some(event)
        } else {
            None
        }
    }

    /// I/O-shaped check: returns an [`InjectedFault`]-carrying
    /// [`io::Error`] when the site's next event faults.
    pub fn io_check(&self, site: FaultSite) -> io::Result<()> {
        match self.fires(site) {
            Some(event) => Err(io::Error::other(InjectedFault { site, event })),
            None => Ok(()),
        }
    }

    /// Panic-shaped check: panics (an injected worker crash) when the site's
    /// next event faults.  `label` names the dispatch site in the payload.
    pub fn panic_check(&self, site: FaultSite, label: &str) {
        if let Some(event) = self.fires(site) {
            panic!("injected worker panic at {label} (event {event})");
        }
    }

    /// Faults injected at one site so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.injected[site.index()].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        FAULT_SITES.iter().map(|&s| self.injected(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let fault = FaultInjector::disabled();
        for _ in 0..1000 {
            fault.io_check(FaultSite::SpillWrite).unwrap();
            fault.panic_check(FaultSite::WorkerPanic, "test");
        }
        assert!(!fault.is_enabled());
        assert_eq!(fault.injected_total(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_sequence() {
        let run = |seed| {
            let fault = FaultInjector::seeded(seed).with_rate(FaultSite::SpillRead, 0.2);
            (0..200)
                .map(|_| fault.io_check(FaultSite::SpillRead).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds must differ");
        assert!(run(7).iter().any(|&f| f), "rate 0.2 over 200 events fires");
        assert!(!run(7).iter().all(|&f| f), "rate 0.2 must not always fire");
    }

    #[test]
    fn sites_have_independent_event_streams() {
        let fault = FaultInjector::seeded(1)
            .with_rate(FaultSite::SpillRead, 1.0)
            .with_rate(FaultSite::SpillWrite, 0.0);
        assert!(fault.io_check(FaultSite::SpillWrite).is_ok());
        assert!(fault.io_check(FaultSite::SpillRead).is_err());
        assert_eq!(fault.injected(FaultSite::SpillRead), 1);
        assert_eq!(fault.injected(FaultSite::SpillWrite), 0);
    }

    #[test]
    fn failing_nth_fires_exactly_once() {
        let fault = FaultInjector::failing_nth(FaultSite::CheckpointWrite, 3);
        let fired: Vec<bool> = (0..10)
            .map(|_| fault.io_check(FaultSite::CheckpointWrite).is_err())
            .collect();
        assert_eq!(
            fired,
            (0..10).map(|i| i == 3).collect::<Vec<bool>>(),
            "only the 3rd event faults"
        );
        // Other sites are untouched.
        assert!(fault.io_check(FaultSite::SpillRead).is_ok());
        assert_eq!(fault.injected_total(), 1);
    }

    #[test]
    fn clones_share_the_event_counters() {
        let fault = FaultInjector::failing_nth(FaultSite::SpillRead, 1);
        let clone = fault.clone();
        assert!(fault.io_check(FaultSite::SpillRead).is_ok()); // event 0
        assert!(clone.io_check(FaultSite::SpillRead).is_err()); // event 1
        assert_eq!(fault.injected_total(), 1);
    }

    #[test]
    fn injected_io_error_carries_the_payload() {
        let fault = FaultInjector::failing_nth(FaultSite::SpillWrite, 0);
        let error = fault.io_check(FaultSite::SpillWrite).unwrap_err();
        let payload = error
            .get_ref()
            .and_then(|e| e.downcast_ref::<InjectedFault>())
            .expect("payload is InjectedFault");
        assert_eq!(payload.site, FaultSite::SpillWrite);
        assert!(error.to_string().contains("spill_write"));
    }

    #[test]
    #[should_panic(expected = "injected worker panic at superstep")]
    fn panic_check_panics_with_the_label() {
        let fault = FaultInjector::failing_nth(FaultSite::WorkerPanic, 0);
        fault.panic_check(FaultSite::WorkerPanic, "superstep");
    }

    #[test]
    fn env_parsing_is_inert_when_unset() {
        if std::env::var(FAULT_RATE_ENV).is_err() {
            assert!(!FaultInjector::from_env().is_enabled());
        }
    }
}
