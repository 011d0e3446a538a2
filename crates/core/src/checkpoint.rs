//! Superstep-boundary checkpointing for iterative dataflows.
//!
//! A workset iteration's superstep barriers (and a bulk iteration's
//! iteration boundaries) are natural consistent cuts: between supersteps the
//! whole iteration state is exactly the solution set plus the pending
//! workset.  This module persists that cut — one checksummed framed-page
//! file per partition, reusing the spill format of [`dataflow::spill`] —
//! under an atomically-renamed `MANIFEST`, and restores the newest *valid*
//! cut after a failure.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/ckpt-<superstep>/
//!     solution-<p>.run    one per partition, checksummed page frames
//!     workset-<p>.run
//!     MANIFEST            written last, via tmp-file + atomic rename
//! ```
//!
//! The manifest names every data file with its record count, and the
//! number of candidates pending as emitted — more than the workset files
//! hold when a declared combine folded them.  A checkpoint
//! directory without a `MANIFEST` is by definition incomplete (the crash
//! happened mid-write) and is skipped during recovery; a data file whose
//! page checksums or record count disagree with the manifest marks the whole
//! checkpoint invalid, and recovery falls back to the next older one.

use crate::stats::IterationStats;
use dataflow::error::DataflowError;
use dataflow::fault::{FaultInjector, FaultSite};
use dataflow::record::Record;
use dataflow::spill::{read_records_from, write_records_to};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First line of every checkpoint manifest.
const MANIFEST_HEADER: &str = "spinning-checkpoint v2";

/// How a driver checkpoints: every `interval` supersteps into `dir`, with
/// `max_retries` recovery attempts per superstep under exponential backoff.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint every this many supersteps (1 = every superstep).
    pub interval: usize,
    /// Root directory the `ckpt-<superstep>` directories are created in.
    pub dir: PathBuf,
    /// Recovery attempts per failing superstep before giving up.
    pub max_retries: usize,
    /// Base backoff slept before the first retry; doubles per attempt.
    pub backoff: Duration,
}

impl CheckpointPolicy {
    /// A policy checkpointing every `interval` supersteps into `dir`, with
    /// 3 retries and a 1 ms base backoff.
    pub fn new(interval: usize, dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            interval: interval.max(1),
            dir: dir.into(),
            max_retries: 3,
            backoff: Duration::from_millis(1),
        }
    }

    /// Overrides the retry bound.
    pub fn with_max_retries(mut self, max_retries: usize) -> CheckpointPolicy {
        self.max_retries = max_retries;
        self
    }

    /// Overrides the base backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> CheckpointPolicy {
        self.backoff = backoff;
        self
    }

    /// The backoff before retry number `retry` (1-based): base × 2^(retry−1).
    pub fn backoff_for(&self, retry: usize) -> Duration {
        self.backoff
            .saturating_mul(1u32 << (retry.saturating_sub(1)).min(20) as u32)
    }
}

/// A restored consistent cut: the solution-set records and pending workset
/// records of every partition as of `superstep`.
#[derive(Debug)]
pub struct RestoredCheckpoint {
    /// The superstep the checkpoint was taken after.
    pub superstep: usize,
    /// Solution-set records per partition.
    pub solution: Vec<Vec<Record>>,
    /// Pending workset records per partition.
    pub workset: Vec<Vec<Record>>,
    /// Candidates pending as emitted: the next superstep's working-set
    /// size, which exceeds the workset records when a combine folded them.
    pub pending: u64,
}

/// Reads and writes the checkpoints of one iteration run.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    parallelism: usize,
    fault: FaultInjector,
}

impl CheckpointStore {
    /// A store rooted at `root` for a run with `parallelism` partitions.
    /// `fault` is consulted on every write ([`FaultSite::CheckpointWrite`])
    /// and every restore attempt ([`FaultSite::CheckpointRead`]).
    pub fn new(root: impl Into<PathBuf>, parallelism: usize, fault: FaultInjector) -> Self {
        CheckpointStore {
            root: root.into(),
            parallelism,
            fault,
        }
    }

    fn checkpoint_dir(&self, superstep: usize) -> PathBuf {
        self.root.join(format!("ckpt-{superstep}"))
    }

    /// Persists the cut taken after `superstep`.  Data files are written and
    /// fsynced first; the manifest is written to a temp file and atomically
    /// renamed into place last, so a crash at any point leaves either a
    /// complete checkpoint or one that recovery recognizes as incomplete.
    /// On failure the partial directory is removed and the error returned —
    /// the caller decides whether a missed checkpoint fails the run.
    /// Returns the total bytes written.  The pending count is the workset
    /// records'.
    pub fn write(
        &self,
        superstep: usize,
        solution: &[Vec<Record>],
        workset: &[Vec<Record>],
    ) -> io::Result<u64> {
        let pending = workset.iter().map(Vec::len).sum::<usize>() as u64;
        self.write_cut(superstep, solution, workset, pending)
    }

    /// [`CheckpointStore::write`] of a cut whose `pending` candidates were
    /// folded into the `workset` records.
    pub(crate) fn write_cut(
        &self,
        superstep: usize,
        solution: &[Vec<Record>],
        workset: &[Vec<Record>],
        pending: u64,
    ) -> io::Result<u64> {
        let dir = self.checkpoint_dir(superstep);
        let result = self.write_inner(&dir, superstep, solution, workset, pending);
        if result.is_err() {
            let _ = fs::remove_dir_all(&dir);
        }
        result
    }

    fn write_inner(
        &self,
        dir: &Path,
        superstep: usize,
        solution: &[Vec<Record>],
        workset: &[Vec<Record>],
        pending: u64,
    ) -> io::Result<u64> {
        self.fault.io_check(FaultSite::CheckpointWrite)?;
        assert_eq!(solution.len(), self.parallelism, "one file per partition");
        assert_eq!(workset.len(), self.parallelism, "one file per partition");
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        let mut manifest = String::new();
        manifest.push_str(MANIFEST_HEADER);
        manifest.push('\n');
        manifest.push_str(&format!("superstep {superstep}\n"));
        manifest.push_str(&format!("parallelism {}\n", self.parallelism));
        let mut total = 0u64;
        for (kind, parts) in [("solution", solution), ("workset", workset)] {
            for (p, records) in parts.iter().enumerate() {
                total += write_records_to(&dir.join(format!("{kind}-{p}.run")), records)?;
                manifest.push_str(&format!("{kind} {p} {}\n", records.len()));
            }
        }
        manifest.push_str(&format!("pending {pending}\n"));
        manifest.push_str("end\n");

        let tmp = dir.join("MANIFEST.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(manifest.as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, dir.join("MANIFEST"))?;
        total += manifest.len() as u64;
        Ok(total)
    }

    /// Restores the newest valid checkpoint taken at or before
    /// `max_superstep`.  Incomplete (no manifest), corrupt (checksum or
    /// count mismatch), and unreadable checkpoints are skipped in favor of
    /// the next older one; `None` when no valid checkpoint remains.
    pub fn restore_latest(&self, max_superstep: usize) -> Option<RestoredCheckpoint> {
        let mut supersteps: Vec<usize> = self.list_checkpoints();
        supersteps.retain(|&s| s <= max_superstep);
        supersteps.sort_unstable_by(|a, b| b.cmp(a));
        for superstep in supersteps {
            if let Ok(restored) = self.read_checkpoint(superstep) {
                return Some(restored);
            }
        }
        None
    }

    fn read_checkpoint(&self, superstep: usize) -> io::Result<RestoredCheckpoint> {
        self.fault.io_check(FaultSite::CheckpointRead)?;
        let dir = self.checkpoint_dir(superstep);
        let manifest = fs::read_to_string(dir.join("MANIFEST"))?;
        let counts = parse_manifest(&manifest, superstep, self.parallelism)
            .map_err(|detail| io::Error::new(io::ErrorKind::InvalidData, detail))?;
        let mut restored = RestoredCheckpoint {
            superstep,
            solution: Vec::with_capacity(self.parallelism),
            workset: Vec::with_capacity(self.parallelism),
            pending: counts.pending,
        };
        for (kind, expected, out) in [
            ("solution", &counts.solution, &mut restored.solution),
            ("workset", &counts.workset, &mut restored.workset),
        ] {
            for (p, &count) in expected.iter().enumerate() {
                out.push(read_records_from(
                    &dir.join(format!("{kind}-{p}.run")),
                    Some(count),
                )?);
            }
        }
        Ok(restored)
    }

    /// Superstep numbers of all checkpoint directories under the root
    /// (complete or not).
    fn list_checkpoints(&self) -> Vec<usize> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|entry| {
                entry
                    .file_name()
                    .to_str()?
                    .strip_prefix("ckpt-")?
                    .parse()
                    .ok()
            })
            .collect()
    }

    /// Removes all checkpoints except the newest `keep` — bounding the disk
    /// footprint of a long run to a couple of cuts.
    pub fn prune(&self, keep: usize) {
        let mut supersteps = self.list_checkpoints();
        supersteps.sort_unstable_by(|a, b| b.cmp(a));
        for &superstep in supersteps.iter().skip(keep) {
            let _ = fs::remove_dir_all(self.checkpoint_dir(superstep));
        }
    }

    /// Removes every checkpoint of the run — called after successful
    /// convergence so passing runs leak no files (the CI leak assertion
    /// covers checkpoint directories).
    pub fn clear(&self) {
        self.prune(0);
    }
}

/// Checkpoint/recovery counters accumulated between successful steps and
/// folded into the next pushed [`IterationStats`] row.
#[derive(Default)]
struct PendingRecoveryStats {
    checkpoints_written: usize,
    checkpoint_bytes: usize,
    checkpoint_write_failures: usize,
    recoveries: usize,
    retries: usize,
}

impl PendingRecoveryStats {
    /// Moves the accumulated counters into `stats` and resets them.
    fn fold_into(&mut self, stats: &mut IterationStats) {
        stats.checkpoints_written += self.checkpoints_written;
        stats.checkpoint_bytes += self.checkpoint_bytes;
        stats.checkpoint_write_failures += self.checkpoint_write_failures;
        stats.recoveries += self.recoveries;
        stats.retries += self.retries;
        *self = PendingRecoveryStats::default();
    }
}

/// A consistent cut as a driver snapshots it: the solution records and the
/// pending workset records of every partition, and the candidates pending
/// as emitted.
pub(crate) type Cut = (Vec<Vec<Record>>, Vec<Vec<Record>>, u64);

/// The checkpoint-and-recover loop both iteration drivers run.
///
/// Calls `step(state, attempt)` (attempts are 1-based: the step after the
/// `completed` ones) while fewer than `max_steps` completed and `more(state)`
/// holds, and returns the stats row of every completed step.  Without a
/// `policy` a failed step is final and surfaces as the typed error it
/// already is.  With one, the consistent cut `snapshot(state)` is persisted
/// under `policy.dir` before the first step and after every
/// `policy.interval`-th one that leaves work to do (keeping the newest two);
/// a failed step backs off, restores the newest valid cut at or before the
/// last completed step through `reinstall`, drops the rows past it and
/// retries — until `policy.max_retries` consecutive failures exhaust the
/// budget.  A failed checkpoint *write* is never fatal — it only widens the
/// window the next recovery replays — but it is counted in the stats **and**
/// warned about on stderr, identically for every driver.  Checkpoint and
/// recovery counters land in the row of the next completed step (trailing
/// ones in the last row); the run's checkpoints are removed when it ends.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_with_recovery<S>(
    policy: Option<&CheckpointPolicy>,
    parallelism: usize,
    fault: &FaultInjector,
    max_steps: usize,
    state: &mut S,
    more: impl Fn(&S) -> bool,
    mut step: impl FnMut(&mut S, usize) -> Result<IterationStats, DataflowError>,
    snapshot: impl Fn(&S) -> io::Result<Cut>,
    mut reinstall: impl FnMut(&mut S, RestoredCheckpoint),
) -> Result<Vec<IterationStats>, DataflowError> {
    let store = policy.map(|policy| CheckpointStore::new(&policy.dir, parallelism, fault.clone()));
    let mut pending = PendingRecoveryStats::default();
    let checkpoint = |completed: usize, state: &S, pending: &mut PendingRecoveryStats| {
        let Some(store) = &store else { return };
        let written = snapshot(state).and_then(|(solution, workset, pending)| {
            store.write_cut(completed, &solution, &workset, pending)
        });
        match written {
            Ok(bytes) => {
                pending.checkpoints_written += 1;
                pending.checkpoint_bytes += bytes as usize;
                store.prune(2);
            }
            Err(error) => {
                eprintln!(
                    "warning: checkpoint write after step {completed} failed ({error}); \
                     a recovery would replay from the previous checkpoint"
                );
                pending.checkpoint_write_failures += 1;
            }
        }
    };
    // The initial cut (step 0), so a failure in the very first step has
    // something to restore.
    checkpoint(0, state, &mut pending);
    let mut rows: Vec<IterationStats> = Vec::new();
    // Consecutive failed attempts at the current step (reset on success).
    let mut retries_used = 0usize;
    while rows.len() < max_steps && more(state) {
        let attempt = rows.len() + 1;
        match step(state, attempt) {
            Ok(mut stats) => {
                retries_used = 0;
                if policy.is_some_and(|p| attempt.is_multiple_of(p.interval)) && more(state) {
                    checkpoint(attempt, state, &mut pending);
                }
                pending.fold_into(&mut stats);
                rows.push(stats);
            }
            Err(error) => {
                let (Some(store), Some(policy)) = (&store, policy) else {
                    return Err(error);
                };
                retries_used += 1;
                pending.retries += 1;
                if retries_used > policy.max_retries {
                    return Err(DataflowError::RecoveryExhausted {
                        superstep: attempt,
                        retries: policy.max_retries,
                        last: Box::new(error),
                    });
                }
                std::thread::sleep(policy.backoff_for(retries_used));
                // Corrupt or partial checkpoints are skipped inside
                // `restore_latest`; with none left the failure is final.
                let Some(restored) = store.restore_latest(attempt - 1) else {
                    return Err(error);
                };
                rows.truncate(restored.superstep);
                reinstall(state, restored);
                pending.recoveries += 1;
            }
        }
    }
    if let Some(last) = rows.last_mut() {
        pending.fold_into(last);
    }
    // The run is over; its checkpoints are dead weight on disk.
    if let Some(store) = &store {
        store.clear();
    }
    Ok(rows)
}

/// The per-partition record counts a manifest promises, and the pending
/// count it records.
struct ManifestCounts {
    solution: Vec<usize>,
    workset: Vec<usize>,
    pending: u64,
}

/// Parses and cross-checks a manifest.  Every deviation — wrong header,
/// wrong superstep, wrong parallelism, missing `end` (a torn manifest
/// cannot exist thanks to the atomic rename, but cheap to verify) — makes
/// the checkpoint invalid.
fn parse_manifest(
    manifest: &str,
    superstep: usize,
    parallelism: usize,
) -> Result<ManifestCounts, String> {
    let mut lines = manifest.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err("bad manifest header".into());
    }
    if lines.next() != Some(&format!("superstep {superstep}")) {
        return Err("manifest superstep mismatch".into());
    }
    if lines.next() != Some(&format!("parallelism {parallelism}")) {
        return Err("manifest parallelism mismatch".into());
    }
    let mut counts = ManifestCounts {
        solution: Vec::with_capacity(parallelism),
        workset: Vec::with_capacity(parallelism),
        pending: 0,
    };
    for (kind, out) in [
        ("solution", &mut counts.solution),
        ("workset", &mut counts.workset),
    ] {
        for p in 0..parallelism {
            let line = lines.next().ok_or("manifest truncated")?;
            let rest = line
                .strip_prefix(kind)
                .and_then(|r| r.strip_prefix(' '))
                .and_then(|r| r.strip_prefix(&format!("{p} ")))
                .ok_or_else(|| format!("unexpected manifest line {line:?}"))?;
            out.push(
                rest.parse()
                    .map_err(|_| format!("bad record count in {line:?}"))?,
            );
        }
    }
    let line = lines.next().ok_or("manifest truncated")?;
    counts.pending = line
        .strip_prefix("pending ")
        .and_then(|count| count.parse().ok())
        .ok_or_else(|| format!("bad pending count in {line:?}"))?;
    if lines.next() != Some("end") {
        return Err("manifest missing end marker".into());
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_root(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("spinning-ckpt-test-{}-{name}", std::process::id()))
    }

    fn parts(offset: i64) -> Vec<Vec<Record>> {
        (0..2)
            .map(|p| {
                (0..30)
                    .map(|i| Record::pair(offset + p * 100 + i, i))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn checkpoints_round_trip_and_restore_the_newest() {
        let root = test_root("roundtrip");
        let store = CheckpointStore::new(&root, 2, FaultInjector::disabled());
        let bytes = store.write(3, &parts(0), &parts(1000)).unwrap();
        assert!(bytes > 0);
        store.write(6, &parts(50), &parts(2000)).unwrap();

        let restored = store.restore_latest(usize::MAX).unwrap();
        assert_eq!(restored.superstep, 6);
        assert_eq!(restored.solution, parts(50));
        assert_eq!(restored.workset, parts(2000));

        // A cap below the newest falls back to the older checkpoint.
        let restored = store.restore_latest(5).unwrap();
        assert_eq!(restored.superstep, 3);
        assert_eq!(restored.solution, parts(0));

        store.clear();
        assert!(store.restore_latest(usize::MAX).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_checkpoints_are_skipped_in_favor_of_older_ones() {
        let root = test_root("skip-corrupt");
        let store = CheckpointStore::new(&root, 2, FaultInjector::disabled());
        store.write(2, &parts(0), &parts(10)).unwrap();
        store.write(4, &parts(7), &parts(20)).unwrap();
        // Flip a byte inside a data page of the newer checkpoint.
        let victim = root.join("ckpt-4").join("solution-1.run");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();

        let restored = store.restore_latest(usize::MAX).unwrap();
        assert_eq!(restored.superstep, 2, "corrupt ckpt-4 must be skipped");
        assert_eq!(restored.solution, parts(0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_checkpoint_with_a_tampered_record_count_is_skipped() {
        let root = test_root("count-tamper");
        let store = CheckpointStore::new(&root, 2, FaultInjector::disabled());
        store.write(2, &parts(0), &parts(10)).unwrap();
        store.write(4, &parts(7), &parts(20)).unwrap();
        let victim = root.join("ckpt-4").join("solution-1.run");
        let intact = fs::read(&victim).unwrap();
        // The first frame's record count: after the 8-byte file header and
        // the frame's byte length.  Its 30 records become 33, then 27.
        for count in [33u32, 27] {
            let mut bytes = intact.clone();
            bytes[12..16].copy_from_slice(&count.to_le_bytes());
            fs::write(&victim, &bytes).unwrap();
            let restored = store.restore_latest(usize::MAX).unwrap();
            assert_eq!(
                restored.superstep, 2,
                "count {count}: ckpt-4 must be skipped"
            );
            assert_eq!(restored.solution, parts(0));
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_checkpoint_without_a_manifest_is_incomplete() {
        let root = test_root("no-manifest");
        let store = CheckpointStore::new(&root, 2, FaultInjector::disabled());
        store.write(1, &parts(0), &parts(10)).unwrap();
        store.write(5, &parts(9), &parts(90)).unwrap();
        // Simulate a crash between the data files and the manifest rename.
        fs::remove_file(root.join("ckpt-5").join("MANIFEST")).unwrap();
        let restored = store.restore_latest(usize::MAX).unwrap();
        assert_eq!(restored.superstep, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_write_faults_clean_up_the_partial_directory() {
        let root = test_root("inject-write");
        let store = CheckpointStore::new(
            &root,
            2,
            FaultInjector::failing_nth(FaultSite::CheckpointWrite, 0),
        );
        store
            .write(1, &parts(0), &parts(10))
            .expect_err("injected fault");
        assert!(!root.join("ckpt-1").exists());
        // The next attempt (event 1) succeeds.
        store.write(1, &parts(0), &parts(10)).unwrap();
        assert_eq!(store.restore_latest(usize::MAX).unwrap().superstep, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_read_faults_skip_to_an_older_checkpoint() {
        let root = test_root("inject-read");
        let writer = CheckpointStore::new(&root, 2, FaultInjector::disabled());
        writer.write(2, &parts(0), &parts(10)).unwrap();
        writer.write(4, &parts(5), &parts(50)).unwrap();
        // The first read attempt (the newest checkpoint) faults; the second
        // (the older one) proceeds.
        let reader = CheckpointStore::new(
            &root,
            2,
            FaultInjector::failing_nth(FaultSite::CheckpointRead, 0),
        );
        let restored = reader.restore_latest(usize::MAX).unwrap();
        assert_eq!(restored.superstep, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn prune_keeps_the_newest_checkpoints() {
        let root = test_root("prune");
        let store = CheckpointStore::new(&root, 1, FaultInjector::disabled());
        for s in [1, 3, 5, 7] {
            store
                .write(s, &[vec![Record::pair(s as i64, 0)]], &[Vec::new()])
                .unwrap();
        }
        store.prune(2);
        assert!(!root.join("ckpt-1").exists());
        assert!(!root.join("ckpt-3").exists());
        assert!(root.join("ckpt-5").exists());
        assert!(root.join("ckpt-7").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let policy = CheckpointPolicy::new(1, "/tmp/x").with_backoff(Duration::from_millis(2));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(2));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(4));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(8));
    }

    #[test]
    fn manifest_mismatches_invalidate_the_checkpoint() {
        let root = test_root("manifest-tamper");
        let store = CheckpointStore::new(&root, 1, FaultInjector::disabled());
        store
            .write(2, &[vec![Record::pair(1, 2)]], &[Vec::new()])
            .unwrap();
        // Lie about the record count; the data file no longer matches.
        let manifest_path = root.join("ckpt-2").join("MANIFEST");
        let tampered = fs::read_to_string(&manifest_path)
            .unwrap()
            .replace("solution 0 1", "solution 0 2");
        fs::write(&manifest_path, tampered).unwrap();
        assert!(store.restore_latest(usize::MAX).is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
