//! The batch-superstep fixpoint evaluator: a workset iteration `(Δ, S0, W0)`
//! run as the loop `S ← S ∪̇ Δ(S, W)` until the working set is empty.
//!
//! Each superstep, in every partition, the candidates are grouped on the
//! workset key (a stable sort: key order, ties in delivery order), the update
//! function sees each key's group and the stored record, an emitted delta
//! that survives the comparator replaces the stored record, and the
//! expansion of every applied delta against the constant input's matching
//! records (in input order) emits the next superstep's candidates.  The
//! candidates are hash-routed on the workset key by the public
//! [`PartitionRouter`]; a partition receives its own candidates first, then
//! every other partition's in partition order.  That is the order the
//! engine's superstep exchange delivers when nothing spills, so even an
//! update function that reads its candidates' order computes the same
//! deltas; [`batch_fixpoint_with`] takes the order of a budgeted exchange.
//!
//! A step that declares a combine has its candidates folded where the
//! engine folds them when nothing spills: the initial working set per
//! partition, and every superstep's candidates per (source, target), each
//! in emission order ([`crate::laws::fold`]), before they are delivered.  The
//! counters the paper plots count candidates as emitted, before the fold;
//! `shipped` and `delivered` count what the exchange moved, after it.

use crate::laws::fold;
use crate::{group_ranges, on_pages, sort_by_key, source_major, views, Deliver, Partitions};
use dataflow::contracts::{CombineFunction, RecordSink};
use dataflow::key::{Key, KeyFields};
use dataflow::page::RecordView;
use dataflow::range::PartitionRouter;
use dataflow::record::Record;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// The update function: the group's key, its stored record and its
/// candidates in, at most one delta out (a later emission replaces an
/// earlier one).
pub type UpdateFn =
    dyn Fn(&Key, Option<RecordView<'_>>, &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync;
/// The expansion: an applied delta and its constant matches in, candidates
/// out.
pub type ExpandFn = dyn Fn(RecordView<'_>, &[RecordView<'_>], &mut dyn RecordSink) + Send + Sync;
/// Decides which of two records for one key survives: a delta replaces the
/// stored record only when it compares `Greater`.
pub type Comparator = dyn Fn(&Record, &Record) -> Ordering + Send + Sync;

/// A workset iteration's step function and constant input.
#[derive(Clone)]
pub struct WorksetStep {
    /// Fields identifying a solution (and delta) record.
    pub solution_key: KeyFields,
    /// Fields of a candidate naming the solution record it targets.
    pub workset_key: KeyFields,
    /// The constant input `N`.
    pub constant: Vec<Record>,
    /// Fields of a constant record forming its join key.
    pub constant_key: KeyFields,
    /// Fields of a delta looking up its constant matches.
    pub delta_key: KeyFields,
    /// The solution-set join's user function.
    pub update: Arc<UpdateFn>,
    /// The expansion's user function.
    pub expand: Arc<ExpandFn>,
    /// Conflict resolution of the `∪̇` merge; without one a delta always
    /// replaces the stored record.
    pub comparator: Option<Arc<Comparator>>,
    /// The declared fold of candidates that share a workset key.
    pub combine: Option<Arc<dyn CombineFunction>>,
}

/// One superstep's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Superstep {
    /// The solution after the superstep, sorted.
    pub solution: Vec<Record>,
    /// Candidates the superstep consumed.
    pub workset_size: usize,
    /// Key groups the update function saw.
    pub inspected: usize,
    /// Deltas that changed the solution.
    pub changed: usize,
    /// Candidates the expansion emitted.
    pub messages: usize,
    /// Candidates that changed partition, after the fold.
    pub shipped: usize,
    /// Candidates delivered into the next superstep's queues, after the
    /// fold.
    pub delivered: usize,
}

/// A run of [`batch_fixpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fixpoint {
    /// One entry per superstep run.
    pub supersteps: Vec<Superstep>,
    /// The final solution, sorted.
    pub solution: Vec<Record>,
    /// True when the working set drained within the superstep bound.
    pub converged: bool,
}

/// Runs `step` from `solution` and `workset` at `parallelism` partitions
/// for at most `max_supersteps` batch supersteps.
pub fn batch_fixpoint(
    step: &WorksetStep,
    parallelism: usize,
    solution: Vec<Record>,
    workset: Vec<Record>,
    max_supersteps: usize,
) -> Fixpoint {
    batch_fixpoint_with(
        step,
        parallelism,
        solution,
        workset,
        max_supersteps,
        &source_major,
    )
}

/// [`batch_fixpoint`] with every superstep's candidates delivered in
/// `delivery`'s order.
pub fn batch_fixpoint_with(
    step: &WorksetStep,
    parallelism: usize,
    solution: Vec<Record>,
    workset: Vec<Record>,
    max_supersteps: usize,
    delivery: &Deliver,
) -> Fixpoint {
    let router = PartitionRouter::hash(parallelism);
    let mut stored: HashMap<Key, Record> = solution
        .into_iter()
        .map(|record| (Key::extract(&record, &step.solution_key), record))
        .collect();
    let mut constant: HashMap<Key, Vec<Record>> = HashMap::new();
    for record in &step.constant {
        let key = Key::extract(record, &step.constant_key);
        constant.entry(key).or_default().push(record.clone());
    }
    let mut queues: Partitions = vec![Vec::new(); parallelism];
    let mut pending = workset.len();
    for candidate in workset {
        queues[router.route(&candidate, &step.workset_key)].push(candidate);
    }
    let mut queues: Partitions = queues.into_iter().map(|queue| fold(step, queue)).collect();
    let mut supersteps = Vec::new();
    while supersteps.len() < max_supersteps && pending > 0 {
        let mut row = Superstep {
            solution: Vec::new(),
            workset_size: pending,
            inspected: 0,
            changed: 0,
            messages: 0,
            shipped: 0,
            delivered: 0,
        };
        // sent[source][target]
        let mut sent: Vec<Partitions> = vec![vec![Vec::new(); parallelism]; parallelism];
        for (source, mut queue) in std::mem::take(&mut queues).into_iter().enumerate() {
            sort_by_key(&mut queue, &step.workset_key);
            let pages = on_pages(&queue);
            let views: Vec<RecordView<'_>> = views(&pages).collect();
            for (start, end) in group_ranges(&queue, &step.workset_key) {
                row.inspected += 1;
                let key = Key::extract(&queue[start], &step.workset_key);
                let delta = update(step, &key, stored.get(&key), &views[start..end]);
                let Some(delta) = delta.filter(|delta| delta.arity() > 0) else {
                    continue;
                };
                let delta_key = Key::extract(&delta, &step.solution_key);
                let replaces = match (&step.comparator, stored.get(&delta_key)) {
                    (Some(cmp), Some(old)) => cmp(&delta, old) == Ordering::Greater,
                    _ => true,
                };
                if !replaces {
                    continue;
                }
                row.changed += 1;
                let matches = constant.get(&Key::extract(&delta, &step.delta_key));
                for candidate in expand(step, &delta, matches.map_or(&[], Vec::as_slice)) {
                    let target = router.route(&candidate, &step.workset_key);
                    row.messages += 1;
                    sent[source][target].push(candidate);
                }
                stored.insert(delta_key, delta);
            }
        }
        for (source, to) in sent.iter_mut().enumerate() {
            for (target, candidates) in to.iter_mut().enumerate() {
                *candidates = fold(step, std::mem::take(candidates));
                row.shipped += if target == source {
                    0
                } else {
                    candidates.len()
                };
            }
        }
        queues = delivery(&step.workset_key, sent);
        row.delivered = queues.iter().map(Vec::len).sum();
        pending = row.messages;
        row.solution = sorted(&stored);
        supersteps.push(row);
    }
    Fixpoint {
        converged: pending == 0,
        solution: sorted(&stored),
        supersteps,
    }
}

/// Calls the update function on one group, returning the last delta it
/// emitted.
fn update(
    step: &WorksetStep,
    key: &Key,
    current: Option<&Record>,
    candidates: &[RecordView<'_>],
) -> Option<Record> {
    let pages = current.map(std::slice::from_ref).map(on_pages);
    let current = pages.as_ref().map(|pages| pages[0].view_at(0));
    let mut emitted: Vec<Record> = Vec::new();
    (step.update)(key, current, candidates, &mut emitted);
    emitted.pop()
}

/// Calls the expansion on one applied delta, returning its candidates.
fn expand(step: &WorksetStep, delta: &Record, matches: &[Record]) -> Vec<Record> {
    let (delta, matches) = (on_pages(std::slice::from_ref(delta)), on_pages(matches));
    let matches: Vec<RecordView<'_>> = views(&matches).collect();
    let mut candidates: Vec<Record> = Vec::new();
    (step.expand)(delta[0].view_at(0), &matches, &mut candidates);
    candidates
}

/// The stored records, sorted.
fn sorted(stored: &HashMap<Key, Record>) -> Vec<Record> {
    let mut records: Vec<Record> = stored.values().cloned().collect();
    records.sort();
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::value::Value;

    /// Min-label propagation on the path 0 - 1 - 2 - 3 from vertex 0's label.
    fn path() -> WorksetStep {
        let edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)];
        WorksetStep {
            solution_key: vec![0],
            workset_key: vec![0],
            constant: edges.iter().map(|&(a, b)| Record::pair(a, b)).collect(),
            constant_key: vec![0],
            delta_key: vec![0],
            update: Arc::new(|key, current, candidates, delta| {
                let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
                if current.is_none_or(|c| c.long(1) > best) {
                    delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
                }
            }),
            expand: Arc::new(|delta, edges, out| {
                for e in edges {
                    out.emit(&[Value::Long(e.long(1)), Value::Long(delta.long(1))]);
                }
            }),
            comparator: None,
            combine: None,
        }
    }

    #[test]
    fn the_path_converges_one_hop_per_superstep() {
        let solution: Vec<Record> = (0..4).map(|v| Record::pair(v, v + 10)).collect();
        let workset = vec![Record::pair(0, 0)];
        for parallelism in [1, 2, 3] {
            let run = batch_fixpoint(&path(), parallelism, solution.clone(), workset.clone(), 100);
            assert!(run.converged);
            let rows: Vec<_> = run
                .supersteps
                .iter()
                .map(|s| (s.workset_size, s.inspected, s.changed, s.messages))
                .collect();
            // 0 takes 0 and tells 1; 1 tells 0 and 2; 2 tells 1 and 3; 3
            // tells 2; the last candidates change nothing.
            assert_eq!(
                rows,
                [
                    (1, 1, 1, 1),
                    (1, 1, 1, 2),
                    (2, 2, 1, 2),
                    (2, 2, 1, 1),
                    (1, 1, 0, 0)
                ]
            );
            assert!(run.solution.iter().all(|r| r.long(1) == 0));
            assert_eq!(run.supersteps[0].solution[1], Record::pair(1, 11));
        }
    }

    #[test]
    fn a_rejected_delta_changes_nothing_and_the_bound_truncates() {
        let mut step = path();
        step.update = Arc::new(|key, current, _, delta| {
            let worse = current.map_or(0, |c| c.long(1) + 1);
            delta.emit(&[key.values()[0].clone(), Value::Long(worse)]);
        });
        step.comparator = Some(Arc::new(|a: &Record, b: &Record| b.long(1).cmp(&a.long(1))));
        let solution: Vec<Record> = (0..4).map(|v| Record::pair(v, 0)).collect();
        let run = batch_fixpoint(&step, 2, solution.clone(), vec![Record::pair(2, 0)], 10);
        assert_eq!(run.solution, solution);
        assert_eq!(
            (run.supersteps[0].changed, run.supersteps[0].messages),
            (0, 0)
        );
        let truncated = batch_fixpoint(&path(), 2, Vec::new(), vec![Record::pair(0, 0)], 2);
        assert!(!truncated.converged);
        assert_eq!(truncated.supersteps.len(), 2);
    }
}
