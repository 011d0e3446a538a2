//! Laws as tests: seeded checks of the algebraic properties that leave the
//! engine free in how it runs a user function.
//!
//! A declared combine ([`CombineFunction`]) lets the engine fold a key's
//! candidates wherever and in whatever batches it sees fit — per source
//! partition, per target, once in the load step.  The result is the
//! unfolded one only if
//!
//! * the fold `a ⊕ b` ([`combine_pair`]) is associative and commutative, so
//!   any batching and order of folds gives the same record
//!   ([`check_combine`]); and
//! * the update function computes from a folded group what it computes
//!   from the whole group: `update(key, cur, group)` equals
//!   `update(key, cur, [fold(group)])` ([`check_update_folds`]).
//!
//! Both together cover partial folds: a group of folded batches folds, by
//! the first law, to the fold of the whole group.
//!
//! The microstep and asynchronous modes hand an update its candidates in
//! another order, and in other groups, than batch supersteps do.  They
//! reach the batch fixpoint only if
//!
//! * the update does not read its candidates' order: the delta for a group
//!   equals the delta for the group reversed and for any shuffle of it
//!   ([`check_update_order_insensitive`]); and
//! * the comparator that decides which of two records for one key survives
//!   is a total order — antisymmetric and transitive — so the surviving
//!   record does not depend on the order deltas arrive in
//!   ([`check_comparator_total`]).
//!
//! The checks draw their inputs from a caller's seeded generator and return
//! the first counterexample, naming its trial, so a test names what broke.

use crate::fixpoint::{Comparator, UpdateFn, WorksetStep};
use crate::{on_pages, views};
use dataflow::contracts::CombineFunction;
use dataflow::key::Key;
use dataflow::page::RecordView;
use dataflow::record::Record;
use graphdata::SmallRng;
use std::cmp::Ordering;
use std::collections::HashMap;

/// `held ⊕ candidate`: what `combine` emits last when `candidate` folds
/// into `held`, or `held` itself when it emits nothing.
pub fn combine_pair(combine: &dyn CombineFunction, held: &Record, candidate: &Record) -> Record {
    let pages = on_pages(std::slice::from_ref(held));
    let mut emitted: Vec<Record> = Vec::new();
    combine.combine(pages[0].view_at(0), candidate.fields(), &mut emitted);
    emitted.pop().unwrap_or_else(|| held.clone())
}

/// `records` folded the way the engine folds one target's candidates: each
/// key's records fold into the first, in order, and the folded records come
/// out in the order their keys were first seen.  Without a declared combine
/// the records come back as they are.
pub fn fold(step: &WorksetStep, records: Vec<Record>) -> Vec<Record> {
    let Some(combine) = &step.combine else {
        return records;
    };
    let mut held: Vec<Record> = Vec::new();
    let mut slots: HashMap<Key, usize> = HashMap::new();
    for record in records {
        let key = Key::extract(&record, &step.workset_key);
        match slots.get(&key) {
            Some(&slot) => held[slot] = combine_pair(&**combine, &held[slot], &record),
            None => {
                slots.insert(key, held.len());
                held.push(record);
            }
        }
    }
    held
}

/// Checks on `trials` triples `(a, b, c)` drawn by `candidate` — records of
/// one key — that `combine` is commutative (`a ⊕ b = b ⊕ a`) and
/// associative (`(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`).  Returns the first
/// counterexample.
pub fn check_combine(
    combine: &dyn CombineFunction,
    trials: usize,
    seed: u64,
    mut candidate: impl FnMut(&mut SmallRng) -> Record,
) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let op = |a: &Record, b: &Record| combine_pair(combine, a, b);
    for trial in 0..trials {
        let (a, b, c) = (
            candidate(&mut rng),
            candidate(&mut rng),
            candidate(&mut rng),
        );
        let (ab, ba) = (op(&a, &b), op(&b, &a));
        if ab != ba {
            return Err(format!(
                "not commutative (trial {trial}): {a} ⊕ {b} = {ab}, {b} ⊕ {a} = {ba}"
            ));
        }
        let (left, right) = (op(&ab, &c), op(&a, &op(&b, &c)));
        if left != right {
            return Err(format!(
                "not associative (trial {trial}): ({a} ⊕ {b}) ⊕ {c} = {left}, \
                 {a} ⊕ ({b} ⊕ {c}) = {right}"
            ));
        }
    }
    Ok(())
}

/// Checks on `trials` draws of a stored record and a non-empty candidate
/// group of one key (`draw`) that `update` emits the same delta for the
/// group as for the group folded to one record by `combine` — or no delta
/// for both.  `key` are the candidates' key fields.  Returns the first
/// counterexample.
pub fn check_update_folds(
    update: &UpdateFn,
    combine: &dyn CombineFunction,
    key: &[usize],
    trials: usize,
    seed: u64,
    mut draw: impl FnMut(&mut SmallRng) -> (Option<Record>, Vec<Record>),
) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for trial in 0..trials {
        let (current, group) = draw(&mut rng);
        let Some((first, rest)) = group.split_first() else {
            return Err("the draw gave an empty group".into());
        };
        let folded = rest.iter().fold(first.clone(), |held, next| {
            combine_pair(combine, &held, next)
        });
        let group_key = Key::extract(first, key);
        let whole = delta_of(update, &group_key, current.as_ref(), &group);
        let of_folded = delta_of(
            update,
            &group_key,
            current.as_ref(),
            std::slice::from_ref(&folded),
        );
        if whole != of_folded {
            return Err(format!(
                "the update does not fold (trial {trial}): {whole:?} from {} candidates, \
                 {of_folded:?} from their fold {folded}",
                group.len()
            ));
        }
    }
    Ok(())
}

/// Checks on `trials` draws of a stored record and a non-empty candidate
/// group of one key (`draw`) that `update` emits the same delta for the
/// group, for the group reversed and for a shuffle of it (drawn from the
/// same seeded generator) — or no delta for all three.  `key` are the
/// candidates' key fields.  Returns the first counterexample.
pub fn check_update_order_insensitive(
    update: &UpdateFn,
    key: &[usize],
    trials: usize,
    seed: u64,
    mut draw: impl FnMut(&mut SmallRng) -> (Option<Record>, Vec<Record>),
) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for trial in 0..trials {
        let (current, group) = draw(&mut rng);
        let Some(first) = group.first() else {
            return Err("the draw gave an empty group".into());
        };
        let group_key = Key::extract(first, key);
        let delta =
            |candidates: &[Record]| delta_of(update, &group_key, current.as_ref(), candidates);
        let in_order = delta(&group);
        let mut reversed = group.clone();
        reversed.reverse();
        let mut shuffled = group.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_index(i + 1));
        }
        for (name, reordered) in [("reversed", reversed), ("shuffled", shuffled)] {
            let other = delta(&reordered);
            if other != in_order {
                return Err(format!(
                    "the update reads its candidates' order (trial {trial}): {in_order:?} \
                     from {group:?}, {other:?} from the group {name} to {reordered:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks on `trials` triples `(a, b, c)` drawn by `candidate` — records of
/// one key — that `comparator` is a total order: antisymmetric
/// (`cmp(x, y)` is the reverse of `cmp(y, x)`) and transitive (`x ≤ y` and
/// `y ≤ z` give `x ≤ z`) over every ordering of the triple.  Returns the
/// first counterexample.
pub fn check_comparator_total(
    comparator: &Comparator,
    trials: usize,
    seed: u64,
    mut candidate: impl FnMut(&mut SmallRng) -> Record,
) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for trial in 0..trials {
        let triple = [
            candidate(&mut rng),
            candidate(&mut rng),
            candidate(&mut rng),
        ];
        for (x, y) in [(0, 1), (1, 2), (0, 2)].map(|(i, j)| (&triple[i], &triple[j])) {
            let (forward, backward) = (comparator(x, y), comparator(y, x));
            if forward != backward.reverse() {
                return Err(format!(
                    "not antisymmetric (trial {trial}): cmp({x}, {y}) = {forward:?}, \
                     cmp({y}, {x}) = {backward:?}"
                ));
            }
        }
        let orderings = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for [x, y, z] in orderings.map(|order| order.map(|i| &triple[i])) {
            let at_most = |a: &Record, b: &Record| comparator(a, b) != Ordering::Greater;
            if at_most(x, y) && at_most(y, z) && !at_most(x, z) {
                return Err(format!(
                    "not transitive (trial {trial}): {x} ≤ {y} and {y} ≤ {z}, but {x} > {z}"
                ));
            }
        }
    }
    Ok(())
}

/// The delta `update` emits last for `candidates` against `current`.
fn delta_of(
    update: &UpdateFn,
    key: &Key,
    current: Option<&Record>,
    candidates: &[Record],
) -> Option<Record> {
    let stored = current.map(std::slice::from_ref).map(on_pages);
    let current = stored.as_ref().map(|pages| pages[0].view_at(0));
    let pages = on_pages(candidates);
    let views: Vec<RecordView<'_>> = views(&pages).collect();
    let mut emitted: Vec<Record> = Vec::new();
    update(key, current, &views, &mut emitted);
    emitted.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::contracts::{CombineClosure, RecordSink};
    use dataflow::value::Value;

    /// Min-label update: the smallest candidate (field 1) when it improves.
    fn min_update(
        key: &Key,
        current: Option<RecordView<'_>>,
        candidates: &[RecordView<'_>],
        delta: &mut dyn RecordSink,
    ) {
        let best = candidates.iter().map(|r| r.long(1)).min().unwrap();
        if current.is_none_or(|c| c.long(1) > best) {
            delta.emit(&[key.values()[0].clone(), Value::Long(best)]);
        }
    }

    fn min_combine() -> CombineClosure<impl Fn(RecordView<'_>, &[Value], &mut dyn RecordSink)> {
        CombineClosure(
            |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
                if candidate[1].as_long() < held.long(1) {
                    out.emit(candidate);
                }
            },
        )
    }

    fn candidate(rng: &mut SmallRng) -> Record {
        Record::pair(7, rng.gen_range(10) as i64)
    }

    fn draw(rng: &mut SmallRng) -> (Option<Record>, Vec<Record>) {
        let current = (rng.gen_range(4) > 0).then(|| Record::pair(7, rng.gen_range(12) as i64));
        let size = 1 + rng.gen_index(6);
        (current, (0..size).map(|_| candidate(rng)).collect())
    }

    #[test]
    fn a_min_combine_obeys_both_laws() {
        assert_eq!(check_combine(&min_combine(), 500, 1, candidate), Ok(()));
        assert_eq!(
            check_update_folds(&min_update, &min_combine(), &[0], 500, 2, draw),
            Ok(())
        );
    }

    #[test]
    fn a_non_associative_combine_is_caught() {
        let difference = CombineClosure(
            |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
                out.emit(&[
                    candidate[0].clone(),
                    Value::Long(held.long(1) - candidate[1].as_long()),
                ]);
            },
        );
        let caught = check_combine(&difference, 100, 3, candidate);
        assert!(caught.is_err(), "a − b passed as a combine");
    }

    #[test]
    fn an_update_that_reads_the_group_size_is_caught() {
        let counting = |key: &Key,
                        _: Option<RecordView<'_>>,
                        candidates: &[RecordView<'_>],
                        delta: &mut dyn RecordSink| {
            delta.emit(&[
                key.values()[0].clone(),
                Value::Long(candidates.len() as i64),
            ]);
        };
        let caught = check_update_folds(&counting, &min_combine(), &[0], 100, 4, draw);
        let message = caught.expect_err("a size-reading update passed");
        assert!(message.contains("does not fold"), "{message}");
    }

    /// Keeps the record with the smaller value (field 1).
    fn prefer_min(a: &Record, b: &Record) -> Ordering {
        b.long(1).cmp(&a.long(1))
    }

    #[test]
    fn a_min_update_and_comparator_are_order_insensitive_and_total() {
        assert_eq!(
            check_update_order_insensitive(&min_update, &[0], 500, 5, draw),
            Ok(())
        );
        assert_eq!(
            check_comparator_total(&prefer_min, 500, 6, candidate),
            Ok(())
        );
    }

    #[test]
    fn an_update_that_takes_the_first_candidate_is_caught() {
        let first_wins = |key: &Key,
                          current: Option<RecordView<'_>>,
                          candidates: &[RecordView<'_>],
                          delta: &mut dyn RecordSink| {
            let first = candidates[0].long(1);
            if current.is_none_or(|c| c.long(1) > first) {
                delta.emit(&[key.values()[0].clone(), Value::Long(first)]);
            }
        };
        let caught = check_update_order_insensitive(&first_wins, &[0], 100, 7, draw);
        let message = caught.expect_err("a first-candidate-wins update passed");
        assert!(
            message.contains("reads its candidates' order (trial "),
            "{message}"
        );
    }

    #[test]
    fn a_comparator_that_always_says_less_is_caught() {
        let always_less = |_: &Record, _: &Record| Ordering::Less;
        let caught = check_comparator_total(&always_less, 100, 8, candidate);
        let message = caught.expect_err("an always-Less comparator passed");
        assert!(message.contains("not antisymmetric (trial 0)"), "{message}");
    }

    #[test]
    fn the_fold_keeps_first_seen_key_order() {
        let step = WorksetStep {
            solution_key: vec![0],
            workset_key: vec![0],
            constant: Vec::new(),
            constant_key: vec![0],
            delta_key: vec![0],
            update: std::sync::Arc::new(min_update),
            expand: std::sync::Arc::new(
                |_: RecordView<'_>, _: &[RecordView<'_>], _: &mut dyn RecordSink| {},
            ),
            comparator: None,
            combine: Some(std::sync::Arc::new(min_combine())),
        };
        let records = [(3, 9), (1, 4), (3, 2), (2, 8), (1, 5)];
        let records = records.map(|(k, v)| Record::pair(k, v)).to_vec();
        assert_eq!(
            fold(&step, records),
            [Record::pair(3, 2), Record::pair(1, 4), Record::pair(2, 8)]
        );
    }
}
