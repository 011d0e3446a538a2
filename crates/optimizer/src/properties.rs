//! Physical data properties and operator annotations.
//!
//! The optimizer reasons about *global properties* of the data flowing along
//! an edge — chiefly how it is partitioned across the parallel worker
//! instances.  Properties are established by shipping strategies and either
//! preserved or destroyed by operators, depending on how the user code treats
//! the fields that the property is defined on.  The paper (Section 4.3)
//! relies on *OutputContracts* for this; here the equivalent information is
//! supplied as [`FieldCopy`] annotations.

use dataflow::prelude::{KeyFields, OperatorId};
use std::collections::HashMap;

/// How the records of an edge are distributed over the parallel instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// No known distribution (records may be anywhere).
    Any,
    /// Records are hash-partitioned on the given fields: all records agreeing
    /// on those fields reside in the same partition.
    Hash(KeyFields),
    /// Every partition holds a full copy of the data.
    Replicated,
}

impl Partitioning {
    /// True if this partitioning satisfies a requirement to be
    /// hash-partitioned by `key`: records with equal `key` values are
    /// collocated in one partition, and hash routing is one global function,
    /// so two inputs that both satisfy it are co-partitioned.
    pub fn satisfies_hash(&self, key: &[usize]) -> bool {
        match self {
            Partitioning::Hash(fields) => fields.as_slice() == key,
            _ => false,
        }
    }

    /// True if every partition sees all records.
    pub fn is_replicated(&self) -> bool {
        matches!(self, Partitioning::Replicated)
    }
}

/// The global properties of one edge's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalProperties {
    /// The partitioning across parallel instances.
    pub partitioning: Partitioning,
}

impl GlobalProperties {
    /// Properties carrying no guarantees.
    pub fn any() -> Self {
        GlobalProperties {
            partitioning: Partitioning::Any,
        }
    }

    /// Hash-partitioned on `key`.
    pub fn hashed(key: KeyFields) -> Self {
        GlobalProperties {
            partitioning: Partitioning::Hash(key),
        }
    }

    /// Fully replicated.
    pub fn replicated() -> Self {
        GlobalProperties {
            partitioning: Partitioning::Replicated,
        }
    }
}

impl Default for GlobalProperties {
    fn default() -> Self {
        GlobalProperties::any()
    }
}

/// Declares that an operator copies input field `in_field` of input `slot`
/// unchanged into output field `out_field` for every record it emits.
///
/// This is the information the optimizer needs to decide whether a
/// partitioning established upstream survives the operator — e.g. whether the
/// PageRank join output is still partitioned by `tid` because the join copies
/// the matrix input's `tid` field into output field 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldCopy {
    /// Input slot the field is read from.
    pub slot: usize,
    /// Field position in that input.
    pub in_field: usize,
    /// Field position in the operator's output.
    pub out_field: usize,
}

/// Per-operator annotations supplied by the plan author (the analogue of
/// Stratosphere's OutputContracts).
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    copies: HashMap<OperatorId, Vec<FieldCopy>>,
}

impl Annotations {
    /// Creates an empty annotation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a field copy for `op`.
    pub fn add_copy(&mut self, op: OperatorId, copy: FieldCopy) -> &mut Self {
        self.copies.entry(op).or_default().push(copy);
        self
    }

    /// The field copies declared for `op`.
    pub fn copies(&self, op: OperatorId) -> &[FieldCopy] {
        self.copies.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Maps a key expressed in the *input* field space of `slot` to the
    /// operator's *output* field space, if every key field is copied.
    pub fn map_key_forward(&self, op: OperatorId, slot: usize, key: &[usize]) -> Option<KeyFields> {
        let copies = self.copies(op);
        key.iter()
            .map(|&field| {
                copies
                    .iter()
                    .find(|c| c.slot == slot && c.in_field == field)
                    .map(|c| c.out_field)
            })
            .collect()
    }

    /// Maps a key expressed in the operator's *output* field space back to the
    /// field space of input `slot`, if every key field originates there.
    pub fn map_key_backward(
        &self,
        op: OperatorId,
        slot: usize,
        key: &[usize],
    ) -> Option<KeyFields> {
        let copies = self.copies(op);
        key.iter()
            .map(|&field| {
                copies
                    .iter()
                    .find(|c| c.slot == slot && c.out_field == field)
                    .map(|c| c.in_field)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioning_satisfaction() {
        let p = Partitioning::Hash(vec![0]);
        assert!(p.satisfies_hash(&[0]));
        assert!(!p.satisfies_hash(&[1]));
        assert!(!Partitioning::Any.satisfies_hash(&[0]));
        assert!(!Partitioning::Replicated.satisfies_hash(&[0]));
        assert!(Partitioning::Replicated.is_replicated());
    }

    #[test]
    fn field_copy_forward_and_backward_mapping() {
        let op = OperatorId(3);
        let mut ann = Annotations::new();
        ann.add_copy(
            op,
            FieldCopy {
                slot: 1,
                in_field: 0,
                out_field: 0,
            },
        );
        ann.add_copy(
            op,
            FieldCopy {
                slot: 0,
                in_field: 1,
                out_field: 1,
            },
        );
        // tid (field 0 of input 1) survives as output field 0.
        assert_eq!(ann.map_key_forward(op, 1, &[0]), Some(vec![0]));
        // a key on input 1 field 1 is not copied.
        assert_eq!(ann.map_key_forward(op, 1, &[1]), None);
        // output field 0 originates from input 1 field 0.
        assert_eq!(ann.map_key_backward(op, 1, &[0]), Some(vec![0]));
        // output field 0 does not originate from input 0.
        assert_eq!(ann.map_key_backward(op, 0, &[0]), None);
    }

    #[test]
    fn composite_keys_require_all_fields_copied() {
        let op = OperatorId(1);
        let mut ann = Annotations::new();
        for (in_field, out_field) in [(0, 0), (2, 1)] {
            ann.add_copy(
                op,
                FieldCopy {
                    slot: 0,
                    in_field,
                    out_field,
                },
            );
        }
        assert_eq!(ann.map_key_forward(op, 0, &[0, 2]), Some(vec![0, 1]));
        assert_eq!(ann.map_key_forward(op, 0, &[0, 1]), None);
    }

    #[test]
    fn default_properties_are_any() {
        assert_eq!(GlobalProperties::default(), GlobalProperties::any());
        assert_eq!(
            GlobalProperties::hashed(vec![2]).partitioning,
            Partitioning::Hash(vec![2])
        );
        assert!(GlobalProperties::replicated().partitioning.is_replicated());
    }
}
