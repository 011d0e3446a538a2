//! Key extraction, hashing and comparison over record fields.
//!
//! Operators declare which fields form their key (e.g. a `Match` joins two
//! inputs on equal key field values, a `Reduce` groups by key).  The runtime
//! uses the same key definition for hash partitioning, so that records with
//! equal keys always end up in the same worker partition — the invariant that
//! the incremental-iteration runtime in `spinning-core` relies on for local
//! solution-set updates (Section 5.2 of the paper).
//!
//! # Hot-path design
//!
//! Record routing — deciding the target partition of a record, probing a join
//! table, updating the solution-set index — runs once per record per exchange
//! and dominates the cost of the iterative workloads, so this module is
//! built around two ideas:
//!
//! 1. **An inline key representation.**  [`Key`] is an enum: the dominant
//!    single-`i64` graph keys (vertex ids, component ids) are stored inline
//!    as [`Key::Long`] with *no heap allocation*; arbitrary composite keys
//!    fall back to a boxed slice ([`Key::Composite`]).  All comparisons,
//!    hashes and equality checks are defined over the *logical value
//!    sequence*, so the two representations of the same values are fully
//!    interchangeable (and [`Key::from_values`] normalises to the inline
//!    form where possible).
//!
//! 2. **A multiply-xor hasher.**  All key hashing goes through [`FxHasher`],
//!    an FxHash-style multiply-rotate-xor hasher (the rustc/Firefox design):
//!    a handful of ALU instructions per 8-byte word instead of SipHash's
//!    cryptographic rounds.  Partition routing ([`partition_for`],
//!    [`hash_key`]), the extracted-key hash ([`hash_values`],
//!    [`hash_of_key`]) and the join/group/solution-set hash maps
//!    ([`FxHashMap`]) all use the same function, preserving the invariant
//!    `hash_values(Key::extract(r, f).values()) == hash_key(r, f)` that the
//!    partitioned solution-set index relies on.  [`hash_key`] additionally
//!    short-circuits the single-long case so the common routing decision
//!    never touches a `Value` at all.
//!
//! The hash is *not* DoS-resistant — keys here come from the system's own
//! partitioning contract, not from untrusted network input, which is the
//! same trade-off timely/differential-dataflow and rustc make.

use crate::record::Record;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;

/// The positions of the key fields inside a record.
pub type KeyFields = Vec<usize>;

// ---------------------------------------------------------------------------
// Fx hashing
// ---------------------------------------------------------------------------

/// The FxHash multiplier (a 64-bit truncation of π's digits, as used by
/// rustc's `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style multiply-rotate-xor hasher.
///
/// Deterministic (no random state), extremely cheap, and good enough
/// dispersion for the low bits used by `HashMap` and for the modulo used by
/// [`partition_for`].  Used consistently for partitioning, join and group
/// tables, and the solution-set index.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline(always)]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Mix in the length so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; deterministic across runs.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashing with [`FxHasher`] — the map type of every hash table
/// on the record hot path (join builds, group tables, the solution-set
/// index, the cached constant-input index).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The Fx hash of a single `i64` key value, identical to hashing
/// `Value::Long(v)` through [`FxHasher`].  This is the innermost routing
/// operation for graph workloads; it compiles to three multiplies.
#[inline(always)]
pub fn hash_long(v: i64) -> u64 {
    // Must stay consistent with `Value::hash`: type tag, then payload.
    let mut h = FxHasher::default();
    h.write_u8(crate::value::LONG_TYPE_TAG);
    h.write_i64(v);
    h.finish()
}

/// Computes a stable 64-bit hash of the key fields of `record`.
#[inline]
pub fn hash_key(record: &Record, fields: &[usize]) -> u64 {
    hash_key_fields(record.fields(), fields)
}

/// [`hash_key`] over a record given as its field slice (a record emitted by
/// reference, which never exists as a [`Record`]).
#[inline]
pub fn hash_key_fields(values: &[Value], fields: &[usize]) -> u64 {
    // Fast path: a single long key field — no Value dispatch in the loop.
    if let [field] = fields {
        if let Value::Long(v) = &values[*field] {
            return hash_long(*v);
        }
    }
    let mut hasher = FxHasher::default();
    for &i in fields {
        values[i].hash(&mut hasher);
    }
    hasher.finish()
}

/// Computes the same hash as [`hash_key`] over an already-extracted key.
/// `hash_values(Key::extract(r, f).values()) == hash_key(r, f)` for all
/// records, which the partitioned solution-set index relies on.
#[inline]
pub fn hash_values(values: &[Value]) -> u64 {
    if let [Value::Long(v)] = values {
        return hash_long(*v);
    }
    let mut hasher = FxHasher::default();
    for value in values {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// Computes the same hash as [`hash_key`] / [`hash_values`] directly over a
/// [`Key`], without materialising a value slice.
#[inline]
pub fn hash_of_key(key: &Key) -> u64 {
    match key {
        Key::Long(v) => hash_long(*v),
        Key::Composite(values) => hash_values(values),
    }
}

/// Maps the key hash of `record` to a partition index in `0..parallelism`.
#[inline]
pub fn partition_for(record: &Record, fields: &[usize], parallelism: usize) -> usize {
    debug_assert!(parallelism > 0, "parallelism must be positive");
    (hash_key(record, fields) % parallelism as u64) as usize
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// An owned, extracted key (the values of the key fields, in declaration
/// order).  Used as a hash-map key by the local strategies and by the
/// solution-set index.
///
/// The single-`i64` case — the identifying key of every graph workload — is
/// stored inline with no heap allocation.  Equality, ordering and hashing
/// are defined over the logical value sequence, so a [`Key::Long`] and a
/// [`Key::Composite`] holding the same single `Value::Long` behave
/// identically (construction through [`Key::extract`] / [`Key::from_values`]
/// normalises to the inline form).
#[derive(Debug, Clone)]
pub enum Key {
    /// A single `i64` key value, stored inline.
    Long(i64),
    /// Any other key shape: composite keys and non-long single fields.
    Composite(Box<[Value]>),
}

impl Key {
    /// Extracts the key of `record` according to `fields`.
    #[inline]
    pub fn extract(record: &Record, fields: &[usize]) -> Key {
        Key::extract_fields(record.fields(), fields)
    }

    /// [`Key::extract`] over a record given as its field slice.
    #[inline]
    pub fn extract_fields(values: &[Value], fields: &[usize]) -> Key {
        if let [field] = fields {
            if let Value::Long(v) = &values[*field] {
                return Key::Long(*v);
            }
        }
        Key::Composite(fields.iter().map(|&i| values[i].clone()).collect())
    }

    /// [`Key::extract_fields`] into an existing key, reusing a composite
    /// key's buffer: refilling a key of fixed-width fields allocates nothing.
    pub fn assign_fields(&mut self, values: &[Value], fields: &[usize]) {
        self.assign_with(fields.len(), |i| values[fields[i]].clone());
    }

    /// Overwrites the key with `arity` values, `value(i)` the `i`-th — in
    /// place when a composite key of the same arity is refilled, and
    /// normalised to the inline form for a single `Long`.
    pub(crate) fn assign_with(&mut self, arity: usize, mut value: impl FnMut(usize) -> Value) {
        match self {
            Key::Composite(values) if values.len() == arity && arity > 1 => {
                for (i, slot) in values.iter_mut().enumerate() {
                    *slot = value(i);
                }
            }
            _ if arity == 1 => *self = Key::extract_fields(&[value(0)], &[0]),
            _ => *self = Key::Composite((0..arity).map(value).collect()),
        }
    }

    /// A single-field integer key; the common case for graph workloads.
    #[inline]
    pub fn long(v: i64) -> Key {
        Key::Long(v)
    }

    /// Builds a key from owned values, normalising a single `Value::Long`
    /// into the inline representation.
    pub fn from_values(values: Vec<Value>) -> Key {
        if let [Value::Long(v)] = values.as_slice() {
            return Key::Long(*v);
        }
        Key::Composite(values.into_boxed_slice())
    }

    /// Borrow the key values.  Returns a cheap guard that dereferences to
    /// `&[Value]`; for inline long keys the single value lives on the
    /// caller's stack.
    #[inline]
    pub fn values(&self) -> KeyValues<'_> {
        match self {
            Key::Long(v) => KeyValues::Inline([Value::Long(*v)]),
            Key::Composite(values) => KeyValues::Slice(values),
        }
    }

    /// The key value as an `i64` if this is a single-long key.
    #[inline]
    pub fn as_long(&self) -> Option<i64> {
        match self {
            Key::Long(v) => Some(*v),
            Key::Composite(values) => match values.as_ref() {
                [Value::Long(v)] => Some(*v),
                _ => None,
            },
        }
    }

    /// Number of key fields.
    #[inline]
    pub fn arity(&self) -> usize {
        match self {
            Key::Long(_) => 1,
            Key::Composite(values) => values.len(),
        }
    }
}

/// A borrow of a key's values, dereferencing to `&[Value]`.
///
/// [`Key::Long`] stores its value as a bare `i64`, so borrowing it as a
/// `&[Value]` needs one stack-allocated `Value`; this guard owns it.
#[derive(Debug)]
pub enum KeyValues<'a> {
    /// The materialised single value of an inline long key.
    Inline([Value; 1]),
    /// A direct borrow of a composite key's values.
    Slice(&'a [Value]),
}

impl Deref for KeyValues<'_> {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        match self {
            KeyValues::Inline(one) => one,
            KeyValues::Slice(values) => values,
        }
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Key::Long(a), Key::Long(b)) => a == b,
            (a, b) => *a.values() == *b.values(),
        }
    }
}

impl Eq for Key {}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::Long(v) => {
                // Identical byte stream to `Value::Long(v).hash(state)`.
                state.write_u8(crate::value::LONG_TYPE_TAG);
                state.write_i64(*v);
            }
            Key::Composite(values) => {
                for value in values.iter() {
                    value.hash(state);
                }
            }
        }
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Key::Long(a), Key::Long(b)) => a.cmp(b),
            (a, b) => a.values().cmp(&*b.values()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_single_and_composite_keys() {
        let r = Record::triple(7, 3, 0.5);
        assert_eq!(Key::extract(&r, &[0]), Key::long(7));
        assert_eq!(
            Key::extract(&r, &[1, 0]),
            Key::from_values(vec![Value::Long(3), Value::Long(7)])
        );
    }

    #[test]
    fn single_long_extraction_is_inline() {
        let r = Record::pair(42, 0);
        assert!(matches!(Key::extract(&r, &[0]), Key::Long(42)));
        // A single non-long field falls back to the composite form.
        let r = Record::long_double(1, 0.5);
        assert!(matches!(Key::extract(&r, &[1]), Key::Composite(_)));
    }

    #[test]
    fn inline_and_composite_representations_are_interchangeable() {
        let fast = Key::Long(9);
        let slow = Key::Composite(vec![Value::Long(9)].into_boxed_slice());
        assert_eq!(fast, slow);
        assert_eq!(fast.cmp(&slow), Ordering::Equal);
        assert_eq!(hash_of_key(&fast), hash_of_key(&slow));
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        fast.hash(&mut a);
        slow.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        // from_values normalises.
        assert!(matches!(
            Key::from_values(vec![Value::Long(9)]),
            Key::Long(9)
        ));
    }

    #[test]
    fn key_accessors() {
        assert_eq!(Key::long(5).as_long(), Some(5));
        assert_eq!(Key::from_values(vec![Value::Double(1.0)]).as_long(), None);
        assert_eq!(Key::long(5).arity(), 1);
        assert_eq!(
            Key::from_values(vec![Value::Long(1), Value::Long(2)]).arity(),
            2
        );
        assert_eq!(Key::long(5).values()[0], Value::Long(5));
    }

    #[test]
    fn equal_keys_hash_identically() {
        let a = Record::pair(5, 10);
        let b = Record::triple(5, 99, 1.0);
        assert_eq!(hash_key(&a, &[0]), hash_key(&b, &[0]));
    }

    #[test]
    fn extracted_key_hash_matches_record_key_hash() {
        for v in 0..200i64 {
            let r = Record::triple(v, v * 3, 0.5);
            let key = Key::extract(&r, &[0, 1]);
            assert_eq!(hash_values(&key.values()), hash_key(&r, &[0, 1]));
            assert_eq!(hash_of_key(&key), hash_key(&r, &[0, 1]));
            let single = Key::extract(&r, &[0]);
            assert_eq!(hash_of_key(&single), hash_key(&r, &[0]));
            assert_eq!(hash_long(v), hash_key(&r, &[0]));
        }
    }

    #[test]
    fn fast_and_generic_hash_paths_agree_for_all_value_types() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Long(-3),
            Value::Double(2.25),
            Value::Text("hello world, longer than eight bytes".into()),
        ];
        for v in values {
            let r = Record::new(vec![v.clone()]);
            // hash_key's fast path (longs) and generic path must agree with
            // hash_values for every type.
            assert_eq!(hash_key(&r, &[0]), hash_values(std::slice::from_ref(&v)));
        }
    }

    #[test]
    fn partitioning_is_within_bounds_and_deterministic() {
        for v in 0..1000i64 {
            let r = Record::pair(v, 0);
            let p = partition_for(&r, &[0], 7);
            assert!(p < 7);
            assert_eq!(p, partition_for(&r, &[0], 7));
        }
    }

    #[test]
    fn fx_partitioning_spreads_sequential_keys() {
        // Sequential vertex ids must not all land in one partition.
        let mut counts = [0usize; 8];
        for v in 0..10_000i64 {
            counts[partition_for(&Record::pair(v, 0), &[0], 8)] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                c > 500 && c < 3000,
                "partition {p} got {c} of 10000 sequential keys: {counts:?}"
            );
        }
    }

    #[test]
    fn fx_hashmap_round_trips_keys() {
        let mut map: FxHashMap<Key, i64> = FxHashMap::default();
        for v in 0..100 {
            map.insert(Key::long(v), v * 2);
        }
        map.insert(
            Key::from_values(vec![Value::Long(1), Value::Text("x".into())]),
            -1,
        );
        for v in 0..100 {
            assert_eq!(map[&Key::long(v)], v * 2);
            // Lookup through the composite representation must hit the same
            // entry.
            assert_eq!(
                map[&Key::Composite(vec![Value::Long(v)].into_boxed_slice())],
                v * 2
            );
        }
    }
}
