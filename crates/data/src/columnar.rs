//! The dictionary-encoded (columnar) side of the store.
//!
//! The row-at-a-time executors in `cqa-exec` spend their time hashing and
//! cloning [`Value`]s; the vectorized executor and every
//! [`crate::PositionIndex`] work on **dense codes** instead:
//!
//! * a [`Dictionary`] interns values as `u32` codes. It is append-only and
//!   reference-counted: a live value's code never changes, and a code whose
//!   last occurrence is removed is recycled, so churn cannot grow it. Codes
//!   carry **no order** — the executor needs code *equality* only; the
//!   sorted view is [`crate::DatabaseIndex::active_domain`];
//! * [`RelationColumns`] stores, per relation, the code of every cell, with
//!   row `r` the fact [`crate::DatabaseIndex::fact`]`(relation, r)`.
//!
//! Like every secondary structure of the store, the columnar view is built
//! on first demand ([`crate::DatabaseIndex::columnar`]) and from then on
//! maintained by each mutation, copy-on-write.

use crate::cow::{CowMap, CowVec, DeepVec};
use crate::{DatabaseIndex, FxHashMap, RelationId, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The hash a value is filed under in the dictionary and, combined over the
/// key positions, in a relation's key map.
pub(crate) fn value_hash(value: &Value) -> u64 {
    let mut hasher = rustc_hash::FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// One code of the dictionary: a live value with its number of occurrences
/// over all fact positions, or — `count == 0` — a link of the free list
/// (`value` is then the next free code as an integer).
#[derive(Clone)]
struct Slot {
    value: Value,
    count: u32,
}

/// End of the dictionary's free list.
const NO_FREE_CODE: u32 = u32::MAX;

/// Dense codes for the values occurring in the database.
///
/// A value outside the active domain has no code; probe compilation maps
/// such constants to an always-empty bucket (no fact can carry them).
#[derive(Clone)]
pub struct Dictionary {
    slots: DeepVec<Slot>,
    /// Value hash → the codes filed under it (checked against `slots`).
    lookup: CowMap,
    /// Head of the free list threaded through the dead slots.
    free: u32,
    live: usize,
}

impl Dictionary {
    /// A dictionary whose code `i` is `values[i]`, occurring `counts[i]`
    /// times; the values must be distinct. Values that never occur start on
    /// the free list.
    pub(crate) fn from_values(values: Vec<Value>, counts: &[u32]) -> Self {
        let mut free = NO_FREE_CODE;
        let mut lookup = Vec::with_capacity(values.len());
        let mut slots = Vec::with_capacity(values.len());
        for (code, (value, &count)) in values.into_iter().zip(counts).enumerate() {
            if count == 0 {
                slots.push(Slot {
                    value: Value::Int(i64::from(free)),
                    count,
                });
                free = code as u32;
            } else {
                lookup.push((value_hash(&value), code as u32));
                slots.push(Slot { value, count });
            }
        }
        Dictionary {
            live: lookup.len(),
            slots: DeepVec::from_vec(slots),
            lookup: CowMap::from_entries(lookup),
            free,
        }
    }

    /// The code of `value`, or `None` when it is outside the active domain.
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        self.lookup
            .get(value_hash(value))
            .iter()
            .copied()
            .find(|&code| self.slots[code as usize].value == *value)
    }

    /// The value a live code decodes to.
    pub fn value(&self, code: u32) -> &Value {
        &self.slots[code as usize].value
    }

    /// Number of coded values (= active-domain size).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff the active domain is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of code slots ever allocated: the live codes plus the free
    /// list. Bounded by the largest active domain the database ever had.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The live codes with their values, in code order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u32, &Value)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.count > 0)
            .map(|(code, slot)| (code as u32, &slot.value))
    }

    /// Counts one more occurrence of `value`, coding it first if new.
    pub(crate) fn intern(&mut self, value: &Value) -> u32 {
        if let Some(code) = self.code_of(value) {
            self.slots.get_mut(code as usize).count += 1;
            return code;
        }
        let slot = Slot {
            value: value.clone(),
            count: 1,
        };
        let code = if self.free == NO_FREE_CODE {
            self.slots.push(slot);
            self.slots.len() as u32 - 1
        } else {
            let code = self.free;
            let dead = std::mem::replace(self.slots.get_mut(code as usize), slot);
            self.free = dead
                .value
                .as_int()
                .expect("a dead slot links the free list") as u32;
            code
        };
        self.lookup.insert(value_hash(value), code);
        self.live += 1;
        code
    }

    /// Forgets one occurrence of `code`, recycling it after the last.
    pub(crate) fn release(&mut self, code: u32) {
        let slot = self.slots.get_mut(code as usize);
        slot.count -= 1;
        if slot.count == 0 {
            let value = std::mem::replace(&mut slot.value, Value::Int(i64::from(self.free)));
            self.free = code;
            self.lookup.remove(value_hash(&value), code);
            self.live -= 1;
        }
    }

    /// Number of chunks and shards `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared(&self, other: &Self) -> usize {
        self.slots.unshared(&other.slots) + self.lookup.unshared(&other.lookup)
    }
}

/// The dictionary codes of one relation: `code(p, r)` is the code of the
/// value at position `p` of the relation's `r`-th fact.
///
/// Cells are stored row by row — both executors read several positions of
/// one candidate row together, and a write then touches one array, not one
/// per position — each row padded to a power of two so that it never
/// straddles two chunks and [`RelationColumns::row`] is one slice.
#[derive(Clone)]
pub struct RelationColumns {
    codes: CowVec<u32>,
    arity: usize,
    /// log2 of the padded row width.
    stride: u32,
}

impl RelationColumns {
    /// The codes of `cells` (row-major, `arity` per row).
    fn from_cells(cells: impl ExactSizeIterator<Item = u32>, arity: usize) -> Self {
        let stride = arity.next_power_of_two().trailing_zeros();
        let mut padded = Vec::with_capacity((cells.len() / arity) << stride);
        for (i, code) in cells.enumerate() {
            padded.push(code);
            if (i + 1) % arity == 0 {
                padded.resize(padded.len().next_multiple_of(1 << stride), 0);
            }
        }
        RelationColumns {
            // A chunk holds whole rows.
            codes: CowVec::with_chunks_of(padded, stride.max(5)),
            arity,
            stride,
        }
    }

    /// The codes of the relation's `row`-th fact, in position order.
    #[inline]
    pub fn row(&self, row: usize) -> &[u32] {
        self.codes.run(row << self.stride, self.arity)
    }

    /// The code at attribute `position` of the relation's `row`-th fact.
    #[inline]
    pub fn code(&self, position: usize, row: usize) -> u32 {
        self.row(row)[position]
    }

    /// Number of rows (= facts of the relation).
    pub fn row_count(&self) -> usize {
        self.codes.len() >> self.stride
    }

    pub(crate) fn push_row(&mut self, codes: &[u32]) {
        for at in 0..1 << self.stride {
            self.codes.push(codes.get(at).copied().unwrap_or(0));
        }
    }

    /// Removes `row` by moving the last row into its place.
    pub(crate) fn swap_remove_row(&mut self, row: usize) {
        let last = self.row_count() - 1;
        for at in (0..1 << self.stride).rev() {
            let moved = self.codes.pop().expect("the last row is stored");
            if row != last {
                *self.codes.get_mut((row << self.stride) + at) = moved;
            }
        }
    }

    /// Number of chunks `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared(&self, other: &Self) -> usize {
        self.codes.unshared(&other.codes)
    }
}

/// The columnar view of the whole database: the dictionary plus one
/// [`RelationColumns`] per relation.
#[derive(Clone)]
pub struct Columnar {
    pub(crate) dictionary: Arc<Dictionary>,
    pub(crate) relations: Vec<Arc<RelationColumns>>,
}

impl Columnar {
    /// Codes every fact of `index` from scratch.
    pub(crate) fn build(index: &DatabaseIndex) -> Self {
        let mut codes: FxHashMap<&Value, u32> = FxHashMap::default();
        let mut values: Vec<Value> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let relations = (0..index.relation_count())
            .map(|rel| {
                let rel = RelationId::from_index(rel);
                let arity = index.arity(rel);
                let mut cells = Vec::with_capacity(index.row_count(rel) * arity);
                for fact in index.relation_facts(rel) {
                    for value in fact.values() {
                        let code = *codes.entry(value).or_insert_with(|| {
                            values.push(value.clone());
                            counts.push(0);
                            values.len() as u32 - 1
                        });
                        counts[code as usize] += 1;
                        cells.push(code);
                    }
                }
                Arc::new(RelationColumns::from_cells(cells.into_iter(), arity))
            })
            .collect();
        Columnar {
            dictionary: Arc::new(Dictionary::from_values(values, &counts)),
            relations,
        }
    }

    /// Wraps the decoded code columns (one per position, equally long) of
    /// one relation.
    pub(crate) fn relation_from(columns: &[Vec<u32>]) -> Arc<RelationColumns> {
        let cells: Vec<u32> = (0..columns[0].len())
            .flat_map(|row| columns.iter().map(move |column| column[row]))
            .collect();
        Arc::new(RelationColumns::from_cells(
            cells.into_iter(),
            columns.len(),
        ))
    }

    /// The dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The code columns of one relation.
    pub fn relation(&self, relation: RelationId) -> &RelationColumns {
        &self.relations[relation.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, UncertainDatabase};

    fn db() -> UncertainDatabase {
        let schema = Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("C", ["PODS", "2016", "Rome"]).unwrap();
        db.insert_values("C", ["PODS", "2016", "Paris"]).unwrap();
        db.insert_values("C", ["KDD", "2017", "Rome"]).unwrap();
        db.insert_values("R", ["PODS", "A"]).unwrap();
        db.insert_values("R", ["KDD", "A"]).unwrap();
        db.insert_values("R", ["KDD", "B"]).unwrap();
        db
    }

    #[test]
    fn dictionary_codes_round_trip() {
        let db = db();
        let index = db.index();
        let dict = index.columnar().dictionary();
        assert_eq!(dict.len(), index.active_domain().len());
        assert!(!dict.is_empty());
        for value in index.active_domain() {
            let code = dict.code_of(value).unwrap();
            assert_eq!(dict.value(code), value);
        }
        assert_eq!(dict.code_of(&Value::str("not-there")), None);
    }

    #[test]
    fn dead_codes_are_recycled() {
        let mut dict = Dictionary::from_values(vec![Value::str("a"), Value::str("b")], &[1, 0]);
        assert_eq!((dict.len(), dict.slot_count()), (1, 2));
        assert_eq!(dict.code_of(&Value::str("b")), None);
        assert_eq!(dict.intern(&Value::str("c")), 1, "the dead slot is reused");
        assert_eq!(dict.intern(&Value::str("a")), 0);
        assert_eq!(dict.intern(&Value::str("d")), 2);
        dict.release(0);
        assert_eq!(
            dict.code_of(&Value::str("a")),
            Some(0),
            "one occurrence left"
        );
        dict.release(0);
        dict.release(1);
        assert_eq!((dict.len(), dict.slot_count()), (1, 3));
        assert_eq!(dict.code_of(&Value::str("a")), None);
        // Last freed, first reused.
        assert_eq!(dict.intern(&Value::str("e")), 1);
        assert_eq!(dict.intern(&Value::str("f")), 0);
        assert_eq!(dict.live().count(), 3);
    }

    #[test]
    fn columns_align_with_rows() {
        let db = db();
        let index = db.index();
        let columnar = index.columnar();
        let dict = columnar.dictionary();
        for (rel, relation) in db.schema().iter() {
            let cols = columnar.relation(rel);
            assert_eq!(cols.row_count(), index.row_count(rel));
            for row in 0..cols.row_count() {
                let fact = index.fact(rel, row as u32);
                for pos in 0..relation.arity() {
                    assert_eq!(dict.value(cols.code(pos, row)), fact.value(pos));
                }
            }
        }
    }
}
