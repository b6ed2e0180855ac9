//! Blocks: maximal sets of key-equal facts.
//!
//! Section 3: *"A block of `db` is a maximal set of key-equal facts of `db`.
//! [...] An uncertain database `db` is consistent if it does not contain two
//! distinct facts that are key-equal (i.e., if every block of `db` is a
//! singleton)."*
//!
//! Probabilistically (Section 7), the facts of one block are *disjoint*
//! (exclusive) events, while facts of distinct blocks are independent.

use crate::{Fact, RelationId, Value};

/// A maximal set of key-equal facts.
///
/// Beside its facts a block remembers the relation-local **row** each one
/// is stored at (the store's secondary structures address facts by row) and
/// the hash its key is filed under in the relation's key map.
#[derive(Clone, Debug)]
pub struct Block {
    relation: RelationId,
    key_len: usize,
    pub(crate) hash: u64,
    facts: Vec<Fact>,
    rows: Vec<u32>,
}

impl Block {
    /// A block holding its first fact, stored at `row`.
    pub(crate) fn new(key_len: usize, hash: u64, fact: Fact, row: u32) -> Self {
        Block {
            relation: fact.relation(),
            key_len,
            hash,
            facts: vec![fact],
            rows: vec![row],
        }
    }

    pub(crate) fn push(&mut self, fact: Fact, row: u32) {
        self.facts.push(fact);
        self.rows.push(row);
    }

    /// Removes the fact at `at` (block order is preserved), returning it
    /// with the row it was stored at.
    pub(crate) fn remove(&mut self, at: usize) -> (Fact, u32) {
        (self.facts.remove(at), self.rows.remove(at))
    }

    /// Records that the fact stored at row `from` now lives at row `to`.
    pub(crate) fn move_row(&mut self, from: u32, to: u32) {
        let at = self
            .rows
            .iter()
            .position(|&row| row == from)
            .expect("a moved row belongs to the block of its fact");
        self.rows[at] = to;
    }

    /// The rows the facts are stored at, in fact order.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The position of `fact` inside the block, if present.
    pub(crate) fn position(&self, fact: &Fact) -> Option<usize> {
        self.facts.iter().position(|f| f == fact)
    }

    /// The relation all facts of this block belong to.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The shared primary-key value of the block.
    pub fn key(&self) -> &[Value] {
        &self.facts[0].values()[..self.key_len]
    }

    /// The facts of the block (at least one; more than one iff the block
    /// witnesses a primary-key violation).
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// Number of facts in the block.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True iff the block is empty (only transiently, during removal).
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// True iff the block is a singleton, i.e. consistent.
    pub fn is_singleton(&self) -> bool {
        self.facts.len() == 1
    }

    /// True iff the block contains the given fact.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    #[test]
    fn blocks_track_facts_and_their_rows() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap();
        let r = schema.relation_id("R").unwrap();
        let f = Fact::new(r, vec![Value::str("a"), Value::str("b")]);
        let g = Fact::new(r, vec![Value::str("a"), Value::str("c")]);
        let mut block = Block::new(1, 0, f.clone(), 4);
        assert!(block.is_singleton());
        assert_eq!(block.key(), &[Value::str("a")]);
        block.push(g.clone(), 9);
        assert_eq!(block.len(), 2);
        assert!(block.contains(&g));
        block.move_row(9, 2);
        assert_eq!(block.position(&f), Some(0));
        assert_eq!(block.remove(0), (f.clone(), 4));
        assert_eq!(block.remove(0), (g, 2));
        assert!(block.is_empty());
        assert_eq!(block.position(&f), None);
    }
}
