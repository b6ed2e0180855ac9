//! Mutation deltas: what a write changed, for whoever maintains something
//! derived from the database.
//!
//! The database itself keeps no log — every mutation patches its own
//! secondary structures in the same step (see [`crate::DatabaseIndex`]).
//! A [`ChangeSet`] is recorded *beside* the mutations by a caller that
//! maintains state of its own from them: the server's write path fills one
//! per write and hands it to `cqa-stream`'s view maintainer, which repairs
//! the materialized views touched by exactly those facts.

use crate::Fact;

/// One recorded mutation of an [`UncertainDatabase`].
///
/// [`UncertainDatabase`]: crate::UncertainDatabase
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// A fact that was not present was inserted.
    Inserted(Fact),
    /// A present fact was removed.
    Removed {
        /// The removed fact.
        fact: Fact,
        /// True iff the removal emptied the fact's block, so the block
        /// itself disappeared.
        emptied_block: bool,
    },
}

/// The net effect of the recorded mutations: which facts were inserted,
/// which were removed, and whether any block disappeared.
///
/// Recording *nets out* transient facts: removing a fact that was itself
/// inserted earlier in the changeset cancels the insertion instead of
/// growing the log. A base fact that is removed and later re-inserted stays
/// in **both** lists.
#[derive(Clone, Debug, Default)]
pub struct ChangeSet {
    inserted: Vec<Fact>,
    removed: Vec<Fact>,
    block_removed: bool,
}

impl ChangeSet {
    /// An empty changeset.
    pub fn new() -> Self {
        ChangeSet::default()
    }

    /// Records one mutation.
    pub fn record(&mut self, delta: Delta) {
        match delta {
            Delta::Inserted(fact) => self.inserted.push(fact),
            Delta::Removed {
                fact,
                emptied_block,
            } => {
                self.block_removed |= emptied_block;
                // A fact inserted and removed again nets out entirely.
                if let Some(pos) = self.inserted.iter().position(|f| *f == fact) {
                    self.inserted.swap_remove(pos);
                } else {
                    self.removed.push(fact);
                }
            }
        }
    }

    /// Facts inserted by the recorded mutations (absent before them).
    pub fn inserted(&self) -> &[Fact] {
        &self.inserted
    }

    /// Facts removed by the recorded mutations (present before them).
    pub fn removed(&self) -> &[Fact] {
        &self.removed
    }

    /// True iff some removal emptied (and thus removed) a whole block.
    pub fn any_block_removed(&self) -> bool {
        self.block_removed
    }

    /// The delta volume: number of recorded insertions plus removals.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }

    /// Forgets all recorded mutations.
    pub fn clear(&mut self) {
        self.inserted.clear();
        self.removed.clear();
        self.block_removed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RelationId, Value};

    fn fact(a: &str, b: &str) -> Fact {
        Fact::new(
            RelationId::from_index(0),
            vec![Value::str(a), Value::str(b)],
        )
    }

    #[test]
    fn insert_then_remove_nets_out() {
        let mut cs = ChangeSet::new();
        cs.record(Delta::Inserted(fact("a", "b")));
        assert_eq!(cs.len(), 1);
        cs.record(Delta::Removed {
            fact: fact("a", "b"),
            emptied_block: false,
        });
        assert!(cs.is_empty());
        assert!(cs.inserted().is_empty() && cs.removed().is_empty());
    }

    #[test]
    fn remove_then_reinsert_keeps_both_sides() {
        let mut cs = ChangeSet::new();
        cs.record(Delta::Removed {
            fact: fact("a", "b"),
            emptied_block: true,
        });
        cs.record(Delta::Inserted(fact("a", "b")));
        assert_eq!(cs.removed().len(), 1);
        assert_eq!(cs.inserted().len(), 1);
        assert_eq!(cs.len(), 2);
        assert!(cs.any_block_removed());
        cs.clear();
        assert!(cs.is_empty());
        assert!(!cs.any_block_removed());
    }
}
