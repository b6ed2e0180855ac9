//! Mutation deltas: the change log that makes index maintenance incremental.
//!
//! Every mutation of an [`UncertainDatabase`] that actually changes the fact
//! set is recorded as a [`Delta`] in the database's pending [`ChangeSet`] —
//! but only while a cached [`DatabaseIndex`] snapshot exists, because the log
//! has exactly one consumer: [`DatabaseIndex::apply_delta`], which patches
//! the previous snapshot (fact lists, block lists, hash buckets, statistics,
//! active domain, columnar view) instead of rebuilding it from scratch.
//!
//! The log is bounded: past a configurable **delta-volume threshold** the
//! cached snapshot is dropped and the next [`UncertainDatabase::index`] call
//! performs a full rebuild (counted as `data.index.delta_fallback_rebuild`).
//! Patching wins when the change is small relative to the database — the
//! serving-under-writes case — while bulk rewrites (purification, `retain`)
//! quickly trip the threshold and fall back to the one rebuild they would
//! have paid anyway.
//!
//! [`UncertainDatabase`]: crate::UncertainDatabase
//! [`UncertainDatabase::index`]: crate::UncertainDatabase::index
//! [`DatabaseIndex`]: crate::DatabaseIndex
//! [`DatabaseIndex::apply_delta`]: crate::DatabaseIndex::apply_delta

use crate::Fact;

/// Delta-volume threshold: pending changesets larger than this drop the
/// cached index instead of patching it. Tests override it per database via
/// [`UncertainDatabase::set_delta_threshold`].
///
/// [`UncertainDatabase::set_delta_threshold`]: crate::UncertainDatabase::set_delta_threshold
pub const DEFAULT_DELTA_THRESHOLD: usize = 256;

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
        /// True iff the removal emptied the fact's block, which removes the
        /// block by `swap_remove` and therefore **reorders block ids** —
        /// the structural event that forces [`DatabaseIndex::apply_delta`]
        /// onto its general (hash-matching) id-remapping path.
        ///
        /// [`DatabaseIndex::apply_delta`]: crate::DatabaseIndex::apply_delta
        emptied_block: bool,
    },
}

/// The net effect of the mutations recorded since a cached index snapshot
/// was built: which facts were inserted, which were removed, and whether any
/// block disappeared (reordering block ids).
///
/// Recording *nets out* transient facts: removing a fact that was itself
/// inserted after the snapshot cancels the insertion instead of growing the
/// log. A base fact that is removed and later re-inserted stays in **both**
/// lists — the snapshot's copy and the re-inserted copy are distinct
/// allocations, and the patcher tracks facts by allocation identity.
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
                // A fact inserted after the snapshot and removed again nets
                // out entirely: the snapshot never saw it.
                if let Some(pos) = self.inserted.iter().position(|f| *f == fact) {
                    self.inserted.swap_remove(pos);
                } else {
                    self.removed.push(fact);
                }
            }
        }
    }

    /// Facts inserted since the snapshot (absent from it).
    pub fn inserted(&self) -> &[Fact] {
        &self.inserted
    }

    /// Facts removed since the snapshot (present in it).
    pub fn removed(&self) -> &[Fact] {
        &self.removed
    }

    /// True iff some removal emptied (and thus removed) a whole block.
    pub fn any_block_removed(&self) -> bool {
        self.block_removed
    }

    /// The delta volume: number of recorded insertions plus removals. This
    /// is what the fallback threshold is compared against.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }

    /// True iff nothing was recorded (the cached snapshot is current).
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
