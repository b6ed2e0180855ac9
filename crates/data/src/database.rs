//! Uncertain databases and their block structure.

use crate::index::DatabaseIndex;
use crate::{Block, DataError, Fact, RelationId, RepairIter, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An **uncertain database**: a finite set of facts over a fixed schema in
/// which primary keys need not be satisfied (Section 3 of the paper).
///
/// The database maintains its block structure incrementally: every fact
/// belongs to exactly one [`Block`] (the maximal set of key-equal facts), and
/// a repair is obtained by picking one fact from every block.
///
/// It is a **persistent value**: all storage sits behind one shared,
/// copy-on-write [`DatabaseIndex`], so `clone()` — and with it
/// [`UncertainDatabase::snapshot`] — costs a reference count, a mutation
/// copies only the chunks it touches, and the clone keeps reading what it
/// was cloned from.
///
/// ```
/// use cqa_data::{Schema, UncertainDatabase, Value};
///
/// let schema = Schema::from_relations([("C", 3, 2), ("R", 2, 1)]).unwrap().into_shared();
/// let mut db = UncertainDatabase::new(schema);
/// db.insert_values("C", ["PODS", "2016", "Rome"]).unwrap();
/// db.insert_values("C", ["PODS", "2016", "Paris"]).unwrap();
/// db.insert_values("C", ["KDD", "2017", "Rome"]).unwrap();
/// db.insert_values("R", ["PODS", "A"]).unwrap();
/// db.insert_values("R", ["KDD", "A"]).unwrap();
/// db.insert_values("R", ["KDD", "B"]).unwrap();
///
/// assert_eq!(db.fact_count(), 6);
/// assert_eq!(db.block_count(), 4);
/// assert!(!db.is_consistent());
/// assert_eq!(db.repair_count(), Some(4)); // Figure 1: four repairs
/// ```
#[derive(Clone)]
pub struct UncertainDatabase {
    store: Arc<DatabaseIndex>,
}

impl UncertainDatabase {
    /// Creates an empty database over the given schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        UncertainDatabase::from_store(DatabaseIndex::new(schema))
    }

    pub(crate) fn from_store(store: DatabaseIndex) -> Self {
        UncertainDatabase {
            store: Arc::new(store),
        }
    }

    /// The storage of the current contents with its secondary indexes (see
    /// [`DatabaseIndex`]): a handle, not a copy — nothing is built or
    /// flushed, and what a reader builds through it this database inherits.
    pub fn index(&self) -> Arc<DatabaseIndex> {
        self.store.clone()
    }

    pub(crate) fn store(&self) -> &Arc<DatabaseIndex> {
        &self.store
    }

    /// The mutation epoch: a counter bumped by every *effective* mutation
    /// (no-ops — duplicate inserts, removals of absent facts — leave it
    /// untouched). Two equal epochs of the same database lineage (the
    /// original and its clones/snapshots) denote identical contents, so
    /// readers holding a [`crate::Snapshot`] can detect staleness with one
    /// integer compare instead of a diff.
    pub fn epoch(&self) -> u64 {
        self.store.epoch
    }

    /// Freezes the current contents into a [`crate::Snapshot`]: an
    /// immutable, `Send + Sync` handle for sharing with worker threads while
    /// this database keeps mutating.
    pub fn snapshot(&self) -> crate::Snapshot {
        crate::Snapshot::new(self)
    }

    /// Builds a database from an iterator of facts.
    pub fn from_facts(
        schema: Arc<Schema>,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Self, DataError> {
        let mut db = UncertainDatabase::new(schema);
        for fact in facts {
            db.insert(fact)?;
        }
        Ok(db)
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.store.schema
    }

    /// The hash `fact`'s block is filed under and, if it exists, the block's
    /// position in its relation's block list.
    fn locate(&self, fact: &Fact) -> (u64, Option<u32>) {
        self.store.relations[fact.relation().index()].locate(fact.key(&self.store.schema))
    }

    /// Inserts a fact. Returns `Ok(true)` if the fact was new, `Ok(false)` if
    /// it was already present (set semantics), and an error on arity mismatch.
    pub fn insert(&mut self, fact: Fact) -> Result<bool, DataError> {
        let rel = self.store.schema.relation(fact.relation());
        if fact.arity() != rel.arity() {
            return Err(DataError::ArityMismatch {
                relation: rel.name.clone(),
                expected: rel.arity(),
                actual: fact.arity(),
            });
        }
        let key_len = rel.key_len();
        let relation = fact.relation().index();
        let (hash, block) = self.locate(&fact);
        if block.is_some_and(|b| self.store.relations[relation].blocks[b as usize].contains(&fact))
        {
            // Re-inserting a present fact is a pure no-op: nothing is
            // copied and the epoch does not move.
            return Ok(false);
        }
        let store = Arc::make_mut(&mut self.store);
        store.catch_up();
        let data = Arc::make_mut(&mut store.relations[relation]);
        let row = data.facts.len() as u32;
        data.facts.push(fact.clone());
        match block {
            Some(block) => {
                let block = Arc::make_mut(data.blocks.get_mut(block as usize));
                block.push(fact.clone(), row);
                store.violated_blocks += usize::from(block.len() == 2);
            }
            None => {
                data.keys.insert(hash, data.blocks.len() as u32);
                data.blocks
                    .push(Arc::new(Block::new(key_len, hash, fact.clone(), row)));
                store.block_count += 1;
            }
        }
        store.fact_count += 1;
        store.patch_inserted(&fact, row);
        Ok(true)
    }

    /// Convenience insertion by relation name and values.
    pub fn insert_values<V: Into<Value>>(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Result<bool, DataError> {
        let rel = self.store.schema.require(relation)?;
        let values: Vec<Value> = values.into_iter().map(Into::into).collect();
        self.insert(Fact::new(rel, values))
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.store.fact_count
    }

    /// True iff the database contains no facts.
    pub fn is_empty(&self) -> bool {
        self.store.fact_count == 0
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.store.block_count
    }

    /// Iterates over all facts, relation by relation in row order.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> {
        self.store
            .relations
            .iter()
            .flat_map(|data| data.facts.iter())
    }

    /// Iterates over all facts of one relation.
    pub fn relation_facts(&self, relation: RelationId) -> impl Iterator<Item = &Fact> {
        self.store.relation_facts(relation)
    }

    /// Iterates over all blocks, relation by relation.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.store
            .relations
            .iter()
            .flat_map(|data| data.blocks.iter())
            .map(|block| &**block)
    }

    /// Iterates over the blocks of one relation.
    pub fn blocks_of(&self, relation: RelationId) -> impl Iterator<Item = &Block> {
        self.store.relation_blocks(relation)
    }

    /// Returns the block (`block(A, db)` in the paper) containing a fact, if present.
    pub fn block_of(&self, fact: &Fact) -> Option<&Block> {
        let block = self.block_with_key(fact.relation(), fact.key(&self.store.schema))?;
        block.contains(fact).then_some(block)
    }

    /// Returns the block with the given relation and key value, if any.
    pub fn block_with_key(&self, relation: RelationId, key: &[Value]) -> Option<&Block> {
        self.store.block_with_key(relation, key)
    }

    /// True iff the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.block_of(fact).is_some()
    }

    /// Consistency (Section 3): every block is a singleton.
    pub fn is_consistent(&self) -> bool {
        self.store.violated_blocks == 0
    }

    /// The active domain: every constant appearing in some fact.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.store.active_domain().iter().cloned().collect()
    }

    /// Number of repairs, i.e. the product of all block sizes.
    /// Returns `None` if the product overflows `u128`.
    pub fn repair_count(&self) -> Option<u128> {
        let mut count: u128 = 1;
        for b in self.blocks() {
            count = count.checked_mul(b.len() as u128)?;
        }
        Some(count)
    }

    /// Base-2 logarithm of the number of repairs (useful for reporting the
    /// size of the repair space when it overflows `u128`).
    pub fn repair_count_log2(&self) -> f64 {
        self.blocks().map(|b| (b.len() as f64).log2()).sum()
    }

    /// Iterates over **all repairs** of the database.
    ///
    /// Each item is a consistent [`UncertainDatabase`] obtained by selecting
    /// one fact from every block. The number of repairs is exponential in the
    /// number of inconsistent blocks; this iterator is intended for small
    /// instances, tests and the brute-force oracle.
    pub fn repairs(&self) -> RepairIter<'_> {
        RepairIter::new(self)
    }

    /// Builds the repair obtained by choosing, for every block, the fact
    /// selected by `choose(block)`.
    pub fn repair_by<F>(&self, mut choose: F) -> UncertainDatabase
    where
        F: FnMut(&Block) -> usize,
    {
        let facts = self.blocks().map(|b| {
            let i = choose(b).min(b.len().saturating_sub(1));
            b.facts()[i].clone()
        });
        UncertainDatabase::from_facts(self.schema().clone(), facts.collect::<Vec<_>>())
            .expect("facts of a database are schema-valid")
    }

    /// Removes the entire block containing `fact` (used by purification,
    /// Lemma 1). Returns `true` if a block was removed. The epoch moves once
    /// per fact of the block.
    pub fn remove_block_of(&mut self, fact: &Fact) -> bool {
        let (_, Some(block)) = self.locate(fact) else {
            return false;
        };
        let relation = fact.relation();
        let members = self.store.relations[relation.index()].blocks[block as usize].len();
        // The block keeps its position until its last removal detaches it.
        for _ in 0..members {
            self.remove_at(relation, block, 0);
        }
        true
    }

    /// Removes a single fact; if its block becomes empty the block disappears.
    /// Returns `true` if the fact was present.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        let (_, Some(block)) = self.locate(fact) else {
            return false;
        };
        let relation = fact.relation();
        let Some(at) = self.store.relations[relation.index()].blocks[block as usize].position(fact)
        else {
            // The key exists but the fact does not: a no-op that copies
            // nothing and leaves the epoch untouched.
            return false;
        };
        self.remove_at(relation, block, at);
        true
    }

    /// Removes the `at`-th fact of the block at position `block` of its
    /// relation's block list: the block shrinks (and is detached when
    /// emptied, the relation's last block taking its position), and the
    /// relation's last row moves into the freed one.
    fn remove_at(&mut self, relation: RelationId, block: u32, at: usize) {
        let store = Arc::make_mut(&mut self.store);
        store.catch_up();
        let data = Arc::make_mut(&mut store.relations[relation.index()]);
        let shrunk = Arc::make_mut(data.blocks.get_mut(block as usize));
        let (_, row) = shrunk.remove(at);
        match shrunk.len() {
            0 => {
                let last = data.blocks.len() as u32 - 1;
                let emptied = data.blocks.swap_remove(block as usize);
                data.keys.remove(emptied.hash, block);
                if block != last {
                    let moved = data.blocks[block as usize].hash;
                    data.keys.remove(moved, last);
                    data.keys.insert(moved, block);
                }
                store.block_count -= 1;
            }
            1 => store.violated_blocks -= 1,
            _ => {}
        }
        let last = data.facts.len() as u32 - 1;
        data.facts.swap_remove(row as usize);
        if row != last {
            let moved = data.facts[row as usize].clone();
            let owner =
                (data.locate(moved.key(&store.schema)).1).expect("a stored fact has a block");
            Arc::make_mut(data.blocks.get_mut(owner as usize)).move_row(last, row);
        }
        store.fact_count -= 1;
        store.patch_removed(relation, row, last);
    }

    /// Keeps only the facts satisfying the predicate.
    pub fn retain_facts<F>(&mut self, mut keep: F)
    where
        F: FnMut(&Fact) -> bool,
    {
        let doomed: Vec<Fact> = self.facts().filter(|f| !keep(f)).cloned().collect();
        for fact in doomed {
            self.remove_fact(&fact);
        }
    }

    /// Returns a new database with the same schema containing the given facts.
    pub fn with_facts(&self, facts: impl IntoIterator<Item = Fact>) -> UncertainDatabase {
        UncertainDatabase::from_facts(self.schema().clone(), facts)
            .expect("facts of a database are schema-valid")
    }

    /// Set union of two databases over the same schema.
    pub fn union(&self, other: &UncertainDatabase) -> Result<UncertainDatabase, DataError> {
        if !Arc::ptr_eq(self.schema(), other.schema()) && **self.schema() != **other.schema() {
            return Err(DataError::SchemaMismatch);
        }
        let mut db = self.clone();
        for fact in other.facts() {
            db.insert(fact.clone())?;
        }
        Ok(db)
    }

    /// True iff `self` is a subset of `other`.
    pub fn is_subset_of(&self, other: &UncertainDatabase) -> bool {
        self.facts().all(|f| other.contains(f))
    }

    /// All facts, sorted, for deterministic display and comparisons.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut facts: Vec<Fact> = self.facts().cloned().collect();
        facts.sort();
        facts
    }
}

impl PartialEq for UncertainDatabase {
    fn eq(&self, other: &Self) -> bool {
        **self.schema() == **other.schema()
            && self.fact_count() == other.fact_count()
            && self.facts().all(|f| other.contains(f))
    }
}

impl Eq for UncertainDatabase {}

impl fmt::Debug for UncertainDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UncertainDatabase({} facts)", self.fact_count())
    }
}

impl fmt::Display for UncertainDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fact in self.sorted_facts() {
            writeln!(f, "{}", fact.display(self.schema()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conference-planning database of Figure 1.
    fn figure1() -> UncertainDatabase {
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
    fn figure1_has_four_repairs() {
        let db = figure1();
        assert_eq!(db.fact_count(), 6);
        assert_eq!(db.block_count(), 4);
        assert!(!db.is_consistent());
        assert_eq!(db.repair_count(), Some(4));
        assert_eq!(db.repairs().count(), 4);
        for repair in db.repairs() {
            assert!(repair.is_consistent());
            assert!(repair.is_subset_of(&db));
            assert_eq!(repair.block_count(), db.block_count());
        }
    }

    #[test]
    fn duplicate_facts_are_ignored() {
        let mut db = figure1();
        let n = db.fact_count();
        assert!(!db.insert_values("R", ["KDD", "B"]).unwrap());
        assert_eq!(db.fact_count(), n);
    }

    #[test]
    fn no_op_mutations_copy_nothing_and_keep_the_epoch() {
        let mut db = figure1();
        let frozen = db.index();
        let epoch = db.epoch();
        let r = db.schema().relation_id("R").unwrap();
        // Re-inserting a present fact.
        assert!(!db.insert_values("R", ["KDD", "B"]).unwrap());
        // Removing an absent fact (existing block, absent alternative).
        assert!(!db.remove_fact(&Fact::new(r, vec![Value::str("KDD"), Value::str("C")])));
        // Removing an absent fact of an absent block.
        assert!(!db.remove_fact(&Fact::new(r, vec![Value::str("ICDT"), Value::str("A")])));
        // Removing the block of a fact whose key has no block.
        assert!(!db.remove_block_of(&Fact::new(r, vec![Value::str("ICDT"), Value::str("A")])));
        // None of the above unshared the storage or moved the epoch.
        assert!(Arc::ptr_eq(&frozen, &db.index()));
        assert_eq!(db.epoch(), epoch);
    }

    #[test]
    fn arity_is_validated() {
        let mut db = figure1();
        assert!(db.insert_values("R", ["KDD"]).is_err());
        assert!(db.insert_values("Nope", ["x"]).is_err());
    }

    #[test]
    fn block_lookup_and_membership() {
        let db = figure1();
        let schema = db.schema().clone();
        let c = schema.relation_id("C").unwrap();
        let pods_block = db
            .block_with_key(c, &[Value::str("PODS"), Value::str("2016")])
            .unwrap();
        assert_eq!(pods_block.len(), 2);
        let fact = Fact::new(
            c,
            vec![Value::str("PODS"), Value::str("2016"), Value::str("Rome")],
        );
        assert!(db.contains(&fact));
        assert_eq!(db.block_of(&fact).unwrap().len(), 2);
        let absent = Fact::new(
            c,
            vec![Value::str("PODS"), Value::str("2016"), Value::str("Tokyo")],
        );
        assert!(!db.contains(&absent));
        // Its key matches an existing block, but the fact itself is absent.
        assert!(db.block_of(&absent).is_none());
    }

    #[test]
    fn active_domain_collects_all_constants() {
        let db = figure1();
        let dom = db.active_domain();
        assert!(dom.contains(&Value::str("Rome")));
        assert!(dom.contains(&Value::str("2016")));
        assert_eq!(dom.len(), 8); // PODS KDD 2016 2017 Rome Paris A B
    }

    #[test]
    fn removing_a_block_removes_all_its_facts() {
        let mut db = figure1();
        let c = db.schema().relation_id("C").unwrap();
        let fact = Fact::new(
            c,
            vec![Value::str("PODS"), Value::str("2016"), Value::str("Paris")],
        );
        assert!(db.remove_block_of(&fact));
        assert_eq!(db.fact_count(), 4);
        assert_eq!(db.block_count(), 3);
        assert!(!db.contains(&fact));
        // Removing again is a no-op.
        assert!(!db.remove_block_of(&fact));
    }

    #[test]
    fn removing_a_single_fact_keeps_its_block_mates() {
        let mut db = figure1();
        let r = db.schema().relation_id("R").unwrap();
        let fact = Fact::new(r, vec![Value::str("KDD"), Value::str("B")]);
        assert!(db.remove_fact(&fact));
        assert_eq!(db.fact_count(), 5);
        assert!(db.contains(&Fact::new(r, vec![Value::str("KDD"), Value::str("A")])));
        // The KDD block is now a singleton; the PODS-2016 block of C is still violated.
        assert!(db
            .block_with_key(r, &[Value::str("KDD")])
            .unwrap()
            .is_singleton());
        assert!(!db.is_consistent());
    }

    #[test]
    fn retain_facts_filters() {
        let mut db = figure1();
        let r = db.schema().relation_id("R").unwrap();
        db.retain_facts(|f| f.relation() != r);
        assert_eq!(db.fact_count(), 3);
        assert_eq!(db.relation_facts(r).count(), 0);
    }

    #[test]
    fn restriction_and_union_round_trip() {
        let db = figure1();
        let schema = db.schema().clone();
        let c = schema.relation_id("C").unwrap();
        let r = schema.relation_id("R").unwrap();
        let only = |relation| {
            let mut only = db.clone();
            only.retain_facts(|f| f.relation() == relation);
            only
        };
        let (only_c, only_r) = (only(c), only(r));
        assert_eq!(only_c.fact_count(), 3);
        assert_eq!(only_r.fact_count(), 3);
        let back = only_c.union(&only_r).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn repair_by_choice_function() {
        let db = figure1();
        let first = db.repair_by(|_| 0);
        assert!(first.is_consistent());
        assert_eq!(first.block_count(), 4);
    }

    #[test]
    fn consistent_database_has_one_repair() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("R", ["c", "d"]).unwrap();
        assert!(db.is_consistent());
        assert_eq!(db.repair_count(), Some(1));
        let repairs: Vec<_> = db.repairs().collect();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0], db);
    }

    #[test]
    fn empty_database_has_exactly_the_empty_repair() {
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let db = UncertainDatabase::new(schema);
        assert_eq!(db.repair_count(), Some(1));
        let repairs: Vec<_> = db.repairs().collect();
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].is_empty());
    }

    #[test]
    fn concurrent_readers_share_what_any_of_them_builds() {
        let db = figure1();
        let r = db.schema().relation_id("R").unwrap();
        let built: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| db.index().position_index(r, crate::PositionSet::single(0)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // At most one build won the race; everyone got that one.
        assert!(built.iter().all(|index| Arc::ptr_eq(index, &built[0])));
        assert_eq!(built[0].key_count(), 2);
    }

    #[test]
    fn a_clone_keeps_reading_what_it_was_cloned_from() {
        let mut db = figure1();
        let frozen = db.clone();
        let r = db.schema().relation_id("R").unwrap();
        db.insert_values("R", ["VLDB", "A"]).unwrap();
        assert!(db.remove_fact(&Fact::new(r, vec![Value::str("PODS"), Value::str("A")])));
        assert_eq!((db.fact_count(), db.block_count()), (6, 4));
        assert_eq!((frozen.fact_count(), frozen.block_count()), (6, 4));
        assert_eq!(frozen, figure1());
        assert_ne!(db, frozen);
        assert!(db.epoch() > frozen.epoch());
    }

    #[test]
    fn consistency_tracks_violated_blocks() {
        let mut db = figure1();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        assert!(!db.is_consistent());
        assert!(db.remove_fact(&Fact::new(r, vec![Value::str("KDD"), Value::str("B")])));
        assert!(!db.is_consistent());
        let paris = ["PODS", "2016", "Paris"].map(Value::str);
        assert!(db.remove_block_of(&Fact::new(c, paris.to_vec())));
        assert!(db.is_consistent());
        db.insert_values("R", ["KDD", "B"]).unwrap();
        assert!(!db.is_consistent());
    }

    #[test]
    fn repair_count_log2_matches_exact_count() {
        let db = figure1();
        let exact = db.repair_count().unwrap() as f64;
        assert!((db.repair_count_log2() - exact.log2()).abs() < 1e-9);
    }
}
