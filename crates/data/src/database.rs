//! Uncertain databases and their block structure.

use crate::delta::{ChangeSet, Delta, DEFAULT_DELTA_THRESHOLD};
use crate::index::DatabaseIndex;
use crate::{Block, BlockId, DataError, Fact, FxHashMap, RelationId, RepairIter, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// The cached index snapshot plus the mutations recorded since it was built.
///
/// Invariant: `pending` is non-empty only while `snapshot` is `Some` — with
/// no snapshot to patch there is nothing to log against.
#[derive(Default)]
struct IndexCacheState {
    snapshot: Option<Arc<DatabaseIndex>>,
    pending: ChangeSet,
}

/// An **uncertain database**: a finite set of facts over a fixed schema in
/// which primary keys need not be satisfied (Section 3 of the paper).
///
/// The database maintains its block structure incrementally: every fact
/// belongs to exactly one [`Block`] (the maximal set of key-equal facts), and
/// a repair is obtained by picking one fact from every block.
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
pub struct UncertainDatabase {
    schema: Arc<Schema>,
    blocks: Vec<Block>,
    /// Maps (relation, key) to the dense index of the owning block.
    index: FxHashMap<(RelationId, Vec<Value>), usize>,
    fact_count: usize,
    /// Cached secondary-index snapshot plus the pending delta log; the
    /// snapshot is patched (not rebuilt) while the log stays small.
    ///
    /// An `RwLock` rather than a `Mutex`: concurrent readers of a warm cache
    /// never contend, and every access recovers from poisoning (the cached
    /// state is always consistent, so a reader that panicked while holding
    /// the lock must not wedge later calls).
    index_cache: RwLock<IndexCacheState>,
    /// Bumped on every effective mutation; see [`UncertainDatabase::epoch`].
    epoch: u64,
    /// Per-database override of the delta-volume fallback threshold.
    delta_threshold: Option<usize>,
}

impl Clone for UncertainDatabase {
    fn clone(&self) -> Self {
        // The clone has identical contents, so it can share the cached
        // snapshot and its pending delta log; each copy's own mutations
        // from here on touch only its own cache state.
        let state = self
            .index_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let cached = IndexCacheState {
            snapshot: state.snapshot.clone(),
            pending: state.pending.clone(),
        };
        drop(state);
        UncertainDatabase {
            schema: self.schema.clone(),
            blocks: self.blocks.clone(),
            index: self.index.clone(),
            fact_count: self.fact_count,
            index_cache: RwLock::new(cached),
            epoch: self.epoch,
            delta_threshold: self.delta_threshold,
        }
    }
}

impl UncertainDatabase {
    /// Creates an empty database over the given schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        UncertainDatabase {
            schema,
            blocks: Vec::new(),
            index: FxHashMap::default(),
            fact_count: 0,
            index_cache: RwLock::new(IndexCacheState::default()),
            epoch: 0,
            delta_threshold: None,
        }
    }

    /// The secondary-index snapshot of the current contents (see
    /// [`DatabaseIndex`]).
    ///
    /// Built on first use and cached. Small mutations do not discard the
    /// cache: they are logged as a [`crate::ChangeSet`] and the next call
    /// **patches** the previous snapshot via [`DatabaseIndex::apply_delta`]
    /// (counted as `data.index.delta_applied`). Only past the
    /// [delta-volume threshold](UncertainDatabase::set_delta_threshold) does
    /// the cache fall back to a full rebuild.
    pub fn index(&self) -> Arc<DatabaseIndex> {
        {
            let state = self
                .index_cache
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(snapshot) = &state.snapshot {
                if state.pending.is_empty() {
                    cqa_obs::count!("data.index.cache.hit");
                    return snapshot.clone();
                }
            }
        }
        let mut state = self
            .index_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Re-check under the write lock: another thread may have patched or
        // built the snapshot while this one waited.
        if let Some(snapshot) = &state.snapshot {
            if state.pending.is_empty() {
                cqa_obs::count!("data.index.cache.hit");
                return snapshot.clone();
            }
            // Patch the previous snapshot with the pending delta log. The
            // threshold is enforced at record time, so a non-empty log here
            // is always within budget.
            cqa_obs::count!("data.index.delta_applied");
            let started = std::time::Instant::now();
            let patched = Arc::new(snapshot.apply_delta(self, &state.pending));
            cqa_obs::observe_duration!("data.index.delta_apply_nanos", started.elapsed());
            state.snapshot = Some(patched.clone());
            state.pending.clear();
            return patched;
        }
        cqa_obs::count!("data.index.cache.miss");
        let started = std::time::Instant::now();
        let snapshot = Arc::new(DatabaseIndex::build(self));
        cqa_obs::observe_duration!("data.index.build_nanos", started.elapsed());
        state.snapshot = Some(snapshot.clone());
        state.pending.clear();
        snapshot
    }

    /// The mutation epoch: a counter bumped by every *effective* mutation
    /// (no-ops — duplicate inserts, removals of absent facts — leave it
    /// untouched). Two equal epochs of the same database lineage (the
    /// original and its clones/snapshots) denote identical contents, so
    /// readers holding a [`crate::Snapshot`] can detect staleness with one
    /// integer compare instead of a diff.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overrides the delta-volume threshold beyond which mutations drop the
    /// cached index (forcing a full rebuild) instead of growing the delta
    /// log. `None` restores [`DEFAULT_DELTA_THRESHOLD`]. A threshold of `0`
    /// disables patching entirely — every mutation invalidates, which is
    /// how the property suite builds its rebuild reference.
    pub fn set_delta_threshold(&mut self, threshold: Option<usize>) {
        self.delta_threshold = threshold;
    }

    /// The effective delta-volume threshold of this database.
    pub fn delta_threshold(&self) -> usize {
        self.delta_threshold.unwrap_or(DEFAULT_DELTA_THRESHOLD)
    }

    /// Number of mutations logged against the cached index snapshot (zero
    /// when the cache is cold, current, or was dropped past the threshold).
    pub fn pending_delta_len(&self) -> usize {
        self.index_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .len()
    }

    /// Logs one effective mutation: bumps the epoch and, when a cached
    /// snapshot exists, either appends to its delta log or — past the
    /// threshold — drops the cache so the next [`UncertainDatabase::index`]
    /// call rebuilds from scratch.
    fn record(&mut self, delta: Delta) {
        self.epoch += 1;
        let threshold = self.delta_threshold();
        let state = self
            .index_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if state.snapshot.is_none() {
            debug_assert!(state.pending.is_empty());
            return;
        }
        state.pending.record(delta);
        if state.pending.len() > threshold {
            state.snapshot = None;
            state.pending.clear();
            cqa_obs::count!("data.index.invalidated");
            cqa_obs::count!("data.index.delta_fallback_rebuild");
        }
    }

    /// Freezes the current contents into a [`crate::Snapshot`]: an owned,
    /// immutable, `Send + Sync` handle carrying both the data and its
    /// [`DatabaseIndex`], for sharing with worker threads while this
    /// database keeps mutating.
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
        &self.schema
    }

    /// Inserts a fact. Returns `Ok(true)` if the fact was new, `Ok(false)` if
    /// it was already present (set semantics), and an error on arity mismatch.
    pub fn insert(&mut self, fact: Fact) -> Result<bool, DataError> {
        let rel = self.schema.relation(fact.relation());
        if fact.arity() != rel.arity() {
            return Err(DataError::ArityMismatch {
                relation: rel.name.clone(),
                expected: rel.arity(),
                actual: fact.arity(),
            });
        }
        let key: Vec<Value> = fact.key(&self.schema).to_vec();
        let entry = (fact.relation(), key);
        let block_idx = match self.index.get(&entry) {
            Some(&i) => i,
            None => {
                let i = self.blocks.len();
                self.blocks
                    .push(Block::new(fact.relation(), entry.1.clone()));
                self.index.insert(entry, i);
                i
            }
        };
        // Clone before pushing (an `Arc` bump) so the delta log shares the
        // stored fact's allocation — `apply_delta` matches facts by it.
        let recorded = fact.clone();
        let inserted = self.blocks[block_idx].push(fact);
        if inserted {
            self.fact_count += 1;
            self.record(Delta::Inserted(recorded));
        }
        // Re-inserting a present fact is a pure no-op: the cached index
        // stays warm and the epoch does not move.
        Ok(inserted)
    }

    /// Convenience insertion by relation name and values.
    pub fn insert_values<V: Into<Value>>(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = V>,
    ) -> Result<bool, DataError> {
        let rel = self.schema.require(relation)?;
        let values: Vec<Value> = values.into_iter().map(Into::into).collect();
        self.insert(Fact::new(rel, values))
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// True iff the database contains no facts.
    pub fn is_empty(&self) -> bool {
        self.fact_count == 0
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all facts.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> {
        self.blocks.iter().flat_map(|b| b.facts().iter())
    }

    /// Iterates over all facts of one relation.
    pub fn relation_facts(&self, relation: RelationId) -> impl Iterator<Item = &Fact> {
        self.blocks
            .iter()
            .filter(move |b| b.relation() == relation)
            .flat_map(|b| b.facts().iter())
    }

    /// Iterates over all blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    ///
    /// Block ids are dense indices that remain valid until the database is
    /// mutated (insertions may add blocks, removals may reorder them).
    pub fn blocks_with_ids(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterates over the blocks of one relation.
    pub fn blocks_of(&self, relation: RelationId) -> impl Iterator<Item = &Block> {
        self.blocks.iter().filter(move |b| b.relation() == relation)
    }

    /// Returns a block by id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns the block (`block(A, db)` in the paper) containing a fact, if present.
    pub fn block_of(&self, fact: &Fact) -> Option<&Block> {
        let key = (fact.relation(), fact.key(&self.schema).to_vec());
        let idx = *self.index.get(&key)?;
        let block = &self.blocks[idx];
        block.contains(fact).then_some(block)
    }

    /// Returns the block with the given relation and key value, if any.
    pub fn block_with_key(&self, relation: RelationId, key: &[Value]) -> Option<&Block> {
        let idx = *self.index.get(&(relation, key.to_vec()))?;
        Some(&self.blocks[idx])
    }

    /// True iff the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.block_of(fact).is_some()
    }

    /// Consistency (Section 3): every block is a singleton.
    pub fn is_consistent(&self) -> bool {
        self.blocks.iter().all(Block::is_singleton)
    }

    /// The active domain: every constant appearing in some fact.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.facts()
            .flat_map(|f| f.values().iter().cloned())
            .collect()
    }

    /// Number of repairs, i.e. the product of all block sizes.
    /// Returns `None` if the product overflows `u128`.
    pub fn repair_count(&self) -> Option<u128> {
        let mut count: u128 = 1;
        for b in &self.blocks {
            count = count.checked_mul(b.len() as u128)?;
        }
        Some(count)
    }

    /// Base-2 logarithm of the number of repairs (useful for reporting the
    /// size of the repair space when it overflows `u128`).
    pub fn repair_count_log2(&self) -> f64 {
        self.blocks.iter().map(|b| (b.len() as f64).log2()).sum()
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
        let facts = self.blocks.iter().map(|b| {
            let i = choose(b).min(b.len().saturating_sub(1));
            b.facts()[i].clone()
        });
        UncertainDatabase::from_facts(self.schema.clone(), facts.collect::<Vec<_>>())
            .expect("facts of a database are schema-valid")
    }

    /// Removes the entire block containing `fact` (used by purification,
    /// Lemma 1). Returns `true` if a block was removed.
    pub fn remove_block_of(&mut self, fact: &Fact) -> bool {
        let key = (fact.relation(), fact.key(&self.schema).to_vec());
        let Some(&idx) = self.index.get(&key) else {
            return false;
        };
        self.remove_block_at(idx);
        true
    }

    /// Removes a single fact; if its block becomes empty the block disappears.
    /// Returns `true` if the fact was present.
    pub fn remove_fact(&mut self, fact: &Fact) -> bool {
        let key = (fact.relation(), fact.key(&self.schema).to_vec());
        let Some(&idx) = self.index.get(&key) else {
            return false;
        };
        if !self.blocks[idx].remove(fact) {
            // The key exists but the fact does not: a no-op that leaves the
            // cached index, the delta log and the epoch untouched.
            return false;
        }
        self.fact_count -= 1;
        let emptied = self.blocks[idx].is_empty();
        if emptied {
            self.detach_block_at(idx);
        }
        self.record(Delta::Removed {
            fact: fact.clone(),
            emptied_block: emptied,
        });
        true
    }

    fn remove_block_at(&mut self, idx: usize) {
        let doomed: Vec<Fact> = self.blocks[idx].facts().to_vec();
        self.fact_count -= doomed.len();
        self.detach_block_at(idx);
        for fact in doomed {
            self.record(Delta::Removed {
                fact,
                emptied_block: true,
            });
        }
    }

    /// Detaches the block at `idx` from the block list and the key index by
    /// `swap_remove` (the block that was last takes over slot `idx`, so
    /// block ids are **reordered**). Fact counting and delta recording are
    /// the caller's job.
    fn detach_block_at(&mut self, idx: usize) {
        let removed = self.blocks.swap_remove(idx);
        self.index
            .remove(&(removed.relation(), removed.key().to_vec()));
        if idx < self.blocks.len() {
            // Fix the index entry of the block that was swapped into `idx`.
            let moved = &self.blocks[idx];
            self.index
                .insert((moved.relation(), moved.key().to_vec()), idx);
        }
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

    /// Returns a new database containing only the facts of the given relations.
    pub fn restrict_to_relations(&self, relations: &[RelationId]) -> UncertainDatabase {
        let facts: Vec<Fact> = self
            .facts()
            .filter(|f| relations.contains(&f.relation()))
            .cloned()
            .collect();
        UncertainDatabase::from_facts(self.schema.clone(), facts)
            .expect("facts of a database are schema-valid")
    }

    /// Returns a new database with the same schema containing the given facts.
    pub fn with_facts(&self, facts: impl IntoIterator<Item = Fact>) -> UncertainDatabase {
        UncertainDatabase::from_facts(self.schema.clone(), facts.into_iter().collect::<Vec<_>>())
            .expect("facts of a database are schema-valid")
    }

    /// Set union of two databases over the same schema.
    pub fn union(&self, other: &UncertainDatabase) -> Result<UncertainDatabase, DataError> {
        if !Arc::ptr_eq(&self.schema, &other.schema) && *self.schema != *other.schema {
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
        *self.schema == *other.schema
            && self.fact_count == other.fact_count
            && self.facts().all(|f| other.contains(f))
    }
}

impl Eq for UncertainDatabase {}

impl fmt::Debug for UncertainDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UncertainDatabase({} facts)", self.fact_count)
    }
}

impl fmt::Display for UncertainDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fact in self.sorted_facts() {
            writeln!(f, "{}", fact.display(&self.schema))?;
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
    fn no_op_mutations_keep_the_cached_index_and_epoch() {
        let mut db = figure1();
        let warm = db.index();
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
        // None of the above dirtied the cache or moved the epoch.
        assert!(Arc::ptr_eq(&warm, &db.index()));
        assert_eq!(db.epoch(), epoch);
        assert_eq!(db.pending_delta_len(), 0);
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
        let only_c = db.restrict_to_relations(&[c]);
        let only_r = db.restrict_to_relations(&[r]);
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
    fn concurrent_readers_share_one_index_snapshot() {
        let db = figure1();
        let snapshots: Vec<Arc<DatabaseIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| db.index())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Everyone observes the same facts; at most one build won the race,
        // and the cache serves that snapshot from then on.
        assert!(snapshots.iter().all(|s| s.fact_count() == 6));
        let cached = db.index();
        assert!(snapshots.iter().any(|s| Arc::ptr_eq(s, &cached)));
    }

    #[test]
    fn repair_count_log2_matches_exact_count() {
        let db = figure1();
        let exact = db.repair_count().unwrap() as f64;
        assert!((db.repair_count_log2() - exact.log2()).abs() < 1e-9);
    }
}
