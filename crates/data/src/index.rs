//! The fact store behind an [`crate::UncertainDatabase`] and its secondary
//! structures.
//!
//! A [`DatabaseIndex`] *is* the database's storage: `db.index()` hands out
//! another `Arc` onto it, a [`crate::Snapshot`] is one more. Per relation,
//! facts live in dense relation-local **rows** next to the relation's
//! [`Block`]s and its key map; a row number is what candidate lists,
//! buckets and code columns carry instead of cloned facts. Rows are stable:
//! inserting appends one, removing moves that relation's last row into the
//! hole, and nothing else is renumbered — in particular no other relation.
//!
//! Every container is copy-on-write (the `cow` module), so cloning the store
//! is a handful of reference counts and a mutation copies only the chunks
//! and shards it touches; a snapshot taken earlier keeps reading its own.
//!
//! The solvers join facts on *arbitrary* position subsets, so on top of the
//! rows the store keeps **demand-built** secondary structures:
//!
//! * [`DatabaseIndex::columnar`] — the dictionary and the code columns;
//! * [`DatabaseIndex::position_index`] — a hash index from the packed codes
//!   at one or two positions to the rows carrying them, so a join step with
//!   bound positions is a single probe;
//! * [`DatabaseIndex::statistics`] — cardinalities and distinct counts for
//!   the `cqa-exec` cost model;
//! * [`DatabaseIndex::active_domain`] — the sorted distinct values, for the
//!   quantifier loops of the first-order model checker.
//!
//! A database nobody asked any of these of pays for rows, blocks and the
//! key map only. The first three, once built, are **maintained**: every
//! later mutation patches them in the same step (`data.index.delta_applied`),
//! and every later clone inherits them. What a reader builds on an old
//! snapshot is recorded in a demand list shared by the whole lineage, so
//! the writer builds it once too and maintains it from its next write on.
//! The active domain alone is re-derived lazily after a mutation.

use crate::columnar::{value_hash, Columnar};
use crate::cow::{CowMap, DeepVec};
use crate::{Block, Fact, RelationId, Schema, Value};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// A set of attribute positions (0-based), stored as a bitmask.
///
/// Relations in this workspace have small arities (the paper's signatures
/// are `[n, k]` with tiny `n`); 64 positions are plenty.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PositionSet(u64);

impl PositionSet {
    /// The number of representable positions (`0..MAX_POSITIONS`). Callers
    /// indexing relations of larger arity must skip the excess positions
    /// (probing a position subset always yields a candidate *superset*, so
    /// skipping positions is sound wherever candidates are re-checked).
    pub const MAX_POSITIONS: usize = 64;

    /// The empty position set.
    pub fn empty() -> Self {
        PositionSet(0)
    }

    /// The set containing a single position.
    pub fn single(pos: usize) -> Self {
        let mut s = PositionSet::empty();
        s.insert(pos);
        s
    }

    /// Builds a set from an iterator of positions.
    pub fn from_positions(positions: impl IntoIterator<Item = usize>) -> Self {
        let mut s = PositionSet::empty();
        for p in positions {
            s.insert(p);
        }
        s
    }

    /// Adds a position (< 64).
    pub fn insert(&mut self, pos: usize) {
        assert!(
            pos < Self::MAX_POSITIONS,
            "PositionSet supports positions 0..64"
        );
        self.0 |= 1 << pos;
    }

    /// True iff the position is in the set.
    pub fn contains(&self, pos: usize) -> bool {
        pos < Self::MAX_POSITIONS && self.0 & (1 << pos) != 0
    }

    /// True iff no position is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of positions in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let position = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(position)
        })
    }
}

impl fmt::Debug for PositionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A hash index of one relation on one or two attribute positions: maps the
/// packed dictionary codes at those positions (ascending position order) to
/// the rows of the facts carrying them.
///
/// Both executors probe it — the vectorized one with the codes it already
/// holds, the row-at-a-time ones after coding their key with
/// [`DatabaseIndex::pack_key`]. Wider bound-position sets probe their first
/// [`PositionIndex::MAX_WIDTH`] positions and check the rest per candidate.
#[derive(Clone)]
pub struct PositionIndex {
    positions: Vec<usize>,
    rows: CowMap,
}

impl PositionIndex {
    /// The most positions one index covers (two codes pack into a `u64`).
    pub const MAX_WIDTH: usize = 2;

    /// Packs the codes of a one- or two-position key into the probe word.
    /// Codes are in ascending position order, matching
    /// [`PositionIndex::positions`].
    pub fn pack(codes: &[u32]) -> u64 {
        match codes {
            [a] => *a as u64,
            [a, b] => ((*a as u64) << 32) | *b as u64,
            _ => panic!("position indexes cover one or two positions"),
        }
    }

    fn build(columnar: &Columnar, relation: RelationId, positions: &[usize]) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&positions.len()),
            "position indexes cover one or two positions"
        );
        let mut index = PositionIndex {
            positions: positions.to_vec(),
            rows: CowMap::default(),
        };
        let columns = columnar.relation(relation);
        let entries = (0..columns.row_count())
            .map(|row| (index.key_of(columns.row(row)), row as u32))
            .collect();
        index.rows = CowMap::from_entries(entries);
        index
    }

    /// The probe word of a fact given the codes of all its positions.
    fn key_of(&self, codes: &[u32]) -> u64 {
        match self.positions[..] {
            [p] => codes[p] as u64,
            [p, q] => Self::pack(&[codes[p], codes[q]]),
            _ => unreachable!("position indexes cover one or two positions"),
        }
    }

    /// The indexed positions, ascending.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The rows whose packed codes at the indexed positions equal `key`,
    /// ascending. Missing keys give `&[]`.
    #[inline]
    pub fn candidates(&self, key: u64) -> &[u32] {
        self.rows.get(key)
    }

    /// [`PositionIndex::candidates`] for a key coded by
    /// [`DatabaseIndex::pack_key`], where `None` (a value no fact carries)
    /// matches nothing.
    pub fn probe(&self, key: Option<u64>) -> Rows<'_> {
        Rows::Bucket(key.map_or(&[], |key| self.candidates(key)))
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.rows.key_count()
    }

    /// Iterates over the distinct packed keys (arbitrary order).
    ///
    /// For a single-position index a key is the code itself, so this
    /// enumerates the distinct values of that column — the candidate set the
    /// first-order model checker uses to restrict quantifier ranges.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.keys()
    }
}

/// The candidate rows of one relation at one join step: every row, or the
/// bucket of a [`PositionIndex`] probe. Iterates the row numbers.
#[derive(Clone, Debug)]
pub enum Rows<'a> {
    /// Every row of the relation (no position bound).
    All(std::ops::Range<u32>),
    /// The rows one index probe returned.
    Bucket(&'a [u32]),
}

impl<'a> Rows<'a> {
    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::All(range) => range.len(),
            Rows::Bucket(rows) => rows.len(),
        }
    }

    /// True iff there is no candidate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The candidates at positions `range` of this list (bounds clamped) —
    /// the unit the vectorized executor chunks a root scan by.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Rows<'a> {
        let lo = range.start.min(self.len());
        let hi = range.end.clamp(lo, self.len());
        match self {
            Rows::All(all) => Rows::All(all.start + lo as u32..all.start + hi as u32),
            Rows::Bucket(rows) => Rows::Bucket(&rows[lo..hi]),
        }
    }
}

impl Iterator for Rows<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            Rows::All(range) => range.next(),
            Rows::Bucket(rows) => {
                let (&first, rest) = rows.split_first()?;
                *rows = rest;
                Some(first)
            }
        }
    }
}

/// Per-relation summary statistics.
///
/// These feed the cost model of the `cqa-exec` physical planner: the number
/// of facts bounds the output of a full scan, and the distinct counts per
/// position estimate the selectivity of an index probe on that position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStatistics {
    fact_count: usize,
    block_count: usize,
    /// Per position, the key count of its single-position index.
    distinct: Vec<usize>,
}

impl RelationStatistics {
    /// Number of facts of the relation.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// Number of blocks (distinct keys) of the relation.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Number of distinct values at one attribute position (`None` when the
    /// position is out of range for the relation's arity).
    pub fn distinct_count(&self, position: usize) -> Option<usize> {
        self.distinct.get(position).copied()
    }
}

/// Database-wide statistics: one [`RelationStatistics`] per relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statistics {
    relations: Vec<RelationStatistics>,
}

impl Statistics {
    /// The statistics of one relation.
    pub fn relation(&self, relation: RelationId) -> &RelationStatistics {
        &self.relations[relation.index()]
    }

    /// Iterates over `(RelationId, &RelationStatistics)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &RelationStatistics)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, s)| (RelationId::from_index(i), s))
    }
}

/// The hash a block's key is filed under: the value hashes of the key
/// positions, folded in order.
pub(crate) fn key_hash(value_hashes: impl Iterator<Item = u64>) -> u64 {
    value_hashes.fold(0, |hash, value| {
        (hash.rotate_left(5) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

/// The always-present storage of one relation.
#[derive(Clone, Default)]
pub(crate) struct RelationData {
    /// The facts, by row.
    pub(crate) facts: DeepVec<Fact>,
    /// The blocks; a block's position here is only a handle for `keys`.
    pub(crate) blocks: DeepVec<Arc<Block>>,
    /// [`key_hash`] → positions in `blocks` (checked against the block key).
    pub(crate) keys: CowMap,
}

impl RelationData {
    /// The hash `key` is filed under and, if it exists, the position in
    /// `blocks` of the block with that key.
    pub(crate) fn locate(&self, key: &[Value]) -> (u64, Option<u32>) {
        let hash = key_hash(key.iter().map(value_hash));
        let found = (self.keys.get(hash).iter().copied())
            .find(|&block| self.blocks[block as usize].key() == key);
        (hash, found)
    }
}

/// A secondary structure some reader asked for.
#[derive(Clone, PartialEq)]
enum Want {
    Columnar,
    Index(RelationId, Vec<usize>),
    Statistics,
}

/// What the readers of one database lineage (a database, its clones and
/// their snapshots) have demanded so far, append-only.
#[derive(Default)]
struct Demand {
    wants: Mutex<Vec<Want>>,
    /// `wants.len()`, readable without the lock.
    len: AtomicUsize,
}

impl Demand {
    fn want(&self, want: Want) {
        let mut wants = self.wants.lock().unwrap_or_else(PoisonError::into_inner);
        if !wants.contains(&want) {
            wants.push(want);
            // Release: pairs with the Acquire load in `catch_up`, which
            // then takes the lock anyway.
            self.len.store(wants.len(), Ordering::Release);
        }
    }
}

/// The storage of an [`crate::UncertainDatabase`] (see the module
/// documentation): what [`crate::UncertainDatabase::index`] and
/// [`crate::Snapshot::index`] hand out, and what prepared plans bind to.
pub struct DatabaseIndex {
    pub(crate) schema: Arc<Schema>,
    pub(crate) relations: Vec<Arc<RelationData>>,
    pub(crate) fact_count: usize,
    pub(crate) block_count: usize,
    /// Number of blocks with more than one fact.
    pub(crate) violated_blocks: usize,
    pub(crate) epoch: u64,
    demand: Arc<Demand>,
    /// How many entries of `demand` this value has built.
    caught_up: usize,
    columnar: OnceLock<Columnar>,
    /// The built position indexes, per relation. Entries are only ever
    /// added whole, so a poisoned lock still guards consistent data.
    indexes: RwLock<Vec<Vec<Arc<PositionIndex>>>>,
    statistics: OnceLock<Statistics>,
    active_domain: OnceLock<Arc<[Value]>>,
}

impl Clone for DatabaseIndex {
    fn clone(&self) -> Self {
        // A reader may be building on `self` right now. Each structure is
        // published after the ones it is derived from, so reading them in
        // reverse order never yields one without what maintains it.
        let statistics = self.statistics.clone();
        let indexes = self
            .indexes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let columnar = self.columnar.clone();
        DatabaseIndex {
            schema: self.schema.clone(),
            relations: self.relations.clone(),
            fact_count: self.fact_count,
            block_count: self.block_count,
            violated_blocks: self.violated_blocks,
            epoch: self.epoch,
            demand: self.demand.clone(),
            caught_up: self.caught_up,
            columnar,
            indexes: RwLock::new(indexes),
            statistics,
            active_domain: self.active_domain.clone(),
        }
    }
}

impl DatabaseIndex {
    pub(crate) fn new(schema: Arc<Schema>) -> Self {
        let empty = Arc::new(RelationData::default());
        DatabaseIndex {
            relations: vec![empty; schema.len()],
            indexes: RwLock::new(vec![Vec::new(); schema.len()]),
            schema,
            fact_count: 0,
            block_count: 0,
            violated_blocks: 0,
            epoch: 0,
            demand: Arc::default(),
            caught_up: 0,
            columnar: OnceLock::new(),
            statistics: OnceLock::new(),
            active_domain: OnceLock::new(),
        }
    }

    /// A store over already decoded parts (the bulk path of
    /// [`crate::store::load`]): the columnar view is warm, and so is the
    /// active domain when the dictionary came sorted.
    pub(crate) fn from_parts(
        schema: Arc<Schema>,
        relations: Vec<Arc<RelationData>>,
        columnar: Columnar,
        active_domain: Option<Arc<[Value]>>,
    ) -> Self {
        let mut store = DatabaseIndex::new(schema);
        for data in &relations {
            store.fact_count += data.facts.len();
            store.block_count += data.blocks.len();
            store.violated_blocks += data.blocks.iter().filter(|b| b.len() > 1).count();
        }
        store.relations = relations;
        // As after inserting fact by fact.
        store.epoch = store.fact_count as u64;
        store.columnar = OnceLock::from(columnar);
        store.demand.want(Want::Columnar);
        if let Some(domain) = active_domain {
            store.active_domain = OnceLock::from(domain);
        }
        store
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of relations in the schema.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Arity of one relation.
    pub fn arity(&self, relation: RelationId) -> usize {
        self.schema.relation(relation).arity()
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.fact_count
    }

    /// Number of facts (= rows `0..row_count`) of one relation.
    pub fn row_count(&self, relation: RelationId) -> usize {
        self.relations[relation.index()].facts.len()
    }

    /// The fact stored at `row` of `relation`.
    #[inline]
    pub fn fact(&self, relation: RelationId, row: u32) -> &Fact {
        &self.relations[relation.index()].facts[row as usize]
    }

    /// Every row of one relation, as a candidate list.
    pub fn all_rows(&self, relation: RelationId) -> Rows<'static> {
        Rows::All(0..self.row_count(relation) as u32)
    }

    /// Iterates over the facts of one relation, in row order.
    pub fn relation_facts(&self, relation: RelationId) -> impl Iterator<Item = &Fact> {
        self.relations[relation.index()].facts.iter()
    }

    /// Iterates over the blocks of one relation.
    pub fn relation_blocks(&self, relation: RelationId) -> impl Iterator<Item = &Block> {
        self.relations[relation.index()]
            .blocks
            .iter()
            .map(|block| &**block)
    }

    /// The block with the given relation and key value, if any.
    pub fn block_with_key(&self, relation: RelationId, key: &[Value]) -> Option<&Block> {
        let data = &self.relations[relation.index()];
        Some(&data.blocks[data.locate(key).1? as usize])
    }

    /// The sorted, deduplicated active domain. Derived on first use from
    /// the dictionary's live codes (from the facts when nothing is coded
    /// yet) and re-derived after a mutation — the model checker, the store
    /// writer's sorted dictionary and [`crate::UncertainDatabase::active_domain`]
    /// read it; no compiled plan does.
    pub fn active_domain(&self) -> &[Value] {
        self.active_domain.get_or_init(|| {
            cqa_obs::count!("data.active_domain.build");
            let mut values: Vec<Value> = match self.columnar.get() {
                Some(columnar) => columnar.dictionary.live().map(|(_, v)| v.clone()).collect(),
                None => self
                    .relations
                    .iter()
                    .flat_map(|data| data.facts.iter())
                    .flat_map(|fact| fact.values().iter().cloned())
                    .collect(),
            };
            values.sort_unstable();
            values.dedup();
            values.into()
        })
    }

    /// Per-relation statistics (cardinality, block count, distinct values
    /// per position), built on first use and maintained from then on.
    ///
    /// These are the inputs of the `cqa-exec` cost model: they are exact for
    /// the database state they are read from and serve as *estimates* when a
    /// plan compiled against one state is executed against another. The
    /// distinct counts are the key counts of the single-position indexes,
    /// which this therefore demands.
    pub fn statistics(&self) -> &Statistics {
        self.statistics.get_or_init(|| {
            cqa_obs::count!("data.statistics.build");
            let relations = (self.schema.iter())
                .map(|(relation, declared)| RelationStatistics {
                    fact_count: self.row_count(relation),
                    block_count: self.relations[relation.index()].blocks.len(),
                    distinct: (0..declared.arity())
                        .map(|position| self.index_on(relation, &[position]).0.key_count())
                        .collect(),
                })
                .collect();
            self.demand.want(Want::Statistics);
            Statistics { relations }
        })
    }

    /// The dictionary-encoded columnar view, materialized on first use and
    /// maintained from then on — the code arrays the vectorized executor
    /// scans and every position index is built from.
    pub fn columnar(&self) -> &Columnar {
        // The pre-check races benignly: two first callers may both count a
        // miss, but `get_or_init` still builds exactly once.
        if self.columnar.get().is_some() {
            cqa_obs::count!("data.columnar.hit");
        } else {
            cqa_obs::count!("data.columnar.miss");
        }
        self.columnar.get_or_init(|| {
            let started = std::time::Instant::now();
            let built = Columnar::build(self);
            cqa_obs::observe_duration!("data.columnar.build_nanos", started.elapsed());
            self.demand.want(Want::Columnar);
            built
        })
    }

    /// The dictionary of [`DatabaseIndex::columnar`] (uncounted: the
    /// row-at-a-time executors consult it once per probe).
    pub fn dictionary(&self) -> &crate::Dictionary {
        match self.columnar.get() {
            Some(columnar) => columnar.dictionary(),
            None => self.columnar().dictionary(),
        }
    }

    /// The code cells of one relation of [`DatabaseIndex::columnar`]
    /// (uncounted, like [`DatabaseIndex::dictionary`]).
    pub fn columns(&self, relation: RelationId) -> &crate::RelationColumns {
        match self.columnar.get() {
            Some(columnar) => columnar.relation(relation),
            None => self.columnar().relation(relation),
        }
    }

    /// Codes a probe key: the packed codes of `key` (values in ascending
    /// position order), or `None` when some value occurs in no fact — then
    /// no fact can match.
    pub fn pack_key(&self, key: &[Value]) -> Option<u64> {
        let dictionary = self.dictionary();
        let mut codes = [0u32; PositionIndex::MAX_WIDTH];
        for (code, value) in codes.iter_mut().zip(key) {
            *code = dictionary.code_of(value)?;
        }
        Some(PositionIndex::pack(&codes[..key.len()]))
    }

    /// The hash index of `relation` on one or two `positions`, built on
    /// first use and maintained from then on.
    pub fn position_index(
        &self,
        relation: RelationId,
        positions: PositionSet,
    ) -> Arc<PositionIndex> {
        let mut listed = [0; PositionIndex::MAX_WIDTH];
        let width = positions.len();
        assert!(
            (1..=listed.len()).contains(&width),
            "position indexes cover one or two positions"
        );
        for (slot, position) in listed.iter_mut().zip(positions.iter()) {
            *slot = position;
        }
        let (index, built_in) = self.index_on(relation, &listed[..width]);
        match built_in {
            None => cqa_obs::count!("data.position_index.hit"),
            Some(elapsed) => {
                cqa_obs::count!("data.position_index.miss");
                cqa_obs::observe_duration!("data.position_index.build_nanos", elapsed);
            }
        }
        index
    }

    /// [`DatabaseIndex::position_index`] as the vectorized executor asks for
    /// it: positions ascending, counted as `data.code_index.{hit,miss}`.
    pub fn code_index(&self, relation: RelationId, positions: &[usize]) -> Arc<PositionIndex> {
        let (index, built_in) = self.index_on(relation, positions);
        match built_in {
            None => cqa_obs::count!("data.code_index.hit"),
            Some(elapsed) => {
                cqa_obs::count!("data.code_index.miss");
                cqa_obs::observe_duration!("data.code_index.build_nanos", elapsed);
            }
        }
        index
    }

    /// The index on `positions`, with the time building it took if it was
    /// not there yet.
    fn index_on(
        &self,
        relation: RelationId,
        positions: &[usize],
    ) -> (Arc<PositionIndex>, Option<std::time::Duration>) {
        if let Some(built) = self.built_index(relation, positions) {
            return (built, None);
        }
        let started = std::time::Instant::now();
        let built = self.build_index(relation, positions);
        (built, Some(started.elapsed()))
    }

    fn built_index(&self, relation: RelationId, positions: &[usize]) -> Option<Arc<PositionIndex>> {
        self.indexes.read().unwrap_or_else(PoisonError::into_inner)[relation.index()]
            .iter()
            .find(|index| index.positions == positions)
            .cloned()
    }

    fn build_index(&self, relation: RelationId, positions: &[usize]) -> Arc<PositionIndex> {
        // Build outside the lock: concurrent builders may race, in which
        // case one result wins and the duplicates are dropped — harmless.
        let built = Arc::new(PositionIndex::build(self.columnar(), relation, positions));
        {
            let mut indexes = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
            let of_relation = &mut indexes[relation.index()];
            if let Some(raced) = of_relation.iter().find(|i| i.positions == positions) {
                return raced.clone();
            }
            of_relation.push(built.clone());
        }
        self.demand.want(Want::Index(relation, positions.to_vec()));
        built
    }

    /// Builds what readers of the lineage demanded since this value last
    /// looked, so that the mutation about to happen maintains it. A reader
    /// of an *old* snapshot cannot hand its index to the writer — the
    /// writer has moved on — but it can say what it needed.
    pub(crate) fn catch_up(&mut self) {
        if self.demand.len.load(Ordering::Acquire) == self.caught_up {
            return;
        }
        let wanted: Vec<Want> = {
            let wants = self
                .demand
                .wants
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let wanted = wants[self.caught_up..].to_vec();
            self.caught_up = wants.len();
            wanted
        };
        for want in wanted {
            match want {
                Want::Columnar => {
                    self.columnar();
                }
                Want::Index(relation, positions) => {
                    self.index_on(relation, &positions);
                }
                Want::Statistics => {
                    self.statistics();
                }
            }
        }
    }

    /// Maintains the built secondary structures after `fact` was stored at
    /// `row`, and closes the mutation (epoch, active domain).
    pub(crate) fn patch_inserted(&mut self, fact: &Fact, row: u32) {
        let relation = fact.relation().index();
        if let Some(columnar) = self.columnar.get_mut() {
            let dictionary = Arc::make_mut(&mut columnar.dictionary);
            let codes: Vec<u32> = fact.values().iter().map(|v| dictionary.intern(v)).collect();
            Arc::make_mut(&mut columnar.relations[relation]).push_row(&codes);
            let indexes = self
                .indexes
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            for index in &mut indexes[relation] {
                let index = Arc::make_mut(index);
                index.rows.insert(index.key_of(&codes), row);
            }
        }
        self.close_mutation(relation);
    }

    /// Maintains the built secondary structures after the fact at `row` was
    /// removed and the relation's `last` row moved into its place, and
    /// closes the mutation.
    pub(crate) fn patch_removed(&mut self, relation: RelationId, row: u32, last: u32) {
        let relation = relation.index();
        if let Some(columnar) = self.columnar.get_mut() {
            let columns = Arc::make_mut(&mut columnar.relations[relation]);
            let gone = columns.row(row as usize).to_vec();
            let moved = (row != last).then(|| columns.row(last as usize).to_vec());
            columns.swap_remove_row(row as usize);
            let indexes = self
                .indexes
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            for index in &mut indexes[relation] {
                let index = Arc::make_mut(index);
                index.rows.remove(index.key_of(&gone), row);
                if let Some(moved) = &moved {
                    let key = index.key_of(moved);
                    index.rows.remove(key, last);
                    index.rows.insert(key, row);
                }
            }
            let dictionary = Arc::make_mut(&mut columnar.dictionary);
            for code in gone {
                dictionary.release(code);
            }
        }
        self.close_mutation(relation);
    }

    fn close_mutation(&mut self, relation: usize) {
        if self.columnar.get().is_some() {
            cqa_obs::count!("data.index.delta_applied");
        }
        if let Some(statistics) = self.statistics.get_mut() {
            let of_relation = &mut statistics.relations[relation];
            of_relation.fact_count = self.relations[relation].facts.len();
            of_relation.block_count = self.relations[relation].blocks.len();
            let indexes = self
                .indexes
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            for index in &indexes[relation] {
                if let [position] = index.positions[..] {
                    of_relation.distinct[position] = index.key_count();
                }
            }
        }
        self.active_domain = OnceLock::new();
        self.epoch += 1;
    }

    /// Number of chunks and shards — over the rows, blocks, key maps and
    /// every built secondary structure — that `self` does not share with
    /// `other`: what the mutations between the two had to copy.
    #[cfg(test)]
    pub(crate) fn unshared(&self, other: &Self) -> usize {
        let mut parts = 0;
        for (mine, theirs) in self.relations.iter().zip(&other.relations) {
            if !Arc::ptr_eq(mine, theirs) {
                parts += mine.facts.unshared(&theirs.facts)
                    + mine.blocks.unshared(&theirs.blocks)
                    + mine.keys.unshared(&theirs.keys);
            }
        }
        if let (Some(mine), Some(theirs)) = (self.columnar.get(), other.columnar.get()) {
            if !Arc::ptr_eq(&mine.dictionary, &theirs.dictionary) {
                parts += mine.dictionary.unshared(&theirs.dictionary);
            }
            for (mine, theirs) in mine.relations.iter().zip(&theirs.relations) {
                if !Arc::ptr_eq(mine, theirs) {
                    parts += mine.unshared(theirs);
                }
            }
        }
        let mine = self.indexes.read().unwrap_or_else(PoisonError::into_inner);
        let theirs = other.indexes.read().unwrap_or_else(PoisonError::into_inner);
        for (mine, theirs) in mine.iter().flatten().zip(theirs.iter().flatten()) {
            if !Arc::ptr_eq(mine, theirs) {
                parts += mine.rows.unshared(&theirs.rows);
            }
        }
        parts
    }
}

impl fmt::Debug for DatabaseIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DatabaseIndex({} facts)", self.fact_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, UncertainDatabase};

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

    /// The facts in the bucket of `key` at `positions`.
    fn bucket(
        index: &DatabaseIndex,
        relation: RelationId,
        positions: &[usize],
        key: &[&str],
    ) -> Vec<Fact> {
        let key: Vec<Value> = key.iter().map(Value::str).collect();
        let pindex = index.position_index(
            relation,
            PositionSet::from_positions(positions.iter().copied()),
        );
        let mut facts: Vec<Fact> = pindex
            .probe(index.pack_key(&key))
            .map(|row| index.fact(relation, row).clone())
            .collect();
        facts.sort();
        facts
    }

    #[test]
    fn position_sets_behave_like_sets() {
        let s = PositionSet::from_positions([2, 0]);
        assert!(s.contains(0) && s.contains(2) && !s.contains(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(PositionSet::empty().is_empty());
        assert_eq!(PositionSet::single(3).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn candidate_lists_slice_and_iterate() {
        let all = Rows::All(0..10);
        assert_eq!(all.len(), 10);
        assert_eq!(all.slice(7..99).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert!(all.slice(12..20).is_empty());
        let bucket = Rows::Bucket(&[4, 6, 9]);
        assert_eq!(bucket.slice(1..2).collect::<Vec<_>>(), vec![6]);
        assert_eq!(bucket.slice(0..usize::MAX).len(), 3);
    }

    #[test]
    fn the_store_lists_rows_and_blocks_per_relation() {
        let db = figure1();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(index.fact_count(), 6);
        assert_eq!((index.row_count(c), index.row_count(r)), (3, 3));
        assert_eq!(index.relation_blocks(c).count(), 2);
        assert_eq!(index.relation_blocks(r).count(), 2);
        for row in index.all_rows(c) {
            let fact = index.fact(c, row);
            assert_eq!(fact.relation(), c);
            assert!(db.block_of(fact).unwrap().contains(fact));
        }
        assert!(index.relation_blocks(r).all(|b| b.relation() == r));
        assert!(index.relation_facts(r).eq(db.relation_facts(r)));
    }

    #[test]
    fn position_probes_find_exactly_the_matching_facts() {
        let db = figure1();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        // Index C on its third column (the city).
        assert_eq!(bucket(&index, c, &[2], &["Rome"]).len(), 2);
        assert_eq!(bucket(&index, c, &[2], &["Paris"]).len(), 1);
        assert_eq!(bucket(&index, c, &[2], &["Tokyo"]).len(), 0);
        let city = index.position_index(c, PositionSet::single(2));
        assert_eq!(city.key_count(), 2);
        let mut cities: Vec<&Value> = (city.keys())
            .map(|key| index.dictionary().value(key as u32))
            .collect();
        cities.sort();
        assert_eq!(cities, [&Value::str("Paris"), &Value::str("Rome")]);
        // Index C on (conference, city).
        let pair = index.position_index(c, PositionSet::from_positions([0, 2]));
        assert_eq!(pair.positions(), &[0, 2]);
        let hits = bucket(&index, c, &[0, 2], &["PODS", "Rome"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value(1), &Value::str("2016"));
        assert!(bucket(&index, c, &[0, 2], &["Rome", "PODS"]).is_empty());
        // The same subset is served again (same Arc), through either door.
        assert!(Arc::ptr_eq(&pair, &index.code_index(c, &[0, 2])));
    }

    #[test]
    fn statistics_report_cardinalities_and_distinct_counts() {
        let db = figure1();
        let index = db.index();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let stats = index.statistics();
        assert_eq!(stats.relation(c).fact_count(), 3);
        assert_eq!(stats.relation(c).block_count(), 2);
        // C columns: {PODS, KDD}, {2016, 2017}, {Rome, Paris}.
        let distinct = |rel, arity| -> Vec<Option<usize>> {
            (0..arity)
                .map(|p| stats.relation(rel).distinct_count(p))
                .collect()
        };
        assert_eq!(distinct(c, 3), [Some(2), Some(2), Some(2)]);
        assert_eq!(stats.relation(r).distinct_count(0), Some(2));
        assert_eq!(stats.relation(r).distinct_count(1), Some(2));
        assert_eq!(stats.relation(r).distinct_count(7), None);
        assert_eq!(stats.iter().count(), 2);
        // Served from the cache: same allocation on repeated calls.
        assert!(std::ptr::eq(stats, index.statistics()));
    }

    #[test]
    fn active_domain_is_sorted_and_complete_with_and_without_codes() {
        let db = figure1();
        let uncoded = db.index().active_domain().to_vec();
        assert_eq!(uncoded.len(), 8); // PODS KDD 2016 2017 Rome Paris A B
        assert!(uncoded.windows(2).all(|w| w[0] < w[1]));
        // Derived from the dictionary once there is one.
        let mut coded = figure1();
        let _ = coded.index().columnar();
        coded.insert_values("R", ["VLDB", "A"]).unwrap();
        let r = coded.schema().relation_id("R").unwrap();
        assert!(coded.remove_fact(&Fact::new(r, vec![Value::str("VLDB"), Value::str("A")])));
        assert_eq!(coded.index().active_domain(), uncoded);
    }

    #[test]
    fn a_removal_moves_one_row_of_its_own_relation_only() {
        let mut db = figure1();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let before = db.index();
        assert!(db.remove_fact(before.fact(r, 0)));
        let after = db.index();
        assert_eq!(after.row_count(r), 2);
        // R's last row took the hole; its middle row and all of C stayed.
        assert_eq!(after.fact(r, 0), before.fact(r, 2));
        assert_eq!(after.fact(r, 1), before.fact(r, 1));
        assert!(after.relation_facts(c).eq(before.relation_facts(c)));
        // The snapshot taken before still reads all three.
        assert_eq!(before.row_count(r), 3);
    }

    #[test]
    fn demanded_structures_are_patched_by_every_mutation() {
        let mut db = figure1();
        let c = db.schema().relation_id("C").unwrap();
        let r = db.schema().relation_id("R").unwrap();
        let warm = db.index();
        let _ = warm.statistics();
        let _ = warm.position_index(c, PositionSet::from_positions([0, 1]));
        drop(warm);
        let applied = || {
            cqa_obs::Registry::global()
                .snapshot()
                .counter("data.index.delta_applied")
        };
        let before = applied();
        db.insert_values("C", ["KDD", "2017", "Oslo"]).unwrap();
        db.insert_values("R", ["VLDB", "A"]).unwrap();
        assert!(db.remove_fact(&Fact::new(r, vec![Value::str("PODS"), Value::str("A")])));
        let paris = ["PODS", "2016", "Paris"].map(Value::str);
        assert!(db.remove_block_of(&Fact::new(c, paris.to_vec())));
        assert!(
            applied() - before >= 5,
            "one per effective single-fact change"
        );
        let index = db.index();
        let stats = index.statistics();
        assert_eq!(stats.relation(c).fact_count(), 2);
        assert_eq!(stats.relation(c).block_count(), 1);
        let distinct = |rel, arity| -> Vec<Option<usize>> {
            (0..arity)
                .map(|p| stats.relation(rel).distinct_count(p))
                .collect()
        };
        assert_eq!(distinct(c, 3), [Some(1), Some(1), Some(2)]);
        assert_eq!(distinct(r, 2), [Some(2), Some(2)]);
        assert_eq!(bucket(&index, c, &[0, 1], &["KDD", "2017"]).len(), 2);
        assert!(bucket(&index, c, &[0, 1], &["PODS", "2016"]).is_empty());
        assert_eq!(bucket(&index, r, &[0], &["VLDB"]).len(), 1);
        assert_eq!(index.dictionary().code_of(&Value::str("Paris")), None);
        // All of it equals a from-scratch build.
        let rebuilt =
            UncertainDatabase::from_facts(db.schema().clone(), db.sorted_facts()).unwrap();
        assert_eq!(rebuilt.index().statistics(), stats);
        assert_eq!(rebuilt.index().active_domain(), index.active_domain());
    }

    #[test]
    fn what_a_reader_builds_on_an_old_snapshot_the_writer_maintains_from_its_next_write() {
        let mut db = figure1();
        let r = db.schema().relation_id("R").unwrap();
        let old = db.snapshot();
        db.insert_values("R", ["VLDB", "A"]).unwrap();
        // The writer has moved on; a reader of the old snapshot now needs
        // an index nobody built before.
        let on_old = old.index().position_index(r, PositionSet::single(1));
        assert_eq!(
            on_old.probe(old.index().pack_key(&[Value::str("A")])).len(),
            2
        );
        assert!(db.index().built_index(r, &[1]).is_none());
        db.insert_values("R", ["ICDT", "A"]).unwrap();
        let inherited = db
            .index()
            .built_index(r, &[1])
            .expect("built by the writer");
        assert_eq!(
            inherited
                .probe(db.index().pack_key(&[Value::str("A")]))
                .len(),
            4
        );
        // Every later clone inherits it; the old snapshot keeps its own.
        assert!(db.clone().index().built_index(r, &[1]).is_some());
        assert_eq!(on_old.key_count(), 2);
        // What is built while the writer has *not* moved on is shared as is.
        let fresh = db.snapshot();
        let built = fresh
            .index()
            .position_index(r, PositionSet::from_positions([0, 1]));
        assert!(Arc::ptr_eq(
            &built,
            &db.index().built_index(r, &[0, 1]).unwrap()
        ));
    }

    /// A `path3`-shaped instance — `R(x*,y) S(y*,z) T(z*,w)`, two facts per
    /// planted key, values drawn from a pool — of about `6 * groups` facts.
    fn path3(groups: usize) -> UncertainDatabase {
        let schema = Schema::from_relations([("R", 2, 1), ("S", 2, 1), ("T", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let pool = (groups / 2).max(4);
        for _ in 0..groups {
            for (rel, name) in ["R", "S", "T"].iter().enumerate() {
                let key = format!("{}{}", ["x", "y", "z"][rel], below(pool));
                for _ in 0..2 {
                    let value = format!("{}{}", ["y", "z", "w"][rel], below(pool));
                    db.insert_values(name, [key.clone(), value]).unwrap();
                }
            }
        }
        db
    }

    /// Demands key, non-key and pair indexes plus statistics, then applies
    /// one effective single-fact insert, one removal and one block removal,
    /// returning the most chunks + shards any of them had to copy per fact
    /// it changed.
    fn copied_per_changed_fact(db: &mut UncertainDatabase) -> usize {
        let warm = db.index();
        let _ = warm.statistics();
        for (rel, _) in db.schema().iter() {
            let _ = warm.code_index(rel, &[0, 1]);
        }
        drop(warm);
        let s = db.schema().relation_id("S").unwrap();
        let fresh = Fact::new(s, vec![Value::str("fresh-key"), Value::str("fresh-value")]);
        let victim = db.index().fact(s, 17).clone();
        let block = db
            .index()
            .fact(s, db.index().row_count(s) as u32 / 2)
            .clone();
        let mut worst = 0;
        let mut write = |apply: &dyn Fn(&mut UncertainDatabase) -> bool| {
            let before = db.snapshot();
            assert!(apply(db), "the write must be effective");
            let changed = before.fact_count().abs_diff(db.fact_count());
            worst = worst.max(db.index().unshared(before.index()).div_ceil(changed));
        };
        write(&|db| db.insert(fresh.clone()).unwrap());
        write(&|db| db.remove_fact(&victim));
        write(&|db| db.remove_block_of(&block));
        worst
    }

    /// Parts (chunks + shards) a write may copy per fact it inserts or
    /// removes, whatever the database size: in each touched container one
    /// part per level for the changed row or key, as many where the
    /// relation's last row moves in, and the tails. (Here: rows, blocks,
    /// key map, codes, three indexes, the dictionary's slots and lookup.)
    const COPIED_PARTS_BOUND: usize = 32;

    #[test]
    fn a_write_copies_a_bounded_number_of_parts_at_every_size() {
        for groups in [2_200, 22_000] {
            let mut db = path3(groups);
            let copied = copied_per_changed_fact(&mut db);
            assert!(
                copied <= COPIED_PARTS_BOUND,
                "{copied} parts copied per fact at {} facts",
                db.fact_count()
            );
        }
    }

    #[test]
    #[ignore = "1.3M facts: run with --release"]
    fn a_write_copies_a_bounded_number_of_parts_at_a_million_facts() {
        let mut db = path3(220_000);
        assert!(db.fact_count() > 1_000_000);
        let copied = copied_per_changed_fact(&mut db);
        assert!(
            copied <= COPIED_PARTS_BOUND,
            "{copied} parts copied per fact"
        );
    }

    #[test]
    fn a_pinned_snapshot_survives_a_thousand_writes() {
        let mut db = path3(2_200);
        let _ = db.index().statistics();
        let pinned = db.snapshot();
        let frozen = pinned.database().sorted_facts();
        let r = db.schema().relation_id("R").unwrap();
        for i in 0..1_000 {
            if i % 3 == 2 {
                let victim = db.index().fact(r, (i * 7 % 1_000) as u32).clone();
                assert!(db.remove_fact(&victim));
            } else {
                db.insert_values("R", [format!("k{i}"), format!("v{}", i % 10)])
                    .unwrap();
            }
        }
        assert_eq!(pinned.database().sorted_facts(), frozen);
        assert_eq!(pinned.epoch() + 1_000, db.epoch());
        assert_eq!(
            pinned.index().statistics().relation(r).fact_count(),
            pinned.index().row_count(r)
        );
    }

    #[test]
    fn churn_does_not_leak_rows_or_codes() {
        let mut db = path3(500);
        let _ = db.index().statistics();
        let s = db.schema().relation_id("S").unwrap();
        let (slots, rows) = (
            db.index().dictionary().slot_count(),
            db.index().row_count(s),
        );
        let live = db.index().dictionary().len();
        for i in 0..10_000 {
            let fact = Fact::new(
                s,
                vec![Value::str(format!("ck{i}")), Value::str(format!("cv{i}"))],
            );
            assert!(db.insert(fact.clone()).unwrap());
            assert!(db.remove_fact(&fact));
        }
        let index = db.index();
        assert_eq!(index.row_count(s), rows);
        assert_eq!(index.dictionary().len(), live);
        // Two fresh values were alive at a time: two slots joined the free
        // list once and were recycled ever after.
        assert_eq!(index.dictionary().slot_count(), slots + 2);
    }

    /// Not a test of anything: prints what `insert` + `snapshot()` + drop of
    /// the previous snapshot costs at 130k and 1.3M facts (CHANGES.md quotes
    /// it). Run with `--release -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement: run with --release --nocapture"]
    fn measure_an_epoch_at_two_sizes() {
        for groups in [22_000, 220_000] {
            let mut db = path3(groups);
            let _ = db.index().statistics();
            for (rel, _) in db.schema().iter() {
                let _ = db.index().code_index(rel, &[0, 1]);
            }
            let mut previous = db.snapshot();
            let mut nanos = Vec::new();
            for i in 0..3_000 {
                let relation = ["R", "S", "T"][i % 3];
                let values = [format!("epoch-key{i}"), format!("epoch-value{}", i % 50)];
                let started = std::time::Instant::now();
                db.insert_values(relation, values).unwrap();
                previous = db.snapshot();
                nanos.push(started.elapsed().as_nanos());
            }
            drop(previous);
            nanos.sort_unstable();
            println!(
                "{} facts: insert + snapshot + drop of the previous one: p50 {} ns, p90 {} ns",
                db.fact_count(),
                nanos[nanos.len() / 2],
                nanos[nanos.len() * 9 / 10]
            );
        }
    }
}
