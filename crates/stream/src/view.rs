//! The materialized view: decided answer sets plus block-level provenance.

use cqa_core::answers::{AnswerSets, CertainAnswersEngine};
use cqa_data::{Fact, PositionIndex, PositionSet, RelationId, Schema, Snapshot, Value};
use cqa_exec::ExecMode;
use cqa_query::{ConjunctiveQuery, Term, Valuation, Variable};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The identity of one block — the relation and its primary-key value.
///
/// Provenance is keyed by this identity: it outlives the block it names.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    relation: RelationId,
    key: Vec<Value>,
}

impl BlockKey {
    /// The block key of `fact` under `schema`'s primary keys.
    pub fn of(fact: &Fact, schema: &Schema) -> BlockKey {
        BlockKey {
            relation: fact.relation(),
            key: fact.key(schema).to_vec(),
        }
    }

    /// Builds a block key from its parts.
    pub fn new(relation: RelationId, key: Vec<Value>) -> BlockKey {
        BlockKey { relation, key }
    }

    /// The relation the block belongs to.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The primary-key value shared by the block's facts.
    pub fn key(&self) -> &[Value] {
        &self.key
    }
}

/// What one candidate's verdict depends on: a set of individual blocks
/// plus, for atoms whose pattern fixes no position at all, whole relations.
///
/// The relation-wide component keeps provenance **compact**: an atom like
/// `S(y, z)` with both positions bound by join variables matches every
/// block of `S`, and materializing one edge per block would make each
/// candidate's provenance (and every install/unlink) scale with the size
/// of the relation. One `RelationId` entry carries the same information.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    pub(crate) blocks: FxHashSet<BlockKey>,
    pub(crate) relations: FxHashSet<RelationId>,
}

impl Provenance {
    /// The individually tracked blocks.
    pub fn blocks(&self) -> &FxHashSet<BlockKey> {
        &self.blocks
    }

    /// The relations the candidate depends on in their entirety.
    pub fn relations(&self) -> &FxHashSet<RelationId> {
        &self.relations
    }

    /// Number of stored edges (block-level plus relation-wide).
    pub fn edges(&self) -> usize {
        self.blocks.len() + self.relations.len()
    }

    /// Whether a mutation inside the block identified by `key` can affect
    /// a candidate with this provenance.
    pub fn covers(&self, key: &BlockKey) -> bool {
        self.relations.contains(&key.relation) || self.blocks.contains(key)
    }
}

/// A materialized certain-answer view: the current certain and possible
/// answers of one registered conjunctive query, plus the per-candidate
/// provenance that makes incremental repair sound.
///
/// **Provenance invariant**: for every possible answer `t`,
/// [`provenance`](Self::provenance) covers every block that contains at
/// least one fact matching some atom pattern of `q(t)` — a pattern fixes
/// the positions holding constants or `t`-bound free variables and
/// wildcards the rest; an atom whose pattern fixes nothing is recorded as
/// one relation-wide dependency instead of one edge per block. The verdict
/// of `t` (possible? certain?) is a function of the contents of the
/// covered blocks only, so a mutation that touches none of them cannot
/// change the verdict. The reverse indexes
/// ([`dependents_of`](Self::dependents_of) and
/// [`relation_dependents_of`](Self::relation_dependents_of)) turn a
/// touched block into the candidate set to re-decide.
pub struct MaterializedView {
    name: String,
    query: ConjunctiveQuery,
    free: Vec<Variable>,
    engine: Arc<CertainAnswersEngine>,
    certain: BTreeSet<Vec<Value>>,
    possible: BTreeSet<Vec<Value>>,
    provenance: FxHashMap<Vec<Value>, Provenance>,
    dependents: FxHashMap<BlockKey, FxHashSet<Vec<Value>>>,
    relation_dependents: FxHashMap<RelationId, FxHashSet<Vec<Value>>>,
    epoch: u64,
}

impl MaterializedView {
    /// Registers a view for `query` under `name`. Classifies the query once
    /// (the engine decides every future candidate through the same compiled
    /// open rewriting, or the classified per-candidate fallback outside the
    /// first-order region). Fails only on malformed queries (self-joins).
    pub fn new(name: impl Into<String>, query: &ConjunctiveQuery) -> Result<Self, String> {
        let engine = CertainAnswersEngine::new(query).map_err(|e| e.to_string())?;
        Ok(MaterializedView {
            name: name.into(),
            query: query.clone(),
            free: query.free_vars().to_vec(),
            engine: Arc::new(engine),
            certain: BTreeSet::new(),
            possible: BTreeSet::new(),
            provenance: FxHashMap::default(),
            dependents: FxHashMap::default(),
            relation_dependents: FxHashMap::default(),
            epoch: 0,
        })
    }

    /// Pins the executor mode of the certainty engine (the property suite
    /// runs every mode against the reference).
    pub fn with_mode(mut self, mode: ExecMode) -> Result<Self, String> {
        let engine = CertainAnswersEngine::new(&self.query)
            .map_err(|e| e.to_string())?
            .with_mode(mode);
        self.engine = Arc::new(engine);
        Ok(self)
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registered query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The query's free variables (answer-tuple coordinates, in order).
    pub fn free_vars(&self) -> &[Variable] {
        &self.free
    }

    /// The shared certainty engine deciding this view's candidates.
    pub(crate) fn engine(&self) -> &Arc<CertainAnswersEngine> {
        &self.engine
    }

    /// The epoch of the database state the view currently reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The current certain answers.
    pub fn certain(&self) -> &BTreeSet<Vec<Value>> {
        &self.certain
    }

    /// The current possible answers (the certainty candidates).
    pub fn possible(&self) -> &BTreeSet<Vec<Value>> {
        &self.possible
    }

    /// Both answer sets, cloned into the shape the render layer consumes.
    pub fn answer_sets(&self) -> AnswerSets {
        AnswerSets {
            certain: self.certain.clone(),
            possible: self.possible.clone(),
        }
    }

    /// The provenance of one candidate, if it is a possible answer.
    pub fn provenance(&self, tuple: &[Value]) -> Option<&Provenance> {
        self.provenance.get(tuple)
    }

    /// The candidates whose verdict depends on the specific block `key`
    /// (reverse provenance, block-level edges only — pair with
    /// [`relation_dependents_of`](Self::relation_dependents_of)).
    pub fn dependents_of(&self, key: &BlockKey) -> Option<&FxHashSet<Vec<Value>>> {
        self.dependents.get(key)
    }

    /// The candidates whose verdict depends on `relation` in its entirety.
    pub fn relation_dependents_of(&self, relation: RelationId) -> Option<&FxHashSet<Vec<Value>>> {
        self.relation_dependents.get(&relation)
    }

    /// Number of tracked provenance edges (block-level plus relation-wide)
    /// — tests pin that repair keeps the provenance index tight.
    pub fn provenance_edges(&self) -> usize {
        self.provenance.values().map(Provenance::edges).sum()
    }

    /// Installs the verdict of one candidate: present in `possible`,
    /// optionally in `certain`, with `prov` as its provenance. Replaces any
    /// previous verdict.
    pub(crate) fn install(&mut self, tuple: Vec<Value>, certain: bool, prov: Provenance) {
        self.unlink(&tuple);
        for key in &prov.blocks {
            self.dependents
                .entry(key.clone())
                .or_default()
                .insert(tuple.clone());
        }
        for &relation in &prov.relations {
            self.relation_dependents
                .entry(relation)
                .or_default()
                .insert(tuple.clone());
        }
        self.possible.insert(tuple.clone());
        if certain {
            self.certain.insert(tuple.clone());
        } else {
            self.certain.remove(&tuple);
        }
        self.provenance.insert(tuple, prov);
    }

    /// Removes a candidate that is no longer a possible answer.
    pub(crate) fn evict(&mut self, tuple: &[Value]) {
        self.unlink(tuple);
        self.possible.remove(tuple);
        self.certain.remove(tuple);
    }

    /// Drops the candidate's provenance edges (both directions).
    fn unlink(&mut self, tuple: &[Value]) {
        if let Some(old) = self.provenance.remove(tuple) {
            for key in &old.blocks {
                if let Some(deps) = self.dependents.get_mut(key) {
                    deps.remove(tuple);
                    if deps.is_empty() {
                        self.dependents.remove(key);
                    }
                }
            }
            for relation in &old.relations {
                if let Some(deps) = self.relation_dependents.get_mut(relation) {
                    deps.remove(tuple);
                    if deps.is_empty() {
                        self.relation_dependents.remove(relation);
                    }
                }
            }
        }
    }

    /// Forgets every decided candidate (the full-recompute path rebuilds
    /// from scratch).
    pub(crate) fn clear(&mut self) {
        self.certain.clear();
        self.possible.clear();
        self.provenance.clear();
        self.dependents.clear();
        self.relation_dependents.clear();
    }
}

impl std::fmt::Debug for MaterializedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedView")
            .field("name", &self.name)
            .field("epoch", &self.epoch)
            .field("certain", &self.certain.len())
            .field("possible", &self.possible.len())
            .field("blocks", &self.dependents.len())
            .field("relations", &self.relation_dependents.len())
            .finish()
    }
}

/// Computes the provenance of candidate `tuple`: a cover of every block
/// holding at least one fact that matches some atom pattern of the grounded
/// query.
///
/// Matching facts are found through the snapshot's position-index probes on
/// the pattern's fixed positions (constants and `tuple`-bound free
/// variables). Repeated-bound-variable constraints are deliberately
/// ignored: the result is a superset of the exact matching-block set, which
/// is sound — over-approximation only retouches more candidates, never
/// fewer. An atom with no fixed position (all positions are bound
/// variables) depends on its whole relation, recorded as **one**
/// relation-wide entry rather than an edge per block, so provenance size —
/// and with it the cost of a single-candidate re-decision — stays
/// independent of the relation's block count.
pub(crate) fn provenance_of(
    query: &ConjunctiveQuery,
    free: &[Variable],
    tuple: &[Value],
    snapshot: &Snapshot,
) -> Provenance {
    let db = snapshot.database();
    let index = snapshot.index();
    let schema = db.schema();
    let base = Valuation::from_pairs(free.iter().cloned().zip(tuple.iter().cloned()));
    let mut prov = Provenance::default();
    for atom in query.atoms() {
        // The pattern's fixed positions: the first ones (an index's width)
        // are probed, the others checked per candidate.
        let fixed: Vec<(usize, &Value)> = (atom.terms().iter().enumerate())
            .take(PositionSet::MAX_POSITIONS)
            .filter_map(|(pos, term)| match term {
                Term::Const(c) => Some((pos, c)),
                Term::Var(v) => base.get(v).map(|value| (pos, value)),
            })
            .collect();
        if fixed.is_empty() {
            prov.relations.insert(atom.relation());
            continue;
        }
        let (probed, checked) = fixed.split_at(fixed.len().min(PositionIndex::MAX_WIDTH));
        let bound = PositionSet::from_positions(probed.iter().map(|&(pos, _)| pos));
        let key: Vec<Value> = probed.iter().map(|&(_, value)| value.clone()).collect();
        let pindex = index.position_index(atom.relation(), bound);
        for row in pindex.probe(index.pack_key(&key)) {
            let fact = index.fact(atom.relation(), row);
            if checked.iter().all(|&(pos, value)| fact.value(pos) == value) {
                prov.blocks.insert(BlockKey::of(fact, schema));
            }
        }
    }
    prov
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::UncertainDatabase;

    fn setup() -> (ConjunctiveQuery, UncertainDatabase) {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared();
        let query = ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("z")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "1"]).unwrap();
        db.insert_values("R", ["a", "2"]).unwrap();
        db.insert_values("S", ["1", "p"]).unwrap();
        db.insert_values("S", ["2", "p"]).unwrap();
        (query, db)
    }

    #[test]
    fn provenance_covers_matching_blocks_only() {
        let (query, mut db) = setup();
        // A block irrelevant to the candidate (different R key).
        db.insert_values("R", ["b", "9"]).unwrap();
        let snapshot = db.snapshot();
        let schema = db.schema();
        let free = query.free_vars().to_vec();
        let prov = provenance_of(&query, &free, &[Value::str("a")], &snapshot);
        let r = schema.relation_id("R").unwrap();
        let s = schema.relation_id("S").unwrap();
        assert!(prov.covers(&BlockKey::new(r, vec![Value::str("a")])));
        // The wildcard pattern S(_, _) is one relation-wide entry covering
        // every S block, not an edge per block.
        assert!(prov.relations().contains(&s));
        assert!(prov.covers(&BlockKey::new(s, vec![Value::str("1")])));
        assert!(prov.covers(&BlockKey::new(s, vec![Value::str("2")])));
        assert_eq!(prov.edges(), 2, "one R block edge + one S relation entry");
        // The unrelated R block is not provenance of candidate (a).
        assert!(!prov.covers(&BlockKey::new(r, vec![Value::str("b")])));
    }

    #[test]
    fn install_and_evict_keep_the_reverse_index_tight() {
        let (query, db) = setup();
        let mut view = MaterializedView::new("v", &query).unwrap();
        let snapshot = db.snapshot();
        let tuple = vec![Value::str("a")];
        let prov = provenance_of(&query, &view.free.clone(), &tuple, &snapshot);
        let edges = prov.edges();
        view.install(tuple.clone(), true, prov);
        assert_eq!(view.provenance_edges(), edges);
        assert!(view.certain().contains(&tuple));
        view.evict(&tuple);
        assert_eq!(view.provenance_edges(), 0);
        assert!(view.dependents.is_empty(), "no dangling reverse edges");
        assert!(
            view.relation_dependents.is_empty(),
            "no dangling relation-wide edges"
        );
        assert!(view.certain().is_empty() && view.possible().is_empty());
    }
}
