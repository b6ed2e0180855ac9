//! The view maintainer: delta-driven incremental repair with a damage
//! threshold and optional sharding of the retouched-candidate set.

use crate::view::{provenance_of, BlockKey, MaterializedView, Provenance};
use cqa_core::answers::possible_answers;
use cqa_core::answers::CertainAnswersEngine;
use cqa_data::{ChangeSet, Snapshot, Value};
use cqa_exec::QueryPlan;
use cqa_par::{par_map, ParPool};
use cqa_query::eval::satisfies_with;
use cqa_query::substitute::ground_with;
use cqa_query::{ConjunctiveQuery, Valuation, Variable};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Damage threshold: repairs that would re-decide more candidates than
/// this fall back to a full re-evaluation. Tests override it per maintainer
/// via [`ViewMaintainer::with_threshold`].
pub const DEFAULT_VIEW_THRESHOLD: usize = 256;

/// Default minimum retouched-candidate count before the re-decision is
/// sharded onto the pool: below it, the fan-out overhead dominates.
const DEFAULT_SHARD_CUTOFF: usize = 64;

/// What one repair did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The epoch the view now reflects.
    pub epoch: u64,
    /// Candidates re-decided because their provenance intersected a
    /// touched block or an inserted fact matched their pattern.
    pub retouched: usize,
    /// Candidates newly discovered from inserted facts.
    pub discovered: usize,
    /// True iff the damage exceeded the threshold and the view was rebuilt
    /// from scratch instead of repaired.
    pub full_recompute: bool,
}

/// Repairs [`MaterializedView`]s from [`ChangeSet`]s.
///
/// Stateless apart from its knobs, so one maintainer serves any number of
/// views. Attach a [`ParPool`] to shard the re-decision of large retouched
/// sets; the merge is in candidate order, so the repaired view is
/// byte-identical at every thread count.
#[derive(Clone, Debug)]
pub struct ViewMaintainer {
    pool: Option<ParPool>,
    threshold: usize,
    shard_cutoff: usize,
}

impl Default for ViewMaintainer {
    fn default() -> Self {
        ViewMaintainer::new()
    }
}

/// Everything a sharded decision job needs, behind one `Arc`.
struct DecideCtx {
    engine: Arc<CertainAnswersEngine>,
    query: ConjunctiveQuery,
    free: Vec<Variable>,
}

impl ViewMaintainer {
    /// A sequential maintainer with [`DEFAULT_VIEW_THRESHOLD`].
    pub fn new() -> ViewMaintainer {
        ViewMaintainer {
            pool: None,
            threshold: DEFAULT_VIEW_THRESHOLD,
            shard_cutoff: DEFAULT_SHARD_CUTOFF,
        }
    }

    /// A maintainer that shards large retouched sets onto `pool`.
    pub fn with_pool(pool: ParPool) -> ViewMaintainer {
        ViewMaintainer {
            pool: Some(pool),
            ..ViewMaintainer::new()
        }
    }

    /// Overrides the damage threshold (tests force the fallback path).
    pub fn with_threshold(mut self, threshold: usize) -> ViewMaintainer {
        self.threshold = threshold;
        self
    }

    /// Overrides the sharding cutoff (tests force sharding on small sets).
    pub fn with_shard_cutoff(mut self, cutoff: usize) -> ViewMaintainer {
        self.shard_cutoff = cutoff.max(1);
        self
    }

    /// The damage threshold in effect.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Decides the view from scratch against `snapshot`: possible answers,
    /// batch certainty, and fresh provenance for every candidate. Used at
    /// registration and as the past-threshold fallback.
    pub fn initialize(
        &self,
        view: &mut MaterializedView,
        snapshot: &Snapshot,
    ) -> Result<(), String> {
        let db = snapshot.database();
        let possible = possible_answers(view.query(), db).map_err(|e| e.to_string())?;
        let tuples: Vec<Vec<Value>> = possible.into_iter().collect();
        let verdicts = view
            .engine()
            .verdicts(db, &tuples)
            .map_err(|e| e.to_string())?;
        let provs = self.provenances(view, snapshot, &tuples);
        view.clear();
        for ((tuple, certain), prov) in tuples.into_iter().zip(verdicts).zip(provs) {
            view.install(tuple, certain, prov);
        }
        view.set_epoch(snapshot.epoch());
        Ok(())
    }

    /// Repairs the view from the mutations in `changes`, which must be the
    /// exact delta between the view's current epoch and `snapshot`.
    ///
    /// The damage set is the union of (a) candidates whose provenance
    /// intersects a touched block, (b) candidates an inserted fact
    /// pattern-matches, and (c) candidates newly discovered from inserted
    /// facts through a compiled plan of the partially grounded query. Past
    /// [`threshold`](Self::threshold) re-decided candidates, the repair
    /// falls back to [`initialize`](Self::initialize).
    pub fn repair(
        &self,
        view: &mut MaterializedView,
        snapshot: &Snapshot,
        changes: &ChangeSet,
    ) -> Result<RepairOutcome, String> {
        let started = Instant::now();
        cqa_obs::count!("stream.view.repairs");
        if changes.is_empty() {
            view.set_epoch(snapshot.epoch());
            return Ok(RepairOutcome {
                epoch: snapshot.epoch(),
                retouched: 0,
                discovered: 0,
                full_recompute: false,
            });
        }
        let schema = snapshot.schema().clone();

        // (a) Provenance-intersection retouches: every candidate depending
        // on a block some mutated fact belongs to — through a block-level
        // edge or a relation-wide entry. Sound and complete for removals —
        // a fact leaving a block outside every candidate's provenance is,
        // by the provenance invariant, in a block with no matching fact,
        // which no verdict reads.
        let mut retouch: BTreeSet<Vec<Value>> = BTreeSet::new();
        for fact in changes.removed().iter().chain(changes.inserted()) {
            let key = BlockKey::of(fact, &schema);
            if let Some(deps) = view.dependents_of(&key) {
                retouch.extend(deps.iter().cloned());
            }
            if let Some(deps) = view.relation_dependents_of(fact.relation()) {
                retouch.extend(deps.iter().cloned());
            }
        }

        // (b) + (c) Inserted facts: an insert can make a block relevant
        // that provenance has never seen, so pattern-match the fact against
        // the (unique, by self-join freedom) atom of its relation.
        let mut discovered: BTreeSet<Vec<Value>> = BTreeSet::new();
        for fact in changes.inserted() {
            let Some(atom) = view
                .query()
                .atoms()
                .iter()
                .find(|a| a.relation() == fact.relation())
            else {
                continue;
            };
            let Some(theta) = Valuation::new().unify_with_fact(atom, fact, &schema) else {
                continue;
            };
            // (b) Existing candidates the fact matches: those agreeing with
            // the unifier on the free coordinates the atom constrains.
            let constraints: Vec<(usize, Value)> = view
                .free_vars()
                .iter()
                .enumerate()
                .filter_map(|(i, var)| theta.get(var).map(|value| (i, value.clone())))
                .collect();
            retouch.extend(
                view.possible()
                    .iter()
                    .filter(|t| constraints.iter().all(|(i, value)| &t[*i] == value))
                    .cloned(),
            );
            // (c) Brand-new candidates: any answer that became possible
            // through this insert has a witness using the fact at this atom
            // (conjunctive queries are monotone), so evaluate the query
            // grounded by the unifier through a compiled plan.
            let grounded = ground_with(view.query(), &theta);
            let plan = QueryPlan::compile(&grounded, Some(snapshot.index().statistics()));
            let rest = plan.prepare(snapshot.index()).answers();
            for partial in rest {
                let mut full = Vec::with_capacity(view.free_vars().len());
                let mut remaining = partial.iter();
                for var in view.free_vars() {
                    match theta.get(var) {
                        Some(value) => full.push(value.clone()),
                        None => full.push(
                            remaining
                                .next()
                                .expect("grounded answers cover the unbound free variables")
                                .clone(),
                        ),
                    }
                }
                if !view.possible().contains(&full) {
                    discovered.insert(full);
                }
            }
        }
        let discovered_count = discovered.len();
        retouch.append(&mut discovered);
        let damage = retouch.len();
        cqa_obs::count!("stream.view.candidates_retouched", damage as u64);

        if damage > self.threshold {
            cqa_obs::count!("stream.view.full_recomputes");
            self.initialize(view, snapshot)?;
            cqa_obs::observe_duration!("stream.view.repair_nanos", started.elapsed());
            return Ok(RepairOutcome {
                epoch: snapshot.epoch(),
                retouched: damage - discovered_count,
                discovered: discovered_count,
                full_recompute: true,
            });
        }

        let candidates: Vec<Vec<Value>> = retouch.into_iter().collect();
        let decisions = self.decide(view, snapshot, candidates.clone())?;
        for (tuple, decision) in candidates.into_iter().zip(decisions) {
            match decision {
                None => view.evict(&tuple),
                Some((certain, prov)) => view.install(tuple, certain, prov),
            }
        }
        view.set_epoch(snapshot.epoch());
        cqa_obs::observe_duration!("stream.view.repair_nanos", started.elapsed());
        Ok(RepairOutcome {
            epoch: snapshot.epoch(),
            retouched: damage - discovered_count,
            discovered: discovered_count,
            full_recompute: false,
        })
    }

    /// Re-decides each candidate: `None` if it is no longer a possible
    /// answer, otherwise its certainty verdict and fresh provenance.
    /// Sharded onto the pool in candidate order when the set is large.
    fn decide(
        &self,
        view: &MaterializedView,
        snapshot: &Snapshot,
        candidates: Vec<Vec<Value>>,
    ) -> Result<Vec<Option<(bool, Provenance)>>, String> {
        let ctx = Arc::new(DecideCtx {
            engine: view.engine().clone(),
            query: view.query().clone(),
            free: view.free_vars().to_vec(),
        });
        match self.shards(candidates.len()) {
            None => decide_chunk(&ctx, snapshot, candidates),
            Some((pool, shards)) => {
                let chunk_size = candidates.len().div_ceil(shards);
                let chunks: Vec<Vec<Vec<Value>>> =
                    candidates.chunks(chunk_size).map(|c| c.to_vec()).collect();
                let snapshot = snapshot.clone();
                let results = par_map(&pool, chunks, move |_, chunk| {
                    decide_chunk(&ctx, &snapshot, chunk)
                });
                let mut merged = Vec::new();
                for result in results {
                    merged.extend(result?);
                }
                Ok(merged)
            }
        }
    }

    /// Computes fresh provenance for each tuple, sharded when large.
    fn provenances(
        &self,
        view: &MaterializedView,
        snapshot: &Snapshot,
        tuples: &[Vec<Value>],
    ) -> Vec<Provenance> {
        let query = view.query().clone();
        let free = view.free_vars().to_vec();
        match self.shards(tuples.len()) {
            None => tuples
                .iter()
                .map(|t| provenance_of(&query, &free, t, snapshot))
                .collect(),
            Some((pool, shards)) => {
                let chunk_size = tuples.len().div_ceil(shards);
                let chunks: Vec<Vec<Vec<Value>>> =
                    tuples.chunks(chunk_size).map(|c| c.to_vec()).collect();
                let snapshot = snapshot.clone();
                par_map(&pool, chunks, move |_, chunk: Vec<Vec<Value>>| {
                    chunk
                        .iter()
                        .map(|t| provenance_of(&query, &free, t, &snapshot))
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            }
        }
    }

    /// Whether (and how wide) to shard `n` candidates.
    fn shards(&self, n: usize) -> Option<(ParPool, usize)> {
        let pool = self.pool.as_ref()?;
        if pool.thread_count() < 2 || n < self.shard_cutoff.max(2) {
            return None;
        }
        Some((pool.clone(), pool.thread_count().min(n)))
    }
}

/// The per-chunk decision kernel: possible-membership through the
/// interpreter's `satisfies_with` (one grounded satisfaction probe, no
/// compile), certainty through the view's batch engine, provenance through
/// the position-index probes.
fn decide_chunk(
    ctx: &DecideCtx,
    snapshot: &Snapshot,
    chunk: Vec<Vec<Value>>,
) -> Result<Vec<Option<(bool, Provenance)>>, String> {
    let db = snapshot.database();
    let alive: Vec<bool> = chunk
        .iter()
        .map(|tuple| {
            let base = Valuation::from_pairs(ctx.free.iter().cloned().zip(tuple.iter().cloned()));
            satisfies_with(db, &ctx.query, &base)
        })
        .collect();
    let alive_tuples: Vec<Vec<Value>> = chunk
        .iter()
        .zip(&alive)
        .filter(|(_, a)| **a)
        .map(|(t, _)| t.clone())
        .collect();
    let verdicts = ctx
        .engine
        .verdicts(db, &alive_tuples)
        .map_err(|e| e.to_string())?;
    let mut verdicts = verdicts.into_iter();
    Ok(chunk
        .iter()
        .zip(&alive)
        .map(|(tuple, alive)| {
            if !*alive {
                return None;
            }
            let certain = verdicts.next().expect("one verdict per alive candidate");
            let prov = provenance_of(&ctx.query, &ctx.free, tuple, snapshot);
            Some((certain, prov))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_core::answers::certain_answers;
    use cqa_data::{Delta, Fact, UncertainDatabase};
    use cqa_query::{ConjunctiveQuery, Term, Variable};

    fn schema() -> std::sync::Arc<cqa_data::Schema> {
        cqa_data::Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared()
    }

    fn query(schema: &std::sync::Arc<cqa_data::Schema>) -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("z")])
            .free([Variable::new("x")])
            .build()
            .unwrap()
    }

    fn fact(schema: &cqa_data::Schema, rel: &str, a: &str, b: &str) -> Fact {
        Fact::checked(
            schema,
            schema.relation_id(rel).unwrap(),
            vec![Value::str(a), Value::str(b)],
        )
        .unwrap()
    }

    /// Applies one insert to both the database and a changeset.
    fn insert(db: &mut UncertainDatabase, cs: &mut ChangeSet, fact: Fact) {
        assert!(db.insert(fact.clone()).unwrap());
        cs.record(Delta::Inserted(fact));
    }

    /// Applies one removal to both the database and a changeset.
    fn remove(db: &mut UncertainDatabase, cs: &mut ChangeSet, fact: Fact) {
        let emptied = db.block_of(&fact).is_some_and(|b| b.is_singleton());
        assert!(db.remove_fact(&fact));
        cs.record(Delta::Removed {
            fact,
            emptied_block: emptied,
        });
    }

    fn assert_matches_reference(view: &MaterializedView, db: &UncertainDatabase) {
        let reference = certain_answers(view.query(), db).unwrap();
        assert_eq!(view.certain(), &reference.certain, "certain diverged");
        assert_eq!(view.possible(), &reference.possible, "possible diverged");
    }

    #[test]
    fn spoiler_removal_flips_certainty_through_block_provenance() {
        let schema = schema();
        let query = query(&schema);
        let mut db = UncertainDatabase::new(schema.clone());
        // Block R(a, ·) = {R(a,1), R(a,2)}; only R(a,1) joins S. The
        // spoiler R(a,2) does not match the candidate's S-join, yet its
        // removal must flip (a) from merely possible to certain.
        db.insert(fact(&schema, "R", "a", "1")).unwrap();
        db.insert(fact(&schema, "R", "a", "2")).unwrap();
        db.insert(fact(&schema, "S", "1", "p")).unwrap();
        let maintainer = ViewMaintainer::new();
        let mut view = MaterializedView::new("v", &query).unwrap();
        maintainer.initialize(&mut view, &db.snapshot()).unwrap();
        let a = vec![Value::str("a")];
        assert!(view.possible().contains(&a) && !view.certain().contains(&a));

        let mut cs = ChangeSet::new();
        remove(&mut db, &mut cs, fact(&schema, "R", "a", "2"));
        let outcome = maintainer.repair(&mut view, &db.snapshot(), &cs).unwrap();
        assert!(!outcome.full_recompute);
        assert_eq!(outcome.retouched, 1);
        assert!(view.certain().contains(&a), "spoiler removal → certain");
        assert_matches_reference(&view, &db);
    }

    #[test]
    fn inserts_discover_new_candidates_and_new_spoilers() {
        let schema = schema();
        let query = query(&schema);
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert(fact(&schema, "R", "a", "1")).unwrap();
        db.insert(fact(&schema, "S", "1", "p")).unwrap();
        let maintainer = ViewMaintainer::new();
        let mut view = MaterializedView::new("v", &query).unwrap();
        maintainer.initialize(&mut view, &db.snapshot()).unwrap();
        assert!(view.certain().contains(&vec![Value::str("a")]));

        // A brand-new candidate appears through a fresh R block.
        let mut cs = ChangeSet::new();
        insert(&mut db, &mut cs, fact(&schema, "R", "b", "1"));
        let outcome = maintainer.repair(&mut view, &db.snapshot(), &cs).unwrap();
        assert_eq!(outcome.discovered, 1);
        assert!(view.certain().contains(&vec![Value::str("b")]));
        assert_matches_reference(&view, &db);

        // A non-joining spoiler lands in R(b)'s block: the block may now
        // resolve to R(b,9), which has no S partner, so (b) loses
        // certainty while (a) keeps it.
        let mut cs = ChangeSet::new();
        insert(&mut db, &mut cs, fact(&schema, "R", "b", "9"));
        maintainer.repair(&mut view, &db.snapshot(), &cs).unwrap();
        assert_matches_reference(&view, &db);
        assert!(view.certain().contains(&vec![Value::str("a")]));
        assert!(!view.certain().contains(&vec![Value::str("b")]));
        assert!(view.possible().contains(&vec![Value::str("b")]));

        // Removing the whole R(b) block evicts its candidate.
        let mut cs = ChangeSet::new();
        remove(&mut db, &mut cs, fact(&schema, "R", "b", "1"));
        remove(&mut db, &mut cs, fact(&schema, "R", "b", "9"));
        maintainer.repair(&mut view, &db.snapshot(), &cs).unwrap();
        assert!(!view.possible().contains(&vec![Value::str("b")]));
        assert_matches_reference(&view, &db);
    }

    #[test]
    fn past_threshold_repairs_fall_back_to_full_recompute() {
        let schema = schema();
        let query = query(&schema);
        let mut db = UncertainDatabase::new(schema.clone());
        for i in 0..8 {
            db.insert(fact(&schema, "R", &format!("k{i}"), "1"))
                .unwrap();
        }
        let maintainer = ViewMaintainer::new().with_threshold(0);
        let mut view = MaterializedView::new("v", &query).unwrap();
        maintainer.initialize(&mut view, &db.snapshot()).unwrap();
        let mut cs = ChangeSet::new();
        insert(&mut db, &mut cs, fact(&schema, "S", "1", "p"));
        let outcome = maintainer.repair(&mut view, &db.snapshot(), &cs).unwrap();
        assert!(
            outcome.full_recompute,
            "threshold 0 must force the fallback"
        );
        assert_matches_reference(&view, &db);
        assert_eq!(view.certain().len(), 8);
    }

    #[test]
    fn empty_changesets_only_advance_the_epoch() {
        let schema = schema();
        let query = query(&schema);
        let db = UncertainDatabase::new(schema);
        let maintainer = ViewMaintainer::new();
        let mut view = MaterializedView::new("v", &query).unwrap();
        maintainer.initialize(&mut view, &db.snapshot()).unwrap();
        let outcome = maintainer
            .repair(&mut view, &db.snapshot(), &ChangeSet::new())
            .unwrap();
        assert_eq!(outcome.retouched + outcome.discovered, 0);
        assert!(!outcome.full_recompute);
    }
}
