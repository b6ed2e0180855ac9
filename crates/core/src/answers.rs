//! Certain answers to non-Boolean conjunctive queries.
//!
//! The paper restricts attention to Boolean queries, noting that the
//! restriction "is not fundamental" (Section 3). This module provides the
//! natural non-Boolean extension a database user expects: the **certain
//! answers** of a query with free variables are the tuples that are answers
//! in *every* repair. A tuple is a candidate only if it is an answer on the
//! full database (answers are monotone), and a candidate is certain iff the
//! Boolean query obtained by substituting it for the free variables is
//! certain — which is decided by the classified solvers of
//! [`crate::solvers`].

use crate::fo::{certain_rewriting_open, FoFormula};
use crate::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::{UncertainDatabase, Value};
use cqa_exec::{ExecMode, FoPlan, QueryPlan, StatsStamp};
use cqa_query::{substitute, ConjunctiveQuery, QueryError, Variable};
use std::collections::BTreeSet;
use std::sync::{Arc, PoisonError, RwLock};

/// The certain answers (and, for context, the possible answers) of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerSets {
    /// Tuples that are answers in **every** repair.
    pub certain: BTreeSet<Vec<Value>>,
    /// Tuples that are answers in **some** repair (equivalently, answers on
    /// the database itself, by monotonicity of conjunctive queries).
    pub possible: BTreeSet<Vec<Value>>,
}

/// Computes the certain answers of a (possibly non-Boolean) conjunctive
/// query without self-joins.
///
/// For a Boolean query the result contains the empty tuple iff the query is
/// certain. Internally this builds a one-shot [`CertainAnswersEngine`] —
/// classify and compile once per call, then decide every candidate through
/// one prepared plan — rather than re-classifying the grounded query per
/// candidate. A service answering the same query repeatedly keeps the
/// engine instead (`cqa-par`'s `BatchEngine` memoizes one per query).
pub fn certain_answers(
    query: &ConjunctiveQuery,
    db: &UncertainDatabase,
) -> Result<AnswerSets, QueryError> {
    CertainAnswersEngine::new(query)?.answer_sets(db)
}

/// A compile-once engine for deciding which candidate tuples are certain
/// answers.
///
/// The naive lift of the Boolean solvers grounds the query with each
/// candidate and classifies + compiles the grounded query from scratch —
/// per candidate. But the attack graph depends only on the *variable*
/// structure of the query (constants are opaque to attacks, and a
/// self-join-free query cannot collapse atoms under a ground substitution),
/// so every grounding of the same query lands in the same complexity class
/// with the same rewriting shape. This engine exploits that: it classifies
/// the query **once**, builds the **open** certain rewriting `φ(x̄)`
/// ([`certain_rewriting_open`]) with the free variables kept free, compiles
/// it into a single [`FoPlan`], and then decides all candidates by batch
/// evaluation ([`cqa_exec::PreparedFo::eval_tuples`]) — which routes large
/// batches through the vectorized executor.
///
/// Queries outside the first-order region (cyclic attack graph) fall back to
/// the per-candidate [`CertaintyEngine`] path, whose non-FO solvers are
/// inherently per-ground-query.
///
/// The engine owns every plan its query needs: the join [`QueryPlan`] that
/// enumerates the possible answers and the open rewriting's [`FoPlan`].
/// Both are compiled on first use against one database's statistics and
/// stamped with them. Databases keep their index snapshots warm across
/// mutations, so a long-lived engine can see the data grow far past its
/// compile-time cardinalities; once the stamp has
/// [drifted](StatsStamp::drifted_from) both plans are recompiled together
/// against the current statistics (counted as `core.answers.plan_stale`).
pub struct CertainAnswersEngine {
    query: ConjunctiveQuery,
    free: Vec<Variable>,
    /// The open rewriting `φ(x̄)`, when the attack graph is acyclic.
    open: Option<FoFormula>,
    plans: RwLock<Option<Arc<Plans>>>,
    mode: ExecMode,
}

/// An engine's compiled plans and the statistics they were compiled
/// against (statistics of the first database seen pick the join order and
/// the guard atoms, mirroring [`crate::solvers::RewritingSolver`]).
struct Plans {
    possible: QueryPlan,
    open: Option<Arc<FoPlan>>,
    stamp: StatsStamp,
}

impl CertainAnswersEngine {
    /// Classifies `query` and, when its attack graph is acyclic, builds and
    /// keeps the open certain rewriting. Fails only on malformed queries
    /// (self-joins); classification failures select the per-candidate
    /// fallback path instead, so [`certain_of`](Self::certain_of) decides
    /// exactly the queries [`tuple_is_certain`] decides.
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        query.require_self_join_free()?;
        Ok(CertainAnswersEngine {
            query: query.clone(),
            free: query.free_vars().to_vec(),
            open: certain_rewriting_open(query).ok(),
            plans: RwLock::new(None),
            mode: ExecMode::Auto,
        })
    }

    /// Overrides the executor mode of the batch path (tests force the
    /// vectorized and row-at-a-time kernels against each other).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Whether candidates are decided through the compiled open rewriting
    /// (`true`) or the per-candidate classified-solver fallback (`false`).
    pub fn uses_open_rewriting(&self) -> bool {
        self.open.is_some()
    }

    /// The engine's plans for `db`, compiled on first use with `db`'s
    /// statistics — and recompiled, both together, when those statistics
    /// have drifted beyond [`cqa_exec::cache::DRIFT_FACTOR`] since compile
    /// time.
    fn plans(&self, db: &UncertainDatabase) -> Arc<Plans> {
        let index = db.index();
        let stats = index.statistics();
        let stale = {
            let cached = self.plans.read().unwrap_or_else(PoisonError::into_inner);
            match cached.as_ref() {
                Some(plans) if !plans.stamp.drifted_from(Some(stats)) => return plans.clone(),
                cached => cached.is_some(),
            }
        };
        if stale {
            cqa_obs::count!("core.answers.plan_stale");
        }
        // Compile outside the lock; racing recompiles are both compiled
        // against current statistics, so last-writer-wins is fine.
        let plans = Arc::new(Plans {
            possible: QueryPlan::compile(&self.query, Some(stats)),
            open: (self.open.as_ref()).map(|formula| {
                Arc::new(FoPlan::compile(formula, self.query.schema(), Some(stats)))
            }),
            stamp: StatsStamp::of(Some(stats)),
        });
        *self.plans.write().unwrap_or_else(PoisonError::into_inner) = Some(plans.clone());
        plans
    }

    /// The compiled plan of the open rewriting, or `None` on the fallback
    /// path. It is compiled with the possible-answers plan on first use and
    /// recompiled with it on statistics drift.
    pub fn open_plan(&self, db: &UncertainDatabase) -> Option<Arc<FoPlan>> {
        self.plans(db).open.clone()
    }

    /// The possible answers of the query on `db`, through the engine's
    /// join plan: tuples that are answers on `db` itself — equivalently,
    /// answers in *some* repair. These are the candidates for certainty.
    pub fn possible(&self, db: &UncertainDatabase) -> BTreeSet<Vec<Value>> {
        self.plans(db).possible.answers(db)
    }

    /// The possible answers on `db` and which of them are certain.
    pub fn answer_sets(&self, db: &UncertainDatabase) -> Result<AnswerSets, QueryError> {
        let possible = self.possible(db);
        let certain = self.certain_of(db, &possible)?;
        Ok(AnswerSets { certain, possible })
    }

    /// Decides certainty of each candidate tuple: `out[i]` ⇔ the Boolean
    /// query grounded with `tuples[i]` is certain. This is the batch
    /// counterpart of [`tuple_is_certain`], byte-identical in its verdicts.
    pub fn verdicts(
        &self,
        db: &UncertainDatabase,
        tuples: &[Vec<Value>],
    ) -> Result<Vec<bool>, QueryError> {
        match self.open_plan(db) {
            Some(plan) => {
                cqa_obs::count!("core.answers.batch");
                cqa_obs::count!("core.answers.batch_tuples", tuples.len() as u64);
                let index = db.index();
                let prepared = plan.prepare(&index).with_mode(self.mode);
                Ok(prepared.eval_tuples(&self.free, tuples))
            }
            None => {
                cqa_obs::count!("core.answers.fallback");
                cqa_obs::count!("core.answers.fallback_tuples", tuples.len() as u64);
                tuples
                    .iter()
                    .map(|tuple| tuple_is_certain(&self.query, &self.free, tuple, db))
                    .collect()
            }
        }
    }

    /// Filters `candidates` down to the certain answers.
    pub fn certain_of(
        &self,
        db: &UncertainDatabase,
        candidates: &BTreeSet<Vec<Value>>,
    ) -> Result<BTreeSet<Vec<Value>>, QueryError> {
        let tuples: Vec<Vec<Value>> = candidates.iter().cloned().collect();
        let verdicts = self.verdicts(db, &tuples)?;
        Ok(tuples
            .into_iter()
            .zip(verdicts)
            .filter_map(|(tuple, certain)| certain.then_some(tuple))
            .collect())
    }
}

/// The **possible answers** of the query: tuples that are answers on `db`
/// itself — equivalently, answers in *some* repair (conjunctive queries are
/// monotone). These are exactly the candidates for certainty.
///
/// Compiles the query's join plan once per call (`cqa_query::eval::naive`
/// remains the reference; the property suite keeps them identical); a
/// caller asking repeatedly keeps a [`CertainAnswersEngine`] and asks its
/// [`possible`](CertainAnswersEngine::possible) instead.
pub fn possible_answers(
    query: &ConjunctiveQuery,
    db: &UncertainDatabase,
) -> Result<BTreeSet<Vec<Value>>, QueryError> {
    query.require_self_join_free()?;
    let index = db.index();
    Ok(QueryPlan::compile(query, Some(index.statistics())).answers(db))
}

/// Decides certainty of one candidate tuple: the Boolean query obtained by
/// substituting `tuple` for `free` must be certain. This per-candidate step
/// is what [`certain_answers`] runs in a loop and the parallel layer runs on
/// worker threads.
pub fn tuple_is_certain(
    query: &ConjunctiveQuery,
    free: &[cqa_query::Variable],
    tuple: &[Value],
    db: &UncertainDatabase,
) -> Result<bool, QueryError> {
    let grounded = substitute::substitute_seq(query, free, tuple);
    let engine = CertaintyEngine::new(&grounded)?;
    Ok(engine.is_certain(db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::{catalog, Term, Variable};

    /// q(x) :- C(x, y, 'Rome'), R(x, 'A'): which conferences certainly put
    /// an A-ranked event in Rome?
    fn open_conference_query() -> ConjunctiveQuery {
        ConjunctiveQuery::builder(catalog::conference().query.schema().clone())
            .atom(
                "C",
                [Term::var("x"), Term::var("y"), Term::constant("Rome")],
            )
            .atom("R", [Term::var("x"), Term::constant("A")])
            .free([Variable::new("x")])
            .build()
            .unwrap()
    }

    #[test]
    fn conference_certain_answers() {
        let query = open_conference_query();
        let db = catalog::conference_database();
        let answers = certain_answers(&query, &db).unwrap();
        // Possible: PODS (if Rome repair chosen) and KDD (if rank-A repair chosen).
        assert_eq!(answers.possible.len(), 2);
        // Certain: neither — PODS may be in Paris, KDD may be rank B.
        assert!(answers.certain.is_empty());

        // Resolve KDD's rank to A: KDD becomes a certain answer.
        let mut fixed = db.clone();
        let r = fixed.schema().relation_id("R").unwrap();
        fixed.remove_fact(&cqa_data::Fact::new(
            r,
            vec![Value::str("KDD"), Value::str("B")],
        ));
        let answers = certain_answers(&query, &fixed).unwrap();
        assert_eq!(
            answers.certain,
            [vec![Value::str("KDD")]].into_iter().collect()
        );
        assert_eq!(answers.possible.len(), 2);
    }

    #[test]
    fn boolean_queries_reduce_to_the_empty_tuple() {
        let q = catalog::conference().query;
        let db = catalog::conference_database();
        let answers = certain_answers(&q, &db).unwrap();
        assert!(answers.certain.is_empty());
        assert_eq!(answers.possible.len(), 1);
        // On a certain instance, the empty tuple is a certain answer.
        let mut fixed = db.clone();
        let c = fixed.schema().relation_id("C").unwrap();
        fixed.remove_fact(&cqa_data::Fact::new(
            c,
            vec![Value::str("PODS"), Value::str("2016"), Value::str("Paris")],
        ));
        let answers = certain_answers(&q, &fixed).unwrap();
        assert_eq!(answers.certain.len(), 1);
        assert!(answers.certain.contains(&Vec::new()));
    }

    #[test]
    fn the_engine_matches_the_per_tuple_reference_in_every_mode() {
        let query = open_conference_query();
        let db = catalog::conference_database();
        let free = query.free_vars().to_vec();
        // Candidates beyond the possible answers, including a value outside
        // the active domain, must get the same verdicts as the reference.
        let mut candidates = possible_answers(&query, &db).unwrap();
        candidates.insert(vec![Value::str("ICDT")]);
        candidates.insert(vec![Value::str("never-seen")]);
        let reference: BTreeSet<Vec<Value>> = candidates
            .iter()
            .filter(|t| tuple_is_certain(&query, &free, t, &db).unwrap())
            .cloned()
            .collect();
        for mode in [ExecMode::RowAtATime, ExecMode::Vectorized, ExecMode::Auto] {
            let engine = CertainAnswersEngine::new(&query).unwrap().with_mode(mode);
            assert!(engine.uses_open_rewriting());
            assert_eq!(
                engine.certain_of(&db, &candidates).unwrap(),
                reference,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn drifted_statistics_recompile_both_plans_together() {
        let query = open_conference_query();
        let mut db = catalog::conference_database();
        let engine = CertainAnswersEngine::new(&query).unwrap();
        let stale = || {
            cqa_obs::Registry::global()
                .snapshot()
                .counter("core.answers.plan_stale")
        };
        let before = stale();
        let plans = engine.plans(&db);
        // Same statistics: the same compiled plans, and they execute.
        assert!(Arc::ptr_eq(&plans, &engine.plans(&db)));
        assert_eq!(engine.possible(&db), possible_answers(&query, &db).unwrap());
        // Grow one relation past DRIFT_FACTOR: both plans (one slot)
        // recompile against the fresh statistics, as one stale event.
        let r = db.schema().relation_id("R").unwrap();
        let count = db.index().statistics().relation(r).fact_count();
        for i in 0..(count * cqa_exec::cache::DRIFT_FACTOR + 1) {
            db.insert_values("R", [format!("conf{i}"), format!("t{i}")])
                .unwrap();
        }
        let recompiled = engine.plans(&db);
        assert!(!Arc::ptr_eq(&plans, &recompiled));
        assert_ne!(plans.stamp, recompiled.stamp);
        assert_eq!(stale() - before, 1);
        // The new stamp is fresh: no further recompile, and answers agree.
        assert!(Arc::ptr_eq(&recompiled, &engine.plans(&db)));
        assert_eq!(stale() - before, 1);
        assert_eq!(
            engine.answer_sets(&db).unwrap(),
            certain_answers(&query, &db).unwrap()
        );
    }

    #[test]
    fn non_fo_queries_fall_back_to_the_classified_solvers() {
        // The attack graph of {R(y;z), S(z;y)} has a cycle among the bound
        // variables, so no open rewriting exists; the engine must fall back
        // to the per-candidate classified solvers and still agree with them.
        let schema = cqa_data::Schema::from_relations([("R", 2, 1), ("S", 2, 1), ("F", 2, 1)])
            .unwrap()
            .into_shared();
        let query = ConjunctiveQuery::builder(schema.clone())
            .atom("R", [Term::var("y"), Term::var("z")])
            .atom("S", [Term::var("z"), Term::var("y")])
            .atom("F", [Term::var("y"), Term::var("w")])
            .free([Variable::new("w")])
            .build()
            .unwrap();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("R", ["a", "c"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        db.insert_values("S", ["c", "a"]).unwrap();
        db.insert_values("F", ["a", "w1"]).unwrap();
        db.insert_values("F", ["a", "w2"]).unwrap();
        let engine = CertainAnswersEngine::new(&query).unwrap();
        assert!(!engine.uses_open_rewriting());
        let free = query.free_vars().to_vec();
        let candidates = possible_answers(&query, &db).unwrap();
        let reference: BTreeSet<Vec<Value>> = candidates
            .iter()
            .filter(|t| tuple_is_certain(&query, &free, t, &db).unwrap())
            .cloned()
            .collect();
        assert_eq!(engine.certain_of(&db, &candidates).unwrap(), reference);
    }

    #[test]
    fn certain_answers_are_a_subset_of_possible_answers() {
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
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("R", ["c", "b"]).unwrap();
        db.insert_values("R", ["c", "dangling"]).unwrap();
        db.insert_values("S", ["b", "t"]).unwrap();
        let answers = certain_answers(&query, &db).unwrap();
        assert!(answers.certain.is_subset(&answers.possible));
        // a is certain (its only R tuple joins); c is possible but not certain
        // (its block may choose the dangling tuple).
        assert!(answers.certain.contains(&vec![Value::str("a")]));
        assert!(!answers.certain.contains(&vec![Value::str("c")]));
        assert!(answers.possible.contains(&vec![Value::str("c")]));
    }
}
