//! Certain answers to non-Boolean conjunctive queries.
//!
//! The paper restricts attention to Boolean queries, noting that the
//! restriction "is not fundamental" (Section 3). This module provides the
//! natural non-Boolean extension a database user expects: the **certain
//! answers** of a query with free variables are the tuples that are answers
//! in *every* repair. A tuple is a candidate only if it is an answer on the
//! full database (answers are monotone), and a candidate is certain iff the
//! Boolean query obtained by substituting it for the free variables is
//! certain — decided by the query's one classified engine
//! ([`CertainAnswersEngine`]).

use crate::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::{UncertainDatabase, Value};
use cqa_exec::{FoPlan, QueryPlan};
use cqa_query::{ConjunctiveQuery, QueryError};
use std::collections::BTreeSet;
use std::sync::Arc;

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
/// the one engine. A service answering the same query repeatedly keeps the
/// engine instead (`cqa-par`'s `BatchEngine` memoizes one per query).
pub fn certain_answers(
    query: &ConjunctiveQuery,
    db: &UncertainDatabase,
) -> Result<AnswerSets, QueryError> {
    CertainAnswersEngine::new(query)?.answer_sets(db)
}

/// A classify-once engine for deciding which candidate tuples are certain
/// answers: the query's [`CertaintyEngine`] plus answer-set enumeration.
///
/// In the Theorem 1 region the engine's compiled **open** rewriting `φ(x̄)`
/// ([`crate::fo::certain_rewriting_open`]) decides all candidates in one
/// vectorized batch ([`cqa_exec::PreparedFo::eval_tuples`]); elsewhere each candidate is one
/// [`CertaintySolver::decide`] call on the same classified solver. The join
/// plan enumerating the candidates and the rewriting plan share the
/// engine's stats-stamped slot ([`CertaintyEngine::plans`]).
pub struct CertainAnswersEngine {
    engine: CertaintyEngine,
}

impl CertainAnswersEngine {
    /// Classifies `query` once and builds its engine. Fails on malformed
    /// queries (self-joins).
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        Ok(CertainAnswersEngine {
            engine: CertaintyEngine::new(query)?,
        })
    }

    /// The query's classified engine: a Boolean query's certainty and
    /// possibility verdicts, its solver and its plans.
    pub fn engine(&self) -> &CertaintyEngine {
        &self.engine
    }

    /// The compiled plan of the open rewriting, or `None` outside the
    /// Theorem 1 region (candidates are then decided one by one). It is
    /// compiled with the possible-answers plan on first use and recompiled
    /// with it on statistics drift.
    pub fn open_plan(&self, db: &UncertainDatabase) -> Option<Arc<FoPlan>> {
        self.engine.rewriting_plan(db)
    }

    /// The possible answers of the query on `db`, through the engine's
    /// join plan: tuples that are answers on `db` itself — equivalently,
    /// answers in *some* repair. These are the candidates for certainty.
    pub fn possible(&self, db: &UncertainDatabase) -> BTreeSet<Vec<Value>> {
        self.engine.plans(db).join.answers(db)
    }

    /// The possible answers on `db` and which of them are certain.
    pub fn answer_sets(&self, db: &UncertainDatabase) -> Result<AnswerSets, QueryError> {
        let possible = self.possible(db);
        let certain = self.certain_of(db, &possible)?;
        Ok(AnswerSets { certain, possible })
    }

    /// Decides certainty of each candidate tuple: `out[i]` ⇔ the Boolean
    /// query grounded with `tuples[i]` is certain.
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
                let prepared = plan.prepare(&index);
                Ok(prepared.eval_tuples(self.engine.query().free_vars(), tuples))
            }
            None => {
                cqa_obs::count!("core.answers.fallback");
                cqa_obs::count!("core.answers.fallback_tuples", tuples.len() as u64);
                Ok(tuples
                    .iter()
                    .map(|tuple| self.engine.decide(db, tuple))
                    .collect())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::ExactOracle;
    use cqa_query::{catalog, substitute, Term, Variable};

    /// The reference verdict of one candidate: a fresh engine on the
    /// grounded query `q[x̄ ↦ tuple]`, checked against repair enumeration.
    fn grounded_verdict(query: &ConjunctiveQuery, tuple: &[Value], db: &UncertainDatabase) -> bool {
        let grounded = substitute::substitute_seq(query, query.free_vars(), tuple);
        let verdict = CertaintyEngine::new(&grounded).unwrap().is_certain(db);
        let brute_force = ExactOracle::new(&grounded).unwrap();
        assert_eq!(verdict, brute_force.is_certain_bruteforce(db), "{tuple:?}");
        verdict
    }

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
    fn the_engine_matches_the_per_tuple_reference() {
        let query = open_conference_query();
        let db = catalog::conference_database();
        // Candidates beyond the possible answers, including a value outside
        // the active domain, must get the same verdicts as the reference.
        let mut candidates = possible_answers(&query, &db).unwrap();
        candidates.insert(vec![Value::str("ICDT")]);
        candidates.insert(vec![Value::str("never-seen")]);
        let reference: BTreeSet<Vec<Value>> = candidates
            .iter()
            .filter(|t| grounded_verdict(&query, t, &db))
            .cloned()
            .collect();
        let engine = CertainAnswersEngine::new(&query).unwrap();
        assert!(engine.open_plan(&db).is_some());
        assert_eq!(engine.certain_of(&db, &candidates).unwrap(), reference);
    }

    #[test]
    fn non_fo_queries_fall_back_to_the_classified_solvers() {
        // The attack graph of {R(y;z), S(z;y)} has a cycle among the bound
        // variables, so no open rewriting exists; the engine must decide
        // candidate by candidate through its classified solver and still
        // agree with the reference.
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
        assert!(engine.open_plan(&db).is_none());
        let candidates = possible_answers(&query, &db).unwrap();
        let reference: BTreeSet<Vec<Value>> = candidates
            .iter()
            .filter(|t| grounded_verdict(&query, t, &db))
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
