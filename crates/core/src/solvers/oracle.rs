//! The exact oracle: a baseline decision procedure for `CERTAINTY(q)` that
//! works for **every** Boolean conjunctive query (even self-joins and cyclic
//! queries), at exponential worst-case cost.
//!
//! `CERTAINTY(q)` is in coNP for first-order `q` (Section 1: a "no"
//! certificate is a repair falsifying `q`); the oracle searches for exactly
//! such a certificate. It is used
//!
//! * as the solver for the coNP-complete region (Theorem 2) and the open
//!   region of Conjecture 1,
//! * as the ground-truth oracle against which the polynomial solvers are
//!   validated in tests, and
//! * as the exponential baseline in the benchmark harness.
//!
//! Two prunings keep the backtracking search practical on benchmark sizes:
//! a branch whose already-chosen facts satisfy `q` can never produce a
//! falsifying repair, and a branch whose chosen facts plus all facts of the
//! still-undecided blocks do not satisfy `q` already *is* a falsifying branch.

use super::{ground, CertaintySolver};
use crate::purify::purify;
use cqa_data::{Fact, UncertainDatabase, Value};
use cqa_query::{eval, ConjunctiveQuery, QueryError, Valuation};
use std::borrow::Cow;

/// Exact (worst-case exponential) certainty check by falsifying-repair search.
pub struct ExactOracle {
    query: ConjunctiveQuery,
}

impl ExactOracle {
    /// Builds the oracle; accepts any conjunctive query. `decide` binds an
    /// open query's free variables per call; the other entry points take
    /// the query as Boolean.
    pub fn new(query: &ConjunctiveQuery) -> Result<Self, QueryError> {
        Ok(ExactOracle {
            query: query.clone(),
        })
    }

    /// Plain brute force: enumerate *all* repairs and evaluate the query on
    /// each. Exponential in the number of violated blocks; only intended for
    /// very small instances (tests and cross-validation). Each repair is a
    /// throwaway evaluated exactly once, so the naive evaluator is used —
    /// building an index snapshot per repair would dominate.
    pub fn is_certain_bruteforce(&self, db: &UncertainDatabase) -> bool {
        db.repairs()
            .all(|r| eval::naive::satisfies(&r, &self.query))
    }

    /// Searches for a falsifying repair; returns one if it exists.
    pub fn find_falsifying_repair(&self, db: &UncertainDatabase) -> Option<UncertainDatabase> {
        if self.query.is_empty() {
            return None; // The empty query is satisfied by every repair.
        }
        // Purify (Lemma 1), keeping one irrelevant witness fact per removed
        // block: the lemma's proof extends a falsifying repair of the
        // purified database with exactly those facts to a falsifying repair
        // of the original.
        let (purified, removed_witnesses) = purify(db, &self.query);

        // Blocks ordered largest-first: inconsistent blocks carry the choice.
        let mut blocks: Vec<Vec<Fact>> = purified.blocks().map(|b| b.facts().to_vec()).collect();
        blocks.sort_by_key(|b| std::cmp::Reverse(b.len()));

        let mut chosen: Vec<Fact> = Vec::with_capacity(blocks.len());
        let mut chosen_db = purified.with_facts([]);
        let mut optimistic_db = purified.clone();
        if self.search(&blocks, 0, &mut chosen, &mut chosen_db, &mut optimistic_db) {
            // `chosen` falsifies q on the purified database; re-attach one
            // (unsupported) fact per removed block, as in the Lemma 1 proof.
            let facts = chosen.into_iter().chain(removed_witnesses);
            let candidate = db.with_facts(facts);
            debug_assert!(candidate.is_consistent());
            debug_assert_eq!(candidate.block_count(), db.block_count());
            debug_assert!(!eval::naive::satisfies(&candidate, &self.query));
            return Some(candidate);
        }
        None
    }

    /// True iff some valuation image of the query on `db` contains `fact`.
    /// Decided by the naive evaluator: `db` is tiny and mutated at every
    /// search node, so an index snapshot would be rebuilt per probe.
    fn supports(&self, db: &UncertainDatabase, fact: &Fact) -> bool {
        let schema = self.query.schema();
        self.query.atoms().iter().any(|atom| {
            (Valuation::new().unify_with_fact(atom, fact, schema))
                .is_some_and(|theta| eval::naive::satisfies_with(db, &self.query, &theta))
        })
    }

    /// Backtracking over blocks. `chosen` holds one fact per already-decided
    /// block; `chosen_db` (the chosen facts) and `optimistic_db` (the chosen
    /// facts plus every fact of the still-undecided blocks) mirror it as
    /// databases, both maintained incrementally rather than rebuilt per
    /// node. Returns true if some completion falsifies the query.
    fn search(
        &self,
        blocks: &[Vec<Fact>],
        depth: usize,
        chosen: &mut Vec<Fact>,
        chosen_db: &mut UncertainDatabase,
        optimistic_db: &mut UncertainDatabase,
    ) -> bool {
        // Pruning 1: if the chosen facts alone already satisfy q, no
        // completion of this branch can falsify it. The parent node was not
        // satisfied (it would have been pruned), so the chosen facts satisfy
        // q iff some valuation image uses the fact added last — an anchored
        // probe instead of a from-scratch decision.
        if let Some(last) = chosen.last() {
            if self.supports(chosen_db, last) {
                return false;
            }
        }
        if depth == blocks.len() {
            return true; // A complete falsifying repair.
        }
        // Pruning 2: even taking *all* facts of the undecided blocks, if q is
        // not satisfied then any completion falsifies it — pick arbitrarily.
        if !eval::naive::satisfies(optimistic_db, &self.query) {
            for block in &blocks[depth..] {
                chosen.push(block[0].clone());
            }
            return true;
        }
        for fact in &blocks[depth] {
            chosen.push(fact.clone());
            chosen_db
                .insert(fact.clone())
                .expect("facts of a database are schema-valid");
            // Deciding this block shrinks the optimistic database by the
            // block's rejected facts.
            for sibling in &blocks[depth] {
                if sibling != fact {
                    optimistic_db.remove_fact(sibling);
                }
            }
            let found = self.search(blocks, depth + 1, chosen, chosen_db, optimistic_db);
            for sibling in &blocks[depth] {
                if sibling != fact {
                    optimistic_db
                        .insert(sibling.clone())
                        .expect("facts of a database are schema-valid");
                }
            }
            if found {
                return true;
            }
            chosen.pop();
            chosen_db.remove_fact(fact);
        }
        false
    }
}

impl CertaintySolver for ExactOracle {
    fn name(&self) -> &'static str {
        "exact-oracle"
    }

    fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    fn decide(&self, db: &UncertainDatabase, params: &[Value]) -> bool {
        match ground(&self.query, params) {
            Cow::Borrowed(_) => self.find_falsifying_repair(db).is_none(),
            Cow::Owned(query) => ExactOracle { query }.find_falsifying_repair(db).is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::catalog;

    #[test]
    fn oracle_matches_brute_force_on_the_conference_example() {
        let q = catalog::conference().query;
        let oracle = ExactOracle::new(&q).unwrap();
        let db = catalog::conference_database();
        assert!(!oracle.is_certain(&db));
        assert!(!oracle.is_certain_bruteforce(&db));
        let repair = oracle.find_falsifying_repair(&db).unwrap();
        assert!(repair.is_consistent());
        assert!(repair.is_subset_of(&db));
        assert!(!eval::naive::satisfies(&repair, &q));
        assert_eq!(repair.block_count(), db.block_count());
    }

    #[test]
    fn certain_when_every_repair_satisfies() {
        // Make the conference database certain for the query by dropping the
        // Paris tuple: every repair then contains C(PODS,2016,Rome) and R(PODS,A).
        let q = catalog::conference().query;
        let oracle = ExactOracle::new(&q).unwrap();
        let mut db = catalog::conference_database();
        let c = db.schema().relation_id("C").unwrap();
        db.remove_fact(&cqa_data::Fact::new(
            c,
            vec![
                cqa_data::Value::str("PODS"),
                cqa_data::Value::str("2016"),
                cqa_data::Value::str("Paris"),
            ],
        ));
        assert!(oracle.is_certain(&db));
        assert!(oracle.is_certain_bruteforce(&db));
        assert!(oracle.find_falsifying_repair(&db).is_none());
    }

    #[test]
    fn empty_query_is_always_certain() {
        let schema = cqa_data::Schema::from_relations([("R", 2, 1)])
            .unwrap()
            .into_shared();
        let q = ConjunctiveQuery::boolean(schema.clone(), Vec::new()).unwrap();
        let oracle = ExactOracle::new(&q).unwrap();
        let empty = UncertainDatabase::new(schema);
        assert!(oracle.is_certain(&empty));
    }

    #[test]
    fn unsatisfiable_query_is_never_certain_on_nonempty_dbs() {
        let q = catalog::conference().query;
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        let mut db = UncertainDatabase::new(schema);
        db.insert_values("C", ["VLDB", "2020", "Tokyo"]).unwrap();
        assert!(!oracle.is_certain(&db));
    }

    #[test]
    fn oracle_agrees_with_brute_force_on_random_like_instances() {
        // A deterministic pseudo-random sweep over small C(2)-style instances.
        let q = catalog::c2_swap().query;
        let oracle = ExactOracle::new(&q).unwrap();
        let schema = q.schema().clone();
        let mut mismatches = 0;
        for seed in 0u64..40 {
            let mut db = UncertainDatabase::new(schema.clone());
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for _ in 0..6 {
                let a = next() % 3;
                let b = next() % 3;
                db.insert_values("R1", [format!("a{a}"), format!("b{b}")])
                    .unwrap();
                let c = next() % 3;
                let d = next() % 3;
                db.insert_values("R2", [format!("b{c}"), format!("a{d}")])
                    .unwrap();
            }
            if oracle.is_certain(&db) != oracle.is_certain_bruteforce(&db) {
                mismatches += 1;
            }
        }
        assert_eq!(mismatches, 0);
    }
}
