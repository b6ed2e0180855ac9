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
//! The certificate is found by the crate's shared falsifying-repair search
//! (the `falsify` module). [`ExactOracle::is_certain_bruteforce`] stays as
//! the reference that enumerates every repair.

use super::falsify::falsifying_repair;
use super::{ground, CertaintySolver};
use cqa_data::{UncertainDatabase, Value};
use cqa_query::{eval, ConjunctiveQuery, QueryError};
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

    /// Searches for a falsifying repair; returns one if it exists: the
    /// falsifying-repair search's model, one fact per block of `db`.
    pub fn find_falsifying_repair(&self, db: &UncertainDatabase) -> Option<UncertainDatabase> {
        let facts = falsifying_repair(db, &self.query)?;
        let candidate = db.with_facts(facts.into_iter().cloned());
        debug_assert!(candidate.is_consistent());
        debug_assert_eq!(candidate.block_count(), db.block_count());
        debug_assert!(!eval::naive::satisfies(&candidate, &self.query));
        Some(candidate)
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
            Cow::Borrowed(query) => falsifying_repair(db, query).is_none(),
            Cow::Owned(query) => falsifying_repair(db, &query).is_none(),
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
