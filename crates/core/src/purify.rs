//! Purification of uncertain databases (Lemma 1).
//!
//! A fact is *relevant* for `q` on `db` if it belongs to some valuation
//! image `θ(q) ⊆ db`; a database is *purified relative to `q`* if every
//! fact is relevant. Lemma 1 shows that removing the **entire block** of an
//! irrelevant fact does not change membership in `CERTAINTY(q)`, so any
//! database can be purified in polynomial time.
//!
//! Relevance is monotone — removing facts never makes a fact relevant
//! again — so the greatest purified sub-database is unique, and removing
//! the blocks of *all* currently irrelevant facts per round reaches the
//! same fixpoint as removing one block at a time.
//!
//! Every solver of this crate purifies its input first, exactly as the
//! paper's proofs assume.

use cqa_data::{Fact, UncertainDatabase};
use cqa_exec::QueryPlan;
use cqa_query::{ConjunctiveQuery, Valuation, Variable};

/// Purifies `db` relative to `query` (Lemma 1). Returns the purified
/// database and one *witness* per removed block: a fact of the block that
/// was irrelevant in the round that removed it.
///
/// The witnesses are what the lemma's proof needs: a repair falsifying `q`
/// on the purified database, extended with the witnesses, falsifies `q` on
/// `db` (a valuation image using witnesses would lie inside the database of
/// the earliest round that removed one of them, where that witness was
/// irrelevant).
///
/// Relevance runs through compiled plans: one per atom, whose parameters
/// are the atom's variables, so "does this fact extend to a match" is the
/// fact's unifier passed as the base of
/// [`satisfies_with`](cqa_exec::PreparedQuery::satisfies_with), and every
/// probe keys on it. Each round prepares the plans on the current snapshot,
/// dooms every fact that no atom's plan supports, and removes the doomed
/// facts' blocks; the loop stops at the first round that removes nothing.
pub fn purify(db: &UncertainDatabase, query: &ConjunctiveQuery) -> (UncertainDatabase, Vec<Fact>) {
    let index = db.index();
    let plans: Vec<QueryPlan> = (query.atoms().iter())
        .map(|atom| {
            let params: Vec<Variable> = atom.vars().into_iter().collect();
            QueryPlan::compile_bound(query, &params, Some(index.statistics()))
        })
        .collect();
    let schema = query.schema();
    let mut current = db.clone();
    let mut witnesses = Vec::new();
    loop {
        let doomed: Vec<Fact> = {
            let index = current.index();
            let prepared: Vec<_> = plans.iter().map(|plan| plan.prepare(&index)).collect();
            let relevant = |fact: &Fact| {
                (query.atoms().iter().zip(&prepared)).any(|(atom, plan)| {
                    (Valuation::new().unify_with_fact(atom, fact, schema))
                        .is_some_and(|theta| plan.satisfies_with(&theta))
                })
            };
            (current.blocks())
                .filter_map(|block| block.facts().iter().find(|f| !relevant(f)).cloned())
                .collect()
        };
        if doomed.is_empty() {
            return (current, witnesses);
        }
        for fact in &doomed {
            current.remove_block_of(fact);
        }
        witnesses.extend(doomed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::{Schema, Value};
    use cqa_query::Term;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared()
    }

    /// The query {R(x, y), S(y, x)} of Example 1.
    fn example1_query() -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("x")])
            .build()
            .unwrap()
    }

    fn fact(db: &UncertainDatabase, relation: &str, a: &str, b: &str) -> Fact {
        let relation = db.schema().relation_id(relation).unwrap();
        Fact::new(relation, vec![Value::str(a), Value::str(b)])
    }

    #[test]
    fn example1_removes_whole_blocks_in_rounds() {
        // {R(a,b), S(b,a), S(b,c)} is not purified: no R-fact joins with
        // S(b,c). Removing it means removing its entire block {S(b,a),
        // S(b,c)}, which in turn makes R(a,b) irrelevant: everything goes,
        // with one witness per removed block.
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        db.insert_values("S", ["b", "c"]).unwrap();
        let (purified, witnesses) = purify(&db, &example1_query());
        assert!(purified.is_empty());
        assert_eq!(
            witnesses,
            [fact(&db, "S", "b", "c"), fact(&db, "R", "a", "b")]
        );
    }

    #[test]
    fn purification_keeps_relevant_facts() {
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        // An unrelated, irrelevant R block.
        db.insert_values("R", ["z", "z"]).unwrap();
        let (purified, witnesses) = purify(&db, &example1_query());
        assert_eq!(purified.fact_count(), 2);
        assert!(purified.contains(&fact(&db, "R", "a", "b")));
        assert_eq!(witnesses, [fact(&db, "R", "z", "z")]);
    }

    #[test]
    fn purified_database_is_a_fixpoint() {
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        db.insert_values("R", ["a", "c"]).unwrap();
        db.insert_values("S", ["b", "a"]).unwrap();
        db.insert_values("S", ["c", "a"]).unwrap();
        let (once, witnesses) = purify(&db, &example1_query());
        assert_eq!(once, db, "already purified databases are unchanged");
        assert!(witnesses.is_empty());
    }

    #[test]
    fn constants_in_queries_are_respected() {
        // Only facts that can actually be the image of an atom survive.
        let schema = Schema::from_relations([("R", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("R", ["a", "hit"]).unwrap();
        db.insert_values("R", ["b", "miss"]).unwrap();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x"), Term::constant("hit")])
            .build()
            .unwrap();
        let (purified, _) = purify(&db, &q);
        assert_eq!(purified.fact_count(), 1);
    }

    #[test]
    fn the_empty_query_keeps_nothing() {
        // No atom can support a fact of the empty query.
        let mut db = UncertainDatabase::new(schema());
        db.insert_values("R", ["a", "b"]).unwrap();
        let q = ConjunctiveQuery::boolean(schema(), Vec::new()).unwrap();
        let (purified, witnesses) = purify(&db, &q);
        assert!(purified.is_empty());
        assert_eq!(witnesses.len(), 1);
    }
}
