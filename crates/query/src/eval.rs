//! Query evaluation over (uncertain) databases: the reference semantics.
//!
//! `db |= q` holds iff there is a valuation `θ` over `vars(q)` with
//! `θ(q) ⊆ db` (Section 3). Evaluation here treats the uncertain database as
//! a plain relational instance — certainty semantics (truth in *every*
//! repair) is implemented on top of this by `cqa-core`.
//!
//! Production code evaluates conjunctive queries through compiled
//! `cqa_exec::QueryPlan`s. The one evaluator kept here is [`naive`]: the
//! reference the property suites hold those plans to, and the right tool
//! where a database is tiny and evaluated once (a single repair or possible
//! world), so building an index would dominate.

use crate::{ConjunctiveQuery, Valuation};
use cqa_data::UncertainDatabase;
use std::collections::BTreeSet;

/// The nested-loop evaluator: no index, a static greedy join order, and a
/// scan of the atom's whole relation at every search depth.
pub mod naive {
    use super::*;

    /// Chooses an evaluation order for the atoms: smaller relations first,
    /// then greedily preferring atoms connected to already-placed atoms (a
    /// static greedy join order that avoids Cartesian products when possible).
    fn atom_order(db: &UncertainDatabase, query: &ConjunctiveQuery) -> Vec<usize> {
        let n = query.len();
        let sizes: Vec<usize> = query
            .atoms()
            .iter()
            .map(|a| db.relation_facts(a.relation()).count())
            .collect();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order = Vec::with_capacity(n);
        let mut bound_vars: BTreeSet<crate::Variable> = BTreeSet::new();
        while !remaining.is_empty() {
            // Prefer atoms sharing a variable with what is already bound, then
            // smaller relations, then lower atom id (determinism).
            let (pos, &best) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    let connected = query.atom(i).vars().iter().any(|v| bound_vars.contains(v));
                    // Sort key: connected atoms first, then smaller relations, then atom id.
                    (!(order.is_empty() || connected), sizes[i], i)
                })
                .expect("remaining is non-empty");
            order.push(best);
            bound_vars.extend(query.atom(best).vars());
            remaining.remove(pos);
        }
        order
    }

    /// Nested-loop backtracking join: rescans the atom's whole relation at
    /// every search depth.
    fn search<F>(
        db: &UncertainDatabase,
        query: &ConjunctiveQuery,
        order: &[usize],
        depth: usize,
        current: &Valuation,
        on_match: &mut F,
    ) -> bool
    where
        F: FnMut(&Valuation) -> bool,
    {
        if depth == order.len() {
            return on_match(current);
        }
        let atom = query.atom(order[depth]);
        let schema = query.schema();
        for fact in db.relation_facts(atom.relation()) {
            if let Some(extended) = current.unify_with_fact(atom, fact, schema) {
                if search(db, query, order, depth + 1, &extended, on_match) {
                    return true;
                }
            }
        }
        false
    }

    /// True iff `db |= q`, i.e. some valuation maps every atom of `q` into
    /// `db`.
    pub fn satisfies(db: &UncertainDatabase, query: &ConjunctiveQuery) -> bool {
        satisfies_with(db, query, &Valuation::new())
    }

    /// True iff some valuation *extending `base`* maps every atom of `q`
    /// into `db`.
    pub fn satisfies_with(
        db: &UncertainDatabase,
        query: &ConjunctiveQuery,
        base: &Valuation,
    ) -> bool {
        let order = atom_order(db, query);
        search(db, query, &order, 0, base, &mut |_| true)
    }

    /// Enumerates **all** valuations `θ` over `vars(q)` with `θ(q) ⊆ db`
    /// (each once, in no particular order).
    pub fn all_valuations(db: &UncertainDatabase, query: &ConjunctiveQuery) -> Vec<Valuation> {
        let order = atom_order(db, query);
        let mut out = Vec::new();
        search(db, query, &order, 0, &Valuation::new(), &mut |v| {
            out.push(v.clone());
            false
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::naive::*;
    use crate::{ConjunctiveQuery, Term, Valuation, Variable};
    use cqa_data::{Schema, UncertainDatabase, Value};
    use std::sync::Arc;

    fn conference_db() -> (Arc<Schema>, UncertainDatabase) {
        let schema = Schema::from_relations([("C", 3, 2), ("R", 2, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("C", ["PODS", "2016", "Rome"]).unwrap();
        db.insert_values("C", ["PODS", "2016", "Paris"]).unwrap();
        db.insert_values("C", ["KDD", "2017", "Rome"]).unwrap();
        db.insert_values("R", ["PODS", "A"]).unwrap();
        db.insert_values("R", ["KDD", "A"]).unwrap();
        db.insert_values("R", ["KDD", "B"]).unwrap();
        (schema, db)
    }

    /// The Section 1 query: ∃x∃y (C(x, y, 'Rome') ∧ R(x, 'A')).
    fn rome_query(schema: &Arc<Schema>) -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema.clone())
            .atom(
                "C",
                [Term::var("x"), Term::var("y"), Term::constant("Rome")],
            )
            .atom("R", [Term::var("x"), Term::constant("A")])
            .build()
            .unwrap()
    }

    #[test]
    fn satisfaction_on_the_conference_database() {
        let (schema, db) = conference_db();
        let q = rome_query(&schema);
        assert!(satisfies(&db, &q));
        // Two witnesses: PODS 2016 Rome and KDD 2017 Rome (both rank A rows join).
        let vals = all_valuations(&db, &q);
        assert_eq!(vals.len(), 2);
        for v in &vals {
            for atom in q.atoms() {
                assert!(db.contains(&v.apply_atom(atom).unwrap()));
            }
        }
    }

    #[test]
    fn unsatisfied_query() {
        let (schema, db) = conference_db();
        let q = ConjunctiveQuery::builder(schema)
            .atom(
                "C",
                [Term::var("x"), Term::var("y"), Term::constant("Tokyo")],
            )
            .build()
            .unwrap();
        assert!(!satisfies(&db, &q));
        assert!(all_valuations(&db, &q).is_empty());
    }

    #[test]
    fn empty_query_is_always_satisfied() {
        let (schema, db) = conference_db();
        let q = ConjunctiveQuery::boolean(schema.clone(), Vec::new()).unwrap();
        assert!(satisfies(&db, &q));
        let empty_db = UncertainDatabase::new(schema);
        assert!(satisfies(&empty_db, &q));
        assert_eq!(all_valuations(&empty_db, &q).len(), 1);
    }

    #[test]
    fn satisfies_with_respects_partial_bindings() {
        let (schema, db) = conference_db();
        let q = rome_query(&schema);
        let mut base = Valuation::new();
        base.bind(Variable::new("x"), Value::str("KDD"));
        assert!(satisfies_with(&db, &q, &base));
        let mut base2 = Valuation::new();
        base2.bind(Variable::new("x"), Value::str("ICML"));
        assert!(!satisfies_with(&db, &q, &base2));
    }

    #[test]
    fn repeated_variables_join_within_an_atom() {
        let schema = Schema::from_relations([("E", 2, 1)]).unwrap().into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("E", ["a", "a"]).unwrap();
        db.insert_values("E", ["b", "c"]).unwrap();
        let q = ConjunctiveQuery::builder(schema)
            .atom("E", [Term::var("x"), Term::var("x")])
            .build()
            .unwrap();
        let vals = all_valuations(&db, &q);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].get(&Variable::new("x")), Some(&Value::str("a")));
    }

    #[test]
    fn cartesian_products_are_still_correct() {
        // Two atoms with disjoint variables: the join degenerates to a product.
        let schema = Schema::from_relations([("A", 1, 1), ("B", 1, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        db.insert_values("A", ["1"]).unwrap();
        db.insert_values("A", ["2"]).unwrap();
        db.insert_values("B", ["x"]).unwrap();
        let q = ConjunctiveQuery::builder(schema)
            .atom("A", [Term::var("u")])
            .atom("B", [Term::var("v")])
            .build()
            .unwrap();
        assert_eq!(all_valuations(&db, &q).len(), 2);
    }

    #[test]
    fn ground_atoms_match_whole_facts() {
        let (schema, db) = conference_db();
        let present = ConjunctiveQuery::builder(schema.clone())
            .atom(
                "C",
                [
                    Term::constant("PODS"),
                    Term::constant("2016"),
                    Term::constant("Rome"),
                ],
            )
            .build()
            .unwrap();
        let absent = ConjunctiveQuery::builder(schema)
            .atom(
                "C",
                [
                    Term::constant("PODS"),
                    Term::constant("2016"),
                    Term::constant("Tokyo"),
                ],
            )
            .build()
            .unwrap();
        assert!(satisfies(&db, &present));
        assert!(!satisfies(&db, &absent));
    }
}
