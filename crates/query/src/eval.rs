//! Query evaluation over (uncertain) databases.
//!
//! `db |= q` holds iff there is a valuation `θ` over `vars(q)` with
//! `θ(q) ⊆ db` (Section 3). Evaluation here treats the uncertain database as
//! a plain relational instance — certainty semantics (truth in *every*
//! repair) is implemented on top of this by `cqa-core`.
//!
//! # The indexed join
//!
//! Evaluation is a backtracking join driven by the database's secondary
//! indexes ([`cqa_data::DatabaseIndex`]). At every search node the evaluator
//! computes, for each not-yet-joined atom, the positions that are already
//! *bound* — constant positions plus positions holding a variable the
//! current partial valuation maps — and probes the hash index on exactly
//! that position subset. The atom with the fewest candidate facts is joined
//! next (a fail-first dynamic ordering); an atom with zero candidates prunes
//! the node immediately, which is sound because binding more variables can
//! only shrink a candidate set.
//!
//! Compared to the textbook nested-loop join (retained in [`naive`] as the
//! reference implementation and benchmark baseline), each join step costs a
//! hash probe over a dense `u32` candidate list instead of a scan of the
//! whole database, and the join order adapts to the data instead of being
//! fixed up front.

use crate::{Atom, ConjunctiveQuery, Term, Valuation};
use cqa_data::{DatabaseIndex, PositionIndex, PositionSet, Rows, UncertainDatabase, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The candidate facts for one atom at one search node: either every fact of
/// the atom's relation (no position bound yet) or the probe result of the
/// index on the bound positions, with the probe key coded once at
/// construction.
enum Candidates {
    All,
    Probe(Arc<PositionIndex>, Option<u64>),
}

impl Candidates {
    fn for_atom(index: &DatabaseIndex, atom: &Atom, current: &Valuation) -> Candidates {
        let mut bound = PositionSet::empty();
        let mut key: Vec<Value> = Vec::new();
        // An index covers `MAX_WIDTH` positions; further bound positions
        // are left to unification: the probe then returns a candidate
        // superset and unification still filters exactly.
        for (pos, term) in atom.terms().iter().enumerate() {
            if key.len() == PositionIndex::MAX_WIDTH || pos >= PositionSet::MAX_POSITIONS {
                break;
            }
            let value = match term {
                Term::Const(c) => Some(c.clone()),
                Term::Var(v) => current.get(v).cloned(),
            };
            if let Some(value) = value {
                bound.insert(pos);
                key.push(value);
            }
        }
        if bound.is_empty() {
            Candidates::All
        } else {
            let pindex = index.position_index(atom.relation(), bound);
            Candidates::Probe(pindex, index.pack_key(&key))
        }
    }

    fn rows<'a>(&'a self, index: &DatabaseIndex, atom: &Atom) -> Rows<'a> {
        match self {
            Candidates::All => index.all_rows(atom.relation()),
            Candidates::Probe(pindex, key) => pindex.probe(*key),
        }
    }
}

/// Backtracking join over the index. Calls `on_match` for every valuation
/// `θ` over `vars(q)` with `θ(q) ⊆ db` that extends the search's base
/// valuation; stops early if `on_match` returns `true` and reports whether
/// it did. `remaining` holds the ids of the atoms still to be joined (order
/// irrelevant; the next atom is chosen dynamically).
fn search<F>(
    index: &DatabaseIndex,
    query: &ConjunctiveQuery,
    remaining: &mut Vec<usize>,
    current: &Valuation,
    on_match: &mut F,
) -> bool
where
    F: FnMut(&Valuation) -> bool,
{
    if remaining.is_empty() {
        return on_match(current);
    }
    // Fail-first: join the atom with the fewest candidates under the current
    // bindings; zero candidates anywhere prunes the whole node.
    let mut best: Option<(usize, usize, Candidates)> = None;
    for (slot, &aid) in remaining.iter().enumerate() {
        let atom = query.atom(aid);
        let candidates = Candidates::for_atom(index, atom, current);
        let count = candidates.rows(index, atom).len();
        if count == 0 {
            return false;
        }
        if best.as_ref().is_none_or(|&(_, n, _)| count < n) {
            best = Some((slot, count, candidates));
        }
    }
    let (slot, _, candidates) = best.expect("remaining is non-empty");
    let aid = remaining.swap_remove(slot);
    let atom = query.atom(aid);
    let schema = query.schema();
    let mut found = false;
    for row in candidates.rows(index, atom) {
        let fact = index.fact(atom.relation(), row);
        if let Some(extended) = current.unify_with_fact(atom, fact, schema) {
            if search(index, query, remaining, &extended, on_match) {
                found = true;
                break;
            }
        }
    }
    remaining.push(aid);
    found
}

/// Runs the indexed join, feeding matches to `on_match` until it returns
/// `true`; reports whether it did.
fn run<F>(
    db: &UncertainDatabase,
    query: &ConjunctiveQuery,
    base: &Valuation,
    on_match: &mut F,
) -> bool
where
    F: FnMut(&Valuation) -> bool,
{
    let index = db.index();
    let mut remaining: Vec<usize> = (0..query.len()).collect();
    search(&index, query, &mut remaining, base, on_match)
}

/// True iff `db |= q`, i.e. some valuation maps every atom of `q` into `db`.
pub fn satisfies(db: &UncertainDatabase, query: &ConjunctiveQuery) -> bool {
    satisfies_with(db, query, &Valuation::new())
}

/// True iff some valuation *extending `base`* maps every atom of `q` into `db`.
pub fn satisfies_with(db: &UncertainDatabase, query: &ConjunctiveQuery, base: &Valuation) -> bool {
    run(db, query, base, &mut |_| true)
}

/// Finds one satisfying valuation, if any.
pub fn find_valuation(db: &UncertainDatabase, query: &ConjunctiveQuery) -> Option<Valuation> {
    let mut found = None;
    run(db, query, &Valuation::new(), &mut |v| {
        found = Some(v.clone());
        true
    });
    found
}

/// Enumerates **all** valuations `θ` over `vars(q)` with `θ(q) ⊆ db`.
///
/// The result is deduplicated (the same total valuation cannot be produced
/// twice by the backtracking join, but callers should not rely on order).
pub fn all_valuations(db: &UncertainDatabase, query: &ConjunctiveQuery) -> Vec<Valuation> {
    let mut out = Vec::new();
    run(db, query, &Valuation::new(), &mut |v| {
        out.push(v.clone());
        false
    });
    out
}

/// The answers to a (possibly non-Boolean) query on `db`: the set of tuples
/// of constants for the free variables under some satisfying valuation.
///
/// For a Boolean query this returns `{[]}` if `db |= q` and `{}` otherwise.
pub fn answers(db: &UncertainDatabase, query: &ConjunctiveQuery) -> BTreeSet<Vec<Value>> {
    let mut out = BTreeSet::new();
    run(db, query, &Valuation::new(), &mut |v| {
        if let Some(tuple) = v.project(query.free_vars()) {
            out.insert(tuple);
        }
        false
    });
    out
}

/// The pre-index nested-loop evaluator, retained verbatim as the reference
/// implementation: the property tests assert that the indexed join above
/// agrees with it on randomized instances, and the benchmark harness uses it
/// as the baseline the index layer is measured against.
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

    /// Reference implementation of [`super::satisfies`].
    pub fn satisfies(db: &UncertainDatabase, query: &ConjunctiveQuery) -> bool {
        satisfies_with(db, query, &Valuation::new())
    }

    /// Reference implementation of [`super::satisfies_with`].
    pub fn satisfies_with(
        db: &UncertainDatabase,
        query: &ConjunctiveQuery,
        base: &Valuation,
    ) -> bool {
        let order = atom_order(db, query);
        search(db, query, &order, 0, base, &mut |_| true)
    }

    /// Reference implementation of [`super::all_valuations`].
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
    use super::*;
    use crate::{Term, Variable};
    use cqa_data::Schema;
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
            assert!(v.is_total_on(&q.vars()));
            let facts = v.apply_query(&q).unwrap();
            assert!(facts.iter().all(|f| db.contains(f)));
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
        assert!(find_valuation(&db, &q).is_none());
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
    fn answers_project_free_variables() {
        let (schema, db) = conference_db();
        let q = ConjunctiveQuery::builder(schema)
            .atom(
                "C",
                [Term::var("x"), Term::var("y"), Term::constant("Rome")],
            )
            .atom("R", [Term::var("x"), Term::constant("A")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let ans = answers(&db, &q);
        let expected: BTreeSet<Vec<Value>> = [vec![Value::str("PODS")], vec![Value::str("KDD")]]
            .into_iter()
            .collect();
        assert_eq!(ans, expected);
    }

    #[test]
    fn boolean_answers_are_the_empty_tuple() {
        let (schema, db) = conference_db();
        let q = rome_query(&schema);
        let ans = answers(&db, &q);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Vec::new()));
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
    fn ground_atoms_probe_the_full_tuple() {
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

    #[test]
    fn relations_wider_than_the_position_limit_still_evaluate() {
        // Positions ≥ PositionSet::MAX_POSITIONS cannot be indexed; the join
        // must fall back to a superset probe plus unification, not panic.
        let wide = 70usize;
        let schema = Schema::from_relations([("W", wide, 1)])
            .unwrap()
            .into_shared();
        let mut db = UncertainDatabase::new(schema.clone());
        let mut row = vec!["k"; wide];
        row[wide - 1] = "last";
        db.insert_values("W", row.clone()).unwrap();
        let mut hit_terms: Vec<Term> = (0..wide - 1).map(|_| Term::var("x")).collect();
        hit_terms.push(Term::constant("last"));
        let mut miss_terms: Vec<Term> = (0..wide - 1).map(|_| Term::var("x")).collect();
        miss_terms.push(Term::constant("other"));
        let hit = ConjunctiveQuery::builder(schema.clone())
            .atom("W", hit_terms)
            .build()
            .unwrap();
        let miss = ConjunctiveQuery::builder(schema)
            .atom("W", miss_terms)
            .build()
            .unwrap();
        assert!(satisfies(&db, &hit));
        assert!(!satisfies(&db, &miss));
        assert_eq!(satisfies(&db, &hit), naive::satisfies(&db, &hit));
        assert_eq!(satisfies(&db, &miss), naive::satisfies(&db, &miss));
    }

    #[test]
    fn indexed_and_naive_agree_on_handwritten_cases() {
        let (schema, db) = conference_db();
        let queries = [
            rome_query(&schema),
            ConjunctiveQuery::builder(schema.clone())
                .atom("C", [Term::var("x"), Term::var("y"), Term::var("z")])
                .atom("R", [Term::var("x"), Term::var("r")])
                .build()
                .unwrap(),
            ConjunctiveQuery::builder(schema.clone())
                .atom(
                    "C",
                    [Term::var("x"), Term::var("y"), Term::constant("Tokyo")],
                )
                .build()
                .unwrap(),
        ];
        for q in &queries {
            assert_eq!(satisfies(&db, q), naive::satisfies(&db, q), "{q}");
            let mut indexed: Vec<String> = all_valuations(&db, q)
                .iter()
                .map(|v| format!("{v:?}"))
                .collect();
            let mut reference: Vec<String> = naive::all_valuations(&db, q)
                .iter()
                .map(|v| format!("{v:?}"))
                .collect();
            indexed.sort();
            reference.sort();
            assert_eq!(indexed, reference, "{q}");
        }
    }
}
