//! Substitution of constants for variables (Definition 7).
//!
//! `q[x̄ ↦ ā]` denotes the query obtained from `q` by replacing each
//! occurrence of `xi` with `ai`. The tractability proofs (Theorem 3 and the
//! first-order rewriting of Theorem 1) repeatedly ground key variables of an
//! unattacked atom and recurse on the substituted query.

use crate::{Atom, ConjunctiveQuery, Term, Valuation, Variable};
use cqa_data::Value;
use rustc_hash::FxHashMap;

/// Applies a variable-to-constant substitution to an atom.
pub fn substitute_atom(atom: &Atom, map: &FxHashMap<Variable, Value>) -> Atom {
    let terms: Vec<Term> = atom
        .terms()
        .iter()
        .map(|t| match t {
            Term::Var(v) => match map.get(v) {
                Some(value) => Term::Const(value.clone()),
                None => t.clone(),
            },
            Term::Const(_) => t.clone(),
        })
        .collect();
    Atom::new(atom.relation(), terms)
}

/// The query `q[x ↦ a]`.
pub fn substitute_var(query: &ConjunctiveQuery, var: &Variable, value: &Value) -> ConjunctiveQuery {
    let mut map = FxHashMap::default();
    map.insert(var.clone(), value.clone());
    substitute_map(query, &map)
}

/// The query `q[x̄ ↦ ā]` for an arbitrary mapping.
///
/// Free variables that get substituted are removed from the free-variable
/// list (the query becomes "more Boolean").
pub fn substitute_map(
    query: &ConjunctiveQuery,
    map: &FxHashMap<Variable, Value>,
) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = query
        .atoms()
        .iter()
        .map(|a| substitute_atom(a, map))
        .collect();
    // Collapse duplicates that may be created by the substitution
    // (e.g. R(x) and R(y) both become R(a)).
    let mut unique: Vec<Atom> = Vec::with_capacity(atoms.len());
    for a in atoms {
        if !unique.contains(&a) {
            unique.push(a);
        }
    }
    let free: Vec<Variable> = query
        .free_vars()
        .iter()
        .filter(|v| !map.contains_key(v))
        .cloned()
        .collect();
    query.with_atoms(unique, free)
}

/// The query `q[x̄ ↦ ā]` for parallel sequences of variables and values.
pub fn substitute_seq(
    query: &ConjunctiveQuery,
    vars: &[Variable],
    values: &[Value],
) -> ConjunctiveQuery {
    debug_assert_eq!(vars.len(), values.len());
    let map: FxHashMap<Variable, Value> =
        vars.iter().cloned().zip(values.iter().cloned()).collect();
    substitute_map(query, &map)
}

/// Grounds a query with a valuation: every bound variable is replaced by its
/// value. (Partial valuations ground only the bound variables.)
pub fn ground_with(query: &ConjunctiveQuery, valuation: &Valuation) -> ConjunctiveQuery {
    let map: FxHashMap<Variable, Value> = query
        .vars()
        .into_iter()
        .filter_map(|v| valuation.get(&v).map(|val| (v.clone(), val.clone())))
        .collect();
    substitute_map(query, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_relations([("R", 2, 1), ("S", 2, 1)])
            .unwrap()
            .into_shared()
    }

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery::builder(schema())
            .atom("R", [Term::var("x"), Term::var("y")])
            .atom("S", [Term::var("y"), Term::var("x")])
            .build()
            .unwrap()
    }

    #[test]
    fn substitution_replaces_every_occurrence() {
        let q = query();
        let q2 = substitute_var(&q, &Variable::new("x"), &Value::str("a"));
        assert_eq!(q2.to_string(), "q() :- R('a'; y), S(y; 'a')");
        // The original query is untouched (persistent data structure style).
        assert_eq!(q.to_string(), "q() :- R(x; y), S(y; x)");
        assert_eq!(q2.vars().len(), 1);
    }

    #[test]
    fn substituting_all_variables_grounds_the_query() {
        let q = query();
        let q2 = substitute_seq(
            &q,
            &[Variable::new("x"), Variable::new("y")],
            &[Value::str("a"), Value::str("b")],
        );
        assert!(q2.vars().is_empty());
    }

    #[test]
    fn duplicate_atoms_after_substitution_are_collapsed() {
        let schema = Schema::from_relations([("R", 1, 1)]).unwrap().into_shared();
        let q = ConjunctiveQuery::builder(schema)
            .atom("R", [Term::var("x")])
            .atom("R", [Term::var("y")])
            .build()
            .unwrap();
        assert_eq!(q.len(), 2);
        let grounded = substitute_seq(
            &q,
            &[Variable::new("x"), Variable::new("y")],
            &[Value::str("a"), Value::str("a")],
        );
        assert_eq!(grounded.len(), 1);
    }

    #[test]
    fn free_variables_are_dropped_when_substituted() {
        let q = ConjunctiveQuery::builder(schema())
            .atom("R", [Term::var("x"), Term::var("y")])
            .free([Variable::new("x")])
            .build()
            .unwrap();
        let q2 = substitute_var(&q, &Variable::new("x"), &Value::str("a"));
        assert!(q2.is_boolean());
    }

    #[test]
    fn grounding_with_a_partial_valuation() {
        let q = query();
        let mut v = Valuation::new();
        v.bind(Variable::new("y"), Value::str("b"));
        let q2 = ground_with(&q, &v);
        assert_eq!(q2.vars().len(), 1);
        assert!(q2.vars().contains(&Variable::new("x")));
    }
}
