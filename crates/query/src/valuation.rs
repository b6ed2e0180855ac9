//! Valuations: total mappings from variables to constants.
//!
//! Section 3: *"Let `U` be a set of variables. A valuation over `U` is a
//! total mapping `θ` from `U` to the set of constants. Such valuation `θ` is
//! extended to be the identity on constants and on variables not in `U`."*

use crate::{Atom, Term, Variable};
use cqa_data::{Fact, Schema, Value};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::fmt;

/// A (partial or total) mapping from variables to constants.
///
/// During query evaluation valuations are built up incrementally, so the type
/// supports partial mappings; the paper's "valuation over `vars(q)`"
/// corresponds to a valuation that is total on the query's variables.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    bindings: FxHashMap<Variable, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Builds a valuation from `(variable, value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Variable, Value)>) -> Self {
        Valuation {
            bindings: pairs.into_iter().collect(),
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True iff no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// The value bound to a variable, if any.
    pub fn get(&self, var: &Variable) -> Option<&Value> {
        self.bindings.get(var)
    }

    /// Binds a variable. Returns `false` (and leaves the valuation unchanged)
    /// if the variable is already bound to a *different* value.
    pub fn bind(&mut self, var: Variable, value: Value) -> bool {
        match self.bindings.get(&var) {
            Some(existing) => *existing == value,
            None => {
                self.bindings.insert(var, value);
                true
            }
        }
    }

    /// The paper's `θ[x̄ ↦ ā]` (Definition 7): rebinds the listed variables.
    pub fn overridden(&self, vars: &[Variable], values: &[Value]) -> Valuation {
        let mut v = self.clone();
        for (x, a) in vars.iter().zip(values) {
            v.bindings.insert(x.clone(), a.clone());
        }
        v
    }

    /// Applies the valuation to a term; variables not bound map to `None`.
    pub fn apply_term(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.bindings.get(v).cloned(),
        }
    }

    /// Applies the valuation to an atom, producing the fact `θ(F)`.
    /// Returns `None` if some variable of the atom is unbound.
    pub fn apply_atom(&self, atom: &Atom) -> Option<Fact> {
        let values: Option<Vec<Value>> = atom.terms().iter().map(|t| self.apply_term(t)).collect();
        Some(Fact::new(atom.relation(), values?))
    }

    /// Attempts to extend this valuation so that `θ(atom) = fact`.
    /// Returns the extended valuation, or `None` if the fact does not unify
    /// with the atom (constant mismatch, repeated-variable mismatch, or a
    /// conflict with an existing binding).
    pub fn unify_with_fact(&self, atom: &Atom, fact: &Fact, _schema: &Schema) -> Option<Valuation> {
        if atom.relation() != fact.relation() || atom.arity() != fact.arity() {
            return None;
        }
        let mut extended = self.clone();
        for (term, value) in atom.terms().iter().zip(fact.values()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Var(v) => {
                    if !extended.bind(v.clone(), value.clone()) {
                        return None;
                    }
                }
            }
        }
        Some(extended)
    }

    /// The bound values of the listed variables, in order; `None` if some
    /// variable is unbound. Used to extract answer tuples.
    pub fn project(&self, vars: &[Variable]) -> Option<Vec<Value>> {
        vars.iter().map(|v| self.bindings.get(v).cloned()).collect()
    }

    /// Iterates over the bindings in variable order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &Value)> {
        let sorted: BTreeMap<&Variable, &Value> = self.bindings.iter().collect();
        sorted.into_iter().collect::<Vec<_>>().into_iter()
    }
}

impl fmt::Debug for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (var, val)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{var}↦{val}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::Schema;

    fn schema() -> Schema {
        Schema::from_relations([("R", 2, 1), ("S", 3, 2)]).unwrap()
    }

    #[test]
    fn binding_conflicts_are_rejected() {
        let mut v = Valuation::new();
        assert!(v.bind(Variable::new("x"), Value::str("a")));
        assert!(v.bind(Variable::new("x"), Value::str("a")));
        assert!(!v.bind(Variable::new("x"), Value::str("b")));
        assert_eq!(v.get(&Variable::new("x")), Some(&Value::str("a")));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn apply_atom_requires_total_bindings() {
        let s = schema();
        let atom = Atom::new(
            s.relation_id("R").unwrap(),
            vec![Term::var("x"), Term::var("y")],
        );
        let mut v = Valuation::new();
        v.bind(Variable::new("x"), Value::str("a"));
        assert!(v.apply_atom(&atom).is_none());
        v.bind(Variable::new("y"), Value::str("b"));
        let fact = v.apply_atom(&atom).unwrap();
        assert_eq!(fact.values(), &[Value::str("a"), Value::str("b")]);
    }

    #[test]
    fn unify_handles_constants_and_repeated_variables() {
        let s = schema();
        let r = s.relation_id("R").unwrap();
        // R(x, x) unifies only with facts whose two values coincide.
        let atom = Atom::new(r, vec![Term::var("x"), Term::var("x")]);
        let ok = Fact::new(r, vec![Value::str("a"), Value::str("a")]);
        let bad = Fact::new(r, vec![Value::str("a"), Value::str("b")]);
        let base = Valuation::new();
        assert!(base.unify_with_fact(&atom, &ok, &s).is_some());
        assert!(base.unify_with_fact(&atom, &bad, &s).is_none());
        // Constant positions must match exactly.
        let atom_c = Atom::new(r, vec![Term::var("x"), Term::constant("b")]);
        assert!(base.unify_with_fact(&atom_c, &bad, &s).is_some());
        assert!(base.unify_with_fact(&atom_c, &ok, &s).is_none());
        // Existing bindings constrain unification.
        let mut bound = Valuation::new();
        bound.bind(Variable::new("x"), Value::str("z"));
        assert!(bound.unify_with_fact(&atom_c, &bad, &s).is_none());
    }

    #[test]
    fn unify_rejects_wrong_relation() {
        let s = schema();
        let r = s.relation_id("R").unwrap();
        let srel = s.relation_id("S").unwrap();
        let atom = Atom::new(r, vec![Term::var("x"), Term::var("y")]);
        let fact = Fact::new(
            srel,
            vec![Value::str("a"), Value::str("b"), Value::str("c")],
        );
        assert!(Valuation::new().unify_with_fact(&atom, &fact, &s).is_none());
    }

    #[test]
    fn projection_follows_the_listed_order() {
        let v = Valuation::from_pairs([
            (Variable::new("x"), Value::str("a")),
            (Variable::new("y"), Value::str("b")),
            (Variable::new("z"), Value::str("c")),
        ]);
        assert_eq!(
            v.project(&[Variable::new("z"), Variable::new("x")]),
            Some(vec![Value::str("c"), Value::str("a")])
        );
        assert_eq!(v.project(&[Variable::new("w")]), None);
    }

    #[test]
    fn overridden_rebinds_listed_variables() {
        let v = Valuation::from_pairs([(Variable::new("x"), Value::str("a"))]);
        let w = v.overridden(
            &[Variable::new("x"), Variable::new("y")],
            &[Value::str("b"), Value::str("c")],
        );
        assert_eq!(w.get(&Variable::new("x")), Some(&Value::str("b")));
        assert_eq!(w.get(&Variable::new("y")), Some(&Value::str("c")));
        // The original is untouched.
        assert_eq!(v.get(&Variable::new("x")), Some(&Value::str("a")));
    }

    #[test]
    fn debug_formatting_is_deterministic() {
        let v = Valuation::from_pairs([
            (Variable::new("y"), Value::str("b")),
            (Variable::new("x"), Value::str("a")),
        ]);
        assert_eq!(format!("{v:?}"), "{x↦a, y↦b}");
    }
}
