//! Query atoms `R(x̄, ȳ)`.

use crate::{Term, Variable};
use cqa_data::{RelationId, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// Index of an atom within a [`crate::ConjunctiveQuery`] (dense, stable).
pub type AtomId = usize;

/// An atom `R(s1, ..., sn)` where each `si` is a variable or a constant.
///
/// The key positions are the prefix of length `key_len(R)` as declared in the
/// schema; the paper writes atoms as `R(x̄, ȳ)` with the key underlined.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    relation: RelationId,
    terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom. Arity is validated by [`crate::ConjunctiveQuery`].
    pub fn new(relation: RelationId, terms: impl Into<Vec<Term>>) -> Self {
        Atom {
            relation,
            terms: terms.into(),
        }
    }

    /// The relation of the atom.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// All terms, in position order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The key-position terms (`x̄`), i.e. the prefix of length `key_len`.
    pub fn key_terms<'a>(&'a self, schema: &Schema) -> &'a [Term] {
        &self.terms[..schema.relation(self.relation).key_len()]
    }

    /// `key(F)`: the set of variables occurring in the key positions.
    pub fn key_vars(&self, schema: &Schema) -> BTreeSet<Variable> {
        self.key_terms(schema)
            .iter()
            .filter_map(Term::as_var)
            .cloned()
            .collect()
    }

    /// `vars(F)`: the set of variables occurring anywhere in the atom.
    pub fn vars(&self) -> BTreeSet<Variable> {
        self.terms
            .iter()
            .filter_map(Term::as_var)
            .cloned()
            .collect()
    }

    /// True iff the variable occurs in the atom.
    pub fn contains_var(&self, var: &Variable) -> bool {
        self.terms
            .iter()
            .any(|t| t.as_var().is_some_and(|v| v == var))
    }

    /// Renders the atom with the relation name from the schema, separating
    /// the key prefix with `;` (a textual stand-in for the paper's underline),
    /// e.g. `R(x, y; z)`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        AtomDisplay { atom: self, schema }
    }
}

struct AtomDisplay<'a> {
    atom: &'a Atom,
    schema: &'a Schema,
}

impl fmt::Display for AtomDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = self.schema.relation(self.atom.relation());
        write!(f, "{}(", rel.name)?;
        let key_len = rel.key_len();
        for (i, t) in self.atom.terms().iter().enumerate() {
            if i > 0 {
                write!(f, "{}", if i == key_len { "; " } else { ", " })?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_data::Value;

    fn schema() -> Schema {
        Schema::from_relations([("R", 3, 2), ("S", 2, 1)]).unwrap()
    }

    fn atom(schema: &Schema, rel: &str, terms: Vec<Term>) -> Atom {
        Atom::new(schema.relation_id(rel).unwrap(), terms)
    }

    #[test]
    fn key_and_vars_follow_the_signature() {
        let s = schema();
        // R(x, 'a'; y): key positions are the first two.
        let a = atom(
            &s,
            "R",
            vec![Term::var("x"), Term::constant("a"), Term::var("y")],
        );
        assert_eq!(a.key_terms(&s).len(), 2);
        assert_eq!(a.key_vars(&s), [Variable::new("x")].into_iter().collect());
        assert_eq!(
            a.vars(),
            [Variable::new("x"), Variable::new("y")]
                .into_iter()
                .collect()
        );
        assert!(a.contains_var(&Variable::new("y")));
        assert!(!a.contains_var(&Variable::new("z")));
    }

    #[test]
    fn ground_atoms_have_no_vars() {
        let s = schema();
        let a = atom(
            &s,
            "S",
            vec![Term::Const(Value::str("a")), Term::Const(Value::int(1))],
        );
        assert!(a.vars().is_empty());
    }

    #[test]
    fn display_separates_the_key_prefix() {
        let s = schema();
        let a = atom(
            &s,
            "R",
            vec![Term::var("x"), Term::var("y"), Term::var("z")],
        );
        assert_eq!(a.display(&s).to_string(), "R(x, y; z)");
        let b = atom(&s, "S", vec![Term::var("u"), Term::constant("Rome")]);
        assert_eq!(b.display(&s).to_string(), "S(u; 'Rome')");
    }

    #[test]
    fn repeated_variables_are_reported_once() {
        let s = schema();
        let a = atom(
            &s,
            "R",
            vec![Term::var("x"), Term::var("x"), Term::var("x")],
        );
        assert_eq!(a.vars().len(), 1);
        assert_eq!(a.key_vars(&s).len(), 1);
    }
}
