//! Variables and terms.

use cqa_data::Value;
use std::fmt;
use std::sync::Arc;

/// A query variable.
///
/// Variables are identified by name; cloning is cheap (reference counted).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(Arc<str>);

impl Variable {
    /// Creates a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Variable(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Creates the indexed variable `x1`, `x2`, … used by the `C(k)` /
    /// `AC(k)` query families (Definition 8 of the paper).
    pub fn indexed(prefix: &str, i: usize) -> Self {
        Variable::new(format!("{prefix}{i}"))
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl From<&str> for Variable {
    fn from(s: &str) -> Self {
        Variable::new(s)
    }
}

/// A term: either a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable occurrence.
    Var(Variable),
    /// A constant occurrence.
    Const(Value),
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Variable::new(name))
    }

    /// Creates a constant term.
    pub fn constant(value: impl Into<Value>) -> Self {
        Term::Const(value.into())
    }

    /// Returns the variable if this term is one.
    pub fn as_var(&self) -> Option<&Variable> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// True iff the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "'{c}'"),
        }
    }
}

impl From<Variable> for Term {
    fn from(v: Variable) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_compare_by_name() {
        assert_eq!(Variable::new("x"), Variable::from("x"));
        assert_ne!(Variable::new("x"), Variable::new("y"));
        assert_eq!(Variable::indexed("x", 3).name(), "x3");
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("x");
        let c = Term::constant("Rome");
        assert!(v.is_var());
        assert!(!c.is_var());
        assert_eq!(v.as_var().unwrap().name(), "x");
        assert!(c.as_var().is_none());
    }

    #[test]
    fn display_distinguishes_vars_and_constants() {
        assert_eq!(Term::var("x").to_string(), "x");
        assert_eq!(Term::constant("Rome").to_string(), "'Rome'");
        assert_eq!(Term::constant(7i64).to_string(), "'7'");
    }
}
