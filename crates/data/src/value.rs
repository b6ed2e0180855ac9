//! Constants of the data model.
//!
//! The paper assumes an abstract, countably infinite set of constants. In this
//! implementation a constant is a [`Value`]: a string, a 64-bit integer, or a
//! tuple of values. Tuple values are not part of the paper's data model per
//! se, but the coNP-hardness reduction of Theorem 2 constructs constants of
//! the form `⟨θ(x), θ(y)⟩` and `⟨θ(x), θ(y), θ(z)⟩`; representing them as
//! first-class tuple values keeps that reduction faithful and injective.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A constant of the data model.
///
/// `Value` is cheap to clone: strings and tuples are reference counted.
/// Equality, hashing and ordering are structural, so values can be used as
/// block keys and as vertices of the graphs built by the cycle-query solver.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A symbolic constant such as `"PODS"` or `"Rome"`.
    Str(Arc<str>),
    /// An integer constant such as a year.
    Int(i64),
    /// A tuple constant, e.g. `⟨a, b⟩`, as produced by the Theorem 2
    /// reduction (`θ̂` maps some variables to pairs or triples of constants).
    Tuple(Arc<[Value]>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Creates an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Creates a tuple value from its components.
    ///
    /// Tuples compare element-wise: two tuples are equal iff they have the
    /// same length and contain the same elements in the same order, exactly
    /// as required by the proof of Theorem 2.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Tuple(items.into_iter().collect::<Vec<_>>().into())
    }

    /// Creates the pair value `⟨a, b⟩`.
    pub fn pair(a: Value, b: Value) -> Self {
        Value::tuple([a, b])
    }

    /// Creates the triple value `⟨a, b, c⟩`.
    pub fn triple(a: Value, b: Value, c: Value) -> Self {
        Value::tuple([a, b, c])
    }

    /// Returns the string slice if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A human-readable rendering that is also accepted back by the
    /// `cqa-parser` crate (strings are quoted only when necessary).
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            _ => Cow::Owned(self.to_string()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Tuple(items) => {
                write!(f, "<")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Tuple(_) => write!(f, "{self}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn string_values_compare_structurally() {
        assert_eq!(Value::str("Rome"), Value::from("Rome"));
        assert_ne!(Value::str("Rome"), Value::str("Paris"));
    }

    #[test]
    fn int_and_string_are_distinct() {
        assert_ne!(Value::int(2016), Value::str("2016"));
    }

    #[test]
    fn tuples_compare_elementwise() {
        let a = Value::pair(Value::str("a"), Value::str("b"));
        let b = Value::tuple([Value::str("a"), Value::str("b")]);
        let c = Value::pair(Value::str("b"), Value::str("a"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Length matters: <a,b> != <a,b,b>.
        let d = Value::triple(Value::str("a"), Value::str("b"), Value::str("b"));
        assert_ne!(a, d);
    }

    #[test]
    fn display_round_trip_is_readable() {
        assert_eq!(Value::str("PODS").to_string(), "PODS");
        assert_eq!(Value::int(7).to_string(), "7");
        let t = Value::pair(Value::str("x"), Value::int(1));
        assert_eq!(t.to_string(), "<x,1>");
    }

    #[test]
    fn values_are_ordered_and_usable_in_btreeset() {
        let set: BTreeSet<Value> = [Value::int(2), Value::int(1), Value::str("a")]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let v = Value::str("a fairly long constant name that would be costly to copy");
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::int(3).as_int(), Some(3));
        assert!(Value::int(3).as_str().is_none());
    }
}
