//! Facts and key-equality.
//!
//! Section 3: *"A fact is an atom in which no variable occurs. Two facts
//! `R1(a1, b1)`, `R2(a2, b2)` are key-equal if `R1 = R2` and `a1 = a2`."*

use crate::{DataError, RelationId, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// A ground atom `R(v1, ..., vn)`.
///
/// The relation is stored as a [`RelationId`] resolved against the schema the
/// fact belongs to; the key is the prefix of length `key_len` of `values`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    relation: RelationId,
    values: Arc<[Value]>,
}

impl Fact {
    /// Creates a fact without arity checking (checked on database insertion).
    pub fn new(relation: RelationId, values: impl Into<Vec<Value>>) -> Self {
        Fact {
            relation,
            values: values.into().into(),
        }
    }

    /// Creates a fact over an already shared value tuple.
    pub(crate) fn from_shared(relation: RelationId, values: Arc<[Value]>) -> Self {
        Fact { relation, values }
    }

    /// Creates a fact, validating arity against the schema.
    pub fn checked(
        schema: &Schema,
        relation: RelationId,
        values: impl Into<Vec<Value>>,
    ) -> Result<Self, DataError> {
        let values: Vec<Value> = values.into();
        let rel = schema.relation(relation);
        if values.len() != rel.arity() {
            return Err(DataError::ArityMismatch {
                relation: rel.name.clone(),
                expected: rel.arity(),
                actual: values.len(),
            });
        }
        Ok(Fact::new(relation, values))
    }

    /// The relation this fact belongs to.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// All values of the fact, in position order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at position `i` (0-based).
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Arity of the fact (number of values).
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The primary-key prefix of the fact, according to the schema.
    pub fn key<'a>(&'a self, schema: &Schema) -> &'a [Value] {
        let k = schema.relation(self.relation).key_len();
        &self.values[..k]
    }

    /// The non-key suffix of the fact, according to the schema.
    pub fn non_key<'a>(&'a self, schema: &Schema) -> &'a [Value] {
        let k = schema.relation(self.relation).key_len();
        &self.values[k..]
    }

    /// Key-equality (Section 3): same relation name and same key prefix.
    pub fn key_equal(&self, other: &Fact, schema: &Schema) -> bool {
        self.relation == other.relation && self.key(schema) == other.key(schema)
    }

    /// Renders the fact using the relation names of `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        FactDisplay { fact: self, schema }
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

struct FactDisplay<'a> {
    fact: &'a Fact,
    schema: &'a Schema,
}

impl fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel = self.schema.relation(self.fact.relation());
        write!(f, "{}(", rel.name)?;
        for (i, v) in self.fact.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_relations([("C", 3, 2), ("R", 2, 1)]).unwrap()
    }

    fn c(schema: &Schema, vals: [&str; 3]) -> Fact {
        Fact::new(
            schema.relation_id("C").unwrap(),
            vals.iter().map(Value::str).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn key_is_the_declared_prefix() {
        let s = schema();
        let f = c(&s, ["PODS", "2016", "Rome"]);
        assert_eq!(f.key(&s), &[Value::str("PODS"), Value::str("2016")]);
        assert_eq!(f.non_key(&s), &[Value::str("Rome")]);
    }

    #[test]
    fn key_equality_follows_the_paper() {
        let s = schema();
        let a = c(&s, ["PODS", "2016", "Rome"]);
        let b = c(&s, ["PODS", "2016", "Paris"]);
        let d = c(&s, ["KDD", "2017", "Rome"]);
        assert!(a.key_equal(&b, &s));
        assert!(!a.key_equal(&d, &s));
        // Key-equality requires the same relation name.
        let r = Fact::new(
            s.relation_id("R").unwrap(),
            vec![Value::str("PODS"), Value::str("A")],
        );
        assert!(!a.key_equal(&r, &s));
    }

    #[test]
    fn checked_construction_validates_arity() {
        let s = schema();
        let id = s.relation_id("R").unwrap();
        assert!(Fact::checked(&s, id, vec![Value::str("PODS")]).is_err());
        assert!(Fact::checked(&s, id, vec![Value::str("PODS"), Value::str("A")]).is_ok());
    }

    #[test]
    fn display_uses_relation_names() {
        let s = schema();
        let f = c(&s, ["PODS", "2016", "Rome"]);
        assert_eq!(f.display(&s).to_string(), "C(PODS, 2016, Rome)");
    }

    #[test]
    fn facts_are_hashable_and_ordered() {
        let s = schema();
        let a = c(&s, ["PODS", "2016", "Rome"]);
        let b = c(&s, ["PODS", "2016", "Paris"]);
        let mut set = std::collections::BTreeSet::new();
        set.insert(a.clone());
        set.insert(b.clone());
        set.insert(a.clone());
        assert_eq!(set.len(), 2);
    }
}
