//! Database schemas: relation names with `[n, k]` signatures.
//!
//! Section 3 of the paper: *"Every relation name `R` has a fixed signature,
//! which is a pair `[n, k]` with `n >= k >= 1`: the integer `n` is the arity
//! of the relation name and `{1, 2, ..., k}` is the primary key. The relation
//! name `R` is all-key if `n = k`."*

use crate::{DataError, FxHashMap};
use std::fmt;
use std::sync::Arc;

/// Index of a relation inside a [`Schema`].
///
/// Relation ids are dense (`0..schema.len()`), which lets the rest of the
/// workspace use plain vectors indexed by relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RelationId(pub(crate) u32);

impl RelationId {
    /// Returns the dense index of this relation.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a relation id from a dense index (`0..schema.len()`).
    pub fn from_index(i: usize) -> Self {
        RelationId(i as u32)
    }
}

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel#{}", self.0)
    }
}

/// The signature `[n, k]` of a relation: arity `n`, primary key `{1..k}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    /// Arity `n` of the relation.
    pub arity: usize,
    /// Length `k` of the primary-key prefix (`1 <= k <= n`).
    pub key_len: usize,
}

impl Signature {
    /// Creates a signature, without validation (validated by [`Schema::add_relation`]).
    pub fn new(arity: usize, key_len: usize) -> Self {
        Signature { arity, key_len }
    }

    /// Returns true if the relation is *all-key* (`n = k`).
    ///
    /// All-key relations are consistent by construction: every block is a
    /// singleton, so they behave like certain (deterministic) relations.
    /// Lemma 9 of the paper exploits exactly this.
    pub fn is_all_key(&self) -> bool {
        self.arity == self.key_len
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.arity, self.key_len)
    }
}

/// A declared relation: name plus signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    /// The relation name (unique within a schema).
    pub name: String,
    /// The `[n, k]` signature.
    pub signature: Signature,
}

impl Relation {
    /// Arity `n`.
    pub fn arity(&self) -> usize {
        self.signature.arity
    }

    /// Key length `k`.
    pub fn key_len(&self) -> usize {
        self.signature.key_len
    }

    /// True iff the relation is all-key.
    pub fn is_all_key(&self) -> bool {
        self.signature.is_all_key()
    }
}

/// A database schema: a finite set of relation names with signatures.
///
/// Schemas are immutable once wrapped in an [`Arc`] and shared between the
/// database, the query and all solver components; this guarantees that
/// relation ids mean the same thing everywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    relations: Vec<Relation>,
    by_name: FxHashMap<String, RelationId>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Declares a relation with signature `[arity, key_len]`.
    ///
    /// Fails if the name is already taken or the signature violates
    /// `arity >= key_len >= 1`.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        key_len: usize,
    ) -> Result<RelationId, DataError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(DataError::DuplicateRelation { name });
        }
        if key_len == 0 || key_len > arity {
            return Err(DataError::InvalidSignature {
                name,
                arity,
                key_len,
            });
        }
        let id = RelationId(self.relations.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.relations.push(Relation {
            name,
            signature: Signature::new(arity, key_len),
        });
        Ok(id)
    }

    /// Convenience constructor: builds a schema from `(name, arity, key_len)` triples.
    pub fn from_relations<'a>(
        rels: impl IntoIterator<Item = (&'a str, usize, usize)>,
    ) -> Result<Self, DataError> {
        let mut schema = Schema::new();
        for (name, arity, key_len) in rels {
            schema.add_relation(name, arity, key_len)?;
        }
        Ok(schema)
    }

    /// Wraps the schema in an [`Arc`] for sharing.
    pub fn into_shared(self) -> Arc<Schema> {
        Arc::new(self)
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True iff no relation is declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Looks a relation up by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this schema.
    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Looks a relation up by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.by_name.get(name).copied()
    }

    /// Looks a relation up by name, returning an error mentioning the name.
    pub fn require(&self, name: &str) -> Result<RelationId, DataError> {
        self.relation_id(name)
            .ok_or_else(|| DataError::UnknownRelation {
                name: name.to_owned(),
            })
    }

    /// Iterates over `(id, relation)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RelationId, &Relation)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelationId(i as u32), r))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (_, r) in self.iter() {
            writeln!(f, "{}{}", r.name, r.signature)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_relations_with_signatures() {
        let mut s = Schema::new();
        let c = s.add_relation("C", 3, 2).unwrap();
        let r = s.add_relation("R", 2, 1).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.relation(c).name, "C");
        assert_eq!(s.relation(c).arity(), 3);
        assert_eq!(s.relation(c).key_len(), 2);
        assert_eq!(s.relation_id("R"), Some(r));
        assert_eq!(s.relation_id("X"), None);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut s = Schema::new();
        s.add_relation("R", 2, 1).unwrap();
        assert!(matches!(
            s.add_relation("R", 3, 1),
            Err(DataError::DuplicateRelation { .. })
        ));
    }

    #[test]
    fn rejects_invalid_signatures() {
        let mut s = Schema::new();
        assert!(matches!(
            s.add_relation("R", 2, 0),
            Err(DataError::InvalidSignature { .. })
        ));
        assert!(matches!(
            s.add_relation("S", 2, 3),
            Err(DataError::InvalidSignature { .. })
        ));
        // n = k = 1 is the smallest legal signature.
        assert!(s.add_relation("T", 1, 1).is_ok());
    }

    #[test]
    fn all_key_detection() {
        let s = Schema::from_relations([("R", 2, 1), ("S", 3, 3)]).unwrap();
        assert!(!s.relation(s.relation_id("R").unwrap()).is_all_key());
        assert!(s.relation(s.relation_id("S").unwrap()).is_all_key());
    }

    #[test]
    fn require_reports_unknown_relation() {
        let s = Schema::from_relations([("R", 2, 1)]).unwrap();
        let err = s.require("Missing").unwrap_err();
        assert!(err.to_string().contains("Missing"));
    }

    #[test]
    fn display_lists_signatures() {
        let s = Schema::from_relations([("R", 2, 1), ("S", 3, 2)]).unwrap();
        let text = s.to_string();
        assert!(text.contains("R[2,1]"));
        assert!(text.contains("S[3,2]"));
    }
}
